"""The paper's cost figures stay byte-identical.

Figures 4–7 (evaluation cost against index size, before and after
updates) report visited-node counts, not timings, so any change to the
query evaluator must reproduce them exactly.  Each test regenerates one
figure at scale 1.0 — the table ``dkindex bench fig4|fig5|fig6|fig7
--scale 1.0`` prints — and compares it byte for byte with its block in
``docs/results-scale-1.0.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import ExperimentConfig

RESULTS = Path(__file__).resolve().parent.parent / "docs" / "results-scale-1.0.txt"


def committed_block(tag: str) -> str:
    """The block of the results file whose header starts with ``[tag]``."""
    blocks = RESULTS.read_text(encoding="utf-8").split("\n\n")
    (block,) = [block for block in blocks if block.startswith(f"[{tag}]")]
    return block.strip("\n")


@pytest.mark.parametrize("experiment", ["fig4", "fig5", "fig6", "fig7"])
def test_cost_figure_matches_committed_results(experiment):
    runner, (dataset,) = EXPERIMENTS[experiment]
    rendered = runner(dataset, ExperimentConfig(scale=1.0)).render()
    assert rendered == committed_block(experiment.upper())
