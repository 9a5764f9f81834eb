"""A DBLP-like bibliography dataset (extension: a third corpus).

The paper evaluates on two datasets; a reproduction gains confidence
from a third with yet another shape.  DBLP-style bibliographies are the
classic "shallow but enormously wide" XML corpus: millions of flat
publication records, a small label vocabulary, and one dominant
reference kind (citations) — the opposite regime from NASA's deep
irregularity.  Useful properties for the index experiments:

- bisimulation saturates at small k (records are shallow), so A(k)
  curves flatten early;
- citation edges between ``cite`` elements and publications are the
  natural ID/IDREF pairs for the update experiments;
- heavy label skew (thousands of ``author`` nodes) stresses the
  label-split base case.
"""

from __future__ import annotations

import random

from repro.datasets.dtd import (
    DTDGeneratorConfig,
    GeneratedDocument,
    RandomDocumentGenerator,
    check_scale,
    parse_dtd,
)

#: DBLP dtd subset (element spellings follow the real dblp.dtd).
DBLP_DTD = """
<!ELEMENT dblp (article*, inproceedings*, book*, phdthesis*)>

<!ELEMENT article (author+, title, pages?, year, volume?, journal, ee?,
                   cite*)>
<!ATTLIST article key ID #REQUIRED>
<!ELEMENT inproceedings (author+, title, pages?, year, booktitle,
                         crossref?, ee?, cite*)>
<!ATTLIST inproceedings key ID #REQUIRED>
<!ELEMENT book (author+, title, publisher, year, isbn?, cite*)>
<!ATTLIST book key ID #REQUIRED>
<!ELEMENT phdthesis (author, title, year, school)>
<!ATTLIST phdthesis key ID #REQUIRED>

<!ELEMENT author (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT pages (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT volume (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
<!ELEMENT booktitle (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT isbn (#PCDATA)>
<!ELEMENT school (#PCDATA)>
<!ELEMENT ee (#PCDATA)>
<!ELEMENT cite EMPTY>
<!ATTLIST cite ref IDREF #REQUIRED>
<!ELEMENT crossref EMPTY>
<!ATTLIST crossref to IDREF #REQUIRED>
"""

#: Reference targets: citations point at articles; crossrefs at
#: proceedings entries.
DBLP_REF_TARGETS = {
    ("cite", "ref"): "article",
    ("crossref", "to"): "inproceedings",
}


def generate_dblp(
    scale: float = 1.0,
    seed: int = 0,
    keep_values: bool = True,
) -> GeneratedDocument:
    """Generate a DBLP-like data graph.

    Args:
        scale: linear size factor; 1.0 yields roughly 25-35k nodes.
        seed: RNG seed.
        keep_values: include VALUE leaf nodes under text elements.

    Raises:
        DatasetError: on a scale that is not a positive finite number.

    Example:
        >>> doc = generate_dblp(scale=0.05, seed=1)
        >>> doc.graph.nodes_with_label("article") != []
        True
        >>> ("cite", "article") in doc.reference_pairs
        True
    """
    check_scale(scale)
    rng = random.Random(seed)

    def span(lo: int, hi: int) -> tuple[int, int]:
        low = max(0, round(lo * scale))
        return (low, max(low + 1, round(hi * scale)))

    config = DTDGeneratorConfig(
        max_depth=6,  # bibliographies are shallow
        optional_prob=0.5,
        star_mean=1.2,
        max_repeat=max(6, int(40 * scale)),
        keep_values=keep_values,
        fanout={
            "article": span(500, 650),
            "inproceedings": span(350, 450),
            "book": span(60, 90),
            "phdthesis": span(25, 40),
            "author": (1, 4),
            "cite": (0, 3),
        },
    )
    generator = RandomDocumentGenerator(
        parse_dtd(DBLP_DTD),
        config=config,
        ref_targets=DBLP_REF_TARGETS,
        ref_prob=0.8,
    )
    return generator.generate("dblp", rng)
