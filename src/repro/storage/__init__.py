"""Out-of-core storage: paged buffers, an LRU pool, external sorting.

The in-memory columnar path (:mod:`repro.graph.columnar`) tops out at
graphs whose flat CSR buffers fit in RAM.  This subpackage removes that
ceiling with the block-structured discipline of I/O-efficient
bisimulation construction (Luo et al., Hellings et al. — see PAPERS.md):

- :class:`~repro.storage.paged.PagedStore` — named ``int64`` buffers
  split into fixed-size pages on disk, each page written through the
  atomic writer of :mod:`repro.maintenance.store` and pinned by a
  sha256 digest in a sealed, generation-numbered manifest.  Mutations
  are copy-on-write: :meth:`~repro.storage.paged.PagedStore.checkpoint`
  publishes a new *manifest* referencing fresh pages for dirty blocks
  and the existing files for everything else — never a full rewrite.
- :class:`~repro.storage.paged.PagedBufferPool` — the LRU buffer pool
  in front of the page files: a byte budget, pin/unpin, dirty-page
  write-back on eviction, and hit/miss/eviction counters.
- :class:`~repro.storage.paged.PageCursor` — the forward,
  page-at-a-time reader under the external engine's node-ordered
  sweeps: one pool lookup per page it crosses.
- :class:`~repro.storage.paged.PagedCSRGraph` — a paged snapshot
  satisfying the :class:`~repro.graph.columnar.CSRBuffers` read surface
  the columnar refinement engine consumes, so ``engine="external"``
  (:mod:`repro.partition.external`) can refine graphs larger than the
  pool budget.
- :class:`~repro.storage.spill.SpillRuns` — sorted run spilling with a
  streaming merge, used by the external engine for per-round
  ``(node, signature)`` working sets that exceed the budget.
"""

from repro.storage.paged import (
    DEFAULT_PAGE_BYTES,
    DEFAULT_POOL_BUDGET,
    PAGE_BYTES_ENV_VAR,
    POOL_BUDGET_ENV_VAR,
    PageCursor,
    PagedBuffer,
    PagedBufferPool,
    PagedCSRGraph,
    PagedStore,
    PoolStats,
    ScrubPage,
    ScrubReport,
    resolve_page_bytes,
    resolve_pool_budget,
)
from repro.storage.retry import (
    DEFAULT_IO_BACKOFF_MS,
    DEFAULT_IO_RETRIES,
    IO_BACKOFF_MS_ENV_VAR,
    IO_RETRIES_ENV_VAR,
    TRANSIENT_ERRNOS,
    RetryPolicy,
    io_retry,
    resolve_retry_policy,
)
from repro.storage.spill import (
    SPILL_BUDGET_ENV_VAR,
    SpillRuns,
    resolve_spill_budget,
)

__all__ = [
    "DEFAULT_IO_BACKOFF_MS",
    "DEFAULT_IO_RETRIES",
    "DEFAULT_PAGE_BYTES",
    "DEFAULT_POOL_BUDGET",
    "IO_BACKOFF_MS_ENV_VAR",
    "IO_RETRIES_ENV_VAR",
    "PAGE_BYTES_ENV_VAR",
    "POOL_BUDGET_ENV_VAR",
    "SPILL_BUDGET_ENV_VAR",
    "TRANSIENT_ERRNOS",
    "PageCursor",
    "PagedBuffer",
    "PagedBufferPool",
    "PagedCSRGraph",
    "PagedStore",
    "PoolStats",
    "RetryPolicy",
    "ScrubPage",
    "ScrubReport",
    "SpillRuns",
    "io_retry",
    "resolve_page_bytes",
    "resolve_pool_budget",
    "resolve_retry_policy",
    "resolve_spill_budget",
]
