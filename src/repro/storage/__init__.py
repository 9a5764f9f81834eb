"""Out-of-core storage: paged buffers, an LRU pool, page cursors.

The in-memory columnar path (:mod:`repro.graph.columnar`) tops out at
graphs whose flat CSR buffers fit in RAM.  This subpackage removes that
ceiling with the block-structured discipline of I/O-efficient
bisimulation construction (Luo et al., Hellings et al. — see PAPERS.md):

- :class:`~repro.storage.paged.PagedStore` — named ``int64`` buffers
  split into fixed-size pages on disk.  Each generation appends the
  pages it writes to one segment file and ``fsync``\\ s it once; a
  sealed, generation-numbered manifest pins every page by segment,
  offset and sha256 digest.  Mutations are copy-on-write:
  :meth:`~repro.storage.paged.PagedStore.checkpoint` publishes a new
  *manifest* referencing fresh pages for dirty blocks, appended to the
  new generation's segment, and the existing pages for everything
  else — never a full rewrite.
- :class:`~repro.storage.paged.PagedBufferPool` — the LRU buffer pool
  in front of the segments: a byte budget, dirty-page write-back on
  eviction, and hit/miss/eviction counters; a miss reads one page's
  byte range.
- :class:`~repro.storage.paged.PageCursor` — the forward,
  page-at-a-time reader under the external engine's node-ordered
  sweeps: one pool lookup per page it crosses.
- :class:`~repro.storage.paged.PagedCSRGraph` — a paged snapshot
  satisfying the :class:`~repro.graph.columnar.CSRBuffers` read surface
  the columnar refinement engine consumes, so ``engine="external"``
  (:mod:`repro.partition.external`) can refine graphs larger than the
  pool budget.
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

__all__ = [
    "DEFAULT_IO_BACKOFF_MS",
    "DEFAULT_IO_RETRIES",
    "DEFAULT_PAGE_BYTES",
    "DEFAULT_POOL_BUDGET",
    "IO_BACKOFF_MS_ENV_VAR",
    "IO_RETRIES_ENV_VAR",
    "PAGE_BYTES_ENV_VAR",
    "POOL_BUDGET_ENV_VAR",
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
    "io_retry",
    "resolve_page_bytes",
    "resolve_pool_budget",
    "resolve_retry_policy",
]
