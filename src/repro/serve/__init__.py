"""``repro.serve`` — the long-lived decomposition service (ROADMAP item 3).

Every CLI invocation pays the full cold-start: CSF build, scatter-plan
construction, worker-pool spin-up, backend compile (in BENCH_mttkrp.json a
cold MTTKRP sweep costs 1.6x a steady one).  This package keeps all of that state alive in one
process and serves decompose/tucker/complete jobs over a line-delimited
JSON socket:

* :mod:`~repro.serve.protocol` — the wire format (one JSON object per
  line, versioned envelope, structured error codes);
* :mod:`~repro.serve.jobstore` — job records and their state machine
  (``queued → running → done/failed``, plus ``suspended`` and
  ``cancelled``);
* :mod:`~repro.serve.quotas` — per-tenant admission control (max nnz,
  max resident bytes, max queued jobs) with structured rejections;
* :mod:`~repro.serve.engine` — the warm state: tensor + CSF/plan caches,
  one persistent tasking layer and worker pool, the resolved backend,
  one solver snapshot per suspend of a running cpd job (read by its
  resume), and job-level fault retry;
* :mod:`~repro.serve.scheduler` — batching: jobs arriving within the
  batch window that share a batch key (same tensor, rank and solver
  options modulo seed) run back-to-back against the same hot CSF set;
* :mod:`~repro.serve.server` — the TCP daemon (``repro serve``);
* :mod:`~repro.serve.client` — the thin client (``repro submit``).

See docs/SERVING.md for the protocol, batching semantics, quota
configuration, the metrics scrape and suspend/resume.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobstore import Job, JobStore
from repro.serve.quotas import QuotaExceeded, QuotaPolicy, TenantQuotas
from repro.serve.server import ReproServer, ServeConfig

__all__ = [
    "ReproServer",
    "ServeConfig",
    "ServeClient",
    "ServeError",
    "Job",
    "JobStore",
    "QuotaPolicy",
    "TenantQuotas",
    "QuotaExceeded",
]
