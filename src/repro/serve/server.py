"""The ``repro serve`` daemon: a threaded TCP server over the warm engine.

The protocol plane is a :class:`socketserver.ThreadingTCPServer` — one
daemon thread per connection, each reading line-delimited JSON requests
and answering in order.  Compute runs on the scheduler's single executor
thread against the :class:`~repro.serve.engine.WarmEngine`; the two
planes meet only through the :class:`~repro.serve.jobstore.JobStore` and
the scheduler queue, both lock-protected.

Lifecycle: ``start()`` binds the socket (port 0 picks a free port, the
bound one lands in ``.port`` and optionally ``--port-file``), starts the
scheduler, and optionally installs the concurrency sanitizer and a
fault-injection plan process-wide; ``close()`` stops accepting, lets the
running job finish, cancels the rest, shuts the worker pool down and —
when sanitizing — stores the race report in ``.sanitize_report``.

Metrics are exposed through the ``metrics`` op in two shapes: a JSON
dict, and a Prometheus-style ``# TYPE``-annotated text page
(``repro_serve_*`` families) for scrape pipelines; per-job Chrome traces
recorded with ``{"trace": true}`` come back through the ``trace`` op.
See docs/SERVING.md.
"""

from __future__ import annotations

import socketserver
import threading
import time
from pathlib import Path
from typing import Any

from repro.resilience import FaultPlan, inject_faults
from repro.serve import jobstore as js
from repro.serve import protocol as proto
from repro.serve.engine import WarmEngine
from repro.serve.jobstore import JobStore
from repro.serve.quotas import QuotaExceeded, QuotaPolicy
from repro.serve.scheduler import Scheduler

__all__ = ["ServeConfig", "ReproServer"]

DEFAULT_TENANT = "default"


class ServeConfig:
    """Everything configurable about one daemon instance."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.05,
        tasks: int = 1,
        backend: str | None = "auto",
        spool: str | Path | None = None,
        quotas: QuotaPolicy | None = None,
        max_job_retries: int = 2,
        sanitize: bool = False,
        sanitize_seed: int | None = None,
        fault_targets: list[tuple[str, int]] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self.tasks = tasks
        self.backend = backend
        self.spool = spool
        self.quotas = quotas if quotas is not None else QuotaPolicy()
        self.max_job_retries = max_job_retries
        self.sanitize = sanitize
        self.sanitize_seed = sanitize_seed
        self.fault_targets = list(fault_targets or [])


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    server: "_TcpServer"

    def handle(self) -> None:
        repro_server = self.server.repro_server
        while True:
            request: dict[str, Any] = {}
            try:
                line = self.rfile.readline(proto.MAX_LINE_BYTES + 2)
            except (OSError, ValueError):
                return
            if not line:
                return
            if line.strip() == b"":
                continue
            try:
                request = proto.decode_line(line)
                response = repro_server.dispatch(request)
            except proto.ProtocolError as exc:
                response = proto.err(exc.code, str(exc))
            except Exception as exc:  # noqa: BLE001 — connection boundary:
                # a handler bug must fail this request, not kill the daemon
                response = proto.err("protocol.internal",
                                     f"{type(exc).__name__}: {exc}")
            try:
                self.wfile.write(proto.encode(response))
                self.wfile.flush()
            except (OSError, ValueError):
                return
            if request.get("op") == "shutdown" and response.get("ok"):
                # close this connection; the server is tearing down
                return


class _TcpServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro_server: "ReproServer"


class ReproServer:
    """The long-lived decomposition service (see the module docstring)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        spool = self.config.spool
        if spool is None:
            import tempfile

            spool = tempfile.mkdtemp(prefix="repro-serve-spool-")
        self.store = JobStore()
        self.engine = WarmEngine(
            tasks=self.config.tasks,
            backend=self.config.backend,
            spool=spool,
            max_job_retries=self.config.max_job_retries,
        )
        self.scheduler = Scheduler(self.engine, self.store,
                                   batch_window=self.config.batch_window)
        self._tcp: _TcpServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()
        self._closed = False
        self._close_lock = threading.Lock()
        self._san_cm = None
        self.sanitizer = None
        self.sanitize_report = None
        self._fault_cm = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._tcp is None:
            raise RuntimeError("server not started")
        return self._tcp.server_address[1]

    def start(self) -> "ReproServer":
        """Bind, start the scheduler and the accept loop (non-blocking).

        The sanitizer and fault-plan installs are process-global; if the
        bind (or anything else mid-start) fails they must be unwound, or
        the failed daemon leaves every later decomposition in this
        process running sanitized/faulted.
        """
        try:
            if self.config.sanitize:
                from repro.sanitize import sanitizing

                self._san_cm = sanitizing(seed=self.config.sanitize_seed)
                self.sanitizer = self._san_cm.__enter__()
            if self.config.fault_targets:
                self._fault_cm = inject_faults(
                    FaultPlan(targets=self.config.fault_targets)
                )
                self._fault_cm.__enter__()
            self._tcp = _TcpServer(
                (self.config.host, self.config.port), _Handler
            )
            self._tcp.repro_server = self
            self.scheduler.start()
            self._serve_thread = threading.Thread(
                target=self._tcp.serve_forever, name="serve-accept",
                daemon=True,
            )
            self._serve_thread.start()
        except BaseException:
            self.close()
            raise
        return self

    def wait_for_shutdown(self, timeout: float | None = None) -> bool:
        """Block until a client issues ``shutdown`` (CLI foreground mode)."""
        return self._shutdown_requested.wait(timeout)

    def close(self) -> None:
        """Graceful teardown: drain, stop the pool, collect reports."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        self.scheduler.stop()
        self.engine.shutdown()
        if self._fault_cm is not None:
            self._fault_cm.__exit__(None, None, None)
            self._fault_cm = None
        if self._san_cm is not None:
            self.sanitize_report = self.sanitizer.report()
            self._san_cm.__exit__(None, None, None)
            self._san_cm = None

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return proto.err("protocol.unknown_op", f"unknown op {op!r}")
        return handler(request)

    def _job_or_error(self, request: dict[str, Any]):
        job_id = request.get("id")
        job = self.store.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            return None, proto.err("job.unknown", f"no job {job_id!r}")
        return job, None

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return proto.ok(
            pong=True,
            backend=self.engine.backend.name,
            uptime_s=time.time() - self.engine.started_s,
        )

    def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        spec = request.get("job")
        if not isinstance(spec, dict):
            return proto.err("protocol.bad_envelope", 'submit needs a "job" object')
        tenant = str(request.get("tenant", DEFAULT_TENANT))
        kind = str(spec.get("kind", "cpd"))
        if kind not in ("cpd", "tucker", "complete"):
            return proto.err("job.bad_kind", f"unknown job kind {kind!r}")
        try:
            tensor, key = self.engine.load_tensor(spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return proto.err("job.bad_tensor", f"cannot load tensor: {exc}")
        tensor_bytes = int(tensor.coords.nbytes + tensor.values.nbytes)
        try:
            self.config.quotas.admit(
                tenant,
                nnz=tensor.nnz,
                tensor_bytes=tensor_bytes,
                active_jobs=self.store.tenant_active_jobs(tenant),
                resident_bytes=self.store.tenant_resident_bytes(tenant),
            )
        except QuotaExceeded as exc:
            self.engine.bump("jobs_rejected")
            return proto.err(exc.code, str(exc), **exc.details())
        job = self.store.create(tenant, kind, spec)
        job.nnz = tensor.nnz
        job.resident_bytes = tensor_bytes
        job.tensor_key = key
        self.engine.bump("jobs_submitted")
        self.scheduler.enqueue(job)
        return proto.ok(id=job.id, state=job.state)

    def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        return proto.ok(job=job.snapshot())

    def _op_result(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        if job.state != js.DONE:
            return proto.err("job.not_done",
                             f"job {job.id} is {job.state}, not done",
                             state=job.state)
        return proto.ok(job=job.snapshot(), result=job.result)

    def _op_wait(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        timeout = request.get("timeout")
        timeout = float(timeout) if timeout is not None else None
        if not job.done.wait(timeout=timeout):
            return proto.err("job.timeout",
                             f"job {job.id} still {job.state} after {timeout}s",
                             state=job.state)
        payload = proto.ok(job=job.snapshot())
        if job.state == js.DONE:
            payload["result"] = job.result
        return payload

    def _op_suspend(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        if job.state in js.TERMINAL_STATES or job.state == js.SUSPENDED:
            return proto.err("job.bad_state",
                             f"cannot suspend a {job.state} job", state=job.state)
        if job.state == js.RUNNING and job.kind != "cpd":
            return proto.err(
                "job.not_suspendable",
                f"running {job.kind} jobs cannot be suspended mid-flight "
                "(no per-iteration callback); only cpd jobs can",
            )
        job.suspend_requested.set()
        if job.state == js.QUEUED and self.scheduler.remove_queued(job):
            self.store.transition(job, js.SUSPENDED)
            self.engine.bump("jobs_suspended")
            return proto.ok(id=job.id, state=job.state)
        # running: the engine callback stops the solve at the next
        # iteration boundary and writes the job's one snapshot
        job.done.wait(timeout=float(request.get("timeout", 300.0)))
        if job.state == js.SUSPENDED:
            self.engine.bump("jobs_suspended")
        return proto.ok(id=job.id, state=job.state)

    def _op_resume(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        if job.state != js.SUSPENDED:
            return proto.err("job.bad_state",
                             f"cannot resume a {job.state} job", state=job.state)
        job.resumed += 1
        # a resumed job must run to completion unless suspended again
        job.spec.pop("suspend_after_iterations", None)
        self.store.transition(job, js.QUEUED)
        self.engine.bump("jobs_resumed")
        self.scheduler.enqueue(job)
        return proto.ok(id=job.id, state=job.state,
                        from_iteration=job.iterations_done)

    def _op_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        if job.state != js.QUEUED or not self.scheduler.remove_queued(job):
            return proto.err("job.bad_state",
                             f"only queued jobs can be cancelled (job is "
                             f"{job.state})", state=job.state)
        self.store.transition(job, js.CANCELLED, error={
            "code": "job.cancelled", "message": "cancelled by client",
        })
        self.engine.bump("jobs_cancelled")
        return proto.ok(id=job.id, state=job.state)

    def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        job, error = self._job_or_error(request)
        if error is not None:
            return error
        if job.trace is None:
            return proto.err(
                "job.no_trace",
                f"job {job.id} recorded no trace (submit with "
                '{"trace": true} to record one)',
            )
        return proto.ok(id=job.id, trace=job.trace)

    def _op_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        fmt = str(request.get("format", "json"))
        metrics = self.metrics()
        if fmt == "prometheus":
            return proto.ok(format="prometheus", text=render_prometheus(metrics))
        return proto.ok(format="json", metrics=metrics)

    def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self._shutdown_requested.set()
        return proto.ok(shutting_down=True)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        """The full scrape: engine counters, scheduler stats, job states,
        per-tenant usage, sanitizer findings."""
        jobs = self.store.jobs()
        by_state: dict[str, int] = {}
        tenants: dict[str, dict[str, int]] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
            t = tenants.setdefault(job.tenant, {"jobs": 0, "resident_bytes": 0})
            t["jobs"] += 1
            if job.state not in js.TERMINAL_STATES:
                t["resident_bytes"] += job.resident_bytes
        out: dict[str, Any] = {
            "uptime_seconds": time.time() - self.engine.started_s,
            "backend": self.engine.backend.name,
            "engine": self.engine.counters(),
            "scheduler": self.scheduler.stats(),
            "jobs_by_state": by_state,
            "tenants": tenants,
        }
        if self.sanitizer is not None:
            report = self.sanitizer.report()
            out["sanitize_findings"] = len(report.findings)
        return out


def render_prometheus(metrics: dict[str, Any]) -> str:
    """Render the metrics dict as a Prometheus text-format page."""
    lines: list[str] = []

    def emit(name: str, value, help_text: str = "", labels: str = "") -> None:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{labels} {float(value):g}")

    emit("repro_serve_uptime_seconds", metrics["uptime_seconds"],
         "seconds since the engine warmed up")
    engine = metrics["engine"]
    for key in sorted(engine):
        emit(f"repro_serve_{key}", engine[key])
    sched = metrics["scheduler"]
    for key in ("batches", "batched_jobs", "largest_batch", "queue_depth"):
        emit(f"repro_serve_{key}", sched[key])
    for state, n in sorted(metrics["jobs_by_state"].items()):
        emit("repro_serve_jobs", n, labels=f'{{state="{state}"}}')
    for tenant, usage in sorted(metrics["tenants"].items()):
        emit("repro_serve_tenant_jobs", usage["jobs"],
             labels=f'{{tenant="{tenant}"}}')
        emit("repro_serve_tenant_resident_bytes", usage["resident_bytes"],
             labels=f'{{tenant="{tenant}"}}')
    if "sanitize_findings" in metrics:
        emit("repro_serve_sanitize_findings", metrics["sanitize_findings"])
    lines.append(f'repro_serve_backend_info{{backend="{metrics["backend"]}"}} 1')
    return "\n".join(lines) + "\n"
