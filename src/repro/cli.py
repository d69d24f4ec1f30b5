"""The ``repro`` command-line tool — SPLATT's CLI surface, reproduced.

SPLATT ships a command-line front end (``splatt cpd``, ``splatt check``,
``splatt stats``, ``splatt complete``); this module provides the same
workflow over this library:

========================  ==================================================
``repro stats X.tns``      Table-I-style properties + per-mode structure
                           (``--json`` for machine-readable output)
``repro check X.tns``      validate a tensor file (``--verbose`` for the
                           full report: duplicates, empty slices, skew)
``repro cpd X.tns``        CP-ALS decomposition; writes factors (.npz or
                           SPLATT layout), prints the paper's breakdown
``repro tucker X.tns``     Tucker decomposition (HOOI)
``repro complete X.tns``   tensor completion (ALS / SGD / CCD++)
``repro compare A B``      factor match score between saved models
``repro reorder X.tns Y``  locality relabeling (degree / random)
``repro generate yelp Y``  write a Table I synthetic stand-in to disk
``repro convert X.tns Y``  convert between tensor formats (``.tns``/
                           ``.tns.gz`` text, ``.npz`` compressed binary,
                           ``.tnsb`` flat mmap binary), deduplicating
``repro serve``            long-lived decomposition daemon: warm plan
                           caches, job batching, per-tenant quotas,
                           metrics scrape (docs/SERVING.md)
``repro submit X.tns``     submit a job to a running daemon (also carries
                           --status/--suspend/--resume/--metrics/
                           --shutdown operations)
========================  ==================================================

Every subcommand accepts ``--help``.  The benchmark harness has its own
entry point (``repro-bench`` / ``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro._util import human_bytes
from repro.backend import AUTO_ORDER
from repro.completion.driver import ALGORITHMS, CompletionOptions, complete
from repro.core.cpals import cp_als
from repro.core.model_io import save_kruskal_dir, save_kruskal_npz
from repro.core.options import CpalsOptions, DEFAULT_ITERATIONS, DEFAULT_RANK
from repro.observe import tracing
from repro.runtime.env import ChapelEnv
from repro.tensor.generate import DATASET_SIGNATURES, synthetic_dataset
from repro.tensor.io import (
    load_binary,
    load_mmap,
    load_tns,
    save_binary,
    save_mmap,
    save_tns,
)
from repro.tensor.stats import tensor_stats

__all__ = ["main"]


def _load(path: str):
    """Load a tensor, dispatching on suffix.

    ``.tnsb`` files are memory-mapped (:func:`load_mmap`) and ``.npz``
    caches decompressed (:func:`load_binary`); both binary formats are
    written deduplicated (``repro convert`` dedups), so only the text
    path pays a duplicate scan here.
    """
    p = Path(path)
    if p.suffix == ".tnsb":
        return load_mmap(p)
    if p.suffix == ".npz":
        return load_binary(p)
    tensor = load_tns(p)
    dedup = tensor.deduplicate()
    if dedup.nnz != tensor.nnz:
        print(f"note: summed {tensor.nnz - dedup.nnz} duplicate coordinates")
    return dedup


def _traced(args: argparse.Namespace):
    """Context manager running the command under ``tracing`` when the
    subcommand was given ``--trace PATH`` (no-op recorder otherwise)."""
    path = getattr(args, "trace", None)
    if path is None:
        import contextlib

        return contextlib.nullcontext()
    return tracing(path)


def _report_trace(args: argparse.Namespace) -> None:
    path = getattr(args, "trace", None)
    if path is not None:
        print(f"wrote Chrome trace to {path} (load in a Perfetto/chrome://tracing UI)")


class _SanitizeScope:
    """Optional concurrency-sanitizer wrapper for a solver run.

    With ``--sanitize``, installs :class:`repro.sanitize.Sanitizer` around
    the solve (``--sanitize-seed`` additionally arms the schedule
    perturber); afterwards :meth:`report_exit_code` prints the race report
    and turns findings into exit code 1.  Without the flag this is a
    no-op and the solver runs uninstrumented.
    """

    def __init__(self, args: argparse.Namespace):
        self.enabled = bool(getattr(args, "sanitize", False))
        self.seed = getattr(args, "sanitize_seed", None)
        self._cm = None
        self.sanitizer = None

    def __enter__(self) -> "_SanitizeScope":
        if self.enabled:
            from repro.sanitize import sanitizing

            self._cm = sanitizing(seed=self.seed)
            self.sanitizer = self._cm.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        if self._cm is not None:
            return bool(self._cm.__exit__(*exc))
        return False

    def report_exit_code(self) -> int:
        """Print the sanitizer report; findings make the command fail."""
        if self.sanitizer is None:
            return 0
        report = self.sanitizer.report()
        print(report.render())
        return 0 if report.ok else 1


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_stats(args: argparse.Namespace) -> int:
    tensor = _load(args.tensor)
    st = tensor_stats(tensor)
    if args.json:
        import json

        payload = {
            "dims": list(tensor.dims),
            "order": tensor.nmodes,
            "nnz": tensor.nnz,
            "density": tensor.density,
            "modes": [
                {
                    "mode": ms.mode,
                    "dim": ms.dim,
                    "nonempty_slices": ms.nonempty_slices,
                    "nfibers": ms.nfibers,
                    "max_slice_nnz": ms.max_slice_nnz,
                    "slice_imbalance": ms.slice_imbalance,
                    "top_slice_share": ms.top_slice_share,
                }
                for ms in st.modes
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    dims = "x".join(str(d) for d in tensor.dims)
    print(f"tensor:   {args.tensor}")
    print(f"order:    {tensor.nmodes}")
    print(f"dims:     {dims}")
    print(f"nnz:      {tensor.nnz}")
    print(f"density:  {tensor.density:.4E}")
    print(f"size:     {human_bytes(tensor.size_on_disk)} (FROSTT text estimate)")
    print()
    print("per-mode structure:")
    print(f"  {'mode':>4} {'dim':>8} {'nonempty':>9} {'fibers':>8} "
          f"{'max-slice':>9} {'imbalance':>9} {'hub-share':>9}")
    for ms in st.modes:
        print(f"  {ms.mode:>4} {ms.dim:>8} {ms.nonempty_slices:>9} {ms.nfibers:>8} "
              f"{ms.max_slice_nnz:>9} {ms.slice_imbalance:>9.2f} "
              f"{ms.top_slice_share:>9.3f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        tensor = load_tns(args.tensor)
    except (ValueError, OSError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        from repro.tensor.validate import validate_tensor

        report = validate_tensor(tensor)
        print(report.render())
        return 0 if report.ok else 1
    dedup = tensor.deduplicate()
    dupes = tensor.nnz - dedup.nnz
    print(f"OK: order-{tensor.nmodes} tensor, dims "
          f"{'x'.join(str(d) for d in tensor.dims)}, {tensor.nnz} nonzeros"
          + (f" ({dupes} duplicate coordinates would be summed)" if dupes else ""))
    return 0


def _check_distributed_args(args: argparse.Namespace) -> None:
    """Reject every ``cpd`` flag the distributed route would drop."""
    if args.locales < 1:
        raise ValueError(f"--locales must be >= 1, got {args.locales}")
    route = "is not supported with --locales > 1 or --transport proc"
    for flag, given, only in (("--allocation", args.allocation, "two"),
                              ("--variant", args.variant, "vectorized"),
                              ("--tasks", args.tasks, 1)):
        if given != only:
            raise ValueError(
                f"{flag} {given} {route}: distributed runs always use {flag} {only}"
            )
    for flag, path in (("--checkpoint", args.checkpoint), ("--resume", args.resume)):
        if path is not None:
            raise ValueError(
                f"{flag} {route}: distributed runs have no checkpoint format"
            )
    if args.sanitize and args.transport == "proc":
        raise ValueError(
            "--sanitize instruments in-process tasking and cannot observe "
            "spawned locale workers; use --transport sim to sanitize"
        )


def _cmd_cpd_distributed(args: argparse.Namespace, tensor):
    """Run ``cpd`` through the medium-grained distributed driver."""
    from repro.distributed import distributed_cp_als

    with _traced(args), _SanitizeScope(args) as san_scope:
        result = distributed_cp_als(
            tensor,
            args.rank,
            nlocales=args.locales,
            transport=args.transport,
            backend=args.backend,
            max_iterations=args.iterations,
            tolerance=args.tolerance,
            seed=args.seed,
        )
    _report_trace(args)
    grid = "x".join(str(g) for g in result.grid.shape)
    comm = result.comm
    print(f"fit = {result.fit:.6f} after {result.iterations} iterations "
          f"(converged: {result.converged}) in {result.seconds:.3f}s")
    print(f"transport: {result.transport}  grid: {grid} "
          f"({result.grid.nlocales} locales)  "
          f"nnz imbalance: {result.partition.imbalance:.2f}")
    print(f"comm: fold {comm.fold_rows} rows / {comm.fold_messages} msgs, "
          f"expand {comm.expand_rows} rows / {comm.expand_messages} msgs, "
          f"volume {human_bytes(comm.volume_bytes(args.rank))}")
    if result.locale_stats:
        for lrank in sorted(result.locale_stats):
            stats = result.locale_stats[lrank]
            mtt = stats.get("span.locale.mttkrp.total_s", 0.0)
            print(f"  locale {lrank}: mttkrp {mtt:.3f}s "
                  f"({int(stats.get('span.locale.mttkrp.count', 0))} calls)")
    return result, san_scope


def _cmd_cpd(args: argparse.Namespace) -> int:
    if args.locales != 1 or args.transport == "proc":
        _check_distributed_args(args)
        result, san_scope = _cmd_cpd_distributed(args, _load(args.tensor))
    else:
        tensor = _load(args.tensor)
        opts = CpalsOptions(
            max_iterations=args.iterations,
            tolerance=args.tolerance,
            variant=args.variant,
            allocation=args.allocation,
            env=ChapelEnv(num_tasks=args.tasks),
            seed=args.seed,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
            backend=args.backend,
        )
        with _traced(args), _SanitizeScope(args) as san_scope:
            result = cp_als(tensor, args.rank, opts)
        _report_trace(args)
        print(result.summary())
    if args.output:
        out = Path(args.output)
        if args.splatt_format:
            save_kruskal_dir(result.kruskal, out)
            print(f"wrote SPLATT-layout model to {out}/")
        else:
            save_kruskal_npz(result.kruskal, out)
            print(f"wrote model to {out if out.suffix else out.with_suffix('.npz')}")
    return san_scope.report_exit_code()


def _cmd_complete(args: argparse.Namespace) -> int:
    tensor = _load(args.tensor)
    opts = CompletionOptions(
        algorithm=args.algorithm,
        max_epochs=args.epochs,
        regularization=args.regularization,
        learn_rate=args.learn_rate,
        validation_fraction=args.validation,
        seed=args.seed,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        backend=args.backend,
    )
    with _traced(args), _SanitizeScope(args) as san_scope:
        result = complete(tensor, args.rank, opts)
    _report_trace(args)
    print(f"algorithm: {result.algorithm}")
    print(f"epochs:    {result.epochs} (best: {result.best_epoch}, "
          f"converged: {result.converged})")
    print(f"train RMSE: {result.final_train_rmse:.6f}")
    if result.val_rmse:
        print(f"val RMSE:   {min(result.val_rmse):.6f} (best)")
    if args.output:
        out = Path(args.output)
        np.savez_compressed(
            out, **{f"factor{m}": f for m, f in enumerate(result.factors)}
        )
        print(f"wrote model to {out if out.suffix else out.with_suffix('.npz')}")
    return san_scope.report_exit_code()


def _cmd_tucker(args: argparse.Namespace) -> int:
    from repro.tucker import tucker_hooi

    tensor = _load(args.tensor)
    ranks = tuple(args.ranks)
    if len(ranks) == 1:
        ranks = ranks * tensor.nmodes
    with _traced(args), _SanitizeScope(args) as san_scope:
        result = tucker_hooi(
            tensor, ranks,
            max_iterations=args.iterations,
            tolerance=args.tolerance,
            seed=args.seed,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
            backend=args.backend,
        )
    _report_trace(args)
    print(f"fit = {result.fit:.6f} after {result.iterations} sweeps "
          f"(converged: {result.converged})")
    print(f"core: {'x'.join(str(r) for r in result.ranks)}  "
          f"core norm = {float(np.linalg.norm(result.core)):.4f}")
    if args.output:
        out = Path(args.output)
        np.savez_compressed(
            out, core=result.core,
            **{f"factor{m}": f for m, f in enumerate(result.factors)},
        )
        print(f"wrote model to {out if out.suffix else out.with_suffix('.npz')}")
    return san_scope.report_exit_code()


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.fms import align_components, factor_match_score
    from repro.core.model_io import load_kruskal_dir, load_kruskal_npz

    def load(path: str):
        p = Path(path)
        return load_kruskal_dir(p) if p.is_dir() else load_kruskal_npz(p)

    try:
        a = load(args.model_a)
        b = load(args.model_b)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        fms = factor_match_score(a, b)
        fms_sub = factor_match_score(a, b, weight_penalty=False)
        perm = align_components(a, b)
    except ValueError as exc:
        print(f"models are not comparable: {exc}", file=sys.stderr)
        return 1
    print(f"factor match score:      {fms:.4f}")
    print(f"subspace-only FMS:       {fms_sub:.4f}")
    print(f"component alignment:     {list(int(p) for p in perm)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    tensor = synthetic_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_tns(tensor, args.output)
    print(f"wrote {tensor.nnz} nonzeros "
          f"({'x'.join(str(d) for d in tensor.dims)}) to {args.output}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    tensor = _load(args.input)
    out = Path(args.output)
    if out.suffix == ".tnsb":
        save_mmap(tensor, out)
        kind = "flat mmap binary (.tnsb)"
    elif out.suffix == ".npz":
        save_binary(tensor, out)
        kind = "compressed binary (.npz)"
    else:
        save_tns(tensor, out)
        kind = "FROSTT text (.tns.gz)" if out.suffix == ".gz" else "FROSTT text (.tns)"
    print(f"wrote {tensor.nnz} nonzeros "
          f"({'x'.join(str(d) for d in tensor.dims)}) to {out} as {kind}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import QuotaPolicy, ReproServer, ServeConfig, TenantQuotas

    quotas = QuotaPolicy(TenantQuotas(
        max_nnz=args.max_nnz,
        max_resident_bytes=args.max_resident_bytes,
        max_queued_jobs=args.max_queued_jobs,
    ))
    fault_targets = []
    for spec in args.fault or []:
        site, _, occurrence = spec.rpartition(":")
        if not site or not occurrence.isdigit():
            print(f"error: --fault wants SITE:OCCURRENCE, got {spec!r}",
                  file=sys.stderr)
            return 2
        fault_targets.append((site, int(occurrence)))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        tasks=args.tasks,
        backend=args.backend,
        spool=args.spool,
        quotas=quotas,
        max_job_retries=args.max_job_retries,
        sanitize=args.sanitize,
        sanitize_seed=args.sanitize_seed,
        fault_targets=fault_targets,
    )
    server = ReproServer(config).start()
    try:
        print(f"serving on {args.host}:{server.port} "
              f"(backend: {server.engine.backend.name}, tasks: {args.tasks})",
              flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{server.port}\n")
        try:
            server.wait_for_shutdown()
        except KeyboardInterrupt:
            print("interrupted; shutting down", flush=True)
    finally:
        server.close()
    if server.sanitize_report is not None:
        print(server.sanitize_report.render())
        if not server.sanitize_report.ok:
            return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    def show(payload) -> None:
        print(json.dumps(payload, indent=2, sort_keys=True))

    try:
        with ServeClient(host=args.host, port=args.port,
                         tenant=args.tenant) as client:
            if args.metrics:
                response = client.metrics(
                    format="prometheus" if args.prometheus else "json")
                if args.prometheus:
                    print(response["text"], end="")
                else:
                    show(response["metrics"])
                return 0
            if args.shutdown:
                client.shutdown()
                print("server shutting down")
                return 0
            for job_id, op in ((args.status, client.status),
                               (args.suspend, client.suspend),
                               (args.resume, client.resume),
                               (args.cancel, client.cancel)):
                if job_id:
                    show(op(job_id))
                    return 0
            if args.spec:
                raw = args.spec
                if raw.startswith("@"):
                    raw = Path(raw[1:]).read_text()
                spec = json.loads(raw)
            elif args.tensor:
                spec = {"kind": args.kind, "tensor": str(Path(args.tensor).resolve()),
                        "rank": args.rank, "iterations": args.iterations,
                        "seed": args.seed}
            else:
                print("error: give a tensor file, --spec JSON, or an op flag "
                      "(--metrics/--status/--suspend/--resume/--cancel/--shutdown)",
                      file=sys.stderr)
                return 2
            submitted = client.submit(spec)
            if args.no_wait:
                show(submitted)
                return 0
            finished = client.wait(submitted["id"], timeout=args.timeout)
            show(finished)
            return 0 if finished["job"]["state"] in ("done", "suspended") else 1
    except ServeError as exc:
        print(json.dumps({"code": exc.code, "message": str(exc),
                          **{k: v for k, v in exc.error.items()
                             if k not in ("code", "message")}},
                         indent=2, sort_keys=True), file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach server at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """First-class ``repro lint``: forwards to ``python -m repro.lint``.

    Exit code 1 on any active finding — CI-gating semantics, identical to
    running the module directly.
    """
    from repro.lint.__main__ import main as lint_main

    return lint_main(list(args.args))


def _cmd_reorder(args: argparse.Namespace) -> int:
    from repro.tensor.reorder import reorder_tensor

    tensor = _load(args.tensor)
    out, perms = reorder_tensor(tensor, strategy=args.strategy, seed=args.seed)
    save_tns(out, args.output)
    print(f"wrote {args.strategy}-relabeled tensor to {args.output}")
    if args.perms:
        np.savez_compressed(
            Path(args.perms), **{f"mode{m}": p for m, p in enumerate(perms)}
        )
        print(f"wrote relabeling maps (perm[new] = old) to {args.perms}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_sanitize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sanitize", action="store_true",
                   help="run under the concurrency sanitizer (vector-clock "
                        "race detector + lock-order graph); prints a race "
                        "report and exits 1 on findings — see docs/SANITIZER.md")
    p.add_argument("--sanitize-seed", metavar="SEED", type=int, default=None,
                   help="also perturb task schedules deterministically with "
                        "this fuzz seed (same seed reproduces the schedule)")


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default="auto",
                   choices=["auto", *AUTO_ORDER],
                   help="kernel execution backend (default: auto — cext "
                        "when it builds, silently falling back to numpy; "
                        "cext named explicitly but unavailable fails with "
                        "the reason — see docs/BACKENDS.md)")


def _add_checkpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", metavar="PATH",
                   help="snapshot the solver state to PATH (atomic .npz) "
                        "every --checkpoint-every iterations")
    p.add_argument("--checkpoint-every", metavar="N", type=int, default=1,
                   help="checkpoint cadence in iterations (default: 1)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume a killed run from a checkpoint written by "
                        "--checkpoint (same tensor and options required)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Sparse tensor decomposition toolbox "
        "(SPLATT-in-Chapel reproduction)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="tensor properties and per-mode structure")
    p.add_argument("tensor", help="FROSTT .tns file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("check", help="validate a tensor file")
    p.add_argument("tensor")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="full validation report (duplicates, empty slices, "
                        "hub skew, conditioning)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("cpd", aliases=["decompose"], help="CP-ALS decomposition")
    p.add_argument("tensor")
    p.add_argument("--rank", "-r", type=int, default=DEFAULT_RANK)
    p.add_argument("--iterations", "-i", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--tasks", "-t", type=int, default=1,
                   help="Chapel-style task count")
    p.add_argument("--variant", default="vectorized",
                   choices=["vectorized", "pointer", "index2d", "slicing"])
    p.add_argument("--allocation", default="two", choices=["one", "two", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write λ and factors as .npz")
    p.add_argument("--splatt-format", action="store_true",
                   help="write the model as a SPLATT-style directory "
                        "(lambda.mat + mode<N>.mat) instead of .npz")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome-trace-format JSON timeline of the run")
    p.add_argument("--locales", "-l", type=int, default=1,
                   help="locale count for distributed CP-ALS (medium-grained "
                        "grid; default 1 = serial); the distributed route "
                        "rejects the serial-only flags listed in "
                        "docs/DISTRIBUTED.md")
    p.add_argument("--transport", default="sim", choices=["sim", "proc"],
                   help="distributed data plane: 'sim' runs locales "
                        "in-process (metered simulation), 'proc' spawns one "
                        "worker process per locale exchanging through shared "
                        "memory (also for one locale) — see docs/DISTRIBUTED.md")
    _add_backend_flag(p)
    _add_sanitize_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(fn=_cmd_cpd)

    p = sub.add_parser("complete", help="tensor completion (missing values)")
    p.add_argument("tensor")
    p.add_argument("--rank", "-r", type=int, default=10)
    p.add_argument("--algorithm", "-a", default="als", choices=list(ALGORITHMS))
    p.add_argument("--epochs", "-e", type=int, default=50)
    p.add_argument("--regularization", type=float, default=1e-2)
    p.add_argument("--learn-rate", type=float, default=1e-2)
    p.add_argument("--validation", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write factors as .npz")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome-trace-format JSON timeline of the run")
    _add_backend_flag(p)
    _add_sanitize_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("tucker", help="Tucker decomposition (HOOI)")
    p.add_argument("tensor")
    p.add_argument("--ranks", "-r", type=int, nargs="+", default=[10],
                   help="core ranks, one per mode (or one shared value)")
    p.add_argument("--iterations", "-i", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write core + factors as .npz")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome-trace-format JSON timeline of the run")
    _add_backend_flag(p)
    _add_sanitize_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(fn=_cmd_tucker)

    p = sub.add_parser("compare", help="factor match score between two saved models")
    p.add_argument("model_a", help=".npz file or SPLATT-layout directory")
    p.add_argument("model_b")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("generate", help="write a Table I synthetic stand-in")
    p.add_argument("dataset", choices=sorted(DATASET_SIGNATURES))
    p.add_argument("output", help="destination .tns path")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("convert", help="convert between tensor file formats")
    p.add_argument("input", help=".tns/.tns.gz text, .npz, or .tnsb input")
    p.add_argument("output",
                   help="destination; format chosen by suffix (.tnsb = flat "
                        "mmap binary for --transport proc, .npz = compressed "
                        "binary, anything else = FROSTT text)")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "serve",
        help="run the long-lived decomposition daemon (see docs/SERVING.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", "-p", type=int, default=7461,
                   help="TCP port (0 picks a free one; see --port-file)")
    p.add_argument("--port-file", metavar="PATH",
                   help="write the bound port here once listening (for "
                        "scripts using --port 0)")
    p.add_argument("--tasks", "-t", type=int, default=1,
                   help="worker-pool size shared by every job")
    p.add_argument("--batch-window", type=float, default=0.05, metavar="S",
                   help="seconds to hold the queue open so same-shape jobs "
                        "group into one batch (default: 0.05)")
    p.add_argument("--spool", metavar="DIR",
                   help="spool directory for suspend snapshots "
                        "(default: a fresh temp dir)")
    p.add_argument("--max-nnz", type=int, default=0, metavar="N",
                   help="per-job tensor nonzero cap, all tenants (0 = off)")
    p.add_argument("--max-resident-bytes", type=int, default=0, metavar="N",
                   help="per-tenant pinned tensor byte cap (0 = off)")
    p.add_argument("--max-queued-jobs", type=int, default=0, metavar="N",
                   help="per-tenant queued+running job cap (0 = off)")
    p.add_argument("--max-job-retries", type=int, default=2, metavar="N",
                   help="retries for jobs failed by injected faults")
    p.add_argument("--fault", action="append", metavar="SITE:OCCURRENCE",
                   help="install a fault-injection target (repeatable), e.g. "
                        "serve.job:2 fails the second job attempt served")
    _add_backend_flag(p)
    _add_sanitize_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to (or operate on) a running repro serve daemon")
    p.add_argument("tensor", nargs="?",
                   help="tensor file to decompose (resolved to an absolute "
                        "path — the daemon reads it server-side)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", "-p", type=int, default=7461)
    p.add_argument("--tenant", default="default")
    p.add_argument("--kind", default="cpd", choices=["cpd", "tucker", "complete"])
    p.add_argument("--rank", "-r", type=int, default=DEFAULT_RANK)
    p.add_argument("--iterations", "-i", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", metavar="JSON",
                   help="full job-spec JSON (or @file), overriding the flags")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id immediately instead of waiting")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for the job (default: 600)")
    p.add_argument("--metrics", action="store_true",
                   help="print the server metrics scrape instead of submitting")
    p.add_argument("--prometheus", action="store_true",
                   help="with --metrics: Prometheus text format")
    p.add_argument("--status", metavar="JOB", help="print one job's status")
    p.add_argument("--suspend", metavar="JOB",
                   help="suspend a queued or running job (a running cpd "
                        "job writes one snapshot to the spool)")
    p.add_argument("--resume", metavar="JOB",
                   help="re-enqueue a suspended job (it continues from its "
                        "snapshot, if it has one)")
    p.add_argument("--cancel", metavar="JOB", help="cancel a queued job")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to shut down gracefully")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "lint", help="static linter (paper anti-patterns, runtime "
        "discipline, must-release); exits 1 on findings",
        add_help=False,
    )
    p.add_argument("args", nargs=argparse.REMAINDER,
                   help="forwarded to python -m repro.lint")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("reorder", help="relabel mode indices for locality")
    p.add_argument("tensor")
    p.add_argument("output", help="destination .tns path")
    p.add_argument("--strategy", default="degree",
                   choices=["identity", "degree", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perms", help="also save the relabeling maps as .npz")
    p.set_defaults(fn=_cmd_reorder)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` tool; returns the process exit code.

    A command failing mid-run (bad input, injected fault, solver error)
    exits 1 with the error on stderr.  When ``--trace`` is active the
    recorder's exit hook still flushes a valid (truncated) trace file, so
    a crashed run can be inspected post-mortem.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # argparse REMAINDER silently refuses to capture a leading option-like
    # token (bpo-17050), which would strip e.g. ``repro lint --list-rules``
    # of its flag — dispatch the pure-forwarding subcommand by hand.
    if argv and argv[0] == "lint":
        from repro.lint.__main__ import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
