"""Host stamp: what a benchmark record was measured on.

``program_stamp`` runs inside the program's process (after ``repro`` and
its BLAS libraries are loaded); ``runner_stamp`` runs in the benchmark
runner.  Together they give cores, CPU model, library versions, every
loaded OpenBLAS with its live thread count, the compiler, the source
revision and a timed compute probe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# thread-count getters of the OpenBLAS builds numpy and scipy bundle
# (symbol-prefixed, 64-bit-integer or plain), tried in this order
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def openblas_libraries() -> list[dict]:
    """Every OpenBLAS mapped into this process, read through its own getter."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in paths:
                paths.append(path)
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None}
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                entry["threads"] = int(getter())
                entry["getter"] = name
                break
        out.append(entry)
    return out


def program_stamp(backend_name: str) -> dict:
    """Stamp taken in the program's process once its backend is ready."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend_name,
        "openblas": openblas_libraries(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cc_version() -> str:
    cc = os.environ.get("CC") or "cc"
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.splitlines()
    return lines[0] if lines else "unavailable"


def _git_sha(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, read from ``.git`` directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """Content hash of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compute_probe(reps: int = 5) -> float:
    """Median seconds of a fixed interpreter-plus-BLAS workload.

    Timed in every run so that a slower shared host shows up here apart
    from a regression in the program.
    """
    import numpy as np

    a = np.random.default_rng(0).random((160, 160))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        for _ in range(40):
            a = a @ a
            a /= np.abs(a).max()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def runner_stamp(root: Path) -> dict:
    """Stamp taken by the runner: cores, CPU, compiler, source revision."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "runner_python": sys.version.split()[0],
        "cc": _cc_version(),
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root / "src" / "repro"),
    }
