"""Unit tests for :mod:`repro.backend` — the two-entry backend table,
selection precedence, the no-compiler fallback contract, backend-boundary
dtype/layout coercion, and the kernel algorithms themselves.

The kernel algorithm is certified *without* any compiled backend present:
a pure-Python :class:`Backend` subclass runs the uncompiled
:mod:`repro.backend.kernels_ref` functions through the full dispatch path
(packing, warm-up self-check, MTTKRP) and must match the dense reference.
The compiled backend (cext) then only has to agree with code already
proven correct — that comparison runs in
``tests/test_properties_equivalence.py`` over every runtime config, and
kernel by kernel at every column-block width in
``tests/test_kernel_blocks.py``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import (
    AUTO_ORDER,
    Backend,
    BackendUnavailableError,
    available_backends,
    canonical_factors,
    get_backend,
    resolve_backend,
)
from repro.backend import kernels_ref as kref
from repro.backend.registry import _warmup_check
from repro.csf.build import build_csf_set
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.scatter import SegmentSum
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.tensor.coo import SparseTensor

RTOL = 1e-10
ATOL = 1e-12

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _random_tensor(seed=0, dims=(8, 6, 5), nnz=40):
    rng = np.random.default_rng(seed)
    coords = np.stack([rng.integers(0, d, nnz) for d in dims], axis=1)
    values = rng.standard_normal(nnz)
    return SparseTensor(coords, values, dims).deduplicate()


# ======================================================================
# backend table + selection precedence
# ======================================================================
def test_numpy_always_registered_and_available():
    assert "numpy" in AUTO_ORDER
    assert "numpy" in available_backends()
    bk = get_backend("numpy")
    assert bk.name == "numpy" and not bk.compiled
    assert bk.compile_seconds == 0.0


def test_all_names_registered_even_when_unavailable():
    # the table is fixed; *availability* is what varies by environment
    # (C compiler presence)
    assert AUTO_ORDER == ("cext", "numpy")
    for name in AUTO_ORDER:
        try:
            assert get_backend(name).name == name
        except BackendUnavailableError as exc:
            assert "unknown backend" not in str(exc)


def test_unknown_backend_raises():
    with pytest.raises(BackendUnavailableError, match="unknown backend"):
        get_backend("fortran77")


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    assert resolve_backend("numpy").name == "numpy"


def test_environment_beats_library_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend(None).name == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    with pytest.raises(BackendUnavailableError):
        resolve_backend(None)


def test_default_is_numpy(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None).name == "numpy"


def test_resolved_instances_pass_through():
    bk = get_backend("numpy")
    assert resolve_backend(bk) is bk


def test_disable_env_masks_backends(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND_DISABLE", "cext")
    assert available_backends() == ["numpy"]
    assert resolve_backend("auto").name == "numpy"
    with pytest.raises(BackendUnavailableError, match="disabled"):
        get_backend("cext")


def test_auto_prefers_compiled_backends_in_order(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND_DISABLE", raising=False)
    avail = available_backends()
    auto = resolve_backend("auto")
    assert auto.name == avail[0]
    assert avail == [n for n in AUTO_ORDER if n in avail]
    if "cext" in avail:
        # auto never picks a compiled backend without the compiled lock loop
        assert auto.name == "cext" and auto.locked_scatter


def test_options_validate_backend_names():
    from repro.completion.driver import CompletionOptions
    from repro.core.options import CpalsOptions

    for bad in ("fortran77", "jit", ""):
        with pytest.raises(ValueError, match="unknown backend"):
            CpalsOptions(backend=bad)
        with pytest.raises(ValueError, match="unknown backend"):
            CompletionOptions(backend=bad)
    # exactly None, auto and the table's names are accepted at option
    # construction, available or not; availability is checked at run time
    for name in (None, "auto", "numpy", "cext"):
        CpalsOptions(backend=name)
        CompletionOptions(backend=name)


def test_cli_backend_choices_are_auto_and_the_table(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["cpd", "t.tns", "--backend", "fortran77"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert re.findall(r"\w+", err.split("choose from")[1]) == ["auto", "cext", "numpy"]


def test_compiled_backends_record_compile_cost():
    for name in available_backends():
        bk = get_backend(name)
        if bk.compiled:
            # get_backend runs ensure_ready eagerly, so a usable compiled
            # backend has already paid (and recorded) its one-time cost
            assert bk.compile_seconds > 0.0
        else:
            assert bk.compile_seconds == 0.0


# ======================================================================
# the kernel algorithm, certified in pure Python
# ======================================================================
class PurePythonBackend(Backend):
    """The uncompiled kernels_ref functions behind the Backend interface.

    Slow, but it exercises the exact source cext translates — proving the
    *algorithm* (and the per-level argument lists and dispatch plumbing)
    without a compiler.
    """

    name = "pyref"
    compiled = True

    def _prepare(self) -> None:
        pass

    def root_kernel(self, tree, factors, lo, hi, out):
        kref.root_kernel(tree.fptr, tree.fids, tree.values, factors, lo, hi, out)

    def internal_kernel(self, tree, factors, level, lo, hi, out, slot=None):
        kref.internal_kernel(tree.fptr, tree.fids, tree.values, factors,
                             level, lo, hi, slot, out)

    def leaf_kernel(self, tree, factors, lo, hi, out, slot=None):
        kref.leaf_kernel(tree.fptr, tree.fids, tree.values, factors, lo, hi,
                         slot, out)

    def gather_segment_sum(self, x, order, starts, out):
        kref.gather_segment_sum_kernel(x, order, starts, out)


def test_pure_python_kernels_pass_warmup_self_check():
    bk = PurePythonBackend()
    bk.ensure_ready()  # runs _warmup_check against computed expectations
    assert bk.compile_seconds > 0.0
    _warmup_check(bk)  # idempotent on a ready backend


def _pure_python_mttkrp_matches(dims, nnz, **kwargs):
    tensor = _random_tensor(seed=3, dims=dims, nnz=nnz)
    rng = np.random.default_rng(4)
    factors = [rng.random((d, 3)) for d in tensor.dims]
    csf_set = build_csf_set(tensor)
    bk = PurePythonBackend()
    for mode in range(tensor.nmodes):
        ref = dense_mttkrp_reference(tensor, factors, mode)
        out, _ = mttkrp_csf(csf_set, factors, mode, backend=bk, **kwargs)
        np.testing.assert_allclose(out, ref, rtol=RTOL, atol=ATOL,
                                   err_msg=f"mode {mode}")


@pytest.mark.parametrize("dims,nnz", [((7, 5), 25), ((8, 6, 5), 40),
                                      ((5, 4, 3, 4), 30)])
def test_pure_python_mttkrp_matches_dense_reference(dims, nnz):
    # one task: every kernel adds straight into the output
    _pure_python_mttkrp_matches(dims, nnz)


@pytest.mark.parametrize("dims,nnz", [((8, 6, 5), 40), ((5, 4, 3, 4), 30)])
@pytest.mark.parametrize("force_locks", [False, True])
def test_pure_python_slot_form_matches_dense_reference(dims, nnz, force_locks):
    # three tasks fill slot-form compact buffers, merged in task order
    # (privatized) or added under the Python locks (PurePythonBackend has
    # no locked_scatter)
    _pure_python_mttkrp_matches(dims, nnz, env=ChapelEnv(num_tasks=3),
                                force_locks=force_locks)


# ======================================================================
# the scatter primitive agrees across every available backend
# ======================================================================
def _segment_case(rng, n, width, nseg):
    x = np.ascontiguousarray(rng.standard_normal((n, width)))
    # strictly increasing starts beginning at 0; last segment runs to n
    starts = np.sort(rng.choice(np.arange(1, n), size=nseg - 1, replace=False))
    starts = np.concatenate(([0], starts)).astype(np.int64)
    order = rng.permutation(n).astype(np.int64)
    return x, starts, order


@pytest.mark.parametrize("backend", available_backends())
def test_segment_primitives_match_numpy(backend):
    """Every backend's gather segment sum equals the ``kernels_ref`` loops
    bit for bit: a compiled backend's primitive, and for ``numpy`` the
    :class:`SegmentSum` its scatters reduce through."""
    bk = get_backend(backend)
    rng = np.random.default_rng(7)
    for n, width, nseg in [(40, 3, 6), (12, 1, 12), (30, 5, 2)]:
        x, starts, order = _segment_case(rng, n, width, nseg)
        expect = np.empty((nseg, width))
        kref.gather_segment_sum_kernel(x, order, starts, expect)
        if bk.compiled:
            got = np.empty((nseg, width))
            bk.gather_segment_sum(x, order, starts, got)
        else:
            got = SegmentSum(starts, n, order).apply(x)
        np.testing.assert_array_equal(got, expect)


# ======================================================================
# backend-boundary dtype/layout contract
# ======================================================================
def test_canonical_factors_coerce_and_reject():
    f64 = np.random.default_rng(0).random((6, 3))
    c = canonical_factors([f64])[0]
    assert c.dtype == np.float64 and c.flags.c_contiguous
    f32 = f64.astype(np.float32)
    fortran = np.asfortranarray(f32.astype(np.float64))
    a, b = canonical_factors([f32, fortran])
    # float32 -> float64 is exact, so both routes land on identical bits
    np.testing.assert_array_equal(a, f32.astype(np.float64))
    np.testing.assert_array_equal(b, fortran)
    assert a.flags.c_contiguous and b.flags.c_contiguous
    with pytest.raises(ValueError, match="must be 2-D"):
        canonical_factors([np.zeros(3)])


@pytest.mark.parametrize("backend", available_backends())
def test_exotic_factor_inputs_coerced_identically(backend):
    """float32 and Fortran-ordered factors produce bit-identical results to
    their C-contiguous float64 upcasts, for every backend."""
    tensor = _random_tensor(seed=5)
    rng = np.random.default_rng(6)
    f32 = [rng.random((d, 4)).astype(np.float32) for d in tensor.dims]
    f64 = [np.ascontiguousarray(f, dtype=np.float64) for f in f32]
    fortran = [np.asfortranarray(f) for f in f64]
    csf_set = build_csf_set(tensor)
    for mode in range(tensor.nmodes):
        base, _ = mttkrp_csf(csf_set, f64, mode, backend=backend)
        for exotic in (f32, fortran):
            out, _ = mttkrp_csf(csf_set, exotic, mode, backend=backend)
            np.testing.assert_array_equal(out, base)


# ======================================================================
# no-compiler fallback (subprocess: cext genuinely unavailable)
# ======================================================================
def _run_without_compiler(tmp_path, body):
    """Run ``body`` in a subprocess where cext is unavailable, i.e. the
    environment of a plain ``pip install repro`` on a host without a C
    compiler."""
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent(body))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_BACKEND_DISABLE"] = "cext"
    env.pop("REPRO_BACKEND", None)
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env
    )


def test_import_without_compiler_makes_only_numpy_available(tmp_path):
    proc = _run_without_compiler(tmp_path, """
        from repro.backend import available_backends
        assert available_backends() == ["numpy"], available_backends()
        print("FALLBACK-OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "FALLBACK-OK" in proc.stdout


def test_auto_silently_falls_back_without_compiler(tmp_path):
    proc = _run_without_compiler(tmp_path, """
        import numpy as np
        from repro.backend import resolve_backend
        from repro.core.cpals import cp_als
        from repro.core.options import CpalsOptions
        from repro.tensor.coo import SparseTensor

        assert resolve_backend("auto").name == "numpy"
        rng = np.random.default_rng(0)
        coords = np.stack([rng.integers(0, d, 30) for d in (6, 5, 4)], axis=1)
        t = SparseTensor(coords, rng.random(30), (6, 5, 4)).deduplicate()
        r = cp_als(t, 2, CpalsOptions(max_iterations=1, backend="auto"))
        assert r.engine_stats["backend"] == "numpy"
        print("AUTO-OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "AUTO-OK" in proc.stdout
    assert proc.stderr == ""  # silence: no warning on fallback


def test_cli_explicit_cext_fails_with_reason_without_compiler(tmp_path):
    tns = tmp_path / "t.tns"
    tensor = _random_tensor(seed=9)
    from repro.tensor.io import save_tns

    save_tns(tensor, tns)
    proc = _run_without_compiler(tmp_path, f"""
        from repro.cli import main

        rc = main(["cpd", {str(tns)!r}, "-r", "2", "-i", "1",
                   "--backend", "cext"])
        assert rc == 1, rc
        rc = main(["cpd", {str(tns)!r}, "-r", "2", "-i", "1",
                   "--backend", "auto"])
        assert rc == 0, rc
        print("CLI-OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "CLI-OK" in proc.stdout
    # the failure names the backend and why it is unavailable
    assert "error: backend 'cext' is disabled via REPRO_BACKEND_DISABLE" in proc.stderr
