"""The MTTKRP direct write, on tree shapes no benchmark runs.

A range walk adds into its output rows while it walks a task's slices:
into the MTTKRP output at one task, or into a compact buffer that the
task then adds under the bucket locks, or that is merged in task order
when the mode is privatized.  The cext kernels fill that buffer through a
slot array, the NumPy walk through its plan scatter's segment sums; one
driver serves both.  These tests cover the leaf walk
(``allocation="one"``), a 4-mode tree (two internal levels), more tasks
than root slices (empty ranges), both lock pools, privatized modes at 2
and 3 tasks, the lock traffic, a sanitizer run, which takes the
Python lock loop and must see every write, and the shape checks that
stand between a mis-sized factor and an unchecked read.  They skip only when there is
no C compiler: a cext build that fails its self-check fails them.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backend import prepare_call, resolve_backend
from repro.backend.cext import CextBackend, _compiler
from repro.csf.build import build_csf_set
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.variants import mttkrp_csf
from repro.probe import Probe
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import make_mutex_pool
from repro.sanitize.detector import sanitizing
from repro.tensor.generate import random_tensor

pytestmark = pytest.mark.skipif(
    _compiler() is None, reason="no C compiler for the cext backend"
)

RTOL, ATOL = 1e-10, 1e-12

#: name -> (dims, nnz, seed); small dims, so rows overlap across tasks
TENSORS = {
    "order3": ((12, 9, 7), 500, 4),
    "order4": ((6, 5, 7, 4), 400, 5),
    # allocation "one" roots the tree at the 2-slice mode, so 4 tasks get
    # two empty ranges
    "two_roots": ((2, 30, 25), 300, 6),
}
CASES = [("order3", "one"), ("order3", "two"), ("order4", "one"),
         ("order4", "two"), ("two_roots", "one")]
POLICIES = ("privatized", "atomic", "sync")
BACKENDS = ("cext", "numpy")


@pytest.fixture(scope="module")
def cases():
    built = {}
    for name, allocation in CASES:
        dims, nnz, seed = TENSORS[name]
        tensor = random_tensor(dims, nnz, seed=seed)
        rng = np.random.default_rng(seed)
        factors = [rng.random((d, 5)) for d in dims]
        refs = [dense_mttkrp_reference(tensor, factors, m) for m in range(len(dims))]
        built[name, allocation] = (tensor, factors, refs)
    return built


def _scatters(csf_set, mode, ntasks, pool_size):
    tree, _ = csf_set.tree_for_mode(mode)
    plan, _ = csf_set.mttkrp_context.plan(
        tree, tree.level_of_mode(mode), ntasks, pool_size)
    return plan


def _task_bucket_pairs(plan):
    return sum(sc.bucket_ids.size for sc in plan.scatters if sc.nrows_in)


def test_the_shapes_take_every_kernel(cases):
    algorithms = set()
    for (name, allocation), (tensor, _, _) in cases.items():
        csf_set = build_csf_set(tensor, allocation=allocation)
        algorithms |= {csf_set.tree_for_mode(m)[1] for m in range(tensor.nmodes)}
        if name == "order4" and allocation == "one":
            tree, _ = csf_set.tree_for_mode(0)
            assert [csf_set.tree_for_mode(m)[1] for m in tree.dim_perm] == [
                "root", "internal", "internal", "leaf"]
        if name == "two_roots":
            bounds = _scatters(csf_set, 1, 4, None).bounds
            assert (np.diff(bounds) == 0).sum() == 2, bounds
    assert algorithms == {"root", "internal", "leaf"}


@pytest.mark.parametrize("case", CASES, ids="-".join)
@pytest.mark.parametrize("ntasks", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_matches_the_dense_reference_and_numpy(cases, case, ntasks, policy):
    tensor, factors, refs = cases[case]
    env = ChapelEnv(num_tasks=ntasks)
    for backend in ("cext", "numpy"):
        csf_set = build_csf_set(tensor, allocation=case[1])
        for mode in range(tensor.nmodes):
            pool = None if policy == "privatized" else make_mutex_pool(policy, env=env)
            out, info = mttkrp_csf(csf_set, factors, mode, env=env, pool=pool,
                                   force_locks=pool is not None, backend=backend)
            np.testing.assert_allclose(out, refs[mode], rtol=RTOL, atol=ATOL,
                                       err_msg=f"{backend} mode {mode}")
            assert info.used_locks == (pool is not None and ntasks > 1
                                       and info.algorithm != "root")


@pytest.mark.parametrize("case", CASES, ids="-".join)
@pytest.mark.parametrize("kind", ["atomic", "sync"])
@pytest.mark.parametrize("ntasks", [2, 3, 4])
def test_one_lock_acquire_per_task_bucket_pair(cases, case, kind, ntasks):
    tensor, factors, _ = cases[case]
    env = ChapelEnv(num_tasks=ntasks)
    csf_set = build_csf_set(tensor, allocation=case[1])
    for mode in range(tensor.nmodes):
        if csf_set.tree_for_mode(mode)[1] == "root":
            continue
        for backend in BACKENDS:
            pool = make_mutex_pool(kind, env=env)
            for call in range(1, 4):
                mttkrp_csf(csf_set, factors, mode, env=env, pool=pool,
                           force_locks=True, backend=backend)
                plan = _scatters(csf_set, mode, ntasks, pool.size)
                assert pool.counters.lock_acquires == call * _task_bucket_pairs(plan)


@pytest.mark.parametrize("case", CASES, ids="-".join)
@pytest.mark.parametrize("ntasks", [2, 3])
def test_privatized_modes_merge_compact_buffers_in_task_order(cases, case, ntasks):
    tensor, factors, refs = cases[case]
    env = ChapelEnv(num_tasks=ntasks)
    for backend in BACKENDS:
        csf_set = build_csf_set(tensor, allocation=case[1])
        for mode in range(tensor.nmodes):
            first, _ = mttkrp_csf(csf_set, factors, mode, env=env,
                                  force_locks=False, backend=backend)
            first = first.copy()
            again, _ = mttkrp_csf(csf_set, factors, mode, env=env,
                                  force_locks=False, backend=backend)
            # a fixed merge order makes the bits independent of the schedule
            np.testing.assert_array_equal(again, first)
            np.testing.assert_allclose(first, refs[mode], rtol=RTOL, atol=ATOL)


def test_one_task_adds_into_the_output_with_no_workspace(cases):
    tensor, factors, refs = cases["order4", "one"]
    csf_set = build_csf_set(tensor, allocation="one")
    start = np.full((tensor.dims[0], 5), np.nan)
    for mode in range(tensor.nmodes):
        out, _ = mttkrp_csf(csf_set, factors, mode, backend="cext",
                            out=start if mode == 0 else None)
        np.testing.assert_allclose(out, refs[mode], rtol=RTOL, atol=ATOL)
    # mttkrp_csf zeroes a caller's out before the kernels add into it
    np.testing.assert_allclose(start, refs[0], rtol=RTOL, atol=ATOL)
    tree, _ = csf_set.tree_for_mode(0)
    (ws,) = csf_set.mttkrp_context.workspaces(tree, 1)
    assert ws.nbytes() == 0


def test_non_contiguous_out_still_receives_the_result(cases):
    tensor, factors, refs = cases["order3", "two"]
    csf_set = build_csf_set(tensor)
    for mode in range(tensor.nmodes):
        out = np.asfortranarray(np.ones((tensor.dims[mode], 5)))
        got, _ = mttkrp_csf(csf_set, factors, mode, env=ChapelEnv(num_tasks=2),
                            backend="cext", out=out)
        assert got is out
        np.testing.assert_allclose(out, refs[mode], rtol=RTOL, atol=ATOL)


def test_kernel_refuses_an_output_smaller_than_the_mode(cases):
    tensor, factors, _ = cases["order3", "one"]
    csf_set = build_csf_set(tensor, allocation="one")
    tree, _ = csf_set.tree_for_mode(0)
    bk = resolve_backend("cext")
    call = prepare_call(bk, tree, factors)
    short = np.zeros((tree.dims[tree.dim_perm[2]] - 1, 5))
    with pytest.raises(ValueError, match="does not cover"):
        bk.leaf_kernel(call.tree, call.factors, 0, 1, short)
    with pytest.raises(ValueError, match="does not cover"):
        bk.root_kernel(call.tree, call.factors, 0, 1, np.zeros((12, 4)))


def test_every_factor_is_checked_against_its_mode():
    # the walks read the other modes' factor rows without bounds checks:
    # the NumPy walk's clipped take would read a short factor's last row
    # for every index past it, C would read past its end
    tensor = random_tensor((9, 7, 8), 150, seed=3)
    rng = np.random.default_rng(3)
    factors = [rng.random((d, 5)) for d in tensor.dims]
    cut = factors[:2] + [factors[2][:3]]
    narrow = factors[:1] + [factors[1][:, :4]] + factors[2:]
    for backend in BACKENDS:
        csf_set = build_csf_set(tensor)
        for mode in range(tensor.nmodes):
            with pytest.raises(ValueError, match=r"factor 2 has shape \(3, 5\)"):
                mttkrp_csf(csf_set, cut, mode, backend=backend)
            with pytest.raises(ValueError, match=r"factor 1 has shape \(7, 4\)"):
                mttkrp_csf(csf_set, narrow, mode, backend=backend)
            with pytest.raises(ValueError, match="need 3 factors"):
                mttkrp_csf(csf_set, factors[:2], mode, backend=backend)
    # the compiled kernels check each level's factor before any C call
    bk = resolve_backend("cext")
    tree = build_csf_set(tensor, allocation="one").trees[0]
    call = prepare_call(bk, tree, cut)
    out = np.zeros((tree.dims[tree.dim_perm[0]], 5))
    with pytest.raises(ValueError, match=r"factor 2 has shape \(3, 5\)"):
        bk.root_kernel(call.tree, call.factors, 0, 1, out)


class _Recorder:
    """Counts calls of a method (from any thread), keeping its arguments."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = []
        mutex = threading.Lock()
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            with mutex:
                self.calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("kind", ["atomic", "sync"])
@pytest.mark.parametrize("ntasks", [1, 3])
def test_sanitizer_takes_the_python_lock_loop_and_sees_every_write(
        cases, monkeypatch, kind, ntasks):
    tensor, factors, refs = cases["order4", "one"]
    env = ChapelEnv(num_tasks=ntasks)
    writes = _Recorder(monkeypatch, Probe, "array_write")
    c_loop = _Recorder(monkeypatch, CextBackend, "scatter_locked")
    for backend in BACKENDS:
        csf_set = build_csf_set(tensor, allocation="one")
        pools = {m: make_mutex_pool(kind, env=env) for m in range(tensor.nmodes)}
        writes.calls.clear()
        acquires = _Recorder(monkeypatch, type(pools[0]), "acquire")
        with sanitizing() as san:
            outs = [mttkrp_csf(csf_set, factors, m, env=env, pool=pools[m],
                               force_locks=True, backend=backend)[0].copy()
                    for m in range(tensor.nmodes)]
        report = san.report()
        assert report.ok, report.render()
        assert c_loop.calls == []
        for mode, out in enumerate(outs):
            np.testing.assert_allclose(out, refs[mode], rtol=RTOL, atol=ATOL)

        tree, _ = csf_set.tree_for_mode(0)
        by_site: dict[str, list] = {}
        for _, array, rows, site in writes.calls:
            by_site.setdefault(site, []).append(np.asarray(rows))
        if ntasks == 1:
            assert acquires.calls == []
            if backend == "numpy":
                # the walk's contributions, reduced and added by the scatter
                assert set(by_site) == {"root_range_vectorized",
                                        "RowScatter.scatter_accumulate"}
                assert len(by_site["RowScatter.scatter_accumulate"]) == 3
                continue
            # direct writes, recorded by the range function that made them
            assert set(by_site) == {"root_range_vectorized",
                                    "internal_range_vectorized", "leaf_range_vectorized"}
            assert len(by_site["internal_range_vectorized"]) == 2
            continue
        plans = [_scatters(csf_set, tree.dim_perm[level], ntasks, pools[0].size)
                 for level in (1, 2, 3)]
        locked = sum(_task_bucket_pairs(plan) for plan in plans)
        # one recorded write per acquire, inside the critical section
        assert len(acquires.calls) == locked
        assert len(by_site["RowScatter.scatter_mutex"]) == locked
        assert sum(p.counters.lock_acquires for p in pools.values()) == locked
        # every row of every task's compact buffer is recorded once
        recorded = np.concatenate(by_site["RowScatter.scatter_mutex"])
        assert recorded.size == sum(sc.out_rows.size for plan in plans
                                    for sc in plan.scatters)
