"""Unit tests for the simulated distributed (medium-grained) CP-ALS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.distributed.comm import CommStats
from repro.distributed.cpals import distributed_cp_als
from repro.distributed.grid import LocaleGrid, choose_grid
from repro.distributed.partition import mode_chunks, partition_medium_grain
from repro.tensor.generate import planted_low_rank, random_tensor


@pytest.fixture()
def tensor():
    return random_tensor((24, 18, 30), 1500, seed=6)


class TestLocaleGrid:
    def test_basic(self):
        g = LocaleGrid((2, 3, 4))
        assert g.nlocales == 24
        assert g.nmodes == 3
        assert len(g.coords()) == 24

    def test_rank_of_row_major(self):
        g = LocaleGrid((2, 3))
        assert g.rank_of((0, 0)) == 0
        assert g.rank_of((0, 2)) == 2
        assert g.rank_of((1, 0)) == 3
        ranks = [g.rank_of(c) for c in g.coords()]
        assert ranks == list(range(6))

    def test_rank_of_validation(self):
        g = LocaleGrid((2, 2))
        with pytest.raises(ValueError):
            g.rank_of((2, 0))
        with pytest.raises(ValueError):
            g.rank_of((0,))

    def test_layer_ranks(self):
        g = LocaleGrid((2, 3))
        assert g.layer_ranks(0, 0) == [0, 1, 2]
        assert g.layer_ranks(0, 1) == [3, 4, 5]
        assert g.layer_ranks(1, 1) == [1, 4]

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            LocaleGrid(())
        with pytest.raises(ValueError):
            LocaleGrid((2, 0))


class TestChooseGrid:
    def test_total_locales(self):
        for n in (1, 2, 4, 6, 8, 12, 16):
            g = choose_grid((100, 200, 300), n)
            assert g.nlocales == n

    def test_long_modes_get_more_cuts(self):
        g = choose_grid((12_000, 9_000, 29_000), 16)
        assert g.shape[2] == max(g.shape)  # the 29k mode

    def test_too_many_locales_for_tiny_mode(self):
        with pytest.raises(ValueError, match="cannot cut"):
            choose_grid((2, 2, 2), 64)

    def test_single_locale(self):
        assert choose_grid((5, 5, 5), 1).shape == (1, 1, 1)


class TestPartition:
    def test_mode_chunks_cover(self, tensor):
        for m in range(3):
            b = mode_chunks(tensor, m, 4)
            assert b[0] == 0 and b[-1] == tensor.dims[m]
            assert (np.diff(b) > 0).all()

    def test_mode_chunks_balanced(self, tensor):
        b = mode_chunks(tensor, 0, 3)
        hist = np.bincount(tensor.mode_indices(0), minlength=tensor.dims[0])
        loads = [hist[b[i]:b[i + 1]].sum() for i in range(3)]
        assert max(loads) <= 2 * tensor.nnz / 3

    def test_mode_chunks_too_many(self, tensor):
        with pytest.raises(ValueError, match="cannot cut"):
            mode_chunks(tensor, 0, tensor.dims[0] + 1)

    def test_partition_conserves_nonzeros(self, tensor):
        part = partition_medium_grain(tensor, LocaleGrid((2, 2, 2)))
        assert sum(part.nnz_per_locale) == tensor.nnz
        # every nonzero lives in its owner's sub-volume
        for rank, sub in enumerate(part.locale_tensors):
            for m in range(3):
                if sub.nnz == 0:
                    continue
                layers = {part.layer_of_index(m, int(i)) for i in sub.mode_indices(m)}
                assert len(layers) == 1  # all in one layer per mode

    def test_partition_imbalance_reasonable(self, tensor):
        part = partition_medium_grain(tensor, LocaleGrid((2, 2, 2)))
        assert 1.0 <= part.imbalance < 2.0

    def test_row_blocks_tile_mode(self, tensor):
        part = partition_medium_grain(tensor, LocaleGrid((2, 3, 1)))
        covered = []
        for layer in range(3):
            lo, hi = part.row_block(1, layer)
            covered.extend(range(lo, hi))
        assert covered == list(range(tensor.dims[1]))

    def test_grid_order_mismatch(self, tensor):
        with pytest.raises(ValueError, match="order"):
            partition_medium_grain(tensor, LocaleGrid((2, 2)))


class TestCommStats:
    def test_accumulation(self):
        c = CommStats()
        c.record_fold(0, 10, 3)
        c.record_expand(0, 7, 3)
        c.record_fold(1, 5, 1)
        assert c.fold_rows == 15
        assert c.expand_rows == 7
        assert c.total_messages == 7
        assert c.per_mode[0] == (10, 7)
        assert c.per_mode[1] == (5, 0)

    def test_volume_bytes(self):
        c = CommStats()
        c.record_fold(0, 4, 1)
        c.record_expand(0, 6, 1)
        assert c.volume_bytes(rank=35) == 10 * 35 * 8

    def test_merge(self):
        a, b = CommStats(), CommStats()
        a.record_fold(0, 1, 1)
        b.record_fold(0, 2, 2)
        b.record_expand(2, 3, 1)
        a.merge(b)
        assert a.fold_rows == 3
        assert a.per_mode[0] == (3, 0)
        assert a.per_mode[2] == (0, 3)


class TestDistributedCpAls:
    @pytest.mark.parametrize("nlocales", [1, 2, 4, 8])
    def test_matches_serial_numerics(self, tensor, nlocales):
        serial = cp_als(tensor, 3, CpalsOptions(max_iterations=5, tolerance=0, seed=5))
        dist = distributed_cp_als(
            tensor, 3, nlocales=nlocales, max_iterations=5, tolerance=0, seed=5
        )
        assert dist.fit == pytest.approx(serial.fit, abs=1e-8)
        for a, b in zip(dist.kruskal.factors, serial.kruskal.factors):
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_explicit_grid(self, tensor):
        dist = distributed_cp_als(
            tensor, 2, grid=LocaleGrid((2, 1, 2)), max_iterations=3, tolerance=0
        )
        assert dist.grid.shape == (2, 1, 2)

    def test_single_locale_no_comm(self, tensor):
        dist = distributed_cp_als(tensor, 2, nlocales=1, max_iterations=3, tolerance=0)
        assert dist.comm.fold_rows == 0
        assert dist.comm.expand_rows == 0
        assert dist.comm.total_messages == 0

    def test_comm_volume_grows_with_locales(self, tensor):
        v4 = distributed_cp_als(tensor, 2, nlocales=4, max_iterations=3,
                                tolerance=0).comm.volume_bytes(2)
        v8 = distributed_cp_als(tensor, 2, nlocales=8, max_iterations=3,
                                tolerance=0).comm.volume_bytes(2)
        assert 0 < v4 < v8

    def test_planted_recovery_distributed(self):
        tensor, _ = planted_low_rank((12, 10, 8), 2, 12 * 10 * 8, seed=7)
        dist = distributed_cp_als(tensor, 2, nlocales=4, max_iterations=60, tolerance=0)
        assert dist.fit > 0.99

    def test_convergence_flag(self, tensor):
        dist = distributed_cp_als(tensor, 2, nlocales=2, max_iterations=100,
                                  tolerance=1e-3)
        assert dist.converged is (dist.iterations < 100)

    def test_empty_rejected(self):
        from repro.tensor.coo import SparseTensor

        t = SparseTensor(np.empty((0, 3), dtype=int), np.empty(0), (4, 4, 4))
        with pytest.raises(ValueError, match="empty"):
            distributed_cp_als(t, 2)


class TestExchangeCounts:
    """The single audited home of the fold/expand metering math."""

    def _setup(self, tensor, shape):
        grid = LocaleGrid(shape)
        part = partition_medium_grain(tensor, grid)
        return part, grid

    def test_empty_rows_exchange_nothing(self, tensor):
        from repro.distributed.comm import exchange_counts

        part, grid = self._setup(tensor, (2, 2, 2))
        sent, msgs = exchange_counts(part, grid, 0, np.empty(0, dtype=np.int64))
        assert (sent, msgs) == (0, 0)

    def test_single_layer_mode_no_messages(self, tensor):
        """A mode the grid does not cut has layer_size == nlocales; rows
        beyond the locale's share still count, but with grid dim 1 the
        whole mode is one layer shared by all locales."""
        from repro.distributed.comm import exchange_counts

        part, grid = self._setup(tensor, (4, 1, 1))
        # mode 0 is cut into 4 single-locale layers: no neighbours, and
        # each locale owns its whole block -> nothing on the wire.
        lo, hi = part.row_block(0, 0)
        rows = np.arange(lo, min(hi, lo + 5), dtype=np.int64)
        sent, msgs = exchange_counts(part, grid, 0, rows)
        assert msgs == 0 and sent == 0

    def test_touched_beyond_share_is_sent(self, tensor):
        from repro.distributed.comm import exchange_counts

        part, grid = self._setup(tensor, (2, 2, 1))
        # mode 2 is uncut: every locale shares the single layer with all
        # 4 locales, owning a quarter of the block.
        lo, hi = part.row_block(2, 0)
        rows = np.arange(lo, hi, dtype=np.int64)  # touches every row
        sent, msgs = exchange_counts(part, grid, 2, rows)
        own = (hi - lo) // 4
        assert sent == (hi - lo) - own
        assert msgs == 3  # layer_size - 1

    def test_matches_inline_driver_metering(self, tensor):
        """exchange_counts is what the driver actually meters with: the
        fold and expand totals must be exactly symmetric."""
        res = distributed_cp_als(tensor, 2, nlocales=4, max_iterations=2,
                                 tolerance=0)
        assert res.comm.fold_rows == res.comm.expand_rows
        assert res.comm.fold_messages == res.comm.expand_messages
        for mode, (f, e) in res.comm.per_mode.items():
            assert f == e, f"mode {mode} fold/expand drifted"


class TestTransportParam:
    def test_sim_transport_explicit(self, tensor):
        """transport='sim' is the default and changes nothing."""
        a = distributed_cp_als(tensor, 2, nlocales=4, max_iterations=3,
                               tolerance=0, seed=1)
        b = distributed_cp_als(tensor, 2, nlocales=4, transport="sim",
                               max_iterations=3, tolerance=0, seed=1)
        assert a.fit == b.fit
        assert a.comm == b.comm
        assert a.transport == b.transport == "sim"
        assert a.locale_stats == {}

    def test_unknown_transport_rejected(self, tensor):
        with pytest.raises(ValueError, match="unknown transport"):
            distributed_cp_als(tensor, 2, nlocales=2, transport="mpi")

    def test_checkpoint_kwargs_rejected(self, tensor):
        """Distributed runs have no checkpoint format, so the signature has
        no checkpoint/resume keywords: passing one is an error, never a
        silently ignored keyword."""
        with pytest.raises(TypeError, match="checkpoint_path"):
            distributed_cp_als(tensor, 2, nlocales=2, checkpoint_path="ck.npz")
        with pytest.raises(TypeError, match="resume_from"):
            distributed_cp_als(tensor, 2, nlocales=2, resume_from="ck.npz")


class TestCommStatsMergeProperty:
    """Merging the stats of a split run must equal the unsplit run."""

    @staticmethod
    def _record(stats, events):
        for kind, mode, rows, msgs in events:
            if kind == 0:
                stats.record_fold(mode, rows, msgs)
            else:
                stats.record_expand(mode, rows, msgs)

    _event = st.tuples(
        st.integers(min_value=0, max_value=1),   # fold / expand
        st.integers(min_value=0, max_value=4),   # mode
        st.integers(min_value=0, max_value=100),  # rows
        st.integers(min_value=0, max_value=10),  # messages
    )
    _resilience = st.tuples(
        st.integers(min_value=0, max_value=5),   # faults_injected
        st.integers(min_value=0, max_value=5),   # retries
        st.integers(min_value=0, max_value=50),  # retried_messages
        st.floats(min_value=0, max_value=10, allow_nan=False),  # backoff
        st.integers(min_value=0, max_value=3),   # degraded
    )

    @given(events=st.lists(_event, max_size=40),
           split=st.integers(min_value=0, max_value=40),
           res_a=_resilience, res_b=_resilience)
    @settings(max_examples=60, deadline=None)
    def test_merge_of_split_equals_unsplit(self, events, split, res_a, res_b):
        split = min(split, len(events))
        whole, left, right = CommStats(), CommStats(), CommStats()
        self._record(whole, events)
        self._record(left, events[:split])
        self._record(right, events[split:])
        for stats, res in ((left, res_a), (right, res_b)):
            (stats.faults_injected, stats.retries, stats.retried_messages,
             stats.backoff_seconds, stats.degraded_exchanges) = res
        whole.faults_injected = res_a[0] + res_b[0]
        whole.retries = res_a[1] + res_b[1]
        whole.retried_messages = res_a[2] + res_b[2]
        whole.backoff_seconds = res_a[3] + res_b[3]
        whole.degraded_exchanges = res_a[4] + res_b[4]
        left.merge(right)
        assert left == whole
