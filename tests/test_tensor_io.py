"""Unit tests for FROSTT text I/O and the binary cache format."""

import gzip

import numpy as np
import pytest

from repro.tensor import io as tns_io
from repro.tensor.coo import SparseTensor
from repro.tensor.generate import random_tensor, synthetic_dataset
from repro.tensor.io import load_binary, load_tns, save_binary, save_tns


class TestTnsRoundtrip:
    def test_roundtrip_preserves_tensor(self, small_tensor, tmp_path):
        path = tmp_path / "t.tns"
        save_tns(small_tensor, path)
        loaded = load_tns(path, dims=small_tensor.dims)
        assert loaded == SparseTensor(
            small_tensor.coords, small_tensor.values, small_tensor.dims, name="t"
        )

    def test_roundtrip_zero_indexed(self, small_tensor, tmp_path):
        path = tmp_path / "t0.tns"
        save_tns(small_tensor, path, one_indexed=False)
        loaded = load_tns(path, dims=small_tensor.dims, one_indexed=False)
        np.testing.assert_array_equal(loaded.coords, small_tensor.coords)

    def test_values_exact(self, tmp_path):
        t = SparseTensor(np.array([[0, 0]]), np.array([0.1234567890123456]), (1, 1))
        path = tmp_path / "v.tns"
        save_tns(t, path)
        loaded = load_tns(path)
        assert loaded.values[0] == t.values[0]  # repr round-trips doubles


class TestTnsParsing:
    def test_frostt_format(self, tmp_path):
        path = tmp_path / "x.tns"
        path.write_text("# a comment\n1 1 1 1.5\n2 3 1 -2.0\n\n% another comment\n")
        t = load_tns(path)
        assert t.nnz == 2
        assert t.dims == (2, 3, 1)
        assert t.to_dense()[0, 0, 0] == 1.5
        assert t.to_dense()[1, 2, 0] == -2.0

    def test_dims_inferred_vs_given(self, tmp_path):
        path = tmp_path / "x.tns"
        path.write_text("1 1 2.0\n")
        assert load_tns(path).dims == (1, 1)
        assert load_tns(path, dims=(5, 6)).dims == (5, 6)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1 1.0\n1 1 2.0\n")
        with pytest.raises(ValueError, match="ragged"):
            load_tns(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 x 1.0\n")
        with pytest.raises(ValueError, match="bad numeric"):
            load_tns(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tns"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no nonzeros"):
            load_tns(path)

    def test_zero_index_in_one_indexed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("0 1 1.0\n")
        with pytest.raises(ValueError, match="1-indexed"):
            load_tns(path)

    def test_too_few_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1\n")
        with pytest.raises(ValueError, match="at least one index"):
            load_tns(path)

    def test_ragged_row_error_carries_file_line_number(self, tmp_path):
        """Error messages must point at the *file* line (counting comments
        and blanks), so the offending row can be found in an editor."""
        path = tmp_path / "bad.tns"
        path.write_text("# header comment\n1 1 1 1.0\n\n2 2 2 2.0\n3 3 3.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:5: ragged"):
            load_tns(path)

    def test_bad_numeric_error_carries_file_line_number(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("% comment\n1 1 1 1.0\n2 2 oops 2.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:3: bad numeric"):
            load_tns(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_values_rejected_with_line_number(self, tmp_path, value):
        path = tmp_path / "bad.tns"
        path.write_text(f"1 1 1 1.0\n2 2 2 {value}\n")
        with pytest.raises(ValueError, match=r"bad\.tns:2: non-finite"):
            load_tns(path)

    def test_finite_values_still_load(self, tmp_path):
        path = tmp_path / "ok.tns"
        path.write_text("1 1 1 1e300\n2 2 2 -1e-300\n")
        t = load_tns(path)
        assert t.nnz == 2

    def test_name_is_stem(self, tmp_path):
        path = tmp_path / "mydata.tns"
        path.write_text("1 1 1.0\n")
        assert load_tns(path).name == "mydata"


class TestGzip:
    def test_gz_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "t.tns.gz"
        save_tns(small_tensor, path)
        loaded = load_tns(path, dims=small_tensor.dims)
        np.testing.assert_array_equal(loaded.coords, small_tensor.coords)
        np.testing.assert_allclose(loaded.values, small_tensor.values)

    def test_gz_is_actually_compressed(self, small_tensor, tmp_path):
        import gzip

        path = tmp_path / "t.tns.gz"
        save_tns(small_tensor, path)
        with gzip.open(path, "rt") as fh:
            first = fh.readline()
        assert len(first.split()) == 4  # 3 indices + value

    def test_gz_name_strips_both_suffixes(self, small_tensor, tmp_path):
        path = tmp_path / "mydata.tns.gz"
        save_tns(small_tensor, path)
        assert load_tns(path, dims=small_tensor.dims).name == "mydata"


class TestBinary:
    def test_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "t.npz"
        save_binary(small_tensor, path)
        loaded = load_binary(path)
        assert loaded == small_tensor
        assert loaded.name == small_tensor.name

    def test_empty_values_tensor(self, tmp_path):
        t = SparseTensor(np.array([[1, 2, 3]]), np.array([7.0]), (4, 4, 4), name="one")
        path = tmp_path / "one.npz"
        save_binary(t, path)
        assert load_binary(path) == t


class TestBinarySuffix:
    """Regression: save_binary('cache') wrote cache.npz (np.savez appends
    the suffix) while load_binary('cache') opened 'cache' verbatim."""

    def test_suffixless_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "cache"  # no suffix on either side
        save_binary(small_tensor, path)
        assert (tmp_path / "cache.npz").exists()
        assert load_binary(path) == small_tensor

    def test_explicit_suffix_unchanged(self, small_tensor, tmp_path):
        path = tmp_path / "cache.npz"
        save_binary(small_tensor, path)
        assert load_binary(path) == small_tensor
        assert not (tmp_path / "cache.npz.npz").exists()

    def test_foreign_suffix_gets_npz_appended(self, small_tensor, tmp_path):
        # np.savez_compressed would do this to the save; the load must match.
        path = tmp_path / "cache.v2"
        save_binary(small_tensor, path)
        assert (tmp_path / "cache.v2.npz").exists()
        assert load_binary(path) == small_tensor


class TestDimsValidation:
    """Explicit dims= must reject out-of-range coordinates with the file
    line number, like the other load_tns diagnostics."""

    def test_out_of_range_carries_line_number(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# header\n1 1 1 1.0\n\n9 2 1 2.0\n")
        with pytest.raises(ValueError, match=r"t\.tns:4: coordinate \(9, 2, 1\)"):
            load_tns(path, dims=(4, 4, 4))

    def test_zero_indexed_out_of_range(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("0 0 0 1.0\n3 0 0 2.0\n")
        with pytest.raises(ValueError, match=r"t\.tns:2: .*0-indexed"):
            load_tns(path, dims=(3, 3, 3), one_indexed=False)

    def test_dims_arity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n")
        with pytest.raises(ValueError, match="dims has 2 modes but the file has 3"):
            load_tns(path, dims=(4, 4))

    def test_exact_fit_dims_accepted(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n4 4 4 2.0\n")
        t = load_tns(path, dims=(4, 4, 4))
        assert t.dims == (4, 4, 4)


class TestGzipValues:
    def test_gz_values_exact_via_repr(self, tmp_path):
        """save_tns writes repr(float): doubles survive a .tns.gz
        round-trip bit-for-bit, not merely approximately."""
        values = np.array([1 / 3, 1e-17, -2.5000000000000004, np.pi])
        t = SparseTensor(
            np.arange(12).reshape(4, 3) % 3, values, (3, 3, 3), name="exact"
        )
        path = tmp_path / "exact.tns.gz"
        save_tns(t, path)
        loaded = load_tns(path, dims=t.dims)
        assert loaded.values.tolist() == values.tolist()  # exact, no tolerance

    def test_gz_double_suffix_name_stripped(self, small_tensor, tmp_path):
        path = tmp_path / "frostt.tns.gz"
        save_tns(small_tensor, path)
        assert load_tns(path, dims=small_tensor.dims).name == "frostt"


class TestMmapFormat:
    def test_roundtrip(self, small_tensor, tmp_path):
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        loaded = load_mmap(path)
        np.testing.assert_array_equal(loaded.coords, small_tensor.coords)
        np.testing.assert_array_equal(loaded.values, small_tensor.values)
        assert loaded.dims == small_tensor.dims
        assert loaded.name == "t"

    def test_arrays_are_zero_copy_readonly_maps(self, small_tensor, tmp_path):
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        loaded = load_mmap(path)
        assert isinstance(loaded.coords.base, np.memmap)
        assert isinstance(loaded.values.base, np.memmap)
        assert not loaded.coords.flags.owndata
        assert not loaded.coords.flags.writeable
        assert not loaded.values.flags.writeable

    def test_name_strips_tnsb_and_tns(self, small_tensor, tmp_path):
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "mydata.tns.tnsb"
        save_mmap(small_tensor, path)
        assert load_mmap(path).name == "mydata"

    def test_bad_magic_rejected(self, tmp_path):
        from repro.tensor.io import load_mmap

        path = tmp_path / "t.tnsb"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_mmap(path)

    def test_truncated_payload_rejected(self, small_tensor, tmp_path):
        from repro.tensor.io import save_mmap, load_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_mmap(path)

    def test_decomposes_from_map(self, small_tensor, tmp_path):
        """A mapped tensor feeds CP-ALS (and CSF construction) unmodified."""
        from repro.core.cpals import cp_als
        from repro.core.options import CpalsOptions
        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        mapped = load_mmap(path)
        direct = cp_als(small_tensor, 2, CpalsOptions(max_iterations=3, tolerance=0))
        via_map = cp_als(mapped, 2, CpalsOptions(max_iterations=3, tolerance=0))
        assert via_map.fits[-1] == direct.fits[-1]


class TestRaggedWidthBlame:
    """The ragged-row error must blame the *minority*-width line, even when
    the anomalous line is the first data row (regression: the expected
    width used to be taken from row 1, blaming every later line)."""

    def test_short_first_row_is_the_one_blamed(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1.0\n1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:1: ragged row has 3 fields"):
            load_tns(path)

    def test_majority_count_reported(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("# hdr\n1 1 1.0\n1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n")
        with pytest.raises(ValueError, match=r"3 of 4 data lines have 4"):
            load_tns(path)

    def test_minority_later_row_still_blamed(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1 1.0\n2 2 2 2.0\n3 3 3.0\n4 4 4 4.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:3: ragged row has 3 fields"):
            load_tns(path)

    def test_tie_reports_inconsistent_pair(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1.0\n1 1 1 1.0\n")
        with pytest.raises(ValueError, match=r"bad\.tns:2: .*but line 1 has 3"):
            load_tns(path)

    def test_consistent_file_unaffected(self, tmp_path):
        path = tmp_path / "ok.tns"
        path.write_text("1 1 1.0\n2 2 2.0\n")
        assert load_tns(path).nnz == 2


class TestMmapAtomicWrite:
    """``save_mmap`` must never tear an existing ``.tnsb`` in place: other
    processes share its bytes through the page cache (regression: the file
    used to be opened ``"wb"`` at the destination, truncating it before
    the first byte of the replacement was durable)."""

    def test_failed_write_preserves_previous_file(self, small_tensor, tmp_path,
                                                  monkeypatch):
        from pathlib import Path

        from repro.tensor.io import load_mmap, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        before = path.read_bytes()

        other = small_tensor.copy()
        other.values[:] = -other.values

        real_open = Path.open

        def exploding_open(self, mode="r", *args, **kwargs):
            # matches both the destination (pre-fix in-place write) and
            # the same-directory temp file (post-fix), so the injected
            # fault fires mid-payload either way
            fh = real_open(self, mode, *args, **kwargs)
            if "w" in mode and self.name.startswith("t.tnsb"):
                real_write = fh.write
                state = {"n": 0}

                def failing_write(data):
                    state["n"] += 1
                    if state["n"] >= 3:  # after magic + header, mid-payload
                        raise OSError("disk full (injected)")
                    return real_write(data)

                fh.write = failing_write
            return fh

        monkeypatch.setattr(Path, "open", exploding_open)
        with pytest.raises(OSError, match="disk full"):
            save_mmap(other, path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        reloaded = load_mmap(path)
        np.testing.assert_array_equal(reloaded.values, small_tensor.values)
        assert not list(tmp_path.glob("*.tmp-*")), "temp litter left behind"

    def test_kill_mid_write_leaves_old_file_intact(self, small_tensor, tmp_path):
        """A SIGKILL between the payload write and the rename (simulated by
        killing the process inside fsync) must leave the previous complete
        file, not a truncated one."""
        import subprocess
        import sys

        from repro.tensor.io import load_mmap, save_binary, save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(small_tensor, path)
        before = path.read_bytes()
        seed_npz = tmp_path / "seed.npz"
        save_binary(small_tensor, seed_npz)

        script = (
            "import os, signal, sys\n"
            "import repro.tensor.io as tio\n"
            "t = tio.load_binary(sys.argv[1])\n"
            "t.values.flags.writeable = True\n"
            "t.values[:] = 7.0\n"
            "os.fsync = lambda fd: os.kill(os.getpid(), signal.SIGKILL)\n"
            "tio.save_mmap(t, sys.argv[2])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(seed_npz), str(path)],
            capture_output=True,
        )
        assert proc.returncode == -9, (proc.returncode, proc.stderr.decode())

        assert path.read_bytes() == before
        reloaded = load_mmap(path)
        np.testing.assert_array_equal(reloaded.values, small_tensor.values)


def _outcome(path, **kwargs):
    """Everything ``load_tns`` returns, as bytes, or its error text."""
    try:
        t = load_tns(path, **kwargs)
    except ValueError as exc:
        return ("error", str(exc))
    return (t.coords.dtype.str, t.coords.shape, t.coords.tobytes(),
            t.values.dtype.str, t.values.tobytes(), t.dims, t.name)


def _loop_outcome(path, monkeypatch, **kwargs):
    """The outcome with the one-pass parser switched off: the line loop alone."""
    with monkeypatch.context() as m:
        m.setattr(tns_io, "_parse_one_pass", lambda path: None)
        return _outcome(path, **kwargs)


def _one_pass_taken(path) -> bool:
    return tns_io._parse_one_pass(path) is not None


@pytest.fixture(scope="module")
def stand_in_files(tmp_path_factory):
    """The generated NETFLIX and YELP stand-ins, written as ``.tns``."""
    out = {}
    for name in ("netflix", "yelp"):
        path = tmp_path_factory.mktemp(name) / f"{name}.tns"
        save_tns(synthetic_dataset(name, seed=1), path)
        out[name] = path
    return out


class TestOnePassParser:
    """The one-pass ``np.loadtxt`` parse and the line loop give byte-identical
    tensors on every file the loop accepts; every other file takes the loop
    and fails exactly as it did."""

    @pytest.mark.parametrize("name", ["netflix", "yelp"])
    def test_stand_ins_identical(self, name, stand_in_files, monkeypatch):
        path = stand_in_files[name]
        assert _one_pass_taken(path)
        got = _outcome(path)
        assert got[0] != "error"
        assert got == _loop_outcome(path, monkeypatch)

    @pytest.mark.parametrize("shape", [(12, 9, 15), (6, 5, 7, 4)])
    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("kwargs", [{}, {"one_indexed": False}, {"dims": (40, 40, 40, 40)}],
                             ids=["one-indexed", "zero-indexed", "dims"])
    def test_generated_files_identical(self, shape, gz, kwargs, tmp_path, monkeypatch):
        tensor = random_tensor(shape, 150, seed=3)
        path = tmp_path / ("t.tns.gz" if gz else "t.tns")
        save_tns(tensor, path, one_indexed=kwargs.get("one_indexed", True))
        if "dims" in kwargs:
            kwargs = {"dims": kwargs["dims"][: len(shape)]}
        assert _one_pass_taken(path)
        got = _outcome(path, **kwargs)
        assert got[0] != "error"
        assert got == _loop_outcome(path, monkeypatch, **kwargs)

    @pytest.mark.parametrize("text", [
        "1\t2\t3\t0.5\n4\t1\t2\t-1.25\n",
        "+1 +2 3 0.5\n2 1 +1 +7\n",
        "  1 2 3 0.5  \n2 2 2 1e-3\t\n",
        "1 2 3 0.5\r\n2 2 2 .25\r\n",
        "1 2 3 0.5\r2 2 2 .25\r",
        "1 2 3 0.5\n2 2 2 5",
        "1 2 3 4.9406564584124654e-324\n2 2 2 1.7976931348623157e308\n",
    ], ids=["tabs", "plus-signs", "padding", "crlf", "cr", "no-final-newline",
         "extremes"])
    def test_accepted_variants_identical(self, text, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text(text)
        assert _one_pass_taken(path)
        got = _outcome(path)
        assert got[0] != "error"
        assert got == _loop_outcome(path, monkeypatch)

    @pytest.mark.parametrize("text,accepted", [
        ("# header\n1 2 3 0.5\n2 2 2 1.0\n", True),
        ("% header\n1 2 3 0.5\n", True),
        ("1 2 3 0.5\n\n2 2 2 1.0\n", True),
        ("1 2 3 0.5\n2 2 2 1.0\n\n", True),
        ("1 2 3 0.5\n   \n2 2 2 1.0\n", True),
        ("1 2 3 0.5 # inline\n2 2 2 1.0\n", False),
        ("1e3 2 3 0.5\n", False),
        ("1.0 2 3 0.5\n", False),
        ("1 2 3 nan\n", False),
        ("1 2 3 0.5\n2 2 2 -inf\n", False),
        ("1 2 3 0.5\n2 2 1.0\n2 2 2 2.0\n", False),
        ("1_0 2 3 0.5\n", True),
        ("", False),
        ("\n\n", False),
        ("1\n", False),
    ])
    def test_other_files_take_the_loop(self, text, accepted, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text(text)
        assert not _one_pass_taken(path)
        got = _outcome(path)
        assert (got[0] != "error") == accepted, got
        assert got == _loop_outcome(path, monkeypatch)

    def test_underflow_on_the_one_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n0 1 1 2.0\n")
        assert _one_pass_taken(path)
        got = _outcome(path)
        assert got == _loop_outcome(path, monkeypatch)
        assert got[0] == "error" and "coordinate underflow" in got[1]

    def test_out_of_range_line_number_after_blank_line(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n\n2 2 2 2.0\n9 2 1 3.0\n")
        assert not _one_pass_taken(path)
        got = _outcome(path, dims=(4, 4, 4))
        assert got == _loop_outcome(path, monkeypatch, dims=(4, 4, 4))
        assert got[0] == "error" and "t.tns:4: coordinate (9, 2, 1)" in got[1]

    def test_out_of_range_line_number_on_the_one_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n2 2 2 2.0\n9 2 1 3.0\n")
        assert _one_pass_taken(path)
        got = _outcome(path, dims=(4, 4, 4))
        assert got == _loop_outcome(path, monkeypatch, dims=(4, 4, 4))
        assert got[0] == "error" and "t.tns:3: coordinate (9, 2, 1)" in got[1]

    def test_undecodable_file_fails_as_before(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(b"1 2 3 0.5\n2 2 2 \xff\n")
        assert not _one_pass_taken(path)
        with pytest.raises(UnicodeDecodeError) as fast:
            load_tns(path)
        with monkeypatch.context() as m:
            m.setattr(tns_io, "_parse_one_pass", lambda path: None)
            with pytest.raises(UnicodeDecodeError) as loop:
                load_tns(path)
        assert str(fast.value) == str(loop.value)
