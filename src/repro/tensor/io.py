"""Tensor file I/O: the FROSTT ``.tns`` text format and a binary format.

SPLATT reads whitespace-separated text files where each line holds the
1-indexed coordinates of a nonzero followed by its value::

    1 1 1 1.0
    2 7 3 0.5

We reproduce that reader/writer (``load_tns`` / ``save_tns``), including
comment lines (``#``) and blank-line tolerance.  SPLATT parses in C; here a
file whose every line is a data row is parsed in one ``np.loadtxt`` pass,
and anything else (comments, blank lines, parse errors, non-finite values)
goes through a per-line loop that reports the offending file line.  Both
give identical arrays.  There are also two binary formats:

* ``.npz`` (``save_binary`` / ``load_binary``) — compressed cache used by
  the benchmark harness;
* ``.tnsb`` (``save_mmap`` / ``load_mmap``) — a flat uncompressed layout
  whose coordinate and value arrays are returned as *read-only memory
  maps*.  The multi-process transport relies on this: the driver maps the
  file once and the page cache shares the bytes with every locale worker,
  so a tensor is never loaded (or pickled) more than once per node.
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path

import numpy as np

from repro._util import INDEX_DTYPE, VALUE_DTYPE, atomic_write
from repro.tensor.coo import SparseTensor

__all__ = [
    "load_tns",
    "save_tns",
    "load_binary",
    "save_binary",
    "load_mmap",
    "save_mmap",
    "MMAP_MAGIC",
]


def _open_text(path: Path, mode: str):
    """Open text, transparently handling ``.gz`` files (FROSTT ships both)."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


def _consistent_width(path: Path, rows: list[tuple[int, list[str]]]) -> int:
    """The common field count of ``rows``, or a :class:`ValueError` that
    blames the *minority*-width line.

    Taking the expected width from the first data row blames every
    subsequent line when row 1 is the anomalous one, so the expected
    width is decided by majority vote over all rows instead.  With no
    majority (a tie), the first line whose width differs from row 1 is
    reported together with row 1 as the inconsistent pair.
    """
    counts: dict[int, int] = {}
    for _, fields in rows:
        counts[len(fields)] = counts.get(len(fields), 0) + 1
    if len(counts) == 1:
        return next(iter(counts))
    best = max(counts.values())
    majority = [w for w, c in counts.items() if c == best]
    if len(majority) == 1:
        width = majority[0]
        lineno, fields = next((ln, f) for ln, f in rows if len(f) != width)
        raise ValueError(
            f"{path}:{lineno}: ragged row has {len(fields)} fields, expected "
            f"{width} ({best} of {len(rows)} data lines have {width})"
        )
    first_lineno, first_fields = rows[0]
    lineno, fields = next(
        (ln, f) for ln, f in rows if len(f) != len(first_fields)
    )
    raise ValueError(
        f"{path}:{lineno}: ragged row has {len(fields)} fields but line "
        f"{first_lineno} has {len(first_fields)} (no majority width to "
        "decide which is wrong)"
    )


def _line_count(path: Path) -> int:
    """The number of lines text-mode iteration yields (universal newlines:
    ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end one line)."""
    with (gzip.open(path, "rb") if path.suffix == ".gz" else path.open("rb")) as fh:
        raw = fh.read()
    ends = raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
    return ends + (not raw.endswith((b"\n", b"\r")))


def _parse_one_pass(path: Path) -> tuple[np.ndarray, np.ndarray, range] | None:
    """Coordinates, values and line numbers of a file whose every line is a
    data row, in one ``np.loadtxt`` pass; ``None`` sends the file to
    :func:`_parse_lines`.

    The mode count comes from the first line.  Coordinates are parsed as
    integers, so ``1e3`` fails as it does for ``int()``, and comments are
    not recognized (``comments=None``), so no trailing ``# ...`` is
    accepted.  Any parse error, a non-finite value, or a row count that
    differs from the file's line count (a blank or comment line) returns
    ``None``: the line loop then accepts the file or raises its message.
    """
    try:
        with _open_text(path, "r") as fh:
            nmodes = len(fh.readline().split()) - 1
            if nmodes < 1:
                return None
            fh.seek(0)
            row = np.dtype([("coords", INDEX_DTYPE, (nmodes,)), ("value", VALUE_DTYPE)])
            table = np.loadtxt(fh, dtype=row, comments=None, ndmin=1)
    except ValueError:
        return None
    if table.shape[0] != _line_count(path):
        return None
    values = np.ascontiguousarray(table["value"])
    if not np.isfinite(values).all():
        return None
    return np.ascontiguousarray(table["coords"]), values, range(1, len(values) + 1)


def _parse_lines(path: Path) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Coordinates, values and file line numbers of the data rows, read
    line by line; skips comments and blank lines, and raises a
    :class:`ValueError` naming the file line of the first bad row."""
    rows: list[tuple[int, list[str]]] = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", "%")):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: need at least one index and a value")
            rows.append((lineno, fields))
    if not rows:
        raise ValueError(f"{path}: no nonzeros found")
    width = _consistent_width(path, rows)
    coords = np.empty((len(rows), width - 1), dtype=INDEX_DTYPE)
    values = np.empty(len(rows), dtype=VALUE_DTYPE)
    for i, (lineno, fields) in enumerate(rows):
        try:
            coords[i] = [int(f) for f in fields[:-1]]
            values[i] = float(fields[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad numeric field: {exc}") from exc
        if not np.isfinite(values[i]):
            raise ValueError(
                f"{path}:{lineno}: non-finite value {fields[-1]!r} "
                "(NaN/inf nonzeros are not representable)"
            )
    return coords, values, [lineno for lineno, _ in rows]


def load_tns(
    path: str | os.PathLike,
    *,
    dims: tuple[int, ...] | None = None,
    one_indexed: bool = True,
) -> SparseTensor:
    """Read a FROSTT-style text tensor.

    Parameters
    ----------
    path:
        File to read.
    dims:
        Explicit mode lengths.  When omitted, each mode length is inferred as
        ``max coordinate + 1`` (after 1-index correction), matching SPLATT's
        ``tt_get_dims``.
    one_indexed:
        FROSTT files are 1-indexed; set ``False`` for 0-indexed files.

    ``.gz`` paths are decompressed transparently (FROSTT distributes
    tensors gzipped).  A file of data rows only is parsed in one pass; a
    file with comments, blank lines or a bad row is read line by line.
    The result is the same either way.

    Raises
    ------
    ValueError
        On ragged rows (inconsistent mode counts between lines),
        non-numeric fields, or non-finite values (NaN/inf).  Messages
        carry the *file* line number (counting comments and blanks), not
        the nonzero's ordinal, so the offending line can be found in an
        editor.
    """
    path = Path(path)
    coords, values, linenos = _parse_one_pass(path) or _parse_lines(path)
    nmodes = coords.shape[1]
    if one_indexed:
        coords -= 1
    if (coords < 0).any():
        raise ValueError(f"{path}: coordinate underflow (is the file really 1-indexed?)")
    if dims is None:
        dims = tuple(int(coords[:, m].max()) + 1 for m in range(nmodes))
    else:
        dims = tuple(int(d) for d in dims)
        if len(dims) != nmodes:
            raise ValueError(
                f"{path}: dims has {len(dims)} modes but the file has {nmodes} "
                "(coordinates per line minus the value field)"
            )
        out_of_range = (coords >= np.asarray(dims, dtype=INDEX_DTYPE)).any(axis=1)
        if out_of_range.any():
            i = int(np.argmax(out_of_range))
            lineno = linenos[i]
            coord = tuple(int(c) + (1 if one_indexed else 0) for c in coords[i])
            raise ValueError(
                f"{path}:{lineno}: coordinate {coord} exceeds dims {dims} "
                f"({'1' if one_indexed else '0'}-indexed)"
            )
    name = path.stem
    if name.endswith(".tns"):
        name = name[: -len(".tns")]
    return SparseTensor(coords, values, dims, name=name)


def save_tns(
    tensor: SparseTensor,
    path: str | os.PathLike,
    *,
    one_indexed: bool = True,
) -> None:
    """Write a FROSTT-style text tensor (inverse of :func:`load_tns`)."""
    path = Path(path)
    offset = 1 if one_indexed else 0
    with _open_text(path, "w") as fh:
        for coord, value in zip(tensor.coords, tensor.values):
            idx = " ".join(str(int(c) + offset) for c in coord)
            # repr(float) round-trips doubles exactly
            fh.write(f"{idx} {float(value)!r}\n")


def _npz_path(path: str | os.PathLike) -> Path:
    """The path ``np.savez_compressed`` actually writes for ``path``.

    ``savez_compressed`` silently appends ``.npz`` when the suffix is
    missing; ``np.load`` does not.  Both :func:`save_binary` and
    :func:`load_binary` normalize through this helper so a round-trip with
    a suffixless path names the same file on both sides.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_binary(tensor: SparseTensor, path: str | os.PathLike) -> None:
    """Cache a tensor as compressed ``.npz`` (fast benchmark-harness format).

    A missing ``.npz`` suffix is appended, matching what
    ``np.savez_compressed`` would do anyway — see :func:`_npz_path`.
    """
    np.savez_compressed(
        _npz_path(path),
        coords=tensor.coords,
        values=tensor.values,
        dims=np.asarray(tensor.dims, dtype=INDEX_DTYPE),
        name=np.asarray(tensor.name),
    )


def load_binary(path: str | os.PathLike) -> SparseTensor:
    """Load a tensor cached with :func:`save_binary`.

    Applies the same ``.npz`` suffix normalization as :func:`save_binary`,
    so ``load_binary(p)`` always finds what ``save_binary(p)`` wrote.
    """
    with np.load(_npz_path(path), allow_pickle=False) as data:
        return SparseTensor(
            data["coords"],
            data["values"],
            tuple(int(d) for d in data["dims"]),
            name=str(data["name"]),
        )


#: Magic bytes opening every ``.tnsb`` flat binary tensor file.
MMAP_MAGIC = b"RPTNSB01"

#: Header layout after the magic: int64 ``nmodes``, int64 ``nnz``, then
#: ``nmodes`` int64 dims; coords (``nnz × nmodes`` int64, C order) and
#: values (``nnz`` float64) follow back-to-back.
_HEADER_DTYPE = np.dtype(np.int64)


def save_mmap(tensor: SparseTensor, path: str | os.PathLike) -> None:
    """Write a tensor in the flat ``.tnsb`` layout read by :func:`load_mmap`.

    The layout is deliberately trivial — magic, int64 header, raw
    little-endian arrays — so :func:`load_mmap` can hand back zero-copy
    ``np.memmap`` views instead of parsing anything.

    The write is **atomic** (:func:`repro._util.atomic_write`, shared with
    :mod:`repro.resilience.checkpoint`): ``.tnsb`` files are mapped by
    every process sharing the page cache, so an in-place overwrite killed
    mid-write would leave a truncated file for all of them.  A crash
    leaves either the previous complete file or none — never a torn one.
    """
    coords = np.ascontiguousarray(tensor.coords, dtype=INDEX_DTYPE)
    values = np.ascontiguousarray(tensor.values, dtype=VALUE_DTYPE)
    header = np.array(
        [tensor.nmodes, tensor.nnz, *tensor.dims], dtype=_HEADER_DTYPE
    )
    with atomic_write(path) as fh:
        fh.write(MMAP_MAGIC)
        fh.write(header.tobytes())
        fh.write(coords.tobytes())
        fh.write(values.tobytes())


def load_mmap(path: str | os.PathLike) -> SparseTensor:
    """Map a ``.tnsb`` file as a tensor backed by read-only ``np.memmap``.

    The coordinate and value arrays are views over the page cache — the
    file's bytes are shared with every other process that maps it, which
    is how the multi-process transport loads a tensor exactly once per
    node.  The returned arrays are read-only; callers that must mutate
    (e.g. :func:`~repro.tensor.dedup.deduplicate`) get a copy-on-write
    copy from numpy automatically when they ``np.array`` them.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(len(MMAP_MAGIC))
        if magic != MMAP_MAGIC:
            raise ValueError(
                f"{path}: not a .tnsb tensor (bad magic {magic!r}; "
                f"expected {MMAP_MAGIC!r})"
            )
        fixed = np.frombuffer(fh.read(2 * _HEADER_DTYPE.itemsize), dtype=_HEADER_DTYPE)
        if fixed.size != 2:
            raise ValueError(f"{path}: truncated .tnsb header")
        nmodes, nnz = int(fixed[0]), int(fixed[1])
        if nmodes < 1 or nnz < 0:
            raise ValueError(f"{path}: corrupt .tnsb header (nmodes={nmodes}, nnz={nnz})")
        dims_raw = np.frombuffer(
            fh.read(nmodes * _HEADER_DTYPE.itemsize), dtype=_HEADER_DTYPE
        )
        if dims_raw.size != nmodes:
            raise ValueError(f"{path}: truncated .tnsb dims")
        dims = tuple(int(d) for d in dims_raw)
        data_start = fh.tell()

    coords_bytes = nnz * nmodes * np.dtype(INDEX_DTYPE).itemsize
    values_bytes = nnz * np.dtype(VALUE_DTYPE).itemsize
    expected = data_start + coords_bytes + values_bytes
    actual = path.stat().st_size
    if actual < expected:
        raise ValueError(
            f"{path}: truncated .tnsb payload ({actual} bytes, expected {expected})"
        )

    coords = np.memmap(
        path, dtype=INDEX_DTYPE, mode="r", offset=data_start, shape=(nnz, nmodes)
    )
    values = np.memmap(
        path, dtype=VALUE_DTYPE, mode="r",
        offset=data_start + coords_bytes, shape=(nnz,),
    )
    name = path.stem
    for ext in (".tnsb", ".tns"):
        if name.endswith(ext):
            name = name[: -len(ext)]
    return SparseTensor(coords, values, dims, name=name)
