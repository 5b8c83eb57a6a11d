"""Weighted bipartite graph storage, validation, and exposure computation.

The graph connects n outcome units (rows) to m diversion units (columns)
through non-negative weights w[i, j]. Every row sums to 1: `from_csr`
scales raw weights so, and construction refuses rows that do not. So the
exposure of outcome unit i under a +/-1 assignment z is the weighted
average x[i] = sum_j w[i, j] * z[j], which lies in [-1, 1].

Storage is one CSR held as numpy arrays; the CSC copy that the local
search reads is built from it on first use. Both constructors, the CSC
copy and design's cluster aggregates turn entries into a CSR by one
rule, `compress`. scipy.sparse is imported only by `scipy_csr`, the view
that the sparse products multiply with, so a bipx command that
multiplies no sparse matrix never loads it. Graphs are immutable after
construction; every operation returns a new graph.
"""

from __future__ import annotations

import io
import math
import os
import re
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

# A graph's rows must sum to 1 within this absolute tolerance.
NORM_TOL = 1e-12

SNAPSHOT_MAGIC = b"BIPXGRF\x00"
SNAPSHOT_VERSION = 1


class GraphError(Exception):
    """Base class for graph construction and query failures."""


class EdgeListParseError(GraphError):
    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class NegativeWeightError(EdgeListParseError):
    pass


class EmptyGraphError(GraphError):
    pass


class WeightOverflowError(GraphError):
    """Finite weights whose sum overflows to infinity."""


class Compressed(NamedTuple):
    """A CSR matrix of `shape` as numpy arrays: row s holds the increasing
    column indices indices[indptr[s]:indptr[s + 1]] and their values in
    data. The CSC of a matrix is the Compressed form of its transpose."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


def compress(row, col, values, shape):
    """The Compressed matrix of `shape` whose entries are values[t] at
    (row[t], col[t]): the one rule by which bipx builds a CSR. The values
    of a repeated position are summed from left to right in input order;
    a position given once keeps its value's bits."""
    size = len(values)
    keys = np.asarray(row, dtype=np.int64) * shape[1] + col
    if shape[0] * shape[1] * size < 2**63:
        # Keys that carry their entry's index sort by position and then
        # in input order, so one in-place value sort orders the entries.
        keys *= size
        keys += np.arange(size)
        keys.sort()
        data = values[keys % size]
        keys //= size
    else:
        order = np.argsort(keys, kind="stable")
        keys, data = keys[order], values[order]
    first = np.ones(size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    # The r-th repeated entry, at sorted place repeats[r], follows
    # repeats[r] - r - 1 runs. np.add.at adds in index order, so each run
    # sums in input order; an overflow is the caller's to report.
    repeats = np.flatnonzero(~first)
    sums = data[first]
    with np.errstate(over="ignore"):
        np.add.at(sums, repeats - np.arange(1, repeats.size + 1),
                  data[repeats])
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    np.remainder(keys, shape[1], out=keys)
    return Compressed(indptr, keys, sums, shape)


def sum_rows(a):
    """The sum of each row of a Compressed matrix, added as scipy.sparse's
    sum(axis=1) of a CSR adds them (np.add.reduceat); an empty row sums
    to 0."""
    sums = np.zeros(a.indptr.size - 1)
    full = np.flatnonzero(np.diff(a.indptr))
    sums[full] = np.add.reduceat(a.data, a.indptr[full])
    return sums


def _row_of(a, entries):
    """The row each of the given entry positions lies in."""
    return np.searchsorted(a.indptr, entries, "right") - 1


def scipy_csr(a):
    """A scipy.sparse CSR matrix over a Compressed matrix's arrays, for the
    sparse products."""
    import scipy.sparse as sp
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _submatrix(a, keep_rows, keep_cols):
    """The CSR of the kept rows and columns; every entry of a dropped
    column lies in a dropped row."""
    degrees = np.diff(a.indptr)
    entries = np.repeat(keep_rows, degrees)
    indptr = np.zeros(np.count_nonzero(keep_rows) + 1, dtype=np.int64)
    np.cumsum(degrees[keep_rows], out=indptr[1:])
    return Compressed(indptr, (np.cumsum(keep_cols) - 1)[a.indices[entries]],
                      a.data[entries], (indptr.size - 1, int(keep_cols.sum())))


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable weighted bipartite incidence structure whose rows sum to
    1 within NORM_TOL; construction raises GraphError otherwise.

    Attributes:
        csr: the row-major weights, its column indices increasing within
            each row.
        outcome_ids: original outcome unit ids, index order.
        diversion_ids: original diversion unit ids, index order.
        csc, col_sums, rows: the column-major copy of `csr`, the
            per-diversion-unit totals s[j] = sum_i w[i, j] and a
            scipy.sparse view of `csr`, each built on first use.
    """

    csr: Compressed
    outcome_ids: tuple
    diversion_ids: tuple

    def __post_init__(self):
        bad = np.flatnonzero(~(np.abs(self.row_sums - 1.0) <= NORM_TOL))
        if bad.size:
            raise GraphError(
                "outcome unit(s) whose weights do not sum to 1: "
                f"{[self.outcome_ids[i] for i in bad[:5]]}")

    @classmethod
    def from_csr(cls, rows, outcome_ids, diversion_ids):
        """The graph of a scipy.sparse matrix of non-negative raw weights,
        each row scaled to sum to 1. Its entries go through compress in
        the order tocoo() lists them, as load_edge_list's go in file
        order. The caller's matrix is never changed or shared.

        Raises GraphError if a weight is negative or not finite,
        EmptyGraphError if some outcome unit has zero total weight and
        WeightOverflowError if its total weight overflows.
        """
        coo = rows.tocoo()
        a = compress(coo.row, coo.col, np.asarray(coo.data, float), coo.shape)
        return _row_scaled(a, outcome_ids, diversion_ids)

    @cached_property
    def csc(self):
        a, (n, m) = self.csr, self.csr.shape
        rows = np.repeat(np.arange(n), self.outcome_degrees())
        return compress(a.indices, rows, a.data, (m, n))

    @cached_property
    def col_sums(self):
        return np.bincount(self.csr.indices, weights=self.csr.data,
                           minlength=self.n_diversion)

    @cached_property
    def rows(self):
        return scipy_csr(self.csr)

    @property
    def n_outcome(self):
        return self.csr.shape[0]

    @property
    def n_diversion(self):
        return self.csr.shape[1]

    @property
    def nnz(self):
        return self.csr.data.size

    @property
    def row_sums(self):
        return sum_rows(self.csr)

    def outcome_degrees(self):
        return np.diff(self.csr.indptr)


def _row_scaled(a, outcome_ids, diversion_ids):
    """The graph of raw CSR weights `a`, each row divided by its sum."""
    outcome_ids = tuple(outcome_ids)
    bad_weight = ~((a.data >= 0) & (a.data < np.inf))  # NaN fails both
    if bad_weight.any():
        bad = np.unique(_row_of(a, np.flatnonzero(bad_weight)))
        raise GraphError("outcome unit(s) with a negative or non-finite "
                         f"weight: {[outcome_ids[i] for i in bad[:5]]}")
    with np.errstate(over="ignore"):  # an overflow is reported below
        sums = sum_rows(a)
    if not np.isfinite(sums).all():
        bad = [outcome_ids[i] for i in np.flatnonzero(~np.isfinite(sums))]
        raise WeightOverflowError(
            f"outcome unit(s) whose total weight overflows: {bad[:5]}")
    if np.any(sums <= 0):
        bad = [outcome_ids[i] for i in np.flatnonzero(sums <= 0)]
        raise EmptyGraphError(
            f"outcome unit(s) with zero total weight: {bad[:5]}")
    # Scale each stored entry by its row's sum.
    data = a.data / np.repeat(sums, np.diff(a.indptr))
    return BipartiteGraph(a._replace(data=data), outcome_ids,
                          tuple(diversion_ids))


def _texts(lines, start, error):
    """(line_no, text) of raw lines numbered from `start`, as text_lines
    yields them."""
    for line_no, raw in enumerate(lines, start):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(line_no, f"not UTF-8 ({exc.reason} at byte "
                                 f"{exc.start})") from None
        text = line.split("#", 1)[0].strip()
        if text:
            yield line_no, text


def text_lines(path, error):
    """(line_no, text) of each line of a UTF-8 file, streamed, without
    `#` comments (anywhere on a line), surrounding whitespace or blank
    lines. A line that is not UTF-8 raises error(line_no, message)."""
    with open(path, "rb") as fh:
        yield from _texts(fh, 1, error)


def write_rows(path, rows, header=None, sep=","):
    """Write one UTF-8 line per row (after `header`, if given), its cells
    joined by `sep`. Every cell is written by str(), which for a Python
    float or a numpy float64 is its shortest repr: it reads back through
    float() as the same double, so a rerun writes the same bytes. The
    rows are tuples of one width."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        line = sep.join(["%s"] * len(first)) + "\n"
        fh.write(line % first)
        fh.writelines(line % row for row in rows)


def first_appearance_codes(values):
    """(codes, firsts) of a 1-d array: codes[t] is the dense index of
    values[t], numbered in order of first appearance, and firsts holds the
    distinct values in that order."""
    uniq, inverse = np.unique(values, return_inverse=True)
    # minimum.at, unlike a fancy assignment, is defined on repeated indices.
    first = np.full(uniq.size, inverse.size, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(inverse.size))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], uniq[order]


# Text files are tokenized a chunk of about this many bytes at a time.
TEXT_CHUNK_BYTES = 1 << 20

# str.split() also splits on \x1c-\x1f, which bytes.split() does not, and
# an `S` array drops trailing NULs: a chunk holding either takes the line loop.
_UNSAFE = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_COMMENT = re.compile(rb"#[^\n]*")

# What the tokenizer appends to a file's bytes: blank lines, so that the
# last line ends in a newline and every token has 8 bytes after it.
TOKEN_PAD = b"\n" * 8

# _LOW_BYTES[b] keeps the first b bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype="<u8")


def byte_chunks(fh):
    """The bytes of a binary file in chunks of whole lines: each holds the
    lines that end in a read of TEXT_CHUNK_BYTES bytes, after the part of
    a line the previous read left over. The last chunk ends where the
    file does, with or without a newline."""
    parts = []
    while data := fh.read(TEXT_CHUNK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            parts.append(data[:cut])
            yield b"".join(parts)
            parts = [data[cut:]]
        else:
            parts.append(data)
    if tail := b"".join(parts):
        yield tail


def token_bounds(space):
    """(starts, ends) of the runs of False in a bool array that ends in
    True: the tokens of the bytes whose whitespace mask it is."""
    bounds = np.flatnonzero(np.diff(space, prepend=True))
    return bounds[0::2], bounds[1::2]


def token_array(byte, starts, ends):
    """The tokens byte[starts[t]:ends[t]], each with 8 bytes of `byte`
    after it, as an `S` array whose width is the longest one's rounded
    up to a multiple of 8; None when that array would take more than 4
    bytes per byte of `byte`, as one long token among many short ones
    makes it."""
    count = max(-(-int((ends - starts).max(initial=0)) // 8), 1)
    if 8 * count * starts.size > 4 * byte.size:
        return None
    # Every 8 bytes of `byte`, from each offset: an unaligned view.
    windows = np.ndarray((byte.size - 7,), "<u8", byte, strides=(1,))
    lengths = ends - starts
    words = np.empty((starts.size, count), dtype="<u8")
    for w in range(count):
        # A word wholly past a token's end is masked to 0, so it may be
        # read from anywhere in `windows`.
        at = np.minimum(starts + 8 * w, windows.size - 1)
        words[:, w] = windows[at] & _LOW_BYTES[np.clip(lengths - 8 * w, 0, 8)]
    return words.view(f"S{8 * count}").ravel()


def _edge_block(chunk):
    """((outcome ids, diversion ids, weights), lines) of a chunk of whole
    lines, the ids as `S` arrays and `lines` the chunk's newline count, or
    None when a line needs the line loop: not ASCII, not 0 or 3 tokens, a
    weight that is not a finite number >= 0, or a column token_array
    refuses. Weights are read by numpy's cast, which reads each token as
    float() does."""
    if not chunk.isascii() or any(c in chunk for c in _UNSAFE):
        return None
    if b"#" in chunk:
        chunk = _COMMENT.sub(b"", chunk)
    byte = np.frombuffer(chunk + TOKEN_PAD, dtype=np.uint8)
    # The bytes.split() whitespace b" \t\n\v\f\r"; uint8 wraps below 9.
    starts, ends = token_bounds((byte == ord(" "))
                                | (byte - np.uint8(ord("\t")) < 5))
    newlines = np.flatnonzero(byte == ord("\n"))
    counts = np.diff(np.searchsorted(starts, newlines), prepend=0)
    if not np.all((counts == 0) | (counts == 3)):
        return None
    starts, ends = starts.reshape(-1, 3).T, ends.reshape(-1, 3).T
    columns = [token_array(byte, s, e) for s, e in zip(starts, ends)]
    if any(c is None for c in columns):
        return None
    try:
        # An overflow reads as inf, which is refused below.
        with np.errstate(over="ignore"):
            weights = columns[2].astype(np.float64)
    except ValueError:
        return None
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        return None
    return (columns[0], columns[1], weights), newlines.size - len(TOKEN_PAD)


def _id_array(keys):
    return np.array(keys, dtype=f"S{max(map(len, keys), default=1)}")


def _id_key(text):
    # '#' never occurs in an id, so it can mark one whose trailing NULs an
    # `S` array would drop.
    key = text.encode("utf-8")
    return key + b"#" if key.endswith(b"\0") else key


def _edge_lines(lines, start, path):
    """_edge_block's arrays from raw lines numbered from `start`, read one
    at a time; the one place that raises an edge list's line errors."""
    bad = partial(EdgeListParseError, path)
    oids, dids, weights = [], [], []
    for line_no, text in _texts(lines, start, bad):
        parts = text.split()
        if len(parts) != 3:
            raise bad(line_no, "expected 'outcome_id diversion_id weight', "
                               f"got {text!r}")
        oid, did, wtext = parts
        try:
            w = float(wtext)
        except ValueError:
            raise bad(line_no, f"weight {wtext!r} is not a number") from None
        if not math.isfinite(w):
            raise bad(line_no, f"weight {w} is not finite")
        if w < 0:
            raise NegativeWeightError(path, line_no, f"negative weight {w}")
        oids.append(_id_key(oid))
        dids.append(_id_key(did))
        weights.append(w)
    return _id_array(oids), _id_array(dids), np.array(weights,
                                                      dtype=np.float64)


def id_keys(ids):
    """Keys of an `S` id array that are equal where the ids are: ids of at
    most 8 bytes as uint64, which sort faster, others as they are."""
    return ids.astype("S8").view(np.uint64) if ids.itemsize <= 8 else ids


def _index_ids(columns):
    """Dense codes of the ids in `S` columns, in first-appearance order,
    and the ids as text in that order."""
    codes, firsts = first_appearance_codes(id_keys(np.concatenate(columns)))
    if firsts.dtype == np.uint64:
        firsts = firsts.view("S8")
    blob = b"\n".join(firsts.tolist())
    ids = blob.decode("utf-8").split("\n")
    if b"#" in blob:
        ids = [x[:-1] if x.endswith("#") else x for x in ids]
    return codes, ids


def load_edge_list(path):
    """Load a whitespace-separated `outcome_id diversion_id weight` file.

    The file is streamed in byte_chunks. A chunk of plain ASCII lines is
    tokenized at once by _edge_block; any other chunk is read line by line
    as text_lines reads it, which raises every error. Ids are
    arbitrary whitespace-free strings mapped to dense indices in
    first-appearance order. Duplicate (i, j) edges have their weights
    summed; zero-weight edges are dropped, and so, with a warning, are units
    left without a positive-weight edge. Each row is then scaled to sum
    to 1, as from_csr scales it.

    Raises EdgeListParseError (with line number) on malformed lines,
    NegativeWeightError on w < 0, EmptyGraphError when nothing survives,
    WeightOverflowError when duplicate edges, or an outcome unit's edges,
    sum past the largest double.
    """
    blocks = []
    with open(path, "rb") as fh:
        start = 1
        for chunk in byte_chunks(fh):
            block, lines = _edge_block(chunk) or (
                _edge_lines(io.BytesIO(chunk), start, path),
                chunk.count(b"\n"))
            blocks.append(block)
            start += lines
    weights = np.concatenate([b[2] for b in blocks] or [np.empty(0)])
    keep = weights > 0
    if not keep.any():
        raise EmptyGraphError(f"{path}: no positive-weight edges")
    rows, outcome_ids = _index_ids([b[0] for b in blocks])
    cols, diversion_ids = _index_ids([b[1] for b in blocks])
    del blocks
    if not keep.all():
        rows, cols, weights = rows[keep], cols[keep], weights[keep]
    mat = compress(rows, cols, weights,
                   (len(outcome_ids), len(diversion_ids)))
    del rows, cols, weights
    over = np.flatnonzero(~np.isfinite(mat.data))
    if over.size:
        edges = [(outcome_ids[i], diversion_ids[j]) for i, j in zip(
            _row_of(mat, over[:5]), mat.indices[over[:5]])]
        raise WeightOverflowError(f"{path}: duplicate edges sum past the "
                                  f"largest double: {edges}")
    keep_rows = np.diff(mat.indptr) > 0
    keep_cols = np.bincount(mat.indices, minlength=len(diversion_ids)) > 0
    if not keep_rows.all():
        dropped = [outcome_ids[i] for i in np.flatnonzero(~keep_rows)]
        warnings.warn(f"dropping {len(dropped)} outcome unit(s) with no "
                      f"positive-weight edge: {dropped[:5]}")
        outcome_ids = [x for x, k in zip(outcome_ids, keep_rows) if k]
    if not keep_cols.all():
        dropped = [diversion_ids[j] for j in np.flatnonzero(~keep_cols)]
        warnings.warn(f"dropping {len(dropped)} isolated diversion unit(s): "
                      f"{dropped[:5]}")
        diversion_ids = [x for x, k in zip(diversion_ids, keep_cols) if k]
    if not (keep_rows.all() and keep_cols.all()):
        mat = _submatrix(mat, keep_rows, keep_cols)
    try:
        return _row_scaled(mat, outcome_ids, diversion_ids)
    except WeightOverflowError as exc:
        raise WeightOverflowError(f"{path}: {exc}") from None


def write_edge_list(g, path):
    """Write the graph back out in the edge-list format, one edge a line in
    CSR order, each weight by its shortest repr."""
    outcome = np.repeat(np.array(g.outcome_ids, dtype=object),
                        g.outcome_degrees())
    diversion = np.array(g.diversion_ids, dtype=object)[g.csr.indices]
    write_rows(path, zip(outcome.tolist(), diversion.tolist(),
                         g.csr.data.tolist()), sep=" ")


def filter_min_outcome_degree(g, min_degree):
    """Keep outcome units with at least min_degree incident edges.

    Diversion units left without any edge are dropped and index maps updated.
    Raises EmptyGraphError when nothing survives.
    """
    if min_degree < 0:
        raise ValueError("min_degree must be >= 0")
    keep_rows = g.outcome_degrees() >= min_degree
    if not keep_rows.any():
        raise EmptyGraphError(f"no outcome unit has degree >= {min_degree}")
    outcome_ids = [x for x, k in zip(g.outcome_ids, keep_rows) if k]
    keep_cols = np.bincount(
        g.csr.indices[np.repeat(keep_rows, g.outcome_degrees())],
        minlength=g.n_diversion) > 0
    diversion_ids = [x for x, k in zip(g.diversion_ids, keep_cols) if k]
    if not diversion_ids:
        raise EmptyGraphError("no diversion units left after degree filter")
    # Whole rows are kept, so each still sums to 1.
    return BipartiteGraph(_submatrix(g.csr, keep_rows, keep_cols),
                          tuple(outcome_ids), tuple(diversion_ids))


def normalize_rows(g):
    """The graph itself, whose rows already sum to 1; for callers that
    normalize after building a graph."""
    return g


def validate_assignment(z, m):
    """Check a +/-1 assignment vector and return it as float64."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (m,):
        raise ValueError(f"assignment has shape {z.shape}, expected ({m},)")
    if not np.all(np.abs(z) == 1.0):
        raise ValueError("assignment entries must be exactly +1 or -1")
    return z


def exposures(g, z):
    """Exposure vector x[i] = sum_j w[i, j] z[j] for a +/-1 assignment."""
    z = validate_assignment(z, g.n_diversion)
    return g.rows @ z


def _write_blob(fh, ids):
    blob = "\n".join(ids).encode("utf-8")
    fh.write(struct.pack("<Q", len(blob)))
    fh.write(blob)


def _read_blob(fh, path):
    (size,) = struct.unpack("<Q", _read_exact(fh, 8, path))
    try:
        return _read_exact(fh, size, path).decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: id map is not UTF-8 ({exc})")


def _read_exact(fh, size, path):
    # Checked before reading, so that a corrupt count allocates nothing.
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise GraphError(f"{path}: truncated snapshot")
    return fh.read(size)


def save_snapshot(g, path):
    """Write a versioned binary snapshot (magic, counts, arrays, id maps)."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<QQQ", g.n_outcome, g.n_diversion, g.nnz))
        fh.write(np.asarray(g.csr.indptr, dtype=np.int64).tobytes())
        fh.write(np.asarray(g.csr.indices, dtype=np.int64).tobytes())
        fh.write(np.asarray(g.csr.data, dtype=np.float64).tobytes())
        _write_blob(fh, g.outcome_ids)
        _write_blob(fh, g.diversion_ids)


def load_snapshot(path):
    """Read a snapshot written by save_snapshot.

    Raises GraphError unless the file is one that save_snapshot could have
    written: the counts must fit the file size with no trailing bytes, the
    row pointers must run from 0 to nnz without decreasing, every column
    index must lie in [0, m), the column indices must strictly increase
    within each row, every weight must be finite and >= 0 and every row
    must sum to 1.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise GraphError(f"{path}: not a graph snapshot (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != SNAPSHOT_VERSION:
            raise GraphError(f"{path}: unsupported snapshot version {version}")
        n, m, nnz = struct.unpack("<QQQ", _read_exact(fh, 24, path))
        # The arrays, then an 8-byte length before each id map.
        if fh.tell() + 8 * (n + 1 + 2 * nnz) + 16 > size:
            raise GraphError(f"{path}: counts n={n}, m={m}, nnz={nnz} do "
                             f"not fit the {size}-byte file")
        indptr = np.frombuffer(fh.read(8 * (n + 1)), dtype=np.int64)
        indices = np.frombuffer(fh.read(8 * nnz), dtype=np.int64)
        data = np.frombuffer(fh.read(8 * nnz), dtype=np.float64)
        outcome_ids = _read_blob(fh, path)
        diversion_ids = _read_blob(fh, path)
        if fh.tell() != size:
            raise GraphError(f"{path}: {size - fh.tell()} trailing bytes")
    if len(outcome_ids) != n or len(diversion_ids) != m:
        raise GraphError(f"{path}: id maps do not match counts")
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise GraphError(f"{path}: row pointers do not run from 0 to {nnz}")
    if nnz and (indices.min() < 0 or indices.max() >= m):
        raise GraphError(f"{path}: column index outside [0, {m})")
    # A NaN makes min() NaN, which fails the comparison.
    if nnz and not (data.min() >= 0 and np.isfinite(data.max())):
        raise GraphError(f"{path}: weights must be finite and non-negative")
    # Canonical: the indices strictly increase within each row.
    starts = np.zeros(nnz, dtype=bool)
    starts[indptr[:-1][indptr[:-1] < nnz]] = True
    if np.any((indices[1:] <= indices[:-1]) & ~starts[1:]):
        raise GraphError(f"{path}: repeated or unsorted column indices")
    try:
        return BipartiteGraph(Compressed(indptr, indices, data, (n, m)),
                              tuple(outcome_ids), tuple(diversion_ids))
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def write_id_maps(g, outcome_path, diversion_path):
    """Emit `index<TAB>original_id` companion files."""
    write_rows(outcome_path, enumerate(g.outcome_ids), sep="\t")
    write_rows(diversion_path, enumerate(g.diversion_ids), sep="\t")
