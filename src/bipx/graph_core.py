"""Weighted bipartite graph storage, validation, and exposure computation.

The graph connects n outcome units (rows) to m diversion units (columns)
through non-negative weights w[i, j]. After row normalization every row
sums to 1, so the exposure of outcome unit i under a +/-1 assignment z is
the weighted average x[i] = sum_j w[i, j] * z[j], which lies in [-1, 1].

Storage is dual sparse: a CSR matrix for row access and a CSC view for
column access, kept consistent. Graphs are immutable after construction;
every operation returns a new graph.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# Rows count as normalized when they sum to 1 within this absolute tolerance.
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


class NotNormalizedError(GraphError):
    pass


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable weighted bipartite incidence structure.

    Attributes:
        rows: CSR matrix of shape (n_outcome, n_diversion), row-major weights.
        cols: CSC view of the same matrix, kept consistent with `rows`.
        col_sums: per-diversion-unit totals s[j] = sum_i w[i, j].
        outcome_ids: original outcome unit ids, index order.
        diversion_ids: original diversion unit ids, index order.
    """

    rows: sp.csr_matrix
    cols: sp.csc_matrix = field(repr=False)
    col_sums: np.ndarray = field(repr=False)
    outcome_ids: tuple
    diversion_ids: tuple

    @classmethod
    def from_csr(cls, rows, outcome_ids, diversion_ids):
        rows = sp.csr_matrix(rows, dtype=np.float64)
        rows.sum_duplicates()
        rows.sort_indices()
        cols = rows.tocsc()
        col_sums = np.asarray(rows.sum(axis=0)).ravel()
        return cls(rows, cols, col_sums,
                   tuple(outcome_ids), tuple(diversion_ids))

    @property
    def n_outcome(self):
        return self.rows.shape[0]

    @property
    def n_diversion(self):
        return self.rows.shape[1]

    @property
    def nnz(self):
        return self.rows.nnz

    @property
    def row_sums(self):
        return np.asarray(self.rows.sum(axis=1)).ravel()

    @cached_property
    def _normalized(self):
        # Checked once per graph: its arrays do not change after construction.
        return bool(np.all(np.abs(self.row_sums - 1.0) <= NORM_TOL))

    def is_normalized(self):
        return self._normalized

    def require_normalized(self):
        if not self.is_normalized():
            raise NotNormalizedError(
                "operation requires a row-normalized graph; "
                "call normalize_rows first")

    def row(self, i):
        """Sparse row i as (diversion indices, weights)."""
        lo, hi = self.rows.indptr[i], self.rows.indptr[i + 1]
        return self.rows.indices[lo:hi], self.rows.data[lo:hi]

    def col(self, j):
        """Sparse column j as (outcome indices, weights)."""
        lo, hi = self.cols.indptr[j], self.cols.indptr[j + 1]
        return self.cols.indices[lo:hi], self.cols.data[lo:hi]

    def outcome_degrees(self):
        return np.diff(self.rows.indptr)


def _build_from_entries(entries, outcome_ids, diversion_ids):
    """Assemble a graph from (i, j, w) triples, dropping empty units.

    Diversion units whose every edge was dropped (zero weight) are removed
    with a warning; outcome units likewise. Duplicate edges sum.
    """
    n, m = len(outcome_ids), len(diversion_ids)
    if not entries:
        raise EmptyGraphError("no positive-weight edges")
    ii = np.fromiter((e[0] for e in entries), dtype=np.int64, count=len(entries))
    jj = np.fromiter((e[1] for e in entries), dtype=np.int64, count=len(entries))
    ww = np.fromiter((e[2] for e in entries), dtype=np.float64, count=len(entries))
    mat = sp.coo_matrix((ww, (ii, jj)), shape=(n, m)).tocsr()
    mat.sum_duplicates()

    row_deg = np.diff(mat.indptr)
    col_deg = np.diff(mat.tocsc().indptr)
    keep_rows = row_deg > 0
    keep_cols = col_deg > 0
    if not keep_rows.all():
        dropped = [outcome_ids[i] for i in np.flatnonzero(~keep_rows)]
        warnings.warn(f"dropping {len(dropped)} outcome unit(s) with no "
                      f"positive-weight edge: {dropped[:5]}")
        mat = mat[keep_rows, :]
        outcome_ids = [x for x, k in zip(outcome_ids, keep_rows) if k]
    if not keep_cols.all():
        dropped = [diversion_ids[j] for j in np.flatnonzero(~keep_cols)]
        warnings.warn(f"dropping {len(dropped)} isolated diversion unit(s): "
                      f"{dropped[:5]}")
        mat = mat[:, keep_cols]
        diversion_ids = [x for x, k in zip(diversion_ids, keep_cols) if k]
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        raise EmptyGraphError("graph is empty after dropping zero-weight edges")
    return BipartiteGraph.from_csr(mat, outcome_ids, diversion_ids)


def load_edge_list(path):
    """Load a whitespace-separated `outcome_id diversion_id weight` file.

    Lines may carry `#` comments. Ids are arbitrary whitespace-free strings
    mapped to dense indices in first-appearance order. Duplicate (i, j)
    edges have their weights summed; zero-weight edges are dropped.

    Raises EdgeListParseError (with line number) on malformed lines,
    NegativeWeightError on w < 0, EmptyGraphError when nothing survives.
    """
    outcome_index = {}
    diversion_index = {}
    outcome_ids = []
    diversion_ids = []
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise EdgeListParseError(
                    path, line_no,
                    f"expected 'outcome_id diversion_id weight', got {raw.strip()!r}")
            oid, did, wtext = parts
            try:
                w = float(wtext)
            except ValueError:
                raise EdgeListParseError(
                    path, line_no, f"weight {wtext!r} is not a number") from None
            if not np.isfinite(w):
                raise EdgeListParseError(path, line_no, f"weight {w} is not finite")
            if w < 0:
                raise NegativeWeightError(path, line_no, f"negative weight {w}")
            if oid not in outcome_index:
                outcome_index[oid] = len(outcome_ids)
                outcome_ids.append(oid)
            if did not in diversion_index:
                diversion_index[did] = len(diversion_ids)
                diversion_ids.append(did)
            if w > 0:
                entries.append((outcome_index[oid], diversion_index[did], w))
    return _build_from_entries(entries, outcome_ids, diversion_ids)


def write_edge_list(g, path):
    """Write the graph back out in the edge-list format (repr-exact weights)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(g.n_outcome):
            idx, w = g.row(i)
            for j, wij in zip(idx, w):
                fh.write(f"{g.outcome_ids[i]} {g.diversion_ids[j]} "
                         f"{float(wij)!r}\n")


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
    mat = g.rows[keep_rows, :]
    outcome_ids = [x for x, k in zip(g.outcome_ids, keep_rows) if k]
    col_deg = np.diff(sp.csc_matrix(mat).indptr)
    keep_cols = col_deg > 0
    mat = mat[:, keep_cols]
    diversion_ids = [x for x, k in zip(g.diversion_ids, keep_cols) if k]
    if mat.shape[1] == 0:
        raise EmptyGraphError("no diversion units left after degree filter")
    return BipartiteGraph.from_csr(mat, outcome_ids, diversion_ids)


def normalize_rows(g):
    """Scale every row to sum to 1. Idempotent.

    Raises EmptyGraphError if some outcome unit has zero total weight.
    """
    sums = g.row_sums
    if np.any(sums <= 0):
        bad = [g.outcome_ids[i] for i in np.flatnonzero(sums <= 0)]
        raise EmptyGraphError(f"outcome unit(s) with zero total weight: {bad[:5]}")
    mat = g.rows.copy()
    # Scale each stored entry by its row's reciprocal sum.
    reps = np.diff(mat.indptr)
    mat.data = mat.data / np.repeat(sums, reps)
    return BipartiteGraph.from_csr(mat, g.outcome_ids, g.diversion_ids)


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
    g.require_normalized()
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
    blob = fh.read(size)
    if len(blob) != size:
        raise GraphError(f"{path}: truncated snapshot")
    return blob


def save_snapshot(g, path):
    """Write a versioned binary snapshot (magic, counts, arrays, id maps)."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<QQQ", g.n_outcome, g.n_diversion, g.nnz))
        fh.write(np.asarray(g.rows.indptr, dtype=np.int64).tobytes())
        fh.write(np.asarray(g.rows.indices, dtype=np.int64).tobytes())
        fh.write(np.asarray(g.rows.data, dtype=np.float64).tobytes())
        _write_blob(fh, g.outcome_ids)
        _write_blob(fh, g.diversion_ids)


def load_snapshot(path):
    """Read a snapshot written by save_snapshot.

    Raises GraphError unless the file is one that save_snapshot could have
    written: the counts must fit the file size with no trailing bytes, the
    row pointers must run from 0 to nnz without decreasing, every column
    index must lie in [0, m) and every weight must be finite and >= 0.
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
    mat = sp.csr_matrix((data.copy(), indices.copy(), indptr.copy()),
                        shape=(n, m))
    return BipartiteGraph.from_csr(mat, outcome_ids, diversion_ids)


def write_id_maps(g, outcome_path, diversion_path):
    """Emit `index<TAB>original_id` companion files."""
    with open(outcome_path, "w", encoding="utf-8") as fh:
        for i, oid in enumerate(g.outcome_ids):
            fh.write(f"{i}\t{oid}\n")
    with open(diversion_path, "w", encoding="utf-8") as fh:
        for j, did in enumerate(g.diversion_ids):
            fh.write(f"{j}\t{did}\n")
