import ast
import dataclasses
import importlib
import io
import re
import struct
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from bipx import design
from bipx.cluster_opt import LocalSearchConfig, local_search, objective
from bipx.design import (Clustering, DesignSpec, cluster_aggregated_weights,
                         exposure_moments)
from bipx.estimator import OutcomeModel
from bipx.graph_core import (NORM_TOL, BipartiteGraph, Compressed,
                             EdgeListParseError, EmptyGraphError, GraphError,
                             NegativeWeightError,
                             WeightOverflowError, compress, exposures,
                             filter_min_outcome_degree, load_edge_list,
                             load_snapshot, normalize_rows, save_snapshot,
                             validate_assignment, write_edge_list,
                             write_id_maps, write_rows)
from bipx.simulate import run_simulation
from instances import random_instance, small_graph


def compressed(W):
    return Compressed(W.indptr, W.indices, W.data, W.shape)


def column(g, j):
    """(row indices, weights) of column j of g's CSC."""
    lo, hi = g.csc.indptr[j], g.csc.indptr[j + 1]
    return g.csc.indices[lo:hi], g.csc.data[lo:hi]


def test_basic_accessors():
    g = small_graph()
    assert g.n_outcome == 2
    assert g.n_diversion == 2
    assert g.nnz == 3
    np.testing.assert_allclose(g.row_sums, [1.0, 1.0])
    np.testing.assert_allclose(g.col_sums, [1.5, 0.5])
    row = g.rows[0]
    assert list(row.indices) == [0, 1]
    np.testing.assert_allclose(row.data, [0.5, 0.5])
    indices, data = column(g, 0)
    assert list(indices) == [0, 1]
    np.testing.assert_allclose(data, [0.5, 1.0])


def test_load_edge_list_parses_comments_and_sums_duplicates(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(
        "# demo graph\n"
        "alice item1 0.5\n"
        "alice item2 0.25  # trailing comment\n"
        "alice item2 0.25\n"
        "\n"
        "bob item1 1.0\n")
    g = load_edge_list(path)
    assert g.outcome_ids == ("alice", "bob")
    assert g.diversion_ids == ("item1", "item2")
    assert g.nnz == 3  # duplicate alice->item2 edges summed
    np.testing.assert_allclose(g.rows[0].data, [0.5, 0.5])


def test_load_edge_list_reports_malformed_line(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("a u 1.0\nb v\n")
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_no == 2


def test_load_edge_list_bad_weight(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("a u not_a_number\n")
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_no == 1


def test_load_edge_list_negative_weight(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("a u -0.5\n")
    with pytest.raises(NegativeWeightError):
        load_edge_list(path)


def test_weight_sums_past_the_largest_double_are_refused(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("a u 1e308\nb v 1\na u 1e308\nb u 2\n")
    with pytest.raises(WeightOverflowError, match=r"\('a', 'u'\)"):
        load_edge_list(path)
    # Each entry finite, but row a's total is not.
    path.write_text("b v 1\na u 1e308\na v 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightOverflowError) as exc:
            load_edge_list(path)
    assert str(exc.value) == (f"{path}: outcome unit(s) whose total weight "
                              "overflows: ['a']")


def test_load_edge_list_empty(tmp_path):
    path = tmp_path / "edges.txt"
    for text in ("# nothing here\n", "", "# no newline", "\n \r\n\t\n",
                 "a u 0\nb v 0.0  # zero weights only\n"):
        path.write_text(text)
        with pytest.raises(EmptyGraphError, match="no positive-weight"):
            load_edge_list(path)


def test_isolated_units_dropped_with_warning(tmp_path):
    path = tmp_path / "edges.txt"
    # zero-weight edge leaves item2 isolated
    path.write_text("a u 1.0\na v 0.0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = load_edge_list(path)
    assert g.diversion_ids == ("u",)
    assert any("isolated" in str(w.message) for w in caught)


def test_edge_list_round_trip(tmp_path):
    g = small_graph()
    out = tmp_path / "out.txt"
    write_edge_list(g, out)
    g2 = load_edge_list(out)
    assert g2.outcome_ids == g.outcome_ids
    assert g2.diversion_ids == g.diversion_ids
    np.testing.assert_array_equal(g2.rows.toarray(), g.rows.toarray())


def test_write_edge_list_bytes(tmp_path):
    # Row b sums to 1.0 in floating point, so from_csr keeps its weights.
    W = sp.csr_matrix(np.array([[1 / 3, 0.0, 2 / 3], [1.0, 1e-16, 5e-324]]))
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v", "w"))
    out = tmp_path / "out.txt"
    write_edge_list(g, out)
    assert out.read_bytes() == (b"a u 0.3333333333333333\n"
                                b"a w 0.6666666666666666\n"
                                b"b u 1.0\nb v 1e-16\nb w 5e-324\n")


def test_filter_min_outcome_degree():
    g = small_graph()
    g2 = filter_min_outcome_degree(g, 2)
    assert g2.outcome_ids == ("a",)
    assert g2.diversion_ids == ("u", "v")


def test_normalize_rows_idempotent():
    W = sp.csr_matrix(np.array([[2.0, 2.0], [3.0, 1.0]]))
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))
    np.testing.assert_array_equal(g.rows.toarray(),
                                  [[0.5, 0.5], [0.75, 0.25]])
    assert normalize_rows(g) is g
    again = BipartiteGraph.from_csr(g.rows, g.outcome_ids, g.diversion_ids)
    np.testing.assert_array_equal(again.rows.toarray(), g.rows.toarray())


def test_from_csr_copies_its_argument():
    # Row 0's indices are unsorted, and row 1 holds a duplicate entry.
    W = sp.csr_matrix((np.array([2.0, 1.0, 3.0, 1.0]),
                       np.array([1, 0, 0, 0]), np.array([0, 2, 4])),
                      shape=(2, 2))
    before = [a.copy() for a in (W.data, W.indices, W.indptr)]
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))
    for a, b in zip((W.data, W.indices, W.indptr), before):
        np.testing.assert_array_equal(a, b)
    rows = g.rows.toarray()
    W.data[:] = 7.0
    W.indices[:] = 1
    np.testing.assert_array_equal(g.rows.toarray(), rows)
    np.testing.assert_array_equal(rows, [[1 / 3, 2 / 3], [1.0, 0.0]])


# (n, m, entries, labels): entries (i, j, w, copies) with j reduced mod m
# and each entry given `copies` times; labels[:m] cluster the columns.
raw_rows = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 8), st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, 7),
        st.one_of(st.floats(5e-324, 1e300), st.sampled_from(
            (0.0, 5e-324, 1e-300, 1.0, 1 / 3, 1e300))),
        st.integers(1, 2)), min_size=1, max_size=30),
    st.lists(st.integers(0, 3), min_size=8, max_size=8)))


def raw_entries(case):
    """(n, m, i, j, w) of a raw_rows case, each row given one more entry so
    that none sums to 0."""
    n, m, entries, _ = case
    i, j, w = (np.array(col) for col in zip(*(
        (i, j % m, w) for i, j, w, copies in entries for _ in range(copies))))
    return (n, m, np.r_[i, np.arange(n)], np.r_[j, np.zeros(n, int)],
            np.r_[w, np.ones(n)])


def assert_same_csr(a, ref):
    """a's arrays equal the scipy matrix ref's, every double bit for bit."""
    np.testing.assert_array_equal(a.indptr, ref.indptr)
    np.testing.assert_array_equal(a.indices, ref.indices)
    assert a.data.view(np.uint64).tolist() == ref.data.view(np.uint64).tolist()


def scaled(canon):
    """The weights of a canonical scipy CSR divided by scipy's row sums."""
    sums = np.asarray(canon.sum(axis=1)).ravel()
    return sp.csr_matrix((canon.data / np.repeat(sums, np.diff(canon.indptr)),
                          canon.indices, canon.indptr), shape=canon.shape)


def input_order_sums(i, j, w, shape):
    """The canonical scipy CSR of the entries, each repeated position
    summed from left to right in input order."""
    sums = {}
    for key, x in zip(zip(i.tolist(), j.tolist()), w.tolist()):
        sums[key] = sums[key] + x if key in sums else x
    keys = sorted(sums)
    rows, cols = (np.array(col, dtype=np.int64) for col in zip(*keys))
    return sp.csr_matrix(([sums[key] for key in keys], (rows, cols)),
                         shape=shape)


@settings(deadline=None, max_examples=200)
@given(case=raw_rows)
def test_from_csr_divides_each_row_by_its_sum(case):
    n, m, i, j, w = raw_entries(case)
    raw = sp.coo_matrix((w, (i, j)), shape=(n, m))
    g = BipartiteGraph.from_csr(raw, range(n), range(m))
    assert_same_csr(g.csr, scaled(input_order_sums(i, j, w, (n, m))))
    assert np.all(np.abs(g.row_sums - 1.0) <= NORM_TOL)


def assert_one_rule(tmp_path, i, j, w):
    """load_edge_list of the edges (o<i>, d<j>, w) and from_csr of the same
    entries, ids numbered in order of first appearance, build the same
    graph bit for bit; returns it."""
    path = tmp_path / "edges.txt"
    write_rows(path, zip((f"o{x}" for x in i), (f"d{x}" for x in j),
                         w.tolist()), sep=" ")
    g = load_edge_list(path)
    order_i, order_j = list(dict.fromkeys(i.tolist())), list(dict.fromkeys(
        j.tolist()))
    rows = np.array([order_i.index(x) for x in i.tolist()])
    cols = np.array([order_j.index(x) for x in j.tolist()])
    ref = BipartiteGraph.from_csr(
        sp.coo_matrix((w, (rows, cols)), shape=(len(order_i), len(order_j))),
        (f"o{x}" for x in order_i), (f"d{x}" for x in order_j))
    assert (g.outcome_ids, g.diversion_ids) == (ref.outcome_ids,
                                                ref.diversion_ids)
    assert_same_csr(g.csr, ref.csr)
    return g


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=raw_rows)
def test_from_csr_and_load_edge_list_sum_alike(tmp_path, case):
    n, m, i, j, w = raw_entries(case)
    keep = w > 0  # ingest drops zero weights
    assert_one_rule(tmp_path, i[keep], j[keep], w[keep])


def test_twenty_one_copies_sum_in_input_order(tmp_path):
    # from_csr summed these copies through scipy, whose unstable sort
    # reordered them: it gave d1 the weight 0.1119402985074627.
    copies = np.resize([1 / 3, 0.1, 0.7], 21)
    i = np.zeros(22, dtype=np.int64)
    j = np.zeros(22, dtype=np.int64)
    j[1] = 1
    g = assert_one_rule(tmp_path, i, j, np.insert(copies, 1, 1.0))
    total = 0.0
    for x in copies.tolist():
        total += x
    assert g.diversion_ids == ("d0", "d1")
    assert g.csr.data.tolist() == [total / (total + 1.0), 1.0 / (total + 1.0)]
    assert g.csr.data[1] == 0.11194029850746269


def test_compress_with_keys_past_int64_sorts_alike():
    # At shape (2, 2**61), key * entries passes 2**63 and compress takes
    # its stable argsort; at (2, 5) the same entries take the value sort.
    rng = np.random.default_rng(0)
    rows, cols = rng.integers(0, 2, 40), rng.integers(0, 5, 40)
    values = rng.choice([1 / 3, 0.1, 0.7, 1e-300, 1.0], 40)
    wide = np.array([0, 7, 2**40, 2**61 - 2, 2**61 - 1])
    small = compress(rows, cols, values, (2, 5))
    big = compress(rows, wide[cols], values, (2, 2**61))
    assert small.indptr.tolist() == big.indptr.tolist()
    assert wide[small.indices].tolist() == big.indices.tolist()
    assert small.data.view(np.uint64).tolist() == \
        big.data.view(np.uint64).tolist()
    assert_same_csr(small, input_order_sums(rows, cols, values, (2, 5)))


@settings(deadline=None, max_examples=200)
@given(case=raw_rows)
def test_numpy_csc_and_aggregates_match_scipy(case):
    n, m, i, j, w = raw_entries(case)
    g = BipartiteGraph.from_csr(sp.coo_matrix((w, (i, j)), shape=(n, m)),
                                range(n), range(m))
    assert_same_csr(g.csc, g.rows.tocsc())
    c = Clustering.from_labels(case[3][:m])
    member = sp.csr_matrix((np.ones(m), (np.arange(m), c.assignment)),
                           shape=(m, c.k))
    product = (g.rows @ member).tocsr()
    product.sort_indices()
    # Blocks of 1 and 3 entries cut the rows at other places.
    for entries in (1, 3, design._AGG_ENTRIES):
        with mock.patch.object(design, "_AGG_ENTRIES", entries):
            assert_same_csr(cluster_aggregated_weights(g, c), product)
    np.testing.assert_array_equal(
        g.row_sums, np.asarray(g.rows.sum(axis=1)).ravel())
    np.testing.assert_array_equal(
        g.col_sums, np.asarray(g.rows.sum(axis=0)).ravel())


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=raw_rows)
def test_load_edge_list_csr_matches_scipy(tmp_path, case):
    n, m, i, j, w = raw_entries(case)
    # Three or more copies of an edge are summed in file order, which
    # scipy's unstable sort does not promise; two copies sum alike in
    # either order.
    i, j, w = i[w > 0], j[w > 0], w[w > 0]  # ingest drops zero weights
    copies = Counter()
    keep = np.ones(w.size, dtype=bool)
    for t, key in enumerate(zip(i.tolist(), j.tolist())):
        copies[key] += 1
        keep[t] = copies[key] <= 2
    i, j, w = i[keep], j[keep], w[keep]
    path = tmp_path / "edges.txt"
    write_rows(path, zip((f"o{x}" for x in i), (f"d{x}" for x in j),
                         w.tolist()), sep=" ")
    g = load_edge_list(path)
    # Ids are numbered in order of first appearance.
    order_i, order_j = list(dict.fromkeys(i.tolist())), list(dict.fromkeys(
        j.tolist()))
    assert g.outcome_ids == tuple(f"o{x}" for x in order_i)
    assert g.diversion_ids == tuple(f"d{x}" for x in order_j)
    rows = np.array([order_i.index(x) for x in i.tolist()])
    cols = np.array([order_j.index(x) for x in j.tolist()])
    canon = sp.coo_matrix((w, (rows, cols)),
                          shape=(len(order_i), len(order_j))).tocsr()
    canon.sum_duplicates()
    canon.sort_indices()
    assert_same_csr(g.csr, scaled(canon))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_from_csr_refuses_negative_and_non_finite_weights(bad):
    # A negative weight used to give the exposure 3 under [-1, 1], and a
    # NaN was reported as an overflow.
    W = sp.csr_matrix(np.array([[bad, 2.0]]))
    with pytest.raises(GraphError) as exc:
        BipartiteGraph.from_csr(W, "a", "uv")
    assert type(exc.value) is GraphError
    assert str(exc.value) == ("outcome unit(s) with a negative or "
                              "non-finite weight: ['a']")


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_normalized_exposures_bounded(seed):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    z = rng.choice([-1.0, 1.0], g.n_diversion)
    x = exposures(g, z)
    assert np.all(np.abs(x) <= 1.0 + 1e-12)
    # all-treated and all-control hit the extremes exactly
    np.testing.assert_allclose(exposures(g, np.ones(g.n_diversion)), 1.0)
    np.testing.assert_allclose(exposures(g, -np.ones(g.n_diversion)), -1.0)


def test_bare_constructor_refuses_raw_rows():
    W = sp.csr_matrix(np.array([[2.0, 2.0], [0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(GraphError) as exc:
        BipartiteGraph(compressed(W), ("a", "b", "c"), ("u", "v"))
    assert str(exc.value) == ("outcome unit(s) whose weights do not sum to "
                              "1: ['a']")
    for off, ok in ((NORM_TOL / 2, True), (4 * NORM_TOL, False),
                    (np.nan, False)):
        near = sp.csr_matrix(np.array([[0.5, 0.5 + off], [1.0, 0.0]]))
        if ok:
            BipartiteGraph(compressed(near), ("a", "b"), ("u", "v"))
        else:
            with pytest.raises(GraphError, match=r"\['a'\]"):
                BipartiteGraph(compressed(near), ("a", "b"), ("u", "v"))
    g = BipartiteGraph.from_csr(W, ("a", "b", "c"), ("u", "v"))
    np.testing.assert_allclose(exposures(g, np.ones(2)), 1.0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_row_col_views_consistent(seed):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    dense = g.rows.toarray()
    for i in range(g.n_outcome):
        row = g.rows[i]
        np.testing.assert_allclose(dense[i, row.indices], row.data)
        assert np.count_nonzero(dense[i]) == row.nnz
    for j in range(g.n_diversion):
        indices, data = column(g, j)
        np.testing.assert_allclose(dense[indices, j], data)
        assert np.count_nonzero(dense[:, j]) == indices.size


def test_graph_stores_rows_and_builds_columns_for_the_search(tmp_path):
    assert [f.name for f in dataclasses.fields(BipartiteGraph)] == [
        "csr", "outcome_ids", "diversion_ids"]
    path = tmp_path / "g.bin"
    save_snapshot(random_instance(np.random.default_rng(3)), path)
    g = load_snapshot(path)
    assert all(isinstance(a, np.ndarray)
               for a in (g.csr.indptr, g.csr.indices, g.csr.data))
    c = Clustering.one_cluster(g.n_diversion)
    exposure_moments(g, DesignSpec.independent_cluster(c))
    model = OutcomeModel(slopes=np.ones(g.n_outcome),
                         intercepts=np.zeros(g.n_outcome))
    run_simulation(g, DesignSpec.independent_cluster(c), model, 3, 0)
    objective(g, c, phi=1.0)
    # Neither the CSC copy nor the scipy view is built for these.
    assert "csc" not in g.__dict__ and "rows" not in g.__dict__
    local_search(g, LocalSearchConfig(max_passes=1, convergence=False))
    assert "csc" in g.__dict__ and "rows" not in g.__dict__
    np.testing.assert_array_equal(
        sp.csc_matrix((g.csc.data, g.csc.indices, g.csc.indptr),
                      shape=(g.n_outcome, g.n_diversion)).toarray(),
        g.rows.toarray())


def test_validate_assignment():
    validate_assignment(np.array([1.0, -1.0]), 2)
    with pytest.raises(ValueError):
        validate_assignment(np.array([1.0, 0.5]), 2)
    with pytest.raises(ValueError):
        validate_assignment(np.array([1.0]), 2)


def test_snapshot_round_trip(tmp_path):
    g = small_graph()
    path = tmp_path / "g.bin"
    save_snapshot(g, path)
    g2 = load_snapshot(path)
    assert g2.outcome_ids == g.outcome_ids
    assert g2.diversion_ids == g.diversion_ids
    np.testing.assert_array_equal(g2.rows.toarray(), g.rows.toarray())
    # snapshot writing is deterministic byte for byte
    path2 = tmp_path / "g2.bin"
    save_snapshot(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"this is not a snapshot")
    with pytest.raises(Exception):
        load_snapshot(path)


def corrupt_snapshot(path, kind):
    """Rewrite one field of a save_snapshot file in place."""
    buf = bytearray(path.read_bytes())
    n, m, nnz = struct.unpack_from("<QQQ", buf, 12)
    indptr_at = 36
    indices_at = indptr_at + 8 * (n + 1)
    data_at = indices_at + 8 * nnz
    if kind == "index-past-m":
        struct.pack_into("<q", buf, indices_at, 10**6)
    elif kind == "negative-index":
        struct.pack_into("<q", buf, indices_at, -1)
    elif kind == "duplicate-index":
        # Row 0's indices [0, 1] become [0, 0].
        struct.pack_into("<q", buf, indices_at + 8, 0)
    elif kind == "unsorted-index":
        # Row 0's indices [0, 1] become [1, 0].
        struct.pack_into("<qq", buf, indices_at, 1, 0)
    elif kind == "indptr-decreasing":
        struct.pack_into("<q", buf, indptr_at + 8, nnz + 1)
    elif kind == "indptr-start":
        struct.pack_into("<q", buf, indptr_at, 1)
    elif kind == "nan-weight":
        struct.pack_into("<d", buf, data_at, float("nan"))
    elif kind == "negative-weight":
        struct.pack_into("<d", buf, data_at, -0.5)
    elif kind == "raw-weights":
        data = np.frombuffer(buf, np.float64, nnz, data_at)
        buf[data_at:data_at + 8 * nnz] = (2 * data).tobytes()
    elif kind == "huge-count":
        struct.pack_into("<Q", buf, 28, 10**15)
    elif kind == "huge-id-map":
        struct.pack_into("<Q", buf, data_at + 8 * nnz, 1 << 40)
    elif kind == "trailing-bytes":
        buf += b"\x00"
    elif kind == "truncated":
        del buf[-3:]
    else:
        raise ValueError(kind)
    path.write_bytes(bytes(buf))


SNAPSHOT_CORRUPTIONS = ("index-past-m", "negative-index", "duplicate-index",
                        "unsorted-index", "indptr-decreasing",
                        "indptr-start", "nan-weight", "negative-weight",
                        "raw-weights", "huge-count", "huge-id-map", "trailing-bytes",
                        "truncated")


@pytest.mark.parametrize("kind", SNAPSHOT_CORRUPTIONS)
def test_snapshot_rejects_corruption(tmp_path, kind):
    W = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0],
                                [0.0, 0.25, 0.75]]))
    path = tmp_path / "g.bin"
    save_snapshot(BipartiteGraph.from_csr(W, "abc", "uvw"), path)
    load_snapshot(path)
    corrupt_snapshot(path, kind)
    with pytest.raises(GraphError):
        load_snapshot(path)


def test_write_id_maps(tmp_path):
    g = small_graph()
    op = tmp_path / "o.tsv"
    dp = tmp_path / "d.tsv"
    write_id_maps(g, op, dp)
    assert op.read_text() == "0\ta\n1\tb\n"
    assert dp.read_text() == "0\tu\n1\tv\n"


# Doubles whose shortest repr is easy to get wrong: signed zero, the
# subnormals, and the 1e16 switch to exponent form.
EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                2.225073858507201e-308, 9999999999999998.0, 1e16,
                1.0000000000000002e16, 1e-05, 0.0001, 1.7976931348623157e308)

float_cells = st.tuples(
    st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_DOUBLES),
              st.floats(9e15, 2e16)),
    st.booleans()).map(lambda t: np.float64(t[0]) if t[1] else t[0])


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(
           float_cells, st.integers(-2**70, 2**70),
           st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\n\t ,=")),
           float_cells), max_size=20),
       sep=st.sampled_from([",", "\t", " = ", " "]))
def test_write_rows_reads_back_exactly(tmp_path, rows, sep):
    path = tmp_path / "rows.txt"
    write_rows(path, rows, header=("x", "n", "s", "y"), sep=sep)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == sep.join(("x", "n", "s", "y"))
    assert lines[-1] == ""
    assert len(lines) == len(rows) + 2
    for line, row in zip(lines[1:], rows):
        x, n, s, y = line.split(sep)
        assert struct.pack("<d", float(x)) == struct.pack("<d", row[0])
        assert struct.pack("<d", float(y)) == struct.pack("<d", row[3])
        assert (n, s) == (str(row[1]), row[2])


def test_write_rows_header_only(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, iter(()), header=("a", "b"))
    assert path.read_bytes() == b"a,b\n"
    write_rows(path, [])
    assert path.read_bytes() == b""


# (module, function) -> the one mode in which it may open a file to write.
WRITERS = {("graph_core", "write_rows"): "w",
           ("graph_core", "save_snapshot"): "wb",
           ("cli", "_write_manifest"): "w",
           ("simulate", "report_to_json"): "w"}


def _calls(node, func=None, kind=ast.Call):
    """(enclosing function, node) of each node of `kind` under node: by
    default, of each call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_here = child.name
        else:
            func_here = func
        if isinstance(child, kind):
            yield func, child
        yield from _calls(child, func_here, kind)


def _opens(node):
    """(enclosing function, mode) of each open() call under node; a mode
    that is not a literal is "?"."""
    for func, call in _calls(node):
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            modes = call.args[1:2] + [kw.value for kw in call.keywords
                                      if kw.arg == "mode"]
            yield func, getattr(modes[0], "value", "?") if modes else "r"


def _package_trees():
    src = Path(__file__).resolve().parents[1] / "src" / "bipx"
    for path in sorted(src.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_writers_open_files_to_write():
    found = {}
    for module, tree in _package_trees():
        for func, mode in _opens(tree):
            if mode == "?" or set(mode) & set("wax+"):
                found.setdefault((module, func), set()).add(mode)
    assert found == {key: {mode} for key, mode in WRITERS.items()}


# scipy.sparse's own routes from entries to a CSR or CSC, which no bipx
# function takes: every CSR, and every CSC as the CSR of a transpose, is
# built by graph_core.compress.
SCIPY_COMPRESSORS = {"tocsr", "tocsc", "sum_duplicates", "sort_indices"}


def test_only_compress_sorts_entries_into_a_csr():
    found = set()
    for module, tree in _package_trees():
        for func, call in _calls(tree):
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in SCIPY_COMPRESSORS):
                found.add((module, func))
    assert found == set()


def _imported_names(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""] + [f"{node.module}.{alias.name}"
                                  for alias in node.names]


def test_only_scipy_csr_imports_scipy_sparse():
    # The production modules reach scipy.sparse through the one view
    # graph_core.scipy_csr; bipx.oracle holds the tests' references and
    # may use it directly.
    found = set()
    for module, tree in _package_trees():
        if module == "oracle":
            continue
        for func, node in _calls(tree, kind=(ast.Import, ast.ImportFrom)):
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.")
                   for name in _imported_names(node)):
                found.add((module, func))
    assert found == {("graph_core", "scipy_csr")}


def test_only_token_groups_calls_token_array():
    # A column read through token_groups has each width of token keyed
    # apart, so one long token widens no other.
    found = set()
    for module, tree in _package_trees():
        for func, call in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name == "token_array":
                found.add((module, func))
    assert found == {("graph_core", "token_groups")}


def test_no_production_function_builds_a_generator_per_replicate():
    # derived_rng builds a SeedSequence, a PCG64 and a Generator per call.
    # run_simulation's spans call it once each, at the span's first
    # replicate, and replicate_coins advances that one generator to each
    # next replicate; derived_rng per replicate is the tests' and bench/'s
    # reference.
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    found = set()
    for module, tree in _package_trees():
        in_loops = {id(node) for _, loop in _calls(tree, kind=loops)
                    for node in ast.walk(loop)}
        for func, call in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name == "derived_rng":
                found.add((module, func, id(call) in in_loops))
    assert found == {("simulate", "_replicate_span", False)}


def test_every_error_class_of_the_package_is_a_bipx_error():
    # The command line ends a BipxError in one line and exit 1; an error
    # class outside it would end a bad input in a traceback.
    from bipx.graph_core import BipxError
    found = set()
    for module, _ in _package_trees():
        namespace = vars(importlib.import_module(f"bipx.{module}"))
        found |= {(module, name) for name, obj in namespace.items()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == f"bipx.{module}"
                  and not issubclass(obj, BipxError)}
    assert found == set()


def test_only_simulate_starts_threads():
    # run_simulation splits its replicates over a thread pool; every other
    # module runs in its caller's thread.
    found = set()
    for module, tree in _package_trees():
        for _, node in _calls(tree, kind=(ast.Import, ast.ImportFrom)):
            if any(name.split(".")[0] == "threading"
                   or name.startswith("concurrent.futures")
                   for name in _imported_names(node)):
                found.add(module)
    assert found == {"simulate"}


def test_the_declared_numpy_floor_is_at_least_2():
    # The readers take numpy's casts of `S` token arrays to float64 and
    # int64 to read each token as float() and int() do; that was checked
    # on numpy 2 only.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floors = re.findall(r'"numpy\s*>=\s*(\d+)(?:\.\d+)*"',
                        pyproject.read_text(encoding="utf-8"))
    assert len(floors) == 1 and int(floors[0]) >= 2
