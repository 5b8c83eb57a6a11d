import io
import struct
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx.graph_core import (BipartiteGraph, EdgeListParseError,
                             EmptyGraphError, GraphError, NegativeWeightError,
                             NotNormalizedError, exposures,
                             filter_min_outcome_degree, load_edge_list,
                             load_snapshot, normalize_rows, save_snapshot,
                             validate_assignment, write_edge_list,
                             write_id_maps)
from bipx.synth import random_instance


def small_graph():
    W = sp.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    return BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))


def test_basic_accessors():
    g = small_graph()
    assert g.n_outcome == 2
    assert g.n_diversion == 2
    assert g.nnz == 3
    np.testing.assert_allclose(g.row_sums, [1.0, 1.0])
    np.testing.assert_allclose(g.col_sums, [1.5, 0.5])
    idx, w = g.row(0)
    assert list(idx) == [0, 1]
    np.testing.assert_allclose(w, [0.5, 0.5])
    idx, w = g.col(0)
    assert list(idx) == [0, 1]
    np.testing.assert_allclose(w, [0.5, 1.0])
    assert g.is_normalized()


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
    idx, w = g.row(0)
    np.testing.assert_allclose(w, [0.5, 0.5])


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


def test_load_edge_list_empty(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(EmptyGraphError):
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
    g = normalize_rows(small_graph())
    out = tmp_path / "out.txt"
    write_edge_list(g, out)
    g2 = load_edge_list(out)
    assert g2.outcome_ids == g.outcome_ids
    assert g2.diversion_ids == g.diversion_ids
    np.testing.assert_array_equal(g2.rows.toarray(), g.rows.toarray())


def test_filter_min_outcome_degree():
    g = small_graph()
    g2 = filter_min_outcome_degree(g, 2)
    assert g2.outcome_ids == ("a",)
    assert g2.diversion_ids == ("u", "v")


def test_normalize_rows_idempotent():
    W = sp.csr_matrix(np.array([[2.0, 2.0], [3.0, 1.0]]))
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))
    assert not g.is_normalized()
    with pytest.raises(NotNormalizedError):
        g.require_normalized()
    gn = normalize_rows(g)
    assert gn.is_normalized()
    gnn = normalize_rows(gn)
    np.testing.assert_array_equal(gn.rows.toarray(), gnn.rows.toarray())


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


def test_exposures_require_normalized_graph():
    W = sp.csr_matrix(np.array([[2.0, 2.0], [3.0, 1.0]]))
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))
    # The flag is computed once per graph; every call still refuses.
    for _ in range(2):
        with pytest.raises(NotNormalizedError):
            exposures(g, np.ones(2))
    gn = normalize_rows(g)
    np.testing.assert_allclose(exposures(gn, np.ones(2)), 1.0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_row_col_views_consistent(seed):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    dense = g.rows.toarray()
    for i in range(g.n_outcome):
        idx, w = g.row(i)
        np.testing.assert_allclose(dense[i, idx], w)
        assert np.count_nonzero(dense[i]) == idx.size
    for j in range(g.n_diversion):
        idx, w = g.col(j)
        np.testing.assert_allclose(dense[idx, j], w)


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
    elif kind == "indptr-decreasing":
        struct.pack_into("<q", buf, indptr_at + 8, nnz + 1)
    elif kind == "indptr-start":
        struct.pack_into("<q", buf, indptr_at, 1)
    elif kind == "nan-weight":
        struct.pack_into("<d", buf, data_at, float("nan"))
    elif kind == "negative-weight":
        struct.pack_into("<d", buf, data_at, -0.5)
    elif kind == "huge-count":
        struct.pack_into("<Q", buf, 28, 10**15)
    elif kind == "trailing-bytes":
        buf += b"\x00"
    elif kind == "truncated":
        del buf[-3:]
    else:
        raise ValueError(kind)
    path.write_bytes(bytes(buf))


SNAPSHOT_CORRUPTIONS = ("index-past-m", "negative-index", "indptr-decreasing",
                        "indptr-start", "nan-weight", "negative-weight",
                        "huge-count", "trailing-bytes", "truncated")


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
