"""The block reader of `read_clustering` against the line-at-a-time reader
it replaced, kept here as the reference: the same clustering, or the same
error, on random files and graphs."""

import numpy as np
import pytest
import scipy.sparse as sp

from bipx import design
from bipx.design import (Clustering, DesignError, read_clustering,
                         write_clustering)
from bipx.graph_core import BipartiteGraph


def reference_read_clustering(g, path):
    """`read_clustering` as one loop over decoded lines, ids mapped with a
    dict."""
    index = {did: j for j, did in enumerate(g.diversion_ids)}
    labels = np.zeros(g.n_diversion, dtype=np.int64)
    seen = np.zeros(g.n_diversion, dtype=bool)
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DesignError(f"{path}:{line_no}: not UTF-8 ({exc.reason}"
                                  f" at byte {exc.start})") from None
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != 2:
                raise DesignError(f"{path}:{line_no}: expected "
                                  "'diversion_id<TAB>cluster_id'")
            did, cid = parts
            if did not in index:
                raise DesignError(
                    f"{path}:{line_no}: unknown diversion id {did!r}")
            j = index[did]
            if seen[j]:
                raise DesignError(
                    f"{path}:{line_no}: duplicate entry for {did!r}")
            try:
                labels[j] = int(cid)
            except (ValueError, OverflowError):
                raise DesignError(f"{path}:{line_no}: cluster id {cid!r} is "
                                  "not a 64-bit integer") from None
            seen[j] = True
    if not seen.all():
        missing = [g.diversion_ids[j] for j in np.flatnonzero(~seen)]
        raise DesignError(f"{path}: missing diversion unit(s): {missing[:5]}")
    return Clustering.from_labels(labels)


# Plain ids of up to 8 bytes and longer ones, then ODD_IDS: NULs inside
# and at the end (b"a" and b"a\0" differ), non-ASCII, inner whitespace,
# control bytes and a newline, which no file line can hold.
IDS = ["a", "b", "u1", "u12", "i7", "12345678", "diversion_unit_42",
       "123456789", "\x01c", "x\x7f"]
ODD_IDS = ["a\0", "a\0b", "\0", "é", "用户", "a b", "x\x1cy", "c\x0bd",
           "e\nf", "a "]
CIDS = [b"0", b"1", b"-1", b"7", b"42", b"-0", b"007", b"+3", b"1_0",
        b"9223372036854775807", b"-9223372036854775808",
        b"123456789012345678901234567890"[:19]]
BAD_CIDS = [b"9223372036854775808", b"-9223372036854775809",
            b"99999999999999999999", b"x", b"", b"1.0", b"1__0", b"_1",
            b"0x1", b"1e3", b"\xff", "٣".encode(), b"3\x00", b"--1"]
SEPS = [b"\t"] * 12 + [b" \t", b"\t ", b"\t\t", b" ", b"\x0b\t",
                       b"\t\x1c", b"\t#"]
ENDS = [b"\n"] * 12 + [b"\r\n", b" \n", b"\t\n", b" # note\n", b"\x0c\n",
                       b"\x1f\n"]
EXTRAS = [b"\n", b"# a comment\n", b"   \n", b"\r\n", b"#\n", b"\t\n",
          b"#\xff bad\n", b"\xff\n", b"\x00\n", b"\x1e\n"]


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def random_graph(rng):
    """A graph on 1 to 6 diversion ids, now and then an odd one or a
    repeated one."""
    m = int(rng.integers(1, 7))
    pool = IDS + ODD_IDS if rng.random() < 0.3 else IDS
    ids = [pool[k] for k in rng.choice(len(pool), size=m, replace=False)]
    if m > 1 and rng.random() < 0.05:
        ids[-1] = ids[0]
    return BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, m))), ("o",),
                                   tuple(ids))


def random_clustering_file(rng, g):
    """Bytes of a clustering file for g: each id once, in a random order,
    with some files given a bad, missing, repeated or unknown line, odd
    separators, ends, cluster ids or extra lines."""
    ids = [did.encode("utf-8") for did in g.diversion_ids]
    order = list(rng.permutation(len(ids)))
    if rng.random() < 0.1:
        order.pop(int(rng.integers(len(order))))
    if order and rng.random() < 0.1:
        order.insert(int(rng.integers(len(order) + 1)),
                     order[int(rng.integers(len(order)))])
    plain = rng.random() < 0.5
    lines = []
    for j in order:
        did = ids[j]
        if not plain and rng.random() < 0.05:
            did = _pick(rng, IDS + ODD_IDS).encode("utf-8")
        cid = _pick(rng, BAD_CIDS if not plain and rng.random() < 0.05
                    else CIDS)
        sep = b"\t" if plain else _pick(rng, SEPS)
        end = b"\n" if plain else _pick(rng, ENDS)
        lines.append(did + sep + cid + end)
        if not plain and rng.random() < 0.1:
            lines.append(_pick(rng, EXTRAS))
    blob = b"".join(lines)
    if blob and rng.random() < 0.3:
        blob = blob.rstrip(b"\r\n")  # no newline at the end
    return blob


def _outcome(read, g, path):
    """Everything a reader's caller can observe on one file."""
    try:
        c = read(g, path)
    except Exception as exc:  # compared by type and text
        return ("raised", type(exc), str(exc))
    return ("read", c.assignment.tolist())


def test_block_reader_matches_the_line_loop(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "c.tsv"
    kinds = set()
    for _ in range(1500):
        g = random_graph(rng)
        path.write_bytes(random_clustering_file(rng, g))
        got = _outcome(read_clustering, g, path)
        assert got == _outcome(reference_read_clustering, g, path), \
            (g.diversion_ids, path.read_bytes())
        kinds.add(got[0] if got[0] == "read" else got[2].split(": ")[1][:4])
    # Read files, and files with each kind of error.
    assert {"read", "expe", "unkn", "dupl", "clus", "miss", "not "} <= kinds


def test_plain_files_skip_the_line_loop(tmp_path, monkeypatch):
    def line_loop(*args):
        raise AssertionError("a plain clustering file took the line loop")

    monkeypatch.setattr(design, "_clustering_lines", line_loop)
    path = tmp_path / "c.tsv"
    for ids in (("u1", "u12", "i7"), ("u1", "diversion_unit_42", "\x01c")):
        g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, 3))), ("o",),
                                    ids)
        c = Clustering(np.array([1, 0, 1]))
        write_clustering(c, g, path)
        np.testing.assert_array_equal(read_clustering(g, path).assignment,
                                      [0, 1, 0])
        path.write_bytes(f"{ids[2]}\t+5\n{ids[0]}\t1_0\n{ids[1]}\t-3"
                         .encode())
        np.testing.assert_array_equal(read_clustering(g, path).assignment,
                                      [0, 1, 2])


@pytest.mark.parametrize("ids, blob", [
    (("u", "v"), b"u\t1\nv\t2\n\n"), (("u", "v"), b"u\t1\r\nv\t2\n"),
    (("u", "v"), b"u\t1\nv\t2 # two\n"), (("u", "v"), b"v\t2\nu\t1\nu\t3\n"),
    (("u", "v"), b"u\t1\nv\t\xd9\xa3\n"),
    # An `S` array would take the graph's "u\0" for "u".
    (("u\0", "vv"), b"u\t1\nvv\t2\n"),
    # The line loop reads "u#x" as "u" and a comment.
    (("u#x", "v"), b"u#x\t1\nv\t2\n"),
    # Two lines' tokens on one line.
    (("u", "v"), b"u\t1\tv\t2\n")])
def test_files_the_block_split_refuses_take_the_line_loop(tmp_path, ids,
                                                          blob):
    g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, 2))), ("o",), ids)
    path = tmp_path / "c.tsv"
    path.write_bytes(blob)
    assert design._clustering_block(g, blob) is None
    assert _outcome(read_clustering, g, path) == \
        _outcome(reference_read_clustering, g, path)


# Cluster ids the tokenizer reads (up to 16 digits) and those it leaves to
# int(); ids past 8 and 16 bytes.
TOKEN_CIDS = [b"0", b"7", b"-1", b"-0", b"+3", b"007", b"0000000000000012",
              b"1_0", b"9999999999999999", b"12345678901234567",
              b"123456789012345678", b"9223372036854775807",
              b"-9223372036854775808", b"0009223372036854775807"]
LONG_IDS = ["u1", "12345678", "123456789", "diversion_unit_42",
            "diversion_unit_000000000042", "x" * 40]


def test_tokenized_labels_match_int(tmp_path, monkeypatch):
    def line_loop(*args):
        raise AssertionError("a plain clustering file took the line loop")

    monkeypatch.setattr(design, "_clustering_lines", line_loop)
    rng = np.random.default_rng(5)
    path = tmp_path / "c.tsv"
    for _ in range(50):
        ids = [LONG_IDS[k] for k in rng.permutation(len(LONG_IDS))]
        g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, len(ids)))),
                                    ("o",), tuple(ids))
        cids = [TOKEN_CIDS[k] for k in rng.integers(len(TOKEN_CIDS),
                                                    size=len(ids))]
        path.write_bytes(b"".join(
            ids[j].encode() + b"\t" + cids[j] + b"\n"
            for j in rng.permutation(len(ids))))
        want = Clustering.from_labels([int(c) for c in cids]).assignment
        np.testing.assert_array_equal(read_clustering(g, path).assignment,
                                      want)
        assert _outcome(read_clustering, g, path) == \
            _outcome(reference_read_clustering, g, path)
