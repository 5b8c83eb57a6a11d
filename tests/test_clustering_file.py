"""The block reader of `read_clustering` against the line-at-a-time reader
it replaced, kept here as the reference: the same clustering, or the same
error, on random files and graphs."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from bipx import design
from bipx.design import (Clustering, DesignError, read_clustering,
                         write_clustering)
from bipx.graph_core import BipartiteGraph
from instances import _pick


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
# control bytes, a newline, which no file line can hold, and whitespace at
# an id's end, which a line can name, or at its start, which none can.
IDS = ["a", "b", "u1", "u12", "i7", "12345678", "diversion_unit_42",
       "123456789", "\x01c", "x\x7f"]
ODD_IDS = ["a\0", "a\0b", "\0", "é", "用户", "a b", "x\x1cy", "c\x0bd",
           "e\nf", "a ", "b\u3000", " c"]
CIDS = [b"0", b"1", b"-1", b"7", b"42", b"-0", b"007", b"+3", b"1_0",
        b"9223372036854775807", b"-9223372036854775808",
        b"123456789012345678901234567890"[:19]]
BAD_CIDS = [b"9223372036854775808", b"-9223372036854775809",
            b"99999999999999999999", b"x", b"", b"1.0", b"1__0", b"_1",
            b"0x1", b"1e3", b"\xff", "٣".encode(), b"3\x00", b"--1"]
SEPS = [b"\t"] * 12 + [b" \t", b"\t ", b"\t\t", b" ", b"\x0b\t",
                       b"\t\x1c", b"\t#", "\t\xa0".encode()]
ENDS = [b"\n"] * 12 + [b"\r\n", b" \n", b"\t\n", b" # note\n", b"\x0c\n",
                       b"\x1f\n", "\u3000\n".encode(), "\x85\n".encode()]
EXTRAS = [b"\n", b"# a comment\n", b"   \n", b"\r\n", b"#\n", b"\t\n",
          b"#\xff bad\n", b"\xff\n", b"\x00\n", b"\x1e\n"]


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


def test_block_reader_matches_the_line_loop(tmp_path, monkeypatch):
    line_loop, runs = design._clustering_lines, []

    def spy(*args):
        runs.append(args)
        return line_loop(*args)

    monkeypatch.setattr(design, "_clustering_lines", spy)
    rng = np.random.default_rng(0)
    path = tmp_path / "c.tsv"
    kinds = set()
    for _ in range(1500):
        g = random_graph(rng)
        path.write_bytes(random_clustering_file(rng, g))
        runs.clear()
        got = _outcome(read_clustering, g, path)
        want = _outcome(reference_read_clustering, g, path)
        assert got == want, (g.diversion_ids, path.read_bytes())
        # Only a file with an error takes the line loop.
        assert not (runs and want[0] == "read"), \
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


def _no_line_loop(*args):
    raise AssertionError("a valid clustering file took the line loop")


LONG_IDS_99 = tuple(f"u{k}" for k in range(1, 100))


@pytest.mark.parametrize("ids, blob", [
    (("u", "v"), b"u\t1\nv\t2\n\n"), (("u", "v"), b"u\t1\r\nv\t2\n"),
    (("u", "v"), b"u\t1\nv\t2 # two\n"),
    (("u", "v"), "u\t\u0661\nv\t\u0661\u0665\n".encode()),
    (("u", "v"), b"\t u\t1 \t\n  v\t2\t\n\t\n"),
    (("u", "v"), b"\x1cu\t1\x1f\n\x0bv\t\x0c2\r\n"),
    (("u", "v"), "\xa0u\t1\u3000\nv\t\u30002\xa0\n".encode()),
    (("a\0", "\0", "a"), b"a\0\t1\n\0\t2\na\t3\n"),
    (("a ", "b"), b"a \t1\nb\t2\n"),
    (("x" * 4000, *LONG_IDS_99), ("x" * 4000 + "\t1\n" + "".join(
        f"{d}\t{k % 3}\n" for k, d in enumerate(LONG_IDS_99))).encode()),
    (("u0", *LONG_IDS_99), ("u0\t" + "0" * 4000 + "1\n" + "".join(
        f"{d}\t{k % 3}\n" for k, d in enumerate(LONG_IDS_99))).encode())],
    ids=["blank-line", "crlf", "comment", "arabic-digits",
         "tabs-and-spaces-at-ends", "control-spaces-at-ends",
         "unicode-spaces-at-ends", "nul-ids", "trailing-space-id",
         "long-diversion-id", "long-cluster-id"])
def test_valid_files_never_take_the_line_loop(tmp_path, monkeypatch, ids,
                                              blob):
    g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, len(ids)))),
                                ("o",), ids)
    path = tmp_path / "c.tsv"
    path.write_bytes(blob)
    want = _outcome(reference_read_clustering, g, path)
    assert want[0] == "read"
    monkeypatch.setattr(design, "_clustering_lines", _no_line_loop)
    assert _outcome(read_clustering, g, path) == want


@pytest.mark.parametrize("ids, blob", [
    (("u", "v"), b"v\t2\nu\t1\nu\t3\n"),
    # Two lines' tokens on one line.
    (("u", "v"), b"u\t1\tv\t2\n"),
    # An `S` array would take the graph's "u\0" for "u".
    (("u\0", "vv"), b"u\t1\nvv\t2\n"),
    # The line loop reads "u#x" as "u" and a comment.
    (("u#x", "v"), b"u#x\t1\nv\t2\n"),
    # The tokenizer reads a NUL as '#'.
    (("a#",), b"a\0\t5\n")],
    ids=["duplicate-line", "two-lines-on-one", "nul-graph-id",
         "hash-graph-id", "hash-graph-id-nul-line"])
def test_invalid_files_take_the_line_loop(tmp_path, ids, blob):
    g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, len(ids)))),
                                ("o",), ids)
    path = tmp_path / "c.tsv"
    path.write_bytes(blob)
    assert design._clustering_block(g, blob) is None
    got = _outcome(read_clustering, g, path)
    assert got[0] == "raised"
    assert got == _outcome(reference_read_clustering, g, path)


def test_the_line_loop_raises_assertion_error_on_a_valid_file(tmp_path):
    g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, 2))), ("o",),
                                ("u", "v"))
    path = tmp_path / "c.tsv"
    path.write_bytes(b"u\t1\nv\t2\n")
    with pytest.raises(AssertionError, match="holds no error"):
        design._clustering_lines(g, path)


def test_reading_peaks_below_16_bytes_per_file_byte(tmp_path):
    # The block holds the file's token arrays only until its ids and labels
    # are cut out, and lays out the graph's ids after that: the traced peak
    # is about 14 bytes per file byte on these 20,000 lines.
    rng = np.random.default_rng(0)
    ids = tuple(f"i{k}" for k in rng.permutation(20000))
    g = BipartiteGraph.from_csr(sp.csr_matrix(np.ones((1, len(ids)))),
                                ("o",), ids)
    path = tmp_path / "c.tsv"
    path.write_bytes(b"".join(b"%s\t%d\n" % (i.encode(), k % 997)
                              for k, i in enumerate(ids)))
    tracemalloc.start()
    try:
        read_clustering(g, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * path.stat().st_size


# Cluster ids with signs, leading zeros, a '_' and up to 22 bytes, at
# and inside int64's bounds; ids past 8 and 16 bytes.
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
