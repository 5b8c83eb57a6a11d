"""The tokenizer of `load_edge_list` against the line-at-a-time reader it
replaced, kept here as the reference: same graph, ids, warnings and
errors on random files, read in chunks of a few bytes or lines so that
every file spans several chunks. Its weights are checked bit for bit
against float()."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bipx import graph_core
from bipx.graph_core import (BipartiteGraph, EdgeListParseError,
                             EmptyGraphError, NegativeWeightError,
                             WeightOverflowError, load_edge_list,
                             save_snapshot, write_id_maps)
from instances import _pick


def reference_load_edge_list(path):
    """`load_edge_list` as one loop over decoded lines, ids mapped with
    dicts."""
    outcome_index, diversion_index = {}, {}
    rows, cols, weights = [], [], []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EdgeListParseError(
                    path, line_no, f"not UTF-8 ({exc.reason} at byte "
                                   f"{exc.start})") from None
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise EdgeListParseError(
                    path, line_no, "expected 'outcome_id diversion_id "
                                   f"weight', got {text!r}")
            oid, did, wtext = parts
            try:
                w = float(wtext)
            except ValueError:
                raise EdgeListParseError(
                    path, line_no,
                    f"weight {wtext!r} is not a number") from None
            if not math.isfinite(w):
                raise EdgeListParseError(path, line_no,
                                         f"weight {w} is not finite")
            if w < 0:
                raise NegativeWeightError(path, line_no,
                                          f"negative weight {w}")
            i = outcome_index.setdefault(oid, len(outcome_index))
            j = diversion_index.setdefault(did, len(diversion_index))
            if w > 0:
                rows.append(i)
                cols.append(j)
                weights.append(w)
    if not weights:
        raise EmptyGraphError(f"{path}: no positive-weight edges")
    outcome_ids, diversion_ids = list(outcome_index), list(diversion_index)
    mat = sp.coo_matrix((np.array(weights, dtype=np.float64),
                         (np.array(rows, dtype=np.int64),
                          np.array(cols, dtype=np.int64))),
                        shape=(len(outcome_ids), len(diversion_ids))).tocsr()
    over = np.flatnonzero(~np.isfinite(mat.data))
    if over.size:
        edges = [(outcome_ids[i], diversion_ids[j]) for i, j in zip(
            np.searchsorted(mat.indptr, over[:5], "right") - 1,
            mat.indices[over[:5]])]
        raise WeightOverflowError(f"{path}: duplicate edges sum past the "
                                  f"largest double: {edges}")
    keep_rows = np.diff(mat.indptr) > 0
    keep_cols = np.diff(mat.tocsc().indptr) > 0
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
    return BipartiteGraph.from_csr(mat, outcome_ids, diversion_ids)


# Plain ASCII items, then ODD_ items: NULs inside and at the end of ids
# (b"a" and b"a\0" differ), non-ASCII text, invalid UTF-8, \x1c-\x1f and
# the non-ASCII spaces str.split() splits on, Unicode digits in weights.
IDS = [b"a", b"b", b"u1", b"u12", b"i7", b"outcome_unit_123456",
       b"diversion-unit-42"]
ODD_IDS = [b"a\x00", b"a\x00b", b"\x00", "é".encode(), "用户".encode(),
           b"x\x1cy"]
WEIGHTS = [b"1", b"0.5", b"2.25", b"1e-3", b"3", b"0", b"0.0", b"-0",
           b"1_0", b".5"]
ODD_WEIGHTS = ["١".encode(), "１٥".encode(), "٠.٥".encode(),
               "２e-3".encode()]
BAD_WEIGHTS = [b"-1", b"-0.5", b"nan", b"inf", b"-inf", b"abc", b"1e400",
               b"0x1", b"1e308"]
SEPS = [b" ", b"\t", b"  ", b"\x0b", b"\x0c", b"\r", b" \t "]
ODD_SEPS = [b"\x1c", b" \x1f ", b"\x1d", b"\x1e", "\x85".encode(),
            "\xa0".encode(), " \u2028".encode(), "\u3000".encode()]
ENDS = [b"\n", b"\r\n", b" \n", b"\t\n"]
EXTRAS = [b"\n", b"# a comment\n", b"   \n", b"\r\n", b"#\n"]
ODD_EXTRAS = [b"#\xff bad\n", "# é\n".encode()]
BAD_LINES = [b"a b\n", b"a b 1 2\n", b"a\n", b"a\rb 1 2\n", b"a b\x0c1 2\n"]
ODD_BAD_LINES = [b"a b 1\xff\n", b"a \xfe 1\n", b"a b 1 # \xc3\n",
                 "a b ١٫٥\n".encode()]


def random_edge_file(rng, block):
    """Bytes of a random edge list, to be read in blocks of `block` lines,
    with a bad line at the first or last line of a block in some files."""
    # Half the files are plain: ASCII without NULs or \x1c-\x1f.
    plain = rng.random() < 0.5
    n_lines = int(rng.integers(0, 6 * block + 2))
    lines = []
    for _ in range(n_lines):
        if rng.random() < 0.12:
            lines.append(_pick(rng, EXTRAS if plain else EXTRAS + ODD_EXTRAS))
            continue
        ids = IDS if plain else IDS + ODD_IDS
        seps = SEPS if plain or rng.random() < 0.9 else ODD_SEPS
        weight = _pick(rng, BAD_WEIGHTS if rng.random() < 0.02
                       else WEIGHTS if plain else WEIGHTS + ODD_WEIGHTS)
        line = (_pick(rng, [b"", b" ", b"\t"]) + _pick(rng, ids)
                + _pick(rng, seps) + _pick(rng, ids) + _pick(rng, seps)
                + weight)
        if rng.random() < 0.1:
            line += b" # trailing comment"
        lines.append(line + _pick(rng, ENDS))
    if lines and rng.random() < 0.3:
        at = min(len(lines) - 1,
                 block * int(rng.integers(0, len(lines) // block + 1))
                 + _pick(rng, [0, block - 1]))
        bad = BAD_LINES if plain else BAD_LINES + ODD_BAD_LINES
        lines[at] = _pick(rng, bad)
    blob = b"".join(lines)
    if blob and rng.random() < 0.3:
        blob = blob.rstrip(b"\r\n")  # no newline at the end
    return blob


def _outcome(load, path):
    """Everything a reader's caller can observe on one file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = load(path)
        except Exception as exc:  # compared by type and text
            return ("raised", type(exc), str(exc))
    rows = g.rows
    return ("loaded", rows.shape, rows.indptr.tolist(),
            rows.indices.tolist(), rows.data.tolist(), g.outcome_ids,
            g.diversion_ids, [str(w.message) for w in caught])


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_block_reader_matches_the_line_loop(tmp_path, monkeypatch, block):
    # Chunks of about `block` lines.
    monkeypatch.setattr(graph_core, "TEXT_CHUNK_BYTES", 16 * block)
    rng = np.random.default_rng(block)
    path = tmp_path / "edges.txt"
    kinds = set()
    for _ in range(250):
        path.write_bytes(random_edge_file(rng, block))
        got = _outcome(load_edge_list, path)
        assert got == _outcome(reference_load_edge_list, path), \
            path.read_bytes()
        kinds.add(got[0] if got[0] == "loaded" else got[1])
    assert {"loaded", EdgeListParseError, NegativeWeightError,
            EmptyGraphError} <= kinds


def test_snapshot_and_id_map_bytes_match_the_line_loop(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(graph_core, "TEXT_CHUNK_BYTES", 80)
    rng = np.random.default_rng(0)
    path = tmp_path / "edges.txt"
    written = 0
    while written < 30:
        path.write_bytes(random_edge_file(rng, 5))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                graphs = [load(path) for load in (load_edge_list,
                                                  reference_load_edge_list)]
        except (EdgeListParseError, EmptyGraphError):
            continue
        files = []
        for k, g in enumerate(graphs):
            names = [tmp_path / f"{k}.{ext}" for ext in ("bin", "o", "d")]
            save_snapshot(g, names[0])
            write_id_maps(g, names[1], names[2])
            files.append([p.read_bytes() for p in names])
        assert files[0] == files[1]
        written += 1


def test_invalid_utf8_in_a_comment_raises_at_its_line(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"a u 1\nb v 2 # caf\xe9\nc w 3\n")
    with pytest.raises(EdgeListParseError,
                       match=r"edges\.txt:2: not UTF-8") as exc:
        load_edge_list(path)
    assert exc.value.line_no == 2


def test_plain_ascii_blocks_skip_the_line_loop(tmp_path, monkeypatch):
    def line_loop(*args):
        raise AssertionError("a plain ASCII block took the line loop")

    monkeypatch.setattr(graph_core, "_edge_lines", line_loop)
    monkeypatch.setattr(graph_core, "TEXT_CHUNK_BYTES", 40)
    path = tmp_path / "edges.txt"
    path.write_bytes(b"# header\r\nu1 i1 0.5\nu2\ti2 1e-3 # note\n\n"
                     b"outcome_unit_9\x0bi1\x0c0\r\nu1\rdiversion_unit_77 2")
    with pytest.warns(UserWarning, match="outcome_unit_9"):
        g = load_edge_list(path)
    assert g.outcome_ids == ("u1", "u2")
    assert g.diversion_ids == ("i1", "i2", "diversion_unit_77")


# Weights of 15, 16 and 17 significant digits, with leading zeros, signs,
# a '_' or an exponent; ids past 8 bytes.
NUMERIC_WEIGHTS = [b"0.354235", b"123456789012345", b"1234567890123456",
                   b"12345678901234567", b"0.123456789012345",
                   b"0.1234567890123456", b"1.2345678901234567",
                   b"000000000000001.5", b"0007", b"00.25", b"5.", b".5",
                   b"+1", b"-0", b"-0.0", b"1_0", b"2e3", b"1.5E-7",
                   b"9007199254740993", b"0.30000000000000004", b"1.",
                   b"0.1", b"999999999999999", b"0000000000000000"]
LONG_IDS = IDS + [b"user_0000000001", b"12345678", b"123456789",
                  b"item-abcdefghijklmnop", b"x" * 40]


def numeric_edge_file(rng):
    lines = []
    for _ in range(int(rng.integers(1, 40))):
        lines.append(_pick(rng, LONG_IDS) + _pick(rng, SEPS)
                     + _pick(rng, LONG_IDS) + _pick(rng, SEPS)
                     + _pick(rng, NUMERIC_WEIGHTS) + _pick(rng, ENDS))
        if rng.random() < 0.1:
            lines.append(_pick(rng, EXTRAS))
    blob = b"".join(lines)
    return blob.rstrip(b"\r\n") if rng.random() < 0.3 else blob


@pytest.mark.parametrize("chunk", [1, 4, 11, 64])
def test_chunk_cuts_inside_lines_match_the_line_loop(tmp_path, monkeypatch,
                                                     chunk):
    # Reads of `chunk` bytes cut lines, and a chunk starts with the part
    # of a line the read before it left over.
    monkeypatch.setattr(graph_core, "TEXT_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(100 + chunk)
    path = tmp_path / "edges.txt"
    for _ in range(150):
        path.write_bytes(numeric_edge_file(rng) if rng.random() < 0.5
                         else random_edge_file(rng, 3))
        assert _outcome(load_edge_list, path) == \
            _outcome(reference_load_edge_list, path), path.read_bytes()


def test_numeric_weights_skip_the_line_loop(tmp_path, monkeypatch):
    def line_loop(*args):
        raise AssertionError("a plain ASCII chunk took the line loop")

    monkeypatch.setattr(graph_core, "_edge_lines", line_loop)
    path = tmp_path / "edges.txt"
    path.write_bytes(b"".join(
        b"%s x%d %s\n" % (LONG_IDS[k % len(LONG_IDS)], k, w)
        for k, w in enumerate(NUMERIC_WEIGHTS)))
    with pytest.warns(UserWarning, match="x23"):
        g = load_edge_list(path)
    assert g.nnz == len(NUMERIC_WEIGHTS) - 3
    assert _outcome(load_edge_list, path) == \
        _outcome(reference_load_edge_list, path)


def _random_weight_text(rng):
    """A weight as float() may or may not read it: a sign, digits (16 and
    more in some), a '.', a '_' between digits, an exponent, a stray
    character; or inf or nan."""
    if rng.random() < 0.02:
        return _pick(rng, ["inf", "-inf", "nan", "Infinity", "+nan"])
    digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 31))))
    if rng.random() < 0.1 and len(digits) > 1:
        at = int(rng.integers(1, len(digits)))
        digits = digits[:at] + "_" + digits[at:]
    at = int(rng.integers(0, len(digits) + 1))
    text = digits if rng.random() < 0.3 else digits[:at] + "." + digits[at:]
    if rng.random() < 0.3:
        text += _pick(rng, ["e", "E"]) + _pick(rng, ["", "+", "-"]) \
            + str(int(rng.integers(0, 400)))
    if rng.random() < 0.02:
        at = int(rng.integers(0, len(text) + 1))
        text = text[:at] + _pick(rng, list("._e+-x")) + text[at:]
    return _pick(rng, ["", "", "+", "-"]) + text


def _is_weight(text):
    """Whether the line loop takes `text` as a weight."""
    try:
        w = float(text)
    except ValueError:
        return False
    return math.isfinite(w) and w >= 0


def _read_weights(texts):
    chunk = "".join(f"u{t} i{t % 7} {w}\n" for t, w in enumerate(texts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return graph_core._edge_block(chunk.encode())


def test_weights_read_as_float_reads_them_bit_for_bit():
    # Chunks of 100 weights that float() takes, each read again with one
    # it refuses (not a number, negative or not finite) in a random place.
    rng = np.random.default_rng(7)
    good, bad = [], []
    for _ in range(100_000):
        text = _random_weight_text(rng)
        (good if _is_weight(text) else bad).append(text)
    assert min(len(good), len(bad)) > 10_000
    for k in range(0, len(good), 100):
        texts = good[k:k + 100]
        (_, _, weights), lines = _read_weights(texts)
        assert lines == len(texts)
        want = np.array([float(w) for w in texts])
        np.testing.assert_array_equal(weights.view(np.int64),
                                      want.view(np.int64))
        texts[int(rng.integers(len(texts)))] = _pick(rng, bad)
        assert _read_weights(texts) is None, texts


# Valid files whose every chunk the tokenizer reads: non-ASCII ids, NULs
# in ids (a, a\0 and \0 are three ids), separators that bytes.split()
# does not split on, Unicode-digit weights, and a 4000-byte id and a
# 4000-digit weight among short tokens.
ODD_VALID_FILES = {
    "non-ascii-ids": "用户 é 1\nü i1 0.5\né ü 2 # ü\n".encode(),
    "nuls": b"a x 1\na\0 x 2\n\0 y 3\na\0b \0\0 1\nx a\0 1\n",
    "separators": (b"a\x1cb\x1d1\nc\x1e d\x1f2\n\x1c\n"
                   + "e\xa0f\u30003\ng\x85h\u20282\u2029\n".encode()),
    "unicode-digit-weights": "a b ١\nc d １٥\ne f ٠.٥e-1\n".encode(),
    "long-id": b"u" + b"1" * 4000 + b" i1 0.5\n",
    "long-weight": b"u1 i1 0." + b"5" * 4000 + b"\n",
}


@pytest.mark.parametrize("name", ODD_VALID_FILES)
def test_valid_files_never_take_the_line_loop(tmp_path, monkeypatch, name):
    def line_loop(*args):
        raise AssertionError("a valid chunk took the line loop")

    monkeypatch.setattr(graph_core, "_edge_lines", line_loop)
    body = [b"u%d i%d 0.%d\n" % (k, k % 7, k) for k in range(2000)]
    path = tmp_path / "edges.txt"
    path.write_bytes(b"".join(body[:1000] + [ODD_VALID_FILES[name]]
                              + body[1000:]))
    got = _outcome(load_edge_list, path)
    assert got[0] == "loaded", got
    assert got == _outcome(reference_load_edge_list, path)


def test_every_other_space_has_a_pattern():
    # _other_spaces scans only the code points below U+10000.
    spaces = [c.encode() for c in map(chr, range(128, sys.maxunicode + 1))
              if c.isspace()]
    patterns = graph_core._other_spaces()
    assert all(patterns[len(c)].fullmatch(c) for c in spaces)
    assert sum(len(p.pattern.split(b"|")) for p in patterns.values()) \
        == len(spaces)


def _load_peak_mb(path):
    """The peak of memory traced by tracemalloc, numpy's arrays included,
    in MB, while a fresh process loads the edge list. A process's
    ru_maxrss would not do: it keeps its parent's peak across fork and
    exec."""
    code = ("import sys, tracemalloc\n"
            "from bipx.graph_core import load_edge_list\n"
            "tracemalloc.start()\n"
            "load_edge_list(sys.argv[1])\n"
            "print(tracemalloc.get_traced_memory()[1])")
    env = dict(os.environ,
               PYTHONPATH=str(Path(graph_core.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return int(proc.stdout) / 1e6


def test_one_long_id_widens_no_other(tmp_path):
    # 60,000 lines, about 1.2 MB: one 4000-byte outcome id and one
    # 2000-byte diversion id among ids of at most 8 bytes and some of 9-16.
    rng = np.random.default_rng(0)
    lines = [b"u%d i%d 0.%d\n" % (rng.integers(20000), rng.integers(100000),
                                   rng.integers(10**6)) for _ in range(60000)]
    lines[::97] = [b"user_%d item_%d 1\n" % (k, k)
                   for k in range(len(lines[::97]))]
    short = tmp_path / "short.txt"
    short.write_bytes(b"".join(lines))
    lines[100] = b"u1 i" + b"8" * 1999 + b" 0.5\n"
    lines[45000] = b"u" + b"7" * 3999 + b" i5 0.5\n"
    wide = tmp_path / "wide.txt"
    wide.write_bytes(b"".join(lines))
    assert _outcome(load_edge_list, wide) == \
        _outcome(reference_load_edge_list, wide)
    assert _load_peak_mb(wide) < 2 * _load_peak_mb(short)


# numpy's cast warns of the overflow on the second but not the first.
@pytest.mark.parametrize("weight", [b"1e400", b"72803027248295368.0e312"])
def test_a_weight_past_the_largest_double_is_not_finite(tmp_path, weight):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"u1 i1 0.5\nu2 i2 %s\n" % weight)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EdgeListParseError,
                           match=r"edges\.txt:2: weight inf is not finite"):
            load_edge_list(path)
