import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphrerank import corpus_io
from graphrerank.corpus_io import (
    FeatureMatrix,
    FormatError,
    GroundTruth,
    RankTable,
    SynthSpec,
    atomic_write_text,
    load_feature_matrix,
    load_ground_truth,
    load_rank_table,
    save_feature_matrix,
    save_ground_truth,
    save_rank_table,
    synth_generate,
)
from graphrerank.features import build_rank_table

from conftest import random_rank_table


class TestRankTableFormat:
    def test_smallest_corpus(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 1 2\n1: 0 2\n2: 0 1\n")
        table = load_rank_table(path)
        assert table.n == 3
        assert list(table.lists[0]) == [1, 2]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 1 1\n1: 0 2\n2: 0 1\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_rank_table(path)

    def test_owner_in_own_list_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 0 1\n1: 0 2\n2: 0 1\n")
        with pytest.raises(FormatError, match="owner"):
            load_rank_table(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 1 5\n1: 0 2\n2: 0 1\n")
        with pytest.raises(FormatError, match="out of range"):
            load_rank_table(path)

    def test_short_list_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 1\n1: 0 2\n2: 0 1\n")
        with pytest.raises(FormatError, match="expected 2 ids"):
            load_rank_table(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(FormatError, match="separator"):
            load_rank_table(path)

    def test_owner_order_enforced(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1: 0 2\n0: 1 2\n2: 0 1\n")
        with pytest.raises(FormatError, match="out of order"):
            load_rank_table(path)

    @pytest.mark.parametrize(
        "line, reason",
        [("2: 0 1 9", "out of range"), ("2: 0 2 1", "owner"), ("2: 1 0 1", "duplicate")],
    )
    def test_bad_id_on_later_line_names_its_list(self, tmp_path, line, reason):
        path = tmp_path / "t.txt"
        path.write_text(f"0: 1 2 3\n1: 0 2 3\n{line}\n3: 0 1 2\n")
        with pytest.raises(FormatError, match=f"rank list 2: .*{reason}"):
            load_rank_table(path)

    def test_id_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(f"0: 1 2\n1: 0 {2**70}\n2: 0 1\n")
        with pytest.raises(FormatError, match="line 2: .*out of range"):
            load_rank_table(path)

    def test_id_beyond_int32_rejected_before_narrowing(self, tmp_path):
        # stored unchecked, 2**32 + 1 would wrap to 1 in int32 and 65537 to 1
        # in int16 (the stored dtype up to n = 32 768), and both would load
        path = tmp_path / "t.txt"
        for text, fault in [
            ("0: 4294967297\n1: 0\n", "id 4294967297 out of range [0, 2)"),
            ("0: 1 65537\n1: 0 2\n2: 0 1\n", "id 65537 out of range [0, 3)"),
        ]:
            path.write_text(text)
            want = f"{path}: rank list 0: {fault}"
            with pytest.raises(FormatError, match=f"^{re.escape(want)}$"):
                load_rank_table(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # an earlier bad list is named before a list with an id out of range
            ("0: 1 1 3\n1: 0 2 9\n2: 0 1 3\n3: 0 1 2\n", "rank list 0: duplicate id 1"),
            ("0: 1 2 3\n1: 0 2 -4\n2: 0 1 1\n3: 0 1 2\n", "rank list 1: id -4 out of range"),
            # and every line is parsed before any list is named
            ("0: 1 2 3\n1: 0 2 9\n2: 0 1\n3: 0 1 2\n", "line 3: expected 3 ids, got 2"),
        ],
    )
    def test_out_of_range_id_keeps_error_order(self, tmp_path, text, message):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_rank_table(path)

    def test_empty_corpus_round_trip(self, tmp_path):
        path = tmp_path / "t.txt"
        save_rank_table(RankTable(np.empty((0, 0), dtype=np.int64)), path)
        assert path.read_text() == ""
        assert load_rank_table(path).n == 0

    def test_two_image_table_has_two_lines(self, tmp_path):
        path = tmp_path / "t.txt"
        save_rank_table(RankTable(np.array([[1], [0]])), path)
        assert path.read_text() == "0: 1\n1: 0\n"

    def test_save_is_byte_stable(self, tmp_path):
        table = random_rank_table(np.random.default_rng(3), 7)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_rank_table(table, a)
        save_rank_table(table, b)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 12))
    def test_round_trip_identity(self, seed, n, tmp_path_factory):
        table = random_rank_table(np.random.default_rng(seed), n)
        path = tmp_path_factory.mktemp("rt") / "t.txt"
        save_rank_table(table, path)
        assert np.array_equal(load_rank_table(path).lists, table.lists)


TOKEN_CHARS = "0123456789+-_.#x \t"
ODD_TOKENS = ["", "+1", "-0", "007", "1_0", "1.0", "#", "x1", str(2**63 - 1), str(2**63), str(-2**63)]


@st.composite
def rank_table_texts(draw):
    """Rank-table text, valid or with a few tokens or heads mangled."""
    n = draw(st.integers(0, 6))
    lines = []
    for i in range(n):
        ids = draw(st.permutations([j for j in range(n) if j != i]))
        lines.append([str(i)] + [str(x) for x in ids])
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        line = lines[draw(st.integers(0, n - 1))]
        at = draw(st.integers(0, len(line)))
        mangled = st.one_of(st.text(TOKEN_CHARS, max_size=4), st.sampled_from(ODD_TOKENS))
        if at == len(line):
            line.append(draw(mangled))
        else:
            line[at] = draw(mangled)
    gap = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    return "".join(f"{head}:{gap}{gap.join(ids)}\n" for head, *ids in lines)


def load_outcome(load, path):
    try:
        return load(path).lists.tolist(), None
    except FormatError as exc:
        return None, str(exc)


INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def load_scalar(path):
    """Reference parse: the head and the ASCII `str.split()` tokens must each be
    `[+-]?[0-9]+`, read by `int()`; every error starts with the path."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n = len(lines)
    rows = []
    for lineno, line in enumerate(lines):
        where = f"{path}: line {lineno + 1}"
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"{where}: missing ':' separator")
        if not INT_TOKEN.fullmatch(head.strip()):
            raise FormatError(f"{where}: bad owner id {head!r}")
        owner = int(head.strip())
        tokens = tail.split()
        if not tail.isascii() or not all(INT_TOKEN.fullmatch(tok) for tok in tokens):
            raise FormatError(f"{where}: non-integer id")
        ids = [int(tok) for tok in tokens]
        if not all(-(2**63) <= i < 2**63 for i in ids):
            raise FormatError(f"{where}: id out of range")
        if owner != lineno:
            raise FormatError(f"{where}: owner id {owner} out of order")
        if len(ids) != n - 1:
            raise FormatError(f"{where}: expected {n - 1} ids, got {len(ids)}")
        rows.append(ids)
    try:
        return RankTable(np.array(rows, dtype=np.int64).reshape(n, max(n - 1, 0)))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# byte-level changes to canonical rank-table text, and whether the text is
# still decoded in blocks afterwards
MUTATIONS = {
    None: True,
    "id n": False,
    "swapped owners": False,
    "duplicate id": True,
    "10-digit id": True,
    "leading zeros": True,
    "plus": True,
    "minus zero": True,
    "double space": True,
    "tab": True,
    "crlf": True,
    "trailing space": True,
    "no final newline": True,
    "digit after ':'": False,
}


@st.composite
def canonical_table_texts(draw):
    """Canonical rank-table text for n in 2-40 with at most one byte-level
    mutation, and whether the block decoder should still take it."""
    n = draw(st.integers(2, 40))
    table = random_rank_table(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    lines = [[str(i), *map(str, ids)] for i, ids in enumerate(table.lists.tolist())]
    mutation = draw(st.sampled_from(list(MUTATIONS)))
    row, col = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
    if mutation == "id n":
        lines[row][col] = str(n)
    elif mutation == "swapped owners":
        other = (row + draw(st.integers(1, n - 1))) % n
        lines[row][0], lines[other][0] = lines[other][0], lines[row][0]
    elif mutation == "duplicate id":
        lines[row][col] = lines[row][col % (n - 1) + 1]
    elif mutation == "10-digit id":
        lines[row][col] = lines[row][col].zfill(10)
    elif mutation == "leading zeros":
        col = draw(st.integers(0, n - 1))  # the owner too
        lines[row][col] = "00" + lines[row][col]
    elif mutation == "plus":
        col = draw(st.integers(0, n - 1))  # the owner too
        lines[row][col] = "+" + lines[row][col]
    elif mutation == "minus zero":
        lines[row][lines[row].index("0")] = "-0"  # the owner of line 0
    text = "".join(f"{head}: {' '.join(ids)}\n" for head, *ids in lines)
    if mutation in ("double space", "tab"):
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == " "]))
        text = text[:at] + ("  " if mutation == "double space" else "\t") + text[at + 1:]
    elif mutation in ("crlf", "trailing space"):
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"]))
        text = text[:at] + ("\r" if mutation == "crlf" else " ") + text[at:]
    elif mutation == "no final newline":
        text = text[:-1]
    elif mutation == "digit after ':'":
        at = text.index(":", text.index(f"\n{row}:") + 1 if row else 0) + 1
        text = text[:at] + "7" + text[at:]
    return text, MUTATIONS[mutation]


class TestRankTableParse:
    @settings(max_examples=300, deadline=None)
    @given(text=rank_table_texts())
    def test_equals_scalar_oracle(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("parse") / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_outcome(load_rank_table, path)
        assert got == load_outcome(load_scalar, path)

    @settings(max_examples=200, deadline=None)
    @given(case=canonical_table_texts(), workers=st.sampled_from([1, 2, 8]),
           lines=st.integers(1, 3))
    def test_block_decoder_equals_scalar_oracle(self, case, workers, lines, tmp_path_factory):
        text, decoded_in_blocks = case
        path = tmp_path_factory.mktemp("blocks") / "t.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_io, "_WORKERS", workers)
            # a byte budget (`_SCATTER // _WORKERS`) of about `lines` lines a block
            mp.setattr(corpus_io, "_SCATTER", workers * lines * (len(text) // text.count("\n")))
            assert (corpus_io._decoded_lists(path.read_bytes()) is not None) == decoded_in_blocks
            got = load_outcome(load_rank_table, path)
        assert got == load_outcome(load_scalar, path)

    # both read as 1 by int(), so both loaded before ids had to be ASCII decimal
    @pytest.mark.parametrize("token", ["0_1", "\u0661"])
    def test_underscore_and_non_ascii_digit_rejected(self, tmp_path, token):
        path = tmp_path / "t.txt"
        path.write_text(f"0: 1 2\n1: 0 2\n2: 0 {token}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3: non-integer id"):
            load_rank_table(path)
        gt = tmp_path / "gt.txt"
        gt.write_text(f"0: 2\n1: {token}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: non-integer id"):
            load_ground_truth(gt, n=3)

    # `int()` alone reads both heads as integers, and the same tokens are
    # rejected as ids
    @pytest.mark.parametrize("head", ["0_1", "\u0660"])
    def test_underscore_and_non_ascii_digit_owner_rejected(self, tmp_path, head):
        path = tmp_path / "t.txt"
        path.write_text(f"0: 1 2\n1: 0 2\n{head}: 0 1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3: bad owner id"):
            load_rank_table(path)
        gt = tmp_path / "gt.txt"
        gt.write_text(f"0: 2\n{head}: 2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: bad owner id"):
            load_ground_truth(gt, n=3)

    def test_non_ascii_digit_lookalike_rejected(self, tmp_path):
        # numpy's integer parser reads some non-ASCII letters as digits
        path = tmp_path / "t.txt"
        path.write_text("0: 1 2\n1: 0 2\n2: 0 1\u01fe\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3: non-integer id"):
            load_rank_table(path)

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 1 2\n1: 0 2 # note\n2: 0 1\n")
        with pytest.raises(FormatError, match="line 2: non-integer id"):
            load_rank_table(path)

    # the less common grammar: each case loads, or fails, as the oracle does
    @pytest.mark.parametrize("text, where", [
        ("0: 1 2\r1: 0 2\r2: 0 1\r", None),
        ("0: 1 2\n1: 0 2\n2: 0 \r1\n", "line 1: expected 3 ids, got 2"),
        ("0: 1 2\v1: 0 2\v2: 0 1\n", None),
        ("0: 1\x1f2\n1: 0 2\n2: 0 1\n", None),
        ("0\x1f: 1\n1: 0\n", None),
        ("0: 1 2\u20281: 0 2\u20282: 0 1\n", None),
        ("0: 1 2\n\u00a01: 0 2\n2: 0 1\n", None),
        ("0: 1 2\n1: 0\u00a02\n2: 0 1\n", "line 2: non-integer id"),
        ("0:1 2\n1:0 2\n2:0 1\n", None),
        ("0 : 1 2\n1 : 0 2\n2 : 0 1\n", None),
        ("-0: 1 2\n1: -0 2\n+2: +0 1\n", None),
        ("0: 1 2\n1: 0 00000000000000000002\n2: 0 1\n", None),
        ("0: 1 2\n1: 0 2\n2: 0 1\n\n", "line 1: expected 3 ids, got 2"),
        ("0:\n", None),
        ("", None),
        ("0: 1 2\n1: 0 2\n2: 0 1", None),
    ])
    def test_uncommon_grammar_equals_scalar_oracle(self, tmp_path, text, where):
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        got = load_outcome(load_rank_table, path)
        assert got == load_outcome(load_scalar, path)
        assert got[1] == (where and f"{path}: {where}")

    def test_short_lines_fail_before_any_table_is_allocated(self, tmp_path):
        # 100 000 lines would need a 100 000 x 99 999 table: text too short
        # to hold it fails on its first line instead
        path = tmp_path / "t.txt"
        path.write_text("\n" * 100_000)
        with pytest.raises(FormatError) as err:
            load_rank_table(path)
        assert str(err.value) == f"{path}: line 1: missing ':' separator"


class TestRankTableValidation:
    def test_rejects_owner_in_list(self):
        with pytest.raises(ValueError):
            RankTable(np.array([[0, 1], [0, 2], [0, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RankTable(np.array([[1, 1], [0, 2], [0, 1]]))

    def test_first_bad_list_named_when_a_later_one_is_out_of_range(self):
        with pytest.raises(ValueError, match="rank list 0: duplicate id 2"):
            RankTable(np.array([[2, 2], [0, 5], [0, 1]]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_bad_list_named_across_row_blocks(self, monkeypatch, tmp_path, workers):
        # blocks of 2 rows (1 for more workers) are checked on the pool; a
        # later block may fail first, but the earliest bad list is named
        monkeypatch.setattr(corpus_io, "_WORKERS", workers)
        monkeypatch.setattr(corpus_io, "_SCATTER", 2 * 9)
        lists = random_rank_table(np.random.default_rng(5), 10).lists.astype(np.int64)
        assert len(corpus_io._row_blocks(10, 9)) >= 3
        lists[2, :2] = lists[2, 0]
        lists[7, 0] = -1
        with pytest.raises(ValueError, match=f"^rank list 2: duplicate id {lists[2, 0]}$"):
            RankTable(lists)
        # an id beyond int32 on a later line: the loader checks the lists before it
        lists[8, 0] = 2**32 + 1
        path = tmp_path / "t.txt"
        path.write_text(corpus_io.id_lines_text(enumerate(lists.tolist())))
        with pytest.raises(FormatError, match=f"rank list 2: duplicate id {lists[2, 0]}$"):
            load_rank_table(path)

    def test_rejection_names_list_and_reason(self):
        with pytest.raises(ValueError, match="rank list 1: id -1 out of range"):
            RankTable(np.array([[1, 2], [0, -1], [0, 1]]))
        with pytest.raises(ValueError, match="rank list 2: contains its owner 2"):
            RankTable(np.array([[1, 2], [0, 2], [2, 1]]))
        with pytest.raises(ValueError, match="rank list 0: duplicate id 2"):
            RankTable(np.array([[2, 2], [0, 2], [0, 1]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RankTable(np.array([[1], [0], [0]]))

    def test_rejects_non_integer_dtype(self):
        # cast to int64, these floats loaded as the valid table [[1], [0]]
        with pytest.raises(TypeError, match="integers"):
            RankTable(np.array([[1.9], [0.2]]))

    def test_caller_mutation_leaves_table_unchanged(self):
        # an array or view the caller passed is copied, an int16 one (the
        # stored dtype) too; rows in a list are copied by their conversion
        lists = np.array([[1, 2], [0, 2], [0, 1]])
        narrow = lists.astype(np.int16)
        wide = np.array([[9, 1, 2], [9, 0, 2], [9, 0, 1]])
        rows = [row.copy() for row in lists]
        tables = [RankTable(lists), RankTable(narrow), RankTable(wide[:, 1:]), RankTable(rows)]
        lists[0] = [2, 1]
        narrow[0] = [2, 1]
        wide[0, 1:] = [2, 1]
        rows[0][:] = [2, 1]
        for table in tables:
            assert table.lists.tolist() == [[1, 2], [0, 2], [0, 1]]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_ids_checked_before_narrowing(self, dtype):
        # cast to int16 first, 2**16 + 1 would wrap to 1 and pass, and so
        # would 2**32 + 1 cast to int32
        for bad in (2**16 + 1, 2**32 + 1):
            with pytest.raises(ValueError, match=re.escape(f"rank list 0: id {bad} out of range [0, 2)")):
                RankTable(np.array([[bad], [0]], dtype=dtype))

    def test_id_dtype_holds_n_minus_1(self):
        assert corpus_io._id_dtype(0) is np.int16
        assert corpus_io._id_dtype(2**15) is np.int16
        assert corpus_io._id_dtype(2**15 + 1) is np.int32

    def test_stored_as_read_only_int16(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0: 1 2\n1: 0 2\n2: 0 1\n")
        given = np.array([[1, 2], [0, 2], [0, 1]])
        tables = [
            RankTable(given),
            RankTable(given.astype(np.uint8)),
            load_rank_table(path),
            build_rank_table(FeatureMatrix([[0.0], [1.0], [-1.0]])),
        ]
        for table in tables:
            for arr in (table.lists, table.positions):
                assert arr.dtype == np.int16
                assert not arr.flags.writeable
            assert table.lists.tolist() == given.tolist()

    def test_positions_inverse_of_lists(self):
        table = random_rank_table(np.random.default_rng(0), 9)
        for i in range(9):
            for rank, j in enumerate(table.lists[i], start=1):
                assert table.positions[i, j] == rank

    def test_truncated_bounds(self):
        table = random_rank_table(np.random.default_rng(0), 6)
        assert table.truncated(3).shape == (6, 3)
        with pytest.raises(ValueError, match="k=6 exceeds corpus bound 5"):
            table.truncated(6)
        with pytest.raises(ValueError):
            table.truncated(0)
        with pytest.raises(ValueError):
            RankTable(np.empty((1, 0), dtype=np.int64)).truncated(1)
        with pytest.raises(ValueError, match="2-d"):
            RankTable([])
        with pytest.raises(ValueError, match="length 1"):
            RankTable(np.empty((2, 0), dtype=np.int64))


class TestGroundTruthFormat:
    def test_non_integer_id_rejected(self):
        # `int()` truncated 1.7 to 1, so this held {1, 2}
        with pytest.raises(TypeError):
            GroundTruth({0: [1.7, 2]})
        with pytest.raises(TypeError):
            GroundTruth({0.5: [1]})

    def test_basic_parse(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0: 1 2 3\n")
        gt = load_ground_truth(path, n=4)
        assert gt.relevant[0] == {1, 2, 3}

    def test_empty_relevant_set_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0:\n")
        with pytest.raises(FormatError, match="empty relevant set"):
            load_ground_truth(path, n=4)

    def test_out_of_range_rejected_when_n_known(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0: 1 9\n")
        with pytest.raises(FormatError, match="out of range"):
            load_ground_truth(path, n=4)

    @pytest.mark.parametrize("line, bad", [("9: 1 8", 9), ("0: 1 9 -1", 9), ("0: 1 -1 9", -1)])
    def test_out_of_range_names_query_then_first_bad_id(self, tmp_path, line, bad):
        path = tmp_path / "gt.txt"
        path.write_text(f"1: 2\n{line}\n")
        with pytest.raises(FormatError, match=rf"line 2: id {bad} out of range \[0, 4\)"):
            load_ground_truth(path, n=4)

    @pytest.mark.parametrize("line, where", [
        (f"1: 0 {2**63}", "line 1: id out of range"),
        ("1: 0 1.0", "line 1: non-integer id"),
    ])
    def test_id_beyond_int64_or_not_an_integer_rejected(self, tmp_path, line, where):
        path = tmp_path / "gt.txt"
        path.write_text(f"{line}\n")
        with pytest.raises(FormatError) as err:
            load_ground_truth(path, n=4)
        assert str(err.value) == f"{path}: {where}"

    def test_ukbench_style_groups(self, tmp_path):
        spec = SynthSpec(n_groups=3, group_size=4, dims=3, n_spaces=1, seed=1)
        _, gt = synth_generate(spec)
        path = tmp_path / "gt.txt"
        save_ground_truth(gt, path)
        loaded = load_ground_truth(path, n=12)
        for q in range(12):
            assert len(loaded.relevant[q]) == 4
            assert q in loaded.relevant[q]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_round_trip_identity(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        rel = {}
        for q in rng.choice(n, size=rng.integers(1, n), replace=False):
            size = int(rng.integers(1, n))
            rel[int(q)] = set(int(x) for x in rng.choice(n, size=size, replace=False))
        gt = GroundTruth(rel)
        path = tmp_path_factory.mktemp("gt") / "gt.txt"
        save_ground_truth(gt, path)
        assert load_ground_truth(path, n=n).relevant == gt.relevant


class TestFeatureMatrixFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = FeatureMatrix(rng.normal(size=(4, 6)))
        path = tmp_path / "f.txt"
        save_feature_matrix(m, path)
        assert np.array_equal(load_feature_matrix(path).rows, m.rows)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2 3\n1 2 3\n")
        with pytest.raises(FormatError, match="expected 2 rows"):
            load_feature_matrix(path)

    @pytest.mark.parametrize("header", ["2 -1", "-1 2"])
    def test_negative_header_rejected(self, tmp_path, header):
        path = tmp_path / "f.txt"
        path.write_text(f"{header}\n\n\n")
        with pytest.raises(FormatError, match="header must be '<n> <dims>'"):
            load_feature_matrix(path)

    def test_underscore_header_rejected(self, tmp_path):
        # `int("1_0")` alone is 10, which would read this as ten rows
        path = tmp_path / "f.txt"
        path.write_text("1_0 1\n" + "0.5\n" * 10)
        with pytest.raises(FormatError, match="header must be '<n> <dims>'"):
            load_feature_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="header must be '<n> <dims>'"):
            load_feature_matrix(path)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_in_file_is_format_error(self, tmp_path, token):
        path = tmp_path / "f.txt"
        path.write_text(f"2 2\n1 2\n3 {token}\n")
        with pytest.raises(FormatError, match="line 3: non-finite"):
            load_feature_matrix(path)


class TestErrorsNameTheirFile:
    """Every loader's `FormatError` starts with the path it was reading."""

    @pytest.mark.parametrize("name, text, load, where", [
        ("t.txt", "0: 1 2\n1: 0 2\n2: 0 x\n", load_rank_table, "line 3: non-integer id"),
        ("t.txt", "0: 1 2\n1: 0 0\n2: 0 1\n", load_rank_table, "rank list 1: duplicate id 0"),
        ("gt.txt", "0: 1\n1: 9\n", lambda p: load_ground_truth(p, n=3), "line 2: id 9 out of range [0, 3)"),
        ("f.txt", "2 2\n1 2\n3 x\n", load_feature_matrix, "line 3: non-numeric value"),
        # `float()` reads both as numbers: 10.0 and 1.0
        ("f.txt", "2 2\n1 2\n3 1_0\n", load_feature_matrix, "line 3: non-numeric value"),
        ("f.txt", "2 2\n1 2\n3 \u0661\n", load_feature_matrix, "line 3: non-numeric value"),
        ("f.txt", "2 2\n1 2\n3\n", load_feature_matrix, "line 3: expected 2 values, got 1"),
        ("f.txt", "2 x\n", load_feature_matrix, "line 1: header must be '<n> <dims>'"),
    ])
    def test_message_starts_with_path(self, tmp_path, name, text, load, where):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: {where}"

    def test_undecodable_file_names_its_path(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"0: 1\n1: \xff\n")
        with pytest.raises(FormatError, match="utf-8") as err:
            load_rank_table(path)
        assert str(err.value).startswith(f"{path}: ")


class TestAtomicWriteText:
    def test_replaces_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_text(target, "text\n")
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert target.is_dir()

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "out.txt", "\ud800")
        assert list(tmp_path.iterdir()) == []


class TestSynthGenerate:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_groups=2, intra_spread=2.0, inter_spread=1.0)
        with pytest.raises(ValueError):
            SynthSpec(n_groups=2, agreement=1.5)
        with pytest.raises(ValueError):
            SynthSpec(n_groups=0)

    def test_fixed_seed_bit_reproducible(self):
        spec = SynthSpec(n_groups=5, dims=4, n_spaces=2, agreement=0.5, seed=42)
        a, gta = synth_generate(spec)
        b, gtb = synth_generate(spec)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.rows, mb.rows)
        assert gta.relevant == gtb.relevant

    def test_every_group_has_group_size_members(self):
        spec = SynthSpec(n_groups=7, group_size=3, dims=4, n_spaces=1, seed=0)
        _, gt = synth_generate(spec)
        assert all(len(gt.relevant[q]) == 3 for q in range(21))

    def test_full_agreement_groupmates_rank_first(self):
        # verified against exact NN search on the generated vectors
        spec = SynthSpec(
            n_groups=10, group_size=4, dims=8, n_spaces=2,
            intra_spread=0.01, inter_spread=1.0, agreement=1.0, seed=7,
        )
        spaces, gt = synth_generate(spec)
        for matrix in spaces:
            table = build_rank_table(matrix)
            for q in range(spec.n):
                top = set(int(x) for x in table.lists[q, :3])
                assert top == gt.relevant[q] - {q}

    def test_zero_agreement_uncorrelated_with_groups(self):
        spec = SynthSpec(
            n_groups=25, group_size=4, dims=6, n_spaces=1,
            intra_spread=0.01, inter_spread=1.0, agreement=0.0, seed=11,
        )
        spaces, gt = synth_generate(spec)
        table = build_rank_table(spaces[0])
        hits = sum(
            len(set(int(x) for x in table.lists[q, :3]) & (gt.relevant[q] - {q}))
            for q in range(spec.n)
        )
        # random chance puts ~ 3*3/99 groupmates in each top-3
        assert hits / spec.n < 0.5

    def test_group_size_one_degenerate(self):
        spec = SynthSpec(n_groups=6, group_size=1, dims=3, n_spaces=1, seed=2)
        _, gt = synth_generate(spec)
        assert all(gt.relevant[q] == {q} for q in range(6))
