"""Core corpus data model, on-disk text formats, and synthetic corpus generation.

Image ids are dense integers in [0, n). A rank table stores, for every image
used as a query, its full retrieval ordering over the rest of the corpus
(int16 up to n = 32 768, int32 beyond); k-nearest truncation comes later, at
graph-construction time, so a single table supports any k sweep.

Rank-table, ground-truth and ranked-list files share one line format,
`owner: id id ...`, written a line at a time by `id_lines`. Rank-table text
is decoded in blocks of lines by `_decoded_lists` alone; text it rejects is
walked line by line, through the `_id_line` that parses ground-truth lines,
only to raise its first fault. Every loader (and
`features.load_ppm`) runs under `_names_file`, so a `FormatError` names its
file and, in a text file, the first bad line (1-based): `<path>: line N: ...`,
or `<path>: ...` for a P6 pixmap. Every integer an input file holds (an
owner, an id, a feature-matrix or P6 header field) is an ASCII decimal
integer with an optional sign, `[+-]?[0-9]+`; `int()` alone would also take
`1_0` and non-ASCII digits. Ids must fit in int64 and are separated by ASCII
whitespace. Any other id token (`1_0`, `1.0`, `#`, a non-ASCII digit) is a
`non-integer id`, and an integer beyond int64 is `id out of range`. A
feature value is an ASCII decimal float (`_FLOAT_TOKEN`: optional sign,
digits with an optional point, optional exponent) or an infinity or NaN,
which is then rejected as non-finite; any other token, `1_0` or a non-ASCII
digit among them, is a `non-numeric value`.

The block decode of rank-table text, and the one pass that checks a rank
table's lists and scatters them into its `positions` (`_positions`), run
their blocks on one thread per core (`_on_cores`; `_WORKERS` is the number
of cores this process may run on), as `features.build_rank_table` does.
Their numpy kernels release the GIL, so the blocks run in parallel; the
blocks the workers hold at once total `_SCATTER` entries, or about
`_SCATTER` bytes of text.
Graph building, fusion, ranking and scoring stay serial: their per-query
Python loops hold the GIL, and a thread pool made `evaluate` slower (21.5 s
against 17.3 s serial, directed k = 60).
"""

from __future__ import annotations

import functools
import operator
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FormatError",
    "RankTable",
    "GroundTruth",
    "FeatureMatrix",
    "SynthSpec",
    "load_rank_table",
    "save_rank_table",
    "load_ground_truth",
    "save_ground_truth",
    "load_feature_matrix",
    "save_feature_matrix",
    "synth_generate",
    "atomic_write_text",
    "id_lines",
]


class FormatError(ValueError):
    """A corpus file failed parsing or validation."""


def _names_file(load):
    """`load(path, ...)`, whose ValueErrors become `FormatError`s that start with the path."""
    @functools.wraps(load)
    def named(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
    return named


def _int_array(ids):
    """`ids` as an array of its own dtype; a non-empty array of a non-integer dtype raises TypeError."""
    arr = np.asarray(ids)
    if arr.dtype.kind not in "iu" and arr.size:
        raise TypeError(f"image ids must be integers, not {arr.dtype}")
    return arr


def _int_ids(ids):
    """`ids` as int64; a non-empty array of another dtype raises TypeError (no pass over it)."""
    return _int_array(ids).astype(np.int64, copy=False)


def atomic_write_text(path, text):
    """Write `text`, a str or an iterable of str written in turn, to `path`
    atomically (write to a sibling temp file, rename).

    On failure the temp file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def id_lines(rows, header=None):
    """Yield an `owner: id id ...` line per (owner, ids) pair after an optional `# header`.

    Rank-table, ground-truth and ranked-list files all use it; an empty list
    is written as `owner:`.
    """
    if header:
        yield f"# {header}\n"
    for owner, ids in rows:
        yield " ".join([f"{owner}:", *map(str, ids)]) + "\n"


_SCATTER = 1 << 18  # list entries in flight in a scatter: 2 MB as an intp index
# one worker per core this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _on_cores(fn, items):
    """`[fn(item) for item in items]`, run on `_WORKERS` threads.

    The pool is opened per call, so no thread outlives it (and a forked
    child inherits none). Only numpy kernels that release the GIL pay for
    running here.
    """
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        return list(pool.map(fn, items))


def _row_blocks(n, width):
    """Row slices of an n-row table with `width` entries a row, each of at
    most `_SCATTER // _WORKERS` entries (or one row).

    Fancy indexing with ids of any dtype but intp (the stored int16 or
    int32 among them) first makes an intp copy of them; checking and
    scattering one block at a time keeps that copy to one block's size, and
    the blocks the workers hold at once to `_SCATTER` entries.
    """
    step = max(1, _SCATTER // _WORKERS // max(width, 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def _id_dtype(n):
    """The narrowest signed dtype of the ids [0, n): int16 up to n = 32 768, int32 beyond."""
    return np.int16 if n <= 1 << 15 else np.int32


def _list_fault(row, owner, n):
    """Why `row` is not a permutation of the ids [0, n) but `owner`, or None."""
    row = np.sort(row)
    if row.size and (row[0] < 0 or row[-1] >= n):
        return f"id {row[0] if row[0] < 0 else row[-1]} out of range [0, {n})"
    if np.count_nonzero(row == owner):
        return f"contains its owner {owner}"
    dup = row[1:][row[1:] == row[:-1]]
    return f"duplicate id {dup[0]}" if dup.size else None


def _positions(arr):
    """The read-only `_id_dtype(n)` positions of the rank lists `arr`, an
    integer array checked in its own dtype; raise `rank list i: <fault>`
    for the first row i that is not a permutation of the ids [0, n) but i.

    Each block of rows is range-checked, then its ranks 1 .. n - 1 are
    scattered into its own rows of the positions (`_row_blocks`, on the
    workers by `_on_cores`). Ranks are >= 1, so the block holds
    rows * (n - 1) nonzeros exactly when no row repeats an id, and then a
    row that holds its owner has a nonzero diagonal. No sort is needed: only
    a block that fails is read again, row by row, to name its first bad
    list, and the first fault in row order is raised.
    """
    if arr.ndim != 2:
        raise ValueError("rank lists must form a 2-d array")
    n = arr.shape[0]
    if arr.shape[1] != max(n - 1, 0):
        raise ValueError(f"each rank list must have length {max(n - 1, 0)}")
    pos = np.zeros((n, n), dtype=_id_dtype(n))
    ranks = np.arange(1, n, dtype=pos.dtype)

    def block_fault(rows):
        block, out = arr[rows], pos[rows]
        local = np.arange(len(block))
        owners = local + rows.start
        if block.min() >= 0 and block.max() < n:
            out[local[:, None], block] = ranks
            if np.count_nonzero(out) == block.size and not out[local, owners].any():
                return None
        for owner, row in zip(owners.tolist(), block):
            fault = _list_fault(row, owner, n)
            if fault:
                return f"rank list {owner}: {fault}"
        return None

    for fault in _on_cores(block_fault, _row_blocks(n, n - 1) if n > 1 else []):
        if fault:
            raise ValueError(fault)
    pos.setflags(write=False)
    return pos


@dataclass(frozen=True)
class RankTable:
    """Full retrieval orderings for an n-image corpus.

    `lists[i]` is a permutation of all ids except i itself, closest first;
    a rejection names the first list that is not, and why (TypeError for a
    non-integer dtype). `positions` is the (n, n) matrix of 1-based list
    positions, `positions[i, lists[i, c]] = c + 1` and `positions[i, i] = 0`.
    Both are made by one pass over the lists (`_positions`), which checks
    the ids in the dtype they come in, so an id beyond the stored dtype
    cannot wrap into range, and both are stored read-only as `_id_dtype(n)`
    (int16 up to n = 32 768, int32 beyond). Immutable: the input, a
    caller's array of the stored dtype too, is copied once.
    """

    lists: np.ndarray

    def __post_init__(self):
        arr = _int_array(self.lists)
        object.__setattr__(self, "positions", _positions(arr))
        lists = arr.astype(_id_dtype(len(arr)))
        lists.setflags(write=False)
        object.__setattr__(self, "lists", lists)

    @classmethod
    def _adopt(cls, lists):
        """`RankTable(lists)` for an `_id_dtype(n)` array (int16 up to n = 32 768,
        int32 beyond) that only its maker holds: checked, not copied."""
        table = object.__new__(cls)
        object.__setattr__(table, "positions", _positions(lists))
        lists.setflags(write=False)
        object.__setattr__(table, "lists", lists)
        return table

    @property
    def n(self):
        return self.lists.shape[0]

    def truncated(self, k):
        """The first k columns: exactly n*k stored ids.

        The one check of 1 <= k <= n - 1, and the graph builders' only read
        of list prefixes, so they never use a smaller k than the one asked.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > self.n - 1:
            raise ValueError(f"k={k} exceeds corpus bound {self.n - 1}")
        return self.lists[:, :k]


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
# a line's ids: integer tokens separated by whitespace (ASCII, once the line is)
_ID_TAIL = re.compile(rf"\s*(?:{_INT_TOKEN.pattern}(?:\s+{_INT_TOKEN.pattern})*)?\s*")
# a feature value: an ASCII decimal float, or an infinity or NaN (rejected
# later as non-finite); `float()` alone would also take `1_0` and non-ASCII digits
_FLOAT_TOKEN = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


def _parse_int(token, fault="not a decimal integer"):
    """`int(token)` for a `[+-]?[0-9]+` token only; any other raises `FormatError(fault)`."""
    if not _INT_TOKEN.fullmatch(token):
        raise FormatError(fault)
    return int(token)


def _id_line(line, lineno):
    """One `owner: id id ...` line as (owner, a list of int ids); a bad line raises its `FormatError`."""
    head, sep, tail = line.partition(":")
    if not sep:
        raise FormatError(f"line {lineno + 1}: missing ':' separator")
    owner = _parse_int(head.strip(), f"line {lineno + 1}: bad owner id {head!r}")
    if not tail.isascii() or not _ID_TAIL.fullmatch(tail):
        raise FormatError(f"line {lineno + 1}: non-integer id")
    ids = list(map(int, tail.split()))
    if ids and (min(ids) < -(2**63) or max(ids) >= 2**63):
        raise FormatError(f"line {lineno + 1}: id out of range")
    return owner, ids


def _decoded_lists(data):
    r"""The `_id_dtype(n)` lists of rank-table bytes (int16 up to n = 32 768,
    int32 beyond), or None for bytes that break a rule.

    Line i, ended by '\n', '\r\n' or the end of the text, is `i:` and then
    n - 1 ids. An owner or id is ASCII digits after an optional sign (`+1`,
    `-0`, `0000000001`), and '-' stands only before 0. Runs of '\t', '\x1f'
    or ' ' separate the ids and may stand around the owner and the ':'.

    n is read from line 0 alone, as its id count plus one, so nothing is
    counted before the pool. The workers (`_on_cores`) decode blocks of
    whole lines, about `_SCATTER // _WORKERS` bytes each, with numpy alone:
    each classes its non-digit bytes, counts its lines and the tokens
    around each ':', reads them by Horner's rule, checks ids (not
    permutations) and that its owners count up from its first one, and
    writes its rows, the first one's row first, if they fit in [0, n).
    The blocks must then follow one another, from line 0 to line n - 1.
    """
    if data and not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    budget = max(1, _SCATTER // _WORKERS)
    cuts = [0]
    while cuts[-1] < len(data):
        cuts.append(data.find(b"\n", cuts[-1] + budget - 1) + 1 or len(data))
    # n is line 0's id count plus one; the blocks must then hold exactly
    # the lines 0 .. n - 1, which is checked once they are decoded
    head = data[:data.find(b"\n") + 1].partition(b":")[2]
    n = len(head.replace(b"\x1f", b" ").split()) + 1 if data else 0
    if len(data) < 2 * n * n:  # too short for n lines of n tokens: allocate nothing
        return None
    lists = np.empty((n, max(n - 1, 0)), dtype=_id_dtype(n))

    def decode(block):
        """(first line index, line count) of a block whose rows it wrote, or None."""
        start, stop = block
        # the bytes less 48 (only ASCII digits read 0-9) after "00\n": two
        # zero digits, and a '\n' before the first line
        digit = np.empty(stop - start + 3, dtype=np.uint8)
        digit[:3] = np.frombuffer(b"00\n", dtype=np.uint8) - 48
        np.subtract(buf[start:stop], 48, out=digit[3:])
        other = digit[2:] > 9
        sep = np.flatnonzero(other)  # the non-digit bytes, the lead's '\n' first
        byte = digit[2:][sep] + 48
        colon, newline = np.flatnonzero(byte == 58), np.flatnonzero(byte == 10)
        m = newline.size - 1  # the block's lines
        if colon.size != m or (colon <= newline[:-1]).any() or (colon >= newline[1:]).any():
            return None
        end, prev = sep[1:], sep[:-1]  # each non-digit byte, and the one before it
        at = end - prev
        width = int(at.max()) - 1
        token = at > 1  # a token ends at `end`
        # tokens from each line's start to its ':', and from the ':' to the '\n'
        n_tokens = np.add.reduceat(token, np.stack((newline[:-1], colon), axis=1).ravel(), dtype=np.intp)
        if (n_tokens[0::2] != 1).any() or (n_tokens[1::2] != n - 1).any():
            return None
        minus = np.empty(0, dtype=np.intp)
        if np.count_nonzero(byte == 32) != byte.size - 2 * m - 1:  # not only ' ', ':', '\n'
            sign, cr = np.flatnonzero((byte == 43) | (byte == 45)), np.flatnonzero(byte == 13)
            # '\r' stands right before '\n', a sign after a non-digit and before a token's digits
            if (not np.isin(byte, list(b"\t\n\r\x1f +-:")).all() or (byte[cr + 1] != 10).any()
                    or token[cr].any() or not token[sign].all() or token[sign - 1].any()):
                return None
            minus = sign[byte[sign] == 45]
        np.multiply(digit[2:], np.logical_not(other, out=other), out=digit[2:])  # non-digits read 0
        # Horner's rule over each token's last (at most 9) digits: the one k
        # places before `end` is read at `end - k`, clamped onto `prev` (a 0).
        # For k <= 2 only non-tokens, whose values are dropped, need a clamp
        value = np.zeros(end.size, dtype=np.int32)
        for k in range(min(width, 9), 0, -1):
            value *= 10
            if k > 2:
                value += digit[2:][np.maximum(np.subtract(end, k, out=at), prev, out=at)]
            else:
                value += digit[2 - k:][end]
        for k in range(width, 9, -1):  # digits before a token's last 9 must be zeros
            if digit[2:][np.maximum(np.subtract(end, k, out=at), prev, out=at)].any():
                return None
        if value[minus].any():
            return None
        value = value[token].reshape(m, n)
        first = int(value[0, 0])  # its owner, the block's first line if the blocks tile
        if (first + m > n or (value[:, 0] != np.arange(first, first + m)).any()
                or value[:, 1:].max(initial=0) >= n):
            return None
        lists[first:first + m] = value[:, 1:]
        return first, m

    line = 0
    for span in _on_cores(decode, list(zip(cuts, cuts[1:]))):
        if span is None or span[0] != line:
            return None
        line += span[1]
    return lists if line == n else None


def _checked_lines(lines):
    """Raise the first fault of rank-table lines: a bad line first, then a bad list."""
    fault = None
    for lineno, line in enumerate(lines):
        owner, ids = _id_line(line, lineno)
        if owner != lineno:
            raise FormatError(f"line {lineno + 1}: owner id {owner} out of order")
        if len(ids) != len(lines) - 1:
            raise FormatError(f"line {lineno + 1}: expected {len(lines) - 1} ids, got {len(ids)}")
        if fault is None and (reason := _list_fault(ids, owner, len(lines))):
            fault = f"rank list {owner}: {reason}"
    raise FormatError(fault or "no fault in rank-table text the decoder rejected")


@_names_file
def load_rank_table(path):
    r"""Parse a rank-table file: line i is `i:` and then the n - 1 other ids.

    The bytes are decoded in blocks (`_decoded_lists`). Text it rejects is
    decoded again as its `str.splitlines()` lines, '\n'-ended and with their
    owners stripped, which takes any other line break (a lone '\r', '\v',
    U+2028 ...) and U+00A0 around an owner; text that still fails raises its
    first fault (`_checked_lines`).
    """
    data = Path(path).read_bytes()
    lists = _decoded_lists(data)
    if lists is None:
        lines = data.decode("utf-8").splitlines()
        parts = (line.partition(":") for line in lines)
        text = "".join(f"{head.strip()}{sep}{tail}\n" for head, sep, tail in parts)
        lists = _decoded_lists(text.encode())
        if lists is None:
            _checked_lines(lines)
    return RankTable._adopt(lists)


def save_rank_table(table, path):
    """Write `table` a line at a time, so the whole text is never held at once."""
    atomic_write_text(path, id_lines((i, row.tolist()) for i, row in enumerate(table.lists)))


@dataclass(frozen=True)
class GroundTruth:
    """Query id -> non-empty set of relevant image ids; a non-integer id raises TypeError."""

    relevant: dict

    def __post_init__(self):
        rel = {}
        for q, ids in self.relevant.items():
            q = operator.index(q)
            ids = frozenset(map(operator.index, ids))
            if not ids:
                raise ValueError(f"query {q}: empty relevant set")
            if any(i < 0 for i in ids) or q < 0:
                raise ValueError("image ids must be non-negative")
            rel[q] = ids
        object.__setattr__(self, "relevant", rel)

    @property
    def queries(self):
        return sorted(self.relevant)


@_names_file
def load_ground_truth(path, n):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rel = {}
    for lineno, line in enumerate(lines):
        query, ids = _id_line(line, lineno)
        if not ids:
            raise FormatError(f"line {lineno + 1}: empty relevant set for query {query}")
        if query in rel:
            raise FormatError(f"line {lineno + 1}: duplicate query {query}")
        for i in [query, *ids]:
            if not 0 <= i < n:
                raise FormatError(f"line {lineno + 1}: id {i} out of range [0, {n})")
        rel[query] = ids
    return GroundTruth(rel)


def save_ground_truth(gt, path):
    atomic_write_text(path, id_lines((q, sorted(gt.relevant[q])) for q in gt.queries))


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense per-image feature vectors, one row per image id."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("feature rows must form a 2-d array")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("feature entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def dims(self):
        return self.rows.shape[1]


@_names_file
def load_feature_matrix(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        n, dims = map(_parse_int, lines[0].split())
        if n < 0 or dims < 0:
            raise ValueError
    except (IndexError, ValueError):
        raise FormatError("line 1: header must be '<n> <dims>'") from None
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} rows, got {len(lines) - 1}")
    rows = np.empty((n, dims), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        vals = line.split()
        if len(vals) != dims:
            raise FormatError(f"line {i + 2}: expected {dims} values, got {len(vals)}")
        if not all(map(_FLOAT_TOKEN.fullmatch, vals)):
            raise FormatError(f"line {i + 2}: non-numeric value")
        rows[i] = [float(v) for v in vals]
        if not np.isfinite(rows[i]).all():
            raise FormatError(f"line {i + 2}: non-finite value")
    return FeatureMatrix(rows)


def save_feature_matrix(matrix, path):
    out = [f"{matrix.n} {matrix.dims}"]
    for row in matrix.rows:
        out.append(" ".join(f"{x:.17g}" for x in row))
    atomic_write_text(path, "".join(line + "\n" for line in out))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the grouped synthetic corpus.

    A group is coherent in a feature space with probability `agreement`;
    members of an incoherent group are scattered around independent decoy
    centroids, so that space carries no signal about the group.
    """

    n_groups: int
    group_size: int = 4
    dims: int = 8
    n_spaces: int = 2
    intra_spread: float = 0.1
    inter_spread: float = 1.0
    agreement: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_groups < 1 or self.group_size < 1 or self.dims < 1 or self.n_spaces < 1:
            raise ValueError("counts must be positive")
        if not 0.0 <= self.agreement <= 1.0:
            raise ValueError("agreement must lie in [0, 1]")
        if not 0 < self.intra_spread < self.inter_spread:
            raise ValueError("require 0 < intra_spread < inter_spread")

    @property
    def n(self):
        return self.n_groups * self.group_size


def synth_generate(spec):
    """Generate one FeatureMatrix per space plus the group GroundTruth.

    Deterministic for a fixed seed: all randomness flows through one
    generator with a fixed draw order.
    """
    rng = np.random.default_rng(spec.seed)
    spaces = []
    for _ in range(spec.n_spaces):
        centroids = rng.normal(0.0, spec.inter_spread, (spec.n_groups, spec.dims))
        coherent = rng.random(spec.n_groups) < spec.agreement
        rows = np.empty((spec.n, spec.dims))
        for g in range(spec.n_groups):
            base = g * spec.group_size
            if coherent[g]:
                offsets = rng.normal(0.0, spec.intra_spread, (spec.group_size, spec.dims))
                rows[base : base + spec.group_size] = centroids[g] + offsets
            else:
                for m in range(spec.group_size):
                    decoy = rng.normal(0.0, spec.inter_spread, spec.dims)
                    rows[base + m] = decoy + rng.normal(0.0, spec.intra_spread, spec.dims)
        spaces.append(FeatureMatrix(rows))
    relevant = {}
    for g in range(spec.n_groups):
        members = frozenset(range(g * spec.group_size, (g + 1) * spec.group_size))
        for i in members:
            relevant[i] = members
    return spaces, GroundTruth(relevant)
