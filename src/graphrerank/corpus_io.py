"""Core corpus data model, on-disk text formats, and synthetic corpus generation.

Image ids are dense integers in [0, n). A rank table stores, for every image
used as a query, its full retrieval ordering over the rest of the corpus, as
int32; truncation to the k nearest neighbors happens later, at
graph-construction time, so a single table supports any k sweep.

Rank-table, ground-truth and ranked-list files share one line format,
`owner: id id ...`, written a line at a time by `id_lines`. A rank-table
file in the canonical form it writes (line i is `i: id id ... id` and a
newline: ASCII digits, single spaces, a final newline) is decoded in blocks
of whole lines on the workers. Any other rank-table text, and canonical
text that fails any of that decoder's checks, is parsed as a whole, line by
line, as are ground-truth files: `_id_line` parses each line once. Both
paths give the same table and the same errors. Every loader (and
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

The block decode of canonical rank-table text, a rank table's permutation
check and its `positions` scatter run their blocks on one thread per core
(`_on_cores`; `_WORKERS` is the number of cores this process may run on),
as `features.build_rank_table` does. Their numpy kernels release the GIL,
so the blocks run in parallel; the blocks the workers hold at once total
`_SCATTER` entries, or about `_SCATTER` bytes of text.
Graph building, fusion, ranking and scoring stay serial: their per-query
Python loops hold the GIL, and a thread pool made `evaluate` slower (21.5 s
against 17.3 s serial, directed k = 60).
"""

from __future__ import annotations

import functools
import operator
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
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
    "id_lines_text",
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


def id_lines_text(rows, header=None):
    """`id_lines` joined into one str."""
    return "".join(id_lines(rows, header))


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

    Fancy indexing with an int32 array first makes an intp copy of it; a
    scatter over one block at a time keeps that copy to one block's size,
    and the blocks the workers hold at once to `_SCATTER` entries.
    """
    step = max(1, _SCATTER // _WORKERS // max(width, 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def _list_fault(row, owner, n):
    """Why `row` is not a permutation of the ids [0, n) but `owner`, or None."""
    row = np.sort(row)
    if row.size and (row[0] < 0 or row[-1] >= n):
        return f"id {row[0] if row[0] < 0 else row[-1]} out of range [0, {n})"
    if np.count_nonzero(row == owner):
        return f"contains its owner {owner}"
    dup = row[1:][row[1:] == row[:-1]]
    return f"duplicate id {dup[0]}" if dup.size else None


def _check_lists(lists, n):
    """Raise `rank list i: <fault>` for the first row i of `lists` that is
    not a permutation of the ids [0, n) but i.

    Each block of rows is range-checked in its own dtype first. In range, a
    (rows, n) scatter marks rows * (n - 1) distinct (row, id) pairs exactly
    when no row repeats an id, and then a row that holds its owner misses
    another id. No sort is needed: only a block that fails is read again,
    row by row, to name its first bad list. The blocks are checked on the
    workers (`_on_cores`), and the first fault in row order is raised.
    """
    def block_fault(rows):
        block = lists[rows]
        local = np.arange(len(block))
        owners = local + rows.start
        if block.min() >= 0 and block.max() < n:
            seen = np.zeros((len(block), n), dtype=bool)
            seen[local[:, None], block] = True
            if np.count_nonzero(seen) == block.size and not seen[local, owners].any():
                return None
        for owner, row in zip(owners.tolist(), block):
            fault = _list_fault(row, owner, n)
            if fault:
                return f"rank list {owner}: {fault}"
        return None

    for fault in _on_cores(block_fault, _row_blocks(len(lists), n - 1)):
        if fault:
            raise ValueError(fault)


def _check_table(arr):
    """`RankTable`'s checks of an integer array, in its own dtype."""
    if arr.ndim != 2:
        raise ValueError("rank lists must form a 2-d array")
    n = arr.shape[0]
    if arr.shape[1] != max(n - 1, 0):
        raise ValueError(f"each rank list must have length {max(n - 1, 0)}")
    if n > 1:
        _check_lists(arr, n)


@dataclass(frozen=True)
class RankTable:
    """Full retrieval orderings for an n-image corpus.

    `lists[i]` is a permutation of all ids except i itself, closest first;
    a rejection names the first list that is not, and why (TypeError for a
    non-integer dtype). The ids are checked in the dtype they come in and
    only then stored as read-only int32, so an id beyond int32 cannot wrap
    into range. Immutable: the input, a caller's int32 array too, is
    copied once.
    """

    lists: np.ndarray

    def __post_init__(self):
        arr = _int_array(self.lists)
        _check_table(arr)
        lists = arr.astype(np.int32)
        lists.setflags(write=False)
        object.__setattr__(self, "lists", lists)

    @classmethod
    def _adopt(cls, lists):
        """`RankTable(lists)` for an int32 array that only its maker holds: checked, not copied."""
        _check_table(lists)
        lists.setflags(write=False)
        table = object.__new__(cls)
        object.__setattr__(table, "lists", lists)
        return table

    @property
    def n(self):
        return self.lists.shape[0]

    @cached_property
    def positions(self):
        """(n, n) read-only int32 matrix of 1-based list positions; positions[i, i] = 0.

        Scattered one block of rows at a time (`_row_blocks`), the blocks
        on the workers (`_on_cores`); each writes only its own rows.
        """
        n = self.n
        pos = np.zeros((n, n), dtype=np.int32)
        ranks = np.arange(1, n, dtype=np.int32)

        def scatter(rows):
            block = self.lists[rows]
            pos[rows][np.arange(len(block))[:, None], block] = ranks

        _on_cores(scatter, _row_blocks(n, n - 1))
        pos.setflags(write=False)
        return pos

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
    """One `owner: id id ...` line as (owner, int64 ids); a bad line raises its `FormatError`."""
    head, sep, tail = line.partition(":")
    if not sep:
        raise FormatError(f"line {lineno + 1}: missing ':' separator")
    owner = _parse_int(head.strip(), f"line {lineno + 1}: bad owner id {head!r}")
    if not tail or tail.isspace():
        return owner, np.empty(0, dtype=np.int64)
    # numpy reads some non-ASCII letters as digits, and older numpy reads a
    # token it cannot parse as an int through float, with only a warning
    if tail.isascii():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return owner, np.loadtxt([tail], dtype=np.int64, comments=None, ndmin=1)
        except (ValueError, Warning):
            if all(_INT_TOKEN.fullmatch(tok) for tok in tail.split()):
                raise FormatError(f"line {lineno + 1}: id out of range") from None
    raise FormatError(f"line {lineno + 1}: non-integer id")


def _canonical_lists(data):
    """The int32 lists of canonical rank-table bytes, or None for any other bytes.

    Canonical text is what `id_lines` writes for n >= 2 images: line i is
    `i: ` and then n - 1 ids, each 1 to 9 ASCII digits, one space apart, and
    a newline. The bytes are cut into blocks of whole lines of about
    `_SCATTER // _WORKERS` bytes. Each block's count of lines places its
    rows. The workers (`_on_cores`) decode the blocks with numpy alone: each
    checks its separators and token widths, reads the tokens by Horner's
    rule, checks that each owner is its line index and each id below n, and
    writes its rows of the lists. `RankTable` checks that they are
    permutations. Any deviation gives None, and the caller then parses the
    whole file line by line.
    """
    if not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    budget = max(1, _SCATTER // _WORKERS)
    cuts = [0]
    while cuts[-1] < len(data):
        cuts.append(data.find(b"\n", cuts[-1] + budget - 1) + 1 or len(data))
    blocks = list(zip(cuts, cuts[1:]))
    # counted here: on the pool, blocks this small cost more to hand out than to count
    counts = [int(np.count_nonzero(buf[start:stop] == 10)) for start, stop in blocks]
    n = sum(counts)
    if n < 2 or len(data) < n * (2 * n + 1):  # a canonical line holds at least 2n + 1 bytes
        return None
    lists = np.empty((n, n - 1), dtype=np.int32)
    # the separators of one line: ':' and ' ' after the owner, ' ' between ids, '\n'
    line_seps = np.frombuffer(b": " + b" " * (n - 2) + b"\n", dtype=np.uint8)

    def decode(job):
        (start, stop), first, m = job
        text = buf[start:stop]
        digit = text - 48  # uint8: any byte but an ASCII digit lands above 9
        sep = np.flatnonzero(digit > 9)
        if sep.size != m * (n + 1) or (text[sep].reshape(m, n + 1) != line_seps).any():
            return False
        width = np.diff(sep, prepend=-1).reshape(m, n + 1) - 1  # digits before each separator
        if width[:, 1].any():  # the space right after the ':'
            return False
        width = np.delete(width, 1, axis=1)  # (m, n): the owner, then the ids
        if width.min() < 1 or width.max() > 9:
            return False
        end = np.delete(sep.reshape(m, n + 1), 1, axis=1)  # the separator after each token
        lead = end - width - 1  # the separator before it (the block's last '\n' for its first)
        digit[sep] = 0
        # Horner's rule over each token's last `width.max()` digits; a digit
        # index before the token is clamped onto the zeroed separator
        value = np.zeros((m, n), dtype=np.int32)
        at = np.empty_like(end)
        for k in range(width.max(), 0, -1):
            np.maximum(np.subtract(end, k, out=at), lead, out=at)
            value *= 10
            value += digit[at]
        if (value[:, 0] != np.arange(first, first + m)).any() or value[:, 1:].max() >= n:
            return False
        lists[first:first + m] = value[:, 1:]
        return True

    firsts = np.cumsum([0, *counts[:-1]]).tolist()
    return lists if all(_on_cores(decode, zip(blocks, firsts, counts))) else None


def _parsed_lists(lines):
    """The int32 lists of rank-table lines, parsed line by line.

    Owner order and the id count are checked line by line. Each line's ids
    are range-checked as int64 and written straight into the int32 lists.
    """
    n = len(lines)
    lists = np.empty((n, max(n - 1, 0)), dtype=np.int32)
    wide = None  # the first line with an id outside [0, n), kept in int64 to name it
    for lineno, line in enumerate(lines):
        owner, ids = _id_line(line, lineno)
        if owner != lineno:
            raise FormatError(f"line {lineno + 1}: owner id {owner} out of order")
        if len(ids) != n - 1:
            raise FormatError(f"line {lineno + 1}: expected {n - 1} ids, got {len(ids)}")
        if wide is None:
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                wide = lineno, ids
            else:
                lists[lineno] = ids
    if wide is not None:
        # as `RankTable` would: a bad list before it is named first
        owner, ids = wide
        _check_lists(lists[:owner], n)
        raise FormatError(f"rank list {owner}: {_list_fault(ids, owner, n)}")
    return lists


@_names_file
def load_rank_table(path):
    """Parse a rank-table file: line i is `i:` and then the n - 1 other ids.

    The file is read once, as bytes. Text in canonical form, which every
    writer here emits, is decoded in blocks of lines on the workers
    (`_canonical_lists`). Any other text, and canonical text with a bad
    owner, count or id anywhere, is decoded as UTF-8 and parsed line by
    line (`_parsed_lists`). Both give the same table and the same errors.
    `RankTable` then checks the lists.
    """
    data = Path(path).read_bytes()
    lists = _canonical_lists(data)
    if lists is None:
        lists = _parsed_lists(data.decode("utf-8").splitlines())
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
        if not ids.size:
            raise FormatError(f"line {lineno + 1}: empty relevant set for query {query}")
        if query in rel:
            raise FormatError(f"line {lineno + 1}: duplicate query {query}")
        for i in [query, *ids[(ids < 0) | (ids >= n)]]:
            if not 0 <= i < n:
                raise FormatError(f"line {lineno + 1}: id {i} out of range [0, {n})")
        rel[query] = ids
    return GroundTruth(rel)


def save_ground_truth(gt, path):
    atomic_write_text(path, id_lines_text((q, sorted(gt.relevant[q])) for q in gt.queries))


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
