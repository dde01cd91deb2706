"""Core corpus data model, on-disk text formats, and synthetic corpus generation.

Image ids are dense integers in [0, n). A rank table stores, for every image
used as a query, its full retrieval ordering over the rest of the corpus, as
int32; truncation to the k nearest neighbors happens later, at
graph-construction time, so a single table supports any k sweep.

Rank-table, ground-truth and ranked-list files share one line format,
`owner: id id ...`, written by `id_lines_text`. Rank-table and ground-truth
files are read by `_id_line`: each line is parsed once. Every loader (and
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
"""

from __future__ import annotations

import functools
import operator
import os
import re
import warnings
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
    """Write `text` to `path` atomically (write to a sibling temp file, rename).

    On failure the temp file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def id_lines_text(rows, header=None):
    """An `owner: id id ...` line per (owner, ids) pair after an optional `# header`.

    Rank-table, ground-truth and ranked-list files all use it; an empty list
    is written as `owner:`.
    """
    lines = [f"# {header}"] if header else []
    lines += [" ".join([f"{owner}:", *map(str, ids)]) for owner, ids in rows]
    return "".join(line + "\n" for line in lines)


_SCATTER = 1 << 18  # list entries per row block of a scatter: 2 MB as an intp index


def _row_blocks(n, width):
    """Row slices of an n-row table with `width` entries a row, each of at
    most `_SCATTER` entries (or one row).

    Fancy indexing with an int32 array first makes an intp copy of it; a
    scatter over one block at a time keeps that copy to one block's size.
    """
    step = max(1, _SCATTER // max(width, 1))
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
    row by row, to name its first bad list.
    """
    for rows in _row_blocks(len(lists), n - 1):
        block = lists[rows]
        local = np.arange(len(block))
        owners = local + rows.start
        if block.min() >= 0 and block.max() < n:
            seen = np.zeros((len(block), n), dtype=bool)
            seen[local[:, None], block] = True
            if np.count_nonzero(seen) == block.size and not seen[local, owners].any():
                continue
        for owner, row in zip(owners.tolist(), block):
            fault = _list_fault(row, owner, n)
            if fault:
                raise ValueError(f"rank list {owner}: {fault}")


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

        Scattered one block of rows at a time (`_row_blocks`).
        """
        n = self.n
        pos = np.zeros((n, n), dtype=np.int32)
        ranks = np.arange(1, n, dtype=np.int32)
        for rows in _row_blocks(n, n - 1):
            block = self.lists[rows]
            pos[rows][np.arange(len(block))[:, None], block] = ranks
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


@_names_file
def load_rank_table(path):
    """Parse a rank-table file: line i is `i:` and then the n - 1 other ids.

    Owner order and the id count are checked line by line. Each line's ids
    are range-checked as int64 and written straight into the int32 table,
    whose lists `RankTable` then checks.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
    return RankTable._adopt(lists)


def save_rank_table(table, path):
    rows = ((i, row.tolist()) for i, row in enumerate(table.lists))
    atomic_write_text(path, id_lines_text(rows))


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
