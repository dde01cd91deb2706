"""Desk-scale feature backend: P6 pixmap decoding, HSV color histograms,
histogram normalization, and exact nearest-neighbor rank tables.

HSV uses the standard hexcone model with H in [0, 360) and S, V in [0, 1];
gray pixels (undefined hue) fall into hue bin 0. Bin edges are uniform per
channel. These conventions are fixed for reproducibility.

A rank table lists every other image by squared Euclidean distance, closest
first; equal distances break by ascending id, and the owner is always left
out, even when overflowed distances are `inf` like its own diagonal entry.
`build_rank_table` works through the rows in blocks on one thread per core
(`corpus_io._on_cores`). Its time goes to numpy's subtract, einsum, argsort
and sort, which release the GIL, so the blocks run in parallel. The rows in
flight stay `_BLOCK` = 32 however many workers there are (a block is
`_BLOCK // workers` rows), so the difference arrays stay in cache and no
n x n array is ever made; every distance is bit-equal at any block size. The
calling thread allocates one set of block buffers per worker, which each
block fills in place: temporaries freed in a worker thread stay in that
thread's malloc arena, and blocks that made their own raised the peak RSS of
two n = 2 000 builds by 10 %. A block's distances get an unstable argsort;
only rows that hold two equal distances are sorted again with a stable sort,
since a row of distinct values has exactly one sorted order. Each block's
order is written straight into its own rows of the table's lists (int16 up
to n = 32 768, int32 beyond), which the table keeps uncopied; one pass over
them checks them and makes the table's `positions`.

A P6 header is `P6`, then width, height and maxval, each the next
non-whitespace run not starting with `#` (a `#` there opens a comment to the
end of its line), read by `corpus_io`'s integer rule; one whitespace byte ends
it. `load_ppm`'s errors start with the path: `<path>: ...`.
"""

from __future__ import annotations

import queue
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus_io
from .corpus_io import FeatureMatrix, FormatError, RankTable, _names_file, _on_cores, _parse_int

__all__ = [
    "RawImage",
    "load_ppm",
    "hsv_histogram",
    "normalize_histogram",
    "build_rank_table",
    "features_from_manifest",
]

_BLOCK = 32  # rows in flight across all workers; keeps the difference arrays in cache


@dataclass(frozen=True)
class RawImage:
    """Decoded 8-bit RGB image; pixels has shape (height, width, 3)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=np.uint8)
        if arr.shape != (self.height, self.width, 3):
            raise ValueError("pixel buffer does not match width*height RGB triples")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)


# whitespace and comments, then one token; matched once per token, as one
# pattern for all three tokens backtracks to split a token when fewer follow
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


@_names_file
def load_ppm(path):
    """Decode a binary P6 portable pixmap with maxval 255."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise FormatError(f"unsupported pixmap magic {data[:2]!r} (need binary 'P6')")
    pos, fields = 2, []
    for _ in range(3):
        token = _HEADER_TOKEN.match(data, pos)
        if not token:
            raise FormatError("truncated pixmap header")
        fields.append(_parse_int(token[1].decode("latin-1"), f"bad header token {token[1]!r}"))
        pos = token.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (need 255)")
    pos += 1  # single whitespace byte terminates the header
    need = width * height * 3
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise FormatError(f"truncated payload ({len(payload)} of {need} bytes)")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RawImage(width, height, pixels)


def _rgb_to_hsv(rgb):
    """Vectorized hexcone conversion; rgb in [0, 1], returns (h_deg, s, v)."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.max(rgb, axis=-1)
    mn = np.min(rgb, axis=-1)
    delta = mx - mn
    v = mx
    s = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    h = np.zeros_like(mx)
    nz = delta > 0
    safe = np.where(nz, delta, 1.0)
    rmax = nz & (mx == r)
    gmax = nz & ~rmax & (mx == g)
    bmax = nz & ~rmax & ~gmax
    h = np.where(rmax, (g - b) / safe, h)
    h = np.where(gmax, 2.0 + (b - r) / safe, h)
    h = np.where(bmax, 4.0 + (r - g) / safe, h)
    h = (h * 60.0) % 360.0
    return h, s, v


def hsv_histogram(img, bins_per_channel=10):
    """Joint HSV histogram with bins_per_channel^3 cells; sums to the pixel count."""
    b = int(bins_per_channel)
    if b < 1:
        raise ValueError("bins_per_channel must be >= 1")
    rgb = img.pixels.reshape(-1, 3).astype(np.float64) / 255.0
    h, s, v = _rgb_to_hsv(rgb)
    hb = np.minimum((h / 360.0 * b).astype(np.int64), b - 1)
    sb = np.minimum((s * b).astype(np.int64), b - 1)
    vb = np.minimum((v * b).astype(np.int64), b - 1)
    idx = (hb * b + sb) * b + vb
    return np.bincount(idx, minlength=b**3).astype(np.float64)


def normalize_histogram(v, exponent=0.5):
    """L1-normalize then power-scale (default square root, giving unit L2)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size and v.min() < 0:
        raise ValueError("histogram entries must be non-negative")
    total = v.sum()
    if total <= 0:
        raise ValueError("cannot normalize an all-zero histogram")
    return (v / total) ** exponent


def _order_rows(rows, start, diff, d2, dist):
    """Every id's order by distance from each of rows[start:start + len(d2)],
    the owner last, filling the given buffers (cut to the rows left)."""
    stop = min(start + len(d2), len(rows))
    diff, d2, dist = diff[: stop - start], d2[: stop - start], dist[: stop - start]
    np.subtract(rows[start:stop, None, :], rows[None, :, :], out=diff)
    np.einsum("ijk,ijk->ij", diff, diff, out=d2)
    local = np.arange(stop - start)
    # inf, not NaN: a NaN row sends numpy's unstable argsort to a slow path
    d2[local, local + start] = np.inf
    order = np.argsort(d2, axis=1)
    np.copyto(dist, d2)
    dist.sort(axis=1)
    # an owner whose inf equals overflowed distances makes its row tied too
    tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
    if tied.size:
        # NaN sorts after every distance, so the owner is last even among infs
        d2[tied, tied + start] = np.nan
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")
    return order[:, :-1]


def build_rank_table(features):
    """Exact Euclidean nearest-neighbor orderings; distance ties break by ascending id.

    The owner is never in its own list. Each block of rows is ordered by an
    unstable argsort, and a sort of the distance values finds the rows that
    hold equal distances; only those are re-sorted stably, so the result
    equals a stable argsort with the owner placed last. The worst case,
    every row tied, costs one unstable argsort and the tie check on top of
    that stable argsort.
    """
    if features.n < 2:
        raise ValueError("need at least 2 images to build a rank table")
    rows = features.rows
    n, dims = rows.shape
    lists = np.empty((n, n - 1), dtype=corpus_io._id_dtype(n))
    workers = corpus_io._WORKERS
    step = max(1, _BLOCK // workers)
    # made here, not in the workers, whose malloc arenas would keep them
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty((step, n, dims)), np.empty((step, n)), np.empty((step, n))))

    def fill(start):
        bufs = buffers.get()
        try:
            lists[start : start + step] = _order_rows(rows, start, *bufs)
        finally:
            buffers.put(bufs)

    _on_cores(fill, range(0, n, step))
    del buffers  # freed before the table makes its positions
    return RankTable._adopt(lists)


def features_from_manifest(paths, bins_per_channel=10, exponent=0.5):
    """Histogram + normalize every image listed in id order; an empty list raises ValueError."""
    rows = [
        normalize_histogram(hsv_histogram(load_ppm(p), bins_per_channel), exponent)
        for p in paths
    ]
    if not rows:
        raise ValueError("the manifest lists no images")
    return FeatureMatrix(np.vstack(rows))
