"""Desk-scale feature backend: P6 pixmap decoding, HSV color histograms,
histogram normalization, and exact nearest-neighbor rank tables.

HSV uses the standard hexcone model with H in [0, 360) and S, V in [0, 1];
gray pixels (undefined hue) fall into hue bin 0. Bin edges are uniform per
channel. These conventions are fixed for reproducibility.

A rank table lists every other image by squared Euclidean distance, closest
first; equal distances break by ascending id, and the owner is always left
out, even when overflowed distances are `inf` like its own diagonal entry.
The order comes from a fast unstable argsort of each distance row; only rows
that hold two equal distances are sorted again with a stable sort, since a
row of distinct values has exactly one sorted order. Distances are computed
in blocks of `_BLOCK` = 32 rows, so that a block's (32, n, dims) difference
array stays in cache; every distance is bit-equal at any block size.

A P6 header is `P6`, then width, height and maxval, each the next
non-whitespace run not starting with `#` (a `#` there opens a comment to the
end of its line), read by `corpus_io`'s integer rule; one whitespace byte ends
it. `load_ppm`'s errors start with the path: `<path>: ...`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus_io import FeatureMatrix, FormatError, RankTable, _names_file, _parse_int

__all__ = [
    "RawImage",
    "load_ppm",
    "hsv_histogram",
    "normalize_histogram",
    "build_rank_table",
    "features_from_manifest",
]

_BLOCK = 32  # rows per distance block; keeps the (block, n, dims) difference array in cache


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


def _pairwise_sq_dists(rows):
    n = rows.shape[0]
    d2 = np.empty((n, n))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        diff = rows[start:stop, None, :] - rows[None, :, :]
        d2[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return d2


def _neighbor_order(rows):
    """Each row's other ids by (distance, id); the n x n distances die on return."""
    d2 = _pairwise_sq_dists(rows)
    # inf, not NaN: a NaN row sends numpy's unstable argsort to a slow path
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1)
    dist = np.sort(d2, axis=1)
    # an owner whose inf equals overflowed distances makes its row tied too
    tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
    if tied.size:
        # NaN sorts after every distance, so the owner is last even among infs
        d2[tied, tied] = np.nan
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")
    return order[:, :-1]


def build_rank_table(features):
    """Exact Euclidean nearest-neighbor orderings; distance ties break by ascending id.

    The owner is never in its own list. Rows are ordered by an unstable
    argsort, and a sort of the distance values finds the rows that hold
    equal distances; only those are re-sorted stably, so the result equals
    a stable argsort with the owner placed last. The worst case, every row tied, costs one unstable
    argsort and the tie check on top of that stable argsort.
    """
    if features.n < 2:
        raise ValueError("need at least 2 images to build a rank table")
    return RankTable(_neighbor_order(features.rows))


def features_from_manifest(paths, bins_per_channel=10, exponent=0.5):
    """Histogram + normalize every image listed in id order."""
    rows = [
        normalize_histogram(hsv_histogram(load_ppm(p), bins_per_channel), exponent)
        for p in paths
    ]
    return FeatureMatrix(np.vstack(rows))
