import colorsys
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphrerank import corpus_io, features
from graphrerank.corpus_io import FeatureMatrix, FormatError
from graphrerank.features import (
    RawImage,
    build_rank_table,
    hsv_histogram,
    load_ppm,
    normalize_histogram,
)


def write_ppm(path, pixels, maxval=255, magic=b"P6"):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w, _ = pixels.shape
    path.write_bytes(magic + f"\n{w} {h}\n{maxval}\n".encode() + pixels.tobytes())


def reference_decode_ppm(data):
    """Naive independent P6 decoder used as an oracle."""
    assert data[:2] == b"P6"
    fields = []
    i = 2
    while len(fields) < 3:
        while data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while not data[j : j + 1].isspace():
            j += 1
        fields.append(int(data[i:j]))
        i = j
    w, h, maxval = fields
    assert maxval == 255
    i += 1
    return w, h, list(data[i : i + w * h * 3])


ASCII_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def p6_files(draw):
    """A valid P6 file: separators mix the six ASCII whitespace bytes and
    `#...\n` comments; the one after `P6` may be empty or open with a comment."""
    whitespace = st.sampled_from(ASCII_WHITESPACE)
    comment = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")

    def separator(first):
        pieces = draw(st.lists(st.one_of(whitespace, comment), max_size=3))
        # after a token, a `#` would continue it, so whitespace must come first
        return b"".join(pieces if first else [draw(whitespace), *pieces])

    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    header = b"P6"
    for i, value in enumerate([w, h, 255]):
        prefix = draw(st.sampled_from([b"", b"+", b"0", b"+00"]))
        header += separator(i == 0) + prefix + str(value).encode()
    payload = draw(st.binary(min_size=w * h * 3, max_size=w * h * 3 + 2))
    return header + draw(whitespace) + payload


class TestLoadPpm:
    @settings(max_examples=300, deadline=None)
    @given(data=p6_files())
    def test_valid_files_match_reference_decoder(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("ppm") / "p.ppm"
        path.write_bytes(data)
        w, h, flat = reference_decode_ppm(data)
        img = load_ppm(path)
        assert (img.width, img.height) == (w, h)
        assert list(img.pixels.reshape(-1)) == flat

    # a comment right after P6, a width straight after it, rarer whitespace bytes
    @pytest.mark.parametrize("header", [b"P6#c\n1 1 255\n", b"P61 1 255\n", b"P6\t1\x0b1 #x\n255\r"])
    def test_header_edge_cases_match_reference_decoder(self, tmp_path, header):
        data = header + b"\x01\x02\x03"
        path = tmp_path / "e.ppm"
        path.write_bytes(data)
        w, h, flat = reference_decode_ppm(data)
        img = load_ppm(path)
        assert (img.width, img.height, list(img.pixels.reshape(-1))) == (w, h, flat)

    @pytest.mark.parametrize("data, message", [
        (b"P6 1 1 #no newline", "truncated pixmap header"),
        (b"P6 1\n# eof in a comment", "truncated pixmap header"),
        (b"P6 1#2 1 255\n\x00\x00\x00", "bad header token b'1#2'"),
    ])
    def test_header_messages(self, tmp_path, data, message):
        path = tmp_path / "m.ppm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_ppm(path)

    @pytest.mark.parametrize("data", [b"P6 1", b"P3 1 1 255\n\x00\x00\x00", b"P6 1 1 255\n\x00"])
    def test_errors_start_with_path(self, tmp_path, data):
        path = tmp_path / "p.ppm"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            load_ppm(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "red.ppm"
        write_ppm(path, [[[255, 0, 0]]])
        img = load_ppm(path)
        assert (img.width, img.height) == (1, 1)
        assert list(img.pixels[0, 0]) == [255, 0, 0]

    def test_ascii_p3_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        write_ppm(path, [[[255, 0, 0]]], magic=b"P3")
        with pytest.raises(FormatError, match="P3"):
            load_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        write_ppm(path, [[[255, 0, 0]]], maxval=65535)
        with pytest.raises(FormatError, match="maxval"):
            load_ppm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(FormatError, match="truncated"):
            load_ppm(path)

    def test_underscore_header_token_rejected(self, tmp_path):
        # `int(b"1_0")` alone is 10, which would read this as a 10 x 1 image
        path = tmp_path / "u.ppm"
        path.write_bytes(b"P6 1_0 1 255\n" + b"\x00" * 30)
        with pytest.raises(FormatError, match="bad header token"):
            load_ppm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        img = load_ppm(path)
        assert list(img.pixels[0, 0]) == [1, 2, 3]

    def test_checkerboard_matches_reference_decoder(self, tmp_path):
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
        path = tmp_path / "cb.ppm"
        write_ppm(path, pixels)
        w, h, flat = reference_decode_ppm(path.read_bytes())
        img = load_ppm(path)
        assert (img.width, img.height) == (w, h)
        assert list(img.pixels.reshape(-1)) == flat


class TestHsvHistogram:
    def test_pure_red_single_bin(self):
        img = RawImage(3, 2, np.full((2, 3, 3), [255, 0, 0], dtype=np.uint8))
        hist = hsv_histogram(img, 10)
        assert hist.sum() == 6
        assert (hist > 0).sum() == 1

    def test_pure_gray_single_bin(self):
        img = RawImage(2, 2, np.full((2, 2, 3), 128, dtype=np.uint8))
        hist = hsv_histogram(img, 10)
        assert (hist > 0).sum() == 1
        # undefined hue maps to hue bin 0; saturation is 0
        idx = int(np.nonzero(hist)[0][0])
        assert idx < 10  # hue bin 0, saturation bin 0

    def test_random_image_mass_equals_pixel_count(self):
        rng = np.random.default_rng(0)
        img = RawImage(4, 4, rng.integers(0, 256, (4, 4, 3), dtype=np.uint8))
        assert hsv_histogram(img, 10).sum() == 16

    def test_default_dimensionality_is_1000(self):
        img = RawImage(1, 1, np.zeros((1, 1, 3), dtype=np.uint8))
        assert hsv_histogram(img).shape == (1000,)

    def test_hue_convention_matches_colorsys(self):
        rng = np.random.default_rng(4)
        for rgb in rng.integers(0, 256, (50, 3)):
            img = RawImage(1, 1, np.array([[rgb]], dtype=np.uint8))
            hist = hsv_histogram(img, 10)
            h, s, v = colorsys.rgb_to_hsv(*(rgb / 255.0))
            expected = (
                min(int(h * 10), 9) * 100 + min(int(s * 10), 9) * 10 + min(int(v * 10), 9)
            )
            assert hist[expected] == 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9), bins=st.integers(1, 6))
    def test_mass_conservation_property(self, seed, bins):
        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        img = RawImage(w, h, rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        hist = hsv_histogram(img, bins)
        assert hist.sum() == w * h
        assert hist.shape == (bins**3,)


class TestNormalizeHistogram:
    def test_single_bin_fixed_point(self):
        assert list(normalize_histogram([1, 0, 0])) == [1.0, 0.0, 0.0]

    def test_uniform_four_bins(self):
        np.testing.assert_allclose(normalize_histogram([1, 1, 1, 1]), [0.5] * 4)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize_histogram([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_histogram([1.0, -1.0])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_output_has_unit_l2_norm(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.random(int(rng.integers(1, 50))) * rng.integers(1, 100)
        v[0] += 1e-9  # keep the sum positive
        out = normalize_histogram(v)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_configurable_exponent(self):
        np.testing.assert_allclose(
            normalize_histogram([1, 1, 1, 1], exponent=1.0), [0.25] * 4
        )


class TestBuildRankTable:
    def test_collinear_points(self):
        table = build_rank_table(FeatureMatrix([[0.0], [1.0], [3.0]]))
        assert list(table.lists[0]) == [1, 2]
        assert list(table.lists[1]) == [0, 2]
        assert list(table.lists[2]) == [1, 0]

    def test_tie_breaks_by_ascending_id(self):
        table = build_rank_table(FeatureMatrix([[5.0], [0.0], [0.0], [0.0]]))
        # rows 1, 2, 3 identical: all at distance 0 from each other
        assert list(table.lists[1]) == [2, 3, 0]
        assert list(table.lists[3]) == [1, 2, 0]

    def test_matches_brute_force_distance_matrix(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(50, 8))
        table = build_rank_table(FeatureMatrix(rows))
        for i in range(50):
            dists = [
                (float(np.linalg.norm(rows[i] - rows[j])), j)
                for j in range(50)
                if j != i
            ]
            expected = [j for _, j in sorted(dists)]
            assert list(table.lists[i]) == expected

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(20, 5))
        shifted = rows + rng.normal(size=5)
        a = build_rank_table(FeatureMatrix(rows))
        b = build_rank_table(FeatureMatrix(shifted))
        assert np.array_equal(a.lists, b.lists)

    def test_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_rank_table(FeatureMatrix([[1.0]]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_output_is_valid_rank_table(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        table = build_rank_table(FeatureMatrix(rng.normal(size=(n, 3))))
        # RankTable validates the permutation property on construction
        assert table.n == n

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_build_holds_no_n_by_n_temporaries(self, monkeypatch, workers):
        # one (1000, 1000) float64 array alone is 7.6 MiB, and the table the
        # build returns (int16 up to n = 32 768, int32 beyond) is 1.9 MiB;
        # the rows in flight stay `_BLOCK` however many workers build them
        monkeypatch.setattr(corpus_io, "_WORKERS", workers)
        matrix = FeatureMatrix(np.random.default_rng(4).normal(size=(1000, 8)))
        tracemalloc.start()
        try:
            build_rank_table(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_chunked_blocks_match_single_block(self, monkeypatch, workers):
        monkeypatch.setattr(corpus_io, "_WORKERS", workers)
        assert 300 > features._BLOCK  # several distance blocks; the reference is one argsort
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(300, 4))
        d2 = ((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        want = np.argsort(d2, axis=1, kind="stable")[:, :299]
        assert np.array_equal(build_rank_table(FeatureMatrix(rows)).lists, want)


def stable_sort_oracle(rows):
    """Stable argsort of the full squared-distance matrix, owner dropped."""
    n = len(rows)
    d2 = ((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, : n - 1]


class TestRankTableTies:
    """Ties break by ascending id, exactly as a stable argsort orders them."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        dims=st.integers(1, 3),
        seed=st.integers(0, 10**9),
    )
    def test_equals_stable_sort_on_tie_heavy_input(self, n, dims, seed):
        # integer coordinates give exact integer distances, so summation
        # order cannot matter and many rows hold exact ties
        rows = np.random.default_rng(seed).integers(0, 3, size=(n, dims)).astype(float)
        got = build_rank_table(FeatureMatrix(rows)).lists
        assert np.array_equal(got, stable_sort_oracle(rows))

    def test_all_rows_identical(self):
        got = build_rank_table(FeatureMatrix(np.ones((40, 2)))).lists
        assert np.array_equal(got, stable_sort_oracle(np.ones((40, 2))))

    def test_overflowed_distances_keep_owner_out(self):
        # squared distances of 1e200 apart overflow to inf, like the diagonal
        table = build_rank_table(FeatureMatrix([[0.0], [1e200], [-1e200]]))
        assert table.lists.tolist() == [[1, 2], [0, 2], [0, 1]]

    def test_all_distances_infinite(self):
        table = build_rank_table(FeatureMatrix([[0.0], [1e200], [-1e200], [3e200]]))
        assert table.lists.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
