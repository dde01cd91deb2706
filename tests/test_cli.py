import numpy as np
import pytest

from graphrerank import corpus_io
from graphrerank.cli import main
from graphrerank.evaluation import evaluate
from graphrerank.graph import GraphParams
from graphrerank.ranking import rerank

from test_features import write_ppm


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "corpus"
    assert run(
        "synth", "--out-dir", out, "--groups", 6, "--group-size", 4,
        "--dims", 4, "--spaces", 2, "--agreement", "0.8", "--seed", 7,
    ) == 0
    return out


class TestSynth:
    def test_expected_files(self, synth_dir):
        names = sorted(p.name for p in synth_dir.iterdir())
        assert names == [
            "ground_truth.txt",
            "space0_features.txt", "space0_ranks.txt",
            "space1_features.txt", "space1_ranks.txt",
        ]

    def test_deterministic_bytes(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run(
            "synth", "--out-dir", again, "--groups", 6, "--group-size", 4,
            "--dims", 4, "--spaces", 2, "--agreement", "0.8", "--seed", 7,
        ) == 0
        for name in ("space0_ranks.txt", "space1_features.txt", "ground_truth.txt"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_different_seed_differs(self, synth_dir, tmp_path):
        other = tmp_path / "other"
        assert run(
            "synth", "--out-dir", other, "--groups", 6, "--group-size", 4,
            "--dims", 4, "--spaces", 2, "--agreement", "0.8", "--seed", 8,
        ) == 0
        assert (other / "space0_features.txt").read_bytes() != (
            synth_dir / "space0_features.txt"
        ).read_bytes()

    def test_ranks_consistent_with_features(self, synth_dir):
        from graphrerank.features import build_rank_table

        matrix = corpus_io.load_feature_matrix(synth_dir / "space0_features.txt")
        table = corpus_io.load_rank_table(synth_dir / "space0_ranks.txt")
        assert np.array_equal(build_rank_table(matrix).lists, table.lists)


class TestFeaturesCommand:
    def make_manifest(self, tmp_path, n=5):
        rng = np.random.default_rng(11)
        paths = []
        for i in range(n):
            p = tmp_path / f"img{i}.ppm"
            write_ppm(p, rng.integers(0, 256, (3, 4, 3), dtype=np.uint8))
            paths.append(p)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p}\n" for p in paths), encoding="utf-8")
        return manifest

    def test_writes_loadable_matrix(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        out = tmp_path / "feat.txt"
        assert run("features", "--manifest", manifest, "--out", out, "--bins", 4) == 0
        matrix = corpus_io.load_feature_matrix(out)
        assert matrix.rows.shape == (5, 64)
        np.testing.assert_allclose(np.linalg.norm(matrix.rows, axis=1), 1.0)

    def test_missing_image_reports_path(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(str(tmp_path / "absent.ppm") + "\n", encoding="utf-8")
        code = run("features", "--manifest", manifest, "--out", tmp_path / "f.txt")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.ppm" in err

    def test_feature_to_ranks_pipeline(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        feat, ranks = tmp_path / "feat.txt", tmp_path / "ranks.txt"
        assert run("features", "--manifest", manifest, "--out", feat) == 0
        assert run("ranks", "--features", feat, "--out", ranks) == 0
        table = corpus_io.load_rank_table(ranks)
        assert table.n == 5


class TestRerankCommand:
    def test_matches_library_call(self, synth_dir, tmp_path):
        out = tmp_path / "ranked.txt"
        tables = [corpus_io.load_rank_table(synth_dir / f"space{i}_ranks.txt") for i in range(2)]
        assert run(
            "rerank",
            "--tables", synth_dir / "space0_ranks.txt", synth_dir / "space1_ranks.txt",
            "--out", out, "--k", 5,
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# method=directed k=5 alpha0=0.8 depth=2 score=max"
        params = GraphParams(k=5)
        for q, line in enumerate(lines[1:]):
            owner, _, rest = line.partition(":")
            assert int(owner) == q
            want = rerank(tables, q, params)
            assert [int(tok) for tok in rest.split()] == list(want.order)

    def test_gt_restricts_queries(self, synth_dir, tmp_path):
        out = tmp_path / "ranked.txt"
        assert run(
            "rerank", "--tables", synth_dir / "space0_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt", "--out", out, "--k", 5,
        ) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 24


class TestEvalCommand:
    def test_tsv_matches_library(self, synth_dir, tmp_path):
        out, perq = tmp_path / "report.tsv", tmp_path / "perq.tsv"
        assert run(
            "eval",
            "--tables", synth_dir / "space0_ranks.txt", synth_dir / "space1_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt",
            "--out", out, "--per-query", perq, "--k", 5,
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric\tmethod\tk\talpha0\tdepth\tvalue"
        assert len(lines) == 3
        tables = [corpus_io.load_rank_table(synth_dir / f"space{i}_ranks.txt") for i in range(2)]
        gt = corpus_io.load_ground_truth(synth_dir / "ground_truth.txt", n=tables[0].n)
        baseline, reranked = evaluate(tables, gt, GraphParams(k=5))
        assert lines[1].split("\t")[-1] == f"{baseline.aggregate:.6f}"
        assert lines[2].split("\t")[-1] == f"{reranked.aggregate:.6f}"
        assert len(perq.read_text(encoding="utf-8").splitlines()) == 1 + 24

    def test_idempotent_bytes(self, synth_dir, tmp_path):
        out = tmp_path / "report.tsv"
        args = (
            "eval", "--tables", synth_dir / "space0_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt", "--out", out, "--k", 5,
        )
        assert run(*args) == 0
        first = out.read_bytes()
        assert run(*args) == 0
        assert out.read_bytes() == first


class TestSweepCommand:
    def test_row_per_k(self, synth_dir, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert run(
            "sweep", "--tables", synth_dir / "space0_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt",
            "--out", out, "--k", "3,5,8,10,15",
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        assert [line.split("\t")[2] for line in lines[1:]] == ["3", "5", "8", "10", "15"]

    def test_empty_k_list_rejected(self, synth_dir, tmp_path, capsys):
        code = run(
            "sweep", "--tables", synth_dir / "space0_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt",
            "--out", tmp_path / "s.tsv", "--k", ",",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGraphDump:
    def test_format_and_weights(self, synth_dir, tmp_path):
        out = tmp_path / "graph.txt"
        assert run(
            "graph-dump", "--tables", synth_dir / "space0_ranks.txt",
            "--query", 0, "--out", out, "--k", 5,
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "query 0 directed 1 sources space0_ranks"
        for line in lines[1:]:
            src, dst, w = line.split()
            assert float(w) > 0
            assert int(src) != int(dst)

    def test_fused_dump_lists_both_sources(self, synth_dir, tmp_path):
        out = tmp_path / "graph.txt"
        assert run(
            "graph-dump",
            "--tables", synth_dir / "space0_ranks.txt", synth_dir / "space1_ranks.txt",
            "--query", 0, "--out", out, "--k", 5,
        ) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "query 0 directed 1 sources space0_ranks,space1_ranks"


class TestErrorPaths:
    def test_eval_k_beyond_corpus_is_one_error_line(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "o.tsv"
        code = run(
            "eval", "--tables", synth_dir / "space0_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt", "--out", out, "--k", 24,
        )
        assert code == 1
        assert capsys.readouterr().err == "error: k=24 exceeds corpus bound 23\n"
        assert not out.exists()

    def test_bad_second_table_is_named(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad_ranks.txt"
        lines = (synth_dir / "space1_ranks.txt").read_text(encoding="utf-8").splitlines()
        lines[2] = "2: 0 x"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            "eval", "--tables", synth_dir / "space0_ranks.txt", bad,
            "--gt", synth_dir / "ground_truth.txt", "--out", tmp_path / "o.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: non-integer id\n"

    @pytest.mark.parametrize("command, flag, value", [
        ("rerank", "--k", "1_0"),
        ("rerank", "--depth", "\u0662"),
        ("sweep", "--k", "5,1_0"),
        ("graph-dump", "--query", "1_0"),
        ("synth", "--seed", "1_0"),
        ("synth", "--groups", " 6"),
        ("features", "--bins", "1_0"),
    ])
    def test_integer_flag_follows_input_integer_rule(
        self, synth_dir, tmp_path, capsys, command, flag, value
    ):
        # argparse's `type=int` read `1_0` as 10 and non-ASCII digits as numbers
        tables = ["--tables", synth_dir / "space0_ranks.txt"]
        gt = ["--gt", synth_dir / "ground_truth.txt"]
        required = {
            "rerank": tables,
            "sweep": tables + gt,
            "graph-dump": tables + ["--query", 0],
            "synth": ["--groups", 6],
            "features": ["--manifest", synth_dir / "ground_truth.txt"],
        }[command]
        out = tmp_path / "out"
        args = ["--out-dir" if command == "synth" else "--out", out]
        code = run(command, *required, *args, flag, value)
        assert code == 1
        token = value.split(",")[-1]
        assert capsys.readouterr().err == f"error: {flag}: not a decimal integer {token!r}\n"
        assert not out.exists()

    def test_missing_table_file(self, tmp_path, capsys):
        code = run("rerank", "--tables", tmp_path / "none.txt", "--out", tmp_path / "o")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_metric_flag_exits_argparse(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit):
            run(
                "eval", "--tables", synth_dir / "space0_ranks.txt",
                "--gt", synth_dir / "ground_truth.txt",
                "--out", tmp_path / "o", "--metric", "accuracy",
            )
