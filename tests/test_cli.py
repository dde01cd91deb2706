import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphrerank import corpus_io
from graphrerank.cli import main
from graphrerank.evaluation import evaluate
from graphrerank.features import build_rank_table
from graphrerank.graph import GraphParams
from graphrerank.ranking import rerank

from conftest import random_rank_table
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
        matrix = corpus_io.load_feature_matrix(synth_dir / "space0_features.txt")
        table = corpus_io.load_rank_table(synth_dir / "space0_ranks.txt")
        assert np.array_equal(build_rank_table(matrix).lists, table.lists)

    def test_written_tables_skip_the_line_parser(self, synth_dir, tmp_path, monkeypatch):
        # valid text is decoded in blocks: with the line parser broken,
        # `synth`'s and `save_rank_table`'s tables load, and so do CRLF and
        # tab-separated copies; a bad table still reaches the line parser
        saved = tmp_path / "saved.txt"
        table = random_rank_table(np.random.default_rng(4), 200)
        corpus_io.save_rank_table(table, saved)
        crlf, tab, bad = tmp_path / "crlf.txt", tmp_path / "tab.txt", tmp_path / "bad.txt"
        crlf.write_bytes(saved.read_bytes().replace(b"\n", b"\r\n"))
        tab.write_bytes(saved.read_bytes().replace(b" ", b"\t"))
        bad.write_bytes(saved.read_bytes().replace(b" ", b" x", 1))
        matrix = corpus_io.load_feature_matrix(synth_dir / "space0_features.txt")

        def line_parser(line, lineno):
            raise AssertionError("parsed line by line")

        monkeypatch.setattr(corpus_io, "_id_line", line_parser)
        for path in (saved, crlf, tab):
            assert np.array_equal(corpus_io.load_rank_table(path).lists, table.lists)
        assert np.array_equal(corpus_io.load_rank_table(synth_dir / "space0_ranks.txt").lists,
                              build_rank_table(matrix).lists)
        with pytest.raises(AssertionError, match="parsed line by line"):
            corpus_io.load_rank_table(bad)


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

    def test_empty_manifest_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n", encoding="utf-8")
        code = run("features", "--manifest", manifest, "--out", tmp_path / "f.txt")
        assert code == 1
        assert capsys.readouterr().err == "error: the manifest lists no images\n"
        assert not (tmp_path / "f.txt").exists()

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


    def test_holds_one_chunk_of_ranked_lists(self, tmp_path):
        # all 800 whole lists at once, 800 * 799 references to shared ints
        # in tuples, trace 6.2 MiB; one 64-query chunk of them is 0.4 MiB,
        # beside the two tables' lists and positions (4.9 MiB): 8.5 MiB
        corpus = tmp_path / "corpus"
        assert run(
            "synth", "--out-dir", corpus, "--groups", 200, "--dims", 4,
            "--agreement", "0.8", "--seed", 7,
        ) == 0
        tables = [corpus / f"space{i}_ranks.txt" for i in range(2)]
        out = tmp_path / "ranked.txt"
        tracemalloc.start()
        try:
            assert run("rerank", "--tables", *tables, "--k", 5, "--out", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 800
        assert peak <= 12 * 2**20


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

    @pytest.mark.parametrize("k", ["5,,23", "5,"])
    def test_empty_k_item_rejected(self, synth_dir, tmp_path, capsys, k):
        out = tmp_path / "s.tsv"
        code = run(
            "sweep", "--tables", synth_dir / "space0_ranks.txt",
            "--gt", synth_dir / "ground_truth.txt", "--out", out, "--k", k,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: --k: empty item in {k!r}\n"
        assert not out.exists()


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

    def test_rerank_k_beyond_corpus_fails_before_writing(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        # the lists are ranked while the output is written, so the checks
        # must run before its temporary file is opened
        writes = []
        real = corpus_io.atomic_write_text
        monkeypatch.setattr(
            corpus_io, "atomic_write_text", lambda *args: writes.append(args) or real(*args)
        )
        out = tmp_path / "ranked.txt"
        code = run("rerank", "--tables", synth_dir / "space0_ranks.txt", "--out", out, "--k", 24)
        assert code == 1
        assert capsys.readouterr().err == "error: k=24 exceeds corpus bound 23\n"
        assert writes == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

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

    @staticmethod
    def run_with_flag(synth_dir, tmp_path, command, flag, value):
        """`command`'s exit code with its required flags and `flag value`; no output is written."""
        tables = ["--tables", synth_dir / "space0_ranks.txt"]
        gt = ["--gt", synth_dir / "ground_truth.txt"]
        required = {
            "rerank": tables,
            "eval": tables + gt,
            "sweep": tables + gt,
            "graph-dump": tables + ["--query", 0],
            "synth": ["--groups", 6],
            "features": ["--manifest", synth_dir / "ground_truth.txt"],
        }[command]
        out = tmp_path / "out"
        args = ["--out-dir" if command == "synth" else "--out", out]
        code = run(command, *required, *args, flag, value)
        assert not out.exists()
        return code

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
        assert self.run_with_flag(synth_dir, tmp_path, command, flag, value) == 1
        token = value.split(",")[-1]
        assert capsys.readouterr().err == f"error: {flag}: not a decimal integer {token!r}\n"

    @pytest.mark.parametrize("command, flag, value", [
        ("rerank", "--alpha0", "0.8_0"),
        ("eval", "--alpha0", "0.\u0668"),
        ("sweep", "--alpha0", " 0.8"),
        ("graph-dump", "--alpha0", "0x1p-1"),
        ("features", "--exponent", "0.5_0"),
        ("synth", "--intra-spread", "0.1_0"),
        ("synth", "--inter-spread", "\u0661"),
        ("synth", "--agreement", "1_0"),
    ])
    def test_float_flag_follows_input_float_rule(
        self, synth_dir, tmp_path, capsys, command, flag, value
    ):
        # argparse's `type=float` read `0.8_0` as 0.8 and non-ASCII digits as numbers
        assert self.run_with_flag(synth_dir, tmp_path, command, flag, value) == 1
        assert capsys.readouterr().err == f"error: {flag}: not a decimal number {value!r}\n"

    def test_float_flags_take_decimal_and_exponent_forms(self, synth_dir, tmp_path):
        tables = ["--tables", synth_dir / "space0_ranks.txt", "--k", 5]
        outs = []
        for alpha0 in ("0.5", "+5e-1", ".5", "5E-1"):
            outs.append(tmp_path / f"rerank-{len(outs)}.txt")
            assert run("rerank", *tables, "--alpha0", alpha0, "--out", outs[-1]) == 0
        assert len({p.read_bytes() for p in outs}) == 1
        assert outs[0].read_text().startswith("# method=directed k=5 alpha0=0.5 ")

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


class TestKSweepScript:
    """`scripts/run_k_sweep.py --ks` follows the CLI's integer rule for `sweep --k`, and
    its other integer flags the input files' integer rule."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_k_sweep.py"

    def run_script(self, monkeypatch, ks):
        monkeypatch.setattr(sys, "argv", [self.SCRIPT.name, "--ks", ks])
        runpy.run_path(str(self.SCRIPT), run_name="__main__")

    @pytest.mark.parametrize("ks", ["1_0", "10,1_0", "10,x"])
    def test_bad_token_is_one_line_error(self, monkeypatch, ks):
        token = ks.split(",")[-1]
        with pytest.raises(SystemExit) as exc:
            self.run_script(monkeypatch, ks)
        assert exc.value.code == f"error: --ks: not a decimal integer {token!r}"

    def test_empty_item_is_one_line_error(self, monkeypatch):
        for ks in ("5,,23", "5,", ",5"):
            with pytest.raises(SystemExit) as exc:
                self.run_script(monkeypatch, ks)
            assert exc.value.code == f"error: --ks: empty item in {ks!r}"

    @pytest.mark.parametrize("ks, message", [
        (",", "--ks must list at least one value"),
        ("0", "k must be >= 1"),
        ("5,200", "k=200 exceeds corpus bound 199"),
    ])
    def test_bad_value_is_one_line_error(self, monkeypatch, ks, message):
        with pytest.raises(SystemExit) as exc:
            self.run_script(monkeypatch, ks)
        assert exc.value.code == f"error: {message}"

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1_0"), ("--seed", "-1"), ("--groups", "1_0"), ("--groups", "0"),
    ])
    def test_integer_flag_follows_input_integer_rule(self, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(sys, "argv", [self.SCRIPT.name, flag, value, "--ks", "5"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.8_0", "0.\u0668"])
    def test_alpha0_follows_input_float_rule(self, monkeypatch, capsys, value):
        monkeypatch.setattr(sys, "argv", [self.SCRIPT.name, "--alpha0", value, "--ks", "5"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exc.value.code == 2
        assert f"argument --alpha0: invalid decimal value: {value!r}" in capsys.readouterr().err


class TestFusionScript:
    """`scripts/run_fusion_experiment.py` reads its integers and k bound as `run_k_sweep.py` does."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_fusion_experiment.py"

    def run_script(self, monkeypatch, *args):
        monkeypatch.setattr(sys, "argv", [self.SCRIPT.name, *args])
        runpy.run_path(str(self.SCRIPT), run_name="__main__")

    def test_k_beyond_corpus_is_one_line_error(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_script(monkeypatch, "--groups", "5", "--k", "30")
        assert exc.value.code == "error: k=30 exceeds corpus bound 19"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "1_0"), ("--seeds", "0"), ("--k", "1_0"), ("--k", "0"), ("--groups", "1_0"),
    ])
    def test_integer_flag_follows_input_integer_rule(self, monkeypatch, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            self.run_script(monkeypatch, flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.8_0", "0.\u0668"])
    def test_alpha0_follows_input_float_rule(self, monkeypatch, capsys, value):
        with pytest.raises(SystemExit) as exc:
            self.run_script(monkeypatch, "--alpha0", value)
        assert exc.value.code == 2
        assert f"argument --alpha0: invalid decimal value: {value!r}" in capsys.readouterr().err

    def test_one_seed_one_row_and_the_mean(self, monkeypatch, capsys):
        self.run_script(monkeypatch, "--seeds", "1", "--groups", "5", "--k", "19")
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["seed", "mean:"]


class TestBenchPairsScript:
    """`scripts/bench_pairs.py` reads its seed ranges by the input files' integer rule."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

    @pytest.mark.parametrize("pair, message", [
        ("fused-k10-n2000", "give the seeds as WORKLOAD=FIRST-LAST or WORKLOAD=SEED"),
        ("fused-k10-n2000=", "give the seeds as WORKLOAD=FIRST-LAST or WORKLOAD=SEED"),
        ("fused-k10-n2000=1_0", "give the seeds as WORKLOAD=FIRST-LAST or WORKLOAD=SEED"),
        ("fused-k10-n2000=5-3", "the seed range 5-3 is empty"),
    ])
    def test_bad_seed_range_is_one_line_error(self, monkeypatch, tmp_path, pair, message):
        # rejected before any run: the checkouts need not exist
        out = tmp_path / "pairs.json"
        monkeypatch.setattr(sys, "argv", [self.SCRIPT.name, str(tmp_path / "parent"),
                                          str(tmp_path / "change"), pair, "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exc.value.code == f"error: {pair!r}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["4_5", "0", "-1", "inf", "nan", "\u0664\u0665"])
    def test_seconds_follow_input_float_rule(self, monkeypatch, capsys, tmp_path, value):
        # float("4_5") is 45.0: a typo ran 45 s pairs
        out = tmp_path / "pairs.json"
        monkeypatch.setattr(sys, "argv", [self.SCRIPT.name, str(tmp_path / "parent"),
                                          str(tmp_path / "change"), "fused-k10-n2000=1",
                                          "--seconds", value, "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exc.value.code == 2
        assert f"argument --seconds: invalid seconds value: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_seconds_take_decimal_forms(self):
        script = runpy.run_path(str(self.SCRIPT))
        assert [script["seconds"](t) for t in ("45", "2.5", "+1e1", ".5")] == [45.0, 2.5, 10.0, 0.5]

    def test_seed_ranges(self):
        script = runpy.run_path(str(self.SCRIPT))
        assert script["parse_pairs"](["a=3", "b=+4-6"]) == [("a", range(3, 4)), ("b", range(4, 7))]
