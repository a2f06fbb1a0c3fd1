"""End-to-end tests of the command-line surface and its exit-code contract."""

import json
import math
import os
import subprocess
import sys

import pytest

from qseg.classify import classify_profile
from qseg.cli import main
from qseg.profiler import MeasureConfig, TargetSpec, build_runtime_profile
from qseg.reportio import dump_document, load_document, profile_document
from qseg.targets import batch_scale

#: timing-valued fields excluded from byte-level determinism comparisons
#: (documented in the README; everything else must be byte-identical)
TIMING_FIELDS = {"cpu_seconds", "dispersion", "evidence", "threshold"}


def run(argv):
    """Invoke the CLI, translating argparse's SystemExit into a code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


@pytest.fixture()
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("x,y\n8,3\n12,3.585\n16,4\n24,4.585\n32,5\n48,5.585\n64,6\n")
    return path


class TestApprox:
    def test_named_function_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        code = run(["approx", "--fn", "log2", "--from", "8", "--to", "64",
                    "--segments", "3", "--spacing", "geometric",
                    "--out", str(out), "--plot", str(plot)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "A = " in printed
        doc = load_document(out)
        assert doc["kind"] == "approx"
        # frozen oracle golden for the octave log2 layout
        assert doc["accuracy"]["aggregate_a"] == pytest.approx(0.994186754086, abs=1e-9)
        assert plot.exists()

    def test_input_csv_workflow(self, tmp_path, series_csv):
        out = tmp_path / "report.json"
        code = run(["approx", "--input", str(series_csv), "--out", str(out)])
        assert code == 0
        doc = load_document(out)
        assert doc["accuracy"] is None
        assert len(doc["models"]["x"]["segments"]) == 3

    def test_even_rows_exit_one(self, tmp_path, capsys):
        path = tmp_path / "even.csv"
        path.write_text("x,y\n1,1\n2,2\n3,3\n4,4\n")
        code = run(["approx", "--input", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "points" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, tmp_path, series_csv):
        assert run(["approx"]) == 2  # neither source
        assert run(["approx", "--input", str(series_csv), "--fn", "log2",
                    "--from", "1", "--to", "2", "--segments", "1"]) == 2
        assert run(["approx", "--fn", "sine", "--from", "1", "--to", "2",
                    "--segments", "3"]) == 2
        assert run(["approx", "--fn", "log2", "--from", "8", "--to", "4",
                    "--segments", "3"]) == 2

    def test_log2_domain_error_exit_one(self, tmp_path):
        code = run(["approx", "--fn", "log2", "--from", "-4", "--to", "4",
                    "--segments", "2", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_plot_to_stdout_pipe(self, tmp_path):
        # a plot large enough to be split across helper processes reaches a
        # pipe whole and in order, ahead of the summary lines
        argv = ["approx", "--fn", "cospix", "--from", "0", "--to", "1.5",
                "--segments", "100", "--mode", "trailing-secant",
                "--out", str(tmp_path / "report.json")]
        assert run(argv + ["--plot", str(tmp_path / "plot.csv")]) == 0
        piped = subprocess.run(
            [sys.executable, "-m", "qseg.cli", *argv, "--plot", "/dev/stdout"],
            capture_output=True, check=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        plot = (tmp_path / "plot.csv").read_bytes()
        assert piped.stdout.startswith(plot)
        assert piped.stdout[len(plot):].startswith(b"model: 100 segments")
        assert sorted(os.listdir(tmp_path)) == ["plot.csv", "report.json"]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["approx", "--fn", "ratio", "--from", "2", "--to", "16",
                        "--segments", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestProfile:
    def test_builtin_profile_document(self, tmp_path):
        out = tmp_path / "prof.json"
        code = run(["profile", "--target", "binary-search", "--grid", "x=64:4096:5",
                    "--reps", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        doc = load_document(out)
        assert doc["target"]["name"] == "binary-search"
        assert doc["config"]["seed"] == 7
        assert doc["config"]["batch_scale"] == batch_scale()
        assert len(doc["sweeps"][0]["samples"]) == 5
        assert len(doc["models"]["x"]["segments"]) == 2
        assert "x" in doc["validation"]

    def test_missing_grid_exit_two(self):
        assert run(["profile", "--target", "search-sort", "--grid", "x=16:65536:7"]) == 2

    def test_unknown_grid_variable_exit_two(self):
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:4096:5",
                    "--grid", "y=1:9:3"]) == 2

    def test_bad_grid_specs_exit_two(self):
        assert run(["profile", "--target", "binary-search", "--grid", "x=1:100:4"]) == 2
        assert run(["profile", "--target", "binary-search", "--grid", "x=100:1:5"]) == 2
        assert run(["profile", "--target", "binary-search", "--grid", "x=1:100:-3"]) == 2
        assert run(["profile", "--target", "binary-search", "--grid", "x=nope"]) == 2

    def test_unknown_builtin_exit_one(self, tmp_path):
        assert run(["profile", "--target", "bogo-sort", "--grid", "x=1:9:3",
                    "--out", str(tmp_path / "p.json")]) == 1

    def test_external_target(self, tmp_path):
        script = tmp_path / "spin.py"
        script.write_text(
            "import sys\n"
            "args = dict(a.split('=') for a in sys.argv[2::2])\n"
            "n = int(args.get('x', 0))\n"
            "s = 0\n"
            "for i in range(n * 200): s += i\n"
        )
        out = tmp_path / "ext.json"
        code = run(["profile", "--exec", f"{sys.executable} {script}",
                    "--grid", "x=2:10:3", "--reps", "3", "--out", str(out)])
        assert code == 0
        doc = load_document(out)
        assert doc["target"]["kind"] == "external"
        assert "batch_scale" not in doc["config"]
        assert doc["sweeps"][0]["samples"][0]["clock"] in ("process-cpu", "wall")

    def test_failing_external_exit_one(self, tmp_path):
        assert run(["profile", "--exec", "/nonexistent/prog", "--grid", "x=2:10:3",
                    "--out", str(tmp_path / "x.json")]) == 1

    @pytest.mark.integration
    def test_two_variable_target_additive_label(self, tmp_path):
        out = tmp_path / "ss.json"
        code = run(["profile", "--target", "search-sort", "--grid", "x=50:150:7",
                    "--grid", "b=5:705:7", "--reps", "3", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        doc = load_document(out)
        assert set(doc["models"]) == {"x", "b"}
        assert len(doc["interactions"]) == 1
        assert doc["interactions"][0]["label"] == "additive"

    def test_structure_deterministic_across_runs(self, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["profile", "--target", "binary-search", "--grid", "x=64:1024:3",
                        "--reps", "3", "--seed", "11", "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        s1, s2 = (strip_timing(d) for d in docs)
        # models/validation derive from timings; the orchestration must match
        for key in ("target", "config", "kind", "format_version"):
            assert s1[key] == s2[key]
        assert [s["args"] for s in s1["sweeps"][0]["samples"]] == \
               [s["args"] for s in s2["sweeps"][0]["samples"]]


class TestClassify:
    def test_series_input(self, series_csv, capsys):
        assert run(["classify", "--input", str(series_csv)]) == 0
        out = capsys.readouterr().out
        assert "winner: log" in out

    def test_candidate_subset(self, series_csv, capsys):
        assert run(["classify", "--input", str(series_csv),
                    "--candidates", "log,linear,quadratic"]) == 0
        assert "winner: log" in capsys.readouterr().out

    def test_unknown_candidate_exit_two(self, series_csv):
        assert run(["classify", "--input", str(series_csv),
                    "--candidates", "log,tetration"]) == 2

    def test_single_candidate_exit_two(self, series_csv):
        assert run(["classify", "--input", str(series_csv), "--candidates", "log"]) == 2

    def test_profile_updated_in_place(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:4096:5",
                    "--reps", "3", "--seed", "3", "--out", str(out)]) == 0
        assert load_document(out)["classification"] is None
        assert run(["classify", "--profile", str(out)]) == 0
        doc = load_document(out)
        assert doc["classification"] is not None
        assert doc["classification"]["per_variable"]["x"]["winner"] in {
            "log", "loglog", "sqrt", "const", "linear", "nlogn", "quadratic"
        }
        assert "summary" in doc["classification"]

    def test_profile_classified_as_by_the_library(self, tmp_path):
        # a composite pair, so the summary exercises the pair labels too
        target = TargetSpec.for_callable(
            "mul", lambda x, b: math.log2(x) * b, ["x", "b"], min_values={"x": 1}
        )
        grids = {"x": [8, 16, 32, 64, 128, 256, 512], "b": [1, 8, 16, 32, 64, 128, 256]}
        profile = build_runtime_profile(target, grids, MeasureConfig(seed=5))
        library, cli = tmp_path / "library.json", tmp_path / "cli.json"
        config = {"seed": 5, "grids": grids}
        dump_document(profile_document(profile, config, classify_profile(profile)), library)
        dump_document(profile_document(profile, config), cli)
        assert run(["classify", "--profile", str(cli)]) == 0
        block = load_document(library)["classification"]
        assert block["summary"] == "log(x) · linear(b)"
        assert load_document(cli)["classification"] == block
        assert cli.read_bytes() == library.read_bytes()

    def test_profile_without_sweeps_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format_version": "1.0", "kind": "profile", "sweeps": []}))
        assert run(["classify", "--profile", str(path)]) == 1
        assert "no sweeps" in capsys.readouterr().err

    def test_both_sources_exit_two(self, series_csv, tmp_path):
        assert run(["classify", "--input", str(series_csv),
                    "--profile", str(tmp_path / "p.json")]) == 2

    def test_unreadable_profile_exit_one(self, tmp_path):
        assert run(["classify", "--profile", str(tmp_path / "absent.json")]) == 1


class TestEval:
    @pytest.fixture()
    def report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["approx", "--fn", "log2", "--from", "8", "--to", "64",
                    "--segments", "3", "--spacing", "geometric", "--out", str(out)]) == 0
        return out

    def test_value(self, report, capsys):
        assert run(["eval", "--model", str(report), "--at", "16"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, rel=1e-9)

    def test_knot_value_no_warning(self, report, capsys):
        assert run(["eval", "--model", str(report), "--at", "16"]) == 0
        assert capsys.readouterr().err == ""

    def test_derivative_warning_at_knot(self, report, capsys):
        assert run(["eval", "--model", str(report), "--at", "16", "--derivative"]) == 0
        captured = capsys.readouterr()
        assert "left=" in captured.out and "right=" in captured.out
        assert "warning" in captured.err

    def test_derivative_interior_no_warning(self, report, capsys):
        assert run(["eval", "--model", str(report), "--at", "20", "--derivative"]) == 0
        assert capsys.readouterr().err == ""

    def test_out_of_domain_exit_one(self, report):
        assert run(["eval", "--model", str(report), "--at", "200"]) == 1

    def test_var_selection(self, report):
        assert run(["eval", "--model", str(report), "--at", "16", "--var", "x"]) == 0
        assert run(["eval", "--model", str(report), "--at", "16", "--var", "zz"]) == 2


class TestSeedPrecedence:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSEG_SEED", "123")
        out = tmp_path / "p.json"
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:1024:3",
                    "--reps", "3", "--out", str(out)]) == 0
        assert load_document(out)["config"]["seed"] == 123

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSEG_SEED", "123")
        out = tmp_path / "p.json"
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:1024:3",
                    "--reps", "3", "--seed", "9", "--out", str(out)]) == 0
        assert load_document(out)["config"]["seed"] == 9

    def test_garbage_env_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSEG_SEED", "not-a-number")
        assert run(["profile", "--target", "binary-search",
                    "--grid", "x=64:1024:3", "--reps", "3",
                    "--out", str(tmp_path / "p.json")]) == 2


class TestHelp:
    @pytest.mark.parametrize("sub", ["approx", "profile", "classify", "eval"])
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out
