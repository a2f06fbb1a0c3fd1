"""End-to-end tests of the command-line surface and its exit-code contract."""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from qseg import cli, targets
from qseg.classify import classify_profile
from qseg.cli import build_parser, main
from qseg.errors import OutOfDomain, ParseError, TargetFailure
from qseg.profiler import (MeasureConfig, TargetSpec, TimerResolutionWarning,
                           build_runtime_profile, integer_grid)
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


def additive_profile():
    """A synthetic profile of x and b whose one pair label is additive."""
    target = TargetSpec.for_callable(
        "add", lambda x, b: math.log2(x) + b, ["x", "b"], min_values={"x": 1}
    )
    grids = {"x": [8, 16, 32, 64, 128], "b": [1, 8, 16, 32, 64]}
    return build_runtime_profile(target, grids, MeasureConfig(seed=5))


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

    @pytest.mark.parametrize("bounds", [["--from", "8", "--to", "inf"],
                                        ["--from", "nan", "--to", "4"],
                                        ["--from=-1e308", "--to", "1e308"]])
    def test_non_finite_domain_is_a_usage_error(self, tmp_path, bounds):
        # in a process of its own, so that a warning would reach stderr
        done = subprocess.run(
            [sys.executable, "-m", "qseg.cli", "approx", "--fn", "cospix", *bounds,
             "--segments", "2", "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("usage: qseg approx ")
        assert "Warning" not in done.stderr
        assert os.listdir(tmp_path) == []

    def test_unparsable_bound_is_a_usage_error(self, tmp_path, capsys):
        assert run(["approx", "--fn", "cospix", "--from", "abc", "--to", "4",
                    "--segments", "2", "--out", str(tmp_path / "r.json")]) == 2
        assert "argument --from: invalid float value: 'abc'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_range_beyond_the_float_range_names_it(self, tmp_path, capsys):
        assert run(["approx", "--fn", "cospix", "--from=-1e308", "--to=1e308",
                    "--segments", "2", "--out", str(tmp_path / "r.json")]) == 2
        assert "--to minus --from exceeds the float range" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_quadrature_work_is_bounded(self, tmp_path, capsys):
        # rounding exceeds the absolute tolerance on [1e6, 1e12], cos(pi x)
        # never settles on [0, 1e300], and log2's integral on [1e154, 1e308]
        # is beyond the float range
        out = tmp_path / "r.json"
        started = time.perf_counter()
        assert run(["approx", "--fn", "log2", "--from", "1e6", "--to", "1e12",
                    "--segments", "2", "--out", str(out)]) == 0
        assert run(["approx", "--fn", "cospix", "--from", "0", "--to", "1e300",
                    "--segments", "2", "--out", str(tmp_path / "never.json")]) == 1
        assert run(["approx", "--fn", "log2", "--from=1", "--to", "1e308", "--segments", "2",
                    "--spacing", "geometric", "--out", str(tmp_path / "inf.json")]) == 1
        assert time.perf_counter() - started < 10
        err = capsys.readouterr().err
        assert "did not converge within" in err
        assert "[1e+154, 1e+308] is not finite: inf" in err
        assert os.listdir(tmp_path) == ["r.json"]

    @pytest.mark.parametrize("flag", [["--from", "1"], ["--to", "2"], ["--segments", "5"],
                                      ["--spacing", "even"]], ids=lambda flag: flag[0][2:])
    def test_fn_flags_with_input_exit_two(self, tmp_path, series_csv, capsys, flag):
        out = tmp_path / "r.json"
        assert run(["approx", "--input", str(series_csv), *flag, "--out", str(out)]) == 2
        assert f"--input does not take {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_log2_domain_error_exit_one(self, tmp_path):
        code = run(["approx", "--fn", "log2", "--from", "-4", "--to", "4",
                    "--segments", "2", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_sampling_failure_raises_out_of_domain(self, tmp_path, capsys):
        argv = ["approx", "--fn", "log2", "--from", "-4", "--to", "4",
                "--segments", "2", "--out", str(tmp_path / "r.json")]
        args = build_parser().parse_args(argv)
        with pytest.raises(OutOfDomain, match=r"^cannot sample log2 on \[-4.0, 4.0\]: ") as exc:
            args.run(args, args.parser)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_plot_to_stdout_pipe(self, tmp_path):
        # a plot large enough to be split across forked children reaches a
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

    def test_out_and_plot_to_one_file_exit_two(self, tmp_path, capsys, monkeypatch):
        # the plot CSV would overwrite the JSON document; a second name for
        # the same file, through a link or a relative path, is the same file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.txt").symlink_to(tmp_path / "same.txt")
        for plot in ["same.txt", str(tmp_path / "same.txt"), "./same.txt", "link.txt"]:
            assert run(["approx", "--fn", "log2", "--from", "8", "--to", "64",
                        "--segments", "3", "--out", "same.txt", "--plot", plot]) == 2
            assert "--out and --plot name the same file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["link.txt"]

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_unwritable_output_exit_one(self, tmp_path, capsys, flag):
        missing = tmp_path / "missing" / "file"
        assert run(["approx", "--fn", "log2", "--from", "8", "--to", "64",
                    "--segments", "3", "--out", str(tmp_path / "r.json"),
                    flag, str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")
        # both destinations are checked before anything is sampled or written
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_empty_output_fails_before_sampling(self, tmp_path, capsys, monkeypatch, flag):
        def model(*args):
            pytest.fail("modelled before checking the output paths")

        monkeypatch.setattr(cli, "build_piecewise", model)
        assert run(["approx", "--fn", "log2", "--from", "8", "--to", "64",
                    "--segments", "3", "--out", str(tmp_path / "r.json"), flag, ""]) == 1
        assert capsys.readouterr().err == "error: cannot write an empty path\n"
        assert os.listdir(tmp_path) == []

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
        assert doc["config"] == {
            "seed": 7, "repetitions": 3, "warmup_runs": 1, "aggregator": "median",
            "mode": "endpoint-secant", "grids": {"x": integer_grid(64, 4096, 5)},
            "batch_scale": batch_scale(),
        }
        assert len(doc["sweeps"][0]["samples"]) == 5
        assert len(doc["models"]["x"]["segments"]) == 2
        assert "x" in doc["validation"]

    @staticmethod
    def recorded_grids(monkeypatch, argv):
        """The grids ``qseg profile ARGV`` would measure on, with nothing timed."""
        recorded = []

        def measure(target, grids, *args):
            recorded.append(grids)
            raise TargetFailure("not measured")

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        assert run(["profile", *argv, "--out", os.devnull]) == 1
        (grids,) = recorded
        return grids

    @pytest.mark.parametrize("name", ["binary-search", "merge-sort", "search-sort", "custom"])
    def test_builtin_without_grid_sweeps_its_default_grids(self, monkeypatch, name):
        grids = self.recorded_grids(monkeypatch, ["--target", name])
        assert grids == TargetSpec.for_builtin(name).default_grids()

    def test_grid_overrides_only_its_own_variable(self, monkeypatch):
        grids = self.recorded_grids(monkeypatch,
                                    ["--target", "search-sort", "--grid", "x=16:1024:5"])
        assert grids == {"x": [16, 268, 520, 772, 1024],
                         "b": [4, 13, 40, 128, 406, 1290, 4096]}

    def test_unknown_grid_variable_exit_two(self):
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:4096:5",
                    "--grid", "y=1:9:3"]) == 2

    def test_bad_grid_specs_exit_two(self):
        assert run(["profile", "--target", "binary-search", "--grid", "x=1:100:4"]) == 2
        assert run(["profile", "--target", "binary-search", "--grid", "x=100:1:5"]) == 2
        assert run(["profile", "--target", "binary-search", "--grid", "x=1:100:-3"]) == 2
        assert run(["profile", "--target", "binary-search", "--grid", "x=nope"]) == 2

    def test_oversized_grid_exit_two_with_a_short_message(self, capsys):
        # the count is rejected before the grid is built or printed
        assert run(["profile", "--exec", "prog", "--grid", "x=1:5:200001"]) == 2
        assert len(capsys.readouterr().err) < 1000

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

    @pytest.mark.parametrize("out", ["missing/p.json", "."])
    def test_unwritable_out_fails_before_measuring(self, tmp_path, capsys, monkeypatch, out):
        def measure(*args):
            pytest.fail("measured before checking --out")

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        path = tmp_path / out
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:1024:3",
                    "--out", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")

    def test_empty_out_fails_before_measuring(self, capsys, monkeypatch):
        def measure(*args):
            pytest.fail("measured before checking --out")

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:1024:3",
                    "--out", ""]) == 1
        assert capsys.readouterr().err == "error: cannot write an empty path\n"

    @pytest.mark.parametrize("flag", [["--mode", "pure-lagrange"], ["--warmups", "2"]],
                             ids=["mode", "warmups"])
    def test_unsettable_measurement_flags_exit_two(self, tmp_path, capsys, monkeypatch, flag):
        def measure(*args):
            pytest.fail(f"measured despite {flag[0]}")

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        assert run(["profile", "--target", "binary-search", *flag,
                    "--out", str(tmp_path / "p.json")]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_exec_variables_follow_grid_order(self, tmp_path, monkeypatch):
        declared = []

        def measure(target, *args):
            declared.append(target.variable_names)
            raise TargetFailure("not measured")

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        assert run(["profile", "--exec", "prog", "--grid", "b=2:10:3",
                    "--grid", "x=2:10:3", "--out", str(tmp_path / "p.json")]) == 1
        assert declared == [("b", "x")]

    @pytest.mark.parametrize("source", [["--target", "binary-search"], ["--exec", "prog"]],
                             ids=["target", "exec"])
    def test_vars_flag_exit_two(self, tmp_path, capsys, monkeypatch, source):
        def measure(*args):
            pytest.fail("measured despite --vars")

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        assert run(["profile", *source, "--vars", "x", "--grid", "x=64:1024:3",
                    "--out", str(tmp_path / "p.json")]) == 2
        assert "unrecognized arguments: --vars" in capsys.readouterr().err

    def test_pair_label_line(self, tmp_path, capsys, monkeypatch):
        profile = additive_profile()
        monkeypatch.setattr(cli, "build_runtime_profile", lambda *args: profile)
        out = tmp_path / "p.json"
        assert run(["profile", "--exec", "prog", "--grid", "x=8:128:5", "--grid", "b=1:64:5",
                    "--out", str(out)]) == 0
        (label,) = profile.interactions
        assert (f"x~b: additive (evidence {label.evidence:.3e}, "
                f"threshold {label.threshold:.3e})\n") in capsys.readouterr().out
        assert load_document(out)["interactions"][0]["label"] == "additive"

    def test_resolution_warning_is_one_stderr_line(self, tmp_path, capsys, monkeypatch):
        # a 1s clock step puts every point under the 100-step margin
        monkeypatch.setattr(targets, "_effective_tick", 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["profile", "--exec", f"{sys.executable} -c pass", "--grid", "n=1:5:3",
                        "--reps", "3", "--out", str(tmp_path / "p.json")]) == 0
        assert not [w for w in caught if issubclass(w.category, TimerResolutionWarning)]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        for line, n in zip(lines, (1, 3, 5)):
            assert line.startswith(f"warning: {sys.executable} at {{'n': {n}}}: runs of ")
            assert line.endswith("s are within 100x of the clock step")

    def test_other_warnings_keep_their_display(self, tmp_path, capsys, monkeypatch):
        def measure(target, grids, cfg):
            warnings.warn("not about the clock", UserWarning)
            return build_runtime_profile(
                TargetSpec.for_callable("f", lambda n: float(n), ["n"]), grids, cfg)

        monkeypatch.setattr(cli, "build_runtime_profile", measure)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["profile", "--exec", "prog", "--grid", "n=1:5:3",
                        "--reps", "3", "--out", str(tmp_path / "p.json")]) == 0
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "not about the clock")]
        assert "warning: not about the clock" not in capsys.readouterr().err

    def test_empty_grid_name_exit_two(self, capsys):
        assert run(["profile", "--exec", "prog", "--grid", " =2:10:3"]) == 2
        assert "names no variable" in capsys.readouterr().err

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

    def test_repeated_candidate_exit_two(self, series_csv, capsys):
        assert run(["classify", "--input", str(series_csv),
                    "--candidates", "log,linear,log"]) == 2
        assert "repeats a class name" in capsys.readouterr().err

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

    def test_pair_of_unswept_variable_exit_one(self, tmp_path, capsys):
        target = TargetSpec.for_callable(
            "add", lambda x, b: math.log2(x) + b, ["x", "b"], min_values={"x": 1}
        )
        grids = {"x": [8, 16, 32, 64, 128], "b": [1, 8, 16, 32, 64]}
        doc = profile_document(build_runtime_profile(target, grids, MeasureConfig(seed=5)), {})
        doc["interactions"][0].update(pair=["x", "zz"], label="composite")
        path = tmp_path / "bad-pair.json"
        dump_document(doc, path)
        assert run(["classify", "--profile", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_fewer_than_two_fittable_candidates_exit_one(self, tmp_path, capsys):
        # 2**n is past its cap at every point, so only loglog can be fitted
        path = tmp_path / "s.csv"
        path.write_text("x,y\n600,1\n700,2\n800,3\n")
        assert run(["classify", "--input", str(path), "--candidates", "exp,loglog"]) == 1
        assert "fewer than two fittable candidates" in capsys.readouterr().err

    def test_profile_with_unknown_clock_exit_one(self, tmp_path, capsys):
        doc = profile_document(additive_profile(), {})
        doc["sweeps"][0]["samples"][0]["clock"] = 5
        path = tmp_path / "bad-clock.json"
        dump_document(doc, path)
        assert run(["classify", "--profile", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed profile document: "
                                                  "sample clock 5 is none of ")

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

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_non_finite_point_is_a_usage_error(self, report, capsys, at):
        assert run(["eval", "--model", str(report), f"--at={at}"]) == 2
        assert "is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "1e999"])
    def test_non_finite_coefficient_exit_one(self, report, capsys, token):
        text = report.read_text()
        doc = json.loads(text)
        a = repr(doc["models"]["x"]["segments"][0]["a"])
        assert text.count(f'"a": {a},') == 1
        report.write_text(text.replace(f'"a": {a},', f'"a": {token},'))
        assert run(["eval", "--model", str(report), "--at", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_models_not_an_object_exit_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({"format_version": "1.0", "models": [1]}))
        assert run(["eval", "--model", str(path), "--at", "10"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"format_version": "1.0", "models": %s}' % ("[" * depth + "]" * depth))
        assert run(["eval", "--model", str(path), "--at", "10"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_var_selection(self, report):
        assert run(["eval", "--model", str(report), "--at", "16", "--var", "x"]) == 0
        assert run(["eval", "--model", str(report), "--at", "16", "--var", "zz"]) == 2

    def test_several_models_need_var(self, report, capsys):
        doc = json.loads(report.read_text())
        doc["models"]["y"] = doc["models"]["x"]
        report.write_text(json.dumps(doc))
        assert run(["eval", "--model", str(report), "--at", "16"]) == 2
        assert "pick one with --var" in capsys.readouterr().err
        assert run(["eval", "--model", str(report), "--at", "16", "--var", "y"]) == 0

    def test_no_models_raises_parse_error(self, report, capsys):
        doc = json.loads(report.read_text())
        doc["models"] = {}
        report.write_text(json.dumps(doc))
        argv = ["eval", "--model", str(report), "--at", "16"]
        args = build_parser().parse_args(argv)
        with pytest.raises(ParseError):
            args.run(args, args.parser)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {report} contains no models\n"


def test_seed_comes_from_the_flag_alone(tmp_path, monkeypatch):
    # the environment does not choose the inputs a profile measures
    monkeypatch.setenv("QSEG_SEED", "123")
    seeds = []
    for flags in ([], ["--seed", "9"]):
        out = tmp_path / f"p{len(flags)}.json"
        assert run(["profile", "--target", "binary-search", "--grid", "x=64:1024:3",
                    "--reps", "3", *flags, "--out", str(out)]) == 0
        seeds.append(load_document(out)["config"]["seed"])
    assert seeds == [0, 9]


class TestHelp:
    @pytest.mark.parametrize("sub", ["approx", "profile", "classify", "eval"])
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out

    @pytest.mark.parametrize("sub,sources", [
        ("approx", "(--input INPUT | --fn {cospix,exp2,log2,ratio})"),
        ("profile", "(--target TARGET | --exec EXEC_CMD)"),
        ("classify", "(--profile PROFILE | --input INPUT)"),
    ], ids=["approx", "profile", "classify"])
    def test_usage_shows_exclusive_sources(self, sub, sources, capsys):
        assert run([sub, "--help"]) == 0
        assert sources in capsys.readouterr().out


class TestRepeatedCalls:
    """main() builds its parser once per process; every call still parses
    its own argv."""

    def test_parser_built_once(self, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(["approx"]) == 2
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_usage_errors_leave_output_unchanged(self, tmp_path):
        def approx(stem):
            out, plot = tmp_path / f"{stem}.json", tmp_path / f"{stem}.csv"
            assert run(["approx", "--fn", "cospix", "--from", "0", "--to", "1.5",
                        "--segments", "3", "--mode", "trailing-secant",
                        "--out", str(out), "--plot", str(plot)]) == 0
            return out.read_bytes(), plot.read_bytes()

        first = approx("a")
        assert run(["approx", "--fn", "log2", "--segments", "three"]) == 2
        assert run(["approx", "--fn", "log2", "--from", "8", "--to", "4",
                    "--segments", "3", "--mode", "pure-lagrange"]) == 2
        assert approx("b") == first

    def test_grids_do_not_carry_over(self, tmp_path):
        out = tmp_path / "p.json"
        for grid in ("x=64:1024:3", "x=128:2048:5"):
            assert run(["profile", "--target", "binary-search", "--grid", grid,
                        "--reps", "3", "--out", str(out)]) == 0
        doc = load_document(out)
        assert doc["config"]["grids"] == {"x": integer_grid(128, 2048, 5)}
        assert len(doc["sweeps"]) == 1
        assert len(doc["sweeps"][0]["samples"]) == 5

    @pytest.mark.parametrize("sub", ["approx", "profile", "classify", "eval"])
    def test_help_matches_fresh_parser(self, sub, capsys):
        assert run(["approx"]) == 2
        capsys.readouterr()
        assert run([sub, "--help"]) == 0
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([sub, "--help"])
        assert capsys.readouterr().out == cached


@pytest.mark.parametrize("argv", [
    ["profile", "--exec", "prog", "--grid", "x=1:5:3", "--grid", "x=1:5:3"],
    ["approx", "--fn", "log2", "--from", "8", "--to", "4", "--segments", "3"],
    ["classify", "--input", "s.csv", "--candidates", "log"],
    ["profile", "--target", "binary-search", "--vars", "x"],
    ["eval", "--model", "r.json", "--at", "1", "--bogus"],
    ["approx", "--fn", "log2", "--from", "0", "--to", "4", "--segments", "2",
     "--spacing", "geometric"],
    ["approx", "--fn", "log2"],
    ["approx", "--fn", "log2", "--from", "8", "--to", "64", "--segments", "0"],
    ["profile", "--exec", "", "--grid", "x=1:5:3"],
    ["profile", "--exec", "prog"],
    ["profile", "--exec", "'prog", "--grid", "x=1:5:3"],
    ["profile", "--target", "binary-search", "--grid", "x=64:1024:3", "--reps", "2"],
    ["classify"],
    ["profile", "--target", "binary-search", "--seed", "-1"],
    ["profile", "--target", "binary-search", "--seed", "4294967296"],
], ids=["profile", "approx", "classify", "profile-unrecognized", "eval-unrecognized",
        "approx-geometric-from-zero", "approx-fn-without-domain", "approx-zero-segments",
        "profile-empty-exec", "profile-exec-without-grid", "profile-unclosed-quote",
        "profile-too-few-reps", "classify-no-source", "profile-negative-seed",
        "profile-seed-past-32-bits"])
def test_usage_error_names_its_subcommand(argv, capsys):
    # errors found while parsing and by a handler after it both print the
    # subcommand's usage
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"usage: qseg {argv[0]} ")
