"""Tests for the command-line harness: pipelines, reports, exit codes."""

import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from qubocim import qubo
from qubocim import cli
from qubocim.cli import load_config_file, main
from qubocim.convert import demo_coloring_instance
from qubocim.errors import ConfigError
from qubocim.qubo import from_text

K3_DIMACS = "c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"

# A value for every RunConfig key: a short hw run factoring 35 ...
EVERY_KEY = {"kind": "pfp", "source": "none", "pfp_n": "35", "pfp_k": "1", "pfp_l": "1",
             "colors": "3", "penalty": "1.0", "reduction_penalty": "8.0", "compress": "true",
             "oracle": "hw", "bits": "3", "ternary": "false", "sigma": "0.05",
             "die_sigma": "0.01", "off_ratio": "0.001", "adc_bits": "8", "solver": "mesa",
             "t0": "2.0", "alpha": "0.99", "eps_trap": "0.01", "count_max": "20",
             "max_epochs": "5", "max_iters": "100", "flip_base": "1", "adaptive_flips": "true",
             "trials": "1", "seed": "3", "jobs": "1", "out": "out", "optimum": "auto"}
# ... and the keys that make it a ternary hw coloring run of ``k3.col``.
COLORING_KEYS = {"kind": "coloring", "source": "k3.col", "pfp_n": "none", "pfp_k": "none",
                 "pfp_l": "none", "reduction_penalty": "none", "ternary": "true"}


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def solve_flags() -> list[tuple[str, str, str | None]]:
    """``(flag, key, const)`` of every ``solve`` flag that sets a RunConfig field.

    ``const`` is the value a flag without an argument stores, else None.
    """
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    keys = {f.name for f in fields(cli.RunConfig)}
    return [(a.option_strings[0], a.dest, a.const) for a in sub.choices["solve"]._actions
            if a.option_strings and a.dest in keys]


def without_file_line(err: str) -> str:
    """A config error as a flag reports it: the ``path:line: `` prefix removed."""
    return re.sub(r"^error: [^\n]*?\.cfg:\d+: ", "error: ", err)


def write_toy_col(path):
    graph, _, _ = demo_coloring_instance()
    lines = [f"p edge {graph.n_vertices} {graph.n_edges}"]
    lines += [f"e {u + 1} {v + 1}" for (u, v) in sorted(graph.weights)]
    path.write_text("\n".join(lines) + "\n")


class TestConvert:
    def test_dimacs_triangle_maxcut(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        assert main(["convert", str(src), "--kind", "maxcut", "--out", str(tmp_path)]) == 0
        problem = from_text((tmp_path / "k3.qubo").read_text())
        assert problem.n == 3 and len(problem.offdiag) == 3
        meta = json.loads((tmp_path / "k3.meta.json").read_text())
        assert meta["kind"] == "maxcut" and meta["n_vars"] == 3

    def test_toy_coloring_has_21_variables(self, tmp_path):
        src = tmp_path / "toy.col"
        write_toy_col(src)
        assert main(["convert", str(src), "--kind", "coloring", "--colors", "3",
                     "--out", str(tmp_path)]) == 0
        problem = from_text((tmp_path / "toy.qubo").read_text())
        assert problem.n == 21

    def test_pfp_convert_with_sidecar(self, tmp_path):
        assert main(["convert", "--pfp", "35", "--out", str(tmp_path)]) == 0
        problem = from_text((tmp_path / "pfp35.qubo").read_text())
        meta = json.loads((tmp_path / "pfp35.meta.json").read_text())
        assert problem.n == meta["n_vars"] == 8
        assert meta["k"] == meta["l"] == 1


class TestCompress:
    def test_zero_matrix_full_saving(self, tmp_path):
        src = tmp_path / "zero.qubo"
        src.write_text("qubo 4 0\nc 0.0\nl 0 1.0\n")
        assert main(["compress", str(src), "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "zero.stats.json").read_text())
        assert stats["chip_size_saving"] == 1.0 and stats["shape"] == [0, 0]

    def test_dense_triangle_saving(self, tmp_path):
        # The greedy always empties at least the first-considered row, so a
        # dense 3x3 coupling matrix still compresses to 2x2 (saving 5/9).
        src = tmp_path / "k3.qubo"
        src.write_text("qubo 3 3\nc 0.0\nq 0 1 2.0\nq 0 2 2.0\nq 1 2 2.0\n")
        assert main(["compress", str(src), "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "k3.stats.json").read_text())
        assert stats["shape"] == [2, 2]
        assert stats["chip_size_saving"] == pytest.approx(5 / 9)


class TestSolve:
    def test_triangle_maxcut_reports_cut_two(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        out = tmp_path / "run"
        assert main(["solve", str(src), "--kind", "maxcut", "--trials", "3",
                     "--max-iters", "300", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["success_rate"] == 1.0
        assert all(t["metric"]["cut_value"] == 2.0 for t in report["trials"])
        assert all((out / t["trace_file"]).exists() for t in report["trials"])

    def test_toy_coloring_all_trials_reach_zero(self, tmp_path):
        src = tmp_path / "toy.col"
        write_toy_col(src)
        out = tmp_path / "run"
        assert main(["solve", str(src), "--kind", "coloring", "--colors", "3",
                     "--penalty", "0.5", "--trials", "5", "--max-iters", "400",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["optimum"] == 0.0
        assert all(t["e_exact"] == 0.0 for t in report["trials"])
        assert all(t["metric"]["valid"] for t in report["trials"])

    def test_pipeline_equivalence_compress_on_off(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        results = {}
        for mode, flag in (("on", "--compress"), ("off", "--no-compress")):
            out = tmp_path / f"run_{mode}"
            assert main(["solve", str(src), "--kind", "maxcut", flag, "--trials", "4",
                         "--max-iters", "300", "--seed", "7", "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            results[mode] = [t["e_best"] for t in report["trials"]]
        assert results["on"] == results["off"]

    def test_native_qubo_and_cqubo_inputs(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        assert main(["convert", str(src), "--kind", "maxcut", "--out", str(tmp_path)]) == 0
        assert main(["compress", str(tmp_path / "k3.qubo"), "--out", str(tmp_path)]) == 0
        out_q = tmp_path / "rq"
        assert main(["solve", str(tmp_path / "k3.qubo"), "--kind", "qubo", "--trials", "2",
                     "--max-iters", "200", "--out", str(out_q)]) == 0
        rep = json.loads((out_q / "report.json").read_text())
        assert rep["optimum"] == -2.0
        out_c = tmp_path / "rcq"
        assert main(["solve", str(tmp_path / "k3.cqubo"), "--kind", "cqubo", "--trials", "2",
                     "--max-iters", "200", "--optimum", "-2", "--out", str(out_c)]) == 0
        rep = json.loads((out_c / "report.json").read_text())
        assert rep["success_rate"] == 1.0

    def test_huge_coefficients_calibrate_a_finite_temperature(self, tmp_path):
        # The squares of deltas of about 1e200 overflow: t0 was inf, and every
        # uphill move was accepted.
        src = tmp_path / "huge.cqubo"
        src.write_text("cqubo 2 0 0\nc 0\nl 0 1e200\nrows\ncols\n")
        out = tmp_path / "run"
        assert main(["solve", str(src), "--kind", "cqubo", "--max-iters", "200",
                     "--optimum", "none", "--out", str(out)]) == 0
        rows = (out / "trace_000.csv").read_text().splitlines()[1:]
        temperatures = [float(row.split(",")[7]) for row in rows]
        assert len(temperatures) == 200 and all(map(math.isfinite, temperatures))

    def test_report_schema_is_stable(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        out = tmp_path / "run"
        assert main(["solve", str(src), "--kind", "maxcut", "--trials", "2",
                     "--max-iters", "200", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"instance", "compression", "oracle", "solver",
                               "config", "optimum", "success_rate", "trials"}
        assert set(report["trials"][0]) == {"trial", "seed", "e_best", "e_exact",
                                            "iterations", "epochs", "wall_time_s",
                                            "metric", "trace_file"}
        assert set(report["config"]) == {"t0", "alpha", "eps_trap", "count_max",
                                         "max_epochs", "max_iters", "flip_base",
                                         "adaptive_flips", "seed", "trials", "compress"}

    def test_hw_report_counts_occupied_tiles(self, tmp_path):
        src = tmp_path / "toy.col"
        write_toy_col(src)
        out = tmp_path / "run"
        assert main(["solve", str(src), "--kind", "coloring", "--oracle", "hw",
                     "--max-iters", "20", "--out", str(out)]) == 0
        oracle = json.loads((out / "report.json").read_text())["oracle"]
        assert 1 <= oracle["tiles_occupied"] <= oracle["tiles_total"]
        assert main(["solve", str(src), "--kind", "coloring", "--max-iters", "20",
                     "--out", str(tmp_path / "exact")]) == 0
        exact = json.loads((tmp_path / "exact" / "report.json").read_text())["oracle"]
        assert exact == {"type": "exact"}

    def test_parallel_jobs_match_serial(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        reports = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["solve", str(src), "--kind", "maxcut", "--trials", "4",
                         "--max-iters", "200", "--jobs", jobs, "--out", str(out)]) == 0
            reports[jobs] = json.loads((out / "report.json").read_text())
        assert ([t["e_best"] for t in reports["1"]["trials"]]
                == [t["e_best"] for t in reports["2"]["trials"]])

    def test_parallel_jobs_write_serial_traces(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        reports, traces = {}, {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["solve", str(src), "--kind", "maxcut", "--trials", "4",
                         "--max-iters", "200", "--jobs", jobs, "--out", str(out)]) == 0
            reports[jobs] = [(t["seed"], t["e_exact"], t["metric"])
                             for t in json.loads((out / "report.json").read_text())["trials"]]
            traces[jobs] = {p.name: p.read_bytes() for p in out.glob("trace_*.csv")}
        assert len(traces["1"]) == 4
        assert traces["1"] == traces["2"]
        assert reports["1"] == reports["2"]


class TestSweep:
    def test_sigma_sweep_noiseless_at_least_as_good(self, tmp_path):
        src = tmp_path / "toy.col"
        write_toy_col(src)
        out = tmp_path / "sweep"
        assert main(["sweep", str(src), "--kind", "coloring", "--colors", "3",
                     "--penalty", "0.5", "--oracle", "hw", "--ternary",
                     "--trials", "6", "--max-iters", "300", "--axis", "sigma",
                     "--values", "0,0.05", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        rates = [float(r.split(",")[1]) for r in rows]
        assert rates[0] >= rates[1]

    def test_bits_sweep_writes_combined_csv(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--pfp", "35", "--oracle", "hw", "--sigma", "0",
                     "--trials", "4", "--max-iters", "300", "--axis", "bits",
                     "--values", "2,5", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "bits,success_rate,mean_e_best"
        assert len(lines) == 3
        assert (out / "bits_2" / "report.json").exists()
        assert (out / "bits_5" / "report.json").exists()

    def test_a_bad_value_reads_like_a_config_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("bits = x\n")
        runs = []
        for argv in (["--values", "2,x"], ["--values", "2", "--config", "run.cfg"]):
            runs.append(main(["sweep", "--pfp", "35", "--oracle", "hw", "--axis", "bits",
                              "--max-iters", "20"] + argv))
            runs.append(without_file_line(capsys.readouterr().err))
        assert runs == [3, "error: bad value for bits: 'x'\n"] * 2
        assert not Path("runs").exists()


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = coloring\ncolors = 3\npenalty = 0.5\n"
                       "# comment line\ntrials = 2\nadaptive_flips = false\n")
        values = load_config_file(cfg)
        assert values == {"kind": "coloring", "colors": 3, "penalty": 0.5,
                          "trials": 2, "adaptive_flips": False}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    @pytest.mark.parametrize("text, line, message", [
        ("kind = maxcut\nbogus = 1\n", 2, "unknown config key 'bogus'"),
        ("# header\n\ntrials = x\n", 3, "bad value for trials: 'x'"),
        ("compress = maybe\n", 1, "bad boolean for compress: 'maybe'"),
    ], ids=["unknown-key", "bad-int", "bad-bool"])
    def test_errors_name_the_file_line(self, tmp_path, capsys, text, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=f"^{cfg}:{line}: {message}$"):
            load_config_file(cfg)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"

    @pytest.mark.parametrize("run", ["pfp", "coloring"])
    @pytest.mark.parametrize("key", [None] + [f.name for f in fields(cli.RunConfig)])
    def test_none_under_any_key_exits_with_a_code(self, tmp_path, monkeypatch, capsys, run, key):
        # ``none`` is None only where a key admits None; elsewhere it is an
        # ordinary value, which an int, float or bool key rejects at its line.
        monkeypatch.chdir(tmp_path)
        Path("k3.col").write_text(K3_DIMACS)
        values = {**EVERY_KEY, **(COLORING_KEYS if run == "coloring" else {})}
        if key is not None:
            values[key] = "none"
        Path("run.cfg").write_text(config_text(values))
        code = main(["solve", "--config", "run.cfg"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err
        hint = {f.name: f.type for f in fields(cli.RunConfig)}.get(key)
        if key is None:
            assert code == 0
        elif hint in ("int", "float", "bool"):
            line, what = list(values).index(key) + 1, "boolean" if hint == "bool" else "value"
            assert (code, err) == (3, f"error: run.cfg:{line}: bad {what} for {key}: 'none'\n")

    def test_optimum_none_in_a_file_equals_the_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        values = {key: value for key, value in EVERY_KEY.items() if key != "optimum"}
        Path("file.cfg").write_text(config_text({**values, "optimum": "none", "out": "file"}))
        Path("flag.cfg").write_text(config_text({**values, "out": "flag"}))
        assert main(["solve", "--config", "file.cfg"]) == 0
        assert main(["solve", "--config", "flag.cfg", "--optimum", "none"]) == 0
        reports = [json.loads(Path(out, "report.json").read_text()) for out in ("file", "flag")]
        for report in reports:
            for trial in report["trials"]:
                del trial["wall_time_s"]
        assert reports[0] == reports[1] and reports[0]["optimum"] is None

    def test_flags_override_file(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = maxcut\ntrials = 1\nmax_iters = 100\n")
        out = tmp_path / "run"
        assert main(["solve", str(src), "--config", str(cfg), "--trials", "2",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["trials"]) == 2


class TestParser:
    def test_built_once_and_flags_do_not_carry_over(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        parser = cli._parser()
        runs = []
        for flags in (["--trials", "2", "--seed", "5"], []):
            out = tmp_path / f"run{len(runs)}"
            assert main(["solve", str(src), "--kind", "maxcut", "--max-iters", "50",
                         "--out", str(out)] + flags) == 0
            runs.append(json.loads((out / "report.json").read_text())["config"])
        assert cli._parser() is parser
        assert (runs[0]["trials"], runs[0]["seed"]) == (2, 5)
        assert (runs[1]["trials"], runs[1]["seed"]) == (cli.RunConfig.trials, cli.RunConfig.seed)


# A value of each kind that a flag or a config line may carry.
FLAG_TOKENS = ["x", "2.5", "-1", "nan", "none"]
PARITY_CASES = [(flag, key, value, const is not None) for flag, key, const in solve_flags()
                for value in ([const] if const is not None else FLAG_TOKENS)]


class TestOneParser:
    """A flag, a config line and a sweep value are parsed by one function."""

    @pytest.mark.parametrize("flag, key, value, const", PARITY_CASES,
                             ids=[f"{flag}={value}" for flag, _, value, _ in PARITY_CASES])
    def test_a_flag_parses_like_its_config_line(self, tmp_path, monkeypatch, capsys,
                                                flag, key, value, const):
        # The hw run factoring 35 of EVERY_KEY, with one value set by a flag
        # over the file, or by the file's own line; a SystemExit fails the test.
        monkeypatch.chdir(tmp_path)
        Path("base.cfg").write_text(config_text(EVERY_KEY))
        Path("line.cfg").write_text(config_text({**EVERY_KEY, key: value}))
        by_flag = main(["solve", "--config", "base.cfg", flag] + ([] if const else [value]))
        flag_err = capsys.readouterr().err
        by_line = main(["solve", "--config", "line.cfg"])
        line_err = capsys.readouterr().err
        assert (by_flag, flag_err) == (by_line, without_file_line(line_err))
        assert by_flag in (0, 3, 4) and "Traceback" not in flag_err

    def test_every_flagged_key_is_covered(self):
        # The parity cases come from walking the parser; an empty walk would pass them all.
        keys = {key for _, key, _, _ in PARITY_CASES}
        assert keys == {f.name for f in fields(cli.RunConfig)} - {
            "source", "pfp_k", "pfp_l", "reduction_penalty", "die_sigma", "off_ratio",
            "eps_trap", "flip_base", "adaptive_flips"}

    @pytest.mark.parametrize("argv, config", [
        (["k3.col", "--kind", "coloring", "--pfp", "35"], None),
        ([], "source = k3.col\nkind = coloring\npfp_n = 35\n"),
        (["--pfp", "35"], "source = k3.col\nkind = coloring\n"),
        (["--kind", "coloring"], "source = k3.col\npfp_n = 35\n"),
    ], ids=["flags", "file", "pfp-flag", "kind-flag"])
    def test_a_kind_other_than_pfp_with_pfp_n_is_3(self, tmp_path, monkeypatch, capsys,
                                                   argv, config):
        monkeypatch.chdir(tmp_path)
        Path("k3.col").write_text(K3_DIMACS)
        if config is not None:
            Path("run.cfg").write_text(config)
            argv = argv + ["--config", "run.cfg"]
        assert main(["solve", "--max-iters", "20"] + argv) == 3
        assert capsys.readouterr().err == (
            "error: pfp_n is set, but kind is 'coloring'; factoring needs kind pfp\n")
        assert not Path("runs").exists()

    @pytest.mark.parametrize("argv, config, kind", [
        (["--pfp", "35"], None, "pfp"),
        ([], "pfp_n = 35\n", "pfp"),
        (["--kind", "pfp"], "pfp_n = 35\n", "pfp"),
        (["k3.col", "--kind", "maxcut"], "pfp_n = none\n", "maxcut"),
        (["k3.col"], None, "maxcut"),
    ], ids=["pfp-flag", "pfp-line", "kind-flag", "pfp-none", "default"])
    def test_kind_defaults_to_pfp_when_pfp_n_is_set(self, tmp_path, monkeypatch,
                                                    argv, config, kind):
        monkeypatch.chdir(tmp_path)
        Path("k3.col").write_text(K3_DIMACS)
        if config is not None:
            Path("run.cfg").write_text(config)
            argv = argv + ["--config", "run.cfg"]
        assert main(["solve", "--max-iters", "20", "--optimum", "none"] + argv) == 0
        assert json.loads(Path("runs", "report.json").read_text())["instance"]["kind"] == kind

    def test_an_unknown_kind_is_3_before_the_input_is_read(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.col"), "--kind", "bogus",
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: unknown problem kind 'bogus'\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--pfp", "35", "--bogus", "1"],
        ["solve", "--pfp", "35", "--bits"],
        ["sweep", "--pfp", "35", "--values", "2"],
        ["sweep", "--pfp", "35", "--axis", "colors", "--values", "2"],
    ], ids=["unknown-flag", "flag-without-value", "no-axis", "unknown-axis"])
    def test_usage_errors_still_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.qubo"
        bad.write_text("not a qubo file\n")
        assert main(["stats", str(bad)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "missing.col"), "--kind", "maxcut",
                     "--out", str(tmp_path)]) == 2

    def test_config_error_is_3(self, tmp_path):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        assert main(["solve", str(src), "--kind", "maxcut", "--alpha", "2.0",
                     "--out", str(tmp_path)]) == 3
        assert main(["solve", "--pfp", "44", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-2"], ["--jobs", "0"]])
    def test_trials_and_jobs_below_one_are_3(self, tmp_path, capsys, flags):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        assert main(["solve", str(src), "--kind", "maxcut", "--max-iters", "20",
                     "--out", str(tmp_path / "out")] + flags) == 3
        assert main(["sweep", str(src), "--kind", "maxcut", "--oracle", "hw",
                     "--axis", "bits", "--values", "2", "--max-iters", "20",
                     "--out", str(tmp_path / "sweep")] + flags) == 3
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--bits", "63"], ["--bits", "64"], ["--adc-bits", "1100"]])
    def test_bit_widths_beyond_exact_float_codes_are_3(self, tmp_path, capsys, flags):
        # Far above 52 bits a code is no exact float64 integer: quantize
        # overflowed int64 (the largest codes became 0) and the ADC overflowed float.
        assert main(["solve", "--pfp", "35", "--oracle", "hw", "--max-iters", "20",
                     "--out", str(tmp_path / "out")] + flags) == 3
        assert "must lie in [1, 52]" in capsys.readouterr().err

    def test_cqubo_non_finite_coefficient_is_2(self, tmp_path):
        src = tmp_path / "nan.cqubo"
        src.write_text("cqubo 3 1 1\nc 0.0\nrows 0\ncols 1\nm nan\n")
        assert main(["solve", str(src), "--kind", "cqubo", "--max-iters", "20",
                     "--optimum", "none", "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("text, argv, code", [
        ("qubo 3 1\nq 0 5 1.0\n", ["solve", "{file}", "--kind", "qubo"], 2),
        ("qubo 2 0\nl 0 nan\n", ["solve", "{file}", "--kind", "qubo"], 2),
        ("2 1\n1 1 1\n", ["solve", "{file}", "--kind", "maxcut"], 2),
        ("p edge 2 1\ne 1 1\n", ["solve", "{file}", "--kind", "maxcut"], 2),
        ("cqubo 3 1 1\nrows 0\ncols 0\nm 1.0 2.0\n", ["solve", "{file}", "--kind", "cqubo"], 2),
        (K3_DIMACS, ["solve", "{file}", "--kind", "coloring", "--colors", "0"], 3),
        (K3_DIMACS, ["solve", "{file}", "--kind", "coloring", "--penalty", "-1"], 3),
        ("pfp_n = 35\npfp_k = 5\npfp_l = 5\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\nreduction_penalty = -1\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\npfp_k = 1\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\npfp_l = 1\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\nreduction_penalty = 1e308\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\noracle = hw\nsigma = 1e308\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\noracle = hw\ndie_sigma = 1e308\n", ["solve", "--config", "{file}"], 3),
        ("pfp_n = 35\noracle = hw\nseed = -1\n", ["solve", "--config", "{file}"], 3),
        (K3_DIMACS, ["sweep", "{file}", "--kind", "maxcut", "--axis", "bits",
                     "--values", "2,x"], 3),
        ("2 1\n1 2 nan\n", ["solve", "{file}", "--kind", "maxcut"], 2),
        ("-1 0\n", ["solve", "{file}", "--kind", "maxcut"], 2),
        ("0 0\n", ["solve", "{file}", "--kind", "maxcut"], 2),
        ("p edge -2 0\n", ["solve", "{file}", "--kind", "coloring"], 2),
        ("qubo 2 2\nq 0 1 1.0\nq 0 1 1.0\n", ["solve", "{file}", "--kind", "qubo"], 2),
        ("2 1\n1 2 1e308\n", ["solve", "{file}", "--kind", "maxcut"], 3),
        ("cqubo 2 0 0\nc 1.5\nl 0 1e308\nl 1 1e308\nrows\ncols\n",
         ["solve", "{file}", "--kind", "cqubo"], 3),
        ("cqubo 4 2 3\nrows 0 2\ncols 1 1 3\nm 1 2 0\nm 0 3 1\n",
         ["solve", "{file}", "--kind", "cqubo", "--oracle", "hw"], 3),
    ], ids=["qubo-index", "qubo-nan", "gset-self-loop", "dimacs-self-loop", "cqubo-row",
            "colors-0", "penalty-negative", "pfp-bit-lengths", "reduction-penalty-negative",
            "pfp-k-alone", "pfp-l-alone", "reduction-penalty-overflow", "sigma-overflow",
            "die-sigma-overflow", "hw-seed-negative",
            "sweep-value", "gset-nan-weight", "gset-negative-vertices", "gset-zero-vertices",
            "dimacs-negative-vertices", "qubo-repeated-q", "maxcut-coefficient-overflow",
            "cqubo-energy-overflow", "cqubo-repeated-column"])
    def test_bad_input_exits_without_traceback(self, tmp_path, capsys, text, argv, code):
        src = tmp_path / "input"
        src.write_text(text)
        out = tmp_path / "out"
        argv = [str(src) if a == "{file}" else a for a in argv]
        assert main(argv + ["--max-iters", "20", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_wide_finite_spreads_still_solve(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("die_sigma = 1e200\n")
        assert main(["solve", "--pfp", "35", "--oracle", "hw", "--sigma", "1e200",
                     "--config", str(cfg), "--max-iters", "20", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("flags, config", [
        (["--oracle", "hw", "--sigma", "nan"], None),
        (["--oracle", "hw", "--sigma", "inf"], None),
        (["--t0", "inf"], None),
        ([], "eps_trap = nan\n"),
        (["--oracle", "hw"], "die_sigma = nan\n"),
        (["--optimum", "nan"], None),
        (["--optimum", "inf"], None),
        (["--optimum=-inf"], None),
    ], ids=["sigma-nan", "sigma-inf", "t0-inf", "eps-trap-nan", "die-sigma-nan",
            "optimum-nan", "optimum-inf", "optimum-minus-inf"])
    def test_non_finite_setting_is_3(self, tmp_path, capsys, flags, config):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = flags + ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        assert main(["solve", str(src), "--kind", "maxcut", "--max-iters", "20",
                     "--out", str(out)] + flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, text, kind, line", [
        ("commented.txt", "# comment\n% another\n3 1\n1 9 1\n", "maxcut", 4),
        ("negative.cqubo", "cqubo 3 1 1\nl -1 5.0\nrows 0\ncols 1\nm 1.0\n", "cqubo", 2),
        ("weights.txt", "% weighted\n3 2\n1 2 1.5\n\n2 3 inf\n", "maxcut", 5),
        ("repeated.qubo", "qubo 3 1\nq 1 2 1.0\nq 1 2 1.0\n", "qubo", 3),
        ("repeated.cqubo", "cqubo 3 1 1\nl 0 1.0\nl 0 2.0\nrows 0\ncols 1\nm 1.0\n",
         "cqubo", 3),
        ("constant.cqubo", "cqubo 3 1 1\n# constant\nc nan\nrows 0\ncols 1\nm 1.0\n",
         "cqubo", 3),
        ("column.cqubo", "cqubo 3 1 1\nc 0.0\nrows 0\ncols 7\nm 1.0\n", "cqubo", 4),
        ("row.cqubo", "cqubo 3 1 1\nc 0.0\nrows -1\ncols 1\nm 1.0\n", "cqubo", 3),
    ], ids=["gset-line-after-comments", "cqubo-negative-linear-index", "gset-inf-weight",
            "qubo-repeated-q", "cqubo-repeated-l", "cqubo-nan-constant",
            "cqubo-column-outside-range", "cqubo-negative-row"])
    def test_parse_error_names_the_file_line(self, tmp_path, capsys, name, text, kind, line):
        src = tmp_path / name
        src.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", str(src), "--kind", kind, "--max-iters", "20",
                     "--optimum", "none", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ") and "Traceback" not in err
        assert not out.exists()

    def test_unreadable_input_is_2(self, tmp_path, capsys):
        binary = tmp_path / "latin1.col"
        binary.write_bytes(b"c caf\xe9\np edge 2 1\ne 1 2\n")
        blocker = tmp_path / "file.qubo"
        blocker.write_text("qubo 1 0\n")
        for path, kind in ((tmp_path, "qubo"), (blocker / "child.qubo", "qubo"),
                           (binary, "maxcut")):
            assert main(["solve", str(path), "--kind", kind, "--max-iters", "20",
                         "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert main(["stats", str(tmp_path)]) == 2
        assert main(["solve", "--config", str(tmp_path)]) == 2

    @pytest.mark.parametrize("data, line", [
        (b"\xe9", 1),
        (b"qubo 2 0\n# note\nl 0 1.\xc3\n", 3),
        (b"c caf\xc3\xa9\r\np edge 2 1\r\ne 1 \xff2\r\n", 3),
    ], ids=["lone-byte", "truncated-sequence", "crlf-after-utf8"])
    def test_non_utf8_input_names_the_file_line(self, tmp_path, capsys, data, line):
        src = tmp_path / "input.txt"
        src.write_bytes(data)
        for argv in (["stats", str(src)],
                     ["solve", str(src), "--kind", "maxcut", "--out", str(tmp_path / "out")],
                     ["solve", "--config", str(src), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {src}:{line}: not UTF-8 (") and "Traceback" not in err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_coloring_over_the_size_limit_is_4(self, tmp_path, capsys, how):
        src = tmp_path / "k3.col"
        src.write_text(K3_DIMACS)
        argv = ["solve", str(src), "--kind", "coloring", "--out", str(tmp_path / "out")]
        if how == "flag":
            argv += ["--colors", "10000000000000000000"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("colors = 10000000000000000000\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "exceeds the limit of 2**31 - 1" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversized_or_out_of_memory_is_4(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "huge.qubo"
        src.write_text("qubo 100000000000 0\n")
        argv = ["solve", str(src), "--kind", "qubo", "--max-iters", "20",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 4
        assert "exceeds the limit" in capsys.readouterr().err

        def exhausted(text):
            raise MemoryError()

        monkeypatch.setattr(qubo, "from_text", exhausted)
        assert main(argv) == 4
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_capacity_error_is_4(self, tmp_path):
        assert main(["solve", "--pfp", "323", "--trials", "1", "--max-iters", "50",
                     "--optimum", "brute", "--out", str(tmp_path)]) == 4

    def test_stats_output(self, tmp_path, capsys):
        src = tmp_path / "p.qubo"
        src.write_text("qubo 3 1\nc 0.0\nq 0 1 2.0\n")
        assert main(["stats", str(src)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["offdiag_nonzeros"] == 1
        assert payload["sparsity_full_no_diag"] == pytest.approx(1 - 1 / 9)
