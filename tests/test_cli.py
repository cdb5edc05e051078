"""Tests for the command-line harness: pipelines, reports, exit codes."""

import json

import pytest

from qubocim.cli import load_config_file, main
from qubocim.convert import demo_coloring_instance
from qubocim.errors import ConfigError
from qubocim.qubo import from_text

K3_DIMACS = "c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


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

    def test_cqubo_non_finite_coefficient_is_2(self, tmp_path):
        src = tmp_path / "nan.cqubo"
        src.write_text("cqubo 3 1 1\nc 0.0\nrows 0\ncols 1\nm nan\n")
        assert main(["solve", str(src), "--kind", "cqubo", "--max-iters", "20",
                     "--optimum", "none", "--out", str(tmp_path / "out")]) == 2

    def test_cqubo_variable_out_of_range_is_3(self, tmp_path):
        src = tmp_path / "bad.cqubo"
        src.write_text("cqubo 3 1 1\nc 0.0\nrows 0\ncols 7\nm 1.0\n")
        assert main(["solve", str(src), "--kind", "cqubo", "--max-iters", "20",
                     "--optimum", "none", "--out", str(tmp_path / "out")]) == 3

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
