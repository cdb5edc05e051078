"""The benchmark's workloads: generated inputs, the qubocim command, output checks.

Every input comes from the benchmark's ``--seed``: the random graphs are
written as Gset edge lists and read back by ``qubocim`` like a user's file,
and the same seed is the solver's ``--seed``.  Why each workload exists is
in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The per-trial trace header documented in the project README.
TRACE_HEADER = "iter,epoch,E_new,E_o,E_best,accepted,trapped,T,flips"
PFP_N = 323


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                         # "maxcut" (generated graph) or "pfp"
    args: tuple[str, ...]             # qubocim arguments after the input
    vertices: int = 0
    edges: int = 0
    sweep_values: tuple[str, ...] = ()
    hw: bool = False

    @property
    def expected_spans(self) -> set[str]:
        spans = {"cli.main", "cli.build_instance", "compress.compress",
                 "anneal.mesa_solve", "anneal.AnnealTrace.to_csv"}
        spans |= ({"convert.read_graph", "convert.maxcut_to_qubo"} if self.kind == "maxcut"
                  else {"convert.pfp_to_qubo"})
        if self.hw:
            spans |= {"crossbar.make_hw_oracle", "bench.inspect"}
        return spans

    def argv(self, seed: int, work: Path) -> list[str]:
        """The qubocim command line; writes the generated graph into ``work``."""
        if self.kind == "pfp":
            head = ["sweep", "--pfp", str(PFP_N), "--values", ",".join(self.sweep_values)]
        else:
            graph = work / f"{self.name}-seed{seed}.txt"
            write_gset(graph, random_edges(self.vertices, self.edges, seed), self.vertices)
            head = ["solve", str(graph), "--kind", "maxcut"]
        return head + list(self.args) + ["--seed", str(seed), "--jobs", "1"]


WORKLOADS = {w.name: w for w in (
    Workload("maxcut800-exact", "maxcut", (), vertices=800, edges=2400),
    Workload("gset2000-hw", "maxcut",
             ("--oracle", "hw", "--bits", "3", "--sigma", "0.1", "--max-iters", "400"),
             vertices=2000, edges=19990, hw=True),
    Workload("pfp323-sweep", "pfp",
             ("--oracle", "hw", "--sigma", "0", "--axis", "bits", "--count-max", "120",
              "--max-iters", "6000", "--trials", "10"),
             sweep_values=("2", "3", "4", "5"), hw=True),
)}


def random_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """``m`` distinct undirected edges on ``n`` vertices, uniform, no self-loops."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n, m])))
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        for u, v in rng.integers(0, n, size=(m, 2)).tolist():
            if u != v and len(edges) < m:
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def write_gset(path: Path, edges: list[tuple[int, int]], n: int):
    with open(path, "w") as f:
        f.write(f"{n} {len(edges)}\n")
        f.writelines(f"{u + 1} {v + 1} 1\n" for u, v in edges)


def solve_dirs(workload: Workload, out: Path) -> list[Path]:
    """The output directory of each solve the command made."""
    return [out / f"bits_{v}" for v in workload.sweep_values] if workload.sweep_values else [out]


def reports(workload: Workload, out: Path) -> list[dict]:
    return [json.loads((d / "report.json").read_text()) for d in solve_dirs(workload, out)]


def _check_traces(directory: Path, trials: list[dict]) -> list[str]:
    problems = []
    files = sorted(p.name for p in directory.glob("trace_*.csv"))
    if files != sorted(t["trace_file"] for t in trials):
        problems.append(f"{directory.name}: {len(files)} trace files for {len(trials)} trials")
    for t in trials:
        path = directory / t["trace_file"]
        if not path.is_file():
            continue
        with open(path, "rb") as f:
            header = f.readline().decode().rstrip("\n")
            rows = f.read().count(b"\n")
        if header != TRACE_HEADER:
            problems.append(f"{path.name}: header {header!r}")
        if rows != t["iterations"]:
            problems.append(f"{path.name}: {rows} rows for {t['iterations']} iterations")
    return problems


def _check_trial(workload: Workload, t: dict) -> list[str]:
    metric = t["metric"]
    if workload.kind == "maxcut" and t["e_exact"] != -metric["cut_value"]:
        return [f"trial {t['trial']}: e_exact {t['e_exact']} != -cut {metric['cut_value']}"]
    if workload.kind == "pfp" and t["e_exact"] == 0 and not (
            metric["consistent"] and metric["p"] * metric["q"] == PFP_N):
        return [f"trial {t['trial']}: zero energy but p={metric['p']} q={metric['q']} "
                f"consistent={metric['consistent']}"]
    return []


def check(workload: Workload, out: Path, exit_code) -> tuple[list[str], dict | None]:
    """Output checks of one command; returns (problems, outcome).

    The outcome holds the deterministic results (per-trial energies and
    counts, success rates) and the quality metrics derived from them.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        runs = reports(workload, out)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], None
    problems = []
    dirs = solve_dirs(workload, out)
    for directory, report in zip(dirs, runs):
        if len(report["trials"]) != report["config"]["trials"]:
            problems.append(f"{directory.name}: {len(report['trials'])} trials reported")
        problems += _check_traces(directory, report["trials"])
        for t in report["trials"]:
            problems += _check_trial(workload, t)
    if workload.sweep_values:
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        rates = [float(r["success_rate"]) for r in rows]
        if rates != [r["success_rate"] for r in runs]:
            problems.append(f"sweep.csv success rates {rates} differ from the reports")

    trials = [t for r in runs for t in r["trials"]]
    rates = [r["success_rate"] for r in runs if r["success_rate"] is not None]
    outcome = {
        "deterministic": [[t["e_best"], t["e_exact"], t["iterations"], t["epochs"]]
                          for t in trials] + [rates],
        "iterations": sum(t["iterations"] for t in trials),
        "trace_bytes": sum((d / t["trace_file"]).stat().st_size
                           for d, r in zip(dirs, runs) for t in r["trials"]
                           if (d / t["trace_file"]).is_file()),
        "mean_energy": float(np.mean([t["e_exact"] for t in trials])),
        "success_rate": float(np.mean(rates)) if rates else None,
        "hw_gap": (float(np.mean([abs(t["e_best"] - t["e_exact"]) for t in trials]))
                   if workload.hw else None),
    }
    return problems, outcome


def instance_record(workload: Workload, seed: int, report: dict) -> dict:
    """Seed, size and compressed shape of the instance a command solved."""
    stats = report["compression"]
    meta = report["instance"]
    record = {"seed": seed, "n_vars": meta["n_vars"],
              "qprime_shape": [stats["source_n"] - stats["rows_removed"],
                               stats["source_n"] - stats["cols_removed"]],
              "chip_size_saving": stats["chip_size_saving"]}
    if workload.kind == "pfp":
        record.update(factored=meta["n"], couplings=stats["offdiag_nonzeros"])
    else:
        record.update(vertices=meta["n_vertices"], edges=meta["n_edges"])
    return record
