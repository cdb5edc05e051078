"""Golden runs: four small CLI commands whose outputs are pinned.

Each run writes its files into a fresh directory and every file is reduced
to a short digest that must match the pinned one:

* ``report.json`` is hashed after dropping what depends on the machine or
  the directory, each trial's ``wall_time_s`` and the instance ``source``
  path;
* ``sweep.csv`` is hashed as written;
* each ``trace_*.csv`` is hashed with its ``T`` column blanked, and the sum
  of that column is compared at a relative tolerance of 1e-9.  T is
  ``t0 * alpha**k`` with ``t0`` a numpy standard deviation over the
  calibration deltas and ``alpha = 0.05**(1/n)``, so another numpy or libm
  build may round it in the last bits.  Every other column compares
  exactly: the instances have integer coefficients, so exact and crossbar
  energies are exact multiples of the coefficient scale, and decisions,
  epochs and flip counts are integers.

A change that moves the random stream or a solver decision on purpose
re-pins these digests and says so in its change log.
"""

import hashlib
import json

import pytest

from qubocim.cli import main
from qubocim.convert import demo_coloring_instance

REL_T = 1e-9


def gset_text(n: int, steps: tuple[int, ...]) -> str:
    """An integer-weight Gset file: vertex u joins u + s (mod n) for each step s."""
    edges = sorted({(min(u, (u + s) % n), max(u, (u + s) % n)) for u in range(n) for s in steps})
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u + 1} {v + 1} {1 + (u * v) % 3}" for u, v in edges]
    return "\n".join(lines) + "\n"


def coloring_text() -> str:
    graph, _, _ = demo_coloring_instance()
    lines = [f"p edge {graph.n_vertices} {graph.n_edges}"]
    lines += [f"e {u + 1} {v + 1}" for u, v, _ in graph.edges]
    return "\n".join(lines) + "\n"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def report_digest(path) -> str:
    report = json.loads(path.read_text())
    report["instance"].pop("source", None)
    for trial in report["trials"]:
        del trial["wall_time_s"]
    return digest(json.dumps(report, sort_keys=True).encode())


def trace_digest(path) -> tuple[str, float]:
    """(digest with the T column blanked, sum of the T column)."""
    lines = path.read_text().splitlines()
    t_col = lines[0].split(",").index("T")
    kept, t_sum = [], 0.0
    for row, line in enumerate(lines):
        fields = line.split(",")
        if row:
            t_sum += float(fields[t_col])
        fields[t_col] = ""
        kept.append(",".join(fields))
    return digest("\n".join(kept).encode()), t_sum


def outputs(out) -> dict:
    """Digest of every report, sweep table and trace under ``out``, by relative path."""
    found = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.name == "report.json":
            found[name] = report_digest(path)
        elif path.name == "sweep.csv":
            found[name] = digest(path.read_bytes())
        elif path.name.startswith("trace_"):
            found[name] = trace_digest(path)
    return found


def run_exact_maxcut(tmp_path):
    src = tmp_path / "ring40.txt"
    src.write_text(gset_text(40, (1, 7)))
    return ["solve", str(src), "--kind", "maxcut", "--max-iters", "300", "--trials", "2",
            "--seed", "11"]


def run_hw_maxcut(tmp_path):
    src = tmp_path / "ring100.txt"
    src.write_text(gset_text(100, (1, 9, 31)))
    config = tmp_path / "hw.cfg"
    config.write_text("die_sigma = 0.05\n")
    return ["solve", str(src), "--kind", "maxcut", "--oracle", "hw", "--bits", "3",
            "--sigma", "0.1", "--config", str(config), "--max-iters", "400", "--trials", "2",
            "--seed", "3"]


def run_ternary_coloring(tmp_path):
    src = tmp_path / "toy.col"
    src.write_text(coloring_text())
    return ["solve", str(src), "--kind", "coloring", "--colors", "3", "--penalty", "0.5",
            "--oracle", "hw", "--ternary", "--trials", "2", "--max-iters", "150",
            "--seed", "5"]


def run_bits_sweep(tmp_path):
    return ["sweep", "--pfp", "143", "--oracle", "hw", "--sigma", "0", "--axis", "bits",
            "--values", "2,4", "--trials", "2", "--max-iters", "200", "--seed", "2"]


GOLDEN = {
    "exact-maxcut": (run_exact_maxcut, {
        "report.json": "53b4af4ac86a254e",
        "trace_000.csv": ("7dd4021181f6ce64", 105.46179969935383),
        "trace_001.csv": ("886b6c8c47b4818e", 107.6646032253692),
    }),
    "hw-maxcut": (run_hw_maxcut, {
        "report.json": "0d569f3c8b825681",
        "trace_000.csv": ("4b9deb10feaaebb5", 148.13971616101074),
        "trace_001.csv": ("3d26bea5a67b0469", 170.7598369957514),
    }),
    "ternary-coloring": (run_ternary_coloring, {
        "report.json": "994f2cbff715610e",
        "trace_000.csv": ("6e38fb05668224a6", 27.87161680281068),
        "trace_001.csv": ("17efd047405d5bd6", 26.59166478350718),
    }),
    "bits-sweep": (run_bits_sweep, {
        "bits_2/report.json": "4707413aab306a6c",
        "bits_2/trace_000.csv": ("05c7d393719964ae", 1196.591615733515),
        "bits_2/trace_001.csv": ("f749ea6742dd73c6", 1091.1277682730215),
        "bits_4/report.json": "cf0181389382f6c9",
        "bits_4/trace_000.csv": ("14a6e3229c029b73", 1152.3742613141535),
        "bits_4/trace_001.csv": ("555b8dc8c78896f0", 1227.1250617164283),
        "sweep.csv": "d166d497723817f0",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run(tmp_path, name):
    make_argv, pinned = GOLDEN[name]
    out = tmp_path / "out"
    assert main(make_argv(tmp_path) + ["--out", str(out)]) == 0
    got = outputs(out)
    assert sorted(got) == sorted(pinned)
    for file, expected in pinned.items():
        if isinstance(expected, tuple):
            assert got[file][0] == expected[0], file
            assert got[file][1] == pytest.approx(expected[1], rel=REL_T), file
        else:
            assert got[file] == expected, file
