"""Benchmark of the qubocim command line, end to end and per layer.

Run from the repository root::

    python3 benchmarks/run.py --workload maxcut800-exact --seed 1 --seconds 30 --trace 0

One process runs one workload in a closed loop: one ``qubocim`` command at
a time through ``qubocim.cli.main`` with ``--jobs 1``, the next only after
the previous one finished and its outputs were checked, for ``--seconds``
seconds (at least one command).  Every command solves the same inputs,
generated from ``--seed``.

``--trace 0`` reports the end-to-end metrics as medians over the commands.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Either way
the deterministic results must repeat exactly across the commands of a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the machine, the instance and every metric by name with its unit.  The
full record, with the spans of a traced run, goes to
``.bench_out/<workload>-seed<seed>-trace<k>.json``.
"""

import os

# Pinned before numpy loads its BLAS, so every benchmark process is single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}
QUALITY_UNITS = {"mean_energy": "energy", "success_rate": "ratio", "hw_gap": "energy",
                 "fail_rate": "ratio"}
LAYER_UNITS = {
    "convert.s": "s", "compress.s": "s", "compress.cells": "count",
    "crossbar.program_s": "s", "crossbar.bytes": "B",
    "crossbar.tiles_occupied": "count", "crossbar.tiles_total": "count",
    "crossbar.eval_calls": "count", "crossbar.eval_us": "us",
    "qubo.eval_calls": "count", "qubo.eval_us": "us",
    "anneal.s": "s", "anneal.self_us_per_iter": "us", "anneal.iters": "count",
    "anneal.epochs": "count", "anneal.accept_ratio": "ratio",
    "anneal.mean_energy": "energy", "crossbar.hw_gap": "energy",
    "cli.trace_write_s": "s", "cli.trace_bytes": "B", "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}
# Per-layer metrics that depend only on the code and the seed.
DETERMINISTIC_LAYER = ("compress.cells", "crossbar.bytes", "crossbar.tiles_occupied",
                       "crossbar.tiles_total", "crossbar.eval_calls", "qubo.eval_calls",
                       "anneal.iters", "anneal.epochs", "anneal.accept_ratio",
                       "anneal.mean_energy", "crossbar.hw_gap", "cli.trace_bytes")


def machine() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def run_command(workload, argv, out: Path, run_id: str, traced: bool) -> dict:
    """One qubocim command and its output checks."""
    from qubocim import cli
    import tracing

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    tracer = tracing.Tracer(run_id, full=traced)
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        with tracer.span("cli.main"):
            try:
                code = cli.main(argv + ["--out", str(out)])
            except (Exception, SystemExit):  # a failed command, not a failed benchmark
                code = traceback.format_exc(limit=-1).strip()
    problems, outcome = workloads.check(workload, out, code)
    command = {"run_id": run_id, "traced": traced, "problems": problems, "outcome": outcome,
               "wall_s": tracer.seconds("cli.main"),
               "setup_s": tracer.seconds(*tracing.SETUP_SPANS), "tracer": tracer}
    if outcome is not None:
        command["instance"] = workloads.instance_record(
            workload, int(argv[argv.index("--seed") + 1]), workloads.reports(workload, out)[0])
    shutil.rmtree(out, ignore_errors=True)
    return command


def closed_loop(seconds: float, step) -> None:
    """Call ``step`` until the next call would likely end after ``seconds``; at least once."""
    started = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)
        if time.perf_counter() - started + statistics.median(took) > seconds:
            return


def end_to_end(commands: list[dict]) -> dict:
    ok = [c for c in commands if c["outcome"] is not None]
    if not ok:
        return {}
    return {
        "wall_s": statistics.median(c["wall_s"] for c in ok),
        "setup_s": statistics.median(c["setup_s"] for c in ok),
        "iters_per_s": statistics.median(c["outcome"]["iterations"] / (c["wall_s"] - c["setup_s"])
                                         for c in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(command: dict) -> dict:
    """Per-layer metrics of one traced command."""
    import tracing
    tr, outcome = command["tracer"], command["outcome"]

    def evals(layer=None, role=None, index=0):
        return sum(v[index] for (lay, rol), v in tr.evals.items()
                   if layer in (None, lay) and role in (None, rol))

    def per_call_us(layer):
        calls = evals(layer)
        return evals(layer, index=1) / calls * 1e6 if calls else 0.0

    anneal_s = tr.seconds(*tracing.SOLVER_SPANS)
    iters = tr.solver["iters"]
    children = sum(end - start for _, start, end, parent, _ in tr.spans
                   if parent == 0)  # span 0 is cli.main
    return {
        "convert.s": tr.seconds(*tracing.CONVERT_SPANS),
        "compress.s": tr.seconds("compress.compress"),
        "compress.cells": tr.sizes.get("compress.cells", 0),
        "crossbar.program_s": tr.seconds("crossbar.make_hw_oracle"),
        "crossbar.bytes": tr.sizes.get("crossbar.bytes", 0),
        "crossbar.tiles_occupied": tr.sizes.get("crossbar.tiles_occupied", 0),
        "crossbar.tiles_total": tr.sizes.get("crossbar.tiles_total", 0),
        "crossbar.eval_calls": evals("crossbar"),
        "crossbar.eval_us": per_call_us("crossbar"),
        "qubo.eval_calls": evals("qubo"),
        "qubo.eval_us": per_call_us("qubo"),
        "anneal.s": anneal_s,
        "anneal.self_us_per_iter": ((anneal_s - evals(role="solver", index=1)) / iters * 1e6
                                    if iters else 0.0),
        "anneal.iters": iters,
        "anneal.epochs": tr.solver["epochs"],
        "anneal.accept_ratio": tr.solver["accepted"] / iters if iters else 0.0,
        "anneal.mean_energy": outcome["mean_energy"],
        "crossbar.hw_gap": outcome["hw_gap"] or 0.0,
        "cli.trace_write_s": tr.seconds(tracing.TRACE_WRITE_SPAN),
        "cli.trace_bytes": outcome["trace_bytes"],
        "cli.self_s": command["wall_s"] - children - evals(role="score", index=1),
    }


def per_layer(workload, commands: list[dict]) -> tuple[dict, list[str]]:
    """Median per-layer metrics of the traced commands, and the checks that
    failed: a missing span, an iteration count the reports contradict, or a
    deterministic metric that differs between traced commands."""
    traced = [c for c in commands if c["traced"] and c["outcome"] is not None]
    plain = [c for c in commands if not c["traced"] and c["outcome"] is not None]
    if not traced or not plain:
        return {}, []
    layers = [layer_metrics(c) for c in traced]
    problems = []
    for command, values in zip(traced, layers):
        missing = workload.expected_spans - {s[0] for s in command["tracer"].spans}
        if missing:
            problems.append(f"{command['run_id']}: missing spans {sorted(missing)}")
        if values["anneal.iters"] != command["outcome"]["iterations"]:
            problems.append(f"{command['run_id']}: traced {values['anneal.iters']} iterations, "
                            f"reports {command['outcome']['iterations']}")
    problems += [f"{name} differs between traced commands" for name in DETERMINISTIC_LAYER
                 if len({values[name] for values in layers}) > 1]
    metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    metrics["bench.trace_overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                         - statistics.median(c["wall_s"] for c in plain))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qubocim" / "__init__.py").is_file():
        print(f"error: no qubocim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_out" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        command_line = workload.argv(args.seed, work)
        commands: list[dict] = []

        def step():
            for traced in ((False, True) if args.trace else (False,)):
                run_id = f"{'traced' if traced else 'plain'}-{len(commands)}"
                commands.append(run_command(workload, command_line, work / "out",
                                            run_id, traced))

        closed_loop(args.seconds, step)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in commands if c["problems"]]
    problems = [f"{c['run_id']}: {p}" for c in failed for p in c["problems"]]
    ok = [c for c in commands if c["outcome"] is not None]
    if len({json.dumps(c["outcome"]["deterministic"]) for c in ok}) > 1:
        problems.append("deterministic results differ between commands of one run")

    if args.trace:
        metrics, trace_problems = per_layer(workload, commands)
        problems += trace_problems
        units = LAYER_UNITS
    else:
        metrics = end_to_end(commands)
        units = END_TO_END_UNITS
    correct = not problems and len(metrics) == len(units)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "loop": "closed, 1 client",
              "instance": ok[0]["instance"] if ok else None,
              "oracle_classes": sorted({name for c in ok if c["traced"]
                                        for name in c["tracer"].oracle_classes}),
              "commands": [{k: c[k] for k in ("run_id", "traced", "wall_s", "setup_s", "problems")}
                           for c in commands],
              "problems": problems}
    quality = {}
    if ok:
        outcome = ok[0]["outcome"]
        quality = {k: outcome[k] for k in ("mean_energy", "success_rate", "hw_gap")
                   if outcome[k] is not None}
    quality["fail_rate"] = len(failed) / len(commands)
    record["quality"] = quality
    record["metrics"] = metrics
    if args.trace:
        record["spans"] = [span for c in commands for span in c["tracer"].spans]
    (ROOT / ".bench_out" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"machine: {m['cpu']}, nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"blas {m['blas']}, BLAS/OpenMP threads pinned to 1")
    print(f"workload {workload.name}: {json.dumps(record['instance'])}")
    print(f"closed loop, 1 client: {len(commands)} commands in {args.seconds:g} s"
          + (f"; oracles {', '.join(record['oracle_classes'])}" if args.trace else ""))
    for name, value in list(metrics.items()) + list(quality.items()):
        print(f"  {name} = {value!r} {units.get(name) or QUALITY_UNITS[name]}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": len(commands), "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units if name in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
