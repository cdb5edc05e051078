"""Command-line front end: convert, compress, solve, sweep, stats.

Runs are configured by flags, by a flat ``key=value`` config file, or both
(flags win).  Reports are JSON, per-trial traces are CSV, and reruns with the
same config and seed are byte-identical on the trace files.

Exit codes: 0 success, 2 malformed or unreadable input (any I/O error),
3 configuration error, 4 capacity error (including running out of memory).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import anneal, convert, crossbar, qubo
from .compress import CompressedQubo, compress as compress_problem, decompress
from .compress import from_text as _compress_from_text
from .compress import to_text as compressed_to_text
from .errors import CapacityError, ConfigError, ParseError, QubocimError


@dataclass
class RunConfig:
    """Flat run description; field names double as config-file keys."""

    kind: str = "maxcut"            # maxcut | coloring | pfp | qubo | cqubo
    source: str | None = None       # graph or native problem file
    pfp_n: int | None = None        # integer to factor
    pfp_k: int | None = None        # free bits of the first factor
    pfp_l: int | None = None
    colors: int = 3
    penalty: float = 1.0
    reduction_penalty: float | None = None
    compress: bool = True
    oracle: str = "exact"           # exact | hw
    bits: int = 5
    ternary: bool = False
    sigma: float = 0.05
    die_sigma: float = 0.0
    off_ratio: float = 1e-3
    adc_bits: int | None = None
    solver: str = "mesa"            # mesa | sa
    t0: float | None = None
    alpha: float | None = None
    eps_trap: float | None = None
    count_max: int | None = None
    max_epochs: int = 50
    max_iters: int = 10_000
    flip_base: int = 1
    adaptive_flips: bool = True
    trials: int = 1
    seed: int = 0
    jobs: int = 1
    out: str = "runs"
    optimum: str = "auto"           # auto | brute | none | a numeric target


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "on": True,
                 "false": False, "0": False, "no": False, "off": False}


def _coerce(name: str, text: str):
    hints = {f.name: f.type for f in fields(RunConfig)}
    if name not in hints:
        raise ConfigError(f"unknown config key {name!r}")
    text = text.strip()
    hint = hints[name]
    if text.lower() == "none":
        return None
    if "bool" in hint:
        try:
            return _BOOL_STRINGS[text.lower()]
        except KeyError:
            raise ConfigError(f"bad boolean for {name}: {text!r}") from None
    try:
        if "int" in hint:
            return int(text)
        if "float" in hint:
            return float(text)
    except ValueError:
        raise ConfigError(f"bad value for {name}: {text!r}") from None
    return text


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    values = {}
    for lineno, raw in enumerate(qubo.read_file(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        try:
            values[key.strip()] = _coerce(key.strip(), text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


@dataclass
class Instance:
    """A converted problem plus everything needed to decode solutions."""

    kind: str
    problem: qubo.QuboProblem | None
    graph: convert.Graph | None = None
    coloring: convert.ColoringEncoding | None = None
    factoring: convert.FactorizationEncoding | None = None
    compressed: CompressedQubo | None = None
    metadata: dict | None = None

    @property
    def n_vars(self) -> int:
        return self.problem.n if self.problem is not None else self.compressed.source_n

    def metric(self, x) -> dict:
        if self.kind == "maxcut":
            return {"cut_value": convert.cut_value(self.graph, x)}
        if self.kind == "coloring":
            report = convert.decode_coloring(self.coloring, x)
            return {"valid": report.valid,
                    "uncolored": list(report.uncolored),
                    "multicolored": list(report.multicolored),
                    "conflict_edges": [list(e) for e in report.conflict_edges]}
        if self.kind == "pfp":
            p, q_, consistent = convert.decode_factors(self.factoring, x)
            return {"p": p, "q": q_, "consistent": consistent}
        return {}


def build_instance(rc: RunConfig) -> Instance:
    if rc.kind == "pfp":
        if rc.pfp_n is None:
            raise ConfigError("pfp runs need pfp_n (--pfp N)")
        k, l = rc.pfp_k, rc.pfp_l
        if k is None or l is None:
            k, l = convert.suggest_bit_lengths(rc.pfp_n)
        enc = convert.FactorizationEncoding(rc.pfp_n, k, l)
        problem, _ = convert.pfp_to_qubo(enc, rc.reduction_penalty)
        meta = {"kind": "pfp", "n": rc.pfp_n, "k": k, "l": l, "n_vars": problem.n}
        return Instance("pfp", problem, factoring=enc, metadata=meta)
    if rc.source is None:
        raise ConfigError(f"{rc.kind} runs need an input file (source)")
    if rc.kind == "qubo":
        problem = qubo.from_text(qubo.read_file(rc.source))
        meta = {"kind": "qubo", "source": str(rc.source), "n_vars": problem.n}
        return Instance("qubo", problem, metadata=meta)
    if rc.kind == "cqubo":
        compressed = _compress_from_text(qubo.read_file(rc.source))
        meta = {"kind": "cqubo", "source": str(rc.source),
                "n_vars": compressed.source_n, "shape": list(compressed.shape)}
        return Instance("cqubo", None, compressed=compressed, metadata=meta)
    graph = convert.read_graph(rc.source)
    if rc.kind == "maxcut":
        problem, _ = convert.maxcut_to_qubo(graph)
        meta = {"kind": "maxcut", "source": str(rc.source),
                "n_vertices": graph.n_vertices, "n_edges": graph.n_edges,
                "n_vars": problem.n}
        return Instance("maxcut", problem, graph=graph, metadata=meta)
    if rc.kind == "coloring":
        problem, enc = convert.coloring_to_qubo(graph, rc.colors, rc.penalty)
        meta = {"kind": "coloring", "source": str(rc.source),
                "n_vertices": graph.n_vertices, "n_edges": graph.n_edges,
                "colors": rc.colors, "penalty": rc.penalty, "n_vars": problem.n}
        return Instance("coloring", problem, graph=graph, coloring=enc, metadata=meta)
    raise ConfigError(f"unknown problem kind {rc.kind!r}")


def _anneal_config(rc: RunConfig, eps_default: float) -> anneal.AnnealConfig:
    return anneal.AnnealConfig(
        t0=rc.t0, alpha=rc.alpha,
        eps_trap=rc.eps_trap if rc.eps_trap is not None else eps_default,
        count_max=rc.count_max, max_epochs=rc.max_epochs, max_iters=rc.max_iters,
        flip_base=rc.flip_base, adaptive_flips=rc.adaptive_flips, seed=rc.seed)


def _build_oracle(rc: RunConfig, instance: Instance, exact: qubo.QuboProblem):
    """Returns (oracle, compression stats or None, description, default eps_trap).

    ``exact`` is the instance's QUBO; the exact oracle evaluates it directly,
    since compression preserves every coefficient.
    """
    compressed = instance.compressed
    stats = None
    if compressed is None and (rc.compress or rc.oracle == "hw"):
        compressed, stats = compress_problem(instance.problem)
    if rc.oracle == "exact":
        return qubo.exact_oracle(exact), stats, {"type": "exact"}, 1e-9
    if rc.oracle != "hw":
        raise ConfigError(f"unknown oracle {rc.oracle!r}")
    dev = crossbar.DeviceParams(i_on_rel_sigma=rc.sigma, i_off_ratio=rc.off_ratio,
                                die_offset_sigma=rc.die_sigma)
    adc = crossbar.AdcParams(bits=rc.adc_bits) if rc.adc_bits is not None else None
    oracle = crossbar.make_hw_oracle(compressed, bits=rc.bits, ternary=rc.ternary,
                                     dev=dev, adc=adc, seed=rc.seed)
    occupied, total = oracle.stack.tile_counts()
    desc = {"type": "hw", "bits": None if rc.ternary else rc.bits,
            "ternary": rc.ternary, "sigma": rc.sigma, "off_ratio": rc.off_ratio,
            "adc_bits": oracle.adc.bits, "energy_lsb": oracle.energy_lsb,
            "tiles_occupied": occupied, "tiles_total": total}
    eps_default = oracle.energy_lsb / 2 if oracle.energy_lsb > 0 else 1e-9
    return oracle, stats, desc, eps_default


def cmd_convert(rc: RunConfig) -> int:
    if rc.kind == "cqubo":
        raise ConfigError("cqubo files are already converted")
    instance = build_instance(rc)
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = {"pfp": f"pfp{rc.pfp_n}"}.get(rc.kind) or Path(rc.source).stem
    (out / f"{stem}.qubo").write_text(qubo.to_text(instance.problem))
    (out / f"{stem}.meta.json").write_text(
        json.dumps(instance.metadata, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out / (stem + '.qubo')} ({instance.problem.n} variables)")
    return 0


def cmd_compress(ns_input: str, out_dir: str) -> int:
    path = Path(ns_input)
    problem = qubo.from_text(qubo.read_file(path))
    compressed, stats = compress_problem(problem)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{path.stem}.cqubo").write_text(compressed_to_text(compressed))
    payload = stats.as_dict()
    payload["shape"] = list(compressed.shape)
    (out / f"{path.stem}.stats.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"compressed {problem.n}x{problem.n} -> {compressed.shape[0]}x{compressed.shape[1]} "
          f"(chip size saving {stats.chip_size_saving:.2%})")
    return 0


def _resolve_optimum(rc: RunConfig, instance: Instance) -> float | None:
    policy = rc.optimum
    try:
        target = float(policy)
    except (TypeError, ValueError):
        pass
    else:
        if not math.isfinite(target):
            raise ConfigError(f"optimum must be finite, got {policy!r}")
        return target
    if policy == "none":
        return None
    if policy == "brute":
        if instance.problem is None:
            raise ConfigError("cannot brute-force a cqubo instance; give a numeric optimum")
        return qubo.brute_force_minimize(instance.problem)[1]
    if policy != "auto":
        raise ConfigError(f"bad optimum policy {policy!r}")
    if instance.kind in ("coloring", "pfp"):
        return 0.0  # zero exactly when the instance is feasible
    if instance.problem is not None and instance.n_vars <= 24:
        return qubo.brute_force_minimize(instance.problem)[1]
    return None


def run_solve(rc: RunConfig, out_dir: Path) -> dict:
    anneal.check_trials(rc.trials, rc.jobs, rc.solver)
    instance = build_instance(rc)
    exact = instance.problem if instance.problem is not None else decompress(instance.compressed)
    oracle, stats, oracle_desc, eps_default = _build_oracle(rc, instance, exact)
    cfg = _anneal_config(rc, eps_default)
    cfg.validate(instance.n_vars)
    optimum = _resolve_optimum(rc, instance)
    out_dir.mkdir(parents=True, exist_ok=True)

    score = qubo.exact_oracle(exact)

    trials = []
    hits = 0
    for r in anneal.iter_trials(oracle, instance.n_vars, cfg, rc.trials, rc.solver, rc.jobs):
        e_exact = score(r.x)
        if optimum is not None and e_exact <= optimum + 1e-9:
            hits += 1
        trace_file = out_dir / f"trace_{r.index:03d}.csv"
        r.trace.to_csv(trace_file)
        trials.append({
            "trial": r.index,
            "seed": r.seed,
            "e_best": r.e_best,
            "e_exact": e_exact,
            "iterations": r.trace.iters_used,
            "epochs": r.trace.epochs_used,
            "wall_time_s": round(r.wall_s, 6),
            "metric": instance.metric(r.x),
            "trace_file": trace_file.name,
        })

    report = {
        "instance": instance.metadata,
        "compression": stats.as_dict() if stats is not None else None,
        "oracle": oracle_desc,
        "solver": rc.solver,
        "config": {**asdict(cfg), "trials": rc.trials,
                   "compress": rc.compress or rc.oracle == "hw"},
        "optimum": optimum,
        "success_rate": hits / rc.trials if optimum is not None else None,
        "trials": trials,
    }
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


def cmd_solve(rc: RunConfig) -> int:
    report = run_solve(rc, Path(rc.out))
    rate = report["success_rate"]
    best = min(t["e_exact"] for t in report["trials"])
    print(f"{rc.trials} trial(s) done; best exact energy {best}"
          + (f"; success rate {rate:.2f}" if rate is not None else ""))
    return 0


# Sweep axis -> (RunConfig field it sets, type of its values).
_SWEEP_AXES = {"bits": ("bits", int), "sigma": ("sigma", float), "adc-bits": ("adc_bits", int)}


def cmd_sweep(rc: RunConfig, axis: str, values: list[str]) -> int:
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    field, kind = _SWEEP_AXES[axis]
    try:
        points = [(text, kind(text)) for text in values]
    except ValueError:
        raise ConfigError(f"bad {axis} values: {','.join(values)!r}") from None
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for text, value in points:
        report = run_solve(replace(rc, **{field: value}), out / f"{axis.replace('-', '_')}_{text}")
        mean_e = float(np.mean([t["e_exact"] for t in report["trials"]]))
        rows.append((value, report["success_rate"], mean_e))
        print(f"{axis}={text}: success_rate={report['success_rate']}, mean E_best={mean_e!r}")
    with open(out / "sweep.csv", "w", newline="") as f:
        f.write(f"{axis.replace('-', '_')},success_rate,mean_e_best\n")
        for value, rate, mean_e in rows:
            f.write(f"{value},{'' if rate is None else repr(rate)},{mean_e!r}\n")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_stats(ns_input: str, out_file: str | None) -> int:
    problem = qubo.from_text(qubo.read_file(ns_input))
    terms = len(problem.term_arrays()[2])
    linear = int(np.count_nonzero(problem.linear))
    payload = {
        "n": problem.n,
        "offdiag_nonzeros": terms,
        "linear_nonzeros": linear,
        "sparsity_upper_triangle": qubo.sparsity(problem),
        "sparsity_full_no_diag": 1.0 - terms / (problem.n ** 2),
        "sparsity_full_with_diag": 1.0 - (terms + linear) / (problem.n ** 2),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_file:
        Path(out_file).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_problem_flags(p: argparse.ArgumentParser):
    p.add_argument("input", nargs="?",
                   help="input file (DIMACS .col, edge list, or native qubo/cqubo)")
    p.add_argument("--kind", choices=["maxcut", "coloring", "pfp", "qubo", "cqubo"])
    p.add_argument("--pfp", type=int, dest="pfp_n", metavar="N",
                   help="integer to factor (implies --kind pfp)")
    p.add_argument("--colors", type=int, metavar="K")
    p.add_argument("--penalty", type=float)
    p.add_argument("--out", metavar="DIR")


def _add_solve_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--compress", dest="compress", action="store_true", default=None)
    p.add_argument("--no-compress", dest="compress", action="store_false", default=None)
    p.add_argument("--oracle", choices=["exact", "hw"])
    p.add_argument("--bits", type=int, metavar="M")
    p.add_argument("--ternary", action="store_true", default=None)
    p.add_argument("--sigma", type=float)
    p.add_argument("--adc-bits", type=int, dest="adc_bits")
    p.add_argument("--solver", choices=anneal.SOLVERS)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--count-max", type=int, dest="count_max")
    p.add_argument("--alpha", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--optimum", help="auto | brute | none | numeric target energy")


def _merged_config(ns: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(ns, "config", None):
        values.update(load_config_file(ns.config))
    for f in fields(RunConfig):
        flag = getattr(ns, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if getattr(ns, "input", None) is not None:
        values["source"] = ns.input
    if values.get("pfp_n") is not None:
        values["kind"] = "pfp"
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qubocim",
                                     description="QUBO conversion, compression, and annealing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="convert a problem instance to a QUBO file")
    _add_problem_flags(p_convert)

    p_compress = sub.add_parser("compress", help="compress a QUBO file")
    p_compress.add_argument("input")
    p_compress.add_argument("--out", default="runs")

    p_solve = sub.add_parser("solve", help="convert, optionally compress, and anneal")
    _add_problem_flags(p_solve)
    _add_solve_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a parameter axis")
    _add_problem_flags(p_sweep)
    _add_solve_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=sorted(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 2,3,4,5")

    p_stats = sub.add_parser("stats", help="sparsity statistics of a QUBO file")
    p_stats.add_argument("input")
    p_stats.add_argument("--out")

    ns = parser.parse_args(argv)
    try:
        if ns.command == "convert":
            return cmd_convert(_merged_config(ns))
        if ns.command == "compress":
            return cmd_compress(ns.input, ns.out)
        if ns.command == "solve":
            return cmd_solve(_merged_config(ns))
        if ns.command == "sweep":
            return cmd_sweep(_merged_config(ns), ns.axis, ns.values.split(","))
        if ns.command == "stats":
            return cmd_stats(ns.input, ns.out)
        raise ConfigError(f"unknown command {ns.command!r}")
    except (ParseError, OSError) as exc:  # unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except QubocimError as exc:  # config errors and invalid instances
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
