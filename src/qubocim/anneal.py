"""Multi-epoch simulated annealing (MESA) and a conventional SA baseline.

Both solvers minimize an arbitrary energy oracle over binary vectors and
record a full per-iteration trace.  MESA restarts in epochs: when the energy
trajectory stalls (``count_max`` consecutive iterations without an accepted
move), the temperature resets and the next epoch starts from the best
solution seen so far, so the search keeps converging instead of wandering at
low temperature.  The SA baseline is the same loop with the trap machinery
off: no tolerance, equal-energy moves adopted, no epoch end and no widened
move.

The solvers see the oracle through an evaluator (``reset`` / ``peek`` /
``commit``, see :class:`qubocim.qubo.FullEvaluator`): an oracle with an
``evaluator()`` method supplies its own delta evaluator, and any other
callable is evaluated in full on every candidate.

Randomness comes from numpy's PCG64 generator with explicit 64-bit seeding;
identical (oracle, config, seed) triples reproduce traces bit for bit on one
machine and numpy/BLAS build (float reductions may round differently
elsewhere).  Independent trials derive per-trial seeds from
``(base_seed, trial_index)`` so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .qubo import FullEvaluator, QuboProblem, exact_oracle, toggle

Oracle = Callable[[np.ndarray], float]


CALIBRATION_SAMPLES = 100
FLIP_RAMP_AFTER = 25  # stagnant iterations before the perturbation widens by one bit


@dataclass(frozen=True)
class AnnealConfig:
    """Solver hyperparameters.

    Three fields auto-scale to the problem when left at None:

    * ``t0``: the standard deviation of single-bit-flip energy changes at
      random states, the scale that actually enters the acceptance
      probability;
    * ``alpha``: ``0.05 ** (1/n)``, a geometric schedule that cools over
      roughly one sweep of the n single-bit moves;
    * ``count_max``: ``2n`` stagnant iterations, enough rejected proposals to
      be real evidence of a local minimum rather than proposal bad luck.

    ``eps_trap`` is the tolerance under which two energies count as "the
    same" for trap detection; noisy or quantized oracles should set it to
    half their energy resolution.  With ``adaptive_flips`` (the default) the
    perturbation widens from ``flip_base`` to ``flip_base + 1`` bits after
    ``FLIP_RAMP_AFTER`` stagnant iterations, opening pairwise escape moves
    that single flips cannot reach, and narrows back on any acceptance.
    """

    t0: float | None = None
    alpha: float | None = None
    eps_trap: float = 1e-9
    count_max: int | None = None
    max_epochs: int = 50
    max_iters: int = 10_000
    flip_base: int = 1
    adaptive_flips: bool = True
    seed: int = 0

    def validate(self, n: int | None = None):
        if self.t0 is not None and not 0 < self.t0 < math.inf:
            raise ConfigError("t0 must be positive and finite")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0 <= self.eps_trap < math.inf:
            raise ConfigError("eps_trap must be finite and >= 0")
        if self.count_max is not None and self.count_max < 1:
            raise ConfigError("count_max must be >= 1")
        if self.max_epochs < 1 or self.max_iters < 1:
            raise ConfigError("max_epochs and max_iters must be >= 1")
        if self.flip_base < 1:
            raise ConfigError("flip_base must be >= 1")
        if n is not None and self.flip_base > n:
            raise ConfigError(f"flip_base {self.flip_base} exceeds variable count {n}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    def resolved_alpha(self, n: int) -> float:
        return self.alpha if self.alpha is not None else 0.05 ** (1.0 / n)

    def resolved_count_max(self, n: int) -> int:
        return self.count_max if self.count_max is not None else 2 * n


@dataclass
class AnnealTrace:
    """Per-iteration solver record plus the final result.

    ``e_o`` is the energy the candidate was compared against (before any
    update), so acceptance decisions and epoch chaining can be replayed from
    the trace; ``e_best`` is the running global best after the decision.
    """

    iteration: np.ndarray
    epoch: np.ndarray
    e_new: np.ndarray
    e_o: np.ndarray
    e_best: np.ndarray
    accepted: np.ndarray
    trapped: np.ndarray
    temperature: np.ndarray
    flips: np.ndarray
    x_best: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    e_final: float = math.inf
    iters_used: int = 0
    epochs_used: int = 0

    CSV_HEADER = "iter,epoch,E_new,E_o,E_best,accepted,trapped,T,flips"

    def write_csv(self, stream: IO[str]):
        stream.write(self.CSV_HEADER + "\n")
        n = self.iters_used

        def column(values, dtype):
            return np.asarray(values[:n], dtype=dtype).tolist()

        rows = zip(column(self.iteration, np.int64), column(self.epoch, np.int64),
                   column(self.e_new, np.float64), column(self.e_o, np.float64),
                   column(self.e_best, np.float64), column(self.accepted, np.int64),
                   column(self.trapped, np.int64), column(self.temperature, np.float64),
                   column(self.flips, np.int64))
        stream.writelines(f"{it},{ep},{en!r},{eo!r},{eb!r},{acc},{trap},{t!r},{k}\n"
                          for it, ep, en, eo, eb, acc, trap, t, k in rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            self.write_csv(f)


class _Recorder:
    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, iteration, epoch, e_new, e_o, e_best, accepted, trapped, temperature, flips):
        self.rows.append((iteration, epoch, e_new, e_o, e_best, accepted, trapped, temperature, flips))

    def finish(self, x_best, e_final, epochs_used) -> AnnealTrace:
        cols = list(zip(*self.rows)) if self.rows else [[]] * 9
        return AnnealTrace(
            iteration=np.array(cols[0], dtype=np.int64),
            epoch=np.array(cols[1], dtype=np.int64),
            e_new=np.array(cols[2], dtype=np.float64),
            e_o=np.array(cols[3], dtype=np.float64),
            e_best=np.array(cols[4], dtype=np.float64),
            accepted=np.array(cols[5], dtype=bool),
            trapped=np.array(cols[6], dtype=bool),
            temperature=np.array(cols[7], dtype=np.float64),
            flips=np.array(cols[8], dtype=np.int64),
            x_best=x_best,
            e_final=float(e_final),
            iters_used=len(self.rows),
            epochs_used=epochs_used,
        )


def flip_indices(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """``k`` distinct indices below ``n``, uniformly chosen."""
    if k == 1:
        return [int(rng.integers(n))]
    return rng.choice(n, size=k, replace=False).tolist()


def derive_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit per-trial seed from (base seed, trial index)."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _start(oracle: Oracle, n: int, cfg: AnnealConfig):
    """Start-up shared by both solvers; returns (rng, evaluator, t0, x, E(x)).

    The steps run in an order that fixes the random streams: validate
    ``cfg``, spawn the calibration and search generators from the seed, pick
    the oracle's own evaluator if it has one, calibrate t0 unless it is
    given, then draw the start state and reset the evaluator to it.
    """
    cfg.validate(n)
    cal, main = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(main))
    cal_rng = np.random.Generator(np.random.PCG64(cal))
    make = getattr(oracle, "evaluator", None)
    evaluator = make() if make is not None else FullEvaluator(oracle)
    if cfg.t0 is not None:
        t0 = float(cfg.t0)
    else:
        deltas = np.empty(CALIBRATION_SAMPLES)
        for i in range(CALIBRATION_SAMPLES):
            e = evaluator.reset(cal_rng.integers(0, 2, size=n, dtype=np.int8))
            deltas[i] = evaluator.peek(flip_indices(n, 1, cal_rng)) - e
        spread = float(np.std(deltas))
        t0 = spread if spread > 0 else 1.0
    x = rng.integers(0, 2, size=n, dtype=np.int8)
    return rng, evaluator, t0, x, evaluator.reset(x)


def _metropolis_accept(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    arg = -delta / temperature if temperature > 0 else -math.inf
    if arg >= 0:
        return True
    if arg < -745.0:  # exp underflows to zero
        return False
    return rng.random() < math.exp(arg)


def _anneal(oracle: Oracle, n: int, cfg: AnnealConfig,
            multi_epoch: bool) -> tuple[np.ndarray, float, AnnealTrace]:
    """The annealing loop of both solvers; returns (best vector, best energy, trace).

    With ``multi_epoch`` this is MESA (see :func:`mesa_solve`).  Without it
    the trap machinery is off, which is conventional SA: the tolerance is 0
    and equal-energy moves are adopted, no iteration counts as trapped, the
    epoch never ends and the move never widens.
    """
    rng, evaluator, t0, x_cur, e_o = _start(oracle, n, cfg)
    alpha = cfg.resolved_alpha(n)
    eps = cfg.eps_trap if multi_epoch else 0.0
    count_max = cfg.resolved_count_max(n) if multi_epoch else math.inf
    widen = cfg.adaptive_flips and multi_epoch
    x_best = x_cur.copy()
    e_best = e_o

    temperature = t0
    trap_count = 0
    epoch = 0
    flips = cfg.flip_base
    wide_flips = min(n, cfg.flip_base + 1)
    candidate = flip_indices(n, flips, rng)
    last_flips = flips

    recorder = _Recorder()
    iters = 0
    while iters < cfg.max_iters:
        iters += 1
        e_new = evaluator.peek(candidate)
        e_ref = e_o  # energy the candidate is judged against; recorded as E_o
        if e_new < e_o - eps:
            accepted = True
        elif abs(e_new - e_o) <= eps:
            accepted = not multi_epoch  # indistinguishable energy: only SA adopts it
        else:
            accepted = _metropolis_accept(e_new - e_o, temperature, rng)
        if accepted:
            evaluator.commit()
            toggle(x_cur, candidate)
            e_o = e_new
            trap_count = 0
            if e_new < e_best:
                x_best = x_cur.copy()
                e_best = e_new
        else:
            trap_count += 1  # trajectory stagnant this iteration
        recorder.add(iters, epoch, e_new, e_ref, e_best, accepted,
                     multi_epoch and not accepted, temperature, last_flips)

        if widen:
            if accepted:
                flips = cfg.flip_base
            elif trap_count >= FLIP_RAMP_AFTER:
                flips = wide_flips

        if trap_count >= count_max:
            epoch += 1
            if epoch >= cfg.max_epochs:
                break  # the freshly counted epoch never starts
            temperature = t0
            trap_count = 0
            flips = cfg.flip_base
            x_cur = x_best.copy()
            e_o = evaluator.reset(x_cur, e_best)
            candidate = flip_indices(n, flips, rng)
            last_flips = flips
        else:
            candidate = flip_indices(n, flips, rng)
            last_flips = flips
            temperature *= alpha

    trace = recorder.finish(x_best, e_best, min(epoch + 1, cfg.max_epochs))
    return x_best, e_best, trace


def mesa_solve(oracle: Oracle, n: int, cfg: AnnealConfig) -> tuple[np.ndarray, float, AnnealTrace]:
    """Multi-epoch simulated annealing; returns (best vector, best energy, trace).

    Per iteration the candidate energy is compared against the current one:
    clearly lower moves are accepted, moves within ``eps_trap`` are rejected,
    and clearly higher moves are accepted with probability ``exp(-dE/T)``.
    Every rejected iteration leaves the energy trajectory stagnant and
    advances the trap count; any acceptance clears it.  Once ``count_max``
    consecutive stagnant iterations accumulate, the epoch ends: the
    temperature resets and the search restarts from the best solution found
    so far.
    """
    return _anneal(oracle, n, cfg, multi_epoch=True)


def sa_solve(oracle: Oracle, n: int, cfg: AnnealConfig) -> tuple[np.ndarray, float, AnnealTrace]:
    """Single-epoch Metropolis baseline: MESA's loop with the trap machinery off.

    Non-worse moves are accepted, uphill ones with probability
    ``exp(-dE/T)``, under geometric cooling; ``eps_trap``, ``count_max``,
    ``max_epochs`` and ``adaptive_flips`` are ignored.
    """
    return _anneal(oracle, n, cfg, multi_epoch=False)


SOLVERS = ("mesa", "sa")


class TrialRecord(NamedTuple):
    """One seeded trial: its index, derived seed, result, trace and solver wall time."""

    index: int
    seed: int
    x: np.ndarray
    e_best: float
    trace: AnnealTrace
    wall_s: float


def check_trials(trials: int, jobs: int, solver: str):
    """Raise :class:`ConfigError` unless :func:`iter_trials` accepts these settings."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")


def _trial(args) -> TrialRecord:
    """Worker for one trial; module level so a process pool can pickle it."""
    oracle, n, cfg, solver, index = args
    trial_cfg = replace(cfg, seed=derive_seed(cfg.seed, index))
    # Looked up by module-global name on every call, so replacing
    # ``anneal.mesa_solve`` or ``anneal.sa_solve`` (e.g. with a timing
    # wrapper) reaches every trial.
    solve = mesa_solve if solver == "mesa" else sa_solve
    started = time.perf_counter()
    x, e_best, trace = solve(oracle, n, trial_cfg)
    return TrialRecord(index, trial_cfg.seed, x, e_best, trace, time.perf_counter() - started)


def iter_trials(oracle: Oracle, n: int, cfg: AnnealConfig, trials: int,
                solver: str = "mesa", jobs: int = 1) -> Iterator[TrialRecord]:
    """Independent seeded solver runs, one record at a time in trial order.

    Trial ``i`` runs with seed ``derive_seed(cfg.seed, i)``, so the records
    do not depend on ``jobs``; ``jobs > 1`` runs the trials in one process
    pool.  The settings are checked on the call, before any trial starts.
    """
    check_trials(trials, jobs, solver)
    work = [(oracle, n, cfg, solver, i) for i in range(trials)]
    return map(_trial, work) if jobs == 1 else _pooled(work, jobs)


def _pooled(work: list, jobs: int) -> Iterator[TrialRecord]:
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_trial, work)


def run_trials(oracle: Oracle, n: int, cfg: AnnealConfig, trials: int,
               solver: str = "mesa", jobs: int = 1) -> list[tuple[np.ndarray, float]]:
    """``(x, e_best)`` of each trial of :func:`iter_trials`, in trial order."""
    return [(r.x, r.e_best) for r in iter_trials(oracle, n, cfg, trials, solver, jobs)]


def success_rate(problem: QuboProblem, cfg: AnnealConfig, trials: int,
                 optimum: float | None = None, *, oracle: Oracle | None = None,
                 solver: str = "mesa", jobs: int = 1, tol: float = 1e-9) -> float:
    """Fraction of trials whose returned minimizer attains the optimum.

    The search runs on ``oracle`` (default: exact evaluation of ``problem``),
    but each returned vector is scored with the exact problem energy, so a
    quantized or noisy oracle is judged by the true quality of its answers.
    ``optimum`` defaults to the exhaustive minimum of ``problem``.
    """
    if optimum is None:
        from .qubo import brute_force_minimize
        _, optimum, _ = brute_force_minimize(problem)
    search = oracle if oracle is not None else exact_oracle(problem)
    score = exact_oracle(problem)
    records = iter_trials(search, problem.n, cfg, trials, solver=solver, jobs=jobs)
    hits = sum(1 for r in records if score(r.x) <= optimum + tol)
    return hits / trials
