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
``commit``, and ``flip_deltas`` for the t0 calibration, see
:class:`qubocim.qubo.FullEvaluator`): an oracle with an
``evaluator()`` method supplies its own delta evaluator, and any other
callable is evaluated in full on every candidate.

Randomness comes from numpy's PCG64 generator with explicit 64-bit seeding;
identical (oracle, config, seed) triples reproduce traces bit for bit on one
machine and numpy/BLAS build (float reductions may round differently
elsewhere).  The search's draws are read from blocks of the generator's raw
PCG64 words (:class:`_BlockDraws`) and equal ``Generator.integers``,
``Generator.random`` and ``Generator.choice`` on the same stream (checked
against numpy 2.4.6).
The two-index move's draws are defined here, in :func:`flip_indices`, as
the three bounded-integer draws that numpy 2.x's ``Generator.choice(n, 2,
replace=False)`` makes, so they equal ``choice``'s indices and leave the
generator in the same state; wider moves call ``choice`` itself.  t0
calibration and the start state draw through ``Generator`` itself.
Independent trials derive per-trial seeds from ``(base_seed,
trial_index)`` so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .qubo import FullEvaluator, QuboProblem, exact_oracle, toggle

Oracle = Callable[[np.ndarray], float]


CALIBRATION_SAMPLES = 100
FLIP_RAMP_AFTER = 25  # stagnant iterations before the perturbation widens by one bit
TRIALS_IN_FLIGHT = 2  # trials submitted to a process pool ahead of the results, per worker
CSV_BLOCK_ROWS = 2048  # trace rows that AnnealTrace.write_csv formats and joins at a time
DRAW_BLOCK = 256  # raw PCG64 words that _BlockDraws reads from its generator at a time


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


# The per-iteration fields of a trace in CSV column order, with their dtypes;
# the bool flags are written as 0 and 1.
_COLUMNS = (("iteration", np.int64), ("epoch", np.int64), ("e_new", np.float64),
            ("e_o", np.float64), ("e_best", np.float64), ("accepted", bool), ("trapped", bool),
            ("temperature", np.float64), ("flips", np.int64))


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
        """The header, then one row per iteration: each value as its ``repr``,
        the bool flags as 0 and 1.

        ``CSV_BLOCK_ROWS`` rows at a time, each column of them is formatted
        once per distinct value and the rows are joined into one string.
        """
        stream.write(self.CSV_HEADER + "\n")
        columns = [np.asarray(getattr(self, name)[:self.iters_used],
                              dtype=np.int64 if dtype is bool else dtype)
                   for name, dtype in _COLUMNS]
        for lo in range(0, self.iters_used, CSV_BLOCK_ROWS):
            block = [_texts(column[lo:lo + CSV_BLOCK_ROWS]) for column in columns]
            stream.write("\n".join(map(",".join, zip(*block))) + "\n")

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            self.write_csv(f)


def _texts(values: np.ndarray) -> list[str]:
    """``repr`` of each of the 8-byte ``values``, called once per distinct value.

    Values are told apart by their bits, so -0.0 keeps its own text.
    """
    distinct, at = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[at].tolist()


def _finish(rows: list[tuple], x_best, e_final, epochs_used) -> AnnealTrace:
    """The trace of the per-iteration ``rows``, each in :data:`_COLUMNS` order."""
    cols = list(zip(*rows)) or [()] * len(_COLUMNS)
    return AnnealTrace(**{name: np.array(col, dtype=dtype)
                          for (name, dtype), col in zip(_COLUMNS, cols)},
                       x_best=x_best, e_final=float(e_final), iters_used=len(rows),
                       epochs_used=epochs_used)


def flip_indices(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """``k`` distinct indices below ``n``, uniformly chosen.

    One index is one ``rng.integers(n)``.  Two indices are drawn here as
    numpy 2.x's ``rng.choice(n, 2, replace=False)`` draws them, without its
    set allocation and argument handling: Floyd's algorithm (Bentley and
    Floyd, CACM 30(9), 1987) takes ``i`` below ``n - 1`` and ``j`` below
    ``n``, with ``n - 1`` in place of a ``j`` equal to ``i``; one more draw
    below 2 then orders the pair as ``choice``'s shuffle does.  The indices
    and the generator's state after the call equal ``choice``'s.  Three or
    more indices come from ``rng.choice`` itself.

    ``rng`` is a ``Generator`` or anything with its ``integers(n)`` and
    ``choice``, such as the search's :class:`_BlockDraws`, whose draws
    equal the generator's.
    """
    if k == 1:
        return [int(rng.integers(n))]
    if k == 2:
        i = int(rng.integers(n - 1))
        j = int(rng.integers(n))
        if j == i:
            j = n - 1
        return [i, j] if rng.integers(2) else [j, i]
    return rng.choice(n, size=k, replace=False).tolist()


class _BlockDraws:
    """The search draws of one generator, read from blocks of its raw words.

    ``integers(n)``, ``random()`` and ``choice(n, size, replace)`` return
    the values that the same calls on a PCG64 ``Generator`` would (checked
    against numpy 2.4.6), from ``DRAW_BLOCK`` words of
    ``bit_generator.random_raw`` at a time as Python ints, without numpy's
    per-call overhead.  For ``n <= 2**32`` a bounded integer is Lemire's
    draw on 32-bit halves, low half first, with the generator's buffered
    high half (``has_uint32``/``uinteger``) kept here; ``n = 1`` makes no
    draw.  A uniform is ``(word >> 11) * 2**-53``.

    Every other draw (``integers`` outside ``1..2**32``, and the ``choice``
    cases named there) puts the generator into the exact state of the draws
    made so far, asks the generator, and reads a new block from where it
    left off, so the stream stays the generator's own.
    """

    __slots__ = ("_gen", "_saved", "_words", "_at", "_has", "_half")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._open()

    def _open(self):
        """Take over the generator's half-word buffer and read a block from its position."""
        state = self._gen.bit_generator.state
        self._has, self._half = state["has_uint32"], state["uinteger"]
        self._read(state)

    def _read(self, state: dict):
        # ``state`` is the generator's state before this block, kept for a sync.
        self._saved = state
        self._words = self._gen.bit_generator.random_raw(DRAW_BLOCK).tolist()
        self._at = 0

    def _word(self) -> int:
        at = self._at
        if at == DRAW_BLOCK:
            self._read(self._gen.bit_generator.state)
            at = 0
        self._at = at + 1
        return self._words[at]

    def _uint32(self) -> int:
        if self._has:
            self._has = 0
            return self._half
        word = self._word()
        self._has = 1
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            return self.synced(lambda gen: gen.integers(n))
        if n == 1 << 32:
            return self._uint32()
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        """``Generator.choice(n, size, replace)`` for an int ``n``.

        Where numpy 2.x samples without replacement by Floyd's algorithm
        (``size`` of ``1..n``, with ``n <= 10_000`` or ``size <= n // 50``),
        the draws are made here as numpy makes them: for each ``j`` from
        ``n - size`` to ``n - 1`` one value below ``j + 1``, or ``j`` itself
        in place of a value already taken, then a Fisher-Yates shuffle that
        swaps place ``i`` with one below ``i + 1``, from the last place down.
        Every other case is the generator's own.
        """
        if replace or not 0 < size <= n or (n > 10_000 and size > n // 50):
            return self.synced(lambda gen: gen.choice(n, size, replace))
        picked, taken = [], set()
        for j in range(n - size, n):
            value = self.integers(j + 1)
            if value in taken:
                value = j
            taken.add(value)
            picked.append(value)
        for i in range(size - 1, 0, -1):
            j = self.integers(i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return np.array(picked, dtype=np.int64)

    def synced(self, draw: Callable[[np.random.Generator], object]):
        """``draw(generator)``, with the generator in the exact state of the
        draws made so far; later draws continue from the state it leaves."""
        bit_generator = self._gen.bit_generator
        bit_generator.state = {**self._saved, "has_uint32": self._has, "uinteger": self._half}
        bit_generator.random_raw(self._at)
        try:
            return draw(self._gen)
        finally:
            self._open()


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

    Calibration draws all ``CALIBRATION_SAMPLES`` (state, flip) pairs from
    the calibration generator before it evaluates any: for each pair in
    turn a random state, then one flip index.  The evaluator's
    ``flip_deltas`` then returns every single-flip energy change in one
    call; t0 is their standard deviation (1.0 if it is 0).  Where that
    overflows float64 (the squares of deltas above about 1e154 do), it is
    taken of the deltas divided by their largest magnitude and scaled back.
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
        states = np.empty((CALIBRATION_SAMPLES, n), dtype=np.int8)
        flips = []
        for state in states:
            state[:] = cal_rng.integers(0, 2, size=n, dtype=np.int8)
            flips += flip_indices(n, 1, cal_rng)
        deltas = evaluator.flip_deltas(states, flips)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is handled below
            spread = float(np.std(deltas))
        if not math.isfinite(spread):
            peak = float(np.max(np.abs(deltas)))
            spread = float(np.std(deltas / peak)) * peak
        t0 = spread if spread > 0 else 1.0
    x = rng.integers(0, 2, size=n, dtype=np.int8)
    return rng, evaluator, t0, x, evaluator.reset(x)


def _metropolis_accept(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    # The caller passes only uphill moves, delta > 0, so ``arg`` is negative.
    arg = -delta / temperature if temperature > 0 else -math.inf
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
    rng = _BlockDraws(rng)
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

    rows = []
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
        rows.append((iters, epoch, e_new, e_ref, e_best, accepted,
                    multi_epoch and not accepted, temperature, len(candidate)))

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
        else:
            temperature *= alpha
        candidate = flip_indices(n, flips, rng)

    trace = _finish(rows, x_best, e_best, min(epoch + 1, cfg.max_epochs))
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


def _trial(oracle: Oracle, n: int, cfg: AnnealConfig, solver: str, index: int) -> TrialRecord:
    """Trial ``index`` of the run, with its derived seed."""
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
    pool of at most one worker per trial.  The settings are checked on the
    call, before any trial starts.  The work is made as it is consumed, so
    any number of trials starts at once; a pool holds at most
    ``TRIALS_IN_FLIGHT`` trials per worker that are not yet yielded.
    """
    check_trials(trials, jobs, solver)
    run = (oracle, n, cfg, solver)
    if jobs == 1:
        return (_trial(*run, i) for i in range(trials))
    return _pooled(run, trials, min(jobs, trials))


# The (oracle, n, cfg, solver) of the run that a pool worker serves, set
# once per worker process by the pool's initializer.
_worker_run: tuple = ()


def _take_run(*run):
    global _worker_run
    _worker_run = run


def _worker_trial(index: int) -> TrialRecord:
    return _trial(*_worker_run, index)


def _pooled(run: tuple, trials: int, workers: int) -> Iterator[TrialRecord]:
    # At most one worker per trial: under fork, every worker starts at once.
    # The oracle goes to each worker once, through the initializer; a trial
    # is sent as its index.  ``Executor.map`` would submit every item
    # before yielding the first.
    with ProcessPoolExecutor(max_workers=workers, initializer=_take_run,
                             initargs=run) as pool:
        window = deque()
        try:
            for index in range(trials):
                window.append(pool.submit(_worker_trial, index))
                if len(window) == workers * TRIALS_IN_FLIGHT:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:  # a consumer that stops early waits for no more trials
                future.cancel()


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
