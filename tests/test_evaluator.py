"""Delta evaluators against full evaluation, step by step.

Each walk resets to a random state, then peeks random flips of 1 to 3 bits
and commits about half of them; every energy the evaluator returns is
compared with the oracle's own full evaluation of the same state.
"""

import io

import numpy as np
import pytest

from qubocim.anneal import CALIBRATION_SAMPLES, AnnealConfig, mesa_solve, sa_solve
from qubocim.compress import compress
from qubocim.convert import Graph, coloring_to_qubo, demo_coloring_instance, maxcut_to_qubo
from qubocim.crossbar import AdcParams, DeviceParams, HwEvaluator, make_hw_oracle
from qubocim.qubo import ExactEvaluator, FullEvaluator, QuboProblem, exact_oracle

NOISY = DeviceParams(i_on_rel_sigma=0.1, die_offset_sigma=0.05)


def walk(oracle, n, seed, steps=200):
    """(evaluator energy, oracle energy) for every step of a random walk."""
    rng = np.random.default_rng(seed)
    evaluator = oracle.evaluator()
    x = rng.integers(0, 2, size=n, dtype=np.int8)
    pairs = [(evaluator.reset(x), oracle(x))]
    for step in range(steps):
        if step % 97 == 96:
            x = rng.integers(0, 2, size=n, dtype=np.int8)
            pairs.append((evaluator.reset(x), oracle(x)))
        flips = rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
        y = x.copy()
        y[flips] ^= 1
        pairs.append((evaluator.peek(flips), oracle(y)))
        if rng.random() < 0.5:
            evaluator.commit()
            x = y
    return pairs


def random_maxcut(n, edges, seed):
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(edges, 2)).tolist() if p[0] != p[1]}
    problem, _ = maxcut_to_qubo(Graph.from_edges(n, sorted(pairs)))
    return problem


def random_problem(n, density, seed, integer):
    rng = np.random.default_rng(seed)
    draw = (lambda: float(rng.integers(-9, 10))) if integer else (lambda: float(rng.normal() * 3))
    offdiag = {(i, j): draw() for i in range(n) for j in range(i + 1, n)
               if rng.random() < density}
    return QuboProblem(n, offdiag, [draw() for _ in range(n)], draw())


class TestHwEvaluator:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_multiband_binary_noisy(self, seed):
        q = random_maxcut(60, 300, seed)
        c, _ = compress(q)
        assert set(c.row_vars) & set(c.col_vars)  # some variables are both
        oracle = make_hw_oracle(c, bits=3, dev=NOISY, seed=seed, tile_rows=4)
        assert isinstance(oracle.evaluator(), HwEvaluator)
        for got, want in walk(oracle, q.n, seed):
            assert got == want

    @pytest.mark.parametrize("tile_rows", [3, 4])
    def test_multiband_ternary(self, tile_rows):
        # tile_rows=3 puts the two physical rows of some logical rows in two bands
        graph, k, penalty = demo_coloring_instance()
        q, _ = coloring_to_qubo(graph, k, penalty)
        c, _ = compress(q)
        oracle = make_hw_oracle(c, ternary=True, dev=NOISY, seed=3, tile_rows=tile_rows)
        assert isinstance(oracle.evaluator(), HwEvaluator)
        for got, want in walk(oracle, q.n, 5):
            assert got == want

    def test_explicit_full_scale(self):
        q = random_maxcut(40, 150, 4)
        c, _ = compress(q)
        oracle = make_hw_oracle(c, bits=4, dev=NOISY, seed=4, tile_rows=8,
                                adc=AdcParams(bits=3, full_scale=5.5))
        for got, want in walk(oracle, q.n, 4):
            assert got == want

    def test_ideal_adc_and_single_band_evaluate_in_full(self):
        q = random_maxcut(40, 150, 6)
        c, _ = compress(q)
        ideal = make_hw_oracle(c, bits=3, dev=NOISY, seed=6, tile_rows=4,
                               adc=AdcParams(bits=None))
        single = make_hw_oracle(c, bits=3, dev=NOISY, seed=6, tile_rows=64)
        for oracle in (ideal, single):
            assert isinstance(oracle.evaluator(), FullEvaluator)
            for got, want in walk(oracle, q.n, 6):
                assert got == want

    def test_reset_with_known_energy(self):
        q = random_maxcut(30, 100, 7)
        c, _ = compress(q)
        oracle = make_hw_oracle(c, bits=3, dev=NOISY, seed=7, tile_rows=4)
        evaluator = oracle.evaluator()
        x = np.ones(q.n, dtype=np.int8)
        assert evaluator.reset(x, oracle(x)) == oracle(x)
        x[[0, 5]] = 0
        assert evaluator.peek([0, 5]) == oracle(x)


class TestExactEvaluator:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integer_coefficients_exact(self, seed):
        oracle = exact_oracle(random_problem(30, 0.3, seed, integer=True))
        assert isinstance(oracle.evaluator(), ExactEvaluator)
        for got, want in walk(oracle, 30, seed, steps=400):
            assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float_coefficients_within_1e9_relative(self, seed):
        # 400 steps with about 200 commits pass the resync after n=30 commits
        q = random_problem(30, 0.3, seed, integer=False)
        scale = abs(q.constant) + np.abs(q.linear).sum() + sum(map(abs, q.offdiag.values()))
        for got, want in walk(exact_oracle(q), 30, seed, steps=400):
            assert abs(got - want) <= 1e-9 * scale

    def test_float_state_resyncs_every_n_commits(self):
        q = random_problem(30, 0.5, 3, integer=False)
        oracle = exact_oracle(q)
        evaluator = oracle.evaluator()
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=30, dtype=np.int8)
        evaluator.reset(x)
        for _ in range(30):
            flips = rng.choice(30, size=2, replace=False).tolist()
            evaluator.peek(flips)
            evaluator.commit()
            x[flips] ^= 1
        assert evaluator.peek([]) == oracle(x)

    def test_no_couplings(self):
        oracle = exact_oracle(QuboProblem(5, {}, [1.0, -2.0, 0.0, 3.0, -1.0], 2.0))
        for got, want in walk(oracle, 5, 9, steps=50):
            assert got == want


def run_csv(solver, oracle, n, cfg):
    x, e, trace = solver(oracle, n, cfg)
    buf = io.StringIO()
    trace.write_csv(buf)
    return x.tolist(), e, trace.epochs_used, buf.getvalue()


class TestSolverIdentity:
    """A solver gives the same run through an oracle's own evaluator as
    through a plain callable, which it evaluates in full."""

    @pytest.mark.parametrize("solver", [mesa_solve, sa_solve])
    @pytest.mark.parametrize("flip_base", [1, 2])
    def test_exact_and_hw(self, solver, flip_base):
        q = random_maxcut(50, 200, 8)
        c, _ = compress(q)
        hw = make_hw_oracle(c, bits=3, dev=NOISY, seed=8, tile_rows=4)
        cfg = AnnealConfig(seed=11, max_iters=600, count_max=60, flip_base=flip_base,
                           eps_trap=hw.energy_lsb / 2)
        for oracle in (exact_oracle(q), hw):
            delta = run_csv(solver, oracle, q.n, cfg)
            full = run_csv(solver, lambda x: oracle(x), q.n, cfg)
            assert delta == full
            if solver is mesa_solve:
                assert delta[2] > 1  # epoch restarts were exercised

    def test_plain_callable_restart_costs_no_evaluation(self):
        q = random_maxcut(20, 40, 9)
        oracle = exact_oracle(q)
        calls = []

        def counted(x):
            calls.append(1)
            return oracle(x)

        _, _, trace = mesa_solve(counted, q.n, AnnealConfig(seed=2, max_iters=500, count_max=20))
        assert trace.epochs_used > 1
        assert len(calls) == 2 * CALIBRATION_SAMPLES + 1 + trace.iters_used
