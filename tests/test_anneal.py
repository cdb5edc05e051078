"""Tests for the multi-epoch annealer, the SA baseline, and trial harnesses."""

import io
import math

import numpy as np
import pytest

from qubocim.anneal import (AnnealConfig, AnnealTrace, derive_seed, flip_indices, mesa_solve,
                            run_trials, sa_solve, success_rate)
from qubocim.convert import coloring_to_qubo, demo_coloring_instance
from qubocim.errors import ConfigError
from qubocim.qubo import QuboProblem, brute_force_minimize, exact_oracle, toggle

# unique exhaustive minimum (multiplicity 1): E = -3.5 at x = (0, 1, 0, 1)
UNIQUE_MIN = QuboProblem(4, {(0, 1): 3.0, (1, 2): -2.0, (2, 3): 4.0, (0, 3): -1.0},
                         [1.0, -2.0, 1.0, -1.5])


class ZeroOracle:
    def __call__(self, x):
        return 0.0


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(t0=0.0), dict(alpha=1.0), dict(alpha=0.0), dict(eps_trap=-1.0),
        dict(count_max=0), dict(max_epochs=0), dict(max_iters=0),
        dict(flip_base=0), dict(seed=-1), dict(t0=math.inf), dict(eps_trap=math.nan),
        dict(eps_trap=math.inf),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            AnnealConfig(**bad).validate()

    def test_flip_base_bounded_by_n(self):
        with pytest.raises(ConfigError):
            AnnealConfig(flip_base=5).validate(n=4)

    def test_auto_scaling_rules(self):
        cfg = AnnealConfig()
        assert cfg.resolved_count_max(10) == 20
        assert cfg.resolved_alpha(10) == pytest.approx(0.05 ** 0.1)
        explicit = AnnealConfig(alpha=0.5, count_max=7)
        assert explicit.resolved_alpha(10) == 0.5
        assert explicit.resolved_count_max(10) == 7


class TestMesa:
    def test_zero_oracle(self):
        cfg = AnnealConfig(seed=3)
        x, e, trace = mesa_solve(ZeroOracle(), 4, cfg)
        assert e == 0.0
        assert trace.e_best[0] == 0.0  # best known from iteration 1
        assert trace.trapped.all()     # every iteration stagnant
        # epochs end every count_max=2n=8 stagnant iterations until the cap
        assert trace.epochs_used == cfg.max_epochs
        assert trace.iters_used == cfg.max_epochs * 8

    def test_finds_unique_minimum(self):
        _, e_min, mult = brute_force_minimize(UNIQUE_MIN)
        assert mult == 1
        oracle = exact_oracle(UNIQUE_MIN)
        hits = sum(mesa_solve(oracle, 4, AnnealConfig(seed=s, max_iters=400))[1]
                   <= e_min + 1e-9 for s in range(100))
        assert hits >= 99

    def test_bitwise_reproducibility(self):
        oracle = exact_oracle(UNIQUE_MIN)
        cfg = AnnealConfig(seed=42, max_iters=500)
        buffers = []
        for _ in range(2):
            _, _, trace = mesa_solve(oracle, 4, cfg)
            buf = io.StringIO()
            trace.write_csv(buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]

    def test_best_energy_monotone(self):
        graph, k, penalty = demo_coloring_instance()
        q, _ = coloring_to_qubo(graph, k, penalty)
        _, _, trace = mesa_solve(exact_oracle(q), q.n, AnnealConfig(seed=7, max_iters=600))
        assert (np.diff(trace.e_best) <= 0).all()

    def test_epoch_chaining(self):
        graph, k, penalty = demo_coloring_instance()
        q, _ = coloring_to_qubo(graph, k, penalty)
        _, _, trace = mesa_solve(exact_oracle(q), q.n,
                                 AnnealConfig(seed=5, max_iters=800, max_epochs=20))
        assert trace.epochs_used > 1
        starts = np.flatnonzero(np.diff(trace.epoch)) + 1
        for s in starts:
            # the first comparison energy of a new epoch is the global best
            # recorded at the end of the previous one
            assert trace.e_o[s] == trace.e_best[s - 1]

    def test_epoch_restart_resets_temperature(self):
        _, _, trace = mesa_solve(ZeroOracle(), 4, AnnealConfig(seed=1, t0=2.0, max_iters=40))
        starts = np.flatnonzero(np.diff(trace.epoch)) + 1
        assert len(starts) > 0
        assert all(trace.temperature[s] == 2.0 for s in starts)

    def test_flip_counts_recorded_and_ramped(self):
        # stagnation under the zero oracle ramps the perturbation to 2 bits
        _, _, trace = mesa_solve(ZeroOracle(), 30, AnnealConfig(seed=0, max_iters=100))
        assert set(np.unique(trace.flips)) == {1, 2}
        _, _, trace2 = mesa_solve(ZeroOracle(), 30,
                                  AnnealConfig(seed=0, max_iters=100, adaptive_flips=False))
        assert set(np.unique(trace2.flips)) == {1}


class TestSa:
    def test_zero_oracle_immediate(self):
        x, e, trace = sa_solve(ZeroOracle(), 4, AnnealConfig(seed=2, max_iters=50))
        assert e == 0.0 and trace.e_best[0] == 0.0

    def test_finds_unique_minimum(self):
        # plain SA has no restart mechanism, so give it a schedule that cools
        # over a generous budget instead of the epoch-sized auto decay
        _, e_min, _ = brute_force_minimize(UNIQUE_MIN)
        oracle = exact_oracle(UNIQUE_MIN)
        hits = sum(sa_solve(oracle, 4, AnnealConfig(seed=s, alpha=0.98, max_iters=2000))[1]
                   <= e_min + 1e-9 for s in range(100))
        assert hits >= 95

    def test_acceptance_law_matches_metropolis(self):
        # Single variable, energy delta = +2 uphill from the zero state, at a
        # pinned, almost constant temperature.  Uphill acceptance frequency
        # must match exp(-delta/T) within 3 binomial sigma.
        delta, t0 = 2.0, 1.7

        class Step:
            def __call__(self, x):
                return delta if x[0] else 0.0

        cfg = AnnealConfig(seed=9, t0=t0, alpha=1 - 1e-12, max_iters=6000)
        _, _, trace = sa_solve(Step(), 1, cfg)
        uphill = trace.e_new > trace.e_o
        n_up = int(uphill.sum())
        accepted_up = int((uphill & trace.accepted).sum())
        p = math.exp(-delta / t0)
        sigma = math.sqrt(n_up * p * (1 - p))
        assert abs(accepted_up - n_up * p) <= 3 * sigma


class TestPerturbation:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_flip_bits_toggles_exactly_k(self, k):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=12, dtype=np.int8)
        for _ in range(50):
            y = x.copy()
            toggle(y, flip_indices(len(x), k, rng))
            assert int((x != y).sum()) == k


class TestHarness:
    def test_derive_seed_is_stable(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(1, 0) != derive_seed(0, 0)

    def test_success_rate_trivial_problem(self):
        q = QuboProblem(3, {}, [1.0, 1.0, 1.0])
        rate = success_rate(q, AnnealConfig(seed=0, max_iters=100), trials=10)
        assert rate == 1.0

    def test_success_rate_pfp35_golden(self):
        # measured once with the default config at a 500-iteration budget over
        # 100 derived seeds, then frozen; deterministic by construction
        from qubocim.convert import FactorizationEncoding, pfp_to_qubo
        q, _ = pfp_to_qubo(FactorizationEncoding(35, 1, 1))
        rate = success_rate(q, AnnealConfig(seed=0, max_iters=500), trials=100, optimum=0.0)
        assert rate == 0.85

    def test_run_trials_order_independent_of_jobs(self):
        oracle = exact_oracle(UNIQUE_MIN)
        cfg = AnnealConfig(seed=4, max_iters=200)
        serial = run_trials(oracle, 4, cfg, trials=6, jobs=1)
        parallel = run_trials(oracle, 4, cfg, trials=6, jobs=2)
        for (xa, ea), (xb, eb) in zip(serial, parallel):
            assert ea == eb and np.array_equal(xa, xb)

    def test_csv_header(self):
        _, _, trace = sa_solve(ZeroOracle(), 2, AnnealConfig(seed=0, max_iters=3))
        buf = io.StringIO()
        trace.write_csv(buf)
        assert buf.getvalue().splitlines()[0] == "iter,epoch,E_new,E_o,E_best,accepted,trapped,T,flips"

    def test_csv_bytes_pinned(self):
        # the exact text of the row format, non-integer and extreme floats included
        trace = AnnealTrace(
            iteration=np.array([1, 2, 3, 4]), epoch=np.array([0, 0, 1, 1]),
            e_new=np.array([-3.5, 0.1, 1e-300, -2.5e17]),
            e_o=np.array([0.0, -3.5, 1 / 3, 7.0]),
            e_best=np.array([-3.5, -3.5, -3.5, -2.5e17]),
            accepted=np.array([True, False, False, True]),
            trapped=np.array([False, True, True, False]),
            temperature=np.array([2.0, 0.1 * 3, 5e-324, 1.7976931348623157e308]),
            flips=np.array([1, 2, 1, 3]), iters_used=4)
        buf = io.StringIO()
        trace.write_csv(buf)
        assert buf.getvalue() == (
            "iter,epoch,E_new,E_o,E_best,accepted,trapped,T,flips\n"
            "1,0,-3.5,0.0,-3.5,1,0,2.0,1\n"
            "2,0,0.1,-3.5,-3.5,0,1,0.30000000000000004,2\n"
            "3,1,1e-300,0.3333333333333333,-3.5,0,1,5e-324,1\n"
            "4,1,-2.5e+17,7.0,-2.5e+17,1,0,1.7976931348623157e+308,3\n")

    def test_trial_records_match_direct_solver_runs(self):
        from qubocim.anneal import iter_trials
        oracle = exact_oracle(UNIQUE_MIN)
        cfg = AnnealConfig(seed=9, max_iters=150)
        records = list(iter_trials(oracle, 4, cfg, trials=3, solver="sa"))
        assert [r.index for r in records] == [0, 1, 2]
        for r in records:
            assert r.seed == derive_seed(9, r.index) and r.wall_s >= 0
            x, e, trace = sa_solve(oracle, 4, AnnealConfig(seed=r.seed, max_iters=150))
            assert r.e_best == e and np.array_equal(r.x, x)
            assert np.array_equal(r.trace.e_new, trace.e_new)

    @pytest.mark.parametrize("trials, jobs, solver", [(0, 1, "mesa"), (1, 0, "mesa"),
                                                      (1, 1, "anneal")])
    def test_trial_settings_rejected_on_call(self, trials, jobs, solver):
        from qubocim.anneal import iter_trials
        with pytest.raises(ConfigError):
            iter_trials(ZeroOracle(), 2, AnnealConfig(), trials, solver, jobs)
