"""Delta evaluators against full evaluation, step by step.

Each walk resets to a random state, then peeks random flips of 1 to 3 bits
and commits about half of them; every energy the evaluator returns is
compared with the oracle's own full evaluation of the same state.
"""

import io
import math

import numpy as np
import pytest

from qubocim import anneal
from qubocim.anneal import CALIBRATION_SAMPLES, AnnealConfig, mesa_solve, sa_solve
from qubocim.compress import compress
from qubocim.convert import (FactorizationEncoding, Graph, coloring_to_qubo,
                             demo_coloring_instance, maxcut_to_qubo, pfp_to_qubo,
                             suggest_bit_lengths)
from qubocim import crossbar
from qubocim.crossbar import (BATCH_STATES, MOVE_TABLE_MAX, AdcParams, DeviceParams, HwEvaluator,
                              make_hw_oracle, vmv)
from qubocim.errors import DimensionError
from qubocim.qubo import ExactEvaluator, QuboProblem, exact_oracle

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

    def test_ideal_adc_and_single_band_evaluate_by_delta(self):
        q = random_maxcut(40, 150, 6)
        c, _ = compress(q)
        ideal = make_hw_oracle(c, bits=3, dev=NOISY, seed=6, tile_rows=4,
                               adc=AdcParams(bits=None))
        single = make_hw_oracle(c, bits=3, dev=NOISY, seed=6, tile_rows=64)
        assert len(single._bands) == 1
        for oracle in (ideal, single):
            assert isinstance(oracle.evaluator(), HwEvaluator)
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


def reset_peek_deltas(evaluator, states, flips):
    """The calibration loop that ``flip_deltas`` replaces: a reset and a one-bit peek per state."""
    deltas = []
    for x, i in zip(states, flips):
        energy = evaluator.reset(x)
        deltas.append(evaluator.peek([i]) - energy)
    return deltas


def flipped(x, i):
    y = x.copy()
    y[i] ^= 1
    return y


def calibration_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, n), dtype=np.int8), rng.integers(0, n, size=count).tolist()


def pfp323():
    problem, _ = pfp_to_qubo(FactorizationEncoding(323, *suggest_bit_lengths(323)))
    return compress(problem)[0]


def batch_cases():
    """(name, oracle) pairs covering every kind of array the batch reads."""
    maxcut, _ = compress(random_maxcut(60, 300, 1))
    graph, k, penalty = demo_coloring_instance()
    ternary, _ = compress(coloring_to_qubo(graph, k, penalty)[0])
    small, _ = compress(random_maxcut(40, 150, 4))
    factoring = pfp323()
    cases = [
        ("noisy-multi-band", make_hw_oracle(maxcut, bits=3, dev=NOISY, seed=1, tile_rows=4)),
        ("ternary", make_hw_oracle(ternary, ternary=True, dev=NOISY, seed=3, tile_rows=3)),
        ("clipping-full-scale", make_hw_oracle(small, bits=4, dev=NOISY, seed=4, tile_rows=8,
                                               adc=AdcParams(bits=3, full_scale=5.5))),
        ("ideal-adc", make_hw_oracle(maxcut, bits=3, dev=NOISY, seed=6, tile_rows=4,
                                     adc=AdcParams(bits=None))),
        # OFF leakage reads as counts, so a flip moves counts in every column
        ("leakage-reads", make_hw_oracle(maxcut, bits=3, dev=DeviceParams(i_off_ratio=0.05),
                                         seed=5, tile_rows=14, adc=AdcParams(bits=10))),
    ]
    cases += [(f"pfp323-bits{bits}", make_hw_oracle(factoring, bits=bits, seed=7,
                                                     dev=DeviceParams(i_on_rel_sigma=0.0)))
              for bits in (2, 3, 4, 5)]
    return cases


def test_walks_without_move_tables_read_incrementally(monkeypatch):
    """Without move layouts no band has dense currents, so every peek reads
    its flipped rows' ON cells and the band's shift."""
    monkeypatch.setattr(crossbar, "MOVE_TABLE_MAX", 0)
    for seed, (name, oracle) in enumerate(batch_cases()):
        for got, want in walk(oracle, oracle.n, seed):
            assert got == want, name


class TestFlipDeltas:
    """``flip_deltas`` equals the reset/peek loop bit for bit."""

    @pytest.mark.parametrize("count", [3, BATCH_STATES, 2 * BATCH_STATES + 5, CALIBRATION_SAMPLES],
                             ids=["below-chunk", "one-chunk", "not-a-multiple", "calibration"])
    def test_equals_reset_peek_loop(self, count):
        for name, oracle in batch_cases():
            states, flips = calibration_pairs(oracle.n, count, count)
            want = reset_peek_deltas(oracle.evaluator(), states, flips)
            assert oracle.evaluator().flip_deltas(states, flips).tolist() == want, name
            full = [oracle(flipped(x, i)) - oracle(x) for x, i in zip(states, flips)]
            assert want == full, name

    def test_kinds(self):
        cases = dict(batch_cases())
        assert len(cases["noisy-multi-band"]._bands) > 1
        assert {type(oracle.evaluator()) for oracle in cases.values()} == {HwEvaluator}

    def test_state_is_kept_and_shape_checked(self):
        oracle = batch_cases()[0][1]
        evaluator = oracle.evaluator()
        x = np.ones(oracle.n, dtype=np.int8)
        evaluator.reset(x)
        states, flips = calibration_pairs(oracle.n, 5, 0)
        evaluator.flip_deltas(states, flips)
        x[3] = 0
        assert evaluator.peek([3]) == oracle(x)
        with pytest.raises(DimensionError):
            evaluator.flip_deltas(states[:, 1:], flips)
        with pytest.raises(DimensionError):
            evaluator.flip_deltas(states, flips[1:])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_start_equals_the_calibration_loop(self, seed):
        """``anneal._start`` returns the (t0, x, E) of the per-state loop it replaced."""
        for name, oracle in batch_cases()[:3] + [("exact", exact_oracle(random_maxcut(30, 90, 3)))]:
            cfg = AnnealConfig(seed=seed)
            cal, main = np.random.SeedSequence(seed).spawn(2)
            cal_rng = np.random.Generator(np.random.PCG64(cal))
            evaluator = oracle.evaluator()
            deltas = np.empty(CALIBRATION_SAMPLES)
            for i in range(CALIBRATION_SAMPLES):
                e = evaluator.reset(cal_rng.integers(0, 2, size=oracle.n, dtype=np.int8))
                deltas[i] = evaluator.peek(anneal.flip_indices(oracle.n, 1, cal_rng)) - e
            x = np.random.Generator(np.random.PCG64(main)).integers(0, 2, size=oracle.n,
                                                                    dtype=np.int8)
            _, _, t0, got_x, energy = anneal._start(oracle, oracle.n, cfg)
            assert (t0, got_x.tolist(), energy) == (float(np.std(deltas)), x.tolist(), oracle(x)), name


def count_band_reads(oracle):
    """Wrap the oracle's ADC read of a band's currents, which every band
    read passes through; returns the list its calls append to, the number
    of states each call reads."""
    calls = []
    kernel = oracle._adc_counts

    def counted(band, currents):
        calls.append(len(currents) if currents.ndim == 2 else 1)
        return kernel(band, currents)

    oracle._adc_counts = counted
    return calls


def peek_checked(evaluator, oracle, x, flips, calls=()):
    """Peek ``flips`` from state ``x`` and check the energy; returns the peeked
    state and the band reads the peek appended to ``calls``."""
    y = x.copy()
    y[flips] ^= 1
    want = oracle(y)
    before = len(calls)
    assert evaluator.peek(flips) == want
    return y, list(calls[before:])


def stuck_walk(oracle, widths, seed, steps=300, commit_rate=0.05):
    """A random walk that, like a trapped annealer, peeks many moves per state
    and commits few; every energy is checked against ``oracle(y)``.  Returns
    the number of tables built."""
    rng = np.random.default_rng(seed)
    evaluator = oracle.evaluator()
    x = rng.integers(0, 2, size=oracle.n, dtype=np.int8)
    assert evaluator.reset(x) == oracle(x)
    built = 0
    for _ in range(steps):
        width = int(rng.choice(widths))
        had = width in evaluator._tables
        flips = rng.choice(oracle.n, size=width, replace=False).tolist()
        y = peek_checked(evaluator, oracle, x, flips)[0]
        built += not had and width in evaluator._tables
        if rng.random() < commit_rate:
            evaluator.commit()
            x = y
            assert not evaluator._tables
    return built


class TestMoveTable:
    """The per-state move table serves repeated peeks at one state exactly."""

    def test_table_peeks_make_no_band_read(self):
        oracle = make_hw_oracle(pfp323(), bits=5, seed=7, dev=DeviceParams(i_on_rel_sigma=0.0))
        calls = count_band_reads(oracle)
        evaluator = oracle.evaluator()
        x = np.random.default_rng(0).integers(0, 2, size=oracle.n, dtype=np.int8)
        rows = oracle._rows.tolist()  # flipping one of these re-reads the band
        rng = np.random.default_rng(1)
        for width in (1, 2):
            evaluator.reset(x)
            assert peek_checked(evaluator, oracle, x, rows[:width], calls)[1] == [1]
            trigger = evaluator._moves[width].trigger
            assert trigger >= 2 and width not in evaluator._tables
            for _ in range(2, trigger):  # ordinary peeks: one band read for one state
                flips = rng.choice(rows, size=width, replace=False).tolist()
                assert peek_checked(evaluator, oracle, x, flips, calls)[1] == [1]
            built = peek_checked(evaluator, oracle, x, rows[-width:], calls)[1]
            assert width in evaluator._tables and sum(built) == len(evaluator._moves[width].flips) - \
                math.comb(oracle.n - len(set(rows)), width)  # every move that flips a row variable
            for _ in range(40):
                flips = rng.choice(oracle.n, size=width, replace=False).tolist()
                assert peek_checked(evaluator, oracle, x, flips, calls)[1] == []
        # Peeks of every width count: after enough single peeks, the first pair peek builds.
        evaluator.reset(x)
        for _ in range(evaluator._moves[2].trigger - 1):
            peek_checked(evaluator, oracle, x, rng.choice(rows, size=1).tolist())
        assert 1 in evaluator._tables and 2 not in evaluator._tables
        assert sum(peek_checked(evaluator, oracle, x, rows[:2], calls)[1]) > 1
        assert 2 in evaluator._tables

    def test_commit_after_a_table_peek(self):
        oracle = make_hw_oracle(pfp323(), bits=3, seed=7, dev=NOISY)
        evaluator = oracle.evaluator()
        x = np.zeros(oracle.n, dtype=np.int8)
        evaluator.reset(x)
        while 1 not in evaluator._tables:
            peek_checked(evaluator, oracle, x, [0])
        y = peek_checked(evaluator, oracle, x, [5])[0]
        evaluator.commit()
        assert not evaluator._tables
        for i in range(oracle.n):
            peek_checked(evaluator, oracle, y, [i])
            peek_checked(evaluator, oracle, y, [i, (i + 1) % oracle.n])
        assert 1 in evaluator._tables and 2 in evaluator._tables
        assert evaluator.reset(y) == oracle(y) and not evaluator._tables

    @pytest.mark.parametrize("kind", ["binary", "ternary"])
    def test_multiband(self, kind):
        if kind == "binary":
            oracle = make_hw_oracle(compress(random_maxcut(30, 90, 2))[0], bits=3, dev=NOISY,
                                    seed=2, tile_rows=3)
        else:
            graph, k, penalty = demo_coloring_instance()
            ternary, _ = compress(coloring_to_qubo(graph, k, penalty)[0])
            oracle = make_hw_oracle(ternary, ternary=True, dev=NOISY, seed=3, tile_rows=3)
        assert len(oracle._bands) > 2
        assert stuck_walk(oracle, [1, 2], 1, steps=600) > 2

    def test_empty_and_width_three(self):
        oracle = make_hw_oracle(compress(random_maxcut(14, 40, 5))[0], bits=3, dev=NOISY,
                                seed=5, tile_rows=3)
        assert stuck_walk(oracle, [0, 3], 5, steps=400) > 2

    def test_above_the_cap_never_tabulates(self, monkeypatch):
        oracle = make_hw_oracle(pfp323(), bits=4, seed=7, dev=NOISY)
        monkeypatch.setattr(crossbar, "MOVE_TABLE_MAX", oracle.n - 1)
        calls = count_band_reads(oracle)
        evaluator = oracle.evaluator()
        x = np.ones(oracle.n, dtype=np.int8)
        evaluator.reset(x)
        for _ in range(60):
            assert peek_checked(evaluator, oracle, x, [int(oracle._rows[0])], calls)[1] == [1]
        assert evaluator._moves == {1: None} and not evaluator._tables
        assert MOVE_TABLE_MAX >= 435  # every pair of the 30 pfp323 variables fits by default


def random_states(oracle, seed, count=40):
    """Random states of every density, plus all zeros and all ones."""
    rng = np.random.default_rng(seed)
    states = [(rng.random(oracle.n) < rng.random()).astype(np.int8) for _ in range(count)]
    return states + [np.zeros(oracle.n, dtype=np.int8), np.ones(oracle.n, dtype=np.int8)]


def reference_readout(oracle, x, all_columns=False):
    """:func:`vmv` diagnostics of state ``x`` on the oracle's dense stack."""
    xv = np.ones(oracle.stack.n_cols, dtype=np.int8) if all_columns else x[oracle._cols]
    return vmv(oracle.stack, x[oracle._rows], xv, oracle.adc)[1]


def all_entries(oracle):
    return np.arange(len(oracle.stack.planes) * oracle.stack.n_cols)


class TestLiveEntries:
    """Compacted tile bands read the ADC counts of the dense reference readout."""

    def multiband_oracles(self):
        q = random_maxcut(60, 300, 1)
        c, _ = compress(q)
        graph, k, penalty = demo_coloring_instance()
        ternary, _ = compress(coloring_to_qubo(graph, k, penalty)[0])
        return [make_hw_oracle(c, bits=3, dev=NOISY, seed=1, tile_rows=4),
                make_hw_oracle(ternary, ternary=True, dev=NOISY, seed=3, tile_rows=3)]

    def test_counts_equal_dense_readout(self):
        for oracle in self.multiband_oracles():
            assert len(oracle._bands) > 1
            assert sum(b.entries.size for b in oracle._bands) < \
                len(oracle._bands) * all_entries(oracle).size  # some entries are dropped
            for x in random_states(oracle, 11):
                diag = reference_readout(oracle, x)
                band_counts = oracle._read(x)[0]
                for b, band in enumerate(oracle._bands):
                    counts = np.zeros(all_entries(oracle).size)
                    counts[band.entries] = band_counts[b]
                    counts = counts.reshape(len(oracle.stack.planes), oracle.stack.n_cols)
                    for p in range(len(oracle.stack.planes)):
                        want = diag["counts"][p][b]
                        assert np.array_equal(counts[p, diag["active_cols"]], want)

    def test_dead_entries_read_zero(self):
        for oracle in self.multiband_oracles():
            for x in random_states(oracle, 12):
                diag = reference_readout(oracle, x, all_columns=True)
                for b, band in enumerate(oracle._bands):
                    dense = np.concatenate([diag["counts"][p][b]
                                            for p in range(len(oracle.stack.planes))])
                    dead = np.setdiff1d(all_entries(oracle), band.entries)
                    assert dead.size and not dense[dead].any()

    @pytest.mark.parametrize("dev, adc, tile_rows", [
        (DeviceParams(i_off_ratio=0.05), AdcParams(bits=10), 14),
        (NOISY, AdcParams(bits=None), 4),
    ], ids=["leakage-reads-a-count", "ideal-adc"])
    def test_every_entry_live_when_leakage_reads(self, dev, adc, tile_rows):
        q = random_maxcut(60, 300, 1)
        c, _ = compress(q)
        oracle = make_hw_oracle(c, bits=3, dev=dev, seed=1, tile_rows=tile_rows, adc=adc)
        stack = oracle.stack
        assert len(oracle._bands) > 1
        for band in oracle._bands:
            leak = np.array([(band.r1 - band.r0) * stack.off_current])
            assert adc.read(leak, band.full_scale)[1][0] > 0
            assert np.array_equal(band.entries, all_entries(oracle))
            dense = np.concatenate([p.cell_current[band.r0:band.r1] for p in stack.planes], axis=1)
            assert np.array_equal(band.currents, dense)
        for got, want in walk(oracle, q.n, 1):
            assert got == want


def held_bytes(obj, seen) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` and not in ``seen``."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(held_bytes(v, seen) for v in obj)
    if isinstance(obj, dict):
        return sum(held_bytes(v, seen) for v in obj.values())
    return sum(held_bytes(v, seen) for v in vars(obj).values()) if hasattr(obj, "__dict__") else 0


def test_hw_memory_follows_on_cells_and_live_entries():
    """An oracle, its bands and an evaluator that has reset and peeked hold
    a few words per ON cell and per live entry, not a (rows, live) current
    image per band, which took 241 bytes per ON cell on this instance."""
    rng = np.random.default_rng(3)
    n = 1500
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, n, size=(3100, 2)) if u != v}
    c, _ = compress(maxcut_to_qubo(Graph.from_edges(n, sorted(pairs)[:3000]))[0])
    oracle = make_hw_oracle(c, bits=3)
    evaluator = oracle.evaluator()
    x = rng.integers(0, 2, size=n, dtype=np.int8)
    evaluator.reset(x)
    for i in range(0, 40, 2):
        peek_checked(evaluator, oracle, x, [int(oracle._rows[i])])
    seen = set()
    held_bytes(c, seen)  # the compressed input is not the crossbar's
    held = held_bytes(oracle, seen) + held_bytes(evaluator, seen)
    on_cells = sum(p.rows.size for p in oracle.stack.planes)
    live = sum(band.entries.size for band in oracle._bands)
    assert on_cells > 5000 and live > 5000
    assert held < 64 * (on_cells + live)


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
