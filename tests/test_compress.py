"""Tests for lossless QUBO matrix compression."""

import tracemalloc

import numpy as np
import pytest

from qubocim.compress import (CompressedQubo, compress, compressed_energy,
                              decompress, from_text, split_signs, to_text)
from qubocim.convert import Graph, coloring_to_qubo, maxcut_to_qubo
from qubocim.crossbar import make_hw_oracle
from qubocim.errors import DimensionError, ParseError
from qubocim.qubo import QuboProblem, energy, energy_batch


def exhaustive_bits(n):
    return np.array([[(k >> (n - 1 - b)) & 1 for b in range(n)] for k in range(1 << n)],
                    dtype=np.int8)


def random_problem(rng, n, density):
    off = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                off[(i, j)] = float(rng.integers(1, 9)) * (1.0 if rng.random() < 0.5 else -1.0)
    return QuboProblem(n, off, rng.integers(-4, 5, size=n).astype(float),
                       float(rng.integers(-2, 3)))


# The 4-variable factoring-35 worked example: the negative-sign matrix has
# entries 6*x1*x3, 6*x2*x3, 16*x3*x4 (1-based); its compression must leave a
# single row for x3 against columns x1, x2, x4 with values (6, 6, 16).
WORKED_MINUS = QuboProblem(4, {(0, 2): 6.0, (1, 2): 6.0, (2, 3): 16.0}, [0.0, 0.0, 11.0, 0.0])
WORKED_PLUS = QuboProblem(4, {(0, 3): 12.0, (1, 3): 12.0}, [4.0, 4.0, 0.0, 22.0])


class TestWorkedExample:
    def test_minus_matrix_trace(self):
        c, stats = compress(WORKED_MINUS)
        assert c.row_vars == (2,)
        assert c.col_vars == (0, 1, 3)
        assert np.array_equal(c.qprime, [[6.0, 6.0, 16.0]])
        assert stats.cells_after == 3 and stats.rows_removed == 3

    def test_plus_matrix_compresses_to_one_by_two(self):
        c, _ = compress(WORKED_PLUS)
        assert c.shape == (1, 2)
        assert c.row_vars == (3,) and c.col_vars == (0, 1)

    def test_energy_preserved(self):
        for problem in (WORKED_MINUS, WORKED_PLUS):
            c, _ = compress(problem)
            for x in exhaustive_bits(4):
                assert compressed_energy(c, x) == energy(problem, x)

    def test_bilinear_contribution_reads_off_directly(self):
        # With x3 = x1 = 1 and x2 = x4 = 0 only the 6*x1*x3 cell is active.
        c, _ = compress(QuboProblem(4, {(0, 2): 6.0, (1, 2): 6.0, (2, 3): 16.0}))
        assert compressed_energy(c, [1, 0, 1, 0]) == 6.0


class TestSmallCases:
    def test_two_variable_single_entry(self):
        c, _ = compress(QuboProblem(2, {(0, 1): 3.5}))
        assert c.row_vars == (1,) and c.col_vars == (0,)
        assert np.array_equal(c.qprime, [[3.5]])

    def test_zero_offdiagonal_collapses_completely(self):
        c, stats = compress(QuboProblem(3, {}, [1.0, 2.0, 3.0], 4.0))
        assert c.shape == (0, 0)
        assert stats.chip_size_saving == 1.0
        assert compressed_energy(c, [1, 1, 0]) == 3.0 + 4.0

    def test_star_center_row_survives(self):
        # all coefficients share variable 0; they concentrate in its row
        c, _ = compress(QuboProblem(3, {(0, 1): 2.0, (0, 2): 3.0}))
        assert c.shape == (1, 2)
        assert c.row_vars == (0,)


class TestLosslessness:
    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_exhaustive_equality(self, density):
        rng = np.random.default_rng(int(density * 100))
        for _ in range(25):
            n = int(rng.integers(2, 11))
            q = random_problem(rng, n, density)
            c, _ = compress(q)
            X = exhaustive_bits(n)
            reference = energy_batch(q, X)
            Xf = X.astype(np.float64)
            got = (Xf @ q.linear + q.constant
                   + ((Xf[:, list(c.row_vars)] @ c.qprime) * Xf[:, list(c.col_vars)]).sum(axis=1))
            assert np.array_equal(reference, got)

    def test_area_never_grows(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            q = random_problem(rng, n, float(rng.uniform(0.1, 0.9)))
            c, stats = compress(q)
            assert stats.cells_after <= n * n
            degrees = np.zeros(n)
            for (i, j) in q.offdiag:
                degrees[i] += 1
                degrees[j] += 1
            if (degrees == 0).any():
                assert stats.cells_after < n * n

    def test_no_all_zero_rows_or_columns(self):
        rng = np.random.default_rng(78)
        for _ in range(40):
            q = random_problem(rng, int(rng.integers(2, 12)), 0.3)
            c, _ = compress(q)
            if c.qprime.size:
                assert np.count_nonzero(c.qprime, axis=1).all()
                assert np.count_nonzero(c.qprime, axis=0).all()

    def test_recompression_is_a_fixpoint(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            q = random_problem(rng, int(rng.integers(3, 11)), 0.4)
            c, _ = compress(q)
            entries = {}
            for a, i in enumerate(c.row_vars):
                for b, j in enumerate(c.col_vars):
                    v = c.qprime[a, b]
                    if v != 0.0 and i != j:
                        key = (min(i, j), max(i, j))
                        entries[key] = entries.get(key, 0.0) + v
            resym = QuboProblem(q.n, entries, q.linear, q.constant)
            c2, _ = compress(resym)
            assert c2.shape == c.shape

    def test_determinism(self):
        rng = np.random.default_rng(80)
        q = random_problem(rng, 9, 0.5)
        c1, _ = compress(q)
        c2, _ = compress(q)
        assert c1.row_vars == c2.row_vars and c1.col_vars == c2.col_vars
        assert np.array_equal(c1.qprime, c2.qprime)


class TestSignsAndSerialization:
    def test_split_signs_example(self):
        c = CompressedQubo((0,), (1, 2), np.array([[6.0, -2.0]]), np.zeros(3), 0.0, 3)
        plus, minus = split_signs(c)
        assert np.array_equal(plus, [[6.0, 0.0]])
        assert np.array_equal(minus, [[0.0, 2.0]])

    def test_split_signs_reconstructs(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 5))
        c = CompressedQubo(tuple(range(4)), tuple(range(4, 9)), m, np.zeros(9), 0.0, 9)
        plus, minus = split_signs(c)
        assert (plus >= 0).all() and (minus >= 0).all()
        assert np.array_equal(plus - minus, c.qprime)

    def test_round_trip(self):
        q = QuboProblem(5, {(0, 2): 2.0, (1, 2): -3.0, (3, 4): 0.25},
                        [1.0, 0.0, -1.5, 0.0, 2.0], 0.125)
        c, _ = compress(q)
        c2 = from_text(to_text(c))
        assert c2.row_vars == c.row_vars and c2.col_vars == c.col_vars
        assert np.array_equal(c2.qprime, c.qprime)
        assert np.array_equal(c2.linear, c.linear) and c2.constant == c.constant

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            from_text("rows 0 1\n")
        with pytest.raises(ParseError):
            from_text("cqubo 3 1 1\nrows 0\ncols 1\n")  # missing matrix row

    @pytest.mark.parametrize("text, line", [
        ("cqubo 3 1 1\nl 2 1.0\nl 2 1.0\nrows 0\ncols 1\nm 1.0\n", 3),
        ("cqubo 3 1 1\nrows 0\nrows 0\ncols 1\nm 1.0\n", 3),
    ], ids=["l", "rows"])
    def test_repeated_record_names_the_second_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: repeated"):
            from_text(text)

    @pytest.mark.parametrize("text, line", [
        ("cqubo 3 1 1\nc inf\nrows 0\ncols 1\nm 1.0\n", 2),
        ("cqubo 3 1 1\nl 1 nan\nrows 0\ncols 1\nm 1.0\n", 2),
        ("cqubo 3 1 1\nrows 0\ncols 1\nm -inf\n", 4),
    ], ids=["c", "l", "m"])
    def test_non_finite_value_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: .*non-finite"):
            from_text(text)

    def test_dimension_error(self):
        c, _ = compress(QuboProblem(3, {(0, 1): 1.0}))
        with pytest.raises(DimensionError):
            compressed_energy(c, [0, 1])


class TestDecompress:
    def test_round_trip_float_coefficients(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            density = float(rng.uniform(0.05, 1.0))
            off = {(i, j): float(rng.normal() * 10.0 ** rng.integers(-3, 4))
                   for i in range(n) for j in range(i + 1, n) if rng.random() < density}
            q = QuboProblem(n, off, rng.normal(size=n), float(rng.normal()))
            back = decompress(compress(q)[0])
            assert back.offdiag == q.offdiag
            assert np.array_equal(back.linear, q.linear)
            assert back.constant == q.constant

    def test_hand_written_mirror_and_diagonal_slots(self):
        # (0,0) joins linear, (1,0) is the pair (0,1), (1,1) joins linear
        c = CompressedQubo((0, 1), (0, 1), [[2.0, 0.0], [3.0, 5.0]], [1.0, 0.0, 4.0], 0.5, 3)
        q = decompress(c)
        assert q.offdiag == {(0, 1): 3.0}
        assert np.array_equal(q.linear, [3.0, 5.0, 4.0])
        for x in exhaustive_bits(3):
            assert energy(q, x) == compressed_energy(c, x)

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(DimensionError):
            CompressedQubo((0, 3), (1,), [[1.0], [2.0]], np.zeros(3), 0.0, 3)

    @pytest.mark.parametrize("row_vars, col_vars", [((0, 2), (1, 1, 3)), ((2, 2), (0, 1, 3))])
    def test_repeated_variable_rejected(self, row_vars, col_vars):
        # The hw delta evaluator reads a variable through one column, so a
        # repeated column variable lost the other columns' counts.
        with pytest.raises(DimensionError, match="repeats"):
            CompressedQubo(row_vars, col_vars, [[1, 2, 0], [0, 3, 1]], np.zeros(4), 0.0, 4)


class TestQprimeOwnership:
    def test_caller_array_is_copied(self):
        m = np.array([[1.0, -2.0], [0.0, 3.0]])
        lin = np.zeros(4)
        c = CompressedQubo((0, 1), (2, 3), m, lin, 0.0, 4)
        m[0, 0] = 99.0
        lin[1] = 5.0
        assert np.array_equal(c.qprime, [[1.0, -2.0], [0.0, 3.0]])
        assert not c.linear.any()
        assert not c.qprime.flags.writeable and not c.linear.flags.writeable

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        m = np.array([[1.0, 2.0]])
        view = m.view()
        view.flags.writeable = False
        c = CompressedQubo((0,), (1, 2), view, np.zeros(3), 0.0, 3)
        m[0, 1] = 7.0
        assert np.array_equal(c.qprime, [[1.0, 2.0]])

    def test_compress_holds_one_copy_of_qprime(self):
        rng = np.random.default_rng(3)
        n = 1500
        pairs = {(int(min(u, v)), int(max(u, v)))
                 for u, v in rng.integers(0, n, size=(3100, 2)) if u != v}
        q, _ = maxcut_to_qubo(Graph.from_edges(n, sorted(pairs)[:3000]))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            c, _ = compress(q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert c.qprime.nbytes > 4_000_000
        assert peak < 1.5 * c.qprime.nbytes

    def test_hw_path_builds_no_dense_qprime(self):
        """compress plus make_hw_oracle allocate far less than one dense p x q Q'.

        The oracle keeps a few words per ON cell and per live (plane, column)
        entry of each tile band, and any dense p x q float64, int64 or bool
        array would break the bound.
        """
        rng = np.random.default_rng(3)
        n = 1500
        pairs = {(int(min(u, v)), int(max(u, v)))
                 for u, v in rng.integers(0, n, size=(3100, 2)) if u != v}
        q, _ = maxcut_to_qubo(Graph.from_edges(n, sorted(pairs)[:3000]))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            c, _ = compress(q)
            make_hw_oracle(c, bits=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        p, qn = c.shape
        assert p * qn > 500_000
        assert peak < 0.25 * p * qn * 8

    def test_ternary_hw_path_builds_no_dense_qprime(self):
        """The ternary encoding programs from the coordinates of Q', so
        compress plus make_hw_oracle(ternary=True) stay far below one dense
        p x q float64 too."""
        rng = np.random.default_rng(3)
        n = 600
        pairs = {(int(min(u, v)), int(max(u, v)))
                 for u, v in rng.integers(0, n, size=(1900, 2)) if u != v}
        q, _ = coloring_to_qubo(Graph.from_edges(n, sorted(pairs)[:1800]), 3, 0.5)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            c, _ = compress(q)
            make_hw_oracle(c, ternary=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        p, qn = c.shape
        assert p * qn > 500_000
        assert peak < 0.25 * p * qn * 8
