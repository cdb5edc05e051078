"""Tests for the QUBO/Ising containers, evaluation, and the exhaustive oracle."""

import numpy as np
import pytest

from qubocim.errors import CapacityError, DimensionError, ParseError
from qubocim.qubo import (IsingModel, QuboProblem, brute_force_minimize, energy,
                          energy_batch, exact_oracle, from_text, ising_energy,
                          ising_to_qubo, qubo_to_ising, sparsity, to_text)


def exhaustive_bits(n):
    return np.array([[(k >> (n - 1 - b)) & 1 for b in range(n)] for k in range(1 << n)],
                    dtype=np.int8)


class TestConstruction:
    def test_mirror_duplicates_are_summed(self):
        q = QuboProblem(3, {(0, 1): 2.0, (1, 0): 3.0})
        assert q.offdiag == {(0, 1): 5.0}

    def test_explicit_zero_dropped(self):
        q = QuboProblem(3, {(0, 1): 2.0, (0, 2): 0.0})
        assert (0, 2) not in q.offdiag

    def test_diagonal_key_rejected(self):
        with pytest.raises(ValueError):
            QuboProblem(3, {(1, 1): 2.0})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuboProblem(2, {(0, 2): 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            QuboProblem(2, {(0, 1): float("nan")})
        with pytest.raises(ValueError):
            QuboProblem(2, {}, [np.inf, 0.0])

    def test_linear_is_immutable(self):
        q = QuboProblem(2, {}, [1.0, 2.0])
        with pytest.raises(ValueError):
            q.linear[0] = 5.0


class TestEnergy:
    def test_single_edge_hand_value(self):
        # 2*x0*x1 - x0 - x1 at (1,1): 2 - 1 - 1 = 0
        q = QuboProblem(2, {(0, 1): 2.0}, [-1.0, -1.0])
        assert energy(q, [1, 1]) == 0.0
        assert energy(q, [1, 0]) == -1.0

    def test_all_zeros_gives_constant(self):
        q = QuboProblem(3, {(0, 2): 4.0}, [1.0, -2.0, 3.0], constant=7.5)
        assert energy(q, [0, 0, 0]) == 7.5

    def test_dimension_error(self):
        q = QuboProblem(3, {})
        with pytest.raises(DimensionError):
            energy(q, [0, 1])

    def test_non_binary_rejected(self):
        q = QuboProblem(2, {})
        with pytest.raises(ValueError):
            energy(q, [0, 2])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        q = QuboProblem(6, {(i, j): float(rng.integers(-4, 5)) or 1.0
                            for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.5},
                        rng.integers(-3, 4, size=6).astype(float), 2.0)
        X = exhaustive_bits(6)
        batch = energy_batch(q, X)
        for row in range(len(X)):
            assert batch[row] == energy(q, X[row])

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            def rand_problem():
                off = {(i, j): float(rng.integers(-5, 6)) or 2.0
                       for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
                return QuboProblem(n, off, rng.integers(-4, 5, size=n).astype(float),
                                   float(rng.integers(-3, 4)))
            q1, q2 = rand_problem(), rand_problem()
            combined = q1 + q2
            X = exhaustive_bits(n)
            assert np.array_equal(energy_batch(combined, X),
                                  energy_batch(q1, X) + energy_batch(q2, X))

    def test_exact_oracle_matches_energy(self):
        q = QuboProblem(4, {(0, 1): 3.0, (2, 3): -2.0}, [1.0, 0.0, -1.0, 2.0], 0.5)
        oracle = exact_oracle(q)
        for x in exhaustive_bits(4):
            assert oracle(x) == energy(q, x)


class TestIsingConversions:
    def test_single_field_example(self):
        m = IsingModel(1, {}, [1.0])
        q = ising_to_qubo(m)
        assert q.linear[0] == -2.0 and q.constant == 1.0

    def test_zero_model(self):
        m = IsingModel(3)
        q = ising_to_qubo(m)
        assert q.offdiag == {} and not q.linear.any() and q.constant == 0.0

    def test_round_trip_exhaustive(self):
        rng = np.random.default_rng(3)
        m = IsingModel(6,
                       {(i, j): float(rng.normal()) for i in range(6)
                        for j in range(i + 1, 6) if rng.random() < 0.6},
                       rng.normal(size=6), 0.25)
        q = ising_to_qubo(m)
        for x in exhaustive_bits(6):
            spins = 1 - 2 * x.astype(np.float64)
            assert ising_energy(m, spins) == pytest.approx(energy(q, x), abs=1e-9)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        q = QuboProblem(8, {(i, j): float(rng.normal()) for i in range(8)
                            for j in range(i + 1, 8) if rng.random() < 0.4},
                        rng.normal(size=8), -0.5)
        m = qubo_to_ising(q)
        for x in exhaustive_bits(8):
            spins = 1 - 2 * x.astype(np.float64)
            assert energy(q, x) == pytest.approx(ising_energy(m, spins), abs=1e-9)

    def test_spin_validation(self):
        m = IsingModel(2, {}, [0.0, 0.0])
        with pytest.raises(ValueError):
            ising_energy(m, [1, 0])


class TestBruteForce:
    def test_zero_problem_multiplicity(self):
        x, e, mult = brute_force_minimize(QuboProblem(3, {}))
        assert e == 0.0 and mult == 8

    def test_single_edge_maxcut(self):
        q = QuboProblem(2, {(0, 1): 2.0}, [-1.0, -1.0])
        x, e, mult = brute_force_minimize(q)
        assert e == -1.0 and mult == 2

    def test_triangle_maxcut(self):
        linear = np.array([-2.0, -2.0, -2.0])
        q = QuboProblem(3, {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0}, linear)
        x, e, mult = brute_force_minimize(q)
        assert e == -2.0 and mult == 6

    def test_lexicographic_first_minimizer(self):
        # both (0,1) and (1,0) minimize; lexicographically (0,1) comes first
        q = QuboProblem(2, {(0, 1): 2.0}, [-1.0, -1.0])
        x, _, _ = brute_force_minimize(q)
        assert list(x) == [0, 1]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            brute_force_minimize(QuboProblem(25, {}))
        # A raised cap is honoured; the minimizers of this problem (x[0] = 1)
        # fill the second of its two enumeration chunks.
        q = QuboProblem(17, {}, [-1.0] + [0.0] * 16)
        with pytest.raises(CapacityError):
            brute_force_minimize(q, cap=16)
        x, energy, multiplicity = brute_force_minimize(q, cap=17)
        assert x.tolist() == [1] + [0] * 16 and energy == -1.0 and multiplicity == 1 << 16

    def test_self_consistency_random(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            n = int(rng.integers(6, 13))
            q = QuboProblem(n, {(i, j): float(rng.integers(-6, 7)) or 1.0
                                for i in range(n) for j in range(i + 1, n)
                                if rng.random() < 0.4},
                            rng.integers(-4, 5, size=n).astype(float))
            x, e, mult = brute_force_minimize(q)
            all_e = energy_batch(q, exhaustive_bits(n))
            assert energy(q, x) == e == all_e.min()
            assert mult == int((all_e == all_e.min()).sum())


class TestSparsity:
    def test_zero_problem(self):
        assert sparsity(QuboProblem(4, {})) == 1.0

    def test_fully_dense(self):
        q = QuboProblem(4, {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)},
                        np.ones(4))
        assert sparsity(q) == 0.0


class TestSerialization:
    def test_round_trip_exact(self):
        q = QuboProblem(5, {(0, 3): 2.5, (1, 4): -0.1}, [0.0, 1.0, 0.0, -2.0, 0.3], 1.75)
        q2 = from_text(to_text(q))
        assert q2.n == q.n and q2.offdiag == q.offdiag
        assert np.array_equal(q2.linear, q.linear) and q2.constant == q.constant

    def test_serialization_is_deterministic(self):
        q = QuboProblem(4, {(2, 3): 1.0, (0, 1): 2.0}, [1.0, 0.0, 0.0, 0.0])
        assert to_text(q) == to_text(QuboProblem(4, {(0, 1): 2.0, (2, 3): 1.0},
                                                 [1.0, 0.0, 0.0, 0.0]))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            from_text("qubo 2 0\nbogus record\n")
        with pytest.raises(ParseError):
            from_text("c 1.0\n")  # missing header
        with pytest.raises(ParseError):
            from_text("qubo 2 3\nq 0 1 1.0\n")  # nnz mismatch
        with pytest.raises(ParseError, match="i < j"):
            from_text("qubo 2 1\nq 1 0 1.0\n")

    @pytest.mark.parametrize("text, line", [
        ("qubo 3 2\nq 0 1 1.0\nq 0 1 2.0\n", 3),
        ("qubo 3 0\nl 2 1.0\n# comment\nl 2 1.0\n", 4),
        ("qubo 3 0\nc 1.0\nc 2.0\n", 3),
        ("qubo 3 0\n\nqubo 3 0\n", 3),
    ], ids=["q", "l", "c", "header"])
    def test_repeated_record_names_the_second_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: repeated"):
            from_text(text)

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header follows\n\nqubo 2 1\n   # indented comment\nq 0 1 2.5\n\n"
        assert from_text(text).offdiag == {(0, 1): 2.5}
