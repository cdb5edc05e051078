"""Tests for the Max-Cut, coloring, and factorization converters and parsers."""

import hashlib

import numpy as np
import pytest

from qubocim.convert import (FactorizationEncoding, Graph, assignment_for_factors,
                             coloring_to_qubo, cut_value, decode_coloring,
                             decode_factors, demo_coloring_instance,
                             factorization_qubo, maxcut_to_qubo, parse_dimacs_col, parse_gset,
                             pfp_to_qubo, read_graph, suggest_bit_lengths)
from qubocim.errors import (ConfigError, DimensionError, ParseError,
                            UnsupportedInstanceError)
from qubocim.qubo import brute_force_minimize, energy, energy_batch, to_text


def exhaustive_bits(n):
    return np.array([[(k >> (n - 1 - b)) & 1 for b in range(n)] for k in range(1 << n)],
                    dtype=np.int8)


def backtracking_colorable(graph: Graph, k: int) -> bool:
    """Independent oracle: classic backtracking K-colorer."""
    adjacency = [[] for _ in range(graph.n_vertices)]
    for (u, v) in graph.weights:
        adjacency[u].append(v)
        adjacency[v].append(u)
    colors = [-1] * graph.n_vertices

    def assign(v):
        if v == graph.n_vertices:
            return True
        for c in range(k):
            if all(colors[w] != c for w in adjacency[v]):
                colors[v] = c
                if assign(v + 1):
                    return True
                colors[v] = -1
        return False

    return assign(0)


class TestGraph:
    def test_duplicate_edges_merge(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 0, 3.0)])
        assert g.weights == {(0, 1): 5.0}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_default_weight(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert g.weights[(0, 1)] == 1.0


class TestMaxCut:
    def test_single_edge_coefficients(self):
        q, _ = maxcut_to_qubo(Graph.from_edges(2, [(0, 1)]))
        assert q.offdiag == {(0, 1): 2.0}
        assert list(q.linear) == [-1.0, -1.0]

    def test_empty_graph_is_zero_problem(self):
        q, _ = maxcut_to_qubo(Graph.from_edges(3, []))
        assert q.offdiag == {} and not q.linear.any() and q.constant == 0.0

    def test_triangle_minimum(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        q, enc = maxcut_to_qubo(g)
        x, e, mult = brute_force_minimize(q)
        assert e == -2.0 and mult == 6
        assert cut_value(g, x) == 2.0
        side, rest = enc.bipartition(x)
        assert len(side) + len(rest) == 3

    def test_cut_value_examples(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert cut_value(g, [0, 1]) == 1.0
        assert cut_value(g, [1, 1]) == 0.0
        with pytest.raises(DimensionError):
            cut_value(g, [0, 1, 0])

    def test_cut_equals_negated_energy_exhaustive(self):
        rng = np.random.default_rng(21)
        g = Graph.from_edges(10, [(i, j, float(rng.choice([1.0, 2.0, -1.0])))
                                  for i in range(10) for j in range(i + 1, 10)
                                  if rng.random() < 0.35])
        q, _ = maxcut_to_qubo(g)
        for x in exhaustive_bits(10):
            assert cut_value(g, x) == -energy(q, x)


class TestColoring:
    def test_toy_has_21_variables(self):
        graph, k, penalty = demo_coloring_instance()
        q, enc = coloring_to_qubo(graph, k, penalty)
        assert q.n == 21 and enc.n_vars == 21

    def test_single_vertex_one_color(self):
        q, _ = coloring_to_qubo(Graph.from_edges(1, []), 1, penalty=2.0)
        assert list(q.linear) == [-2.0] and q.constant == 2.0
        assert energy(q, [1]) == 0.0 and energy(q, [0]) == 2.0

    def test_single_edge_two_colors(self):
        q, _ = coloring_to_qubo(Graph.from_edges(2, [(0, 1)]), 2)
        energies = energy_batch(q, exhaustive_bits(4))
        assert energies.min() == 0.0
        assert int((energies == 0.0).sum()) == 2  # the two proper 2-colorings

    def test_edge_weights_ignored(self):
        q1, _ = coloring_to_qubo(Graph.from_edges(2, [(0, 1, 1.0)]), 2)
        q2, _ = coloring_to_qubo(Graph.from_edges(2, [(0, 1, 9.0)]), 2)
        assert q1.offdiag == q2.offdiag

    def test_decode_all_zero_flags_everything_uncolored(self):
        _, enc = coloring_to_qubo(Graph.from_edges(3, [(0, 1)]), 2)
        report = decode_coloring(enc, np.zeros(6, dtype=np.int8))
        assert report.uncolored == (0, 1, 2) and not report.valid

    def test_decode_proper_coloring_valid(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        _, enc = coloring_to_qubo(g, 2)
        x = np.zeros(6, dtype=np.int8)
        x[enc.var_index(0, 0)] = 1
        x[enc.var_index(1, 1)] = 1
        x[enc.var_index(2, 0)] = 1
        report = decode_coloring(enc, x)
        assert report.valid and report.assignment == ((0,), (1,), (0,))

    def test_decode_flags_multicolor_and_conflicts(self):
        g = Graph.from_edges(2, [(0, 1)])
        _, enc = coloring_to_qubo(g, 2)
        x = np.array([1, 1, 1, 0], dtype=np.int8)  # vertex 0 two colors; edge conflict on color 0
        report = decode_coloring(enc, x)
        assert report.multicolored == (0,)
        assert report.conflict_edges == ((0, 1),)
        assert not report.valid

    def test_minimum_zero_iff_colorable(self):
        rng = np.random.default_rng(33)
        for trial in range(8):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, 4))
            if n * k > 18:
                continue
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < 0.6])
            q, enc = coloring_to_qubo(g, k)
            x, e, _ = brute_force_minimize(q)
            colorable = backtracking_colorable(g, k)
            assert (e == 0.0) == colorable
            if colorable:
                assert decode_coloring(enc, x).valid


class TestFactorization:
    def test_encoding_validation(self):
        with pytest.raises(UnsupportedInstanceError):
            FactorizationEncoding(36, 1, 1)  # even
        with pytest.raises(UnsupportedInstanceError):
            FactorizationEncoding(7, 0, 0)   # too small
        with pytest.raises(ValueError):
            FactorizationEncoding(35, 3, 3)  # factor widths cannot hit 6 bits

    def test_free_bit_counts_go_together(self):
        for k, l in ((0, None), (None, 1)):
            with pytest.raises(ConfigError, match="give both or neither"):
                factorization_qubo(35, k, l)
        assert factorization_qubo(35)[1].k == factorization_qubo(35, 1, 1)[1].k == 1

    def test_pfp35_column_equations(self):
        # P = (1 p1 1)_2 and Q = (1 q1 1)_2: variables p1, q1, z11 = p1*q1, then
        # carries.  Column c reads b + sum(coef * x[var]) == 0, b = pinned ones
        # minus bit c of 35 = 100011_2.
        enc = FactorizationEncoding(35, 1, 1)
        assert (enc.z_vars, enc.carry_vars) == ({(1, 1): 2}, [3, 4, 5, 6, 7])
        assert enc.columns == [(0, []),
                               (-1, [(1, 1), (0, 1), (3, -2)]),
                               (2, [(2, 1), (3, 1), (4, -2), (5, -4)]),
                               (0, [(0, 1), (1, 1), (4, 1), (6, -2)]),
                               (1, [(5, 1), (6, 1), (7, -2)]),
                               (-1, [(7, 1)])]

    def test_suggested_bit_lengths(self):
        assert suggest_bit_lengths(35) == (1, 1)
        assert suggest_bit_lengths(323) == (3, 3)
        assert suggest_bit_lengths(9) == (0, 0)

    def test_pfp35_minimum_and_decoding(self):
        enc = FactorizationEncoding(35, 1, 1)
        q, _ = pfp_to_qubo(enc)
        assert enc.n_vars == 8
        x, e, mult = brute_force_minimize(q)
        assert e == 0.0 and mult == 2  # 5x7 and 7x5
        p, qq, consistent = decode_factors(enc, x)
        assert consistent and {p, qq} == {5, 7}

    def test_pfp35_zero_set_is_exactly_the_factor_pairs(self):
        enc = FactorizationEncoding(35, 1, 1)
        q, _ = pfp_to_qubo(enc)
        X = exhaustive_bits(enc.n_vars)
        zero_rows = X[energy_batch(q, X) == 0.0]
        pairs = {tuple(enc.factor_values(row)) for row in zero_rows}
        assert pairs == {(5, 7), (7, 5)}

    def test_pfp9_decodes_three_by_three(self):
        enc = FactorizationEncoding(9, 0, 0)
        q, _ = pfp_to_qubo(enc)
        x, e, _ = brute_force_minimize(q)
        assert e == 0.0
        assert decode_factors(enc, x) == (3, 3, True)

    def test_pfp15_with_unbalanced_lengths(self):
        enc = FactorizationEncoding(15, 0, 1)
        q, _ = pfp_to_qubo(enc)
        x, e, _ = brute_force_minimize(q)
        assert e == 0.0
        p, qq, consistent = decode_factors(enc, x)
        assert consistent and (p, qq) == (3, 5)

    def test_constructed_assignment_reaches_zero(self):
        for (n, k, l, p, qq) in [(35, 1, 1, 5, 7), (35, 1, 1, 7, 5), (323, 3, 3, 17, 19)]:
            enc = FactorizationEncoding(n, k, l)
            q, _ = pfp_to_qubo(enc)
            x = assignment_for_factors(enc, p, qq)
            assert x is not None
            assert energy(q, x) == 0.0
            assert decode_factors(enc, x) == (p, qq, True)

    def test_pfp323_variable_count_golden(self):
        # Our per-output-bit construction: 3 + 3 factor bits, 9 product bits,
        # 15 carry bits.  Recorded as a regression value, not matched to any
        # external count.
        enc = FactorizationEncoding(323, 3, 3)
        assert enc.n_vars == 30
        assert len(enc.z_vars) == 9 and len(enc.carry_vars) == 15

    def test_unrepresentable_factors_return_none(self):
        enc = FactorizationEncoding(35, 1, 1)
        assert assignment_for_factors(enc, 5, 5) is None   # 25 != 35
        assert assignment_for_factors(enc, 3, 7) is None   # 3 needs fewer bits

    def test_inconsistent_assignment_flagged(self):
        enc = FactorizationEncoding(35, 1, 1)
        x = assignment_for_factors(enc, 5, 7)
        x[enc.z_vars[(1, 1)]] ^= 1  # corrupt the product bit
        _, _, consistent = decode_factors(enc, x)
        assert not consistent

    def test_penalty_must_be_positive(self):
        enc = FactorizationEncoding(35, 1, 1)
        with pytest.raises(ValueError):
            pfp_to_qubo(enc, 0.0)

    def test_converter_is_deterministic(self):
        a, _ = pfp_to_qubo(FactorizationEncoding(35, 1, 1))
        b, _ = pfp_to_qubo(FactorizationEncoding(35, 1, 1))
        assert to_text(a) == to_text(b)

    def test_pfp35_sparsity_golden(self):
        # frozen from the converter output: 19 coupling + 6 linear nonzeros
        # over the 36-cell upper-triangle-plus-diagonal grid
        from qubocim.qubo import sparsity
        q, _ = pfp_to_qubo(FactorizationEncoding(35, 1, 1))
        assert len(q.offdiag) == 19
        assert sparsity(q) == pytest.approx(1 - 25 / 36)


RING = Graph.from_edges(30, [(u, (u + s) % 30) for u in range(30) for s in (1, 7)])
PFP143 = FactorizationEncoding(143, *suggest_bit_lengths(143))


@pytest.mark.parametrize("build, pinned", [
    (lambda: coloring_to_qubo(RING, 4, 0.1), "c50f60dd370da93a"),
    (lambda: coloring_to_qubo(RING, 3, 1 / 3), "a00250188273d5ee"),
    (lambda: pfp_to_qubo(FactorizationEncoding(323, 3, 3)), "58e91b2b3f4dad18"),
    (lambda: pfp_to_qubo(FactorizationEncoding(323, 3, 3), reduction_penalty=0.7),
     "d4f213f60735a6d2"),
    (lambda: pfp_to_qubo(PFP143, 1 / 3), "71da567d54ab2ba2"),
], ids=["coloring-k4-0.1", "coloring-k3-third", "pfp323", "pfp323-0.7", "pfp143-third"])
def test_converter_output_pinned(build, pinned):
    """Non-dyadic penalties pin the order in which repeated coefficients are summed."""
    q, _ = build()
    assert hashlib.sha256(to_text(q).encode()).hexdigest()[:16] == pinned


class TestParsers:
    DIMACS = "c sample\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    GSET = "4 3\n1 2 1\n2 3 -1\n3 4 2\n"

    def test_dimacs(self):
        g = parse_dimacs_col(self.DIMACS)
        assert g.n_vertices == 4
        assert set(g.weights) == {(0, 1), (1, 2), (2, 3)}

    def test_dimacs_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dimacs_col("p edge x y\n")
        with pytest.raises(ParseError):
            parse_dimacs_col("e 1 2\n")  # edge before header
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs_col("p edge 2 1\ne 1 5\n")

    def test_gset_with_and_without_weights(self):
        g = parse_gset(self.GSET)
        assert g.weights[(1, 2)] == -1.0
        g2 = parse_gset("2 1\n1 2\n")
        assert g2.weights[(0, 1)] == 1.0

    def test_gset_errors(self):
        with pytest.raises(ParseError):
            parse_gset("")
        with pytest.raises(ParseError, match="declares"):
            parse_gset("3 2\n1 2 1\n")

    @pytest.mark.parametrize("parse, text, line", [
        (parse_gset, "-1 0\n", 1),
        (parse_gset, "% comment\n0 0\n", 2),
        (parse_dimacs_col, "c comment\np edge -2 0\n", 2),
        (parse_dimacs_col, "p edge 0 0\n", 1),
        (parse_gset, "2 1\n1 2 nan\n", 2),
        (parse_gset, "2 1\n1 2 -inf\n", 2),
        (parse_dimacs_col, "p edge 3 0\np edge 3 0\n", 2),
    ], ids=["gset-negative", "gset-zero", "dimacs-negative", "dimacs-zero",
            "gset-nan-weight", "gset-inf-weight", "dimacs-repeated-header"])
    def test_bad_header_or_weight_names_its_line(self, parse, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse(text)

    def test_read_graph_autodetects(self, tmp_path):
        d = tmp_path / "a.col"
        d.write_text(self.DIMACS)
        s = tmp_path / "b.txt"
        s.write_text(self.GSET)
        assert read_graph(d).n_vertices == 4
        assert read_graph(s).n_vertices == 4
