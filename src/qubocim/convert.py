"""Converters from combinatorial problems to QUBO form, with decoders.

Three problem families are supported:

* Max-Cut on weighted undirected graphs,
* K-coloring of undirected graphs (one-hot encoding, quadratic penalties),
* factorization of an odd integer via a binary multiplication table with
  per-column carry variables and product-variable quadratization.

Every converter is deterministic: identical inputs produce identical
serialized problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, ParseError, UnsupportedInstanceError
from .qubo import (QuboProblem, _check_size, _finite, _size, _term_columns, as_bits, merge_pairs,
                   pair_mapping, read_file, read_records)


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Undirected weighted graph on vertices 0..n_vertices-1.

    Edges are stored once, as row-major sorted ``(u, v, w)`` arrays with
    ``u < v`` (see :meth:`edge_arrays`).  Parallel edges are merged by
    summing weights in input order; self-loops are rejected; zero weights
    stay.  ``weights`` is a read-only ``{(u, v): w}`` view and ``edges`` a
    sorted list of ``(u, v, w)``, both built on demand.
    """

    n_vertices: int = field(init=False)

    def __init__(self, n_vertices: int, weights: Mapping[tuple[int, int], float] | Iterable = ()):
        self._init(n_vertices, *_term_columns(weights))

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable) -> "Graph":
        """Build from an iterable of (u, v) or (u, v, weight) tuples."""
        edges = [edge if len(edge) == 3 else (*edge, 1.0) for edge in edges]
        return cls.from_arrays(n_vertices, [e[0] for e in edges], [e[1] for e in edges],
                               [e[2] for e in edges])

    @classmethod
    def from_arrays(cls, n_vertices: int, u, v, w) -> "Graph":
        """Build from endpoint and weight columns in any order, with repeats."""
        graph = cls.__new__(cls)
        graph._init(n_vertices, u, v, w)
        return graph

    def _init(self, n_vertices, u, v, w):
        if n_vertices < 0:
            raise ValueError("n_vertices must be >= 0")
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        bad = (u == v) | (u < 0) | (u >= n_vertices) | (v < 0) | (v >= n_vertices)
        if bad.any():
            k = int(np.argmax(bad))
            if u[k] == v[k]:
                raise ValueError(f"self-loop at vertex {u[k]}")
            raise ValueError(f"edge ({u[k]},{v[k]}) out of range")
        object.__setattr__(self, "n_vertices", n_vertices)
        edges = merge_pairs(n_vertices, u, v, w)
        for a in edges:
            a.flags.writeable = False
        object.__setattr__(self, "_edges", edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as read-only (u, v, w) arrays in sorted order."""
        return self._edges

    def __reduce__(self):
        return Graph.from_arrays, (self.n_vertices, *self._edges)

    @cached_property
    def weights(self) -> Mapping[tuple[int, int], float]:
        return pair_mapping(*self._edges)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(*(a.tolist() for a in self._edges)))

    @property
    def n_edges(self) -> int:
        return len(self._edges[2])


def _endpoints(u: str, v: str, n: int) -> tuple[int, int]:
    """The 0-based vertices of a 1-based edge record on ``n`` vertices."""
    u, v = int(u) - 1, int(v) - 1
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range 1..{n}")
    if u == v:
        raise ValueError(f"self-loop at vertex {u + 1}")
    return u, v


def parse_dimacs_col(text: str) -> Graph:
    """Parse a DIMACS ``.col`` instance (``p edge <n> <m>`` header, 1-based ``e u v`` lines)."""
    n = None
    edges: list[tuple[int, int]] = []

    def record(f):
        nonlocal n
        if f[0] == "p":
            if len(f) < 4 or f[1] != "edge":
                raise ValueError("expected `p edge <n> <m>`")
            n = _size(f[2])
            return "p"
        if f[0] != "e":
            raise ParseError(f"unknown record {f[0]!r}")
        if n is None:
            raise ParseError("edge record before `p edge` header")
        edges.append(_endpoints(f[1], f[2], n))

    read_records(text, record, comments=("c",))
    if n is None:
        raise ParseError("missing `p edge <n> <m>` header")
    return Graph.from_edges(n, edges)


def parse_gset(text: str) -> Graph:
    """Parse a Gset/rudy edge list: ``<n> <m>`` header, then 1-based ``<u> <v> [<w>]`` lines."""
    header: list[int] = []
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []

    def record(f):
        if not header:
            header.extend((_size(f[0]), int(f[1])))
            return
        u, v = _endpoints(f[0], f[1], header[0])
        ws.append(_finite(f[2]) if len(f) > 2 else 1.0)
        us.append(u)
        vs.append(v)

    read_records(text, record, comments=("#", "%"))
    if not header:
        raise ParseError("empty edge-list file")
    n, m = header
    if len(ws) != m:
        raise ParseError(f"header declares {m} edges, found {len(ws)}")
    return Graph.from_arrays(n, us, vs, ws)


def read_graph(path) -> Graph:
    """Load a graph file, auto-detecting DIMACS ``.col`` versus Gset edge-list layout."""
    text = read_file(path)
    head = text.lstrip()[:1]
    if not head:
        raise ParseError("empty graph file")
    return parse_dimacs_col(text) if head in "cp" else parse_gset(text)


# ---------------------------------------------------------------------------
# Max-Cut


@dataclass(frozen=True)
class MaxCutEncoding:
    """Decoder from binary assignments back to a vertex bipartition."""

    graph: Graph

    def bipartition(self, x) -> tuple[tuple[int, ...], tuple[int, ...]]:
        bits = as_bits(x, self.graph.n_vertices)
        side = tuple(int(i) for i in np.flatnonzero(bits == 1))
        rest = tuple(int(i) for i in np.flatnonzero(bits == 0))
        return side, rest


def maxcut_to_qubo(g: Graph) -> tuple[QuboProblem, MaxCutEncoding]:
    """Max-Cut objective as a QUBO: each edge (i,j,w) contributes
    ``2w x_i x_j - w x_i - w x_j``, so the minimum energy is minus the
    maximum cut weight."""
    n = max(g.n_vertices, 1)
    u, v, w = g.edge_arrays()
    # Each vertex sums its edge weights one at a time, in edge order, as
    # ``linear[u] -= w; linear[v] -= w`` would; negation is exact.
    linear = 0.0 - np.bincount(np.stack([u, v], axis=1).ravel(), weights=np.repeat(w, 2),
                               minlength=n)
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite below
        offdiag = 2.0 * w
    return QuboProblem.from_arrays(n, u, v, offdiag, linear, 0.0), MaxCutEncoding(g)


def cut_value(g: Graph, x) -> float:
    """Total weight of edges crossing the bipartition encoded by ``x``."""
    bits = as_bits(x, g.n_vertices).astype(np.float64)
    u, v, w = g.edge_arrays()
    return float(w @ (bits[u] + bits[v] - 2.0 * bits[u] * bits[v])) if len(w) else 0.0


# ---------------------------------------------------------------------------
# Graph coloring


@dataclass(frozen=True)
class ColoringEncoding:
    """One-hot coloring layout: variable ``i*n_colors + p`` means vertex i has color p."""

    graph: Graph
    n_colors: int

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_vars(self) -> int:
        return self.graph.n_vertices * self.n_colors

    def var_index(self, vertex: int, color: int) -> int:
        if not (0 <= vertex < self.n_vertices and 0 <= color < self.n_colors):
            raise ValueError(f"vertex {vertex} / color {color} out of range")
        return vertex * self.n_colors + color


@dataclass(frozen=True)
class ColoringReport:
    """Decoded coloring plus constraint-violation flags."""

    assignment: tuple[tuple[int, ...], ...]
    uncolored: tuple[int, ...]
    multicolored: tuple[int, ...]
    conflict_edges: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return not (self.uncolored or self.multicolored or self.conflict_edges)


def demo_coloring_instance() -> tuple[Graph, int, float]:
    """The 7-node, 3-color toy used by the crossbar demos.

    A triangle pins the chromatic number at 3; the four remaining vertices
    are unconstrained.  The half-unit one-hot penalty makes every recoloring
    move strictly downhill or uphill (never flat), which keeps annealing
    trajectories short, and it yields a compressed matrix over {0, 1} that
    the two-cell ternary encoding maps directly.
    """
    graph = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2)])
    return graph, 3, 0.5


def coloring_to_qubo(g: Graph, n_colors: int, penalty: float = 1.0) -> tuple[QuboProblem, ColoringEncoding]:
    """K-coloring as a QUBO.

    Objective: ``penalty * sum_i (sum_p x_ip - 1)^2 + sum_{(u,v) in E} sum_p x_up x_vp``.
    The one-hot square expands to ``-penalty*x_ip`` per color, ``+2*penalty``
    per same-vertex color pair, and ``+penalty`` per vertex; the minimum
    energy is 0 exactly when the graph is K-colorable.  Edge weights are
    ignored.
    """
    if n_colors < 1:
        raise ConfigError("n_colors must be >= 1")
    if penalty <= 0:
        raise ConfigError("penalty must be positive")
    _check_size(g.n_vertices * n_colors)
    enc = ColoringEncoding(g, n_colors)
    n = max(enc.n_vars, 1)
    var = np.arange(enc.n_vars).reshape(g.n_vertices, n_colors)
    p, r = np.triu_indices(n_colors, 1)
    u, v, _ = g.edge_arrays()
    rows = np.concatenate([var[:, p].ravel(), var[u].ravel()])
    cols = np.concatenate([var[:, r].ravel(), var[v].ravel()])
    values = np.concatenate([np.full(g.n_vertices * len(p), 2.0 * penalty),
                             np.ones(len(u) * n_colors)])
    linear = np.zeros(n)
    linear[:enc.n_vars] = -penalty
    constant = 0.0
    for _ in range(g.n_vertices):  # vertex by vertex: n * penalty may round differently
        constant += penalty
    return QuboProblem.from_arrays(n, rows, cols, values, linear, constant), enc


def decode_coloring(enc: ColoringEncoding, x) -> ColoringReport:
    """Read off per-vertex color sets and flag one-hot / adjacency violations."""
    bits = as_bits(x, enc.n_vars).reshape(enc.n_vertices, enc.n_colors)
    assignment = tuple(tuple(np.flatnonzero(row).tolist()) for row in bits)
    colors = bits.sum(axis=1)
    u, v, _ = enc.graph.edge_arrays()
    clash = (bits[u] & bits[v]).any(axis=1)
    return ColoringReport(assignment, tuple(np.flatnonzero(colors == 0).tolist()),
                          tuple(np.flatnonzero(colors > 1).tolist()),
                          tuple(zip(u[clash].tolist(), v[clash].tolist())))


# ---------------------------------------------------------------------------
# Prime factorization


class FactorizationEncoding:
    """Variable layout for factoring odd ``N = P * Q``.

    ``P = (1 p_k ... p_1 1)_2`` and ``Q = (1 q_l ... q_1 1)_2`` fix the top
    and bottom bits, leaving k and l free bits.  Variables are laid out as
    p-bits, q-bits, product bits z_ij = p_i*q_j (row-major), then per-column
    carry bits in column order.  Column equations follow ordinary long
    multiplication: the partial products of each output bit, plus incoming
    carries, must reproduce that bit of N, with the excess carried upward in
    binary.

    ``columns[c]`` is the equation of output bit c, a pair ``(b, terms)``
    meaning ``b + sum(coef * x[var] for var, coef in terms) == 0``.  ``b`` is
    the column's count of pinned x pinned partial products minus bit c of N.
    A free factor bit, a product bit or an incoming carry enters with
    coefficient +1, and the column's r-th outgoing carry with ``-2**r``.

    k = l = 0 is allowed (both factors fully pinned), which is what instances
    like N = 9 = 3 x 3 require.
    """

    def __init__(self, N: int, k: int, l: int):
        N, k, l = int(N), int(k), int(l)
        if N % 2 == 0 or N < 9:
            raise UnsupportedInstanceError(f"N must be odd and >= 9, got {N}")
        if k < 0 or l < 0:
            raise ConfigError("free-bit counts k, l must be >= 0")
        bitlen = N.bit_length()
        if not (k + l + 3 <= bitlen <= k + l + 4):
            raise ConfigError(
                f"bit lengths (k+2, l+2)=({k + 2},{l + 2}) cannot produce a "
                f"{bitlen}-bit product for N={N}")
        self.N = N
        self.k = k
        self.l = l
        self.p_vars = list(range(k))                       # p_1 .. p_k
        self.q_vars = list(range(k, k + l))                # q_1 .. q_l
        self.z_vars = {}                                   # (i, j) -> var, 1-based i, j

        # The inputs of each output bit, LSB first; None is a pinned 1.
        inputs: list[list] = [[] for _ in range(bitlen)]
        idx = k + l
        for a, pa in enumerate([None, *self.p_vars, None]):
            for b, qb in enumerate([None, *self.q_vars, None]):
                if pa is None or qb is None:
                    inputs[a + b].append(qb if pa is None else pa)
                else:
                    self.z_vars[(a, b)] = idx
                    inputs[a + b].append(idx)
                    idx += 1

        self.carry_vars: list[int] = []
        self.columns: list[tuple[int, list[tuple[int, int]]]] = []
        for c, bits in enumerate(inputs):  # grows while carries land past its end
            terms = [(v, 1) for v in bits if v is not None]
            for r in range(1, (len(bits) // 2).bit_length() + 1):
                inputs += [[] for _ in range(c + r + 1 - len(inputs))]
                inputs[c + r].append(idx)
                terms.append((idx, -(1 << r)))
                self.carry_vars.append(idx)
                idx += 1
            self.columns.append((bits.count(None) - ((N >> c) & 1), terms))
        self.n_vars = idx

    def factor_values(self, bits: np.ndarray) -> tuple[int, int]:
        """Integers P, Q reconstructed from the fixed and free factor bits."""
        p = 1 + (1 << (self.k + 1))
        for i, var in enumerate(self.p_vars, start=1):
            p += int(bits[var]) << i
        q = 1 + (1 << (self.l + 1))
        for j, var in enumerate(self.q_vars, start=1):
            q += int(bits[var]) << j
        return p, q


def suggest_bit_lengths(N: int) -> tuple[int, int]:
    """Balanced free-bit counts (k, l) whose factor widths cover bitlen(N).

    Both factors get ceil(bitlen(N)/2) bits, the width of near-square factor
    pairs.  Unbalanced pairs (e.g. 15 = 3 x 5) need caller-chosen bit lengths.
    """
    bitlen = int(N).bit_length()
    width = (bitlen + 1) // 2
    k = max(0, width - 2)
    return k, k


def pfp_to_qubo(enc: FactorizationEncoding,
                reduction_penalty: float | None = None) -> tuple[QuboProblem, FactorizationEncoding]:
    """Factorization objective: sum of squared column equations, quadratized.

    With every p_i*q_j replaced by its product variable z_ij the column
    equations are linear, so their squares are quadratic.  Each substitution
    is enforced by the standard penalty
    ``penalty * (p_i q_j - 2 p_i z_ij - 2 q_j z_ij + 3 z_ij)``, which is 0
    exactly when z_ij == p_i*q_j and positive otherwise.  The minimum energy
    is therefore 0 exactly at encodings of factor pairs of N.

    ``reduction_penalty`` defaults to twice the largest absolute coefficient
    of the squared-equation objective, which guarantees the penalty dominates
    any single constraint violation.
    """
    linear = [0] * enc.n_vars
    pairs: list[tuple[int, int, int]] = []
    constant = 0
    for b, terms in enc.columns:
        # (b + sum_k c_k x_k)^2 with x_k^2 == x_k is b^2, plus c_k (c_k + 2b) x_k,
        # plus 2 c_k c_m x_k x_m per pair.  No variable repeats in a column,
        # and every coefficient is an integer, so each sum is exact in any order.
        constant += b * b
        for k, (v, c) in enumerate(terms):
            linear[v] += c * (c + 2 * b)
            pairs += [(v, w, 2 * c * d) for w, d in terms[k + 1:]]
    rows, cols, values = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
    objective = QuboProblem.from_arrays(enc.n_vars, rows, cols, values, linear, constant)

    if reduction_penalty is None:
        magnitudes = np.abs(np.concatenate([objective.linear, objective.term_arrays()[2]]))
        reduction_penalty = 2.0 * float(magnitudes.max())
    if reduction_penalty <= 0:
        raise ConfigError("reduction_penalty must be positive")

    products = [(i - 1, enc.k + j - 1, z) for (i, j), z in enc.z_vars.items()]
    p, q, z = np.array(products, dtype=np.int64).reshape(-1, 3).T
    penalty_linear = np.zeros(enc.n_vars)
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite below
        penalty_linear[z] = 3.0 * reduction_penalty
        values = np.repeat(reduction_penalty * np.array([1.0, -2.0, -2.0]), len(z))
    penalties = QuboProblem.from_arrays(enc.n_vars, np.concatenate([p, p, q]),
                                        np.concatenate([q, z, z]), values, penalty_linear)
    return objective + penalties, enc


def factorization_qubo(N: int, k: int | None = None, l: int | None = None,
                       reduction_penalty: float | None = None) -> tuple[QuboProblem, FactorizationEncoding]:
    """Convenience wrapper: build the encoding (balanced split by default) and convert.

    ``k`` and ``l`` are given together or not at all; one alone is a
    :class:`ConfigError`.
    """
    if (k is None) != (l is None):
        raise ConfigError("free-bit counts k and l go together: give both or neither")
    if k is None:
        k, l = suggest_bit_lengths(N)
    enc = FactorizationEncoding(N, k, l)
    return pfp_to_qubo(enc, reduction_penalty)


def decode_factors(enc: FactorizationEncoding, x) -> tuple[int, int, bool]:
    """Reconstruct (P, Q) and check full auxiliary consistency.

    ``consistent`` is True only if P*Q == N, every product variable equals its
    implied product, and every column equation evaluates to 0.
    """
    bits = as_bits(x, enc.n_vars).tolist()
    p, q = enc.factor_values(bits)
    consistent = (p * q == enc.N
                  and all(bits[z] == bits[i - 1] * bits[enc.k + j - 1]
                          for (i, j), z in enc.z_vars.items())
                  and all(b + sum(c * bits[v] for v, c in terms) == 0 for b, terms in enc.columns))
    return p, q, consistent


def assignment_for_factors(enc: FactorizationEncoding, p: int, q: int) -> np.ndarray | None:
    """Zero-energy assignment encoding the factor pair (p, q), if representable.

    Fills in the product variables, then column by column sets the outgoing
    carries to the binary digits of the excess ``b + sum`` of its inputs.
    Returns None when (p, q) does not fit the fixed-bit pattern or the
    columns cannot balance (i.e. p*q != N).
    """
    k, l = enc.k, enc.l
    if p & 1 == 0 or q & 1 == 0 or p.bit_length() != k + 2 or q.bit_length() != l + 2:
        return None
    bits = [(p >> i) & 1 for i in range(1, k + 1)] + [(q >> j) & 1 for j in range(1, l + 1)]
    bits += [0] * (enc.n_vars - k - l)
    for (i, j), z in enc.z_vars.items():
        bits[z] = bits[i - 1] * bits[k + j - 1]
    for b, terms in enc.columns:
        excess = b + sum(c * bits[v] for v, c in terms if c > 0)
        for v, c in terms:
            if c < 0:
                bits[v] = (excess // -c) & 1
                excess += c * bits[v]
        if excess:
            return None
    return np.array(bits, dtype=np.int8)
