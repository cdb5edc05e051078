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
from typing import Iterable

import numpy as np

from .errors import ConfigError, ParseError, UnsupportedInstanceError
from .qubo import QuboProblem, as_bits


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on vertices 0..n_vertices-1.

    Parallel edges are merged by summing weights; self-loops are rejected.
    """

    n_vertices: int
    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("n_vertices must be >= 0")
        merged: dict[tuple[int, int], float] = {}
        for (u, v), w in self.weights.items():
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + float(w)
        object.__setattr__(self, "weights", merged)

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable) -> "Graph":
        """Build from an iterable of (u, v) or (u, v, weight) tuples."""
        weights: dict[tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            else:
                u, v, w = edge
            key = (min(int(u), int(v)), max(int(u), int(v)))
            weights[key] = weights.get(key, 0.0) + float(w)
        return cls(n_vertices, weights)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(u, v, self.weights[(u, v)]) for (u, v) in sorted(self.weights)]

    @property
    def n_edges(self) -> int:
        return len(self.weights)


def parse_dimacs_col(text: str) -> Graph:
    """Parse a DIMACS ``.col`` instance (``p edge <n> <m>`` header, 1-based ``e u v`` lines)."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] != "edge":
                raise ParseError(f"malformed problem line: {raw!r}", lineno)
            try:
                n = int(parts[2])
            except ValueError as exc:
                raise ParseError(f"malformed problem line: {raw!r}", lineno) from exc
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge record before `p edge` header", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"malformed edge record: {raw!r}", lineno) from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex out of range in: {raw!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop in: {raw!r}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown record {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing `p edge <n> <m>` header")
    return Graph.from_edges(n, edges)


def parse_gset(text: str) -> Graph:
    """Parse a Gset/rudy edge list: ``<n> <m>`` header, then 1-based ``<u> <v> [<w>]`` lines."""
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith(("#", "%"))]
    if not lines:
        raise ParseError("empty edge-list file")
    head = lines[0].split()
    try:
        n, m = int(head[0]), int(head[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"malformed header: {lines[0]!r}", 1) from exc
    edges = []
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) > 2 else 1.0
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed edge record: {raw!r}", lineno) from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range in: {raw!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop in: {raw!r}", lineno)
        edges.append((u - 1, v - 1, w))
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def read_graph(path) -> Graph:
    """Load a graph file, auto-detecting DIMACS ``.col`` versus Gset edge-list layout."""
    with open(path) as f:
        text = f.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(("c", "p")):
            return parse_dimacs_col(text)
        return parse_gset(text)
    raise ParseError("empty graph file")


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
    linear = np.zeros(n)
    offdiag: dict[tuple[int, int], float] = {}
    for (u, v), w in g.weights.items():
        offdiag[(u, v)] = offdiag.get((u, v), 0.0) + 2.0 * w
        linear[u] -= w
        linear[v] -= w
    return QuboProblem(n, offdiag, linear, 0.0), MaxCutEncoding(g)


def cut_value(g: Graph, x) -> float:
    """Total weight of edges crossing the bipartition encoded by ``x``."""
    bits = as_bits(x, g.n_vertices).astype(np.float64)
    total = 0.0
    for (u, v), w in g.weights.items():
        total += w * (bits[u] + bits[v] - 2.0 * bits[u] * bits[v])
    return float(total)


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
    enc = ColoringEncoding(g, n_colors)
    n = max(enc.n_vars, 1)
    linear = np.zeros(n)
    offdiag: dict[tuple[int, int], float] = {}
    constant = 0.0
    for i in range(g.n_vertices):
        constant += penalty
        for p in range(n_colors):
            linear[enc.var_index(i, p)] -= penalty
            for r in range(p + 1, n_colors):
                key = (enc.var_index(i, p), enc.var_index(i, r))
                offdiag[key] = offdiag.get(key, 0.0) + 2.0 * penalty
    for (u, v) in sorted(g.weights):
        for p in range(n_colors):
            a, b = enc.var_index(u, p), enc.var_index(v, p)
            key = (min(a, b), max(a, b))
            offdiag[key] = offdiag.get(key, 0.0) + 1.0
    return QuboProblem(n, offdiag, linear, constant), enc


def decode_coloring(enc: ColoringEncoding, x) -> ColoringReport:
    """Read off per-vertex color sets and flag one-hot / adjacency violations."""
    bits = as_bits(x, enc.n_vars)
    assignment = tuple(
        tuple(p for p in range(enc.n_colors) if bits[enc.var_index(i, p)])
        for i in range(enc.n_vertices)
    )
    uncolored = tuple(i for i, colors in enumerate(assignment) if len(colors) == 0)
    multicolored = tuple(i for i, colors in enumerate(assignment) if len(colors) > 1)
    conflicts = tuple(
        (u, v) for (u, v) in sorted(enc.graph.weights)
        if set(assignment[u]) & set(assignment[v])
    )
    return ColoringReport(assignment, uncolored, multicolored, conflicts)


# ---------------------------------------------------------------------------
# Prime factorization


@dataclass(frozen=True)
class _Column:
    """One radix-2 column equation of the multiplication table.

    ``constant + sum(singles) + sum(products) + sum(carries_in)``
    must equal ``target + sum(2^r * var for (var, r) in carries_out)``.
    """

    constant: int
    singles: tuple[int, ...]
    products: tuple[int, ...]
    carries_in: tuple[int, ...]
    carries_out: tuple[tuple[int, int], ...]
    target: int

    def lhs(self, bits) -> int:
        """The left-hand side under the assignment ``bits``."""
        return self.constant + sum(int(bits[v]) for v in
                                   (*self.singles, *self.products, *self.carries_in))


class FactorizationEncoding:
    """Variable layout for factoring odd ``N = P * Q``.

    ``P = (1 p_k ... p_1 1)_2`` and ``Q = (1 q_l ... q_1 1)_2`` fix the top
    and bottom bits, leaving k and l free bits.  Variables are laid out as
    p-bits, q-bits, product bits z_ij = p_i*q_j (row-major), then per-column
    carry bits in column order.  Column equations follow ordinary long
    multiplication: the partial products of each output bit, plus incoming
    carries, must reproduce that bit of N, with the excess carried upward in
    binary.

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
        idx = k + l
        for i in range(1, k + 1):
            for j in range(1, l + 1):
                self.z_vars[(i, j)] = idx
                idx += 1

        # Symbolic factor bits, LSB first: ('const', 1) or ('p'/'q', index).
        p_bits = [("const", 1)] + [("p", i) for i in range(1, k + 1)] + [("const", 1)]
        q_bits = [("const", 1)] + [("q", j) for j in range(1, l + 1)] + [("const", 1)]

        pp: dict[int, dict] = {}
        for a, pa in enumerate(p_bits):
            for b, qb in enumerate(q_bits):
                col = pp.setdefault(a + b, {"const": 0, "singles": [], "products": []})
                if pa[0] == "const" and qb[0] == "const":
                    col["const"] += 1
                elif pa[0] == "const":
                    col["singles"].append(self.q_vars[qb[1] - 1])
                elif qb[0] == "const":
                    col["singles"].append(self.p_vars[pa[1] - 1])
                else:
                    col["products"].append(self.z_vars[(pa[1], qb[1])])

        n_bits = [(N >> c) & 1 for c in range(bitlen)]
        self.carry_vars: list[int] = []
        columns: list[_Column] = []
        incoming: dict[int, list[int]] = {}
        c = 0
        while c < bitlen or incoming:
            col = pp.get(c, {"const": 0, "singles": [], "products": []})
            carries_in = tuple(incoming.pop(c, []))
            target = n_bits[c] if c < bitlen else 0
            max_lhs = col["const"] + len(col["singles"]) + len(col["products"]) + len(carries_in)
            carries_out = []
            for r in range(1, (max_lhs // 2).bit_length() + 1):
                var = idx
                idx += 1
                self.carry_vars.append(var)
                carries_out.append((var, r))
                incoming.setdefault(c + r, []).append(var)
            columns.append(_Column(col["const"], tuple(col["singles"]),
                                   tuple(col["products"]), carries_in,
                                   tuple(carries_out), target))
            c += 1
        self.columns = columns
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
    linear: dict[int, float] = {}
    offdiag: dict[tuple[int, int], float] = {}
    constant = 0.0

    def add_lin(v: int, c: float):
        linear[v] = linear.get(v, 0.0) + c

    def add_quad(a: int, b: int, c: float):
        key = (min(a, b), max(a, b))
        offdiag[key] = offdiag.get(key, 0.0) + c

    for col in enc.columns:
        terms: list[tuple[int | None, float]] = [(None, float(col.constant - col.target))]
        terms += [(v, 1.0) for v in col.singles]
        terms += [(v, 1.0) for v in col.products]
        terms += [(v, 1.0) for v in col.carries_in]
        terms += [(v, -float(1 << r)) for (v, r) in col.carries_out]
        # Expand (sum of terms)^2 exactly: squares once, cross terms twice.
        for a_idx in range(len(terms)):
            va, ca = terms[a_idx]
            if va is None:
                constant += ca * ca
            else:
                add_lin(va, ca * ca)  # va^2 == va for binary variables
            for b_idx in range(a_idx + 1, len(terms)):
                vb, cb = terms[b_idx]
                coeff = 2.0 * ca * cb
                if va is None and vb is None:
                    constant += coeff
                elif va is None:
                    add_lin(vb, coeff)
                elif vb is None:
                    add_lin(va, coeff)
                elif va == vb:
                    add_lin(va, coeff)
                else:
                    add_quad(va, vb, coeff)

    if reduction_penalty is None:
        magnitudes = [abs(c) for c in linear.values()] + [abs(c) for c in offdiag.values()]
        reduction_penalty = 2.0 * max(magnitudes, default=1.0)
    if reduction_penalty <= 0:
        raise ConfigError("reduction_penalty must be positive")

    for (i, j), z in enc.z_vars.items():
        p, q = enc.p_vars[i - 1], enc.q_vars[j - 1]
        add_quad(p, q, reduction_penalty)
        add_quad(p, z, -2.0 * reduction_penalty)
        add_quad(q, z, -2.0 * reduction_penalty)
        add_lin(z, 3.0 * reduction_penalty)

    lin_vec = np.zeros(enc.n_vars)
    for v, c in linear.items():
        lin_vec[v] = c
    return QuboProblem(enc.n_vars, offdiag, lin_vec, constant), enc


def factorization_qubo(N: int, k: int | None = None, l: int | None = None,
                       reduction_penalty: float | None = None) -> tuple[QuboProblem, FactorizationEncoding]:
    """Convenience wrapper: build the encoding (balanced split by default) and convert."""
    if k is None or l is None:
        k, l = suggest_bit_lengths(N)
    enc = FactorizationEncoding(N, k, l)
    return pfp_to_qubo(enc, reduction_penalty)


def decode_factors(enc: FactorizationEncoding, x) -> tuple[int, int, bool]:
    """Reconstruct (P, Q) and check full auxiliary consistency.

    ``consistent`` is True only if P*Q == N, every product variable equals its
    implied product, and every column equation balances with the recorded
    carry bits.
    """
    bits = as_bits(x, enc.n_vars)
    p, q = enc.factor_values(bits)
    consistent = p * q == enc.N
    for (i, j), z in enc.z_vars.items():
        if bits[z] != bits[enc.p_vars[i - 1]] * bits[enc.q_vars[j - 1]]:
            consistent = False
    for col in enc.columns:
        rhs = col.target + sum((1 << r) * int(bits[v]) for (v, r) in col.carries_out)
        if col.lhs(bits) != rhs:
            consistent = False
    return p, q, consistent


def assignment_for_factors(enc: FactorizationEncoding, p: int, q: int) -> np.ndarray | None:
    """Zero-energy assignment encoding the factor pair (p, q), if representable.

    Fills in the product variables and propagates the implied carries column
    by column.  Returns None when (p, q) does not fit the fixed-bit pattern
    or the columns cannot balance (i.e. p*q != N).
    """
    k, l = enc.k, enc.l
    if p & 1 == 0 or q & 1 == 0:
        return None
    if p.bit_length() != k + 2 or q.bit_length() != l + 2:
        return None
    bits = np.zeros(enc.n_vars, dtype=np.int8)
    for i, var in enumerate(enc.p_vars, start=1):
        bits[var] = (p >> i) & 1
    for j, var in enumerate(enc.q_vars, start=1):
        bits[var] = (q >> j) & 1
    for (i, j), z in enc.z_vars.items():
        bits[z] = bits[enc.p_vars[i - 1]] * bits[enc.q_vars[j - 1]]
    for col in enc.columns:
        excess = col.lhs(bits) - col.target
        if excess < 0 or excess % 2 != 0:
            return None
        carry = excess // 2
        for (var, r) in col.carries_out:
            bits[var] = (carry >> (r - 1)) & 1
        if carry >> len(col.carries_out):
            return None
    return bits
