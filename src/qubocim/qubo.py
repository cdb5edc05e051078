"""Canonical QUBO and Ising containers with exact reference evaluation.

Conventions used throughout the package:

* A QUBO is ``constant + sum_i linear[i]*x_i + sum_{i<j} offdiag[i,j]*x_i*x_j``
  over ``x in {0,1}^n``.  Off-diagonal coefficients are stored once, in the
  strictly upper triangle (``i < j``); diagonal coefficients live in
  ``linear`` because ``x_i**2 == x_i`` for binary variables.  Keeping the
  diagonal separate matters later: compression and the crossbar mapping treat
  the two differently.
* Binary vectors are plain numpy arrays over {0,1}; :func:`as_bits` is the
  validating entry point.
* All containers are immutable after construction and safe to share between
  threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, DimensionError, ParseError

# Chunk size for exhaustive enumeration (2**16 assignments per block).
_ENUM_CHUNK = 16


def as_bits(x, n: int) -> np.ndarray:
    """Validate and convert ``x`` to a length-``n`` int8 vector over {0,1}."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise DimensionError(f"expected a binary vector of length {n}, got shape {arr.shape}")
    bits = arr.astype(np.int8, copy=True)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("binary vector entries must be 0 or 1")
    return bits


def _canonical_quadratic(n: int, terms: Mapping[tuple[int, int], float] | Iterable) -> dict[tuple[int, int], float]:
    """Merge arbitrary (i, j) -> coefficient terms into canonical i < j slots.

    Mirror duplicates such as (0, 1) and (1, 0) are summed, matching the
    symmetric-matrix reading of the quadratic form.  Exact zeros are dropped.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict[tuple[int, int], float] = {}
    for (i, j), value in items:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"diagonal coefficient ({i},{i}) belongs in `linear`")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"index pair ({i},{j}) out of range for n={n}")
        key = (i, j) if i < j else (j, i)
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite coefficient at {key}")
        out[key] = out.get(key, 0.0) + value
    return {k: v for k, v in out.items() if v != 0.0}


def _frozen_vector(values, n: int, name: str) -> np.ndarray:
    vec = np.zeros(n, dtype=np.float64) if values is None else np.asarray(values, dtype=np.float64).copy()
    if vec.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"non-finite entry in {name}")
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True)
class QuboProblem:
    """Minimize ``constant + linear.x + sum_{i<j} offdiag[i,j] x_i x_j`` over binary x."""

    n: int
    offdiag: dict[tuple[int, int], float] = field(default_factory=dict)
    linear: np.ndarray | None = None
    constant: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "offdiag", _canonical_quadratic(self.n, self.offdiag))
        object.__setattr__(self, "linear", _frozen_vector(self.linear, self.n, "linear"))
        object.__setattr__(self, "constant", float(self.constant))
        if not np.isfinite(self.constant):
            raise ValueError("non-finite constant")

    def __add__(self, other: "QuboProblem") -> "QuboProblem":
        """Coefficient-wise sum of two problems over the same variables."""
        if other.n != self.n:
            raise DimensionError("cannot add problems of different size")
        merged = dict(self.offdiag)
        for key, value in other.offdiag.items():
            merged[key] = merged.get(key, 0.0) + value
        return QuboProblem(self.n, merged, np.asarray(self.linear) + other.linear,
                           self.constant + other.constant)

    def term_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Off-diagonal terms as (rows, cols, values) arrays in sorted key order."""
        keys = sorted(self.offdiag)
        rows = np.fromiter((k[0] for k in keys), dtype=np.intp, count=len(keys))
        cols = np.fromiter((k[1] for k in keys), dtype=np.intp, count=len(keys))
        vals = np.fromiter((self.offdiag[k] for k in keys), dtype=np.float64, count=len(keys))
        return rows, cols, vals


@dataclass(frozen=True)
class IsingModel:
    """``constant + sum_i fields[i]*s_i + sum_{i<j} couplings[i,j]*s_i*s_j`` over spins in {-1,+1}."""

    n: int
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)
    fields: np.ndarray | None = None
    constant: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "couplings", _canonical_quadratic(self.n, self.couplings))
        object.__setattr__(self, "fields", _frozen_vector(self.fields, self.n, "fields"))
        object.__setattr__(self, "constant", float(self.constant))


def energy(q: QuboProblem, x) -> float:
    """Exact QUBO energy of a binary assignment."""
    bits = as_bits(x, q.n).astype(np.float64)
    total = q.constant + float(bits @ q.linear)
    for (i, j), value in q.offdiag.items():
        total += value * bits[i] * bits[j]
    return float(total)


def energy_batch(q: QuboProblem, X: np.ndarray) -> np.ndarray:
    """Energies of a (m, n) matrix of binary rows; no per-row validation."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != q.n:
        raise DimensionError(f"expected shape (m, {q.n}), got {X.shape}")
    rows, cols, vals = q.term_arrays()
    out = X @ q.linear + q.constant
    if len(vals):
        out = out + (X[:, rows] * X[:, cols]) @ vals
    return out


def ising_energy(m: IsingModel, spins) -> float:
    """Exact Ising energy of a spin assignment over {-1,+1}."""
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != (m.n,):
        raise DimensionError(f"expected a spin vector of length {m.n}, got shape {s.shape}")
    if np.any(np.abs(s) != 1):
        raise ValueError("spin entries must be -1 or +1")
    total = m.constant + float(s @ m.fields)
    for (i, j), value in m.couplings.items():
        total += value * s[i] * s[j]
    return float(total)


def ising_to_qubo(m: IsingModel) -> QuboProblem:
    """Rewrite an Ising model over binary variables via ``s_i = 1 - 2 x_i``.

    The energy is preserved exactly for every assignment: with J = couplings
    and h = fields,

        J_ij s_i s_j -> 4 J_ij x_i x_j - 2 J_ij (x_i + x_j) + J_ij
        h_i s_i      -> -2 h_i x_i + h_i
    """
    linear = -2.0 * np.asarray(m.fields)
    constant = m.constant + float(np.sum(m.fields))
    offdiag: dict[tuple[int, int], float] = {}
    for (i, j), jij in m.couplings.items():
        offdiag[(i, j)] = 4.0 * jij
        linear[i] -= 2.0 * jij
        linear[j] -= 2.0 * jij
        constant += jij
    return QuboProblem(m.n, offdiag, linear, constant)


def qubo_to_ising(q: QuboProblem) -> IsingModel:
    """Inverse change of variables, ``x_i = (1 - s_i) / 2``."""
    fields = -0.5 * np.asarray(q.linear)
    constant = q.constant + 0.5 * float(np.sum(q.linear))
    couplings: dict[tuple[int, int], float] = {}
    for (i, j), value in q.offdiag.items():
        couplings[(i, j)] = 0.25 * value
        fields[i] -= 0.25 * value
        fields[j] -= 0.25 * value
        constant += 0.25 * value
    return IsingModel(q.n, couplings, fields, constant)


def bit_patterns(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the lexicographic enumeration of {0,1}^n.

    Pattern k maps bit (n-1-i) of k to position i, so increasing k walks the
    bit vectors in lexicographic order with x_0 most significant.
    """
    ks = np.arange(start, stop, dtype=np.uint64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return ((ks[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def brute_force_minimize(q: QuboProblem, cap: int = 24) -> tuple[np.ndarray, float, int]:
    """Exhaustive ground-truth minimization.

    Returns ``(x, energy, multiplicity)`` where ``x`` is the first minimizer
    in lexicographic order and ``multiplicity`` counts all assignments that
    attain the minimum (exact float equality).
    """
    if q.n > cap:
        raise CapacityError(f"n={q.n} exceeds the exhaustive-search cap of {cap}")
    total = 1 << q.n
    best_e = np.inf
    best_k = 0
    multiplicity = 0
    for start in range(0, total, 1 << _ENUM_CHUNK):
        stop = min(start + (1 << _ENUM_CHUNK), total)
        X = bit_patterns(q.n, start, stop)
        e = energy_batch(q, X)
        chunk_min = float(e.min())
        if chunk_min < best_e:
            best_e = chunk_min
            best_k = start + int(np.argmax(e == chunk_min))
            multiplicity = int(np.sum(e == chunk_min))
        elif chunk_min == best_e:
            multiplicity += int(np.sum(e == chunk_min))
    x = bit_patterns(q.n, best_k, best_k + 1)[0]
    return x, best_e, multiplicity


def sparsity(q: QuboProblem) -> float:
    """Fraction of zeros in the upper-triangular-plus-diagonal representation."""
    cells = q.n * (q.n + 1) // 2
    nonzeros = len(q.offdiag) + int(np.count_nonzero(q.linear))
    return 1.0 - nonzeros / cells


def to_text(q: QuboProblem) -> str:
    """Serialize to the native text format.

    Layout: ``qubo <n> <nnz>`` header (nnz counts off-diagonal records), one
    ``c`` record, ``l <i> <value>`` records for nonzero linear terms in index
    order, then ``q <i> <j> <value>`` records (i < j) in sorted order.  Floats
    are written with ``repr`` so the round trip is bit exact.
    """
    lines = [f"qubo {q.n} {len(q.offdiag)}", f"c {float(q.constant)!r}"]
    for i in range(q.n):
        if q.linear[i] != 0.0:
            lines.append(f"l {i} {float(q.linear[i])!r}")
    for (i, j) in sorted(q.offdiag):
        lines.append(f"q {i} {j} {float(q.offdiag[(i, j)])!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> QuboProblem:
    """Parse the native text format produced by :func:`to_text`."""
    n = None
    nnz = None
    constant = 0.0
    linear = None
    offdiag: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "qubo":
                n, nnz = int(parts[1]), int(parts[2])
                linear = np.zeros(n)
            elif parts[0] == "c":
                constant = float(parts[1])
            elif parts[0] == "l":
                linear[int(parts[1])] = float(parts[2])
            elif parts[0] == "q":
                i, j, v = int(parts[1]), int(parts[2]), float(parts[3])
                if not i < j:
                    raise ParseError(f"expected i < j, got ({i},{j})", lineno)
                offdiag[(i, j)] = v
            else:
                raise ParseError(f"unknown record {parts[0]!r}", lineno)
        except ParseError:
            raise
        except (IndexError, ValueError, TypeError) as exc:
            raise ParseError(f"malformed record: {raw!r} ({exc})", lineno) from exc
    if n is None:
        raise ParseError("missing `qubo <n> <nnz>` header")
    if nnz != len(offdiag):
        raise ParseError(f"header declares {nnz} off-diagonal records, found {len(offdiag)}")
    return QuboProblem(n, offdiag, linear, constant)


def toggle(x: np.ndarray, flips) -> None:
    """Flip the distinct indices ``flips`` of ``x`` in place.

    A scalar loop: for the few indices of one annealing move it is an order
    of magnitude cheaper than fancy indexing with a list.
    """
    for i in flips:
        x[i] ^= 1


class FullEvaluator:
    """The evaluator protocol over any energy callable, by full evaluation.

    An evaluator is the solver's per-run view of an oracle:

    * ``reset(x, energy=None) -> E`` adopts state ``x`` and returns its
      energy; a caller that already knows ``E(x)`` passes it as ``energy``
      and gets it back, so an evaluator that needs no evaluation to set up
      its own state makes none;
    * ``peek(flips) -> E'`` returns the energy of the current state with the
      distinct indices ``flips`` toggled, without adopting it;
    * ``commit()`` adopts the state of the last peek.

    This one calls the oracle once per reset and peek, so its energies are
    the oracle's own; delta evaluators are tested against it.
    """

    def __init__(self, oracle):
        self._oracle = oracle

    def reset(self, x, energy: float | None = None) -> float:
        self._x = np.array(x, dtype=np.int8)
        self._energy = float(self._oracle(self._x)) if energy is None else energy
        return self._energy

    def peek(self, flips) -> float:
        y = self._x.copy()
        toggle(y, flips)
        self._pending = (y, float(self._oracle(y)))
        return self._pending[1]

    def commit(self):
        self._x, self._energy = self._pending


class ExactOracle:
    """Picklable exact-energy oracle over full binary assignments.

    Term arrays are cached at construction; validation is limited to the
    vector length because annealers call this in a hot loop with vectors they
    construct themselves.  :meth:`evaluator` gives the solver delta
    evaluation over the same terms.
    """

    def __init__(self, problem: QuboProblem):
        self.problem = problem
        self.n = problem.n
        self._rows, self._cols, self._vals = problem.term_arrays()
        self._linear = np.asarray(problem.linear)
        self._constant = problem.constant
        # Symmetric adjacency in CSR order: neighbours of i are
        # _adj_cols[_adj_ptr[i]:_adj_ptr[i + 1]], with the coupling in _adj_vals.
        heads = np.concatenate([self._rows, self._cols])
        order = np.argsort(heads, kind="stable")
        self._adj_rows = heads[order]
        self._adj_cols = np.concatenate([self._cols, self._rows])[order]
        self._adj_vals = np.concatenate([self._vals, self._vals])[order]
        self._adj_ptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=self.n))])

    def __call__(self, x) -> float:
        bits = np.asarray(x, dtype=np.float64)
        if bits.shape != (self.n,):
            raise DimensionError(f"expected length {self.n}, got shape {bits.shape}")
        total = self._constant + float(bits @ self._linear)
        if len(self._vals):
            total += float((bits[self._rows] * bits[self._cols]) @ self._vals)
        return total

    def evaluator(self) -> "ExactEvaluator":
        return ExactEvaluator(self)


class ExactEvaluator:
    """Delta evaluation of an :class:`ExactOracle` through local fields.

    The field of variable i is ``linear[i] + sum_j Q_ij x_j``, so toggling a
    set S changes the energy by ``sum_{i in S} s_i h_i + sum_{i<j in S} Q_ij
    s_i s_j`` with ``s_i = 1 - 2 x_i``: a peek costs O(|S|^2) and a commit
    O(degree).  With integer coefficients every step is exact and equals the
    oracle.  With float coefficients the sums round in another order; to keep
    the drift bounded the state is resynchronised from a full evaluation
    every ``n`` commits.
    """

    def __init__(self, oracle: ExactOracle):
        self._oracle = oracle

    def reset(self, x, energy: float | None = None) -> float:
        o = self._oracle
        self._x = np.array(x, dtype=np.int8)
        self._energy = o(self._x) if energy is None else energy
        self._field = o._linear + np.bincount(
            o._adj_rows, weights=o._adj_vals * self._x[o._adj_cols], minlength=o.n)
        self._commits = 0
        return self._energy

    def peek(self, flips) -> float:
        x, h = self._x, self._field
        signs = [1 - 2 * int(x[i]) for i in flips]
        delta = sum(s * float(h[i]) for s, i in zip(signs, flips))
        offdiag = self._oracle.problem.offdiag
        for a in range(1, len(flips)):
            for b in range(a):
                i, j = sorted((int(flips[a]), int(flips[b])))
                delta += offdiag.get((i, j), 0.0) * signs[a] * signs[b]
        self._pending = (flips, float(self._energy + delta))
        return self._pending[1]

    def commit(self):
        o = self._oracle
        flips, self._energy = self._pending
        for i in flips:
            lo, hi = o._adj_ptr[i], o._adj_ptr[i + 1]
            self._field[o._adj_cols[lo:hi]] += (1 - 2 * int(self._x[i])) * o._adj_vals[lo:hi]
            self._x[i] ^= 1
        self._commits += 1
        if self._commits >= o.n:
            self.reset(self._x)


def exact_oracle(q: QuboProblem) -> ExactOracle:
    """Energy oracle backed by exact double-precision evaluation."""
    return ExactOracle(q)
