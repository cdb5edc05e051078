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

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (CapacityError, DimensionError, ParseError, QubocimError,
                     UnsupportedInstanceError)

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


def _term_columns(terms: Mapping[tuple[int, int], float] | Iterable) -> tuple[np.ndarray, ...]:
    """(i, j, value) columns of a mapping or an iterable of ``((i, j), value)``."""
    items = list(terms.items() if isinstance(terms, Mapping) else terms)
    try:
        pairs = np.array([key for key, _ in items], dtype=np.int64).reshape(len(items), 2)
    except OverflowError:
        raise ValueError("index pair out of range") from None
    return pairs[:, 0], pairs[:, 1], np.array([v for _, v in items], dtype=np.float64)


def merge_pairs(n: int, rows, cols, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unordered pairs summed into canonical ``(i, j, value)`` columns with i < j.

    Pairs come out in row-major sorted order.  Mirror and repeated pairs are
    summed in input order, one ``+=`` at a time from 0.0 (a stable sort,
    then ``bincount``), so every sum rounds exactly as a dict accumulating
    the terms would round it.  Indices must lie in ``0..n-1``; zeros stay.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    merged = np.bincount(np.cumsum(first) - 1, weights=np.asarray(values, dtype=np.float64)[order])
    return lo[order][first], hi[order][first], merged


def canonical_terms(n: int, rows, cols, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated, merged, zero-free off-diagonal terms as read-only arrays.

    A diagonal pair or an index outside ``0..n-1`` is a ``ValueError`` and
    a non-finite coefficient an :class:`UnsupportedInstanceError`, for the
    first offending term in input order; a sum that overflows is
    non-finite too.  Exact zeros are dropped.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    diagonal = rows == cols
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    bad = diagonal | outside | ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        i, j = int(rows[k]), int(cols[k])
        if diagonal[k]:
            raise ValueError(f"diagonal coefficient ({i},{i}) belongs in `linear`")
        if outside[k]:
            raise ValueError(f"index pair ({i},{j}) out of range for n={n}")
        raise UnsupportedInstanceError(f"non-finite coefficient at {(min(i, j), max(i, j))}")
    rows, cols, values = merge_pairs(n, rows, cols, values)
    if not np.all(np.isfinite(values)):
        k = int(np.argmax(~np.isfinite(values)))
        raise UnsupportedInstanceError(f"non-finite coefficient at {(int(rows[k]), int(cols[k]))}")
    keep = values != 0.0
    terms = rows[keep], cols[keep], values[keep]
    for a in terms:
        a.flags.writeable = False
    return terms


def pair_mapping(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> Mapping:
    """Read-only ``{(i, j): value}`` view of term columns, in their order."""
    return MappingProxyType(dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist())))


def _frozen_vector(values, n: int, name: str) -> np.ndarray:
    vec = np.zeros(n, dtype=np.float64) if values is None else np.asarray(values, dtype=np.float64).copy()
    if vec.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise UnsupportedInstanceError(f"non-finite entry in {name}")
    vec.flags.writeable = False
    return vec


class _QuadraticForm:
    """``n`` variables and off-diagonal terms stored once as canonical arrays.

    The terms are row-major sorted ``(rows, cols, values)`` columns with
    ``rows < cols``, merged by :func:`canonical_terms`; the constructor
    takes them as a mapping or an iterable of ``((i, j), value)``, and
    :meth:`from_arrays` as three array columns.  Subclasses are frozen
    dataclasses whose fields are all ``init=False``, so
    ``dataclasses.replace`` fails loudly instead of dropping the terms.
    """

    @classmethod
    def from_arrays(cls, n: int, rows, cols, values, vector=None, constant: float = 0.0):
        """Build from ``(rows, cols, values)`` columns in any order, with repeats and mirrors."""
        obj = cls.__new__(cls)
        obj._init(n, rows, cols, values, vector, constant)
        return obj

    def _init(self, n, rows, cols, values, vector, constant):
        if n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", canonical_terms(n, rows, cols, values))
        object.__setattr__(self, self._VECTOR, _frozen_vector(vector, n, self._VECTOR))
        object.__setattr__(self, "constant", float(constant))
        if not np.isfinite(self.constant):
            raise UnsupportedInstanceError("non-finite constant")
        # Twice the absolute coefficient sum bounds every energy difference the solver forms.
        with np.errstate(over="ignore"):
            bound = 2.0 * (abs(self.constant) + np.abs(getattr(self, self._VECTOR)).sum()
                           + np.abs(self._terms[2]).sum())
        if not np.isfinite(bound):
            raise UnsupportedInstanceError("coefficients too large: twice their absolute sum "
                                           "overflows float64, and so could an energy")

    def term_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Off-diagonal terms as read-only (rows, cols, values) arrays in sorted key order."""
        return self._terms

    def __reduce__(self):
        # Rebuilt from the arrays, so a cached mapping view is not pickled.
        return type(self).from_arrays, (self.n, *self._terms, getattr(self, self._VECTOR),
                                        self.constant)


@dataclass(frozen=True, init=False, eq=False)
class QuboProblem(_QuadraticForm):
    """Minimize ``constant + linear.x + sum_{i<j} offdiag[i,j] x_i x_j`` over binary x.

    ``offdiag`` is a read-only ``{(i, j): value}`` view of the term arrays,
    built on first use.
    """

    _VECTOR = "linear"
    n: int = field(init=False)
    linear: np.ndarray = field(init=False)
    constant: float = field(init=False)

    def __init__(self, n: int, offdiag=(), linear=None, constant: float = 0.0):
        self._init(n, *_term_columns(offdiag), linear, constant)

    @cached_property
    def offdiag(self) -> Mapping[tuple[int, int], float]:
        return pair_mapping(*self._terms)

    def __add__(self, other: "QuboProblem") -> "QuboProblem":
        """Coefficient-wise sum of two problems over the same variables."""
        if other.n != self.n:
            raise DimensionError("cannot add problems of different size")
        terms = [np.concatenate(pair) for pair in zip(self._terms, other._terms)]
        return QuboProblem.from_arrays(self.n, *terms, np.asarray(self.linear) + other.linear,
                                       self.constant + other.constant)


@dataclass(frozen=True, init=False, eq=False)
class IsingModel(_QuadraticForm):
    """``constant + sum_i fields[i]*s_i + sum_{i<j} couplings[i,j]*s_i*s_j`` over spins in {-1,+1}.

    ``couplings`` is a read-only ``{(i, j): value}`` view of the term
    arrays, built on first use.
    """

    _VECTOR = "fields"
    n: int = field(init=False)
    fields: np.ndarray = field(init=False)
    constant: float = field(init=False)

    def __init__(self, n: int, couplings=(), fields=None, constant: float = 0.0):
        self._init(n, *_term_columns(couplings), fields, constant)

    @cached_property
    def couplings(self) -> Mapping[tuple[int, int], float]:
        return pair_mapping(*self._terms)


def _exact_energy(x: np.ndarray, vector, constant: float, rows, cols, values):
    """``(constant + x @ vector) + (x[..., rows] * x[..., cols]) @ values``.

    The exact energy of one float64 assignment ``x``, or of each row of a
    matrix of them, over a vector term and ``(rows, cols, values)`` term
    columns.  Every exact energy function calls it, so all of them sum in
    this order and agree bit for bit.
    """
    # ``take`` on the last axis, not ``x[..., rows]``: the same array, but
    # indexing with an ellipsis costs an exact oracle call about 5 us more.
    return constant + x @ vector + (x.take(rows, axis=-1) * x.take(cols, axis=-1)) @ values


def energy(q: QuboProblem, x) -> float:
    """Exact QUBO energy of a binary assignment."""
    bits = as_bits(x, q.n).astype(np.float64)
    return float(_exact_energy(bits, q.linear, q.constant, *q.term_arrays()))


def energy_batch(q: QuboProblem, X: np.ndarray) -> np.ndarray:
    """Energies of a (m, n) matrix of binary rows; no per-row validation."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != q.n:
        raise DimensionError(f"expected shape (m, {q.n}), got {X.shape}")
    return _exact_energy(X, q.linear, q.constant, *q.term_arrays())


def ising_energy(m: IsingModel, spins) -> float:
    """Exact Ising energy of a spin assignment over {-1,+1}."""
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != (m.n,):
        raise DimensionError(f"expected a spin vector of length {m.n}, got shape {s.shape}")
    if np.any(np.abs(s) != 1):
        raise ValueError("spin entries must be -1 or +1")
    return float(_exact_energy(s, m.fields, m.constant, *m.term_arrays()))


def _per_term(vector, constant: float, terms, vector_step, constant_step) -> tuple[np.ndarray, float]:
    """``vector`` less ``vector_step[k]`` at both ends of term k, and ``constant``
    plus ``constant_step[k]``, applied term by term in sorted order."""
    rows, cols, _ = terms
    out = np.array(vector, dtype=np.float64)
    np.subtract.at(out, np.stack([rows, cols], axis=1).ravel(), np.repeat(vector_step, 2))
    return out, float(np.cumsum(np.concatenate([[constant], constant_step]))[-1])


def ising_to_qubo(m: IsingModel) -> QuboProblem:
    """Rewrite an Ising model over binary variables via ``s_i = 1 - 2 x_i``.

    The energy is preserved exactly for every assignment: with J = couplings
    and h = fields,

        J_ij s_i s_j -> 4 J_ij x_i x_j - 2 J_ij (x_i + x_j) + J_ij
        h_i s_i      -> -2 h_i x_i + h_i
    """
    terms = m.term_arrays()
    rows, cols, j = terms
    linear, constant = _per_term(-2.0 * np.asarray(m.fields), m.constant + float(np.sum(m.fields)),
                                 terms, 2.0 * j, j)
    return QuboProblem.from_arrays(m.n, rows, cols, 4.0 * j, linear, constant)


def qubo_to_ising(q: QuboProblem) -> IsingModel:
    """Inverse change of variables, ``x_i = (1 - s_i) / 2``."""
    terms = q.term_arrays()
    rows, cols, values = terms
    quarter = 0.25 * values
    fields, constant = _per_term(-0.5 * np.asarray(q.linear),
                                 q.constant + 0.5 * float(np.sum(q.linear)), terms, quarter, quarter)
    return IsingModel.from_arrays(q.n, rows, cols, quarter, fields, constant)


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
    nonzeros = len(q.term_arrays()[2]) + int(np.count_nonzero(q.linear))
    return 1.0 - nonzeros / cells


def to_text(q: QuboProblem) -> str:
    """Serialize to the native text format.

    Layout: ``qubo <n> <nnz>`` header (nnz counts off-diagonal records), one
    ``c`` record, ``l <i> <value>`` records for nonzero linear terms in index
    order, then ``q <i> <j> <value>`` records (i < j) in sorted order.  Floats
    are written with ``repr`` so the round trip is bit exact.
    """
    rows, cols, values = q.term_arrays()
    lines = [f"qubo {q.n} {len(values)}", f"c {float(q.constant)!r}"]
    nonzero = np.flatnonzero(q.linear)
    lines += [f"l {i} {v!r}" for i, v in zip(nonzero.tolist(), q.linear[nonzero].tolist())]
    lines += [f"q {i} {j} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist())]
    return "\n".join(lines) + "\n"


def _index(text: str, n: int) -> int:
    i = int(text)
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside 0..{n - 1}")
    return i


def _check_size(n: int) -> int:
    """``n`` itself, or a :class:`CapacityError` past the limit of 2**31 - 1 variables."""
    if n > 2**31 - 1:
        raise CapacityError(f"size {n} exceeds the limit of 2**31 - 1")
    return n


def _size(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"size {n} must be >= 1")
    return _check_size(n)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite coefficient {text!r}")
    return value


def read_file(path) -> str:
    """The text of an input file, decoded as UTF-8.

    A byte that is not UTF-8 is a :class:`ParseError` naming the file and
    the line it is on.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}:{line}: not UTF-8 ({exc.reason}: "
                         f"byte 0x{data[exc.start]:02x})") from None


def read_records(text: str, handle, comments: tuple[str, ...] = ("#",)) -> None:
    """Call ``handle(fields)`` for each record of a line-oriented text format.

    A record is one line split on whitespace.  Blank lines, and lines whose
    first field starts with one of ``comments``, are skipped.  An
    ``IndexError``, ``ValueError`` or ``TypeError`` raised by ``handle``
    becomes a :class:`ParseError` naming the line, and so does a
    ``ParseError`` raised without one; any other package error, such as the
    ``CapacityError`` of an oversized header, passes through unchanged.
    ``handle`` returns None or the key of a record that may appear once; a
    key returned twice is a ``ParseError`` naming the second line.
    """
    seen = set()
    for line, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith(comments):
            continue
        try:
            key = handle(fields)
        except ParseError as exc:
            if exc.line is not None:
                raise
            raise ParseError(str(exc), line) from None
        except QubocimError:
            raise
        except (IndexError, ValueError, TypeError) as exc:
            raise ParseError(f"malformed record: {raw.strip()!r} ({exc})", line) from exc
        if key is not None:
            if key in seen:
                raise ParseError(f"repeated record: {raw.strip()!r}", line)
            seen.add(key)


def from_text(text: str) -> QuboProblem:
    """Parse the native text format produced by :func:`to_text`."""
    n = nnz = linear = None
    constant = 0.0
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []

    def record(f):
        nonlocal n, nnz, linear, constant
        if f[0] == "qubo":
            n, nnz = _size(f[1]), int(f[2])
            linear = np.zeros(n)
        elif f[0] == "c":
            constant = _finite(f[1])
        elif f[0] == "l":
            i = _index(f[1], n)
            linear[i] = _finite(f[2])
            return "l", i
        elif f[0] == "q":
            i, j = _index(f[1], n), _index(f[2], n)
            if not i < j:
                raise ParseError(f"expected i < j, got ({i},{j})")
            values.append(_finite(f[3]))
            rows.append(i)
            cols.append(j)
            return "q", i, j
        else:
            raise ParseError(f"unknown record {f[0]!r}")
        return f[0]  # the header and the constant appear once

    read_records(text, record)
    if n is None:
        raise ParseError("missing `qubo <n> <nnz>` header")
    if nnz != len(values):
        raise ParseError(f"header declares {nnz} off-diagonal records, found {len(values)}")
    return QuboProblem.from_arrays(n, rows, cols, values, linear, constant)


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
    * ``commit()`` adopts the state of the last peek, once;
    * ``flip_deltas(states, flips) -> deltas`` returns, for each row ``x``
      of ``states`` and index ``i`` of ``flips``, the energy change of
      toggling bit ``i`` of ``x``, equal to ``peek([i]) - reset(x)`` bit for
      bit; it leaves the current state unspecified, so a reset follows it.

    This one calls the oracle once per reset and peek, so its energies are
    the oracle's own; delta evaluators are tested against it.  Its
    ``flip_deltas`` is that reset/peek loop, two oracle calls per state.
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

    def flip_deltas(self, states, flips) -> np.ndarray:
        deltas = np.empty(len(flips))
        for k, (x, i) in enumerate(zip(states, flips)):
            energy = self.reset(x)
            deltas[k] = self.peek([i]) - energy
        return deltas


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
        return float(_exact_energy(bits, self._linear, self._constant,
                                   self._rows, self._cols, self._vals))

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
        self._pairs = oracle.problem.offdiag  # built once per problem, then cached

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
        for a in range(1, len(flips)):
            for b in range(a):
                i, j = sorted((int(flips[a]), int(flips[b])))
                delta += self._pairs.get((i, j), 0.0) * signs[a] * signs[b]
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

    flip_deltas = FullEvaluator.flip_deltas  # the reset/peek loop


def exact_oracle(q: QuboProblem) -> ExactOracle:
    """Energy oracle backed by exact double-precision evaluation."""
    return ExactOracle(q)
