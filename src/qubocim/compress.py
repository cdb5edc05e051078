"""Lossless compression of sparse QUBO matrices into rectangular bilinear form.

The off-diagonal part of a QUBO is a symmetric form: the coefficient of
``x_i x_j`` may sit at slot (i, j) or at its mirror (j, i) without changing
the energy.  The compression exploits this freedom to empty out whole rows
and columns, shrinking an n x n matrix to a dense p x q block evaluated as
``x_h^T Q' x_v`` where ``x_h``/``x_v`` select the surviving row/column
variables.  Diagonal terms never enter the matrix: they stay in ``linear``
and are evaluated directly.

The pass structure:

1. order variables by ascending off-diagonal degree (ties by index);
2. row pass: a row with no fixed slot is emptied by moving each entry to its
   mirror slot, which becomes *fixed* (its row can no longer be emptied);
3. column pass in the same order, with the same fixed marks carried over;
4. emptied rows and columns are deleted; survivors form Q'.

A move may not target a deleted row or column (the entry would be lost); a
row or column with any such stuck entry is kept instead.  This blocking rule
is what makes the greedy lossless on every input: each coefficient keeps its
value in exactly one live slot, so ``decompress(compress(q))`` has the
coefficients of ``q``.  Energies follow: with integer coefficients,
``compressed_energy(compress(q), x) == energy(q, x)`` exactly for all binary
x.  With other float coefficients the two sum the same terms in another
order, so they agree within a few ulps of the sum of the absolute
coefficients, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError
from .qubo import QuboProblem, _finite, _index, _size, as_bits, read_records


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float64 array no caller can change.

    A read-only float64 array that owns its data is taken as is, without a
    copy (so :func:`compress` hands its ``Q'`` over); anything else is copied.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CompressedQubo:
    """Rectangular form: ``constant + linear.x + x[row_vars]^T qprime x[col_vars]``."""

    row_vars: tuple[int, ...]
    col_vars: tuple[int, ...]
    qprime: np.ndarray
    linear: np.ndarray
    constant: float
    source_n: int

    def __post_init__(self):
        qp = _frozen(self.qprime)
        if qp.shape != (len(self.row_vars), len(self.col_vars)):
            raise DimensionError(
                f"qprime shape {qp.shape} does not match "
                f"({len(self.row_vars)}, {len(self.col_vars)})")
        lin = _frozen(self.linear)
        if lin.shape != (self.source_n,):
            raise DimensionError(f"linear must have length {self.source_n}")
        if any(not 0 <= v < self.source_n for v in (*self.row_vars, *self.col_vars)):
            raise DimensionError(f"row or column variable outside 0..{self.source_n - 1}")
        object.__setattr__(self, "qprime", qp)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "row_vars", tuple(int(i) for i in self.row_vars))
        object.__setattr__(self, "col_vars", tuple(int(j) for j in self.col_vars))

    @property
    def shape(self) -> tuple[int, int]:
        return self.qprime.shape


@dataclass(frozen=True)
class CompressionStats:
    """Size and sparsity bookkeeping for one compression run.

    ``sparsity_*`` counts only off-diagonal coefficient cells over the full
    n x n (before) and p x q (after) grids; ``*_with_diagonal`` additionally
    counts nonzero linear terms as occupied diagonal cells, which is the
    convention needed when comparing whole drawn matrices.
    """

    source_n: int
    rows_removed: int
    cols_removed: int
    cells_before: int
    cells_after: int
    chip_size_saving: float
    sparsity_before: float
    sparsity_after: float
    offdiag_nonzeros: int
    linear_nonzeros: int

    @property
    def sparsity_before_with_diagonal(self) -> float:
        return 1.0 - (self.offdiag_nonzeros + self.linear_nonzeros) / self.cells_before

    def as_dict(self) -> dict:
        return {
            "source_n": self.source_n,
            "rows_removed": self.rows_removed,
            "cols_removed": self.cols_removed,
            "cells_before": self.cells_before,
            "cells_after": self.cells_after,
            "chip_size_saving": self.chip_size_saving,
            "sparsity_before": self.sparsity_before,
            "sparsity_after": self.sparsity_after,
            "sparsity_before_with_diagonal": self.sparsity_before_with_diagonal,
            "offdiag_nonzeros": self.offdiag_nonzeros,
            "linear_nonzeros": self.linear_nonzeros,
        }


def compress(q: QuboProblem) -> tuple[CompressedQubo, CompressionStats]:
    """Prune empty-able rows and columns of the off-diagonal matrix.

    Deterministic: identical problems produce identical results.  A matrix
    with nothing to prune comes back at (almost) full size; a zero
    off-diagonal part comes back as an empty 0 x 0 block.
    """
    n = q.n
    entries: dict[tuple[int, int], float] = dict(q.offdiag)
    by_row: dict[int, set[int]] = {}
    by_col: dict[int, set[int]] = {}
    for (i, j) in entries:
        by_row.setdefault(i, set()).add(j)
        by_col.setdefault(j, set()).add(i)

    degree = [0] * n
    for (i, j) in entries:
        degree[i] += 1
        degree[j] += 1
    order = sorted(range(n), key=lambda i: (degree[i], i))

    fixed_rows: set[int] = set()   # rows containing a fixed slot
    fixed_cols: set[int] = set()   # columns containing a fixed slot
    dead_rows: set[int] = set()
    dead_cols: set[int] = set()

    def move(i: int, j: int):
        """Move entries[i, j] to its mirror slot (j, i).

        The mirror is always empty: the input holds each pair once, in the
        upper triangle, and a move only relocates it.
        """
        entries[j, i] = entries.pop((i, j))
        by_row[i].discard(j)
        by_col[j].discard(i)
        by_row.setdefault(j, set()).add(i)
        by_col.setdefault(i, set()).add(j)

    # Row pass.
    for i in order:
        if i in fixed_rows:
            continue
        cols = by_row.get(i, set())
        if any(j in dead_rows for j in cols):
            continue  # a move would land in a deleted row; keep this row
        for j in sorted(cols):
            move(i, j)
            fixed_rows.add(j)
            fixed_cols.add(i)
        dead_rows.add(i)

    # Column pass, same order, fixed marks carried over.
    for j in order:
        if j in fixed_cols:
            continue
        rows = by_col.get(j, set())
        if rows and (j in dead_rows or any(i in dead_cols for i in rows)):
            continue  # mirror slots (j, i) must land in a live row and column
        for i in sorted(rows):
            move(i, j)
            fixed_cols.add(i)
        dead_cols.add(j)

    row_vars = tuple(i for i in range(n) if i not in dead_rows)
    col_vars = tuple(j for j in range(n) if j not in dead_cols)
    row_pos = {v: a for a, v in enumerate(row_vars)}
    col_pos = {v: b for b, v in enumerate(col_vars)}
    qprime = np.zeros((len(row_vars), len(col_vars)))
    for (i, j), value in entries.items():
        qprime[row_pos[i], col_pos[j]] = value

    if qprime.size:
        assert qprime.any(axis=1).all(), "all-zero row survived"
        assert qprime.any(axis=0).all(), "all-zero column survived"

    qprime.flags.writeable = False
    compressed = CompressedQubo(row_vars, col_vars, qprime, q.linear, q.constant, n)
    nnz_after = int(np.count_nonzero(qprime))
    cells_after = qprime.size
    stats = CompressionStats(
        source_n=n,
        rows_removed=n - len(row_vars),
        cols_removed=n - len(col_vars),
        cells_before=n * n,
        cells_after=cells_after,
        chip_size_saving=1.0 - cells_after / (n * n),
        sparsity_before=1.0 - len(q.offdiag) / (n * n),
        sparsity_after=(1.0 - nnz_after / cells_after) if cells_after else 0.0,
        offdiag_nonzeros=len(q.offdiag),
        linear_nonzeros=int(np.count_nonzero(q.linear)),
    )
    return compressed, stats


def decompress(c: CompressedQubo) -> QuboProblem:
    """The QUBO a compressed form evaluates, coefficients back in canonical slots.

    Lossless on the output of :func:`compress`: each pair keeps exactly one
    live slot, so no two entries merge and ``decompress(compress(q))`` has
    the coefficients of ``q``.  Mirror entries of a hand-written form are
    summed, and a diagonal entry joins ``linear``, as the energy requires.
    """
    linear = np.array(c.linear)
    terms = []
    for a, b in zip(*np.nonzero(c.qprime)):
        i, j, value = c.row_vars[a], c.col_vars[b], float(c.qprime[a, b])
        if i == j:
            linear[i] += value
        else:
            terms.append(((i, j), value))
    return QuboProblem(c.source_n, terms, linear, c.constant)


def compressed_energy(c: CompressedQubo, x) -> float:
    """Energy of a full-length assignment under the rectangular form."""
    bits = as_bits(x, c.source_n).astype(np.float64)
    xh = bits[list(c.row_vars)]
    xv = bits[list(c.col_vars)]
    return float(c.constant + bits @ c.linear + xh @ c.qprime @ xv)


def split_signs(c: CompressedQubo) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative matrices (Qplus, Qminus) with ``qprime == Qplus - Qminus``."""
    qp = np.asarray(c.qprime)
    return np.maximum(qp, 0.0), np.maximum(-qp, 0.0)


def to_text(c: CompressedQubo) -> str:
    """Serialize: header, constant, nonzero linear terms, index lists, dense rows."""
    lines = [f"cqubo {c.source_n} {len(c.row_vars)} {len(c.col_vars)}",
             f"c {float(c.constant)!r}"]
    for i in range(c.source_n):
        if c.linear[i] != 0.0:
            lines.append(f"l {i} {float(c.linear[i])!r}")
    lines.append("rows " + " ".join(str(i) for i in c.row_vars))
    lines.append("cols " + " ".join(str(j) for j in c.col_vars))
    for a in range(len(c.row_vars)):
        lines.append("m " + " ".join(repr(float(v)) for v in c.qprime[a]))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CompressedQubo:
    """Parse the format produced by :func:`to_text`."""
    n = p = qn = linear = None
    constant = 0.0
    index: dict[str, list[int]] = {}    # "rows" and "cols" -> their variables
    matrix_rows: list[list[float]] = []

    def record(f):
        nonlocal n, p, qn, linear, constant
        if f[0] == "cqubo":
            n, p, qn = _size(f[1]), int(f[2]), int(f[3])
            linear = np.zeros(n)
        elif f[0] == "c":
            constant = _finite(f[1])
        elif f[0] in ("rows", "cols"):
            index[f[0]] = [int(s) for s in f[1:]]
        elif f[0] == "l":
            i = _index(f[1], n)
            linear[i] = _finite(f[2])
            return "l", i
        elif f[0] == "m":
            if len(f) - 1 != qn:
                raise ValueError(f"{len(f) - 1} entries, header declares {qn} columns")
            matrix_rows.append([_finite(s) for s in f[1:]])
            return None  # one m line per matrix row
        else:
            raise ParseError(f"unknown record {f[0]!r}")
        return f[0]  # the header, constant and index lines appear once

    read_records(text, record)
    if n is None:
        raise ParseError("missing `cqubo <n> <p> <q>` header")
    if len(index) < 2:
        raise ParseError("missing rows/cols index lines")
    row_vars, col_vars = index["rows"], index["cols"]
    if len(row_vars) != p or len(col_vars) != qn or len(matrix_rows) != p:
        raise ParseError("index or matrix dimensions disagree with header")
    qprime = np.array(matrix_rows, dtype=np.float64).reshape(p, qn)
    return CompressedQubo(tuple(row_vars), tuple(col_vars), qprime, linear, constant, n)
