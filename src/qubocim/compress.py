"""Lossless compression of sparse QUBO matrices into rectangular bilinear form.

The off-diagonal part of a QUBO is a symmetric form: the coefficient of
``x_i x_j`` may sit at slot (i, j) or at its mirror (j, i) without changing
the energy.  The compression exploits this freedom to empty out whole rows
and columns, shrinking an n x n matrix to a p x q block evaluated as
``x_h^T Q' x_v`` where ``x_h``/``x_v`` select the surviving row/column
variables.  The block is kept as the coordinates of its nonzeros, one per
off-diagonal term.  Diagonal terms never enter the matrix: they stay in
``linear`` and are evaluated directly.

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

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParseError
from .qubo import (QuboProblem, _exact_energy, _finite, _index, _size, as_bits,
                   read_records)


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float64 array no caller can change.

    A read-only float64 array that owns its data is taken as is, without a
    copy (so a problem's ``linear`` is shared); anything else is copied.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
    return a


@dataclass(frozen=True, init=False, eq=False)
class CompressedQubo:
    """Rectangular form: ``constant + linear.x + x[row_vars]^T qprime x[col_vars]``.

    ``Q'`` is stored as the row-major sorted coordinates ``(rows, cols)`` of
    its nonzeros, with their ``values``; memory follows the nonzeros, not
    p x q.  ``qprime`` is the dense read-only matrix, built on first use.
    The constructor takes a dense matrix; :meth:`from_coords` takes the
    coordinates.  A variable appears at most once in ``row_vars`` and at
    most once in ``col_vars``, as the crossbar reads it through one row and
    one column; a repeat is a :class:`DimensionError`.
    """

    row_vars: tuple[int, ...] = field(init=False)
    col_vars: tuple[int, ...] = field(init=False)
    rows: np.ndarray = field(init=False)
    cols: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    linear: np.ndarray = field(init=False)
    constant: float = field(init=False)
    source_n: int = field(init=False)

    def __init__(self, row_vars, col_vars, qprime, linear, constant: float, source_n: int):
        qp = np.asarray(qprime, dtype=np.float64)
        if qp.shape != (len(row_vars), len(col_vars)):
            raise DimensionError(
                f"qprime shape {qp.shape} does not match "
                f"({len(row_vars)}, {len(col_vars)})")
        rows, cols = np.nonzero(qp)
        self._init(row_vars, col_vars, rows, cols, qp[rows, cols], linear, constant, source_n)

    @classmethod
    def from_coords(cls, row_vars, col_vars, rows, cols, values, linear, constant: float,
                    source_n: int) -> "CompressedQubo":
        """Build from the row-major sorted coordinates of distinct nonzero cells of ``Q'``."""
        c = cls.__new__(cls)
        c._init(row_vars, col_vars, rows, cols, values, linear, constant, source_n)
        return c

    def _init(self, row_vars, col_vars, rows, cols, values, linear, constant, source_n):
        lin = _frozen(linear)
        if lin.shape != (source_n,):
            raise DimensionError(f"linear must have length {source_n}")
        row_vars = tuple(int(i) for i in row_vars)
        col_vars = tuple(int(j) for j in col_vars)
        if any(not 0 <= v < source_n for v in (*row_vars, *col_vars)):
            raise DimensionError(f"row or column variable outside 0..{source_n - 1}")
        if len(set(row_vars)) < len(row_vars) or len(set(col_vars)) < len(col_vars):
            raise DimensionError("a variable repeats in row_vars or in col_vars")
        coords = (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), _frozen(values))
        for a in coords:
            a.flags.writeable = False
        for name, value in (("row_vars", row_vars), ("col_vars", col_vars), ("rows", coords[0]),
                            ("cols", coords[1]), ("values", coords[2]), ("linear", lin),
                            ("constant", float(constant)), ("source_n", source_n)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_vars), len(self.col_vars)

    @cached_property
    def qprime(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.values
        dense.flags.writeable = False
        return dense


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
        return {**asdict(self), "sparsity_before_with_diagonal": self.sparsity_before_with_diagonal}


def compress(q: QuboProblem) -> tuple[CompressedQubo, CompressionStats]:
    """Prune empty-able rows and columns of the off-diagonal matrix.

    Deterministic: identical problems produce identical results.  A matrix
    with nothing to prune comes back at (almost) full size; a zero
    off-diagonal part comes back as an empty 0 x 0 block.  Only the greedy
    decisions run per variable; everything else is an array operation on
    the terms, and no p x q array is built.
    """
    n = q.n
    rows, cols, values = q.term_arrays()
    order = np.argsort(np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n),
                       kind="stable").tolist()
    # Term k is the pair (rows[k], cols[k]) with rows[k] < cols[k], in the
    # upper triangle until it moves.  Row i holds terms row_ptr[i]:row_ptr[i+1]
    # of the row-sorted columns; column j the sorted-by-column rows.
    row_ptr = np.searchsorted(rows, np.arange(n + 1)).tolist()
    by_col = np.argsort(cols, kind="stable")
    col_ptr = np.searchsorted(cols[by_col], np.arange(n + 1)).tolist()
    col_of_row, row_of_col = cols.tolist(), rows[by_col].tolist()

    fixed_rows = [False] * n   # rows containing a fixed slot
    fixed_cols = [False] * n   # columns containing a fixed slot
    dead_rows = [False] * n
    dead_cols = [False] * n

    # Row pass.  A row that is not fixed still holds exactly its upper-
    # triangle terms: a move into row j fixes row j.  Moving term (i, j) to
    # its mirror (j, i) fixes row j and column i.
    for i in order:
        if fixed_rows[i]:
            continue
        targets = col_of_row[row_ptr[i]:row_ptr[i + 1]]
        if any(dead_rows[j] for j in targets):
            continue  # a move would land in a deleted row; keep this row
        for j in targets:
            fixed_rows[j] = True
        if targets:
            fixed_cols[i] = True
        dead_rows[i] = True

    # Column pass, same order, fixed marks carried over.  A column that is
    # not fixed holds its upper-triangle terms whose row is still live.
    for j in order:
        if fixed_cols[j]:
            continue
        sources = [i for i in row_of_col[col_ptr[j]:col_ptr[j + 1]] if not dead_rows[i]]
        if sources and (dead_rows[j] or any(dead_cols[i] for i in sources)):
            continue  # mirror slots (j, i) must land in a live row and column
        for i in sources:
            fixed_cols[i] = True
        dead_cols[j] = True

    # A term moved to its mirror when its row died in the row pass or its
    # column died in the column pass; no slot holds two terms.
    dead_rows, dead_cols = np.array(dead_rows, dtype=bool), np.array(dead_cols, dtype=bool)
    moved = dead_rows[rows] | dead_cols[cols]
    slot_rows, slot_cols = np.where(moved, cols, rows), np.where(moved, rows, cols)
    row_vars, col_vars = np.flatnonzero(~dead_rows), np.flatnonzero(~dead_cols)
    a, b = np.searchsorted(row_vars, slot_rows), np.searchsorted(col_vars, slot_cols)
    cell_order = np.lexsort((b, a))
    a, b = a[cell_order], b[cell_order]

    if len(row_vars) and len(col_vars):
        assert np.bincount(a, minlength=len(row_vars)).all(), "all-zero row survived"
        assert np.bincount(b, minlength=len(col_vars)).all(), "all-zero column survived"

    compressed = CompressedQubo.from_coords(row_vars.tolist(), col_vars.tolist(), a, b,
                                            values[cell_order], q.linear, q.constant, n)
    nnz_after = len(values)
    cells_after = len(row_vars) * len(col_vars)
    stats = CompressionStats(
        source_n=n,
        rows_removed=n - len(row_vars),
        cols_removed=n - len(col_vars),
        cells_before=n * n,
        cells_after=cells_after,
        chip_size_saving=1.0 - cells_after / (n * n),
        sparsity_before=1.0 - len(values) / (n * n),
        sparsity_after=(1.0 - nnz_after / cells_after) if cells_after else 0.0,
        offdiag_nonzeros=len(values),
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
    i = np.array(c.row_vars, dtype=np.intp)[c.rows]
    j = np.array(c.col_vars, dtype=np.intp)[c.cols]
    diagonal = i == j
    linear = np.array(c.linear)
    np.add.at(linear, i[diagonal], c.values[diagonal])
    off = ~diagonal
    return QuboProblem.from_arrays(c.source_n, i[off], j[off], c.values[off], linear, c.constant)


def compressed_energy(c: CompressedQubo, x) -> float:
    """Energy of a full-length assignment under the rectangular form."""
    bits = as_bits(x, c.source_n).astype(np.float64)
    rows = np.array(c.row_vars, dtype=np.intp)[c.rows]
    cols = np.array(c.col_vars, dtype=np.intp)[c.cols]
    return float(_exact_energy(bits, c.linear, c.constant, rows, cols, c.values))


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
            index[f[0]] = [_index(s, n) for s in f[1:]]
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
