"""Behavioral simulator of a compute-in-memory crossbar evaluating x_h^T Q' x_v.

The model is deliberately current-statistical, not device-physical: a
programmed cell contributes a per-cell ON current sampled once at programming
time (truncated normal around the nominal value, with a per-tile offset for
die-to-die spread) or a small deterministic OFF leakage.  Signed coefficients
are split into two nonnegative planes that are subtracted digitally;
magnitudes are either bit-sliced over M single-bit planes recombined by
shift-and-add, or, for matrices over {0, 1, 2}, encoded on two unit-weight
cells per element so no shift-and-add is needed.  Only ON cells are stored
and only ON cells are sampled (one die offset per tile position, then one
normal per ON cell), so memory and programming time follow the nonzeros of
the matrix, not its area.

Readout: activated rows of each 32 x 32 tile drive their columns; each active
column's analog current goes through a shared uniform ADC and the resulting
code is scaled back to the nearest integer cell count, the quantity the
digital pipeline accumulates.  With zero variation, zero leakage, and enough
ADC resolution (``bits >= ceil(log2(rows)) + 1``) the pipeline is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compress import CompressedQubo
from .errors import ConfigError, DimensionError, EncodingError, UnsupportedInstanceError
from .qubo import as_bits, toggle


# Widest code, quantizer or ADC.  Every level is an exact float64 integer up to
# 53 bits, but at 53 the quantizer's ``peak / scale`` can round the largest
# magnitude down to level 2**53 - 2; at 52 bits and below it reads full scale.
MAX_BITS = 52


def _check_bits(bits: int, what: str) -> None:
    if not 1 <= bits <= MAX_BITS:
        raise ConfigError(f"{what} must lie in [1, {MAX_BITS}], got {bits}")


@dataclass(frozen=True)
class DeviceParams:
    """Cell current statistics, in units of the nominal ON current.

    A nominal ON cell carries current 1.  ``i_on_rel_sigma`` is the spread of
    an ON cell's current, ``die_offset_sigma`` the spread of a tile's
    relative offset and ``i_off_ratio`` the OFF leakage.
    """

    i_on_rel_sigma: float = 0.05
    i_off_ratio: float = 1e-3
    die_offset_sigma: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.i_on_rel_sigma, self.i_off_ratio,
                                       self.die_offset_sigma))):
            raise ConfigError("device parameters must be finite")
        if self.i_on_rel_sigma < 0 or self.die_offset_sigma < 0:
            raise ConfigError("current spreads must be >= 0")
        if not 0 <= self.i_off_ratio < 1:
            raise ConfigError("i_off_ratio must lie in [0, 1)")


@dataclass(frozen=True)
class AdcParams:
    """Uniform clamped quantizer for column currents.

    ``bits`` lies in ``[1, MAX_BITS]``; ``bits=None`` bypasses quantization
    entirely (ideal analog readout).
    ``full_scale=None`` defaults per tile to the worst-case column current,
    all rows of the tile ON.
    """

    bits: int | None = 12
    full_scale: float | None = None

    def __post_init__(self):
        if self.bits is not None:
            _check_bits(self.bits, "adc bits")
        if self.full_scale is not None and not 0 < self.full_scale < math.inf:
            raise ConfigError("full_scale must be positive and finite")

    def full_scale_for(self, rows: int) -> float:
        """Full-scale current of a tile band with ``rows`` physical rows."""
        return self.full_scale if self.full_scale is not None else float(rows)

    def read(self, currents: np.ndarray, full_scale: float) -> tuple[np.ndarray, np.ndarray]:
        """Column currents to (ADC codes, cell counts), elementwise.

        A current is clamped to ``[0, full_scale]``, rounded to one of
        ``2**bits - 1`` uniform steps, and the code is scaled back to the
        nearest integer cell count.  Without quantization (``bits=None``)
        codes and counts are both ``currents`` itself, on the stack's grid.
        ``currents`` may have any shape; it is not modified.
        """
        if self.bits is None:
            return currents, currents
        levels = float((1 << self.bits) - 1)  # float scalars: numpy mixes them in faster
        codes = currents / full_scale
        codes *= levels
        np.rint(codes, out=codes)
        np.maximum(codes, 0.0, out=codes)  # unlike np.clip, turns -0.0 into 0.0
        np.minimum(codes, levels, out=codes)
        counts = codes * full_scale
        counts /= levels
        return codes, np.rint(counts, out=counts)


def _dense(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values,
           fill: float = 0) -> np.ndarray:
    """A ``shape`` array holding ``values`` at ``(rows, cols)`` and ``fill`` elsewhere."""
    out = np.full(shape, fill, dtype=np.asarray(values).dtype)
    out[rows, cols] = values
    return out


@dataclass(frozen=True)
class QuantizedQubo:
    """Fixed-point image of the nonzeros of a compressed matrix.

    ``Q'[rows, cols] ~ scale * codes``: ``rows`` and ``cols`` are the
    row-major sorted coordinates of the nonzeros of ``Q'``, ``values`` the
    nonzeros themselves and ``codes`` their signed integer codes.  The dense
    ``plus``, ``minus``, ``error`` and ``dequantized`` matrices are built on
    demand.
    """

    scale: float
    bits: int
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    codes: np.ndarray
    values: np.ndarray

    @property
    def plus(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, np.maximum(self.codes, 0))

    @property
    def minus(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, np.maximum(-self.codes, 0))

    @property
    def error(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, self.values - self.scale * self.codes)

    @property
    def dequantized(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, self.scale * self.codes.astype(np.float64))


def quantize(c: CompressedQubo, bits: int) -> QuantizedQubo:
    """Round the magnitudes of the nonzeros of ``Q'`` to ``bits``-bit integers.

    ``scale = max|Q'| / (2**bits - 1)``; magnitudes round half away from
    zero, so every element is within ``scale/2`` of its fixed-point image.
    An all-zero matrix gets scale 1 with all codes zero.  ``bits`` must lie
    in ``[1, MAX_BITS]``, so that every code is an exact float64 integer and
    the largest magnitude gets the full-scale code.
    """
    _check_bits(bits, "bits")
    values = c.values
    magnitude = np.abs(values)
    peak = float(magnitude.max()) if values.size else 0.0
    scale = peak / ((1 << bits) - 1) if peak > 0 else 1.0
    codes = np.floor(magnitude / scale + 0.5).astype(np.int64)
    np.clip(codes, 0, (1 << bits) - 1, out=codes)
    codes[values < 0] *= -1
    return QuantizedQubo(scale, bits, c.shape, c.rows, c.cols, codes, values)


@dataclass(frozen=True)
class Plane:
    """One physical bit plane, stored as its ON cells only.

    ``rows`` and ``cols`` are the row-major sorted coordinates of the ON
    cells and ``currents`` their ON currents, sampled at programming time
    and rounded to the stack's grid; every other cell leaks
    ``off_current``.  Memory is per ON cell.  The dense ``states``,
    ``on_current`` (0.0 at OFF cells) and ``cell_current`` (the effective
    readout current of every cell) are built on demand, for reference
    readout and small arrays.
    """

    sign: int
    weight: float
    shape: tuple[int, int]   # physical rows x columns
    rows: np.ndarray
    cols: np.ndarray
    currents: np.ndarray
    off_current: float

    @property
    def states(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, True)

    @property
    def on_current(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, self.currents)

    @property
    def cell_current(self) -> np.ndarray:
        return _dense(self.shape, self.rows, self.cols, self.currents, self.off_current)


@dataclass(frozen=True)
class CrossbarStack:
    """Programmed array image for one compressed matrix.

    ``row_map`` sends each physical row to its logical row (ternary encoding
    uses two physical rows per logical row).  Tiles partition each plane into
    ``tile_rows x tile_cols`` blocks, each with its own column ADC; splitting
    across tiles is transparent in the noiseless model.  Each plane holds its
    ON cells only, so the stack's memory follows the nonzeros of ``Q'``.
    Every cell current is a multiple of ``2**-grid`` (see :func:`_stack`).
    """

    n_rows: int
    n_cols: int
    row_map: np.ndarray
    planes: tuple[Plane, ...]
    off_current: float
    grid: int
    scale: float
    tile_rows: int = 32
    tile_cols: int = 32

    def bands(self) -> list[tuple[int, int]]:
        """Physical row ranges ``[r0, r1)`` of the tile bands, top to bottom."""
        n_phys = len(self.row_map)
        return [(r0, min(r0 + self.tile_rows, n_phys))
                for r0 in range(0, n_phys, self.tile_rows)]

    @property
    def band_rows(self) -> int:
        """Physical rows of the first, tallest band (at least 1)."""
        return min(self.tile_rows, max(len(self.row_map), 1))

    def tile_counts(self) -> tuple[int, int]:
        """(occupied, total) tile positions; a tile is occupied when any plane
        holds an ON cell in it."""
        col_tiles = -(-self.n_cols // self.tile_cols)
        occupied = np.zeros(-(-len(self.row_map) // self.tile_rows) * col_tiles, dtype=bool)
        for p in self.planes:
            occupied[p.rows // self.tile_rows * col_tiles + p.cols // self.tile_cols] = True
        return int(occupied.sum()), occupied.size


def _sample_on_currents(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
                        dev: DeviceParams, rng: np.random.Generator,
                        tile_rows: int, tile_cols: int) -> np.ndarray:
    """ON currents of the cells at row-major sorted ``(rows, cols)``, off the grid.

    The stream: one die offset per tile position of ``shape`` in row-major
    tile order (when ``die_offset_sigma > 0``), then one standard normal
    ``z`` per ON cell in order (when the cell spread is positive), cells with
    ``|z| > 4`` redrawn in index order until none is left.  A cell's current
    is ``1 + offset[tile] + i_on_rel_sigma * z``.  Cost O(ON cells + tiles);
    nothing is drawn at zero spread and zero die offset.
    """
    currents = np.ones(len(rows))
    if dev.die_offset_sigma > 0:
        col_tiles = -(-shape[1] // tile_cols)
        offsets = rng.normal(0.0, dev.die_offset_sigma,
                             size=-(-shape[0] // tile_rows) * col_tiles)
        currents += offsets[rows // tile_rows * col_tiles + cols // tile_cols]
    if dev.i_on_rel_sigma == 0:
        return currents
    z = rng.standard_normal(len(rows))
    bad = np.flatnonzero(np.abs(z) > 4.0)
    while bad.size:
        z[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(z[bad]) > 4.0]
    currents += dev.i_on_rel_sigma * z
    return currents


def _stack(layout, shape: tuple[int, int], cells: int, scale: float, dev: DeviceParams,
           seed: int, tile_rows: int, tile_cols: int) -> CrossbarStack:
    """The stack of a logical ``shape`` matrix stored on ``cells`` physical
    rows per logical row: the tile sizes are checked, then one plane is
    programmed per ``(sign, weight, rows, cols)`` of ``layout``, in order,
    from one stream seeded by ``seed``, which must be >= 0.

    Every ON current and the OFF leakage are then rounded, in place, to the
    nearest multiple of ``2**-grid``, ``grid = 50 - e``, where ``2**e`` is
    the smallest power of two above the largest per-plane sum of ``|cell
    current|``, ON and OFF cells.  Rounding adds at most half a step per
    cell, and a sum the readout or the evaluator forms adds at most four
    plane sums, so it stays below ``2**53`` grid steps and is exact in
    float64, in any order and on any BLAS.  Spreads so wide that a plane sum
    is not finite are an :class:`UnsupportedInstanceError`.
    """
    if tile_rows < 1 or tile_cols < 1:
        raise ConfigError(f"tile sizes must be >= 1, got {tile_rows} x {tile_cols}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    p, q = shape
    phys = (cells * p, q)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected as non-finite below
        currents = [_sample_on_currents(rows, cols, phys, dev, rng, tile_rows, tile_cols)
                    for _, _, rows, cols in layout]
        peak = np.max([np.abs(c).sum() + dev.i_off_ratio * (phys[0] * q - c.size)
                       for c in currents])
    if not np.isfinite(peak):
        raise UnsupportedInstanceError("cell currents overflow float64; lower the spreads")
    grid = 50 - math.frexp(peak)[1]
    for c in currents:
        np.rint(np.ldexp(c, grid, out=c), out=c)
        np.ldexp(c, -grid, out=c)
    off_current = math.ldexp(round(math.ldexp(dev.i_off_ratio, grid)), -grid)
    planes = []
    for (sign, weight, rows, cols), c in zip(layout, currents):
        for arr in (rows, cols, c):
            arr.flags.writeable = False
        planes.append(Plane(sign, weight, phys, rows, cols, c, off_current))
    return CrossbarStack(
        n_rows=p, n_cols=q, row_map=np.repeat(np.arange(p, dtype=np.intp), cells),
        planes=tuple(planes), off_current=off_current, grid=grid,
        scale=scale, tile_rows=tile_rows, tile_cols=tile_cols)


def program(qq: QuantizedQubo, dev: DeviceParams = DeviceParams(), seed: int = 0,
            tile_rows: int = 32, tile_cols: int = 32) -> CrossbarStack:
    """Program bit-sliced planes: plane m of each sign holds bit m of the codes.

    Each plane keeps only its ON cells.  Planes draw from one stream in
    stack order (plus planes by bit, then minus planes), each as
    :func:`_sample_on_currents` describes: per-tile die offsets, then one
    truncated normal per ON cell, O(ON cells + tiles) per plane.  Code
    widths outside ``[1, MAX_BITS]`` and tile sizes below 1 are a
    :class:`ConfigError`.
    """
    _check_bits(qq.bits, "bits")
    magnitude = np.abs(qq.codes)
    layout = []
    for sign, of_sign in ((1, qq.codes > 0), (-1, qq.codes < 0)):
        for m in range(qq.bits):
            on = of_sign & ((magnitude >> m) & 1).astype(bool)
            layout.append((sign, float(1 << m), qq.rows[on], qq.cols[on]))
    return _stack(layout, qq.shape, 1, qq.scale, dev, seed, tile_rows, tile_cols)


def _program_ternary(shape: tuple[int, int], rows, cols, values, dev: DeviceParams, seed: int,
                     tile_rows: int, tile_cols: int) -> CrossbarStack:
    """The ternary encoding of :func:`program_ternary`, from the row-major
    sorted coordinates ``(rows, cols)`` of the nonzero elements and their
    ``values``; a value other than 1 or 2 is an :class:`EncodingError`."""
    if np.any((values != 1) & (values != 2)):
        raise EncodingError("ternary encoding requires entries in {0, 1, 2}")
    two = values == 2
    rows = np.concatenate([2 * rows, 2 * rows[two] + 1])
    cols = np.concatenate([cols, cols[two]])
    order = np.lexsort((cols, rows))
    return _stack([(1, 1.0, rows[order], cols[order])], shape, 2, 1.0, dev, seed,
                  tile_rows, tile_cols)


def program_ternary(values: np.ndarray, dev: DeviceParams = DeviceParams(), seed: int = 0,
                    tile_rows: int = 32, tile_cols: int = 32) -> CrossbarStack:
    """Program a {0,1,2}-valued matrix on two unit-weight cells per element.

    Element value = number of ON cells in its vertical cell pair (0 -> 00,
    1 -> 10, 2 -> 11), so the physical array has twice the logical rows and
    readout needs no shift-and-add.  ON currents are sampled as in
    :func:`program`, for the one plane.  Entries outside {0, 1, 2} are an
    :class:`EncodingError`, tile sizes below 1 a :class:`ConfigError`.
    """
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise DimensionError("ternary matrix must be 2-D")
    if vals.size and not np.issubdtype(vals.dtype, np.number):
        raise EncodingError("ternary encoding requires entries in {0, 1, 2}")
    rows, cols = np.nonzero(vals)
    return _program_ternary(vals.shape, rows, cols, vals[rows, cols], dev, seed,
                            tile_rows, tile_cols)


def vmv(stack: CrossbarStack, x_h, x_v, adc: AdcParams = AdcParams()) -> tuple[float, dict]:
    """Evaluate ``scale * x_h^T (sum of signed weighted planes) x_v``.

    Per plane and tile row band, activated rows contribute their sampled ON
    current (or OFF leakage) to each active column; the column current is
    ADC-converted and scaled back to an integer cell count; counts are summed
    digitally, shift-and-add recombines the planes, and the coefficient scale
    converts to energy units.  Diagnostics carry raw currents, codes, and
    counts per plane.
    """
    xh = as_bits(x_h, stack.n_rows)
    xv = as_bits(x_v, stack.n_cols)
    active_rows = xh[stack.row_map].astype(bool)
    active_cols = np.flatnonzero(xv == 1)
    diagnostics = {"currents": [], "codes": [], "counts": [], "active_cols": active_cols}
    total = 0.0
    for plane in stack.planes:
        plane_currents = []
        plane_codes = []
        plane_counts = []
        plane_sum = 0.0
        cell_current = plane.cell_current
        for r0, r1 in stack.bands():
            act = active_rows[r0:r1]
            if active_cols.size:
                currents = act.astype(np.float64) @ cell_current[r0:r1][:, active_cols]
            else:
                currents = np.zeros(0)
            codes, counts = adc.read(currents, adc.full_scale_for(r1 - r0))
            plane_sum += float(counts.sum())
            plane_currents.append(currents)
            plane_codes.append(codes)
            plane_counts.append(counts)
        total += plane.sign * plane.weight * plane_sum
        diagnostics["currents"].append(plane_currents)
        diagnostics["codes"].append(plane_codes)
        diagnostics["counts"].append(plane_counts)
    return stack.scale * total, diagnostics


# States per band product in HwEvaluator.flip_deltas; bounds its transient memory.
BATCH_STATES = 16
# HwEvaluator's move table: the most moves of one width it tabulates at a state
# (bounds a table's memory and the cost of one build), the moves per band
# product while it does, and the live-entry reads of a table that cost about
# what one table-served peek of width 1 saves (sets when a table is built).
MOVE_TABLE_MAX = 512
MOVE_CHUNK = 128
MOVE_PEEK_READS = 1000


class _Band(NamedTuple):
    """One tile band: its live (plane, column) entries and its ON cells.

    The ON cells are listed row by row, those of local row r at
    ``row_ptr[r]:row_ptr[r + 1]`` in increasing entry order, each as the
    position of its (plane, column) in ``entries`` and its ON current;
    every other cell of a live entry leaks ``off``.  Memory follows the ON
    cells and the live entries; the dense ``currents`` matrix is built on
    demand.
    """

    r0: int
    r1: int
    full_scale: float
    entries: np.ndarray       # flat index plane * n_cols + column of each live entry
    entry_planes: np.ndarray  # plane of each live entry
    rows: np.ndarray          # variable of each physical row
    col_vars: np.ndarray      # column variable of each live entry
    starts: np.ndarray        # first live entry of each plane present (entries sort by plane)
    planes: np.ndarray        # the plane of each of those segments
    row_ptr: np.ndarray       # first ON cell of each local row, then the number of cells
    cell_entry: np.ndarray    # position in entries of each ON cell
    cell_current: np.ndarray  # ON current of each ON cell
    off: float                # OFF leakage of every other cell

    @property
    def currents(self) -> np.ndarray:
        """(rows, live entries) cell currents, planes in stack order."""
        rows = self.r1 - self.r0
        return _dense((rows, len(self.entries)), np.repeat(np.arange(rows), np.diff(self.row_ptr)),
                      self.cell_entry, self.cell_current, self.off)


class HwOracle:
    """Energy oracle backed by a programmed crossbar.

    The bilinear part is read from the array; linear and constant terms
    bypass it and are evaluated exactly, mirroring how diagonal terms are
    kept off-chip.  Device samples are drawn once at construction, so the
    oracle is deterministic for a given seed and safe to query concurrently.

    Each tile band keeps its live (plane, column) entries, those with an ON
    cell in some row of the band, and its ON cells row by row (see
    :class:`_Band`), so the oracle's memory follows the ON cells and the
    live entries, not rows times entries.  A dead entry holds OFF leakage
    only; it is dropped only when the band's worst-case leakage, all rows
    active, reads as count 0, so it would read 0 in every state.  Otherwise
    (an ideal or a fine ADC, heavy leakage) every entry is live.  A read
    of one state sums, per live entry, the ON currents of the active rows'
    cells and the OFF leakage of its other active cells.  Cell currents lie
    on the stack's grid and each of these sums is bounded by a plane sum,
    so a read is exact in any summation order: its currents, and so its
    ADC counts, equal those of :func:`vmv` on the same stack bit for bit.
    :meth:`evaluator` gives the solver delta evaluation that reproduces
    ``__call__`` bit for bit.
    """

    def __init__(self, compressed: CompressedQubo, stack: CrossbarStack, adc: AdcParams):
        self.compressed = compressed
        self.stack = stack
        self.adc = adc
        self.n = compressed.source_n
        self._rows = np.array(compressed.row_vars, dtype=np.intp)
        self._cols = np.array(compressed.col_vars, dtype=np.intp)
        self._phys_rows = self._rows[stack.row_map]
        self._linear = np.asarray(compressed.linear)
        self._constant = compressed.constant
        self._weights = np.array([p.sign * p.weight for p in stack.planes])
        # Every ON cell of the stack, sorted by physical row, keyed by its
        # flat entry index plane * n_cols + column; within a row the keys
        # increase, since each plane lists its cells in row-major order.
        rows = np.concatenate([p.rows for p in stack.planes])
        by_row = np.argsort(rows, kind="stable")
        rows = rows[by_row]
        keys = np.concatenate([k * stack.n_cols + p.cols
                               for k, p in enumerate(stack.planes)])[by_row]
        on_currents = np.concatenate([p.currents for p in stack.planes])[by_row]
        self._bands = []
        for r0, r1 in stack.bands():
            full_scale = adc.full_scale_for(r1 - r0)
            leak = np.array([(r1 - r0) * stack.off_current])  # all rows active
            leak_reads = adc.read(leak, full_scale)[1][0] != 0
            a, b = np.searchsorted(rows, (r0, r1))
            is_live = np.full(len(stack.planes) * stack.n_cols, leak_reads)
            is_live[keys[a:b]] = True
            entries = np.flatnonzero(is_live)
            planes, cols = np.divmod(entries, stack.n_cols)
            starts = np.flatnonzero(np.diff(planes, prepend=-1))
            self._bands.append(_Band(
                r0, r1, full_scale, entries, planes, self._phys_rows[r0:r1], self._cols[cols],
                starts, planes[starts], np.searchsorted(rows[a:b], np.arange(r0, r1 + 1)),
                np.searchsorted(entries, keys[a:b]), on_currents[a:b], stack.off_current))
        # For delta evaluation: the ON cells of each variable's physical rows,
        # (band number, first cell, end cell) per row, and its column index
        # (-1 when it is not a column variable).
        self._var_rows: list[tuple[tuple[int, int, int], ...]] = [()] * self.n
        for b, band in enumerate(self._bands):
            ptr = band.row_ptr.tolist()
            for r, var in enumerate(band.rows.tolist()):
                self._var_rows[var] += ((b, ptr[r], ptr[r + 1]),)
        self._col_of = np.full(self.n, -1, dtype=np.intp)
        self._col_of[self._cols] = np.arange(len(self._cols))

    @property
    def energy_lsb(self) -> float:
        """Energy value of one ADC code step on a unit-weight plane (0 if ideal)."""
        if self.adc.bits is None:
            return 0.0
        full_scale = self.adc.full_scale_for(self.stack.band_rows)
        return self.stack.scale * full_scale / ((1 << self.adc.bits) - 1)

    def _bits(self, x) -> np.ndarray:
        bits = np.asarray(x, dtype=np.int8)
        if bits.shape != (self.n,):
            raise DimensionError(f"expected length {self.n}, got shape {bits.shape}")
        return bits

    def _adc_counts(self, band: _Band, currents) -> np.ndarray:
        """ADC counts of currents of ``band``'s live entries, or of some of
        them: one state as a vector, or one state per row of a matrix."""
        return self.adc.read(currents, band.full_scale)[1]

    @staticmethod
    def _currents(band: _Band, act) -> np.ndarray:
        """Currents of the live entries of ``band``, every column active, for
        the row activations ``act`` (0.0 or 1.0) of one state.

        Per entry, the ON currents of the active rows' cells plus the OFF
        leakage of its other active cells.  Each term and each partial sum
        is bounded by a plane sum, so on the grid the sum is exact.
        """
        live = len(band.entries)
        on = np.repeat(act, np.diff(band.row_ptr))  # 1.0 at the ON cells of active rows
        off_cells = act.sum() - np.bincount(band.cell_entry, on, minlength=live)
        return (np.bincount(band.cell_entry, on * band.cell_current, minlength=live)
                + off_cells * band.off)

    def _read(self, bits) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, list[np.ndarray]]:
        """Read every band for state ``bits``, every column active.

        Returns the live counts of each band, their (planes, columns) sums
        over the bands (one scatter-add per band; dead entries read 0), the
        per-plane totals over the active columns, and the live currents of
        each band.  Counts are integers, or grid currents under an ideal
        ADC, so every one of these sums is exact.
        """
        act_rows = bits[self._phys_rows].astype(np.float64)
        col_counts = np.zeros((len(self._weights), self.stack.n_cols))
        flat = col_counts.reshape(-1)
        counts, currents = [], []
        for band in self._bands:
            band_currents = self._currents(band, act_rows[band.r0:band.r1])
            live = self._adc_counts(band, band_currents)
            flat[band.entries] += live  # a band lists each entry once
            counts.append(live)
            currents.append(band_currents)
        active = np.flatnonzero(bits[self._cols] == 1)
        return counts, col_counts, col_counts.take(active, axis=1).sum(axis=1), currents

    def _energy(self, bits, total) -> float:
        """Energy of state ``bits`` from its per-plane count ``total``.

        Summed as ``(bilinear + linear) + constant``, not in the exact
        kernel's order (constant first): float addition does not associate,
        and the pinned hw golden outputs were produced in this order.
        """
        bilinear = self.stack.scale * float(self._weights @ total)
        return float(bilinear + bits.astype(np.float64) @ self._linear + self._constant)

    def __call__(self, x) -> float:
        bits = self._bits(x)
        return self._energy(bits, self._read(bits)[2])

    def evaluator(self):
        """Per-run evaluator for the solver: a :class:`HwEvaluator`, for any
        ADC and any number of tile bands."""
        return HwEvaluator(self)


class _Moves(NamedTuple):
    """Every move of one width, ``combinations(range(n), width)``, laid out per band."""

    index: dict         # sorted tuple of flipped variables -> move number
    flips: np.ndarray   # (moves, width) flipped variables
    bands: list         # (band number, moves that re-read it, their row and entry flips,
                        #  the (live, planes) indicator of each live entry's plane segment)
    trigger: int        # peeks at one state that build the table


class HwEvaluator:
    """Delta evaluation of a :class:`HwOracle`.

    The currents and ADC counts of every band's live entries are cached for
    the current state, all columns included, together with the counts'
    per-(plane, column) sums over the bands, as :meth:`HwOracle._read`
    returns them.  A move reads each band its row variables drive once,
    through ``HwOracle._adc_counts``.  Where it flips one physical row of
    band b, let k be +1 if the row turns on and -1 if it turns off.  An
    entry with no ON cell in that row moves by exactly ``k * off``, so its
    count changes by the band's shift ``read(currents + k * off) -
    counts``, worked out once per band state and k, in the ADC read of the
    first move that needs it, and under a quantizing ADC almost always
    zero.  Only the entries of the row's ON cells are read, at their cached
    currents plus those cells' ON currents, so the read costs per ON cell
    of the row, not per live entry.  A move that flips more rows of one
    band, and every move on a band whose dense currents a move layout
    keeps (on small arrays, below), reads that band afresh instead.  A
    move's per-plane totals are the base totals, plus or minus the base
    column sums of its flipped column variables (plus where it turns one
    on), plus the count changes over the new state's active columns.
    Currents lie on the grid and each sum is bounded by plane sums, counts
    are integers or grid currents, so every energy equals ``oracle(y)`` bit
    for bit.  A peek is one such move; a commit moves the cached currents
    and counts of its bands to the new state, updates the column sums at
    the changed entries only and drops those bands' shifts.

    A stuck annealer peeks one move after another at the same state.  When
    a width w has at most ``MOVE_TABLE_MAX`` moves, ``C(n, w)``, a move
    table holds the per-plane totals of all of them at once, each band read
    for the moves that flip one of its row variables, ``MOVE_CHUNK`` moves
    per ``(moves, rows) @ (rows, live)`` product with the band's dense
    currents, which the first layout built at a band keeps for the
    evaluator's lifetime.  A width-w peek that is at
    least the k-th peek at one state, of any width, builds the table,
    ``k = max(2, products + ceil(reads / (w * MOVE_PEEK_READS)))`` for a
    table of ``products`` band products over ``reads`` live entries: a
    dearer table waits for more evidence that the state is stuck.  Later
    width-w peeks at that state read their totals from the table, which
    equal the totals of single peeks bit for bit.  A commit of a move
    served from a table reads its bands the ordinary way first; a reset or
    a commit drops the tables.
    """

    def __init__(self, oracle: HwOracle):
        self._oracle = oracle
        self._moves: dict[int, _Moves | None] = {}  # by width; None above the cap
        self._blocks: dict[int, np.ndarray] = {}  # dense currents of the bands move layouts read

    def reset(self, x, energy: float | None = None) -> float:
        o = self._oracle
        self._x = o._bits(x).copy()
        self._counts, self._col_counts, self._total, self._currents = o._read(self._x)
        self._shifts: list[dict] = [{} for _ in o._bands]  # per band: k -> shift, None if zero
        self._energy = o._energy(self._x, self._total) if energy is None else energy
        self._drop_tables()
        return self._energy

    def _drop_tables(self):
        self._tables: dict[int, np.ndarray] = {}  # per-move totals by width
        self._peeks = 0  # at this state, of any width

    def _reread(self, band: _Band, block, base, act_rows, active,
                segment=None) -> tuple[np.ndarray, np.ndarray]:
        """Read ``band``, whose dense currents are ``block``, for new states;
        returns their fresh live counts and, for each plane of
        ``band.planes``, the sums of ``(fresh - base) * active`` over the
        plane's live entries.

        ``act_rows`` holds the new states' activations of the band's rows
        and ``active`` their activations of its live entries' columns, one
        state per row; ``base`` holds the counts the states are moved from,
        one row for all or one row per state.  Given ``segment``, the
        ``(live, planes)`` 0/1 indicator of each live entry's plane, a move
        table's layout holds, the sums are one product with it rather than
        an ``np.add.reduceat``; the summands are integers or grid currents,
        so both give the same sums.
        """
        fresh = self._oracle._adc_counts(band, act_rows.astype(np.float64) @ block)
        change = fresh - base
        change *= active
        if segment is not None:
            return fresh, change @ segment
        return fresh, np.add.reduceat(change, band.starts, axis=-1)

    def _move(self, y, flips) -> tuple[np.ndarray, list]:
        """Per-plane totals of state ``y``, ``flips`` away from this state, and
        the reads of the bands whose rows it flips (see :meth:`_read_band`)."""
        o = self._oracle
        total = self._total.copy()
        runs: dict[int, list] = {}  # band number -> (first cell, end cell, sign) per flipped row
        for i in flips:
            sign = 1 if y[i] else -1
            c = o._col_of[i]
            if c >= 0:
                if sign > 0:
                    total += self._col_counts[:, c]
                else:
                    total -= self._col_counts[:, c]
            for b, lo, hi in o._var_rows[i]:
                runs.setdefault(b, []).append((lo, hi, sign))
        return total, [self._read_band(b, band_runs, y, total) for b, band_runs in runs.items()]

    def _read_band(self, b: int, runs: list, y, total) -> tuple:
        """Read band ``b`` for state ``y``, whose flipped rows hold the ON cells
        ``runs`` lists, and add its count changes over y's active columns to
        ``total``.  Returns ``(b, k, at, currents, counts, change, shift)``:
        the entries read (None for all), their new currents, counts and
        count changes, and the band's shift for k (None where it is zero).

        One flipped row reads the entries of its ON cells, which are
        distinct, and the shift.  More rows, or a band whose dense currents
        a move layout keeps (on a small array), read the whole band afresh.
        """
        o = self._oracle
        band, counts, block = o._bands[b], self._counts[b], self._blocks.get(b)
        if block is not None or len(runs) > 1:
            act = y[band.rows].astype(np.float64)
            fresh_currents = act @ block if block is not None else o._currents(band, act)
            fresh = o._adc_counts(band, fresh_currents)
            change = fresh - counts
            total[band.planes] += np.add.reduceat(change * y[band.col_vars], band.starts)
            return b, 0, None, fresh_currents, fresh, change, None
        (lo, hi, k), = runs
        currents, shifts = self._currents[b], self._shifts[b]
        at = band.cell_entry[lo:hi]
        fresh_currents = currents[at]
        if k > 0:
            fresh_currents += band.cell_current[lo:hi]
        else:
            fresh_currents -= band.cell_current[lo:hi]
        if k in shifts:
            shift = shifts[k]
            fresh = o._adc_counts(band, fresh_currents)
        else:
            both = o._adc_counts(band, np.concatenate([currents + k * band.off, fresh_currents]))
            shift, fresh = both[:len(counts)] - counts, both[len(counts):]
            shifts[k] = shift = shift if np.count_nonzero(shift) else None
        change = fresh - counts[at]
        total += np.bincount(band.entry_planes[at], change * y[band.col_vars[at]],
                             minlength=len(total))
        if shift is not None:
            rest = shift * y[band.col_vars]
            rest[at] = 0.0
            total[band.planes] += np.add.reduceat(rest, band.starts)
        return b, k, at, fresh_currents, fresh, change, shift

    def peek(self, flips) -> float:
        y = self._x.copy()
        toggle(y, flips)
        table = self._table(len(flips))
        if table is None:
            total, moved = self._move(y, flips)
        else:
            total, moved = table[self._moves[len(flips)].index[tuple(sorted(flips))]], None
        energy = self._oracle._energy(y, total)
        self._pending = (flips, y, moved, total, energy)
        return energy

    def commit(self):
        flips, y, moved, total, energy = self._pending
        del self._pending  # the cached state below changes in place: commit once per peek
        if moved is None:  # served from a table
            moved = self._move(y, flips)[1]
        flat = self._col_counts.reshape(-1)
        for b, k, at, fresh_currents, fresh, change, shift in moved:
            band = self._oracle._bands[b]
            counts = self._counts[b]
            if at is None:  # read in full
                currents, self._counts[b] = fresh_currents, fresh
                flat[band.entries] += change
            else:
                currents = self._currents[b] + k * band.off
                currents[at] = fresh_currents
                if shift is None:
                    flat[band.entries[at]] += change
                    counts[at] = fresh
                else:
                    new = counts + shift
                    new[at] = fresh
                    flat[band.entries] += new - counts
                    self._counts[b] = new
            self._currents[b] = currents
            self._shifts[b] = {}
        self._x, self._total, self._energy = y, total, energy
        self._drop_tables()

    def _table(self, width: int) -> np.ndarray | None:
        """Per-plane totals of every width-``width`` move at this state, once
        the peeks here, of any width, reach the table's trigger, or None."""
        self._peeks += 1
        table = self._tables.get(width)
        if table is None:
            if width not in self._moves:
                self._moves[width] = (self._lay_out(width) if math.comb(self._oracle.n, width)
                                      <= MOVE_TABLE_MAX else None)
            moves = self._moves[width]
            if moves is not None and self._peeks >= moves.trigger:
                self._tables[width] = table = self._tabulate(moves)
        return table

    def _lay_out(self, width: int) -> _Moves:
        o = self._oracle
        combos = list(itertools.combinations(range(o.n), width))
        flips = np.array(combos, dtype=np.intp).reshape(len(combos), width)
        bands, products, reads = [], 0, 0
        for b, band in enumerate(o._bands):
            row_flips = (band.rows[:, None] == flips[:, None, :]).any(axis=2)
            moves = np.flatnonzero(row_flips.any(axis=1))
            if moves.size:
                entry_flips = (band.col_vars[:, None] == flips[moves, None, :]).any(axis=2)
                segment = band.entry_planes[:, None] == band.planes
                if b not in self._blocks:
                    self._blocks[b] = band.currents
                bands.append((b, moves, row_flips[moves].view(np.int8), entry_flips.view(np.int8),
                              segment.astype(np.float64)))
                products += -(-moves.size // MOVE_CHUNK)
                reads += moves.size * band.entries.size
        trigger = max(2, products + -(-reads // (max(width, 1) * MOVE_PEEK_READS)))
        return _Moves({move: m for m, move in enumerate(combos)}, flips, bands, trigger)

    def _tabulate(self, moves: _Moves) -> np.ndarray:
        o = self._oracle
        x = self._x
        # Toggling a column variable on adds its base column sum, toggling it off
        # removes it; the appended zero column serves the other variables.
        padded = np.concatenate([self._col_counts, np.zeros((len(o._weights), 1))], axis=1)
        signed = padded.T[o._col_of] * (1.0 - 2.0 * x)[:, None]
        totals = np.repeat(self._total[None], len(moves.flips), axis=0)
        for flipped in moves.flips.T:  # one flipped variable of every move at a time
            totals += signed[flipped]
        for b, moved, row_flips, entry_flips, segment in moves.bands:
            band, block = o._bands[b], self._blocks[b]
            act_rows = x[band.rows] ^ row_flips
            active = x[band.col_vars] ^ entry_flips
            for lo in range(0, len(moved), MOVE_CHUNK):
                chunk = slice(lo, lo + MOVE_CHUNK)
                totals[moved[chunk, None], band.planes] += self._reread(
                    band, block, self._counts[b], act_rows[chunk], active[chunk], segment)[1]
        return totals

    def flip_deltas(self, states, flips) -> np.ndarray:
        """``E(x with bit i toggled) - E(x)`` for each row ``x`` of ``states`` and ``i`` of ``flips``.

        Every band's dense ``(rows, live)`` currents are built once per call,
        from its ON cells, and held while that band is read: for
        ``BATCH_STATES`` base states at a time, one ``(states, rows) @
        (rows, live)`` product and one ADC read, and each base state's
        per-plane totals sum its counts over its active columns.  Each
        flipped state is then one move from its own base state: the bands
        its flipped variable drives as a row variable go through
        :meth:`_reread` for those states only, and the base's counts in its
        flipped column, gathered band by band, give the column term.  On the
        grid a product reads the currents of a single-state read bit for
        bit, and counts are integers or grid currents, so every sum is exact
        in any order; every energy goes through :meth:`HwOracle._energy`.
        So each delta equals ``peek([i]) - reset(x)`` bit for bit.  The
        evaluator's own state is left as it was.
        """
        o = self._oracle
        base = np.asarray(states, dtype=np.int8)
        flips = np.asarray(flips, dtype=np.intp)
        if base.shape != (len(flips), o.n):
            raise DimensionError(f"expected {len(flips)} states of length {o.n}, "
                                 f"got shape {base.shape}")
        flipped = base.copy()
        flipped[np.arange(len(flips)), flips] ^= 1
        flip_cols = o._col_of[flips]  # -1 where the flipped variable is no column variable
        # A flipped column variable adds its base column, or removes it; others add 0.
        signs = np.where(flip_cols >= 0, 2.0 * flipped[np.arange(len(flips)), flips] - 1.0, 0.0)
        drives = np.zeros((len(o._bands), len(flips)), dtype=bool)
        for s, i in enumerate(flips.tolist()):
            drives[[b for b, _, _ in o._var_rows[i]], s] = True
        totals = np.zeros((len(flips), len(o._weights)))  # of the base states
        changes = np.zeros_like(totals)  # of each flipped state's totals from its base's
        for band, again in zip(o._bands, drives):
            rows, cols, starts, seg_planes = band.rows, band.col_vars, band.starts, band.planes
            if not starts.size:
                continue
            # Where each plane holds each state's flipped column, if it does.
            keys = seg_planes[:, None] * o.stack.n_cols + flip_cols
            at = np.minimum(np.searchsorted(band.entries, keys), len(band.entries) - 1)
            signed = np.where(band.entries[at] == keys, signs, 0.0)
            block = band.currents
            for lo in range(0, len(flips), BATCH_STATES):
                chunk = slice(lo, lo + BATCH_STATES)
                counts = o._adc_counts(band, base[chunk, rows].astype(np.float64) @ block)
                totals[chunk, seg_planes] += np.add.reduceat(counts * base[chunk, cols], starts,
                                                             axis=1)
                changes[chunk, seg_planes] += (
                    counts[np.arange(len(counts)), at[:, chunk]] * signed[:, chunk]).T
                reread = lo + np.flatnonzero(again[chunk])
                if reread.size:
                    y = flipped[reread]
                    changes[reread[:, None], seg_planes] += self._reread(
                        band, block, counts[reread - lo], y[:, rows], y[:, cols])[1]
        deltas = np.empty(len(flips))
        for s, (x, y) in enumerate(zip(base, flipped)):
            deltas[s] = o._energy(y, totals[s] + changes[s]) - o._energy(x, totals[s])
        return deltas


def make_hw_oracle(compressed: CompressedQubo, *, bits: int = 5, ternary: bool = False,
                   dev: DeviceParams = DeviceParams(), adc: AdcParams | None = None,
                   seed: int = 0, tile_rows: int = 32, tile_cols: int = 32) -> HwOracle:
    """Quantize (or ternary-encode), program, and wrap a compressed matrix.

    The default ADC resolution is ``ceil(log2(rows)) + 1`` bits per tile,
    the minimum that makes noiseless readout exact.
    """
    if ternary:
        stack = _program_ternary(compressed.shape, compressed.rows, compressed.cols,
                                 compressed.values, dev, seed, tile_rows, tile_cols)
    else:
        stack = program(quantize(compressed, bits), dev, seed, tile_rows, tile_cols)
    if adc is None:
        rows = stack.band_rows
        adc = AdcParams(bits=max(1, math.ceil(math.log2(rows)) + 1) if rows > 1 else 1)
    return HwOracle(compressed, stack, adc)


def dump_stack(stack: CrossbarStack) -> str:
    """Text dump of tile dims, per-plane cell states, and sampled currents."""
    lines = [f"tiles {stack.tile_rows} {stack.tile_cols}",
             f"rows {stack.n_rows} cols {stack.n_cols} physical_rows {len(stack.row_map)}",
             f"off_current {stack.off_current:.6f}",
             f"scale {float(stack.scale)!r}"]
    for idx, plane in enumerate(stack.planes):
        lines.append(f"plane {idx} sign {plane.sign:+d} weight {plane.weight:g}")
        for row in plane.states.astype(int):
            lines.append("s " + "".join(str(v) for v in row))
        for row in plane.on_current:
            lines.append("i " + " ".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
