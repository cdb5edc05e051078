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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compress import CompressedQubo
from .errors import ConfigError, DimensionError, EncodingError
from .qubo import FullEvaluator, as_bits, toggle


@dataclass(frozen=True)
class DeviceParams:
    """Cell current statistics in units normalized to the nominal ON current."""

    i_on_mean: float = 1.0
    i_on_rel_sigma: float = 0.05
    i_off_ratio: float = 1e-3
    die_offset_sigma: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.i_on_mean, self.i_on_rel_sigma, self.i_off_ratio,
                                       self.die_offset_sigma))):
            raise ConfigError("device parameters must be finite")
        if self.i_on_mean <= 0:
            raise ConfigError("i_on_mean must be positive")
        if self.i_on_rel_sigma < 0 or self.die_offset_sigma < 0:
            raise ConfigError("current spreads must be >= 0")
        if not 0 <= self.i_off_ratio < 1:
            raise ConfigError("i_off_ratio must lie in [0, 1)")


@dataclass(frozen=True)
class AdcParams:
    """Uniform clamped quantizer for column currents.

    ``bits=None`` bypasses quantization entirely (ideal analog readout).
    ``full_scale=None`` defaults per tile to the worst-case column current,
    all rows of the tile ON.
    """

    bits: int | None = 12
    full_scale: float | None = None

    def __post_init__(self):
        if self.bits is not None and self.bits < 1:
            raise ConfigError("adc bits must be >= 1")
        if self.full_scale is not None and not 0 < self.full_scale < math.inf:
            raise ConfigError("full_scale must be positive and finite")

    def full_scale_for(self, rows: int, i_on_mean: float) -> float:
        """Full-scale current of a tile band with ``rows`` physical rows."""
        return self.full_scale if self.full_scale is not None else i_on_mean * rows

    def read(self, currents: np.ndarray, full_scale: float,
             i_on_mean: float) -> tuple[np.ndarray, np.ndarray]:
        """Column currents to (ADC codes, cell counts), elementwise.

        A current is clamped to ``[0, full_scale]``, rounded to one of
        ``2**bits - 1`` uniform steps, and the code is scaled back to the
        nearest integer cell count.  Without quantization (``bits=None``)
        codes and counts are both the current in units of ``i_on_mean``.
        """
        if self.bits is None:
            counts = currents / i_on_mean
            return counts, counts
        levels = (1 << self.bits) - 1
        codes = np.clip(np.rint(currents / full_scale * levels), 0, levels)
        return codes, np.rint(codes * full_scale / (levels * i_on_mean))


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
    An all-zero matrix gets scale 1 with all codes zero.
    """
    if bits < 1:
        raise ConfigError("bits must be >= 1")
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
    cells and ``currents`` their ON currents, sampled at programming time;
    every other cell leaks ``off_current``.  Memory is per ON cell.  The
    dense ``states``, ``on_current`` (0.0 at OFF cells) and ``cell_current``
    (the effective readout current of every cell) are built on demand, for
    reference readout and small arrays.
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
    """

    n_rows: int
    n_cols: int
    row_map: np.ndarray
    planes: tuple[Plane, ...]
    off_current: float
    i_on_mean: float
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
    """ON currents of the cells at row-major sorted ``(rows, cols)``.

    The stream: one die offset per tile position of ``shape`` in row-major
    tile order (when ``die_offset_sigma > 0``), then one standard normal
    ``z`` per ON cell in order (when the cell spread is positive), cells with
    ``|z| > 4`` redrawn in index order until none is left.  A cell's current
    is ``i_on_mean * (1 + offset[tile]) + sigma * z`` with ``sigma =
    i_on_mean * i_on_rel_sigma``.  Cost O(ON cells + tiles); nothing is
    drawn at zero spread and zero die offset.
    """
    mean = np.full(len(rows), dev.i_on_mean)
    if dev.die_offset_sigma > 0:
        col_tiles = -(-shape[1] // tile_cols)
        offsets = rng.normal(0.0, dev.die_offset_sigma,
                             size=-(-shape[0] // tile_rows) * col_tiles)
        mean *= 1.0 + offsets[rows // tile_rows * col_tiles + cols // tile_cols]
    sigma = dev.i_on_mean * dev.i_on_rel_sigma
    if sigma == 0:
        return mean
    z = rng.standard_normal(len(rows))
    bad = np.flatnonzero(np.abs(z) > 4.0)
    while bad.size:
        z[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(z[bad]) > 4.0]
    return mean + sigma * z


def _plane(sign: int, weight: float, rows: np.ndarray, cols: np.ndarray,
           shape: tuple[int, int], dev: DeviceParams, rng: np.random.Generator,
           tile_rows: int, tile_cols: int) -> Plane:
    currents = _sample_on_currents(rows, cols, shape, dev, rng, tile_rows, tile_cols)
    for arr in (rows, cols, currents):
        arr.flags.writeable = False
    return Plane(sign, weight, shape, rows, cols, currents, dev.i_on_mean * dev.i_off_ratio)


def program(qq: QuantizedQubo, dev: DeviceParams = DeviceParams(), seed: int = 0,
            tile_rows: int = 32, tile_cols: int = 32) -> CrossbarStack:
    """Program bit-sliced planes: plane m of each sign holds bit m of the codes.

    Each plane keeps only its ON cells.  Planes draw from one stream in
    stack order (plus planes by bit, then minus planes), each as
    :func:`_sample_on_currents` describes: per-tile die offsets, then one
    truncated normal per ON cell, O(ON cells + tiles) per plane.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    p, q = qq.shape
    magnitude = np.abs(qq.codes)
    planes = []
    for sign, of_sign in ((1, qq.codes > 0), (-1, qq.codes < 0)):
        for m in range(qq.bits):
            on = of_sign & ((magnitude >> m) & 1).astype(bool)
            planes.append(_plane(sign, float(1 << m), qq.rows[on], qq.cols[on], (p, q),
                                 dev, rng, tile_rows, tile_cols))
    return CrossbarStack(
        n_rows=p, n_cols=q, row_map=np.arange(p, dtype=np.intp),
        planes=tuple(planes), off_current=dev.i_on_mean * dev.i_off_ratio,
        i_on_mean=dev.i_on_mean, scale=qq.scale,
        tile_rows=tile_rows, tile_cols=tile_cols)


def program_ternary(values: np.ndarray, dev: DeviceParams = DeviceParams(), seed: int = 0,
                    tile_rows: int = 32, tile_cols: int = 32) -> CrossbarStack:
    """Program a {0,1,2}-valued matrix on two unit-weight cells per element.

    Element value = number of ON cells in its vertical cell pair (0 -> 00,
    1 -> 10, 2 -> 11), so the physical array has twice the logical rows and
    readout needs no shift-and-add.  ON currents are sampled as in
    :func:`program`, for the one plane.
    """
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise DimensionError("ternary matrix must be 2-D")
    if vals.size and (not np.issubdtype(vals.dtype, np.number)
                      or np.any((vals != 0) & (vals != 1) & (vals != 2))):
        raise EncodingError("ternary encoding requires entries in {0, 1, 2}")
    p, q = vals.shape
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows, cols = np.nonzero(vals)
    two = vals[rows, cols] == 2
    rows = np.concatenate([2 * rows, 2 * rows[two] + 1])
    cols = np.concatenate([cols, cols[two]])
    order = np.lexsort((cols, rows))
    plane = _plane(1, 1.0, rows[order], cols[order], (2 * p, q), dev, rng, tile_rows, tile_cols)
    return CrossbarStack(
        n_rows=p, n_cols=q, row_map=np.repeat(np.arange(p, dtype=np.intp), 2),
        planes=(plane,), off_current=dev.i_on_mean * dev.i_off_ratio,
        i_on_mean=dev.i_on_mean, scale=1.0,
        tile_rows=tile_rows, tile_cols=tile_cols)


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
            full_scale = adc.full_scale_for(r1 - r0, stack.i_on_mean)
            codes, counts = adc.read(currents, full_scale, stack.i_on_mean)
            plane_sum += float(counts.sum())
            plane_currents.append(currents)
            plane_codes.append(codes)
            plane_counts.append(counts)
        total += plane.sign * plane.weight * plane_sum
        diagnostics["currents"].append(plane_currents)
        diagnostics["codes"].append(plane_codes)
        diagnostics["counts"].append(plane_counts)
    return stack.scale * total, diagnostics


class _Band(NamedTuple):
    """Compacted image of one tile band: its live (plane, column) entries only."""

    r0: int
    r1: int
    currents: np.ndarray  # (rows, live entries) cell currents, planes in stack order
    full_scale: float
    entries: np.ndarray   # flat index plane * n_cols + column of each live entry


class HwOracle:
    """Energy oracle backed by a programmed crossbar.

    The bilinear part is read from the array; linear and constant terms
    bypass it and are evaluated exactly, mirroring how diagonal terms are
    kept off-chip.  Device samples are drawn once at construction, so the
    oracle is deterministic for a given seed and safe to query concurrently.

    Each tile band keeps only its live (plane, column) entries, those with
    an ON cell in some row of the band, as one ``(rows, live)`` matrix built
    from the planes' ON-cell lists, so an evaluation is one matvec per band
    over the live entries.  A dead entry holds OFF leakage only; it is
    dropped only when the band's worst-case leakage, all rows active, reads
    as count 0, so it would read 0 in every state.  Otherwise (an ideal or a fine ADC, heavy leakage) every entry is
    live and the matrix is the band's planes side by side.  ADC counts equal
    those of :func:`vmv` on the same stack.  The currents may differ from
    it in the last bit, because the matvec sums a column at another
    position; that moves a count only at an exact rounding boundary.
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
        # flat entry index plane * n_cols + column.
        rows = np.concatenate([p.rows for p in stack.planes])
        by_row = np.argsort(rows, kind="stable")
        rows = rows[by_row]
        keys = np.concatenate([k * stack.n_cols + p.cols
                               for k, p in enumerate(stack.planes)])[by_row]
        on_currents = np.concatenate([p.currents for p in stack.planes])[by_row]
        self._bands = []
        for r0, r1 in stack.bands():
            full_scale = adc.full_scale_for(r1 - r0, stack.i_on_mean)
            leak = np.array([(r1 - r0) * stack.off_current])  # all rows active
            leak_reads = adc.read(leak, full_scale, stack.i_on_mean)[1][0] != 0
            a, b = np.searchsorted(rows, (r0, r1))
            is_live = np.full(len(stack.planes) * stack.n_cols, leak_reads)
            is_live[keys[a:b]] = True
            entries = np.flatnonzero(is_live)
            currents = np.full((r1 - r0, len(entries)), stack.off_current)
            currents[rows[a:b] - r0, np.searchsorted(entries, keys[a:b])] = on_currents[a:b]
            self._bands.append(_Band(r0, r1, currents, full_scale, entries))
        # For delta evaluation: the bands each variable drives as a row
        # variable, and its column index (-1 when it is not a column variable).
        self._var_bands: list[list[int]] = [[] for _ in range(self.n)]
        for r, var in enumerate(self._phys_rows.tolist()):
            band = r // stack.tile_rows
            if band not in self._var_bands[var]:
                self._var_bands[var].append(band)
        self._col_of = np.full(self.n, -1, dtype=np.intp)
        self._col_of[self._cols] = np.arange(len(self._cols))

    @property
    def energy_lsb(self) -> float:
        """Energy value of one ADC code step on a unit-weight plane (0 if ideal)."""
        if self.adc.bits is None:
            return 0.0
        full_scale = self.adc.full_scale_for(self.stack.band_rows, self.stack.i_on_mean)
        return self.stack.scale * full_scale / (((1 << self.adc.bits) - 1) * self.stack.i_on_mean)

    def _bits(self, x) -> np.ndarray:
        bits = np.asarray(x, dtype=np.int8)
        if bits.shape != (self.n,):
            raise DimensionError(f"expected length {self.n}, got shape {bits.shape}")
        return bits

    def _live_counts(self, band: _Band, act_rows) -> np.ndarray:
        """ADC counts of the live entries of one band, every column active.

        ``act_rows`` holds the row activations (0.0 or 1.0) of that band.
        """
        return self.adc.read(act_rows @ band.currents, band.full_scale, self.stack.i_on_mean)[1]

    def _read(self, bits) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """Read every band for state ``bits``, every column active.

        Returns the live counts of each band, their (planes, columns) sums
        over the bands (one scatter-add per band; dead entries read 0), the
        active columns and the per-plane totals over those columns.  Counts
        are summed per column over the bands first, which is exact for a
        quantizing ADC and fixes the rounding order of an ideal one.
        """
        act_rows = bits[self._phys_rows].astype(np.float64)
        col_counts = np.zeros((len(self._weights), self.stack.n_cols))
        flat = col_counts.reshape(-1)
        counts = []
        for band in self._bands:
            live = self._live_counts(band, act_rows[band.r0:band.r1])
            flat[band.entries] += live  # a band lists each entry once
            counts.append(live)
        active = np.flatnonzero(bits[self._cols] == 1)
        return counts, col_counts, active, col_counts.take(active, axis=1).sum(axis=1)

    def _energy(self, bits, total) -> float:
        bilinear = self.stack.scale * float(self._weights @ total)
        return float(bilinear + bits.astype(np.float64) @ self._linear + self._constant)

    def __call__(self, x) -> float:
        bits = self._bits(x)
        return self._energy(bits, self._read(bits)[3])

    def evaluator(self):
        """Per-run evaluator for the solver (see :class:`qubocim.qubo.FullEvaluator`).

        A quantizing ADC gets a :class:`HwEvaluator` at any band count.  Delta
        evaluation needs integer counts, so an ideal ADC (``bits=None``),
        whose counts are floats, evaluates in full.
        """
        return FullEvaluator(self) if self.adc.bits is None else HwEvaluator(self)


class HwEvaluator:
    """Delta evaluation of a :class:`HwOracle` with a quantizing ADC.

    The integer counts of every band's live entries are cached, all columns
    included, together with their per-(plane, column) sums over the bands,
    as :meth:`HwOracle._read` returns them.  A peek re-reads only the bands
    that hold a flipped row variable, with the kernel of ``__call__``, and
    adds or removes the cached column sums of flipped column variables; the
    linear term is recomputed in full.  Counts are integers, so every sum is
    exact whatever its order and each energy equals ``oracle(y)`` bit for
    bit.
    """

    def __init__(self, oracle: HwOracle):
        self._oracle = oracle

    def reset(self, x, energy: float | None = None) -> float:
        o = self._oracle
        self._x = o._bits(x).copy()
        self._counts, self._col_counts, self._active, self._total = o._read(self._x)
        self._energy = o._energy(self._x, self._total) if energy is None else energy
        return self._energy

    def peek(self, flips) -> float:
        o = self._oracle
        y = self._x.copy()
        toggle(y, flips)
        reread = []
        for b in sorted({band for i in flips for band in o._var_bands[i]}):
            band = o._bands[b]
            act_rows = y[o._phys_rows[band.r0:band.r1]].astype(np.float64)
            reread.append((b, o._live_counts(band, act_rows)))
        col_counts, total = self._col_counts, self._total
        if reread:
            change = np.zeros_like(col_counts)
            for b, counts in reread:
                change.reshape(-1)[o._bands[b].entries] += counts - self._counts[b]
            col_counts = col_counts + change
            total = total + change.take(self._active, axis=1).sum(axis=1)
        for i in flips:
            c = o._col_of[i]
            if c >= 0:
                total = total + col_counts[:, c] if y[i] else total - col_counts[:, c]
        energy = o._energy(y, total)
        self._pending = (y, reread, col_counts, total, energy)
        return energy

    def commit(self):
        y, reread, self._col_counts, self._total, self._energy = self._pending
        for b, counts in reread:
            self._counts[b] = counts
        self._x = y
        self._active = np.flatnonzero(y[self._oracle._cols] == 1)


def make_hw_oracle(compressed: CompressedQubo, *, bits: int = 5, ternary: bool = False,
                   dev: DeviceParams = DeviceParams(), adc: AdcParams | None = None,
                   seed: int = 0, tile_rows: int = 32, tile_cols: int = 32) -> HwOracle:
    """Quantize (or ternary-encode), program, and wrap a compressed matrix.

    The default ADC resolution is ``ceil(log2(rows)) + 1`` bits per tile,
    the minimum that makes noiseless readout exact.
    """
    if ternary:
        qp = np.asarray(compressed.qprime)
        if qp.size and (np.any(qp != np.rint(qp)) or qp.min() < 0 or qp.max() > 2):
            raise EncodingError("matrix is not ternary over {0, 1, 2}")
        stack = program_ternary(np.rint(qp).astype(np.int64), dev, seed, tile_rows, tile_cols)
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
