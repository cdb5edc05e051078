"""Behavioral simulator of a compute-in-memory crossbar evaluating x_h^T Q' x_v.

The model is deliberately current-statistical, not device-physical: a
programmed cell contributes a per-cell ON current sampled once at programming
time (truncated normal around the nominal value, with a per-tile offset for
die-to-die spread) or a small deterministic OFF leakage.  Signed coefficients
are split into two nonnegative planes that are subtracted digitally;
magnitudes are either bit-sliced over M single-bit planes recombined by
shift-and-add, or, for matrices over {0, 1, 2}, encoded on two unit-weight
cells per element so no shift-and-add is needed.

Readout: activated rows of each 32 x 32 tile drive their columns; each active
column's analog current goes through a shared uniform ADC and the resulting
code is scaled back to the nearest integer cell count, the quantity the
digital pipeline accumulates.  With zero variation, zero leakage, and enough
ADC resolution (``bits >= ceil(log2(rows)) + 1``) the pipeline is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compress import CompressedQubo, split_signs
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
        if self.full_scale is not None and self.full_scale <= 0:
            raise ConfigError("full_scale must be positive")

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


@dataclass(frozen=True)
class QuantizedQubo:
    """Fixed-point image of a compressed matrix: ``Q' ~ scale * (plus - minus)``."""

    scale: float
    bits: int
    plus: np.ndarray
    minus: np.ndarray
    error: np.ndarray

    @property
    def dequantized(self) -> np.ndarray:
        return self.scale * (self.plus.astype(np.float64) - self.minus.astype(np.float64))


def quantize(c: CompressedQubo, bits: int) -> QuantizedQubo:
    """Round the sign-split magnitudes to ``bits``-bit integers.

    ``scale = max|Q'| / (2**bits - 1)``; magnitudes round half away from
    zero, so every element is within ``scale/2`` of its fixed-point image.
    An all-zero matrix gets scale 1 with all codes zero.
    """
    if bits < 1:
        raise ConfigError("bits must be >= 1")
    plus, minus = split_signs(c)
    peak = float(np.max(np.abs(c.qprime))) if c.qprime.size else 0.0
    scale = peak / ((1 << bits) - 1) if peak > 0 else 1.0
    plus_codes = np.floor(plus / scale + 0.5).astype(np.int64)
    minus_codes = np.floor(minus / scale + 0.5).astype(np.int64)
    np.clip(plus_codes, 0, (1 << bits) - 1, out=plus_codes)
    np.clip(minus_codes, 0, (1 << bits) - 1, out=minus_codes)
    error = c.qprime - scale * (plus_codes - minus_codes)
    return QuantizedQubo(scale, bits, plus_codes, minus_codes, error)


@dataclass(frozen=True)
class Plane:
    """One physical bit plane: sign, shift-and-add weight, cell states, sampled currents.

    ``cell_current`` is the effective per-cell readout current (ON sample
    where programmed, OFF leakage elsewhere), fixed at programming time.
    """

    sign: int
    weight: float
    states: np.ndarray       # bool, physical rows x columns
    on_current: np.ndarray   # float, same shape
    cell_current: np.ndarray # float, same shape


@dataclass(frozen=True)
class CrossbarStack:
    """Programmed array image for one compressed matrix.

    ``row_map`` sends each physical row to its logical row (ternary encoding
    uses two physical rows per logical row).  Tiles partition each plane into
    ``tile_rows x tile_cols`` blocks, each with its own column ADC; splitting
    across tiles is transparent in the noiseless model.
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


def _sample_on_currents(shape: tuple[int, int], dev: DeviceParams,
                        rng: np.random.Generator, tile_rows: int, tile_cols: int) -> np.ndarray:
    """Per-cell ON currents: per-tile die offset plus truncated (4 sigma) cell spread."""
    rows, cols = shape
    currents = np.empty(shape, dtype=np.float64)
    for r0 in range(0, max(rows, 1), tile_rows):
        for c0 in range(0, max(cols, 1), tile_cols):
            r1, c1 = min(r0 + tile_rows, rows), min(c0 + tile_cols, cols)
            if r1 <= r0 or c1 <= c0:
                continue
            die_offset = rng.normal(0.0, dev.die_offset_sigma) if dev.die_offset_sigma > 0 else 0.0
            mean = dev.i_on_mean * (1.0 + die_offset)
            sigma = dev.i_on_mean * dev.i_on_rel_sigma
            block = rng.normal(mean, sigma, size=(r1 - r0, c1 - c0)) if sigma > 0 \
                else np.full((r1 - r0, c1 - c0), mean)
            if sigma > 0:
                bad = np.abs(block - mean) > 4.0 * sigma
                while np.any(bad):
                    block[bad] = rng.normal(mean, sigma, size=int(bad.sum()))
                    bad = np.abs(block - mean) > 4.0 * sigma
            currents[r0:r1, c0:c1] = block
    return currents


def program(qq: QuantizedQubo, dev: DeviceParams = DeviceParams(), seed: int = 0,
            tile_rows: int = 32, tile_cols: int = 32) -> CrossbarStack:
    """Program bit-sliced planes: plane m of each sign holds bit m of the codes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    p, q = qq.plus.shape
    off = dev.i_on_mean * dev.i_off_ratio
    planes = []
    for sign, codes in ((1, qq.plus), (-1, qq.minus)):
        for m in range(qq.bits):
            states = ((codes >> m) & 1).astype(bool)
            on = _sample_on_currents((p, q), dev, rng, tile_rows, tile_cols)
            cell = np.where(states, on, off)
            for arr in (on, states, cell):
                arr.flags.writeable = False
            planes.append(Plane(sign, float(1 << m), states, on, cell))
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
    readout needs no shift-and-add.
    """
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise DimensionError("ternary matrix must be 2-D")
    if vals.size and (not np.issubdtype(vals.dtype, np.number)
                      or np.any((vals != 0) & (vals != 1) & (vals != 2))):
        raise EncodingError("ternary encoding requires entries in {0, 1, 2}")
    p, q = vals.shape
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    states = np.zeros((2 * p, q), dtype=bool)
    states[0::2] = vals >= 1
    states[1::2] = vals == 2
    on = _sample_on_currents((2 * p, q), dev, rng, tile_rows, tile_cols)
    cell = np.where(states, on, dev.i_on_mean * dev.i_off_ratio)
    for arr in (on, states, cell):
        arr.flags.writeable = False
    plane = Plane(1, 1.0, states, on, cell)
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
        for r0, r1 in stack.bands():
            act = active_rows[r0:r1]
            if active_cols.size:
                currents = act.astype(np.float64) @ plane.cell_current[r0:r1][:, active_cols]
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


class HwOracle:
    """Energy oracle backed by a programmed crossbar.

    The bilinear part is read from the array; linear and constant terms
    bypass it and are evaluated exactly, mirroring how diagonal terms are
    kept off-chip.  Device samples are drawn once at construction, so the
    oracle is deterministic for a given seed and safe to query concurrently.

    Plane cell currents are stacked into one matrix per tile band at
    construction so an evaluation is a single matvec per band; outputs are
    identical to :func:`vmv` on the same stack.  :meth:`evaluator` gives the
    solver delta evaluation that reproduces ``__call__`` bit for bit.
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
        self._bands = []
        for r0, r1 in stack.bands():
            stacked = np.concatenate([p.cell_current[r0:r1] for p in stack.planes], axis=1)
            self._bands.append((r0, r1, stacked, adc.full_scale_for(r1 - r0, stack.i_on_mean)))
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

    def _currents(self, band, act_rows) -> np.ndarray:
        """(planes, columns) currents of one band, every column active.

        ``act_rows`` holds the row activations (0.0 or 1.0) of that band.
        """
        return (act_rows @ band[2]).reshape(len(self._weights), self.stack.n_cols)

    def _energy(self, bits, total) -> float:
        bilinear = self.stack.scale * float(self._weights @ total)
        return float(bilinear + bits.astype(np.float64) @ self._linear + self._constant)

    def __call__(self, x) -> float:
        bits = self._bits(x)
        act_rows = bits[self._phys_rows].astype(np.float64)
        col_mask = bits[self._cols] == 1
        total = np.zeros(len(self._weights))
        for band in self._bands:
            currents = self._currents(band, act_rows[band[0]:band[1]])[:, col_mask]
            total += self.adc.read(currents, band[3], self.stack.i_on_mean)[1].sum(axis=1)
        return self._energy(bits, total)

    def evaluator(self):
        """Per-run evaluator for the solver (see :class:`qubocim.qubo.FullEvaluator`).

        Delta evaluation needs integer counts, so an ideal ADC
        (``bits=None``) evaluates in full; so does a single-band array, where
        every row flip re-reads the whole array anyway.
        """
        if self.adc.bits is None or len(self._bands) == 1:
            return FullEvaluator(self)
        return HwEvaluator(self)


class HwEvaluator:
    """Delta evaluation of a multi-band :class:`HwOracle` with a quantizing ADC.

    The integer cell counts of every band, plane and column are cached, all
    columns included.  A peek re-reads only the bands that hold a flipped row
    variable, with the matvec and readout of ``__call__``, and adds or
    removes the cached column sums of flipped column variables; the linear
    term is recomputed in full.  Counts are integers, so every sum is exact
    whatever its order and each energy equals ``oracle(y)`` bit for bit.
    """

    def __init__(self, oracle: HwOracle):
        self._oracle = oracle
        self._counts = np.empty((len(oracle._bands), len(oracle._weights), oracle.stack.n_cols))

    def _band_counts(self, band, act_rows) -> np.ndarray:
        o = self._oracle
        return o.adc.read(o._currents(band, act_rows), band[3], o.stack.i_on_mean)[1]

    def reset(self, x, energy: float | None = None) -> float:
        o = self._oracle
        self._x = o._bits(x).copy()
        act_rows = self._x[o._phys_rows].astype(np.float64)
        for b, band in enumerate(o._bands):
            self._counts[b] = self._band_counts(band, act_rows[band[0]:band[1]])
        self._col_counts = self._counts.sum(axis=0)
        self._mask = self._x[o._cols] == 1
        self._total = self._col_counts[:, self._mask].sum(axis=1)
        self._energy = o._energy(self._x, self._total) if energy is None else energy
        return self._energy

    def peek(self, flips) -> float:
        o = self._oracle
        y = self._x.copy()
        toggle(y, flips)
        reread = []
        for b in sorted({band for i in flips for band in o._var_bands[i]}):
            r0, r1 = o._bands[b][:2]
            act_rows = y[o._phys_rows[r0:r1]].astype(np.float64)
            reread.append((b, self._band_counts(o._bands[b], act_rows)))
        col_counts, total = self._col_counts, self._total
        if reread:
            change = sum(counts - self._counts[b] for b, counts in reread)
            col_counts = col_counts + change
            total = total + change[:, self._mask].sum(axis=1)
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
        self._mask = y[self._oracle._cols] == 1


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
