"""Tests for the behavioral crossbar simulator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qubocim.compress import CompressedQubo, compress
from qubocim.crossbar import (MAX_BITS, AdcParams, DeviceParams, dump_stack, make_hw_oracle,
                              program, program_ternary, quantize, vmv)
from qubocim.errors import (ConfigError, DimensionError, EncodingError,
                            UnsupportedInstanceError)
from qubocim.qubo import QuboProblem


IDEAL = DeviceParams(i_on_rel_sigma=0.0, i_off_ratio=0.0)


def rect(matrix, n=None):
    """Wrap a dense matrix as a CompressedQubo over disjoint row/col vars."""
    matrix = np.asarray(matrix, dtype=np.float64)
    p, q = matrix.shape
    n = n or (p + q)
    return CompressedQubo(tuple(range(p)), tuple(range(p, p + q)), matrix,
                          np.zeros(n), 0.0, n)


def exhaustive_bits(n):
    return np.array([[(k >> (n - 1 - b)) & 1 for b in range(n)] for k in range(1 << n)],
                    dtype=np.int8)


class TestQuantize:
    def test_worked_magnitudes(self):
        qq = quantize(rect([[6.0, 6.0, 16.0]]), 5)
        assert qq.scale == pytest.approx(16.0 / 31.0)
        assert np.array_equal(qq.plus, [[12, 12, 31]])
        assert not qq.minus.any()
        assert (np.abs(qq.error) <= qq.scale / 2 + 1e-15).all()

    def test_single_bit_equal_matrix_exact(self):
        qq = quantize(rect([[3.0, 3.0], [3.0, 3.0]]), 1)
        assert qq.scale == 3.0
        assert (qq.plus == 1).all()
        assert not qq.error.any()

    def test_signs_split(self):
        qq = quantize(rect([[4.0, -2.0]]), 2)
        assert qq.plus[0, 0] > 0 and qq.plus[0, 1] == 0
        assert qq.minus[0, 1] > 0 and qq.minus[0, 0] == 0

    def test_all_zero_matrix_degenerate(self):
        qq = quantize(rect(np.zeros((2, 2))), 4)
        assert qq.scale == 1.0 and not qq.plus.any() and not qq.minus.any()

    def test_error_bound_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rng.normal(size=(5, 4)) * 10
            for bits in (2, 4, 6):
                qq = quantize(rect(m), bits)
                assert (np.abs(m - qq.dequantized) <= qq.scale / 2 + 1e-12).all()

    def test_bad_bits(self):
        with pytest.raises(ConfigError):
            quantize(rect([[1.0]]), 0)

    @pytest.mark.parametrize("bits", [MAX_BITS + 1, 63, 64, 1100])
    def test_bits_above_the_exact_width(self, bits):
        with pytest.raises(ConfigError):
            quantize(rect([[1.0]]), bits)
        with pytest.raises(ConfigError):
            AdcParams(bits=bits)

    def test_widest_codes_are_exact(self):
        # Before the bound, codes overflowed int64 at 63 bits and -64 read 0.
        qq = quantize(rect([[-64.0, 36.0, 1.0]]), MAX_BITS)
        assert qq.codes[0] == -(2 ** MAX_BITS - 1) and qq.codes[1:].min() > 0
        assert np.allclose(qq.scale * qq.codes, qq.values, rtol=1e-15, atol=0)
        rng = np.random.default_rng(0)
        for _ in range(100):  # at 53 bits about 4 in 10 of these miss full scale by one
            qq = quantize(rect(rng.normal(size=(1, 3)) * 10 ** rng.uniform(-3, 3)), MAX_BITS)
            assert np.abs(qq.codes).max() == 2 ** MAX_BITS - 1
        assert program(qq, IDEAL, seed=0).planes[0].weight == 1.0
        with pytest.raises(ConfigError):
            program(replace(qq, bits=MAX_BITS + 1), IDEAL, seed=0)
        levels = np.array([float(2 ** MAX_BITS - 1)])
        assert AdcParams(bits=MAX_BITS).read(levels, levels[0])[1].tolist() == levels.tolist()

    def test_ternary_matrix_two_bit_scale(self):
        # a {0,1,2} matrix quantized at 2 bits gets scale 2/3 and rounding
        # error; the two-cell ternary path represents it exactly instead
        qq = quantize(rect([[1.0, 2.0, 0.0]]), 2)
        assert qq.scale == pytest.approx(2 / 3)
        assert np.abs(qq.error).max() > 0
        stack = program_ternary(np.array([[1, 2, 0]]), IDEAL, seed=0)
        value, _ = vmv(stack, [1], [1, 1, 1], AdcParams(bits=6))
        assert value == 3.0  # exact


class TestProgram:
    @pytest.mark.parametrize("make", [
        lambda: DeviceParams(i_on_rel_sigma=float("nan")),
        lambda: DeviceParams(i_on_rel_sigma=float("inf")),
        lambda: DeviceParams(die_offset_sigma=float("nan")),
        lambda: AdcParams(full_scale=float("inf")),
        lambda: AdcParams(full_scale=float("nan")),
    ], ids=["sigma-nan", "sigma-inf", "die-sigma-nan", "full-scale-inf", "full-scale-nan"])
    def test_non_finite_params_rejected(self, make):
        with pytest.raises(ConfigError, match="finite"):
            make()

    @pytest.mark.parametrize("sigma, die_sigma", [(1e308, 0.0), (0.0, 1e308), (1e308, 1e308)],
                             ids=["sigma", "die-sigma", "both"])
    def test_overflowing_currents_rejected(self, sigma, die_sigma):
        # 1,600 one-cell tiles: at 1e308 some spreads and die offsets are
        # infinite, and with both, some cells add infinities of either sign.
        qq = quantize(rect(np.ones((40, 40))), 1)
        with pytest.raises(UnsupportedInstanceError, match="overflow"):
            program(qq, DeviceParams(i_on_rel_sigma=sigma, die_offset_sigma=die_sigma), seed=0,
                    tile_rows=1, tile_cols=1)
        wide = DeviceParams(i_on_rel_sigma=min(sigma, 1e200),
                            die_offset_sigma=min(die_sigma, 1e200))
        stack = program(qq, wide, seed=0, tile_rows=1, tile_cols=1)
        assert np.isfinite(stack.planes[0].currents).all()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            program(quantize(rect(np.ones((2, 2))), 1), seed=-1)

    def test_bit_planes_follow_binary_expansion(self):
        qq = quantize(rect([[5.0, 7.0]]), 3)  # scale 1, so codes are (5, 7)
        assert np.array_equal(qq.plus, [[5, 7]])
        stack = program(qq, IDEAL, seed=0)
        plus_planes = [p for p in stack.planes if p.sign == 1]
        assert [int(p.states[0, 0]) for p in plus_planes] == [1, 0, 1]  # 5 = 0b101
        assert [int(p.states[0, 1]) for p in plus_planes] == [1, 1, 1]  # 7 = 0b111

    def test_zero_sigma_exact_currents(self):
        stack = program(quantize(rect(np.ones((3, 3))), 1), IDEAL, seed=1)
        assert (stack.planes[0].on_current == 1.0).all()
        assert stack.off_current == 0.0

    def test_sampled_variation_statistics(self):
        dev = DeviceParams(i_on_rel_sigma=0.05)
        stack = program(quantize(rect(np.ones((128, 128))), 1), dev, seed=2,
                        tile_rows=128, tile_cols=128)
        samples = stack.planes[0].on_current.ravel()
        rel_std = samples.std() / samples.mean()
        assert 0.04 <= rel_std <= 0.06
        assert (np.abs(samples - 1.0) <= 4 * 0.05 + 1e-12).all()  # 4-sigma truncation

    def test_off_current_value(self):
        dev = DeviceParams(i_off_ratio=1e-3)
        stack = program(quantize(rect(np.ones((2, 2))), 1), dev, seed=0)
        assert stack.off_current == pytest.approx(1e-3)

    def test_seeded_determinism(self):
        dev = DeviceParams(i_on_rel_sigma=0.05)
        qq = quantize(rect(np.ones((4, 4))), 2)
        a = program(qq, dev, seed=9)
        b = program(qq, dev, seed=9)
        for pa, pb in zip(a.planes, b.planes):
            assert np.array_equal(pa.on_current, pb.on_current)


class TestTernary:
    def test_cell_pair_mapping(self):
        stack = program_ternary(np.array([[0], [1], [2]]), IDEAL, seed=0)
        states = stack.planes[0].states
        assert list(states[:, 0].astype(int)) == [0, 0, 1, 0, 1, 1]

    def test_on_cell_count_equals_matrix_sum(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 3, size=(6, 5))
        stack = program_ternary(values, IDEAL, seed=0)
        assert int(stack.planes[0].states.sum()) == int(values.sum())

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            program_ternary(np.array([[3]]), IDEAL, seed=0)

    def test_readout_needs_no_shift_and_add(self):
        stack = program_ternary(np.array([[0, 1], [2, 1]]), IDEAL, seed=0)
        assert len(stack.planes) == 1 and stack.planes[0].weight == 1.0
        value, _ = vmv(stack, [1, 1], [1, 1], AdcParams(bits=6))
        assert value == 4.0  # 0 + 1 + 2 + 1


class TestAdcRead:
    @pytest.mark.parametrize("bits, full_scale", [(1, 2.0), (3, 7.0), (3, 5.5), (5, 23.0)])
    def test_equals_the_clip_expression(self, bits, full_scale):
        """Counts and codes equal, as values, those of ``np.clip`` on the rounded
        codes, for currents below 0, above full scale and at exact half steps."""
        levels = (1 << bits) - 1
        step = full_scale / levels
        halves = [(k + 0.5) * step for k in range(-2, levels + 2)]
        halves = [c for c in halves if c / full_scale * levels % 1 == 0.5]
        assert halves  # some currents sit exactly on a rounding boundary
        currents = np.array(halves + [-1.0, -step / 2, -1e-300, 0.0, step, full_scale,
                                      full_scale + step / 3, 2 * full_scale, 1e6])
        old_codes = np.clip(np.rint(currents / full_scale * levels), 0, levels)
        old_counts = np.rint(old_codes * full_scale / levels)
        before = currents.copy()
        adc = AdcParams(bits=bits)
        codes, counts = adc.read(currents, full_scale)
        assert np.array_equal(codes, old_codes) and np.array_equal(counts, old_counts)
        assert not np.signbit(counts).any()  # np.clip keeps -0.0, the read does not
        batch = adc.read(np.stack([currents, currents[::-1]]), full_scale)[1]
        assert np.array_equal(batch, np.stack([old_counts, old_counts[::-1]]))
        assert np.array_equal(currents, before)  # the input is left as it was


class TestVmv:
    def test_all_on_square(self):
        qq = quantize(rect(np.full((4, 4), 2.5)), 1)
        stack = program(qq, IDEAL, seed=0)
        value, _ = vmv(stack, [1, 1, 1, 1], [1, 1, 1, 1], AdcParams(bits=16))
        assert value == pytest.approx(16 * qq.scale)

    def test_noiseless_fidelity_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            p, q = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            matrix = rng.integers(-7, 8, size=(p, q)).astype(float)
            c = rect(matrix)
            qq = quantize(c, 4)
            stack = program(qq, IDEAL, seed=0)
            bits = int(np.ceil(np.log2(p))) + 1
            adc = AdcParams(bits=bits)
            for xh in exhaustive_bits(p):
                for xv in exhaustive_bits(q):
                    expected = float(xh @ qq.dequantized @ xv)
                    value, _ = vmv(stack, xh, xv, adc)
                    assert value == pytest.approx(expected, abs=1e-9)

    def test_column_current_linearity_under_variation(self):
        dev = DeviceParams(i_on_rel_sigma=0.05)
        stack = program(quantize(rect(np.ones((32, 64))), 1), dev, seed=4,
                        tile_rows=32, tile_cols=64)
        adc = AdcParams(bits=None)
        means = []
        for k in range(33):
            xh = np.zeros(32, dtype=np.int8)
            xh[:k] = 1
            _, diag = vmv(stack, xh, np.ones(64, dtype=np.int8), adc)
            means.append(float(np.mean(diag["currents"][0][0])) if k else 0.0)
        ks = np.arange(33)
        slope, intercept = np.polyfit(ks, means, 1)
        fitted = slope * ks + intercept
        ss_res = float(((means - fitted) ** 2).sum())
        ss_tot = float(((means - np.mean(means)) ** 2).sum())
        assert 1 - ss_res / ss_tot >= 0.999

    def test_off_leakage_bound(self):
        dev = DeviceParams(i_on_rel_sigma=0.0, i_off_ratio=1e-3)
        stack = program(quantize(rect(np.zeros((8, 4))), 1, ), dev, seed=0)
        _, diag = vmv(stack, np.ones(8, dtype=np.int8), np.ones(4, dtype=np.int8),
                      AdcParams(bits=None))
        assert (diag["currents"][0][0] <= 8 * 1e-3 + 1e-12).all()

    def test_tiling_transparency(self):
        rng = np.random.default_rng(6)
        matrix = rng.integers(0, 4, size=(40, 35)).astype(float)
        qq = quantize(rect(matrix), 3)
        tiled = program(qq, IDEAL, seed=0, tile_rows=32, tile_cols=32)
        whole = program(qq, IDEAL, seed=0, tile_rows=64, tile_cols=64)
        adc = AdcParams(bits=12)
        for _ in range(20):
            xh = rng.integers(0, 2, size=40, dtype=np.int8)
            xv = rng.integers(0, 2, size=35, dtype=np.int8)
            va, _ = vmv(tiled, xh, xv, adc)
            vb, _ = vmv(whole, xh, xv, adc)
            assert va == pytest.approx(vb, abs=1e-9)

    def test_dimension_errors(self):
        stack = program(quantize(rect(np.ones((2, 3))), 1), IDEAL, seed=0)
        with pytest.raises(DimensionError):
            vmv(stack, [1], [1, 1, 1], AdcParams())
        with pytest.raises(DimensionError):
            vmv(stack, [1, 0], [1, 1], AdcParams())


class TestHwOracle:
    def test_matches_quantized_exact_exhaustively(self):
        rng = np.random.default_rng(17)
        q = QuboProblem(8, {(i, j): float(rng.integers(-6, 7)) or 2.0
                            for i in range(8) for j in range(i + 1, 8)
                            if rng.random() < 0.5},
                        rng.integers(-3, 4, size=8).astype(float), 1.5)
        c, _ = compress(q)
        from qubocim.crossbar import quantize as qz
        qq = qz(c, 6)
        oracle = make_hw_oracle(c, bits=6, dev=IDEAL, adc=AdcParams(bits=14), seed=0)
        rows = list(c.row_vars)
        cols = list(c.col_vars)
        for x in exhaustive_bits(8):
            xf = x.astype(np.float64)
            expected = float(c.constant + xf @ c.linear
                             + xf[rows] @ qq.dequantized @ xf[cols])
            assert oracle(x) == pytest.approx(expected, abs=1e-9)

    def test_same_seed_identical_outputs(self):
        q = QuboProblem(5, {(0, 1): 2.0, (1, 3): -4.0, (2, 4): 1.0})
        c, _ = compress(q)
        dev = DeviceParams(i_on_rel_sigma=0.05)
        a = make_hw_oracle(c, bits=4, dev=dev, seed=5)
        b = make_hw_oracle(c, bits=4, dev=dev, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.integers(0, 2, size=5, dtype=np.int8)
            assert a(x) == b(x)

    def test_ternary_requires_ternary_matrix(self):
        q = QuboProblem(4, {(0, 1): 5.0, (2, 3): 1.0})
        c, _ = compress(q)
        with pytest.raises(EncodingError):
            make_hw_oracle(c, ternary=True, seed=0)

    @pytest.mark.parametrize("ternary", [False, True])
    @pytest.mark.parametrize("tiles", [{"tile_rows": -4}, {"tile_rows": 0}, {"tile_cols": 0},
                                       {"tile_cols": -1}])
    def test_tile_sizes_below_one_rejected(self, ternary, tiles):
        # Unchecked, tile_rows=-4 builds an oracle that reads 0.0 for every
        # state, tile_rows=0 fails in range() and tile_cols=0 divides by zero.
        weights = ({(0, 1): 1, (1, 2): 2, (2, 3): 1} if ternary
                   else {(0, 1): 1, (1, 2): -2, (2, 3): 3})
        c, _ = compress(QuboProblem(4, weights))
        with pytest.raises(ConfigError, match="tile sizes"):
            make_hw_oracle(c, bits=3, ternary=ternary, dev=DeviceParams(die_offset_sigma=0.1),
                           **tiles)

    def test_energy_lsb_and_eps_coupling(self):
        q = QuboProblem(4, {(0, 1): 2.0, (2, 3): 1.0})
        c, _ = compress(q)
        oracle = make_hw_oracle(c, bits=3, dev=IDEAL, adc=AdcParams(bits=6), seed=0)
        rows = len(oracle.stack.row_map)
        expected = oracle.stack.scale * rows / 63
        assert oracle.energy_lsb == pytest.approx(expected)
        ideal = make_hw_oracle(c, bits=3, dev=IDEAL, adc=AdcParams(bits=None), seed=0)
        assert ideal.energy_lsb == 0.0

    def test_adc_refinement_converges(self):
        rng = np.random.default_rng(23)
        q = QuboProblem(10, {(i, j): float(rng.integers(-9, 10)) or 3.0
                             for i in range(10) for j in range(i + 1, 10)
                             if rng.random() < 0.6},
                        rng.integers(-3, 4, size=10).astype(float))
        c, _ = compress(q)
        qq = quantize(c, 5)
        rows = list(c.row_vars)
        cols = list(c.col_vars)
        xs = [rng.integers(0, 2, size=10, dtype=np.int8) for _ in range(60)]
        errors = []
        for bits in (2, 4, 6, 10):
            oracle = make_hw_oracle(c, bits=5, dev=IDEAL, adc=AdcParams(bits=bits), seed=0)
            errs = []
            for x in xs:
                xf = x.astype(np.float64)
                expected = float(c.constant + xf @ c.linear
                                 + xf[rows] @ qq.dequantized @ xf[cols])
                errs.append(abs(oracle(x) - expected))
            errors.append(float(np.mean(errs)))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= oracle.energy_lsb + 1e-12


class TestDump:
    def test_dump_layout(self):
        stack = program_ternary(np.array([[1, 2]]), DeviceParams(i_on_rel_sigma=0.05), seed=0)
        text = dump_stack(stack)
        lines = text.splitlines()
        assert lines[0] == "tiles 32 32"
        assert any(l.startswith("plane 0 sign +1") for l in lines)
        assert sum(l.startswith("s ") for l in lines) == 2  # two physical rows
        assert all(len(l.split()) == 3 for l in lines if l.startswith("i "))


def reference_on_currents(states, dev, rng, tile_rows, tile_cols):
    """ON currents of a dense boolean plane, written from the stream's spec: one
    die offset per tile position (row-major tiles), then one standard normal per
    ON cell (row-major cells), cells with |z| > 4 redrawn in order until none is
    left.  OFF cells hold NaN."""
    n_rows, n_cols = states.shape
    tiles = [(r0, c0) for r0 in range(0, n_rows, tile_rows) for c0 in range(0, n_cols, tile_cols)]
    offset = {tile: rng.normal(0.0, dev.die_offset_sigma) for tile in tiles} \
        if dev.die_offset_sigma > 0 else dict.fromkeys(tiles, 0.0)
    cells = list(zip(*np.nonzero(states)))
    z = [0.0] * len(cells)
    if dev.i_on_rel_sigma > 0:
        z = [float(rng.standard_normal()) for _ in cells]
        while any(abs(v) > 4.0 for v in z):
            z = [float(rng.standard_normal()) if abs(v) > 4.0 else v for v in z]
    currents = np.full(states.shape, np.nan)
    for (r, c), v in zip(cells, z):
        tile = (r - r % tile_rows, c - c % tile_cols)
        currents[r, c] = 1.0 + offset[tile] + dev.i_on_rel_sigma * v
    return currents


def on_grid(stack, planes, dev):
    """The reference ON currents ``planes`` (one dense array per plane, NaN at
    OFF cells) rounded by the grid rule: to multiples of ``2**-g``,
    ``g = 50 - e``, with ``2**e`` the smallest power of two above the largest
    per-plane sum of |cell current|.  Checks the stack's grid and OFF current
    against the rule."""
    peak = max(np.nansum(np.abs(on)) + dev.i_off_ratio * np.isnan(on).sum() for on in planes)
    grid = 50 - math.frexp(peak)[1]
    step = 2.0 ** grid
    assert stack.grid == grid and stack.off_current == np.rint(dev.i_off_ratio * step) / step
    return [np.rint(on * step) / step for on in planes]


def dense_tile_counts(stack):
    """(occupied, total) tiles counted over the dense union of the plane states."""
    states = np.zeros(stack.planes[0].states.shape, dtype=bool)
    for plane in stack.planes:
        states |= plane.states
    rows, cols = states.shape
    bands, col_tiles = -(-rows // stack.tile_rows), -(-cols // stack.tile_cols)
    padded = np.zeros((bands * stack.tile_rows, col_tiles * stack.tile_cols), dtype=bool)
    padded[:rows, :cols] = states
    tiles = padded.reshape(bands, stack.tile_rows, col_tiles, stack.tile_cols)
    return int(tiles.any(axis=(1, 3)).sum()), bands * col_tiles


def sparse_matrix(p, q, density, seed, low=-7, high=8):
    rng = np.random.default_rng(seed)
    values = rng.integers(low, high, size=(p, q))
    return np.where(rng.random((p, q)) < density, values, 0)


DIE = DeviceParams(i_on_rel_sigma=0.1, die_offset_sigma=0.05, i_off_ratio=2e-3)


class TestOnCellStack:
    def test_binary_planes_pin_the_on_cell_random_stream(self):
        matrix = sparse_matrix(13, 17, 0.4, 21)
        matrix[matrix < 0] = np.where(matrix[matrix < 0] % 2, -5, -4)   # minus bit 1 unused
        qq = quantize(rect(matrix), 3)
        stack = program(qq, DIE, seed=5, tile_rows=4, tile_cols=5)
        assert [plane.rows.size > 0 for plane in stack.planes] == [True] * 4 + [False, True]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        expected = []
        for sign, codes in ((1, qq.plus), (-1, qq.minus)):
            for m in range(3):
                states = (codes >> m) & 1 == 1
                expected.append((sign, states, reference_on_currents(states, DIE, rng, 4, 5)))
        assert len(stack.planes) == len(expected)
        rounded = on_grid(stack, [on for _, _, on in expected], DIE)
        for plane, (sign, states, _), on in zip(stack.planes, expected, rounded):
            assert plane.sign == sign
            assert np.array_equal(plane.states, states)
            assert np.array_equal(plane.on_current, np.where(states, on, 0.0))
            assert np.array_equal(plane.cell_current, np.where(states, on, stack.off_current))

    def test_ternary_plane_pins_the_on_cell_random_stream(self):
        values = sparse_matrix(9, 11, 0.6, 8, low=0, high=3)
        stack = program_ternary(values, DIE, seed=4, tile_rows=4, tile_cols=5)
        states = np.zeros((18, 11), dtype=bool)
        states[0::2] = values >= 1
        states[1::2] = values == 2
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4)))
        (on,) = on_grid(stack, [reference_on_currents(states, DIE, rng, 4, 5)], DIE)
        (plane,) = stack.planes
        assert np.array_equal(plane.states, states)
        assert np.array_equal(plane.on_current, np.where(states, on, 0.0))
        assert np.array_equal(plane.cell_current, np.where(states, on, stack.off_current))

    def test_truncation_redraws_follow_cell_order(self):
        states = np.ones((250, 400), dtype=bool)
        stack = program(quantize(rect(states), 1), DIE, seed=2)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2)))
        rng.normal(size=8 * 13)   # the die offsets of the 8 x 13 tiles
        # the first draw holds at least two cells to redraw, so their order matters
        assert np.count_nonzero(np.abs(rng.standard_normal(states.size)) > 4.0) >= 2
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2)))
        on = reference_on_currents(states, DIE, rng, 32, 32)
        no_minus = np.full(states.shape, np.nan)   # the minus plane holds OFF cells only
        assert np.array_equal(stack.planes[0].on_current, on_grid(stack, [on, no_minus], DIE)[0])

    def test_die_offset_alone_is_one_current_per_tile(self):
        dev = DeviceParams(i_on_rel_sigma=0.0, die_offset_sigma=0.05)
        stack = program(quantize(rect(np.ones((9, 11))), 1), dev, seed=3, tile_rows=4, tile_cols=5)
        plane = stack.planes[0]   # the minus plane is empty
        tiles = plane.rows // 4 * 3 + plane.cols // 5
        per_tile = {t: set(plane.currents[tiles == t]) for t in range(9)}
        assert all(len(currents) == 1 for currents in per_tile.values())
        assert len({c for currents in per_tile.values() for c in currents}) == 9

    def test_memory_is_per_on_cell(self):
        qq = quantize(rect(sparse_matrix(200, 300, 0.002, 3)), 3)
        stack = program(qq, DIE, seed=1)
        for plane in stack.planes:
            arrays = [v for v in vars(plane).values() if isinstance(v, np.ndarray)]
            on_cells = len(plane.rows)
            assert on_cells < 200 * 300 // 100
            assert all(a.ndim == 1 and a.size == on_cells for a in arrays)
            assert sum(a.nbytes for a in arrays) <= 32 * on_cells
        assert vars(stack)["row_map"].size == 200

    @pytest.mark.parametrize("matrix, tile_rows, tile_cols", [
        (sparse_matrix(13, 17, 0.05, 2), 4, 5),
        (sparse_matrix(40, 70, 0.01, 6), 32, 32),
        (np.zeros((5, 9)), 2, 4),
    ], ids=["sparse-small-tiles", "sparse-default-tiles", "zero"])
    def test_tile_counts_match_a_dense_count(self, matrix, tile_rows, tile_cols):
        stack = program(quantize(rect(matrix), 3), DIE, seed=0,
                        tile_rows=tile_rows, tile_cols=tile_cols)
        occupied, total = stack.tile_counts()
        assert (occupied, total) == dense_tile_counts(stack)
        assert occupied < total and (occupied > 0) == bool(matrix.any())
        ternary = program_ternary(np.abs(matrix) % 3, DIE, seed=0,
                                  tile_rows=tile_rows, tile_cols=tile_cols)
        assert ternary.tile_counts() == dense_tile_counts(ternary)
