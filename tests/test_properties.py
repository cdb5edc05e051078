"""Property tests over generated inputs.

* No input file or flag value makes the command line raise.  Arbitrary
  bytes, near-valid files of every text format and near-valid flags go
  through ``cli.main(["solve", ...])``; each run must end in a documented
  exit code (0, 2, 3 or 4), and an exception escaping ``main`` fails the
  test.  A near-valid file is a well-formed file of a random instance (at
  most 10**3 variables or vertices), or a config file setting every key for
  a hw run factoring 35, after a few edits: a field replaced by a bad token
  (or, in a config file, by ``none``), a field dropped, a line repeated or
  deleted, or a junk line inserted.  Near-valid flags are the value flags of
  that hw run with one value replaced by a bad token or ``none``.
* Compression keeps every coefficient, and the compressed energy of every
  assignment is the exact energy up to float64 rounding of the two sums.
* Noiseless readout is exact: with no cell spread, no leakage and ADC bits
  >= ceil(log2 rows) + 1, the crossbar oracle's energy is the exact energy
  of the dequantized matrix, for any shape, precision and tiling, on the
  bit-sliced and the ternary encoding.
* Cell currents lie on a dyadic grid: every ON current and the OFF current
  of a stack are multiples of its ``2**-grid``, four plane sums of them stay
  below ``2**53`` grid steps, and a band's batched read for many states
  equals its per-state reads and its row-by-row sums in reverse row order,
  bit for bit, under any spread, die offset, leakage and tiling.
* Incremental band reads equal full reads: along a walk of peeks of one to
  three flips, commits and resets on a generated array without move tables
  (so no dense band currents), with a quantizing or the ideal ADC,
  negative ON currents, leakage up to 0.99 and ternary pairs split across
  bands, every peek equals ``oracle(y)``, every full read's currents equal
  the dense band product, and after each commit the evaluator's cached
  currents, counts and column sums equal a fresh read.
* The term arrays of a problem are the terms a dict would merge, exactly:
  mirrors and repeats summed in input order, exact cancellations dropped,
  and diagonal, out-of-range and non-finite terms rejected.
* The Ising change of variables and its inverse keep every energy.
* The coloring and factoring QUBOs have minimum energy 0 exactly when the
  instance is feasible (checked by brute force over at most 20 variables).
* The factoring decoder accepts exactly the zero-energy assignments, and
  ``assignment_for_factors`` builds one for exactly the factor pairs of N.
* An oracle's own evaluator agrees with the oracle: along a random walk of
  resets, peeks, commits and runs of peeks at one state long enough to
  build a move table, every energy it returns equals ``oracle(y)`` exactly,
  on the exact oracle and on single-band, noisy multi-band, ternary and
  ideal-ADC crossbars.
* The ternary encoding accepts exactly the matrices over {0, 1, 2}, and
  the cell pair of each element holds as many ON cells as its value.
* A run is reproducible per seed: ``iter_trials`` gives the same records,
  apart from their wall times, in one process and in a pool of two.
* The solver's own two-index draw is ``Generator.choice``'s: interleaved
  with uniforms and one-index draws as the annealing loop makes them,
  ``flip_indices(n, 2, rng)`` returns the indices that ``rng.choice(n, 2,
  replace=False)`` returns from the same state, and leaves the same state.
* The solver's block draws are the generator's: after a vector draw that
  may leave a buffered 32-bit half, mixed runs of ``integers(n)`` (32-bit
  and 64-bit bounds), ``random()`` and ``flip_indices`` of every width,
  across block boundaries, return a bare ``Generator``'s values, and the
  synced generator ends in its state.
* A trace's CSV text is the text of a nine-field f-string per row, for
  traces mixing 0.0 and -0.0, infinities, NaN, subnormals, large values
  and long runs of one value, and for a trace of no rows.
"""

import io
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qubocim import anneal, crossbar, qubo
from qubocim.anneal import SOLVERS, AnnealConfig, AnnealTrace, flip_indices, iter_trials
from qubocim.convert import (FactorizationEncoding, Graph, assignment_for_factors,
                             coloring_to_qubo, decode_factors, pfp_to_qubo)
from qubocim.errors import EncodingError, UnsupportedInstanceError
from qubocim.cli import main
from qubocim.crossbar import (BATCH_STATES, AdcParams, DeviceParams, make_hw_oracle,
                              program_ternary, quantize)
from qubocim.compress import CompressedQubo, compress, compressed_energy, decompress
from qubocim.compress import to_text as compressed_to_text

from test_cli import EVERY_KEY, config_text, solve_flags
from test_convert import backtracking_colorable

EXIT_CODES = {0, 2, 3, 4}


# Multiplies every example count; a deeper run than tier-1's sets it above 1.
EXAMPLES_SCALE = float(os.environ.get("QUBOCIM_EXAMPLES_SCALE", "1"))


def bounded(examples: int):
    """Deterministic and bounded settings, so tier-1 stays reproducible and fast."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=round(examples * EXAMPLES_SCALE),
                    suppress_health_check=[HealthCheck.too_slow])


BAD_TOKENS = ["x", "-1", "0", "0.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e400",
              "99999999999999999999", "#", "%", "c", "p", "q", "e", "m"]
JUNK = st.one_of(st.sampled_from(["", "   ", "# note", "% note", "c note", "?"]),
                 st.text(alphabet=" \t#%cpeqlmrows0123456789.-xnaif", max_size=12))
COEFFICIENT = st.one_of(st.integers(-3, 3).map(float),
                        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


# The value flags of a valid hw run factoring 35, as in EVERY_KEY.
HW_FLAGS = {flag: EVERY_KEY[key] for flag, key, const in solve_flags() if const is None}


@st.composite
def instance(draw):
    """Vertex count, weighted edges and linear terms of a small random instance."""
    n = draw(st.one_of(st.integers(2, 8), st.integers(1, 1000)))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    weights = [draw(COEFFICIENT) for _ in edges]
    linear = draw(st.lists(st.tuples(vertex, COEFFICIENT), max_size=4))
    return n, dict(zip(edges, weights)), dict(linear)


def write(fmt: str, n: int, weights: dict, linear: dict) -> str:
    if fmt == "gset":
        return f"{n} {len(weights)}\n" + "".join(
            f"{u + 1} {v + 1} {w!r}\n" for (u, v), w in weights.items())
    if fmt == "dimacs":
        return f"c random\np edge {n} {len(weights)}\n" + "".join(
            f"e {u + 1} {v + 1}\n" for (u, v) in weights)
    vector = [linear.get(i, 0.0) for i in range(n)]
    problem = qubo.QuboProblem(n, weights, vector, 1.5)
    if fmt == "qubo":
        return qubo.to_text(problem)
    return compressed_to_text(compress(problem)[0])


@st.composite
def near_valid(draw, fmt: str):
    """A well-formed ``fmt`` file after zero to three random edits."""
    config = fmt == "config"
    if config:
        lines, tokens = config_text(EVERY_KEY).splitlines(), BAD_TOKENS + ["none"]
    else:
        lines, tokens = write(fmt, *draw(instance())).splitlines(), BAD_TOKENS
    for _ in range(draw(st.integers(0, 3))):
        # Bad tokens reach the most checks, so they are drawn twice as often.
        edit = draw(st.sampled_from(["token", "token", "drop", "repeat", "delete", "junk"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        fields = lines[at].split() if lines else []
        if edit == "junk" or not fields:
            lines.insert(at, draw(JUNK))
        elif edit == "token":
            # In a config line the value: a bad key or ``=`` only reaches the line parser.
            fields[-1 if config else draw(st.integers(0, len(fields) - 1))] = \
                draw(st.sampled_from(tokens))
            lines[at] = " ".join(fields)
        elif edit == "drop":
            lines[at] = " ".join(fields[:-1])
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        else:
            del lines[at]
    return "\n".join(lines) + "\n"


# The problem kinds each format is solved as; a config file names its own.
KINDS = {"qubo": ["qubo"], "cqubo": ["cqubo"], "config": ["pfp"],
         "dimacs": ["maxcut", "coloring"], "gset": ["maxcut", "coloring"]}


def solve(directory, data: bytes, argv: list[str]) -> int:
    src = directory / "input"
    src.write_bytes(data)
    argv = [str(src) if a == "{file}" else a for a in argv]
    return main(argv + ["--max-iters", "20", "--optimum", "none", "--trials", "1",
                        "--jobs", "1", "--out", str(directory / "out")])


@pytest.mark.parametrize("kind", ["maxcut", "coloring", "qubo", "cqubo", "config"])
def test_arbitrary_bytes_exit_with_a_code(tmp_path_factory, kind):
    directory = tmp_path_factory.mktemp(f"bytes-{kind}")
    argv = (["solve", "--config", "{file}"] if kind == "config"
            else ["solve", "{file}", "--kind", kind])

    @bounded(40)
    @given(data=st.one_of(st.binary(max_size=200),
                          st.text(max_size=200).map(lambda t: t.encode())))
    def check(data):
        assert solve(directory, data, argv) in EXIT_CODES

    check()


@pytest.mark.parametrize("fmt", sorted(KINDS))
def test_near_valid_files_exit_with_a_code(tmp_path_factory, fmt):
    directory = tmp_path_factory.mktemp(f"records-{fmt}")

    @bounded(80)
    @given(text=near_valid(fmt), kind=st.sampled_from(KINDS[fmt]))
    # Found here: the sum of its t0 calibration deltas overflowed float64.
    @example(text="cqubo 2 0 0\nc 1.5\nl 0 1e308\nrows \ncols \n", kind="cqubo")
    def check(text, kind):
        argv = (["solve", "--config", "{file}"] if fmt == "config"
                else ["solve", "{file}", "--kind", kind])
        assert solve(directory, text.encode(), argv) in EXIT_CODES

    check()


def test_near_valid_flags_exit_with_a_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an ``--out`` value is a directory here

    @bounded(80)
    @given(flag=st.sampled_from(sorted(HW_FLAGS)), token=st.sampled_from(BAD_TOKENS + ["none"]))
    def check(flag, token):
        # 10**20 trials is a valid request for a run that cannot end.
        assume(not (flag == "--trials" and token == "99999999999999999999"))
        # ``--flag=value``, so that a token such as ``-inf`` reaches the value
        # parser rather than being read as a flag.
        argv = [f"{f}={token if f == flag else value}" for f, value in HW_FLAGS.items()]
        assert main(["solve"] + argv) in EXIT_CODES

    check()


@st.composite
def float_problems(draw):
    """A QUBO over at most 8 variables with float coefficients of mixed scale."""
    n = draw(st.integers(1, 8))
    coefficient = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    offdiag = draw(st.dictionaries(pairs, coefficient, max_size=n * (n - 1) // 2)) if n > 1 else {}
    linear = draw(st.lists(coefficient, min_size=n, max_size=n))
    return qubo.QuboProblem(n, offdiag, linear, draw(coefficient))


@bounded(60)
@given(problem=float_problems())
def test_compression_keeps_coefficients_and_energies(problem):
    compressed, _ = compress(problem)
    back = decompress(compressed)
    assert back.offdiag == problem.offdiag
    assert np.array_equal(back.linear, problem.linear) and back.constant == problem.constant
    # Both energies sum the same terms in another order: each sum of k terms
    # rounds by at most (k - 1) * eps/2 * sum |term|.
    terms = 1 + problem.n + len(problem.offdiag)
    scale = (abs(problem.constant) + float(np.abs(problem.linear).sum())
             + sum(abs(v) for v in problem.offdiag.values()))
    bound = terms * np.finfo(np.float64).eps * scale
    for x in qubo.bit_patterns(problem.n, 0, 1 << problem.n):
        assert abs(compressed_energy(compressed, x) - qubo.energy(problem, x)) <= bound


@st.composite
def noiseless_crossbars(draw):
    """A rectangular matrix over disjoint row and column variables, with its encoding,
    tiling and an ADC of at least ceil(log2 rows) + 1 bits."""
    ternary = draw(st.booleans())
    p, q = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.integers(0, 2) if ternary else st.integers(-40, 40)
    matrix = np.array(draw(st.lists(values, min_size=p * q, max_size=p * q)),
                      dtype=np.float64).reshape(p, q)
    n = p + q
    linear = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=np.float64)
    compressed = CompressedQubo(tuple(range(p)), tuple(range(p, n)), matrix, linear,
                                float(draw(st.integers(-5, 5))), n)
    tile_rows, tile_cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rows = min(tile_rows, 2 * p if ternary else p)
    adc_bits = int(np.ceil(np.log2(rows))) + 1 + draw(st.integers(0, 3))
    return dict(compressed=compressed, ternary=ternary, bits=draw(st.integers(1, 6)),
                tile_rows=tile_rows, tile_cols=tile_cols, adc=AdcParams(bits=adc_bits),
                seed=draw(st.integers(0, 2**16)))


@bounded(120)
@given(case=noiseless_crossbars())
def test_noiseless_readout_is_exact(case):
    compressed = case["compressed"]
    oracle = make_hw_oracle(compressed, dev=DeviceParams(i_on_rel_sigma=0.0, i_off_ratio=0.0),
                            **{k: v for k, v in case.items() if k != "compressed"})
    if case["ternary"]:
        scale, codes = 1.0, compressed.qprime
    else:
        qq = quantize(compressed, case["bits"])
        scale, codes = qq.scale, qq.plus - qq.minus
    p = len(compressed.row_vars)
    rng = np.random.default_rng(case["seed"])
    for x in rng.integers(0, 2, size=(6, compressed.source_n)):
        # The dequantized energy, with the integer code sum scaled once.
        expected = scale * float(x[:p] @ codes @ x[p:]) + x @ compressed.linear
        assert oracle(x) == expected + compressed.constant


@st.composite
def grid_oracles(draw):
    """An ideal-ADC oracle, so every (plane, column) entry of a band is live,
    over a random matrix on the bit-sliced or the ternary encoding, with a
    random ON spread, die offset, leakage and tiling."""
    ternary = draw(st.booleans())
    p, q = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 3, size=(p, q)) if ternary else rng.integers(-40, 41, size=(p, q))
    matrix = np.where(rng.random((p, q)) < draw(st.floats(0, 1)), values, 0).astype(np.float64)
    n = p + q
    compressed = CompressedQubo(tuple(range(p)), tuple(range(p, n)), matrix, np.zeros(n), 0.0, n)
    spread = st.one_of(st.just(0.0), st.floats(0, 2))
    dev = DeviceParams(i_on_rel_sigma=draw(spread), die_offset_sigma=draw(spread),
                       i_off_ratio=draw(st.one_of(st.just(0.0), st.floats(0, 0.99))))
    return make_hw_oracle(compressed, bits=draw(st.integers(1, 6)), ternary=ternary, dev=dev,
                          adc=AdcParams(bits=None), seed=draw(st.integers(0, 2**16)),
                          tile_rows=draw(st.integers(1, 40)), tile_cols=draw(st.integers(1, 40)))


@bounded(80)
@given(oracle=grid_oracles(), seed=st.integers(0, 2**32 - 1))
def test_band_reads_are_exact_on_the_grid(oracle, seed):
    stack = oracle.stack
    cells = len(stack.row_map) * stack.n_cols
    for plane in stack.planes:
        steps = np.ldexp(plane.currents, stack.grid)  # in grid steps
        assert np.array_equal(np.rint(steps), steps)
        plane_sum = np.abs(steps).sum() + math.ldexp(stack.off_current, stack.grid) * (
            cells - plane.currents.size)
        assert 4 * plane_sum < 2.0 ** 53
    assert math.ldexp(stack.off_current, stack.grid).is_integer()
    rng = np.random.default_rng(seed)
    for band in oracle._bands:
        rows = band.r1 - band.r0
        act = rng.integers(0, 2, size=(BATCH_STATES, rows)).astype(np.float64)
        act[0] = 1.0  # every row active: the largest sum
        batched = act @ band.currents
        assert np.array_equal(batched, np.array([a @ band.currents for a in act]))
        reversed_order = np.zeros_like(batched)
        for r in reversed(range(rows)):
            reversed_order += act[:, r:r + 1] * band.currents[r]
        assert np.array_equal(batched, reversed_order)


@st.composite
def incremental_walks(draw):
    """An oracle over a random matrix as in :func:`grid_oracles`, on row and
    column variables that may overlap, with a quantizing ADC of 1-6 bits
    (its full scale default or drawn, so that it may clip) or the ideal one,
    and a walk of ``("peek", flips, commit)`` and ``("reset", x, None)``
    steps.  Ternary arrays get odd tile heights, so that some cell pairs
    straddle two bands."""
    ternary = draw(st.booleans())
    p, q = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    n = max(p, q) + draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 3, size=(p, q)) if ternary else rng.integers(-40, 41, size=(p, q))
    matrix = np.where(rng.random((p, q)) < draw(st.floats(0, 1)), values, 0).astype(np.float64)
    compressed = CompressedQubo(tuple(rng.permutation(n)[:p].tolist()),
                                tuple(rng.permutation(n)[:q].tolist()), matrix,
                                rng.integers(-3, 4, size=n).astype(np.float64), 0.0, n)
    spread = st.one_of(st.just(0.0), st.floats(0, 2))
    dev = DeviceParams(i_on_rel_sigma=draw(spread), die_offset_sigma=draw(spread),
                       i_off_ratio=draw(st.one_of(st.just(0.0), st.floats(0, 0.99))))
    adc_bits = draw(st.one_of(st.none(), st.integers(1, 6)))
    full_scale = None if adc_bits is None else draw(st.one_of(st.none(), st.floats(0.25, 8)))
    tile_rows = draw(st.integers(1, 40))
    oracle = make_hw_oracle(compressed, bits=draw(st.integers(1, 6)), ternary=ternary, dev=dev,
                            adc=AdcParams(bits=adc_bits, full_scale=full_scale),
                            seed=draw(st.integers(0, 2**16)),
                            tile_rows=tile_rows | 1 if ternary else tile_rows,
                            tile_cols=draw(st.integers(1, 40)))
    state = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=np.int8))
    steps = [("reset", draw(state), None)]
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 9)) == 0:
            steps.append(("reset", draw(state), None))
        else:
            flips = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            steps.append(("peek", flips, draw(st.booleans())))
    return oracle, steps


def assert_cache_is_a_full_read(evaluator, oracle, x):
    counts, col_counts, total, currents = oracle._read(x)
    for cached, fresh in ((evaluator._currents, currents), (evaluator._counts, counts)):
        assert all(np.array_equal(a, b) for a, b in zip(cached, fresh, strict=True))
    assert np.array_equal(evaluator._col_counts, col_counts)
    assert np.array_equal(evaluator._total, total)


def tiny_currents_under_heavy_leakage():
    """A ternary element 2 whose ON currents, about 0.01 after a die offset
    near -1, lie far below the 0.99 leakage.  A read that adds the leakage
    of every active row and takes it back at the ON cells rounds here."""
    compressed = CompressedQubo((0,), (1,), np.array([[2.0]]), np.zeros(2), 0.0, 2)
    oracle = make_hw_oracle(compressed, ternary=True, seed=59, tile_rows=3,
                            dev=DeviceParams(i_on_rel_sigma=0.01, die_offset_sigma=1.0,
                                             i_off_ratio=0.99), adc=AdcParams(bits=None))
    return oracle, [("reset", np.ones(2, dtype=np.int8), None), ("peek", [0], True),
                    ("peek", [0], True), ("peek", [1], False)]


@bounded(60)
@given(case=incremental_walks())
@example(case=tiny_currents_under_heavy_leakage())
def test_incremental_band_reads_equal_a_full_read(case):
    oracle, steps = case
    with pytest.MonkeyPatch.context() as patch:
        # No move layouts, whose dense band currents would serve every read.
        patch.setattr(crossbar, "MOVE_TABLE_MAX", 0)
        incremental_walk(oracle, steps)


def incremental_walk(oracle, steps):
    evaluator = oracle.evaluator()
    x = None
    for step, arg, commit in steps:
        if step == "reset":
            x = arg.copy()
            assert evaluator.reset(x) == oracle(x)
            act = x[oracle._phys_rows].astype(np.float64)
            for band, currents in zip(oracle._bands, oracle._read(x)[3], strict=True):
                assert np.array_equal(currents, act[band.r0:band.r1] @ band.currents)
            continue
        y = x.copy()
        y[arg] ^= 1
        assert evaluator.peek(arg) == oracle(y)
        if commit:
            evaluator.commit()
            x = y
            assert_cache_is_a_full_read(evaluator, oracle, x)
    assert not evaluator._blocks


def dict_merge(terms) -> dict:
    """The reference merge: one ``+=`` per term into canonical i < j keys, zeros dropped."""
    merged = {}
    for (i, j), value in terms:
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, 0.0) + value
    return {key: value for key, value in merged.items() if value != 0.0}


@st.composite
def term_lists(draw):
    """Terms over at most 8 variables with mirrors, repeats and exact cancellations."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    terms = draw(st.lists(st.tuples(pair, COEFFICIENT), max_size=24))
    for (i, j), value in draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []:
        terms.insert(draw(st.integers(0, len(terms))), ((j, i), -value))
    return n, terms


@bounded(150)
@given(case=term_lists())
def test_term_arrays_equal_a_dict_merge(case):
    n, terms = case
    problem = qubo.QuboProblem(n, terms)
    expected = dict_merge(terms)
    assert problem.offdiag == expected
    rows, cols, values = problem.term_arrays()
    assert list(zip(zip(rows.tolist(), cols.tolist()), values.tolist())) == sorted(expected.items())
    assert qubo.QuboProblem.from_arrays(n, *zip(*[(i, j, v) for (i, j), v in terms]) if terms
                                        else ((), (), ())).offdiag == expected


BAD_TERMS = {"diagonal": (ValueError, lambda n: ((1, 1), 1.0)),
             "outside": (ValueError, lambda n: ((0, n), 1.0)),
             "negative": (ValueError, lambda n: ((-1, 1), 1.0)),
             "nan": (UnsupportedInstanceError, lambda n: ((0, 1), float("nan"))),
             "inf": (UnsupportedInstanceError, lambda n: ((1, 0), float("-inf")))}


@bounded(60)
@given(case=term_lists(), bad=st.sampled_from(sorted(BAD_TERMS)), data=st.data())
def test_bad_terms_are_rejected(case, bad, data):
    n, terms = case
    error, make = BAD_TERMS[bad]
    terms.insert(data.draw(st.integers(0, len(terms))), make(n))
    with pytest.raises(error):
        qubo.QuboProblem(n, terms)


@st.composite
def small_problems(draw):
    """A QUBO over at most 10 variables with integer or float coefficients."""
    n = draw(st.integers(1, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    terms = draw(st.lists(st.tuples(pairs, COEFFICIENT), max_size=30)) if n > 1 else []
    linear = draw(st.lists(COEFFICIENT, min_size=n, max_size=n))
    return qubo.QuboProblem(n, terms, linear, draw(COEFFICIENT))


@bounded(80)
@given(problem=small_problems())
def test_ising_round_trip_keeps_every_energy(problem):
    back = qubo.ising_to_qubo(qubo.qubo_to_ising(problem))
    X = qubo.bit_patterns(problem.n, 0, 1 << problem.n)
    coefficients = [problem.constant, *problem.linear, *problem.term_arrays()[2]]
    if all(float(c).is_integer() for c in coefficients):
        # Quarters and halves of small integers are exact, so every step is.
        assert np.array_equal(qubo.energy_batch(back, X), qubo.energy_batch(problem, X))
    else:
        scale = sum(abs(c) for c in coefficients)
        bound = 16 * len(coefficients) * np.finfo(np.float64).eps * scale
        assert np.all(np.abs(qubo.energy_batch(back, X) - qubo.energy_batch(problem, X)) <= bound)


@bounded(25)
@given(data=st.data())
def test_coloring_minimum_is_zero_exactly_when_colorable(data):
    colors = data.draw(st.integers(1, 3))
    vertices = data.draw(st.integers(1, 20 // colors if colors > 1 else 8))
    pair = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    edges = [(u, v) for u, v in data.draw(st.lists(pair, max_size=12)) if u != v]
    graph = Graph.from_edges(vertices, edges)
    problem, _ = coloring_to_qubo(graph, colors, data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    minimum = qubo.brute_force_minimize(problem)[1]
    assert minimum >= 0.0
    assert (minimum == 0.0) == backtracking_colorable(graph, colors)


@bounded(25)
@given(data=st.data())
def test_factoring_minimum_is_zero_exactly_when_feasible(data):
    k = data.draw(st.integers(0, 3))
    l = data.draw(st.integers(0, 4 - k if k < 3 else 1))
    bitlen = data.draw(st.sampled_from([b for b in (k + l + 3, k + l + 4) if 2 ** b > 9]))
    N = data.draw(st.integers(max(9, 2 ** (bitlen - 1)), 2 ** bitlen - 1).map(lambda v: v | 1))
    problem, enc = pfp_to_qubo(FactorizationEncoding(N, k, l))
    assert problem.n <= 20
    feasible = any(N % p == 0 and (N // p).bit_length() == l + 2
                   for p in range(2 ** (k + 1) + 1, 2 ** (k + 2), 2))
    minimum = qubo.brute_force_minimize(problem)[1]
    assert minimum >= 0.0
    assert (minimum == 0.0) == feasible


@st.composite
def factoring_encodings(draw):
    """An encoding with k, l <= 3 free bits, of a product of two factors of
    its widths or of any odd N of a width they can produce."""
    k, l = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        p = draw(st.integers(2 ** (k + 1), 2 ** (k + 2) - 1)) | 1
        N = p * (draw(st.integers(2 ** (l + 1), 2 ** (l + 2) - 1)) | 1)
    else:
        N = draw(st.integers(max(9, 2 ** (k + l + 2)), 2 ** (k + l + 4) - 1)) | 1
    return FactorizationEncoding(N, k, l)


@bounded(30)
@given(enc=factoring_encodings())
def test_factoring_decoder_accepts_exactly_the_zero_energy_states(enc):
    assume(enc.n_vars <= 14)
    problem, _ = pfp_to_qubo(enc)
    X = qubo.bit_patterns(enc.n_vars, 0, 1 << enc.n_vars)
    zero = qubo.energy_batch(problem, X) == 0.0
    assert [decode_factors(enc, x)[2] for x in X] == zero.tolist()


@bounded(40)
@given(enc=factoring_encodings())
def test_factor_assignment_exists_exactly_for_factor_pairs(enc):
    problem, _ = pfp_to_qubo(enc)
    for p in range(2 ** (enc.k + 1) + 1, 2 ** (enc.k + 2), 2):
        for q in range(2 ** (enc.l + 1) + 1, 2 ** (enc.l + 2), 2):
            x = assignment_for_factors(enc, p, q)
            assert (x is None) == (p * q != enc.N)
            if x is not None:
                assert qubo.energy(problem, x) == 0.0
                assert decode_factors(enc, x) == (p, q, True)


NOISY = DeviceParams(i_on_rel_sigma=0.1, die_offset_sigma=0.05)
ORACLES = {
    "exact": lambda c, q: qubo.exact_oracle(q),
    "hw-single-band": lambda c, q: make_hw_oracle(c, bits=3, seed=1, tile_rows=64),
    "hw-multi-band-noisy": lambda c, q: make_hw_oracle(c, bits=3, dev=NOISY, seed=2,
                                                       tile_rows=3),
    "hw-ternary": lambda c, q: make_hw_oracle(c, ternary=True, dev=NOISY, seed=3, tile_rows=3),
    "hw-ideal-adc": lambda c, q: make_hw_oracle(c, bits=3, dev=NOISY, seed=4, tile_rows=3,
                                                adc=AdcParams(bits=None)),
}


@st.composite
def evaluator_walks(draw, kind: str):
    """A problem over at most 40 variables and a walk of evaluator steps on it.

    The ternary oracle gets a coloring QUBO, whose compressed matrix lies
    in {0, 1, 2}; the others a QUBO with small integer coefficients.  A step
    is ``("reset", x, known)``, resetting to ``x`` with or without its
    energy given, ``("peek", flips, commit)``, ``("stuck", (width, seed),
    None)``, peeks of random width-``width`` moves at the current state
    until a move table of that width exists (see :func:`stuck_peeks`), or
    ``("deltas", (states, flips), None)``, a batch of single-flip deltas,
    always followed by a reset because it leaves the evaluator's state
    unspecified.
    """
    if kind == "hw-ternary":
        vertices = draw(st.integers(2, 12))
        pair = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
        edges = [(u, v) for u, v in draw(st.lists(pair, min_size=1, max_size=20)) if u != v]
        problem, _ = coloring_to_qubo(Graph.from_edges(vertices, edges),
                                      draw(st.integers(2, 3)), draw(st.sampled_from([0.5, 1.0])))
    else:
        n = draw(st.integers(2, 40))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        coefficient = st.integers(-9, 9).map(float)
        terms = draw(st.lists(st.tuples(pair, coefficient), min_size=1, max_size=80))
        linear = draw(st.lists(coefficient, min_size=n, max_size=n))
        problem = qubo.QuboProblem(n, terms, linear, draw(coefficient))
    n = problem.n
    state = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=np.int8))
    steps = [("reset", draw(state), False)]
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            count = draw(st.integers(1, BATCH_STATES + 3))
            batch = (rng.integers(0, 2, size=(count, n), dtype=np.int8),
                     rng.integers(0, n, size=count).tolist())
            steps += [("deltas", batch, None), ("reset", draw(state), False)]
        elif kind < 3:
            steps.append(("reset", draw(state), draw(st.booleans())))
        elif kind == 3:
            steps.append(("stuck", (draw(st.integers(0, min(3, n))),
                                    draw(st.integers(0, 2 ** 32 - 1))), None))
        else:
            flips = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
            steps.append(("peek", flips, draw(st.booleans())))
    return problem, steps


def stuck_peeks(evaluator, n: int, width: int, seed: int):
    """Random width-``width`` moves over ``n`` variables, for peeks at one state.

    Moves come until the evaluator holds a move table of that width, then
    two more, so that the peek that builds the table and later table peeks
    are both drawn.  An evaluator that keeps no tables, or none of that
    width (above its cap), gets three moves.
    """
    rng = np.random.default_rng(seed)
    left = 3
    while left:
        yield rng.choice(n, size=width, replace=False).tolist()
        tables = getattr(evaluator, "_tables", None)
        if tables is None or evaluator._moves[width] is None or width in tables:
            left -= 1


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_evaluator_walks_equal_the_oracle(kind):
    @bounded(60)
    @given(case=evaluator_walks(kind))
    def check(case):
        problem, steps = case
        compressed, _ = compress(problem)
        oracle = ORACLES[kind](compressed, problem)
        evaluator = oracle.evaluator()
        x = None
        for step, arg, flag in steps:
            if step == "deltas":
                states, flips = arg
                want = []
                for y, i in zip(states, flips):
                    z = y.copy()
                    z[i] ^= 1
                    want.append(oracle(z) - oracle(y))
                assert evaluator.flip_deltas(states, flips).tolist() == want
                continue
            if step == "stuck":
                for flips in stuck_peeks(evaluator, problem.n, *arg):
                    y = x.copy()
                    y[flips] ^= 1
                    assert evaluator.peek(flips) == oracle(y)
                continue
            if step == "reset":
                x = arg.copy()
                energy = evaluator.reset(x, oracle(x) if flag else None)
                assert energy == oracle(x)
                continue
            y = x.copy()
            y[arg] ^= 1
            assert evaluator.peek(arg) == oracle(y)
            if flag:
                evaluator.commit()
                x = y

    check()


TERNARY_VALUES = [0, 1, 2, -0.0, 2.0]
OTHER_VALUES = [-1, 3, 0.5, 1.5, 2.0000000000000004, -2, 1e300, float("nan"), float("inf")]


@bounded(150)
@given(data=st.data())
def test_ternary_encoding_accepts_exactly_0_1_2(data):
    p, q = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    pool = TERNARY_VALUES + (OTHER_VALUES if data.draw(st.booleans()) else [])
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=p * q, max_size=p * q))
    dtype = np.float64 if any(isinstance(v, float) for v in cells) else data.draw(
        st.sampled_from([np.int64, np.int8, np.float64]))
    values = np.array(cells, dtype=dtype).reshape(p, q)
    tiles = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    if all(v in (0, 1, 2) for v in cells):
        stack = program_ternary(values, seed=data.draw(st.integers(0, 99)), tile_rows=tiles[0],
                                tile_cols=tiles[1])
        on_cells = stack.planes[0].states.reshape(p, 2, q).sum(axis=1)
        assert np.array_equal(on_cells, values)
    else:
        with pytest.raises(EncodingError):
            program_ternary(values, tile_rows=tiles[0], tile_cols=tiles[1])


def trial_records(oracle, n, cfg, trials, solver, jobs):
    """Every field of each record but its wall time, traces as CSV text."""
    records = []
    for r in iter_trials(oracle, n, cfg, trials, solver=solver, jobs=jobs):
        csv = io.StringIO()
        r.trace.write_csv(csv)
        records.append((r.index, r.seed, r.x.tolist(), r.e_best, r.trace.x_best.tolist(),
                        r.trace.e_final, r.trace.epochs_used, csv.getvalue()))
    return records


@bounded(6)
@given(data=st.data())
def test_trials_reproduce_in_a_process_pool(data):
    n = data.draw(st.integers(2, 24))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    coefficient = st.integers(-9, 9).map(float)
    problem = qubo.QuboProblem(n, data.draw(st.lists(st.tuples(pair, coefficient), max_size=60)),
                               data.draw(st.lists(coefficient, min_size=n, max_size=n)), 0.0)
    if data.draw(st.booleans()):
        oracle = qubo.exact_oracle(problem)
    else:
        oracle = make_hw_oracle(compress(problem)[0], bits=3, dev=NOISY, seed=5, tile_rows=4)
    cfg = AnnealConfig(seed=data.draw(st.integers(0, 2 ** 32)), max_iters=300,
                       count_max=data.draw(st.integers(5, 40)))
    trials, solver = data.draw(st.integers(1, 4)), data.draw(st.sampled_from(SOLVERS))
    assert trial_records(oracle, n, cfg, trials, solver, 1) == \
        trial_records(oracle, n, cfg, trials, solver, 2)


@bounded(100)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.sampled_from([2, 3, 30, 800, 2 ** 33]),
       draws=st.lists(st.sampled_from(["uniform", "one", "two"]), max_size=30))
def test_two_index_draw_equals_choice(seed, n, draws):
    ours, numpys = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for draw in draws + ["two"]:
        if draw == "uniform":
            assert ours.random() == numpys.random()
        elif draw == "one":
            assert flip_indices(n, 1, ours) == [int(numpys.integers(n))]
        else:
            assert flip_indices(n, 2, ours) == numpys.choice(n, 2, replace=False).tolist()
    assert ours.bit_generator.state == numpys.bit_generator.state


# Bounds of integers(n) for the block draws: one value, Lemire's 32-bit draw
# (2**31 + 1 rejects about half its first draws, since 2**32 % n is 2**31 - 1),
# a whole 32-bit half, and the 64-bit draws that go through the generator.
DRAW_BOUNDS = [1, 2, 3, 30, 800, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
               2 ** 33, 2 ** 62]
# A step is (kind, argument, repeats); a flip_indices step is (n, k, repeats).
# numpy's choice takes Floyd's algorithm unless n > 10_000 and k > n // 50,
# where the block draws hand over to it.
REPEATS = st.integers(1, 40)
DRAW_STEP = st.one_of(st.tuples(st.just("integers"), st.sampled_from(DRAW_BOUNDS), REPEATS),
                      st.tuples(st.just("random"), st.just(0), REPEATS),
                      st.tuples(st.sampled_from([2, 3, 30, 800]), st.integers(1, 5), REPEATS),
                      st.tuples(st.sampled_from([800, 10_000, 10_001]),
                                st.sampled_from([200, 201]), st.just(1)))


@bounded(100)
@given(seed=st.integers(0, 2 ** 64 - 1), head=st.integers(0, 9),
       block=st.sampled_from([1, 2, 3, 7, anneal.DRAW_BLOCK]),
       steps=st.lists(DRAW_STEP, max_size=40))
@example(seed=1, head=1, block=anneal.DRAW_BLOCK,
         steps=[("random", 0, anneal.DRAW_BLOCK - 1), ("integers", 30, 3), (30, 3, 1),
                ("integers", 2 ** 31 + 1, anneal.DRAW_BLOCK)])
def test_block_draws_equal_the_generator(seed, head, block, steps):
    # ``head`` int8 draws take ceil(head / 4) 32-bit halves, so the block
    # draws may start with a buffered half.  Short blocks put the block
    # ends among the draws.
    ours, numpys = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for gen in ours, numpys:
        gen.integers(0, 2, size=head, dtype=np.int8)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anneal, "DRAW_BLOCK", block)
        ours = anneal._BlockDraws(ours)
        for kind, arg, repeat in steps:
            for _ in range(repeat):
                if kind == "integers":
                    assert ours.integers(arg) == numpys.integers(arg)
                elif kind == "random":
                    assert ours.random() == numpys.random()
                else:
                    n, k = kind, min(arg, kind)
                    expected = (numpys.choice(n, k, replace=False).tolist() if k > 1
                                else [int(numpys.integers(n))])
                    assert flip_indices(n, k, ours) == expected
        assert ours.synced(lambda gen: gen.bit_generator.state) == numpys.bit_generator.state


def f_string_csv(trace: AnnealTrace) -> str:
    """A trace's CSV text as one nine-field f-string per row: the reference."""
    def column(values, dtype):
        return np.asarray(values[:trace.iters_used], dtype=dtype).tolist()

    rows = zip(column(trace.iteration, np.int64), column(trace.epoch, np.int64),
               column(trace.e_new, np.float64), column(trace.e_o, np.float64),
               column(trace.e_best, np.float64), column(trace.accepted, np.int64),
               column(trace.trapped, np.int64),
               column(trace.temperature, np.float64), column(trace.flips, np.int64))
    return AnnealTrace.CSV_HEADER + "\n" + "".join(
        f"{it},{ep},{en!r},{eo!r},{eb!r},{acc},{trap},{t!r},{k}\n"
        for it, ep, en, eo, eb, acc, trap, t, k in rows)


TRACE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),  # equal as floats, so a cache keyed on values would merge them
    st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                     2.2250738585072014e-308, 1e16, -1e16, 2.5e17, 1.7976931348623157e308,
                     0.1, 1 / 3]),
    st.floats(), st.floats(min_value=1e16), st.integers(-10 ** 6, 10 ** 6).map(float))


@st.composite
def traces(draw):
    """A trace of up to 120 rows, or of 2,040 to 2,300 so that the writer
    formats more than one block of rows, each column built of runs of one
    value; its arrays may run past ``iters_used``."""
    rows = draw(st.one_of(st.integers(0, 120), st.integers(2040, 2300)))
    length = rows + draw(st.integers(0, 3))

    def column(values, dtype):
        runs = draw(st.lists(st.tuples(values, st.integers(1, 200)), min_size=1,
                             max_size=length + 1))
        cells = [value for value, repeat in runs for _ in range(repeat)]
        return np.array((cells * length)[:length], dtype=dtype)

    ints = st.integers(-2 ** 63, 2 ** 63 - 1)
    return AnnealTrace(iteration=column(ints, np.int64), epoch=column(ints, np.int64),
                       e_new=column(TRACE_FLOATS, np.float64), e_o=column(TRACE_FLOATS, np.float64),
                       e_best=column(TRACE_FLOATS, np.float64),
                       accepted=column(st.booleans(), bool), trapped=column(st.booleans(), bool),
                       temperature=column(TRACE_FLOATS, np.float64),
                       flips=column(ints, np.int64), iters_used=rows)


@bounded(100)
@given(trace=traces())
@example(trace=AnnealTrace(*(np.zeros(0) for _ in range(9))))
@example(trace=AnnealTrace(*(np.array([0.0, -0.0, 0.0, -0.0]) for _ in range(9)), iters_used=4))
def test_csv_text_equals_an_f_string_per_row(trace):
    text = io.StringIO()
    trace.write_csv(text)
    assert text.getvalue() == f_string_csv(trace)
