"""Property tests over generated inputs.

* No input file makes the command line raise.  Arbitrary bytes, and
  near-valid files of every text format, go through
  ``cli.main(["solve", ...])``; each run must end in a documented exit code
  (0, 2, 3 or 4), and an exception escaping ``main`` fails the test.  A
  near-valid file is a well-formed file of a random instance (at most 10**3
  variables or vertices) after a few edits: a field replaced by a bad token,
  a field dropped, a line repeated or deleted, or a junk line inserted.
* Compression keeps every coefficient, and the compressed energy of every
  assignment is the exact energy up to float64 rounding of the two sums.
* Noiseless readout is exact: with no cell spread, no leakage and ADC bits
  >= ceil(log2 rows) + 1, the crossbar oracle's energy is the exact energy
  of the dequantized matrix, for any shape, precision and tiling, on the
  bit-sliced and the ternary encoding.
* The term arrays of a problem are the terms a dict would merge, exactly:
  mirrors and repeats summed in input order, exact cancellations dropped,
  and diagonal, out-of-range and non-finite terms rejected.
* The Ising change of variables and its inverse keep every energy.
* The coloring and factoring QUBOs have minimum energy 0 exactly when the
  instance is feasible (checked by brute force over at most 20 variables).
* An oracle's own evaluator agrees with the oracle: along a random walk of
  resets, peeks and commits, every energy it returns equals ``oracle(y)``
  exactly, on the exact oracle and on single-band, noisy multi-band,
  ternary and ideal-ADC crossbars.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qubocim import qubo
from qubocim.convert import FactorizationEncoding, Graph, coloring_to_qubo, pfp_to_qubo
from qubocim.errors import UnsupportedInstanceError
from qubocim.cli import main
from qubocim.crossbar import AdcParams, DeviceParams, make_hw_oracle, quantize
from qubocim.compress import CompressedQubo, compress, compressed_energy, decompress
from qubocim.compress import to_text as compressed_to_text

from test_convert import backtracking_colorable

EXIT_CODES = {0, 2, 3, 4}


def bounded(examples: int):
    """Deterministic and bounded settings, so tier-1 stays reproducible and fast."""
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


BAD_TOKENS = ["x", "-1", "0", "0.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e400",
              "99999999999999999999", "#", "%", "c", "p", "q", "e", "m"]
JUNK = st.one_of(st.sampled_from(["", "   ", "# note", "% note", "c note", "?"]),
                 st.text(alphabet=" \t#%cpeqlmrows0123456789.-xnaif", max_size=12))
COEFFICIENT = st.one_of(st.integers(-3, 3).map(float),
                        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


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
    lines = write(fmt, *draw(instance())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        # Bad tokens reach the most checks, so they are drawn twice as often.
        edit = draw(st.sampled_from(["token", "token", "drop", "repeat", "delete", "junk"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        fields = lines[at].split() if lines else []
        if edit == "junk" or not fields:
            lines.insert(at, draw(JUNK))
        elif edit == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[at] = " ".join(fields)
        elif edit == "drop":
            lines[at] = " ".join(fields[:-1])
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        else:
            del lines[at]
    return "\n".join(lines) + "\n"


KINDS = {"qubo": ["qubo"], "cqubo": ["cqubo"],
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
    def check(text, kind):
        assert solve(directory, text.encode(), ["solve", "{file}", "--kind", kind]) in EXIT_CODES

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
    energy given, or ``("peek", flips, commit)``.
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
        if draw(st.integers(0, 9)) == 0:
            steps.append(("reset", draw(state), draw(st.booleans())))
        else:
            flips = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
            steps.append(("peek", flips, draw(st.booleans())))
    return problem, steps


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
