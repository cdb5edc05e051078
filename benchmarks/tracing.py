"""Spans and counters recorded from outside the qubocim package.

A :class:`Tracer` replaces public functions of the loaded ``qubocim`` modules
with timing wrappers for the duration of one command and puts the originals
back afterwards, so no file of the package changes.  A function is replaced
under every name a ``qubocim`` module binds it to (``cli`` imports
``compress.compress`` under another name), so the spans survive import
aliases.

Oracle evaluations are counted, not recorded as spans: the oracle handed to
the solver, whatever its class, is wrapped in an :class:`OracleProbe` that
counts calls and sums their time.  A sweep makes a quarter of a million
evaluations, and one span each would cost more than the evaluation itself.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and the
caller writes them out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

from qubocim import anneal, crossbar, qubo

SETUP_SPANS = ("cli.build_instance", "compress.compress", "crossbar.make_hw_oracle")
SOLVER_SPANS = ("anneal.mesa_solve", "anneal.sa_solve")
CONVERT_SPANS = ("convert.read_graph", "convert.maxcut_to_qubo", "convert.pfp_to_qubo")
TRACE_WRITE_SPAN = "anneal.AnnealTrace.to_csv"
INSPECT_SPAN = "bench.inspect"


def public(name: str):
    """The function a span name such as ``compress.compress`` stands for.

    Resolved through the submodule, because the package binds the name
    ``compress`` to the function and not to the module.
    """
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"qubocim.{module}"), attr)


def oracle_layer(oracle) -> str:
    """The layer an oracle belongs to: the crossbar simulator or exact evaluation."""
    return "crossbar" if type(oracle).__module__ == crossbar.__name__ else "qubo"


class OracleProbe:
    """Counts calls into an oracle and sums their time in a tally of its tracer."""

    def __init__(self, oracle, tracer: "Tracer", role: str):
        self.oracle = oracle
        self.key = (oracle_layer(oracle), role)
        self.tally = tracer.evals.setdefault(self.key, [0, 0.0])
        tracer.oracle_classes.add(f"{self.key[0]}:{type(oracle).__qualname__}")

    def __call__(self, x):
        started = time.perf_counter()
        energy = self.oracle(x)
        self.tally[1] += time.perf_counter() - started
        self.tally[0] += 1
        return energy


def held_bytes(obj, seen: set[int]) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` not yet in ``seen``."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(held_bytes(v, seen) for v in obj)
    if isinstance(obj, dict):
        return sum(held_bytes(v, seen) for v in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(held_bytes(v, seen) for v in vars(obj).values())
    return 0


def tile_counts(stack) -> tuple[int, int]:
    """(occupied, total) tile positions of a stack; a tile is occupied when any
    plane holds an ON cell in it."""
    states = np.zeros(stack.planes[0].states.shape, dtype=bool)
    for plane in stack.planes:
        states |= plane.states
    rows, cols = states.shape
    bands, col_tiles = -(-rows // stack.tile_rows), -(-cols // stack.tile_cols)
    padded = np.zeros((bands * stack.tile_rows, col_tiles * stack.tile_cols), dtype=bool)
    padded[:rows, :cols] = states
    tiles = padded.reshape(bands, stack.tile_rows, col_tiles, stack.tile_cols)
    return int(tiles.any(axis=(1, 3)).sum()), bands * col_tiles


class Tracer:
    """Spans and counters of one ``qubocim`` command.

    With ``full=False`` only the set-up calls are wrapped, which is what an
    untraced run needs to measure ``setup_s``; with ``full=True`` every layer
    boundary is wrapped and the oracles are probed.
    """

    def __init__(self, run_id: str, full: bool):
        self.run_id = run_id
        self.full = full
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.evals: dict[tuple[str, str], list] = {}   # (layer, role) -> [calls, seconds]
        self.oracle_classes: set[str] = set()
        self.solver = {"iters": 0, "epochs": 0, "accepted": 0}
        self.sizes: dict[str, int] = {}                # compress.cells and crossbar.*

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def seconds(self, *names: str) -> float:
        return sum((end - start for name, start, end, _, _ in self.spans if name in names), 0.0)

    def _wrap(self, name: str, func, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                with self.span(INSPECT_SPAN):
                    after(args, result)
            return result
        return wrapper

    def _wrap_solver(self, name: str, func):
        def wrapper(oracle, n, cfg):
            inner = oracle.oracle if isinstance(oracle, OracleProbe) else oracle
            with self.span(name):
                x, e_best, trace = func(OracleProbe(inner, self, "solver"), n, cfg)
            self.solver["iters"] += trace.iters_used
            self.solver["epochs"] += trace.epochs_used
            self.solver["accepted"] += int(np.count_nonzero(trace.accepted[:trace.iters_used]))
            return x, e_best, trace
        return wrapper

    def _wrap_scorer(self, func):
        def wrapper(*args, **kwargs):
            return OracleProbe(func(*args, **kwargs), self, "score")
        return wrapper

    def _after_compress(self, args, result):
        compressed, _ = result
        p, q = compressed.shape
        self.sizes["compress.cells"] = max(self.sizes.get("compress.cells", 0), p * q)

    def _after_program(self, args, oracle):
        seen: set[int] = set()
        held_bytes(args[0], seen)  # the compressed input belongs to the compress layer
        occupied, total = tile_counts(oracle.stack)
        for key, value in (("crossbar.bytes", held_bytes(oracle, seen)),
                           ("crossbar.tiles_occupied", occupied),
                           ("crossbar.tiles_total", total)):
            self.sizes[key] = max(self.sizes.get(key, 0), value)

    def _replacements(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every wrapped callable."""
        after = ({"compress.compress": self._after_compress,
                  "crossbar.make_hw_oracle": self._after_program} if self.full else {})
        wrappers = {name: self._wrap(name, public(name), after.get(name)) for name in SETUP_SPANS}
        methods = []
        if self.full:
            wrappers.update({name: self._wrap(name, public(name)) for name in CONVERT_SPANS})
            wrappers.update({name: self._wrap_solver(name, public(name)) for name in SOLVER_SPANS})
            wrappers["qubo.exact_oracle"] = self._wrap_scorer(qubo.exact_oracle)
            methods.append((anneal.AnnealTrace, "to_csv",
                            self._wrap(TRACE_WRITE_SPAN, anneal.AnnealTrace.to_csv)))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qubocim" or name.startswith("qubocim.")]
        return [(module, attr, wrappers[name])
                for name in wrappers
                for module in modules
                for attr, value in list(vars(module).items()) if value is public(name)] + methods

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the ``with`` block."""
        saved = []
        try:
            for owner, attr, wrapper in self._replacements():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
