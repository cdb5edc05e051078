"""QUBO optimization toolkit.

Converts combinatorial problems (Max-Cut, K-coloring, integer factorization)
to QUBO form, losslessly compresses the sparse coefficient matrix into a
compact rectangular bilinear form, and solves instances with multi-epoch
simulated annealing against either exact energies or a behavioral
compute-in-memory crossbar simulator with quantization and device noise.
"""

from .anneal import (AnnealConfig, AnnealTrace, TrialRecord, derive_seed,
                     iter_trials, mesa_solve, run_trials, sa_solve, success_rate)
from .compress import (CompressedQubo, CompressionStats, compress,
                       compressed_energy, decompress, split_signs)
from .convert import (ColoringEncoding, ColoringReport, FactorizationEncoding,
                      Graph, MaxCutEncoding, assignment_for_factors,
                      coloring_to_qubo, cut_value, decode_coloring,
                      decode_factors, demo_coloring_instance,
                      factorization_qubo, maxcut_to_qubo, parse_dimacs_col,
                      parse_gset, pfp_to_qubo, read_graph, suggest_bit_lengths)
from .crossbar import (AdcParams, CrossbarStack, DeviceParams, HwOracle,
                       Plane, QuantizedQubo, dump_stack, make_hw_oracle,
                       program, program_ternary, quantize, vmv)
from .errors import (CapacityError, ConfigError, DimensionError,
                     EncodingError, ParseError, QubocimError,
                     UnsupportedInstanceError)
from .qubo import (ExactOracle, IsingModel, QuboProblem, brute_force_minimize,
                   energy, energy_batch, exact_oracle, ising_energy,
                   ising_to_qubo, qubo_to_ising, sparsity)

__version__ = "0.1.0"
