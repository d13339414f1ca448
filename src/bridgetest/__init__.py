"""Bridging-fault test generation and fault simulation for AND-EXOR
realizations of reversible k-CNOT circuits.

The public surface mirrors the pipeline: parse a netlist into its AND-EXOR
network (`circuit`), enumerate the fault universe (`faults`), build the
five named test sets plus repair patterns (`atpg`), and grade everything
bit-accurately with an exhaustive oracle on the side (`simulate`).  Every
stage reads the circuit through the network's gate supports.  The
per-output EXOR-of-ANDs view (`bridgetest.pprm`) is not part of this
surface and `import bridgetest` does not load it: it is kept only for the
benchmark harness under `perfbench/`, which times `cli.derive_pprm`.
"""

from .atpg import (
    FallbackResult,
    GenerationResult,
    SET_NAMES,
    UnionResult,
    assemble_union,
    ceil_log2,
    fallback_search,
    gen_cascade_pair_tests,
    gen_corner_set,
    gen_input_and_tests,
    gen_input_or_tests,
    gen_walking_zero_tests,
    generate_sets,
    size_bound,
)
from .benchmark import BENCHMARK_TEXT, benchmark_circuit, tabulated_discrepancies
from .circuit import (
    AndExorNetwork,
    CircuitError,
    ParseError,
    expand_network,
    format_circuit,
    normalize_zero_controls,
    parse_circuit,
)
from .faults import (
    BridgingFault,
    FaultKind,
    FaultList,
    Polarity,
    bridge_values,
    enumerate_faults,
)
from .patterns import (
    DC_POLICIES,
    TestFileError,
    format_patterns,
    parse_test_file,
)
from .simulate import (
    DEFAULT_ORACLE_CAP,
    Evaluation,
    FaultVerdict,
    OracleResult,
    detects,
    evaluate_test_set,
    exhaustive_detectability,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # circuit
    "CircuitError", "ParseError", "AndExorNetwork", "expand_network",
    "parse_circuit", "format_circuit", "normalize_zero_controls",
    # faults
    "Polarity", "FaultKind", "BridgingFault", "FaultList",
    "bridge_values", "enumerate_faults",
    # patterns
    "DC_POLICIES", "TestFileError",
    "parse_test_file", "format_patterns",
    # simulate
    "DEFAULT_ORACLE_CAP", "Evaluation", "FaultVerdict", "OracleResult",
    "detects", "exhaustive_detectability", "evaluate_test_set",
    # atpg
    "SET_NAMES", "GenerationResult", "generate_sets",
    "gen_corner_set", "gen_input_and_tests", "gen_input_or_tests",
    "gen_cascade_pair_tests", "gen_walking_zero_tests",
    "UnionResult", "assemble_union", "ceil_log2", "size_bound",
    "FallbackResult", "fallback_search",
    # benchmark
    "BENCHMARK_TEXT", "benchmark_circuit", "tabulated_discrepancies",
]
