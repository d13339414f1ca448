"""Bridging-fault test generation and fault simulation for AND-EXOR
realizations of reversible k-CNOT circuits.

The public surface mirrors the pipeline: parse a netlist (`circuit`),
flatten it (`network`), derive the per-output EXOR-of-ANDs view (`pprm`),
enumerate the fault universe (`faults`), build the five named test sets
plus repair patterns (`atpg`), and grade everything bit-accurately with an
exhaustive oracle on the side (`simulate`).
"""

from .atpg import (
    BoundReport,
    FallbackResult,
    GenerationResult,
    SET_NAMES,
    UnionResult,
    assemble_union,
    ceil_log2,
    check_bound,
    count_terms,
    fallback_search,
    gen_cascade_pair_tests,
    gen_corner_set,
    gen_input_and_tests,
    gen_input_or_tests,
    gen_walking_zero_tests,
    generate_sets,
)
from .benchmark import BENCHMARK_TEXT, benchmark_circuit, tabulated_discrepancies
from .circuit import (
    CircuitError,
    Gate,
    ParseError,
    ReversibleCircuit,
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
from .network import AndExorNetwork, expand_network
from .patterns import (
    DC_POLICIES,
    TestFileError,
    TestSet,
    format_patterns,
    parse_test_file,
)
from .pprm import PprmFunction, derive_pprm
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
    "CircuitError", "ParseError", "Gate", "ReversibleCircuit",
    "parse_circuit", "format_circuit", "normalize_zero_controls",
    # pprm
    "PprmFunction", "derive_pprm",
    # network
    "AndExorNetwork", "expand_network",
    # faults
    "Polarity", "FaultKind", "BridgingFault", "FaultList",
    "bridge_values", "enumerate_faults",
    # patterns
    "DC_POLICIES", "TestSet", "TestFileError",
    "parse_test_file", "format_patterns",
    # simulate
    "DEFAULT_ORACLE_CAP", "Evaluation", "FaultVerdict", "OracleResult",
    "detects", "exhaustive_detectability", "evaluate_test_set",
    # atpg
    "SET_NAMES", "count_terms",
    "GenerationResult", "generate_sets",
    "gen_corner_set", "gen_input_and_tests", "gen_input_or_tests",
    "gen_cascade_pair_tests", "gen_walking_zero_tests",
    "UnionResult", "assemble_union", "ceil_log2",
    "BoundReport", "check_bound",
    "FallbackResult", "fallback_search",
    # benchmark
    "BENCHMARK_TEXT", "benchmark_circuit", "tabulated_discrepancies",
]
