"""Design multi-copy graph-based codes by relocating entries or circulants.

The package splits into matrix/graph plumbing (``tanner``), the graph's
own shift group (``shifts``), cycle machinery (``cycles``), absorbing-set
enumeration (``absorbing``), the relocation construction
(``relocation``), exact fraction analysis (``analysis``), brute-force
verification (``oracle``), and the greedy designer (``designer``).  The
most common entry points are re-exported here.
"""

from .absorbing import (
    CanonicalUas,
    UasConfig,
    UasInstance,
    basic_cycle_count,
    canonical_uas,
    classify_config,
    cycle_count_bounds,
    degree2_check_count,
    enumerate_uas,
)
from .analysis import (
    BasisIntersections,
    FractionReport,
    basis_intersections,
    expected_md_instances,
    fraction_report,
    fraction_report_for_basis,
    savings,
)
from .cycles import Cycle, CycleBasis, enumerate_cycles, minimum_cycle_basis
from .designer import (
    DesignReport,
    DesignResult,
    StepRecord,
    design_md,
    report_log,
    report_tsv,
)
from .oracle import (
    EmpiricalFractions,
    MdObjectProfile,
    MonteCarloResult,
    enumerate_md_uas,
    exhaustive_fractions,
    full_enumeration_fractions,
    md_object_profile,
    min_detached_checks,
    monte_carlo_avg,
)
from .relocation import (
    RelocationMap,
    assemble_md,
    parse_reloc,
)
from .tanner import (
    BinaryMatrix,
    ParseError,
    QcMatrix,
    TannerGraph,
    build_graph,
    check_no_4cycles,
    check_regular_gamma,
    expand_qc,
    parse_alist,
    parse_qc,
    write_alist,
    write_qc,
)

__all__ = [
    "BinaryMatrix",
    "QcMatrix",
    "TannerGraph",
    "ParseError",
    "build_graph",
    "expand_qc",
    "parse_alist",
    "parse_qc",
    "write_alist",
    "write_qc",
    "check_no_4cycles",
    "check_regular_gamma",
    "Cycle",
    "CycleBasis",
    "enumerate_cycles",
    "minimum_cycle_basis",
    "UasConfig",
    "UasInstance",
    "CanonicalUas",
    "canonical_uas",
    "enumerate_uas",
    "degree2_check_count",
    "basic_cycle_count",
    "cycle_count_bounds",
    "classify_config",
    "RelocationMap",
    "parse_reloc",
    "assemble_md",
    "BasisIntersections",
    "FractionReport",
    "basis_intersections",
    "fraction_report",
    "fraction_report_for_basis",
    "savings",
    "expected_md_instances",
    "min_detached_checks",
    "EmpiricalFractions",
    "exhaustive_fractions",
    "full_enumeration_fractions",
    "enumerate_md_uas",
    "MdObjectProfile",
    "md_object_profile",
    "MonteCarloResult",
    "monte_carlo_avg",
    "design_md",
    "DesignResult",
    "DesignReport",
    "StepRecord",
    "report_tsv",
    "report_log",
]
