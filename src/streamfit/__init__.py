"""Semi-streaming fitting of ultrametrics and tree metrics to distance
streams, with desk-scale brute-force references."""

from .agreement import (
    AgreementParams,
    Clustering,
    ExactView,
    SketchView,
    s_structural_clustering,
)
from .evaluate import CostReport, cost
from .fixedpoint import SCALE, from_decimal, from_int, to_decimal
from .l0fit import L0FitResult, SketchBudgetError, fit_l0
from .linf import LinfExactResult, MstState, fit_linf_exact, fit_linf_min_decrement
from .oracles import (
    OracleUnavailable,
    brute_correlation,
    brute_l0_ultra,
    brute_l1_ultra,
    minimax_cert,
)
from .sketches import (
    CompressedSet,
    SketchConfig,
    SketchPools,
)
from .streams import (
    GeneratorSpec,
    ParseError,
    StreamIntegrityError,
    StreamSource,
    generate,
)
from .treefit import (
    collect_pivot_rows,
    fit_l0_tree,
    fit_linf_tree,
    select_tree_by_clique,
)
from .trees import (
    DomainError,
    TreeMetricRep,
    UltrametricTree,
    four_point_check,
    from_ultrametric_matrix,
    is_ultrametric,
    single_linkage_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementParams",
    "Clustering",
    "CompressedSet",
    "CostReport",
    "DomainError",
    "ExactView",
    "GeneratorSpec",
    "L0FitResult",
    "LinfExactResult",
    "MstState",
    "OracleUnavailable",
    "ParseError",
    "SCALE",
    "SketchBudgetError",
    "SketchConfig",
    "SketchPools",
    "SketchView",
    "StreamIntegrityError",
    "StreamSource",
    "TreeMetricRep",
    "UltrametricTree",
    "brute_correlation",
    "brute_l0_ultra",
    "brute_l1_ultra",
    "collect_pivot_rows",
    "cost",
    "fit_l0",
    "fit_l0_tree",
    "fit_linf_exact",
    "fit_linf_min_decrement",
    "fit_linf_tree",
    "four_point_check",
    "from_decimal",
    "from_int",
    "from_ultrametric_matrix",
    "generate",
    "is_ultrametric",
    "minimax_cert",
    "s_structural_clustering",
    "select_tree_by_clique",
    "single_linkage_tree",
    "to_decimal",
]
