"""Graph Fourier transforms as exact chains of localized Cauchy factors.

The transform of a partitioned graph factors into dense eigenbases of the
leaf blocks followed by one orthogonal Cauchy factor per bridge edge, giving
forward/inverse spectral transforms, hierarchical local-to-global filtering,
interface sparsification with spectral reporting, and scaling benchmarks
against the dense eigendecomposition.
"""

from .errors import (
    BracketFailure,
    CauchyGftError,
    ConfigMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    Disconnected,
    DomainError,
    EmptyInterface,
    InvalidParams,
    ParseError,
    PlanMismatch,
    SolverNotConverged,
    TooLarge,
    ZeroDegreeNode,
)
from .graph import (
    Graph,
    Laplacian,
    barabasi_albert,
    build_laplacian,
    dense_eig,
    read_graph,
    write_graph,
)
from .secular import (
    CauchyFactor,
    DeflationRecord,
    SecularSolution,
    build_cauchy_factor,
    deflate,
    rank_one_update_factor,
    solve_secular,
)
from .plan import MergePlan, PlanNode, plan_from_leaves
from .factorization import FactorizedGft, factorize
from .partition import CutCandidate, bisect, build_plan, fiedler_vector
from .sparsify import (
    ResistanceEstimate,
    SparsifiedInterface,
    SparsifyPolicy,
    estimate_resistances,
    exact_resistances,
    sparsify_interface,
    verify_spectral_bound,
)
from .filters import (
    CallableFilter,
    FilterBank,
    FilterLayerConfig,
    apply_layer,
    eval_bank,
    heat_filter,
    hierarchical_mix,
    poly_filter,
)

__version__ = "0.1.0"
