"""Computational-graph learning engine.

Builds DAGs of elementary differentiable functions and trains their
leaf parameters three ways: reverse-mode differentiation, predictive-
coding inference learning (relax value nodes on an energy, then update
from settled errors), and the level-scheduled variant whose updates are
exactly the reverse-mode ones on any levelled graph.  A levelling
transform (identity-vertex insertion) extends that exactness to
arbitrary DAGs, and the harness measures the divergence between the
algorithms' update vectors to verify it.
"""

from .errors import (
    ArityMismatch,
    BadSpec,
    BadTieGroup,
    CycleDetected,
    DanglingId,
    DomainError,
    GraphError,
    NonFiniteSum,
    NotLevelled,
    ShapeMismatch,
    TooLarge,
    UnreachableVertex,
)
from .functions import ACTIVATION_NAMES, ElemFn, FnKind
from .graph import (
    Graph,
    GraphBuilder,
    LevelStructure,
    ParamKey,
    TieGroup,
    Vertex,
    VertexId,
    check_params,
    level_structure,
    min_distances,
    param_keys,
    path_length_sets,
    topological_sort,
)
from .autodiff import (
    BPReport,
    ForwardTrace,
    backprop,
    forward,
    grad_check,
    gradient_rows,
)
from .leveller import LevelReport, audit_paths, level
from .pc import (
    PCState,
    energy,
    extract_updates,
    il_train_step,
    inference_step,
    init_state,
)
from .zil import (
    ABLATIONS,
    ZilSchedule,
    ZilTrace,
    check_quiet_window,
    make_schedule,
    zil_ablate,
    zil_train_step,
)
from .models import (
    FAMILIES,
    LEVELLED_FAMILIES,
    ModelSpec,
    build_model,
    default_dims,
    random_graph,
    untie,
)
from .report import UpdateReport, divergence, make_report
from .harness import (
    ExperimentConfig,
    code_version,
    run_ablation_suite,
    run_benchmark,
    run_equivalence_suite,
    write_rows,
)
from .serial import (build_graph, graph_from_dict, graph_to_dict, load_graph,
                     save_graph, to_dot)

__version__ = "0.1.0"
