"""Clique decisions encoded as form inequalities, and a sound checker for them.

The package turns graphs into symmetric-tensor decision instances whose
defining inequality at the origin holds exactly when the graph has no large
clique, maximizes homogeneous forms over spheres with deterministic
multistart budgets, and decides the inequalities three-valuedly with
exact-rational certificates.
"""

from .concordance import (
    MODES,
    SigmaBounds,
    Status,
    Verdict,
    check_sc,
    check_sc2,
    rationalize_vector,
    recheck,
    sigma_opt_bounds,
    verdict_to_json_obj,
    violates,
    violates_cubic,
    violates_quartic,
)
from .graphs import (
    Graph,
    clique_number,
    complement,
    enumerate_graphs,
    graph_from_edges,
    has_clique,
    max_clique,
    max_stable_set,
    parse_dimacs,
    parse_edge_list,
    parse_graph_text,
    proper_coloring,
    stability_number,
)
from .optimize import (
    DEFAULT_SEED,
    OptConfig,
    OptReport,
    beta_split_max,
    grid_lower_and_upper,
    max_form_sphere,
    report_to_json_obj,
)
from .reduction import (
    GADGETS,
    ConcordanceInstance,
    Gadget,
    build_cubic_instance,
    build_cubic_tensor,
    build_instance,
    build_quartic_instance,
    build_quartic_tensor,
    rational_cubic_witness,
    rational_quartic_witness,
    threshold,
    true_max,
    unit_witness,
)
from .tensors import (
    SymTensor,
    eval_form,
    eval_form_batch,
    eval_form_exact,
    frobenius,
    grad_form,
    hess_form,
    hess_product,
    spectral_upper_bound,
    sym_from_entries,
    tensor_from_json_obj,
    tensor_from_text,
    tensor_to_json_obj,
    tensor_to_text,
)

__version__ = "0.1.0"
