"""balancekit: scaling and balancing operations on networks of homogeneous units."""

__version__ = "0.1.0"

from .activations import (
    ActivationSpec,
    IDENTITY,
    LOGISTIC_UNIT,
    RELU,
    TANH_UNIT,
    bilu,
    bipu,
    construct_universal_approximator,
    homogeneity_exponent,
    leaky_relu,
    max_slice_jump,
)
from .balancing import (
    BalanceReport,
    BalanceTrace,
    DegenerateUnitError,
    Schedule,
    balance_neuron,
    balance_subset_tied,
    network_deficit,
    neuron_deficit,
    optimal_lambda,
    partial_balance_pass,
    run_balancing,
    run_balancing_many,
    scale_neuron,
    trace_to_csv,
)
from .manifold import (
    ConvexSolution,
    MultiplierAssignment,
    apply_multipliers,
    fit_multipliers,
    fit_multipliers_many,
    solve_convex,
    tied_layer_closed_form,
)
from .netgraph import (
    BIAS,
    Edge,
    HIDDEN,
    INPUT,
    Network,
    NetworkFormatError,
    OUTPUT,
    Unit,
    deserialize,
    forward,
    make_layered,
    make_recurrent,
    serialize,
    validate,
)
from .regularizer import (
    CostSpec,
    format_cost,
    l1,
    l2,
    lp,
    network_cost,
    parse_cost,
)
from .training import (
    BalanceMode,
    Dataset,
    MetricsRow,
    TrainConfig,
    TrainingDiverged,
    gradients,
    load_csv,
    load_idx,
    make_concentric_circles,
    read_idx,
    save_csv,
    sgd_train,
    stratified_subsample,
)
