"""Differentiable all-to-all shortest paths for learning latent edge costs
from observed trajectories, with max-entropy path sampling and destination
inference."""

from .errors import (
    DataspError,
    EnumerationLimitError,
    GenerationError,
    NoPathError,
    NumericalError,
    ValidationError,
    VerificationError,
)
from .smoothing import Workspace, pivot, pivot_adjoint, softmin_value, softmin_weights
from .graph import (
    Graph,
    build_cost_matrix,
    complete_graph,
    dijkstra,
    draw_kept_nodes,
    sample_subgraph,
)
from .engine import datasp_backward, datasp_forward_efficient, sweep
from .trajectories import (
    Dataset,
    FrequencyTensor,
    apply_node_exclusion_to_path,
    build_frequency_tensor,
    highest_intermediate_decomposition,
)
from .costmodel import ModelParams, backward_params, init_params, predict_costs
from .training import TrainConfig, prior_loss, shortcut_loss, train_loop
from .inference import (
    destination_likelihood,
    exp_negative_distance_weights,
    expected_optimal_path,
    jaccard_edges,
    match_rate,
    monte_carlo_path_distribution,
    optimal_cost_rate,
)
from .synthetic import GeneratorConfig, generate_synthetic_dataset
from .oracle import (
    WalkEnumerator,
    engine_deviations,
    maxent_distribution,
    normwise_gradient_error,
    total_variation,
)

__version__ = "0.1.0"
