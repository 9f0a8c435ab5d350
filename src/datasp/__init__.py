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
from .smoothing import pivot, pivot_adjoint, softmin_value, softmin_weights
from .graph import (
    Graph,
    build_cost_matrix,
    classical_floyd_warshall,
    complete_graph,
    dijkstra,
    exclude_nodes,
    sample_subgraph,
)
from .engine import datasp_backward, datasp_forward_efficient, sweep
from .trajectories import (
    ContextSample,
    Dataset,
    FrequencyTensor,
    TrajectoryRecord,
    apply_node_exclusion_to_path,
    build_frequency_tensor,
    highest_intermediate_decomposition,
)
from .costmodel import ModelParams, backward_params, init_params, predict_costs
from .training import TrainConfig, prior_loss, shortcut_loss, train_loop
from .inference import (
    DestinationPrior,
    destination_likelihood,
    expected_optimal_path,
    jaccard_edges,
    match_rate,
    monte_carlo_path_distribution,
    optimal_cost_rate,
)
from .synthetic import GeneratorConfig, generate_synthetic_dataset
from .oracle import (
    enumerate_visitable_walks,
    finite_difference_gradcheck,
    maxent_distribution,
    verify_distance_consistency,
    verify_shortcut_consistency,
)

__version__ = "0.1.0"
