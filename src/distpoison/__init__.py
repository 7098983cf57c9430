"""distpoison: poisoning attacks on simulated distributed GNN training."""

from distpoison.attack import (
    AttackConfig,
    PerturbationSet,
    ScoreMatrix,
    baseline_dice,
    baseline_random,
    combined_subgraph_gradient,
    edge_scores,
    run_disttack,
    select_edge_removals,
    select_targets,
    train_surrogate,
)
from distpoison.distributed import (
    SyncRecord,
    WorkerState,
    aggregate_gradients,
    gradient_norm_divergence,
    train_distributed,
)
from distpoison.gnn import (
    ForwardState,
    GradientBundle,
    ParamSet,
    attack_loss,
    backward,
    check_gradients,
    forward,
    forward_state,
    masked_ce_loss,
    sgd_step,
)
from distpoison.graph import (
    CSR,
    Graph,
    NormalizedAdjacency,
    Partition,
    Subgraph,
    build_graph,
    generate_sbm,
    normalize_adjacency,
    partition_nodes,
    sample_1hop,
)
from distpoison.homophily import distribution_distance, homophily_values

__version__ = "0.1.0"
