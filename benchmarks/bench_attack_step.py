"""Micro-benchmarks of one attack step's inner calls at three graph sizes.

    PYTHONPATH=src python -m pytest benchmarks/bench_attack_step.py

The file name keeps these out of the default test collection. Graphs are
four-block SBMs with the reference config's expected degree (about 6.4) at
n = 200, 1,600 and 6,400 nodes; candidates come from the highest-degree node,
as the attack's targets do. The trials are timed as computed: every round
starts with the state's held trials (``memo``) cleared.
``test_edge_trial`` and ``test_feature_trial`` are one candidate's trial,
a batch of one: the hub's edge to its first neighbor, or its first feature
entry negated. ``test_step_trials`` is the batched kernel over one step's
candidates: the edges of the 1-hop subgraphs of 10 targets on worker 0 of
4, or every nonzero feature entry of their nodes, negated, each as one
move (node, dim, value).
``test_view_epoch`` is what a victim epoch spends on the clean view's seven
batches of 8: one ``sweep`` over them at n = 1,600 and 6,400, and at
n = 200, below the sweep's threshold, one full forward state and seven
reverse passes.
``test_surrogate_fit`` is one 40-epoch surrogate fit on the training nodes,
as each attack iteration runs; it takes full products at every size.
``test_generate_sbm`` draws the fixture's graph from its seed.
``test_edge_scores`` is the hub subgraph's weighted gradients and its edges'
removal scores as ``{(i, j): score}``, as the attack takes them per target.
``test_subgraph_to_graph`` samples the hub's 1-hop subgraph, a Graph, and
normalizes its adjacency, as the attack does for each target's subgraph
gradient. ``test_attack_step`` is
one whole attack step under a fixed surrogate: 10 targets on worker 0 of 4,
one edge removal and one feature flip, without (``lambda_homo`` 0) and with
(1) stealth scoring; each round starts from a fresh run, whose setup
(graph copy, stealth state) is not timed, after warm-up rounds.
``test_attack_steps`` is three consecutive steps of one run under the same
surrogate.
"""

import numpy as np
import pytest

from distpoison.attack import (
    AttackConfig,
    _DisttackRun,
    combined_subgraph_gradient,
    edge_scores,
    select_targets,
    train_surrogate,
)
from distpoison.gnn import ParamSet, backward, forward_state, sweep
from distpoison.graph import generate_sbm, normalize_adjacency, partition_nodes, sample_1hop
from distpoison.homophily import (
    StealthState,
    homophily_after_edge_removal,
    homophily_after_feature_change,
    homophily_values,
)

SIZES = [200, 1600, 6400]


def _sbm_args(n):
    block = n // 4
    return 0, [block] * 4, 5.0 / block, 0.5 / block, 8, 1.2


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n{n}")
def case(request):
    n = request.param
    g = generate_sbm(*_sbm_args(n))
    # A few removals, as mid-attack: the state then reads rebuilt rows.
    for i, j in g.edge_array()[:: max(1, g.num_edges // 10)][:10]:
        g.remove_edge(int(i), int(j))
    hub = int(np.argmax(g.degrees()))
    return g, hub


def test_state_build(benchmark, case):
    g, _ = case
    h = homophily_values(g)
    benchmark(StealthState, g, h)


TRIAL_ROUNDS = dict(rounds=500, warmup_rounds=20)


def _forgetting(state, args_of):
    """A pedantic setup: the state's held trials are cleared, then the
    round's arguments are drawn."""
    def setup():
        state.memo.clear()
        return args_of(), {}

    return setup


def test_edge_trial(benchmark, case):
    g, hub = case
    state = StealthState(g, homophily_values(g))
    j = int(g.neighbors(hub)[0])
    benchmark.pedantic(homophily_after_edge_removal,
                       setup=_forgetting(state, lambda: (state, hub, j)), **TRIAL_ROUNDS)


def test_feature_trial(benchmark, case):
    g, hub = case
    state = StealthState(g, homophily_values(g))
    value = -float(g.features[hub, 0])
    benchmark.pedantic(homophily_after_feature_change,
                       setup=_forgetting(state, lambda: (state, hub, 0, value)), **TRIAL_ROUNDS)


@pytest.mark.parametrize("kind", ["edge", "feature"])
def test_step_trials(benchmark, case, kind):
    g, _ = case
    part = partition_nodes(g, 4)
    subs = [sample_1hop(g, t) for t in select_targets(g, part, 0, 10)]
    state = StealthState(g, homophily_values(g))
    if kind == "edge":
        pairs = set()
        for sub in subs:
            a, b = sub.node_ids[sub.edges[:, 0]], sub.node_ids[sub.edges[:, 1]]
            pairs |= set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        trials, args = state.edge_trials, (sorted(pairs),)
    else:
        ids = np.unique(np.concatenate([sub.node_ids for sub in subs]))
        row, dim = np.nonzero(g.features[ids])
        trials, args = state.feature_trials, (ids[row], dim, -g.features[ids[row], dim])
    benchmark.pedantic(trials, setup=_forgetting(state, lambda: args), rounds=50, warmup_rounds=5)


def test_w1_distance(benchmark, case):
    g, hub = case
    state = StealthState(g, homophily_values(g))
    benchmark(state.distance, state.values)


def test_edge_scores(benchmark, case):
    g, hub = case
    part = partition_nodes(g, 4)
    theta = ParamSet.init_gcn(g.feature_dim, 16, g.num_classes, seed=0)
    sub = sample_1hop(g, hub)
    cfg = AttackConfig()

    def score():
        edge_grad, _ = combined_subgraph_gradient(theta, sub, cfg)
        return edge_scores(edge_grad, sub, part, 0.1).global_items()

    benchmark(score)


def test_normalize_adjacency(benchmark, case):
    g, _ = case
    benchmark(normalize_adjacency, g)


def test_sample_1hop(benchmark, case):
    g, hub = case
    benchmark(sample_1hop, g, hub)


def test_subgraph_to_graph(benchmark, case):
    g, hub = case
    benchmark(lambda: normalize_adjacency(sample_1hop(g, hub)))


def test_generate_sbm(benchmark, case):
    g, _ = case
    benchmark(generate_sbm, *_sbm_args(g.num_nodes))


def test_view_epoch(benchmark, case):
    g, _ = case
    adj = normalize_adjacency(g)
    params = ParamSet.init_gcn(g.feature_dim, 16, g.num_classes, seed=0)
    rng = np.random.default_rng(0)
    batches = list(rng.choice(np.flatnonzero(g.train_mask), size=(7, 8), replace=False))

    def epoch():
        if sweep(params, adj, g.features, g.labels, batches) is None:
            state = forward_state(params, adj, g.features)
            for batch in batches:
                backward(params, adj, g.features, g.labels, batch, state=state, assume_unique=True)

    benchmark(epoch)


def _fresh_run(g, lambda_homo, steps):
    """A pedantic setup that starts a fresh run with budgets for ``steps``
    steps of one removal and one flip, and the surrogate for its graph."""
    part = partition_nodes(g, 4)
    cfg = AttackConfig(edge_budget=steps, feature_budget=steps, lambda_homo=lambda_homo,
                       surrogate_epochs=40, target_count=10)
    targets = select_targets(g, part, 0, cfg.target_count)
    theta = train_surrogate(g, cfg.surrogate_epochs, cfg.seed)

    def setup():
        return (_DisttackRun(g, part, cfg, targets), theta), {}

    return setup


STEP_ROUNDS = dict(rounds=50, warmup_rounds=5)


@pytest.mark.parametrize("lambda_homo", [0.0, 1.0])
def test_attack_step(benchmark, case, lambda_homo):
    g, _ = case
    benchmark.pedantic(_DisttackRun.step, setup=_fresh_run(g, lambda_homo, 1), **STEP_ROUNDS)


@pytest.mark.parametrize("lambda_homo", [0.0, 1.0])
def test_attack_steps(benchmark, case, lambda_homo):
    g, _ = case

    def three_steps(run, theta):
        for _ in range(3):
            run.step(theta)

    benchmark.pedantic(three_steps, setup=_fresh_run(g, lambda_homo, 3), **STEP_ROUNDS)


def test_surrogate_fit(benchmark, case):
    g, _ = case
    benchmark(train_surrogate, g, 40, 0)
