import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distpoison.distributed as dist
import distpoison.gnn as gnn
from distpoison.distributed import (
    SyncRecord,
    TrainingError,
    aggregate_gradients,
    gradient_norm_divergence,
    train_distributed,
    write_divergence_csv,
    write_telemetry_csv,
)
from conftest import scipy_csr
from distpoison.gnn import GradientBundle, ParamSet, backward, forward_state, sgd_step
from distpoison.graph import generate_sbm, normalize_adjacency, partition_nodes


def feature_blast(g, node, scale=40.0):
    """A minimal poisoned view: one node's features inflated."""
    gp = g.copy()
    gp.features[node] *= scale
    return gp


def spy_passes(monkeypatch):
    """Record every worker pass, in call order, as (adj id, batch, bundle)."""
    passes = []
    real = dist.backward

    def spy(params, adj, X, labels, node_set, **kwargs):
        bundle = real(params, adj, X, labels, node_set, **kwargs)
        passes.append((id(adj), np.array(node_set), bundle))
        return bundle

    monkeypatch.setattr(dist, "backward", spy)
    return passes


def sbm_all_train(seed, blocks, feature_dim=4, noise=0.3):
    g = generate_sbm(seed, blocks, 0.4, 0.05, feature_dim=feature_dim, noise=noise)
    g.train_mask[:] = True
    g.val_mask[:] = False
    g.test_mask[:] = False
    return g


def fresh_params(g, seed=0, lr=0.2):
    return ParamSet.init_gcn(g.feature_dim, 8, g.num_classes, seed=seed, learning_rate=lr)


def single_node_loop(g, params, epochs, batch_size, seed):
    """Plain masked-CE SGD loop mirroring the worker contract for n=1."""
    adj = normalize_adjacency(g)
    pool = np.flatnonzero(g.train_mask)
    rng = np.random.default_rng((seed, 0))
    for _ in range(epochs):
        batch = rng.choice(pool, size=min(batch_size, len(pool)), replace=False)
        params = sgd_step(params, backward(params, adj, g.features, g.labels, batch))
    return params


class TestAggregate:
    def test_literal_sum(self):
        b1 = GradientBundle.from_grads(np.array([[1.0, 2.0]]))
        b2 = GradientBundle.from_grads(np.array([[3.0, 4.0]]))
        out = aggregate_gradients([b1, b2], mode="sum")
        np.testing.assert_allclose(out.dW0, [[4.0, 6.0]])

    def test_single_bundle_identity(self):
        b = GradientBundle.from_grads(np.array([[1.5, -2.0]]), np.array([[0.5]]))
        for mode in ("mean", "sum"):
            out = aggregate_gradients([b], mode=mode)
            np.testing.assert_allclose(out.dW0, b.dW0)
            np.testing.assert_allclose(out.dW1, b.dW1)

    def test_mean_of_copies(self):
        b = GradientBundle.from_grads(np.array([[2.0, -4.0]]))
        out = aggregate_gradients([b, b, b], mode="mean")
        np.testing.assert_allclose(out.dW0, b.dW0)

    def test_shape_mismatch(self):
        b1 = GradientBundle.from_grads(np.zeros((2, 2)))
        b2 = GradientBundle.from_grads(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            aggregate_gradients([b1, b2])


class TestTrainDistributed:
    def test_single_worker_matches_plain_loop(self):
        g = sbm_all_train(0, [8, 8])
        part = partition_nodes(g, 1)
        params0 = fresh_params(g)
        final, records = train_distributed(g, part, params0, epochs=12, batch_size=5, seed=3)
        ref = single_node_loop(g, params0, epochs=12, batch_size=5, seed=3)
        np.testing.assert_array_equal(final.W0, ref.W0)
        np.testing.assert_array_equal(final.W1, ref.W1)
        assert len(records) == 12

    def test_two_workers_full_batch_equals_single_node(self):
        g = sbm_all_train(1, [8, 8])  # 16 nodes, equal round-robin shards
        part2 = partition_nodes(g, 2)
        part1 = partition_nodes(g, 1)
        params0 = fresh_params(g)
        dist, _ = train_distributed(g, part2, params0, epochs=50, batch_size=8, seed=0)
        single, _ = train_distributed(g, part1, params0, epochs=50, batch_size=16, seed=0)
        np.testing.assert_allclose(dist.W0, single.W0, atol=1e-10)
        np.testing.assert_allclose(dist.W1, single.W1, atol=1e-10)

    def test_poisoned_worker_norms_diverge(self):
        g = sbm_all_train(2, [8, 8, 8, 8])
        part = partition_nodes(g, 4)
        params0 = fresh_params(g)
        _, clean = train_distributed(g, part, params0, epochs=10, batch_size=4, seed=1)
        _, poisoned = train_distributed(
            g, part, params0, epochs=10, batch_size=4, seed=1, poisoned=feature_blast(g, 0)
        )
        poisoned_w0 = [r.worker_norms[0] for r in poisoned]
        clean_w0 = [r.worker_norms[0] for r in clean]
        assert poisoned_w0 != clean_w0

    def test_determinism(self):
        g = sbm_all_train(3, [6, 6, 6])
        part = partition_nodes(g, 3)
        params0 = fresh_params(g)
        runs = [
            train_distributed(g, part, params0, epochs=8, batch_size=3, seed=7)
            for _ in range(3)
        ]
        for final, records in runs[1:]:
            np.testing.assert_array_equal(final.W0, runs[0][0].W0)
            np.testing.assert_array_equal(final.W1, runs[0][0].W1)
            for r, r0 in zip(records, runs[0][1]):
                assert r.worker_norms == r0.worker_norms

    def test_one_forward_per_view_per_epoch(self, monkeypatch):
        # Three workers, one of them poisoned: two views. On this small graph
        # each view-epoch asks for one sweep over its workers' batches, gets
        # None, and builds one full forward state; each worker still takes
        # its own reverse pass.
        sweeps, forwards = [], []
        real_sweep, real_forward = dist.sweep, dist.forward_state

        def sweep_spy(params, adj, X, labels, batches):
            bundles = real_sweep(params, adj, X, labels, batches)
            sweeps.append((id(adj), batches, bundles))
            return bundles

        def forward_spy(params, adj, X):
            forwards.append(id(adj))
            return real_forward(params, adj, X)

        monkeypatch.setattr(dist, "sweep", sweep_spy)
        monkeypatch.setattr(dist, "forward_state", forward_spy)
        passes = spy_passes(monkeypatch)
        g = sbm_all_train(5, [6, 6, 6])
        train_distributed(
            g, partition_nodes(g, 3), fresh_params(g), epochs=4, batch_size=3, seed=2,
            poisoned=feature_blast(g, 0), poisoned_worker=1,
        )
        assert len(passes) == 3 * 4
        assert all(bundles is None for _, _, bundles in sweeps)
        assert forwards == [adj for adj, _, _ in sweeps]
        assert len(forwards) == 2 * 4
        clean, poisoned = forwards[:2]
        assert clean != poisoned
        assert [adj for adj, _, _ in passes] == [clean, poisoned, clean] * 4
        batches = [[b for _, b, _ in passes[3 * e : 3 * e + 3]] for e in range(4)]
        for epoch, (b0, b1, b2) in enumerate(batches):
            (_, clean_batches, _), (_, poisoned_batches, _) = sweeps[2 * epoch : 2 * epoch + 2]
            for got, want in ((clean_batches, [b0, b2]), (poisoned_batches, [b1])):
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

    def test_one_field_search_per_view_per_epoch(self, monkeypatch):
        # On a graph large enough for limited products, each view-epoch is
        # one sweep: one _gathers call over that view's batches, with no
        # union batch, and no worker takes a reverse pass of its own.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        assert normalize_adjacency(g).matrix.nnz >= gnn._LIMITED_MIN_NNZ
        sweeps, searches = [], []
        real_sweep, real_gathers = dist.sweep, gnn._gathers

        def sweep_spy(params, adj, X, labels, batches):
            sweeps.append(batches)
            bundles = real_sweep(params, adj, X, labels, batches)
            assert bundles is not None
            return bundles

        def gathers_spy(A, batches, depth):
            searches.append(batches)
            return real_gathers(A, batches, depth)

        monkeypatch.setattr(dist, "sweep", sweep_spy)
        monkeypatch.setattr(gnn, "_gathers", gathers_spy)
        passes = spy_passes(monkeypatch)
        train_distributed(
            g, partition_nodes(g, 3), fresh_params(g), epochs=3, batch_size=8, seed=0,
            poisoned=feature_blast(g, 0), poisoned_worker=1,
        )
        # The clean view: workers 0 and 2; the poisoned view: worker 1.
        assert [len(b) for b in searches] == [2, 1] * 3
        assert all(got is want for got, want in zip(searches, sweeps))
        assert len(searches) == len(sweeps) and passes == []

    def test_all_workers_share_global_params(self, monkeypatch):
        # Recompute each worker's recorded gradient from the single global
        # trajectory; byte-equality shows no worker saw a stale copy.
        g = sbm_all_train(4, [6, 6])
        part = partition_nodes(g, 2)
        params0 = fresh_params(g)
        passes = spy_passes(monkeypatch)
        final, _ = train_distributed(g, part, params0, epochs=5, batch_size=3, seed=5)
        adj = normalize_adjacency(g)
        current = params0
        for epoch in range(5):
            redos = []
            for _, batch, bundle in passes[2 * epoch : 2 * epoch + 2]:
                redos.append(backward(current, adj, g.features, g.labels, batch))
                assert redos[-1].l2_norm == bundle.l2_norm
            current = sgd_step(current, aggregate_gradients(redos))
        np.testing.assert_array_equal(current.W0, final.W0)
        np.testing.assert_array_equal(current.W1, final.W1)

    def test_poison_locality_first_epoch(self, monkeypatch):
        g = sbm_all_train(5, [6, 6, 6])
        part = partition_nodes(g, 3)
        params0 = fresh_params(g)
        passes = spy_passes(monkeypatch)
        train_distributed(g, part, params0, epochs=1, batch_size=3, seed=2)
        train_distributed(
            g, part, params0, epochs=1, batch_size=3, seed=2,
            poisoned=feature_blast(g, 0), poisoned_worker=0,
        )
        clean_grads = [bundle.dW0 for _, _, bundle in passes[:3]]
        poisoned_grads = [bundle.dW0 for _, _, bundle in passes[3:]]
        assert not np.array_equal(clean_grads[0], poisoned_grads[0])
        for w in (1, 2):
            np.testing.assert_array_equal(clean_grads[w], poisoned_grads[w])

    def test_empty_pool_rejected(self):
        g = generate_sbm(0, [4, 4], 0.5, 0.1, feature_dim=3, noise=0.2)
        g.train_mask[:] = False
        g.train_mask[0] = True  # only worker 0 gets a training node
        part = partition_nodes(g, 2)
        with pytest.raises(TrainingError):
            train_distributed(g, part, fresh_params(g), epochs=1, batch_size=1, seed=0)

    def test_nonfinite_gradient_aborts_with_context(self):
        g = sbm_all_train(6, [4, 4])
        g.features[0, 0] = np.inf
        part = partition_nodes(g, 2)
        with pytest.raises(TrainingError, match="worker"):
            train_distributed(g, part, fresh_params(g), epochs=1, batch_size=2, seed=0)


@functools.lru_cache(maxsize=None)
def large_sbm(seed):
    """A 1,600-node four-block SBM at the reference degree (about 6.4): its A
    holds more than _LIMITED_MIN_NNZ entries. Callers copy before editing."""
    return generate_sbm(seed, [400] * 4, 5 / 400, 0.5 / 400, feature_dim=8, noise=1.0)


def model_params(model, seed):
    """GCN (hidden 16) or SGC weights for 8 features and 4 classes; a model
    name is "gcn" or "sgc<k>"."""
    if model == "gcn":
        return ParamSet.init_gcn(8, 16, 4, seed=seed, learning_rate=0.3)
    return ParamSet.init_sgc(8, 4, seed=seed, learning_rate=0.3, k=int(model[-1]))


def epoch_batches(g, part, batch_size, seed, epochs):
    """Each epoch's batch per worker, drawn as ``train_distributed`` draws them."""
    rngs = [np.random.default_rng((seed, w)) for w in range(part.n)]
    pools = [part.training_pool(g, w) for w in range(part.n)]
    return [[rng.choice(pool, size=min(batch_size, len(pool)), replace=False)
             for rng, pool in zip(rngs, pools)] for _ in range(epochs)]


def assert_same_weight_grads(got, want):
    assert len(got.weight_grads()) == len(want.weight_grads())
    for a, b in zip(got.weight_grads(), want.weight_grads()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.l2_norm == want.l2_norm


class TestSweep:
    """Each view-epoch's sweep against ``backward`` on a full state."""

    @settings(max_examples=80, deadline=None)
    @given(
        graph_seed=st.integers(0, 2),
        seed=st.integers(0, 10**6),
        model=st.sampled_from(["gcn", "sgc1", "sgc2", "sgc3"]),
        workers=st.integers(1, 6),
        batch_size=st.integers(1, 12),
        two_views=st.booleans(),
    )
    def test_bundles_equal_full_backward(
        self, graph_seed, seed, model, workers, batch_size, two_views
    ):
        # Per-worker batches drawn without replacement; with two views the
        # poisoned worker's graph loses 20 edges and one node's features grow.
        g = large_sbm(graph_seed)
        poisoned = None
        if two_views:
            poisoned = feature_blast(g, seed % g.num_nodes)
            edges = g.edge_array()
            cut = np.random.default_rng(seed).choice(len(edges), 20, replace=False)
            poisoned.edit(removed=edges[cut])
        calls, real = [], dist.sweep

        def spy(params, adj, X, labels, batches):
            bundles = real(params, adj, X, labels, batches)
            calls.append((params, adj, X, batches, bundles))
            return bundles

        with mock.patch.object(dist, "sweep", spy):
            train_distributed(
                g, partition_nodes(g, workers), model_params(model, seed), epochs=2,
                batch_size=batch_size, seed=seed, poisoned=poisoned,
                poisoned_worker=seed % workers,
            )
        assert calls
        for params, adj, X, batches, bundles in calls:
            if bundles is None:
                continue
            assert len(bundles) == len(batches)
            state = forward_state(params, adj, X)
            for batch, bundle in zip(batches, bundles):
                assert_same_weight_grads(
                    bundle, backward(params, adj, X, g.labels, batch, state=state,
                                     assume_unique=True)
                )

    @pytest.mark.parametrize("model", ["gcn", "sgc2"])
    def test_hub_batch_takes_the_full_path(self, model):
        # A hub joined to 600 more nodes is one of 16 training nodes, so one
        # worker's batch holds it: its rows one hop out hold more than 1/8 of
        # A's entries. That view takes one full state and a reverse pass per
        # worker; the other worker's view, without the hub's edges, sweeps.
        # Every worker's norm and the final weights equal the plain loop's.
        g = large_sbm(0).copy()
        hub = 0
        free = np.setdiff1d(np.arange(1, g.num_nodes), g.neighbors(hub))
        g.edit(added=[(hub, int(v)) for v in free[:600]])
        train = np.concatenate([[hub], np.flatnonzero(g.train_mask)[1:16]])
        g.train_mask[:] = False
        g.train_mask[train] = True
        part = partition_nodes(g, 2)
        hub_worker = int(part.assignment[hub])
        poisoned = feature_blast(g, 5)
        poisoned.edit(removed=[(hub, int(v)) for v in free[:600]])
        params0 = model_params(model, 2)
        taken, real = [], dist.sweep

        def spy(*args):
            bundles = real(*args)
            taken.append(bundles is not None)
            return bundles

        with mock.patch.object(dist, "sweep", spy):
            final, records = train_distributed(
                g, part, params0, epochs=3, batch_size=16, seed=4, poisoned=poisoned,
                poisoned_worker=1 - hub_worker,
            )
        views = {hub_worker: g, 1 - hub_worker: poisoned}
        # Each worker is alone on its view, so the views are asked in worker order.
        assert taken == [w != hub_worker for w in range(2)] * 3
        current = params0
        for epoch, batches in enumerate(epoch_batches(g, part, 16, 4, 3)):
            bundles = [
                backward(current, normalize_adjacency(views[w]), views[w].features, g.labels,
                         batches[w])
                for w in range(2)
            ]
            assert records[epoch].worker_norms == [b.l2_norm for b in bundles]
            current = sgd_step(current, aggregate_gradients(bundles))
        assert [w.tobytes() for w in current.weights()] == [w.tobytes() for w in final.weights()]

    @pytest.mark.parametrize("model", ["gcn", "sgc2"])
    def test_non_finite_feature_names_its_worker(self, model):
        # A NaN feature that only worker 2's batch reaches, two hops out: the
        # sweep reads no other feature row, so worker 2 is named, not the
        # first worker of the view.
        g = large_sbm(1).copy()
        part = partition_nodes(g, 3)
        batches = epoch_batches(g, part, 8, 0, 1)[0]
        A = scipy_csr(normalize_adjacency(g).matrix)

        def field(rows):  # the nodes within two hops of rows
            for _ in range(2):
                rows = np.unique(A[rows].indices)
            return rows

        v = np.setdiff1d(field(batches[2]), np.union1d(field(batches[0]), field(batches[1])))[0]
        g.features[v, 3] = np.nan
        with pytest.raises(TrainingError, match="worker 2 produced non-finite gradients at epoch 0"):
            train_distributed(g, part, model_params(model, 0), epochs=1, batch_size=8, seed=0)


class TestDivergence:
    def test_identical_norms_give_zeros(self):
        records = [SyncRecord(epoch=e, worker_norms=[2.0, 2.0, 2.0], update_norm=1.0, wall_ms=1.0) for e in range(4)]
        np.testing.assert_allclose(gradient_norm_divergence(records, 0), np.zeros(4))

    def test_literal_arithmetic(self):
        records = [SyncRecord(epoch=0, worker_norms=[5.0, 1.0, 1.0, 1.0], update_norm=1.0, wall_ms=1.0)]
        np.testing.assert_allclose(gradient_norm_divergence(records, 0), [4.0])

    def test_two_worker_minimum(self):
        records = [SyncRecord(epoch=0, worker_norms=[1.0], update_norm=1.0, wall_ms=1.0)]
        with pytest.raises(ValueError):
            gradient_norm_divergence(records, 0)

    def test_clean_control_near_zero(self):
        # 10-seed control: with no poison, worker 0 is not systematically
        # above or below the others.
        pooled = []
        scale = []
        for seed in range(10):
            g = sbm_all_train(seed, [6, 6, 6, 6])
            part = partition_nodes(g, 4)
            params0 = fresh_params(g, seed=seed)
            _, records = train_distributed(g, part, params0, epochs=30, batch_size=3, seed=seed)
            pooled.extend(gradient_norm_divergence(records, 0))
            scale.extend(n for r in records for n in r.worker_norms)
        assert abs(np.mean(pooled)) < 0.1 * np.mean(scale)


def test_telemetry_csv_round_trip(tmp_path):
    g = sbm_all_train(0, [6, 6])
    part = partition_nodes(g, 2)
    _, records = train_distributed(g, part, fresh_params(g), epochs=3, batch_size=3, seed=0)
    tele = tmp_path / "grad.csv"
    div = tmp_path / "div.csv"
    write_telemetry_csv(records, 0, tele)
    write_divergence_csv(records, 0, div)
    tele_lines = tele.read_text().strip().splitlines()
    assert tele_lines[0] == "epoch,worker_id,grad_l2,poisoned,wall_ms"
    assert len(tele_lines) == 1 + 3 * 2
    row = tele_lines[1].split(",")
    assert float(row[2]) == records[0].worker_norms[0]  # repr round-trips exactly
    div_lines = div.read_text().strip().splitlines()
    assert div_lines[0] == "epoch,divergence"
    assert len(div_lines) == 4
