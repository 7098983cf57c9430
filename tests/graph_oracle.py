"""Graph routines as first written, kept as test oracles.

``build_graph`` walks the edge list and the split ids one at a time through
Python sets; ``distpoison.graph.build_graph`` does the same checks and the
same dedup with array operations and must return identical graphs, drop the
same self-loops and raise the same errors.

``generate_sbm`` draws all n x n uniforms at once, keeps the upper triangle
through ``triu_indices`` and builds through the ``build_graph`` here, so the
oracle chain never runs through ``distpoison.graph``.
``distpoison.graph.generate_sbm`` draws only the upper cells of the same
stream and must return identical graphs.

``normalize_adjacency`` builds the self-looped matrix as COO from the edge
list, converts it to CSR and sorts the indices;
``distpoison.graph.normalize_adjacency`` builds the CSR arrays from the
graph's sorted rows and must return identical arrays.

``sample_1hop`` walks each member's neighbors in Python, one dict lookup per
entry; ``distpoison.graph.sample_1hop`` gathers the members' rows at once and
must return the same subgraph, its edges in the same order.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from distpoison.graph import Graph, GraphError


def build_graph(edge_list, features, labels, splits=((), (), ())):
    """The graph of ``edge_list``, walked one edge and one split id at a time."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise GraphError("features must be a nonempty (num_nodes, dim) matrix")
    num_nodes = features.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (num_nodes,):
        raise GraphError(
            f"labels shape {labels.shape} does not match num_nodes={num_nodes}"
        )

    dropped = 0
    pairs = set()
    for i, j in edge_list:
        i, j = int(i), int(j)
        if not (0 <= i < num_nodes and 0 <= j < num_nodes):
            raise GraphError(f"edge ({i}, {j}) references a node id >= {num_nodes}")
        if i == j:
            dropped += 1
            continue
        pairs.add((min(i, j), max(i, j)))
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s) from input edge list")

    masks = []
    seen = set()
    for name, ids in zip(("train", "val", "test"), splits):
        mask = np.zeros(num_nodes, dtype=bool)
        for node in ids:
            node = int(node)
            if not 0 <= node < num_nodes:
                raise GraphError(f"{name} split references node id {node} out of range")
            if node in seen:
                raise GraphError(f"node {node} appears in more than one split")
            seen.add(node)
            mask[node] = True
        masks.append(mask)

    if pairs:
        e = np.array(sorted(pairs), dtype=np.int64)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.searchsorted(rows, np.arange(num_nodes + 1)).astype(np.int64)
        indices = cols
    else:
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)

    return Graph(
        num_nodes, indptr, indices, features, labels, *masks, dropped_self_loops=dropped
    )


def normalize_adjacency(g):
    """The normalized CSR matrix of ``g``."""
    deg_sl = g.degrees().astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg_sl)
    e = g.edge_array()
    diag = np.arange(g.num_nodes)
    rows = np.concatenate([e[:, 0], e[:, 1], diag])
    cols = np.concatenate([e[:, 1], e[:, 0], diag])
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    m = sp.coo_matrix((vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes)).tocsr()
    m.sort_indices()
    return m


def generate_sbm(seed, block_sizes, p_intra, p_inter, feature_dim, noise,
                 train_frac=0.3, val_frac=0.2):
    block_sizes = list(block_sizes)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes).astype(np.int64)
    n = len(labels)

    u = rng.random((n, n))
    prob = np.where(labels[:, None] == labels[None, :], p_intra, p_inter)
    iu, ju = np.triu_indices(n, k=1)
    keep = u[iu, ju] < prob[iu, ju]
    edges = np.column_stack([iu[keep], ju[keep]])

    features = noise * rng.standard_normal((n, feature_dim))
    features[np.arange(n), labels] += 1.0

    train, val = [], []
    for b in range(len(block_sizes)):
        members = rng.permutation(np.flatnonzero(labels == b))
        n_train = int(round(train_frac * len(members)))
        n_val = int(round(val_frac * len(members)))
        train.extend(members[:n_train])
        val.extend(members[n_train : n_train + n_val])
    test = sorted(set(range(n)) - set(train) - set(val))
    return build_graph(edges, features, labels, (train, val, test))


def sample_1hop(g, target):
    """The target's 1-hop subgraph as its node ids, edges, features and
    labels, its members' neighbor lists walked in turn."""
    if not 0 <= target < g.num_nodes:
        raise GraphError(f"target node {target} out of range")
    neigh = g.neighbors(target)
    node_ids = np.concatenate([[target], neigh]).astype(np.int64)
    local_of = {int(v): k for k, v in enumerate(node_ids)}
    edges = []
    for li, v in enumerate(node_ids):
        for w in g.neighbors(int(v)):
            lw = local_of.get(int(w))
            if lw is not None and li < lw:
                edges.append((li, lw))
    edges = np.array(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    return SimpleNamespace(
        node_ids=node_ids,
        edges=edges,
        features=g.features[node_ids].copy(),
        labels=g.labels[node_ids].copy(),
    )
