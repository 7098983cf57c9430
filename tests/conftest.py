import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from distpoison.graph import build_graph


def make_graph(num_nodes, edges, feature_dim=2, features=None, labels=None, splits=((), (), ())):
    if features is None:
        features = np.zeros((num_nodes, feature_dim))
    if labels is None:
        labels = np.zeros(num_nodes, dtype=np.int64)
    return build_graph(edges, features, labels, splits)


def scipy_csr(m):
    """The ``CSR`` m as a scipy matrix: tests read the normalized adjacency,
    and oracles multiply by it, through scipy rather than ``CSR @ M``."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def dense_normalized(g):
    """Independent dense construction of the self-looped normalization."""
    a = np.zeros((g.num_nodes, g.num_nodes))
    for i, j in g.edge_array():
        a[i, j] = a[j, i] = 1.0
    a += np.eye(g.num_nodes)
    d = a.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(d))
    return dinv @ a @ dinv


def random_instance(seed, n=12, p=0.35, feature_dim=6, num_classes=3, hidden=8):
    """Seeded random graph + GCN weights for gradient and forward tests."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    features = rng.standard_normal((n, feature_dim))
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    g = build_graph(edges, features, labels)
    return g, rng


# Graph edit scripts for property tests: (op, k) pairs, k picking the edge.
edit_ops = st.lists(
    st.tuples(st.sampled_from(["remove", "add", "copy"]), st.integers(0, 10**6)),
    max_size=12,
)


def random_edit_script(g, ops):
    """Yield ``g`` as it stands before and after each edit of ``ops``.

    Each removal and addition replaces the CSR arrays; ``copy`` starts a
    graph that shares them.
    """
    yield g
    for op, k in ops:
        if op == "remove" and g.num_edges:
            i, j = g.edge_array()[k % g.num_edges]
            g.remove_edge(int(i), int(j))
        elif op == "add":
            absent = [
                (i, j)
                for i in range(g.num_nodes)
                for j in range(i + 1, g.num_nodes)
                if not g.has_edge(i, j)
            ]
            if absent:
                g.add_edge(*absent[k % len(absent)])
        elif op == "copy":
            g = g.copy()
        yield g
