import numpy as np
import pytest

from distpoison.graph import GraphError
from distpoison.io import (
    load_edge_list,
    load_features_csv,
    load_graph,
    load_splits_json,
)


def write_dataset(tmp_path, edges_text, features_text, splits_text):
    e = tmp_path / "edges.txt"
    f = tmp_path / "nodes.csv"
    s = tmp_path / "splits.json"
    e.write_text(edges_text)
    f.write_text(features_text)
    s.write_text(splits_text)
    return e, f, s


class TestLoaders:
    def test_edge_list_with_comments(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# header comment\n0\t1\n1\t2  # trailing\n\n2\t0\n")
        assert load_edge_list(p) == [(0, 1), (1, 2), (2, 0)]

    def test_edge_list_malformed(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0\t1\t2\n")
        with pytest.raises(ValueError, match="edges.txt:1"):
            load_edge_list(p)

    def test_features_csv(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("node_id,f0,f1,label\n1,0.5,1.5,1\n0,-1.0,2.0,0\n")
        features, labels = load_features_csv(p)
        np.testing.assert_allclose(features, [[-1.0, 2.0], [0.5, 1.5]])
        np.testing.assert_array_equal(labels, [0, 1])

    def test_features_csv_bad_header(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,f0,label\n0,1.0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_features_csv(p)

    def test_features_csv_gap_in_ids(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("node_id,f0,label\n0,1.0,0\n2,1.0,0\n")
        with pytest.raises(ValueError, match="cover"):
            load_features_csv(p)

    def test_splits_json_missing_key(self, tmp_path):
        p = tmp_path / "splits.json"
        p.write_text('{"train": [0], "val": [1]}')
        with pytest.raises(ValueError, match="test"):
            load_splits_json(p)

    def test_splits_json_not_an_object(self, tmp_path):
        p = tmp_path / "splits.json"
        p.write_text("[[0], [1], [2]]")
        with pytest.raises(ValueError, match="expected an object"):
            load_splits_json(p)

    def test_full_graph_load(self, tmp_path):
        e, f, s = write_dataset(
            tmp_path,
            "0\t1\n1\t2\n",
            "node_id,f0,f1,label\n0,1.0,0.0,0\n1,0.0,1.0,1\n2,1.0,1.0,1\n",
            '{"train": [0, 1], "val": [], "test": [2]}',
        )
        g = load_graph(e, f, s)
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert list(np.flatnonzero(g.train_mask)) == [0, 1]
        assert list(np.flatnonzero(g.test_mask)) == [2]

    def test_negative_label_rejected(self, tmp_path):
        e, f, s = write_dataset(
            tmp_path,
            "0\t1\n1\t2\n",
            "node_id,f0,label\n0,1.0,0\n1,0.0,1\n2,1.0,-1\n",
            '{"train": [0, 1], "val": [], "test": [2]}',
        )
        with pytest.raises(GraphError, match="node 2 has negative label -1"):
            load_graph(e, f, s)
