"""File formats: graph loading.

Graphs load from three files: a text edge list (``src<TAB>dst`` per line,
``#`` comments), a features/labels CSV with header ``node_id,f0..f{d-1},label``,
and a splits JSON with "train"/"val"/"test" node-id lists.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from distpoison.graph import Graph, GraphError, build_graph

__all__ = [
    "load_edge_list",
    "load_features_csv",
    "load_splits_json",
    "load_graph",
]


def load_edge_list(path) -> list[tuple[int, int]]:
    edges = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'src<TAB>dst', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return edges


def load_features_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (features, labels) of a CSV whose header is
    ``node_id,f0..f{d-1},label`` with d >= 1 and whose every row holds one
    cell per header column; errors in a row name ``path:line``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:1] != ["node_id"] or header[-1:] != ["label"] or len(header) < 3:
            raise ValueError(
                f"{path}: header must be node_id,f0..f{{d-1}},label with at least one "
                f"feature column, got {header}"
            )
        dim = len(header) - 2
        rows = {}
        for rec in reader:
            if not rec:
                continue
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(header):
                raise ValueError(f"{where}: expected {len(header)} cells (node_id, {dim} "
                                 f"features, label), got {len(rec)}")
            try:
                node, label = int(rec[0]), int(rec[-1])
                feat = np.array(rec[1:-1], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if node in rows:
                raise ValueError(f"{where}: duplicate node_id {node}")
            rows[node] = (feat, label)
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise ValueError(f"{path}: node ids must cover 0..{n - 1} exactly")
    features = np.zeros((n, dim))
    labels = np.zeros(n, dtype=np.int64)
    for node, (feat, label) in rows.items():
        features[node] = feat
        labels[node] = label
    return features, labels


def load_splits_json(path) -> tuple[list[int], list[int], list[int]]:
    """The (train, val, test) node-id lists; each must be a flat JSON list of
    integers (``true`` and ``1.5`` are not node ids)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object of train/val/test lists")
    missing = {"train", "val", "test"} - set(data)
    if missing:
        raise ValueError(f"{path}: missing split keys {sorted(missing)}")
    for name in ("train", "val", "test"):
        ids = data[name]
        if not isinstance(ids, list):
            raise ValueError(f"{name} split must be a list of node ids, got {json.dumps(ids)}")
        for v in ids:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{name} split lists {json.dumps(v)}, not an integer node id")
    return data["train"], data["val"], data["test"]


def load_graph(edges_path, features_path, splits_path) -> Graph:
    """The graph the three files describe.

    Invalid content raises ``GraphError`` whose ``source`` names the file at
    fault: "edges", "features" or "splits".
    """
    source = "features"
    try:
        features, labels = load_features_csv(features_path)
        source = "edges"
        edges = load_edge_list(edges_path)
        source = "splits"
        splits = load_splits_json(splits_path)
    except ValueError as exc:
        raise GraphError(str(exc), source) from exc
    return build_graph(edges, features, labels, splits)
