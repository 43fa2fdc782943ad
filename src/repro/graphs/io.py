"""Minimal edge-list serialization.

Format: a header line ``# nodes <n>`` followed by one ``u v w`` line per
edge.  Used by the examples to persist generated workloads so experiment
runs can be replayed byte-identically.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph, refused_edges

PathLike = Union[str, "os.PathLike[str]"]


def write_edgelist(g: Graph, path: PathLike) -> None:
    """Write ``g`` to ``path`` in the edge-list format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes {g.n}\n")
        for u, v, w in g.edges():
            fh.write(f"{u} {v} {w:.12g}\n")


def read_edgelist(path: PathLike) -> Graph:
    """Read a graph previously written by :func:`write_edgelist`; a bad
    line, or an edge a graph refuses, is a :class:`GraphError` naming
    ``PATH:LINE``."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if (len(header) != 3 or header[:2] != ["#", "nodes"]
                or not header[2].isdecimal() or int(header[2]) < 1):
            raise GraphError(f"{path}: malformed header {' '.join(header)!r}")
        n = int(header[2])
        us, vs, ws, lines = [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            try:
                if parts := line.split():
                    u, v, w = parts
                    us.append(int(u))
                    vs.append(int(v))
                    ws.append(float(w))
                    lines.append(lineno)
            except ValueError:
                raise GraphError(f"{path}:{lineno}: expected 'u v w'") from None
    try:
        return Graph.from_arrays(n, us, vs, ws)
    except GraphError as exc:  # name the line of the edge it refused
        bad = refused_edges(n, *map(np.asarray, (us, vs, ws)))
        raise GraphError(f"{path}:{lines[bad.argmax()]}: {exc}") from None
