"""Mesh oracles for the acceptance and surface tests (test-only)."""

import numpy as np


def connected_components(mesh) -> int:
    """Number of connected components among referenced vertices, by a
    union-find over the triangles' edges."""
    if len(mesh.triangles) == 0:
        return 0
    parent = list(range(len(mesh.vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b, c in mesh.triangles.tolist():
        for u, v in ((a, b), (b, c)):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    roots = {find(v) for tri in mesh.triangles.tolist() for v in tri}
    return len(roots)


def surface_area(mesh) -> float:
    """Sum of the triangle areas, half the norm of each edge cross product."""
    a, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())
