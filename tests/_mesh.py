"""Mesh topology oracle for the acceptance and surface tests (test-only)."""


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
