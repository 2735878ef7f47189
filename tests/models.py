"""Simplicial models shared by the tests: grid tori and seeded relabellings."""
import random

from einfty.simplicial import FaceRef, SimplicialSet


def grid_torus(n: int) -> SimplicialSet:
    """n x n grid torus with two ordered triangles per square."""
    def v(i, j):
        return f"v{i % n}_{j % n}"

    simplices = {0: [], 1: [], 2: []}
    faces = {}
    for i in range(n):
        for j in range(n):
            simplices[0].append(v(i, j))
            for kind, end in (("h", v(i + 1, j)), ("u", v(i, j + 1)),
                              ("d", v(i + 1, j + 1))):
                simplices[1].append(f"{kind}{i}_{j}")
                faces[f"{kind}{i}_{j}"] = (FaceRef((), end), FaceRef((), v(i, j)))
            i1, j1 = (i + 1) % n, (j + 1) % n
            simplices[2] += [f"L{i}_{j}", f"U{i}_{j}"]
            faces[f"L{i}_{j}"] = tuple(FaceRef((), e) for e in
                                       (f"u{i1}_{j}", f"d{i}_{j}", f"h{i}_{j}"))
            faces[f"U{i}_{j}"] = tuple(FaceRef((), e) for e in
                                       (f"h{i}_{j1}", f"d{i}_{j}", f"u{i}_{j}"))
    return SimplicialSet(simplices, faces)


def relabel(x: SimplicialSet, seed: int) -> SimplicialSet:
    """The same simplicial set with its cells renamed and reordered."""
    rng = random.Random(seed)
    names = [n for d in sorted(x.simplices) for n in x.names(d)]
    ids = list(range(len(names)))
    rng.shuffle(ids)
    new = {n: f"c{i}" for n, i in zip(names, ids)}
    simplices = {}
    for d in sorted(x.simplices):
        cells = [new[n] for n in x.names(d)]
        rng.shuffle(cells)
        simplices[d] = cells
    faces = {new[n]: tuple(FaceRef(f.word, new[f.target]) for f in refs)
             for n, refs in x.faces.items()}
    return SimplicialSet(simplices, faces)
