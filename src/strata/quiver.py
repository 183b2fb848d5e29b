"""Bound quiver presentations and their compilation to structure constants.

Conventions (used across the whole package): arrows compose right to left, so
in a product x*y the factor y acts first.  A path literal is a sequence of
arrow names in *written* order -- ["a", "b"] denotes a∘b, apply b first -- and
is composable when each arrow's source matches the next one's target, read
right to left.  The trivial path at vertex v is a basis idempotent named
"e_v"; a nontrivial path is named by joining its arrow names with "*".

Compilation works in the truncated path space of all paths of length at most
max_path_length (plus the length spread of any inhomogeneous relation), spans
the two-sided ideal generated by the relations there, and demands that every
path of maximal length reduces to zero.  That check certifies rad^L ⊆ I, which
makes the truncation exact: the surviving coordinates are path representatives
of length < L and any concatenation reaching length L is zero in the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InputError,
    InvariantViolation,
    MalformedRelation,
    NotFiniteDimensionalWithinBound,
    NotInSubspace,
)

PATH_COUNT_GUARD = 40000


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class QuiverPresentation:
    vertices: tuple
    arrows: tuple  # of Arrow
    relations: tuple  # of tuple of (coeff, tuple-of-arrow-names in written order)
    max_path_length: int

    @classmethod
    def make(cls, vertices, arrows, relations, max_path_length):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex labels")
        arrs = []
        for a in arrows:
            name, src, tgt = a
            arrs.append(Arrow(str(name), str(src), str(tgt)))
        names = [a.name for a in arrs]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        for a in arrs:
            if "*" in a.name or a.name.startswith("e_"):
                raise InputError(f"illegal arrow name {a.name!r}")
            if a.source not in vertices or a.target not in vertices:
                raise InputError(f"arrow {a.name} has unknown endpoint")
        rels = tuple(
            tuple((coeff, tuple(str(n) for n in path)) for coeff, path in rel) for rel in relations
        )
        if max_path_length < 1:
            raise InputError("max_path_length must be >= 1")
        return cls(vertices, arrs_tuple := tuple(arrs), rels, int(max_path_length))

    def arrow_by_name(self):
        return {a.name: a for a in self.arrows}

    def path_endpoints(self, path):
        """(source, target) of a written-order arrow-name sequence; checks composability."""
        amap = self.arrow_by_name()
        seq = [amap.get(n) for n in path]
        if any(a is None for a in seq):
            missing = [n for n in path if n not in amap]
            raise MalformedRelation(f"unknown arrow(s) {missing}")
        # written order: path[k] is applied after path[k+1]
        for k in range(len(seq) - 1):
            if seq[k].source != seq[k + 1].target:
                raise MalformedRelation(f"path {'*'.join(path)} is not composable")
        return seq[-1].source, seq[0].target

    def validate(self):
        for rel in self.relations:
            if not rel:
                raise MalformedRelation("empty relation")
            ends = set()
            for coeff, path in rel:
                if len(path) < 2:
                    raise MalformedRelation("relation contains a path of length < 2")
                ends.add(self.path_endpoints(path))
            if len(ends) != 1:
                raise MalformedRelation("terms of one relation must share source and target")

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [[a.name, a.source, a.target] for a in self.arrows],
            "relations": [
                [[str(coeff), list(path)] for coeff, path in rel] for rel in self.relations
            ],
            "max_path_length": self.max_path_length,
        }


class _Path:
    __slots__ = ("source", "target", "arrows", "index")

    def __init__(self, source, target, arrows, index):
        self.source = source
        self.target = target
        self.arrows = arrows  # tuple of arrow names in application order
        self.index = index

    def name(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed(self.arrows))


def enumerate_paths(pres: QuiverPresentation, upto: int):
    """All paths of length <= upto, indexed by (length, creation order)."""
    paths = []
    index = {}

    def add(source, target, arrows):
        p = _Path(source, target, arrows, len(paths))
        paths.append(p)
        index[(source,) + arrows] = p.index
        return p

    for v in pres.vertices:
        add(v, v, ())
    by_source = {}
    for a in pres.arrows:
        by_source.setdefault(a.source, []).append(a)
    frontier = list(paths)
    for _ in range(upto):
        new = []
        for p in frontier:
            for a in by_source.get(p.target, []):
                q = add(p.source, a.target, p.arrows + (a.name,))
                new.append(q)
                if len(paths) > PATH_COUNT_GUARD:
                    raise InputError("path enumeration exceeds guard; quiver too wild for the bound")
        frontier = new
    return paths, index


def compile_presentation(pres: QuiverPresentation, fld):
    """Return the raw compilation data used by algebra.compile_quiver.

    Output: (paths, ideal subspace in the truncated path space, representative
    path indices, work bound).
    """
    from .kernel.matrix import Matrix
    from .kernel.subspace import Subspace

    pres.validate()
    L = pres.max_path_length
    spread = 0
    for rel in pres.relations:
        lens = [len(path) for _, path in rel]
        spread = max(spread, max(lens) - min(lens))
    L_work = L + spread

    paths, index = enumerate_paths(pres, L_work)
    n = len(paths)
    by_target = {}
    by_source = {}
    for p in paths:
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)

    gens = []
    for rel in pres.relations:
        ends = pres.path_endpoints(rel[0][1])
        rsrc, rtgt = ends
        maxlen = max(len(path) for _, path in rel)
        # q is applied before the relation, p after it
        for q in by_target.get(rsrc, []):
            for p in by_source.get(rtgt, []):
                if len(q.arrows) + maxlen + len(p.arrows) > L_work:
                    continue
                vec = [fld.zero] * n
                for coeff, wpath in rel:
                    arrows = q.arrows + tuple(reversed(wpath)) + p.arrows
                    idx = index[(q.source,) + arrows]
                    vec[idx] = fld.add(vec[idx], fld.coerce(coeff))
                gens.append(vec)

    ideal = Subspace.from_rows(fld, n, gens)

    # finite-dimensionality witness: every path of length in [L, L_work] dies
    long_paths = [p for p in paths if L <= len(p.arrows) <= L_work]
    if long_paths:
        units = []
        for p in long_paths:
            v = [0] * n
            v[p.index] = 1
            units.append(v)
        try:
            ideal.coordinates(Matrix.from_columns(fld, units, nrows=n))
        except NotInSubspace:
            p = next(p for p, v in zip(long_paths, units) if not ideal.contains(v))
            raise NotFiniteDimensionalWithinBound(
                f"path {p.name()} of length {len(p.arrows)} survives modulo the relations"
            ) from None

    reps = ideal.complement_coords()
    if any(len(paths[i].arrows) >= L for i in reps):
        raise InvariantViolation("a path of length >= max_path_length represents a basis element")
    return paths, ideal, reps, L_work
