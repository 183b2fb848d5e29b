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

The ideal is spanned by the products u·ρ·v of a relation ρ with paths u and v,
and every path in u·ρ·v runs from the source of v to the target of u.  So the
ideal is the direct sum of its parts in the (source, target) blocks of the path
space.  Each block's generators are eliminated on their own, as sparse integer
rows, and the RREF of the ideal is the union of the blocks' RREF rows sorted by
pivot: the RREF is unique, so the pivots, the representatives and the ideal
are those of one elimination of all the generators together.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import lcm

from .errors import (
    InputError,
    InvariantViolation,
    MalformedRelation,
    NotFiniteDimensionalWithinBound,
    NotInSubspace,
)
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace

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
    pres.validate()
    L = pres.max_path_length
    spread = 0
    for rel in pres.relations:
        lens = [len(path) for _, path in rel]
        spread = max(spread, max(lens) - min(lens))
    L_work = L + spread

    paths, index = enumerate_paths(pres, L_work)
    n = len(paths)
    # paths come in order of length, so each list below is too
    by_target = {}
    by_source = {}
    blocks = {}  # (source, target) -> its paths' indices, increasing
    local = []  # path index -> position in its block
    for p in paths:
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)
        block = blocks.setdefault((p.source, p.target), [])
        local.append(len(block))
        block.append(p.index)
    # fits[v][m]: how many paths from v have length <= m
    fits = {}
    for v, ps in by_source.items():
        lens = [len(p.arrows) for p in ps]
        fits[v] = [bisect_right(lens, m) for m in range(L_work + 1)]

    char = fld.char
    gens = {}  # (source, target) -> generator rows (local columns, integers), deduplicated
    for rel in pres.relations:
        rsrc, rtgt = pres.path_endpoints(rel[0][1])
        maxlen = max(len(path) for _, path in rel)
        terms = _integer_terms(fld, rel)
        for q in by_target.get(rsrc, []):
            room = L_work - maxlen - len(q.arrows)
            if room < 0:
                break
            # q is applied before the relation, p after it
            for p in by_source.get(rtgt, [])[: fits[rtgt][room]]:
                row = {}
                for c, wpath in terms:
                    idx = index[(q.source,) + q.arrows + wpath + p.arrows]
                    row[idx] = row.get(idx, 0) + c
                if char:
                    row = {j: x % char for j, x in row.items()}
                where = sorted([j for j, x in row.items() if x])
                if where:
                    key = (tuple([local[j] for j in where]), tuple([row[j] for j in where]))
                    gens.setdefault((q.source, p.target), {})[key] = None

    ideal = _block_sum(fld, n, [(blocks[b], list(rows)) for b, rows in gens.items()])

    # finite-dimensionality witness: every path of length in [L, L_work] dies
    long_paths = [p for p in paths if L <= len(p.arrows) <= L_work]
    if long_paths:
        units = [None] * n  # column k is the unit vector of the k-th long path
        for k, p in enumerate(long_paths):
            units[p.index] = ((k,), (1,))
        U = Matrix.from_integers(fld, n, len(long_paths), units)
        try:
            ideal.coordinates(U)
        except NotInSubspace:
            k = next(k for k in range(U.cols) if not ideal.contains_columns(U.take_cols([k])))
            p = long_paths[k]
            raise NotFiniteDimensionalWithinBound(
                f"path {p.name()} of length {len(p.arrows)} survives modulo the relations"
            ) from None

    reps = ideal.complement_coords()
    if any(len(paths[i].arrows) >= L for i in reps):
        raise InvariantViolation("a path of length >= max_path_length represents a basis element")
    return paths, ideal, reps, L_work


def _integer_terms(fld, rel):
    """The terms of a relation as (integer, arrows in application order), scaled
    by one common denominator over Q (a multiple spans the same ideal)."""
    coeffs = [fld.coerce(c) for c, _ in rel]
    if not fld.char:
        den = lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    return [(c, tuple(reversed(wpath))) for c, (_, wpath) in zip(coeffs, rel)]


def _block_sum(fld, n, blocks):
    """The subspace of k^n spanned by the generator rows of each block.

    blocks: (the block's ambient columns, increasing; its rows in local
    columns).  The blocks' columns are disjoint, so the RREF of the sum is the
    union of the blocks' RREF rows, sorted by pivot, over a common denominator.
    """
    rows = []  # (pivot, columns, integers, denominator)
    for cols, gens in blocks:
        R, pivots = Matrix.from_integers(fld, len(gens), len(cols), gens).rref()
        for r, pc in zip(R.nonzeros, pivots):
            rows.append((cols[pc], tuple([cols[j] for j in r[0]]), r[1], R.den))
    if not rows:
        return Subspace.zero(fld, n)
    rows.sort()
    den = lcm(*(d for *_, d in rows))
    basis = Matrix.from_integers(fld, len(rows), n, [(w, tuple([x * (den // d) for x in v])) for _, w, v, d in rows],
                                 den)
    return Subspace(fld, n, basis, [pc for pc, *_ in rows])
