"""Decomposition-multiplicity matrices and the rank-two reference data.

The square integer matrix V of a quasi-hereditary (A, poset) is defined row by
row along a linear extension:

    v_i = eps_i + sum_{k <= j < i} [Nabla_j : L_k] dim Hom(Delta_j, Delta_i) v_k
                - sum_{j < i} [Delta_i : L_j] v_j

Its row sums ell_i are the multiplicities of the Morita representative with a
basic regular directed splitting subalgebra, and V x = (dim L_i) having a
positive integer solution decides which representatives carry one.  The
recursion's input (the three multiplicity tables) may come from an algebra or
from user-supplied files; Kazhdan-Lusztig-type data for the rank-two Weyl
groups is never fabricated -- only the product case where every relevant
multiplicity is 1 ships built in, plus Bruhat posets and the closed reference
formula for expected multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantViolation, NotQuasiHereditary, UnsupportedField
from .memo import derived
from .modules import comp_mult, hom_basis
from .strat import YES, LabelPoset, strat_datum


@dataclass
class MultTables:
    poset: LabelPoset
    costd_comp: dict  # (j, k) -> [Nabla_j : L_k]
    hom_std: dict  # (j, i) -> dim Hom(Delta_j, Delta_i)
    std_comp: dict  # (i, j) -> [Delta_i : L_j]

    def validate(self):
        labels = self.poset.labels
        for i in labels:
            if self.costd_comp.get((i, i), 0) != 1:
                raise InputError(f"[Nabla_{i} : L_{i}] must be 1")
            if self.std_comp.get((i, i), 0) != 1:
                raise InputError(f"[Delta_{i} : L_{i}] must be 1")
        for (j, k), v in self.costd_comp.items():
            if v < 0 or (v and not self.poset.leq(k, j)):
                raise InputError(f"costandard table violates triangularity at ({j},{k})")
        for (i, j), v in self.std_comp.items():
            if v < 0 or (v and not self.poset.leq(j, i)):
                raise InputError(f"standard table violates triangularity at ({i},{j})")
        for (_, _), v in self.hom_std.items():
            if v < 0:
                raise InputError("hom table entries must be nonnegative")

    def to_json(self):
        labels = list(self.poset.labels)
        def grid(d):
            return [[d.get((a, b), 0) for b in labels] for a in labels]
        return {
            "labels": labels,
            "poset": [list(p) for p in self.poset.cover_pairs()],
            "costd_comp": grid(self.costd_comp),
            "hom_std": grid(self.hom_std),
            "std_comp": grid(self.std_comp),
        }

    @classmethod
    def from_json(cls, obj):
        labels = [str(l) for l in obj["labels"]]
        poset = LabelPoset(labels, [tuple(p) for p in obj["poset"]])
        def undict(grid):
            return {(labels[a], labels[b]): int(grid[a][b])
                    for a in range(len(labels)) for b in range(len(labels)) if grid[a][b]}
        t = cls(poset, undict(obj["costd_comp"]), undict(obj["hom_std"]), undict(obj["std_comp"]))
        t.validate()
        return t

    @classmethod
    def all_ones(cls, poset):
        """Every allowed multiplicity equal to one (the built-in product case)."""
        costd = {(j, k): 1 for j in poset.labels for k in poset.labels if poset.leq(k, j)}
        hom = {(j, i): 1 for j in poset.labels for i in poset.labels if poset.leq(j, i)}
        std = {(i, j): 1 for i in poset.labels for j in poset.labels if poset.leq(j, i)}
        return cls(poset, costd, hom, std)


@dataclass
class VMatrix:
    labels: tuple
    rows: dict  # label -> dict label -> int
    extension: tuple  # linear extension used (ascending)

    def entry(self, i, j):
        return self.rows[i].get(j, 0)

    def row_sum(self, i):
        return sum(self.rows[i].values())

    def as_grid(self):
        return [[self.entry(i, j) for j in self.labels] for i in self.labels]

    def first_subdiagonal(self):
        ext = list(self.extension)
        return [self.entry(ext[k + 1], ext[k]) for k in range(len(ext) - 1)]

    def to_json(self):
        return {"labels": list(self.labels), "matrix": self.as_grid(),
                "extension": list(self.extension),
                "first_subdiagonal": self.first_subdiagonal()}


def _recurse(tables: MultTables, extension):
    poset = tables.poset
    v = {}
    for i in extension:
        vec = {i: 1}
        for j in poset.labels:
            if not poset.lt(j, i):
                continue
            h = tables.hom_std.get((j, i), 0)
            if h:
                for k in poset.labels:
                    if poset.leq(k, j):
                        c = tables.costd_comp.get((j, k), 0)
                        if c:
                            for lab, val in v[k].items():
                                vec[lab] = vec.get(lab, 0) + c * h * val
            d = tables.std_comp.get((i, j), 0)
            if d:
                for lab, val in v[j].items():
                    vec[lab] = vec.get(lab, 0) - d * val
        v[i] = {lab: val for lab, val in vec.items() if val}
    return v


def v_matrix_from_tables(tables: MultTables) -> VMatrix:
    tables.validate()
    poset = tables.poset
    ext = poset.linear_extension()
    v = _recurse(tables, ext)
    ext2 = poset.second_linear_extension()
    if tuple(ext2) != tuple(ext):
        v2 = _recurse(tables, ext2)
        if v2 != v:
            raise InputError("recursion output depends on the linear extension; tables are inconsistent")
    V = VMatrix(poset.labels, v, tuple(ext))
    _check_unitriangular(V, poset)
    return V


def _check_unitriangular(V: VMatrix, poset):
    for i in V.labels:
        if V.entry(i, i) != 1:
            raise InputError(f"diagonal entry at {i} is {V.entry(i, i)}, not 1")
        for j, val in V.rows[i].items():
            if val < 0:
                raise InputError(f"negative entry {val} at ({i},{j})")
            if val and not poset.leq(j, i):
                raise InputError(f"entry at ({i},{j}) violates triangularity")


def tables_from_algebra(A, poset) -> MultTables:
    """The three multiplicity tables of (A, poset), read once per order: they are
    kept on its StratDatum."""
    if A.field.char != 0:
        raise UnsupportedField("multiplicity matrices are computed over characteristic 0 only")
    sd = strat_datum(A, poset)
    return derived(sd, ("mult-tables",), _read_tables, sd)


def _read_tables(sd) -> MultTables:
    A = sd.A
    if sd.quasi_hereditary() != YES:
        raise NotQuasiHereditary("multiplicity matrices require a verified quasi-hereditary input")
    costd, hom, std = {}, {}, {}
    for j in A.labels:
        for k in A.labels:
            c = comp_mult(sd.nabla[j], k)
            if c:
                costd[(j, k)] = c
            d = comp_mult(sd.delta[j], k)
            if d:
                std[(j, k)] = d
        for i in A.labels:
            h = len(hom_basis(sd.delta[j], sd.delta[i]))
            if h:
                hom[(j, i)] = h
    return MultTables(sd.poset, costd, hom, std)


def v_matrix_from_algebra(A, poset) -> VMatrix:
    return v_matrix_from_tables(tables_from_algebra(A, poset))


def ell(V: VMatrix) -> dict:
    """Row sums: the multiplicity vector of the representative carrying a
    basic regular directed splitting subalgebra."""
    return {i: V.row_sum(i) for i in V.labels}


def regular_borel_existence(V: VMatrix, dims: dict):
    """Positive integer solution x of V x = dims, or None.

    Back-substitution along the linear extension; integrality is automatic
    from unitriangularity.  x is the Morita multiplicity vector of the
    representative that carries a basic regular splitting subalgebra.
    """
    x = {}
    for i in V.extension:
        s = dims[i]
        for j, val in V.rows[i].items():
            if j != i:
                s -= val * x[j]
        x[i] = s
    for i in V.labels:
        acc = sum(V.rows[i].get(j, 0) * x[j] for j in V.labels)
        if acc != dims[i]:
            raise InvariantViolation("back-substituted multiplicities do not reproduce the dimensions")
    if all(val > 0 for val in x.values()):
        return x
    return None


def det_is_one(V: VMatrix):
    # unitriangular w.r.t. the extension order, so the determinant is the
    # diagonal product
    return all(V.entry(i, i) == 1 for i in V.labels)


def block_structure_check(A, poset, e_vec):
    """Block-triangularity of V under a compatible idempotent.

    Reordered by (complement of support, support), the matrix must be block
    lower triangular with diagonal blocks the quotient's and corner's V.
    Row-sum consequences of that shape: off the support the zero upper-right
    block forces ell_i(A) = ell_i(quotient); on the support the lower-left
    block only bounds, ell_i(A) >= ell_i(corner).
    """
    from .compat import compatibility_battery

    rep = compatibility_battery(A, poset, e_vec)
    if not (rep.conds[4] == YES and rep.conds[5] == YES):
        raise InputError("idempotent is not compatible with the quasi-hereditary structure")
    supp = list(rep.support)
    rest = [l for l in A.labels if l not in set(supp)]
    V = v_matrix_from_algebra(A, poset)
    corner, _ = A.corner(A.coerce_vec(e_vec))
    Vc = v_matrix_from_algebra(corner, poset.restrict(supp))
    out = {"support": supp, "block_form": True, "diagonal_blocks_match": True,
           "ell_quotient_equal": True, "ell_corner_bounded": True}
    if rest:
        quot, _ = A.quotient_by_idempotent_ideal(A.coerce_vec(e_vec))
        Vq = v_matrix_from_algebra(quot, poset.restrict(rest))
    else:
        Vq = None
    for i in rest:
        for j in supp:
            if V.entry(i, j):
                out["block_form"] = False
    for i in rest:
        for j in rest:
            if V.entry(i, j) != (Vq.entry(i, j) if Vq else 0):
                out["diagonal_blocks_match"] = False
    for i in supp:
        for j in supp:
            if V.entry(i, j) != Vc.entry(i, j):
                out["diagonal_blocks_match"] = False
    eA = ell(V)
    eC = ell(Vc)
    for i in supp:
        if eA[i] < eC[i]:
            out["ell_corner_bounded"] = False
    if Vq:
        eQ = ell(Vq)
        for i in rest:
            if eA[i] != eQ[i]:
                out["ell_quotient_equal"] = False
    out["ok"] = all(out[k] for k in
                    ("block_form", "diagonal_blocks_match", "ell_quotient_equal", "ell_corner_bounded"))
    return out


# -- rank-two reference data -----------------------------------------------------------


_RANK2_WORDS = {
    "A1": ["e", "s"],
    "A1xA1": ["e", "s1", "s2", "w0"],
    "A2": ["e", "s1", "s2", "s1s2", "s2s1", "s1s2s1"],
    "B2": ["e", "s", "t", "st", "ts", "sts", "tst", "stst"],
    "G2": ["e", "s", "t", "st", "ts", "sts", "tst", "stst", "tsts", "ststs", "tstst", "ststst"],
}

# the one word not spelled in the letters s and t: A1xA1's longest element
_W0_LENGTH = {"w0": 2}


def bruhat_poset(typ):
    """(LabelPoset, heights) for the Weyl groups A1, A1xA1, A2, B2, G2.

    These are dihedral (or a product of two A1), where Bruhat order is graded
    by word length with every shorter element below every longer one; heights
    are the lengths, the number of letters s and t in a word.
    """
    if typ not in _RANK2_WORDS:
        raise InputError(f"unsupported type {typ!r}; choose from {sorted(_RANK2_WORDS)}")
    words = _RANK2_WORDS[typ]
    length = {w: _W0_LENGTH.get(w, w.count("s") + w.count("t")) for w in words}
    pairs = [(a, b) for a in words for b in words if length[a] < length[b]]
    return LabelPoset(words, pairs), length


def reference_ell_formula(typ):
    """Expected multiplicities for the regular blocks of the rank-two types:
    1 on minimal elements, 3^(height-1) elsewhere."""
    if typ not in ("A2", "B2", "G2"):
        raise InputError("reference formula covers A2, B2, G2")
    poset, height = bruhat_poset(typ)
    return {w: (1 if height[w] == 0 else 3 ** (height[w] - 1)) for w in poset.labels}


def builtin_tables(typ) -> MultTables:
    """Built-in tables: only the product case A1xA1 (all multiplicities 1) and
    the trivial A1 are shipped; other types need user-supplied tables."""
    if typ not in ("A1", "A1xA1"):
        raise InputError("built-in tables exist for A1 and A1xA1 only; supply a tables file")
    poset, _ = bruhat_poset(typ)
    return MultTables.all_ones(poset)
