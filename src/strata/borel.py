"""Exact Borel subalgebra verification.

A candidate is a directed subalgebra B of a left stratified (A, poset) given
by an embedding.  The four axioms:

  1  induction A ⊗_B - is exact (A is projective as a right B-module,
     certified by a splitting of its projective cover);
  2  B is left standardly stratified with simple standard modules (every
     composition factor of rad P_i^B has label strictly above i);
  3  A ⊗_B L_i^B is the standard module Delta_i, certified by iso;
  4  End(L_i^A) and End(L_i^B) have equal dimension.

plus the ordering condition (5): Ext^1_B(L_i, L_j) != 0 forces
Ext^1_A(Delta_i, Delta_j) != 0.

Regularity/homologicality compare Ext_B^n(L_i, L_j) with
Ext_A^n(Delta_i, Delta_j) through the canonical chain-level map (identity
tensor f on an induced resolution), not by dimension counting: the induced
resolution has the same shape as the minimal B-resolution with summands
A·ι(e) and differentials ι(m), so both cochain complexes and the comparison
map between them are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation, NotBasic, NotIdempotentSum, NotInSubspace, NotQuasiHereditary, SupportNotCoideal
from .functors import SubalgebraEmbedding
from .homology import global_dimension, hom_cochain, induced_map_profile, resolution
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .modules import (
    Module,
    comp_mult,
    hom_basis,
    injective,
    iso_test,
    projective,
    simple,
)
from .strat import NO, UNDET, YES, LabelPoset, filtration_standard, strat_datum
from .compat import support

DEFAULT_NMAX = 5
GLDIM_CAP = 12


class BorelEmbedding:
    """A subalgebra embedding B -> A paired with the stratified structure of A."""

    def __init__(self, A, poset: LabelPoset, B, emb: Matrix):
        self.A = A
        self.poset = poset
        self.B = B
        self.emb = emb
        self.sub = SubalgebraEmbedding(B, A, emb)
        self.sd = strat_datum(A, poset)
        if set(B.labels) != set(A.labels):
            raise NotIdempotentSum("subalgebra labels do not biject with the ambient labels")
        for v, _ in B.idempotents:
            iv = self.sub.image_vec(v)
            if not A.is_idempotent(iv):
                raise NotIdempotentSum("image of a subalgebra idempotent is not idempotent")
        self._induced = {}

    @classmethod
    def from_generators(cls, A, poset, idem_gens, gens):
        B, emb = A.subalgebra_closure(idem_gens, gens)
        return cls(A, poset, B, emb)

    def induced_standard(self, i):
        """(A ⊗_B L_i^B, insertion L_i^B -> induced)."""
        if i not in self._induced:
            Li = simple(self.B, i)
            self._induced[i] = (self.sub.induce(Li), Li)
        return self._induced[i]


@dataclass
class BorelReport:
    axiom1: str
    axiom2: str
    axiom3: dict  # label -> verdict
    axiom4: dict
    condition5: str
    is_exact_borel: bool
    axiom3_certs: dict = field(default_factory=dict)
    regularity: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "axiom1_induction_exact": self.axiom1,
            "axiom2_directed_simple_standards": self.axiom2,
            "axiom3_induced_simples_are_standards": dict(self.axiom3),
            "axiom4_endomorphism_dims": dict(self.axiom4),
            "condition5_ordering": self.condition5,
            "is_exact_borel": self.is_exact_borel,
        }
        if self.regularity is not None:
            out["regularity"] = self.regularity
        out.update(self.details)
        return out


def check_exact_borel(emb: BorelEmbedding) -> BorelReport:
    A, B, poset = emb.A, emb.B, emb.poset
    left, _ = emb.sd.left_stratified()
    if left != YES:
        raise SupportNotCoideal("ambient algebra must be verified left standardly stratified")

    ok1, section = emb.sub.induction_is_exact()
    axiom1 = YES if ok1 else NO

    axiom2 = YES
    for i in B.labels:
        P = projective(B, i)
        radP, _ = P.submodule(P.radical_subspace())
        for j in B.labels:
            if comp_mult(radP, j) and not poset.lt(i, j):
                axiom2 = NO
    sdB = strat_datum(B, poset)
    if axiom2 == YES:
        if sdB.left_stratified()[0] != YES:
            raise InvariantViolation("B satisfies axiom 2 but is not left standardly stratified")
        if any(sdB.delta[i].dim != sdB.L[i].dim for i in B.labels):
            raise InvariantViolation("B satisfies axiom 2 but a standard module of B is not simple")

    axiom3, certs = {}, {}
    for i in A.labels:
        (ind, insert), _ = emb.induced_standard(i)
        v = iso_test(ind, emb.sd.delta[i])
        axiom3[i] = v.kind if v.kind != "iso" else YES
        if v.kind == "iso":
            certs[i] = v.certificate

    axiom4 = {}
    for i in A.labels:
        da = len(hom_basis(emb.sd.L[i], emb.sd.L[i]))
        db = len(hom_basis(sdB.L[i], sdB.L[i]))
        axiom4[i] = YES if da == db else NO

    from .homology import ext_dim

    condition5 = YES
    for i in A.labels:
        for j in A.labels:
            if ext_dim(sdB.L[i], sdB.L[j], 1) != 0:
                if ext_dim(emb.sd.delta[i], emb.sd.delta[j], 1) == 0:
                    condition5 = NO

    verdicts = [axiom1, axiom2, condition5] + list(axiom3.values()) + list(axiom4.values())
    is_borel = all(v == YES for v in verdicts)
    return BorelReport(axiom1, axiom2, axiom3, axiom4, condition5, is_borel, axiom3_certs=certs)


# -- regularity -------------------------------------------------------------------


def check_regular(emb: BorelEmbedding, n_max=DEFAULT_NMAX, report: BorelReport | None = None):
    """Per-(i,j,n) comparison verdicts plus aggregate regular/homological flags.

    Upgraded to unconditional when every simple B-module has projective
    dimension <= GLDIM_CAP: the induced A-resolutions share that length, so
    all higher Ext vanish on both sides.
    """
    A, B = emb.A, emb.B
    if report is None:
        report = check_exact_borel(emb)
    if not report.is_exact_borel:
        raise InvariantViolation("regularity is checked only for verified exact Borel subalgebras")
    f = A.field
    cells = {}
    regular = True
    homological = True
    for i in B.labels:
        Li = simple(B, i)
        res = resolution(Li).extend_to(n_max + 1)
        layers_B = [res.layer_idempotents(n) for n in range(len(res.layers))]
        layers_A = [[emb.sub.image_vec(e) for e in layer] for layer in layers_B]
        diffs_A = [
            [[emb.sub.image_vec(m) for m in row] for row in grid] for grid in res.element_diffs
        ]
        for j in B.labels:
            Lj = simple(B, j)
            (indj, insertj), _ = emb.induced_standard(j)
            psi = report.axiom3_certs[j]  # induced -> Delta_j
            to_delta = psi * insertj  # L_j^B -> Delta_j
            dims_b, deltas_b, bases_b = hom_cochain(B, layers_B, res.element_diffs, Lj, n_max + 1)
            Dj = emb.sd.delta[j]
            dims_a, deltas_a, bases_a = hom_cochain(A, layers_A, diffs_A, Dj, n_max + 1)
            # verticals[n] is block diagonal: summand u of C^n_B maps into summand u of C^n_A
            verticals = [
                Matrix.block_diagonal(f, [Sa.coordinates(Dj.act(e) * to_delta * Sb.inclusion())
                                          for e, Sa, Sb in zip(layers_A[n], bases_a[n], bases_b[n])])
                for n in range(len(bases_b))
            ]
            for n in range(1, min(len(verticals), len(deltas_b) + 1)):
                # chain map sanity on the spot
                lhs = verticals[n] * deltas_b[n - 1] if n - 1 < len(deltas_b) else None
                rhs = deltas_a[n - 1] * verticals[n - 1] if n - 1 < len(deltas_a) else None
                if lhs is not None and rhs is not None:
                    if lhs != rhs:
                        raise InvariantViolation("comparison is not a cochain map")
            for n in range(1, n_max + 1):
                hb, ha, rank = induced_map_profile(dims_b, deltas_b, dims_a, deltas_a, verticals, n)
                inj = rank == hb
                surj = rank == ha
                cells[(i, j, n)] = {"dim_sub": hb, "dim_ambient": ha, "injective": inj, "surjective": surj}
                if not (inj and surj):
                    regular = False
                if n == 1 and not surj:
                    homological = False
                if n >= 2 and not (inj and surj):
                    homological = False
    pd_cap = global_dimension(B, GLDIM_CAP)
    unconditional = pd_cap is not None and pd_cap <= n_max
    return {
        "n_max": n_max,
        "regular": regular,
        "homological": homological,
        "unconditional": unconditional,
        "certified_through_degree": "all" if unconditional else n_max,
        "cells": cells,
    }


def regularity_json(reg):
    """A check_regular result for a report: cell keys (i, j, n) become "i,j,n"."""
    out = {k: v for k, v in reg.items() if k != "cells"}
    out["cells"] = {f"{i},{j},{n}": v for (i, j, n), v in reg["cells"].items()}
    return out


# -- Prop-level identities -------------------------------------------------------------


def restriction_identity(emb: BorelEmbedding):
    """Res(NablaBar_i) = I_i^B for every label, by iso certificates."""
    out = {}
    for i in emb.A.labels:
        res = emb.sub.restrict(emb.sd.nabla_bar[i])
        v = iso_test(res, injective(emb.B, i))
        out[i] = v.kind if v.kind != "iso" else YES
    return out


def normality_certificate(emb: BorelEmbedding):
    """Splitting of the inclusion as right B-modules with right-ideal kernel.

    Returns dict with the projection matrix pi (pi ∘ incl = id_B) and the
    kernel dimension, or verdict undetermined if the module isomorphism
    search fails.
    """
    A, B = emb.A, emb.B
    f = A.field
    Bop = B.opposite()
    mult = {}
    for _, lab in B.idempotents:
        mult[lab] = mult.get(lab, 0) + 1
    summands = []
    for i in B.labels:
        for _ in range(mult[i]):
            summands.append(emb.sd.op.delta_bar[i])  # D(NablaBar_i) over A^op
    M = Module.direct_sum(summands)
    resM = M.restrict_along(emb.emb, Bop)
    regB = Module.regular(Bop)
    v = iso_test(regB, resM)
    if v.kind != "iso":
        return {"status": UNDET if v.kind == "undetermined" else NO, "witness": v.witness}
    phi = v.certificate  # B -> Res'(M)
    # column k: the A^op action of b_k on m0 = phi(1), i.e. m0 · b_k on the right
    phibar = M.orbit_matrix(phi * B.unit.transpose())
    pi = phi.inverse() * phibar  # A -> B
    comp = pi * emb.emb
    if comp != Matrix.identity(f, B.dim):
        raise InvariantViolation("splitting does not restrict to the identity")
    ker = Subspace.row_space(phibar.kernel_basis().transpose())
    # ker * g ⊆ ker for the generators g of A makes ker a right ideal
    try:
        ker.coordinates(A.products(ker.basis, A.generators()).transpose())
    except NotInSubspace:
        return {"status": NO, "witness": "kernel is not a right ideal"}
    return {"status": YES, "pi": pi, "kernel_dim": ker.dim}


# -- inherited Borels on corners and quotients ---------------------------------------


def inherited_borels(emb: BorelEmbedding, e_prime, n_max=DEFAULT_NMAX, diagnostic=False,
                     ambient_report: BorelReport | None = None, check_regularity=True):
    """Corner and quotient Borels induced by an idempotent e' of B.

    Hypothesis route 1: support of e' is a coideal of the poset; route 2:
    the ordering condition (5) holds and ι(e') is compatible with the ambient
    stratification.  With diagnostic=True the hypothesis check is bypassed
    and dimension diagnostics are reported instead of raising.
    """
    A, B, poset = emb.A, emb.B, emb.poset
    e_prime = B.coerce_vec(e_prime)
    B.subset_sum_decomposition(e_prime)
    suppB = support(B, e_prime)
    ie = emb.sub.image_vec(e_prime)
    out = {"support_in_subalgebra": suppB}

    route1 = poset.is_coideal(suppB)
    route2 = None
    if not route1:
        from .compat import compatibility_battery

        if ambient_report is None:
            ambient_report = check_exact_borel(emb)
        if ambient_report.condition5 == YES:
            try:
                rep = compatibility_battery(A, poset, ie, with_identities=False)
                route2 = rep.conds[4] == YES and rep.conds[5] == YES
            except NotIdempotentSum:
                route2 = False
    if not route1 and not route2:
        if not diagnostic:
            raise SupportNotCoideal(f"support {suppB} fails both hypothesis routes")
        out["hypothesis"] = "bypassed"
    else:
        out["hypothesis"] = "coideal" if route1 else "compatible"

    suppA = support(A, ie)
    out["support_in_ambient"] = suppA
    out["supports_match"] = suppA == suppB

    # A(Be'B) = A ι(e') A
    idealB = B.two_sided_ideal(e_prime)
    img = (emb.emb * idealB.inclusion()).transpose()  # rows: the image of Be'B in A
    ABeB = Subspace.row_space(A.products(None, img))
    AeA = A.two_sided_ideal(ie)
    out["A_BeB_equals_AeA"] = ABeB == AeA
    out["dim_B_quotient"] = B.dim - idealB.dim
    out["dim_A_quotient"] = A.dim - AeA.dim

    # corner embedding e'Be' -> ι(e')Aι(e')
    Bc, embBc = B.corner(e_prime)
    Ac, embAc = A.corner(ie)
    X = embAc.solve(emb.emb * embBc)
    if X is None:
        raise InvariantViolation("corner of the subalgebra escapes the ambient corner")
    out["corner_injective"] = X.rank() == Bc.dim

    # quotient map B/Be'B -> A/AeA
    full_corner = len(suppB) == len(B.labels)
    if not full_corner:
        Bq, projBq = B.quotient_by_idempotent_ideal(e_prime)
        Aq, projAq = A.quotient_by_idempotent_ideal(ie)
        liftB = idealB.lift_matrix()
        Y = projAq * emb.emb * liftB
        out["quotient_map_rank"] = Y.rank()
        out["quotient_injective"] = Y.rank() == Bq.dim
    else:
        Bq = Aq = None
        out["quotient_injective"] = None

    if not (route1 or route2):
        return out

    sub_poset = poset.restrict(suppB)
    corner_emb = BorelEmbedding(Ac, sub_poset, Bc, X)
    out["corner_borel"] = check_exact_borel(corner_emb)
    if not full_corner:
        quo_poset = poset.restrict([l for l in A.labels if l not in set(suppB)])
        quo_emb = BorelEmbedding(Aq, quo_poset, Bq, Y)
        out["quotient_borel"] = check_exact_borel(quo_emb)
    if check_regularity:
        amb = check_regular(emb, n_max, report=ambient_report)
        out["ambient_regular"] = amb["regular"]
        if amb["regular"]:
            out["corner_regular"] = check_regular(corner_emb, n_max, report=out["corner_borel"])
            if not full_corner:
                out["quotient_regular"] = check_regular(quo_emb, n_max, report=out["quotient_borel"])
    return out


def basic_borel_criterion(A, poset):
    """For basic quasi-hereditary A: rad Delta_i costandardly filtered, per label."""
    if len(A.idempotents) != len(A.labels):
        raise NotBasic("criterion applies to basic algebras only")
    sd = strat_datum(A, poset)
    if sd.quasi_hereditary() != YES:
        raise NotQuasiHereditary("criterion applies to quasi-hereditary algebras only")
    out = {}
    for i in A.labels:
        D = sd.delta[i]
        radD, _ = D.submodule(D.radical_subspace())
        dual_rad = radD.dual()  # over A^op; rad Delta_i in F(Nabla) iff this is in F(Delta^op)
        res = filtration_standard(dual_rad, sd.op.delta, poset)
        out[i] = res.status
    return out
