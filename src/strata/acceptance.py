"""The acceptance battery: every verified claim of the bundled corpus.

Thirteen criteria, each a function returning one Criterion record with
sub-assertion details.  The CLI's verify runner and tests/test_acceptance.py
both call run_all(); a criterion passes only when every sub-assertion holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .borel import (
    BorelEmbedding,
    basic_borel_criterion,
    check_exact_borel,
    check_regular,
    inherited_borels,
    normality_certificate,
    restriction_identity,
)
from .compat import compatibility_battery, support
from .corpus import corpus, entry
from .functors import IdempotentContext
from .homology import ext_dim, ext_dims_upto
from .modules import (
    Module,
    comp_mult,
    hom_basis,
    injective,
    iso_test,
    projective,
    quotient_module,
    simple,
    trace_submodule,
)
from .strat import (
    NO,
    YES,
    filtration_standard,
    poset_search,
    strat_datum,
    bgg_reciprocity_check,
)
from .vmult import (
    block_structure_check,
    bruhat_poset,
    builtin_tables,
    ell,
    reference_ell_formula,
    regular_borel_existence,
    v_matrix_from_algebra,
    v_matrix_from_tables,
)


@dataclass
class Criterion:
    key: str
    title: str
    checks: list = field(default_factory=list)  # (name, bool, detail)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks) and bool(self.checks)

    def to_json(self):
        return {
            "key": self.key,
            "title": self.title,
            "passed": self.passed,
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in self.checks],
        }


def _battery(A, poset, e_vec):
    return compatibility_battery(A, poset, e_vec, with_identities=False)


def criterion_01():
    c = Criterion("c01", "sl2 block: quasi-hereditary; corner/quotient stratified at 1 "
                         "while neither filtration condition holds")
    e = entry("sl2-block")
    sd = strat_datum(e.algebra, e.poset)
    c.check("quasi-hereditary for 1 < 2", sd.quasi_hereditary() == YES)
    rep = _battery(e.algebra, e.poset, e.algebra.idempotent_for_label("1"))
    c.check("cond6 true", rep.conds[6] == YES, str(rep.conds))
    c.check("cond4 false", rep.conds[4] == NO)
    c.check("cond5 false", rep.conds[5] == NO)
    return c


def criterion_02():
    c = Criterion("c02", "fork: one-sided filtration verdicts, dual of the quotient, "
                         "trace inside the proper costandard")
    e = entry("fork")
    A, poset = e.algebra, e.poset
    rep = _battery(A, poset, A.idempotent_for_label("1"))
    c.check("cond4 true at e_1", rep.conds[4] == YES)
    c.check("cond5 false at e_1", rep.conds[5] == NO)
    B = A.opposite()
    repop = _battery(B, poset, B.idempotent_for_label("1"))
    c.check("opposite: cond5 true at e_1", repop.conds[5] == YES)
    c.check("opposite: cond4 false at e_1", repop.conds[4] == NO)
    dual_quot = quotient_module(A.opposite(), A.idempotent_for_label("1")).dual()
    cand = Module.direct_sum([projective(A, "1'"), simple(A, "1'")])
    c.check("D(A/Ae_1A) = P_1' + L_1'", iso_test(dual_quot, cand).kind == "iso")
    sd = strat_datum(A, poset)
    quot = quotient_module(A, A.idempotent_for_label("1"))
    nb2 = sd.nabla_bar["2"]
    tr = trace_submodule(quot, nb2)
    c.check("trace has dim 2 inside dim 3", (tr.dim, nb2.dim) == (2, 3), f"{tr.dim} in {nb2.dim}")
    return c


def criterion_03():
    c = Criterion("c03", "diamond: inflation recovers standards at 1,3,4 although the "
                         "quotient is unfiltered; no directed splitting subalgebra")
    e = entry("diamond")
    A, poset = e.algebra, e.poset
    sd = strat_datum(A, poset)
    e2 = A.idempotent_for_label("2")
    ctx = IdempotentContext(A, e2)
    sq = strat_datum(ctx.quotient, poset.restrict(["1", "3", "4"]))
    for i in ("1", "3", "4"):
        v = iso_test(ctx.inflate(sq.delta[i]), sd.delta[i])
        c.check(f"inflate(Delta_{i}^quot) = Delta_{i}", v.kind == "iso")
    res = sd.delta_filtration(quotient_module(A, e2))
    c.check("A/Ae_2A not standardly filtered", res.status == NO, res.witness or "")
    bb = basic_borel_criterion(A, poset)
    c.check("basic criterion fails at some label", any(v == NO for v in bb.values()), str(bb))
    return c


def criterion_04():
    c = Criterion("c04", "Auslander algebra of k[x]/(x^3): quotient at {1,2} is the "
                         "simple at 3; corner not left stratified")
    e = entry("auslander-x3")
    A, poset = e.algebra, e.poset
    ev = A.idempotent_sum_for_labels(["1", "2"])
    quot = quotient_module(A, ev)
    c.check("A/A(e1+e2)A = L_3", iso_test(quot, simple(A, "3")).kind == "iso")
    corner, _ = A.corner(ev)
    sc = strat_datum(corner, poset.restrict(["1", "2"]))
    left, results = sc.left_stratified()
    K, _ = sc.delta_kernel_module("1")
    refutation = ""
    if left == YES:
        v = iso_test(K, sc.delta["2"])
        if v.kind == "iso" and v.certificate is not None:
            refutation = (
                "REFUTED by certificate: ker(P_1 ->> Delta_1) is isomorphic to Delta_2 "
                f"(invertible intertwiner found: {v.kind}), so 0 < Delta_2^2 < C is a "
                "standard stratification; the corner is left (and right) standardly "
                "stratified, though not quasi-hereditary ([Delta_2 : L_2] = "
                f"{comp_mult(sc.delta['2'], '2')}). Kept as stated; see the decisions ledger."
            )
        else:
            refutation = (
                "left_stratified answered yes, but no intertwiner ker(P_1 ->> Delta_1) "
                f"-> Delta_2 was found (iso_test: {v.kind}"
                + (f"; {v.witness}" if v.witness else "")
                + "). Kept as stated; see the decisions ledger."
            )
    c.check("corner not left stratified (as stated)", left == NO, refutation)
    c.check("corner not quasi-hereditary (the nearest certified fact)",
            sc.quasi_hereditary() == NO)
    return c


def criterion_05():
    c = Criterion("c05", "rad-square-zero: no stratifying order among the 3 posets; "
                         "corner and quotient at 1 quasi-hereditary")
    e = entry("rad-square-zero")
    A = e.algebra
    results = poset_search(A)
    c.check("3 posets on two labels", len(results) == 3, str(len(results)))
    c.check("none stratify (left or right)",
            all(v["left"] == NO and v["right"] == NO for _, v in results))
    e1 = A.idempotent_for_label("1")
    corner, _ = A.corner(e1)
    quot, _ = A.quotient_by_idempotent_ideal(e1)
    from .strat import LabelPoset

    c.check("corner quasi-hereditary",
            strat_datum(corner, LabelPoset.antichain(corner.labels)).quasi_hereditary() == YES)
    c.check("quotient quasi-hereditary",
            strat_datum(quot, LabelPoset.antichain(quot.labels)).quasi_hereditary() == YES)
    return c


def criterion_06():
    c = Criterion("c06", "double-arrow chain: semisimple quotient, vanishing quotient Ext, "
                         "yet Ext^2(L_1, L_3) = 1 upstairs")
    e = entry("ext2-chain")
    A = e.algebra
    e2 = A.idempotent_for_label("2")
    quot, _ = A.quotient_by_idempotent_ideal(e2)
    c.check("quotient semisimple", quot.radical().dim == 0)
    ok = True
    for i in quot.labels:
        for j in quot.labels:
            dims = ext_dims_upto(simple(quot, i), simple(quot, j), 3)
            if any(dims[1:]):
                ok = False
    c.check("all positive-degree Ext vanish over the quotient", ok)
    c.check("Ext^2_A(L_1, L_3) = 1", ext_dim(simple(A, "1"), simple(A, "3"), 2) == 1)
    return c


def _nonzero_subset_sums(A):
    import itertools

    n = len(A.idempotents)
    for r in range(1, n + 1):
        for picks in itertools.combinations(range(n), r):
            yield picks, A.sum_idempotents(picks)


@functools.cache
def battery_sweep():
    """Battery reports for every stratifying corpus entry and every nonzero
    subset-sum idempotent; memoized for reuse across criteria."""
    out = {}
    for name, ent in corpus().items():
        if not ent.stratifies:
            out[name] = None
            continue
        per = {}
        for picks, ev in _nonzero_subset_sums(ent.algebra):
            per[picks] = compatibility_battery(ent.algebra, ent.poset, ev, with_identities=False)
        out[name] = per
    return out


def criterion_07():
    c = Criterion("c07", "implication diagram holds for every corpus algebra x subset-sum "
                         "idempotent; the four non-implication witnesses reproduce")
    sweep = battery_sweep()
    bad = []
    inconclusive = []
    for name, per in sweep.items():
        if per is None:
            continue
        for picks, rep in per.items():
            if not rep.diagram_consistent:
                bad.append((name, picks))
            if rep.inconclusive:
                inconclusive.append((name, picks))
    c.check("diagram consistent on every run", not bad, str(bad))
    c.check("no inconclusive verdicts in the sweep", not inconclusive, str(inconclusive))
    fork = entry("fork")
    # idempotent index of label 1 in fork: find it
    idx1 = tuple(k for k, (_, lab) in enumerate(fork.algebra.idempotents) if lab == "1")[:1]
    rep = sweep["fork"][idx1]
    c.check("witness 4-and-not-5", rep.conds[4] == YES and rep.conds[5] == NO)
    B = fork.algebra.opposite()
    repop = _battery(B, fork.poset, B.idempotent_for_label("1"))
    c.check("witness 5-and-not-4 (opposite)", repop.conds[5] == YES and repop.conds[4] == NO)
    sl2 = entry("sl2-block")
    idx1 = tuple(k for k, (_, lab) in enumerate(sl2.algebra.idempotents) if lab == "1")[:1]
    rep = sweep["sl2-block"][idx1]
    c.check("witness 6-and-not-4-not-5",
            rep.conds[6] == YES and rep.conds[4] == NO and rep.conds[5] == NO)
    forkr = entry("fork-refined")
    idx = tuple(sorted(k for k, (_, lab) in enumerate(forkr.algebra.idempotents) if lab in ("1", "2")))
    rep = sweep["fork-refined"][idx]
    c.check("witness 3-without-1 (refined order)", rep.conds[3] == YES and rep.conds[1] == NO,
            str(rep.conds))
    return c


def _dual_extension_embedding():
    e = entry("dual-extension")
    idem, gens = e.subalgebras["borel"]
    return e, BorelEmbedding.from_generators(e.algebra, e.poset, idem, gens)


def criterion_08():
    c = Criterion("c08", "dual-extension: full directed-subalgebra battery with regularity, "
                         "hom-dimension witnesses, restriction identity, normal splitting")
    e, emb = _dual_extension_embedding()
    rep = check_exact_borel(emb)
    c.check("four axioms pass", rep.is_exact_borel,
            f"{rep.axiom1} {rep.axiom2} {rep.axiom3} {rep.axiom4}")
    c.check("ordering condition (5)", rep.condition5 == YES)
    reg = check_regular(emb, 5, report=rep)
    c.check("regular through degree 5", reg["regular"])
    c.check("upgraded to unconditional", reg["unconditional"])
    sd = strat_datum(e.algebra, e.poset)
    c.check("dim Hom(Nabla_3, Nabla_1) = 1", len(hom_basis(sd.nabla["3"], sd.nabla["1"])) == 1)
    c.check("dim Hom_B(I_3, I_1) = 2",
            len(hom_basis(injective(emb.B, "3"), injective(emb.B, "1"))) == 2)
    ri = restriction_identity(emb)
    c.check("restriction identity", all(v == YES for v in ri.values()), str(ri))
    nc = normality_certificate(emb)
    c.check("normal splitting found", nc["status"] == YES)
    c.check("kernel is a complement", nc.get("kernel_dim") == e.algebra.dim - emb.B.dim,
            str(nc.get("kernel_dim")))
    return c


def criterion_09():
    c = Criterion("c09", "non-basic endomorphism algebra: embedded support {1,3}, dim "
                         "diagnostics 4 vs 2, non-injective quotient map; label-4 "
                         "idempotent inherits end-to-end")
    e = entry("nonbasic-endo")
    idem, gens = e.subalgebras["borel"]
    emb = BorelEmbedding.from_generators(e.algebra, e.poset, idem, gens)
    rep = check_exact_borel(emb)
    c.check("subalgebra is an exact splitting subalgebra", rep.is_exact_borel)
    e1 = emb.B.idempotent_for_label("1")
    c.check("support of the image of e_1 is {1,3}",
            support(e.algebra, emb.sub.image_vec(e1)) == ("1", "3"))
    out = inherited_borels(emb, e1, diagnostic=True, ambient_report=rep, check_regularity=False)
    c.check("dim B/Be_1B = 4", out["dim_B_quotient"] == 4, str(out["dim_B_quotient"]))
    c.check("dim A/A iota(e_1) A = 2", out["dim_A_quotient"] == 2, str(out["dim_A_quotient"]))
    c.check("quotient map not injective", out["quotient_injective"] is False)
    e4 = emb.B.idempotent_for_label("4")
    out4 = inherited_borels(emb, e4, ambient_report=rep)
    c.check("label-4 corner inherits", out4["corner_borel"].is_exact_borel)
    c.check("label-4 quotient inherits", out4["quotient_borel"].is_exact_borel)
    c.check("ideal identity A(Be'B) = AeA", out4["A_BeB_equals_AeA"])
    return c


def criterion_10():
    c = Criterion("c10", "dual-extension: inherited corner/quotient subalgebras at {3} and "
                         "{2,3}, ideal identity, supports, regularity inherited")
    e, emb = _dual_extension_embedding()
    rep = check_exact_borel(emb)
    for labels in (["3"], ["2", "3"]):
        ev = emb.B.idempotent_sum_for_labels(labels)
        out = inherited_borels(emb, ev, ambient_report=rep)
        tag = "+".join(labels)
        c.check(f"[{tag}] corner splitting subalgebra", out["corner_borel"].is_exact_borel)
        c.check(f"[{tag}] quotient splitting subalgebra", out["quotient_borel"].is_exact_borel)
        c.check(f"[{tag}] A(Be'B) = A iota(e') A", out["A_BeB_equals_AeA"])
        c.check(f"[{tag}] supports match", out["supports_match"])
        c.check(f"[{tag}] regularity inherited",
                out.get("ambient_regular") and out["corner_regular"]["regular"]
                and out["quotient_regular"]["regular"])
    return c


def criterion_11():
    c = Criterion("c11", "multiplicity matrices: identity for sl2; product table gives "
                         "(1,1,1,3) with the doubled corner entry; tensor square agrees "
                         "entrywise; Bruhat heights and reference values")
    s = entry("sl2-block")
    Vs = v_matrix_from_algebra(s.algebra, s.poset)
    c.check("sl2 V = identity", Vs.as_grid() == [[1, 0], [0, 1]])
    c.check("sl2 ell = (1,1)", ell(Vs) == {"1": 1, "2": 1})
    x = regular_borel_existence(Vs, {l: 1 for l in Vs.labels})
    c.check("sl2 basic representative carries it", x == {"1": 1, "2": 1})
    V = v_matrix_from_tables(builtin_tables("A1xA1"))
    c.check("product ell = (1,1,1,3)",
            ell(V) == {"e": 1, "s1": 1, "s2": 1, "w0": 3}, str(ell(V)))
    c.check("longest row = eps_w0 + 2 eps_e", V.rows["w0"] == {"w0": 1, "e": 2}, str(V.rows["w0"]))
    c.check("basic product algebra carries none",
            regular_borel_existence(V, {l: 1 for l in V.labels}) is None)
    t = entry("sl2-tensor-square")
    Vt = v_matrix_from_algebra(t.algebra, t.poset)
    m = {"(1,1)": "e", "(2,1)": "s1", "(1,2)": "s2", "(2,2)": "w0"}
    c.check("tensor square agrees entrywise with the table mode",
            all(Vt.entry(i, j) == V.entry(m[i], m[j]) for i in Vt.labels for j in Vt.labels))
    heights = {}
    for typ, expect in (("A2", 3), ("B2", 4), ("G2", 6)):
        _, h = bruhat_poset(typ)
        heights[typ] = max(h.values())
        c.check(f"{typ} max height {expect}", heights[typ] == expect)
    ref = reference_ell_formula("A2")
    c.check("A2 longest element multiplicity 9", ref["s1s2s1"] == 9)
    return c


def criterion_12():
    c = Criterion("c12", "block triangularity of V and the row-sum (in)equalities on every "
                         "compatible idempotent of every quasi-hereditary corpus entry")
    sweep = battery_sweep()
    ran = 0
    for name, per in sweep.items():
        if per is None:
            continue
        ent = entry(name)
        if strat_datum(ent.algebra, ent.poset).quasi_hereditary() != YES:
            continue
        if ent.algebra.field.char != 0:
            continue
        for picks, rep in per.items():
            if not (rep.conds[4] == YES and rep.conds[5] == YES):
                continue
            ev = ent.algebra.sum_idempotents(picks)
            out = block_structure_check(ent.algebra, ent.poset, ev, battery_report=rep)
            ran += 1
            c.check(f"{name}{list(picks)}", out["ok"], str(out))
    c.check("at least one compatible pair ran per corpus breadth", ran >= 10, str(ran))
    return c


def criterion_13():
    c = Criterion("c13", "property suites: reciprocity, greedy-vs-Ext agreement, duality "
                         "involution, adjunction dimensions, refinement stability, ideal "
                         "dimension partition, unitriangular determinant")
    names = [n for n, ent in corpus().items() if ent.stratifies]
    # BGG reciprocity on all verified stratified instances
    for name in names:
        ent = entry(name)
        sd = strat_datum(ent.algebra, ent.poset)
        if sd.left_stratified()[0] == YES:
            c.check(f"reciprocity [{name}]", bgg_reciprocity_check(sd))
    # greedy vs Ext oracle on the quotient modules of every idempotent
    agree = True
    for name in ("fork", "sl2-block", "diamond", "auslander-x3", "ext2-chain"):
        ent = entry(name)
        sd = strat_datum(ent.algebra, ent.poset)
        for picks, ev in _nonzero_subset_sums(ent.algebra):
            X = quotient_module(ent.algebra, ev)
            res = filtration_standard(X, sd.delta, ent.poset)
            if sd.ext_oracle_delta(X) != (res.status == YES):
                agree = False
    c.check("greedy filtration = Ext oracle", agree)
    # duality involution certificates
    for name in ("fork", "sl2-block", "dual-extension"):
        ent = entry(name)
        sd = strat_datum(ent.algebra, ent.poset)
        ok = True
        for i in ent.algebra.labels:
            X = sd.delta[i]
            v = iso_test(X.dual().dual(), X)
            ok = ok and v.kind == "iso"
        c.check(f"duality involution [{name}]", ok)
    # adjunction dimension identities for the six recollement functors
    for name in ("sl2-block", "fork", "auslander-x3"):
        ent = entry(name)
        A, poset = ent.algebra, ent.poset
        sd = strat_datum(A, poset)
        ok = True
        for lab in A.labels:
            ev = A.idempotent_for_label(lab)
            ctx = IdempotentContext(A, ev)
            corner_mods = [simple(ctx.corner, l) for l in ctx.corner.labels]
            amb_mods = [sd.delta[l] for l in A.labels] + [simple(A, l) for l in A.labels]
            for Y in corner_mods:
                for X in amb_mods:
                    lhs = len(hom_basis(ctx.corner_tensor(Y), X))
                    rhs = len(hom_basis(Y, ctx.corner_apply(X)))
                    ok = ok and lhs == rhs
                    lhs2 = len(hom_basis(ctx.corner_apply(X), Y))
                    rhs2 = len(hom_basis(X, ctx.corner_hom(Y)))
                    ok = ok and lhs2 == rhs2
            if ctx.quotient is not None:
                quot_mods = [simple(ctx.quotient, l) for l in ctx.quotient.labels]
                for Yq in quot_mods:
                    for X in amb_mods:
                        lhs = len(hom_basis(ctx.quotient_tensor(X), Yq))
                        rhs = len(hom_basis(X, ctx.inflate(Yq)))
                        ok = ok and lhs == rhs
                        lhs2 = len(hom_basis(ctx.inflate(Yq), X))
                        rhs2 = len(hom_basis(Yq, ctx.quotient_hom(X)))
                        ok = ok and lhs2 == rhs2
        c.check(f"adjunction dims [{name}]", ok)
    # refinement stability: total refinements keep the standard objects
    for name in ("fork", "diamond"):
        ent = entry(name)
        sd = strat_datum(ent.algebra, ent.poset)
        from .strat import LabelPoset

        ext = sd.essential_order().linear_extension()
        chainp = LabelPoset.chain(ext)
        sd2 = strat_datum(ent.algebra, chainp)
        ok = True
        for i in ent.algebra.labels:
            for fam in ("delta", "delta_bar", "nabla", "nabla_bar"):
                X = getattr(sd, fam)[i]
                Y = getattr(sd2, fam)[i]
                v = iso_test(X, Y)
                ok = ok and v.kind == "iso"
        c.check(f"refinement stability [{name}]", ok)
    # dim(AeA) + dim(A/AeA) = dim A, every corpus algebra, every idempotent
    ok = True
    for name in names:
        ent = entry(name)
        for picks, ev in _nonzero_subset_sums(ent.algebra):
            ideal = ent.algebra.two_sided_ideal(ev)
            if ideal.dim + (ent.algebra.dim - ideal.dim) != ent.algebra.dim:
                ok = False
    c.check("ideal dimension partition", ok)
    # V unitriangularity with determinant one
    from .vmult import det_is_one

    for name in ("sl2-block", "fork", "diamond", "auslander-x3", "ext2-chain",
                 "dual-extension", "nonbasic-endo", "sl2-tensor-square"):
        ent = entry(name)
        V = v_matrix_from_algebra(ent.algebra, ent.poset)
        c.check(f"V unitriangular, det 1 [{name}]", det_is_one(V))
    return c


TITLES = {
    "c01": "sl2 block quotient/corner verdicts",
    "c02": "fork one-sided filtrations and dual decomposition",
    "c03": "diamond inflation identities without filtration",
    "c04": "Auslander corner and simple quotient",
    "c05": "rad-square-zero poset search",
    "c06": "failed homological embedding with Ext^2 witness",
    "c07": "implication diagram sweep with non-implication witnesses",
    "c08": "dual-extension splitting subalgebra battery",
    "c09": "non-basic endomorphism algebra diagnostics",
    "c10": "inherited corner and quotient subalgebras",
    "c11": "multiplicity matrices and rank-two reference data",
    "c12": "block triangularity and row-sum bounds",
    "c13": "property suites",
}

ALL = [
    ("c01", criterion_01), ("c02", criterion_02), ("c03", criterion_03),
    ("c04", criterion_04), ("c05", criterion_05), ("c06", criterion_06),
    ("c07", criterion_07), ("c08", criterion_08), ("c09", criterion_09),
    ("c10", criterion_10), ("c11", criterion_11), ("c12", criterion_12),
    ("c13", criterion_13),
]


def run_all(filter_substr=None):
    out = []
    for key, fn in ALL:
        if filter_substr and filter_substr not in key and filter_substr not in TITLES[key]:
            continue
        out.append(fn())
    return out
