"""The idempotent-compatibility battery.

For a left stratified (A, poset) and a subset-sum idempotent e, six conditions
are evaluated independently:

  1  support(e) is a coideal of the input order
  2  AeA appears in a chain of idempotent ideals with standard-sum layers
     (certified constructively, never via the equivalence with 3)
  3  support(e) is a coideal of the essential order
  4  A/AeA has a standard filtration
  5  D(A/AeA) has a proper costandard filtration (checked on the opposite side)
  6  both A/AeA and eAe are left standardly stratified for the induced orders

and the implication diagram  1 => 2 <=> 3 <=> (4 and 5),  4 => 6,  5 => 6
is asserted on every run.  The recollement identity suite verifies the
standard-object identities across the quotient and corner functors, skipping
(not failing) entries whose hypotheses do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation, SupportNotCoideal
from .functors import IdempotentContext
from .kernel.subspace import Subspace
from .memo import derived
from .modules import Module, iso_test, iso_to_direct_power, quotient_module, simple
from .strat import (
    NO,
    YES,
    FiltrationResult,
    StratDatum,
    filtration_proper,
    strat_datum,
)


def support(A, e_vec):
    """{i : e L_i != 0}, computed on the action matrices of the simples."""
    out = []
    for lab in A.labels:
        L = simple(A, lab)
        if not L.act(e_vec).is_zero():
            out.append(lab)
    return tuple(out)


@dataclass
class StratificationChain:
    label_order: list  # linear extension, ascending
    ideals: list  # ascending Subspaces 0 = J_0 < ... < J_n = A (J_0 omitted)
    layer_data: list  # (label, multiplicity) per step
    split_index: int  # l with J_l = AeA

    def to_json(self):
        return {
            "label_order": list(self.label_order),
            "ideal_dims": [J.dim for J in self.ideals],
            "layers": [[lab, m] for lab, m in self.layer_data],
            "split_index": self.split_index,
        }


def build_stratification_chain(A, poset, e_vec, sd: StratDatum | None = None):
    """Chain J_k = A e_{S_k} A over the top-k sets of a linear extension with
    support(e) as an up-set; layers verified to be direct sums of standards.

    Returns (status, chain or None, witness).
    """
    sd = sd or strat_datum(A, poset)
    supp = set(A.support_labels(e_vec))
    ess = sd.essential_order()
    if not ess.is_coideal(supp):
        return NO, None, "support is not a coideal of the essential order"
    ext = ess.linear_extension(put_last=supp)  # support labels end up last
    ideals = []
    layer_data = []
    prev = Subspace.zero(A.field, A.dim)
    for k in range(len(ext)):
        top_labels = ext[len(ext) - 1 - k :]
        J = A.two_sided_ideal(A.idempotent_sum_for_labels(top_labels))
        lab = ext[len(ext) - 1 - k]
        # the idempotents of one algebra share their chains' layers, so each is checked once
        t, witness = derived(sd, ("chain layer", J, prev, lab), _layer_power, sd, J, prev, lab)
        if witness:
            return NO, None, witness
        ideals.append(J)
        layer_data.append((lab, t))
        prev = J
    chain = StratificationChain(ext, ideals, layer_data, len(supp))
    AeA = A.two_sided_ideal(A.coerce_vec(e_vec))
    want = ideals[len(supp) - 1] if supp else Subspace.zero(A.field, A.dim)
    if supp and want != AeA:
        raise InvariantViolation("J_l differs from AeA")
    return YES, chain, None


def _layer_power(sd, J, prev, lab):
    """(t, None) when the layer J/prev is Delta_lab^t as an A-module, else (None, witness)."""
    Jmod, _ = Module.regular(sd.A).submodule(J)
    # layer = J / prev inside Jmod coordinates
    prev_in_J = Subspace.column_space(J.coordinates(prev.inclusion()))
    layer, _ = Jmod.quotient(prev_in_J)
    D = sd.delta[lab]
    if D.dim == 0 or layer.dim % D.dim:
        return None, f"layer at {lab} has dim {layer.dim}, not a multiple of {D.dim}"
    t = layer.dim // D.dim
    if iso_to_direct_power(layer, D, t) is None:
        return None, f"layer at {lab} is not Delta_{lab}^{t}"
    return t, None


@dataclass
class CompatReport:
    support: tuple
    conds: dict  # 1..6 -> YES/NO
    chain: StratificationChain | None
    filtration4: FiltrationResult | None
    filtration5: FiltrationResult | None
    diagram_consistent: bool
    inconclusive: bool
    identity_checks: list = field(default_factory=list)  # (name, verdict)

    def to_json(self):
        return {
            "support": list(self.support),
            "conditions": {str(k): v for k, v in sorted(self.conds.items())},
            "chain": self.chain.to_json() if self.chain else None,
            "filtration_quotient": self.filtration4.to_json() if self.filtration4 else None,
            "filtration_dual": self.filtration5.to_json() if self.filtration5 else None,
            "implication_diagram_consistent": self.diagram_consistent,
            "inconclusive": self.inconclusive,
            "identity_checks": [[n, v] for n, v in self.identity_checks],
        }


def _imp(a, b):
    return not (a == YES and b == NO)


def _check_diagram(c):
    ok = True
    ok &= _imp(c[1], c[2])
    ok &= _imp(c[2], c[3]) and _imp(c[3], c[2])
    c45 = YES if (c[4] == YES and c[5] == YES) else NO
    ok &= _imp(c[3], c45) and _imp(c45, c[3])
    ok &= _imp(c[4], c[6])
    ok &= _imp(c[5], c[6])
    return bool(ok)


def compatibility_battery(A, poset, e_vec, with_identities=True) -> CompatReport:
    sd = strat_datum(A, poset)
    left, _ = sd.left_stratified()
    if left != YES:
        raise SupportNotCoideal("battery requires a verified left standardly stratified input")
    e = A.coerce_vec(e_vec)
    summands = A.subset_sum_decomposition(e)
    if not summands:
        conds = {k: YES for k in range(1, 7)}
        return CompatReport(tuple(), conds, None, None, None, True, False,
                            [("zero-idempotent", "trivial")])
    supp = support(A, e)
    if supp != A.support_labels(e):
        raise InvariantViolation("the support of e differs between its two computations")

    conds = {}
    conds[1] = YES if poset.is_coideal(supp) else NO
    ess = sd.essential_order()
    conds[3] = YES if ess.is_coideal(supp) else NO

    ctx = IdempotentContext(A, e)

    # conditions 4 and 5 read e only through the module A/AeA, so their
    # filtrations are kept on the datum of each side by that module's stack (a
    # datum over A^op is also the left datum of batteries over A^op, hence two keys)
    # condition 4: A/AeA as a left module has a standard filtration
    Q = quotient_module(A, e)
    f4 = derived(sd, ("standard filtration", Q.stack), sd.delta_filtration, Q)
    conds[4] = f4.status

    # condition 5: D(A/AeA) proper-costandardly filtered, via the opposite side
    op = sd.op
    Q = quotient_module(op.A, e)
    f5 = derived(op, ("proper filtration", Q.stack), filtration_proper, Q, op.delta_bar, op.poset)
    conds[5] = f5.status

    # condition 6: quotient and corner stratified for the induced orders
    sub_verdicts = []
    if ctx.quotient is not None:
        sq = strat_datum(ctx.quotient, poset.restrict([l for l in A.labels if l not in supp]))
        sub_verdicts.append(sq.left_stratified()[0])
    sc = strat_datum(ctx.corner, poset.restrict(supp))
    sub_verdicts.append(sc.left_stratified()[0])
    conds[6] = NO if NO in sub_verdicts else YES

    # condition 2: constructive chain certificate
    conds[2], chain, _ = build_stratification_chain(A, poset, e, sd)

    diagram = _check_diagram(conds)
    # every condition is YES or NO; the field stays for the report's bytes
    report = CompatReport(supp, conds, chain, f4, f5, diagram, False)
    if with_identities:
        report.identity_checks = _identity_checks(ctx, sd, poset, supp, conds)
    if not diagram:
        raise InvariantViolation(f"implication diagram violated: {conds}")
    return report


def _identity_checks(ctx, sd, poset, supp, conds):
    """Standard-object identities across the recollement, per hypothesis.

    Always (for i outside the support): the quotient-algebra standard objects
    agree with the corresponding functor images.  Under condition 4: inflation
    recovers the ambient standards and the corner identities hold; under
    condition 5, the dual suite.
    """
    A = ctx.A
    out = []

    def verdict(v):
        return v.kind if hasattr(v, "kind") else v

    outside = [l for l in A.labels if l not in supp]
    if ctx.quotient is not None and outside:
        sq = strat_datum(ctx.quotient, poset.restrict(outside))
        for i in outside:
            out.append((f"quotient_tensor(Delta_{i}) = Delta_{i}^quot",
                        verdict(iso_test(ctx.quotient_tensor(sd.delta[i]), sq.delta[i]))))
            out.append((f"quotient_tensor(DeltaBar_{i}) = DeltaBar_{i}^quot",
                        verdict(iso_test(ctx.quotient_tensor(sd.delta_bar[i]), sq.delta_bar[i]))))
            out.append((f"quotient_hom(Nabla_{i}) = Nabla_{i}^quot",
                        verdict(iso_test(ctx.quotient_hom(sd.nabla[i]), sq.nabla[i]))))
            out.append((f"quotient_hom(NablaBar_{i}) = NablaBar_{i}^quot",
                        verdict(iso_test(ctx.quotient_hom(sd.nabla_bar[i]), sq.nabla_bar[i]))))
        if conds[4] == YES:
            for i in outside:
                out.append((f"inflate(Delta_{i}^quot) = Delta_{i}",
                            verdict(iso_test(ctx.inflate(sq.delta[i]), sd.delta[i]))))
        else:
            out.append(("inflation identities", "skipped"))
        if conds[5] == YES:
            for i in outside:
                out.append((f"inflate(NablaBar_{i}^quot) = NablaBar_{i}",
                            verdict(iso_test(ctx.inflate(sq.nabla_bar[i]), sd.nabla_bar[i]))))
        else:
            out.append(("dual inflation identities", "skipped"))

    sc = strat_datum(ctx.corner, poset.restrict(supp))
    inside = [l for l in A.labels if l in supp]
    if conds[4] == YES:
        for i in inside:
            out.append((f"corner(Delta_{i}) = Delta_{i}^corner",
                        verdict(iso_test(ctx.corner_apply(sd.delta[i]), sc.delta[i]))))
            out.append((f"corner(NablaBar_{i}) = NablaBar_{i}^corner",
                        verdict(iso_test(ctx.corner_apply(sd.nabla_bar[i]), sc.nabla_bar[i]))))
            out.append((f"corner_hom(NablaBar_{i}^corner) = NablaBar_{i}",
                        verdict(iso_test(ctx.corner_hom(sc.nabla_bar[i]), sd.nabla_bar[i]))))
    else:
        out.append(("corner identities", "skipped"))
    if conds[5] == YES:
        for i in inside:
            out.append((f"corner_tensor(Delta_{i}^corner) = Delta_{i}",
                        verdict(iso_test(ctx.corner_tensor(sc.delta[i]), sd.delta[i]))))
    else:
        out.append(("dual corner identities", "skipped"))
    return out
