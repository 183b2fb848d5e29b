"""The acceptance battery: one test per criterion, one printed line each.

Run with -s (or via `strata verify-paper`) to see the PASS/FAIL lines; any
failed sub-assertion is printed with its detail.

Each criterion's checks are compared against their proven truth values, not
against "everything passes".  REFUTED_AS_STATED names the sub-assertions that
are kept exactly as stated although they are false; the battery must report
each of them as failed, with a refuting certificate in its detail, and every
other check must pass.  A criterion absent from the table must pass outright.
The one entry is c04's claim that the corner of the Auslander algebra of
k[x]/(x^3) at e1+e2 is not left standardly stratified;
test_c04_corner_is_left_stratified derives the refutation by hand, without
going through StratDatum.left_stratified (see README, "Decisions ledger").
"""

import pytest

from strata import acceptance
from strata.memo import Family
from strata.modules import comp_mult, iso_test, projective
from strata.strat import NO, LabelPoset, StratDatum

from oracles import entry

# criterion key -> names of its checks that are false as stated
REFUTED_AS_STATED = {
    "c04": {"corner not left stratified (as stated)"},
}


@pytest.fixture(scope="module")
def run():
    """One run for every criterion of this file, as run_all makes one for all of them."""
    return Family()


def _run(key, fn, run):
    crit = fn(run)
    status = "PASS" if crit.passed else "FAIL"
    print(f"{status} {crit.key}: {crit.title}")
    for name, ok, detail in crit.checks:
        if not ok:
            print(f"    failed: {name} {detail}")
    assert crit.checks, f"{crit.key} made no checks"
    failed = {n for n, ok, _ in crit.checks if not ok}
    refuted = REFUTED_AS_STATED.get(key, set())
    assert failed == refuted, (
        f"{crit.key}: failed checks {sorted(failed)}, expected exactly {sorted(refuted)}"
    )
    for name, ok, detail in crit.checks:
        if name in refuted:
            assert detail.startswith("REFUTED by certificate"), (name, detail)


@pytest.mark.parametrize("key,fn", acceptance.ALL, ids=[k for k, _ in acceptance.ALL])
def test_criterion(key, fn, run):
    _run(key, fn, run)


def test_c04_corner_is_left_stratified():
    """C = e A e for the Auslander algebra of k[x]/(x^3), e = e1 + e2, is
    End(L + L/x^2) with L = k[x]/(x^3).  Under the restricted order 1 <= 2,
    Delta_1 = L_1, Delta_2 = P_2 and ker(P_1 ->> Delta_1) = rad P_1 is
    isomorphic to Delta_2, so C is left standardly stratified; it is not
    quasi-hereditary since [Delta_2 : L_2] = 2."""
    ent = entry("auslander-x3")
    A = ent.algebra
    C, _ = A.corner(A.idempotent_sum_for_labels(["1", "2"]))
    assert C.dim == 9 and C.labels == ("1", "2")
    order = ent.poset.restrict(["1", "2"])
    assert order.leq("1", "2") and not order.leq("2", "1")
    sd = StratDatum(C, order)

    # P_1 has factors 1,2,1,2,1 and P_2 has 2,1,2,1
    assert (projective(C, "1").dim, projective(C, "2").dim) == (5, 4)
    assert [comp_mult(projective(C, "1"), j) for j in C.labels] == [3, 2]
    assert [comp_mult(projective(C, "2"), j) for j in C.labels] == [2, 2]
    assert (sd.delta["1"].dim, sd.delta["2"].dim) == (1, 4)
    assert comp_mult(sd.delta["2"], "2") == 2

    # ker(P_2 ->> Delta_2) = 0, and ker(P_1 ->> Delta_1) = Delta_2, checked
    # on the certificate itself: a full-rank intertwiner
    K2 = sd.delta_kernel_module("2")
    assert K2.dim == 0
    K = sd.delta_kernel_module("1")
    D2 = sd.delta["2"]
    v = iso_test(K, D2)
    assert v.kind == "iso"
    T = v.certificate
    assert (T.rows, T.cols) == (D2.dim, K.dim) == (4, 4)
    assert T.rank() == 4
    for b in range(C.dim):
        assert T * K.action[b] == D2.action[b] * T, b

    # the other orders on {1, 2} do not stratify C
    for poset in (LabelPoset(C.labels, [("2", "1")]), LabelPoset.antichain(C.labels)):
        verdict, _ = StratDatum(C, poset).left_stratified()
        assert verdict == NO, poset
