"""Verdicts do not depend on the basis: the corpus algebras in a unitriangular
change of basis (tests/base_change.py), exported as structure constants over Q
and loaded through the full validation.

On the path bases almost every subspace is a coordinate subspace, which
kernel/subspace.py reads off its pivots; the base-changed copies build
non-coordinate subspaces throughout, so the general path runs end to end.  Each
copy must give the same verdict for every order as the original and the same
Hom and Ext dimensions between the standard modules of its order, and the same
compatibility battery (support, conditions and recollement identities) at each
single-label idempotent.
"""

import pytest

from strata.compat import compatibility_battery, identity_checks
from strata.corpus import corpus_path
from strata.homology import ext_dims_upto
from strata.kernel.subspace import Subspace
from strata.modules import hom_basis
from strata.specfile import load_spec, load_spec_file
from strata.strat import poset_search, strat_datum

from base_change import export_base_changed

NAMES = ["fork", "diamond", "sl2-block"]


@pytest.fixture
def coordinate_share(monkeypatch):
    """[subspaces built, coordinate ones among them], counted from now on."""
    counts = [0, 0]
    init = Subspace.__init__

    def counting(self, *args):
        init(self, *args)
        counts[0] += 1
        counts[1] += self.coordinate

    monkeypatch.setattr(Subspace, "__init__", counting)
    return counts


def searched(sd, counts):
    counts[:] = [0, 0]
    verdicts = [(p.to_json(), v) for p, v in poset_search(sd.algebra)]
    return verdicts, tuple(counts)


def standard_dims(sd):
    delta = strat_datum(sd.algebra, sd.poset).delta
    return {(i, j): (len(hom_basis(delta[i], delta[j])), ext_dims_upto(delta[i], delta[j], 2))
            for i in sd.algebra.labels for j in sd.algebra.labels}


@pytest.mark.parametrize("name", NAMES)
def test_base_change_keeps_every_verdict(name, coordinate_share):
    orig = load_spec_file(corpus_path(name))
    copy = load_spec(export_base_changed(corpus_path(name)))
    assert copy.algebra.labels == orig.algebra.labels and copy.poset.cover_pairs() == orig.poset.cover_pairs()
    assert copy.algebra.table != orig.algebra.table
    ours, (built, coordinate) = searched(orig, coordinate_share)
    theirs, (built_copy, coordinate_copy) = searched(copy, coordinate_share)
    assert theirs == ours
    assert standard_dims(copy) == standard_dims(orig)
    # the path basis builds almost only coordinate subspaces, the copy some of the others
    assert built - coordinate <= 1 and coordinate_copy < built_copy


def battery(sd, label):
    A, poset = sd.algebra, sd.poset
    e = A.idempotent_for_label(label)
    rep = compatibility_battery(A, poset, e)
    return rep.support, rep.conds, identity_checks(A, poset, e)


@pytest.mark.parametrize("name", NAMES)
def test_base_change_keeps_every_battery(name):
    # the recollement functors of each pick run on non-coordinate subspaces in the copy
    orig = load_spec_file(corpus_path(name))
    copy = load_spec(export_base_changed(corpus_path(name)))
    for label in orig.algebra.labels:
        assert battery(copy, label) == battery(orig, label)
