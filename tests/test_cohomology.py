"""homology.cohomology equals the per-degree reads it replaced.

ext_dims_upto ranks each delta of Hom(P_*, Y) once for every degree, and
check_regular reads all degrees of a comparison map with one call per pair of
labels.  Both must give what the per-degree loop and induced_map_profile
(tests/oracles.py) give: on the corpus Borel embeddings, on the corner and
quotient embeddings they pass down to, and on generated modules.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import strata.borel
from strata.borel import BorelEmbedding, check_exact_borel, comparison_complexes, inherited_borels
from strata.homology import cohomology, ext_dims_upto, hom_cochain, resolution
from strata.kernel.matrix import Matrix
from strata.modules import simple

from oracles import entry, induced_map_profile, ref_ext_dims
from test_generators import GENERATED, build
from test_interning import VARIANT, pool, variant

N_MAX = 3


def borel_embeddings(name):
    """The corpus Borel embedding of name, then every corner and quotient embedding
    inherited_borels checks for regularity at a coideal support, each with its
    regularity result."""
    e = entry(name)
    idem, gens = e.subalgebras["borel"]
    emb = BorelEmbedding.from_generators(e.algebra, e.poset, idem, gens)
    seen = {}
    check_regular = strata.borel.check_regular

    def record(emb, n_max, report=None):
        reg = check_regular(emb, n_max, report=report)
        seen.setdefault(id(emb), (emb, report or check_exact_borel(emb), reg))
        return reg

    with mock.patch.object(strata.borel, "check_regular", record):
        labels = emb.B.labels
        for r in range(1, len(labels) + 1):
            for support in itertools.combinations(labels, r):
                if e.poset.is_coideal(list(support)):
                    inherited_borels(emb, emb.B.idempotent_sum_for_labels(list(support)), N_MAX)
    return list(seen.values())


@pytest.mark.parametrize("name", ["dual-extension", "nonbasic-endo"])
def test_regularity_cells_and_ext_rows_match_the_per_degree_reads(name):
    checked = borel_embeddings(name)
    assert len(checked) > 3  # the ambient embedding and inherited ones
    for emb, report, reg in checked:
        for (i, j), dims_b, deltas_b, (dims_a, deltas_a, verticals) in comparison_complexes(
                emb, N_MAX, report.axiom3_certs):
            for n in range(1, N_MAX + 1):
                hb, ha, rank = induced_map_profile(dims_b, deltas_b, dims_a, deltas_a, verticals, n)
                assert reg["cells"][(i, j, n)] == {"dim_sub": hb, "dim_ambient": ha,
                                                   "injective": rank == hb, "surjective": rank == ha}
        for i, j in itertools.product(emb.B.labels, repeat=2):
            Li, Lj = simple(emb.B, i), simple(emb.B, j)
            assert ext_dims_upto(Li, Lj, N_MAX) == list(ref_ext_dims(Li, Lj, N_MAX))
            Di, Dj = emb.sd.delta[i], emb.sd.delta[j]
            assert ext_dims_upto(Di, Dj, N_MAX) == list(ref_ext_dims(Di, Dj, N_MAX))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(GENERATED, VARIANT)
def test_generated_ext_rows_and_profiles_match_the_per_degree_reads(quiver, how):
    B = variant(build(quiver), how)
    f = B.field
    for X, Y in itertools.product([simple(B, lab) for lab in B.labels], pool(B)[2:]):
        assert ext_dims_upto(X, Y, 2) == list(ref_ext_dims(X, Y, 2))
        # the identity and the zero map of Hom(P_*, Y) to itself, as cochain maps
        res = resolution(X).extend_to(3)
        layers = [res.layer_idempotents(n) for n in range(len(res.layers))]
        dims, deltas, _ = hom_cochain(B, layers, res.element_diffs, Y, 3)
        for make in (Matrix.identity, lambda f, d: Matrix.zeros(f, d, d)):
            verticals = [make(f, d) for d in dims]
            profile = cohomology(dims, deltas, range(1, 3), (dims, deltas, verticals))
            assert profile == [induced_map_profile(dims, deltas, dims, deltas, verticals, n) for n in (1, 2)]
