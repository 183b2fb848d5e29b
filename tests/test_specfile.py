"""Spec file schema: strictness, element specs, round-trips, serialization, and the
corpus spec files that are not readable by eye against the constructions they
were written from."""

import json

import pytest

from strata.corpus import corpus_path
from strata.errors import InputError
from strata.kernel.fields import QQ
from strata.kernel.matrix import Matrix
from strata.specfile import dump, export_algebra, load_spec, load_spec_file
from strata.strat import LabelPoset

from oracles import corpus, corpus_doc, entry, nonbasic_endo, nonbasic_endo_borel_generators, tensor_product


class TestSchema:
    def test_unknown_top_key_rejected(self):
        doc = corpus_doc("sl2-block")
        doc["surprise"] = 1
        with pytest.raises(InputError):
            load_spec(json.dumps(doc))

    def test_missing_required_key(self):
        doc = corpus_doc("sl2-block")
        del doc["order"]
        with pytest.raises(InputError):
            load_spec(json.dumps(doc))

    def test_unknown_sc_key_rejected(self):
        doc = corpus_doc("nonbasic-endo")
        doc["presentation"]["structure_constants"]["extra"] = []
        with pytest.raises(InputError):
            load_spec(json.dumps(doc))

    def test_bad_field_descriptor(self):
        doc = corpus_doc("sl2-block")
        doc["field"] = "R"
        with pytest.raises(InputError):
            load_spec(json.dumps(doc))

    def test_element_specs(self):
        sd = load_spec_file(corpus_path("dual-extension"))
        idem, gens = sd.subalgebras["borel"]
        assert len(idem) == 3 and len(gens) == 3
        A = sd.algebra
        # path spec composes right to left: ["b", "d"] is the length-2 path
        composite = gens[2]
        assert composite == A.mult_vec(A.element_from_path(["b"]), A.element_from_path(["d"]))


class TestCorpusFiles:
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_file_is_its_canonical_dump(self, name):
        with open(corpus_path(name), encoding="utf-8") as fh:
            text = fh.read()
        assert text == dump(json.loads(text)) + "\n"

    def test_nonbasic_endo_is_the_matrix_pattern(self):
        sd = load_spec_file(corpus_path("nonbasic-endo"))
        A = nonbasic_endo()
        assert sd.algebra == A
        assert sd.poset == LabelPoset(A.labels, [("1", "2"), ("2", "3"), ("3", "4")])
        idem, gens = nonbasic_endo_borel_generators(A)
        assert sd.subalgebras == {"borel": (idem, gens)}

    def test_sl2_tensor_square_is_the_tensor_square_of_sl2_block(self):
        sd = load_spec_file(corpus_path("sl2-tensor-square"))
        sl2 = load_spec_file(corpus_path("sl2-block"))
        assert sd.algebra == tensor_product(sl2.algebra, sl2.algebra)
        assert sd.poset == LabelPoset.product(sl2.poset, sl2.poset)


class TestRoundTrip:
    def test_derived_algebra_round_trip(self):
        # corner, quotient, tensor and closure re-import identically
        A = entry("auslander-x3").algebra
        poset = entry("auslander-x3").poset
        e = A.idempotent_sum_for_labels(["1", "2"])
        for derived, sub in [
            (A.corner(e)[0], poset.restrict(["1", "2"])),
            (A.quotient_by_idempotent_ideal(e)[0], poset.restrict(["3"])),
        ]:
            doc = export_algebra(derived, sub)
            back = load_spec(json.dumps(doc))
            assert back.algebra == derived
            assert back.poset == sub

    def test_tensor_round_trip(self):
        ent = entry("sl2-tensor-square")
        doc = export_algebra(ent.algebra, ent.poset)
        back = load_spec(json.dumps(doc))
        assert back.algebra == ent.algebra

    def test_dump_deterministic(self):
        a = dump(corpus_doc("fork"))
        b = dump(corpus_doc("fork"))
        assert a == b


class TestSerialization:
    def test_matrix_json(self):
        M = Matrix.from_rows(QQ, [[1, "1/2"], [0, 3]])
        M2 = Matrix.from_json(QQ, M.to_json())
        assert M == M2

    def test_scalar_strings_in_files(self):
        doc = corpus_doc("diamond")
        rels = doc["presentation"]["relations"]
        coeffs = {c for rel in rels for c, _ in rel}
        assert coeffs == {"1", "-1"}
