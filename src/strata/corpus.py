"""The bundled verification corpus.

Each entry is a small algebra with a labelling order and, where relevant,
named subalgebras; together they witness every verified claim of the
acceptance suite.  Entries are built programmatically here and shipped as
spec files under strata/corpus/ (kept in sync by a round-trip test).

Naming: arrows use ASCII letters; the quivers are

  fork              1 --a--> 2 <--b-- 1'            (hereditary)
  fork-refined      same algebra, total order 1 < 1' < 2
  diamond           1 -> 2 -> 3, 1 -> 4 -> 3, commuting square
  sl2-block         1 <=> 2, a: 1->2, b: 2->1, a∘b = 0
  rad-square-zero   1 <=> 2, both length-2 compositions zero
  auslander-x3      1 <=> 2 <=> 3, End of k[x]/(x^3)-modules
  ext2-chain        1 -g-> 2 =a,b=> 3, b∘g = 0
  dual-extension    2 <=> 1 <=> 3 with g∘d = b∘a = b∘d∘g∘a = 0
  nonbasic-endo     12-dim endomorphism algebra in matrix form (two
                    idempotents share the label 3); has an 8-dim directed
                    subalgebra "borel"
  sl2-tensor-square tensor square of sl2-block, product order
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, compile_quiver, structure_constant_algebra
from .errors import InvariantViolation
from .kernel.fields import QQ
from .quiver import QuiverPresentation
from .strat import LabelPoset


@dataclass
class CorpusEntry:
    name: str
    description: str
    claims: tuple
    algebra: Algebra
    poset: LabelPoset
    subalgebras: dict  # name -> (idem_gens: [(vec,label)], gens: [vec])
    stratifies: bool  # whether (algebra, poset) is expected left stratified


def _quiver(vertices, arrows, relations, L, fld=QQ):
    pres = QuiverPresentation.make(vertices, arrows, relations, L)
    return compile_quiver(pres, fld)


def build_fork(refined=False):
    A = _quiver(["1", "2", "1'"], [("a", "1", "2"), ("b", "1'", "2")], [], 2)
    if refined:
        poset = LabelPoset(A.labels, [("1", "1'"), ("1'", "2")])
    else:
        poset = LabelPoset(A.labels, [("1", "2"), ("1'", "2")])
    return A, poset


def build_diamond():
    A = _quiver(
        ["1", "2", "3", "4"],
        [("g", "1", "2"), ("d", "2", "3"), ("a", "1", "4"), ("b", "4", "3")],
        [[(1, ("b", "a")), (-1, ("d", "g"))]],
        3,
    )
    poset = LabelPoset(A.labels, [("1", "2"), ("2", "3"), ("3", "4")])
    return A, poset


def build_sl2_block():
    A = _quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [[(1, ("a", "b"))]], 3)
    poset = LabelPoset(A.labels, [("1", "2")])
    return A, poset


def build_rad_square_zero():
    A = _quiver(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        [[(1, ("a", "b"))], [(1, ("b", "a"))]],
        2,
    )
    poset = LabelPoset(A.labels, [("1", "2")])
    return A, poset


def build_auslander_x3():
    A = _quiver(
        ["1", "2", "3"],
        [("a1", "1", "2"), ("b1", "2", "1"), ("a2", "2", "3"), ("b2", "3", "2")],
        [[(1, ("a1", "b1")), (-1, ("b2", "a2"))], [(1, ("a2", "b2"))]],
        5,
    )
    poset = LabelPoset(A.labels, [("1", "2"), ("2", "3")])
    return A, poset


def build_ext2_chain():
    A = _quiver(
        ["1", "2", "3"],
        [("g", "1", "2"), ("a", "2", "3"), ("b", "2", "3")],
        [[(1, ("b", "g"))]],
        3,
    )
    poset = LabelPoset(A.labels, [("1", "2"), ("2", "3")])
    return A, poset


def build_dual_extension():
    A = _quiver(
        ["1", "2", "3"],
        [("d", "2", "1"), ("g", "1", "2"), ("b", "1", "3"), ("a", "3", "1")],
        [[(1, ("g", "d"))], [(1, ("b", "a"))], [(1, ("b", "d", "g", "a"))]],
        7,
    )
    poset = LabelPoset(A.labels, [("1", "2"), ("2", "3")])
    return A, poset


def dual_extension_borel_generators(A):
    """Directed subalgebra generated by g, b and b∘d, with the vertex idempotents."""
    idem = [(A.element_from_path([v]), v) for v in ("1", "2", "3")]
    gens = [
        A.element_from_path(["g"]),
        A.element_from_path(["b"]),
        A.element_from_path(["b", "d"]),
    ]
    return idem, gens


_ENDO_PATTERN = [
    (1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (3, 5),
    (4, 2), (4, 3), (4, 4), (4, 5), (5, 5),
]


def build_nonbasic_endo():
    """12-dim algebra of a pattern of 5x5 matrices with multiplication opposite
    to matrix multiplication; the two idempotents E33, E44 share the label 3."""
    names = [f"E{r}{c}" for r, c in _ENDO_PATTERN]
    pos = {rc: k for k, rc in enumerate(_ENDO_PATTERN)}
    table = []
    # x * y = y · x in usual matrix terms: E_ab * E_cd = delta_{d,a} E_cb
    for i, (a, b) in enumerate(_ENDO_PATTERN):
        for j, (c, d) in enumerate(_ENDO_PATTERN):
            if d == a:
                k = pos.get((c, b))
                if k is None:
                    raise InvariantViolation("pattern is not multiplicatively closed")
                table.append((i, j, k, 1))
    unit = [0] * len(names)
    for r in (1, 2, 3, 4, 5):
        unit[pos[(r, r)]] = 1
    labels = {1: "1", 2: "2", 3: "3", 4: "3", 5: "4"}
    idems = []
    for r in (1, 2, 3, 4, 5):
        v = [0] * len(names)
        v[pos[(r, r)]] = 1
        idems.append((v, labels[r]))
    A = structure_constant_algebra(QQ, names, table, unit, idems)
    poset = LabelPoset(A.labels, [("1", "2"), ("2", "3"), ("3", "4")])
    return A, poset


def nonbasic_endo_borel_generators(A):
    pos = {rc: k for k, rc in enumerate(_ENDO_PATTERN)}

    def unit_vec(*rcs):
        v = [0] * A.dim
        for rc in rcs:
            v[pos[rc]] = 1
        return tuple(QQ.coerce(x) for x in v)

    idem = [
        (unit_vec((1, 1), (4, 4)), "1"),
        (unit_vec((2, 2)), "2"),
        (unit_vec((3, 3)), "3"),
        (unit_vec((5, 5)), "4"),
    ]
    gens = [
        unit_vec((1, 2), (4, 2)),  # arrow 1 -> 2
        unit_vec((4, 3)),          # arrow 1 -> 3
        unit_vec((3, 5)),          # arrow 3 -> 4
    ]
    return idem, gens


def build_sl2_tensor_square():
    sl2, p = build_sl2_block()
    A = sl2.tensor_product(sl2)
    poset = LabelPoset.product(p, p)
    return A, poset


def _entries():
    fork, fork_poset = build_fork()
    fork_r, fork_r_poset = build_fork(refined=True)
    diamond, diamond_poset = build_diamond()
    sl2, sl2_poset = build_sl2_block()
    rad2, rad2_poset = build_rad_square_zero()
    ausl, ausl_poset = build_auslander_x3()
    ext2, ext2_poset = build_ext2_chain()
    dext, dext_poset = build_dual_extension()
    endo, endo_poset = build_nonbasic_endo()
    tensq, tensq_poset = build_sl2_tensor_square()
    out = [
        CorpusEntry(
            "fork", "two sources over one sink; quasi-hereditary with simple standard modules",
            ("one-sided filtration of the quotient by the ideal at 1",
             "trace of the quotient algebra inside the proper costandard at 2"),
            fork, fork_poset, {}, True),
        CorpusEntry(
            "fork-refined", "the fork algebra with a total refinement of its essential order",
            ("support coideal of the essential order but not of the input order",
             "refinement keeps all standard objects"),
            fork_r, fork_r_poset, {}, True),
        CorpusEntry(
            "diamond", "commuting square; quasi-hereditary but without a directed splitting subalgebra",
            ("inflation identities hold while the quotient is not filtered",
             "radicals of standard modules not costandardly filtered"),
            diamond, diamond_poset, {}, True),
        CorpusEntry(
            "sl2-block", "principal block of category O for sl2",
            ("corner and quotient stratified while neither filtration condition holds at e_1",
             "identity multiplicity matrix"),
            sl2, sl2_poset, {}, True),
        CorpusEntry(
            "rad-square-zero", "radical-square-zero double arrow; stratified for no order",
            ("poset search finds nothing", "corner and quotient at 1 are quasi-hereditary"),
            rad2, rad2_poset, {}, False),
        CorpusEntry(
            "auslander-x3", "Auslander algebra of k[x]/(x^3)",
            ("quotient by the ideal at {1,2} is the simple at 3",
             "corner at {1,2} is not left standardly stratified"),
            ausl, ausl_poset, {}, True),
        CorpusEntry(
            "ext2-chain", "semisimple idempotent quotient that is no homological embedding",
            ("Ext^2(L_1, L_3) = 1 over the big algebra, 0 over the quotient",),
            ext2, ext2_poset, {}, True),
        CorpusEntry(
            "dual-extension", "Ringel dual of the dual extension of the linear A3 quiver",
            ("8-axiom directed splitting subalgebra generated by g, b, b∘d",
             "restriction identity and normal splitting"),
            dext, dext_poset,
            {"borel": dual_extension_borel_generators(dext)}, True),
        CorpusEntry(
            "nonbasic-endo", "non-basic 12-dim endomorphism algebra with repeated label 3",
            ("support of the embedded idempotent at 1 is {1,3}",
             "induced quotient map of the subalgebra fails to be injective at 1"),
            endo, endo_poset,
            {"borel": nonbasic_endo_borel_generators(endo)}, True),
        CorpusEntry(
            "sl2-tensor-square", "tensor square of the sl2 block with the product order",
            ("multiplicity matrix matches the rank-two product table computation entrywise",),
            tensq, tensq_poset, {}, True),
    ]
    return out


_CACHE = None


def corpus():
    global _CACHE
    if _CACHE is None:
        _CACHE = {e.name: e for e in _entries()}
    return _CACHE


def entry(name) -> CorpusEntry:
    return corpus()[name]


# -- spec-file export -----------------------------------------------------------------


def _subalgebra_spec(name, ent):
    if name == "dual-extension":
        return {
            "borel": {
                "idempotents": [{"label": v, "element": {"path": [v]}} for v in ("1", "2", "3")],
                "generators": [{"path": ["g"]}, {"path": ["b"]}, {"path": ["b", "d"]}],
            }
        }
    if name == "nonbasic-endo":
        idem, gens = ent.subalgebras["borel"]
        fld = ent.algebra.field
        return {
            "borel": {
                "idempotents": [
                    {"label": lab, "element": {"coords": [fld.fmt(c) for c in v]}} for v, lab in idem
                ],
                "generators": [{"coords": [fld.fmt(c) for c in g]} for g in gens],
            }
        }
    return None


def entry_spec(name) -> dict:
    """The JSON spec document for a bundled corpus entry."""
    from .specfile import export_algebra, export_quiver_spec

    ent = entry(name)
    meta = {"name": ent.name, "description": ent.description, "claims": list(ent.claims)}
    subs = _subalgebra_spec(name, ent)
    if ent.algebra.presentation is not None:
        out = export_quiver_spec(ent.algebra.presentation, ent.algebra.field, ent.poset,
                                 subalgebras=subs, meta=meta)
    else:
        out = export_algebra(ent.algebra, ent.poset, meta=meta)
        if subs:
            out["subalgebras"] = subs
    return out


def corpus_dir():
    import os

    return os.path.join(os.path.dirname(__file__), "corpus")


def corpus_path(name):
    import os

    return os.path.join(corpus_dir(), f"{name}.json")


def write_corpus_files(dirpath=None):
    import os

    from .specfile import dump

    dirpath = dirpath or corpus_dir()
    os.makedirs(dirpath, exist_ok=True)
    for name in corpus():
        with open(os.path.join(dirpath, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(dump(entry_spec(name)) + "\n")
