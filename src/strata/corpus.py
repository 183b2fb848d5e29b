"""The bundled verification corpus.

Each entry is a small algebra with a labelling order and, where relevant,
named subalgebras; together they witness every verified claim of the
acceptance suite.  The entries are the spec files under strata/corpus/, and
each file's "meta" holds its description and the claims it witnesses.

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

The corpus is loaded per run: entry(run, name) reads the spec file once per
run (a memo.Family) and joins its algebra to the run's family, so fork-refined,
whose algebra is fork's, gets fork's algebra object, and every algebra the run
derives from the corpus is kept in one content table.  Nothing is kept between
runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .algebra import Algebra
from .errors import InputError
from .memo import derived
from .specfile import load_spec_file
from .strat import LabelPoset

# the order the acceptance battery walks the corpus in
NAMES = (
    "fork", "fork-refined", "diamond", "sl2-block", "rad-square-zero",
    "auslander-x3", "ext2-chain", "dual-extension", "nonbasic-endo", "sl2-tensor-square",
)
# the one entry whose order is not left stratified (no order is)
NOT_STRATIFYING = "rad-square-zero"


@dataclass
class CorpusEntry:
    name: str
    algebra: Algebra
    poset: LabelPoset
    subalgebras: dict  # name -> (idem_gens: [(vec,label)], gens: [vec])
    stratifies: bool  # whether (algebra, poset) is expected left stratified


def corpus_path(name):
    return os.path.join(os.path.dirname(__file__), "corpus", f"{name}.json")


def corpus(run):
    """Every entry of the run's corpus, by name, in the order of NAMES."""
    return {name: entry(run, name) for name in NAMES}


def entry(run, name) -> CorpusEntry:
    """The run's entry name, loaded on its first request.  A name outside NAMES
    raises InputError before any file is opened."""
    if name not in NAMES:
        raise InputError(f"no corpus entry {name!r}; the entries are {', '.join(NAMES)}")
    return derived(run, ("corpus", name), _load, run, name)


def _load(run, name):
    sd = load_spec_file(corpus_path(name))
    return CorpusEntry(name, sd.algebra.join(run), sd.poset, sd.subalgebras, name != NOT_STRATIFYING)
