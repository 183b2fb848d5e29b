"""The one place where derived data is memoised.

Every value strata derives from an algebra or a module and keeps -- generators,
idempotent splits, corners, ideals, the modules themselves, named modules,
standard records, stratification data, radicals, block data, Hom spaces, Ext
dimensions, multiplicities, peels and resolutions -- is stored by ``derived``
in the ``_derived`` dict of the object it describes, so it dies with that
object.  A value is keyed by what fixes it: every module by its stack, on its
algebra (so a module and its data live as long as the algebra); a module's
Hom space and Ext dimensions to Y by Y's stack; the quotient algebra A/AeA and
the module A/AeA by the ideal AeA (so the subset sums of one support share
them); the multiplicity tables of (A, poset), the verdict on each layer J/J'
of its stratification chains, and the filtrations of the battery's quotient
modules (by the module's stack), on its stratification datum.  Nothing is
keyed by ``id()``.

Algebras are kept one level up, by a ``Family``: every algebra holds the
family it was built into, and every corner, quotient, opposite and subalgebra
closure is stored on that family under ("algebra", field, basis names, table,
unit, idempotents with labels, presentation) -- everything a report can read
of it, never the algebra it came from.  So content-equal algebras of one
family are one object, with one set of modules, Hom spaces and verdicts, even
when they are reached from different roots, and a derived algebra lives as
long as its family.  A root built on its own (a spec file the CLI loads, an
algebra a test builds) is the only member of a fresh family; a verify-paper
run is one family, which also keeps the run's corpus entries and battery
sweep, so two runs share nothing.

perfbench/spans.py wraps the public functions of the other modules, not of
this one, so a lookup adds no span to a traced run.
"""

from __future__ import annotations


class Family:
    """The owner of one content table of algebras (see the module docstring)."""

    __slots__ = ("_derived", "__weakref__")

    def __init__(self):
        self._derived = None


def derived(owner, key, build, *args):
    """owner._derived[key], built as build(*args) and stored on the first call.

    A module's dict is allocated on first use.  A build that raises stores
    nothing, so a refused input raises again on every call.
    """
    memo = owner._derived
    if memo is None:
        memo = owner._derived = {}
    if key in memo:
        return memo[key]
    value = memo[key] = build(*args)
    return value
