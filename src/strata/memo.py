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
them); the multiplicity tables of (A, poset), and the verdict on each layer
J/J' of its stratification chains, on its stratification datum.  Nothing is
keyed by ``id()``.

perfbench/spans.py wraps the public functions of the other modules, not of
this one, so a lookup adds no span to a traced run.
"""

from __future__ import annotations


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
