"""Standard-module families and stratification verdicts.

Standard objects over (A, poset):

    Delta_i    largest quotient of P_i with composition factors <= i
    DeltaBar_i largest quotient of Delta_i with [X : L_i] = 1
    Nabla_i    = D(Delta_i over the opposite algebra)  (costandard)
    NablaBar_i = D(DeltaBar_i over the opposite algebra)

Filtration checking is greedy with certificates.  For standard-type families
the layers with maximal label sit at the bottom and are peeled all at once as
the trace of the corresponding projective; for proper-standard-type families
(which admit self-extensions) single top layers are peeled via surjections.
Both peels are decided exactly through the simple top of the layer
(modules.surjection_onto_power), so every verdict is "yes" or "no".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, InvariantViolation, NotAntisymmetric, UnknownLabel
from .kernel.matrix import Matrix
from .kernel.subspace import Subspace
from .memo import derived
from .modules import (
    Module,
    comp_mult,
    iso_to_direct_power,
    left_ideal,
    projective,
    simple,
    surjection_onto_power,
    trace_from_projective,
)

YES, NO, UNDET = "yes", "no", "undetermined"


class LabelPoset:
    """Partial order on simple labels, stored as the full <= relation."""

    def __init__(self, labels, leq_pairs):
        self.labels = tuple(str(l) for l in labels)
        idx = {l: k for k, l in enumerate(self.labels)}
        if len(idx) != len(self.labels):
            raise InputError("duplicate labels in poset")
        n = len(self.labels)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for a, b in leq_pairs:
            a, b = str(a), str(b)
            if a not in idx or b not in idx:
                raise UnknownLabel(f"poset pair ({a},{b}) uses unknown label")
            rel[idx[a]][idx[b]] = True
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    ri, rk = rel[i], rel[k]
                    for j in range(n):
                        if rk[j]:
                            ri[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if rel[i][j] and rel[j][i]:
                    raise NotAntisymmetric(f"labels {self.labels[i]} and {self.labels[j]} form a cycle")
        self._idx = idx
        self._rel = tuple(tuple(r) for r in rel)

    @classmethod
    def antichain(cls, labels):
        return cls(labels, [])

    @classmethod
    def chain(cls, labels):
        labels = list(labels)
        return cls(labels, [(labels[k], labels[k + 1]) for k in range(len(labels) - 1)])

    @classmethod
    def product(cls, p, q, label_fmt="({a},{b})"):
        labels = [label_fmt.format(a=a, b=b) for a in p.labels for b in q.labels]
        pairs = []
        for a1 in p.labels:
            for b1 in q.labels:
                for a2 in p.labels:
                    for b2 in q.labels:
                        if p.leq(a1, a2) and q.leq(b1, b2):
                            pairs.append((label_fmt.format(a=a1, b=b1), label_fmt.format(a=a2, b=b2)))
        return cls(labels, pairs)

    def key(self):
        return (self.labels, self._rel)

    def __eq__(self, other):
        return isinstance(other, LabelPoset) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def leq(self, a, b):
        return self._rel[self._idx[str(a)]][self._idx[str(b)]]

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def up_set(self, a):
        return {b for b in self.labels if self.leq(a, b)}

    def is_coideal(self, subset):
        subset = {str(s) for s in subset}
        unknown = subset.difference(self.labels)
        if unknown:
            raise UnknownLabel(f"labels {sorted(unknown)} are not in the poset")
        # walk the labels in poset order: where all() stops may not depend on the hash seed
        return all(self.up_set(a) <= subset for a in self.labels if a in subset)

    def maximal_of(self, labels):
        labels = [str(l) for l in labels]
        return [a for a in labels if not any(self.lt(a, b) for b in labels)]

    def minimal_of(self, labels):
        labels = [str(l) for l in labels]
        return [a for a in labels if not any(self.lt(b, a) for b in labels)]

    def restrict(self, subset):
        subset = [l for l in self.labels if l in {str(s) for s in subset}]
        pairs = [(a, b) for a in subset for b in subset if self.leq(a, b)]
        return LabelPoset(subset, pairs)

    def refines(self, other):
        """Every relation of other holds here (labels must agree as sets)."""
        return set(self.labels) == set(other.labels) and all(
            self.leq(a, b) for a in other.labels for b in other.labels if other.leq(a, b)
        )

    def cover_pairs(self):
        out = []
        for a in self.labels:
            for b in self.labels:
                if self.lt(a, b) and not any(self.lt(a, c) and self.lt(c, b) for c in self.labels):
                    out.append((a, b))
        return out

    def linear_extension(self, put_last=()):
        """Kahn order, smallest-label-first; labels in put_last deferred."""
        put_last = {str(s) for s in put_last}
        remaining = list(self.labels)
        out = []
        while remaining:
            mins = self.minimal_of(remaining)
            preferred = [m for m in mins if m not in put_last]
            pool = preferred if preferred else mins
            pick = min(pool, key=self.labels.index)
            out.append(pick)
            remaining.remove(pick)
        return out

    def second_linear_extension(self):
        """A (possibly equal) extension choosing largest-label-first at ties."""
        remaining = list(self.labels)
        out = []
        while remaining:
            mins = self.minimal_of(remaining)
            pick = max(mins, key=self.labels.index)
            out.append(pick)
            remaining.remove(pick)
        return out

    def to_json(self):
        return {"labels": list(self.labels), "pairs": [list(p) for p in self.cover_pairs()]}

    def __repr__(self):
        return f"LabelPoset({self.labels}, covers {self.cover_pairs()})"


def all_posets(labels):
    """Every partial order on the given labels (|labels| <= 5)."""
    labels = [str(l) for l in labels]
    n = len(labels)
    if n > 5:
        raise InputError("poset enumeration limited to 5 labels")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []

    def transitive(rel):
        for i in range(n):
            for j in range(n):
                if rel[i][j]:
                    for k in range(n):
                        if rel[j][k] and not rel[i][k]:
                            return False
        return True

    total = 3 ** len(pairs)
    for code in range(total):
        c = code
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j) in pairs:
            s = c % 3
            c //= 3
            if s == 1:
                rel[i][j] = True
            elif s == 2:
                rel[j][i] = True
        if transitive(rel):
            out.append(LabelPoset(labels, [(labels[i], labels[j]) for i in range(n) for j in range(n) if i != j and rel[i][j]]))
    return out


# -- standard objects --------------------------------------------------------------


class StandardRecord:
    """Delta_i and DeltaBar_i for one label i and one set of labels j with j not <= i.

    Delta_i = P_i / sum of Tr_{P_j}(P_i) over those j depends on the order only
    through that set, so one record serves every order that gives the same set;
    ker(P_i ->> Delta_i) as a module is built on first use and kept here too.
    Both kernels are single images: the traces are the image of the stacked A e_j
    on P_i, and DeltaBar_i's kernel A·e_i·rad(Delta_i) is the image of A e_i on
    rad(Delta_i), so no invariant closure is iterated.
    """

    __slots__ = ("delta", "delta_bar", "_kernel_space", "_derived")

    def __init__(self, A, i, above):
        P = projective(A, i)
        # the sum of the traces Tr_{P_j}(P) = A e_j P is the image of the rows of every A e_j
        if above:
            U = P.image_of(Matrix.vcat([left_ideal(A, j).basis for j in above]))
        else:
            U = Subspace.zero(A.field, P.dim)
        delta, _ = P.quotient(U)
        # DeltaBar_i = Delta_i / A·e_i·rad(Delta_i), and A·e_i·rad(Delta_i) = (A e_i)·rad(Delta_i)
        T = delta.image_of(left_ideal(A, i).basis, delta.radical_subspace())
        self.delta = delta
        self.delta_bar, _ = delta.quotient(T)
        self._kernel_space = U
        self._derived = None

    def kernel_module(self, P):
        """ker(P ->> Delta_i) as (module, inclusion), P being the projective P_i."""
        return derived(self, ("kernel",), P.submodule, self._kernel_space)


class StratDatum:
    """All four standard families over (A, poset) plus verdicts."""

    def __init__(self, A, poset: LabelPoset):
        if set(poset.labels) != set(A.labels):
            raise UnknownLabel("poset labels differ from the algebra's simple labels")
        self.A = A
        self.poset = poset
        self.P = {i: projective(A, i) for i in A.labels}
        self.L = {i: simple(A, i) for i in A.labels}
        self._records = {i: self._build_delta(i) for i in A.labels}
        self.delta = {i: rec.delta for i, rec in self._records.items()}
        self.delta_bar = {i: rec.delta_bar for i, rec in self._records.items()}
        self._derived = {}  # the opposite datum, the costandards and the verdicts, on first use

    # construction ------------------------------------------------------------

    def _build_delta(self, i):
        """The StandardRecord of i, shared through A._derived by every order with the
        same labels j not <= i (taken in A.labels order)."""
        A = self.A
        above = tuple(j for j in A.labels if not self.poset.leq(j, i))
        return derived(A, ("delta", i, above), StandardRecord, A, i, above)

    @property
    def op(self) -> "StratDatum":
        """The datum of the opposite algebra for the same order (one level, no recursion)."""
        return derived(self, ("op",), lambda: strat_datum(self.A.opposite(), self.poset))

    @property
    def nabla(self):
        return derived(self, ("nabla",), lambda: {i: self.op.delta[i].dual() for i in self.A.labels})

    @property
    def nabla_bar(self):
        return derived(self, ("nabla_bar",), lambda: {i: self.op.delta_bar[i].dual() for i in self.A.labels})

    # filtration checking ---------------------------------------------------------

    def delta_kernel_module(self, i):
        """ker(P_i ->> Delta_i) as a Module with its inclusion."""
        return self._records[i].kernel_module(self.P[i])

    def left_stratified(self):
        """(verdict YES/NO, per-label filtration results)."""
        return derived(self, ("left",), self._left_stratified)

    def _left_stratified(self):
        results = {}
        verdict = YES
        for i in self.A.labels:
            K, _ = self.delta_kernel_module(i)
            allowed = {j for j in self.A.labels if self.poset.lt(i, j)}
            res = filtration_standard(K, self.delta, self.poset, allowed=allowed)
            results[i] = res
            if res.status == NO:
                verdict = NO
        return verdict, results

    def right_stratified(self):
        return derived(self, ("right",), lambda: self.op.left_stratified())

    def quasi_hereditary(self):
        """left stratified and Delta_i = DeltaBar_i for every i."""
        if self.left_stratified()[0] != YES:
            return NO
        for i in self.A.labels:
            if self.delta[i].dim != self.delta_bar[i].dim:
                return NO
        return YES

    def delta_filtration(self, X, allowed=None):
        """Greedy Delta-filtration check, cross-checked against the Ext oracle."""
        res = filtration_standard(X, self.delta, self.poset, allowed=allowed)
        if allowed is None and self.left_stratified()[0] == YES:
            oracle = self.ext_oracle_delta(X)
            if oracle != (res.status == YES):
                raise InvariantViolation("greedy and Ext oracle disagree")
        return res

    def ext_oracle_delta(self, X):
        """X in F(Delta) iff Ext^1(X, NablaBar_j) = 0 for all j (left stratified case)."""
        from .homology import ext_dim

        return all(ext_dim(X, self.nabla_bar[j], 1) == 0 for j in self.A.labels)

    def dimension_counts(self):
        """(sum_j dim Delta_j * dim NablaBar_j, sum_j dim Delta^op_j * dim DeltaBar_j),
        reading dim NablaBar_j as dim DeltaBar^op_j.

        Over a split algebra, BGG reciprocity (P_i : Delta_j) = [NablaBar_j : L_i]
        (Agoston, Happel, Lukacs and Unger 2000) gives dim A = the first count when
        (A, poset) is left standardly stratified, and dim A = the second when it is
        right standardly stratified.  The converse fails, so a count can refute a
        side but never confirm it.
        """
        op = self.op
        labels = self.A.labels
        return (sum(self.delta[j].dim * op.delta_bar[j].dim for j in labels),
                sum(op.delta[j].dim * self.delta_bar[j].dim for j in labels))

    def report_json(self):
        """Verdicts plus per-label filtration certificates (the chain matrices
        allow independent re-verification)."""
        left, results = self.left_stratified()
        right, op_results = self.right_stratified()
        if is_split(self.A):
            # both sides are built here, so checking each YES against its count is free
            for side, verdict, count in zip(("left", "right"), (left, right), self.dimension_counts()):
                if verdict == YES and count != self.A.dim:
                    raise InvariantViolation(f"{side} standardly stratified, but the dimension count "
                                             f"is {count}, not dim A = {self.A.dim}")
        return {
            "left_standardly_stratified": left,
            "right_standardly_stratified": right,
            "quasi_hereditary": self.quasi_hereditary(),
            "standard_dims": {i: self.delta[i].dim for i in self.A.labels},
            "proper_standard_dims": {i: self.delta_bar[i].dim for i in self.A.labels},
            "costandard_dims": {i: self.nabla[i].dim for i in self.A.labels},
            "proper_costandard_dims": {i: self.nabla_bar[i].dim for i in self.A.labels},
            "kernel_filtrations": {i: results[i].to_json() for i in self.A.labels},
            "opposite_kernel_filtrations": {i: op_results[i].to_json() for i in self.A.labels},
        }

    # essential order ---------------------------------------------------------------

    def essential_order(self) -> LabelPoset:
        pairs = []
        for i in self.A.labels:
            for j in self.A.labels:
                if i == j:
                    continue
                if comp_mult(self.delta[i], j) != 0 or comp_mult(self.nabla_bar[i], j) != 0:
                    pairs.append((j, i))
        return LabelPoset(self.A.labels, pairs)


def is_split(A):
    """Every End(L_j) = k.  dim End(L_j) = dim Hom(P_j, L_j) = dim e_j L_j = [L_j : L_j],
    which comp_mult keeps on the cached simple module, so no Hom space is solved."""
    return all(comp_mult(simple(A, j), j) == 1 for j in A.labels)


def strat_datum(A, poset: LabelPoset) -> StratDatum:
    """The StratDatum of (A, poset), cached on A so that it dies with A."""
    return derived(A, ("strat", poset.key()), StratDatum, A, poset)


# -- filtration certificates ----------------------------------------------------------


@dataclass
class FiltrationResult:
    status: str  # yes / no
    layers: list = field(default_factory=list)  # (label, multiplicity) in peel order
    chain: list = field(default_factory=list)  # ascending subspaces of the ambient module
    certs: list = field(default_factory=list)
    witness: str | None = None
    direction: str = "bottom_up"

    def multiplicity(self, label):
        return sum(m for lab, m in self.layers if lab == str(label))

    def to_json(self):
        out = {
            "status": self.status,
            "direction": self.direction,
            "layers": [[lab, m] for lab, m in self.layers],
            "chain": [
                {"dim": s.dim, "basis": s.basis.to_json()} for s in self.chain
            ],
        }
        if self.witness:
            out["witness"] = self.witness
        return out


def filtration_standard(X: Module, family, poset, allowed=None, tie_break="forward"):
    """Greedy bottom-up filtration by a standard-type family.

    Repeatedly peels the trace of P_j for j maximal among the composition
    factor labels; that trace T must be Delta_j^t with t = [X : L_j].  Each
    module it peels keeps T (modules.trace_from_projective), X/T under
    ("peel", j) and the certificate for T = D^t under ("power", j, D.stack),
    so every filtration that peels j off the same module reaches the same
    quotient; the chain in X's coordinates is built per call.
    """
    A = X.algebra
    f = A.field
    cur = X
    proj_to_cur = Matrix.identity(f, X.dim)
    layers, chain, certs = [], [], []
    while cur.dim:
        mults = {lab: comp_mult(cur, lab) for lab in A.labels}
        if sum(m * simple(A, lab).dim for lab, m in mults.items()) != cur.dim:
            raise InvariantViolation(f"the composition factors of a module of dim {cur.dim} "
                                     f"do not add up to its dimension")
        present = [lab for lab in A.labels if mults[lab] > 0]
        maximal = poset.maximal_of(present)
        cands = sorted(maximal, key=A.labels.index, reverse=(tie_break == "reverse"))
        j = cands[0]
        if allowed is not None and j not in allowed:
            return FiltrationResult(NO, layers, chain, certs,
                                    witness=f"layer label {j} is outside the allowed set")
        D = family[j]
        # each layer carries [D : L_j] = dim End(D) copies of the top factor
        m = comp_mult(D, j)
        if m == 0:
            raise InvariantViolation(f"[Delta_{j} : L_{j}] = 0")
        if mults[j] % m:
            return FiltrationResult(NO, layers, chain, certs,
                                    witness=f"[X : L_{j}] = {mults[j]} is not a multiple of {m}")
        t = mults[j] // m
        T = trace_from_projective(j, cur)
        if T.dim != t * D.dim:
            return FiltrationResult(NO, layers, chain, certs,
                                    witness=f"trace of P_{j} has dim {T.dim}, expected {t}*{D.dim}")
        cert = derived(cur, ("power", j, D.stack), lambda: iso_to_direct_power(cur.submodule(T)[0], D, t))
        if cert is None:
            bad = (_power_invariant_witness(cur.submodule(T)[0], D, t)
                   or f"the trace of P_{j} does not map onto Delta_{j}^{t}")
            return FiltrationResult(NO, layers, chain, certs, witness=bad)
        cur = derived(cur, ("peel", j), lambda: cur.quotient(T)[0])
        proj_to_cur = T.project(proj_to_cur)
        # record the chain step in ambient coordinates
        chain.append(Subspace.column_space(proj_to_cur.kernel_basis()))
        layers.append((j, t))
        certs.append(cert)
    return FiltrationResult(YES, layers, chain, certs)


def _power_invariant_witness(T: Module, D: Module, t):
    """An invariant telling T from D^t, or None: composition factors, then the
    dimensions of radical and socle, which are additive and kept by isomorphisms."""
    for lab in T.algebra.labels:
        a, b = comp_mult(T, lab), t * comp_mult(D, lab)
        if a != b:
            return f"[trace : L_{lab}] = {a} != {t}*[layer : L_{lab}] = {b}"
    for name, space in (("rad", Module.radical_subspace), ("soc", Module.socle_subspace)):
        a, b = space(T).dim, t * space(D).dim
        if a != b:
            return f"dim {name}(trace) = {a} != {t}*dim {name}(layer) = {b}"
    return None


def filtration_proper(X: Module, family, poset, allowed=None, tie_break="forward"):
    """Greedy top-down filtration by a proper-standard-type family.

    Peels one epimorphism X ->> DeltaBar_j at a time.  The family is closed
    under kernels of epimorphisms onto its members, so peeling any layer that
    admits an epimorphism is safe; epi existence is an exact linear test
    because every family member has simple top.  Self-extensions make the
    bottom-up multi-peel of the standard greedy unsound here.
    """
    A = X.algebra
    f = A.field
    cur = X
    incl_to_X = Matrix.identity(f, X.dim)
    layers, chain, certs = [], [], []
    while cur.dim:
        topmod, _ = cur.top()
        present = [lab for lab in A.labels if comp_mult(topmod, lab) > 0]
        if not present:
            raise InvariantViolation(f"the top of a module of dim {cur.dim} has no composition factor")
        if allowed is not None:
            bad = [lab for lab in present if lab not in allowed]
            present = [lab for lab in present if lab in allowed]
            if not present:
                return FiltrationResult(NO, layers, chain, certs,
                                        witness=f"all top labels {bad} are outside the allowed set",
                                        direction="top_down")
        mins = set(poset.minimal_of(present))
        cands = sorted(present, key=lambda l: (l not in mins, A.labels.index(l)),
                       reverse=(tie_break == "reverse"))
        epi, j = None, None
        for cand in cands:
            epi = surjection_onto_power(cur, family[cand], 1)
            if epi is not None:
                j = cand
                break
        if epi is None:
            return FiltrationResult(NO, layers, chain, certs,
                                    witness=f"no family member among top labels {cands} is a quotient",
                                    direction="top_down")
        K = epi.kernel_basis()
        ker_space = Subspace.column_space(K)
        layers.append((j, 1))
        certs.append(epi)
        incl_to_X = ker_space.restrict(incl_to_X)
        chain.append(Subspace.column_space(incl_to_X))
        cur = cur.submodule(ker_space)[0]
    return FiltrationResult(YES, layers, chain, certs, direction="top_down")


# -- public verdict API -------------------------------------------------------------


def poset_search(A):
    """All posets on the labels with their left/right/qh verdicts.

    Over a split algebra, a side whose dimension count (StratDatum.dimension_counts)
    is not dim A is not stratified, so it is answered NO without a filtration; a
    side whose count is dim A is peeled as usual.
    """
    gated = is_split(A)
    out = []
    for poset in all_posets(A.labels):
        # neither side's datum is cached on its algebra (sd is handed its own
        # opposite): the standard modules they share across orders are kept on
        # A and A.opposite() by StratDatum._build_delta
        sd = StratDatum(A, poset)
        derived(sd, ("op",), StratDatum, A.opposite(), poset)
        # an algebra that is not split peels every side
        s_left, s_right = sd.dimension_counts() if gated else (A.dim, A.dim)
        left = sd.left_stratified()[0] if s_left == A.dim else NO
        right = sd.right_stratified()[0] if s_right == A.dim else NO
        # quasi-hereditary needs left standardly stratified
        qh = sd.quasi_hereditary() if s_left == A.dim else NO
        out.append((poset, {"left": left, "right": right, "quasi_hereditary": qh}))
    return out


def bgg_reciprocity_check(sd: StratDatum):
    """[Delta_j : L_i] != 0 iff (I_i : NablaBar_j) != 0, and
    [NablaBar_j : L_i] != 0 iff (P_i : Delta_j) != 0, for all pairs."""
    left, results = sd.left_stratified()
    if left != YES:
        raise InputError("BGG reciprocity requires a verified left stratified algebra")
    p_mult = {}
    for i in sd.A.labels:
        res = results[i]
        for j in sd.A.labels:
            p_mult[(i, j)] = res.multiplicity(j) + (1 if i == j else 0)
    # (I_i : NablaBar_j) = multiplicity of the op proper standard in P_i over A^op
    i_mult = {}
    opd = sd.op
    for i in sd.A.labels:
        res = filtration_proper(opd.P[i], opd.delta_bar, sd.poset)
        if res.status != YES:
            raise InputError(f"injective {i} is not properly filtered; not left stratified?")
        for j in sd.A.labels:
            i_mult[(i, j)] = res.multiplicity(j)
    for i in sd.A.labels:
        for j in sd.A.labels:
            dl = comp_mult(sd.delta[j], i) != 0
            if dl != (i_mult[(i, j)] != 0):
                return False
            nb = comp_mult(sd.nabla_bar[j], i) != 0
            if nb != (p_mult[(i, j)] != 0):
                return False
    return True
