"""Sparse exact matrices over Q or F_p, stored as integer rows.

A matrix keeps one entry of ``nonzeros`` per row: ``None`` for a zero row,
otherwise a pair ``(columns, values)`` of tuples, the strictly increasing
column indices of the row's nonzero entries and the nonzero integers there.
Over Q the values are numerators over one positive common denominator
``den``, in lowest terms: gcd(den, *values) == 1, and den == 1 for the zero
matrix.  Over F_p the values are residues in 1..p-1 and ``den`` is 1.  The
form is canonical, so ``==`` and ``hash`` compare ``(den, nonzeros)``.

Every operation touches only the stored nonzeros: a product runs over the
left factor's nonzeros against the right factor's stored rows; row picks and
stacking select row tuples; transposes, reshapes, splits and Kronecker
products are one pass over the nonzeros.  Two block kernels do in one pass
what would otherwise be a chain of such layout steps around a product, each
building a matrix only to cut it up again: combine_blocks is (R ⊗ I_d) · S,
each row of R combining the d-row blocks of S (a module acting by a family
of algebra elements), and mul_row_blocks multiplies Y into each row of W
cut into blocks of width w (products of element families against an
algebra's table).  Elimination builds dense integer
rows once per rank / rref and hands them to the two echelon routines of
_elim_py (fraction-free elimination over Z for Q, ordinary reduction mod p):
scaling a matrix by its denominator does not change its row space.  A matrix
whose nonzero rows each hold one entry (the transpose of a coordinate
projection, such as act(e) on a path basis) is not eliminated: its RREF is the
unit rows at those columns, read off the stored rows.  Field elements
(``Fraction`` over Q, ints over F_p) are built only by the accessors --
``m[i, j]``, ``row``, ``col``, ``entries``, ``trace``, ``to_json`` -- and never
cached beside the integers.

Immutable after construction.  rank / kernel_basis / solve are exact: solve
re-multiplies to verify its answer, kernel columns multiply to exactly zero.
rank and rref eliminate on every call and keep nothing: a caller that needs
an echelon form twice keeps it (homology.cohomology ranks each delta once).
The ``_echelon`` slot is always None; perfbench/spans.py still reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm

from ..errors import DimensionMismatch, FieldMismatch
from ._elim_py import echelon_int, echelon_mod
from .fields import RationalField


def _ints(field, entries):
    """(den, nums) of a sequence of field elements (or coercible values)."""
    p = field.char
    if p:
        return 1, [x % p if type(x) is int else field.coerce(x) for x in entries]
    try:
        den = lcm(*{x.denominator for x in entries})  # ints and Fractions
    except AttributeError:
        entries = [field.coerce(x) for x in entries]
        den = lcm(*{x.denominator for x in entries})
    if den == 1:
        return 1, [x.numerator for x in entries]
    # Lowest-terms entries over the lcm of their denominators are already canonical.
    return den, [x.numerator * (den // x.denominator) for x in entries]


def _pack(row, cols):
    """The stored form of a dense row of integers (zeros allowed): None or (columns, values)."""
    where = tuple(compress(cols, row))
    return (where, tuple(compress(row, row))) if where else None


def _at(r, j):
    """The integer at column j of the stored row r."""
    if r:
        where = r[0]
        k = bisect_left(where, j)
        if k < len(where) and where[k] == j:
            return r[1][k]
    return 0


class Matrix:
    __slots__ = ("field", "rows", "cols", "den", "nonzeros", "_echelon")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows*cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.den, nums = _ints(field, entries)
        span = range(cols)
        self.nonzeros = tuple([_pack(nums[i * cols : (i + 1) * cols], span) for i in range(rows)])
        self._echelon = None

    @classmethod
    def _new(cls, field, rows, cols, den, nonzeros):
        """Wrap rows already in canonical form (nonzeros: a tuple)."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.den = den
        m.nonzeros = nonzeros
        m._echelon = None
        return m

    @classmethod
    def _reduced(cls, field, rows, cols, den, nonzeros):
        """Wrap rows of nonzero values (residues over F_p), dividing out gcd(den, *values) over Q."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(r[1] for r in nonzeros if r))
            if g != 1:
                den //= g
                nonzeros = tuple([r and (r[0], tuple([x // g for x in r[1]])) for r in nonzeros])
        return cls._new(field, rows, cols, den, nonzeros)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != m:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(field, n, m, flat)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._new(field, rows, cols, 1, (None,) * rows)

    @classmethod
    def identity(cls, field, n):
        return cls._new(field, n, n, 1, tuple([((i,), (1,)) for i in range(n)]))

    @classmethod
    def from_integers(cls, field, rows, cols, nonzeros, den=1):
        """rows x cols matrix over den (1 over F_p) whose row i holds the integers
        nonzeros[i] = (columns, values), None for a zero row.  Columns strictly
        increase; values may be zero or unreduced."""
        if len(nonzeros) != rows:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows} rows, got {len(nonzeros)}")
        p = field.char
        out = []
        for r in nonzeros:
            if r:
                where, vals = r
                if p:
                    vals = [x % p for x in vals]
                if not all(vals):
                    where, vals = tuple(compress(where, vals)), tuple(compress(vals, vals))
                r = (tuple(where), tuple(vals)) if where else None
            out.append(r)
        return cls._reduced(field, rows, cols, den, tuple(out))

    @classmethod
    def vcat(cls, mats):
        """The matrices (at least one, equal column counts) stacked top to bottom."""
        first = mats[0]
        if any(M.cols != first.cols for M in mats):
            raise DimensionMismatch("vstack col mismatch")
        den = cls._common_den(mats)
        rows = tuple(chain.from_iterable(M._over(den) for M in mats))
        return cls._new(first.field, len(rows), first.cols, den, rows)

    @classmethod
    def hcat(cls, mats):
        """The matrices (at least one, equal row counts) side by side, left to right."""
        first = mats[0]
        if any(M.rows != first.rows for M in mats):
            raise DimensionMismatch("hstack row mismatch")
        den = cls._common_den(mats)
        offsets = [0]
        for M in mats:
            offsets.append(offsets[-1] + M.cols)
        rows = _side_by_side(zip(*[M._over(den) for M in mats]), offsets)
        return cls._new(first.field, first.rows, offsets[-1], den, rows)

    @classmethod
    def block_diagonal(cls, field, mats):
        """The block-diagonal matrix with the given diagonal blocks, top left first."""
        den = cls._common_den(mats, field)
        out = []
        c0 = 0
        for M in mats:
            if c0:
                out.extend([r and (tuple([c0 + j for j in r[0]]), r[1]) for r in M._over(den)])
            else:
                out.extend(M._over(den))
            c0 += M.cols
        return cls._new(field, len(out), c0, den, tuple(out))

    @staticmethod
    def _common_den(mats, field=None):
        field = field or mats[0].field
        for M in mats:
            if M.field is not field and M.field != field:
                raise FieldMismatch(f"{field} vs {M.field}")
        # Canonical blocks over the lcm of their denominators stay in lowest terms.
        return 1 if field.char else lcm(*(M.den for M in mats))

    @classmethod
    def linear_combination(cls, field, rows, cols, terms):
        """sum of c * M over the (c, M) in terms, each M rows x cols, in one pass."""
        terms = [(field.coerce(c), M) for c, M in terms if c]
        p = field.char
        den = 1
        if not p:
            den = lcm(*(c.denominator * M.den for c, M in terms))
        acc = [None] * rows
        for c, M in terms:
            factor = c if p else c.numerator * (den // (c.denominator * M.den))
            for i, r in enumerate(M.nonzeros):
                if r:
                    row = acc[i]
                    if row is None:
                        row = acc[i] = [0] * cols
                    for j, x in zip(*r):
                        row[j] += factor * x
        span = range(cols)
        out = tuple([row and _pack([x % p for x in row] if p else row, span) for row in acc])
        return cls._reduced(field, rows, cols, den, out)

    # -- access ------------------------------------------------------------

    def _elems(self, nums):
        if self.field.char:
            return list(nums)
        den = self.den
        if den == 1:
            return [Fraction(x) for x in nums]
        return [Fraction(x, den) for x in nums]

    def _dense(self, r):
        row = [0] * self.cols
        if r:
            for j, x in zip(*r):
                row[j] = x
        return row

    @property
    def entries(self):
        return tuple(self._elems([x for r in self.nonzeros for x in self._dense(r)]))

    def __getitem__(self, ij):
        i, j = ij
        x = _at(self.nonzeros[i], j)
        if self.field.char:
            return x
        return Fraction(x, self.den) if self.den != 1 else Fraction(x)

    def row(self, i):
        return self._elems(self._dense(self.nonzeros[i]))

    def col(self, j):
        return self._elems([_at(r, j) for r in self.nonzeros])

    def trace(self):
        """The sum of the diagonal entries, a field element."""
        t = sum([_at(r, i) for i, r in enumerate(self.nonzeros[: self.cols])])
        p = self.field.char
        return self._elems([t % p if p else t])[0]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.den, self.nonzeros))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self):
        return not any(self.nonzeros)

    # -- arithmetic ----------------------------------------------------------

    def _same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _combine(self, other, sign, what):
        # self + sign * other
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{what} shape mismatch")
        p = self.field.char
        da, db = self.den, other.den
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        span = range(self.cols)
        out = []
        for ra, rb in zip(self.nonzeros, other.nonzeros):
            if rb is None:
                out.append(ra if fa == 1 or ra is None else (ra[0], tuple([fa * x for x in ra[1]])))
            elif ra is None:
                out.append((rb[0], tuple([(fb * y) % p for y in rb[1]] if p else [fb * y for y in rb[1]])))
            else:
                row = self._dense(ra)
                if fa != 1:
                    row = [fa * x for x in row]
                for j, y in zip(*rb):
                    row[j] += fb * y
                out.append(_pack([x % p for x in row] if p else row, span))
        return Matrix._reduced(self.field, self.rows, self.cols, den, tuple(out))

    def __add__(self, other):
        return self._combine(other, 1, "add")

    def __sub__(self, other):
        return self._combine(other, -1, "sub")

    def __neg__(self):
        p = self.field.char
        if p:
            rows = tuple([r and (r[0], tuple([p - x for x in r[1]])) for r in self.nonzeros])
        else:
            rows = tuple([r and (r[0], tuple([-x for x in r[1]])) for r in self.nonzeros])
        return Matrix._new(self.field, self.rows, self.cols, self.den, rows)

    def __mul__(self, other):
        self._same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = _products(self.nonzeros, other.nonzeros, other.cols, self.field.char)
        return Matrix._reduced(self.field, self.rows, other.cols, self.den * other.den, tuple(out))

    def mul_blocks(self, other, k):
        """self times each of the k row blocks of other, stacked top to bottom: the
        product (I_k ⊗ self) · other, with no block-diagonal matrix built."""
        self._same_field(other)
        c = self.cols
        if other.rows != k * c:
            raise DimensionMismatch(f"cannot multiply {k} blocks of {self.rows}x{c} by {other.rows}x{other.cols}")
        brows, m, p = other.nonzeros, other.cols, self.field.char
        out = []
        for t in range(k):
            out.extend(_products(self.nonzeros, brows[t * c : (t + 1) * c], m, p))
        return Matrix._reduced(self.field, k * self.rows, m, self.den * other.den, tuple(out))

    def combine_blocks(self, other, d):
        """The product (self ⊗ I_d) · other, with no Kronecker product built: row
        i*d + r is sum_k self[i, k] · other[k*d + r], each row of self combining
        the d-row blocks of other.  A row of self with one nonzero, 1, returns
        its block of other's stored rows as they are."""
        self._same_field(other)
        if other.rows != self.cols * d:
            raise DimensionMismatch(f"cannot combine {self.cols} blocks of {d} rows from {other.rows} rows")
        brows, m, p = other.nonzeros, other.cols, self.field.char
        span = range(m)
        zero_block = (None,) * d
        out = []
        for arow in self.nonzeros:
            if arow is None:
                out.extend(zero_block)
                continue
            where, vals = arow
            if len(where) == 1:
                base, x = where[0] * d, vals[0]
                block = brows[base : base + d]
                if x == 1:
                    out.extend(block)
                elif p:
                    out.extend([r and (r[0], tuple([x * y % p for y in r[1]])) for r in block])
                else:
                    out.extend([r and (r[0], tuple([x * y for y in r[1]])) for r in block])
                continue
            bases = [k * d for k in where]
            for r in range(d):
                acc = None
                for base, x in zip(bases, vals):
                    brow = brows[base + r]
                    if brow is not None:
                        if acc is None:
                            acc = [0] * m
                        for j, y in zip(*brow):
                            acc[j] += x * y
                out.append(acc and _pack([v % p for v in acc] if p else acc, span))
        return Matrix._reduced(self.field, self.rows * d, m, self.den * other.den, tuple(out))

    def mul_row_blocks(self, other, w):
        """self times each row of other cut into self.cols blocks of width w, the
        products stacked top to bottom: row c*self.rows + e is
        sum_b self[e, b] · other[c, b*w : (b+1)*w].  That is
        self.mul_blocks(other.reshape(other.rows * self.cols, w), other.rows), with
        each row cut as it is read and no reshape built."""
        self._same_field(other)
        k = self.cols
        if other.cols != k * w:
            raise DimensionMismatch(f"cannot cut {other.cols} columns into {k} blocks of width {w}")
        arows, p = self.nonzeros, self.field.char
        zero_block = (None,) * self.rows
        out = []
        for r in other.nonzeros:
            if r is None:
                out.extend(zero_block)
                continue
            blocks = [None] * k
            cur, where, vals = -1, None, None
            # a row's columns increase, so each block fills left to right
            for j, x in zip(*r):
                b, jj = divmod(j, w)
                if b != cur:
                    if where:
                        blocks[cur] = (tuple(where), tuple(vals))
                    cur, where, vals = b, [jj], [x]
                else:
                    where.append(jj)
                    vals.append(x)
            blocks[cur] = (tuple(where), tuple(vals))
            out.extend(_products(arows, blocks, w, p))
        return Matrix._reduced(self.field, other.rows * self.rows, w, self.den * other.den, tuple(out))

    def transpose(self):
        return self._transposed(1)

    def transpose_blocks(self, k):
        """The k row blocks of equal height, each transposed, top to bottom: row
        t*cols + j is column j of block t, in one pass."""
        if k <= 0 or self.rows % k:
            raise DimensionMismatch(f"cannot split {self.rows} rows into {k} blocks")
        return self._transposed(k)

    def _transposed(self, k):
        h, c = self.rows // k, self.cols
        # Lists are made only for the occupied columns, so a wide matrix with
        # few entries (a 1 x n row, one lifted vector) costs its entries, not its width.
        where, vals = [None] * (k * c), [None] * (k * c)
        occupied = []
        rows = self.nonzeros
        for t in range(k):
            base = t * c
            for i, r in enumerate(rows[t * h : (t + 1) * h]):
                if r:
                    for j, x in zip(*r):
                        j += base
                        w = where[j]
                        if w is None:
                            where[j] = [i]
                            vals[j] = [x]
                            occupied.append(j)
                        else:
                            w.append(i)
                            vals[j].append(x)
        out = [None] * (k * c)
        for j in occupied:
            out[j] = (tuple(where[j]), tuple(vals[j]))
        return Matrix._new(self.field, k * c, h, self.den, tuple(out))

    def kron(self, other):
        """The Kronecker product: entry (i*r + k, j*c + l) is self[i, j] * other[k, l], r x c = other's shape."""
        self._same_field(other)
        r, c = other.rows, other.cols
        p = self.field.char
        zero_block = (None,) * r
        out = []
        for arow in self.nonzeros:
            if arow is None:
                out.extend(zero_block)
                continue
            for brow in other.nonzeros:
                if brow is None:
                    out.append(None)
                    continue
                bw, bv = brow
                where, vals = [], []
                for j, x in zip(*arow):
                    base = j * c
                    where.extend([base + l for l in bw])
                    vals.extend([x * y % p for y in bv] if p else [x * y for y in bv])
                out.append((tuple(where), tuple(vals)))
        return Matrix._reduced(self.field, self.rows * r, self.cols * c, self.den * other.den, tuple(out))

    def _over(self, den):
        # the stored rows of self rewritten over a multiple den of self.den
        f = den // self.den
        if f == 1:
            return self.nonzeros
        return tuple([r and (r[0], tuple([f * x for x in r[1]])) for r in self.nonzeros])

    def hstack(self, other):
        return Matrix.hcat([self, other])

    def vstack(self, other):
        return Matrix.vcat([self, other])

    def reshape(self, rows, cols):
        """The same entries, in row-major order, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        if cols == self.cols and rows == self.rows:
            return self
        out = [None] * rows  # every row, also when there are no entries (rows x 0)
        c = self.cols
        cur, where, vals = -1, None, None
        # Row-major order is kept, so each new row fills left to right, top to bottom.
        for i, r in enumerate(self.nonzeros):
            if r:
                base = i * c
                for j, x in zip(*r):
                    k, jj = divmod(base + j, cols)
                    if k != cur:
                        if where:
                            out[cur] = (tuple(where), tuple(vals))
                        cur, where, vals = k, [jj], [x]
                    else:
                        where.append(jj)
                        vals.append(x)
        if where:
            out[cur] = (tuple(where), tuple(vals))
        return Matrix._new(self.field, rows, cols, self.den, tuple(out))

    def take_rows(self, indices):
        """The submatrix of the given rows, in the given order."""
        rows = self.nonzeros
        rows = tuple([rows[i] for i in indices])
        return Matrix._reduced(self.field, len(rows), self.cols, self.den, rows)

    def take_cols(self, indices):
        """The submatrix of the given columns, in the given order."""
        indices = list(indices)
        if all(a < b for a, b in zip(indices, indices[1:])):
            return self._take_increasing_cols(indices)
        new = {}  # column -> its positions in the submatrix
        for k, j in enumerate(indices):
            new.setdefault(j, []).append(k)
        out = []
        for r in self.nonzeros:
            picked = sorted([(k, x) for j, x in zip(*r) if j in new for k in new[j]]) if r else None
            out.append((tuple([k for k, _ in picked]), tuple([x for _, x in picked])) if picked else None)
        return Matrix._reduced(self.field, self.rows, len(indices), self.den, tuple(out))

    def _take_increasing_cols(self, indices):
        """take_cols for strictly increasing indices: a row's stored columns increase,
        so its picks come out in order, in one pass with no sort."""
        new = {j: k for k, j in enumerate(indices)}
        out = []
        for r in self.nonzeros:
            if r:
                cols, vals = [], []
                for j, x in zip(*r):
                    k = new.get(j)
                    if k is not None:
                        cols.append(k)
                        vals.append(x)
                r = (tuple(cols), tuple(vals)) if cols else None
            out.append(r)
        return Matrix._reduced(self.field, self.rows, len(indices), self.den, tuple(out))

    def vsplit(self, k):
        """The k row blocks of equal height, top to bottom."""
        if k <= 0 or self.rows % k:
            raise DimensionMismatch(f"cannot split {self.rows} rows into {k} blocks")
        h = self.rows // k
        rows = self.nonzeros
        return [Matrix._reduced(self.field, h, self.cols, self.den, rows[t * h : (t + 1) * h]) for t in range(k)]

    # -- elimination ---------------------------------------------------------

    def _echelon_form(self, reduce):
        # Zero rows change no row space: only the nonzero rows are eliminated.
        f = self.field
        rows = [self._dense(r) for r in self.nonzeros if r]
        if f.char:
            return echelon_mod(rows, f.char, reduce)
        if isinstance(f, RationalField):
            return echelon_int(rows, reduce)
        raise FieldMismatch(f"no elimination routine for {f}")

    def _unit_pivots(self):
        """The sorted columns of the nonzeros when every nonzero row has one, else None:
        then the rows are multiples of unit vectors, and their RREF is read, not eliminated."""
        cols = set()
        for r in self.nonzeros:
            if r:
                if len(r[0]) != 1:
                    return None
                cols.add(r[0][0])
        return sorted(cols)

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list)."""
        pivots = self._unit_pivots()
        if pivots is not None:
            out = [((c,), (1,)) for c in pivots]
            out.extend([None] * (self.rows - len(pivots)))
            return Matrix._new(self.field, self.rows, self.cols, 1, tuple(out)), pivots
        pivots, rows = self._echelon_form(True)
        rows = rows[: len(pivots)]
        den = 1
        if not self.field.char:
            # Row k is primitive with positive pivot entry; the true RREF row is row / pivot.
            leads = [rows[k][pc] for k, pc in enumerate(pivots)]
            den = lcm(*leads)
            for k, lead in enumerate(leads):
                if lead != den:
                    s = den // lead
                    rows[k] = [s * x for x in rows[k]]
        span = range(self.cols)
        out = [_pack(row, span) for row in rows]
        out.extend([None] * (self.rows - len(pivots)))
        return Matrix._reduced(self.field, self.rows, self.cols, den, tuple(out)), pivots

    def rank(self):
        pivots = self._unit_pivots()
        if pivots is None:
            pivots, _ = self._echelon_form(False)
        return len(pivots)

    def kernel_basis(self):
        """Matrix whose columns are a basis of the right null space."""
        R, pivots = self.rref()
        c = self.cols
        pivset = set(pivots)
        free = {}  # free column -> its kernel vector
        for j in range(c):
            if j not in pivset:
                free[j] = len(free)
        p = self.field.char
        out = [None] * c
        for fc, t in free.items():
            out[fc] = ((t,), (R.den,))
        # RREF row k holds R.den at pivots[k], zero at the other pivots, the rest at free columns.
        for r, pc in zip(R.nonzeros, pivots):
            where, vals = r
            if len(where) > 1:
                vals = [p - x for x in vals[1:]] if p else [-x for x in vals[1:]]
                out[pc] = (tuple([free[j] for j in where[1:]]), tuple(vals))
        return Matrix._reduced(self.field, c, len(free), R.den, tuple(out))

    def solve(self, b):
        """Some X with self @ X = b, or None when inconsistent.  Verified."""
        self._same_field(b)
        if b.rows != self.rows:
            raise DimensionMismatch("solve: row mismatch")
        aug = self.hstack(b)
        R, pivots = aug.rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        out = [None] * n
        for r, pc in zip(R.nonzeros, pivots):
            where, vals = r
            s = bisect_left(where, n)
            if s < len(where):
                out[pc] = (tuple([j - n for j in where[s:]]), vals[s:])
        X = Matrix._reduced(self.field, n, b.cols, R.den, tuple(out))
        if self * X != b:
            return None
        return X

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        X = self.solve(Matrix.identity(self.field, self.rows))
        if X is None:
            raise ZeroDivisionError("matrix is singular")
        return X

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [self.field.fmt(x) for x in self.entries],
        }

    @classmethod
    def from_json(cls, field, obj):
        return cls(field, obj["rows"], obj["cols"], [field.parse(s) for s in obj["entries"]])


def _side_by_side(rows, offsets):
    """The stored rows joining each tuple of stored rows in rows, its t-th shifted right by offsets[t]."""
    out = []
    for parts in rows:
        where, vals = [], []
        for r, off in zip(parts, offsets):
            if r:
                where.extend([off + j for j in r[0]] if off else r[0])
                vals.extend(r[1])
        out.append((tuple(where), tuple(vals)) if where else None)
    return tuple(out)


def _products(arows, brows, m, p):
    """The stored rows of the product of the stored rows arows by the stored rows
    brows (m columns), unreduced: each row runs over its nonzeros against brows."""
    span = range(m)
    out = []
    for arow in arows:
        if arow is None:
            out.append(None)
            continue
        where, vals = arow
        if len(where) == 1:
            # one nonzero: a multiple of one stored row of the right factor
            brow = brows[where[0]]
            x = vals[0]
            if brow is None or x == 1:
                out.append(brow)
            elif p:
                out.append((brow[0], tuple([x * y % p for y in brow[1]])))
            else:
                out.append((brow[0], tuple([x * y for y in brow[1]])))
            continue
        acc = None
        for t, x in zip(where, vals):
            brow = brows[t]
            if brow is not None:
                if acc is None:
                    acc = [0] * m
                for j, y in zip(*brow):
                    acc[j] += x * y
        if acc is None:
            out.append(None)
        else:
            out.append(_pack([v % p for v in acc] if p else acc, span))
    return out
