"""Dense exact matrices over Q or F_p, stored as integers.

Over Q a matrix is a tuple of integer numerators ``nums`` (row-major) over one
positive common denominator ``den``, in lowest terms: gcd(den, *nums) == 1,
and den == 1 for the zero matrix.  The form is canonical, so ``==`` and
``hash`` compare ``(den, nums)``.  Over F_p ``nums`` holds residues in
0..p-1 and ``den`` is 1.

Arithmetic and elimination work on the integers only.  rank / rref hand the
numerator rows straight to the two echelon routines of _elim_py
(fraction-free elimination over Z for Q, ordinary reduction mod p): scaling a
matrix by its denominator does not change its row space.  Field elements (``Fraction`` over Q, ints over F_p) are
built only by the accessors -- ``m[i, j]``, ``row``, ``col``, ``entries``,
``to_json`` -- and never cached beside the integers.

Immutable after construction.  rank / kernel_basis / solve are exact: solve
re-multiplies to verify its answer, kernel columns multiply to exactly zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import add, sub

from ..errors import DimensionMismatch, FieldMismatch
from ._elim_py import echelon_int, echelon_mod
from .fields import RationalField


def _ints(field, entries):
    """(den, nums) of a sequence of field elements (or coercible values)."""
    p = field.char
    if p:
        return 1, tuple(x % p if type(x) is int else field.coerce(x) for x in entries)
    try:
        den = lcm(*{x.denominator for x in entries})  # ints and Fractions
    except AttributeError:
        entries = [field.coerce(x) for x in entries]
        den = lcm(*{x.denominator for x in entries})
    if den == 1:
        return 1, tuple(x.numerator for x in entries)
    # Lowest-terms entries over the lcm of their denominators are already canonical.
    return den, tuple(x.numerator * (den // x.denominator) for x in entries)


class Matrix:
    __slots__ = ("field", "rows", "cols", "den", "nums", "_echelon")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows*cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.den, self.nums = _ints(field, entries)
        self._echelon = None

    @classmethod
    def _new(cls, field, rows, cols, den, nums):
        """Wrap integers already in canonical form."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.den = den
        m.nums = nums
        m._echelon = None
        return m

    @classmethod
    def _reduced(cls, field, rows, cols, den, nums):
        """Wrap integers, bringing them to canonical form (nums: tuple or list)."""
        p = field.char
        if p:
            return cls._new(field, rows, cols, 1, tuple([x % p for x in nums]))
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [x // g for x in nums]
        return cls._new(field, rows, cols, den, tuple(nums))

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
        return cls._new(field, rows, cols, 1, (0,) * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        e = [0] * (n * n)
        e[:: n + 1] = [1] * n
        return cls._new(field, n, n, 1, tuple(e))

    @classmethod
    def column(cls, field, vec):
        return cls(field, len(vec), 1, list(vec))

    @classmethod
    def from_columns(cls, field, cols_, nrows=None):
        cols_ = [list(c) for c in cols_]
        if not cols_:
            if nrows is None:
                raise DimensionMismatch("from_columns needs nrows when there are no columns")
            return cls.zeros(field, nrows, 0)
        n = len(cols_[0])
        if any(len(c) != n for c in cols_):
            raise DimensionMismatch("ragged columns")
        return cls(field, n, len(cols_), [c[i] for i in range(n) for c in cols_])

    @classmethod
    def from_integers(cls, field, rows, cols, nums, den=1):
        """rows x cols matrix of the integers nums (row-major) over den (1 over F_p)."""
        if len(nums) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows*cols} entries, got {len(nums)}")
        return cls._reduced(field, rows, cols, den, nums)

    @classmethod
    def vcat(cls, mats):
        """The matrices (at least one, equal column counts) stacked top to bottom."""
        first = mats[0]
        if any(M.cols != first.cols for M in mats):
            raise DimensionMismatch("vstack col mismatch")
        den = cls._common_den(mats)
        nums = tuple(chain.from_iterable(M._over(den) for M in mats))
        return cls._new(first.field, sum(M.rows for M in mats), first.cols, den, nums)

    @classmethod
    def hcat(cls, mats):
        """The matrices (at least one, equal row counts) side by side, left to right."""
        first = mats[0]
        if any(M.rows != first.rows for M in mats):
            raise DimensionMismatch("hstack row mismatch")
        den = cls._common_den(mats)
        parts = [(M._over(den), M.cols) for M in mats]
        nums = []
        for i in range(first.rows):
            for a, c in parts:
                nums.extend(a[i * c : (i + 1) * c])
        return cls._new(first.field, first.rows, sum(M.cols for M in mats), den, tuple(nums))

    @classmethod
    def block_diagonal(cls, field, mats):
        """The block-diagonal matrix with the given diagonal blocks, top left first."""
        den = cls._common_den(mats, field)
        rows, cols = sum(M.rows for M in mats), sum(M.cols for M in mats)
        nums = [0] * (rows * cols)
        r0 = c0 = 0
        for M in mats:
            a, c = M._over(den), M.cols
            for i in range(M.rows):
                start = (r0 + i) * cols + c0
                nums[start : start + c] = a[i * c : (i + 1) * c]
            r0 += M.rows
            c0 += c
        return cls._new(field, rows, cols, den, tuple(nums))

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
        den = 1
        if not field.char:
            den = lcm(*(c.denominator * M.den for c, M in terms))
        acc = [0] * (rows * cols)
        for c, M in terms:
            factor = c if field.char else c.numerator * (den // (c.denominator * M.den))
            acc = list(map(add, acc, map(factor.__mul__, M.nums)))
        return cls._reduced(field, rows, cols, den, acc)

    # -- access ------------------------------------------------------------

    def _elems(self, nums):
        if self.field.char:
            return list(nums)
        den = self.den
        if den == 1:
            return [Fraction(x) for x in nums]
        return [Fraction(x, den) for x in nums]

    @property
    def entries(self):
        return tuple(self._elems(self.nums))

    def __getitem__(self, ij):
        i, j = ij
        x = self.nums[i * self.cols + j]
        if self.field.char:
            return x
        return Fraction(x, self.den) if self.den != 1 else Fraction(x)

    def row(self, i):
        return self._elems(self.nums[i * self.cols : (i + 1) * self.cols])

    def col(self, j):
        return self._elems(self.nums[j :: self.cols])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.den, self.nums))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self):
        return not any(self.nums)

    # -- arithmetic ----------------------------------------------------------

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _combine(self, other, sign, what):
        # self + sign * other
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{what} shape mismatch")
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        if da == db:
            nums = list(map(add if sign > 0 else sub, a, b))
            return Matrix._reduced(self.field, self.rows, self.cols, da, nums)
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return Matrix._reduced(self.field, self.rows, self.cols, den, [fa * x + fb * y for x, y in zip(a, b)])

    def __add__(self, other):
        return self._combine(other, 1, "add")

    def __sub__(self, other):
        return self._combine(other, -1, "sub")

    def __neg__(self):
        p = self.field.char
        nums = tuple((-x) % p for x in self.nums) if p else tuple(-x for x in self.nums)
        return Matrix._new(self.field, self.rows, self.cols, self.den, nums)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if f.char:
            return Matrix._reduced(f, self.rows, self.cols, 1, [c * x for x in self.nums])
        num, den = c.numerator, c.denominator * self.den
        return Matrix._reduced(f, self.rows, self.cols, den, [num * x for x in self.nums])

    def _sparse_rows(self):
        """(columns, values) of the nonzero entries of each row, None for a zero row."""
        m = self.cols
        b = self.nums
        cols = range(m)
        out = []
        for t in range(self.rows):
            row = b[t * m : (t + 1) * m]
            out.append((tuple(compress(cols, row)), tuple(compress(row, row))) if any(row) else None)
        return out

    def __mul__(self, other):
        self._same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a = self.nums
        brows = other._sparse_rows()
        p = self.field.char
        zeros = [0] * m
        out = []
        for i in range(n):
            acc = None
            for x, brow in zip(a[i * k : (i + 1) * k], brows):
                if x and brow:
                    if acc is None:
                        acc = [0] * m
                    for j, y in zip(*brow):
                        acc[j] += x * y
            if acc is None:
                out.extend(zeros)
            elif p:
                out.extend([v % p for v in acc])
            else:
                out.extend(acc)
        if p:
            return Matrix._new(self.field, n, m, 1, tuple(out))
        return Matrix._reduced(self.field, n, m, self.den * other.den, out)

    def transpose(self):
        c = self.cols
        nums = tuple(chain.from_iterable(self.nums[j::c] for j in range(c)))
        return Matrix._new(self.field, c, self.rows, self.den, nums)

    def kron(self, other):
        """The Kronecker product: entry (i*r + k, j*c + l) is self[i, j] * other[k, l], r x c = other's shape."""
        self._same_field(other)
        r, c, m = other.rows, other.cols, self.cols
        width = m * c
        b = [(k * width + l, y) for k in range(r) for l in range(c) if (y := other.nums[k * c + l])]
        nums = [0] * (self.rows * r * width)
        for i in range(self.rows):
            for j, x in enumerate(self.nums[i * m : (i + 1) * m]):
                if x:
                    base = i * r * width + j * c
                    for off, y in b:
                        nums[base + off] = x * y
        return Matrix._reduced(self.field, self.rows * r, width, self.den * other.den, nums)

    def _over(self, den):
        # numerators of self rewritten over a multiple den of self.den
        f = den // self.den
        return self.nums if f == 1 else [f * x for x in self.nums]

    def hstack(self, other):
        return Matrix.hcat([self, other])

    def vstack(self, other):
        return Matrix.vcat([self, other])

    def reshape(self, rows, cols):
        """The same entries, in row-major order, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return Matrix._new(self.field, rows, cols, self.den, self.nums)

    def take_rows(self, indices):
        """The submatrix of the given rows, in the given order."""
        c = self.cols
        nums = [x for i in indices for x in self.nums[i * c : (i + 1) * c]]
        if self.field.char:  # residues stay reduced
            return Matrix._new(self.field, len(indices), c, 1, tuple(nums))
        return Matrix._reduced(self.field, len(indices), c, self.den, nums)

    def take_cols(self, indices):
        """The submatrix of the given columns, in the given order."""
        c = self.cols
        nums = [self.nums[i * c + j] for i in range(self.rows) for j in indices]
        if self.field.char:
            return Matrix._new(self.field, self.rows, len(indices), 1, tuple(nums))
        return Matrix._reduced(self.field, self.rows, len(indices), self.den, nums)

    def vsplit(self, k):
        """The k row blocks of equal height, top to bottom."""
        if k <= 0 or self.rows % k:
            raise DimensionMismatch(f"cannot split {self.rows} rows into {k} blocks")
        h = self.rows // k
        return [self.take_rows(range(t * h, (t + 1) * h)) for t in range(k)]

    def side_by_side(self, k):
        """The k row blocks of equal height placed side by side, the top block leftmost."""
        if k <= 0 or self.rows % k:
            raise DimensionMismatch(f"cannot split {self.rows} rows into {k} blocks")
        h, c = self.rows // k, self.cols
        a = self.nums
        # A permutation of the entries keeps the integers canonical.
        nums = tuple(chain.from_iterable(a[(t * h + i) * c : (t * h + i + 1) * c] for i in range(h) for t in range(k)))
        return Matrix._new(self.field, h, k * c, self.den, nums)

    def hsplit(self, k):
        """The k column blocks of equal width, left to right."""
        r = self.rows
        if k <= 0 or self.cols % k:
            raise DimensionMismatch(f"cannot split {self.cols} columns into {k} blocks")
        # After the reshape, row i * k + t is row i of block t.
        flat = self.reshape(r * k, self.cols // k)
        return [flat.take_rows(range(t, r * k, k)) for t in range(k)]

    # -- elimination ---------------------------------------------------------

    def _row_lists(self):
        c = self.cols
        return [list(self.nums[i * c : (i + 1) * c]) for i in range(self.rows)]

    def _echelon_form(self, reduce):
        f = self.field
        if f.char:
            return echelon_mod(self._row_lists(), f.char, reduce)
        if isinstance(f, RationalField):
            return echelon_int(self._row_lists(), reduce)
        raise FieldMismatch(f"no elimination routine for {f}")

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list)."""
        if self._echelon is not None and self._echelon[0] == "rref":
            return self._echelon[1], self._echelon[2]
        pivots, rows = self._echelon_form(True)
        den = 1
        if not self.field.char:
            # Row k is primitive with positive pivot entry; the true RREF row is row / pivot.
            leads = [rows[k][pc] for k, pc in enumerate(pivots)]
            den = lcm(*leads) if leads else 1
            for k, lead in enumerate(leads):
                if lead != den:
                    s = den // lead
                    rows[k] = [s * x for x in rows[k]]
        out = Matrix._reduced(self.field, self.rows, self.cols, den, list(chain.from_iterable(rows)))
        self._echelon = ("rref", out, pivots)
        return out, pivots

    def rank(self):
        if self._echelon is not None:
            return len(self._echelon[2])
        pivots, _ = self._echelon_form(False)
        return len(pivots)

    def kernel_basis(self):
        """Matrix whose columns are a basis of the right null space."""
        R, pivots = self.rref()
        c = self.cols
        pivset = set(pivots)
        free = [j for j in range(c) if j not in pivset]
        nf = len(free)
        p = self.field.char
        nums = [0] * (c * nf)
        for t, fc in enumerate(free):
            nums[fc * nf + t] = R.den
            for k, pc in enumerate(pivots):
                x = R.nums[k * c + fc]
                nums[pc * nf + t] = (-x) % p if p else -x
        return Matrix._reduced(self.field, c, nf, R.den, nums)

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
        w = aug.cols
        nums = [0] * (n * b.cols)
        for k, pc in enumerate(pivots):
            nums[pc * b.cols : (pc + 1) * b.cols] = R.nums[k * w + n : (k + 1) * w]
        X = Matrix._reduced(self.field, n, b.cols, R.den, nums)
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
