"""Ground fields: the rationals and prime fields F_p.

Scalars are plain Python objects -- ``fractions.Fraction`` over Q (always in
lowest terms with positive denominator, which Fraction guarantees) and ints in
``0..p-1`` over F_p.  A Field object bundles the arithmetic, parsing and
formatting for one choice; mixing fields is an error caught by the callers.

Serialization: rationals as ``"p/q"`` (``q`` omitted when 1), F_p elements as
``"r mod p"``.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InputError, UnsupportedField


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field Q.  Singleton; elements are Fraction."""

    char = 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    # Fractions are immutable, so one shared instance of each serves every caller.
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise InputError(f"cannot coerce {x!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return not a

    def parse(self, s: str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {s!r}") from exc

    def fmt(self, a) -> str:
        a = self.coerce(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def to_json(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p; elements are ints in 0..p-1."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise UnsupportedField(f"{p} is not prime")
        self.p = p
        self.char = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InputError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise InputError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, s: str):
        s = s.strip()
        if "mod" in s:
            r, _, p = s.partition("mod")
            if int(p) != self.p:
                raise InputError(f"literal {s!r} has wrong characteristic for GF({self.p})")
            return int(r) % self.p
        if "/" in s:
            return self.coerce(Fraction(s))
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise InputError(f"bad GF({self.p}) literal {s!r}") from exc

    def fmt(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    def to_json(self):
        return {"Fp": self.p}


QQ = RationalField()


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(int(obj["Fp"]))
    raise InputError(f"bad field descriptor {obj!r}")
