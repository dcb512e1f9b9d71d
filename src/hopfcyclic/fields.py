"""Exact scalar arithmetic over the rationals and prime fields.

A rational scalar is a plain int when it is integral and a
`fractions.Fraction` otherwise, so the integer structure constants of the
corpus run on native ints; an int and a Fraction of equal value compare and
hash alike, and mixing them stays exact.  Prime-field scalars are plain ints
kept reduced in [0, p).  Code that works one scalar at a time (parsing,
printing, integrals, the pivot scaling of an echelon form) goes through a
Field object.  The sparse products, the matrix sums of `linalg.combine`,
the operator compiler and the one elimination kernel of `linalg`
(fraction-free over Q) compute with native + and *, and `settle` restores
the same representation.  No floating point and no tolerance ever appears.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson &
# Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; ValueError at or above
    PRIME_BOUND, where these bases prove nothing."""
    if n >= PRIME_BOUND:
        raise ValueError("modulus %d is not below %d, the bound under which "
                         "primality is decided exactly" % (n, PRIME_BOUND))
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _demote(x):
    """An integral rational as an int; a true fraction unchanged."""
    return x.numerator if x.denominator == 1 else x


def settle(field, sums):
    """Settle entries summed with native + and * into field scalars.

    In place: over F_p each sum is reduced mod p, over Q an integral
    Fraction becomes an int, and entries that cancelled to zero are dropped.
    Returns `sums`.
    """
    p = field.p
    zeros = []
    if p is None:
        for k, v in sums.items():
            if not v:
                zeros.append(k)
            elif v.__class__ is Fraction and v.denominator == 1:
                sums[k] = v.numerator
    else:
        for k, v in sums.items():
            v %= p
            if v:
                sums[k] = v
            else:
                zeros.append(k)
    for k in zeros:
        del sums[k]
    return sums


class Field:
    """The rationals (p is None) or the prime field of p elements."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(QQ)" if self.p is None else "Field(GF(%d))" % self.p

    # -- scalar construction -------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, x):
        """Coerce an int / Fraction / scalar string into this field."""
        if isinstance(x, str):
            return self.parse(x)
        if self.p is None:
            return _demote(Fraction(x))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def parse(self, s: str):
        """Parse an exact scalar literal: integer or fraction 'a/b'."""
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            num, den = int(num), int(den)
            if self.p is None:
                return _demote(Fraction(num, den))
            if den % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return (num * pow(den, -1, self.p)) % self.p
        return self.of(int(s))

    def to_str(self, x) -> str:
        """Canonical exact string form (inverse of parse up to normalization)."""
        if self.p is None:
            x = Fraction(x)
            if x.denominator == 1:
                return str(x.numerator)
            return "%d/%d" % (x.numerator, x.denominator)
        return str(x % self.p)

    # -- arithmetic -----------------------------------------------------------

    # Over Q an integral Fraction result is demoted to int, so computed
    # scalars keep the one representation that parsed scalars have.

    def add(self, a, b):
        if self.p is not None:
            return (a + b) % self.p
        c = a + b
        return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c

    def sub(self, a, b):
        if self.p is not None:
            return (a - b) % self.p
        c = a - b
        return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c

    def neg(self, a):
        if self.p is not None:
            return (-a) % self.p
        c = -a
        return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c

    def mul(self, a, b):
        if self.p is not None:
            return (a * b) % self.p
        c = a * b
        return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return _demote(1 / Fraction(a))
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a == 0
