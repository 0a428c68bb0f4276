"""Exact scalar arithmetic over Q and over prime fields F_p.

Scalars are plain Python values: ``Fraction`` for Q, reduced ``int``
residues for F_p.  A field object bundles the operations so matrix and
algebra code can stay field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class FieldMismatchError(FieldError):
    pass


# Miller-Rabin with every prime base up to 41 decides primality exactly
# for all n below this bound (Sorenson-Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError for n >= _MR_LIMIT,
    where these bases no longer prove primality."""
    if n >= _MR_LIMIT:
        raise FieldError(f"modulus {n} is too large: primality is decided "
                         f"only below {_MR_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; use the QQ singleton or GF(p)."""

    kind: str

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def to_json(self) -> dict:
        raise NotImplementedError


class RationalField(Field):
    kind = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

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
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def parse(self, s):
        return Fraction(s)

    def format(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def to_json(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, s):
        return int(s, 10) % self.p

    def format(self, a):
        return str(a % self.p)

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return GF(int(obj["p"]))
    raise FieldError(f"unknown field kind {kind!r}")


def check_same_field(f1: Field, f2: Field) -> None:
    if f1 != f2:
        raise FieldMismatchError(f"field mismatch: {f1!r} vs {f2!r}")
