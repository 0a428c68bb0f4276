"""Built-in example algebras: small group algebras, their duals,
Sweedler's 4-dimensional algebra, Taft algebras over prime fields and
truncated polynomial algebras."""

from __future__ import annotations

from itertools import permutations
from math import gcd

from .fields import GF, QQ, Field, FieldError
from .linalg import Matrix, unit_vec, zero_vec
from .structure import MAX_DIM, HopfData, StructureError, dual_hopf, \
    tensor_square_mul


class PresetError(ValueError):
    pass


def _refuse_above_max_dim(dim: int, what: str) -> None:
    if dim > MAX_DIM:
        raise PresetError(f"{what} has dimension {dim}, above the limit "
                          f"MAX_DIM = {MAX_DIM}")


def group_algebra(field: Field, elements, mul_fn, labels,
                  name: str = "") -> HopfData:
    """Hopf algebra k[G] from a multiplication table: Delta g = g (x) g,
    eps(g) = 1, S(g) = g^{-1}."""
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    f = field
    z = f.zero
    mul = [[[(index[mul_fn(a, b)], f.one)] for b in elements]
           for a in elements]
    # identity: the unique e with e*g = g for all g
    ident = None
    for i, a in enumerate(elements):
        if all(mul_fn(a, b) == b for b in elements):
            ident = i
            break
    if ident is None:
        raise PresetError("multiplication table has no identity")
    inv = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if index[mul_fn(a, b)] == ident:
                inv[i] = j
                break
        else:
            raise PresetError(f"element {labels[i]} has no inverse")
    comul = [[(i, i, f.one)] for i in range(n)]
    counit = [f.one] * n
    srows = [[f.one if inv[j] == i else z for j in range(n)] for i in range(n)]
    return HopfData(f, n, labels, unit_vec(f, n, ident), mul, comul=comul,
                    counit=counit, antipode=Matrix(f, srows), level="hopf",
                    name=name)


def cyclic_group_algebra(n: int, field: Field = QQ) -> HopfData:
    if n < 1:
        raise PresetError("cyclic group order must be positive")
    _refuse_above_max_dim(n, f"C{n}")
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return group_algebra(field, list(range(n)), lambda a, b: (a + b) % n,
                         labels, name=f"k[C{n}]")


def _perm_label(p: tuple) -> str:
    seen, cycles = set(), []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            seen.add(s)
            continue
        cyc, c = [], s
        while c not in seen:
            seen.add(c)
            cyc.append(c + 1)
            c = p[c]
        cycles.append("(" + "".join(str(x) for x in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group_algebra(n: int, field: Field = QQ) -> HopfData:
    elements = sorted(permutations(range(n)))

    def compose(a, b):  # (a b)(i) = a[b[i]]
        return tuple(a[b[i]] for i in range(n))

    labels = [_perm_label(p) for p in elements]
    return group_algebra(field, elements, compose, labels, name=f"k[S{n}]")


def dihedral4_group_algebra(field: Field = QQ) -> HopfData:
    # r^4 = s^2 = 1, s r = r^{-1} s; element (a, b) is r^a s^b
    elements = [(a, b) for a in range(4) for b in range(2)]

    def mul_fn(x, y):
        (a, b), (c, d) = x, y
        return ((a + (c if b == 0 else -c)) % 4, (b + d) % 2)

    def lbl(x):
        a, b = x
        ra = "" if a == 0 else ("r" if a == 1 else f"r^{a}")
        sb = "s" if b else ""
        return (ra + sb) or "1"

    return group_algebra(field, elements, mul_fn, [lbl(e) for e in elements],
                         name="k[D4]")


def quaternion_group_algebra(field: Field = QQ) -> HopfData:
    # units as (sign, axis) with axis in {1, i, j, k}
    elements = [(s, a) for a in "1ijk" for s in (1, -1)]
    table = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
             ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1")}

    def mul_fn(x, y):
        (s1, a1), (s2, a2) = x, y
        if a1 == "1":
            return (s1 * s2, a2)
        if a2 == "1":
            return (s1 * s2, a1)
        s3, a3 = table[(a1, a2)]
        return (s1 * s2 * s3, a3)

    def lbl(x):
        s, a = x
        return a if s == 1 else f"-{a}"

    return group_algebra(field, elements, mul_fn, [lbl(e) for e in elements],
                         name="k[Q8]")


def _primitive_root_of_unity(field: Field, n: int):
    """Deterministic n-th primitive root: smallest residue of
    multiplicative order exactly n.  Over Q only n in {1, 2}.

    Every a^((p-1)/n) is an n-th root of unity; the first of exact order
    n generates them all, and the primitive ones are its powers z^k with
    gcd(k, n) = 1, so the search takes O(n) modular powers, not O(p)."""
    if n == 1:
        return field.one
    if field.kind == "Q":
        if n == 2:
            return field.from_int(-1)
        raise PresetError(f"Q has no primitive {n}-th root of unity")
    p = field.p
    if (p - 1) % n != 0:
        raise PresetError(f"need {n} | p-1, got p = {p}")
    for a in range(2, p):
        z = pow(a, (p - 1) // n, p)
        if all(pow(z, d, p) != 1 for d in range(1, n) if n % d == 0):
            return min(pow(z, k, p) for k in range(1, n) if gcd(k, n) == 1)
    raise PresetError(f"no primitive {n}-th root mod {p}")


def taft_algebra(n: int, field: Field, q=None, name: str = "") -> HopfData:
    """Taft algebra of dimension n^2: g^n = 1, x^n = 0, x g = q g x,
    Delta g = g (x) g, Delta x = x (x) 1 + g (x) x, with q a primitive
    n-th root of unity."""
    if n < 2:
        raise PresetError("Taft algebra needs n >= 2")
    _refuse_above_max_dim(n * n, f"Taft({n})")
    if q is None:
        q = _primitive_root_of_unity(field, n)
    f = field
    N = n * n
    z = f.zero

    def idx(a, b):  # g^a x^b
        return a * n + b

    qpow = [f.one]
    for _ in range(n * n):
        qpow.append(f.mul(qpow[-1], q))

    # x^b g^c = q^{bc} g^c x^b
    mul = [[[(idx((a + c) % n, b + d), qpow[b * c])] if b + d < n else []
            for c in range(n) for d in range(n)]
           for a in range(n) for b in range(n)]

    def lbl(a, b):
        ga = "" if a == 0 else ("g" if a == 1 else f"g^{a}")
        xb = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
        return (ga + xb) or "1"

    labels = [lbl(a, b) for a in range(n) for b in range(n)]
    counit = [f.one if b == 0 else z for a in range(n) for b in range(n)]
    H = HopfData(f, N, labels, unit_vec(f, N, idx(0, 0)), mul, level="algebra",
                 name=name or f"Taft({n})")

    # comultiplication generated from Delta g, Delta x by products in H (x) H
    Dg = {(idx(1, 0), idx(1, 0)): f.one}
    Dx = {(idx(0, 1), idx(0, 0)): f.one, (idx(1, 0), idx(0, 1)): f.one}
    Dg_pow = [{(idx(0, 0), idx(0, 0)): f.one}]
    for _ in range(n - 1):
        Dg_pow.append(tensor_square_mul(H, Dg_pow[-1], Dg))
    Dx_pow = [{(idx(0, 0), idx(0, 0)): f.one}]
    for _ in range(n - 1):
        Dx_pow.append(tensor_square_mul(H, Dx_pow[-1], Dx))
    comul = [sorted((j, k, c) for (j, k), c in
                    tensor_square_mul(H, Dg_pow[a], Dx_pow[b]).items())
             for a in range(n) for b in range(n)]

    # antipode: S(g) = g^{-1}, S(x) = -g^{-1} x, extended
    # anti-multiplicatively: S(g^a x^b) = S(x)^b S(g)^a
    sg = unit_vec(f, N, idx((n - 1) % n, 0))
    sx = zero_vec(f, N)
    sx[idx(n - 1, 1)] = f.neg(f.one)
    scols = []
    for a in range(n):
        for b in range(n):
            acc = unit_vec(f, N, idx(0, 0))
            for _ in range(b):
                acc = H.mul_vec(acc, sx)
            for _ in range(a):
                acc = H.mul_vec(acc, sg)
            scols.append(acc)
    S = Matrix.from_columns(f, scols)
    return HopfData(f, N, labels, unit_vec(f, N, idx(0, 0)), mul, comul=comul,
                    counit=counit, antipode=S, level="hopf",
                    name=name or f"Taft({n})/{field!r}")


def sweedler_algebra(field: Field = QQ) -> HopfData:
    """Sweedler's 4-dimensional algebra: the Taft algebra at n = 2,
    q = -1, basis 1, g, x, gx."""
    return taft_algebra(2, field, name="H4")


def truncated_polynomial_algebra(n: int, field: Field = QQ) -> HopfData:
    """k[X]/(X^n), augmented by evaluation at zero.  Not a bialgebra."""
    if n < 1:
        raise PresetError("truncpoly order must be positive")
    _refuse_above_max_dim(n, f"k[X]/(X^{n})")
    f = field
    z = f.zero
    mul = [[[(i + j, f.one)] if i + j < n else [] for j in range(n)]
           for i in range(n)]
    labels = ["1"] + ["X" if i == 1 else f"X^{i}" for i in range(1, n)]
    counit = [f.one] + [z] * (n - 1)
    return HopfData(f, n, labels, unit_vec(f, n, 0), mul, counit=counit,
                    level="augmented-algebra", name=f"k[X]/(X^{n})")


PRESET_NAMES = ("group:CN", "group:S3", "group:D4", "group:Q8",
                "dual-group:<name>", "sweedler4", "taft:n:p", "truncpoly:n")


def get_preset(name: str, field: Field | None = None) -> HopfData:
    """Resolve a preset name like group:S3, dual-group:C2, sweedler4,
    taft:3:13 or truncpoly:4."""
    try:
        if name.startswith("dual-group:"):
            inner = get_preset("group:" + name[len("dual-group:"):], field)
            D = dual_hopf(inner)
            D.name = f"({inner.name})*"
            return D
        if name.startswith("group:"):
            g = name[len("group:"):]
            fld = field or QQ
            if g.upper().startswith("C") and g[1:].isdigit():
                return cyclic_group_algebra(int(g[1:]), fld)
            if g.upper() == "S3":
                return symmetric_group_algebra(3, fld)
            if g.upper() == "D4":
                return dihedral4_group_algebra(fld)
            if g.upper() == "Q8":
                return quaternion_group_algebra(fld)
            raise PresetError(f"unknown group {g!r}")
        if name == "sweedler4":
            return sweedler_algebra(field or QQ)
        if name.startswith("taft:"):
            parts = name.split(":")
            if len(parts) != 3:
                raise PresetError("taft preset is taft:n:p")
            n, p = int(parts[1]), int(parts[2])
            return taft_algebra(n, GF(p))
        if name.startswith("truncpoly:"):
            return truncated_polynomial_algebra(int(name.split(":")[1]),
                                                field or QQ)
    except (ValueError, FieldError, StructureError) as exc:
        if isinstance(exc, PresetError):
            raise
        raise PresetError(f"bad preset {name!r}: {exc}") from exc
    raise PresetError(f"unknown preset {name!r}")
