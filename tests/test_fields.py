"""Scalar fields: the primality test behind GF(p) and the roots of
unity the Taft presets take from it."""

import time

import pytest

from fhalg import GF, FieldError, get_preset
from fhalg.fields import is_prime
from fhalg.presets import _primitive_root_of_unity


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


def test_large_prime_modulus_is_accepted_quickly():
    t0 = time.perf_counter()
    F = GF(10 ** 18 + 3)
    assert time.perf_counter() - t0 < 1.0
    assert F.mul(F.inv(F.from_int(2)), F.from_int(2)) == F.one


@pytest.mark.parametrize("n", [3215031751, 318665857834031151167461])
def test_strong_pseudoprimes_are_rejected(n):
    # strong pseudoprimes to the bases 2..7 and 2..37 respectively
    assert not is_prime(n)
    with pytest.raises(FieldError):
        GF(n)


@pytest.mark.parametrize("p", [3317044064679887385961981, 2 ** 89 - 1])
def test_modulus_beyond_the_proven_range_is_refused(p):
    with pytest.raises(FieldError, match="too large"):
        GF(p)


def _smallest_root_by_scan(p, n):
    """Smallest residue of multiplicative order exactly n, by trial."""
    return next(r for r in range(2, p)
                if pow(r, n, p) == 1
                and all(pow(r, d, p) != 1 for d in range(1, n) if n % d == 0))


def test_primitive_root_of_unity_agrees_with_a_residue_scan():
    for p in range(3, 400):
        if not is_prime(p):
            continue
        for n in range(2, 17):
            if (p - 1) % n == 0:
                assert _primitive_root_of_unity(GF(p), n) == \
                    _smallest_root_by_scan(p, n), (p, n)


def test_taft_preset_over_a_large_prime_loads_quickly():
    t0 = time.perf_counter()
    H = get_preset("taft:2:1000000000000000003")
    assert time.perf_counter() - t0 < 1.0
    assert H.dim == 4
