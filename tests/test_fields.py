"""Scalar fields: the primality test behind GF(p)."""

import time

import pytest

from fhalg import GF, FieldError
from fhalg.fields import is_prime


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
