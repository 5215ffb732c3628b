"""Exact arithmetic in Q(i): field axioms, norm, conjugation, inverses."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from realforms.gaussian import I, ONE, ZERO, GaussianRational, coefficient_str, row_reduce


def rand_value(rng: random.Random) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return GaussianRational(frac(), frac())


def test_construction_normalizes_to_fractions():
    c = GaussianRational(2, -3)
    assert c.re == Fraction(2) and c.im == Fraction(-3)
    assert GaussianRational(Fraction(1, 2)).im == 0
    assert GaussianRational() == ZERO


def test_predicates():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert ONE.is_one() and not I.is_one()
    assert ONE.is_real() and not I.is_real()
    assert GaussianRational(7).is_rational_integer()
    assert not GaussianRational(Fraction(1, 2)).is_rational_integer()
    assert not bool(ZERO) and bool(I)


def test_basic_identities():
    assert I * I == GaussianRational(-1)
    assert (ONE + I) * (ONE - I) == GaussianRational(2)
    assert 3 + I == GaussianRational(3, 1)
    assert 3 - I == GaussianRational(3, -1)
    assert 2 * I == GaussianRational(0, 2)
    assert -I == GaussianRational(0, -1)


def test_inverse_examples():
    assert I.inverse() == -I
    assert (ONE + I).inverse() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert GaussianRational(2).inverse() == GaussianRational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_division_and_powers():
    assert ONE / I == -I
    assert 1 / (ONE + I) == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert I ** 4 == ONE
    assert I ** -1 == -I
    assert (ONE + I) ** 2 == 2 * I
    assert (ONE + I) ** 0 == ONE


def test_norm_and_conjugate_examples():
    assert (ONE + I).norm() == Fraction(2)
    assert I.conjugate() == -I
    assert GaussianRational(3, 4).norm() == Fraction(25)
    assert GaussianRational(3, 4).conjugate() == GaussianRational(3, -4)


def test_field_properties_random():
    rng = random.Random(20260816)
    for _ in range(100):
        a, b, c = (rand_value(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * b).norm() == a.norm() * b.norm()
        assert a * a.conjugate() == GaussianRational(a.norm())
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (a ** 3) * (a ** -3) == ONE


def test_hash_consistent_with_equality():
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(Fraction(1), Fraction(2)))
    values = {ZERO, ONE, I, GaussianRational(1, 0)}
    assert len(values) == 3


def test_coefficient_str_forms():
    assert coefficient_str(ZERO) == "0"
    assert coefficient_str(GaussianRational(Fraction(-3, 2))) == "-3/2"
    assert coefficient_str(I) == "i"
    assert coefficient_str(-I) == "-i"
    assert coefficient_str(GaussianRational(0, Fraction(2, 3))) == "(2/3)i"
    assert coefficient_str(GaussianRational(1, 1)) == "((1)+(1)i)"


def test_row_reduce_over_fractions_and_gaussians():
    rows = [[Fraction(2), Fraction(4), Fraction(6)], [Fraction(1), Fraction(3), Fraction(5)]]
    work, pivots = row_reduce(rows)
    assert pivots == [0, 1]
    assert work == [[1, 0, -1], [0, 1, 2]]
    assert rows[0] == [2, 4, 6]  # input untouched
    # the second row is -i times the first
    work, pivots = row_reduce([[I, ONE], [ONE, -I]])
    assert pivots == [0]
    assert work == [[ONE, -I], [ZERO, ZERO]]
    assert row_reduce([]) == ([], [])
