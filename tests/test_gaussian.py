"""Exact arithmetic in Q(i): field axioms, norm, conjugation, inverses."""
from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from realforms.gaussian import (
    DIGITS_TEXT, I, ONE, RATIONAL_TEXT, ZERO, GaussianRational, coefficient_str, integer_rank,
)


def row_reduce(rows) -> tuple[list[list], list[int]]:
    """Reduced row-echelon form of a matrix over a field, and its pivot columns:
    the field-side oracle of the library's integer eliminations.

    Entries may be any field elements with ``!= 0``, ``*``, ``-`` and
    ``1 / v`` (Fraction and GaussianRational alike); the input is not changed.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    cols = len(work[0]) if work else 0
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        prow = work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * pv for v, pv in zip(work[r], prow)]
        pivots.append(col)
    return work, pivots


def rand_value(rng: random.Random) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return GaussianRational(frac(), frac())


def test_construction_normalizes_to_fractions():
    c = GaussianRational(2, -3)
    assert c.re == Fraction(2) and c.im == Fraction(-3)
    assert GaussianRational(Fraction(1, 2)).im == 0
    assert GaussianRational() == ZERO


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), ("1/2",), (None,)],
                         ids=["float", "float-imaginary", "string", "none"])
def test_construction_refuses_inexact_parts(parts):
    with pytest.raises(TypeError, match="not an exact scalar"):
        GaussianRational(*parts)


def test_predicates():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert ONE.is_one() and not I.is_one()
    assert ONE.is_real() and not I.is_real()
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


@pytest.mark.parametrize("text, rational, count", [
    ("3", True, True),
    ("-3/4", True, False),
    ("+2", False, False),  # one value, one spelling: no plus sign
    ("٣", False, False),  # an Arabic-Indic digit three
    ("1/２", False, False),  # a fullwidth digit two
    ("1_0", False, False),
    ("1.5", False, False),
])
def test_exact_text_reads_ascii_digits_only(text, rational, count):
    # compiled without re.ASCII, which ring copies by .pattern and so would drop
    assert bool(RATIONAL_TEXT.fullmatch(text)) is rational
    assert bool(re.fullmatch(RATIONAL_TEXT.pattern, text)) is rational
    assert bool(DIGITS_TEXT.fullmatch(text)) is count


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


def _rank_cases() -> list[list[list[GaussianRational]]]:
    """Seeded 3x4 and 4x4 matrices over Q(i): planted dependent rows (Q(i)
    combinations of earlier ones), zero columns, zero rows, and non-real
    entries with denominators."""
    rng = random.Random(4141)
    cases = []
    for rows, cols in [(3, 4), (4, 4)] * 60:
        matrix = [[rand_value(rng) for _ in range(cols)] for _ in range(rows)]
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(rows)
            matrix[k] = [ZERO] * cols if rng.random() < 0.3 else [
                sum((rand_value(rng) * r[j] for r in matrix[:k] + matrix[k + 1:]), ZERO)
                for j in range(cols)]
        for j in rng.sample(range(cols), rng.randint(0, 2)):
            for r in matrix:
                r[j] = ZERO
        rng.shuffle(matrix)
        cases.append(matrix)
    # a zero first column, and a pivot that is found only below the first row
    cases.append([[ZERO, I, ONE, ZERO], [ZERO, ONE, -I, ZERO], [ZERO, ZERO, ZERO, I]])
    cases.append([[ZERO, ONE, ONE], [I, ZERO, ONE], [ONE, ZERO, -I]])
    return cases


def integer_rows(rows) -> list[list[tuple[int, int]]]:
    """Each row times the lcm of its denominators, a positive integer that
    keeps the rank, as Gaussian-integer pairs (re, im)."""
    out = []
    for row in rows:
        d = lcm(*(v.d for v in row))
        out.append([(v.a * (d // v.d), v.b * (d // v.d)) for v in row])
    return out


def test_integer_rank_equals_the_row_reduce_rank():
    ranks = []
    for rows in _rank_cases():
        rank = integer_rank(integer_rows(rows))
        assert rank == len(row_reduce(rows)[1]), rows
        ranks.append(rank)
    assert set(ranks) >= {1, 2, 3, 4}  # the planted rows and columns lower the rank
    assert integer_rank([]) == 0 and integer_rank([[(0, 0), (0, 0)]]) == 0


# -- the (a + b*i)/d representation against a pair-of-Fractions oracle ---------

RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
PAIRS = st.tuples(RATIONALS, RATIONALS)


def _pair_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _pair_inverse(p):
    n = p[0] * p[0] + p[1] * p[1]
    return (p[0] / n, -p[1] / n)


def _pair_pow(p, n):
    if n < 0:
        return _pair_pow(_pair_inverse(p), -n)
    result = (Fraction(1), Fraction(0))
    for _ in range(n):
        result = _pair_mul(result, p)
    return result


def _assert_canonical(z: GaussianRational, expected=None):
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    if expected is not None:
        assert (z.re, z.im) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(PAIRS, PAIRS, st.integers(min_value=-4, max_value=5))
def test_matches_fraction_pair_oracle(p, q, n):
    x, y = GaussianRational(*p), GaussianRational(*q)
    _assert_canonical(x, p)
    _assert_canonical(x + y, (p[0] + q[0], p[1] + q[1]))
    _assert_canonical(x - y, (p[0] - q[0], p[1] - q[1]))
    _assert_canonical(x * y, _pair_mul(p, q))
    _assert_canonical(-x, (-p[0], -p[1]))
    _assert_canonical(x.conjugate(), (p[0], -p[1]))
    assert x.norm() == p[0] * p[0] + p[1] * p[1] and type(x.norm()) is Fraction
    if any(q):
        _assert_canonical(y.inverse(), _pair_inverse(q))
        _assert_canonical(x / y, _pair_mul(p, _pair_inverse(q)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if n >= 0 or any(p):
        _assert_canonical(x ** n, _pair_pow(p, n))
    # mixed operands: int and Fraction on either side
    k = p[0].numerator
    _assert_canonical(x + k, (p[0] + k, p[1]))
    _assert_canonical(k - x, (k - p[0], -p[1]))
    _assert_canonical(q[0] * x, (q[0] * p[0], q[0] * p[1]))
    # equality with int and Fraction holds exactly for real values
    assert (x == p[0]) == (p[1] == 0)
    assert (GaussianRational(k) == k) and (GaussianRational(p[0]) == p[0])
    assert (x == k) == (p == (k, 0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(PAIRS, PAIRS)
def test_equal_values_hash_equal_however_built(p, q):
    x, y = GaussianRational(*p), GaussianRational(*q)
    built = [
        x,
        GaussianRational(p[0]) + I * p[1],
        (x + y) - y,
        (x * 6) / 6,
        x * ONE + ZERO,
        (x * y) / y if any(q) else x,
        x.conjugate().conjugate(),
    ]
    for z in built:
        _assert_canonical(z, p)
        assert z == x and hash(z) == hash(x)
    assert len(set(built)) == 1


def test_canonical_triples_of_one_half():
    half = GaussianRational(Fraction(2, 4))
    for z in (half, ONE / 2, ONE * Fraction(1, 2), GaussianRational(3, 1) * Fraction(1, 6) - I / 6):
        assert (z.a, z.b, z.d) == (1, 0, 2)
        assert z == half and hash(z) == hash(half)
    assert (GaussianRational(Fraction(1, 2), Fraction(-1, 3)).a,
            GaussianRational(Fraction(1, 2), Fraction(-1, 3)).d) == (3, 6)
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    assert ((ONE + I) / 2) ** 2 == I / 2
