import math
from fractions import Fraction

import numpy as np
import pytest

from mspec import (
    CharacterIndex,
    GroupShape,
    count_primes_digit_condition,
    lambda_balanced_correlation,
    make_linear_map,
    sieve,
    singular_series,
)
from mspec.errors import ArgumentError
from mspec.primes import SurjectivityError, parse_matrix, pi_of


def test_make_linear_map():
    L = make_linear_map(3, [[1, 0], [0, 1]])
    assert L.rank == 2
    with pytest.raises(SurjectivityError):
        make_linear_map(3, [[0, 0]])
    with pytest.raises(SurjectivityError):
        make_linear_map(2, [[1, 1, 0], [1, 1, 0]])
    with pytest.raises(ArgumentError):
        make_linear_map(3, [[1, 0], [0, 1], [1, 1]])  # m > d
    with pytest.raises(ArgumentError):
        make_linear_map(4, [[1]])


def test_singular_series_cases():
    L = make_linear_map(3, [[1, 0, 0, 0, 0]])
    assert singular_series(L, [0]).case == "lambda_b_zero"
    assert singular_series(L, [0]).value == 0
    assert singular_series(L, [2]).case == "lambda_b_nonzero"
    assert singular_series(L, [2]).value == Fraction(3, 2)
    L2 = make_linear_map(3, [[0, 1, 0, 0, 0]])
    for b in range(3):
        ss = singular_series(L2, [b])
        assert ss.case == "e0_not_in_image" and ss.value == 1


def test_singular_series_sums_to_p_m():
    rng = np.random.default_rng(0)
    count = 0
    while count < 50:
        p = int(rng.choice([3, 5]))
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, min(3, d) + 1))
        rows = rng.integers(0, p, size=(m, d))
        try:
            L = make_linear_map(p, rows)
        except SurjectivityError:
            continue
        count += 1
        total = Fraction(0)
        cases = set()
        from itertools import product
        for b in product(range(p), repeat=m):
            ss = singular_series(L, list(b))
            total += ss.value
            cases.add(ss.case)
        assert total == p**m
        # b never flips between the image / non-image case families
        assert not ({"e0_not_in_image"} < cases)


def test_count_primes_examples():
    s = GroupShape([3], [5])
    L = make_linear_map(3, [[1, 0, 0, 0, 0]])
    out = count_primes_digit_condition(L, [1], s)
    assert out["count"] == 25
    assert abs(out["main_term"] - 22.1188) < 1e-3
    assert abs(out["rel_error"] - 0.13026) < 1e-4
    out0 = count_primes_digit_condition(L, [0], s)
    assert out0["count"] == 1 and out0["degenerate"]  # only the prime 3
    L2 = make_linear_map(3, [[0, 1, 0, 0, 0]])
    out2 = count_primes_digit_condition(L2, [0], s)
    assert out2["singular_series"].value == 1
    assert abs(out2["main_term"] - 243 / 3 / math.log(243)) < 1e-9


def test_count_partition():
    s = GroupShape([3], [6])
    L = make_linear_map(3, [[0, 1, 0, 0, 0, 0]])
    total = sum(count_primes_digit_condition(L, [b], s)["count"] for b in range(3))
    assert total == pi_of(s.X)


@pytest.mark.parametrize("X,count", [
    (2**10, 172), (3**6, 129), (2**2 * 3**2 * 5, 41), (5**4, 114),  # criterion 01
    (3**11, 16097),  # criterion 07
    (2**20, 82025),
])
def test_pi_of_on_the_acceptance_shapes(X, count):
    assert pi_of(X) == count


def test_lambda_sum_accounting():
    # Lambda-weighted fiber sums add up to the full Chebyshev sum
    s = GroupShape([3], [5])
    L = make_linear_map(3, [[1, 0, 0, 0, 0]])
    lam = sieve("von_mangoldt", s.X).values
    total = sum(count_primes_digit_condition(L, [b], s)["lambda_sum"]
                for b in range(3))
    assert abs(total - lam.sum()) < 1e-9


def test_p2_flagged():
    s = GroupShape([2], [6])
    L = make_linear_map(2, [[0, 1, 0, 0, 0, 0]])
    out = count_primes_digit_condition(L, [0], s)
    assert out["outside_proved_regime"]


def test_lambda_balanced_example():
    s = GroupShape([3], [2])
    out = lambda_balanced_correlation(CharacterIndex.from_flat(0, s), s)
    expected = 3 * math.log(2) + math.log(3) + math.log(5) + math.log(7) - 9.0
    assert abs(out["raw"].real - expected) < 1e-9
    assert abs(out["raw"].imag) < 1e-12
    assert abs(out["normalized"] - out["raw"] / 9) < 1e-15


def test_lambda_balanced_decay():
    s_small = GroupShape([3], [6])
    s_big = GroupShape([3], [9])
    zero_s = CharacterIndex.from_flat(0, s_small)
    zero_b = CharacterIndex.from_flat(0, s_big)
    small = abs(lambda_balanced_correlation(zero_s, s_small)["normalized"])
    big = abs(lambda_balanced_correlation(zero_b, s_big)["normalized"])
    assert big < small


def test_lambda_balanced_weight_one():
    s = GroupShape([3], [2])
    a = CharacterIndex.from_digits([1, 0], s)
    out = lambda_balanced_correlation(a, s)
    # nine-term direct evaluation
    lam = sieve("von_mangoldt", 9).values
    nu = np.array([0 if n % 3 == 0 or n == 0 else 1.5 for n in range(9)])
    w = np.exp(2j * np.pi * (np.arange(9) % 3) / 3)
    direct = np.sum((lam - nu) * w)
    assert abs(out["raw"] - direct) < 1e-9


def test_parse_matrix():
    assert parse_matrix("102;011") == [[1, 0, 2], [0, 1, 1]]
    with pytest.raises(ArgumentError):
        parse_matrix("12;345")
    with pytest.raises(ArgumentError):
        parse_matrix("1a2")
    with pytest.raises(ArgumentError):
        parse_matrix("1\u00b2")  # a superscript two: str.isdigit, not a decimal digit
