import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mspec import (
    CharacterIndex,
    GroupShape,
    char_eval,
    char_stats,
    char_values,
    make_group_shape,
    parse_shape,
)
from mspec.errors import ArgumentError

SHAPES = [
    GroupShape([2], [3]),
    GroupShape([3], [2]),
    GroupShape([2, 3], [2, 1]),
    GroupShape([2, 3, 5], [1, 1, 1]),
    GroupShape([5], [3]),
]


def test_make_group_shape_examples():
    s = make_group_shape([2, 3], [2, 1])
    assert s.X == 12 and s.d == 3
    s = make_group_shape([3], [5])
    assert s.X == 243 and s.d == 5
    with pytest.raises(ArgumentError, match="duplicate"):
        make_group_shape([2, 2], [1, 1])
    with pytest.raises(ArgumentError):
        make_group_shape([2, 4], [1, 1])  # composite
    with pytest.raises(ArgumentError):
        make_group_shape([3, 2], [1, 1])  # not ascending
    with pytest.raises(ArgumentError):
        make_group_shape([2], [0])
    with pytest.raises(ArgumentError, match="overflow"):
        make_group_shape([2], [80])


def test_encode_examples():
    s = make_group_shape([2, 3], [2, 1])
    assert s.encode(7) == ((1, 1), (1,))
    assert s.encode(0) == ((0, 0), (0,))
    assert make_group_shape([3], [2]).encode(5) == ((2, 1),)
    with pytest.raises(ArgumentError):
        s.encode(12)


def test_decode_examples():
    s = make_group_shape([2, 3], [2, 1])
    assert s.decode(((1, 1), (1,))) == 7
    assert s.decode(((0, 0), (0,))) == 0
    assert make_group_shape([3], [2]).decode(((2, 1),)) == 5
    with pytest.raises(ArgumentError):
        s.decode(((2, 0), (0,)))


def test_roundtrip_all_shapes():
    for s in SHAPES:
        for x in range(s.X):
            assert s.decode(s.encode(x)) == x


@given(st.integers(min_value=0, max_value=4 * 81 * 25 - 1))
def test_roundtrip_large_shape(x):
    s = make_group_shape([2, 3, 5], [2, 4, 2])
    assert s.decode(s.encode(x)) == x


def test_char_eval_examples():
    s = make_group_shape([3], [2])
    a = CharacterIndex.from_digits([1, 2], s)
    v = char_eval(a, 5, s)
    assert abs(v - complex(-0.5, np.sqrt(3) / 2)) < 1e-12
    s2 = make_group_shape([2], [3])
    a2 = CharacterIndex.from_digits([1, 1, 1], s2)
    assert abs(char_eval(a2, 6, s2) - 1.0) < 1e-12
    zero = CharacterIndex.from_digits([0, 0, 0], s2)
    for x in range(8):
        assert char_eval(zero, x, s2) == 1.0


def test_char_modulus_one():
    for s in SHAPES:
        for aflat in range(0, s.X, max(1, s.X // 7)):
            a = CharacterIndex.from_flat(aflat, s)
            for x in range(0, s.X, max(1, s.X // 5)):
                assert abs(abs(char_eval(a, x, s)) - 1.0) < 1e-12


@settings(max_examples=100)
@given(st.data())
def test_orthogonality_random_pairs(data):
    s = data.draw(st.sampled_from(SHAPES))
    af = data.draw(st.integers(0, s.X - 1))
    bf = data.draw(st.integers(0, s.X - 1))
    ca = char_values(CharacterIndex.from_flat(af, s), s)
    cb = char_values(CharacterIndex.from_flat(bf, s), s)
    inner = np.mean(ca * np.conj(cb))
    expected = 1.0 if af == bf else 0.0
    assert abs(inner - expected) < 1e-12


@settings(max_examples=60)
@given(st.data())
def test_multiplicativity(data):
    s = data.draw(st.sampled_from(SHAPES))
    af = data.draw(st.integers(0, s.X - 1))
    x = data.draw(st.integers(0, s.X - 1))
    y = data.draw(st.integers(0, s.X - 1))
    a = CharacterIndex.from_flat(af, s)
    lhs = char_eval(a, s.add(x, y), s)
    rhs = char_eval(a, x, s) * char_eval(a, y, s)
    assert abs(lhs - rhs) < 1e-12


def test_char_stats_examples():
    s = make_group_shape([3], [4])
    a = CharacterIndex.from_digits([0, 1, 2, 1], s)
    w, t, c = char_stats(a, s)
    assert w == 3 and t == ((1, 2, 1),) and c == 12
    zero = CharacterIndex.from_digits([0, 0, 0, 0], s)
    assert char_stats(zero, s) == (0, ((4, 0, 0),), 1)
    s2 = make_group_shape([2], [2])
    a2 = CharacterIndex.from_digits([1, 1], s2)
    assert char_stats(a2, s2) == (2, ((0, 2),), 1)


def test_class_sizes_partition_dual():
    # summed over all characters of a block, each orbit counted once per
    # member: total class-size weighted count equals p^d
    for p, d in [(2, 5), (3, 4), (5, 3)]:
        s = make_group_shape([p], [d])
        seen = {}
        for aflat in range(s.X):
            a = CharacterIndex.from_flat(aflat, s)
            _, t, c = char_stats(a, s)
            seen.setdefault(t, [0, c])
            seen[t][0] += 1
        assert sum(c for _, c in seen.values()) == p**d
        for count, c in seen.values():
            assert count == c  # orbit size matches the multinomial


def test_flat_index_roundtrip():
    for s in SHAPES:
        for aflat in range(s.X):
            a = CharacterIndex.from_flat(aflat, s)
            assert a.flat == aflat
            assert CharacterIndex.from_digits(list(a.digits), s).digits == a.digits


def test_char_digits_matrix_matches_from_flat():
    for s in SHAPES:
        mat = s.char_digits_matrix()
        for aflat in range(s.X):
            assert tuple(int(t) for t in mat[aflat]) == \
                CharacterIndex.from_flat(aflat, s).digits


def test_parse_shape():
    s = parse_shape("2^2*3^1")
    assert s.primes == (2, 3) and s.exponents == (2, 1)
    s = parse_shape("2^2*3^2*5")
    assert s.primes == (2, 3, 5) and s.exponents == (2, 2, 1)
    with pytest.raises(ArgumentError):
        parse_shape("2^2**3")
    with pytest.raises((ArgumentError, ValueError)):
        parse_shape("six")


def test_translation_matches_add():
    for s in SHAPES:
        for g in [0, 1, s.X - 1, s.X // 2]:
            tr = s.translation(g)
            for x in range(0, s.X, max(1, s.X // 11)):
                assert tr[x] == s.add(g, x)


MIXED = SHAPES + [GroupShape([2, 3, 5, 7], [3, 2, 2, 1]), GroupShape([3], [9])]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_flat_index_of_matches_digit_matrix(data):
    s = data.draw(st.sampled_from(MIXED))
    xs = np.array(data.draw(st.lists(st.integers(0, s.X - 1), min_size=1, max_size=64)),
                  dtype=np.int64)
    expected = s.digits_matrix(xs).astype(np.int64) @ s.digit_strides
    assert np.array_equal(s.flat_index_of(xs), expected)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_translation_matches_digit_matrix(data):
    s = data.draw(st.sampled_from(MIXED))
    g = data.draw(st.integers(0, s.X - 1))
    digits = (s.digits_matrix().astype(np.int64)
              + s.digits_matrix(np.array([g]))[0]) % s.digit_primes
    expected = (digits @ s._decode_weights()) % s.X
    assert np.array_equal(s.translation(g), expected)


def test_digit_matrices_hold_large_primes():
    s = GroupShape([2, 131, 4099], [1, 1, 1])
    xs = np.array([0, 1, 130, 4098, 131 * 4099 - 1, s.X - 1])
    expected = [[t for block in s.encode(int(x)) for t in block] for x in xs]
    assert np.array_equal(s.digits_matrix(xs), expected)
    positional = [[x % 2, x // 2 % 131, x // 262] for x in xs]
    assert np.array_equal(s.char_digits_matrix(xs), positional)
