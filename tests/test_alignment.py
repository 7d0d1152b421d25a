import numpy as np
import pytest

from mspec import (
    CharacterIndex,
    GroupShape,
    SubgroupSpec,
    alignment_full_group,
    alignment_gram_oracle,
    alignment_semidirect,
    alignment_subgroup,
    char_stats,
    char_values,
    group_spectrum,
    learning_bounds,
    parse_shape,
    sieve,
)
from mspec.alignment import _type_histograms
from mspec.errors import ArgumentError, ResourceError


def test_full_group_character():
    s = GroupShape([2], [4])
    b = CharacterIndex.from_digits([1, 0, 1, 0], s)
    spec = group_spectrum(char_values(b, s), s)
    r = alignment_full_group(spec)
    assert abs(r.value - 1.0) < 1e-12
    assert r.witness.flat == b.flat


def test_full_group_cosine():
    # (chi_b + chi_{-b})/2 with b != -b has coefficients 1/2 at both
    s = GroupShape([3], [3])
    b = CharacterIndex.from_digits([1, 0, 0], s)
    minus_b = CharacterIndex.from_digits([2, 0, 0], s)
    f = (char_values(b, s) + char_values(minus_b, s)) / 2
    r = alignment_full_group(group_spectrum(f, s))
    assert abs(r.value - 0.25) < 1e-12
    assert r.witness.flat == min(b.flat, minus_b.flat)  # tie to smaller index


def test_full_group_mobius():
    s = GroupShape([2], [10])
    mu = sieve("mobius", s.X).values.astype(float)
    spec = group_spectrum(mu, s)
    r = alignment_full_group(spec)
    assert abs(r.value - np.max(np.abs(spec.coeffs)) ** 2) < 1e-15


def test_semidirect_examples():
    s = GroupShape([2], [3])
    a = CharacterIndex.from_digits([1, 0, 0], s)
    r = alignment_semidirect(group_spectrum(char_values(a, s), s), s)
    assert abs(r.value - 1.0 / 3.0) < 1e-12
    const = np.full(s.X, 0.7)
    r = alignment_semidirect(group_spectrum(const, s), s)
    assert abs(r.value - 0.49) < 1e-12
    assert r.witness == ((3, 0),)


def test_semidirect_below_full():
    rng = np.random.default_rng(2)
    for s in [GroupShape([2], [6]), GroupShape([3], [4]), GroupShape([2, 3], [3, 2])]:
        for _ in range(10):
            f = rng.normal(size=s.X)
            spec = group_spectrum(f, s)
            assert alignment_semidirect(spec, s).value \
                <= alignment_full_group(spec).value + 1e-12


def semidirect_reference(spec, shape):
    """alignment_semidirect with its types grouped by np.unique(axis=0)."""
    power = np.abs(spec.coeffs) ** 2
    _, first, inverse = np.unique(_type_histograms(shape), axis=0,
                                  return_index=True, return_inverse=True)
    masses = np.bincount(inverse.reshape(-1), weights=power, minlength=first.shape[0])
    best_value, best_type = -1.0, None
    for row in range(first.shape[0]):
        _, ttuple, class_size = char_stats(CharacterIndex.from_flat(first[row], shape), shape)
        if masses[row] / class_size > best_value + 1e-18:
            best_value, best_type = masses[row] / class_size, ttuple
    return float(best_value), best_type


@pytest.mark.parametrize("text", ["3^6", "2^3*3^2*5", "2^2*3^2*5*7"])
def test_semidirect_matches_unique_reference(text):
    s = parse_shape(text)
    rng = np.random.default_rng(5)
    for f in (sieve("mobius", s.X).values, rng.normal(size=s.X)):
        spec = group_spectrum(f, s)
        r = alignment_semidirect(spec, s)
        assert (r.value, r.witness) == semidirect_reference(spec, s)


def test_subgroup_extremes():
    s = GroupShape([3], [3])
    rng = np.random.default_rng(4)
    f = rng.normal(size=s.X)
    spec = group_spectrum(f, s)
    # full group: annihilator trivial, singleton cosets
    full = SubgroupSpec(list(range(s.X)), s)
    assert abs(alignment_subgroup(spec, s, full).value
               - alignment_full_group(spec).value) < 1e-12
    # trivial subgroup: a single coset carrying all mass
    triv = SubgroupSpec([], s)
    assert abs(alignment_subgroup(spec, s, triv).value - np.mean(f**2)) < 1e-9


def test_subgroup_diagonal():
    s = GroupShape([3], [2])
    a = CharacterIndex.from_digits([1, 2], s)
    f = char_values(a, s)
    spec = group_spectrum(f, s)
    sub = SubgroupSpec([s.decode([1, 1])], s)
    r = alignment_subgroup(spec, s, sub)
    assert abs(r.value - 1.0) < 1e-9
    # the representative lies in the annihilator coset of (1,2)
    assert (r.witness.digits[0] + r.witness.digits[1]) % 3 == 0


def test_subgroup_counting():
    rng = np.random.default_rng(9)
    s = GroupShape([2, 3], [3, 2])
    for _ in range(50):
        gens = list(rng.integers(0, s.X, size=rng.integers(0, 4)))
        sub = SubgroupSpec(gens, s)
        assert sub.subgroup_order * sub.annihilator_order == s.X


def test_coset_masses_sum_to_norm():
    rng = np.random.default_rng(5)
    s = GroupShape([2, 3], [2, 2])
    f = rng.normal(size=s.X)
    spec = group_spectrum(f, s)
    power = np.abs(spec.coeffs) ** 2
    sub = SubgroupSpec([5, 9], s)
    keys = sub.syndromes()
    total = 0.0
    for key in np.unique(keys):
        total += power[keys == key].sum()
    assert abs(total - np.mean(f**2)) < 1e-9


def test_gram_oracle_examples():
    s = GroupShape([2], [4])
    b = CharacterIndex.from_digits([0, 1, 0, 1], s)
    h = char_values(b, s)
    assert abs(alignment_gram_oracle(h, s, range(s.X)) - 1.0) < 1e-8
    assert alignment_gram_oracle(np.zeros(s.X), s, range(s.X)) == 0.0


def test_gram_oracle_matches_spectral():
    for s in [GroupShape([2], [8]), GroupShape([3], [5]), GroupShape([2, 3], [3, 2])]:
        for kind in ("mobius", "liouville"):
            h = sieve(kind, s.X).values.astype(float)
            gram = alignment_gram_oracle(h, s, range(s.X))
            spectral = alignment_full_group(group_spectrum(h, s)).value
            assert abs(gram - spectral) < 1e-8


def test_gram_oracle_caps():
    s = GroupShape([2], [13])
    with pytest.raises(ResourceError):
        alignment_gram_oracle(np.zeros(s.X), s, range(s.X))
    with pytest.raises(ArgumentError):
        alignment_gram_oracle(np.zeros(s.X), s, [])


def test_learning_bounds_examples():
    assert abs(learning_bounds(0.01, {"eps": 0.1})["kernel_min_n"] - 90.0) < 1e-9
    out = learning_bounds(1e-4, {"eps": 0.01, "R": 1.0, "tau": 0.1, "T": 100})
    assert abs(out["ngd_raw"] - 0.51) < 1e-12
    out = learning_bounds(1e-4, {"tau": 0.1, "q": 10})
    assert abs(out["csq_raw"] - 0.11) < 1e-12
    big = learning_bounds(1.0, {"eps": 0.5, "R": 1.0, "tau": 0.1, "T": 100, "q": 3})
    assert big["ngd_fail_prob"] == 1.0 and big["csq_fail_prob"] == 1.0
    with pytest.raises(ArgumentError):
        learning_bounds(0.1, {"eps": 0.0})
    with pytest.raises(ArgumentError):
        learning_bounds(0.1, {"tau": -1.0, "q": 2})
    with pytest.raises(ArgumentError):
        learning_bounds(-0.1, {"eps": 0.1})


def test_alignment_result_record():
    s = GroupShape([2], [3])
    spec = group_spectrum(np.ones(s.X), s)
    rec = alignment_full_group(spec).record(s, {"note": 1})
    assert rec["method"] == "full_group"
    assert rec["witness"]["flat"] == 0
    assert rec["params"] == {"note": 1}
