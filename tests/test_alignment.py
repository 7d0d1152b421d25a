import json
import math
import tracemalloc

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
from mspec.cli import run_command
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


@pytest.mark.parametrize("text", ["100003", "1009^2"])
def test_semidirect_completes_on_large_primes(text):
    """Blocks with p > e are keyed by their sorted digits: nothing is refused."""
    s = parse_shape(text)
    spec = group_spectrum(sieve("mobius", s.X).values, s)
    assert 0 < alignment_semidirect(spec, s).value <= alignment_full_group(spec).value


def test_semidirect_on_one_digit_is_the_full_group():
    """One digit admits no permutation but the identity: every orbit is a
    single character."""
    s = parse_shape("10007")
    for f in (sieve("mobius", s.X).values, np.random.default_rng(3).normal(size=s.X)):
        spec = group_spectrum(f, s)
        full = alignment_full_group(spec)
        r = alignment_semidirect(spec, s)
        assert (r.value, r.witness) == (full.value, full.witness.type_tuple)


@pytest.mark.parametrize("text", ["100003", "1009^2"])
def test_semidirect_cli_completes_on_a_large_prime(capsys, text):
    code = run_command(["align", "--shape", text, "--group", "semidirect"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    assert json.loads(captured.out)["result"]["value"] > 0


def test_semidirect_below_full():
    rng = np.random.default_rng(2)
    for s in [GroupShape([2], [6]), GroupShape([3], [4]), GroupShape([2, 3], [3, 2])]:
        for _ in range(10):
            f = rng.normal(size=s.X)
            spec = group_spectrum(f, s)
            assert alignment_semidirect(spec, s).value \
                <= alignment_full_group(spec).value + 1e-12


def semidirect_reference(spec, shape):
    """Brute force: characters grouped by type_tuple in index order, each
    type's power summed in that order and divided by its char_stats class
    size; ties go to the type that occurs first."""
    power = np.abs(spec.coeffs) ** 2
    masses, counts, sizes = {}, {}, {}
    for flat in range(shape.X):
        _, ttuple, size = char_stats(CharacterIndex.from_flat(flat, shape), shape)
        masses[ttuple] = masses.get(ttuple, 0.0) + power[flat]
        counts[ttuple] = counts.get(ttuple, 0) + 1
        sizes[ttuple] = size
    assert counts == sizes
    best_value, best_type = -1.0, None
    for ttuple, mass in masses.items():
        if mass / sizes[ttuple] > best_value:
            best_value, best_type = mass / sizes[ttuple], ttuple
    return float(best_value), best_type


@pytest.mark.parametrize("text", ["3^6", "2^3*3^2*5", "2^2*3^2*5*7", "2^3*3^2*5^2",
                                  "1009", "2^2*37^2"])
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


def _coset_reference(spec, s, gens):
    """Coset masses keyed by each character's per-block sums against
    every generator, and the smallest character index in a heaviest
    coset, by direct iteration over the characters."""
    gen_digits = [[t for block in s.encode(g) for t in block] for g in gens]
    masses, first = {}, {}
    for flat in range(s.X):
        a = CharacterIndex.from_flat(flat, s)
        sums = tuple(sum(t * u for t, u in zip(a.digits[sl], gd[sl])) % p
                     for sl, p in zip(s.block_slices, s.primes) for gd in gen_digits)
        masses[sums] = masses.get(sums, 0.0) + abs(spec.coeffs[flat]) ** 2
        first.setdefault(sums, flat)
    best = max(masses.values())
    return best, min(first[k] for k, m in masses.items() if m == best)


@pytest.mark.parametrize("text,gens", [
    ("2*3*5*7", list(range(1, 10))),   # 210^9 per-generator keys pass 2^63
    ("2^2*3^2", [5, 9]),
    ("3^3", [1, 3, 10, 13]),
])
def test_subgroup_matches_coset_reference(text, gens):
    s = parse_shape(text)
    spec = group_spectrum(sieve("mobius", s.X).values.astype(np.float64), s)
    r = alignment_subgroup(spec, s, SubgroupSpec(gens, s))
    value, witness = _coset_reference(spec, s, gens)
    assert abs(r.value - value) < 1e-15
    assert r.witness.flat == witness  # ties go to the smallest index


def test_subgroup_keys_fit_large_primes():
    s = GroupShape([2, 131, 4099], [1, 1, 1])
    sub = SubgroupSpec([5, 6, 7, 8], s)
    keys = sub.syndromes()
    assert sub.subgroup_order * sub.annihilator_order == s.X
    assert keys.min() >= 0 and keys.max() < sub.subgroup_order
    f = np.random.default_rng(6).normal(size=s.X)
    spec = group_spectrum(f, s)
    r = alignment_subgroup(spec, s, sub)
    power = np.abs(spec.coeffs) ** 2
    assert power.max() - 1e-12 <= r.value <= power.sum() + 1e-12


def test_subgroup_cli_many_generators(capsys):
    code = run_command(["align", "--shape", "2*3*5*7", "--group", "subgroup",
                        "--generators", "1,2,3,4,5,6,7,8,9"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    s = parse_shape("2*3*5*7")
    spec = group_spectrum(sieve("mobius", s.X).values.astype(np.float64), s)
    assert rec["result"]["value"] == alignment_full_group(spec).value


def test_subgroup_keys_hold_no_residue_table_per_rank():
    """Rank 10 on 2^20: the syndromes add one residue table at a time, so
    the reducer's traced peak beyond the spectrum stays at a few X-sized
    arrays, where a whole (rank, X) residue table adds 16 B/X per rank."""
    s = parse_shape("2^20")
    spec = group_spectrum(sieve("mobius", s.X).values, s)
    sub = SubgroupSpec([1 << k for k in range(10)], s)
    assert sub.block_ranks == (10,)
    tracemalloc.start()
    try:
        alignment_subgroup(spec, s, sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / s.X <= 32


def test_reducers_refuse_a_shape_unlike_the_spectrum():
    s6, s5 = parse_shape("2^6"), parse_shape("2^5")
    spec = group_spectrum(np.ones(s6.X), s6)
    with pytest.raises(ArgumentError, match=r"shape GroupShape\(2\^5\) differs"):
        alignment_semidirect(spec, s5)
    for shape, sub_shape in ((s5, s6), (s6, s5), (s5, s5)):
        with pytest.raises(ArgumentError, match=r"GroupShape\(2\^5\) differs"):
            alignment_subgroup(spec, shape, SubgroupSpec([3], sub_shape))


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


def test_gram_oracle_real_tables_stay_real(monkeypatch):
    import mspec.alignment

    dtypes = []
    eigvalsh = mspec.alignment.np.linalg.eigvalsh

    def spy(gram):
        dtypes.append(gram.dtype)
        return eigvalsh(gram)

    monkeypatch.setattr(mspec.alignment.np.linalg, "eigvalsh", spy)
    for s in [GroupShape([2], [8]), GroupShape([3], [5]), GroupShape([2, 3], [3, 2])]:
        for kind in ("mobius", "liouville"):
            h = sieve(kind, s.X).values.astype(float)
            real = alignment_gram_oracle(h, s, range(s.X))
            complex_ = alignment_gram_oracle(h.astype(np.complex128), s, range(s.X))
            assert abs(real - complex_) < 1e-12
    assert dtypes == [np.float64, np.complex128] * 6


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_gram_oracle_near_degenerate_top_eigenvalue(eps):
    """chi_3 + (1 - eps) chi_200 on 2^8: the two largest eigenvalues of the
    Gram matrix over X are 1 and (1 - eps)^2, a gap that an iterative
    solver closes only slowly."""
    s = GroupShape([2], [8])
    h = (char_values(CharacterIndex.from_flat(3, s), s)
         + (1 - eps) * char_values(CharacterIndex.from_flat(200, s), s))
    spectral = alignment_full_group(group_spectrum(h, s)).value
    assert abs(alignment_gram_oracle(h, s, range(s.X)) - spectral) < 1e-12


def test_gram_oracle_caps():
    s = GroupShape([2], [13])
    with pytest.raises(ResourceError):
        alignment_gram_oracle(np.zeros(s.X), s, range(s.X))
    with pytest.raises(ArgumentError):
        alignment_gram_oracle(np.zeros(s.X), s, [])


def test_gram_oracle_checks_the_cap_before_reading_elements():
    from mspec.alignment import GRAM_CAP

    class Unreadable:
        def __len__(self):
            return GRAM_CAP + 1

        def __iter__(self):
            raise AssertionError("read the elements of an oversized request")

    s = GroupShape([2], [13])
    with pytest.raises(ResourceError, match=f"cap {GRAM_CAP}"):
        alignment_gram_oracle(np.zeros(s.X), s, Unreadable())


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


def test_learning_bounds_csq_past_the_float_range_of_tau_squared():
    """tau^2 underflows to 0 (1e-200) or overflows (1e200); a normal tau
    keeps (q + 1) / tau^2 * A as written."""
    assert learning_bounds(1e-4, {"tau": 1e-200, "q": 10})["csq_raw"] == math.inf
    assert learning_bounds(0.0, {"tau": 1e-200, "q": 10})["csq_raw"] == 0.0
    assert learning_bounds(1e-4, {"tau": 1e-170, "q": 10})["csq_raw"] == 11 / 1e-170 / 1e-170 * 1e-4
    assert learning_bounds(1.0, {"tau": 1e200, "q": 10})["csq_raw"] == 0.0
    assert learning_bounds(1e-4, {"tau": 0.07, "q": 10})["csq_raw"] == 11 / 0.07**2 * 1e-4


def test_learning_bounds_ngd_noise_term_is_zero_at_zero_alignment():
    """R / (2 tau) overflows at tau = 1e-320; at A = 0 the noise term is 0,
    not inf * 0 = nan."""
    out = learning_bounds(0.0, {"eps": 0.01, "tau": 1e-320, "R": 1.0, "T": 10})
    assert out["ngd_raw"] == 0.0 and out["ngd_fail_prob"] == 0.0


def test_alignment_result_record():
    s = GroupShape([2], [3])
    spec = group_spectrum(np.ones(s.X), s)
    rec = alignment_full_group(spec).record(s, {"note": 1})
    assert rec["method"] == "full_group"
    assert rec["witness"]["flat"] == 0
    assert rec["params"] == {"note": 1}
