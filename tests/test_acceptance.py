"""Acceptance gate: one test per numbered criterion.

Each test prints a single "CRITERION NN PASS" line on success (visible with
pytest -s or in the -v test listing via the test name).
"""
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mspec import (
    CharacterIndex,
    FixedFeatureStrategy,
    GroupShape,
    MlpModel,
    NgdConfig,
    alignment_full_group,
    alignment_gram_oracle,
    binary_mult_covariance,
    char_dft_closed_form,
    char_values,
    count_primes_digit_condition,
    csq_adversarial_game,
    csq_bad_event_rate,
    gq,
    gradient_check,
    group_spectrum,
    inverse_transform,
    katai_witness,
    linf_bound_check,
    make_linear_map,
    ngd_experiment,
    rotate_first_layer,
    sieve,
    singular_series,
)
from mspec.learning import covariance_matrix, eigenvector_indicator, embed_inputs
from mspec.primes import pi_of

SHAPES_C1 = [
    GroupShape([2], [10]),
    GroupShape([3], [6]),
    GroupShape([2, 3, 5], [2, 2, 1]),
    GroupShape([5], [4]),
]


def test_criterion_01_orthogonality_parseval():
    rng = np.random.default_rng(11)
    for s in SHAPES_C1:
        # orthogonality of random character pairs under the averaged pairing
        for _ in range(100):
            a = CharacterIndex.from_flat(int(rng.integers(0, s.X)), s)
            b = CharacterIndex.from_flat(int(rng.integers(0, s.X)), s)
            inner = np.mean(char_values(a, s) * np.conj(char_values(b, s)))
            target = 1.0 if a.flat == b.flat else 0.0
            assert abs(inner - target) < 1e-12
        # Parseval on random inputs
        for _ in range(5):
            f = rng.normal(size=s.X)
            spec = group_spectrum(f, s)
            lhs = np.sum(np.abs(spec.coeffs) ** 2)
            rhs = np.mean(f**2)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)
            back = inverse_transform(spec)
            assert np.max(np.abs(back - f)) < 1e-9
    print("CRITERION 01 PASS: orthogonality within 1e-12, Parseval within "
          "1e-9 on 2^10, 3^6, 2^2*3^2*5, 5^4")


def naive_dft(f, shape):
    out = np.empty(shape.X, dtype=complex)
    for a in range(shape.X):
        chi = char_values(CharacterIndex.from_flat(a, shape), shape)
        out[a] = np.mean(f * np.conj(chi))
    return out


def test_criterion_02_transform_oracle():
    rng = np.random.default_rng(7)
    for s in [GroupShape([2], [12]), GroupShape([3], [7]),
              GroupShape([2, 3, 5], [2, 2, 1])]:
        assert s.X <= 4096
        for _ in range(20):
            f = rng.normal(size=s.X)
            fast = group_spectrum(f, s).coeffs
            slow = naive_dft(f, s)
            assert np.max(np.abs(fast - slow)) < 1e-9
    print("CRITERION 02 PASS: fft-based transform matches O(X^2) DFT within "
          "1e-9 on X up to 4096, 20 random inputs each")


def test_criterion_03_closed_form_character_dft():
    for s in [GroupShape([2], [8]), GroupShape([3], [5]),
              GroupShape([2, 3], [2, 2])]:
        for a_flat in range(s.X):
            a = CharacterIndex.from_flat(a_flat, s)
            # additive-frequency coefficients of chi_a on [0, X)
            direct = np.fft.fft(char_values(a, s)) / s.X
            for k in range(s.X):
                magnitude, value = char_dft_closed_form(a, k, s)
                assert abs(magnitude - abs(direct[k])) < 1e-9
                assert abs(value - direct[k]) < 1e-9
    print("CRITERION 03 PASS: closed-form coefficient magnitudes match "
          "direct DFT within 1e-9 for every (a, k) on 2^8, 3^5, 2^2*3^2")


def test_criterion_04_gq_identities():
    rng = np.random.default_rng(3)
    # partition of unity: sum over shifts k/q of |G_q|^2 equals 1
    for _ in range(100):
        q = int(rng.choice([2, 3, 5, 7]))
        y = float(rng.uniform(-2, 2))
        total = sum(abs(gq(q, y - k / q)) ** 2 for k in range(q))
        assert abs(total - 1.0) < 1e-12
    # product formula: G_{qr}(y) = G_q(ry) G_r(y) for coprime moduli
    for _ in range(100):
        q, r = 2, 3
        y = float(rng.uniform(-2, 2))
        lhs = gq(q * r, y)
        rhs = gq(q, r * y) * gq(r, y)
        assert abs(lhs - rhs) < 1e-9
    print("CRITERION 04 PASS: partition of unity within 1e-12 and the "
          "product identity within 1e-9, 100 random points each")


def test_criterion_05_linf_bound_exhaustive():
    checked = 0
    for p in (2, 3, 5):
        for d in range(1, 9):
            if p**d > 6561:
                break
            s = GroupShape([p], [d])
            for a_flat in range(s.X):
                a = CharacterIndex.from_flat(a_flat, s)
                measured, bound, ok, edge = linf_bound_check(a, s)
                assert ok
                assert measured <= bound + 1e-12
                if edge:
                    assert all(a.block_weight(i) <= 1
                               for i in range(len(s.primes)))
                checked += 1
    assert checked > 6561
    print("CRITERION 05 PASS: sup-norm bound holds (<= with 1e-12) for all "
          "%d characters, p in {2,3,5}, X <= 6561; equality only at "
          "per-block weight <= 1" % checked)


def test_criterion_06_decay_table():
    maxima = []
    for d in (10, 14, 18):
        s = GroupShape([2], [d])
        mu = sieve("mobius", s.X).values.astype(float)
        maxima.append(float(np.max(np.abs(group_spectrum(mu, s).coeffs))))
    assert maxima[0] > maxima[1] > maxima[2]
    print("CRITERION 06 PASS: max Mobius coefficient strictly decreasing, "
          "d=10,14,18 -> %.6g > %.6g > %.6g" % tuple(maxima))


def test_criterion_07_digital_pnt():
    s = GroupShape([3], [11])
    L = make_linear_map(3, [[1] + [0] * 10])
    counts = 0
    series_total = Fraction(0)
    for b in range(3):
        out = count_primes_digit_condition(L, [b], s)
        counts += out["count"]
        series_total += out["singular_series"].value
        if not out["degenerate"]:
            assert out["rel_error"] <= 0.2
    assert counts == pi_of(s.X)
    assert series_total == 3
    print("CRITERION 07 PASS: p=3 d=11 first-digit fibers: rel_error <= 0.2 "
          "on non-degenerate fibers, counts partition pi(177147)=%d, "
          "singular series sums to 3 exactly" % pi_of(s.X))


def test_criterion_08_covariance_spectrum():
    for X in (100, 500, 2000):
        out = binary_mult_covariance(X, "explicit")
        C = out["matrix"] / X
        eigen = binary_mult_covariance(X, "formula")["eigen"]
        U = np.stack([eigenvector_indicator(X, a) for a, _ in eigen], axis=1)
        lam = np.array([val for _, val in eigen])
        resid = C @ U - U * lam[None, :]
        assert np.max(np.abs(resid)) <= 1e-9
        for a, val in eigen:
            if a > 1:  # a = 1 is centered away, eigenvalue pinned to 0
                assert abs(val - math.isqrt(X // a) / X) < 1e-15
        assert abs(out["op_norm"] - math.isqrt(X // 2) / X) < 1e-9
        assert abs(out["op_norm"] - out["op_norm_formula"]) < 1e-9
    print("CRITERION 08 PASS: explicit covariance at X=100,500,2000 matches "
          "floor(sqrt(X/a))/X eigenvalues (residuals <= 1e-9) and the "
          "operator norm formula within 1e-9")


def test_criterion_09_alignment_cross_oracle():
    for s in [GroupShape([2], [11]), GroupShape([3], [6])]:
        assert s.X <= 2048
        for kind in ("mobius", "liouville"):
            h = sieve(kind, s.X).values.astype(float)
            gram = alignment_gram_oracle(h, s, range(s.X))
            spectral = alignment_full_group(group_spectrum(h, s)).value
            assert abs(gram - spectral) < 1e-8
    print("CRITERION 09 PASS: Gram-matrix oracle matches spectral alignment "
          "within 1e-8 for Mobius and Liouville on 2^11 and 3^6")


def test_criterion_10_gradient_and_equivariance():
    s = GroupShape([2, 3], [2, 1])
    rng = np.random.default_rng(0)
    for trial in range(20):
        depth = int(rng.integers(0, 3))
        hidden = [int(rng.integers(2, 33)) for _ in range(depth)]
        model = MlpModel(s, hidden, seed=trial)
        x = int(rng.integers(0, s.X))
        assert gradient_check(model, x, s) < 1e-5
    s2 = GroupShape([2, 3], [2, 2])
    inputs = embed_inputs(s2)
    for trial in range(20):
        model = MlpModel(s2, [int(rng.integers(4, 17))], seed=100 + trial)
        g = int(rng.integers(0, s2.X))
        rotated = rotate_first_layer(model, g, s2)
        shifted = embed_inputs(s2, s2.translation(g))
        assert np.max(np.abs(rotated(shifted) - model(inputs))) < 1e-9
    print("CRITERION 10 PASS: 20 finite-difference gradient checks < 1e-5 "
          "and 20 first-layer rotation equivariance checks < 1e-9")


def test_criterion_11_ngd_bound_consistency():
    s = GroupShape([2], [14])
    mu = sieve("mobius", s.X).values.astype(float)
    eps = float(np.mean(mu**2)) / 4.0
    cfg = NgdConfig(T=100, R=1.0, tau=0.05, eps=eps, seed=0)
    out = ngd_experiment(mu, s, cfg, trials=100, arch=[16])
    rate = out["success_rate"]
    sigma = math.sqrt(rate * (1.0 - rate) / 100.0)
    assert rate <= out["theory_bound"] + 3.0 * sigma
    print("CRITERION 11 PASS: noisy-gradient success rate %.3f <= clamped "
          "bound %.3f + 3 sigma over 100 trials on 2^14" %
          (rate, out["theory_bound"]))


def test_criterion_12_csq_replay_and_rate():
    s = GroupShape([2], [12])
    mu = sieve("mobius", s.X).values.astype(float)
    # exact replay of the null transcript
    run1 = csq_adversarial_game(FixedFeatureStrategy(s, 6), mu, mu,
                                tau=0.01, q_max=6)
    run2 = csq_adversarial_game(FixedFeatureStrategy(s, 6), mu, mu,
                                tau=0.01, q_max=6)
    assert run1.responses == run2.responses
    assert np.array_equal(run1.output, run2.output)
    out = csq_bad_event_rate(mu, s, tau=0.01, q=10, samples=500)
    assert out["empirical_rate"] <= out["bound"] + 3.0 * out["sigma"]
    print("CRITERION 12 PASS: statistical-query replay exact; bad-event rate "
          "%.4f <= %.4f + 3 sigma over 500 translates" %
          (out["empirical_rate"], out["bound"]))


def test_criterion_13_katai_witness():
    s = GroupShape([3], [8])
    mu = sieve("mobius", s.X).values.astype(float)
    spec = group_spectrum(mu, s)
    a_flat = int(np.argmax(np.abs(spec.coeffs)))
    a = CharacterIndex.from_flat(a_flat, s)
    assert a.weight > 0
    delta = float(np.abs(spec.coeffs[a_flat])) / 2.0
    w = katai_witness(mu, a, s, delta)
    assert w.satisfied
    assert w.achieved >= w.bound
    print("CRITERION 13 PASS: additive witness for Mobius on 3^8 at the "
          "spectral argmax achieves %.4g >= bound %.4g within budget "
          "(%d evaluations)" % (w.achieved, w.bound, w.evaluations))
