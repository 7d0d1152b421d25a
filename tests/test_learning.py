import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from mspec import (
    CharacterIndex,
    FixedFeatureStrategy,
    GroupShape,
    MlpModel,
    NgdConfig,
    binary_mult_covariance,
    char_values,
    csq_adversarial_game,
    csq_bad_event_rate,
    gradient_check,
    ngd_experiment,
    ngd_train,
    parse_shape,
    rotate_first_layer,
    sample_binary_multiplicative,
    sieve,
)
from mspec.errors import ArgumentError, ResourceError
from mspec.learning import (
    _Workspace,
    _batch_factors,
    _group_factors,
    _low_digits,
    covariance_matrix,
    eigenvector_indicator,
    embed_inputs,
)


def test_gradient_check_architectures():
    s = GroupShape([2, 3], [2, 1])
    rng = np.random.default_rng(0)
    for trial in range(20):
        depth = int(rng.integers(0, 3))
        hidden = [int(rng.integers(2, 33)) for _ in range(depth)]
        model = MlpModel(s, hidden, seed=trial)
        x = int(rng.integers(0, s.X))
        assert gradient_check(model, x, s) < 1e-5


def test_gradient_check_linear_model():
    s = GroupShape([2], [3])
    model = MlpModel(s, [], seed=1)  # single linear layer
    assert gradient_check(model, 5, s) < 1e-7


def test_equivariance():
    rng = np.random.default_rng(3)
    s = GroupShape([2, 3], [2, 2])
    inputs = embed_inputs(s)
    for trial in range(20):
        model = MlpModel(s, [int(rng.integers(4, 17))], seed=trial)
        g = int(rng.integers(0, s.X))
        rotated = rotate_first_layer(model, g, s)
        translated_inputs = embed_inputs(s, s.translation(g))
        assert np.max(np.abs(rotated(translated_inputs) - model(inputs))) < 1e-9


def test_ngd_zero_steps():
    s = GroupShape([2], [5])
    h = sieve("mobius", s.X).values.astype(float)
    model = MlpModel(s, [4], seed=0)
    cfg = NgdConfig(T=0, eps=0.01, tau=0.0)
    out = ngd_train(model, h, s, cfg)
    assert out["loss_trace"] == [out["final_loss"]]
    assert out["success"] == (out["final_loss"] <= out["baseline_loss"] - 0.01)


def test_ngd_noiseless_linear_monotone():
    s = GroupShape([2], [5])
    h = sieve("liouville", s.X).values.astype(float)
    model = MlpModel(s, [], seed=2)
    cfg = NgdConfig(T=40, eta=0.05, R=10.0, tau=0.0, eps=0.01)
    out = ngd_train(model, h, s, cfg)
    trace = out["loss_trace"]
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def test_ngd_reproducible():
    s = GroupShape([2], [6])
    h = sieve("mobius", s.X).values.astype(float)
    cfg = NgdConfig(T=15, tau=0.05, eps=0.01, seed=7)
    t1 = ngd_train(MlpModel(s, [8], seed=7), h, s, cfg)["loss_trace"]
    t2 = ngd_train(MlpModel(s, [8], seed=7), h, s, cfg)["loss_trace"]
    assert t1 == t2


def test_ngd_zero_target_never_succeeds():
    s = GroupShape([2], [5])
    cfg = NgdConfig(T=5, tau=0.01, eps=0.05)
    out = ngd_experiment(np.zeros(s.X), s, cfg, trials=3, arch=[4])
    assert out["success_rate"] == 0.0


def test_ngd_experiment_flags_vacuous():
    s = GroupShape([2], [5])
    b = CharacterIndex.from_digits([1, 0, 0, 0, 0], s)
    h = np.real(char_values(b, s)) * 2  # alignment 1 after /2-coefficients
    cfg = NgdConfig(T=5, tau=0.05, eps=0.1)
    out = ngd_experiment(h, s, cfg, trials=2, arch=[4])
    assert out["theory_raw"] >= 1.0 and out["vacuous"]


def test_ngd_caps_and_errors():
    s = GroupShape([2], [5])
    with pytest.raises(ArgumentError):
        ngd_experiment(np.zeros(s.X), s, NgdConfig(T=1, tau=0.0, eps=0.1),
                       trials=1, arch=[4])
    with pytest.raises(ArgumentError):
        NgdConfig(T=-1)
    for field in ("eta", "R", "tau", "eps"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ArgumentError, match="finite"):
                NgdConfig(**{field: value})
    big = GroupShape([2], [21])
    with pytest.raises(ResourceError):
        ngd_train(MlpModel(big, [2]), np.zeros(big.X), big, NgdConfig(T=1))


def test_ngd_experiment_refuses_a_list_seed():
    """Trial seeds are [seed, t, 0|1] for an integer seed; a list seed is
    refused rather than cut to its first entry."""
    s = GroupShape([2], [4])
    with pytest.raises(ArgumentError, match=r"seed must be an integer, got \[5, 1\]"):
        ngd_experiment(np.zeros(s.X), s, NgdConfig(T=1, seed=[5, 1]), trials=1, arch=[4])


def test_ngd_experiment_refuses_a_negative_seed():
    """A negative seed is refused by name, not by numpy's seed sequence."""
    s = GroupShape([2], [4])
    with pytest.raises(ArgumentError, match=r"seed must be >= 0, got -1"):
        ngd_experiment(np.zeros(s.X), s, NgdConfig(T=1, seed=-1), trials=1, arch=[4])


def test_ngd_embeds_only_factor_rows(monkeypatch):
    """Each trial embeds the X_low + X_high rows of its two factors, never
    the whole group, and a shape above the cap is refused before any
    embedding is built."""
    import mspec.learning

    calls = []

    def counting(shape, xs=None):
        calls.append(shape.X if xs is None else len(xs))
        return embed_inputs(shape, xs)

    monkeypatch.setattr(mspec.learning, "embed_inputs", counting)
    trials = 4
    for text in ("2^10", "2^2*3^2*5", "7"):
        s = parse_shape(text)
        _, X_low = _low_digits(s)
        rows = X_low + s.X // X_low
        ngd_experiment(np.zeros(s.X), s, NgdConfig(T=2, tau=0.05), trials=trials, arch=[4])
        assert calls and max(calls) <= rows and sum(calls) <= trials * rows
        calls.clear()
    big = GroupShape([2], [21])
    with pytest.raises(ResourceError):
        ngd_experiment(np.zeros(big.X), big, NgdConfig(T=1, tau=0.05), trials=1,
                       arch=[2])
    with pytest.raises(ResourceError):
        ngd_train(MlpModel(big, [2]), np.zeros(big.X), big, NgdConfig(T=1))
    assert calls == []  # refused before any embedding is built


def test_ngd_experiment_threads_match_sequential(monkeypatch):
    import mspec.learning

    s = GroupShape([2], [8])
    h = sieve("mobius", s.X).values.astype(float)
    cfg = NgdConfig(T=20, tau=0.05, eps=0.02, seed=5)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # interleave the two workers as finely as it can
        for cpus in (1, 2):
            monkeypatch.setattr(mspec.learning, "_usable_cpus", lambda: cpus)
            out = ngd_experiment(h, s, cfg, trials=5, arch=[8])
            assert out["threads"] == cpus
            runs.append((out["final_losses"], out["success_rate"]))
    finally:
        sys.setswitchinterval(interval)
    want = [ngd_train(MlpModel(s, [8], seed=[5, t, 0]), h, s, replace(cfg, seed=[5, t, 1]))
            for t in range(5)]
    assert runs[0] == runs[1]
    assert runs[0][0] == [r["final_loss"] for r in want]
    assert runs[0][1] == sum(bool(r["success"]) for r in want) / 5


def test_ngd_experiment_reraises_first_trial_error(monkeypatch):
    """A trial's exception reaches the caller as raised, from a worker
    thread too, and the first in trial order wins: trial 4 may fail before
    trial 3 does."""
    import mspec.learning

    train = mspec.learning.ngd_train
    started = []

    def failing(model, target, shape, cfg):
        t = cfg.seed[1]
        started.append(t)
        if t >= 3:
            raise ArgumentError(f"trial {t}")
        return train(model, target, shape, cfg)

    monkeypatch.setattr(mspec.learning, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mspec.learning, "ngd_train", failing)
    s = GroupShape([2], [5])
    cfg = NgdConfig(T=2, tau=0.05)
    with pytest.raises(ArgumentError, match="^trial 3$"):
        ngd_experiment(np.zeros(s.X), s, cfg, trials=5, arch=[4])
    assert {0, 1, 2, 3} <= set(started)
    started.clear()
    with pytest.raises(ArgumentError, match="target length"):
        ngd_experiment(np.zeros(s.X - 1), s, cfg, trials=5, arch=[4])
    assert started == []  # checked before any trial starts


def test_ngd_experiment_drops_unstarted_trials_after_an_error(monkeypatch):
    """Trial 0 fails at once while every other trial takes 0.2 s: the
    error reaches the caller without the other worker running the rest."""
    import time

    import mspec.learning

    started = []

    def failing(model, target, shape, cfg):
        t = cfg.seed[1]
        started.append(t)
        if t == 0:
            raise ArgumentError("trial 0")
        time.sleep(0.2)
        return {"final_loss": 0.0, "success": False}

    monkeypatch.setattr(mspec.learning, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mspec.learning, "ngd_train", failing)
    s = GroupShape([2], [5])
    with pytest.raises(ArgumentError, match="^trial 0$"):
        ngd_experiment(np.zeros(s.X), s, NgdConfig(T=2, tau=0.05), trials=20, arch=[4])
    assert len(started) < 10


def test_ngd_experiment_keeps_final_losses():
    s = GroupShape([2, 3], [3, 1])
    h = sieve("mobius", s.X).values.astype(float)
    cfg = NgdConfig(T=10, tau=0.05, eps=0.01, seed=9)
    out = ngd_experiment(h, s, cfg, trials=4, arch=[4])
    want = [ngd_train(MlpModel(s, [4], seed=[9, t, 0]), h, s,
                      replace(cfg, seed=[9, t, 1]))["final_loss"] for t in range(4)]
    assert out["final_losses"] == want


@pytest.mark.parametrize("arch", [[], [4], [8, 8, 4]],
                         ids=lambda a: ",".join(map(str, a)) or "linear")
@pytest.mark.parametrize("text", ["2^6", "3^4", "2^2*3^2*5", "2", "7", "2*3"])
def test_group_factors_match_one_factor_batch(text, arch):
    """The whole group's two-factor workspace against a one-factor batch of
    the embedding's rows in flat layout order."""
    s = parse_shape(text)
    rng = np.random.default_rng(len(text) + len(arch))
    model = MlpModel(s, arch, seed=1)
    model.set_flat(rng.normal(size=model.get_flat().size))  # nonzero biases too
    inputs = embed_inputs(s)
    rows = np.empty(s.X, dtype=np.int64)
    rows[s.flat_index_of(None)] = np.arange(s.X)
    factors, order = _group_factors(s)
    assert np.array_equal(rows, np.arange(s.X) if order is None else order)
    whole = _Workspace(model, factors)
    batch = _Workspace(model, _batch_factors(inputs[rows]))
    w = rng.normal(size=s.X)
    got = []
    for ws in (whole, batch):
        out = model._forward(ws).copy()
        model._deltas(ws)
        norms = model.per_example_grad_norms(ws).copy()
        g_w, g_b = model.weighted_gradient(ws, w)
        got.append([out, norms] + g_w + g_b)
    for a, b in zip(*got):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13


def test_csq_null_replay():
    s = GroupShape([2], [6])
    h = sieve("mobius", s.X).values.astype(float)
    strat = FixedFeatureStrategy(s, 5)
    null_run = csq_adversarial_game(strat, h, h, tau=0.1, q_max=5)
    assert not null_run.bad_event
    # compatible queries reproduce the null transcript exactly
    replay = csq_adversarial_game(FixedFeatureStrategy(s, 5), h, h, tau=0.1,
                                  q_max=5)
    assert replay.responses == null_run.responses
    assert np.array_equal(replay.output, null_run.output)


def test_csq_deviation():
    s = GroupShape([3], [4])
    b = CharacterIndex.from_digits([1, 0, 0, 0], s)

    class OneQuery:
        def __init__(self):
            self.phi = np.real(char_values(b, s))

        def query(self, t, responses):
            return self.phi if t == 0 else None

        def predictor(self, responses):
            return responses[0] * self.phi

    t = csq_adversarial_game(OneQuery(), char_values(b, s).real,
                             np.zeros(s.X), tau=0.1, q_max=3)
    # true correlation <Re chi_b, Re chi_b> = 1/2 > tau
    assert t.bad_event
    assert abs(t.responses[0] - 0.4) < 1e-12  # u - tau, nearest to null 0


def test_csq_protocol_errors():
    s = GroupShape([2], [4])

    class BadQuery:
        def query(self, t, responses):
            return np.full(s.X, 2.0)

        def predictor(self, responses):
            return np.zeros(s.X)

    with pytest.raises(ArgumentError):
        csq_adversarial_game(BadQuery(), np.zeros(s.X), np.zeros(s.X), 0.1, 1)
    for tau in (0.0, math.nan):
        with pytest.raises(ArgumentError, match="tau"):
            csq_adversarial_game(BadQuery(), np.zeros(s.X), np.zeros(s.X), tau, 1)


def test_fixed_features_stop_at_q(monkeypatch):
    import mspec.learning

    calls = []

    def counting(a, shape):
        calls.append(a.flat)
        return char_values(a, shape)

    monkeypatch.setattr(mspec.learning, "char_values", counting)
    s = GroupShape([3], [4])
    for q in (1, 4, 5):
        calls.clear()
        feats = FixedFeatureStrategy(s, q).features
        # one character per pair of features, and no more
        assert calls == list(range(1, (q + 1) // 2 + 1))
        want = [part for flat in calls
                for part in (char_values(CharacterIndex.from_flat(flat, s), s).real,
                             char_values(CharacterIndex.from_flat(flat, s), s).imag)]
        assert len(feats) == q
        assert all(np.array_equal(f, w) for f, w in zip(feats, want))


def test_csq_q_below_one_rejected():
    s = GroupShape([2], [4])
    for q in (0, -2):
        with pytest.raises(ArgumentError, match="q must be >= 1"):
            csq_bad_event_rate(np.ones(s.X), s, tau=0.1, q=q, samples=2)


def test_csq_rate_zero_target():
    s = GroupShape([2], [6])
    out = csq_bad_event_rate(np.zeros(s.X), s, tau=0.1, q=3, samples=10)
    assert out["empirical_rate"] == 0.0 and out["bound"] == 0.0


def test_csq_rate_equals_the_direct_game():
    """The rate reads each answer from the spectrum; replaying the same
    translates through csq_adversarial_game must give the same count.  2^2
    with q = 10 wraps the query list past 2X onto the trivial character."""
    margin, rates = math.inf, []
    for text, function, samples in [("2^12", "mobius", 200), ("2^2*3^2*5", "mobius", 200),
                                    ("3^7", "mobius", 200), ("2^2", "mobius", 200),
                                    ("3^5", "liouville", 200), ("2^16", "mobius", 50)]:
        shape = parse_shape(text)
        base = sieve(function, shape.X).values.astype(float)
        zeros = np.zeros(shape.X)
        for q, tau in ((10, 0.01), (4, 0.1)):
            strategy = FixedFeatureStrategy(shape, q)
            bad = 0
            for g in np.random.default_rng(0).integers(0, shape.X, size=samples):
                h = base[shape.translation(int(g))]
                bad += csq_adversarial_game(strategy, h, zeros, tau, q).bad_event
                u = np.array([np.mean(h * phi) for phi in strategy.features])
                margin = min(margin, float(np.abs(np.abs(u) - tau).min()))
            out = csq_bad_event_rate(base, shape, tau, q, samples)
            assert out["empirical_rate"] == bad / samples, (text, q, tau)
            rates.append(out["empirical_rate"])
    assert any(0.0 < r < 1.0 for r in rates)
    print(f"smallest ||u| - tau| margin: {margin:.3g}")


def test_csq_rate_refuses_a_wrong_length_target():
    with pytest.raises(ArgumentError, match="table length 8 != X = 16"):
        csq_bad_event_rate(np.ones(8), parse_shape("2^4"), 0.1, 2, 5)


def test_csq_rate_large_tau():
    s = GroupShape([2], [6])
    h = sieve("mobius", s.X).values.astype(float)
    out = csq_bad_event_rate(h, s, tau=2.0, q=1, samples=10)
    assert out["empirical_rate"] == 0.0


def test_covariance_hand_checkable():
    out = binary_mult_covariance(4, "formula")
    eigen = dict(out["eigen"])
    assert eigen[1] == 0.0 and eigen[2] == 0.25 and eigen[3] == 0.25
    assert out["op_norm"] == 0.25
    C = covariance_matrix(4)
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 1.0
    assert np.array_equal(C, expected)


def test_covariance_formula_vs_explicit():
    for X in (100, 500):
        form = binary_mult_covariance(X, "formula")
        expl = binary_mult_covariance(X, "explicit")
        assert abs(form["op_norm"] - expl["op_norm"]) < 1e-9
        assert abs(expl["op_norm"] - expl["op_norm_formula"]) < 1e-9


def test_covariance_eigen_residuals():
    X = 500
    C = covariance_matrix(X) / X
    form = dict(binary_mult_covariance(X, "formula")["eigen"])
    for a in range(1, 51):
        if a in form:
            u = eigenvector_indicator(X, a)
            assert np.linalg.norm(C @ u - form[a] * u) <= 1e-9


def test_covariance_errors():
    with pytest.raises(ResourceError):
        binary_mult_covariance(5000, "explicit")
    with pytest.raises(ArgumentError):
        binary_mult_covariance(100, "other")


def test_sample_binary_multiplicative():
    h = sample_binary_multiplicative(100, seed=3)
    assert h[0] == 0 and h[1] == 1 and h[4] == 1
    for n in range(2, 101):
        for m in range(2, 101):
            if n * m <= 100:
                assert h[n * m] == h[n] * h[m]
    # different seeds differ somewhere
    h2 = sample_binary_multiplicative(100, seed=4)
    assert not np.array_equal(h, h2)


def test_sample_mean_approximates_squares():
    X = 200
    trials = 10**4
    acc = np.zeros(X + 1)
    for t in range(trials):
        acc += sample_binary_multiplicative(X, seed=t)
    acc /= trials
    squares = np.zeros(X + 1)
    r = 1
    while r * r <= X:
        squares[r * r] = 1.0
        r += 1
    assert np.max(np.abs(acc[1:] - squares[1:])) <= 4.0 / math.sqrt(trials)


# -- row-major reference step ----------------------------------------------


def _reference_ngd_train(model, target, shape, cfg):
    """The row-major NGD trainer the feature-major step replaced, kept as
    the reference: activations and deltas are (X, width), every step
    recomputes ||a_0||^2 and the output layer's delta."""
    h = np.asarray(target, dtype=np.float64)
    baseline = np.zeros(shape.X)
    inputs = embed_inputs(shape)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    L = len(weights)

    def forward():
        acts = [inputs]
        a = inputs
        for l in range(L - 1):
            a = np.tanh(a @ weights[l].T + biases[l])
            acts.append(a)
        return (a @ weights[-1].T + biases[-1])[:, 0], acts

    rng = np.random.default_rng(cfg.seed)
    n_params = model.get_flat().size
    n = shape.X
    trace = []
    for _ in range(cfg.T):
        out, acts = forward()
        trace.append(float(np.mean((out - h) ** 2)))
        deltas = [None] * L
        deltas[-1] = np.ones((n, 1))
        for l in range(L - 2, -1, -1):
            deltas[l] = (deltas[l + 1] @ weights[l + 1]) * (1.0 - acts[l + 1] ** 2)
        total = np.zeros(n)
        for l in range(L):
            total += (deltas[l] ** 2).sum(axis=1) * ((acts[l] ** 2).sum(axis=1) + 1.0)
        clip = np.minimum(1.0, cfg.R / np.maximum(np.sqrt(total), 1e-300))
        w = (h - out) * clip
        noise = rng.normal(0.0, cfg.tau, size=n_params) if cfg.tau > 0 else np.zeros(n_params)
        pos = 0
        for l in range(L):
            wd = deltas[l] * w[:, None]
            size = weights[l].size
            xi = noise[pos : pos + size].reshape(weights[l].shape)
            weights[l] = weights[l] + cfg.eta * (wd.T @ acts[l] / n - xi)
            pos += size
            size = biases[l].size
            biases[l] = biases[l] + cfg.eta * (wd.sum(axis=0) / n - noise[pos : pos + size])
            pos += size
    out, _ = forward()
    final_loss = float(np.mean((out - h) ** 2))
    trace.append(final_loss)
    success = final_loss <= float(np.mean((baseline - h) ** 2)) - cfg.eps
    return {"loss_trace": trace, "success": success, "weights": weights,
            "biases": biases}


NGD_REFERENCE_CASES = [
    (GroupShape([2], [6]), NgdConfig(T=30, tau=0.05, eps=0.01, seed=3)),
    (GroupShape([3], [4]), NgdConfig(T=30, eta=0.2, R=0.5, tau=0.02, eps=0.01, seed=4)),
    (GroupShape([2, 3, 5], [2, 2, 1]), NgdConfig(T=30, tau=0.05, eps=0.01, seed=5)),
    (GroupShape([2], [6]), NgdConfig(T=30, R=10.0, tau=0.0, eps=0.01, seed=6)),
    (GroupShape([3], [4]), NgdConfig(T=0, tau=0.05, eps=0.01, seed=7)),
]


@pytest.mark.parametrize("arch", [[], [4], [32, 16], [8, 8, 4]],
                         ids=lambda a: ",".join(map(str, a)) or "linear")
@pytest.mark.parametrize("shape,cfg", NGD_REFERENCE_CASES,
                         ids=lambda v: repr(v) if isinstance(v, GroupShape)
                         else f"T{v.T}-tau{v.tau}")
def test_ngd_train_matches_row_major_reference(shape, cfg, arch):
    h = sieve("mobius", shape.X).values.astype(float)
    for trial in range(2):
        seed = [cfg.seed, trial, 0]
        ref = _reference_ngd_train(MlpModel(shape, arch, seed=seed), h, shape, cfg)
        out = ngd_train(MlpModel(shape, arch, seed=seed), h, shape, cfg)
        assert len(out["loss_trace"]) == cfg.T + 1
        assert np.max(np.abs(np.subtract(out["loss_trace"], ref["loss_trace"]))) <= 1e-12
        for got, want in zip(out["model"].weights + out["model"].biases,
                             ref["weights"] + ref["biases"]):
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
        assert out["success"] == ref["success"]


def test_ngd_experiment_matches_row_major_reference():
    s = GroupShape([2], [10])
    h = sieve("mobius", s.X).values.astype(float)
    cfg = NgdConfig(T=100, tau=0.05, eps=0.001, seed=11)
    successes = 0
    for t in range(5):
        model = MlpModel(s, [32, 16], seed=[11, t, 0])
        successes += _reference_ngd_train(model, h, s,
                                          replace(cfg, seed=[11, t, 1]))["success"]
    assert 0 < successes < 5
    out = ngd_experiment(h, s, cfg, trials=5, arch=[32, 16])
    assert out["success_rate"] == successes / 5
