import math
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
    rotate_first_layer,
    sample_binary_multiplicative,
    sieve,
)
from mspec.errors import ArgumentError, ResourceError
from mspec.learning import (
    append_experiment_log,
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
    big = GroupShape([2], [21])
    with pytest.raises(ResourceError):
        ngd_train(MlpModel(big, [2]), np.zeros(big.X), big, NgdConfig(T=1))


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
    with pytest.raises(ArgumentError):
        csq_adversarial_game(BadQuery(), np.zeros(s.X), np.zeros(s.X), 0.0, 1)


def test_csq_rate_zero_target():
    s = GroupShape([2], [6])
    out = csq_bad_event_rate(np.zeros(s.X), s,
                             lambda: FixedFeatureStrategy(s, 3),
                             tau=0.1, q=3, samples=10)
    assert out["empirical_rate"] == 0.0 and out["bound"] == 0.0


def test_csq_rate_large_tau():
    s = GroupShape([2], [6])
    h = sieve("mobius", s.X).values.astype(float)
    out = csq_bad_event_rate(h, s, lambda: FixedFeatureStrategy(s, 1),
                             tau=2.0, q=1, samples=10)
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


def test_experiment_log(tmp_path):
    path = str(tmp_path / "log.jsonl")
    append_experiment_log(path, {"shape": "2^5"}, {"success_rate": 0.5})
    append_experiment_log(path, {"shape": "2^6"}, {"success_rate": 0.25})
    import json

    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 2
    assert all("version" in rec and "timestamp" in rec for rec in lines)


# -- row-major reference step ----------------------------------------------


def _reference_ngd_train(model, target, shape, cfg):
    """The row-major NGD trainer the feature-major step replaced, kept as
    the reference: activations and deltas are (X, width), every step
    recomputes ||a_0||^2 and the output layer's delta."""
    h = np.asarray(target, dtype=np.float64)
    baseline = cfg.baseline if cfg.baseline is not None else np.zeros(shape.X)
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
