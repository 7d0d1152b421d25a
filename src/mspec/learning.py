"""Learning procedures whose failure the alignment value bounds.

Noisy gradient descent on a small tanh network over digit embeddings,
the adversarial correlational-query game with null replay, and the
binary completely-multiplicative hypothesis class with its covariance
spectrum.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .arith import primes_up_to, sieve
from .errors import ArgumentError, ResourceError
from .group import GroupShape, char_values, CharacterIndex
from .spectral import group_spectrum
from .alignment import alignment_full_group, learning_bounds

NGD_X_CAP = 1 << 20
COVARIANCE_EXPLICIT_CAP = 2000


# -- digit embedding and the model ---------------------------------------


def embed_inputs(shape: GroupShape, xs=None) -> np.ndarray:
    """(n, 2d) embedding: digit t of a base-p position maps to the unit
    circle point (cos 2 pi t/p, sin 2 pi t/p)."""
    digits = shape.digits_matrix(xs).astype(np.float64)
    angles = 2.0 * np.pi * digits / shape.digit_primes[None, :]
    out = np.empty((digits.shape[0], 2 * shape.d))
    out[:, 0::2] = np.cos(angles)
    out[:, 1::2] = np.sin(angles)
    return out


class _Workspace:
    """Feature-major buffers for passes of one model over one input batch
    (n, 2d), allocated once and reused by every pass.  Activations and
    deltas are (width, n), so broadcasts and reductions run along the
    long example axis.  a_0 is a C-contiguous copy of inputs.T (the layer-0
    gemms run faster on it than on the transposed view) and ||a_0||^2 is
    computed once."""

    def __init__(self, model: "MlpModel", inputs: np.ndarray):
        n = inputs.shape[0]
        hidden = model.sizes[1:-1]
        a0 = np.ascontiguousarray(inputs.T)
        self.acts = [a0] + [np.empty((h, n)) for h in hidden]
        self.deltas = [np.empty((h, n)) for h in hidden]
        self.scratch = np.empty((max(hidden, default=0), n))
        self.input_sq = np.einsum("hn,hn->n", a0, a0)
        self.out = np.empty(n)
        self.norms = np.empty(n)
        self.term = np.empty(n)
        self.delta_sq = np.empty(n)


class MlpModel:
    """Feed-forward tanh network with a scalar linear output head.

    Weights start N(0, 1/fan_in), biases at zero; the first layer sees
    the circle embedding, so a group translation acts on it by paired
    column rotations.
    """

    def __init__(self, shape: GroupShape, hidden, seed=0):
        self.shape = shape
        self.sizes = [2 * shape.d] + [int(h) for h in hidden] + [1]
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            self.weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in),
                                           size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _forward(self, acts, out):
        """Fills the hidden activations acts[1:] from acts[0] and the
        outputs out (n,) in place; returns out."""
        for l in range(self.n_layers - 1):
            a = np.matmul(self.weights[l], acts[l], out=acts[l + 1])
            a += self.biases[l][:, None]
            np.tanh(a, out=a)
        np.matmul(self.weights[-1][0], acts[-1], out=out)
        out += self.biases[-1][0]
        return out

    def forward(self, inputs: np.ndarray):
        """Returns (outputs (n,), activations).  Activations are feature-
        major: a_0 = inputs.T, then one (width, n) array per hidden layer."""
        n = inputs.shape[0]
        acts = [inputs.T] + [np.empty((h, n)) for h in self.sizes[1:-1]]
        return self._forward(acts, np.empty(n)), acts

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)[0]

    def _deltas(self, ws: "_Workspace") -> None:
        """Output sensitivities (width, n) of the hidden layers, in layer
        order, into ws.deltas.  The output delta is the constant 1, so the
        last hidden layer's back-product is the head's weight row."""
        for l in range(self.n_layers - 2, -1, -1):
            a, d = ws.acts[l + 1], ws.deltas[l]
            head = l == self.n_layers - 2
            slope = d if head else ws.scratch[: d.shape[0]]
            np.square(a, out=slope)
            np.subtract(1.0, slope, out=slope)  # tanh' = 1 - a^2
            if head:
                d *= self.weights[-1][0][:, None]
            else:
                np.matmul(self.weights[l + 1].T, ws.deltas[l + 1], out=d)
                d *= slope

    def per_example_grad_norms(self, ws: "_Workspace") -> np.ndarray:
        """||grad_theta f(x)|| per example, without materializing the
        per-example gradients: the layer-l block factorizes as
        delta_l outer a_{l-1}, so its norm is the product of norms.  The
        output layer's ||delta||^2 is exactly 1."""
        total, term = ws.norms, ws.term
        total.fill(0.0)
        for l in range(self.n_layers):
            if l == 0:
                np.add(ws.input_sq, 1.0, out=term)  # +1 for the bias column
            else:
                np.einsum("hn,hn->n", ws.acts[l], ws.acts[l], out=term)
                term += 1.0
            if l < self.n_layers - 1:
                term *= np.einsum("hn,hn->n", ws.deltas[l], ws.deltas[l],
                                  out=ws.delta_sq)
            total += term
        return np.sqrt(total, out=total)

    def weighted_gradient(self, ws: "_Workspace", w: np.ndarray):
        """mean_x w(x) * grad_theta f(x), assembled with gemms."""
        n = w.shape[0]
        g_w, g_b = [], []
        for l in range(self.n_layers - 1):
            wd = np.multiply(ws.deltas[l], w, out=ws.scratch[: ws.deltas[l].shape[0]])
            g_w.append((ws.acts[l] @ wd.T).T / n)
            g_b.append(wd.sum(axis=1) / n)
        g_w.append((ws.acts[-1] @ w / n)[None, :])
        g_b.append(np.array([w.sum() / n]))
        return g_w, g_b

    def gradient_at(self, inputs: np.ndarray):
        """Full analytic gradient of f at a single input, flattened."""
        ws = _Workspace(self, inputs)
        self._forward(ws.acts, ws.out)
        self._deltas(ws)
        pieces = []
        for l in range(self.n_layers):
            d = ws.deltas[l][:, 0] if l < self.n_layers - 1 else np.ones(1)
            pieces.append((d[:, None] * ws.acts[l][:, 0][None, :]).ravel())
            pieces.append(d)
        return np.concatenate(pieces)

    # flat parameter vector, layout matching gradient_at
    def get_flat(self) -> np.ndarray:
        pieces = []
        for l in range(self.n_layers):
            pieces.append(self.weights[l].ravel())
            pieces.append(self.biases[l])
        return np.concatenate(pieces)

    def set_flat(self, theta: np.ndarray) -> None:
        pos = 0
        for l in range(self.n_layers):
            size = self.weights[l].size
            self.weights[l] = theta[pos : pos + size].reshape(self.weights[l].shape).copy()
            pos += size
            size = self.biases[l].size
            self.biases[l] = theta[pos : pos + size].copy()
            pos += size
        if pos != theta.size:
            raise ArgumentError("parameter vector length mismatch")


def rotate_first_layer(model: MlpModel, g: int, shape: GroupShape) -> MlpModel:
    """The induced parameter map of a group translation: first-layer
    weight column pairs rotated by the digit phases of g, so that
    f(g + x; rotated theta) = f(x; theta)."""
    gd = shape.digits_matrix(np.array([g]))[0].astype(np.float64)
    angles = 2.0 * np.pi * gd / shape.digit_primes
    rot = np.zeros((2 * shape.d, 2 * shape.d))
    for j, phi in enumerate(angles):
        c, s = math.cos(phi), math.sin(phi)
        rot[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    import copy

    out = copy.deepcopy(model)
    out.weights[0] = model.weights[0] @ rot.T
    return out


def gradient_check(model: MlpModel, x: int, shape: GroupShape,
                   step: float = 1e-5) -> float:
    """Max relative disagreement of the analytic gradient against central
    finite differences at the model's current parameters."""
    inputs = embed_inputs(shape, np.array([x]))
    analytic = model.gradient_at(inputs)
    theta = model.get_flat()
    fd = np.empty_like(theta)
    probe = MlpModel(shape, model.sizes[1:-1], seed=0)
    for i in range(theta.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            t = theta.copy()
            t[i] += sign * step
            probe.set_flat(t)
            val = probe(inputs)[0]
            if slot == 0:
                plus = val
            else:
                minus = val
        fd[i] = (plus - minus) / (2.0 * step)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    err = np.abs(analytic - fd) / scale
    err[(np.abs(analytic) < 1e-12) & (np.abs(fd) < 1e-12)] = 0.0
    return float(err.max())


# -- noisy gradient descent ----------------------------------------------


@dataclass
class NgdConfig:
    T: int = 100
    eta: float = 0.1
    R: float = 1.0
    tau: float = 0.05
    seed: object = 0
    eps: float = 0.01
    baseline: np.ndarray | None = None  # h_*, default the zero table

    def __post_init__(self):
        if self.T < 0 or self.R <= 0 or self.tau < 0 or self.eps <= 0:
            raise ArgumentError("need T >= 0, R > 0, tau >= 0, eps > 0")


def ngd_train(model: MlpModel, target, shape: GroupShape, cfg: NgdConfig) -> dict:
    """Population-gradient descent with per-example clipping and Gaussian
    parameter noise N(0, tau^2 I) each step."""
    if shape.X > NGD_X_CAP:
        raise ResourceError(f"X = {shape.X} exceeds the exact-gradient cap {NGD_X_CAP}")
    h = np.asarray(target, dtype=np.float64)
    if h.shape[0] != shape.X:
        raise ArgumentError(f"target length {h.shape[0]} != X = {shape.X}")
    baseline = cfg.baseline if cfg.baseline is not None else np.zeros(shape.X)
    ws = _Workspace(model, embed_inputs(shape))
    rng = np.random.default_rng(cfg.seed)
    n_params = model.get_flat().size
    w = np.empty(shape.X)
    trace = []
    for _ in range(cfg.T):
        out = model._forward(ws.acts, ws.out)
        np.subtract(h, out, out=w)  # the residual, clipped in place below
        trace.append(float(np.mean(w ** 2)))
        model._deltas(ws)
        clip = model.per_example_grad_norms(ws)
        np.maximum(clip, 1e-300, out=clip)
        np.divide(cfg.R, clip, out=clip)
        np.minimum(clip, 1.0, out=clip)
        w *= clip
        g_w, g_b = model.weighted_gradient(ws, w)
        noise = rng.normal(0.0, cfg.tau, size=n_params) if cfg.tau > 0 else np.zeros(n_params)
        pos = 0
        for l in range(model.n_layers):
            size = model.weights[l].size
            xi = noise[pos : pos + size].reshape(model.weights[l].shape)
            model.weights[l] = model.weights[l] + cfg.eta * (g_w[l] - xi)
            pos += size
            size = model.biases[l].size
            model.biases[l] = model.biases[l] + cfg.eta * (g_b[l] - noise[pos : pos + size])
            pos += size
    out = model._forward(ws.acts, ws.out)
    final_loss = float(np.mean((out - h) ** 2))
    trace.append(final_loss)
    baseline_loss = float(np.mean((baseline - h) ** 2))
    success = final_loss <= baseline_loss - cfg.eps
    return {"model": model, "loss_trace": trace, "success": success,
            "final_loss": final_loss, "baseline_loss": baseline_loss}


def ngd_experiment(target, shape: GroupShape, cfg: NgdConfig, trials: int,
                   arch) -> dict:
    """Repeated seeded trainings against the alignment-driven failure
    ceiling.  Trial t uses seed sequence [cfg.seed, t, 0] for the model
    and [cfg.seed, t, 1] for the noise."""
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    if cfg.tau <= 0:
        raise ArgumentError("tau must be > 0 for the bound comparison")
    h = np.asarray(target, dtype=np.float64)
    baseline = cfg.baseline if cfg.baseline is not None else np.zeros(shape.X)
    successes = 0
    for t in range(trials):
        model = MlpModel(shape, arch, seed=[_seed_entropy(cfg.seed), t, 0])
        trial_cfg = replace(cfg, seed=[_seed_entropy(cfg.seed), t, 1])
        result = ngd_train(model, h, shape, trial_cfg)
        successes += bool(result["success"])
    rate = successes / trials
    A = alignment_full_group(group_spectrum(h - baseline, shape)).value
    bounds = learning_bounds(A, {"eps": cfg.eps, "tau": cfg.tau,
                                 "R": cfg.R, "T": cfg.T})
    return {
        "success_rate": rate,
        "theory_bound": bounds["ngd_fail_prob"],
        "theory_raw": bounds["ngd_raw"],
        "alignment": A,
        "trials": trials,
        "vacuous": bounds["ngd_raw"] >= 1.0,
    }


def _seed_entropy(seed) -> int:
    if isinstance(seed, (list, tuple)):
        return int(seed[0])
    return int(seed)


# -- adversarial correlational-query game --------------------------------


@dataclass
class CsqTranscript:
    queries: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    deviations: list = field(default_factory=list)
    output: np.ndarray | None = None
    bad_event: bool = False


class FixedFeatureStrategy:
    """Non-adaptive strategy: queries the real/imaginary parts of a fixed
    list of characters, then outputs the clipped response-weighted sum."""

    def __init__(self, shape: GroupShape, q: int, flat_indices=None):
        self.shape = shape
        if flat_indices is None:
            flat_indices = range(1, q + 1)
        feats = []
        for idx in flat_indices:
            chi = char_values(CharacterIndex.from_flat(idx % shape.X, shape), shape)
            feats.append(np.real(chi))
            feats.append(np.imag(chi))
        self.features = feats[:q]

    def query(self, t: int, responses):
        if t < len(self.features):
            return self.features[t]
        return None

    def predictor(self, responses):
        out = np.zeros(self.shape.X)
        for v, phi in zip(responses, self.features):
            out += 2.0 * v * phi
        return np.clip(out, -1.0, 1.0)


def csq_adversarial_game(learner, target, null_target, tau: float,
                         q_max: int, seed: int = 0) -> CsqTranscript:
    """Oracle that replays the null answer whenever it is within tau of
    the truth, and otherwise gives the tau-compatible value nearest the
    null answer; any deviation raises the bad-event flag."""
    if tau <= 0:
        raise ArgumentError(f"tau must be > 0, got {tau}")
    h = np.asarray(target, dtype=np.float64)
    h0 = np.asarray(null_target, dtype=np.float64)
    transcript = CsqTranscript()
    for t in range(q_max):
        phi = learner.query(t, transcript.responses)
        if phi is None:
            break
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != h.shape:
            raise ArgumentError("query length mismatch")
        if np.abs(phi).max() > 1.0 + 1e-12:
            raise ArgumentError("query values must lie in [-1, 1]")
        u = float(np.mean(h * phi))
        v = float(np.mean(h0 * phi))
        if abs(u - v) <= tau:
            resp, deviated = v, False
        else:
            resp = u - tau if u > v else u + tau
            deviated = True
        transcript.queries.append(phi)
        transcript.responses.append(resp)
        transcript.deviations.append(deviated)
    transcript.bad_event = any(transcript.deviations)
    transcript.output = np.asarray(learner.predictor(transcript.responses))
    return transcript


def csq_bad_event_rate(orbit_target, shape: GroupShape, learner_factory,
                       tau: float, q: int, samples: int, seed: int = 0) -> dict:
    """Bad-event frequency of the game over uniform group translates of
    the base target, against the (q A / tau^2) ceiling."""
    base = np.asarray(orbit_target, dtype=np.float64)
    rng = np.random.default_rng(seed)
    gs = rng.integers(0, shape.X, size=samples)
    null = np.zeros(shape.X)
    bad = 0
    for g in gs:
        translated = base[shape.translation(int(g))]
        learner = learner_factory()
        transcript = csq_adversarial_game(learner, translated, null, tau, q)
        bad += transcript.bad_event
    rate = bad / samples
    A = alignment_full_group(group_spectrum(base, shape)).value
    bound = q * A / tau**2
    sigma = math.sqrt(max(rate * (1.0 - rate), 1.0 / samples) / samples)
    return {"empirical_rate": rate, "bound": bound, "sigma": sigma,
            "samples": samples, "alignment": A}


# -- binary multiplicative class and its covariance ----------------------


def covariance_matrix(X: int) -> np.ndarray:
    """C[m, n] = 1_sq(m n) - 1_sq(m) 1_sq(n) on indices 1..X."""
    if X > COVARIANCE_EXPLICIT_CAP:
        raise ResourceError(f"X = {X} exceeds the dense cap {COVARIANCE_EXPLICIT_CAP}")
    sq = sieve("square_indicator", X * X + 1).values.astype(np.float64)
    n = np.arange(1, X + 1)
    return sq[np.outer(n, n)] - np.outer(sq[n], sq[n])


def eigenvector_indicator(X: int, a: int) -> np.ndarray:
    """Normalized indicator of {a m^2 <= X}, the structured eigenvector
    attached to squarefree a."""
    v = np.zeros(X)
    m = 1
    while a * m * m <= X:
        v[a * m * m - 1] = 1.0
        m += 1
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def binary_mult_covariance(X: int, mode: str = "formula") -> dict:
    """Spectrum of the centered covariance operator C/X of the class.

    Eigenvalues are floor(sqrt(X/a))/X on the squarefree directions
    a > 1, zero on a = 1; the operator norm sits at a = 2.
    """
    if X < 2:
        raise ArgumentError(f"X must be >= 2, got {X}")
    op_norm_formula = math.isqrt(X // 2) / X
    if mode == "formula":
        sf = sieve("mobius", X + 1).values != 0
        eigen = [(1, 0.0)]
        for a in range(2, X + 1):
            if sf[a]:
                eigen.append((a, math.isqrt(X // a) / X))
        return {"eigen": eigen, "op_norm": op_norm_formula, "mode": mode}
    if mode == "explicit":
        C = covariance_matrix(X)
        eigvals = np.linalg.eigvalsh(C / X)
        return {"eigen": sorted(eigvals, reverse=True), "op_norm": float(eigvals[-1]),
                "matrix": C, "mode": mode, "op_norm_formula": op_norm_formula}
    raise ArgumentError(f"unknown mode {mode!r}")


def sample_binary_multiplicative(X: int, seed: int = 0) -> np.ndarray:
    """Random completely multiplicative +-1 function on [0, X]: signs of
    the primes drawn independently, entry 0 zeroed, h(1) = 1."""
    if X < 1:
        raise ArgumentError(f"X must be >= 1, got {X}")
    rng = np.random.default_rng(seed)
    primes = primes_up_to(X)
    signs = rng.integers(0, 2, size=primes.size) * 2 - 1
    sign_of = {int(p): int(s) for p, s in zip(primes, signs)}
    # smallest-prime-factor table for multiplicative extension
    spf = np.zeros(X + 1, dtype=np.int64)
    for p in primes:
        sel = np.arange(p, X + 1, p)
        first = spf[sel] == 0
        spf[sel[first]] = p
    h = np.zeros(X + 1, dtype=np.float64)
    if X >= 1:
        h[1] = 1.0
    for n in range(2, X + 1):
        p = int(spf[n])
        h[n] = sign_of[p] * h[n // p]
    return h


# -- experiment log -------------------------------------------------------


def append_experiment_log(path: str, config: dict, result: dict) -> None:
    """One JSON line per run, with version and timing fields."""
    record = {
        "version": __version__,
        "timestamp": time.time(),
        "config": config,
        "result": {k: v for k, v in result.items()
                   if isinstance(v, (int, float, bool, str, list, dict))},
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
