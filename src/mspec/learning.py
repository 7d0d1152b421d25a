"""Learning procedures whose failure the alignment value bounds.

Noisy gradient descent on a small tanh network over digit embeddings; the
correlational-query game with null replay, whose bad-event rate over
translates is read from the spectrum, not played; and the binary
completely-multiplicative hypothesis class with its covariance spectrum.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .arith import primes_up_to, sieve
from .errors import ArgumentError, ResourceError
from .group import CHUNK, GroupShape, char_values, CharacterIndex, flatten_digits
from .spectral import SPECTRUM_CAP, group_spectrum
from .alignment import _over_tau_squared, alignment_full_group, learning_bounds

NGD_X_CAP = 1 << 20
COVARIANCE_EXPLICIT_CAP = 2000


# -- digit embedding and the model ---------------------------------------


def embed_inputs(shape: GroupShape, xs=None) -> np.ndarray:
    """(n, 2d) embedding: digit t of a base-p position maps to the unit
    circle point (cos 2 pi t/p, sin 2 pi t/p)."""
    idx = shape.flat_index_of(xs)
    out = np.empty((idx.shape[0], 2 * shape.d))
    for j, p in enumerate(shape.digit_primes):
        angles = 2.0 * np.pi * shape.digit(j, idx) / p
        out[:, 2 * j] = np.cos(angles)
        out[:, 2 * j + 1] = np.sin(angles)
    return out


class _Workspace:
    """Feature-major buffers for passes of one model over one batch,
    allocated once and reused by every pass: activations and deltas of the
    hidden layers are (width, n).

    Inputs come as two factors (low, high), each (columns, E) with E the
    values of those input columns at the factor's n_k points; example
    i_low + n_low * i_high has E_low[:, i_low] and E_high[:, i_high].  So
    layer 0 is the sum of two small products over the (n_high, n_low) grid,
    and ||a_0||^2, the sum of the factors' column norms, is computed once.
    An arbitrary batch is one factor (_batch_factors); the whole group in
    flat layout order is two (_group_factors)."""

    def __init__(self, model: "MlpModel", factors):
        self.factors = factors
        (_, low), (_, high) = factors
        self.grid = (high.shape[1], low.shape[1])
        n = high.shape[1] * low.shape[1]
        hidden = model.sizes[1:-1]
        self.rank2_high = np.ones((model.sizes[1], high.shape[1], 2))
        self.rank2_low = np.ones((model.sizes[1], 2, low.shape[1]))
        self.acts = [np.empty((h, n)) for h in hidden]
        self.deltas = [np.empty((h, n)) for h in hidden]
        self.scratch = np.empty((max(hidden[:-1], default=0), n))  # slopes below the head
        self.input_sq = np.add.outer(np.einsum("cn,cn->n", high, high),
                                     np.einsum("cn,cn->n", low, low)).ravel()
        self.out = np.empty(n)
        self.norms = np.empty(n)
        self.term = np.empty(n)
        self.delta_sq = np.empty(n)


def _batch_factors(inputs: np.ndarray):
    """An (n, 2d) input batch as workspace factors: every column in the low
    factor, and a high factor with no columns at a single point."""
    return (slice(None), inputs.T), (slice(0, 0), np.empty((0, 1)))


def _low_digits(shape: GroupShape):
    """(s, X_low): the whole group's low factor takes the fewest low digits
    s whose values X_low = p_0 ... p_{s-1} number at least sqrt(X), so
    neither factor's product nears the size of a full layer-0 gemm, and
    the high factor is never the longer one."""
    X_low, s = 1, 0
    while X_low * X_low < shape.X:
        X_low *= int(shape.digit_primes[s])
        s += 1
    return s, X_low


def _group_factors(shape: GroupShape):
    """Workspace factors of the whole group in flat layout order, and that
    order as the integer at each layout index (None for one block, where
    the orders agree).  Layout index k_low + X_low * k_high holds the low s
    digits in k_low, so the embedding's first 2s columns depend on k_low
    alone, the rest on k_high: only rows k_high = 0 and k_low = 0 are built."""
    s, X_low = _low_digits(shape)
    order = None
    xs_low, xs_high = np.arange(X_low), np.arange(0, shape.X, X_low)
    if shape.r > 1:
        order = np.empty(shape.X, dtype=np.int64)
        order[shape.flat_index_of(None)] = np.arange(shape.X)
        xs_low, xs_high = order[xs_low], order[xs_high]
    low = np.ascontiguousarray(embed_inputs(shape, xs_low)[:, : 2 * s].T)
    high = np.ascontiguousarray(embed_inputs(shape, xs_high)[:, 2 * s :].T)
    return ((slice(0, 2 * s), low), (slice(2 * s, 2 * shape.d), high)), order


def _interleave(weights, biases) -> np.ndarray:
    """The flat parameter layout: W_0 (row-major), b_0, W_1, b_1, ..."""
    return np.concatenate([part.ravel() for pair in zip(weights, biases) for part in pair])


class MlpModel:
    """Feed-forward tanh network with a scalar linear output head.

    Weights start N(0, 1/fan_in), biases at zero; the first layer sees
    the circle embedding, so a group translation acts on it by paired
    column rotations.
    """

    def __init__(self, shape: GroupShape, hidden, seed=0):
        self.shape = shape
        self.sizes = [2 * shape.d] + [int(h) for h in hidden] + [1]
        if min(self.sizes) < 1:
            raise ArgumentError(f"hidden widths must be >= 1, got {self.sizes[1:-1]}")
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

    def _forward(self, ws: "_Workspace"):
        """Fills the hidden activations ws.acts and the outputs ws.out (n,)
        in place; returns ws.out."""
        last = self.n_layers - 1
        for l in range(self.n_layers):
            out = ws.out[None, :] if l == last else ws.acts[l]
            if l == 0:
                self._first_layer(ws, out)
            else:
                np.matmul(self.weights[l], ws.acts[l - 1], out=out)
                out += self.biases[l][:, None]
            if l < last:
                np.tanh(out, out=out)
        return ws.out

    def _first_layer(self, ws: "_Workspace", out: np.ndarray) -> None:
        """Layer 0's pre-activation (width, n) into out: the high factor's
        product broadcast-added to the low factor's product plus the bias,
        written as the stacked rank-2 product [part_high, 1] @ [1; part_low]
        into the (width, n_high, n_low) view of out.  It is exact, as every
        term has a factor 1, and faster than np.add's broadcast."""
        (cols_low, low), (cols_high, high) = ws.factors
        w, b = self.weights[0], self.biases[0]
        part_low = np.matmul(w[:, cols_low], low, out=ws.rank2_low[:, 1, :])
        part_low += b[:, None]
        ws.rank2_high[:, :, 0] = w[:, cols_high] @ high
        np.matmul(ws.rank2_high, ws.rank2_low, out=out.reshape((out.shape[0],) + ws.grid))

    def _first_layer_gradient(self, ws: "_Workspace", wd: np.ndarray):
        """(wd @ a_0^T, wd summed over examples) for wd (width, n): on the
        (width, n_high, n_low) grid the low columns see wd summed over the
        high axis and the high columns see it summed over the low axis; the
        bias sum is the sum of the shorter, high-axis sums."""
        (cols_low, low), (cols_high, high) = ws.factors
        n_high, n_low = ws.grid
        grid = wd.reshape(-1, n_high, n_low)
        # sums as products with ones, which BLAS runs faster than np.sum
        sum_low = np.matmul(np.ones(n_high), grid)
        sum_high = (grid.reshape(-1, n_low) @ np.ones(n_low)).reshape(-1, n_high)
        g = np.empty_like(self.weights[0])
        g[:, cols_low] = sum_low @ low.T
        g[:, cols_high] = sum_high @ high.T
        return g, sum_high.sum(axis=1)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        """Outputs (n,) at an (n, 2d) input batch."""
        return self._forward(_Workspace(self, _batch_factors(inputs)))

    def _deltas(self, ws: "_Workspace") -> None:
        """Output sensitivities (width, n) of the hidden layers, in layer
        order, into ws.deltas.  The output delta is the constant 1, so the
        last hidden layer's back-product is the head's weight row."""
        for l in range(self.n_layers - 2, -1, -1):
            a, d = ws.acts[l], ws.deltas[l]
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
                np.einsum("hn,hn->n", ws.acts[l - 1], ws.acts[l - 1], out=term)
                term += 1.0
            if l < self.n_layers - 1:
                term *= np.einsum("hn,hn->n", ws.deltas[l], ws.deltas[l],
                                  out=ws.delta_sq)
            total += term
        return np.sqrt(total, out=total)

    def weighted_gradient(self, ws: "_Workspace", w: np.ndarray):
        """mean_x w(x) * grad_theta f(x): gemms above layer 0, factor sums
        at layer 0.  Scales ws.deltas by w in place; _deltas rebuilds them."""
        n = w.shape[0]
        g_w, g_b = [], []
        for l in range(self.n_layers):
            if l < self.n_layers - 1:
                wd = np.multiply(ws.deltas[l], w, out=ws.deltas[l])
            else:
                wd = w[None, :]  # the output delta is 1
            if l == 0:
                gw, gb = self._first_layer_gradient(ws, wd)
            else:
                gw, gb = (ws.acts[l - 1] @ wd.T).T, wd.sum(axis=1)
            g_w.append(gw / n)
            g_b.append(gb / n)
        return g_w, g_b

    def gradient_at(self, inputs: np.ndarray):
        """Full analytic gradient of f at a single input, flattened: the
        weighted gradient of the one-point batch with weight 1."""
        ws = _Workspace(self, _batch_factors(inputs))
        self._forward(ws)
        self._deltas(ws)
        return _interleave(*self.weighted_gradient(ws, np.ones(1)))

    def get_flat(self) -> np.ndarray:
        return _interleave(self.weights, self.biases)

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
    angles = 2.0 * np.pi * np.array(flatten_digits(shape.encode(g))) / shape.digit_primes
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

    def at(delta):
        t = theta.copy()
        t[i] += delta
        probe.set_flat(t)
        return probe(inputs)[0]

    for i in range(theta.size):
        fd[i] = (at(step) - at(-step)) / (2.0 * step)
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

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta, self.R, self.tau, self.eps))):
            raise ArgumentError("eta, R, tau and eps must be finite")
        if self.T < 0 or self.R <= 0 or self.tau < 0 or self.eps <= 0:
            raise ArgumentError("need T >= 0, R > 0, tau >= 0, eps > 0")


def _ngd_target(target, shape: GroupShape):
    """The target as an array; refused above NGD_X_CAP or unless of length X."""
    if shape.X > NGD_X_CAP:
        raise ResourceError(f"X = {shape.X} exceeds the exact-gradient cap {NGD_X_CAP}")
    h = np.asarray(target, dtype=np.float64)
    if h.shape[0] != shape.X:
        raise ArgumentError(f"target length {h.shape[0]} != X = {shape.X}")
    return h


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in the ArgumentError below
def ngd_train(model: MlpModel, target, shape: GroupShape, cfg: NgdConfig) -> dict:
    """Population-gradient descent with per-example clipping and Gaussian
    parameter noise N(0, tau^2 I) each step.

    Passes run over the whole group in flat layout order, as the input
    factors of _group_factors, so the target is permuted into that order
    once per call.  Losses and gradients are means over the group, which
    do not depend on the order."""
    h = _ngd_target(target, shape)
    baseline_loss = float(np.mean(h**2))  # the loss of the zero predictor
    factors, order = _group_factors(shape)
    if order is not None:
        h = h[order]
    ws = _Workspace(model, factors)
    rng = np.random.default_rng(cfg.seed)
    n_params = model.get_flat().size
    w = np.empty(shape.X)
    trace = []

    def record(loss):
        if not math.isfinite(loss):
            raise ArgumentError(f"NGD diverged: loss {loss} after {len(trace)} steps is not "
                                f"finite; lower --eta (got {cfg.eta}) or --tau (got {cfg.tau})")
        trace.append(loss)

    for _ in range(cfg.T):
        out = model._forward(ws)
        np.subtract(h, out, out=w)  # the residual, clipped in place below
        record(float(np.mean(np.square(w, out=ws.term))))  # term: free until the norms
        model._deltas(ws)
        clip = model.per_example_grad_norms(ws)
        np.maximum(clip, 1e-300, out=clip)
        np.divide(cfg.R, clip, out=clip)
        np.minimum(clip, 1.0, out=clip)
        w *= clip
        g = _interleave(*model.weighted_gradient(ws, w))
        noise = rng.normal(0.0, cfg.tau, size=n_params) if cfg.tau > 0 else np.zeros(n_params)
        model.set_flat(model.get_flat() + cfg.eta * (g - noise))
    out = model._forward(ws)
    final_loss = float(np.mean((out - h) ** 2))
    record(final_loss)
    success = final_loss <= baseline_loss - cfg.eps
    return {"model": model, "loss_trace": trace, "success": success,
            "final_loss": final_loss, "baseline_loss": baseline_loss}


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def ngd_experiment(target, shape: GroupShape, cfg: NgdConfig, trials: int,
                   arch) -> dict:
    """Repeated seeded trainings against the alignment-driven failure
    ceiling.  Trial t uses seed sequence [cfg.seed, t, 0] for the model and
    [cfg.seed, t, 1] for the noise, cfg.seed an integer >= 0, on a pool of
    at most two threads, with the result of a sequential run; final_losses
    is in trial order.  The first failed trial's exception, in trial order, is
    re-raised here, and trials not yet started are dropped."""
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's import path

    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    if cfg.tau <= 0:
        raise ArgumentError("tau must be > 0 for the bound comparison")
    try:
        entropy = operator.index(cfg.seed)
    except TypeError:
        raise ArgumentError(f"seed must be an integer, got {cfg.seed!r}") from None
    if entropy < 0:
        raise ArgumentError(f"seed must be >= 0, got {entropy}")
    h = _ngd_target(target, shape)
    threads = min(2, _usable_cpus(), trials)

    def trial(t):
        return ngd_train(MlpModel(shape, arch, seed=[entropy, t, 0]), h, shape,
                         replace(cfg, seed=[entropy, t, 1]))

    pool = ThreadPoolExecutor(threads)
    try:
        results = list(pool.map(trial, range(trials)))
    finally:
        pool.shutdown(cancel_futures=True)
    final_losses = [result["final_loss"] for result in results]
    rate = sum(bool(result["success"]) for result in results) / trials
    A = alignment_full_group(group_spectrum(h, shape)).value
    bounds = learning_bounds(A, {"eps": cfg.eps, "tau": cfg.tau,
                                 "R": cfg.R, "T": cfg.T})
    return {
        "success_rate": rate,
        "theory_bound": bounds["ngd_fail_prob"],
        "theory_raw": bounds["ngd_raw"],
        "alignment": A,
        "trials": trials,
        "final_losses": final_losses,
        "threads": threads,
        "vacuous": bounds["ngd_raw"] >= 1.0,
    }


# -- adversarial correlational-query game --------------------------------


@dataclass
class CsqTranscript:
    responses: list = field(default_factory=list)
    deviations: list = field(default_factory=list)
    output: np.ndarray | None = None
    bad_event: bool = False


def _query_characters(shape: GroupShape, q: int) -> list:
    """a_k = flat (k + 1) mod X, asked by queries 2k (real part) and 2k + 1 (imaginary)."""
    return [CharacterIndex.from_flat((k + 1) % shape.X, shape) for k in range((q + 1) // 2)]


class FixedFeatureStrategy:
    """Non-adaptive strategy: queries the real/imaginary parts of a fixed
    list of characters, then outputs the clipped response-weighted sum."""

    def __init__(self, shape: GroupShape, q: int):
        self.shape = shape
        self.features = []
        for a in _query_characters(shape, q):
            chi = char_values(a, shape)
            self.features += [np.real(chi), np.imag(chi)][:q - len(self.features)]

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
                         q_max: int) -> CsqTranscript:
    """Oracle that replays the null answer whenever it is within tau of
    the truth, and otherwise gives the tau-compatible value nearest the
    null answer; any deviation raises the bad-event flag."""
    if not tau > 0:  # NaN too
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
        transcript.responses.append(resp)
        transcript.deviations.append(deviated)
    transcript.bad_event = any(transcript.deviations)
    transcript.output = np.asarray(learner.predictor(transcript.responses))
    return transcript


def csq_preflight(tau: float, q: int, samples: int) -> None:
    """The checks of csq_bad_event_rate's arguments, which need no table:
    the CLI makes them before it sieves."""
    for name, count in (("samples", samples), ("q", q)):
        if count < 1:
            raise ArgumentError(f"{name} must be >= 1, got {count}")
    if not tau > 0:  # NaN too
        raise ArgumentError(f"--tau must be > 0, got {tau}")
    if q * samples > SPECTRUM_CAP:
        raise ResourceError(f"--q {q} times --samples {samples} exceeds the cap {SPECTRUM_CAP}")


def csq_bad_event_rate(orbit_target, shape: GroupShape, tau: float, q: int,
                       samples: int, seed: int = 0) -> dict:
    """Bad-event rate of FixedFeatureStrategy(shape, q) against the zero null over uniform
    translates h(g + .) of a real h, and its q A / tau^2 ceiling.  No game is played: query
    t's answer, Re or -Im of chi_a(g) hhat(a), is read from the spectrum."""
    csq_preflight(tau, q, samples)
    spec = group_spectrum(orbit_target, shape)
    gs = np.random.default_rng(seed).integers(0, shape.X, size=samples)
    z = np.array([char_values(a, shape, gs) * spec.coeffs[a.flat]
                  for a in _query_characters(shape, q)])
    answers = np.stack([z.real, z.imag], axis=1).reshape(-1, samples)[:q]  # row t: query t
    rate = np.count_nonzero((np.abs(answers) > tau).any(axis=0)) / samples
    A = alignment_full_group(spec).value
    bound = _over_tau_squared(q * A, tau)
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
        # rows share one float object per value of isqrt(X // a): 32 B less per row
        lam = [k / X for k in range(math.isqrt(X // 2) + 1)]
        eigen = [(1, 0.0)]
        for lo in range(2, X + 1, CHUNK):
            eigen += [(a, lam[math.isqrt(X // a)])
                      for a in (np.flatnonzero(sf[lo : lo + CHUNK]) + lo).tolist()]
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
    h = np.ones(X + 1)
    h[0] = 0.0
    # h(n) = prod of the signs over n's prime factors with multiplicity:
    # one flip on the multiples of each power q of every prime drawn -1
    for p in primes[signs < 0].tolist():
        q = p
        while q <= X:
            h[q::q] *= -1
            q *= p
    return h
