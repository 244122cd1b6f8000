"""Nonlinear least-squares recovery of the hardware fingerprint from a burst,
plus the Monte Carlo harness that checks bound attainment.

Estimation conditions on a known channel and known symbols, and starts from
an oracle initialization near the truth: the point is achievability of the
bound, not blind acquisition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constellation import (
    ConfigError,
    Constellation,
    _db_to_linear,
    constellation_from,
    moments,
    predicted_fim_rank,
)
from .features import _raise_first_bad
from .fim_crb import crb_report, fim_closed_form, fim_numerical, pa_subblock_crb
from .signal_model import (
    PARAM_NAMES,
    Burst,
    ChannelConfig,
    HwiParams,
    _front_end,
    _keyed_generators,
    _synthesize_rows,
    hwi_model_and_jacobian,
    iridium_known_symbols,
    write_csv_atomic,
)


@dataclass(frozen=True)
class EstimateStatus:
    converged: bool
    n_evaluations: int
    residual: float


@dataclass(frozen=True)
class BatchFit:
    """Per-trial result of ``fit_batch``: estimates (T, 4), whether each
    trial met a tolerance within its budget, iterations taken (0 for the
    closed-form fit) and the final residual sum of squares."""

    theta: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray


def _sum_sq(e: np.ndarray) -> np.ndarray:
    return np.sum(e.real ** 2 + e.imag ** 2, axis=-1)


def _fit_alpha3(r, h, x, theta0):
    """Least-squares alpha3 with the IQ pair held at ``theta0``'s.

    With (eps, phi) fixed the model h x_iq (1 + alpha3 |x_iq|^2) is linear in
    alpha3, and its alpha3 sensitivity is h |x_iq|^2 x_iq, so the minimizer
    is one complex projection per trial of r - h x_iq onto that sensitivity.
    """
    x_iq, u = _front_end(x, theta0)[:2]
    # bound to a name, so that numpy cannot swap the product's operands
    d_alpha3 = u * x_iq
    basis = h[:, None] * d_alpha3
    target = r - h[:, None] * x_iq
    alpha3 = np.sum(basis.conj() * target, axis=-1) / _sum_sq(basis)
    theta = theta0.copy()
    theta[:, 2], theta[:, 3] = alpha3.real, alpha3.imag
    return theta, _sum_sq(target - alpha3[:, None] * basis)


# Levenberg-Marquardt damping schedule (Marquardt's diagonal scaling).
_LAMBDA0 = 1e-3
_LAMBDA_DOWN = 0.1
_LAMBDA_UP = 10.0

# Levenberg-Marquardt stopping rule: iteration budget per trial, relative
# step tolerance and relative residual-gain tolerance.
_MAX_ITERS = 4000
_X_TOL = 1e-9
_F_TOL = 1e-12

# Trials fitted together: bounds the (trials, 4, N) model and Jacobian
# temporaries, so memory does not grow with the number of trials.
_BLOCK_TRIALS = 64


def _normal_equations(r, h, x, theta):
    """Residual sum of squares at ``theta``, with A = Re(J^H J) and
    b = Re(J^H e) for the residual e = r - h f(theta) and its sensitivity
    J = h df/dtheta. Reading the complex arrays as interleaved (re, im)
    reals gives both real parts without copies."""
    f, jac = hwi_model_and_jacobian(x, theta)
    e = r - h[:, None] * f
    jv = jac.view(float)
    a = (np.abs(h) ** 2)[:, None, None] * np.einsum("tik,tjk->tij", jv, jv)
    b = np.einsum("tik,tk->ti", jv, (np.conj(h)[:, None] * e).view(float))
    return _sum_sq(e), a, b


def _fit_lm(r, h, x, theta0):
    """Batched Levenberg-Marquardt on the analytic Jacobian (Moré 1978).

    Each active trial solves (A + lambda diag(A)) delta = b at its current
    point (see ``_normal_equations``). A step is accepted only if it lowers
    that trial's residual (lambda then shrinks), otherwise lambda grows. A
    trial stops when the step is below ``_X_TOL`` relative to |theta| or an
    accepted step lowers the residual by at most ``_F_TOL`` relative, or when
    it has spent ``_MAX_ITERS`` iterations without either.
    """
    n_trials = theta0.shape[0]
    theta = theta0.copy()
    cost, a, b = _normal_equations(r, h, x, theta)
    lam = np.full(n_trials, _LAMBDA0)
    iters = np.zeros(n_trials, dtype=int)
    converged = np.zeros(n_trials, dtype=bool)
    act = np.arange(n_trials)
    while act.size:
        m = a[act]
        m[:, range(4), range(4)] *= 1.0 + lam[act, None]
        step = np.linalg.solve(m, b[act][..., None])[..., 0]
        trial = theta[act] + step
        cost_t, a_t, b_t = _normal_equations(r[act], h[act], x[act], trial)
        better = cost_t < cost[act]
        small_step = (np.linalg.norm(step, axis=1)
                      <= _X_TOL * (np.linalg.norm(theta[act], axis=1) + _X_TOL))
        small_gain = better & (cost[act] - cost_t <= _F_TOL * cost[act])
        ok = act[better]
        theta[ok], cost[ok], a[ok], b[ok] = trial[better], cost_t[better], a_t[better], b_t[better]
        lam[act] *= np.where(better, _LAMBDA_DOWN, _LAMBDA_UP)
        iters[act] += 1
        stop = small_step | small_gain
        converged[act[stop]] = True
        act = act[~stop & (iters[act] < _MAX_ITERS)]
    return theta, converged, iters, cost


def fit_batch(r, h, x, theta0) -> BatchFit:
    """Fit T bursts at once: minimize sum_n |r(t, n) - h(t) f(theta_t; x(t, n))|^2
    for every trial t from its initial point theta0[t].

    ``r`` are the (T, N) samples (CFO already removed), ``x`` their known
    symbols, a (T, N) stack or one (1, N) row that every trial shares, ``h``
    the T known channel coefficients, ``theta0`` the (T, 4) initial points
    in PARAM_NAMES order. A zero or non-finite channel, a non-finite sample
    or known symbol, or all-zero known symbols raise
    ``DegenerateInputError`` naming the first bad trial as its burst.

    Trials whose known symbols have beta > 0 get the batched
    Levenberg-Marquardt fit of all four parameters. Trials with beta = 0
    (real symbols, such as the Iridium preamble and unique word) get the
    PA sub-block fit, whose error ``pa_subblock_crb`` bounds: eps and phi
    stay at their initial values and only (Re alpha3, Im alpha3) is fitted,
    in closed form. For constant-modulus symbols the model collapses to
    r = h c x with c = kappa (1 + alpha3 |kappa|^2) (see ``bpsk_collapse``),
    and for any fixed (eps, phi) alpha3 still reaches every c, so this is an
    exact least-squares minimizer: the objective is flat along the IQ
    directions.
    """
    r = np.asarray(r, dtype=complex)
    x = np.asarray(x, dtype=complex)
    h = np.asarray(h, dtype=complex)
    theta0 = np.asarray(theta0, dtype=float)
    n_trials = theta0.shape[0]
    # one summary passes good input; the per-check masks name a bad trial
    if not (np.isfinite(h).all() and h.all() and np.isfinite(r).all()
            and np.isfinite(x).all() and x.any(axis=1).all()):

        def per_trial(mask):
            return np.broadcast_to(mask, (n_trials,))

        _raise_first_bad([
            (~np.isfinite(h) | (h == 0), "channel is zero or not finite"),
            (~np.all(np.isfinite(r), axis=1), "non-finite sample"),
            (per_trial(~np.all(np.isfinite(x), axis=1)), "non-finite known symbol"),
            (per_trial(~np.any(x, axis=1)), "known symbols are all zero")])
    # the beta = 0 decision, once for a shared row
    real = np.broadcast_to(predicted_fim_rank(moments(x)) == 2, (n_trials,))
    x = np.broadcast_to(x, r.shape)
    theta = np.empty((n_trials, 4))
    converged = np.ones(n_trials, dtype=bool)
    iters = np.zeros(n_trials, dtype=int)
    cost = np.empty(n_trials)
    for blk in np.split(np.arange(n_trials), range(_BLOCK_TRIALS, n_trials, _BLOCK_TRIALS)):
        fa, lm = blk[real[blk]], blk[~real[blk]]
        if fa.size:
            theta[fa], cost[fa] = _fit_alpha3(r[fa], h[fa], x[fa], theta0[fa])
        if lm.size:
            theta[lm], converged[lm], iters[lm], cost[lm] = _fit_lm(
                r[lm], h[lm], x[lm], theta0[lm])
    return BatchFit(theta=theta, converged=converged, iterations=iters, residual=cost)


def nls_estimate(
    b: Burst, h_known: complex, init: HwiParams | None = None
) -> tuple[HwiParams, EstimateStatus]:
    """Minimize sum |r(n) - h f(theta; n)|^2 from the initial point ``init``:
    the one-burst case of ``fit_batch``. Without ``init`` the fit starts
    from ``b.meta.truth``, or from ``HwiParams()`` if the burst has none.

    Any CFO recorded in the burst metadata is deramped first (nuisance
    removal is conditioned on, like the channel). When the iteration budget
    runs out the last accepted point is returned with a warning and
    ``converged=False``. ``n_evaluations`` counts model evaluations: one at
    the initial point plus one per iteration.
    """
    cfo = b.meta.channel.cfo_rad_per_symbol
    r = b.samples
    if cfo != 0.0:
        r = r * np.exp(-1j * cfo * np.arange(b.n))
    init = init or b.meta.truth or HwiParams()
    fit = fit_batch(r[None], np.array([h_known]), b.known_symbols[None],
                    init.as_vector()[None])
    if not fit.converged[0]:
        warnings.warn("Levenberg-Marquardt fit hit its iteration budget; "
                      "returning the last accepted point")
    status = EstimateStatus(converged=bool(fit.converged[0]),
                            n_evaluations=int(fit.iterations[0]) + 1,
                            residual=float(fit.residual[0]))
    return HwiParams.from_vector(fit.theta[0]), status


@dataclass(frozen=True)
class McRow:
    """Per-SNR validation row.

    ``crb``/``ratio`` pair the MSE with the closed-form bound (the CSV
    interface); ``crb_exact``/``ratio_exact`` pair it with the exact
    numerical-moment bound, which is the attainment reference (the closed
    form carries a documented small-impairment bias of up to ~15% at the
    default operating point).

    On rank-deficient rows the PA components are paired with the PA
    sub-block bound, the bound of the alpha3-only fit that ``fit_batch``
    runs on beta = 0 bursts; ``mse`` of the IQ components is then the spread
    of the initialization, flat in SNR.

    ``n_unconverged`` counts the trials that spent their iteration budget;
    when it is nonzero ``status`` carries a ``+budget`` suffix.
    """

    snr_db: float
    mse: np.ndarray
    crb: np.ndarray
    ratio: np.ndarray
    crb_exact: np.ndarray
    ratio_exact: np.ndarray
    n_trials: int
    status: str
    n_unconverged: int = 0


@dataclass(frozen=True)
class McReport:
    modulation: str
    truth: HwiParams
    n_symbols: int
    rows: list

    def to_csv(self, path) -> None:
        write_csv_atomic(
            path,
            ["snr_db", "param", "mse", "crb", "ratio", "n_trials", "status"],
            ([f"{row.snr_db:g}", name, f"{row.mse[i]:.10e}", f"{row.crb[i]:.10e}",
              f"{row.ratio[i]:.6g}", row.n_trials, row.status]
             for row in self.rows for i, name in enumerate(PARAM_NAMES)),
        )


def mc_crb_validation(
    modulation: str | Constellation,
    truth: HwiParams,
    snr_grid_db,
    n: int = 76,
    n_trials: int = 300,
    seed: int = 0,
    pilot_mode: str = "random",
) -> McReport:
    """Per SNR point: synthesize independent bursts, estimate, and compare the
    per-parameter sample MSE against the small-impairment bound.

    Rank-deficient alphabets pair the PA components with the PA sub-block
    bound and tag the IQ components as unbounded; on their beta = 0 bursts
    ``fit_batch`` fits only alpha3 with the IQ pair held at its initial
    value, which is the fit that bound describes. Deterministic per seed:
    trial ``t`` of SNR point ``k`` draws its symbols, burst and initial point
    from the stream of ``default_rng((seed, k, t))``, with the streams of
    the grid seeded in bulk by ``_keyed_generators``, and each SNR point fits
    all its trials in one ``fit_batch`` call.
    """
    if pilot_mode not in ("random", "iridium"):
        raise ConfigError(f"unknown pilot_mode {pilot_mode!r}; use 'random' or 'iridium'")
    if n < 1 or n_trials < 1:
        raise ConfigError("need n >= 1 and n_trials >= 1")
    if n_trials < 50:
        warnings.warn("fewer than 50 trials gives a noisy MSE estimate")
    c = modulation if isinstance(modulation, Constellation) else constellation_from(modulation)
    mod_name = c.name
    mom = moments(c.points)
    # the bound the pilots' fit attains needs an alphabet with their moments
    if pilot_mode == "iridium" and mom != moments(iridium_known_symbols(n)):
        raise ConfigError(f"pilot_mode 'iridium' sends +-1 pilots and needs an alphabet "
                          f"with BPSK moments, got {mod_name!r}")
    # random pilots are drawn into a per-trial buffer; Iridium runs send the
    # one read-only row that campaigns send
    alphabet = c if pilot_mode == "random" else None
    x = iridium_known_symbols(n)[None] if alphabet is None else np.empty((n_trials, n), complex)
    rows = []
    grid = np.atleast_1d(np.asarray(snr_grid_db, dtype=float))
    keyed = _keyed_generators((seed,), (grid.size, n_trials))
    for snr_db in grid:
        gamma = _db_to_linear(snr_db, "snr_grid_db")
        fim = fim_closed_form(mom, truth, n, gamma)
        fim_exact = fim_numerical(c, truth, n, gamma)
        # the closed form's rank picks one bound rule for both matrices
        rep = crb_report(fim)
        crb, crb_exact = ((rep if f is fim else crb_report(f)).crb if rep.rank == 4
                          else np.concatenate([[math.inf, math.inf], pa_subblock_crb(f)])
                          for f in (fim, fim_exact))
        status = "ok" if rep.rank == 4 else "rank_deficient_pa_subblock"
        ch = ChannelConfig(h=1.0 + 0.0j, snr_db=float(snr_db))
        r = np.empty((n_trials, n), dtype=complex)
        gauss = np.empty((n_trials, 4))
        # synthesized in blocks, so that the noise draws never span all trials
        for start in range(0, n_trials, _BLOCK_TRIALS):
            stop = min(start + _BLOCK_TRIALS, n_trials)
            known = x if alphabet is None else x[start:stop]
            r[start:stop] = _synthesize_rows(keyed, stop - start, known, truth, ch, alphabet,
                                             normals=gauss[start:stop])[0]
        # the oracle initial point: truth plus Gaussian perturbation, std
        # 0.1 |component| with a 1e-3 floor; equal bit for bit to a per-trial
        # rng.normal(0.0, sigma), which numpy forms as 0.0 + sigma * gauss
        v = truth.as_vector()
        theta0 = v + np.maximum(0.1 * np.abs(v), 1e-3) * gauss
        fit = fit_batch(r, np.ones(n_trials), x, theta0)
        mse = np.mean((fit.theta - v) ** 2, axis=0)
        n_unconverged = int(np.count_nonzero(~fit.converged))
        with np.errstate(invalid="ignore"):
            ratio = np.where(np.isfinite(crb), mse / crb, np.nan)
            ratio_exact = np.where(np.isfinite(crb_exact), mse / crb_exact, np.nan)
        rows.append(
            McRow(snr_db=float(snr_db), mse=mse, crb=crb, ratio=ratio, crb_exact=crb_exact,
                  ratio_exact=ratio_exact, n_trials=n_trials,
                  status=status + ("+budget" if n_unconverged else ""),
                  n_unconverged=n_unconverged)
        )
    return McReport(modulation=mod_name, truth=truth, n_symbols=n, rows=rows)
