"""Information matrices and estimation bounds for the 4-parameter hardware
fingerprint [eps, phi, Re(alpha3), Im(alpha3)].

One route builds every numerical information matrix: ``fim_samples`` sums
the Gram matrix of the model's sensitivities over a vector of samples, with
the channel known or, as two real nuisance parameters, unknown (the Schur
complement of the joint 6x6 matrix). ``fim_numerical`` takes that sum over
an alphabet, scaled to N symbols, and ``marginalize_channel`` does the same
with the channel unknown. The central-difference Jacobian ``_fd_jacobian``
is the independent oracle it is tested against.

``fim_closed_form`` assembles the small-impairment block formulas from the
unit-power moments of any sample vector, ``moments(x)``. Where beta = 0 the
samples lie on one line through the origin; their matrix is ``fim_samples``
at the one symbol x0 = sqrt(mu20), rank-2 by construction and exact for
constant modulus, where every symbol is +-x0 and r = h c x. Elsewhere the
block formula assumes E[|x|^2 x^2] = 0, true of the symmetric alphabets but
not of a finite sequence: on random 76-symbol QPSK sequences it is up to
15-20% (Frobenius) away from ``fim_samples``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import (
    ConfigError,
    Constellation,
    Moments,
    predicted_fim_rank,
)
from .signal_model import PARAM_NAMES, HwiParams, _front_end, apply_hwi, hwi_model_and_jacobian

_PARAM_INDEX = {name: i for i, name in enumerate(PARAM_NAMES)}

# an eigenvalue at most _RANK_TOL times the largest counts as zero, and a
# parameter whose null-space projection exceeds _NULL_PROJ_TOL is unbounded
_RANK_TOL = 1e-9
_NULL_PROJ_TOL = 1e-6


class UndefinedCouplingError(ValueError):
    """Raised when a coupling coefficient is requested for a zero diagonal."""


class RankDeficientError(ValueError):
    """Raised when an operation requires a full-rank information matrix."""


def qfunc(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    from scipy.special import erfc  # loaded on first use: it is most of `import rfident`

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _param_index(i) -> int:
    if isinstance(i, str):
        try:
            return _PARAM_INDEX[i]
        except KeyError:
            raise KeyError(f"unknown parameter {i!r}; use one of {PARAM_NAMES}") from None
    return int(i)


def _sample_snr(n: int, gamma: float, size: int) -> float:
    """The per-sample SNR that spreads N symbols at SNR gamma over ``size``
    samples."""
    if n < 1 or not 0.0 < gamma < math.inf:
        raise ConfigError("need n >= 1 and a finite gamma > 0")
    return n * gamma / size


@dataclass(frozen=True)
class Fim:
    """4x4 information matrix in PARAM_NAMES order: finite, symmetric and
    positive semidefinite, held read-only (symmetrized on construction)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4) or not np.all(np.isfinite(m)):
            raise ValueError("information matrix must be a finite 4x4 array")
        scale = max(np.max(np.abs(m)), 1e-300)
        if np.max(np.abs(m - m.T)) > 1e-10 * scale:
            raise ValueError("information matrix must be symmetric")
        m = 0.5 * (m + m.T)
        eig = np.linalg.eigvalsh(m)
        if eig[0] < -1e-8 * max(eig[-1], 1e-300):
            raise ValueError(f"information matrix is not PSD (min eigenvalue {eig[0]:g})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CrbReport:
    """Per-parameter bounds plus rank/null-space diagnostics.

    ``crb`` holds math.inf for parameters whose error is unbounded (nonzero
    projection onto the numerical null space); ``identifiable`` tags them.
    ``pinv`` is the pseudo-inverse on the numerical range, so d^T pinv d
    bounds a direction d that has no null-space component.
    """

    crb: np.ndarray
    rank: int
    null_basis: np.ndarray
    identifiable: np.ndarray
    pinv: np.ndarray


@dataclass(frozen=True)
class DiscriminationResult:
    """Information-weighted separation between two fingerprints."""

    d_squared: float
    d: float
    pe_star: float
    per_param_dr: np.ndarray
    dr_valid: np.ndarray


# ---------------------------------------------------------------------------
# Closed form


def fim_closed_form(m: Moments, p: HwiParams, n: int, gamma: float) -> Fim:
    """Small-impairment block assembly 2 N gamma [[J_IQ, J_x], [J_x^T, J_PA]].

    Where ``predicted_fim_rank`` reads 2, the information of N samples
    x0 = sqrt(mu20) instead (see the module docstring).
    """
    n_gamma = _sample_snr(n, gamma, 1)
    if predicted_fim_rank(m) == 2:
        return fim_samples(np.sqrt(m.mu20), p, n_gamma)
    # the IQ information splits between the gain and phase directions:
    # beta_eps = (1 - Re z) / 2 and beta_phi = (1 + Re z) / 2, with the cross
    # term (1 + eps) Im(z) / 2, for z = e^{-2j phi} mu20
    z = np.exp(-2j * p.phi) * m.mu20
    beta_eps, beta_phi = 0.5 * (1.0 - z.real), 0.5 * (1.0 + z.real)
    j_epsphi = 0.5 * (1.0 + p.eps) * z.imag
    j_iq = np.array([[beta_eps, j_epsphi], [j_epsphi, (1.0 + p.eps) ** 2 * beta_phi]])
    j_pa = m.mu6 * np.eye(2)
    c, s = math.cos(p.phi), math.sin(p.phi)
    j_x = 0.5 * m.mu4 * np.array([[c, s], [-(1.0 + p.eps) * s, (1.0 + p.eps) * c]])
    return Fim(2.0 * n_gamma * np.block([[j_iq, j_x], [j_x.T, j_pa]]))


# ---------------------------------------------------------------------------
# Sample route


# central-difference step of the finite-difference oracle
_FD_STEP = 1e-5


def _fd_jacobian(x: np.ndarray, p: HwiParams) -> np.ndarray:
    v0 = p.as_vector()
    out = np.empty((4, x.size), dtype=complex)
    for i in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += _FD_STEP
        vm[i] -= _FD_STEP
        fp = apply_hwi(x, HwiParams.from_vector(vp))
        fm = apply_hwi(x, HwiParams.from_vector(vm))
        out[i] = (fp - fm) / (2.0 * _FD_STEP)
    return out


def _schur_complement(joint: np.ndarray, keep: int) -> np.ndarray:
    """J_aa - J_ab J_bb^{-1} J_ba for the leading ``keep`` block."""
    a = joint[:keep, :keep]
    b = joint[:keep, keep:]
    d = joint[keep:, keep:]
    cond = np.linalg.cond(d)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficientError("nuisance block is singular")
    return a - b @ np.linalg.solve(d, b.T)


def fim_samples(x, p: HwiParams, gamma: float, channel_known: bool = True) -> Fim:
    """Information in the samples ``x``, each received at SNR ``gamma``: the
    sum of 2 gamma Re(J^H J) over the samples, with the model f and its
    Jacobian J (at h = 1) from one ``hwi_model_and_jacobian`` pass.

    With ``channel_known=False``, f and j f join as the sensitivities to the
    nuisance (Re h, Im h), and the result is the Schur complement of the
    joint 6x6 matrix. Its eigenvalues at or below ``_RANK_TOL`` times the
    largest of the known-channel block are subtraction fuzz and read as zero.
    """
    if not 0.0 < gamma < math.inf:
        raise ConfigError("need a finite gamma > 0")
    f, jac = hwi_model_and_jacobian(np.asarray(x, dtype=complex).ravel(), p)
    if not channel_known:
        jac = np.vstack([jac, f, 1j * f])
    gram = 2.0 * gamma * np.real(np.conj(jac) @ jac.T)
    if channel_known:
        return Fim(gram)
    eff = _schur_complement(gram, 4)
    eig, vec = np.linalg.eigh(0.5 * (eff + eff.T))
    eig[eig <= _RANK_TOL * np.linalg.eigvalsh(gram[:4, :4])[-1]] = 0.0
    return Fim((vec * eig) @ vec.T)


def fim_numerical(c: Constellation, p: HwiParams, n: int, gamma: float) -> Fim:
    """The defining information sum for the full nonlinear model: the
    expectation over the alphabet ``c``, scaled to N symbols."""
    return fim_samples(c.points, p, _sample_snr(n, gamma, c.size))


def marginalize_channel(c: Constellation, p: HwiParams, n: int, gamma: float) -> Fim:
    """``fim_numerical`` with the complex channel as two real nuisances."""
    return fim_samples(c.points, p, _sample_snr(n, gamma, c.size), channel_known=False)


# ---------------------------------------------------------------------------
# Bound reports and diagnostics


def crb_report(f: Fim) -> CrbReport:
    m = f.matrix
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite information matrix")
    eig, vec = np.linalg.eigh(m)
    lam_max = max(eig[-1], 0.0)
    keep = eig > _RANK_TOL * max(lam_max, 1e-300)
    rank = int(np.sum(keep))
    null_basis = vec[:, ~keep].T.copy()

    inv_eig = np.where(keep, 1.0 / np.where(keep, eig, 1.0), 0.0)
    pinv = (vec * inv_eig) @ vec.T

    if rank == 4:
        crb = np.diag(np.linalg.inv(m)).copy()
        identifiable = np.ones(4, dtype=bool)
    else:
        proj = np.sqrt(np.sum(null_basis**2, axis=0)) if null_basis.size else np.zeros(4)
        identifiable = proj <= _NULL_PROJ_TOL
        crb = np.where(identifiable, np.diag(pinv), math.inf)

    return CrbReport(
        crb=crb,
        rank=rank,
        null_basis=null_basis,
        identifiable=identifiable,
        pinv=pinv,
    )


def coupling_rho(f: Fim, i, j) -> float:
    """Normalized coupling |J_ij| / sqrt(J_ii J_jj)."""
    i, j = _param_index(i), _param_index(j)
    m = f.matrix
    if m[i, i] <= 0.0 or m[j, j] <= 0.0:
        raise UndefinedCouplingError("coupling undefined for zero diagonal entry")
    return float(abs(m[i, j]) / math.sqrt(m[i, i] * m[j, j]))


def coupling_inflation(f: Fim, i) -> float:
    """[J^{-1}]_ii * [J]_ii: how much ignoring coupling understates the bound."""
    i = _param_index(i)
    rep = crb_report(f)
    if rep.rank < 4:
        raise RankDeficientError("coupling inflation needs a full-rank matrix")
    return float(rep.crb[i] * f.matrix[i, i])


def pa_subblock_crb(f: Fim) -> np.ndarray:
    """Bounds from inverting only the 2x2 PA block (used when the full
    matrix is rank-deficient)."""
    block = f.matrix[2:, 2:]
    return np.diag(np.linalg.inv(block)).copy()


def subblock_eigenvalue_ratio(f: Fim, i, j) -> float:
    """Eigenvalue ratio of the 2x2 sub-block for parameters (i, j)."""
    i, j = _param_index(i), _param_index(j)
    sub = f.matrix[np.ix_([i, j], [i, j])]
    eig = np.linalg.eigvalsh(sub)
    if eig[0] <= 0.0:
        return math.inf
    return float(eig[1] / eig[0])


def discrimination(theta_a: HwiParams, theta_b: HwiParams, f: Fim) -> DiscriminationResult:
    """d^2 = dtheta^T J dtheta, optimal pairwise error Q(d/2), and the
    per-parameter discrimination ratios |dtheta_i| / sqrt(CRB_i)."""
    delta = theta_a.as_vector() - theta_b.as_vector()
    d2 = float(delta @ f.matrix @ delta)
    if d2 < -1e-10:
        raise ValueError(f"negative discrimination metric {d2:g}; matrix not PSD")
    d2 = max(d2, 0.0)
    d = math.sqrt(d2)
    rep = crb_report(f)
    valid = np.isfinite(rep.crb) & (rep.crb > 0.0)
    dr = np.divide(np.abs(delta), np.sqrt(np.where(valid, rep.crb, 1.0)),
                   out=np.zeros(4), where=valid)
    return DiscriminationResult(d_squared=d2, d=d, pe_star=float(qfunc(d / 2.0)),
                                per_param_dr=dr, dr_valid=valid)


def pa_fifth_order_confounding(c: Constellation, p: HwiParams) -> float:
    """Column correlation between the cubic and a hypothetical fifth-order PA
    sensitivity. Near 1 for constant-modulus alphabets, lower for QAM."""
    x_iq, u = _front_end(c.points, p)[:2]
    d3 = u * x_iq
    d5 = u**2 * x_iq
    num = abs(np.vdot(d3, d5))
    den = math.sqrt(float(np.vdot(d3, d3).real) * float(np.vdot(d5, d5).real))
    return float(num / den)


