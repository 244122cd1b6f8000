"""Information matrices and estimation bounds for the 4-parameter hardware
fingerprint [eps, phi, Re(alpha3), Im(alpha3)].

Three routes to the 4x4 information matrix:

* ``fim_closed_form`` assembles the small-impairment block formulas from the
  alphabet moments. Alphabets with beta = 0 lie on one line through the
  origin; their matrix is the Gram matrix of the model's sensitivities at
  x0 = sqrt(mu20), positive semidefinite and rank-2 by construction, and
  exact for constant modulus, where every symbol is +-x0 and the model
  collapses to r = h c x. The generic block formula for the PA/IQ cross
  term does not apply there.
* ``fim_numerical`` evaluates the defining sum/expectation with exact analytic
  sensitivities of the full nonlinear map ("moment" mode) or with central
  finite differences ("finite_difference" mode). The two numerical paths are
  independent and serve as each other's regression oracle.
* ``marginalize_channel`` treats the complex channel as two real nuisance
  parameters and returns the Schur complement of the joint 6x6 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constellation import (
    ConfigError,
    Constellation,
    Moments,
    directional_sensitivities,
    predicted_fim_rank,
)
from .signal_model import PARAM_NAMES, HwiParams, apply_hwi, hwi_jacobian

_PARAM_INDEX = {name: i for i, name in enumerate(PARAM_NAMES)}


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


@dataclass(frozen=True)
class Fim:
    """4x4 symmetric PSD information matrix with its operating point."""

    matrix: np.ndarray
    operating_point: HwiParams
    n_symbols: int
    snr_linear: float
    source: str

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
    projection onto the numerical null space); ``identifiable`` tags them and
    ``pinv_diag`` carries the pseudo-inverse diagonal for reference.
    """

    crb: np.ndarray
    rank: int
    null_basis: np.ndarray
    condition_number: float
    identifiable: np.ndarray
    pinv_diag: np.ndarray


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

    For beta = 0 alphabets the block cross-term formula is invalid (it needs
    E[|x|^2 x^2] = 0), so the rank-2 collapse construction is used: the
    Gram matrix of ``hwi_jacobian`` at the unit-modulus symbol
    x0 = sqrt(mu20), exact when every symbol is +-x0 (constant modulus).
    """
    if n < 1 or not 0.0 < gamma < math.inf:
        raise ConfigError("need n >= 1 and a finite gamma > 0")
    scale = 2.0 * n * gamma
    if predicted_fim_rank(m) == 2:
        mat = _gram(hwi_jacobian(np.sqrt(m.mu20), p), scale)
    else:
        ds = directional_sensitivities(m, p.eps, p.phi)
        j_iq = np.array(
            [
                [ds.beta_eps, ds.j_epsphi],
                [ds.j_epsphi, (1.0 + p.eps) ** 2 * ds.beta_phi],
            ]
        )
        j_pa = m.mu6 * np.eye(2)
        c, s = math.cos(p.phi), math.sin(p.phi)
        j_x = 0.5 * m.mu4 * np.array([[c, s], [-(1.0 + p.eps) * s, (1.0 + p.eps) * c]])
        mat = scale * np.block([[j_iq, j_x], [j_x.T, j_pa]])
    return Fim(matrix=mat, operating_point=p, n_symbols=n, snr_linear=gamma, source="closed_form")


# ---------------------------------------------------------------------------
# Numerical routes


def _fd_jacobian(x: np.ndarray, p: HwiParams, step: float) -> np.ndarray:
    if not (1e-6 <= step <= 1e-4):
        raise ValueError("finite-difference step must lie in [1e-6, 1e-4]")
    v0 = p.as_vector()
    out = np.empty((4, x.size), dtype=complex)
    for i in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += step
        vm[i] -= step
        fp = apply_hwi(x, HwiParams.from_vector(vp))
        fm = apply_hwi(x, HwiParams.from_vector(vm))
        out[i] = (fp - fm) / (2.0 * step)
    return out


def _gram(jac: np.ndarray, weight: float) -> np.ndarray:
    return weight * np.real(np.conj(jac) @ jac.T)


def fim_numerical(
    c: Constellation,
    p: HwiParams,
    n: int,
    gamma: float,
    mode: str = "moment",
    step: float = 1e-5,
    symbols=None,
) -> Fim:
    """Evaluate the defining information sum for the full nonlinear model.

    mode="moment": exact expectation over the alphabet, scaled by N.
    mode="finite_difference": same expectation with central differences.
    Passing ``symbols`` evaluates the literal per-symbol sum instead
    (source tag "numerical_sum").
    """
    if n < 1 or not 0.0 < gamma < math.inf:
        raise ConfigError("need n >= 1 and a finite gamma > 0")
    if symbols is not None:
        x = np.asarray(symbols, dtype=complex).ravel()
        weight = 2.0 * gamma
        source = "numerical_sum"
    else:
        x = c.points
        weight = 2.0 * n * gamma / x.size
        source = "numerical_moment"
    if mode == "moment":
        jac = hwi_jacobian(x, p)
    elif mode == "finite_difference":
        jac = _fd_jacobian(x, p, step)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Fim(matrix=_gram(jac, weight), operating_point=p, n_symbols=n,
               snr_linear=gamma, source=source)


def _schur_complement(joint: np.ndarray, keep: int) -> np.ndarray:
    """J_aa - J_ab J_bb^{-1} J_ba for the leading ``keep`` block."""
    a = joint[:keep, :keep]
    b = joint[:keep, keep:]
    d = joint[keep:, keep:]
    cond = np.linalg.cond(d)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficientError("nuisance block is singular")
    return a - b @ np.linalg.solve(d, b.T)


def marginalize_channel(c: Constellation, p: HwiParams, n: int, gamma: float) -> Fim:
    """Information left for theta after treating (Re h, Im h) as nuisances.

    Convention: sigma^2 = 1 and h = sqrt(gamma), which reproduces the
    configured SNR; the Schur complement is invariant to this scaling.
    """
    x = c.points
    h = math.sqrt(gamma)
    jac_theta = h * hwi_jacobian(x, p)
    y = apply_hwi(x, p)
    jac = np.vstack([jac_theta, y[None, :], 1j * y[None, :]])
    joint = _gram(jac, 2.0 * n / x.size)  # sigma^2 = 1
    eff = _schur_complement(joint, 4)
    # clip the tiny negative fuzz the subtraction can leave on null directions
    eig, vec = np.linalg.eigh(0.5 * (eff + eff.T))
    eig = np.maximum(eig, 0.0)
    eff = (vec * eig) @ vec.T
    return Fim(matrix=eff, operating_point=p, n_symbols=n, snr_linear=gamma,
               source="numerical_moment")


# ---------------------------------------------------------------------------
# Bound reports and diagnostics


# an eigenvalue at most _RANK_TOL times the largest counts as zero, and a
# parameter whose null-space projection exceeds _NULL_PROJ_TOL is unbounded
_RANK_TOL = 1e-9
_NULL_PROJ_TOL = 1e-6


def crb_report(f: Fim) -> CrbReport:
    m = f.matrix
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite information matrix")
    eig, vec = np.linalg.eigh(m)
    lam_max = max(eig[-1], 0.0)
    keep = eig > _RANK_TOL * max(lam_max, 1e-300)
    rank = int(np.sum(keep))
    null_basis = vec[:, ~keep].T.copy()
    cond = math.inf if rank < 4 else float(eig[-1] / eig[0])

    inv_eig = np.where(keep, 1.0 / np.where(keep, eig, 1.0), 0.0)
    pinv = (vec * inv_eig) @ vec.T
    pinv_diag = np.diag(pinv).copy()

    if rank == 4:
        crb = np.diag(np.linalg.inv(m)).copy()
        identifiable = np.ones(4, dtype=bool)
    else:
        proj = np.sqrt(np.sum(null_basis**2, axis=0)) if null_basis.size else np.zeros(4)
        identifiable = proj <= _NULL_PROJ_TOL
        crb = np.where(identifiable, pinv_diag, math.inf)

    return CrbReport(
        crb=crb,
        rank=rank,
        null_basis=null_basis,
        condition_number=cond,
        identifiable=identifiable,
        pinv_diag=pinv_diag,
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
    dr = np.zeros(4)
    valid = np.zeros(4, dtype=bool)
    for i in range(4):
        if np.isfinite(rep.crb[i]) and rep.crb[i] > 0.0:
            dr[i] = abs(delta[i]) / math.sqrt(rep.crb[i])
            valid[i] = True
    return DiscriminationResult(d_squared=d2, d=d, pe_star=float(qfunc(d / 2.0)),
                                per_param_dr=dr, dr_valid=valid)


def pa_fifth_order_confounding(c: Constellation, p: HwiParams) -> float:
    """Column correlation between the cubic and a hypothetical fifth-order PA
    sensitivity. Near 1 for constant-modulus alphabets, lower for QAM."""
    x_iq = apply_hwi(c.points, replace(p, alpha3=0j))
    u = np.abs(x_iq) ** 2
    d3 = u * x_iq
    d5 = u**2 * x_iq
    num = abs(np.vdot(d3, d5))
    den = math.sqrt(float(np.vdot(d3, d3).real) * float(np.vdot(d5, d5).real))
    return float(num / den)


