import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import subspace_angles

from rfident.constellation import make_constellation, moments, predicted_fim_rank
from rfident.fim_crb import (
    Fim,
    RankDeficientError,
    UndefinedCouplingError,
    _fd_jacobian,
    _schur_complement,
    coupling_inflation,
    coupling_rho,
    crb_report,
    discrimination,
    fim_closed_form,
    fim_numerical,
    fim_samples,
    marginalize_channel,
    pa_fifth_order_confounding,
    pa_subblock_crb,
    qfunc,
    subblock_eigenvalue_ratio,
)
from rfident.signal_model import HwiParams, apply_hwi, bpsk_collapse, iridium_known_symbols

QPSK = make_constellation("qpsk")
BPSK = make_constellation("bpsk")
QAM16 = make_constellation("16qam")

N, GAMMA = 76, 100.0
MC_TRUTH = HwiParams(eps=0.03, phi=math.radians(2.0), alpha3=0.02 + 0.01j)


def test_closed_form_qpsk_small_impairment_blocks():
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    m = f.matrix / (2 * N * GAMMA)
    assert np.allclose(m[:2, :2], 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(m[2:, 2:], np.eye(2), atol=1e-14)
    assert np.allclose(m[:2, 2:], 0.5 * np.eye(2), atol=1e-14)


def test_closed_form_bpsk_gain_entry_vanishes_at_phi_zero():
    f = fim_closed_form(moments(BPSK.points), HwiParams(eps=0.05, phi=0.0), N, GAMMA)
    assert f.matrix[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_closed_form_qam16_pa_block():
    f = fim_closed_form(moments(QAM16.points), HwiParams(), N, GAMMA)
    assert f.matrix[2, 2] == pytest.approx(2 * N * GAMMA * 1.96, rel=1e-12)
    assert f.matrix[3, 3] == pytest.approx(2 * N * GAMMA * 1.96, rel=1e-12)


def test_numerical_equals_closed_at_zero_qpsk():
    f_c = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    f_n = fim_numerical(QPSK, HwiParams(), N, GAMMA)
    assert np.max(np.abs(f_c.matrix - f_n.matrix)) < 1e-6 * np.max(np.abs(f_n.matrix))


def _fd_fim(x, p, gamma, channel_known=True):
    """The sum ``fim_samples`` takes, with central differences in place of
    the analytic Jacobian."""
    jac = _fd_jacobian(x, p)
    if not channel_known:
        f = apply_hwi(x, p)
        jac = np.vstack([jac, f, 1j * f])
    gram = 2.0 * gamma * np.real(np.conj(jac) @ jac.T)
    return gram if channel_known else _schur_complement(gram, 4)


def test_moment_and_finite_difference_paths_cross_agree():
    for c in (QPSK, BPSK, QAM16):
        g = N * GAMMA / c.size
        f_m = fim_samples(c.points, MC_TRUTH, g)
        scale = np.max(np.abs(f_m.matrix))
        assert np.max(np.abs(f_m.matrix - _fd_fim(c.points, MC_TRUTH, g))) < 1e-7 * scale


def test_marginalized_matrix_matches_finite_difference():
    # the unknown-channel route against central differences; the scale is
    # the known-channel matrix, since BPSK's marginalized matrix is zero
    for c in (QPSK, BPSK, QAM16):
        f_marg = marginalize_channel(c, MC_TRUTH, N, GAMMA)
        scale = np.max(np.abs(fim_numerical(c, MC_TRUTH, N, GAMMA).matrix))
        fd = _fd_fim(c.points, MC_TRUTH, N * GAMMA / c.size, channel_known=False)
        assert np.max(np.abs(f_marg.matrix - fd)) < 1e-7 * scale


# distinct points of an integer grid, scaled to unit power
_ALPHABETS = st.lists(st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)),
                      min_size=2, max_size=8, unique=True).map(
    lambda pts: make_constellation("custom", points=pts))


@settings(max_examples=50, deadline=None)
@given(c=_ALPHABETS, k=st.integers(1, 20),
       gamma=st.sampled_from([1.0, 100.0, 1e4]),
       eps=st.floats(-0.1, 0.1), phi=st.floats(-0.1, 0.1),
       a_re=st.floats(-0.05, 0.05), a_im=st.floats(-0.05, 0.05))
def test_sample_route_over_tiled_alphabet_matches_fim_numerical(c, k, gamma, eps, phi, a_re, a_im):
    p = HwiParams(eps=eps, phi=phi, alpha3=complex(a_re, a_im))
    f_tiled = fim_samples(np.tile(c.points, k), p, gamma).matrix
    f_alpha = fim_numerical(c, p, k * c.size, gamma).matrix
    assert np.allclose(f_tiled, f_alpha, rtol=1e-12, atol=1e-12 * np.max(np.abs(f_alpha)))


def test_closed_vs_moment_small_theta_all_table_constellations():
    # Frobenius-relative agreement at |theta| <= 1e-3
    p = HwiParams(eps=1e-3, phi=1e-3, alpha3=5e-4 + 5e-4j)
    for kind in ("bpsk", "sdpsk", "qpsk", "dqpsk", "8psk", "16qam", "64qam"):
        c = make_constellation(kind)
        f_c = fim_closed_form(moments(c.points), p, N, GAMMA)
        f_n = fim_numerical(c, p, N, GAMMA)
        rel = np.linalg.norm(f_c.matrix - f_n.matrix) / np.linalg.norm(f_n.matrix)
        assert rel < 0.01, (kind, rel)


def test_closed_form_bpsk_is_exact_collapse():
    f_c = fim_closed_form(moments(BPSK.points), MC_TRUTH, N, GAMMA)
    f_n = fim_numerical(BPSK, MC_TRUTH, N, GAMMA)
    assert np.max(np.abs(f_c.matrix - f_n.matrix)) < 1e-10 * np.max(np.abs(f_n.matrix))


def test_closed_form_rank_follows_the_beta_rule():
    # beta = 2e-10: below the rank tolerance, so the rank-2 collapse applies
    # (the generic block formula is not PSD here)
    c = make_constellation("custom", points=[1, -1, 1e-5j])
    m = moments(c.points)
    assert 0.0 < m.beta < 1e-9
    rank = crb_report(fim_closed_form(m, MC_TRUTH, N, GAMMA)).rank
    assert rank == predicted_fim_rank(m) == crb_report(fim_numerical(c, MC_TRUTH, N, GAMMA)).rank
    assert rank == 2


# stacks of constant-modulus sample vectors: one to three rows of one length,
# from one PSK alphabet, each row turned and scaled at random. A row holds
# symbols of one line through the origin and a few (or all) symbols anywhere,
# so beta spans 0, small and large values. Multi-level real vectors are left
# out: the beta rule reads 4-PAM as rank 2, but its samples give rank 3,
# because a varying modulus separates the IQ gain from alpha3.
@st.composite
def _psk_rows(draw):
    pts = make_constellation(draw(st.sampled_from(["bpsk", "qpsk", "8psk"]))).points
    n = draw(st.integers(1, 76))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, pts.size // 2 - 1))
        free = min(n, draw(st.sampled_from([0, 1, 2, 3, n])))
        idx = (draw(st.lists(st.sampled_from([k, k + pts.size // 2]), min_size=n - free,
                             max_size=n - free))
               + draw(st.lists(st.integers(0, pts.size - 1), min_size=free, max_size=free)))
        turn = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        rows.append(draw(st.floats(0.5, 2.0)) * turn * pts[idx])
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(x=_psk_rows(), gamma=st.sampled_from([1.0, 100.0, 1e4]))
@example(x=iridium_known_symbols()[None], gamma=1.0)
@example(x=iridium_known_symbols()[None], gamma=100.0)
@example(x=iridium_known_symbols()[None], gamma=1e4)
def test_predicted_rank_is_the_rank_of_constant_modulus_samples(x, gamma):
    ranks = [crb_report(fim_samples(row, MC_TRUTH, gamma)).rank for row in x]
    assert [predicted_fim_rank(moments(row)) for row in x] == ranks
    # a stack's ranks are its rows' own ranks
    assert predicted_fim_rank(moments(x)).tolist() == ranks


def test_closed_form_beta_zero_is_the_sample_route_at_x0():
    line = make_constellation("custom", points=[cmath.exp(0.3j), -cmath.exp(0.3j)])
    for c in (BPSK, make_constellation("sdpsk"), line):
        m = moments(c.points)
        for g in (1.0, 100.0, 1e4):
            f_c = fim_closed_form(m, MC_TRUTH, N, g)
            assert np.array_equal(f_c.matrix, fim_samples(np.sqrt(m.mu20), MC_TRUTH, N * g).matrix)


def test_closed_form_rotated_line_is_exact_collapse():
    # any line through the origin: the collapse at x0 = sqrt(mu20)
    for theta in (0.3, math.pi / 2, 2.5):
        c = make_constellation("custom", points=[cmath.exp(1j * theta), -cmath.exp(1j * theta)])
        f_c = fim_closed_form(moments(c.points), MC_TRUTH, N, GAMMA)
        f_n = fim_numerical(c, MC_TRUTH, N, GAMMA)
        assert np.max(np.abs(f_c.matrix - f_n.matrix)) < 1e-10 * np.max(np.abs(f_n.matrix))


def test_scaling_law_in_n_and_gamma():
    # CRB(eps) * N * gamma constant across the grid, drift < 1e-9
    values = []
    for n in (32, 76, 256):
        for gamma in (10.0, 100.0, 1000.0):
            f = fim_closed_form(moments(QPSK.points), HwiParams(), n, gamma)
            values.append(crb_report(f).crb[0] * n * gamma)
    values = np.asarray(values)
    assert np.max(np.abs(values - values[0])) < 1e-9 * values[0]


def test_det_jiq_vanishes_when_beta_zero():
    # closed form over a phase-imbalance grid: the IQ sub-block determinant
    # is proportional to beta, so it vanishes for real alphabets
    for phid in np.linspace(0.0, 10.0, 11):
        p = HwiParams(eps=0.02, phi=math.radians(phid))
        f = fim_closed_form(moments(BPSK.points), p, N, GAMMA)
        sub = f.matrix[:2, :2] / (2 * N * GAMMA)
        assert abs(np.linalg.det(sub)) < 1e-10


def test_qfunc_properties():
    assert qfunc(0.0) == pytest.approx(0.5, abs=1e-12)
    assert qfunc(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    xs = np.linspace(-4, 4, 33)
    q = qfunc(xs)
    assert np.all(np.diff(q) < 0)
    assert np.max(np.abs(qfunc(xs) + qfunc(-xs) - 1.0)) < 1e-12


def test_crb_report_full_rank_qpsk():
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    rep = crb_report(f)
    assert rep.rank == 4
    assert np.all(rep.identifiable)
    # coupled inverse: CRB(eps) doubles relative to 1/J_ii
    assert rep.crb[0] == pytest.approx(2.0 / f.matrix[0, 0], rel=1e-12)
    assert np.all(rep.crb >= 1.0 / np.diag(f.matrix) - 1e-15)
    assert rep.condition_number < 20


def test_crb_report_bpsk_rank_and_null_space():
    f = fim_numerical(BPSK, MC_TRUTH, N, GAMMA)
    rep = crb_report(f)
    assert rep.rank == 2
    assert rep.null_basis.shape == (2, 4)
    expected = bpsk_collapse(MC_TRUTH).null_basis
    angles = subspace_angles(rep.null_basis.T, expected.T)
    assert np.degrees(np.max(angles)) < 2.0
    # eps/phi unbounded, both PA components project onto the null space too
    assert math.isinf(rep.crb[0]) and math.isinf(rep.crb[1])
    assert np.isfinite(rep.pinv).all()


def test_bpsk_subblock_eigenvalue_ratio():
    f = fim_numerical(BPSK, MC_TRUTH, N, GAMMA)
    assert subblock_eigenvalue_ratio(f, "phi", "im_alpha3") >= 1000.0


def test_coupling_rho_values():
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    assert coupling_rho(f, "eps", "re_alpha3") == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    f16 = fim_closed_form(moments(QAM16.points), HwiParams(), N, GAMMA)
    assert coupling_rho(f16, "eps", "re_alpha3") == pytest.approx(1.32 / math.sqrt(2 * 1.96), abs=1e-12)
    # exact numerical value at the operating point of the heat-map figure
    f_op = fim_numerical(QPSK, HwiParams(eps=0.05, phi=math.radians(3.0)), N, GAMMA)
    assert coupling_rho(f_op, "eps", "re_alpha3") == pytest.approx(0.725, abs=0.005)


def test_coupling_rho_zero_diagonal_errors():
    f = fim_closed_form(moments(BPSK.points), HwiParams(), N, GAMMA)
    with pytest.raises(UndefinedCouplingError):
        coupling_rho(f, "eps", "re_alpha3")


def test_coupling_inflation():
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    assert coupling_inflation(f, "eps") == pytest.approx(2.0, abs=1e-12)
    diag = Fim(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert coupling_inflation(diag, 2) == pytest.approx(1.0, abs=1e-15)
    # direct 4x4 inversion oracle for 16-QAM
    f16 = fim_closed_form(moments(QAM16.points), HwiParams(), N, GAMMA)
    oracle = np.linalg.inv(f16.matrix)[0, 0] * f16.matrix[0, 0]
    assert coupling_inflation(f16, "eps") == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(RankDeficientError):
        coupling_inflation(fim_numerical(BPSK, MC_TRUTH, N, GAMMA), "eps")


def test_schur_complement_orthogonal_case():
    # zero cross block: marginalization changes nothing
    a = np.diag([3.0, 2.0, 1.0, 4.0])
    joint = np.zeros((6, 6))
    joint[:4, :4] = a
    joint[4:, 4:] = np.diag([5.0, 6.0])
    assert np.allclose(_schur_complement(joint, 4), a, atol=1e-15)


def test_schur_complement_against_inverse_oracle():
    # Schur complement diagonal equals the joint-inverse bound
    rng = np.random.default_rng(0)
    b = rng.normal(size=(6, 6))
    joint = b @ b.T + 6 * np.eye(6)
    eff = _schur_complement(joint, 4)
    joint_inv = np.linalg.inv(joint)
    assert np.allclose(np.linalg.inv(eff), joint_inv[:4, :4], atol=1e-10)


def test_marginalize_channel_theta_zero_direction():
    # at theta=0 the IQ rows survive and the PA rows vanish (the cubic term
    # is proportional to the linear channel for constant-modulus alphabets)
    f_marg = marginalize_channel(QPSK, HwiParams(), N, GAMMA)
    f_known = fim_numerical(QPSK, HwiParams(), N, GAMMA)
    assert f_marg.matrix[0, 0] > 0.2 * f_known.matrix[0, 0]
    assert f_marg.matrix[1, 1] > 0.2 * f_known.matrix[1, 1]
    assert f_marg.matrix[2, 2] < 1e-8 * f_known.matrix[2, 2]
    assert f_marg.matrix[3, 3] < 1e-8 * f_known.matrix[3, 3]


def test_marginalize_iq_information_ratio_bounded():
    for eps in (0.0, 0.05, 0.1):
        for phid in (0.0, 5.0, 10.0):
            p = HwiParams(eps=eps, phi=math.radians(phid))
            f_known = fim_numerical(QPSK, p, N, GAMMA)
            f_marg = marginalize_channel(QPSK, p, N, GAMMA)
            for i in (0, 1):
                ratio = f_known.matrix[i, i] / f_marg.matrix[i, i]
                assert 1.0 <= ratio <= 2.6


def test_marginalized_bpsk_is_exactly_zero():
    # every BPSK sensitivity is a complex multiple of x, so an unknown channel
    # absorbs them all: the Schur complement's fuzz reads as zero, not as a
    # finite bound
    for g in (1.0, 100.0, 1e4):
        f = marginalize_channel(BPSK, MC_TRUTH, N, g)
        assert not np.any(f.matrix)
        rep = crb_report(f)
        assert rep.rank == 0 and np.all(np.isinf(rep.crb))
    ranks = {kind: crb_report(marginalize_channel(make_constellation(kind), MC_TRUTH, N, GAMMA)).rank
             for kind in ("qpsk", "8psk", "16qam")}
    assert ranks == {"qpsk": 2, "8psk": 4, "16qam": 4}


def test_discrimination_basics():
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    same = discrimination(MC_TRUTH, MC_TRUTH, f)
    assert same.d_squared == 0.0
    assert same.pe_star == pytest.approx(0.5)
    other = HwiParams(eps=0.031, phi=MC_TRUTH.phi, alpha3=MC_TRUTH.alpha3)
    res = discrimination(MC_TRUTH, other, f)
    delta = MC_TRUTH.as_vector() - other.as_vector()
    assert res.d_squared == pytest.approx(float(delta @ f.matrix @ delta), rel=1e-12)
    assert res.per_param_dr[0] == pytest.approx(abs(delta[0]) / math.sqrt(crb_report(f).crb[0]))


def test_discrimination_pe_at_d_two():
    # force d = 2 by scaling the difference along an eigenvector
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    eigval, eigvec = np.linalg.eigh(f.matrix)
    v = eigvec[:, -1] * (2.0 / math.sqrt(eigval[-1]))
    res = discrimination(HwiParams.from_vector(v), HwiParams(), f)
    assert res.d == pytest.approx(2.0, rel=1e-12)
    assert res.pe_star == pytest.approx(0.15865525393145707, abs=1e-12)


def test_discrimination_null_direction_bpsk():
    p = HwiParams(eps=0.01, phi=math.radians(0.5), alpha3=0.005 + 0.002j)
    f = fim_numerical(BPSK, p, N, GAMMA)
    col = bpsk_collapse(p)
    delta = 1e-3
    q = HwiParams.from_vector(p.as_vector() + delta * col.null_basis[0])
    res = discrimination(p, q, f)
    assert res.d_squared <= 1e-6 * delta**2 * 2 * N * GAMMA
    # unbounded parameters report DR = 0 with the validity flag cleared
    assert not res.dr_valid[0] and res.per_param_dr[0] == 0.0


def test_pe_star_map_simulation():
    # two-satellite MAP test on Gaussian estimates with covariance J^-1
    f = fim_closed_form(moments(QPSK.points), HwiParams(), N, GAMMA)
    cov = np.linalg.inv(f.matrix)
    rng = np.random.default_rng(12)
    a = HwiParams(eps=0.03, phi=0.02, alpha3=0.02 + 0.01j)
    b = HwiParams(eps=0.032, phi=0.022, alpha3=0.021 + 0.012j)
    res = discrimination(a, b, f)
    delta = a.as_vector() - b.as_vector()
    w = f.matrix @ delta
    thresh = w @ (a.as_vector() + b.as_vector()) / 2.0
    n_draws = 10_000
    chol = np.linalg.cholesky(cov)
    draws_a = a.as_vector() + (chol @ rng.standard_normal((4, n_draws))).T
    errors = np.mean(draws_a @ w < thresh)  # decide B although A transmitted
    se = math.sqrt(res.pe_star * (1 - res.pe_star) / n_draws)
    assert abs(errors - res.pe_star) < 3 * se


def test_pa_subblock_crb():
    f = fim_closed_form(moments(BPSK.points), MC_TRUTH, N, GAMMA)
    vals = pa_subblock_crb(f)
    oracle = np.diag(np.linalg.inv(f.matrix[2:, 2:]))
    assert np.allclose(vals, oracle, rtol=1e-12)


def test_fifth_order_confounding():
    p = HwiParams(eps=0.01, phi=0.01)
    assert pa_fifth_order_confounding(QPSK, p) > 0.999
    assert pa_fifth_order_confounding(make_constellation("8psk"), p) > 0.999
    assert pa_fifth_order_confounding(QAM16, p) < 0.999


def test_fim_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Fim(np.eye(4) * np.nan)
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        Fim(asym)
    with pytest.raises(ValueError):
        Fim(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_numerical_sum_mode_matches_moment_for_balanced_sequence():
    # a sequence cycling the alphabet reproduces the moment expectation
    symbols = np.tile(QPSK.points, 19)  # 76 symbols
    f_sum = fim_samples(symbols, MC_TRUTH, GAMMA)
    f_mom = fim_numerical(QPSK, MC_TRUTH, N, GAMMA)
    assert np.allclose(f_sum.matrix, f_mom.matrix, rtol=1e-12)
