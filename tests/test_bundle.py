from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mixedqgt import (
    DegenerateSpectrumError,
    DensityMatrix,
    DensityStack,
    DimensionMismatchError,
    EnvOperator,
    NotHermitianError,
    NotUnitaryError,
    RankDeficientError,
    Purification,
    SchmidtDecomposition,
    SchmidtDerivative,
    TangentVector,
    ValidationError,
    connection,
    connection_schmidt,
    covariant_derivative,
    env_action,
    env_expectation,
    finite_difference_tangent,
    gauge_transform_curve,
    horizontal_project,
    lyapunov_superop,
    partial_trace_env,
    purify,
    real_inner,
    schmidt_curve_derivative,
    vertical_project,
)
from mixedqgt import states
from mixedqgt.bundle import _check_unitary
from conftest import counted, rand_density, rand_herm, rand_unitary, unitary_orbit_curve


def test_env_operator_requires_hermitian():
    EnvOperator(np.diag([1.0, 2.0]))
    with pytest.raises(NotHermitianError):
        EnvOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_env_operator_symmetrized_records_asymmetry():
    m = np.array([[1.0, 0.1 + 1e-6j], [0.1, 2.0]])
    op = EnvOperator.from_symmetrized(m)
    assert np.allclose(op.mat, op.mat.conj().T)
    assert op.asymmetry == pytest.approx(1e-6, rel=1e-6)


def test_tangent_vector_checks_length():
    psi = purify(DensityMatrix(np.diag([0.6, 0.4])))
    with pytest.raises(DimensionMismatchError):
        TangentVector(psi, np.zeros(9))


def test_real_inner_is_symmetric_real():
    rng = np.random.default_rng(0)
    psi = purify(rand_density(rng, 3))
    x = TangentVector(psi, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    y = TangentVector(psi, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    assert real_inner(x, y) == pytest.approx(real_inner(y, x))
    assert real_inner(x, y) == pytest.approx(np.vdot(x.components, y.components).real)


def test_lyapunov_solves_anticommutator_equation():
    rng = np.random.default_rng(1)
    sigma = rand_density(rng, 4)
    o = rand_herm(rng, 4)
    y = lyapunov_superop(sigma, o)
    assert np.allclose(sigma.mat @ y + y @ sigma.mat, o, atol=1e-10)


def test_lyapunov_refuses_rank_deficient_sigma():
    from mixedqgt import RankDeficientError

    sigma = DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(RankDeficientError):
        lyapunov_superop(sigma, np.eye(2))


def test_env_action_matches_explicit_kron():
    rng = np.random.default_rng(2)
    psi = purify(rand_density(rng, 3))
    b = rand_herm(rng, 3)
    expected = np.kron(np.eye(3), b) @ psi.amplitudes
    assert np.allclose(env_action(psi, b), expected, atol=1e-13)
    assert np.isclose(env_expectation(psi, b),
                      np.vdot(psi.amplitudes, expected), atol=1e-13)


def test_connection_recovers_vertical_generator():
    # a purely vertical curve psi(t) = (I (x) e^{iAt}) psi0 has tangent
    # i(I (x) A) psi, and the connection must return exactly A
    rng = np.random.default_rng(3)
    for n in (2, 3):
        psi = purify(rand_density(rng, n, floor=0.3))
        a = rand_herm(rng, n)
        dpsi = 1j * env_action(psi, a)
        got = connection(psi, dpsi)
        assert np.allclose(got.mat, a, atol=1e-10)


def test_connection_vanishes_on_horizontal_tangent():
    rng = np.random.default_rng(4)
    psi = purify(rand_density(rng, 3, floor=0.3))
    x = TangentVector(psi, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    horiz = horizontal_project(psi, x)
    a = connection(psi, horiz.components)
    assert np.max(np.abs(a.mat)) < 1e-10


def test_projections_split_orthogonally_and_recompose():
    rng = np.random.default_rng(5)
    psi = purify(rand_density(rng, 3, floor=0.2))
    x = TangentVector(psi, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    v = vertical_project(psi, x)
    h = horizontal_project(psi, x)
    assert np.allclose(v.components + h.components, x.components, atol=1e-12)
    assert abs(real_inner(v, h)) < 1e-10
    # idempotence
    v2 = vertical_project(psi, v)
    assert np.allclose(v2.components, v.components, atol=1e-10)


def test_covariant_derivative_is_horizontal_part():
    rng = np.random.default_rng(6)
    psi = purify(rand_density(rng, 3, floor=0.2))
    x = TangentVector(psi, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    d = covariant_derivative(psi, x)
    assert np.allclose(d.components, horizontal_project(psi, x).components, atol=0)
    assert np.max(np.abs(connection(psi, d.components).mat)) < 1e-10


def test_finite_difference_tangent_matches_analytic_derivative():
    rng = np.random.default_rng(7)
    rho = rand_density(rng, 3, floor=0.3)
    h = rand_herm(rng, 3)
    psi0 = purify(rho)

    def curve(t):
        return Purification.from_matrix(psi0.amplitude_matrix @ expm(1j * t * h).T)

    tv = finite_difference_tangent(curve, 0.4, h=1e-5)
    exact = 1j * env_action(curve(0.4), h)
    assert np.allclose(tv.components, exact, atol=1e-9)


def test_schmidt_connection_matches_global_form():
    rng = np.random.default_rng(8)
    dens_curve = unitary_orbit_curve(rng, 3, floor=0.3)

    def pcurve(t):
        return purify(dens_curve(t))

    t0 = 0.37
    tv = finite_difference_tangent(pcurve, t0, h=1e-5)
    a_global = connection(tv.base, tv.components)
    sd, dsd = schmidt_curve_derivative(pcurve, t0, h=1e-5)
    a_schmidt = connection_schmidt(sd, dsd)
    assert np.max(np.abs(a_global.mat - a_schmidt.mat)) < 1e-6


def test_schmidt_connection_refuses_a_nan_coefficient():
    eye = np.eye(2, dtype=complex)
    sd = SchmidtDecomposition([np.nan, 0.6], eye, eye)
    dsd = SchmidtDerivative(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DegenerateSpectrumError) as exc:
        connection_schmidt(sd, dsd)
    assert str(exc.value).startswith("spectrum gap nan < 1.0e-08: ")


def test_gauge_transform_preserves_base_and_norm():
    rng = np.random.default_rng(9)
    dens_curve = unitary_orbit_curve(rng, 3, floor=0.3)

    def pcurve(t):
        return purify(dens_curve(t))

    ts = [0.1, 0.5, 0.9]
    w = np.array([pcurve(t).amplitude_matrix for t in ts])
    dw = np.array([finite_difference_tangent(pcurve, t, h=1e-5).matrix for t in ts])
    g = rand_herm(rng, 3)
    us = np.array([expm(1j * t * g) for t in ts])
    dus = 1j * g @ us
    w_g, _ = gauge_transform_curve((w, dw), us, dus)
    for psi, psi_g in zip(map(Purification.from_matrix, w), map(Purification.from_matrix, w_g)):
        assert np.allclose(partial_trace_env(psi_g).mat,
                           partial_trace_env(psi).mat, atol=1e-12)
        assert np.isclose(np.linalg.norm(psi_g.amplitudes), 1.0, atol=1e-12)


def test_gauge_transform_shifts_connection_by_generator():
    # constant-slope gauge u(t) = e^{igt}: at t = 0 the vertical part
    # gains exactly the generator g, so A' = A + g there
    rng = np.random.default_rng(10)
    dens_curve = unitary_orbit_curve(rng, 3, floor=0.3)

    def pcurve(t):
        return purify(dens_curve(t))

    t0 = 0.0
    psi = pcurve(t0)
    tv = finite_difference_tangent(pcurve, t0, h=1e-5)
    a_before = connection(psi, tv.components)
    g = rand_herm(rng, 3)
    w_g, dw_g = gauge_transform_curve((psi.amplitude_matrix[None], tv.matrix[None]),
                                      np.eye(3)[None], (1j * g)[None])
    a_after = connection(w_g, dw_g)
    assert np.allclose(a_after.mat[0], a_before.mat + g, atol=1e-8)


def test_gauge_transform_checks_every_unitary_then_every_node():
    w = np.array([purify(DensityMatrix(np.diag([0.6, 0.4]))).amplitude_matrix] * 3)
    us = np.array([np.eye(2)] * 3, dtype=complex)
    us[1] *= 1 + 1e-6
    us[2] *= 1 + 1e-3
    w[0] *= 2.0  # a bad node before the first bad unitary: the unitaries go first
    with pytest.raises(NotUnitaryError, match=r"= 2\.000e-06 > 1\.0e-10$"):
        gauge_transform_curve((w, np.zeros_like(w)), us, np.zeros_like(us))
    with pytest.raises(ValidationError, match=r"^norm\^2 differs from 1 by 3\.000e\+00"):
        gauge_transform_curve((w, np.zeros_like(w)), np.eye(2), np.zeros((2, 2)))


def test_connection_broadcasts_over_a_stack():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        psis = [purify(rand_density(rng, n)) for _ in range(5)]
        tangents = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in psis]
        stacked = connection(np.array([p.amplitude_matrix for p in psis]), np.array(tangents))
        assert stacked.mat.shape == (5, n, n)
        for k, (psi, d) in enumerate(zip(psis, tangents)):
            assert np.max(np.abs(stacked.mat[k] - connection(psi, d).mat)) < 1e-13


def test_stacked_operator_checks_name_the_first_failing_matrix():
    ops = np.array([np.diag([1.0, 2.0])] * 4, dtype=complex)
    ops[1, 0, 1] = 3e-10
    ops[3, 0, 1] = 5e-9
    with pytest.raises(NotHermitianError, match=r"= 3\.000e-10 > 1\.0e-10$"):
        EnvOperator(ops)
    us = np.array([np.eye(2)] * 4, dtype=complex)
    us[2] *= 1.0 + 1e-9
    us[3] *= 1.0 + 1e-6
    with pytest.raises(NotUnitaryError, match=r"= 2\.000e-09 > 1\.0e-10$"):
        _check_unitary(us)
    with pytest.raises(RankDeficientError, match=r"^sigma min eigenvalue 0\.000e\+00 <= rank floor"):
        lyapunov_superop(DensityStack(np.array([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])])),
                         np.zeros((2, 2, 2)))


def test_env_operator_refuses_nan_entries():
    msg = r"^environment operator not Hermitian: max\|A - A\^dag\| = nan > 1\.0e-10$"
    with pytest.raises(NotHermitianError, match=msg):
        EnvOperator(np.full((2, 2), np.nan))
    ops = np.array([np.diag([1.0, 2.0])] * 3, dtype=complex)
    ops[2, 1, 0] = complex(0.0, np.nan)
    with pytest.raises(NotHermitianError, match=msg):
        EnvOperator(ops)
    with pytest.raises(NotHermitianError, match="= nan > inf$"):
        EnvOperator.from_symmetrized(np.array([[1.0, np.nan], [0.0, 2.0]]))


def test_env_operator_with_infinite_tolerance_takes_any_finite_matrix():
    m = np.array([[1.0, 5.0], [-3.0, 2.0j]])
    assert EnvOperator(m, tol=np.inf).asymmetry == pytest.approx(8.0)
    op = EnvOperator.from_symmetrized(m)
    assert np.array_equal(op.mat, op.mat.conj().T)
    assert op.asymmetry == pytest.approx(8.0)


@settings(max_examples=40)
@given(n=st.integers(2, 6), count=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_connection_of_stacked_tangents_matches_one_call_per_tangent(n, count, seed):
    rng = np.random.default_rng(seed)
    psi = purify(rand_density(rng, n))
    tangents = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    stacked = connection(psi, tangents).mat
    assert stacked.shape == (count, n, n)
    for d, a in zip(tangents, stacked):
        assert np.max(np.abs(a - connection(psi, TangentVector(psi, d.ravel())).mat)) < 1e-13


@settings(max_examples=60)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), t0=st.floats(0.05, 0.95))
def test_connection_forms_agree_on_unitary_orbits(n, seed, t0):
    # AC03 as a property, at its tolerance: the global and Schmidt forms of the
    # connection along u(t) rho0 u(t)^dag, on both sides of the 2 x 2 seam
    curve = unitary_orbit_curve(np.random.default_rng(seed), n)

    def psi_curve(t):
        return purify(curve(t))

    tangent = finite_difference_tangent(psi_curve, t0, h=1e-5)
    a_global = connection(tangent.base, tangent.components)
    sd, dsd = schmidt_curve_derivative(psi_curve, t0, h=1e-5)
    a_schmidt = connection_schmidt(sd, dsd)
    assert np.max(np.abs(a_global.mat - a_schmidt.mat)) <= 1e-5


@settings(max_examples=40)
@given(n=st.integers(2, 6), count=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_connection_is_the_lyapunov_solve_of_the_checked_rho_e(n, count, seed):
    # rho_E is decomposed without the density checks; the operators are those
    # of the checked DensityStack's solve, on both sides of the 2 x 2 seam
    rng = np.random.default_rng(seed)
    w = np.array([purify(rand_density(rng, n)).amplitude_matrix @ rand_unitary(rng, n)
                  for _ in range(count)])
    d = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    rho_env = DensityStack((w.conj().swapaxes(-1, -2) @ w).swapaxes(-1, -2))
    m = w.conj().swapaxes(-1, -2) @ d
    expected = -1j * lyapunov_superop(rho_env, (m - m.conj().swapaxes(-1, -2)).swapaxes(-1, -2))
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(connection(w, d).mat - expected)) <= 1e-12 * scale
    one = connection(Purification.from_matrix(w[0]), d).mat  # one rho_E, stacked tangents
    assert np.max(np.abs(one[0] - expected[0])) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 4])
def test_connection_decomposes_rho_e_once_unchecked(monkeypatch, n):
    rng = np.random.default_rng(5)
    w = np.array([purify(rand_density(rng, n)).amplitude_matrix for _ in range(3)])
    d = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    calls = defaultdict(int)
    for name in ("_eigh", "_density_residuals", "_order_spectrum"):
        monkeypatch.setattr(states, name, counted(calls, name, getattr(states, name)))
    for psi in (w, Purification.from_matrix(w[0])):
        calls.clear()
        connection(psi, d)
        assert calls == {"_eigh": 1}
