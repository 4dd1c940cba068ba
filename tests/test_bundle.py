import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mixedqgt import (
    DensityMatrix,
    DensityStack,
    DimensionMismatchError,
    EnvOperator,
    NotHermitianError,
    NotUnitaryError,
    RankDeficientError,
    Purification,
    TangentVector,
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
from mixedqgt.bundle import _check_unitary
from conftest import rand_density, rand_herm, rand_unitary, unitary_orbit_curve


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


def test_gauge_transform_preserves_base_and_norm():
    rng = np.random.default_rng(9)
    dens_curve = unitary_orbit_curve(rng, 3, floor=0.3)

    def pcurve(t):
        return purify(dens_curve(t))

    ts = [0.1, 0.5, 0.9]
    samples = [(pcurve(t), finite_difference_tangent(pcurve, t, h=1e-5)) for t in ts]
    g = rand_herm(rng, 3)
    us = [expm(1j * t * g) for t in ts]
    dus = [1j * g @ u for u in us]
    moved = gauge_transform_curve(samples, us, dus)
    for ((psi, dpsi), (psi_g, dpsi_g)) in zip(samples, moved):
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
    (psi_g, dpsi_g), = gauge_transform_curve([(psi, tv)], [np.eye(3)], [1j * g])
    a_after = connection(psi_g, dpsi_g.components)
    assert np.allclose(a_after.mat, a_before.mat + g, atol=1e-8)


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
