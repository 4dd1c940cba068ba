import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mixedqgt import (
    AngleOutOfRangeError,
    DensityMatrix,
    GeodesicSolution,
    NotQubitError,
    RankDeficientError,
    ValidationError,
    bloch_ellipse_check,
    bures_angle,
    fidelity,
    geodesic_point,
    geodesic_purification,
    geodesic_samples,
    geodesic_tangent,
    path_length,
    purify,
    solve_geodesic,
    verify_geodesic_ode,
)
from mixedqgt.geodesics import DEFAULT_ANGLE_MARGIN, bloch_vector, ode_residual
from conftest import rand_bloch_density, rand_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_solution_reproduces_endpoints_and_angle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rand_bloch_density(rng), rand_bloch_density(rng)
        sol = solve_geodesic(a, b)
        assert np.isclose(sol.theta, bures_angle(a, b), atol=1e-12)
        assert np.max(np.abs(geodesic_point(sol, 0.0).mat - a.mat)) < 1e-10
        assert np.max(np.abs(geodesic_point(sol, sol.theta).mat - b.mat)) < 1e-10
        assert sol.orthogonality_residual < 1e-12
        assert sol.horizontality_residual < 1e-10


def test_qutrit_geodesic_works_too():
    rng = np.random.default_rng(1)
    a, b = rand_density(rng, 3), rand_density(rng, 3)
    sol = solve_geodesic(a, b)
    assert np.max(np.abs(geodesic_point(sol, sol.theta).mat - b.mat)) < 1e-10


def test_path_length_equals_opening_angle():
    rng = np.random.default_rng(2)
    a, b = rand_bloch_density(rng), rand_bloch_density(rng)
    sol = solve_geodesic(a, b)
    times = np.linspace(0.0, sol.theta, 41)
    assert np.isclose(path_length(geodesic_samples(sol, times), times),
                      sol.theta, atol=1e-12)


def test_geodesic_satisfies_second_order_equation():
    rng = np.random.default_rng(3)
    a, b = rand_density(rng, 3), rand_density(rng, 3)
    sol = solve_geodesic(a, b)
    report = verify_geodesic_ode(sol, np.linspace(0.0, sol.theta, 17))
    assert report.max_accel_residual < 1e-6
    assert report.max_speed_error < 1e-10
    assert report.max_connection_entry < 1e-10


def test_tangent_matches_difference_quotient():
    rng = np.random.default_rng(4)
    a, b = rand_bloch_density(rng), rand_bloch_density(rng)
    sol = solve_geodesic(a, b)
    t0, h = 0.2, 1e-6
    fd = (geodesic_purification(sol, t0 + h).amplitudes
          - geodesic_purification(sol, t0 - h).amplitudes) / (2 * h)
    assert np.allclose(geodesic_tangent(sol, t0).components, fd, atol=1e-8)


def test_identical_states_are_rejected():
    rho = DensityMatrix(np.diag([0.6, 0.4]))
    with pytest.raises(AngleOutOfRangeError):
        solve_geodesic(rho, rho)


def test_rank_deficient_needs_explicit_consent():
    pure = DensityMatrix(np.diag([1.0, 0.0]))
    mixed = DensityMatrix(np.diag([0.7, 0.3]))
    with pytest.raises(RankDeficientError):
        solve_geodesic(pure, mixed)
    sol = solve_geodesic(pure, mixed, require_full_rank=False)
    assert np.max(np.abs(geodesic_point(sol, sol.theta).mat - mixed.mat)) < 1e-8


def test_solution_constructor_rejects_non_orthogonal_pair():
    psi = purify(DensityMatrix(np.diag([0.6, 0.4])))
    with pytest.raises(ValidationError):
        GeodesicSolution(psi, psi, 0.5)


def _ellipse_family(r):
    def rho(t):
        return DensityMatrix(0.5 * (np.eye(2) + np.sin(2 * t) * SX
                                    + r * np.cos(2 * t) * SZ))
    return rho


def test_bloch_trace_is_an_ellipse_with_axes_one_and_r():
    for r in (0.3, 0.6):
        fam = _ellipse_family(r)
        sol = solve_geodesic(fam(0.0), fam(0.55))
        rep = bloch_ellipse_check(sol)
        assert np.isclose(rep.semi_major, 1.0, atol=1e-9)
        assert np.isclose(rep.semi_minor, r, atol=1e-9)
        assert rep.max_deviation < 1e-9
        assert rep.out_of_plane < 1e-9
        assert rep.fit_residual < 1e-12


def test_pure_state_trace_is_a_great_circle():
    fam = _ellipse_family(1.0)
    sol = solve_geodesic(fam(0.0), fam(0.55), require_full_rank=False)
    rep = bloch_ellipse_check(sol)
    assert np.isclose(rep.semi_major, 1.0, atol=1e-9)
    assert np.isclose(rep.semi_minor, 1.0, atol=1e-9)
    assert rep.max_deviation < 1e-9


def test_diameter_trace_degenerates_cleanly():
    def fam(t):
        return DensityMatrix(0.5 * (np.eye(2) + 0.9 * np.cos(2 * t) * SZ))

    sol = solve_geodesic(fam(0.0), fam(0.5))
    rep = bloch_ellipse_check(sol)
    assert rep.semi_minor < 1e-10
    assert rep.max_deviation < 1e-9


def test_ellipse_check_refuses_non_qubits():
    rng = np.random.default_rng(5)
    sol = solve_geodesic(rand_density(rng, 3), rand_density(rng, 3))
    with pytest.raises(NotQubitError):
        bloch_ellipse_check(sol)


def test_ode_residual_is_the_accel_bound_of_verify_geodesic_ode():
    rng = np.random.default_rng(6)
    sol = solve_geodesic(rand_density(rng, 3), rand_density(rng, 3))
    times = np.linspace(0.0, sol.theta, 9)
    report = verify_geodesic_ode(sol, times, fd_step=2e-3)
    assert report.max_accel_residual == max(ode_residual(sol, t, 2e-3) for t in times)


def test_bloch_vector_reads_the_pauli_expectations():
    rng = np.random.default_rng(7)
    rho = rand_bloch_density(rng).mat
    paulis = (SX, np.array([[0, -1j], [1j, 0]]), SZ)
    expected = [np.trace(rho @ p).real for p in paulis]
    assert np.allclose(bloch_vector(rho), expected, atol=1e-15)
    stack = np.array([rho, rho.conj()])
    assert np.array_equal(bloch_vector(stack)[0], bloch_vector(rho))


@st.composite
def full_rank_pairs(draw):
    """Two density matrices (a a^dag + 0.1 I)/Tr of one drawn dimension 2..4."""
    n = draw(st.integers(2, 4))
    parts = draw(hnp.arrays(np.float64, (2, 2, n, n), elements=st.floats(-1.0, 1.0)))
    a = parts[:, 0] + 1j * parts[:, 1]
    m = a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(n)
    return [DensityMatrix(x / np.trace(x).real) for x in m]


@settings(max_examples=40)
@given(full_rank_pairs())
def test_geodesic_reproduces_random_endpoints(pair):
    a, b = pair
    angle = bures_angle(a, b)
    if angle < DEFAULT_ANGLE_MARGIN:
        with pytest.raises(AngleOutOfRangeError):
            solve_geodesic(a, b)
        return
    sol = solve_geodesic(a, b)
    assert sol.theta == pytest.approx(angle, abs=1e-12)
    for t, rho in ((0.0, a), (sol.theta, b)):
        assert np.max(np.abs(geodesic_point(sol, t).mat - rho.mat)) < 1e-10


@st.composite
def close_pairs(draw):
    """A drawn full-rank pair (a, c) turned into (a, a + eps c), normalized,
    with eps from 1e-3 to 1e-1: Bures angles mostly between 1e-4 and 1e-1,
    where the quarter state's norm used to fail its check."""
    a, c = draw(full_rank_pairs())
    m = a.mat + 10.0 ** draw(st.floats(-3.0, -1.0)) * c.mat
    return a, DensityMatrix(m / np.trace(m).real)


@settings(max_examples=40)
@given(close_pairs())
def test_geodesic_reproduces_close_endpoints(pair):
    a, b = pair
    fid = fidelity(a, b)
    # arccos near 0 amplifies the fidelity's rounding by 1/sin(theta): below
    # 1e-4 the angle itself is known to worse than 1e-12
    assume(np.arccos(fid) >= 1e-4)
    sol = solve_geodesic(a, b)
    assert np.cos(sol.theta) == pytest.approx(fid, abs=2e-15)
    for t, rho in ((0.0, a), (sol.theta, b)):
        assert np.max(np.abs(geodesic_point(sol, t).mat - rho.mat)) < 1e-10
