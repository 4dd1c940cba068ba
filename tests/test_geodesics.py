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
from mixedqgt import states
from mixedqgt.bundle import TangentVector, connection
from mixedqgt.geodesics import (DEFAULT_ANGLE_MARGIN, bloch_vector, geodesic_points, ode_residual,
                                ode_residuals)
from mixedqgt.states import check_density_stack, root_fidelity
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
def full_rank_pairs(draw, max_dim=4):
    """Two density matrices (a a^dag + 0.1 I)/Tr of one drawn dimension
    2..max_dim."""
    n = draw(st.integers(2, max_dim))
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
    # keep clear of the margin below which solve_geodesic refuses the pair:
    # there arccos(F) and the chord angle may fall on different sides of it
    assume(np.arccos(fid) >= 10 * DEFAULT_ANGLE_MARGIN)
    sol = solve_geodesic(a, b)
    assert np.cos(sol.theta) == pytest.approx(fid, abs=2e-15)
    for t, rho in ((0.0, a), (sol.theta, b)):
        assert np.max(np.abs(geodesic_point(sol, t).mat - rho.mat)) < 1e-10


def test_geodesic_between_states_a_micro_radian_apart():
    # W_b - F W_0 kept an overlap of 1.2e-9 with W_0 here, above the 1e-9
    # orthogonality check; projecting W_0 out with <W_0|W_b> removes it
    rng = np.random.default_rng(337)
    a, c = (rand_density(rng, 3).mat for _ in range(2))
    eps = rng.uniform(1e-6, 8e-6)
    b = DensityMatrix((a + eps * c) / (1 + eps))
    sol = solve_geodesic(DensityMatrix(a), b)
    assert 1e-6 < sol.theta < 1.8e-6
    assert sol.orthogonality_residual < 1e-10
    # the chord angle 2 arcsin(|W_b - W_0| / 2) keeps full relative precision;
    # arccos(F) would err by ~1e-16/theta and miss the far endpoint by ~5e-10
    for t, rho in ((0.0, a), (sol.theta, b.mat)):
        assert np.max(np.abs(geodesic_point(sol, t).mat - rho)) < 1e-12


@st.composite
def geodesics_and_times(draw):
    """A geodesic between a drawn full-rank pair of dimension 2..6 and a
    sorted time grid over [0, theta] holding both ends."""
    a, b = draw(full_rank_pairs(max_dim=6))
    assume(bures_angle(a, b) >= 10 * DEFAULT_ANGLE_MARGIN)
    sol = solve_geodesic(a, b)
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    return a, b, sol, np.array([0.0, *sorted(fractions), 1.0]) * sol.theta


@settings(max_examples=30)
@given(geodesics_and_times())
def test_stacked_samples_are_the_one_time_functions(case):
    a, b, sol, times = case
    w, rho = geodesic_points(sol, times)
    fid_a = root_fidelity(w, sol.psi0.amplitude_matrix)
    fid_b = root_fidelity(w, b.root)
    for k, t in enumerate(times):
        point = geodesic_point(sol, t)
        assert np.array_equal(rho[k], point.mat)
        assert np.array_equal(w[k], geodesic_purification(sol, t).amplitude_matrix)
        assert abs(fid_a[k] - fidelity(point, a)) <= 2e-15
        assert abs(fid_b[k] - fidelity(point, b)) <= 2e-15
    assert ode_residuals(sol, times, 1e-3).tolist() == [ode_residual(sol, t, 1e-3) for t in times]


@settings(max_examples=30)
@given(geodesics_and_times(), st.lists(st.floats(0.0, np.pi), max_size=8))
def test_geodesic_states_pass_the_density_checks(case, extra):
    # geodesic_points leaves rho = W W^dag unchecked; times past theta, up to
    # the full period the Bloch-ellipse fit samples, are drawn too
    _, _, sol, times = case
    w, rho = geodesic_points(sol, np.concatenate([times, extra]))
    assert np.array_equal(rho, w @ w.conj().swapaxes(-1, -2))
    check_density_stack(rho)


@settings(max_examples=20)
@given(geodesics_and_times(), st.integers(1, 5))
def test_geodesic_checks_do_not_depend_on_chunk_size(case, per_chunk):
    _, _, sol, times = case
    n = sol.psi0.sys_dim

    def results():
        return (path_length(geodesic_samples(sol, times), times),
                verify_geodesic_ode(sol, times),
                bloch_ellipse_check(sol, samples=13).__dict__ if n == 2 else None)

    default = results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "CHUNK_ENTRIES", per_chunk * n * n)
        chunked = results()
    assert chunked[:2] == default[:2]
    if n == 2:
        assert all(np.array_equal(chunked[2][k], v) for k, v in default[2].items())


def test_path_length_rank_floor_names_the_first_failing_sample():
    # full rank for two samples, below the floor from sample 2 on; the smallest
    # eigenvalue grows by sample, so the message tells the samples apart
    spectra = [(0.95, 0.05)] * 2 + [(1.0 - e, e) for e in (2e-11, 3e-11, 4e-11)]
    psis = [purify(DensityMatrix(np.diag(p))) for p in spectra]
    tangent = np.array([[0.1, 0.2j], [0.3, -0.1]])
    samples = [(psi, TangentVector(psi, tangent)) for psi in psis]
    times = np.arange(len(samples), dtype=float)
    with pytest.raises(RankDeficientError) as expected:
        connection(psis[2], tangent)
    for per_chunk in (1, 3, 4096):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(states, "CHUNK_ENTRIES", per_chunk * 4)
            with pytest.raises(RankDeficientError) as raised:
                path_length(samples, times)
        assert str(raised.value) == str(expected.value)
    assert str(expected.value).startswith("sigma min eigenvalue 2.0")
