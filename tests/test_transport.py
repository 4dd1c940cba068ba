import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mixedqgt import (
    CoarseGridError,
    DensityMatrix,
    NotClosedError,
    ValidationError,
    fidelity,
    gauge_conjugation_check,
    holonomy,
    holonomy_report_json,
    horizontal_lift,
    lift_fidelity_residuals,
    purify,
    reference_lift,
    LiftedCurve,
)
from conftest import rand_density, rand_herm, rand_unitary, unitary_orbit_curve


def test_reference_lift_projects_back():
    rng = np.random.default_rng(0)
    curve = unitary_orbit_curve(rng, 3)
    times = np.linspace(0.0, 1.0, 101)
    lift = reference_lift(curve, times)
    assert lift.projection_residual < 1e-12
    assert len(lift) == 101


def test_lifted_curve_rejects_mismatched_base():
    rng = np.random.default_rng(1)
    curve = unitary_orbit_curve(rng, 3)
    times = np.linspace(0.0, 1.0, 5)
    points = [purify(curve(t)) for t in times]
    wrong_base = [rand_density(rng, 3) for _ in times]
    with pytest.raises(ValidationError):
        LiftedCurve(times, points, wrong_base)


def test_horizontal_lift_preserves_pairwise_fidelity():
    rng = np.random.default_rng(2)
    curve = unitary_orbit_curve(rng, 3)
    times = np.linspace(0.0, 1.0, 501)
    lift = horizontal_lift(reference_lift(curve, times))
    res = lift_fidelity_residuals(lift)
    assert np.max(res) < 1e-9
    # lift still projects to the base curve
    assert lift.projection_residual < 1e-10


def test_horizontal_lift_rejects_foreign_start():
    rng = np.random.default_rng(3)
    curve = unitary_orbit_curve(rng, 3)
    times = np.linspace(0.0, 1.0, 201)
    ref = reference_lift(curve, times)
    stranger = purify(rand_density(rng, 3))
    with pytest.raises(ValidationError):
        horizontal_lift(ref, psi_start=stranger)


def test_too_coarse_sampling_is_refused():
    # three steps across a 6-radian Bloch rotation: per-step purification
    # overlap ~ cos(1) ~ 0.54, far under the 0.9 floor
    sy = np.array([[0, -1j], [1j, 0]])
    rho0 = np.diag([0.7, 0.3]).astype(complex)

    def curve(t):
        u = expm(1j * 3.0 * t * sy)
        return DensityMatrix(u @ rho0 @ u.conj().T)

    times = np.linspace(0.0, 1.0, 4)
    with pytest.raises(CoarseGridError):
        horizontal_lift(reference_lift(curve, times))


def test_holonomy_requires_closed_curve():
    rng = np.random.default_rng(5)
    rho0 = rand_density(rng, 2, floor=0.3)
    h = rand_herm(rng, 2)

    def open_curve(t):
        u = expm(1j * t * h)
        return DensityMatrix(u @ rho0.mat @ u.conj().T)

    with pytest.raises(NotClosedError):
        holonomy(open_curve, steps=64)


def test_holonomy_step_bounds():
    rng = np.random.default_rng(6)
    curve = unitary_orbit_curve(rng, 2)
    with pytest.raises(ValidationError):
        holonomy(curve, steps=1)
    with pytest.raises(ValidationError):
        holonomy(curve, steps=2 ** 16)


def test_holonomy_unitary_is_unitary_and_mean_bounded():
    rng = np.random.default_rng(7)
    curve = unitary_orbit_curve(rng, 3)
    result = holonomy(curve, steps=512)
    u = result.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
    assert abs(result.mean_holonomy) <= 1.0 + 1e-12
    assert np.isclose(result.uhlmann_phase,
                      np.angle(result.mean_holonomy), atol=1e-12)
    assert result.steps == 512
    assert np.isfinite(result.convergence_estimate)


def test_retraced_loop_has_trivial_holonomy():
    rng = np.random.default_rng(8)
    curve = unitary_orbit_curve(rng, 3)

    def there_and_back(t):
        s = 2 * t if t <= 0.5 else 2 * (1 - t)
        return curve(0.4 * s)

    result = holonomy(there_and_back, steps=512, convergence_check=False)
    assert np.max(np.abs(result.unitary - np.eye(3))) < 1e-10
    assert abs(result.mean_holonomy - 1.0) < 1e-10


def test_constant_gauge_conjugates_holonomy():
    rng = np.random.default_rng(9)
    curve = unitary_orbit_curve(rng, 3)
    u0 = rand_unitary(rng, 3)
    report = gauge_conjugation_check(curve, u0, steps=256, convergence_check=False)
    assert report.unitary_residual < 1e-12
    assert report.mean_residual < 1e-12


def test_reference_gauge_does_not_change_holonomy():
    rng = np.random.default_rng(10)
    curve = unitary_orbit_curve(rng, 3)
    plain = holonomy(curve, steps=256, convergence_check=False)
    g = rand_unitary(rng, 3)
    moved = holonomy(curve, steps=256, convergence_check=False,
                     reference_gauge=lambda t: g)
    assert np.max(np.abs(plain.unitary - moved.unitary)) < 1e-12
    assert abs(plain.mean_holonomy - moved.mean_holonomy) < 1e-12


def test_holonomy_halving_refines_quadratically():
    rng = np.random.default_rng(11)
    curve = unitary_orbit_curve(rng, 2)
    ref = holonomy(curve, steps=8192, convergence_check=False)
    errs = [np.max(np.abs(holonomy(curve, steps=n, convergence_check=False).unitary
                          - ref.unitary))
            for n in (128, 256, 512)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_holonomy_report_schema():
    rng = np.random.default_rng(12)
    curve = unitary_orbit_curve(rng, 2)
    result = holonomy(curve, steps=128)
    obj = holonomy_report_json(result)
    assert set(obj) == {"unitary_re", "unitary_im", "mean_holonomy",
                        "uhlmann_phase", "steps", "convergence_estimate"}
    u = np.array(obj["unitary_re"]) + 1j * np.array(obj["unitary_im"])
    assert np.allclose(u, result.unitary)
    assert obj["mean_holonomy"] == [result.mean_holonomy.real,
                                    result.mean_holonomy.imag]


@pytest.mark.parametrize("spectrum", [(0.6, 0.4), (0.5, 0.3, 0.2)])
def test_lift_and_holonomy_share_one_product(spectrum):
    # the loop starts at a diagonal state whose start alignment u0 comes out
    # exactly the identity, so both paths multiply the same factors in the
    # same order and must agree bit for bit
    n = len(spectrum)
    rng = np.random.default_rng(13)
    h0, h1 = rand_herm(rng, n), rand_herm(rng, n)
    rho0 = np.diag(spectrum).astype(complex)

    def loop(t):
        u = expm(1j * (np.sin(2 * np.pi * t) * h0 + (np.cos(2 * np.pi * t) - 1.0) * h1))
        return DensityMatrix(u @ rho0 @ u.conj().T)

    steps = 128
    lift = horizontal_lift(reference_lift(loop, np.linspace(0.0, 1.0, steps + 1)))
    u0 = lift.transport_unitaries[0]
    assert np.array_equal(u0, np.eye(n))
    result = holonomy(loop, steps=steps, convergence_check=False)
    assert result.steps == steps
    assert np.array_equal(lift.transport_unitaries[-1] @ u0.conj().T, result.unitary)


@settings(max_examples=25)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_start_gauge_conjugates_holonomy_property(n, seed):
    rng = np.random.default_rng(seed)
    curve = unitary_orbit_curve(rng, n)
    report = gauge_conjugation_check(curve, rand_unitary(rng, n), steps=64,
                                     convergence_check=False)
    assert report.unitary_residual < 1e-10
    assert report.mean_residual < 1e-10
