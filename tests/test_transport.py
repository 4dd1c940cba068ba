from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mixedqgt import (
    BlochQubitModel,
    ChartLoop,
    CoarseGridError,
    DensityMatrix,
    DensityStack,
    NotClosedError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    OutOfDomainError,
    Purification,
    RankDeficientError,
    ValidationError,
    connection,
    fidelity,
    gauge_conjugation_check,
    gauge_curvature,
    holonomy,
    holonomy_report_json,
    horizontal_lift,
    lift_fidelity_residuals,
    purify,
    reference_lift,
    LiftedCurve,
)
from mixedqgt import states, transport
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
    points = np.array([purify(curve(t)).amplitude_matrix for t in times])
    wrong_base = np.array([rand_density(rng, 3).mat for _ in times])
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


def test_closure_and_default_start_come_from_the_checked_nodes():
    # the closure gap is measured on the node stack, so a loop that is both
    # open and outside the domain names its first node outside (not t = 1)
    model = BlochQubitModel(r=0.8)
    with pytest.raises(OutOfDomainError) as exc:
        holonomy(ChartLoop(model, [[1.0, 6.0], [1.5, 6.2], [2.0, 7.0]]), steps=64)
    assert str(exc.value) == "phi = 6.3 outside [0.0, 6.283185307179586]"
    with pytest.raises(NotClosedError) as exc:
        holonomy(ChartLoop(model, [[1.0, 1.0], [1.5, 2.0], [2.0, 1.5]]), steps=64)
    assert str(exc.value) == "curve endpoints differ by 3.826e-01 > 1.0e-10"
    # the default start is node 0's spectral purification, bit for bit
    loop = ChartLoop(model, [[1.0, 1.0], [1.5, 2.0], [2.0, 1.5], [1.0, 1.0]])
    default, explicit = (holonomy(loop, psi_start=start, steps=64)
                         for start in (None, purify(loop(0.0))))
    assert default.unitary.tobytes() == explicit.unitary.tobytes()
    assert default.mean_holonomy == explicit.mean_holonomy


def test_holonomy_step_bounds():
    rng = np.random.default_rng(6)
    curve = unitary_orbit_curve(rng, 2)
    with pytest.raises(ValidationError):
        holonomy(curve, steps=1)
    with pytest.raises(ValidationError, match=r"^steps = 65536 exceeds MAX_STEPS = 32768$"):
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
    # the holonomy unitary is the map the lift makes around the loop on the
    # same grid: its start amplitudes, moved by U, are its end amplitudes
    n = len(spectrum)
    rng = np.random.default_rng(13)
    h0, h1 = rand_herm(rng, n), rand_herm(rng, n)
    rho0 = np.diag(spectrum).astype(complex)

    def loop(t):
        u = expm(1j * (np.sin(2 * np.pi * t) * h0 + (np.cos(2 * np.pi * t) - 1.0) * h1))
        return DensityMatrix(u @ rho0 @ u.conj().T)

    steps = 128
    lift = horizontal_lift(reference_lift(loop, np.linspace(0.0, 1.0, steps + 1)))
    result = holonomy(loop, steps=steps, convergence_check=False)
    assert result.steps == steps
    assert np.max(np.abs(lift.amplitudes[0] @ result.unitary.T - lift.amplitudes[-1])) < 1e-14


@settings(max_examples=10)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_horizontal_lift_saturates_fidelity_at_random_n(n, seed):
    # AC08 over N = 2..6 at AC08's tolerance; 300 such curves stay below 1.6e-12
    curve = unitary_orbit_curve(np.random.default_rng(seed), n)
    lift = horizontal_lift(reference_lift(curve, np.linspace(0.0, 1.0, 2001)))
    assert lift_fidelity_residuals(lift).max() < 1e-8


@settings(max_examples=25)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_start_gauge_conjugates_holonomy_property(n, seed):
    rng = np.random.default_rng(seed)
    curve = unitary_orbit_curve(rng, n)
    report = gauge_conjugation_check(curve, rand_unitary(rng, n), steps=64,
                                     convergence_check=False)
    assert report.unitary_residual < 1e-10
    assert report.mean_residual < 1e-10


# --- the transport against independent references -----------------------------

def _polar_transport_mean(curve, steps, w0):
    """Mean holonomy <psi_0|psi_K> of the discrete Uhlmann transport over
    ``steps`` equal steps of [0, 1], written in numpy alone, one step at a
    time: each step moves the amplitudes W to sqrt(rho') polar(sqrt(rho') W),
    the purification of the next state whose overlap W^dag W' is positive."""
    w = w0
    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        p, v = np.linalg.eigh(curve(t).mat)
        root = (v * np.sqrt(p)) @ v.conj().T
        u, _, vh = np.linalg.svd(root @ w)
        w = root @ u @ vh
    return np.vdot(w0, w)


@settings(max_examples=20)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(32, 256))
def test_holonomy_mean_is_the_lift_overlap_property(n, seed, steps):
    curve = unitary_orbit_curve(np.random.default_rng(seed), n)
    start = purify(curve(0.0))
    result = holonomy(curve, psi_start=start, steps=steps, convergence_check=False)
    lift = horizontal_lift(reference_lift(curve, np.linspace(0.0, 1.0, result.steps + 1)), start)
    assert abs(result.mean_holonomy - np.vdot(lift.amplitudes[0], lift.amplitudes[-1])) < 1e-12


@settings(max_examples=10)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(48, 128))
def test_holonomy_mean_converges_to_the_polar_transport_property(n, seed, steps):
    # both integrate the same transport at second order: their gap is O(dt^2),
    # so it falls by about 4 when the step count doubles
    curve = unitary_orbit_curve(np.random.default_rng(seed), n)
    start = purify(curve(0.0))
    coarse = holonomy(curve, psi_start=start, steps=steps, convergence_check=False)
    fine = holonomy(curve, psi_start=start, steps=2 * coarse.steps, convergence_check=False)
    coarse_gap, fine_gap = (
        abs(r.mean_holonomy - _polar_transport_mean(curve, r.steps, start.amplitude_matrix))
        for r in (coarse, fine))
    assert fine_gap <= 0.3 * coarse_gap + 1e-12


@pytest.mark.parametrize("point", [(0.9, 0.4), (1.3, 2.0), (0.6, 5.0)])
@pytest.mark.parametrize("half", [1e-3, 5e-4])
def test_small_plaquette_holonomy_is_the_gauge_curvature(point, half):
    # around a small square of area a the holonomy is exp(-i T_{theta phi} a)
    # to first order in a; the spectrum of T is +-lambda, so the sense of
    # the loop does not matter
    model = BlochQubitModel(r=0.9)
    (theta, phi), h = point, half
    square = [[theta - h, phi - h], [theta + h, phi - h], [theta + h, phi + h],
              [theta - h, phi + h], [theta - h, phi - h]]
    u = holonomy(ChartLoop(model, square), steps=64, convergence_check=False).unitary
    spectrum = np.sort(-np.angle(np.linalg.eigvals(u))) / (2 * h) ** 2
    t_field = gauge_curvature(model.connection_field(), point).blocks[0, 1]
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(t_field))) < 1e-6


# --- stacked, chunked transport ----------------------------------------------

def _bloch_loop():
    vertices = [[0.8, 0.3], [0.8, 2.0], [1.9, 2.4], [1.6, 0.3], [0.8, 0.3]]
    return ChartLoop(BlochQubitModel(r=0.9), vertices)


def _transport_results(curve, steps):
    lift = horizontal_lift(reference_lift(curve, np.linspace(0.0, 1.0, steps + 1)))
    result = holonomy(curve, steps=steps)
    return (lift.amplitudes, lift.transport_unitaries, result.unitary,
            result.mean_holonomy, result.convergence_estimate)


@pytest.mark.parametrize("n", [2, 3])
# 60 steps: the grid spacings differ in their last bits; 61 (prime) leaves a
# short last block in the prefix scan and 64 (a square) none
@pytest.mark.parametrize("steps", [60, 61, 64])
def test_transport_does_not_depend_on_chunk_size(monkeypatch, n, steps):
    curve = _bloch_loop() if n == 2 else unitary_orbit_curve(np.random.default_rng(14), n)
    default = _transport_results(curve, steps)
    for nodes in (1, 7):
        monkeypatch.setattr(states, "CHUNK_ENTRIES", nodes * n * n)
        chunked = _transport_results(curve, steps)
        assert all(np.array_equal(a, b) for a, b in zip(chunked, default))


@settings(max_examples=40)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       k=st.sampled_from([1, 2, 3, 15, 16, 17]) | st.integers(1, 300))
def test_prefix_scan_matches_the_step_order_product_property(n, seed, k):
    rng = np.random.default_rng(seed)
    stack = np.array([rand_unitary(rng, n) for _ in range(k + 1)])
    expected = np.array(list(accumulate(stack, np.matmul)))  # in step order
    scanned = transport._prefix_products(stack.copy())
    assert np.array_equal(scanned[0], stack[0])
    assert np.max(np.abs(scanned - expected)) <= 64 * k * np.finfo(float).eps


def test_long_qubit_lift_keeps_its_transport_unitary():
    # AC09's loop at 16,384 steps: the closed-form 2 x 2 eigenvectors are
    # normalised without the downward bias of LAPACK's, so the prefix products
    # stay within 1e-13 of unitary (LAPACK's reached 1.4e-12) and every lifted
    # node passes the Purification norm check
    loop = unitary_orbit_curve(np.random.default_rng(31415), 2)
    lift = horizontal_lift(reference_lift(loop, np.linspace(0.0, 1.0, 16385)))
    u = lift.transport_unitaries
    assert len(u) == 16385
    assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2)).max() <= 1e-13


def test_half_grid_estimate_matches_a_fresh_half_run():
    loop = _bloch_loop()
    for steps in (256, 255):
        calls = []

        class CountingLoop(ChartLoop):
            def stack(self, times):
                calls.append(len(times))
                return super().stack(times)

        result = holonomy(CountingLoop(loop.model, loop.vertices), steps=steps)
        half = holonomy(loop, steps=steps // 2, convergence_check=False)
        assert result.convergence_estimate == pytest.approx(
            abs(half.mean_holonomy - result.mean_holonomy), abs=1e-12)
        # an even grid reuses its every-second nodes; an odd one evaluates afresh
        assert calls == ([257] if steps == 256 else [256, 128])


def test_curve_without_stack_matches_the_chart_loop():
    loop = _bloch_loop()
    stacked = holonomy(loop, steps=128)
    plain = holonomy(lambda t: loop(t), steps=128)
    assert np.max(np.abs(stacked.unitary - plain.unitary)) < 1e-12
    assert abs(stacked.mean_holonomy - plain.mean_holonomy) < 1e-12
    assert abs(stacked.convergence_estimate - plain.convergence_estimate) < 1e-12


class _NodeCurve:
    """Base curve through given matrices, one per node of a uniform grid;
    ``stacked`` adds the ``stack`` method."""

    def __init__(self, mats, stacked):
        self.mats = np.asarray(mats, dtype=complex)
        if stacked:
            self.stack = lambda times: self.mats[self._index(times)]

    def _index(self, t):
        return np.rint(np.asarray(t) * (len(self.mats) - 1)).astype(int)

    def __call__(self, t):
        return self.mats[self._index(t)]

    def times(self):
        return np.linspace(0.0, 1.0, len(self.mats))


def _rotated(angles, spectrum=(0.7, 0.3)):
    sy = np.array([[0, -1j], [1j, 0]])
    out = []
    for a in angles:
        u = expm(1j * a * sy)
        out.append(u @ np.diag(spectrum) @ u.conj().T)
    return np.array(out)


@pytest.mark.parametrize("stacked", [False, True])
def test_base_node_checks_name_the_first_failing_node(stacked):
    mats = _rotated(np.linspace(0.0, 0.2, 8))
    mats[2] = np.diag([1.0 + 5e-12, -5e-12])   # fails only the PSD check
    mats[5, 0, 1] += 1e-3                        # fails the Hermiticity check
    curve = _NodeCurve(mats, stacked)
    with pytest.raises(NotPSDError, match=r"^not PSD: min eigenvalue -5\.000e-12 < -1\.0e-12$"):
        reference_lift(curve, curve.times())


def test_reference_gauge_checks_name_the_first_failing_node():
    curve = _NodeCurve(_rotated(np.linspace(0.0, 0.2, 9)), stacked=True)
    grid = curve.times()

    def stretched(t):  # unitary within 1e-10 but not norm-preserving from node 3 on
        k = int(curve._index(t))
        return np.eye(2) * (1.0 + (k >= 3) * k * 1e-12)

    with pytest.raises(ValidationError, match=r"^norm\^2 differs from 1 by 6\.0\d\de-12 > 1\.0e-12$"):
        reference_lift(curve, grid, gauge=stretched)

    def skewed(t):  # not unitary from node 4 on
        k = int(curve._index(t))
        return np.eye(2) * (1.0 + (k >= 4) * k * 1e-6)

    with pytest.raises(NotUnitaryError, match=r"max\|U\^dag U - I\| = 8\.0\d\de-06 > 1\.0e-10$"):
        reference_lift(curve, grid, gauge=skewed)


def test_projection_check_names_the_first_failing_node():
    rng = np.random.default_rng(15)
    curve = unitary_orbit_curve(rng, 2)
    times = np.linspace(0.0, 1.0, 7)
    ref = reference_lift(curve, times)
    wrong = ref.base.copy()
    wrong[[3, 5]] = rand_density(rng, 2).mat
    with pytest.raises(ValidationError, match=r"^node 3: lift does not project to base point"):
        LiftedCurve(times, ref.amplitudes, wrong)


def test_overlap_floor_names_the_first_coarse_step():
    curve = _NodeCurve(_rotated([0.0, 0.01, 0.02, 1.0, 1.01, 2.0]), stacked=True)
    with pytest.raises(CoarseGridError, match=r"^reference overlap \|<psi_2\|psi_3>\| = "):
        horizontal_lift(reference_lift(curve, curve.times()))


def test_environment_rank_floor_names_the_first_failing_step():
    # full rank at the start, below the floor from node 3 on; the smallest
    # eigenvalue grows by node, so the message tells the steps apart
    spectra = [(0.95, 0.05)] * 3 + [(1.0 - e, e) for e in (2e-11, 3e-11, 4e-11, 5e-11)]
    mats = np.array([np.diag(s) for s in spectra], dtype=complex)
    curve = _NodeCurve(mats, stacked=True)
    ref = reference_lift(curve, curve.times())
    w0, w1 = ref.amplitudes[3], ref.amplitudes[4]
    mid = Purification.from_matrix((w0 + w1) / np.linalg.norm(w0 + w1))
    with pytest.raises(RankDeficientError) as expected:
        connection(mid, w1 - w0)
    with pytest.raises(RankDeficientError) as raised:
        horizontal_lift(ref)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("sigma min eigenvalue 2.4")


@pytest.mark.parametrize("low, text", [(3e-11, "3.000e-11"), (-5e-13, "-5.000e-13")])
def test_start_alignment_below_the_rank_floor_is_not_unique(low, text):
    # node 0's smallest eigenvalue, as its density check found it; the loop
    # turns its eigenframe by pi, so it closes
    mats = _rotated(np.linspace(0.0, np.pi, 9), spectrum=(1.0 - low, low))
    mats[0] = mats[-1] = np.diag([1.0 - low, low])
    curve = _NodeCurve(mats, stacked=True)
    message = (f"base point min eigenvalue {text} <= rank floor 1.0e-10:"
               " start alignment is not unique")
    with pytest.raises(RankDeficientError) as lifted:
        horizontal_lift(reference_lift(curve, curve.times()))
    assert str(lifted.value) == message
    with pytest.raises(RankDeficientError) as closed:
        holonomy(curve, steps=8)
    assert str(closed.value) == message


def test_start_alignment_must_be_unitary():
    # a start state within the projection tolerance whose alignment with the
    # reference is 4e-6 away from unitary: the small eigenvalue amplifies it
    curve = _NodeCurve(_rotated(np.linspace(0.0, 0.2, 5), spectrum=(0.999, 0.001)),
                       stacked=True)
    ref = reference_lift(curve, curve.times())
    w = ref.amplitudes[0] @ np.diag([1.0, 1.0 + 2e-6])
    start = Purification.from_matrix(w / np.linalg.norm(w))
    with pytest.raises(NotUnitaryError, match=r"max\|U\^dag U - I\| = \d\.\d{3}e-06 > 1\.0e-08$"):
        horizontal_lift(ref, psi_start=start)


def test_step_checks_run_node_by_node_after_a_failing_chunk():
    # two failing stacked checks; the rerun reports the first failing entry,
    # not the first failing check
    mats = np.array([np.diag([0.6, 0.4])] * 5, dtype=complex)
    mats[1] = np.diag([1.0 + 5e-12, -5e-12])
    mats[3, 0, 1] += 1e-3
    with pytest.raises(NotHermitianError):
        DensityStack(mats)
    with pytest.raises(NotPSDError, match="-5.000e-12"):
        transport._by_node(DensityStack, mats)


def test_nan_reference_gauge_is_refused_at_the_first_node():
    curve = _NodeCurve(_rotated(np.linspace(0.0, 0.2, 5)), stacked=True)
    with pytest.raises(NotUnitaryError, match=r"= nan > 1\.0e-10$"):
        reference_lift(curve, curve.times(), gauge=lambda t: np.full((2, 2), np.nan))



def _continuity_phases_reference(amps):
    """The running product of unit overlaps as it was first written: one
    accumulate when no overlap is at or below 1e-12, else a row loop that
    restarts at 1 where one is."""
    ov = np.concatenate([np.ones((1, amps.shape[-1])), transport._column_overlaps(amps)])
    mag = np.abs(ov)
    unit = ov / np.where(mag > 0, mag, 1.0)
    if (mag > 1e-12).all():
        run = np.multiply.accumulate(unit, axis=0)
    else:
        run = unit
        for k in range(1, len(run)):
            run[k] = np.where(mag[k] > 1e-12, run[k - 1] * unit[k], 1.0)
    return run / np.abs(run)


def test_continuity_phases_match_the_reference():
    rng = np.random.default_rng(17)
    for _ in range(150):
        k, n = rng.integers(2, 20), rng.integers(1, 5)
        amps = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        assert np.array_equal(transport._continuity_phases(amps),
                              _continuity_phases_reference(amps))
        # columns set to zero or shrunk below the floor make restarts; the
        # loop and the division at a restart each round once per factor
        for _ in range(rng.integers(1, 4)):
            amps[rng.integers(k), :, rng.integers(n)] *= rng.choice([0.0, 1e-13])
        got = transport._continuity_phases(amps)
        assert np.max(np.abs(got - _continuity_phases_reference(amps))) <= 8 * k * np.finfo(float).eps
