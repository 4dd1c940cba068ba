import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedqgt import (
    BlochQubitModel,
    CurvatureTensor,
    DensityMatrix,
    InconsistentStencilError,
    ModelFamily,
    Purification,
    QGTensor,
    RankDeficientError,
    TangentVector,
    ThermalModel,
    ValidationError,
    bures_metric,
    derivatives,
    export_grid_model,
    fidelity,
    gauge_curvature,
    load_grid_model,
    mean_curvature_part,
    msqgt_covariant_route,
    msqgt_eigenroute,
    pure_qgt,
    qgt_to_json,
    rotated_field_qubit,
    thermal_limit_sweep,
)
from mixedqgt import env_expectation, qgt
from mixedqgt.qgt import check_tensor_stack, msqgt_field, spectral_qgt_stack
from conftest import counted, rand_herm, rand_unitary, traceless_herm, rand_density


SZ_OP = np.diag([1.0, -1.0]).astype(complex)


def linear_family(rng, n, scale=0.15):
    rho0 = rand_density(rng, n, floor=0.3)
    deltas = [traceless_herm(rng, n, scale), traceless_herm(rng, n, scale)]
    return rho0, deltas


def test_qg_tensor_validates_structure():
    good = np.array([[0.25, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    t = QGTensor(good)
    assert t.sym_residual < 1e-12
    assert t.antisym_residual < 1e-12
    assert t.min_metric_eigenvalue > 0
    bad = np.array([[0.25, 0.1], [0.3, 0.25]])  # Re part not symmetric
    with pytest.raises(ValidationError):
        QGTensor(bad)


def test_qg_tensor_rejects_indefinite_metric():
    with pytest.raises(ValidationError):
        QGTensor(np.array([[-0.5, 0.0], [0.0, 0.2]]))


def test_metric_and_curvature_split():
    entries = np.array([[0.25, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    t = QGTensor(entries)
    g = bures_metric(t)
    im = mean_curvature_part(t)
    assert np.allclose(g, entries.real)
    assert np.allclose(im, entries.imag)
    assert np.allclose(g, g.T)
    assert np.allclose(im, -im.T)


def test_bloch_tensor_matches_closed_form():
    # rho = (I + r n(theta, phi) . sigma)/2 has
    #   Q_tt = r^2/4,  Q_pp = r^2 sin^2(theta)/4,  Im Q_tp = r^3 sin(theta)/4
    r = 0.9
    model = BlochQubitModel(r=r)
    for theta, phi in [(0.6, 0.3), (1.3, 2.0), (2.2, 5.1)]:
        q = msqgt_eigenroute(model.evaluate([theta, phi]),
                             derivatives(model, [theta, phi], "analytic"))
        e = q.entries
        assert np.isclose(e[0, 0].real, r * r / 4, atol=1e-12)
        assert np.isclose(e[1, 1].real, r * r * np.sin(theta) ** 2 / 4, atol=1e-12)
        assert np.isclose(e[0, 1].real, 0.0, atol=1e-12)
        assert np.isclose(e[0, 1].imag, r ** 3 * np.sin(theta) / 4, atol=1e-12)


def test_routes_agree_on_random_family():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        rho0, deltas = linear_family(rng, n)
        q1 = msqgt_eigenroute(rho0, deltas)
        psi, tangents = _pencil_lift_tangents(rho0, deltas)
        q2 = msqgt_covariant_route(psi, tangents)
        assert np.max(np.abs(q1.entries - q2.entries)) < 1e-10


def _pencil_lift_tangents(rho0, deltas, h=1e-6):
    """Finite-difference purification tangents of a linear pencil."""
    from mixedqgt import TangentVector, purify

    psi = purify(rho0)
    tangents = []
    for d in deltas:
        plus = purify(DensityMatrix(rho0.mat + h * d))
        minus = purify(DensityMatrix(rho0.mat - h * d))
        tangents.append(TangentVector(psi, (plus.amplitudes - minus.amplitudes) / (2 * h)))
    return psi, tangents


def test_eigenroute_metric_reproduces_fidelity_expansion():
    rng = np.random.default_rng(1)
    rho0, deltas = linear_family(rng, 3)
    dx = np.array([8e-4, -5e-4])
    mid = DensityMatrix(rho0.mat + 0.5 * (dx[0] * deltas[0] + dx[1] * deltas[1]))
    g = bures_metric(msqgt_eigenroute(mid, deltas))
    quad = float(dx @ g @ dx)
    moved = DensityMatrix(rho0.mat + dx[0] * deltas[0] + dx[1] * deltas[1])
    assert np.isclose(2 - 2 * fidelity(rho0, moved), quad, rtol=1e-5)


class _LinearFamily(ModelFamily):
    """rho0 + x delta1 + y delta2 on [-1/4, 1/4]^2, with its analytic derivatives."""

    analytic = True

    def __init__(self, rho0, deltas):
        self.rho0, self.deltas = rho0, deltas
        super().__init__("linear", ("x", "y"), ((-0.25, 0.25),) * 2)

    def matrix_at(self, point):
        return self.rho0 + point[0] * self.deltas[0] + point[1] * self.deltas[1]

    def analytic_derivative_matrices(self, point):
        return list(self.deltas)


@settings(max_examples=40)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_field_metric_reproduces_fidelity_expansion_at_random_n(n, seed):
    # AC01 over N = 2..6: 2 - 2F(rho(0), rho(eps u)) = eps u . g(eps u / 2) . eps u
    # up to O(eps^4), with g = Re Q from msqgt_field under both schemes.  rho0's
    # spectrum lies in [0.2, 1] before normalising, and each delta's spectral
    # norm is rho0's lowest eigenvalue, so every state of the domain is full rank.
    # AC01's relative bound is 1e-4; 2,000 such families stay below 2.1e-7
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 1.0, n)
    p /= p.sum()
    u = rand_unitary(rng, n)
    deltas = np.array([traceless_herm(rng, n) for _ in range(2)])
    deltas *= p.min() / np.linalg.norm(deltas, ord=2, axis=(1, 2))[:, None, None]
    model = _LinearFamily((u * p) @ u.conj().T, deltas)
    eps = 1e-3
    steps = eps * np.array([[np.cos(a), np.sin(a)] for a in rng.uniform(0, 2 * np.pi, 3)])
    rho0 = model.evaluate([0.0, 0.0])
    targets = np.array([2.0 - 2.0 * fidelity(rho0, model.evaluate(dx)) for dx in steps])
    for scheme in ("analytic", "central"):
        q = msqgt_field(model, steps / 2, scheme, h=1e-5)[0]
        quads = np.einsum("ki,kij,kj->k", steps, q.real, steps)
        assert np.all(np.abs(quads - targets) <= 1e-5 * targets), scheme


def test_pure_qgt_matches_bloch_sphere_closed_form():
    # Fubini-Study values for the spin-coherent state family
    def xi(theta, phi):
        return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])

    theta, phi, h = 1.1, 0.7, 1e-6
    dxi_t = (xi(theta + h, phi) - xi(theta - h, phi)) / (2 * h)
    dxi_p = (xi(theta, phi + h) - xi(theta, phi - h)) / (2 * h)
    q = pure_qgt(xi(theta, phi), [dxi_t, dxi_p])
    assert np.isclose(q.entries[0, 0].real, 0.25, atol=1e-8)
    assert np.isclose(q.entries[1, 1].real, np.sin(theta) ** 2 / 4, atol=1e-8)
    assert np.isclose(q.entries[0, 1].imag, np.sin(theta) / 4, atol=1e-8)


def test_nan_state_fails_the_norm_check():
    with pytest.raises(ValidationError) as exc:
        pure_qgt(np.array([np.nan, 0.0]), [np.zeros(2), np.ones(2)])
    assert str(exc.value) == "state norm nan deviates from 1 by more than 1.0e-10"


def test_nan_curvature_blocks_are_refused():
    with pytest.raises(ValidationError) as exc:
        CurvatureTensor(np.full((2, 2, 2, 2), np.nan, dtype=complex))
    assert str(exc.value) == "curvature not antisymmetric: residual nan"


def test_nan_connection_stencil_is_refused():
    def field(point):
        sign = np.nan if point[0] > 0.5 else 1.0
        return [sign * SZ_OP, np.zeros((2, 2))]

    with pytest.raises(InconsistentStencilError) as exc:
        gauge_curvature(field, [0.5, 0.5])
    assert str(exc.value).startswith("connection component 0 jumps by nan across the +")


def test_pure_qgt_rejects_unnormalized_state():
    with pytest.raises(ValidationError):
        pure_qgt(np.array([1.0, 1.0]), [np.zeros(2), np.zeros(2)])


def test_curvature_tensor_validates_antisymmetry():
    h = rand_herm(np.random.default_rng(2), 2)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 1] = h
    blocks[1, 0] = -h
    t = CurvatureTensor(blocks)
    assert t.antisym_residual < 1e-14
    blocks[1, 0] = h  # now symmetric, must be rejected
    with pytest.raises(ValidationError):
        CurvatureTensor(blocks)


def test_curvature_expectation_matches_imaginary_part():
    model = BlochQubitModel(r=0.9)
    field = model.connection_field()
    for point in ([0.9, 0.4], [1.8, 3.3]):
        t = gauge_curvature(field, point, chart=model.param_labels)
        psi, _ = model.lift_tangents(point)
        sigma = t.expectation(psi)
        q = msqgt_eigenroute(model.evaluate(point), derivatives(model, point, "analytic"))
        assert np.max(np.abs(sigma.real - q.entries.imag)) < 1e-6
        assert np.max(np.abs(sigma.imag)) < 1e-10


def test_gauge_curvature_detects_branch_jump():
    model = BlochQubitModel(r=0.9)
    field = model.connection_field()
    centre = np.array([1.0, 2.0])

    def jumpy(point):
        ops = field(point)
        if point[0] > centre[0]:
            return [type(op)(-op.mat) if hasattr(op, "mat") else -op for op in ops]
        return ops

    with pytest.raises(InconsistentStencilError):
        gauge_curvature(jumpy, centre)


def test_thermal_sweep_monotone_and_truncating():
    model = rotated_field_qubit(1.0, gap=0.5)
    point = [1.2, 0.8]
    res = thermal_limit_sweep(model, point, [1.0, 5.0, 10.0])
    devs = res.deviations
    assert res.truncated_at is None
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # a beta deep in the frozen regime knocks the state below the rank floor
    res2 = thermal_limit_sweep(model, point, [1.0, 2000.0])
    assert res2.truncated_at == 2000.0
    assert len(res2.entries) == 1


@settings(max_examples=40)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_thermal_sweep_reaches_pure_tensor_at_random_n(n, seed):
    # AC06 over N = 2..6 on H0 + x H1 + y H2.  At the drawn point H has ground
    # energy 0 and its excited energies in [0.5, 0.55], so at beta = 40 every
    # Gibbs weight stays above RANK_TOL; H1 = i[G1, H] and H2 = i[G2, H] turn
    # its eigenframe and leave its spectrum stationary there, as AC06's
    # rotated field does.  (A moving spectrum adds the populations' Fisher
    # term, which grows like beta^2 e^{-beta gap} and makes the deviations
    # rise before they fall.)  2,000 such families stay below 2.1e-5 at beta = 40.
    rng = np.random.default_rng(seed)
    gens = [rand_herm(rng, n) for _ in range(2)]
    point = rng.uniform(-0.5, 0.5, 2)
    e, v = np.linalg.eigh(rand_herm(rng, n))
    span = e[-1] - e[1] if n > 2 else 1.0
    h_point = (v * np.concatenate([[0.0], 0.5 + 0.05 * (e[1:] - e[1]) / span])) @ v.conj().T
    h1, h2 = (1j * (g @ h_point - h_point @ g) for g in gens)
    h0 = h_point - point[0] * h1 - point[1] * h2
    model = ThermalModel(lambda x: h0 + x[0] * h1 + x[1] * h2, 1.0, ("x", "y"),
                         ((-1.0, 1.0),) * 2, d_hamiltonian=lambda x: [h1, h2])
    res = thermal_limit_sweep(model, point, [1.0, 5.0, 10.0, 20.0, 40.0])
    devs = res.deviations
    assert res.truncated_at is None and len(devs) == 5
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-4


def test_thermal_sweep_pure_tensor_is_ground_state_tensor():
    model = rotated_field_qubit(1.0, gap=0.5)
    point = [1.2, 0.8]
    res = thermal_limit_sweep(model, point, [1.0])
    xi = model.ground_state(point)
    h = 1e-5
    dxi = [
        (model.ground_state([point[0] + h, point[1]]) - model.ground_state([point[0] - h, point[1]])) / (2 * h),
        (model.ground_state([point[0], point[1] + h]) - model.ground_state([point[0], point[1] - h])) / (2 * h),
    ]
    direct = pure_qgt(xi, dxi)
    assert np.allclose(res.pure_tensor.entries, direct.entries, atol=1e-12)


def test_qgt_json_round_trip():
    t = QGTensor(np.array([[0.25, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]]),
                 chart=["a", "b"])
    obj = qgt_to_json(t)
    assert obj["chart"] == ["a", "b"]
    assert np.allclose(np.array(obj["re"]) + 1j * np.array(obj["im"]), t.entries)


def test_eigenroute_is_the_stacked_kernel_on_one_state():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        rho, deltas = linear_family(rng, n)
        q = msqgt_eigenroute(rho, deltas)
        stacked = spectral_qgt_stack(rho.eigenvalues[None], rho.eigenvectors[None],
                                     np.array(deltas)[None])
        assert np.array_equal(q.entries, stacked[0])
        sym, antisym, min_eig = check_tensor_stack(stacked)
        assert (sym[0], antisym[0], min_eig[0]) == (
            q.sym_residual, q.antisym_residual, q.min_metric_eigenvalue)


def _three_level_grid_model(tmp_path):
    rng = np.random.default_rng(8)
    h0, h1, h2 = (rand_herm(rng, 3) for _ in range(3))
    family = ThermalModel(lambda x: h0 + np.cos(x[0]) * h1 + np.sin(x[1]) * h2, 1.0,
                          ("x", "y"), ((0.0, 1.0), (0.0, 1.0)), check=False)
    grid = np.linspace(0.0, 1.0, 4)
    path = tmp_path / "grid3.json"
    path.write_text(json.dumps(export_grid_model(family, [grid, grid])))
    return load_grid_model(str(path))


@pytest.mark.parametrize("family, scheme", [
    ("bloch", "analytic"), ("bloch", "central"),
    ("thermal-qubit", "analytic"), ("thermal-qubit", "central"),
    ("grid-file", "central"),
])
def test_stacked_field_matches_the_per_point_route(tmp_path, family, scheme):
    if family == "grid-file":
        model = _three_level_grid_model(tmp_path)
        axes = [np.linspace(0.05, 0.95, 5), np.linspace(0.1, 0.9, 4)]
    else:
        model = BlochQubitModel(r=0.9) if family == "bloch" else rotated_field_qubit(2.0)
        axes = [np.linspace(0.4, 2.7, 5), np.linspace(0.3, 5.9, 4)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    q, sym, antisym = msqgt_field(model, points, scheme, h=1e-5)
    for k, x in enumerate(points):
        ref = msqgt_eigenroute(model.evaluate(x), derivatives(model, x, scheme=scheme, h=1e-5))
        assert np.max(np.abs(q[k] - ref.entries)) <= 1e-14
        assert abs(sym[k] - ref.sym_residual) <= 1e-14
        assert abs(antisym[k] - ref.antisym_residual) <= 1e-14


def test_stacked_field_refuses_rank_deficient_states():
    model = BlochQubitModel(r=1.0)
    with pytest.raises(RankDeficientError, match="rank floor"):
        msqgt_field(model, np.array([[0.5, 1.0], [1.0, 1.0]]))


def test_stacked_tensor_checks_fail_on_nan():
    q = np.array([[[0.25, 0.1j], [-0.1j, 0.3]], [[np.nan, 0.0], [0.0, 0.3]]])
    with pytest.raises(ValidationError, match="not symmetric: residual nan"):
        check_tensor_stack(q)


def _sqrt_lift(rho, deltas):
    """The lift W(x) = sqrt(rho(x)) of a pencil rho + x . deltas at x = 0, with
    its exact tangents dW solving W dW + dW W = delta in W's eigenbasis."""
    p, v = np.linalg.eigh(rho.mat)
    s = np.sqrt(p)
    psi = Purification.from_matrix((v * s) @ v.conj().T)
    dws = [v @ ((v.conj().T @ d @ v) / (s[:, None] + s[None, :])) @ v.conj().T for d in deltas]
    return psi, [TangentVector(psi, dw.ravel()) for dw in dws]


@settings(max_examples=40)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_routes_agree_and_covariant_route_is_gauge_invariant_at_random_states(n, seed):
    rng = np.random.default_rng(seed)
    rho0, deltas = linear_family(rng, n)
    q_eig = msqgt_eigenroute(rho0, deltas).entries
    psi, tangents = _sqrt_lift(rho0, deltas)
    q_cov = msqgt_covariant_route(psi, tangents).entries
    scale = np.max(np.abs(q_eig))
    assert np.max(np.abs(q_cov - q_eig)) < 1e-12 * scale
    # a smooth environment gauge u(x) = exp(i x . H) u0 moves the lift and
    # its tangents, dW -> dW u0^T + W (i H_mu u0)^T, and leaves Q alone
    u0 = rand_unitary(rng, n)
    psi_g = Purification.from_matrix(psi.amplitude_matrix @ u0.T)
    tangents_g = [TangentVector(psi_g, (x.matrix @ u0.T + psi.amplitude_matrix
                                        @ (1j * rand_herm(rng, n) @ u0).T).ravel())
                  for x in tangents]
    q_g = msqgt_covariant_route(psi_g, tangents_g).entries
    assert np.max(np.abs(q_g - q_cov)) < 1e-12 * scale


def test_covariant_route_decomposes_rho_e_once(monkeypatch):
    rng = np.random.default_rng(21)
    rho0 = rand_density(rng, 4, floor=0.3)
    deltas = [traceless_herm(rng, 4) for _ in range(3)]
    psi, tangents = _sqrt_lift(rho0, deltas)
    calls = {"connection": 0, "eigh": 0}
    monkeypatch.setattr(qgt, "connection", counted(calls, "connection", qgt.connection))
    monkeypatch.setattr(np.linalg, "eigh", counted(calls, "eigh", np.linalg.eigh))
    q = msqgt_covariant_route(psi, tangents)
    assert calls == {"connection": 1, "eigh": 1}
    assert q.entries.shape == (3, 3)


def test_tensor_contractions_match_their_entrywise_loops():
    rng = np.random.default_rng(22)
    xi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    xi /= np.linalg.norm(xi)
    dxi = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    loop = [[np.vdot(a, b) - np.vdot(xi, a).conj() * np.vdot(xi, b) for b in dxi] for a in dxi]
    assert np.max(np.abs(pure_qgt(xi, list(dxi)).entries - np.array(loop))) < 1e-14
    blocks = np.array([[rand_herm(rng, 3) for _ in range(3)] for _ in range(3)])
    blocks = blocks - blocks.swapaxes(0, 1)
    psi = Purification.from_matrix(rand_density(rng, 3).root)
    loop = [[0.5 * env_expectation(psi, b) for b in row] for row in blocks]
    sigma = CurvatureTensor(blocks).expectation(psi)
    assert np.max(np.abs(sigma - np.array(loop))) < 1e-15


def test_tensors_over_no_parameters_are_empty():
    psi = Purification.from_matrix(rand_density(np.random.default_rng(23), 3).root)
    assert msqgt_covariant_route(psi, []).entries.shape == (0, 0)
    assert pure_qgt(np.array([1.0, 0.0]), []).entries.shape == (0, 0)
