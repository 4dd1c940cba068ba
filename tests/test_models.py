import json
import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from mixedqgt import (
    BlochQubitModel,
    DegenerateSpectrumError,
    DensityMatrix,
    DimensionMismatchError,
    GridModel,
    InvalidDensityAtNodeError,
    ModelFamily,
    NoAnalyticDerivativesError,
    OutOfDomainError,
    SchemaError,
    ThermalModel,
    ValidationError,
    bures_metric,
    derivatives,
    export_grid_model,
    load_grid_model,
    msqgt_eigenroute,
    partial_trace_env,
    rotated_field_qubit,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_bloch_model_matrix():
    model = BlochQubitModel(r=0.9)
    theta, phi = 0.8, 1.1
    n = np.array([np.sin(theta) * np.cos(phi),
                  np.sin(theta) * np.sin(phi),
                  np.cos(theta)])
    expected = 0.5 * (np.eye(2) + 0.9 * (n[0] * SX + n[1] * SY + n[2] * SZ))
    assert np.allclose(model.evaluate([theta, phi]).mat, expected, atol=1e-14)


def test_bloch_analytic_derivatives_at_equator():
    model = BlochQubitModel(r=0.9)
    d_theta, d_phi = model.analytic_derivatives([np.pi / 2, 0.0])
    assert np.allclose(d_theta, -0.45 * SZ, atol=1e-14)
    assert np.allclose(d_phi, 0.45 * SY, atol=1e-14)


def test_central_differences_match_analytic():
    model = BlochQubitModel(r=0.9)
    pt = [1.2, 2.1]
    ana = derivatives(model, pt, scheme="analytic")
    num, residual = derivatives(model, pt, scheme="central", h=1e-5, return_residual=True)
    assert max(np.max(np.abs(a - b)) for a, b in zip(ana, num)) < 1e-9
    assert residual < 1e-8  # symmetrized noise stays tiny


def test_registration_check_catches_wrong_analytic_derivatives():
    class Lying(BlochQubitModel):
        def analytic_derivative_matrices(self, point):
            return [1.1 * m for m in super().analytic_derivative_matrices(point)]

    with pytest.raises(ValidationError):
        Lying(r=0.9)


def test_out_of_domain_point_is_rejected():
    model = BlochQubitModel(r=0.9)
    with pytest.raises(OutOfDomainError):
        model.evaluate([4.0, 0.0])
    with pytest.raises(OutOfDomainError):
        model.evaluate([1.0, -0.5])
    with pytest.raises(OutOfDomainError, match=r"theta = \S*nan"):
        model.evaluate([np.nan, 0.5])


def test_stacked_domain_check_names_the_first_point_outside():
    model = BlochQubitModel(r=0.9)
    points = np.array([[1.0, 0.5], [1.0, 7.0], [np.nan, 0.5]])
    with pytest.raises(OutOfDomainError, match=r"phi = \S*7\.0"):
        model.check_points(points)
    assert model.check_points(points[:1]) is not None
    with pytest.raises(DimensionMismatchError):
        model.check_points(np.zeros((2, 3)))


def test_lift_purifies_the_family():
    model = BlochQubitModel(r=0.9)
    for pt in ([0.7, 0.3], [2.0, 4.0]):
        psi = model.lift(pt)
        assert np.allclose(partial_trace_env(psi).mat,
                           model.evaluate(pt).mat, atol=1e-12)


def test_bloch_analytic_lift_tangents_match_finite_differences():
    model = BlochQubitModel(r=0.9)
    pt = [1.1, 0.6]
    psi_a, tans_a = model.lift_tangents(pt)
    psi_f, tans_f = ModelFamily.lift_tangents(model, pt)  # base-class FD route
    assert np.allclose(psi_a.amplitudes, psi_f.amplitudes, atol=1e-12)
    for a, f in zip(tans_a, tans_f):
        assert np.allclose(a.components, f.components, atol=1e-7)


def test_thermal_model_matches_gibbs_oracle():
    model = rotated_field_qubit(2.5, gap=0.5)
    pt = [1.2, 0.8]
    h = model.hamiltonian(pt)
    rho = expm(-2.5 * h)
    rho /= np.trace(rho).real
    assert np.allclose(model.evaluate(pt).mat, rho, atol=1e-12)


def test_thermal_analytic_derivatives_match_central():
    model = rotated_field_qubit(5.0, gap=0.5)
    pt = [1.2, 0.8]
    ana = model.analytic_derivatives(pt)
    num = derivatives(model, pt, scheme="central", h=1e-5)
    assert max(np.max(np.abs(a - b)) for a, b in zip(ana, num)) < 1e-7


def test_thermal_requires_positive_beta():
    with pytest.raises(ValidationError):
        rotated_field_qubit(0.0)
    with pytest.raises(ValidationError):
        rotated_field_qubit(-3.0)


def test_ground_state_is_lowest_eigenvector():
    model = rotated_field_qubit(1.0, gap=0.5)
    pt = [1.2, 0.8]
    xi = model.ground_state(pt)
    h = model.hamiltonian(pt)
    vals = np.linalg.eigvalsh(h)
    assert np.linalg.norm(h @ xi - vals[0] * xi) < 1e-12
    assert np.isclose(np.linalg.norm(xi), 1.0, atol=1e-12)


def test_degenerate_ground_state_is_refused():
    def h(point):
        return float(point[0]) * SZ

    model = ThermalModel(h, 2.0, ["x"], [(-1.0, 1.0)], check=False)
    with pytest.raises(DegenerateSpectrumError):
        model.ground_state([0.0])


def test_large_beta_freezes_to_ground_projector():
    model = rotated_field_qubit(20.0, gap=0.5)
    pt = [1.2, 0.8]
    xi = model.ground_state(pt)
    projector = np.outer(xi, xi.conj())
    vals = np.linalg.eigvalsh(model.hamiltonian(pt))
    bound = 4 * np.exp(-20.0 * (vals[1] - vals[0]))
    assert np.max(np.abs(model.evaluate(pt).mat - projector)) < bound


def test_with_beta_leaves_original_untouched():
    model = rotated_field_qubit(1.0, gap=0.5)
    hot = model.with_beta(10.0)
    assert hot.beta == 10.0
    assert model.beta == 1.0
    pt = [1.2, 0.8]
    assert not np.allclose(model.evaluate(pt).mat, hot.evaluate(pt).mat)


def test_thermal_qubit_is_picklable():
    model = rotated_field_qubit(2.0, gap=0.5)
    clone = pickle.loads(pickle.dumps(model))
    pt = [0.9, 1.7]
    assert np.allclose(model.evaluate(pt).mat, clone.evaluate(pt).mat, atol=0)


def test_grid_export_round_trip():
    model = BlochQubitModel(r=0.9)
    grids = [np.linspace(0.3, 2.8, 5), np.linspace(0.0, 6.0, 5)]
    doc = export_grid_model(model, grids)
    assert set(doc) == {"params", "nodes"}
    grid = load_grid_model(doc)
    for theta in grids[0]:
        for phi in grids[1]:
            assert np.allclose(grid.evaluate([theta, phi]).mat,
                               model.evaluate([theta, phi]).mat, atol=1e-12)


def test_two_node_interpolation_hits_midpoint_average():
    doc = {
        "params": [{"name": "x", "grid": [0.0, 1.0]}],
        "nodes": [
            {"index": [0], "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"index": [1], "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        ],
    }
    grid = load_grid_model(doc)
    assert np.allclose(grid.evaluate([0.5]).mat, np.diag([0.5, 0.5]), atol=1e-15)


def test_interpolation_always_yields_valid_states():
    rng = np.random.default_rng(0)
    model = BlochQubitModel(r=0.9)
    grid = load_grid_model(export_grid_model(
        model, [np.linspace(0.3, 2.8, 7), np.linspace(0.0, 6.0, 7)]))
    for _ in range(25):
        pt = [rng.uniform(0.3, 2.8), rng.uniform(0.0, 6.0)]
        grid.evaluate(pt)  # DensityMatrix construction enforces all invariants


def test_grid_rejects_bad_nodes_and_schema():
    base = {
        "params": [{"name": "x", "grid": [0.0, 1.0]}],
        "nodes": [
            {"index": [0], "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"index": [1], "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        ],
    }
    bad = json.loads(json.dumps(base))
    bad["nodes"][1]["re"] = [[1.4, 0.0], [0.0, -0.4]]
    with pytest.raises(InvalidDensityAtNodeError):
        load_grid_model(bad)
    load_grid_model(bad, check=False, validate_nodes=False)  # reporting mode keeps going

    with pytest.raises(SchemaError):
        load_grid_model({"params": []})
    short = json.loads(json.dumps(base))
    short["nodes"] = short["nodes"][:1]
    with pytest.raises(SchemaError):
        load_grid_model(short)
    shuffled = json.loads(json.dumps(base))
    shuffled["nodes"][1]["index"] = [0]
    with pytest.raises(SchemaError):
        load_grid_model(shuffled)
    decreasing = json.loads(json.dumps(base))
    decreasing["params"][0]["grid"] = [1.0, 0.0]
    with pytest.raises(SchemaError):
        load_grid_model(decreasing)


def test_grid_trace_band():
    # small drift is renormalized on evaluation; large drift is an error
    node = np.diag([0.5, 0.5])
    doc = {
        "params": [{"name": "x", "grid": [0.0, 1.0]}],
        "nodes": [
            {"index": [0], "re": ((1 + 2e-7) * node).tolist(), "im": np.zeros((2, 2)).tolist()},
            {"index": [1], "re": node.tolist(), "im": np.zeros((2, 2)).tolist()},
        ],
    }
    grid = load_grid_model(doc, validate_nodes=False)
    rho = grid.evaluate([0.0])
    assert np.isclose(np.trace(rho.mat).real, 1.0, atol=1e-12)

    doc["nodes"][0]["re"] = ((1 + 2e-5) * node).tolist()
    grid = load_grid_model(doc, check=False, validate_nodes=False)
    with pytest.raises(ValidationError):
        grid.evaluate([0.0])


def test_grid_model_has_no_analytic_derivatives():
    doc = export_grid_model(BlochQubitModel(r=0.9),
                            [np.linspace(0.3, 2.8, 5), np.linspace(0.0, 6.0, 5)])
    grid = load_grid_model(doc)
    assert not grid.has_analytic_derivatives
    with pytest.raises(NoAnalyticDerivativesError):
        derivatives(grid, [1.0, 1.0], scheme="analytic")


def test_constant_grid_family_has_zero_tensor():
    node = {"re": [[0.6, 0.1], [0.1, 0.4]], "im": [[0.0, 0.2], [-0.2, 0.0]]}
    doc = {
        "params": [{"name": "x", "grid": [0.0, 1.0]}, {"name": "y", "grid": [0.0, 1.0]}],
        "nodes": [dict(node, index=[i, j]) for i in range(2) for j in range(2)],
    }
    grid = load_grid_model(doc)
    pt = [0.5, 0.5]
    ds = derivatives(grid, pt, scheme="central", h=1e-3)
    assert max(np.max(np.abs(d)) for d in ds) < 1e-12
    q = msqgt_eigenroute(grid.evaluate(pt), ds)
    assert np.max(np.abs(q.entries)) < 1e-12


def test_dense_grid_reproduces_tensor_at_nodes():
    # a 65 x 65 tabulation keeps the finite-difference tensor of the
    # interpolant within 1e-3 of the analytic family at interior nodes
    model = BlochQubitModel(r=0.9)
    thetas = np.linspace(0.3, 2.8, 65)
    phis = np.linspace(0.0, 6.0, 65)
    grid = load_grid_model(export_grid_model(model, [thetas, phis]), validate_nodes=False)
    h = 1e-5
    for it, ip in [(10, 7), (32, 32), (50, 44)]:
        pt = [thetas[it], phis[ip]]
        q_grid = msqgt_eigenroute(grid.evaluate(pt), derivatives(grid, pt, h=h))
        q_true = msqgt_eigenroute(model.evaluate(pt), model.analytic_derivatives(pt))
        assert np.max(np.abs(q_grid.entries - q_true.entries)) < 1e-3
