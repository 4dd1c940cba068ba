import json
import pickle
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, expm_frechet

from mixedqgt import (
    BlochQubitModel,
    ChartLoop,
    DegenerateSpectrumError,
    DensityMatrix,
    DimensionMismatchError,
    GridModel,
    InconsistentStencilError,
    InvalidDensityAtNodeError,
    MixedQGTError,
    ModelFamily,
    NoAnalyticDerivativesError,
    NotHermitianError,
    NotPSDError,
    OutOfDomainError,
    SchemaError,
    ThermalModel,
    TraceNotOneError,
    ValidationError,
    bures_metric,
    derivatives,
    export_grid_model,
    load_grid_model,
    msqgt_eigenroute,
    partial_trace_env,
    rotated_field_qubit,
)
from mixedqgt.models import derivative_stack
from mixedqgt.qgt import msqgt_field
from mixedqgt import models, qgt, states
from mixedqgt.states import complex_matrix
from conftest import counted, rand_herm, rand_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ASYM_3 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # max|A - A^dag| = 2


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
    d_theta, d_phi = derivatives(model, [np.pi / 2, 0.0], "analytic")
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
        def _evaluate(self, points, slopes):
            mats, drho = super()._evaluate(points, slopes)
            return mats, None if drho is None else 1.1 * drho

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
    # coordinates print as plain floats, not numpy scalar reprs
    with pytest.raises(OutOfDomainError) as info:
        model.check_points(np.array([[1.0, 0.0]]), margin=1e-5)
    assert str(info.value).startswith("phi = 0.0 outside [1e-05, ")
    assert "np.float64" not in str(info.value)


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
    ana = derivatives(model, pt, "analytic")
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


def _indexed_thermal(hs, dhs, beta):
    """Thermal family whose point (k + 1/2, y) has Hamiltonian hs[k] and derivatives dhs[k]."""
    return ThermalModel(lambda p: hs[int(p[0])], beta, ("k", "y"),
                        ((0.0, len(hs)), (0.0, 1.0)), d_hamiltonian=lambda p: list(dhs[int(p[0])]),
                        check=False)


def _gibbs_oracle(h, dhs, beta):
    """exp(-beta H) / Z by ``expm`` and its derivatives along dhs by ``expm_frechet``
    and the quotient rule, with H shifted to a zero ground energy."""
    a = -beta * (h - np.linalg.eigvalsh(h)[0] * np.eye(len(h)))
    x = expm(a)
    z = np.trace(x).real
    rho = x / z
    dx = [expm_frechet(a, -beta * dh, compute_expm=False) for dh in dhs]
    return rho, [(d - rho * np.trace(d).real) / z for d in dx]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), count=st.integers(1, 5), beta=st.floats(0.1, 50.0),
       tie=st.sampled_from([None, 0.0, 4e-14]), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_gibbs_states_are_the_oracle_and_the_per_point_rows(n, count, beta, tie, seed):
    # both sides of the closed-form 2 x 2 seam; with a tie, two of item 0's
    # energies are closer than 1e-13, so its divided differences take the limit
    rng = np.random.default_rng(seed)
    hs = []
    for k in range(count):
        energies = rng.uniform(-1.0, 1.0, n)
        if tie is not None and k == 0:
            energies[1] = energies[0] + tie
        u = rand_unitary(rng, n)
        hs.append((u * energies) @ u.conj().T)
    dhs = [[rand_herm(rng, n) for _ in range(2)] for _ in range(count)]
    model = _indexed_thermal(hs, dhs, beta)
    points = np.column_stack([np.arange(count) + 0.5, rng.uniform(0.0, 1.0, count)])
    mats, drho = _seam_rows(model, points)
    for k in range(count):
        rho, d_rho = _gibbs_oracle(hs[k], dhs[k], beta)
        assert np.abs(mats[k] - rho).max() <= 1e-12
        assert np.abs(drho[k] - d_rho).max() <= 1e-12 * beta


def test_stacked_hamiltonian_check_names_the_first_failing_item():
    rng = np.random.default_rng(31)
    hs = [rand_herm(rng, 3) for _ in range(4)]
    dhs = [[rand_herm(rng, 3) for _ in range(2)] for _ in range(4)]
    model = _indexed_thermal(hs, dhs, 2.0)
    points = np.column_stack([np.arange(4) + 0.5, np.full(4, 0.5)])
    for call in (model.matrices_at, model.derivative_matrices_at,
                 model.matrices_and_derivatives_at):
        call(points)
    # the first failing item names its residual, not the largest one
    dhs[1][1] = dhs[1][1] + 3e-4 * ASYM_3
    dhs[2][0] = dhs[2][0] + 4e-3 * ASYM_3
    with pytest.raises(NotHermitianError) as exc:
        model.derivative_matrices_at(points)
    assert str(exc.value) == "Hamiltonian derivative not Hermitian: max|H - H^dag| = 6.000e-04"
    hs[3] = hs[3] + 5e-3 * ASYM_3  # every Hamiltonian is checked before any derivative
    hs[2] = hs[2] + 1e-3 * ASYM_3
    for call in (model.matrices_at, model.derivative_matrices_at,
                 model.matrices_and_derivatives_at):
        with pytest.raises(NotHermitianError) as exc:
            call(points)
        assert str(exc.value) == "Hamiltonian not Hermitian: max|H - H^dag| = 2.000e-03"
    with pytest.raises(NotHermitianError) as exc:
        model.matrices_at(points[3:])
    assert str(exc.value) == "Hamiltonian not Hermitian: max|H - H^dag| = 1.000e-02"


@pytest.mark.parametrize("scheme, stacks", [("analytic", 1), ("central", 2)])
def test_thermal_field_sweep_decomposes_each_stack_once(monkeypatch, scheme, stacks):
    # per chunk: one Gibbs pass over its points (and one over its central
    # neighbours), each with one eigh of the Hamiltonians, and one eigh of the
    # chunk's states; the user's callables are still called once per point
    model = rotated_field_qubit(1.0)
    calls = defaultdict(int)
    model.hamiltonian = counted(calls, "hamiltonian", model.hamiltonian)
    model.d_hamiltonian = counted(calls, "d_hamiltonian", model.d_hamiltonian)
    monkeypatch.setattr(states, "_eigh", counted(calls, "eigh", states._eigh))
    monkeypatch.setattr(ThermalModel, "_gibbs", counted(calls, "_gibbs", ThermalModel._gibbs))
    axes = np.linspace(0.4, 2.7, 10), np.linspace(0.1, 6.1, 10)
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    chunks = [points[i:i + 7] for i in range(0, len(points), 7)]
    for chunk in chunks:
        msqgt_field(model, chunk, scheme)
    assert calls == {"_gibbs": stacks * len(chunks), "eigh": (stacks + 1) * len(chunks),
                     "hamiltonian": len(points) * (1 if scheme == "analytic" else 5),
                     **({"d_hamiltonian": len(points)} if scheme == "analytic" else {})}


def test_degenerate_ground_state_is_refused():
    def h(point):
        return float(point[0]) * SZ

    model = ThermalModel(h, 2.0, ["x"], [(-1.0, 1.0)], check=False)
    with pytest.raises(DegenerateSpectrumError):
        model.ground_state([0.0])


class _TraceTwoFamily(ModelFamily):
    """A family without analytic derivatives whose states fail the trace check."""

    def matrix_at(self, point):
        return np.eye(2, dtype=complex)


def test_families_without_analytic_derivatives_say_so():
    thermal = ThermalModel(lambda point: float(point[0]) * SZ + SX, 2.0, ["x"], [(-1.0, 1.0)])
    assert not thermal.analytic
    calls = defaultdict(int)
    thermal.hamiltonian = counted(calls, "hamiltonian", thermal.hamiltonian)
    broken = _TraceTwoFamily("broken", ["x"], [(0.0, 1.0)], check=False)
    for model, name in ((thermal, "thermal"), (broken, "broken")):
        for call in (lambda: model.analytic_derivative_matrices(np.array([0.5])),
                     lambda: model.derivative_matrices_at(np.array([[0.25], [0.5]])),
                     lambda: model.matrices_and_derivatives_at(np.array([[0.25], [0.5]])),
                     lambda: derivatives(model, [0.5], scheme="analytic"),
                     # before any density check of the states
                     lambda: msqgt_field(model, np.array([[0.25], [0.5]]), "analytic")):
            with pytest.raises(NoAnalyticDerivativesError) as exc:
                call()
            assert str(exc.value) == f"family '{name}' declares no analytic derivatives"
    assert not calls  # refused before the Gibbs pass reads a Hamiltonian
    with pytest.raises(TraceNotOneError):
        msqgt_field(broken, np.array([[0.5]]), "central")
    q, _, _ = msqgt_field(thermal, np.array([[0.5]]), "central")
    assert q.shape == (1, 1, 1)


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
    for value in (float("inf"), float("nan")):
        unbounded = json.loads(json.dumps(base))
        unbounded["params"][0]["grid"][1] = value
        with pytest.raises(SchemaError, match=r"^params\[0\]\.grid has non-finite entries$"):
            load_grid_model(unbounded, check=False, validate_nodes=False)


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
    with pytest.raises(ValidationError) as exc:
        grid.evaluate([0.0])
    # the point prints as plain floats, without numpy's scalar repr
    assert str(exc.value) == "interpolated trace drifts by 2.000e-05 > 1e-6 at [0.0]"
    assert "np.float64" not in str(exc.value)


def test_grid_model_has_analytic_derivatives():
    doc = export_grid_model(BlochQubitModel(r=0.9),
                            [np.linspace(0.3, 2.8, 5), np.linspace(0.0, 6.0, 5)])
    grid = load_grid_model(doc)
    assert grid.analytic
    point = np.array([1.0, 1.0])
    exact = derivatives(grid, point, scheme="analytic")
    # the one-point case of the stacked derivatives, and the matrices' own limit
    assert np.array_equal(exact, grid.derivative_matrices_at(point[None])[0])
    assert np.allclose(exact, derivatives(grid, point, scheme="central"), rtol=0, atol=1e-10)


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
        q_true = msqgt_eigenroute(model.evaluate(pt), derivatives(model, pt, "analytic"))
        assert np.max(np.abs(q_grid.entries - q_true.entries)) < 1e-3


def test_chart_loop_stack_matches_its_nodes():
    model = BlochQubitModel(r=0.9)
    loop = ChartLoop(model, [[0.8, 0.0], [0.8, 2.0], [1.6, 2.0], [0.8, 0.0]])
    times = np.linspace(0.0, 1.0, 13)
    points = loop.points(times)
    assert np.array_equal(points[[0, 4, 8, 12]], loop.vertices)
    stack = loop.stack(times)
    for t, point, mat in zip(times, points, stack):
        # the scalar path interpolates the same chart point
        assert np.array_equal(loop.points(t), point)
        assert np.array_equal(loop(t).mat, mat)
        assert np.array_equal(model.evaluate(point).mat, mat)


def test_chart_loop_stack_names_the_first_point_outside():
    loop = ChartLoop(BlochQubitModel(r=0.9), [[1.0, 0.5], [1.0, 7.0], [4.0, 0.5], [1.0, 0.5]])
    times = np.linspace(0.0, 1.0, 31)
    with pytest.raises(OutOfDomainError) as stacked:
        loop.stack(times)
    with pytest.raises(OutOfDomainError) as scalar:
        for t in times:
            loop(t)
    assert str(stacked.value) == str(scalar.value)
    assert str(stacked.value).startswith("phi = ")


def _loop_matrix_at(model, point):
    """Per-point multilinear interpolation with trace renormalisation: the
    reference for the stacked ``GridModel.matrices_at``."""
    weights = []
    cells = []
    for x, g in zip(point, model.grids):
        hi = int(np.clip(np.searchsorted(g, x), 1, g.size - 1))
        lo = hi - 1
        cells.append((lo, hi))
        weights.append((g[hi] - x) / (g[hi] - g[lo]))
    dim = model.values.shape[-1]
    mat = np.zeros((dim, dim), dtype=complex)
    for corner in np.ndindex(*(2,) * len(cells)):
        w = 1.0
        idx = []
        for d, side in enumerate(corner):
            w *= weights[d] if side == 0 else 1.0 - weights[d]
            idx.append(cells[d][side])
        if w:
            mat += w * model.values[tuple(idx)]
    trace = float(np.trace(mat).real)
    drift = abs(trace - 1.0)
    assert drift <= 1e-6
    if drift > 1e-12:
        mat = mat / trace
    return mat


def _random_grid_model(rng, dim, sizes):
    grids = [np.sort(rng.uniform(-1.0, 1.0, size)) for size in sizes]
    values = np.empty(tuple(sizes) + (dim, dim), dtype=complex)
    for idx in np.ndindex(*sizes):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a @ a.conj().T + 0.1 * np.eye(dim)
        # some nodes drift in trace, within and beyond the renormalisation floor
        values[idx] = m / np.trace(m).real * (1.0 + rng.choice([0.0, 3e-13, 1e-9, 5e-7]))
    return GridModel([f"x{d}" for d in range(len(sizes))], grids, values, check=False)


@pytest.mark.parametrize("dim, sizes", [(2, (4,)), (3, (3, 5)), (5, (3, 2, 4)), (16, (2, 3))])
def test_stacked_interpolation_is_the_per_point_loop_bit_for_bit(dim, sizes):
    rng = np.random.default_rng(40 + dim)
    model = _random_grid_model(rng, dim, sizes)
    inside = np.column_stack([rng.uniform(g[0], g[-1], 40) for g in model.grids])
    on_nodes = np.column_stack([rng.choice(g, 10) for g in model.grids])
    on_edges = np.column_stack([rng.uniform(g[0], g[-1], 10) for g in model.grids])
    on_edges[:, 0] = rng.choice(model.grids[0], 10)  # one coordinate on a cell edge
    ends = np.array([[g[0] for g in model.grids], [g[-1] for g in model.grids]])
    points = np.concatenate([inside, on_nodes, on_edges, ends])
    stack = model.matrices_at(points)
    for point, mat in zip(points, stack):
        assert np.array_equal(mat, _loop_matrix_at(model, point))
        assert np.array_equal(model.matrices_at(point[None])[0], mat)  # the K = 1 case
    assert np.array_equal(model.matrices_at(points[:1]), stack[:1])


def test_zero_weight_corners_ignore_non_finite_nodes():
    # node [1, 1] is a corner of every point's cell, always with weight 0
    rng = np.random.default_rng(45)
    model = _random_grid_model(rng, 3, (3, 3))
    model.values[1, 1] = np.inf  # as loaded with validate_nodes=False
    g0, g1 = model.grids
    points = np.array([[g0[2], g1[2]], [g0[2], 0.5 * (g1[1] + g1[2])], [g0[0], g1[0]]])
    stack = model.matrices_at(points)
    assert np.isfinite(stack).all()
    for point, mat in zip(points, stack):
        assert np.array_equal(mat, _loop_matrix_at(model, point))


def test_non_finite_node_with_weight_is_refused():
    rng = np.random.default_rng(45)
    model = _random_grid_model(rng, 3, (3, 3))
    model.values[2, 2] = np.nan
    g0, g1 = model.grids
    points = np.array([[g0[0], g1[0]], [g0[2], 0.5 * (g1[1] + g1[2])]])
    for evaluate in (model.matrices_at, model.derivative_matrices_at):
        with pytest.raises(ValidationError) as exc:
            evaluate(points)
        assert str(exc.value) == (f"interpolated trace drifts by nan > 1e-6 at"
                                  f" {points[1].tolist()}")


def test_stacked_interpolation_names_the_first_drifting_point():
    node = np.diag([0.5, 0.5])
    model = GridModel(["x"], [np.array([0.0, 1.0, 2.0])],
                      np.array([node, node, (1 + 2e-5) * node]), check=False)
    points = np.array([[0.5], [1.9], [1.2], [2.0]])
    with pytest.raises(ValidationError) as exc:
        model.matrices_at(points)
    assert str(exc.value) == "interpolated trace drifts by 1.800e-05 > 1e-6 at [1.9]"
    with pytest.raises(ValidationError) as single:
        model.matrices_at(points[1:2])
    assert str(single.value) == str(exc.value)


class _NeighbourModel(ModelFamily):
    """rho0 + (x - i) s[i] A + (y - j) t[j] B near integer chart points (i, j):
    every centre is rho0, and the neighbours of each point move by their own
    scales s[i], t[j]."""

    def __init__(self, rho0, a, b, s, t):
        self.rho0, self.a, self.b, self.s, self.t = rho0, a, b, s, t
        super().__init__("neighbours", ("x", "y"), ((-1.0, len(s)), (-1.0, len(t))),
                         check=False)

    def matrix_at(self, point):
        i, j = (int(round(c)) for c in point)
        return self.rho0 + (point[0] - i) * self.s[i] * self.a + (point[1] - j) * self.t[j] * self.b


def test_uncertified_neighbour_keeps_the_not_psd_text(monkeypatch):
    rho0 = np.diag([1.0 - 1e-11, 1e-11]).astype(complex)
    move = np.diag([-1.0, 1.0]).astype(complex)
    # the x neighbours move by 1e-8, past rho0's lowest eigenvalue 1e-11; the y ones not at all
    model = _NeighbourModel(rho0, move, move, [1e-3], [0.0])
    points = np.array([[0.0, 0.0]])
    calls = {"eigvalsh": 0}
    monkeypatch.setattr(states, "_eigvalsh", counted(calls, "eigvalsh", states._eigvalsh))
    with pytest.raises(NotPSDError) as plain:
        derivative_stack(model, points)
    assert calls == {"eigvalsh": 1}  # the four neighbours, as one stack
    assert str(plain.value) == "not PSD: min eigenvalue -9.990e-09 < -1.0e-12"


def test_a_step_that_leaves_a_coordinate_unchanged_is_refused():
    # 1 + 1e-16 == 1 (and -1 - 1e-16 == -1): every difference would be exactly 0
    with pytest.raises(InconsistentStencilError) as plus:
        derivatives(BlochQubitModel(0.9), [1.0, 1.0], "central", 1e-16)
    assert str(plus.value) == "central step h = 1e-16 vanishes against theta = 1.0"
    line = GridModel(["x"], [np.array([-2.0, 0.0])], np.array([np.eye(2) / 2] * 2), check=False)
    with pytest.raises(InconsistentStencilError) as minus:
        derivative_stack(line, np.array([[-0.3], [-1.0]]), "central", 1e-16)
    assert str(minus.value) == "central step h = 1e-16 vanishes against x = -1.0"
    with pytest.raises(OutOfDomainError):  # the margin is checked first
        derivatives(BlochQubitModel(0.9), [0.0, 1.0], "central", 1e-300)
    assert np.abs(derivatives(BlochQubitModel(0.9), [1.0, 1.0], "central", 1e-12)[0]).max() > 0.3


# --- set-up checks as stacks, against the per-item loops they replace ---------

BAD_STATES = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[0.5, 0.0], [0.0, np.inf]]),
    "inf-off": np.array([[0.5, -np.inf], [0.0, 0.5]]),
    "hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "trace": np.diag([0.6, 0.6]),
    "psd": np.diag([1.2, -0.2]),
}


class _Patchwork(ModelFamily):
    """Qubit family on [0, 4]^2 (its registration lattice is the integer
    points) that gives the named BAD_STATES at the points in ``bad``, and
    whose analytic derivatives lie by ``lies[frac]`` at the registration
    probe lo + frac (hi - lo)."""

    analytic = True

    def __init__(self, bad=(), lies=(), check=True):
        self.bad = dict(bad)
        self.lies = dict(lies)
        super().__init__("patchwork", ("x", "y"), ((0.0, 4.0), (0.0, 4.0)), check=check)

    def matrix_at(self, point):
        x, y = (float(c) for c in point)
        if (x, y) in self.bad:
            return BAD_STATES[self.bad[x, y]].astype(complex)
        return 0.5 * (np.eye(2) + 0.3 * np.sin(x) * SX + 0.4 * np.cos(y) * SZ)

    def analytic_derivative_matrices(self, point):
        x, y = point
        lie = self.lies.get(round(float(x) / 4.0, 1), 0.0)
        return [0.15 * np.cos(x) * SX + lie * SZ, -0.2 * np.sin(y) * SZ]


def _seam_rows(model, points):
    """The states and derivatives at a stack of points from one
    ``matrices_and_derivatives_at`` call, after checking that they are byte for
    byte the two one-sided calls and, row by row, the K = 1 calls."""
    mats, drho = model.matrices_and_derivatives_at(points)
    assert model.matrices_at(points).tobytes() == mats.tobytes()
    assert model.derivative_matrices_at(points).tobytes() == drho.tobytes()
    assert model.matrices_at(points.tolist()).tobytes() == mats.tobytes()  # any array-like
    for k in range(len(points)):
        one, d_one = model.matrices_and_derivatives_at(points[k:k + 1])
        assert one.tobytes() == mats[k:k + 1].tobytes()
        assert d_one.tobytes() == drho[k:k + 1].tobytes()
        assert model.matrices_at(points[k:k + 1]).tobytes() == one.tobytes()
        assert model.derivative_matrices_at(points[k:k + 1]).tobytes() == d_one.tobytes()
        assert model.evaluate(points[k]).mat.tobytes() == mats[k].tobytes()
    return mats, drho


SEAM_FAMILIES = {
    "bloch": lambda: BlochQubitModel(r=0.9),
    "thermal-qubit": lambda: rotated_field_qubit(2.0),
    "grid": lambda: load_grid_model(export_grid_model(
        BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 5), np.linspace(0.0, 6.2, 5)])),
    "per-point": _Patchwork,
}


@pytest.mark.parametrize("family", list(SEAM_FAMILIES))
def test_one_seam_call_is_its_parts_and_its_rows_byte_for_byte(family):
    # the built-in families override the seam; _Patchwork stacks its per-point surface
    model = SEAM_FAMILIES[family]()
    lo, hi = np.array(model.domain).T
    fracs = np.random.default_rng(70).uniform(0.0, 1.0, (6, 2))
    # a domain corner, and the midpoint: a node of the grid model's two axes
    points = lo + np.concatenate([[[0.0, 0.0], [0.5, 0.5]], fracs]) * (hi - lo)
    _seam_rows(model, points)


class _Nothing(ModelFamily):
    """A family that implements neither the per-point surface nor the seam."""


def test_a_family_without_either_surface_is_not_implemented():
    with pytest.raises(NotImplementedError):
        _Nothing("nothing", ["x"], [(0.0, 1.0)])
    model = _Nothing("nothing", ["x"], [(0.0, 1.0)], check=False)
    # NotImplementedError, not a RecursionError between the two surfaces
    for call in (lambda: model.evaluate([0.5]),
                 lambda: model.matrices_at(np.array([[0.5]])),
                 lambda: msqgt_field(model, np.array([[0.5]]), "analytic"),
                 lambda: msqgt_field(model, np.array([[0.5]]), "central")):
        with pytest.raises(NotImplementedError):
            call()
    # the built-in families serve the stacked surface only
    for call in (BlochQubitModel(r=0.9).matrix_at,
                 rotated_field_qubit(2.0).analytic_derivative_matrices):
        with pytest.raises(NotImplementedError):
            call(np.array([1.0, 1.0]))


def _first_error(fn):
    """(class, message) of the package error ``fn`` raises, None if none."""
    try:
        fn()
    except MixedQGTError as exc:
        return type(exc), str(exc)
    return None


def _loop_registration(model):
    """Registration one item at a time: the reference for the stacked check."""
    axes = [np.linspace(lo, hi, 5) for lo, hi in model.domain]
    for idx in np.ndindex(*(5,) * model.n_params):
        model.evaluate([axes[d][i] for d, i in enumerate(idx)])
    if not model.analytic:
        return
    tol = 10.0 * 1e-5 ** 2
    for frac in (0.3, 0.5, 0.7):
        point = np.array([lo + frac * (hi - lo) for lo, hi in model.domain])
        exact = derivatives(model, point, "analytic")
        approx = derivatives(model, point, scheme="central")
        worst = float(np.max(np.abs(np.array(exact) - np.array(approx))))
        if not worst <= tol:
            raise ValidationError(f"family {model.name!r}: analytic derivatives deviate from"
                                  f" central differences by {worst:.3e} > {tol:.1e}")


def _loop_export(model, grids):
    """export_grid_model one node at a time: the reference for the stacked one."""
    nodes = []
    for idx in np.ndindex(*(len(g) for g in grids)):
        mat = model.evaluate([grids[d][i] for d, i in enumerate(idx)]).mat
        nodes.append({"index": list(idx), "re": mat.real.tolist(), "im": mat.imag.tolist()})
    return {"params": [{"name": lbl, "grid": [float(x) for x in g]}
                       for lbl, g in zip(model.param_labels, grids)],
            "nodes": nodes}


def _loop_node_check(doc):
    """The node density check one node at a time, in document order."""
    for node in doc["nodes"]:
        try:
            DensityMatrix(complex_matrix(node["re"], node["im"]))
        except ValidationError as exc:
            raise InvalidDensityAtNodeError(f"node {node['index']}: {exc}") from None


LATTICE_CASES = [
    {},
    {(0.0, 0.0): "nan"},
    {(2.0, 3.0): "psd", (4.0, 4.0): "nan"},
    {(1.0, 4.0): "hermitian", (2.0, 0.0): "inf"},
    {(3.0, 1.0): "trace", (3.0, 2.0): "inf-off", (0.0, 4.0): "psd"},
    {(4.0, 4.0): "hermitian", (1.0, 1.0): "trace", (1.0, 2.0): "nan", (1.0, 3.0): "psd"},
]


@pytest.mark.parametrize("chunk_points", [1, 3, 25])
@pytest.mark.parametrize("bad", LATTICE_CASES)
def test_stacked_registration_names_the_loops_first_failure(monkeypatch, bad, chunk_points):
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 4 * chunk_points)  # points per chunk, N = 2
    model = _Patchwork(bad, check=False)
    expected = _first_error(lambda: _loop_registration(model))
    assert (expected is None) == (not bad)
    assert _first_error(model._registration_check) == expected
    assert _first_error(lambda: _Patchwork(bad)) == expected


@pytest.mark.parametrize("lies", [{0.5: 1e-3}, {0.7: 2e-3, 0.3: 5e-8}, {0.5: 1e-6, 0.7: np.nan},
                                  {0.3: np.nan}, {0.7: -3e-9}])
def test_stacked_derivative_probes_name_the_loops_first_failure(monkeypatch, lies):
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 4 * 3)
    model = _Patchwork(lies=lies, check=False)
    expected = _first_error(lambda: _loop_registration(model))
    assert expected is not None and expected[0] is ValidationError
    assert _first_error(model._registration_check) == expected
    # a lattice failure comes before any probe
    model.bad = {(3.0, 3.0): "trace"}
    assert _first_error(model._registration_check)[0] is TraceNotOneError


def test_nan_analytic_derivatives_fail_registration():
    with pytest.raises(ValidationError) as exc:
        _Patchwork(lies={0.5: np.nan})
    assert str(exc.value) == ("family 'patchwork': analytic derivatives deviate from"
                              " central differences by nan > 1.0e-09")


def test_stacked_registration_names_the_first_drifting_point(monkeypatch):
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 4 * 4)
    rng = np.random.default_rng(60)
    model = _random_grid_model(rng, 2, (4, 3))
    node = np.diag([0.5, 0.5])
    model.values[...] = node
    model.values[2, 1] = (1 + 3e-5) * node  # drifts at the lattice points around it
    model.values[3, 2] = (1 + 9e-5) * node
    model.values[0, 0] = np.diag([1.5, -0.5])  # not PSD at the first lattice point only
    for values in (model.values.copy(), model.values[::-1, ::-1].copy()):
        model.values = values
        expected = _first_error(lambda: _loop_registration(model))
        assert expected is not None
        assert _first_error(model._registration_check) == expected


EXPORT_CASES = [
    ({}, None),
    ({(1.0, 2.0): "psd", (3.0, 0.0): "nan"}, None),
    ({(3.0, 2.0): "hermitian"}, 1),  # the column x = 5 is outside the domain
    ({(1.0, 0.0): "inf", (1.0, 2.0): "trace"}, 0),
    ({}, 0),
]


@pytest.mark.parametrize("bad, outside", EXPORT_CASES)
def test_stacked_export_is_the_per_node_loop(monkeypatch, bad, outside):
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 4 * 3)
    grids = [np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 2.0, 4.0])]
    if outside is not None:
        grids[outside] = np.append(grids[outside], 5.0)
    model = _Patchwork(bad, check=False)
    expected = _first_error(lambda: _loop_export(model, grids))
    assert _first_error(lambda: export_grid_model(model, grids)) == expected
    if expected is None:
        assert json.dumps(export_grid_model(model, grids)) == json.dumps(_loop_export(model, grids))


@pytest.mark.parametrize("model", [BlochQubitModel(r=0.8), rotated_field_qubit(2.0)])
def test_exported_json_is_byte_identical_to_the_per_node_loop(monkeypatch, model):
    grids = [np.linspace(0.0, np.pi, 7), np.linspace(0.0, 2 * np.pi, 6)]
    for entries in (states.CHUNK_ENTRIES, 4 * 5):
        monkeypatch.setattr(states, "CHUNK_ENTRIES", entries)
        assert json.dumps(export_grid_model(model, grids)) == json.dumps(_loop_export(model, grids))


NODE_CASES = [
    {(2, 1): "psd", (0, 2): "nan"},
    {(1, 1): "inf", (3, 0): "hermitian"},
    {(0, 0): "trace", (3, 2): "inf-off", (2, 2): "psd"},
    {(3, 2): "hermitian", (0, 1): "trace", (1, 0): "nan"},
]


@pytest.mark.parametrize("chunk_nodes", [1, 5, 12])
@pytest.mark.parametrize("bad", NODE_CASES)
@pytest.mark.parametrize("listing", ["index", "reversed", "shuffled"])
def test_stacked_node_check_names_the_first_bad_node_in_document_order(
        monkeypatch, bad, chunk_nodes, listing):
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 4 * chunk_nodes)
    doc = export_grid_model(BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 4),
                                                     np.linspace(0.0, 6.0, 3)])
    for node in doc["nodes"]:
        kind = bad.get(tuple(node["index"]))
        if kind is not None:
            node["re"], node["im"] = BAD_STATES[kind].tolist(), np.zeros((2, 2)).tolist()
    # nodes listed in or out of index order
    order = {"index": np.arange(12), "reversed": np.arange(12)[::-1],
             "shuffled": np.random.default_rng(7).permutation(12)}[listing]
    doc["nodes"] = [doc["nodes"][k] for k in order]
    expected = _first_error(lambda: _loop_node_check(doc))
    assert expected is not None and expected[0] is InvalidDensityAtNodeError
    assert _first_error(lambda: load_grid_model(doc, check=False)) == expected
    load_grid_model(doc, check=False, validate_nodes=False)


def test_grid_schema_errors_come_before_node_density_errors():
    doc = export_grid_model(BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 3),
                                                     np.linspace(0.0, 6.0, 3)])
    doc["nodes"][0]["re"] = BAD_STATES["trace"].tolist()
    doc["nodes"][5]["im"] = [[0.0, "x"], [0.0, 0.0]]
    with pytest.raises(SchemaError) as exc:
        load_grid_model(doc)
    assert str(exc.value) == "nodes[5] has non-numeric matrix entries"
    doc["nodes"][5]["im"] = np.zeros((2, 2)).tolist()
    with pytest.raises(InvalidDensityAtNodeError) as exc:
        load_grid_model(doc)
    assert str(exc.value).startswith("node [0, 0]: trace differs from 1 by")
    # a JSON true is no node index, though Python's bool is an int
    doc["nodes"][3]["index"] = [True, 0]
    with pytest.raises(SchemaError) as exc:
        load_grid_model(doc)
    assert str(exc.value) == "nodes[3].index [True, 0] outside grid shape [3, 3]"


def test_loading_and_registering_a_grid_model_decomposes_nothing(monkeypatch):
    doc = export_grid_model(BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 6),
                                                     np.linspace(0.0, 6.0, 5)])
    calls = defaultdict(int)
    monkeypatch.setattr(states, "_eigh", counted(calls, "eigh", states._eigh))
    monkeypatch.setattr(states, "_eigvalsh", counted(calls, "eigvalsh", states._eigvalsh))
    assert load_grid_model(doc).certified  # so its lattice passes unchecked
    assert calls["eigh"] == 0
    assert calls["eigvalsh"] == len(states.chunks(30, 2))


def test_nan_hamiltonian_is_not_hermitian():
    model = ThermalModel(lambda point: np.full((2, 2), np.nan), 1.0, ("x",), ((0.0, 1.0),),
                         check=False)
    with pytest.raises(NotHermitianError) as exc:
        model.ground_state([0.5])
    assert str(exc.value) == "Hamiltonian not Hermitian: max|H - H^dag| = nan"


def test_an_uncertified_grid_model_checks_its_registration_lattice(monkeypatch):
    doc = export_grid_model(BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 6),
                                                     np.linspace(0.0, 6.0, 5)])
    calls = defaultdict(int)
    monkeypatch.setattr(models, "_certified", lambda values, residuals: False)
    monkeypatch.setattr(states, "_eigh", counted(calls, "eigh", states._eigh))
    monkeypatch.setattr(states, "_eigvalsh", counted(calls, "eigvalsh", states._eigvalsh))
    assert not load_grid_model(doc).certified
    assert calls["eigh"] == 0
    assert calls["eigvalsh"] == len(states.chunks(30, 2)) + len(states.chunks(25, 2))


def _grid_doc(rng, dim, grids):
    """Grid-model document of random full-rank nodes on the given axes."""
    nodes = []
    for idx in np.ndindex(*(len(g) for g in grids)):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a @ a.conj().T + 0.2 * np.eye(dim)
        m /= np.trace(m).real
        nodes.append({"index": list(idx), "re": m.real.tolist(), "im": m.imag.tolist()})
    return {"params": [{"name": f"x{d}", "grid": list(map(float, g))}
                       for d, g in enumerate(grids)], "nodes": nodes}


@settings(max_examples=40)
@given(dim=st.integers(2, 6), sizes=st.lists(st.integers(2, 4), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1), h=st.sampled_from([1e-5, 1e-3]))
def test_certified_grid_fields_are_the_checked_ones_bit_for_bit(dim, sizes, seed, h):
    # inside cells, on node lines and within h of them (the stencil crosses a
    # node line); the analytic fields take the states and their derivatives
    # from one corner gather, the checked ones from two
    rng = np.random.default_rng(seed)
    grids = [np.cumsum(rng.uniform(0.05, 1.0, size)) for size in sizes]
    model = load_grid_model(_grid_doc(rng, dim, grids))
    assert model.certified
    cols = []
    for g in grids:
        lines = rng.choice(g[1:-1], 6) if len(g) > 2 else np.full(6, 0.5 * (g[0] + g[1]))
        cols.append(np.concatenate([rng.uniform(g[0] + h, g[-1] - h, 6), lines,
                                    lines + rng.uniform(-h, h, 6)]))
    points = np.clip(np.column_stack(cols), [g[0] + h for g in grids], [g[-1] - h for g in grids])
    def fields():
        return (model.matrices_at(points), *msqgt_field(model, points, "central", h),
                *derivative_stack(model, points, "central", h),
                *msqgt_field(model, points, "analytic"), model.derivative_matrices_at(points))
    certified = fields()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "certified", False)
        checked = fields()
    assert all(np.array_equal(x, y) for x, y in zip(certified, checked))


EDGE_NODES = {
    "hermitian": np.array([[0.5, 1e-12], [0.0, 0.5]]),  # residual exactly CONSTRUCTION_TOL
    "psd": np.diag([1.0, 0.0]),  # lowest eigenvalue 0
}


@pytest.mark.parametrize("edge", sorted(EDGE_NODES))
def test_a_node_at_the_tolerance_edge_leaves_the_model_uncertified(monkeypatch, edge):
    doc = export_grid_model(BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 4),
                                                     np.linspace(0.0, 6.0, 3)])
    doc["nodes"][4]["re"], doc["nodes"][4]["im"] = EDGE_NODES[edge].tolist(), [[0.0] * 2] * 2
    assert states.density_violations(EDGE_NODES[edge]) == []
    calls = defaultdict(int)
    monkeypatch.setattr(states, "_eigvalsh", counted(calls, "eigvalsh", states._eigvalsh))
    monkeypatch.setattr(models, "check_density_stack",
                        counted(calls, "check", models.check_density_stack))
    model = load_grid_model(doc)
    assert not model.certified
    # the nodes and the registration lattice are checked, as stacks
    assert calls == {"eigvalsh": len(states.chunks(12, 2)) + len(states.chunks(25, 2)),
                     "check": len(states.chunks(12, 2)) + len(states.chunks(25, 2))}
    calls.clear()
    points = np.array([[1.0, 2.0], [2.5, 5.0]])
    derivative_stack(model, points)
    assert calls["check"] == 1  # the neighbours are checked


def test_an_uncertified_grid_model_names_the_first_failing_neighbour():
    doc = export_grid_model(BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 4),
                                                     np.linspace(0.0, 6.0, 3)])
    doc["nodes"][4]["re"] = np.diag([1.2, -0.2]).tolist()
    model = load_grid_model(doc, check=False, validate_nodes=False)
    assert not model.certified
    h = 1e-3
    points = np.array([[1.0, 2.0], [0.3 + 2.5 / 3, 3.0 + 0.5 * h]])

    def per_neighbour():
        for point in points:
            for nu in range(2):
                for side in (1.0, -1.0):
                    model.evaluate(point + side * h * np.eye(2)[nu])
    expected = _first_error(per_neighbour)
    assert expected is not None and expected[0] is NotPSDError
    assert _first_error(lambda: derivative_stack(model, points, h=h)) == expected


def _hermitian(mats):
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


@settings(max_examples=60)
@given(dim=st.integers(2, 6), sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
       kind=st.sampled_from(["certified", "uncertified", "renormalised"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_derivatives_are_the_limits_of_differences(dim, sizes, kind, seed):
    # the exact derivative is the central difference's limit inside cells and
    # on node lines, the mean of the two one-sided slopes on a node line, and
    # the one cell's slope at the edge; an uncertified model interpolates by
    # its per-corner loop, and a renormalised one takes the quotient rule
    rng = np.random.default_rng(seed)
    grids = [np.cumsum(rng.uniform(0.05, 1.0, size)) for size in sizes]
    model = load_grid_model(_grid_doc(rng, dim, grids))
    assert model.certified
    if kind != "certified":
        values = model.values.copy()
        if kind == "renormalised":  # every interpolant's trace drifts past 1e-12
            values *= 1.0 + rng.uniform(1e-9, 5e-7, values.shape[:-2] + (1, 1))
        model = GridModel(model.param_labels, grids, values, check=False)
    h = 1e-5
    tol = 100 * (h ** 2 + np.finfo(float).eps / h)
    # at least 5e-4 inside a cell on every axis
    inside = np.column_stack([
        g[cell] + rng.uniform(0.01, 0.99, 6) * (g[cell + 1] - g[cell])
        for g in grids for cell in [rng.integers(0, g.size - 1, 6)]])
    exact = derivative_stack(model, inside, "analytic")[0]
    assert np.abs(exact - derivative_stack(model, inside, "central", h)[0]).max() <= tol
    for nu, g in enumerate(grids):
        step = h * np.eye(len(grids))[nu]
        if g.size > 2:
            on_line = inside.copy()
            on_line[:, nu] = rng.choice(g[1:-1], len(inside))
            exact = derivative_stack(model, on_line, "analytic")[0]
            left = (model.matrices_at(on_line) - model.matrices_at(on_line - step)) / h
            right = (model.matrices_at(on_line + step) - model.matrices_at(on_line)) / h
            assert np.abs(exact[:, nu] - _hermitian(0.5 * (left + right))).max() <= tol
            assert np.abs(exact - derivative_stack(model, on_line, "central", h)[0]).max() <= tol
        for end, side in ((g[0], 1.0), (g[-1], -1.0)):
            at_edge = inside.copy()
            at_edge[:, nu] = end
            one_cell = side * (model.matrices_at(at_edge + side * step)
                               - model.matrices_at(at_edge)) / h
            exact = derivative_stack(model, at_edge, "analytic")[0]
            assert np.abs(exact[:, nu] - _hermitian(one_cell)).max() <= tol


@pytest.mark.parametrize("middle", [0.5, 0.3 + 5e-6])
def test_a_node_line_at_a_registration_probe_loads(middle):
    # the probes sit at 0.3, 0.5 and 0.7 of the domain: on the middle node of
    # a 3-node axis, or within h of it, where central differences see the kink
    rng = np.random.default_rng(71)
    grids = [np.array([0.0, middle, 1.0])]
    model = load_grid_model(_grid_doc(rng, 3, grids))
    assert model.certified
    GridModel(model.param_labels, grids, model.values, check=True)  # checks its lattice
    point = np.array([[middle]])
    exact = derivative_stack(model, point, "analytic")[0][0, 0]
    values = model.values
    slopes = (values[1] - values[0]) / middle, (values[2] - values[1]) / (1.0 - middle)
    assert np.abs(exact - _hermitian(0.5 * (slopes[0] + slopes[1]))).max() <= 1e-13
    within = derivative_stack(model, point - 5e-6, "analytic")[0][0, 0]
    assert np.abs(within - _hermitian(slopes[0])).max() <= 1e-13
    kink = np.abs(derivative_stack(model, point - 5e-6, "central")[0] - within).max()
    assert kink > 1e-3


def test_uncertified_analytic_field_sweep_gathers_each_chunk_once(monkeypatch):
    # an uncertified grid model's states and exact derivatives come from one
    # corner gather per chunk too; the density checks of the states are added
    monkeypatch.setattr(models, "_certified", lambda values, residuals: False)
    model = load_grid_model(export_grid_model(
        BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 7), np.linspace(0.0, 6.2, 7)]))
    assert not model.certified
    calls = defaultdict(int)
    monkeypatch.setattr(states, "_eigh", counted(calls, "eigh", states._eigh))
    monkeypatch.setattr(qgt, "derivative_stack", counted(calls, "central", qgt.derivative_stack))
    monkeypatch.setattr(GridModel, "_corners", counted(calls, "_corners", GridModel._corners))
    # 10 values per axis, none of them within 0.01 of a node line
    axes = np.linspace(0.4, 2.7, 10), np.linspace(0.1, 6.1, 10)
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    chunks = [points[i:i + 7] for i in range(0, len(points), 7)]
    for chunk in chunks:
        msqgt_field(model, chunk, "analytic")
    assert calls == {"eigh": len(chunks), "_corners": len(chunks)}
