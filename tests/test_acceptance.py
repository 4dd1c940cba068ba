"""Acceptance gate: one test per numbered criterion, desk scale.

Each test computes its own evidence, reports a PASS/FAIL line through
``conftest.record_criterion`` (printed after the run) and then asserts.
Criteria 1-2 share their tensors with criterion 4, so those two suites
are cached helpers rather than inlined in the test bodies.
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict

import numpy as np

from mixedqgt import (
    BlochQubitModel,
    DensityMatrix,
    Purification,
    TangentVector,
    bures_angle,
    bures_metric,
    connection,
    connection_schmidt,
    derivatives,
    env_action,
    fidelity,
    finite_difference_tangent,
    gauge_conjugation_check,
    gauge_curvature,
    geodesic_point,
    geodesic_samples,
    holonomy,
    horizontal_lift,
    lift_fidelity_residuals,
    mean_curvature_part,
    msqgt_covariant_route,
    msqgt_eigenroute,
    path_length,
    purify,
    reference_lift,
    rotated_field_qubit,
    schmidt_curve_derivative,
    solve_geodesic,
    thermal_limit_sweep,
    verify_geodesic_ode,
)
from conftest import (
    rand_bloch_density,
    rand_density,
    rand_herm,
    rand_unitary,
    record_criterion,
    traceless_herm,
    unitary_orbit_curve,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

CLI = shutil.which("mixedqgt")


def run_cli(*args):
    cmd = [CLI] + list(args) if CLI else [sys.executable, "-m", "mixedqgt.cli"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True)


# ---------------------------------------------------------------------------
# suite 1: random linear families, metric vs fidelity expansion
# suite 2: Bloch grid, spectral route vs covariant route
# Both caches also feed the symmetry-law criterion.
# ---------------------------------------------------------------------------

_CACHE = {}


def _suite_metric_fidelity():
    if "suite1" in _CACHE:
        return _CACHE["suite1"]
    rng = np.random.default_rng(20250811)
    tensors = []
    rel_errors = []
    orders = []
    for n in (2, 3):
        for _ in range(25):
            rho0 = rand_density(rng, n, floor=0.25)
            deltas = [traceless_herm(rng, n, scale=0.15) for _ in range(2)]

            def rho_at(x):
                m = rho0.mat + x[0] * deltas[0] + x[1] * deltas[1]
                return DensityMatrix(m)

            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            errs = {}
            for step in (4e-3, 2e-3, 1e-3):
                dx = step * direction
                target = 2.0 - 2.0 * fidelity(rho_at([0.0, 0.0]), rho_at(dx))
                q = msqgt_eigenroute(rho_at(dx / 2), deltas)
                tensors.append(q)
                quad = float(dx @ bures_metric(q) @ dx)
                errs[step] = abs(target - quad)
                if step == 1e-3:
                    rel_errors.append(errs[step] / target)
            if errs[2e-3] > 1e-13:  # skip families already at the fp floor
                orders.append(np.log2(errs[4e-3] / errs[2e-3]))
    _CACHE["suite1"] = {
        "tensors": tensors,
        "max_rel": max(rel_errors),
        "orders": orders,
    }
    return _CACHE["suite1"]


def _suite_route_equivalence():
    if "suite2" in _CACHE:
        return _CACHE["suite2"]
    model = BlochQubitModel(r=0.9)
    thetas = np.linspace(0.05, np.pi - 0.05, 31)
    phis = np.linspace(0.0, 2 * np.pi, 31, endpoint=False)
    tensors = []
    worst = 0.0
    for theta in thetas:
        for phi in phis:
            point = np.array([theta, phi])
            rho = model.evaluate(point)
            q_eig = msqgt_eigenroute(rho, derivatives(model, point, "analytic"))
            psi, tangents = model.lift_tangents(point)
            q_cov = msqgt_covariant_route(psi, tangents)
            tensors.extend([q_eig, q_cov])
            worst = max(worst, float(np.max(np.abs(q_eig.entries - q_cov.entries))))
    _CACHE["suite2"] = {"tensors": tensors, "max_diff": worst}
    return _CACHE["suite2"]


def test_metric_matches_fidelity_expansion():
    suite = _suite_metric_fidelity()
    orders = suite["orders"]
    min_order = min(orders)
    ok = suite["max_rel"] < 1e-4 and min_order >= 2.9 and len(orders) >= 25
    detail = (f"max rel err {suite['max_rel']:.2e} (tol 1e-4) over 50 families;"
              f" min order {min_order:.2f} of {len(orders)} measured (need >= 2.9)")
    record_criterion(1, "metric-fidelity consistency", ok, detail)
    assert ok, detail


def test_eigenroute_and_covariant_route_agree():
    suite = _suite_route_equivalence()
    ok = suite["max_diff"] <= 1e-7
    detail = f"max |Q_eig - Q_cov| = {suite['max_diff']:.2e} on 31x31 grid (tol 1e-7)"
    record_criterion(2, "route equivalence", ok, detail)
    assert ok, detail


def test_connection_forms_agree():
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (2, 3):
        for _ in range(10):
            curve = unitary_orbit_curve(rng, n)

            def psi_curve(t):
                return purify(curve(t))

            t0 = float(rng.uniform(0.2, 0.8))
            psi = psi_curve(t0)
            tangent = finite_difference_tangent(psi_curve, t0, h=1e-5)
            a_global = connection(psi, tangent)
            sd, dsd = schmidt_curve_derivative(psi_curve, t0, h=1e-5)
            a_schmidt = connection_schmidt(sd, dsd)
            worst = max(worst, float(np.max(np.abs(a_global.mat - a_schmidt.mat))))
    ok = worst <= 1e-5
    detail = f"max |A_global - A_schmidt| = {worst:.2e} at 20 curve points (tol 1e-5)"
    record_criterion(3, "connection equivalence", ok, detail)
    assert ok, detail


def test_tensor_symmetry_laws():
    tensors = _suite_metric_fidelity()["tensors"] + _suite_route_equivalence()["tensors"]
    sym = max(q.sym_residual for q in tensors)
    antisym = max(q.antisym_residual for q in tensors)
    imdiag = max(float(np.max(np.abs(np.diag(q.entries.imag)))) for q in tensors)
    ok = sym < 1e-9 and antisym < 1e-9 and imdiag <= 1e-12
    detail = (f"{len(tensors)} tensors: sym(Re) {sym:.2e}, antisym(Im) {antisym:.2e}"
              f" (tol 1e-9); max |Im Q_mumu| {imdiag:.1e} (tol 1e-12)")
    record_criterion(4, "symmetry laws", ok, detail)
    assert ok, detail


def test_imaginary_part_is_mean_gauge_curvature():
    model = BlochQubitModel(r=0.9)
    field = model.connection_field()
    worst = 0.0
    imag_leak = 0.0
    for theta in np.linspace(0.5, 2.6, 5):
        for phi in (0.9, 4.1):
            point = np.array([theta, phi])
            q = msqgt_eigenroute(model.evaluate(point), derivatives(model, point, "analytic"))
            t_field = gauge_curvature(field, point)
            sigma = t_field.expectation(model.lift(point))
            worst = max(worst, float(np.max(np.abs(sigma.real - mean_curvature_part(q)))))
            imag_leak = max(imag_leak, float(np.max(np.abs(sigma.imag))))
    ok = worst <= 1e-6 and imag_leak <= 1e-9
    detail = f"max |Im Q - <T>/2| = {worst:.2e} at 10 grid points (tol 1e-6)"
    record_criterion(5, "mean-curvature identity", ok, detail)
    assert ok, detail


def test_thermal_sweep_reaches_pure_tensor():
    model = rotated_field_qubit(beta=1.0, gap=0.5)
    res = thermal_limit_sweep(model, [1.2, 0.8], [1.0, 5.0, 10.0, 20.0, 40.0])
    devs = res.deviations
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    ok = (res.truncated_at is None and len(devs) == 5
          and decreasing and devs[-1] < 1e-4)
    detail = (f"deviations {', '.join(f'{d:.2e}' for d in devs)};"
              f" strictly decreasing={decreasing}; final < 1e-4")
    record_criterion(6, "pure-state limit", ok, detail)
    assert ok, detail


def test_geodesic_properties():
    rng = np.random.default_rng(4242)
    ortho = endpoint = length_err = ode = 0.0
    pairs = 0
    while pairs < 20:
        rho_a = rand_bloch_density(rng)
        rho_b = rand_bloch_density(rng)
        theta = bures_angle(rho_a, rho_b)
        if not 0.1 < theta < 1.4:
            continue
        pairs += 1
        sol = solve_geodesic(rho_a, rho_b)
        ortho = max(ortho,
                    abs(sol.psi0.overlap(sol.psi_quarter)),
                    abs(np.linalg.norm(sol.psi0.amplitudes) - 1.0),
                    abs(np.linalg.norm(sol.psi_quarter.amplitudes) - 1.0))
        endpoint = max(endpoint,
                       float(np.max(np.abs(geodesic_point(sol, 0.0).mat - rho_a.mat))),
                       float(np.max(np.abs(geodesic_point(sol, sol.theta).mat - rho_b.mat))))
        times = np.linspace(0.0, sol.theta, 201)
        length = path_length(geodesic_samples(sol, times), times)
        length_err = max(length_err, abs(length - theta))
        report = verify_geodesic_ode(sol, np.linspace(0.1 * sol.theta, 0.9 * sol.theta, 7))
        ode = max(ode, report.max_accel_residual, report.max_speed_error,
                  report.max_connection_entry)

    ellipse_dev = 0.0
    for r in (0.3, 0.6, 1.0):
        def family(t):
            m = 0.5 * (np.eye(2) + np.sin(2 * t) * SX + r * np.cos(2 * t) * SZ)
            return DensityMatrix(m)

        sol = solve_geodesic(family(0.0), family(0.55), require_full_rank=r < 1.0)
        for t in np.linspace(0.0, sol.theta, 181):
            m = geodesic_point(sol, t).mat
            x = float(2 * m[0, 1].real)
            z = float((m[0, 0] - m[1, 1]).real)
            ellipse_dev = max(ellipse_dev, abs(x ** 2 + (z / r) ** 2 - 1.0))

    ok = (ortho < 1e-8 and endpoint < 1e-8 and length_err < 1e-6
          and ode < 1e-6 and ellipse_dev < 1e-6)
    detail = (f"20 pairs: decomposition residual {ortho:.1e}, endpoints {endpoint:.1e}"
              f" (tol 1e-8); length err {length_err:.1e}, ODE {ode:.1e},"
              f" ellipse dev {ellipse_dev:.1e} (tol 1e-6)")
    record_criterion(7, "geodesic laws", ok, detail)
    assert ok, detail


def test_horizontal_lift_saturates_fidelity():
    rng = np.random.default_rng(909)
    times = np.linspace(0.0, 1.0, 2001)
    worst = 0.0
    for n in (2, 2, 2, 3, 3):
        curve = unitary_orbit_curve(rng, n)
        lift = horizontal_lift(reference_lift(curve, times))
        worst = max(worst, float(lift_fidelity_residuals(lift).max()))
    ok = worst < 1e-8
    detail = f"max per-step | |<psi_k|psi_k+1>| - F | = {worst:.2e} over 5 curves (tol 1e-8)"
    record_criterion(8, "horizontal lift fidelity", ok, detail)
    assert ok, detail


def test_holonomy_laws():
    rng = np.random.default_rng(31415)
    loop = unitary_orbit_curve(rng, 2)

    conj = invariance = 0.0
    for _ in range(10):
        u0 = rand_unitary(rng, 2)
        report = gauge_conjugation_check(loop, u0, steps=256, convergence_check=False)
        conj = max(conj, report.unitary_residual)
        invariance = max(invariance, report.mean_residual)

    def retraced(t):
        return loop(2 * t if t <= 0.5 else 2.0 - 2 * t)

    retrace_dev = abs(holonomy(retraced, steps=512, convergence_check=False).mean_holonomy - 1.0)

    means = {n: holonomy(loop, steps=n, convergence_check=False).mean_holonomy
             for n in (256, 512, 1024, 16384)}
    errs = [abs(means[n] - means[16384]) for n in (256, 512, 1024)]
    orders = [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
    min_order = min(orders)

    ok = (conj < 1e-7 and invariance < 1e-8 and retrace_dev < 1e-6
          and min_order >= 1.9)
    detail = (f"conjugation {conj:.1e} (tol 1e-7), invariance {invariance:.1e}"
              f" (tol 1e-8), retrace {retrace_dev:.1e} (tol 1e-6);"
              f" orders {orders[0]:.2f}, {orders[1]:.2f}")
    record_criterion(9, "holonomy laws", ok, detail)
    assert ok, detail


def test_covariant_route_gauge_invariant():
    rng = np.random.default_rng(606)
    model = BlochQubitModel(r=0.9)
    psi, tangents = model.lift_tangents(np.array([1.1, 0.7]))
    base = msqgt_covariant_route(psi, tangents).entries
    n = 2

    def env_on_vec(vec, op):
        return (vec.reshape(n, n) @ op.T).ravel()

    worst = 0.0
    for _ in range(10):
        u0 = rand_unitary(rng, n)
        dus = [1j * rand_herm(rng, n) @ u0 for _ in range(2)]
        psi_g = Purification(env_action(psi, u0))
        tangents_g = [
            TangentVector(psi_g, env_on_vec(tv.components, u0)
                          + env_on_vec(psi.amplitudes, dus[mu]))
            for mu, tv in enumerate(tangents)
        ]
        q_g = msqgt_covariant_route(psi_g, tangents_g).entries
        worst = max(worst, float(np.max(np.abs(q_g - base))))
    ok = worst <= 1e-7
    detail = f"max tensor change {worst:.2e} under 10 smooth gauges (tol 1e-7)"
    record_criterion(10, "gauge invariance of the tensor", ok, detail)
    assert ok, detail


def test_field_output_phi_independent(tmp_path):
    out = tmp_path / "field.csv"
    r = run_cli("field", "--model", "bloch", "--set", "r=0.9",
                "--grid", "theta:0.05:3.0915926535:13", "--grid", "phi:0:6.283:8",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    import csv

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_theta = defaultdict(list)
    for row in rows:
        by_theta[row["theta"]].append(row)
    spread = 0.0
    for group in by_theta.values():
        for key in group[0]:
            if key in ("theta", "phi"):
                continue
            vals = [float(g[key]) for g in group]
            spread = max(spread, max(vals) - min(vals))
    ok = spread < 1e-8
    detail = f"max per-theta-row spread over phi = {spread:.2e} (tol 1e-8)"
    record_criterion(11, "phi-independence", ok, detail)
    assert ok, detail


def test_cli_runs_deterministic(tmp_path):
    field_args = ("field", "--model", "bloch", "--set", "r=0.9", "--seed", "3",
                  "--grid", "theta:0.3:2.8:5", "--grid", "phi:0:6.0:4")
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run_cli(*field_args, "--output", str(a)).returncode == 0
    assert run_cli(*field_args, "--output", str(b)).returncode == 0
    assert run_cli(*field_args, "--output", str(c), "--workers", "4").returncode == 0

    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(
        {"points": [[0.8, 0.0], [0.8, 2.0], [1.6, 2.0], [1.6, 0.0], [0.8, 0.0]]}))
    hol_args = ("holonomy", "--model", "bloch", "--loop", str(loop),
                "--steps", "128", "--seed", "3")
    ha, hb = tmp_path / "ha.json", tmp_path / "hb.json"
    assert run_cli(*hol_args, "--output", str(ha)).returncode == 0
    assert run_cli(*hol_args, "--output", str(hb)).returncode == 0

    ok = (a.read_bytes() == b.read_bytes() == c.read_bytes()
          and ha.read_bytes() == hb.read_bytes())
    detail = "field csv (rerun + 4 workers) and holonomy json reruns byte-identical"
    record_criterion(12, "determinism", ok, detail)
    assert ok, detail
