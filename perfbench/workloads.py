"""Seeded inputs, command lines and output checks of the four workloads.

Each workload is one ``mixedqgt`` CLI command.  ``make_inputs`` writes the
files it needs from a seed, ``argv`` gives its command line at a named
size, and ``check`` reads the output file of one run and returns
the list of problems found (empty when the output is right).

Everything here runs in the benchmark process, outside the timed window.
The checks use closed forms or an independent route, never the code path
that produced the output.
"""

import csv
import json
import math
import os

import numpy as np

from mixedqgt import ThermalModel, export_grid_model, load_grid_model, matrix_to_json
from mixedqgt.qgt import msqgt_covariant_route

BLOCH_R = 0.9
DENSE_N = 64
DENSE_GRID_NODES = 6
DENSE_SAMPLE_ROWS = 4
# Central differences of the canonical lift err by O(h^2 / gap^2), and the
# N=64 spectra have eigenvalue gaps near 1e-5, where the default h = 1e-5 is
# off by up to 2e-5.  The reference differences at h and 2h and takes the
# Richardson limit (4 Q(h) - Q(2h)) / 3, within 1.1e-9 over seeds 100-129.
LIFT_STEPS = (1e-6, 2e-6)
STATE_N = 16
LOOP_VERTICES = 6
MIN_NODE_EIGENVALUE = 1e-6

QGT_TOL = 1e-9
ROUTE_TOL = 1e-7
UNITARITY_TOL = 1e-10
CONVERGENCE_TOL = 1e-4
FIDELITY_TOL = 1e-8
ODE_TOL = 1e-6


class PreconditionError(RuntimeError):
    """A seed produced inputs that break a workload's preconditions."""


def _rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# --- inputs -----------------------------------------------------------------

def make_grid_model(rng, path):
    """N=64 thermal family exp(-H)/Z, H = H0 + cos(x) H1 + sin(y) H2, tabulated 6x6."""
    h0, h1, h2 = (_rand_herm(rng, DENSE_N) / math.sqrt(DENSE_N) for _ in range(3))

    def hamiltonian(point):
        x, y = point
        return h0 + math.cos(x) * h1 + math.sin(y) * h2

    model = ThermalModel(hamiltonian, 1.0, ("x", "y"), ((0.0, 1.0), (0.0, 1.0)),
                         name="thermal-n64", check=False)
    grid = np.linspace(0.0, 1.0, DENSE_GRID_NODES)
    obj = export_grid_model(model, [grid, grid])
    worst = min(float(np.linalg.eigvalsh(np.array(n["re"]) + 1j * np.array(n["im"]))[0])
                for n in obj["nodes"])
    if worst <= MIN_NODE_EIGENVALUE:
        raise PreconditionError(
            f"grid model min node eigenvalue {worst:.3e} <= {MIN_NODE_EIGENVALUE:g}")
    return _write_json(path, obj)


def make_state(rng, path):
    """Full-rank N=16 Wishart state plus 0.5 I, normalized."""
    a = rng.standard_normal((STATE_N, STATE_N)) + 1j * rng.standard_normal((STATE_N, STATE_N))
    m = a @ a.conj().T + 0.5 * np.eye(STATE_N)
    m = 0.5 * (m + m.conj().T)
    return _write_json(path, matrix_to_json(m / np.trace(m).real))


def make_loop(rng, path):
    """Closed polygon in theta in [0.6, 2.5], phi in [0.2, 6.0]."""
    theta = rng.uniform(0.6, 2.5, LOOP_VERTICES)
    phi = rng.uniform(0.2, 6.0, LOOP_VERTICES)
    points = [[float(t), float(p)] for t, p in zip(theta, phi)]
    return _write_json(path, {"points": points + [points[0]]})


# --- workloads ----------------------------------------------------------------

class Workload:
    """One CLI workload: inputs, command lines, work-item count and checks.

    ``sizes`` maps "full" (the benchmark), "tiny" (smoke tests) and
    "minimal" (the set-up measurement) to the workload's size parameter.
    ``validate`` names the generated files ``mixedqgt validate`` must accept
    before anything is timed.
    """

    name = ""
    sizes = {}
    validate = ()

    def make_inputs(self, rng, workdir):
        return {}

    def items(self, size):
        return self.sizes[size]

    def steps(self, size):
        """Transport steps requested at this size (0 for workloads without any)."""
        return 0

    def argv(self, inputs, output, size):
        raise NotImplementedError

    def check(self, output, inputs, size):
        raise NotImplementedError


def _worst(deviations):
    """Largest deviation, or inf when any is not finite (``max`` would drop a NaN)."""
    deviations = list(deviations)
    return max(deviations) if all(map(math.isfinite, deviations)) else math.inf


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    for k, row in enumerate(rows, 1):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"non-finite value in row {k}")
    return header, rows


def _columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return [[row[i] for i in idx] for row in rows]


def _pair_names(labels):
    pairs = [(a, b) for a in range(len(labels)) for b in range(a, len(labels))]
    return ([f"re_Q_{labels[a]}_{labels[b]}" for a, b in pairs]
            + [f"im_Q_{labels[a]}_{labels[b]}" for a, b in pairs]), pairs


class FieldQubit(Workload):
    name = "field-qubit"
    sizes = {"full": 151, "tiny": 11, "minimal": 2}

    def items(self, size):
        return self.sizes[size] ** 2

    def argv(self, inputs, output, size):
        count = self.sizes[size]
        return ["field", "--model", "bloch", "--set", f"r={BLOCH_R}",
                "--grid", f"theta:0:3.14159:{count}", "--grid", f"phi:0:6.28318:{count}",
                "--output", output]

    def check(self, output, inputs, size):
        header, rows = _read_csv(output)
        if len(rows) != self.items(size):
            return [f"{len(rows)} rows, expected {self.items(size)}"]
        r = BLOCH_R
        names = ["theta", "re_Q_theta_theta", "re_Q_phi_phi", "im_Q_theta_phi"]
        deviations = []
        for theta, gtt, gpp, im_tp in _columns(header, rows, names):
            s = math.sin(theta)
            deviations += [abs(gtt - r * r / 4), abs(gpp - r * r * s * s / 4),
                           abs(im_tp - r ** 3 * s / 4)]
        worst = _worst(deviations)
        return [] if worst <= QGT_TOL else [f"closed-form deviation {worst:.3e} > {QGT_TOL:g}"]


class FieldDense(Workload):
    name = "field-dense"
    sizes = {"full": 21, "tiny": 3, "minimal": 2}
    validate = ("grid",)

    def items(self, size):
        return self.sizes[size] ** 2

    def make_inputs(self, rng, workdir):
        return {"grid": make_grid_model(rng, os.path.join(workdir, "grid_n64.json"))}

    def argv(self, inputs, output, size):
        count = self.sizes[size]
        return ["field", "--model", inputs["grid"],
                "--grid", f"x:0.01:0.99:{count}", "--grid", f"y:0.01:0.99:{count}",
                "--output", output]

    def check(self, output, inputs, size):
        header, rows = _read_csv(output)
        if len(rows) != self.items(size):
            return [f"{len(rows)} rows, expected {self.items(size)}"]
        problems = []
        residual = _worst(abs(v) for row in rows for v in row[-2:])
        if not residual <= QGT_TOL:
            problems.append(f"symmetry residual {residual:.3e} > {QGT_TOL:g}")
        if "model" not in inputs:
            inputs["model"] = load_grid_model(inputs["grid"], check=False)
        model = inputs["model"]
        labels = model.param_labels
        q_names, pairs = _pair_names(labels)
        step = max(1, len(rows) // DENSE_SAMPLE_ROWS)
        for row in _columns(header, rows, labels + q_names)[step // 2::step]:
            point, values = row[:len(labels)], row[len(labels):]
            fine, coarse = (msqgt_covariant_route(*model.lift_tangents(np.array(point), h=h))
                            .entries for h in LIFT_STEPS)
            q = (4 * fine - coarse) / 3
            expected = [q[a, b].real for a, b in pairs] + [q[a, b].imag for a, b in pairs]
            dev = _worst(abs(x - y) for x, y in zip(values, expected))
            if not dev <= ROUTE_TOL:
                problems.append(f"covariant route differs by {dev:.3e} at {point}")
        return problems


class HolonomyQubit(Workload):
    name = "holonomy-qubit"
    sizes = {"full": 8192, "tiny": 1024, "minimal": 2}

    def steps(self, size):
        return self.sizes[size]

    def make_inputs(self, rng, workdir):
        return {"loop": make_loop(rng, os.path.join(workdir, "loop.json"))}

    def argv(self, inputs, output, size):
        return ["holonomy", "--model", "bloch", "--set", f"r={BLOCH_R}",
                "--steps", str(self.sizes[size]), "--loop", inputs["loop"], "--output", output]

    def check(self, output, inputs, size):
        with open(output, encoding="utf-8") as fh:
            report = json.load(fh)
        problems = []
        if report["steps"] != self.sizes[size]:
            problems.append(f"steps {report['steps']} != requested {self.sizes[size]}")
        u = np.array(report["unitary_re"]) + 1j * np.array(report["unitary_im"])
        unitarity = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        if not unitarity <= UNITARITY_TOL:
            problems.append(f"max|U^dag U - I| = {unitarity:.3e} > {UNITARITY_TOL:g}")
        if not abs(complex(*report["mean_holonomy"])) <= 1.0:
            problems.append(f"|mean holonomy| > 1: {report['mean_holonomy']}")
        if not report["convergence_estimate"] <= CONVERGENCE_TOL:
            problems.append(
                f"convergence estimate {report['convergence_estimate']} > {CONVERGENCE_TOL:g}")
        return problems


def _sqrt_psd(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def bures_angle(path_a, path_b):
    """arccos of the fidelity, from the state files, without the package."""
    mats = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        mats.append(np.array(obj["re"]) + 1j * np.array(obj["im"]))
    sing = np.linalg.svd(_sqrt_psd(mats[0]) @ _sqrt_psd(mats[1]), compute_uv=False)
    return math.acos(min(float(sing.sum()), 1.0))


class GeodesicTrace(Workload):
    name = "geodesic-trace"
    sizes = {"full": 2001, "tiny": 21, "minimal": 2}
    validate = ("state_a", "state_b")

    def make_inputs(self, rng, workdir):
        inputs = {"state_a": make_state(rng, os.path.join(workdir, "state_a.json")),
                  "state_b": make_state(rng, os.path.join(workdir, "state_b.json"))}
        inputs["theta"] = bures_angle(inputs["state_a"], inputs["state_b"])
        return inputs

    def argv(self, inputs, output, size):
        return ["geodesic", "--state-a", inputs["state_a"], "--state-b", inputs["state_b"],
                "--format", "csv", "--samples", str(self.sizes[size]), "--output", output]

    def check(self, output, inputs, size):
        with open(output, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            tail = header[-3:]
            if header[0] != "t" or tail != ["fidelity_to_a", "fidelity_to_b", "ode_residual"]:
                return [f"unexpected columns {header[:1] + tail}"]
            rows = []
            for line in fh:
                fields = line.split(",")
                rows.append((float(fields[0]), *map(float, fields[-3:])))
        if len(rows) != self.items(size):
            return [f"{len(rows)} rows, expected {self.items(size)}"]
        problems = []
        theta = rows[-1][0]
        if not abs(theta - inputs["theta"]) <= FIDELITY_TOL:
            problems.append(f"last t {theta!r} != Bures angle {inputs['theta']!r}")
        fid = _worst(d for t, fa, fb, _ in rows
                     for d in (abs(fa - math.cos(t)), abs(fb - math.cos(theta - t))))
        if not fid <= FIDELITY_TOL:
            problems.append(f"fidelity deviates from cos by {fid:.3e} > {FIDELITY_TOL:g}")
        ode = _worst(r[3] for r in rows)
        if not ode <= ODE_TOL:
            problems.append(f"ode residual {ode:.3e} > {ODE_TOL:g}")
        return problems


WORKLOADS = {w.name: w for w in (FieldQubit(), FieldDense(), HolonomyQubit(), GeodesicTrace())}
