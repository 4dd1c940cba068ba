"""Parametrized density-matrix families and the grid-model interchange format.

A model family is a validated map from a box-shaped parameter domain to
density matrices, optionally with analytic derivatives and an analytic
purification lift.  Families are plain picklable objects so grid sweeps
can fan out over processes.

Registration (construction with ``check=True``) probes a 5-per-axis
lattice of the domain for validity and, when analytic derivatives are
declared, cross-checks them against central finite differences.
"""

import json
from functools import partial

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidDensityAtNodeError,
    NoAnalyticDerivativesError,
    NotHermitianError,
    OutOfDomainError,
    SchemaError,
    ValidationError,
)
from .states import (DensityMatrix, Purification, check_density_stack, check_finite,
                     complex_matrix, fix_phase, purify)
from .bundle import TangentVector, connection

DEFAULT_FD_STEP = 1e-5


class ModelFamily:
    """Base class: named family over a box domain.

    Subclasses implement ``matrix_at`` and may provide
    ``analytic_derivative_matrices`` (setting ``analytic = True``) and an
    analytic ``lift``/``lift_tangents`` pair.  ``matrices_at`` and
    ``derivative_matrices_at`` are their batched forms over (K, n) stacks of
    points; by default they stack the per-point results.
    """

    analytic = False

    def __init__(self, name, param_labels, domain, check=True, fd_step=DEFAULT_FD_STEP):
        self.name = str(name)
        self.param_labels = [str(s) for s in param_labels]
        domain = [(float(lo), float(hi)) for lo, hi in domain]
        if len(domain) != len(self.param_labels):
            raise DimensionMismatchError(
                f"{len(self.param_labels)} labels but {len(domain)} domain intervals"
            )
        for lbl, (lo, hi) in zip(self.param_labels, domain):
            if not hi > lo:
                raise ValidationError(f"domain for {lbl} is empty: [{lo}, {hi}]")
        self.domain = domain
        if check:
            self._registration_check(fd_step)

    @property
    def n_params(self):
        return len(self.param_labels)

    # --- subclass surface -------------------------------------------------
    def matrix_at(self, point):
        raise NotImplementedError

    def analytic_derivative_matrices(self, point):
        raise NoAnalyticDerivativesError(
            f"family {self.name!r} declares no analytic derivatives"
        )

    # --- public API ---------------------------------------------------------
    def check_point(self, point, margin=0.0):
        point = np.asarray(point, dtype=float).ravel()
        if point.size != self.n_params:
            raise DimensionMismatchError(
                f"point has {point.size} coordinates, family needs {self.n_params}"
            )
        for x, lbl, (lo, hi) in zip(point, self.param_labels, self.domain):
            if not lo + margin <= x <= hi - margin:
                raise OutOfDomainError(
                    f"{lbl} = {float(x)!r} outside [{lo + margin}, {hi - margin}]"
                    + (f" (margin {margin:g})" if margin else "")
                )
        return point

    def check_points(self, points, margin=0.0):
        """``check_point`` over a (K, n) stack; the first point outside raises."""
        if np.ndim(points) != 2 or np.shape(points)[1] != self.n_params:
            raise DimensionMismatchError(
                f"points must have shape (K, {self.n_params}), got {np.shape(points)}")
        lo, hi = np.array(self.domain).T
        inside = ((points >= lo + margin) & (points <= hi - margin)).all(axis=1)
        if not inside.all():
            self.check_point(points[(~inside).argmax()], margin)
        return points

    def matrices_at(self, points):
        return np.array([self.matrix_at(p) for p in points], dtype=complex)

    def derivative_matrices_at(self, points):
        return np.array([self.analytic_derivative_matrices(p) for p in points], dtype=complex)

    def evaluate(self, point):
        point = self.check_point(point)
        return DensityMatrix(self.matrix_at(point))

    @property
    def has_analytic_derivatives(self):
        return bool(self.analytic)

    def analytic_derivatives(self, point):
        return derivatives(self, point, scheme="analytic")

    def lift(self, point):
        """Purification of the state at ``point`` (canonical by default)."""
        return purify(self.evaluate(point))

    def lift_tangents(self, point, h=DEFAULT_FD_STEP):
        """(psi, [d_nu psi]) for the family's lift, by central differences.

        The default relies on the canonical lift being smooth in the
        chart, which holds away from spectral degeneracies and phase
        branch points; analytic families override this.
        """
        point = self.check_point(point, margin=h)
        psi = self.lift(point)
        tangents = []
        for nu in range(self.n_params):
            offset = np.zeros(self.n_params)
            offset[nu] = h
            comp = (self.lift(point + offset).amplitudes
                    - self.lift(point - offset).amplitudes) / (2 * h)
            tangents.append(TangentVector(psi, comp))
        return psi, tangents

    def connection_field(self, h=DEFAULT_FD_STEP):
        """Chart point -> list of connection operators of the family lift."""
        def field(point):
            psi, tangents = self.lift_tangents(point, h=h)
            return list(connection(psi, np.array([t.matrix for t in tangents])).mat)
        return field

    # --- registration -------------------------------------------------------
    def _registration_check(self, fd_step, derivative_tol_factor=10.0):
        axes = [np.linspace(lo, hi, 5) for lo, hi in self.domain]
        for idx in np.ndindex(*(5,) * self.n_params):
            self.evaluate([axes[d][i] for d, i in enumerate(idx)])
        if not self.analytic:
            return
        tol = derivative_tol_factor * fd_step ** 2
        for frac in (0.3, 0.5, 0.7):
            point = np.array([lo + frac * (hi - lo) for lo, hi in self.domain])
            exact = self.analytic_derivatives(point)
            approx = derivatives(self, point, scheme="central", h=fd_step)
            worst = max(float(np.max(np.abs(e - a))) for e, a in zip(exact, approx))
            if worst > tol:
                raise ValidationError(
                    f"family {self.name!r}: analytic derivatives deviate from"
                    f" central differences by {worst:.3e} > {tol:.1e}"
                )

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, params={self.param_labels})"


class ChartLoop:
    """Piecewise-linear path through chart vertices as a base curve on [0, 1].

    Vertex k sits at t = k / S for S = len(vertices) - 1, and t is clipped
    to [0, 1].  ``loop(t)`` is the validated state at one t;
    ``loop.stack(times)`` gives the (K, N, N) matrices at many t, after one
    domain check of all their chart points (the first one outside raises).
    """

    def __init__(self, model, vertices):
        self.model = model
        self.vertices = np.asarray(vertices, dtype=float)

    def points(self, times):
        """Chart points at one t or at an array of t."""
        segs = len(self.vertices) - 1
        s = np.clip(np.asarray(times, dtype=float), 0.0, 1.0) * segs
        k = np.minimum(s.astype(int), segs - 1)
        frac = (s - k)[..., None]
        return (1 - frac) * self.vertices[k] + frac * self.vertices[k + 1]

    def __call__(self, t):
        return self.model.evaluate(self.points(t))

    def stack(self, times):
        return self.model.matrices_at(self.model.check_points(self.points(times)))


def derivatives(model, point, scheme="central", h=DEFAULT_FD_STEP, return_residual=False):
    """Parameter derivatives of the family's density matrix.

    scheme "analytic" uses the family formulas; "central" uses symmetric
    differences of step ``h`` (the point must then be interior to the
    domain by at least ``h``).  Central-difference results are Hermitized
    with the worst discarded asymmetry optionally returned.
    """
    point = model.check_point(point, margin=h if scheme == "central" else 0.0)
    mats, worst = derivative_stack(model, point[None], scheme, h)
    mats = list(mats[0])
    return (mats, float(worst[0])) if return_residual else mats


def derivative_stack(model, points, scheme="central", h=DEFAULT_FD_STEP):
    """``derivatives`` at a (K, n) stack of points, with the worst discarded
    asymmetry of each point; all 2n central-difference neighbours of every
    point are evaluated and validated as one stack."""
    if scheme == "analytic":
        if not model.analytic:
            raise NoAnalyticDerivativesError(
                f"family {model.name!r} declares no analytic derivatives")
        return model.derivative_matrices_at(model.check_points(points)), np.zeros(len(points))
    if scheme != "central":
        raise ValidationError(f"unknown derivative scheme {scheme!r}")
    model.check_points(points, margin=h)
    steps = h * np.eye(points.shape[1])
    # neighbour (k, nu, side) is points[k] + h e_nu (side 0) or - h e_nu (side 1)
    neighbours = points[:, None, None, :] + np.stack([steps, -steps], axis=1)
    mats = model.matrices_at(model.check_points(neighbours.reshape(-1, points.shape[1])))
    check_density_stack(mats, vectors=False)
    mats = mats.reshape(*neighbours.shape[:3], *mats.shape[-2:])
    diff = (mats[:, :, 0] - mats[:, :, 1]) / (2 * h)
    dag = diff.conj().swapaxes(-1, -2)
    worst = np.abs(diff - dag).max(axis=(1, 2, 3))
    return 0.5 * (diff + dag), worst


def _pauli(w, x, y, z):
    """w I + x sigma_x + y sigma_y + z sigma_z over real arrays of shape S: S + (2, 2)."""
    out = np.empty(np.shape(x) + (2, 2), dtype=complex)
    out[..., 0, 0] = w + z
    out[..., 0, 1] = x - 1j * y
    out[..., 1, 0] = x + 1j * y
    out[..., 1, 1] = w - z
    return out


def _bloch_axis(theta, phi):
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


def _bloch_derivatives(point, scale):
    """d_theta, d_phi of scale n(theta, phi) . sigma / 2 at (..., 2) points, on axis -3."""
    theta, phi = point[..., 0], point[..., 1]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return 0.5 * scale * np.stack([_pauli(0.0, ct * cp, ct * sp, -st),
                                   _pauli(0.0, -st * sp, st * cp, 0.0)], axis=-3)


class BlochQubitModel(ModelFamily):
    """Qubit family (I + r n(theta, phi) . sigma)/2 of fixed radius r.

    The chart is the polar one: theta in [0, pi], phi in [0, 2 pi].  The
    lift and its tangents are analytic (spectral purification with the
    leading component of each eigenvector held real positive), valid away
    from the poles where phi degenerates.
    """

    analytic = True

    def __init__(self, r=0.9, check=True):
        r = float(r)
        if not 0.0 < r <= 1.0:
            raise ValidationError(f"Bloch radius must be in (0, 1], got {r!r}")
        self.r = r
        super().__init__("bloch-qubit", ("theta", "phi"),
                         ((0.0, np.pi), (0.0, 2 * np.pi)), check=check)

    # the formulas below broadcast over (K, 2) stacks of chart points
    def matrix_at(self, point):
        x, y, z = _bloch_axis(point[..., 0], point[..., 1])
        return 0.5 * _pauli(1.0, self.r * x, self.r * y, self.r * z)

    def analytic_derivative_matrices(self, point):
        return _bloch_derivatives(point, self.r)

    def matrices_at(self, points):
        return self.matrix_at(points)

    def derivative_matrices_at(self, points):
        return self.analytic_derivative_matrices(points)

    def _spectral_frame(self, theta, phi):
        half = 0.5 * theta
        phase = np.exp(1j * phi)
        xi0 = np.array([np.cos(half), phase * np.sin(half)])
        xi1 = np.array([np.sin(half), -phase * np.cos(half)])
        p = np.array([(1 + self.r) / 2, (1 - self.r) / 2])
        return p, xi0, xi1

    def lift(self, point):
        theta, phi = self.check_point(point)
        p, xi0, xi1 = self._spectral_frame(theta, phi)
        w = np.column_stack([np.sqrt(p[0]) * xi0, np.sqrt(p[1]) * xi1])
        return Purification.from_matrix(w)

    def lift_tangents(self, point, h=DEFAULT_FD_STEP):
        theta, phi = self.check_point(point)
        p, xi0, xi1 = self._spectral_frame(theta, phi)
        half = 0.5 * theta
        phase = np.exp(1j * phi)
        d_theta0 = 0.5 * np.array([-np.sin(half), phase * np.cos(half)])
        d_theta1 = 0.5 * np.array([np.cos(half), phase * np.sin(half)])
        d_phi0 = np.array([0.0, 1j * phase * np.sin(half)])
        d_phi1 = np.array([0.0, -1j * phase * np.cos(half)])
        psi = self.lift(point)
        sq = np.sqrt(p)
        tangents = [
            TangentVector(psi, np.column_stack([sq[0] * d_theta0, sq[1] * d_theta1]).ravel()),
            TangentVector(psi, np.column_stack([sq[0] * d_phi0, sq[1] * d_phi1]).ravel()),
        ]
        return psi, tangents


def _check_hermitian(mat, what, tol=1e-10):
    mat = np.asarray(mat, dtype=complex)
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if asym > tol:
        raise NotHermitianError(f"{what} not Hermitian: max|H - H^dag| = {asym:.3e}")
    return mat


class ThermalModel(ModelFamily):
    """Gibbs family rho = exp(-beta H(x)) / Z(x) of a Hamiltonian map.

    ``hamiltonian`` maps a chart point to a Hermitian matrix;
    ``d_hamiltonian``, if given, maps a point to the list of its parameter
    derivatives and enables the analytic density derivatives (exact
    Frechet derivative of the matrix exponential via first divided
    differences of exp(-beta E) in the instantaneous eigenbasis).
    """

    def __init__(self, hamiltonian, beta, param_labels, domain,
                 d_hamiltonian=None, name="thermal", check=True):
        beta = float(beta)
        if beta <= 0:
            raise ValidationError(f"inverse temperature must be positive, got {beta!r}")
        self.hamiltonian = hamiltonian
        self.d_hamiltonian = d_hamiltonian
        self.beta = beta
        self.analytic = d_hamiltonian is not None
        super().__init__(name, param_labels, domain, check=check)

    def _spectrum(self, point):
        h = _check_hermitian(self.hamiltonian(np.asarray(point, dtype=float)),
                             "Hamiltonian")
        energies, vecs = np.linalg.eigh(h)
        return energies - energies[0], vecs

    def matrix_at(self, point):
        shifted, vecs = self._spectrum(point)
        weights = np.exp(-self.beta * shifted)
        weights /= weights.sum()
        return (vecs * weights) @ vecs.conj().T

    def analytic_derivative_matrices(self, point):
        point = np.asarray(point, dtype=float)
        shifted, vecs = self._spectrum(point)
        boltz = np.exp(-self.beta * shifted)
        z = boltz.sum()
        rho = (vecs * (boltz / z)) @ vecs.conj().T
        # First divided differences of exp(-beta E) on the shifted spectrum;
        # the overall exp(-beta E_min) scale cancels between dX and Z.  The
        # difference is taken from the smaller energy so the expm1 argument
        # stays nonpositive and nothing overflows at large beta.
        gaps = np.abs(shifted[None, :] - shifted[:, None])
        lo = np.minimum(shifted[:, None], shifted[None, :])
        small = gaps < 1e-13
        safe = np.where(small, 1.0, gaps)
        table = np.exp(-self.beta * lo) * np.expm1(-self.beta * safe) / safe
        table[small] = (-self.beta * np.exp(-self.beta * lo))[small]
        out = []
        for dh in self.d_hamiltonian(point):
            dh = _check_hermitian(dh, "Hamiltonian derivative")
            dh_tilde = vecs.conj().T @ dh @ vecs
            dx = vecs @ (table * dh_tilde) @ vecs.conj().T
            out.append((dx - rho * np.trace(dx).real) / z)
        return out

    def ground_state(self, point, gap_tol=1e-12):
        """Phase-fixed ground eigenvector of H(point)."""
        shifted, vecs = self._spectrum(self.check_point(point))
        if len(shifted) > 1 and shifted[1] < gap_tol:
            raise DegenerateSpectrumError(
                f"ground gap {shifted[1]:.3e} < {gap_tol:.1e}: ground state undefined"
            )
        return fix_phase(vecs[:, 0])

    def with_beta(self, beta):
        """Same Hamiltonian family at a different inverse temperature."""
        return ThermalModel(self.hamiltonian, beta, self.param_labels, self.domain,
                            d_hamiltonian=self.d_hamiltonian, name=self.name,
                            check=False)


def _rotated_field_h(point, gap):
    return 0.5 * gap * _pauli(1.0, *_bloch_axis(point[0], point[1]))


def _rotated_field_dh(point, gap):
    return list(_bloch_derivatives(point, gap))


def rotated_field_qubit(beta, gap=0.5, check=True):
    """Thermal qubit with Hamiltonian gap * (I + n(theta, phi) . sigma)/2.

    The spectrum is {0, gap} everywhere, so only the eigenframe turns with
    the chart point; the zero-temperature limit is the ground-state family
    of the rotated field.
    """
    gap = float(gap)
    if gap <= 0:
        raise ValidationError(f"field gap must be positive, got {gap!r}")
    return ThermalModel(
        partial(_rotated_field_h, gap=gap), beta, ("theta", "phi"),
        ((0.0, np.pi), (0.0, 2 * np.pi)),
        d_hamiltonian=partial(_rotated_field_dh, gap=gap),
        name="thermal-qubit", check=check,
    )


# --- grid-model interchange ---------------------------------------------------

def export_grid_model(model, grids, path=None):
    """Tabulate a family on a rectangular grid as a JSON-ready object.

    ``grids`` is one strictly increasing 1-D array per parameter, in
    chart order.  Nodes are emitted in C order of their multi-indices.
    """
    grids = [np.asarray(g, dtype=float).ravel() for g in grids]
    if len(grids) != model.n_params:
        raise DimensionMismatchError(
            f"{len(grids)} grids for a {model.n_params}-parameter family"
        )
    for lbl, g in zip(model.param_labels, grids):
        if g.size < 2 or np.any(np.diff(g) <= 0):
            raise ValidationError(f"grid for {lbl} must be strictly increasing, >= 2 points")
    nodes = []
    for idx in np.ndindex(*(g.size for g in grids)):
        point = [grids[d][i] for d, i in enumerate(idx)]
        mat = model.evaluate(point).mat
        nodes.append({
            "index": list(idx),
            "re": mat.real.tolist(),
            "im": mat.imag.tolist(),
        })
    obj = {
        "params": [{"name": lbl, "grid": g.tolist()}
                   for lbl, g in zip(model.param_labels, grids)],
        "nodes": nodes,
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(obj, fh)
    return obj


class GridModel(ModelFamily):
    """Family defined by multilinear interpolation of tabulated nodes.

    Interpolation preserves Hermiticity and positivity (convex weights);
    the trace may drift, so it is renormalized when within 1e-6 of one and
    rejected beyond that.
    """

    analytic = False

    def __init__(self, param_names, grids, values, name="grid-model", check=True):
        self.grids = [np.asarray(g, dtype=float) for g in grids]
        self.values = np.asarray(values, dtype=complex)
        domain = [(g[0], g[-1]) for g in self.grids]
        super().__init__(name, param_names, domain, check=check)

    def matrix_at(self, point):
        weights = []
        cells = []
        for x, g in zip(point, self.grids):
            hi = int(np.clip(np.searchsorted(g, x), 1, g.size - 1))
            lo = hi - 1
            cells.append((lo, hi))
            weights.append((g[hi] - x) / (g[hi] - g[lo]))
        dim = self.values.shape[-1]
        mat = np.zeros((dim, dim), dtype=complex)
        for corner in np.ndindex(*(2,) * len(cells)):
            w = 1.0
            idx = []
            for d, side in enumerate(corner):
                w *= weights[d] if side == 0 else 1.0 - weights[d]
                idx.append(cells[d][side])
            if w:
                mat += w * self.values[tuple(idx)]
        trace = float(np.trace(mat).real)
        drift = abs(trace - 1.0)
        if drift > 1e-6:
            raise ValidationError(
                f"interpolated trace drifts by {drift:.3e} > 1e-6 at {list(point)}"
            )
        if drift > 1e-12:
            mat = mat / trace
        return mat


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def load_grid_model(source, name="grid-model", check=True, validate_nodes=True):
    """Parse and validate a grid model from a path, file object, or dict.

    Schema errors (malformed document) raise SchemaError; a node that
    parses but is not a density matrix raises InvalidDensityAtNodeError
    naming the offending index.  ``validate_nodes=False`` skips the
    per-node density check (used by reporting tools that want to collect
    every violation instead of stopping at the first).
    """
    if isinstance(source, dict):
        obj = source
    elif hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source) as fh:
            obj = json.load(fh)

    _require(isinstance(obj, dict), "top level must be an object")
    _require(set(obj) == {"params", "nodes"},
             f"top-level keys must be params/nodes, got {sorted(obj)}")
    params = obj["params"]
    _require(isinstance(params, list) and params, "params must be a non-empty list")
    names, grids = [], []
    for k, entry in enumerate(params):
        _require(isinstance(entry, dict) and set(entry) == {"name", "grid"},
                 f"params[{k}] must have exactly name/grid")
        _require(isinstance(entry["name"], str), f"params[{k}].name must be a string")
        grid = entry["grid"]
        _require(isinstance(grid, list) and len(grid) >= 2,
                 f"params[{k}].grid must list >= 2 values")
        try:
            grid = np.asarray(grid, dtype=float)
        except (TypeError, ValueError):
            raise SchemaError(f"params[{k}].grid has non-numeric entries") from None
        _require(bool(np.isfinite(grid).all()), f"params[{k}].grid has non-finite entries")
        _require(bool(np.all(np.diff(grid) > 0)),
                 f"params[{k}].grid must be strictly increasing")
        names.append(entry["name"])
        grids.append(grid)

    shape = tuple(g.size for g in grids)
    nodes = obj["nodes"]
    expected = int(np.prod(shape))
    _require(isinstance(nodes, list), "nodes must be a list")
    _require(len(nodes) == expected,
             f"expected {expected} nodes for grid shape {shape}, got {len(nodes)}")
    values = None
    seen = np.zeros(shape, dtype=bool)
    for k, node in enumerate(nodes):
        _require(isinstance(node, dict) and set(node) == {"index", "re", "im"},
                 f"nodes[{k}] must have exactly index/re/im")
        idx = node["index"]
        _require(isinstance(idx, list) and len(idx) == len(shape),
                 f"nodes[{k}].index must have {len(shape)} entries")
        _require(all(isinstance(i, int) and 0 <= i < s for i, s in zip(idx, shape)),
                 f"nodes[{k}].index {idx} outside grid shape {list(shape)}")
        idx = tuple(idx)
        _require(not seen[idx], f"duplicate node index {list(idx)}")
        seen[idx] = True
        try:
            mat = complex_matrix(node["re"], node["im"])
        except (TypeError, ValueError):
            raise SchemaError(f"nodes[{k}] has non-numeric matrix entries") from None
        _require(mat.ndim == 2 and mat.shape[0] == mat.shape[1],
                 f"nodes[{k}] matrix must be square, got shape {mat.shape}")
        if values is None:
            values = np.empty(shape + mat.shape, dtype=complex)
        _require(mat.shape == values.shape[-2:],
                 f"nodes[{k}] dimension {mat.shape[0]} differs from previous nodes")
        if validate_nodes:
            try:
                DensityMatrix(check_finite(mat))
            except ValidationError as exc:
                raise InvalidDensityAtNodeError(f"node {list(idx)}: {exc}") from None
        values[idx] = mat
    return GridModel(names, grids, values, name=name, check=check)
