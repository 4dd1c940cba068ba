"""Parametrized density-matrix families and the grid-model interchange format.

A model family is a validated map from a box-shaped parameter domain to
density matrices, optionally with analytic derivatives and an analytic
purification lift.  Families are plain picklable objects so grid sweeps
can fan out over processes.

Registration (construction with ``check=True``) probes a 5-per-axis
lattice of the domain for validity (unless ``certified``) and, when analytic
derivatives are declared, cross-checks them against central finite differences.
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
from . import states
from .states import (DensityMatrix, Purification, _by_item, check_density_stack, chunks,
                     complex_matrix, fix_phase, purify)
from .bundle import TangentVector, connection

DEFAULT_FD_STEP = 1e-5


class ModelFamily:
    """Base class: named family over a box domain.

    Subclasses implement ``matrix_at`` and may provide
    ``analytic_derivative_matrices`` (setting ``analytic = True``) and an
    analytic ``lift``/``lift_tangents`` pair.  ``matrices_at`` and
    ``derivative_matrices_at`` are their batched forms over (K, n) stacks of
    points; by default they stack the per-point results.  Registration checks
    its lattice and its three derivative probes through them, as stacks.
    ``certified``: every state inside the domain is known to pass the density
    checks, so registration, ``derivative_stack`` and ``msqgt_field`` skip them.
    """

    analytic = False
    certified = False

    def __init__(self, name, param_labels, domain, check=True):
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
            self._registration_check()

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

    def _central_stencil(self, neighbours):
        """(K, n, 2, N, N) states at a (K, n, 2, n) stack of chart points."""
        flat = self.matrices_at(neighbours.reshape(-1, neighbours.shape[-1]))
        return flat.reshape(*neighbours.shape[:3], *flat.shape[-2:])

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

    def connection_field(self):
        """Chart point -> list of connection operators of the family lift."""
        def field(point):
            psi, tangents = self.lift_tangents(point)
            return list(connection(psi, np.array([t.matrix for t in tangents])).mat)
        return field

    # --- registration -------------------------------------------------------
    def _registration_check(self):
        lo, hi = np.array(self.domain).T
        if not self.certified:  # else every lattice state passes
            for _ in _grid_states(self, np.linspace(lo, hi, 5).T):
                pass
        if not self.analytic:
            return
        tol = 10.0 * DEFAULT_FD_STEP ** 2

        def compare(probes):
            exact, _ = derivative_stack(self, probes, "analytic")
            approx, _ = derivative_stack(self, probes, "central")
            worst = float(np.max(np.abs(exact - approx)))
            if not worst <= tol:
                raise ValidationError(f"family {self.name!r}: analytic derivatives deviate from"
                                      f" central differences by {worst:.3e} > {tol:.1e}")
        _by_item(compare, lo + np.array([[0.3], [0.5], [0.7]]) * (hi - lo))

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


def _grid_states(model, axes):
    """Yield the family's matrices at the grid spanned by one 1-D axis per
    parameter, in C order of the multi-indices.  They are evaluated and
    checked as ``evaluate`` checks each point (in the domain, then a density
    matrix) in ``states.chunks`` stacks; the first failing point raises."""
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))

    def checked(p):
        return check_density_stack(model.matrices_at(model.check_points(p)), vectors=False)
    dim = model.matrices_at(model.check_points(points[:1])).shape[-1]  # sets the chunk size
    for s in chunks(len(points), dim):
        yield from _by_item(checked, points[s])


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


def derivative_stack(model, points, scheme="central", h=DEFAULT_FD_STEP, centre=None):
    """``derivatives`` at a (K, n) stack of points, with the worst discarded
    asymmetry of each point; all 2n central-difference neighbours of every
    point are evaluated and validated as one stack.

    ``centre`` is ``(mats, lowest)``: the (K, N, N) states at ``points``, as
    already checked and decomposed by the caller, and the smallest eigenvalue
    of each one's Hermitian part.  It certifies a neighbour rho with
    ||rho - centre||_F <= lowest as PSD: by Weyl's inequality the Hermitian
    part of rho then has no eigenvalue below lowest - ||rho - centre||_2 >= 0,
    up to the centre's ``eigh`` rounding (about N eps), far inside
    CONSTRUCTION_TOL.  Only uncertified neighbours are decomposed for the PSD
    check; every neighbour still gets the finite, Hermitian and trace checks,
    and the first failing one raises exactly as without ``centre``.  A
    ``certified`` model checks no neighbour.
    """
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
    model.check_points(neighbours.reshape(-1, points.shape[1]))
    mats = model._central_stencil(neighbours)
    if not model.certified:
        certified = None
        if centre is not None:
            centre_mats, lowest = centre
            # ||rho - centre||_F^2 sums the squares of the real and imaginary
            # parts; a huge or non-finite neighbour gets an inf or NaN: uncertified
            with np.errstate(over="ignore", invalid="ignore"):
                parts = (mats - centre_mats[:, None, None]).view(float)
                dist = np.sqrt(np.einsum("...ij,...ij->...", parts, parts))
            certified = (dist <= lowest[:, None, None]).ravel()
        check_density_stack(mats.reshape(-1, *mats.shape[-2:]), vectors=False,
                            certified=certified)
    diff = np.subtract(mats[:, :, 0], mats[:, :, 1])
    diff /= 2 * h
    dag = diff.conj().swapaxes(-1, -2)
    worst = np.abs(diff - dag).max(axis=(1, 2, 3))
    diff += dag  # then halved: 0.5 (diff + dag), in place
    diff *= 0.5
    return diff, worst


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


def _check_hermitian(mat, what):
    mat = np.asarray(mat, dtype=complex)
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if not asym <= 1e-10:
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
        energies, vecs = states._eigh(h)
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

    def ground_state(self, point):
        """Phase-fixed ground eigenvector of H(point)."""
        shifted, vecs = self._spectrum(self.check_point(point))
        if len(shifted) > 1 and shifted[1] < 1e-12:
            raise DegenerateSpectrumError(
                f"ground gap {shifted[1]:.3e} < 1.0e-12: ground state undefined"
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


def rotated_field_qubit(beta, gap=0.5):
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
        name="thermal-qubit",
    )


# --- grid-model interchange ---------------------------------------------------

def export_grid_model(model, grids):
    """Tabulate a family on a rectangular grid as a JSON-ready object.

    ``grids`` is one strictly increasing 1-D array per parameter, in
    chart order.  Nodes are emitted in C order of their multi-indices, checked
    as ``states.chunks`` stacks: the first failing node raises.
    """
    grids = [np.asarray(g, dtype=float).ravel() for g in grids]
    if len(grids) != model.n_params:
        raise DimensionMismatchError(f"{len(grids)} grids for a {model.n_params}-parameter family")
    for lbl, g in zip(model.param_labels, grids):
        if g.size < 2 or np.any(np.diff(g) <= 0):
            raise ValidationError(f"grid for {lbl} must be strictly increasing, >= 2 points")
    nodes = [{"index": list(idx), "re": mat.real.tolist(), "im": mat.imag.tolist()}
             for idx, mat in zip(np.ndindex(*(g.size for g in grids)), _grid_states(model, grids))]
    return {
        "params": [{"name": lbl, "grid": g.tolist()}
                   for lbl, g in zip(model.param_labels, grids)],
        "nodes": nodes,
    }


class GridModel(ModelFamily):
    """Family defined by multilinear interpolation of tabulated nodes.

    Interpolation preserves Hermiticity and positivity (convex weights);
    the trace may drift, so it is renormalized when it is off by more than
    1e-12 and rejected when it is off by more than 1e-6.  ``matrices_at``
    interpolates a (K, n) stack of points in one pass: one ``searchsorted``
    per axis, then the 2^n cell corners of every point gathered and summed
    in corner order.  ``matrix_at`` is its one-point case.

    ``load_grid_model`` sets ``certified`` when the node residuals leave room
    s = 8 2^n N eps for the rounding of any interpolant (Hermitian and trace
    errors at most CONSTRUCTION_TOL - s, lowest eigenvalues at least s): by
    convexity and Weyl's inequality every interpolant then passes every check,
    unrenormalised.  A certified model (finite nodes) sums one gather of the
    cell corners (``_corner_sums``) in ``matrices_at`` and for each point's +-h
    neighbours, bit for bit the per-corner sums; a point whose stencil leaves
    its cell or would be renormalised gets its neighbours from ``matrices_at``.
    """

    analytic = False

    def __init__(self, param_names, grids, values, check=True):
        self.grids = [np.asarray(g, dtype=float) for g in grids]
        self.values = np.asarray(values, dtype=complex)
        domain = [(g[0], g[-1]) for g in self.grids]
        super().__init__("grid-model", param_names, domain, check=check)

    def matrix_at(self, point):
        return self.matrices_at([point])[0]

    def _cells(self, points):
        """Per axis, the upper node index of each point's cell and the weight of
        its lower node, over (..., n) points."""
        his, weights = [], []
        for x, g in zip(np.moveaxis(points, -1, 0), self.grids):
            hi = np.clip(np.searchsorted(g, x), 1, g.size - 1)
            his.append(hi)
            weights.append((g[hi] - x) / (g[hi] - g[hi - 1]))
        return his, weights

    def _corner_sums(self, his, weights):
        """(K, S, N, N) interpolants at S points in each of K cells, from the upper
        node indices ``his`` ((K,) per axis) and lower-node weights ((K, S) per
        axis): one gather of the 2^n corners, summed from +0 in corner order
        through their float view (a real weight times a complex node is the
        product of its two parts): bit for bit the per-corner sums of
        ``matrices_at`` where the nodes are finite."""
        sides = np.array(list(np.ndindex(*(2,) * len(his))))
        corners = self.values[tuple(hi[:, None] - 1 + sides[:, d] for d, hi in enumerate(his))]
        corners = corners.view(float)
        sums = np.empty(weights[0].shape + corners.shape[-2:])
        term = np.empty_like(sums)
        for c, corner in enumerate(sides):
            np.multiply(_corner_weight(weights, corner)[..., None, None], corners[:, None, c],
                        out=term)
            np.add(sums if c else 0.0, term, out=sums)
        return sums.view(complex)

    def matrices_at(self, points):
        points = np.asarray(points, dtype=float)
        his, weights = self._cells(points)
        dim = self.values.shape[-1]
        if self.certified:  # every node finite
            mats = self._corner_sums(his, [w[:, None] for w in weights])[:, 0]
        else:
            mats = np.zeros((len(points), dim, dim), dtype=complex)
            for corner in np.ndindex(*(2,) * len(his)):
                w = _corner_weight(weights, corner)
                nodes = self.values[tuple(hi - 1 + side for hi, side in zip(his, corner))]
                # a corner of weight zero adds nothing, even where its node is not finite
                live = True if w.all() else (w != 0)[:, None, None]
                np.multiply(w[:, None, None], nodes, out=nodes, where=live)
                np.add(mats, nodes, out=mats, where=live)
        trace = mats.trace(axis1=-2, axis2=-1).real
        drift = np.abs(trace - 1.0)
        if (drift > 1e-6).any():
            k = (drift > 1e-6).argmax()
            raise ValidationError(
                f"interpolated trace drifts by {drift[k]:.3e} > 1e-6 at {points[k].tolist()}"
            )
        renorm = drift > 1e-12
        mats[renorm] = mats[renorm] / trace[renorm, None, None]
        return mats

    def _central_stencil(self, neighbours):
        if not self.certified:
            return super()._central_stencil(neighbours)
        count, n = len(neighbours), neighbours.shape[-1]
        his, weights = self._cells(neighbours.reshape(count, 2 * n, n))
        mats = self._corner_sums([hi[:, 0] for hi in his], weights).reshape(
            neighbours.shape[:3] + self.values.shape[-2:])
        drift = np.abs(mats.trace(axis1=-2, axis2=-1).real - 1.0)
        inside = np.logical_and.reduce([(hi == hi[:, :1]).all(axis=1) for hi in his])
        redo = ~(inside & (drift <= 1e-12).all(axis=(1, 2)))
        if redo.any():
            mats[redo] = super()._central_stencil(neighbours[redo])
        return mats


def _corner_weight(weights, corner):
    """Interpolation weight of the cell corner ``corner`` (0: lower node, 1:
    upper node, per axis) from the lower-node weights of each axis."""
    w = np.ones(np.shape(weights[0]))
    for wd, side in zip(weights, corner):
        w = w * (wd if side == 0 else 1.0 - wd)
    return w


def _certified(values, residuals):
    """Whether the node residuals, in chunks, certify ``values`` (see ``GridModel``);
    s = 8 2^n N eps max|node|, and max|node| <= 1 + 2 CONSTRUCTION_TOL if they pass."""
    finite, herm_err, trace_err, low = (np.concatenate(r) for r in zip(*residuals))
    n, dim = values.ndim - 2, values.shape[-1]
    slack = 8 * 2 ** n * dim * np.finfo(float).eps
    return bool(finite.all() and herm_err.max() <= states.CONSTRUCTION_TOL - slack
                and trace_err.max() <= states.CONSTRUCTION_TOL - slack and low.min() >= slack)


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def load_grid_model(source, check=True, validate_nodes=True):
    """Parse and validate a grid model from a path, file object, or dict.

    Schema errors (malformed document) raise SchemaError, all of them before
    the nodes are checked, in document order as ``states.chunks`` stacks: the
    first that is not a density matrix raises InvalidDensityAtNodeError
    naming its index.  ``validate_nodes=False`` skips the node check (used by
    reporting tools that want to collect every violation, not the first).
    Its residuals also set ``certified`` (see ``GridModel``).
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
    seen = {}  # node index -> None, in document order
    for k, node in enumerate(nodes):
        _require(isinstance(node, dict) and set(node) == {"index", "re", "im"},
                 f"nodes[{k}] must have exactly index/re/im")
        idx = node["index"]
        _require(isinstance(idx, list) and len(idx) == len(shape),
                 f"nodes[{k}].index must have {len(shape)} entries")
        _require(all(type(i) is int and 0 <= i < s for i, s in zip(idx, shape)),  # not bool
                 f"nodes[{k}].index {idx} outside grid shape {list(shape)}")
        idx = tuple(idx)
        _require(idx not in seen, f"duplicate node index {list(idx)}")
        seen[idx] = None
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
        values[idx] = mat
    residuals = None
    if validate_nodes:
        at = np.array(list(seen))
        residuals = [_by_item(_checked_residuals, values[tuple(at[s].T)],
                              label=lambda k, exc, s=s: InvalidDensityAtNodeError(
                                  f"node {at[s][k].tolist()}: {exc}"))
                     for s in chunks(len(at), values.shape[-1])]
    model = GridModel(names, grids, values, check=False)
    model.certified = residuals is not None and _certified(values, residuals)
    if check:
        model._registration_check()
    return model


def _checked_residuals(mats):
    """``check_density_stack(mats, vectors=False)``, returning the residuals."""
    residuals = states._density_residuals(mats)[:4]
    states._check_residuals(mats, *residuals)
    return residuals
