"""Parametrized density-matrix families and the grid-model interchange format.

A model family is a validated map from a box-shaped parameter domain to
density matrices, optionally with analytic derivatives and an analytic
purification lift.  Each family is read through one seam, ``_evaluate``,
over (K, n) stacks of chart points (see ``ModelFamily``).  Families are
plain picklable objects so grid sweeps can fan out over processes.

Registration (construction with ``check=True``) probes a 5-per-axis
lattice of the domain for validity (unless ``certified``) and, when analytic
derivatives are declared, cross-checks them against central finite differences
(except a grid model's, which are exact in its checked nodes).
"""

from functools import partial

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InconsistentStencilError,
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

    Every family is evaluated through one private seam, ``_evaluate(points,
    slopes)``: the states (K, N, N) at a (K, n) stack of points and, with
    ``slopes``, their derivatives (K, n, N, N), else None.  The public stacked
    methods ``matrices_at``, ``derivative_matrices_at`` and
    ``matrices_and_derivatives_at`` read it.  By default it stacks the
    per-point surface a subclass implements: ``matrix_at`` and, setting
    ``analytic = True``, ``analytic_derivative_matrices``; the built-in
    families override ``_evaluate`` instead.  A family may also provide an
    analytic ``lift``/``lift_tangents`` pair.  Registration checks its lattice
    and, through ``_check_derivatives``, its three derivative probes, as stacks.
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
        if self.analytic:  # declared, but served by ``_evaluate`` or missing
            raise NotImplementedError
        raise NoAnalyticDerivativesError(
            f"family {self.name!r} declares no analytic derivatives"
        )

    def _evaluate(self, points, slopes):
        """The seam (see the class docstring): by default the per-point surface, stacked."""
        mats = np.array([self.matrix_at(p) for p in points], dtype=complex)
        drho = np.array([self.analytic_derivative_matrices(p) for p in points],
                        dtype=complex) if slopes else None
        return mats, drho

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
        return self._evaluate(np.asarray(points, dtype=float), slopes=False)[0]

    def derivative_matrices_at(self, points):
        return self._evaluate(np.asarray(points, dtype=float), slopes=True)[1]

    def matrices_and_derivatives_at(self, points):
        return self._evaluate(np.asarray(points, dtype=float), slopes=True)

    def evaluate(self, point):
        point = self.check_point(point)
        return DensityMatrix(self.matrices_at(point[None])[0])

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
        if self.analytic:
            _by_item(self._check_derivatives, lo + np.array([[0.3], [0.5], [0.7]]) * (hi - lo))

    def _check_derivatives(self, probes):
        """Compare the analytic derivatives with central differences at a stack of probes."""
        tol = 10.0 * DEFAULT_FD_STEP ** 2
        exact, _ = derivative_stack(self, probes, "analytic")
        approx, _ = derivative_stack(self, probes, "central")
        worst = float(np.max(np.abs(exact - approx)))
        if not worst <= tol:
            raise ValidationError(f"family {self.name!r}: analytic derivatives deviate from"
                                  f" central differences by {worst:.3e} > {tol:.1e}")

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
        mats = model.matrices_at(model.check_points(p))
        check_density_stack(mats, vectors=False)
        return mats
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
    mats, worst = derivative_stack(model, point[None], scheme, h, residual=return_residual)
    mats = list(mats[0])
    return (mats, float(worst[0])) if return_residual else mats


def derivative_stack(model, points, scheme="central", h=DEFAULT_FD_STEP, residual=False):
    """``derivatives`` at a (K, n) stack of points, with the worst discarded
    asymmetry of each point if ``residual`` (else None).  A step h that leaves
    a coordinate unchanged (x + h == x or x - h == x) raises
    InconsistentStencilError.  All 2n central-difference neighbours of every
    point are evaluated as one stack and, unless the model is ``certified``,
    get every density check as one stack: the first failing one raises.
    """
    if scheme == "analytic":  # a family without them raises NoAnalyticDerivativesError
        return model.derivative_matrices_at(model.check_points(points)), np.zeros(len(points))
    if scheme != "central":
        raise ValidationError(f"unknown derivative scheme {scheme!r}")
    model.check_points(points, margin=h)
    lost = (points + h == points) | (points - h == points)
    if lost.any():
        k, nu = np.unravel_index(lost.argmax(), lost.shape)
        raise InconsistentStencilError(f"central step h = {h!r} vanishes against"
                                       f" {model.param_labels[nu]} = {float(points[k, nu])!r}")
    count, n = points.shape
    steps = h * np.eye(n)
    # neighbour (k, nu, side) is points[k] + h e_nu (side 0) or - h e_nu (side 1)
    neighbours = (points[:, None, None, :] + np.stack([steps, -steps], axis=1)).reshape(-1, n)
    mats = model.matrices_at(model.check_points(neighbours))
    mats = mats.reshape(count, n, 2, *mats.shape[-2:])
    if not model.certified:
        check_density_stack(mats.reshape(-1, *mats.shape[-2:]), vectors=False)
    diff = np.subtract(mats[:, :, 0], mats[:, :, 1])
    diff /= 2 * h
    dag = diff.conj().swapaxes(-1, -2)
    worst = np.abs(diff - dag).max(axis=(1, 2, 3)) if residual else None
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

    def _evaluate(self, points, slopes):
        x, y, z = _bloch_axis(points[..., 0], points[..., 1])
        mats = 0.5 * _pauli(1.0, self.r * x, self.r * y, self.r * z)
        return mats, _bloch_derivatives(points, self.r) if slopes else None

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


def _check_hermitian(mats, what):
    """Refuse a stack of matrices (last two axes) unless each is Hermitian within
    1e-10; the first failing one, in C order, names its residual (NaN fails)."""
    asym = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).ravel()
    if not asym.max() <= 1e-10:
        raise NotHermitianError(f"{what} not Hermitian: max|H - H^dag| ="
                                f" {asym[(~(asym <= 1e-10)).argmax()]:.3e}")


class ThermalModel(ModelFamily):
    """Gibbs family rho = exp(-beta H(x)) / Z(x) of a Hamiltonian map.

    ``hamiltonian`` maps a chart point to a Hermitian matrix;
    ``d_hamiltonian``, if given, maps a point to its parameter derivatives (a
    list or an (n, N, N) array) and enables the analytic density derivatives:
    the exact Frechet derivative of the matrix exponential via first divided
    differences of exp(-beta E) in the instantaneous eigenbasis.  Both are
    called once per point.  The family's ``_evaluate`` is one pass over a
    (K, n) stack of points (``_gibbs``), which ``ground_state`` reads too.
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

    def _evaluate(self, points, slopes):
        return self._gibbs(points, slopes)[2:]

    def _gibbs(self, points, slopes=False):
        """Shifted spectra E - E_min (K, N), eigenvectors, states and, with ``slopes``,
        derivatives (K, n, N, N) (else None) at a (K, n) stack of points.  All the
        Hamiltonians are checked, then decomposed by one ``states._eigh``, before
        any derivative is checked; each stack by one Hermitian check."""
        if slopes and not self.analytic:  # raises NoAnalyticDerivativesError
            ModelFamily.analytic_derivative_matrices(self, points)
        hs = np.array([self.hamiltonian(p) for p in points], dtype=complex)
        _check_hermitian(hs, "Hamiltonian")
        energies, vecs = states._eigh(hs)
        shifted = energies - energies[:, :1]
        boltz = np.exp(-self.beta * shifted)
        z = boltz.sum(axis=-1)
        vecs_dag = vecs.conj().swapaxes(-1, -2)
        rho = np.matmul(vecs * (boltz / z[:, None])[:, None, :], vecs_dag)
        if not slopes:
            return shifted, vecs, rho, None
        dhs = np.array([self.d_hamiltonian(p) for p in points], dtype=complex)
        _check_hermitian(dhs, "Hamiltonian derivative")
        # First divided differences of exp(-beta E) on the shifted spectra;
        # the overall exp(-beta E_min) scale cancels between dX and Z.  The
        # difference is taken from the smaller energy so the expm1 argument
        # stays nonpositive and nothing overflows at large beta.
        gaps = np.abs(shifted[:, None, :] - shifted[:, :, None])
        lo = np.minimum(shifted[:, :, None], shifted[:, None, :])
        small = gaps < 1e-13
        safe = np.where(small, 1.0, gaps)
        table = np.exp(-self.beta * lo) * np.expm1(-self.beta * safe) / safe
        table[small] = (-self.beta * np.exp(-self.beta * lo))[small]
        dh_tilde = np.matmul(np.matmul(vecs_dag[:, None], dhs), vecs[:, None])
        dx = np.matmul(np.matmul(vecs[:, None], table[:, None] * dh_tilde), vecs_dag[:, None])
        dx -= rho[:, None] * dx.trace(axis1=-2, axis2=-1).real[..., None, None]
        return shifted, vecs, rho, dx / z[:, None, None, None]

    def ground_state(self, point):
        """Phase-fixed ground eigenvector of H(point)."""
        shifted, vecs = (x[0] for x in self._gibbs(self.check_point(point)[None])[:2])
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
        d_hamiltonian=partial(_bloch_derivatives, scale=gap),
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
    1e-12 and rejected when it is off by more than 1e-6.  ``_evaluate``
    interpolates a (K, n) stack of points in one pass: one ``searchsorted``
    per axis, then one gather of the 2^n cell corners of every point, summed
    in corner order.

    The analytic derivatives are exact: in a cell, along axis nu, the upper
    minus lower node differences on that axis over the cell width, weighted
    over the other axes; on an interior node line, the mean of the two
    one-sided slopes (the h -> 0 limit of central differences); at the domain
    edge, the one cell's slope.  Renormalised interpolants take the quotient
    rule, and all are Hermitized.  Registration does not compare them with
    central differences: they are exact in the checked nodes, and a probe
    within h of a node line would see the kink.

    ``load_grid_model`` sets ``certified`` when the node residuals leave room
    s = 8 2^n N eps for the rounding of any interpolant (``_certified``): then
    every interpolant passes every check, unrenormalised, and ``msqgt_field``
    takes the states and derivatives from one gather.
    """

    analytic = True

    def __init__(self, param_names, grids, values, check=True):
        self.grids = [np.asarray(g, dtype=float) for g in grids]
        self.values = np.asarray(values, dtype=complex)
        domain = [(g[0], g[-1]) for g in self.grids]
        super().__init__("grid-model", param_names, domain, check=check)

    def _check_derivatives(self, probes):
        """Nothing to compare: the derivatives are exact in the nodes."""

    def _corners(self, his):
        """(K, 2^n, N, 2N) float view of the 2^n corners, in corner order, of the
        cells with upper node indices ``his`` ((K,) per axis), in one gather."""
        sides = np.array(list(np.ndindex(*(2,) * len(his))))
        return self.values[tuple(hi[:, None] - 1 + sides[:, d] for d, hi in enumerate(his))
                           ].view(float)

    def _slopes(self, corners, his, weights):
        """(K, n, N, 2N) float view of the derivatives in the gathered cells: along
        axis nu, the corners weighted over the other axes and by -+1 / width on
        axis nu (the lower and upper node differences over the cell width), summed
        in one ``matmul`` that reads each corner once."""
        pairs = [(w, 1.0 - w) for w in weights]
        signed = []
        for nu, (hi, g) in enumerate(zip(his, self.grids)):
            rate = 1.0 / (g[hi] - g[hi - 1])
            signed.append(_corner_weights(pairs[:nu] + [(-rate, rate)] + pairs[nu + 1:]))
        count, size = corners.shape[:2]
        return np.matmul(np.stack(signed, axis=1), corners.reshape(count, size, -1)).reshape(
            count, len(his), *corners.shape[-2:])

    def _evaluate(self, points, slopes):
        """States at a (K, n) stack of points and, with ``slopes``, their (K, n, N, N)
        derivatives (see the class docstring), else None."""
        his, weights = [], []  # per axis: each point's upper cell node, its lower node's weight
        for x, g in zip(points.T, self.grids):
            his.append(np.clip(np.searchsorted(g, x), 1, g.size - 1))
            weights.append((g[his[-1]] - x) / (g[his[-1]] - g[his[-1] - 1]))
        table = _corner_weights([(w, 1.0 - w) for w in weights])
        corners = self._corners(his)
        mats, term = np.zeros((2,) + corners.shape[:1] + corners.shape[2:])
        for c in range(table.shape[1]):  # from +0 in corner order
            w = table[:, c, None, None]
            # a corner of weight zero adds nothing, even where its node is not finite
            live = True if w.all() else w != 0
            # a real weight times a complex node is the product of its two parts
            np.multiply(w, corners[:, c], out=term, where=live)
            np.add(mats, term, out=mats, where=live)
        mats = mats.view(complex)
        trace = mats.trace(axis1=-2, axis2=-1).real
        drift = np.abs(trace - 1.0)
        if not (drift <= 1e-6).all():  # NaN fails
            k = (~(drift <= 1e-6)).argmax()
            raise ValidationError(
                f"interpolated trace drifts by {drift[k]:.3e} > 1e-6 at {points[k].tolist()}"
            )
        renorm = drift > 1e-12
        mats[renorm] = mats[renorm] / trace[renorm, None, None]
        if not slopes:
            return mats, None
        drho = self._slopes(corners, his, weights)
        for nu, (x, hi, g) in enumerate(zip(points.T, his, self.grids)):
            line = (x == g[hi]) & (hi < g.size - 1)  # an interior node line of axis nu
            if line.any():  # the mean with the next cell's slope
                nxt = [h[line] for h in his]
                nxt[nu] = nxt[nu] + 1
                drho[line, nu] += self._slopes(self._corners(nxt), nxt,
                                               [w[line] for w in weights])[:, nu]
                drho[line, nu] *= 0.5
        drho = drho.view(complex)
        if renorm.any():
            d = drho[renorm] / trace[renorm, None, None, None]
            d -= mats[renorm, None] * d.trace(axis1=-2, axis2=-1).real[..., None, None]
            drho[renorm] = d
        drho += drho.conj().swapaxes(-1, -2)  # then halved: the Hermitian part
        drho *= 0.5
        return mats, drho


def _corner_weights(factors):
    """(K, 2^n) products of one (lower-node, upper-node) pair of (K,) factors per
    axis, one column per cell corner in corner order (``np.ndindex``), each
    multiplied out in axis order from 1."""
    table = np.ones((len(factors[0][0]), 1))
    for pair in factors:
        table = (table[:, :, None] * np.array(pair).T[:, None]).reshape(len(table), -1)
    return table


def _certified(values, residuals):
    """Whether the node residuals, in chunks, certify ``values``: Hermitian and trace
    errors at most CONSTRUCTION_TOL - s and lowest eigenvalues at least s, so by
    convexity and Weyl's inequality every interpolant passes every check.  Here
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

    Schema errors (text that is not UTF-8 JSON, a malformed document or number)
    raise SchemaError, all before the nodes are checked, in document order as
    ``states.chunks`` stacks: the first that is not a density matrix raises
    InvalidDensityAtNodeError naming its index.  ``validate_nodes=False``
    skips the node check (used by reporting tools that want to collect every
    violation, not the first).  Its residuals set ``certified`` (``GridModel``).
    """
    obj = source if isinstance(source, dict) else states._read_json(source)

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
        grid = states._json_floats(grid, f"params[{k}].grid", ndim=1, finite=True)
        with np.errstate(over="ignore"):  # an overflowing difference is refused below
            span, steps = grid[-1] - grid[0], np.diff(grid)
        _require(bool(np.isfinite(span)), f"params[{k}].grid has a span beyond the float range")
        _require(bool(np.all(steps > 0)),
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
        # parts of different shapes are ragged as a pair: non-numeric, as numpy says
        mat = complex_matrix(*states._json_floats([node["re"], node["im"]], f"nodes[{k}]",
                                                  "matrix entries"))
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
        residuals = [_by_item(partial(check_density_stack, vectors=False), values[tuple(at[s].T)],
                              label=lambda k, exc, s=s: InvalidDensityAtNodeError(
                                  f"node {at[s][k].tolist()}: {exc}"))
                     for s in chunks(len(at), values.shape[-1])]
    model = GridModel(names, grids, values, check=False)
    model.certified = residuals is not None and _certified(values, residuals)
    if check:
        model._registration_check()
    return model
