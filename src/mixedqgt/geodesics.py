"""Horizontal (Uhlmann-parallel) geodesics between density matrices.

A geodesic is stored in quarter-state form: two orthogonal purifications
psi_0, psi_q and an opening angle theta, with

    psi(t) = cos(t) psi_0 + sin(t) psi_q,     rho(t) = Tr_E |psi(t)><psi(t)|

running from rho_a at t = 0 to rho_b at t = theta = arccos F(rho_a, rho_b).
Horizontality of the whole curve reduces to one algebraic condition on the
pair (psi_0, psi_q), checked at construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AngleOutOfRangeError,
    DimensionMismatchError,
    NotQubitError,
    RankDeficientError,
    ValidationError,
)
from .states import DensityMatrix, Purification
from .bundle import TangentVector, connection, covariant_derivative, env_action, real_inner

ORTHOGONALITY_TOL = 1e-9
HORIZONTALITY_TOL = 1e-8
ENDPOINT_TOL = 1e-8
DEFAULT_ANGLE_MARGIN = 1e-6


class GeodesicSolution:
    """Quarter-state representation of a horizontal geodesic."""

    def __init__(self, psi0, psi_quarter, theta,
                 orth_tol=ORTHOGONALITY_TOL, horiz_tol=HORIZONTALITY_TOL):
        if psi0.sys_dim != psi_quarter.sys_dim:
            raise DimensionMismatchError(
                f"endpoint dimensions differ: {psi0.sys_dim} vs {psi_quarter.sys_dim}"
            )
        overlap = abs(psi0.overlap(psi_quarter))
        if overlap > orth_tol:
            raise ValidationError(
                f"|<psi0|psi_quarter>| = {overlap:.3e} > {orth_tol:.1e}"
            )
        # Horizontality of every point of the curve is equivalent to
        # Tr_S(|psi_q><psi_0| - |psi_0><psi_q|) = 0, i.e. W0^dag Wq Hermitian.
        cross = psi0.amplitude_matrix.conj().T @ psi_quarter.amplitude_matrix
        horiz = float(np.max(np.abs(cross - cross.conj().T)))
        if horiz > horiz_tol:
            raise ValidationError(
                f"curve not horizontal: max|P - P^dag| = {horiz:.3e} > {horiz_tol:.1e}"
            )
        self.psi0 = psi0
        self.psi_quarter = psi_quarter
        self.theta = float(theta)
        self.orthogonality_residual = overlap
        self.horizontality_residual = horiz

    def __repr__(self):
        return f"GeodesicSolution(theta={self.theta:.6f})"


def solve_geodesic(rho_a, rho_b, angle_margin=DEFAULT_ANGLE_MARGIN,
                   require_full_rank=True, endpoint_tol=ENDPOINT_TOL):
    """Horizontal geodesic from rho_a to rho_b.

    Construction: W_0 = sqrt(rho_a); M = sqrt(rho_b) sqrt(rho_a) with polar
    unitary V; W_b = sqrt(rho_b) V then satisfies W_0^dag W_b = P Hermitian
    PSD with Tr P = F (the fidelity), which is exactly the horizontality
    alignment.  The quarter state is the normalized component of W_b
    orthogonal to W_0, normalized by its computed norm so that close
    endpoints pass the Purification norm check.

    With ``require_full_rank=False`` rank-deficient endpoints are accepted;
    the construction stays well defined (the SVD supplies a full polar
    unitary) but the geodesic is no longer guaranteed unique.

    Raises AngleOutOfRangeError when the Bures angle is within
    ``angle_margin`` of 0 (states effectively equal) or of pi/2
    (orthogonal supports), where the quarter state is undefined or the
    horizontal curve is not unique.
    """
    if rho_a.dim != rho_b.dim:
        raise DimensionMismatchError(f"dimensions differ: {rho_a.dim} vs {rho_b.dim}")
    if require_full_rank:
        for name, rho in (("a", rho_a), ("b", rho_b)):
            if not rho.full_rank:
                raise RankDeficientError(
                    f"endpoint {name} min eigenvalue {rho.min_eigenvalue:.3e} <= rank"
                    f" floor {rho.rank_tol:.1e} (pass require_full_rank=False to"
                    " accept a possibly non-unique geodesic)"
                )

    # Hermitian square roots V sqrt(p) V^dag from the cached decompositions
    w0, sqrt_b = (rho.root @ rho.eigenvectors.conj().T for rho in (rho_a, rho_b))
    u, s, vh = np.linalg.svd(sqrt_b @ w0)
    wb = sqrt_b @ (u @ vh)
    fid = float(np.clip(s.sum(), 0.0, 1.0))
    theta = float(np.arccos(fid))
    if theta < angle_margin:
        raise AngleOutOfRangeError(
            f"Bures angle {theta:.3e} below margin {angle_margin:.1e}: endpoints"
            " coincide to working precision"
        )
    if theta > np.pi / 2 - angle_margin:
        raise AngleOutOfRangeError(
            f"Bures angle {theta:.6f} within margin {angle_margin:.1e} of pi/2:"
            " endpoint supports are (near-)orthogonal"
        )
    # project W_0 out with the computed <W_0|W_b> / <W_0|W_0>, not F: their
    # last-bit difference would leave an overlap of about 1e-15 / theta with
    # W_0; the norm is computed too, as it rounds like 1e-15 / theta^2
    wq = wb - (np.vdot(w0, wb) / np.vdot(w0, w0).real) * w0
    wq = wq / np.linalg.norm(wq)
    sol = GeodesicSolution(Purification.from_matrix(w0), Purification.from_matrix(wq), theta)

    for t_end, target, name in ((0.0, rho_a, "a"), (theta, rho_b, "b")):
        w = geodesic_purification(sol, t_end).amplitude_matrix
        err = float(np.max(np.abs(w @ w.conj().T - target.mat)))
        if err > endpoint_tol:
            raise ValidationError(
                f"geodesic fails to reproduce endpoint {name}: max deviation {err:.3e}"
            )
    return sol


def geodesic_purification(sol, t):
    """Purification psi(t) = cos(t) psi_0 + sin(t) psi_q."""
    w = (np.cos(t) * sol.psi0.amplitude_matrix
         + np.sin(t) * sol.psi_quarter.amplitude_matrix)
    return Purification.from_matrix(w)


def geodesic_point(sol, t):
    """Density matrix rho(t) along the geodesic."""
    w = geodesic_purification(sol, t).amplitude_matrix
    return DensityMatrix(w @ w.conj().T)


def geodesic_tangent(sol, t):
    """Analytic tangent d/dt psi(t) = -sin(t) psi_0 + cos(t) psi_q."""
    psi = geodesic_purification(sol, t)
    comp = (-np.sin(t) * sol.psi0.amplitudes
            + np.cos(t) * sol.psi_quarter.amplitudes)
    return TangentVector(psi, comp)


def geodesic_samples(sol, times):
    """(psi(t), dpsi(t)) pairs at the given parameter values."""
    return [(x.base, x) for x in (geodesic_tangent(sol, t) for t in times)]


def ode_residual(sol, t, h):
    """Norm of psi'' + psi at t, with psi'' the second difference of step h."""
    psi = geodesic_purification(sol, t).amplitudes
    plus = geodesic_purification(sol, t + h).amplitudes
    minus = geodesic_purification(sol, t - h).amplitudes
    return float(np.linalg.norm((plus - 2 * psi + minus) / h ** 2 + psi))


@dataclass
class GeodesicODEReport:
    max_accel_residual: float
    max_speed_error: float
    max_connection_entry: float


def verify_geodesic_ode(sol, times, fd_step=1e-3):
    """Check the defining properties of the curve on a time grid.

    * second-difference acceleration against psi'' = -psi;
    * unit covariant speed <D psi|D psi> = 1;
    * vanishing connection along the curve (horizontality pointwise).

    The last two need the interior states to clear the rank floor.
    """
    accel = speed = conn = 0.0
    for t in times:
        accel = max(accel, ode_residual(sol, t, fd_step))
        tangent = geodesic_tangent(sol, t)
        a = connection(tangent.base, tangent).mat
        # |D psi> = |dpsi> - i A |psi>
        horiz = tangent.components - 1j * env_action(tangent.base, a)
        speed = max(speed, abs(np.vdot(horiz, horiz).real - 1.0))
        conn = max(conn, float(np.max(np.abs(a))))
    return GeodesicODEReport(accel, speed, conn)


def path_length(samples, times):
    """Bures length by composite-trapezoid quadrature of the covariant speed.

    ``samples`` are (psi, dpsi) pairs along any curve; the integrand is
    sqrt(<D psi|D psi>) at each node.
    """
    times = np.asarray(times, dtype=float)
    if len(samples) != times.size:
        raise DimensionMismatchError(
            f"{len(samples)} samples against {times.size} time nodes"
        )
    if times.size < 2:
        raise ValidationError("need at least two nodes for trapezoid quadrature")
    speeds = np.empty(times.size)
    for k, (psi, dpsi) in enumerate(samples):
        horiz = covariant_derivative(psi, dpsi)
        speeds[k] = np.sqrt(max(real_inner(horiz, horiz), 0.0))
    return float(np.sum(np.diff(times) * (speeds[1:] + speeds[:-1]) / 2.0))


@dataclass
class BlochEllipseReport:
    center: np.ndarray
    axes: np.ndarray          # columns: major, minor direction in Bloch space
    semi_major: float
    semi_minor: float
    max_deviation: float      # worst violation of the implicit ellipse equation
    out_of_plane: float       # worst distance from the fitted plane
    fit_residual: float       # worst failure of the frequency-2 trig form


def bloch_vector(rho):
    """Bloch components (2 Re rho_01, 2 Im rho_10, Re(rho_00 - rho_11)) of a
    qubit matrix, or along the last axis for a (..., 2, 2) stack."""
    rho = np.asarray(rho)
    return np.stack([2 * rho[..., 0, 1].real, 2 * rho[..., 1, 0].imag,
                     (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def bloch_ellipse_check(sol, samples=720, degenerate_tol=1e-8):
    """Fit the Bloch-space trace of a qubit geodesic to a conic.

    The quarter-state form makes every Bloch component an exact
    frequency-2 trigonometric polynomial of the curve parameter, so the
    closed curve through the geodesic arc is recovered by Fourier
    projection over one full period and its semi-axes by an SVD.  For a
    degenerate (diameter) trace the minor axis collapses; the deviation
    is then measured along the major axis alone.
    """
    if sol.psi0.sys_dim != 2:
        raise NotQubitError(f"system dimension {sol.psi0.sys_dim} is not a qubit")
    m = int(samples)
    ts = np.pi * np.arange(m) / m
    bloch = bloch_vector(np.array([geodesic_point(sol, t).mat for t in ts]))

    cos2, sin2 = np.cos(2 * ts), np.sin(2 * ts)
    center = bloch.mean(axis=0)
    u = 2.0 * (bloch * cos2[:, None]).mean(axis=0)
    v = 2.0 * (bloch * sin2[:, None]).mean(axis=0)
    recon = center[None, :] + np.outer(cos2, u) + np.outer(sin2, v)
    fit_residual = float(np.max(np.abs(bloch - recon)))

    basis, sv, _ = np.linalg.svd(np.column_stack([u, v]), full_matrices=False)
    semi_major, semi_minor = float(sv[0]), float(sv[1])
    rel = bloch - center[None, :]
    x = rel @ basis[:, 0]
    y = rel @ basis[:, 1]
    out_of_plane = float(np.max(np.linalg.norm(
        rel - np.outer(x, basis[:, 0]) - np.outer(y, basis[:, 1]), axis=1)))
    if semi_minor > degenerate_tol:
        dev = np.abs((x / semi_major) ** 2 + (y / semi_minor) ** 2 - 1.0)
    else:
        # Degenerate (diameter) trace: the curve sweeps a segment, so
        # measure the transverse offset and any overshoot past the ends.
        dev = np.maximum(np.abs(y), np.clip(np.abs(x) - semi_major, 0.0, None))
        dev = dev / max(semi_major, degenerate_tol)
    return BlochEllipseReport(
        center=center,
        axes=basis,
        semi_major=semi_major,
        semi_minor=semi_minor,
        max_deviation=float(np.max(dev)),
        out_of_plane=out_of_plane,
        fit_residual=fit_residual,
    )
