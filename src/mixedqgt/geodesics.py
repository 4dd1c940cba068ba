"""Horizontal (Uhlmann-parallel) geodesics between density matrices.

A geodesic is stored in quarter-state form: two orthogonal purifications
psi_0, psi_q and an opening angle theta, with

    psi(t) = cos(t) psi_0 + sin(t) psi_q,     rho(t) = Tr_E |psi(t)><psi(t)|

running from rho_a at t = 0 to rho_b at t = theta = arccos F(rho_a, rho_b).
Horizontality of the whole curve reduces to one algebraic condition on the
pair (psi_0, psi_q), checked at construction.

Samples of the curve are (K, N, N) stacks of amplitude matrices W(t), one
per time; the one-time functions (``geodesic_purification``,
``geodesic_point``, ``ode_residual``) are their K = 1 case.  Callers with
many times pass them a ``states.chunks`` slice at a time.
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
from .states import RANK_TOL, DensityMatrix, Purification, check_norm_stack, chunks
from .bundle import TangentVector, connection

ORTHOGONALITY_TOL = 1e-9
HORIZONTALITY_TOL = 1e-8
ENDPOINT_TOL = 1e-8
DEFAULT_ANGLE_MARGIN = 1e-6


class GeodesicSolution:
    """Quarter-state representation of a horizontal geodesic."""

    def __init__(self, psi0, psi_quarter, theta):
        if psi0.sys_dim != psi_quarter.sys_dim:
            raise DimensionMismatchError(
                f"endpoint dimensions differ: {psi0.sys_dim} vs {psi_quarter.sys_dim}"
            )
        overlap = abs(psi0.overlap(psi_quarter))
        if overlap > ORTHOGONALITY_TOL:
            raise ValidationError(
                f"|<psi0|psi_quarter>| = {overlap:.3e} > {ORTHOGONALITY_TOL:.1e}"
            )
        # Horizontality of every point of the curve is equivalent to
        # Tr_S(|psi_q><psi_0| - |psi_0><psi_q|) = 0, i.e. W0^dag Wq Hermitian.
        cross = psi0.amplitude_matrix.conj().T @ psi_quarter.amplitude_matrix
        horiz = float(np.max(np.abs(cross - cross.conj().T)))
        if horiz > HORIZONTALITY_TOL:
            raise ValidationError(
                f"curve not horizontal: max|P - P^dag| = {horiz:.3e} > {HORIZONTALITY_TOL:.1e}"
            )
        self.psi0 = psi0
        self.psi_quarter = psi_quarter
        self.theta = float(theta)
        self.orthogonality_residual = overlap
        self.horizontality_residual = horiz

    def __repr__(self):
        return f"GeodesicSolution(theta={self.theta:.6f})"


def solve_geodesic(rho_a, rho_b, angle_margin=DEFAULT_ANGLE_MARGIN, require_full_rank=True):
    """Horizontal geodesic from rho_a to rho_b.

    Construction: W_0 = sqrt(rho_a); M = sqrt(rho_b) sqrt(rho_a) with polar
    unitary V; W_b = sqrt(rho_b) V then satisfies W_0^dag W_b = P Hermitian
    PSD with Tr P = F (the fidelity), which is exactly the horizontality
    alignment.  The quarter state is the normalized component of W_b
    orthogonal to W_0, normalized by its computed norm so that close
    endpoints pass the Purification norm check.  The angle is taken from
    the chord, theta = 2 arcsin(|W_b - W_0| / 2), which keeps its full
    relative precision for close endpoints, where arccos(F) does not.

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
                    f" floor {RANK_TOL:.1e} (pass require_full_rank=False to"
                    " accept a possibly non-unique geodesic)"
                )

    # Hermitian square roots V sqrt(p) V^dag from the cached decompositions
    w0, sqrt_b = (rho.root @ rho.eigenvectors.conj().T for rho in (rho_a, rho_b))
    u, _, vh = np.linalg.svd(sqrt_b @ w0)
    wb = sqrt_b @ (u @ vh)
    # |W_b - W_0|^2 = 2 - 2F = 4 sin^2(theta / 2)
    theta = float(2.0 * np.arcsin(np.linalg.norm(wb - w0) / 2.0))
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
        if err > ENDPOINT_TOL:
            raise ValidationError(
                f"geodesic fails to reproduce endpoint {name}: max deviation {err:.3e}"
            )
    return sol


def _combine(sol, c, s):
    """c_k W_0 + s_k W_q for coefficient arrays c, s: a (K, N, N) stack."""
    return (c[:, None, None] * sol.psi0.amplitude_matrix
            + s[:, None, None] * sol.psi_quarter.amplitude_matrix)


def geodesic_amplitudes(sol, times):
    """Amplitude matrices W(t) = cos(t) W_0 + sin(t) W_q of psi(t), one per
    time, as a (K, N, N) stack."""
    t = np.asarray(times, dtype=float)
    return _combine(sol, np.cos(t), np.sin(t))


def geodesic_velocities(sol, times):
    """Analytic tangents d/dt W(t) = -sin(t) W_0 + cos(t) W_q, one per time."""
    t = np.asarray(times, dtype=float)
    return _combine(sol, -np.sin(t), np.cos(t))


def geodesic_points(sol, times):
    """Amplitudes W(t) and states rho(t) = W W^dag as two (K, N, N) stacks.

    W passes the Purification norm check once over the stack.  rho is then
    Hermitian, PSD and of unit trace by construction, so it is neither
    checked again nor decomposed.
    """
    w = check_norm_stack(geodesic_amplitudes(sol, times))
    return w, w @ w.conj().swapaxes(-1, -2)


def geodesic_purification(sol, t):
    """Purification psi(t) = cos(t) psi_0 + sin(t) psi_q."""
    return Purification.from_matrix(geodesic_amplitudes(sol, [t])[0])


def geodesic_point(sol, t):
    """Density matrix rho(t) along the geodesic, decomposed."""
    return DensityMatrix(geodesic_points(sol, [t])[1][0])


def geodesic_tangent(sol, t):
    """Analytic tangent d/dt psi(t) = -sin(t) psi_0 + cos(t) psi_q."""
    return TangentVector(geodesic_purification(sol, t), geodesic_velocities(sol, [t])[0])


def geodesic_samples(sol, times):
    """Amplitudes W(t) and tangents d/dt W(t) at the given times: the pair of
    (K, N, N) stacks that ``path_length`` takes."""
    return geodesic_amplitudes(sol, times), geodesic_velocities(sol, times)


def ode_residuals(sol, times, h):
    """Norms of psi'' + psi at the given times, psi'' the second difference of step h."""
    return _ode_residuals(sol, times, h, geodesic_amplitudes(sol, times))


def _ode_residuals(sol, times, h, psi):
    """``ode_residuals`` given psi = W(times): only the stacks at times +- h are built."""
    plus, minus = (geodesic_amplitudes(sol, np.asarray(times, dtype=float) + x) for x in (h, -h))
    accel = (plus - 2 * psi + minus) / h ** 2 + psi
    return np.linalg.norm(accel.reshape(len(psi), -1), axis=-1)


def ode_residual(sol, t, h):
    """Norm of psi'' + psi at t, with psi'' the second difference of step h."""
    return float(ode_residuals(sol, [t], h)[0])


def _horizontal(w, d):
    """Connection operators A and horizontal parts |D psi> = |dpsi> - i A |psi>
    (as W A^T) of stacked tangents d at the amplitude matrices w; a failing
    check, such as the rank floor, raises for the first failing sample."""
    a = connection(w, d).mat
    return a, d - 1j * (w @ a.swapaxes(-1, -2))


def _sq_norms(x):
    return np.einsum("kij,kij->k", x.conj(), x).real


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
    times = np.asarray(times, dtype=float)
    accel = speed = conn = 0.0
    for s in chunks(times.size, sol.psi0.sys_dim):
        t = times[s]
        w = geodesic_amplitudes(sol, t)
        a, horiz = _horizontal(w, geodesic_velocities(sol, t))
        accel = max(accel, float(_ode_residuals(sol, t, fd_step, w).max()))
        speed = max(speed, float(np.abs(_sq_norms(horiz) - 1.0).max()))
        conn = max(conn, float(np.abs(a).max()))
    return GeodesicODEReport(accel, speed, conn)


def path_length(samples, times):
    """Bures length by composite-trapezoid quadrature of the covariant speed.

    ``samples`` is a pair (W, dW) of (K, N, N) stacks, the amplitude matrices
    of any curve at the K times and their tangents; the integrand is
    sqrt(<D psi|D psi>) at each node.  ``connection`` norm-checks W a
    ``states.chunks`` slice at a time, and each check names the first
    failing sample.
    """
    times = np.asarray(times, dtype=float)
    w, d = (np.asarray(x, dtype=complex) for x in samples)
    if len(w) != times.size:
        raise DimensionMismatchError(f"{len(w)} samples against {times.size} time nodes")
    if d.shape != w.shape:
        raise DimensionMismatchError(f"tangent stack {d.shape} against amplitude stack {w.shape}")
    if times.size < 2:
        raise ValidationError("need at least two nodes for trapezoid quadrature")
    speeds = np.concatenate([np.sqrt(np.clip(_sq_norms(_horizontal(w[s], d[s])[1]), 0.0, None))
                             for s in chunks(len(w), w.shape[-1])])
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


def bloch_ellipse_check(sol, samples=720):
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
    bloch = np.concatenate([bloch_vector(geodesic_points(sol, ts[s])[1]) for s in chunks(m, 2)])

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
    if semi_minor > 1e-8:
        dev = np.abs((x / semi_major) ** 2 + (y / semi_minor) ** 2 - 1.0)
    else:
        # Degenerate (diameter) trace: the curve sweeps a segment, so
        # measure the transverse offset and any overshoot past the ends.
        dev = np.maximum(np.abs(y), np.clip(np.abs(x) - semi_major, 0.0, None))
        dev = dev / max(semi_major, 1e-8)
    return BlochEllipseReport(
        center=center,
        axes=basis,
        semi_major=semi_major,
        semi_minor=semi_minor,
        max_deviation=float(np.max(dev)),
        out_of_plane=out_of_plane,
        fit_residual=fit_residual,
    )
