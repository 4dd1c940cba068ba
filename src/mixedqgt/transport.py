"""Horizontal transport and Uhlmann holonomy along base-space curves.

The lift is integrated in gauge form: a reference lift psi_c(t_k) (the
canonical purification at each node) carries the whole curve, and the
transported state is psi(t_k) = (I (x) U_k) psi_c(t_k) where U solves
i dU/dt = U A^c with A^c the connection along the reference.  U is
accumulated as a left-ordered product of midpoint exponentials,

    U_{k+1} = U_k exp(-i A^c(t_{k+1/2}) dt),

which keeps every factor exactly unitary and converges at second order.
The holonomy of a closed loop is U(T) U_0^dag, and its mean is the
overlap of the start purification with its transported return.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoarseGridError,
    DimensionMismatchError,
    NotClosedError,
    RankDeficientError,
    ValidationError,
)
from .states import RANK_TOL, DensityMatrix, Purification, fidelity, purify
from .bundle import _check_unitary, connection, env_expectation

PROJECTION_TOL = 1e-8
CLOSURE_TOL = 1e-10
DEFAULT_STEPS = 1024
MAX_STEPS = 2 ** 15
OVERLAP_MIN = 0.9


class LiftedCurve:
    """Discretized purification curve over known base points."""

    def __init__(self, times, points, base_points, proj_tol=PROJECTION_TOL):
        times = np.asarray(times, dtype=float)
        if not (len(points) == len(base_points) == times.size):
            raise DimensionMismatchError(
                f"{times.size} times, {len(points)} points,"
                f" {len(base_points)} base points"
            )
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing with >= 2 nodes")
        worst = 0.0
        for k, (psi, rho) in enumerate(zip(points, base_points)):
            w = psi.amplitude_matrix
            err = float(np.max(np.abs(w @ w.conj().T - rho.mat)))
            if err > proj_tol:
                raise ValidationError(
                    f"node {k}: lift does not project to base point"
                    f" (max deviation {err:.3e} > {proj_tol:.1e})"
                )
            worst = max(worst, err)
        self.times = times
        self.points = list(points)
        self.base_points = list(base_points)
        self.projection_residual = worst

    def __len__(self):
        return self.times.size


def _as_density(value):
    return value if isinstance(value, DensityMatrix) else DensityMatrix(value)


def reference_lift(base_curve, times, gauge=None):
    """Spectral lift of each base node with node-to-node phase continuity.

    Each node is the deterministic purification of the base state; every
    Schmidt column is then phase-aligned with its predecessor, so an
    eigenvector phase convention flipping branch along the curve cannot
    masquerade as a genuine discontinuity.  ``gauge``, if given, maps t
    to an environment unitary applied on top (used to randomize the
    reference for invariance tests).
    """
    times = np.asarray(times, dtype=float)
    bases = [_as_density(base_curve(t)) for t in times]
    points = []
    prev = None
    for t, rho in zip(times, bases):
        w = purify(rho).amplitude_matrix
        if prev is not None:
            col = np.einsum("ij,ij->j", prev.conj(), w)
            mag = np.abs(col)
            phase = np.where(mag > 1e-12, col / np.where(mag > 0, mag, 1.0), 1.0)
            w = w * phase.conj()[None, :]
        prev = w
        psi = Purification.from_matrix(w)
        if gauge is not None:
            u = _check_unitary(gauge(t))
            psi = Purification.from_matrix(psi.amplitude_matrix @ u.T)
        points.append(psi)
    return LiftedCurve(times, points, bases)


def _start_alignment(reference, psi_start, start_tol=PROJECTION_TOL, unitary_tol=1e-8):
    """Environment unitary u0 with psi_start = (I (x) u0) psi_c(0)."""
    base0 = reference.base_points[0]
    w_start = psi_start.amplitude_matrix
    err = float(np.max(np.abs(w_start @ w_start.conj().T - base0.mat)))
    if err > start_tol:
        raise ValidationError(
            f"start state does not purify the loop base point"
            f" (max deviation {err:.3e} > {start_tol:.1e})"
        )
    if not base0.full_rank:
        raise RankDeficientError(
            f"base point min eigenvalue {base0.min_eigenvalue:.3e} <= rank floor"
            f" {base0.rank_tol:.1e}: start alignment is not unique"
        )
    u0 = np.linalg.solve(reference.points[0].amplitude_matrix, w_start).T
    return _check_unitary(u0, tol=unitary_tol)


def _step_factor(w0, w1, dt, rank_tol):
    """Midpoint transport factor exp(-i A^c(t + dt/2) dt)."""
    mid = 0.5 * (w0 + w1)
    mid = mid / np.linalg.norm(mid)
    deriv = (w1 - w0) / dt
    a = connection(Purification.from_matrix(mid), deriv, rank_tol=rank_tol).mat
    w, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(-1j * w * dt)) @ vecs.conj().T


def _check_overlaps(reference, overlap_min):
    for k in range(len(reference) - 1):
        ov = abs(reference.points[k].overlap(reference.points[k + 1]))
        if ov <= overlap_min:
            raise CoarseGridError(
                f"reference overlap |<psi_{k}|psi_{k + 1}>| = {ov:.4f} <="
                f" {overlap_min}: grid too coarse for the curve (or the"
                " canonical lift crosses a phase branch)"
            )


def _midpoint_factors(reference, psi_start, overlap_min, rank_tol):
    """Start alignment u0 and the lazy midpoint factors of every step."""
    _check_overlaps(reference, overlap_min)
    u0 = _start_alignment(reference, psi_start)
    mats = [p.amplitude_matrix for p in reference.points]
    steps = zip(mats, mats[1:], np.diff(reference.times))
    return u0, (_step_factor(w0, w1, dt, rank_tol) for w0, w1, dt in steps)


def horizontal_lift(reference, psi_start=None, overlap_min=OVERLAP_MIN,
                    rank_tol=RANK_TOL):
    """Horizontal lift through psi_start over a reference lift.

    Returns a LiftedCurve whose nodes are the transported purifications;
    the accumulated environment unitaries are attached as
    ``transport_unitaries`` (one per node, identity gauge at the start
    meaning U_0 = u0, the start alignment).
    """
    if psi_start is None:
        psi_start = reference.points[0]
    u0, factors = _midpoint_factors(reference, psi_start, overlap_min, rank_tol)
    unitaries = list(itertools.accumulate(factors, np.matmul, initial=u0))
    points = [Purification.from_matrix(p.amplitude_matrix @ u.T)
              for p, u in zip(reference.points, unitaries)]
    lift = LiftedCurve(reference.times, points, reference.base_points)
    lift.transport_unitaries = unitaries
    return lift


def lift_fidelity_residuals(lift):
    """Per-step gap between |<psi_k|psi_{k+1}>| and F(rho_k, rho_{k+1}).

    For a horizontal lift the purification overlap saturates the fidelity
    bound to integrator accuracy; the residuals quantify the saturation.
    """
    out = np.empty(len(lift) - 1)
    for k in range(len(lift) - 1):
        ov = abs(lift.points[k].overlap(lift.points[k + 1]))
        out[k] = abs(fidelity(lift.base_points[k], lift.base_points[k + 1]) - ov)
    return out


@dataclass
class HolonomyResult:
    unitary: np.ndarray
    mean_holonomy: complex
    uhlmann_phase: float
    steps: int
    convergence_estimate: float
    unitarity_residual: float


def _holonomy_once(base_curve, psi_start, steps, overlap_min, rank_tol, reference_gauge):
    reference = reference_lift(base_curve, np.linspace(0.0, 1.0, steps + 1),
                               gauge=reference_gauge)
    u0, factors = _midpoint_factors(reference, psi_start, overlap_min, rank_tol)
    prod = functools.reduce(np.matmul, factors, np.eye(psi_start.env_dim, dtype=complex))
    return u0 @ prod @ u0.conj().T


def holonomy(base_curve, psi_start=None, steps=DEFAULT_STEPS,
             closure_tol=CLOSURE_TOL, overlap_min=OVERLAP_MIN,
             max_steps=MAX_STEPS, rank_tol=RANK_TOL, reference_gauge=None,
             convergence_check=True):
    """Uhlmann holonomy of a closed base curve on [0, 1].

    The loop must close to ``closure_tol`` in max-abs entry distance.  If
    the node-to-node reference overlap drops below ``overlap_min`` the
    step count is doubled (up to ``max_steps``) before giving up with
    CoarseGridError.  The convergence estimate is the change of the mean
    holonomy against a run at half resolution.
    """
    rho0 = _as_density(base_curve(0.0))
    rho1 = _as_density(base_curve(1.0))
    gap = float(np.max(np.abs(rho1.mat - rho0.mat)))
    if gap > closure_tol:
        raise NotClosedError(
            f"curve endpoints differ by {gap:.3e} > {closure_tol:.1e}"
        )
    if psi_start is None:
        psi_start = purify(rho0)

    n = int(steps)
    if n < 2:
        raise ValidationError(f"need at least 2 steps, got {n}")
    if n > max_steps:
        raise ValidationError(f"steps = {n} exceeds max_steps = {max_steps}")
    while True:
        try:
            u_hol = _holonomy_once(base_curve, psi_start, n, overlap_min,
                                   rank_tol, reference_gauge)
            break
        except CoarseGridError:
            if 2 * n > max_steps:
                raise
            n *= 2

    mean = complex(env_expectation(psi_start, u_hol))
    estimate = float("nan")
    if convergence_check:
        for n_alt in (n // 2, 2 * n):
            if n_alt < 2 or n_alt > max_steps:
                continue
            try:
                u_alt = _holonomy_once(base_curve, psi_start, n_alt, overlap_min,
                                       rank_tol, reference_gauge)
            except CoarseGridError:
                continue
            estimate = abs(complex(env_expectation(psi_start, u_alt)) - mean)
            break
    unit_res = float(np.max(np.abs(u_hol.conj().T @ u_hol - np.eye(len(u_hol)))))
    return HolonomyResult(
        unitary=u_hol,
        mean_holonomy=mean,
        uhlmann_phase=float(np.angle(mean)),
        steps=n,
        convergence_estimate=estimate,
        unitarity_residual=unit_res,
    )


@dataclass
class GaugeConjugationReport:
    base: HolonomyResult
    transformed: HolonomyResult
    unitary_residual: float
    mean_residual: float


def gauge_conjugation_check(base_curve, u0, psi_start=None, steps=DEFAULT_STEPS, **kw):
    """Compare holonomies from a start state and its gauge transform.

    Moving the start purification by (I (x) u0) must conjugate the
    holonomy unitary, U -> u0 U u0^dag, and leave the mean holonomy
    unchanged; the report carries both runs and the residuals.
    """
    u0 = _check_unitary(u0)
    first = holonomy(base_curve, psi_start=psi_start, steps=steps, **kw)
    start = psi_start if psi_start is not None else purify(_as_density(base_curve(0.0)))
    moved = Purification.from_matrix(start.amplitude_matrix @ u0.T)
    second = holonomy(base_curve, psi_start=moved, steps=steps, **kw)
    conj = u0 @ first.unitary @ u0.conj().T
    return GaugeConjugationReport(
        base=first,
        transformed=second,
        unitary_residual=float(np.max(np.abs(second.unitary - conj))),
        mean_residual=abs(second.mean_holonomy - first.mean_holonomy),
    )


def holonomy_report_json(result):
    return {
        "unitary_re": result.unitary.real.tolist(),
        "unitary_im": result.unitary.imag.tolist(),
        "mean_holonomy": [result.mean_holonomy.real, result.mean_holonomy.imag],
        "uhlmann_phase": result.uhlmann_phase,
        "steps": result.steps,
        "convergence_estimate": result.convergence_estimate,
    }
