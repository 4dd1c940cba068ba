"""Horizontal transport and Uhlmann holonomy along base-space curves.

The lift is integrated in gauge form: a reference lift psi_c(t_k) (the
canonical purification at each node) carries the whole curve, and the
transported state is psi(t_k) = (I (x) U_k) psi_c(t_k) where U solves
i dU/dt = U A^c with A^c the connection along the reference.  U is
accumulated as a left-ordered product of midpoint exponentials,

    U_{k+1} = U_k exp(-i A^c(t_{k+1/2}) dt),

which keeps every factor exactly unitary and converges at second order.
The reference need not close, W_c(1) = W_c(0) C (phase continuity carries
each Schmidt column's phase around a loop), so the holonomy of a closed
loop is U(T) C^T U_0^dag: the map with (I (x) U) psi(0) = psi(T).  Its
mean is the overlap of the start purification with its transported return.

Nodes and steps run as (K, N, N) stacks.  The base curve is evaluated at
all nodes at once (through its ``stack`` method, else node by node); the
node decompositions and, per step, the midpoint, its connection and the
factor's exponential run over chunks of ``states.chunks`` size.  Results
do not depend on the chunk boundaries, and a failing check names the
first failing node or step, as a node-by-node loop would.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoarseGridError,
    DimensionMismatchError,
    NotClosedError,
    RankDeficientError,
    ValidationError,
)
from .states import (RANK_TOL, DensityMatrix, DensityStack, Purification, _by_item as _by_node,
                     check_norm_stack, chunks, purify, root_fidelity)
from .bundle import _check_unitary, connection, env_expectation

PROJECTION_TOL = 1e-8
CLOSURE_TOL = 1e-10
DEFAULT_STEPS = 1024
MAX_STEPS = 2 ** 15
OVERLAP_MIN = 0.9


class LiftedCurve:
    """Discretized purification curve over known base points.

    ``amplitudes`` holds the amplitude matrix of each node's purification
    and ``base`` its base density matrix, both as (K, N, N) stacks; the
    constructor also takes sequences of Purification and DensityMatrix.
    """

    def __init__(self, times, points, base_points):
        times = np.asarray(times, dtype=float)
        amps, base = _stack(points, "amplitude_matrix"), _stack(base_points, "mat")
        if not (len(amps) == len(base) == times.size):
            raise DimensionMismatchError(
                f"{times.size} times, {len(amps)} points, {len(base)} base points"
            )
        _check_times(times)
        err = np.concatenate([
            np.abs(amps[s] @ amps[s].conj().swapaxes(-1, -2) - base[s]).max(axis=(-2, -1))
            for s in chunks(len(amps), amps.shape[-1])])
        if not (err <= PROJECTION_TOL).all():
            k = (~(err <= PROJECTION_TOL)).argmax()
            raise ValidationError(
                f"node {k}: lift does not project to base point"
                f" (max deviation {err[k]:.3e} > {PROJECTION_TOL:.1e})"
            )
        self.times = times
        self.amplitudes = amps
        self.base = base
        self.projection_residual = float(err.max())

    def __len__(self):
        return self.times.size


def _stack(items, attr):
    if isinstance(items, np.ndarray):
        return items.astype(complex, copy=False)
    return np.array([getattr(x, attr) for x in items], dtype=complex)


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing with >= 2 nodes")
    return times


def _as_density(value):
    return value if isinstance(value, DensityMatrix) else DensityMatrix(value)


def _canonical_nodes(base_curve, times):
    """Validated base matrices and the spectral purification of every node.

    The base stack is the curve's own ``stack(times)`` if it has one, else
    its values at each t, stacked.
    """
    if hasattr(base_curve, "stack"):
        base = np.asarray(base_curve.stack(times), dtype=complex)
    else:
        base = np.array([getattr(rho, "mat", rho) for rho in map(base_curve, times)],
                        dtype=complex)
    amps = np.empty_like(base)
    for s in chunks(len(base), base.shape[-1]):
        amps[s] = _by_node(DensityStack, base[s]).root
    return base, amps


def _column_overlaps(amps):
    """(K - 1, N) overlaps <w_k,j|w_{k+1},j> of the Schmidt columns j of the
    K - 1 steps of an amplitude stack; they sum to <psi_k|psi_{k+1}>."""
    return np.concatenate([np.einsum("kij,kij->kj", amps[:-1][s].conj(), amps[1:][s])
                           for s in chunks(len(amps) - 1, amps.shape[-1])])


def _continuity_phases(amps):
    """Phases that align each Schmidt column with the same column one node back.

    Column j of node k gets the running product of the unit overlaps
    <w_{i-1},j|w_i,j> / |.| for i <= k, renormalised to modulus 1; where an
    overlap is at or below 1e-12 it carries no phase and the product
    restarts at 1.  The (K, N) phases are small, so the product runs over
    the whole curve at once, whatever the chunk size.
    """
    ov = np.concatenate([np.ones((1, amps.shape[-1])), _column_overlaps(amps)])
    mag = np.abs(ov)
    restart = ~(mag > 1e-12)
    run = np.multiply.accumulate(np.where(restart, 1.0, ov / np.where(restart, 1.0, mag)), axis=0)
    # divide out the product up to each column's last restart (row 0 if none)
    last = np.maximum.accumulate(np.where(restart, np.arange(len(ov))[:, None], 0), axis=0)
    run = run / np.take_along_axis(run, last, axis=0)
    return run / np.abs(run)


def _gauged(w, u):
    """Norm-checked nodes w, moved by the environment unitaries u."""
    return check_norm_stack(check_norm_stack(w) @ _check_unitary(u).swapaxes(-1, -2))


def _aligned_lift(times, base, amps, gauge):
    """Reference lift over canonical nodes: phase continuity, then the gauge."""
    phases = _continuity_phases(amps).conj()[:, None, :]
    gauges = None if gauge is None else np.array([gauge(t) for t in times], dtype=complex)
    points = np.empty_like(amps)
    for s in chunks(len(amps), amps.shape[-1]):
        w = amps[s] * phases[s]
        points[s] = check_norm_stack(w) if gauges is None else _by_node(_gauged, w, gauges[s])
    return LiftedCurve(times, points, base)


def reference_lift(base_curve, times, gauge=None):
    """Spectral lift of each base node with node-to-node phase continuity.

    Each node is the deterministic purification of the base state; every
    Schmidt column is then phase-aligned with its predecessor, so an
    eigenvector phase convention flipping branch along the curve cannot
    masquerade as a genuine discontinuity.  ``gauge``, if given, maps t
    to an environment unitary applied on top (used to randomize the
    reference for invariance tests).  The nodes are evaluated, checked
    and decomposed as stacks (see ``_canonical_nodes``).
    """
    times = _check_times(times)
    return _aligned_lift(times, *_canonical_nodes(base_curve, times), gauge)


def _start_alignment(reference, psi_start):
    """Environment unitary u0 with psi_start = (I (x) u0) psi_c(0)."""
    base0 = DensityMatrix(reference.base[0])
    w_start = psi_start.amplitude_matrix
    err = float(np.max(np.abs(w_start @ w_start.conj().T - base0.mat)))
    if err > PROJECTION_TOL:
        raise ValidationError(
            f"start state does not purify the loop base point"
            f" (max deviation {err:.3e} > {PROJECTION_TOL:.1e})"
        )
    if not base0.full_rank:
        raise RankDeficientError(
            f"base point min eigenvalue {base0.min_eigenvalue:.3e} <= rank floor"
            f" {RANK_TOL:.1e}: start alignment is not unique"
        )
    u0 = np.linalg.solve(reference.amplitudes[0], w_start).T
    return _check_unitary(u0, tol=1e-8)


def _transport_unitaries(reference, psi_start):
    """The environment unitaries U_k = u0 f_1 ... f_k of the transport from
    psi_start, one per node as a (K, N, N) stack: u0 is the start alignment
    and f_k = exp(-i A^c(t + dt/2) dt) the midpoint factor of step k.  The
    factors are formed a chunk of steps at a time and multiplied in step
    order."""
    amps, dts = reference.amplitudes, np.diff(reference.times)
    ov = np.abs(_column_overlaps(amps).sum(axis=-1))
    if (ov <= OVERLAP_MIN).any():
        k = (ov <= OVERLAP_MIN).argmax()
        raise CoarseGridError(
            f"reference overlap |<psi_{k}|psi_{k + 1}>| = {ov[k]:.4f} <="
            f" {OVERLAP_MIN}: grid too coarse for the curve (or the"
            " canonical lift crosses a phase branch)"
        )
    unitaries = np.empty_like(amps)
    unitaries[0] = _start_alignment(reference, psi_start)
    for s in chunks(len(dts), amps.shape[-1]):
        w0, w1, dt = amps[:-1][s], amps[1:][s], dts[s]
        mid = 0.5 * (w0 + w1)
        mid = mid / np.linalg.norm(mid, axis=(-2, -1))[:, None, None]
        a = _by_node(connection, mid, (w1 - w0) / dt[:, None, None]).mat
        w, vecs = np.linalg.eigh(a)
        factors = (vecs * np.exp(-1j * w * dt[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        for prev, f, cur in zip(unitaries[s.start:], factors, unitaries[s.start + 1:]):
            np.matmul(prev, f, out=cur)
    return unitaries


def horizontal_lift(reference, psi_start=None):
    """Horizontal lift through psi_start over a reference lift.

    Returns a LiftedCurve whose nodes are the transported purifications;
    the environment unitaries U_k = u0 f_1 ... f_k (u0 the start alignment,
    f_k the midpoint factors) are attached as the (K, N, N) stack
    ``transport_unitaries``, the same products ``holonomy`` closes.
    """
    if psi_start is None:
        psi_start = Purification.from_matrix(reference.amplitudes[0])
    unitaries = _transport_unitaries(reference, psi_start)
    points = reference.amplitudes @ unitaries.swapaxes(-1, -2)
    for s in chunks(len(points), points.shape[-1]):
        check_norm_stack(points[s])
    lift = LiftedCurve(reference.times, points, reference.base)
    lift.transport_unitaries = unitaries
    return lift


def lift_fidelity_residuals(lift):
    """Per-step gap between |<psi_k|psi_{k+1}>| and F(rho_k, rho_{k+1}).

    For a horizontal lift the purification overlap saturates the fidelity
    bound to integrator accuracy; the residuals quantify the saturation.
    """
    fid = []
    for s in chunks(len(lift) - 1, lift.base.shape[-1]):
        roots = _by_node(DensityStack, lift.base[s.start:s.stop + 1]).root
        fid.append(root_fidelity(roots[:-1], roots[1:]))
    return np.abs(np.concatenate(fid) - np.abs(_column_overlaps(lift.amplitudes).sum(axis=-1)))


@dataclass
class HolonomyResult:
    unitary: np.ndarray
    mean_holonomy: complex
    uhlmann_phase: float
    steps: int
    convergence_estimate: float
    unitarity_residual: float


def _holonomy_once(times, base, amps, psi_start, reference_gauge):
    reference = _aligned_lift(times, base, amps, reference_gauge)
    unitaries = _transport_unitaries(reference, psi_start)
    closing = np.linalg.solve(reference.amplitudes[0], reference.amplitudes[-1])
    return unitaries[-1] @ closing.T @ unitaries[0].conj().T


def holonomy(base_curve, psi_start=None, steps=DEFAULT_STEPS, reference_gauge=None,
             convergence_check=True):
    """Uhlmann holonomy of a closed base curve on [0, 1].

    The loop must close to CLOSURE_TOL in max-abs entry distance.  If the
    node-to-node reference overlap drops to OVERLAP_MIN or below, the step
    count is doubled (up to MAX_STEPS) before giving up with
    CoarseGridError.  The unitary U maps the start purification to its
    transported return, (I (x) U) psi_start = psi_end, and the mean holonomy
    is <psi_start|psi_end>.  The convergence estimate is the change of the
    mean holonomy against a run at half resolution.
    """
    rho0 = _as_density(base_curve(0.0))
    rho1 = _as_density(base_curve(1.0))
    gap = float(np.max(np.abs(rho1.mat - rho0.mat)))
    if gap > CLOSURE_TOL:
        raise NotClosedError(
            f"curve endpoints differ by {gap:.3e} > {CLOSURE_TOL:.1e}"
        )
    if psi_start is None:
        psi_start = purify(rho0)

    n = int(steps)
    if n < 2:
        raise ValidationError(f"need at least 2 steps, got {n}")
    if n > MAX_STEPS:
        raise ValidationError(f"steps = {n} exceeds MAX_STEPS = {MAX_STEPS}")
    while True:
        times = np.linspace(0.0, 1.0, n + 1)
        nodes = _canonical_nodes(base_curve, times)
        try:
            u_hol = _holonomy_once(times, *nodes, psi_start, reference_gauge)
            break
        except CoarseGridError:
            if 2 * n > MAX_STEPS:
                raise
            n *= 2

    mean = complex(env_expectation(psi_start, u_hol))
    estimate = float("nan")
    if convergence_check:
        for n_alt in (n // 2, 2 * n):
            if n_alt < 2 or n_alt > MAX_STEPS:
                continue
            alt_times = np.linspace(0.0, 1.0, n_alt + 1)
            # for even n the half grid is every second node, bit for bit, so
            # its decomposed nodes are reused; any other grid is evaluated
            if np.array_equal(alt_times, times[::2]):
                alt_nodes = tuple(x[::2] for x in nodes)
            else:
                alt_nodes = _canonical_nodes(base_curve, alt_times)
            try:
                u_alt = _holonomy_once(alt_times, *alt_nodes, psi_start, reference_gauge)
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
