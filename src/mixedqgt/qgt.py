"""Mixed-state quantum geometric tensor and gauge curvature.

The tensor Q_{nu mu} is computed along two independent routes:

* ``msqgt_covariant_route`` -- Gram matrix <D_nu psi|D_mu psi> of covariant
  derivatives of a purification lift;
* ``msqgt_eigenroute`` -- spectral formula
  sum_{ik} p_i/(p_i+p_k)^2 <i|d_nu rho|k><k|d_mu rho|i>
  working directly on the density matrix.

Re Q is the Bures metric, Im Q the mean-gauge-curvature part.  The two
routes share nothing but the ``states`` eigendecomposition and 2 x 2 product,
on purpose: their agreement is a correctness check and must stay falsifiable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentStencilError,
    NonHermitianDerivativeError,
    RankDeficientError,
    ValidationError,
)
from . import states
from .states import RANK_TOL, _matmul, check_density_stack
from .bundle import EnvOperator, _tangent_matrix, connection, env_action, env_expectation
from .models import DEFAULT_FD_STEP, derivative_stack

STRUCTURE_TOL = 1e-9
METRIC_PSD_TOL = 1e-9
CURVATURE_STENCIL_STEP = 1e-4
CURVATURE_JUMP_TOL = 0.1


def _default_chart(n):
    return [f"x{i}" for i in range(n)]


class QGTensor:
    """Quantum geometric tensor on a parameter chart.

    Structural properties (Re symmetric, Im antisymmetric, Re positive
    semidefinite) are measured at construction and stored as residuals;
    violations beyond STRUCTURE_TOL and METRIC_PSD_TOL raise.
    """

    def __init__(self, entries, chart=None):
        entries = np.asarray(entries, dtype=complex)
        n = entries.shape[0]
        if entries.shape != (n, n):
            raise ValidationError(f"QGT entries must be square, got {entries.shape}")
        self.entries = entries
        self.chart = list(chart) if chart is not None else _default_chart(n)
        if len(self.chart) != n:
            raise ValidationError(
                f"chart has {len(self.chart)} labels for a {n}x{n} tensor"
            )
        sym, antisym, min_eig = check_tensor_stack(entries[None])
        self.sym_residual = float(sym[0])
        self.antisym_residual = float(antisym[0])
        self.min_metric_eigenvalue = float(min_eig[0])

    @property
    def dim(self):
        return self.entries.shape[0]

    def __repr__(self):
        return f"QGTensor(chart={self.chart})"


def bures_metric(q):
    """Real part of the tensor: the Bures metric g_{nu mu}."""
    return q.entries.real.copy()


def mean_curvature_part(q):
    """Imaginary part of the tensor (antisymmetric curvature part)."""
    return q.entries.imag.copy()


def qgt_to_json(q):
    return {
        "chart": list(q.chart),
        "re": q.entries.real.tolist(),
        "im": q.entries.imag.tolist(),
    }


def check_tensor_stack(q):
    """QGTensor checks over a (K, n, n) stack: ``(sym, antisym, min_metric_eigenvalue)``
    residual arrays; the first tensor out of tolerance raises (NaN fails)."""
    if q.shape[-1] == 0:
        zero = np.zeros(len(q))
        return zero, zero, zero
    re, im = q.real, q.imag
    re_t = re.swapaxes(-1, -2)
    sym = np.abs(re - re_t).max(axis=(-2, -1))
    antisym = np.abs(im + im.swapaxes(-1, -2)).max(axis=(-2, -1))
    for part, resid in (("real part not symmetric", sym),
                        ("imaginary part not antisymmetric", antisym)):
        if not resid.max() <= STRUCTURE_TOL:
            k = (~(resid <= STRUCTURE_TOL)).argmax()
            raise ValidationError(f"{part}: residual {resid[k]:.3e} > {STRUCTURE_TOL:.1e}")
    min_eig = states._eigvalsh(0.5 * (re + re_t)).min(axis=-1)
    if not min_eig.min() >= -METRIC_PSD_TOL:
        k = (~(min_eig >= -METRIC_PSD_TOL)).argmax()
        raise ValidationError(f"metric has negative eigenvalue {min_eig[k]:.3e}")
    return sym, antisym, min_eig


def spectral_qgt_stack(p, basis, drho):
    """Eigenroute tensors Q (K, n, n) from eigenvalues p (K, N), eigenvector
    columns (K, N, N) and derivatives drho (K, n, N, N), Hermitian within
    STRUCTURE_TOL, of K states, as one contraction; the tensor structure is
    left unchecked."""
    asym = np.abs(drho - drho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if not asym.max() <= STRUCTURE_TOL:
        k = (~(asym.ravel() <= STRUCTURE_TOL)).argmax()
        raise NonHermitianDerivativeError(
            f"derivative {k % asym.shape[1]} not Hermitian: max|d - d^dag| ="
            f" {asym.flat[k]:.3e} > {STRUCTURE_TOL:.1e}"
        )
    weights = p[:, :, None] / (p[:, :, None] + p[:, None, :]) ** 2
    m = _matmul(_matmul(basis.conj().swapaxes(-1, -2)[:, None], drho), basis[:, None])
    terms = weights[:, None, None] * m[:, :, None] * m.swapaxes(-1, -2)[:, None, :]
    return terms.sum(axis=(-2, -1))


def msqgt_eigenroute(rho, drho_list, chart=None):
    """Spectral-route tensor from a density matrix and its derivatives.

    Q_{nu mu} = sum_{ik} p_i / (p_i + p_k)^2 * M_nu[i,k] M_mu[k,i]
    with M = V^dag (d rho) V in the eigenbasis of rho.  Full rank is
    required (the weights blow up on a null eigenvalue pair).  This is
    ``spectral_qgt_stack`` on a stack of one.
    """
    if not rho.full_rank:
        raise RankDeficientError(
            f"state min eigenvalue {rho.min_eigenvalue:.3e} <= rank floor"
            f" {RANK_TOL:.1e}"
        )
    mats = [np.asarray(d, dtype=complex) for d in drho_list]
    for mu, d in enumerate(mats):
        if d.shape != (rho.dim, rho.dim):
            raise ValidationError(
                f"derivative {mu} has shape {d.shape}, expected {(rho.dim, rho.dim)}"
            )
    q = spectral_qgt_stack(rho.eigenvalues[None], rho.eigenvectors[None], np.array(mats)[None])
    return QGTensor(q[0], chart=chart)


def msqgt_field(model, points, scheme="analytic", h=DEFAULT_FD_STEP):
    """``msqgt_eigenroute(model.evaluate(x), derivatives(model, x, scheme, h))``
    at a (K, n) stack of chart points x, with the same checks in the same order
    per stage, batched; ``derivative_stack`` checks the central-difference
    neighbours.  Under the analytic scheme the states come with their
    derivatives from one ``matrices_and_derivatives_at`` call, so a family
    without analytic derivatives raises before any density check.  The states
    (and neighbours) of a ``certified`` model are decomposed unchecked; the
    rank floor still holds.  Returns Q (K, n, n) and the sym/antisym residuals."""
    model.check_points(points)
    mats, drho = model.matrices_and_derivatives_at(points) if scheme == "analytic" else (
        model.matrices_at(points), None)
    p, basis = (states._hermitian_eigh if model.certified else check_density_stack)(mats)
    if drho is None:
        drho, _ = derivative_stack(model, points, scheme, h)
    if not p[:, 0].min() > RANK_TOL:
        k = (~(p[:, 0] > RANK_TOL)).argmax()
        raise RankDeficientError(
            f"state min eigenvalue {p[k, 0]:.3e} <= rank floor {RANK_TOL:.1e}")
    q = spectral_qgt_stack(p, basis, drho)
    sym, antisym, _ = check_tensor_stack(q)
    return q, sym, antisym


def msqgt_covariant_route(psi, tangents, chart=None):
    """Covariant-derivative route: Q_{nu mu} = <D_nu psi|D_mu psi>.

    ``tangents`` are the parameter derivatives of any smooth purification
    lift; the connection subtraction removes the lift dependence.
    """
    d = np.reshape([_tangent_matrix(x, psi) for x in tangents], (-1, psi.sys_dim, psi.env_dim))
    a = connection(psi, d)
    # |D psi> = |dpsi> - i A |psi>, one row per tangent
    horiz = d.reshape(len(d), psi.amplitudes.size) - 1j * env_action(psi, a)
    return QGTensor(horiz.conj() @ horiz.T, chart=chart)


def pure_qgt(xi, dxi_list, chart=None):
    """Pure-state tensor <d_nu xi|d_mu xi> - <d_nu xi|xi><xi|d_mu xi>."""
    xi = np.asarray(xi, dtype=complex).ravel()
    nrm = float(np.linalg.norm(xi))
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValidationError(f"state norm {nrm!r} deviates from 1 by more than 1.0e-10")
    dxi = np.reshape([np.asarray(d, dtype=complex).ravel() for d in dxi_list], (-1, xi.size))
    overlaps = dxi @ xi.conj()
    q = dxi.conj() @ dxi.T - np.outer(overlaps.conj(), overlaps)
    return QGTensor(q, chart=chart)


class CurvatureTensor:
    """Antisymmetric field-strength blocks T_{nu mu} (Hermitian operators),
    each property within 1e-8."""

    def __init__(self, blocks, chart=None):
        blocks = np.asarray(blocks, dtype=complex)
        n = blocks.shape[0]
        self.blocks = blocks
        self.chart = list(chart) if chart is not None else _default_chart(n)
        swapped = np.transpose(blocks, (1, 0, 2, 3))
        self.antisym_residual = float(np.max(np.abs(blocks + swapped))) if n else 0.0
        dag = np.conj(np.transpose(blocks, (0, 1, 3, 2)))
        self.herm_residual = float(np.max(np.abs(blocks - dag))) if n else 0.0
        if not self.antisym_residual <= 1e-8:
            raise ValidationError(
                f"curvature not antisymmetric: residual {self.antisym_residual:.3e}"
            )
        if not self.herm_residual <= 1e-8:
            raise ValidationError(
                f"curvature blocks not Hermitian: residual {self.herm_residual:.3e}"
            )

    def expectation(self, psi):
        """sigma_{nu mu} = (1/2) <psi|(I (x) T_{nu mu})|psi> for every pair."""
        return 0.5 * env_expectation(psi, self.blocks)


def _as_matrices(ops):
    return np.array([op.mat if isinstance(op, EnvOperator) else op for op in ops], dtype=complex)


def gauge_curvature(connection_field, point, chart=None):
    """Field strength T_{nu mu} = d_nu A_mu - d_mu A_nu - i[A_nu, A_mu].

    ``connection_field`` maps a chart point to the list of connection
    operators (one per direction).  Partial derivatives are taken by a
    central stencil of width CURVATURE_STENCIL_STEP; a stencil value jumping
    by more than CURVATURE_JUMP_TOL from the centre indicates a gauge/phase
    branch discontinuity and raises InconsistentStencilError rather than
    differentiating garbage.
    """
    point = np.asarray(point, dtype=float)
    center = _as_matrices(connection_field(point))
    n = len(center)
    offsets = CURVATURE_STENCIL_STEP * np.eye(n, point.size)
    # stencil[nu, side, mu]: component mu at point + offsets[nu] (side 0) or - offsets[nu]
    stencil = np.array([[_as_matrices(connection_field(point + sign * offset))
                         for sign in (1.0, -1.0)] for offset in offsets])
    jumps = np.abs(stencil - center).max(axis=(-2, -1))
    if not jumps.max() <= CURVATURE_JUMP_TOL:
        nu, side, mu = np.unravel_index((~(jumps <= CURVATURE_JUMP_TOL)).argmax(), jumps.shape)
        raise InconsistentStencilError(
            f"connection component {mu} jumps by {jumps[nu, side, mu]:.3e} across the"
            f" {'+-'[side]}{CURVATURE_STENCIL_STEP:g} stencil in direction {nu}; refusing to"
            " differentiate across a discontinuity"
        )
    d_a = (stencil[:, 0] - stencil[:, 1]) / (2 * CURVATURE_STENCIL_STEP)
    comm = center[:, None] @ center[None] - center[None] @ center[:, None]
    return CurvatureTensor(d_a - d_a.swapaxes(0, 1) - 1j * comm, chart=chart)


@dataclass
class ThermalSweepEntry:
    beta: float
    tensor: QGTensor
    deviation: float


@dataclass
class ThermalSweepResult:
    """Tensor along an inverse-temperature sweep against its pure limit."""

    entries: list
    pure_tensor: QGTensor
    truncated_at: float | None = None

    @property
    def betas(self):
        return [e.beta for e in self.entries]

    @property
    def deviations(self):
        return [e.deviation for e in self.entries]


def thermal_limit_sweep(model, point, betas):
    """Sweep the tensor of a thermal family toward the zero-temperature limit.

    For each beta the spectral-route tensor, ``msqgt_field`` at the one point
    (analytic derivatives if the family has them, else central differences),
    is compared (max-abs entry difference) against the pure-state tensor of
    the ground-state family.  The sweep truncates, recording
    ``truncated_at``, once the thermal state falls below the rank floor.
    """
    point = np.asarray(point, dtype=float)
    h = DEFAULT_FD_STEP
    xi = model.ground_state(point)
    dxi = [(model.ground_state(point + offset) - model.ground_state(point - offset)) / (2 * h)
           for offset in h * np.eye(len(point))]
    pure = pure_qgt(xi, dxi, chart=model.param_labels)

    scheme = "analytic" if model.analytic else "central"
    entries = []
    truncated_at = None
    for beta in betas:
        try:
            q = QGTensor(msqgt_field(model.with_beta(beta), point[None], scheme, h)[0][0],
                         chart=model.param_labels)
        except RankDeficientError:
            truncated_at = float(beta)
            break
        deviation = float(np.max(np.abs(q.entries - pure.entries)))
        entries.append(ThermalSweepEntry(float(beta), q, deviation))
    return ThermalSweepResult(entries=entries, pure_tensor=pure, truncated_at=truncated_at)
