"""Connection and covariant derivative on the purification bundle.

Two routes to the connection are implemented: the decomposition-free form

    A_t = -i L_{Tr_S|psi><psi|}( Tr_S(|dpsi><psi| - |psi><dpsi|) )

with ``L`` the anticommutator inverse (sigma X + X sigma = O), and the
Schmidt-basis form built from derivatives of phase-fixed Schmidt data.
The first is the production route; the second exists for the equivalence
cross-check and is convention-dependent by nature.

Amplitude-matrix identities used throughout (W = reshaped amplitudes):
rho_S = W W^dag, rho_E = (W^dag W)^T, <psi1|psi2> = Tr(W1^dag W2),
(I (x) B)|psi> -> W B^T, and Tr_S(|phi><psi|) = (Psi^dag Phi)^T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
    RankDeficientError,
)
from . import states
from .states import RANK_TOL, Purification, _matmul, check_norm_stack, schmidt

DEFAULT_FD_STEP = 1e-5
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10


class EnvOperator:
    """Hermitian operator acting on the environment factor.

    ``entries`` may also be a (K, N, N) stack of K operators; the first one
    out of tolerance raises, and ``asymmetry`` is the worst of them.
    """

    def __init__(self, entries, tol=HERMITICITY_TOL):
        mat = np.asarray(entries, dtype=complex)
        asym = np.ravel(np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1)))
        if not (asym <= tol).all():  # NaN fails
            raise NotHermitianError(
                "environment operator not Hermitian: max|A - A^dag| ="
                f" {asym[(~(asym <= tol)).argmax()]:.3e} > {tol:.1e}"
            )
        self.mat = mat
        self.dim = mat.shape[-1]
        self.asymmetry = float(asym.max(initial=0.0))

    @classmethod
    def from_symmetrized(cls, entries):
        """Hermitize (A + A^dag)/2 and record the discarded asymmetry.

        Used where finite-difference inputs put O(h^2) noise into the
        anti-Hermitian part of an exactly-Hermitian quantity.
        """
        mat = np.asarray(entries, dtype=complex)
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        op = cls(0.5 * (mat + mat.conj().T), tol=np.inf)
        op.asymmetry = asym
        return op

    def __repr__(self):
        return f"EnvOperator(dim={self.dim})"


class TangentVector:
    """Tangent vector |X> at a bundle point (no structural constraints)."""

    def __init__(self, base, components):
        comp = np.asarray(components, dtype=complex).ravel()
        if comp.size != base.amplitudes.size:
            raise DimensionMismatchError(
                f"tangent length {comp.size} does not match base {base.amplitudes.size}"
            )
        self.base = base
        self.components = comp

    @property
    def matrix(self):
        return self.components.reshape(self.base.sys_dim, self.base.env_dim)


def real_inner(x, y):
    """Bundle inner product (X, Y) = Re<X|Y> (real-linear only)."""
    if x.components.size != y.components.size:
        raise DimensionMismatchError(
            f"tangent dimensions differ: {x.components.size} vs {y.components.size}"
        )
    return float(np.vdot(x.components, y.components).real)


def lyapunov_superop(sigma, o):
    """Solve sigma X + X sigma = O by eigenbasis division.

    In sigma's eigenbasis the solution is <i|O|k> / (q_i + q_k); this is
    the paper-defined superoperator, basis independent for full-rank sigma.
    A DensityStack sigma with a (K, N, N) stack O solves K equations; the
    first sigma at or below the rank floor RANK_TOL raises.
    """
    return _lyapunov(sigma.eigenvalues, sigma.eigenvectors, o)


def _lyapunov(q, basis, o):
    """``lyapunov_superop`` from sigma's eigenvalues q and eigenvectors, in any order."""
    low = np.ravel(q.min(axis=-1))
    if (low <= RANK_TOL).any():
        raise RankDeficientError(f"sigma min eigenvalue {low[(low <= RANK_TOL).argmax()]:.3e}"
                                 f" <= rank floor {RANK_TOL:.1e}")
    dag = basis.conj().swapaxes(-1, -2)
    x_tilde = _matmul(_matmul(dag, np.asarray(o, dtype=complex)), basis)
    return _matmul(_matmul(basis, x_tilde / (q[..., :, None] + q[..., None, :])), dag)


def _tangent_matrix(dpsi, psi):
    if isinstance(dpsi, TangentVector):
        return dpsi.matrix
    dpsi = np.asarray(dpsi, dtype=complex)
    return dpsi if dpsi.ndim > 2 else dpsi.reshape(psi.sys_dim, psi.env_dim)


def connection(psi, dpsi):
    """Decomposition-free connection of a curve with tangent dpsi at psi.

    Requires the reduced environment state to be full rank (its inverse
    anticommutator enters); raises RankDeficientError otherwise.  With a
    Purification ``psi``, ``dpsi`` may stack n tangents that share its rho_E.
    ``psi`` may also be a (K, N, N) stack of amplitude matrices, norm-checked
    here, with ``dpsi`` of the same shape.  The result holds one operator
    per tangent, and each check raises for the first matrix it fails.

    rho_E = (W^dag W)^T is decomposed by ``states._eigh`` alone: W passed the
    norm check, so rho_E is Hermitian and PSD to rounding, of trace 1 within
    CONSTRUCTION_TOL.  The rank floor and the result's Hermiticity check stay.
    """
    if isinstance(psi, Purification):
        w, d = psi.amplitude_matrix, _tangent_matrix(dpsi, psi)
    else:
        w, d = check_norm_stack(np.asarray(psi, dtype=complex)), np.asarray(dpsi, dtype=complex)
    w_dag = w.conj().swapaxes(-1, -2)
    q, basis = states._eigh(_matmul(w_dag, w).swapaxes(-1, -2))
    m = _matmul(w_dag, d)
    # Tr_S(|dpsi><psi| - |psi><dpsi|), exactly anti-Hermitian
    o = (m - m.conj().swapaxes(-1, -2)).swapaxes(-1, -2)
    return EnvOperator(-1j * _lyapunov(q, basis, o))


@dataclass
class SchmidtDerivative:
    """Elementwise parameter derivatives of phase-fixed Schmidt data."""

    d_coefficients: np.ndarray
    d_sys_basis: np.ndarray
    d_env_basis: np.ndarray


def schmidt_curve_derivative(curve, t, h=DEFAULT_FD_STEP):
    """Schmidt data at t and its central-difference derivative.

    ``curve`` maps a real parameter to a Purification.  The derivative is
    taken of the phase-fixed decompositions, i.e. under the same
    convention the connection_schmidt form expects.
    """
    mid = schmidt(curve(t))
    plus = schmidt(curve(t + h))
    minus = schmidt(curve(t - h))
    dsd = SchmidtDerivative(
        d_coefficients=(plus.coefficients - minus.coefficients) / (2 * h),
        d_sys_basis=(plus.sys_basis - minus.sys_basis) / (2 * h),
        d_env_basis=(plus.env_basis - minus.env_basis) / (2 * h),
    )
    return mid, dsd


def connection_schmidt(sd, dsd):
    """Schmidt-basis connection form.

    A_t = -i( sum_i |dv_i><v_i|
              + sum_{ik} 2 sqrt(p_i p_k)/(p_i + p_k) <xi_k|dxi_i> |v_i><v_k| ).

    Refuses (numerically) degenerate spectra, where the phase convention
    no longer pins the basis derivatives.  Finite-difference inputs leave
    O(h^2) noise in the anti-Hermitian part; the result is Hermitized with
    the discarded asymmetry recorded on the returned operator.
    """
    p = sd.coefficients.astype(float) ** 2
    if len(p) > 1:
        gap = float(np.min(np.abs(np.diff(p))))
        if not gap >= 1e-8:
            raise DegenerateSpectrumError(
                f"spectrum gap {gap:.3e} < 1.0e-08: Schmidt-basis derivatives"
                " are not fixed by the phase convention"
            )
    term1 = dsd.d_env_basis @ sd.env_basis.conj().T
    xi_inner = sd.sys_basis.conj().T @ dsd.d_sys_basis  # [k, i] = <xi_k|dxi_i>
    sqrt_p = np.sqrt(p)
    weights = 2.0 * np.outer(sqrt_p, sqrt_p) / (p[:, None] + p[None, :])
    m2 = weights * xi_inner.T
    term2 = sd.env_basis @ m2 @ sd.env_basis.conj().T
    return EnvOperator.from_symmetrized(-1j * (term1 + term2))


def env_action(psi, op):
    """Amplitudes of (I (x) op)|psi> as a flat vector, or one per operator
    of a stack."""
    op = op.mat if isinstance(op, EnvOperator) else np.asarray(op, dtype=complex)
    moved = psi.amplitude_matrix @ op.swapaxes(-1, -2)
    return moved.reshape(*op.shape[:-2], psi.amplitudes.size)


def env_expectation(psi, op):
    """<psi|(I (x) op)|psi> = Tr(op rho_E), or their array over a stack of
    operators."""
    op = op.mat if isinstance(op, EnvOperator) else np.asarray(op, dtype=complex)
    w = psi.amplitude_matrix
    return np.trace(w.conj().T @ w @ op.swapaxes(-1, -2), axis1=-2, axis2=-1)


def vertical_project(psi, x):
    """Vertical component i A |psi> of a tangent vector."""
    a = connection(psi, x)
    return TangentVector(psi, 1j * env_action(psi, a))


def horizontal_project(psi, x):
    """Horizontal component x - (x)_V of a tangent vector."""
    vert = vertical_project(psi, x)
    comp = _tangent_matrix(x, psi).ravel() - vert.components
    return TangentVector(psi, comp)


def covariant_derivative(psi, dpsi):
    """|D psi> = |dpsi> - i A |psi>, the horizontal component of dpsi."""
    return horizontal_project(psi, dpsi)


def finite_difference_tangent(curve, t, h=DEFAULT_FD_STEP):
    """Central-difference tangent of a purification-valued curve."""
    base = curve(t)
    comp = (curve(t + h).amplitudes - curve(t - h).amplitudes) / (2 * h)
    return TangentVector(base, comp)


def _check_unitary(u, tol=UNITARITY_TOL):
    """``u``, one matrix or a (K, N, N) stack, after a unitarity check that
    raises for the first matrix out of tolerance (NaN fails)."""
    u = np.asarray(u, dtype=complex)
    err = np.ravel(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1)))
    if not (err <= tol).all():
        raise NotUnitaryError("matrix not unitary: max|U^dag U - I| ="
                              f" {err[(~(err <= tol)).argmax()]:.3e} > {tol:.1e}")
    return u


def gauge_transform_curve(samples, unitaries, d_unitaries):
    """Apply a local environment gauge to a sampled curve.

    ``samples`` is a pair (W, dW) of (K, N, N) stacks, the amplitude matrices
    of the curve's nodes and their tangents; ``unitaries`` and
    ``d_unitaries`` stack the gauge and its parameter derivative at the same
    nodes.  Returns the pair (W U^T, dW U^T + W dU^T), i.e. psi' = (I (x) U)
    psi and dpsi' = (I (x) U) dpsi + (I (x) dU) psi.  The checks run stage by
    stage over the whole stack, not node by node: every U is checked for
    unitarity (NotUnitaryError for the first failing one), then every W' for
    its norm (ValidationError for the first failing one).
    """
    w, d = (np.asarray(x, dtype=complex) for x in samples)
    u_t = _check_unitary(unitaries).swapaxes(-1, -2)
    du_t = np.asarray(d_unitaries, dtype=complex).swapaxes(-1, -2)
    return check_norm_stack(w @ u_t), d @ u_t + w @ du_t
