"""Base- and bundle-manifold state types.

Density matrices (validated Hermitian/PSD/unit-trace), their standard
purifications, Schmidt decompositions, and the fidelity-derived Bures
angle and distance.  Everything downstream consumes these types.

Conventions fixed here and relied on everywhere else:

* eigenvalues sorted descending, ties broken lexicographically on the
  phase-fixed eigenvectors;
* every eigenvector's first component with modulus > 1e-12 is rotated to
  be real positive;
* Schmidt system vectors follow the same phase rule, with environment
  vectors absorbing the compensating phase so that the reassembly
  sum(c_k * xi_k (x) v_k) reproduces the source vector exactly.
"""

import json

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    SchemaError,
    TraceNotOneError,
    ValidationError,
)

CONSTRUCTION_TOL = 1e-12
ROUND_TRIP_TOL = 1e-10
RANK_TOL = 1e-10
PHASE_TOL = 1e-12
# stacked paths (field sweeps, transport) work in chunks of about this many
# matrix entries per stack, so their temporaries stay within a few MB at any N
CHUNK_ENTRIES = 1 << 14


def chunks(count, dim):
    """Slices covering range(count) in runs of CHUNK_ENTRIES // dim**2 items
    (at least one), for stacks of dim x dim matrices."""
    size = max(1, CHUNK_ENTRIES // (dim * dim))
    return [slice(i, i + size) for i in range(0, count, size)]


def fix_phase(vec):
    """Rotate a vector so its first component with modulus > 1e-12 is real positive."""
    vec = np.asarray(vec, dtype=complex)
    for entry in vec:
        if abs(entry) > PHASE_TOL:
            return vec * (abs(entry) / entry)
    return vec.copy()


def _lex_key(column):
    return tuple(x for z in column for x in (z.real, z.imag))


def sorted_eigh(mat, tie_tol=1e-12):
    """Hermitian eigendecomposition with deterministic ordering.

    Eigenvalues descending; within groups closer than ``tie_tol`` the
    phase-fixed eigenvectors are ordered lexicographically by their
    (re, im) entries.  Returns ``(eigenvalues, eigenvectors)`` with
    eigenvectors as columns.
    """
    return _order_spectrum(*np.linalg.eigh(mat), tie_tol=tie_tol)


def _order_spectrum(vals, vecs, tie_tol=1e-12):
    """Apply the ``sorted_eigh`` conventions to ascending ``eigh`` output."""
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    vecs = np.array([fix_phase(col) for col in vecs.T]).T.copy()
    # stable tie-break inside (numerically) degenerate clusters
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop == len(vals) or abs(vals[stop] - vals[start]) > tie_tol:
            if stop - start > 1:
                order = sorted(range(start, stop), key=lambda k: _lex_key(vecs[:, k]))
                vals[start:stop] = vals[order]
                vecs[:, start:stop] = vecs[:, order]
            start = stop
    return vals, vecs


def _order_spectrum_stack(vals, vecs, tie_tol=1e-12):
    """``_order_spectrum`` over (K, N) ascending eigenvalues and (K, N, N)
    eigenvectors: the phase fix is vectorised, and only matrices with
    (numerically) tied eigenvalues go through the tie-break one at a time."""
    out_vals = vals[:, ::-1].copy()
    out_vecs = vecs[..., ::-1]
    # unit columns always have an entry above PHASE_TOL
    first = (np.abs(out_vecs) > PHASE_TOL).argmax(axis=-2)[:, None, :]
    lead = np.take_along_axis(out_vecs, first, axis=-2)
    out_vecs = out_vecs * (np.abs(lead) / lead)
    tied = (np.abs(np.diff(out_vals, axis=-1)) <= tie_tol).any(axis=-1)
    for k in np.flatnonzero(tied):
        out_vals[k], out_vecs[k] = _order_spectrum(vals[k].copy(), vecs[k], tie_tol)
    return out_vals, out_vecs


def psd_sqrt(mat):
    """Matrix square root of a PSD matrix via spectral decomposition.

    Eigenvalues below zero (numerical PSD drift) are clamped to zero.
    """
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def check_finite(mat):
    """Refuse a matrix with NaN or infinite entries before arithmetic on it."""
    if not np.isfinite(mat).all():
        raise ValidationError("density matrix has non-finite (nan or inf) entries")
    return mat


def check_density_stack(mats, tol=CONSTRUCTION_TOL, vectors=True):
    """DensityMatrix checks over a (K, N, N) stack: finite and Hermitian, then
    unit trace and PSD, each within ``tol``; the first failing matrix of a
    stage raises and NaN fails.  Returns the ascending eigenvalues (K, N) of
    the Hermitian parts and, with ``vectors``, their eigenvectors."""
    dag = mats.conj().swapaxes(-1, -2)
    resid = np.abs(mats - dag)
    if not resid.max() <= tol:
        herm_err = resid.max(axis=(-2, -1))
        k = (~(herm_err <= tol)).argmax()
        # a non-finite entry makes its matrix's residual non-finite
        if not np.isfinite(herm_err[k]):
            check_finite(mats[k])
        raise NotHermitianError(
            f"not Hermitian: max|rho - rho^dag| = {herm_err[k]:.3e} > {tol:.1e}")
    herm = 0.5 * (mats + dag)
    vals, vecs = np.linalg.eigh(herm) if vectors else (np.linalg.eigvalsh(herm), None)
    trace_err = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    worst = np.maximum(trace_err, -vals[:, 0])  # both checks share tol
    if not worst.max() <= tol:
        k = (~(worst <= tol)).argmax()
        if not trace_err[k] <= tol:
            raise TraceNotOneError(f"trace differs from 1 by {trace_err[k]:.3e} > {tol:.1e}")
        raise NotPSDError(f"not PSD: min eigenvalue {vals[k, 0]:.3e} < -{tol:.1e}")
    return vals, vecs


class DensityMatrix:
    """Validated Hermitian, PSD, unit-trace N x N matrix.

    Attributes:
        mat: the complex matrix as supplied.
        dim: N.
        rank_tol: eigenvalue floor for the full-rank classification.
        eigenvalues: descending, phase-fixed spectral data (cached).
        eigenvectors: columns matching ``eigenvalues``.
        min_eigenvalue: smallest eigenvalue.
        full_rank: True iff min_eigenvalue > rank_tol.
    """

    def __init__(self, matrix, tol=CONSTRUCTION_TOL, rank_tol=RANK_TOL):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        vals, vecs = check_density_stack(mat[None], tol=tol)
        vals, vecs = _order_spectrum(vals[0], vecs[0])
        min_eig = float(vals[-1])
        self.mat = mat
        self.dim = mat.shape[0]
        self.rank_tol = rank_tol
        self.eigenvalues = vals
        self.eigenvectors = vecs
        self.min_eigenvalue = min_eig
        self.full_rank = min_eig > rank_tol

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, full_rank={self.full_rank})"


class DensityStack:
    """DensityMatrix over a (K, N, N) stack: the same checks (stage by stage,
    see ``check_density_stack``) and spectral conventions, with a leading
    stack axis on ``mat``, ``eigenvalues``, ``eigenvectors`` and
    ``min_eigenvalue``."""

    def __init__(self, mats, tol=CONSTRUCTION_TOL, rank_tol=RANK_TOL):
        mats = np.asarray(mats, dtype=complex)
        vals, vecs = _order_spectrum_stack(*check_density_stack(mats, tol=tol))
        self.mat = mats
        self.rank_tol = rank_tol
        self.eigenvalues = vals
        self.eigenvectors = vecs
        self.min_eigenvalue = vals[:, -1]


def density_violations(matrix, tol=CONSTRUCTION_TOL):
    """All density-matrix violations of a candidate matrix, as messages.

    Unlike construction, which stops at the first failure, this runs every
    check so a report can list them all.  An empty list means valid.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return [f"shape: not square, got {mat.shape}"]
    if not np.isfinite(mat).all():
        return ["finite: non-finite (nan or inf) entries"]
    found = []
    herm_err = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_err > tol:
        found.append(f"hermiticity: max|rho - rho^dag| = {herm_err:.3e} > {tol:.1e}")
    trace_err = abs(complex(np.trace(mat)) - 1.0)
    if trace_err > tol:
        found.append(f"trace: differs from 1 by {trace_err:.3e} > {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
    if min_eig < -tol:
        found.append(f"positivity: min eigenvalue {min_eig:.3e} < -{tol:.1e}")
    return found


class Purification:
    """Unit vector in the N*N bipartite space purifying some density matrix.

    The coefficient of ``|i>_S |j>_E`` sits at flat index ``i*N + j``, so the
    reshaped ``amplitude_matrix`` W satisfies rho_S = W W^dag and
    rho_E = (W^dag W)^T.
    """

    def __init__(self, amplitudes, tol=CONSTRUCTION_TOL):
        amp = np.array(amplitudes, dtype=complex).ravel()
        n = round(np.sqrt(amp.size))
        if n * n != amp.size:
            raise ValidationError(f"amplitude length {amp.size} is not a perfect square")
        norm_err = abs(np.vdot(amp, amp).real - 1.0)
        if norm_err > tol:
            raise ValidationError(f"norm^2 differs from 1 by {norm_err:.3e} > {tol:.1e}")
        self.amplitudes = amp
        self.sys_dim = n
        self.env_dim = n

    @classmethod
    def from_matrix(cls, w, tol=CONSTRUCTION_TOL):
        return cls(np.asarray(w, dtype=complex).ravel(), tol=tol)

    @property
    def amplitude_matrix(self):
        return self.amplitudes.reshape(self.sys_dim, self.env_dim)

    def overlap(self, other):
        """Complex inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"Purification(sys_dim={self.sys_dim})"


def check_norm_stack(amps, tol=CONSTRUCTION_TOL):
    """The Purification norm check over a (K, N, N) stack of amplitude
    matrices; the first failing one raises (NaN fails)."""
    err = np.abs(np.einsum("kij,kij->k", amps.conj(), amps).real - 1.0)
    if not (err <= tol).all():
        raise ValidationError(
            f"norm^2 differs from 1 by {err[(~(err <= tol)).argmax()]:.3e} > {tol:.1e}")
    return amps


def purify(rho):
    """Standard purification sum_i sqrt(p_i) |xi_i>|v_i> of a density matrix.

    The environment basis ``|v_i>`` is the canonical basis aligned to the
    (descending, phase-fixed) eigenvector ordering, so the amplitude matrix
    is just ``eigenvectors @ diag(sqrt(p))``.
    """
    w = rho.eigenvectors * np.sqrt(np.clip(rho.eigenvalues, 0.0, None))
    return Purification.from_matrix(w)


def partial_trace_env(psi, rank_tol=RANK_TOL):
    """Reduced system state Tr_E |psi><psi|."""
    w = psi.amplitude_matrix
    return DensityMatrix(w @ w.conj().T, rank_tol=rank_tol)


def partial_trace_sys(psi, rank_tol=RANK_TOL):
    """Reduced environment state Tr_S |psi><psi|."""
    w = psi.amplitude_matrix
    return DensityMatrix((w.conj().T @ w).T, rank_tol=rank_tol)


class SchmidtDecomposition:
    """Schmidt data of a purification.

    Attributes:
        coefficients: nonnegative sqrt(p_i), descending.
        sys_basis: unitary with columns |xi_i>.
        env_basis: unitary with columns |v_i>.
    """

    def __init__(self, coefficients, sys_basis, env_basis):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.sys_basis = np.asarray(sys_basis, dtype=complex)
        self.env_basis = np.asarray(env_basis, dtype=complex)

    def reassemble(self):
        """Return the purification sum_k c_k |xi_k>|v_k| as a flat vector."""
        w = (self.sys_basis * self.coefficients) @ self.env_basis.T
        return w.ravel()


def schmidt(psi):
    """Schmidt decomposition via SVD of the amplitude matrix.

    System vectors are phase-fixed (first significant component real
    positive); environment vectors absorb the compensating phase, keeping
    ``reassemble()`` exactly equal to the input amplitudes.
    """
    u, s, vh = np.linalg.svd(psi.amplitude_matrix)
    env = vh.T.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        for entry in col:
            if abs(entry) > PHASE_TOL:
                c = entry / abs(entry)
                u[:, k] = col / c
                env[:, k] = env[:, k] * c
                break
    return SchmidtDecomposition(s, u, env)


def fidelity(a, b):
    """Fidelity F(A, B) = Tr sqrt(sqrt(A) B sqrt(A)), clipped into [0, 1].

    Computed as the trace norm of sqrt(A) sqrt(B), which is the same
    quantity with better conditioning near rank deficiency.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    sing = np.linalg.svd(psd_sqrt(a.mat) @ psd_sqrt(b.mat), compute_uv=False)
    return float(np.clip(sing.sum(), 0.0, 1.0))


def bures_angle(a, b):
    """Bures angle arccos(F) in [0, pi/2]."""
    return float(np.arccos(fidelity(a, b)))


def bures_distance(a, b):
    """Bures distance sqrt(2 - 2F)."""
    return float(np.sqrt(max(2.0 - 2.0 * fidelity(a, b), 0.0)))


# --- matrix exchange format -------------------------------------------------

def matrix_to_json(mat):
    """Row-major JSON form {"dim": N, "re": [[...]], "im": [[...]]}."""
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def matrix_from_json(obj):
    """Inverse of matrix_to_json; raises SchemaError on malformed input."""
    if not isinstance(obj, dict) or not {"dim", "re", "im"} <= set(obj):
        raise SchemaError('matrix object must have keys "dim", "re", "im"')
    n = obj["dim"]
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise SchemaError(f"matrix parts must be {n}x{n}, got {re.shape} and {im.shape}")
    return complex_matrix(re, im)


def complex_matrix(re, im):
    """re + 1j * im; infinite parts give non-finite entries without a numpy warning."""
    with np.errstate(invalid="ignore"):
        return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


def load_matrix(path):
    """Read a matrix JSON file for construction, refusing non-finite entries."""
    with open(path, "r", encoding="utf-8") as fh:
        return check_finite(matrix_from_json(json.load(fh)))
