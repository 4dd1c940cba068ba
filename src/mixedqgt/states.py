"""Base- and bundle-manifold state types.

Density matrices (validated Hermitian/PSD/unit-trace), their standard
purifications, Schmidt decompositions, and the fidelity-derived Bures
angle and distance.  Everything downstream consumes these types.

There is one spectral path: ``DensityStack`` checks and decomposes a stack
of matrices, and ``DensityMatrix`` is its one-matrix case.  The
decomposition and the root V sqrt(p) are cached on the object, so
purification and fidelity decompose nothing again.  All Hermitian spectra
come from ``_eigh``/``_eigvalsh`` and 2 x 2 products from ``_matmul``: closed
forms for N = 2 (rounding apart from LAPACK/BLAS), numpy for any other N.

Conventions fixed here and relied on everywhere else:

* eigenvalues sorted descending, ties broken lexicographically on the
  phase-fixed eigenvectors;
* every eigenvector's first component with modulus > 1e-12 is rotated to
  be real positive;
* Schmidt system vectors follow the same phase rule, with environment
  vectors absorbing the compensating phase so that the reassembly
  sum(c_k * xi_k (x) v_k) reproduces the source vector exactly.
"""

import functools
import json

import numpy as np

from .errors import (
    DimensionMismatchError,
    MixedQGTError,
    NotHermitianError,
    NotPSDError,
    SchemaError,
    TraceNotOneError,
    ValidationError,
)

CONSTRUCTION_TOL = 1e-12
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


def _by_item(fn, *stacks, label=None):
    """``fn`` over stacked items (nodes, steps, points).  When a check fails,
    ``fn`` runs again one item at a time, so the first failing item k raises,
    its checks in their per-item order; ``label(k, exc)``, if given, relabels it."""
    try:
        return fn(*stacks)
    except MixedQGTError:
        for k in range(len(stacks[0])):
            try:
                fn(*(s[k:k + 1] for s in stacks))
            except MixedQGTError as exc:
                raise exc if label is None else label(k, exc) from None
        raise


def _phase_factors(cols):
    """Unit factors that rotate the first entry with modulus > 1e-12 of each
    column (axis -2) real positive; 1 for a column without such an entry."""
    mag = np.abs(cols)
    first = (mag > PHASE_TOL).argmax(axis=-2)[..., None, :]
    lead = np.take_along_axis(cols, first, axis=-2)
    lead_mag = np.take_along_axis(mag, first, axis=-2)
    return np.divide(lead_mag, lead, out=np.ones_like(lead), where=lead_mag > PHASE_TOL)


def fix_phase(vec):
    """Rotate a vector so its first component with modulus > 1e-12 is real positive."""
    vec = np.asarray(vec, dtype=complex)
    return vec * _phase_factors(vec[:, None])[0]


def _eigh(h):
    """``np.linalg.eigh`` of a (..., N, N) Hermitian stack, in closed form for N = 2."""
    out = _eigh2(h, vectors=True) if h.shape[-1] == 2 else None
    return np.linalg.eigh(h) if out is None else out


def _eigvalsh(h):
    """``np.linalg.eigvalsh`` of a (..., N, N) Hermitian stack, in closed form for N = 2."""
    out = _eigh2(h, vectors=False) if h.shape[-1] == 2 else None
    return np.linalg.eigvalsh(h) if out is None else out


def _eigh2(h, vectors):
    """Closed-form ``_eigh`` (or, without ``vectors``, ``_eigvalsh``) of a
    (..., 2, 2) stack, read as LAPACK reads it (lower triangle, real diagonal):
    eigenvalues mean -+ r, r = hypot(half, |c|).  The larger eigenvector solves
    the better-conditioned row of H - lambda I, scaled by a power of two, and
    the smaller is (-conj v1, conj v0); r = 0 gives the identity.  None if an
    eigenvalue is not finite (non-finite entries, overflow): LAPACK then decides."""
    with np.errstate(over="ignore", invalid="ignore"):
        a, d, c = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
        half, mean = 0.5 * a - 0.5 * d, 0.5 * a + 0.5 * d
        r = np.hypot(half, np.abs(c))
        vals = np.stack([mean - r, mean + r], axis=-1)
    if not np.isfinite(vals).all():
        return None
    if not vectors:
        return vals
    zero, up = r == 0, half >= 0  # up: row (c, -half - r), else (half - r, conj c)
    e = -np.frexp(r)[1]  # exact scaling by 2^e to about 1: no overflow, no subnormals
    x = np.ldexp(np.abs(half), e) + np.ldexp(r, e)
    yr, yi = np.ldexp(c.real, e), np.ldexp(c.imag, e)
    norm = np.where(zero, 1.0, np.hypot(x, np.hypot(yr, yi)))
    x, y = x / norm, yr / norm + 1j * (yi / norm)
    v0, v1 = np.where(up, x, y.conj()), np.where(up, y, x)
    vecs = np.stack([-v1.conj(), v0, v0.conj(), v1], axis=-1).reshape(*v0.shape, 2, 2)
    return vals, np.where(zero[..., None, None], np.eye(2), vecs)


def _matmul(a, b, out=None):
    """``np.matmul(a, b, out=out)``; (..., 2, 2) stacks multiply by the entry
    formulas, all read before ``out``, which may alias ``a`` or ``b``, is written."""
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        return np.matmul(a, b, out=out)
    (a00, a01), (a10, a11) = ((a[..., i, 0], a[..., i, 1]) for i in (0, 1))
    (b00, b01), (b10, b11) = ((b[..., i, 0], b[..., i, 1]) for i in (0, 1))
    entries = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
               a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
    if out is None:
        out = np.empty((*entries[0].shape, 2, 2), dtype=entries[0].dtype)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = entries
    return out


def _lex_key(column):
    return tuple(x for z in column for x in (z.real, z.imag))


def sorted_eigh(mat):
    """Hermitian eigendecomposition with deterministic ordering.

    Eigenvalues descending; within groups closer than 1e-12 the
    phase-fixed eigenvectors are ordered lexicographically by their
    (re, im) entries.  Returns ``(eigenvalues, eigenvectors)`` with
    eigenvectors as columns.
    """
    vals, vecs = _order_spectrum(*_eigh(np.asarray(mat)[None]))
    return vals[0], vecs[0]


def _order_spectrum(vals, vecs):
    """Apply the ``sorted_eigh`` conventions to the ascending ``eigh`` output
    of a stack, (K, N) eigenvalues and (K, N, N) eigenvectors: reverse, fix
    the phases, then break ties inside (numerically) degenerate clusters."""
    vals = vals[:, ::-1].copy()
    vecs = vecs[..., ::-1]
    vecs = vecs * _phase_factors(vecs)
    tied = (np.abs(np.diff(vals, axis=-1)) <= 1e-12).any(axis=-1)
    for k in np.flatnonzero(tied):
        val, vec = vals[k], vecs[k]
        start = 0
        for stop in range(1, len(val) + 1):
            if stop == len(val) or abs(val[stop] - val[start]) > 1e-12:
                order = sorted(range(start, stop), key=lambda j: _lex_key(vec[:, j]))
                val[start:stop] = val[order]
                vec[:, start:stop] = vec[:, order]
                start = stop
    return vals, vecs


def _density_residuals(mats, vectors=False):
    """Residuals of the density checks for each item of a (K, N, N) stack:
    all entries finite, max|rho - rho^dag|, |Tr rho - 1| and the lowest
    eigenvalue of (rho + rho^dag) / 2.  Non-finite items are zeroed before any
    arithmetic, and entries near the float maximum give inf residuals without a
    warning.  Last comes the ascending ``eigh`` of the Hermitian parts with
    ``vectors`` (else None)."""
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0.0)
    dag = mats.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        herm_err = np.abs(mats - dag).max(axis=(-2, -1))
        trace_err = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    spectrum = None
    if vectors:
        spectrum = _hermitian_eigh(mats, dag)
        low = spectrum[0][:, 0]
    else:
        low = _eigvalsh(0.5 * mats + 0.5 * dag)[:, 0]
    return finite, herm_err, trace_err, low, spectrum


def _hermitian_eigh(mats, dag=None):
    """Ascending ``_eigh`` of the Hermitian parts (rho + rho^dag) / 2 of a stack,
    halved first (no overflow); ``dag`` is rho^dag if the caller has it."""
    if dag is None:
        dag = mats.conj().swapaxes(-1, -2)
    return _eigh(0.5 * mats + 0.5 * dag)


def check_density_stack(mats, vectors=True):
    """DensityMatrix checks over a (K, N, N) stack (see ``_density_residuals``):
    finite entries, then Hermitian, then unit trace and PSD, each within
    CONSTRUCTION_TOL; the first failing matrix of a stage raises.  Returns the
    ascending eigenvalues (K, N) of the Hermitian parts and their eigenvectors;
    without ``vectors``, the four (K,) residual arrays (finite, Hermitian and
    trace errors, lowest eigenvalue) from one ``eigvalsh``."""
    *residuals, spectrum = _density_residuals(mats, vectors)
    _check_residuals(mats, *residuals)
    return spectrum if vectors else residuals


def _check_residuals(mats, finite, herm_err, trace_err, low):
    """The stages of ``check_density_stack`` on the residuals of ``mats``."""
    if not finite.all():
        raise ValidationError("density matrix has non-finite (nan or inf) entries")
    if not herm_err.max() <= CONSTRUCTION_TOL:
        k = (~(herm_err <= CONSTRUCTION_TOL)).argmax()
        raise NotHermitianError(f"not Hermitian: max|rho - rho^dag| = {herm_err[k]:.3e}"
                                f" > {CONSTRUCTION_TOL:.1e}")
    worst = np.maximum(trace_err, -low)  # both checks share the tolerance
    if not worst.max() <= CONSTRUCTION_TOL:
        k = (~(worst <= CONSTRUCTION_TOL)).argmax()
        if not trace_err[k] <= CONSTRUCTION_TOL:
            raise TraceNotOneError(
                f"trace differs from 1 by {trace_err[k]:.3e} > {CONSTRUCTION_TOL:.1e}")
        raise NotPSDError(f"not PSD: min eigenvalue {low[k]:.3e} < -{CONSTRUCTION_TOL:.1e}")


class DensityStack:
    """Validated Hermitian, PSD, unit-trace N x N matrices over a (K, N, N)
    stack, checked stage by stage (see ``check_density_stack``) and
    decomposed once; ``DensityMatrix`` is the same object without the stack
    axis.

    Attributes (the arrays with the leading stack axis of ``mat``):
        mat: the complex matrices as supplied.
        dim: N.
        eigenvalues: descending, phase-fixed spectral data.
        eigenvectors: columns matching ``eigenvalues``.
        min_eigenvalue: smallest eigenvalue.
        full_rank: True iff min_eigenvalue > RANK_TOL.
        root: V sqrt(p), a square root W with W W^dag = rho, with
            eigenvalues below zero (PSD drift within CONSTRUCTION_TOL) taken
            as zero (cached).
    """

    def __init__(self, mats):
        mats = np.asarray(mats, dtype=complex)
        n = mats.shape[-1]
        vals, vecs = _order_spectrum(*check_density_stack(mats.reshape(-1, n, n)))
        self.mat = mats
        self.dim = n
        self.eigenvalues = vals.reshape(mats.shape[:-1])
        self.eigenvectors = vecs.reshape(mats.shape)
        self.min_eigenvalue = self.eigenvalues[..., -1]
        self.full_rank = self.min_eigenvalue > RANK_TOL

    @functools.cached_property
    def root(self):
        return self.eigenvectors * np.sqrt(np.clip(self.eigenvalues, 0.0, None))[..., None, :]


class DensityMatrix(DensityStack):
    """One validated density matrix: the DensityStack of a single N x N
    matrix, with no stack axis."""

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        super().__init__(mat)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, full_rank={self.full_rank})"


def density_violations(matrix):
    """All density-matrix violations of a candidate matrix, as messages.

    Unlike construction, which stops at the first failure, this runs every
    check so a report can list them all.  An empty list means valid.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return [f"shape: not square, got {mat.shape}"]
    return _stack_violations(mat[None])[0]


def _stack_violations(mats):
    """``density_violations`` of every matrix of a (K, N, N) stack, from one
    pass of the stacked residuals."""
    tol, found = CONSTRUCTION_TOL, []
    for finite, herm_err, trace_err, min_eig in zip(*_density_residuals(mats)[:4]):
        checks = (
            (herm_err > tol, f"hermiticity: max|rho - rho^dag| = {herm_err:.3e} > {tol:.1e}"),
            (trace_err > tol, f"trace: differs from 1 by {trace_err:.3e} > {tol:.1e}"),
            (not min_eig >= -tol, f"positivity: min eigenvalue {min_eig:.3e} < -{tol:.1e}"),
        )
        found.append([message for bad, message in checks if bad] if finite
                     else ["finite: non-finite (nan or inf) entries"])
    return found


class Purification:
    """Unit vector in the N*N bipartite space purifying some density matrix.

    The coefficient of ``|i>_S |j>_E`` sits at flat index ``i*N + j``, so the
    reshaped ``amplitude_matrix`` W satisfies rho_S = W W^dag and
    rho_E = (W^dag W)^T.
    """

    def __init__(self, amplitudes):
        amp = np.array(amplitudes, dtype=complex).ravel()
        n = round(np.sqrt(amp.size))
        if n * n != amp.size:
            raise ValidationError(f"amplitude length {amp.size} is not a perfect square")
        check_norm_stack(amp.reshape(1, n, n))
        self.amplitudes = amp
        self.sys_dim = n
        self.env_dim = n

    @classmethod
    def from_matrix(cls, w):
        return cls(np.asarray(w, dtype=complex).ravel())

    @property
    def amplitude_matrix(self):
        return self.amplitudes.reshape(self.sys_dim, self.env_dim)

    def overlap(self, other):
        """Complex inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"Purification(sys_dim={self.sys_dim})"


def check_norm_stack(amps):
    """The Purification norm check over a (K, N, N) stack of amplitude
    matrices, within CONSTRUCTION_TOL: the first failing one raises (NaN fails)."""
    err = np.abs(np.einsum("kij,kij->k", amps.conj(), amps).real - 1.0)
    ok = err <= CONSTRUCTION_TOL
    if not ok.all():
        raise ValidationError(
            f"norm^2 differs from 1 by {err[(~ok).argmax()]:.3e} > {CONSTRUCTION_TOL:.1e}")
    return amps


def purify(rho):
    """Standard purification sum_i sqrt(p_i) |xi_i>|v_i> of a density matrix.

    The environment basis ``|v_i>`` is the canonical basis aligned to the
    (descending, phase-fixed) eigenvector ordering, so the amplitude matrix
    is just ``eigenvectors @ diag(sqrt(p))``.
    """
    return Purification.from_matrix(rho.root)


def partial_trace_env(psi):
    """Reduced system state Tr_E |psi><psi|."""
    w = psi.amplitude_matrix
    return DensityMatrix(w @ w.conj().T)


def partial_trace_sys(psi):
    """Reduced environment state Tr_S |psi><psi|."""
    w = psi.amplitude_matrix
    return DensityMatrix((w.conj().T @ w).T)


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
    phase = _phase_factors(u)
    return SchmidtDecomposition(s, u * phase, vh.T / phase)


def root_fidelity(wa, wb):
    """Fidelity ||Wa^dag Wb||_1, clipped into [0, 1], of the states
    Wa Wa^dag and Wb Wb^dag; broadcasts over stacks of roots.

    Any roots will do: with W = sqrt(rho) U for unitaries U, the singular
    values are those of sqrt(A) sqrt(B), whose sum is
    Tr sqrt(sqrt(A) B sqrt(A)).
    """
    sing = np.linalg.svd(wa.conj().swapaxes(-1, -2) @ wb, compute_uv=False)
    return np.clip(sing.sum(axis=-1), 0.0, 1.0)


def fidelity(a, b):
    """Fidelity F(A, B) = Tr sqrt(sqrt(A) B sqrt(A)), clipped into [0, 1],
    from the cached roots of the two density matrices."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    return float(root_fidelity(a.root, b.root))


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
    if type(n) not in (int, float) or not (n >= 1 and n % 1 == 0):  # a JSON true is no int
        raise SchemaError(f"dim must be a positive integer, got {n!r}")
    re, im = _json_floats(obj["re"], "re"), _json_floats(obj["im"], "im")
    if re.shape != (n, n) or im.shape != (n, n):
        raise SchemaError(f"matrix parts must be {n}x{n}, got {re.shape} and {im.shape}")
    return complex_matrix(re, im)


def _json_floats(value, field, what="entries", ndim=None, finite=False):
    """The reader of every number in an input file: JSON numbers nested as a
    rectangular array (of ``ndim`` dimensions, if given) as a float array, else
    SchemaError naming ``field``.  numpy's conversion decides (dtype kind, ragged
    ValueError); only object arrays (big integers, null) are walked, and only flat
    lists scanned for booleans numpy would take as numbers.  NaN and Infinity are
    data, left to later checks, unless ``finite`` (chart coordinates)."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = np.asarray(None)
    ok = arr.dtype.kind in "iuf" or arr.dtype == object and all(
        type(x) in (int, float) for x in arr.flat)
    if (not ok or ndim not in (None, arr.ndim)
            or arr.ndim == 1 and any(type(x) is bool for x in value)):
        raise SchemaError(f"{field} has non-numeric {what}")
    try:
        arr = np.asarray(arr, dtype=float)
    except OverflowError:
        raise SchemaError(f"{field} has {what} beyond the float range") from None
    if finite and not np.isfinite(arr).all():
        raise SchemaError(f"{field} has non-finite {what}")
    return arr


def complex_matrix(re, im):
    """re + 1j * im; infinite parts give non-finite entries without a numpy warning."""
    with np.errstate(invalid="ignore"):
        return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


def _read_json(source):
    """The JSON document in a path or file object; text that is not UTF-8 or
    not JSON (or nested too deep to decode) raises SchemaError naming the cause."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        kind = "UTF-8 text" if isinstance(exc, UnicodeDecodeError) else "valid JSON"
        raise SchemaError(f"not {kind}: {exc}") from None


def load_matrix(path):
    """Read a matrix JSON file; its entries may be NaN or infinite, which
    ``DensityMatrix`` refuses before any arithmetic on them."""
    return matrix_from_json(_read_json(path))
