import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedqgt import (
    DensityMatrix,
    DensityStack,
    NotHermitianError,
    NotPSDError,
    Purification,
    SchemaError,
    TraceNotOneError,
    ValidationError,
    bures_angle,
    bures_distance,
    density_violations,
    fidelity,
    fix_phase,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    partial_trace_env,
    partial_trace_sys,
    purify,
    schmidt,
    sorted_eigh,
)
from mixedqgt.states import RANK_TOL, _phase_factors, _stack_violations, check_norm_stack
from conftest import rand_density, rand_herm, rand_unitary


def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
    assert rho.dim == 2
    assert rho.full_rank
    assert np.allclose(sorted(rho.eigenvalues), rho.eigenvalues[::-1])


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 0.2], [0.1, 0.5]]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(TraceNotOneError):
        DensityMatrix(np.diag([0.5, 0.5 + 1e-7]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError):
        DensityMatrix(np.diag([1.2, -0.2]))


def test_density_violations_lists_everything():
    msgs = density_violations(np.array([[1.3, 0.2], [0.1, -0.3]]))
    text = " ".join(msgs)
    assert "hermit" in text.lower()
    # an exactly valid state reports nothing
    assert density_violations(np.diag([0.25, 0.75])) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_are_refused_by_name(bad):
    mat = np.array([[0.6, 0.0], [0.0, 0.4]], dtype=complex)
    mat[0, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix(mat)
    assert density_violations(mat) == ["finite: non-finite (nan or inf) entries"]


@pytest.mark.parametrize("at", [(0, 0), (1, 1), (0, 1), (1, 0)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, -np.inf)])
def test_infinite_entries_are_refused_before_any_arithmetic(at, bad):
    # inf - inf in the Hermiticity residual would warn; the finite check comes first
    mat = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    mat[at] = bad
    stack = np.array([np.diag([0.5, 0.5]), np.diag([0.3, 0.7]), mat, np.diag([1.0, 0.0])])
    for build, arg in ((DensityMatrix, mat), (DensityStack, stack)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                build(arg)
        assert str(exc.value) == "density matrix has non-finite (nan or inf) entries"


# entries near the float maximum: the residuals overflow to inf, and the
# Hermitian part is halved before the sum, so its spectrum stays finite
# unless the eigenvalues themselves pass the float maximum (then nan fails)
_HUGE = [
    ([[0.5, 1e308], [-1e308, 0.5]], NotHermitianError,
     "not Hermitian: max|rho - rho^dag| = inf > 1.0e-12",
     ["hermiticity: max|rho - rho^dag| = inf > 1.0e-12"]),
    ([[1.5e308, 0.0], [0.0, 1.5e308]], TraceNotOneError,
     "trace differs from 1 by inf > 1.0e-12", ["trace: differs from 1 by inf > 1.0e-12"]),
    ([[1.5e308, 0.0], [0.0, -1.5e308]], TraceNotOneError,
     "trace differs from 1 by 1.000e+00 > 1.0e-12",
     ["trace: differs from 1 by 1.000e+00 > 1.0e-12",
      "positivity: min eigenvalue -1.500e+308 < -1.0e-12"]),
    ([[0.5, 1e308], [1e308, 0.5]], NotPSDError,
     "not PSD: min eigenvalue -1.000e+308 < -1.0e-12",
     ["positivity: min eigenvalue -1.000e+308 < -1.0e-12"]),
    ([[0.5, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.5]], NotPSDError,
     "not PSD: min eigenvalue nan < -1.0e-12", ["positivity: min eigenvalue nan < -1.0e-12"]),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mat, error, message, violations", _HUGE)
def test_entries_near_the_float_maximum_fail_without_a_warning(mat, error, message, violations):
    mat = np.array(mat, dtype=complex)
    with pytest.raises(error) as exc:
        DensityMatrix(mat)
    assert str(exc.value) == message
    assert density_violations(mat) == violations
    stack = np.array([np.diag([0.5, 0.5]), mat, np.diag([0.3, 0.7])])
    assert _stack_violations(stack) == [[], violations, []]


def test_stacked_violations_match_one_matrix_at_a_time():
    rng = np.random.default_rng(20)
    mats = np.array([rand_density(rng, 3).mat for _ in range(6)])
    mats[1, 0, 0] += 1e-9j                       # trace and Hermiticity
    mats[2] = np.diag([1.2, 0.1, -0.3])          # not PSD
    mats[3, 1, 2] = np.nan                       # non-finite
    mats[4] *= 1.0 + 1e-11                       # trace
    mats[5, 0, 1] += 1e-9                        # Hermiticity
    found = _stack_violations(mats)
    assert found == [density_violations(m) for m in mats]
    assert [len(v) for v in found] == [0, 2, 1, 1, 1, 1]


def test_rank_detection():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    assert not rho.full_rank
    assert DensityMatrix(np.diag([0.6, 0.4])).full_rank


def test_sorted_eigh_descending_and_deterministic():
    rng = np.random.default_rng(0)
    m = rand_herm(rng, 4)
    vals, vecs = sorted_eigh(m)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, m)
    vals2, vecs2 = sorted_eigh(m.copy())
    assert np.array_equal(vals, vals2)
    assert np.array_equal(vecs, vecs2)


def test_sorted_eigh_degenerate_block_is_reproducible():
    # eigh's basis inside a degenerate cluster is arbitrary; the sorted
    # version must still return the same decomposition every time
    m = np.diag([0.5, 0.25, 0.25]).astype(complex)
    u = rand_unitary(np.random.default_rng(5), 3)
    m = u @ m @ u.conj().T
    vals, vecs = sorted_eigh(m)
    vals2, vecs2 = sorted_eigh(m)
    assert np.array_equal(vecs, vecs2)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, m)


def test_sorted_eigh_phases_match_fix_phase_column_by_column():
    # the reference is fix_phase applied to each eigh column in turn; the
    # near-diagonal cases have negligible leading entries (the same rounding
    # of |entry| matters, so equality is exact)
    rng = np.random.default_rng(4)
    mats = [rand_herm(rng, n) for n in (2, 3, 5, 16)]
    mats += [np.diag([0.95, 0.05]) + 1e-17 * rand_herm(rng, 2),
             np.diag([0.5, 0.3, 0.2]) + 1e-16 * rand_herm(rng, 3)]
    for m in mats:
        vals, vecs = np.linalg.eigh(m)
        reference = np.column_stack([fix_phase(vecs[:, k]) for k in range(len(vals))])[:, ::-1]
        sorted_vals, sorted_vecs = sorted_eigh(m)
        assert np.array_equal(sorted_vals, vals[::-1])
        assert np.array_equal(sorted_vecs, reference)


def test_fix_phase_makes_leading_entry_real_positive():
    v = np.array([0.0, 0.3 * np.exp(1.2j), 0.5])
    w = fix_phase(v)
    assert abs(w[1].imag) < 1e-14 and w[1].real > 0
    assert np.allclose(np.abs(w), np.abs(v))


def test_cached_root_squares_back():
    rng = np.random.default_rng(1)
    rho = rand_density(rng, 4)
    w = rho.root
    assert np.allclose(w @ w.conj().T, rho.mat, atol=1e-12)
    # the Hermitian square root from the same decomposition
    s = w @ rho.eigenvectors.conj().T
    assert np.allclose(s @ s, rho.mat, atol=1e-12)
    assert np.allclose(s, s.conj().T)
    assert rho.root is w


def test_cached_root_clamps_tiny_negative_modes():
    rho = DensityMatrix(np.diag([1.0, -1e-14]))
    assert np.array_equal(rho.root, np.diag([1.0, 0.0]))


def test_purify_round_trip():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        rho = rand_density(rng, n)
        psi = purify(rho)
        back = partial_trace_env(psi)
        assert np.allclose(back.mat, rho.mat, atol=1e-12)


def test_partial_traces_match_explicit_kron_construction():
    # independent oracle: build |psi> = (A (x) B)|phi> coefficient by
    # coefficient and trace out each factor with an explicit einsum
    rng = np.random.default_rng(3)
    n = 3
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    amp /= np.linalg.norm(amp)
    psi = Purification.from_matrix(amp)
    full = np.outer(psi.amplitudes, psi.amplitudes.conj()).reshape(n, n, n, n)
    rho_s = np.einsum("abcb->ac", full)
    rho_e = np.einsum("abad->bd", full)
    assert np.allclose(partial_trace_env(psi).mat, rho_s, atol=1e-12)
    assert np.allclose(partial_trace_sys(psi).mat, rho_e, atol=1e-12)


def test_purification_rejects_unnormalized_vector():
    with pytest.raises(ValidationError):
        Purification(np.ones(4))


def test_purification_rejects_non_square_length():
    v = np.zeros(6)
    v[0] = 1.0
    with pytest.raises(ValidationError):
        Purification(v)


def test_overlap_matches_trace_formula():
    rng = np.random.default_rng(4)
    w1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w1 /= np.linalg.norm(w1)
    w2 /= np.linalg.norm(w2)
    p1, p2 = Purification.from_matrix(w1), Purification.from_matrix(w2)
    assert np.isclose(p1.overlap(p2), np.trace(w1.conj().T @ w2))


def test_schmidt_reassembles_and_orders():
    rng = np.random.default_rng(5)
    amp = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    amp /= np.linalg.norm(amp)
    psi = Purification.from_matrix(amp)
    dec = schmidt(psi)
    assert np.allclose(dec.reassemble(), psi.amplitudes, atol=1e-12)
    assert np.all(dec.coefficients >= 0)
    assert np.all(np.diff(dec.coefficients) <= 1e-12)
    # bases orthonormal
    assert np.allclose(dec.sys_basis.conj().T @ dec.sys_basis, np.eye(4), atol=1e-12)
    assert np.allclose(dec.env_basis.conj().T @ dec.env_basis, np.eye(4), atol=1e-12)


def test_fidelity_commuting_states_oracle():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.5, 0.3])
    a = DensityMatrix(np.diag(p))
    b = DensityMatrix(np.diag(q))
    assert np.isclose(fidelity(a, b), np.sum(np.sqrt(p * q)), atol=1e-12)


def test_fidelity_pure_states_is_overlap_modulus():
    v1 = np.array([1.0, 0.0])
    v2 = np.array([np.cos(0.4), np.sin(0.4)])
    a = DensityMatrix(np.outer(v1, v1))
    b = DensityMatrix(np.outer(v2, v2))
    assert np.isclose(fidelity(a, b), abs(np.dot(v1, v2)), atol=1e-12)


def test_fidelity_is_symmetric_and_one_on_equal_states():
    rng = np.random.default_rng(6)
    a, b = rand_density(rng, 3), rand_density(rng, 3)
    assert np.isclose(fidelity(a, b), fidelity(b, a), atol=1e-12)
    assert np.isclose(fidelity(a, a), 1.0, atol=1e-12)


def test_bures_quantities_are_consistent():
    rng = np.random.default_rng(7)
    a, b = rand_density(rng, 3), rand_density(rng, 3)
    f = fidelity(a, b)
    assert np.isclose(bures_angle(a, b), np.arccos(f), atol=1e-12)
    assert np.isclose(bures_distance(a, b) ** 2, 2 - 2 * f, atol=1e-12)


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    rho = rand_density(rng, 3).mat
    obj = matrix_to_json(rho)
    assert set(obj) == {"dim", "re", "im"}
    assert np.allclose(matrix_from_json(obj), rho, atol=0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert np.allclose(load_matrix(path), rho, atol=0)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": 2, "re": [[1, 0], [0, 0]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": 3, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]})


def test_density_stack_follows_the_density_matrix_conventions():
    # generic matrices differ from DensityMatrix only by the rounding of the
    # vectorised phase fix; a matrix with tied eigenvalues takes the
    # DensityMatrix tie-break itself and matches exactly
    rng = np.random.default_rng(16)
    for n in (2, 3, 5):
        mats = np.array([rand_density(rng, n).mat for _ in range(6)])
        mats[4] = np.eye(n) / n + 1e-14 * rand_herm(rng, n)
        stack = DensityStack(mats)
        for k, m in enumerate(mats):
            rho = DensityMatrix(m)
            assert np.array_equal(stack.eigenvalues[k], rho.eigenvalues)
            assert stack.min_eigenvalue[k] == rho.min_eigenvalue
            if k == 4:
                assert np.array_equal(stack.eigenvectors[k], rho.eigenvectors)
            else:
                assert np.max(np.abs(stack.eigenvectors[k] - rho.eigenvectors)) < 1e-15


def test_stacked_norm_check_names_the_first_failing_purification():
    w = np.array([purify(DensityMatrix(np.diag([0.6, 0.4]))).amplitude_matrix] * 4)
    w[2] *= 1.0 + 1e-11
    w[3] *= 1.0 + 1e-9
    check_norm_stack(w[:2])
    with pytest.raises(ValidationError, match=r"^norm\^2 differs from 1 by 2\.0\d\de-11 > 1\.0e-12$"):
        check_norm_stack(w)


def test_phase_rule_leaves_null_columns_unchanged():
    # no entry above 1e-12, so no phase to fix and no 0/0
    assert np.array_equal(fix_phase(np.zeros(3)), np.zeros(3))
    tiny = np.array([1e-13j, -1e-14, 0.0])
    assert np.array_equal(fix_phase(tiny), tiny)
    cols = np.array([[0.0, 2j], [0.0, 1.0]])
    assert np.array_equal(_phase_factors(cols), [[1.0, -1j]])


def _spectrum(rng, n, kind):
    """n eigenvalues summing to 1: generic, with an exact tie, with a near
    tie (within 1e-12) or with the last one near the 1e-10 rank floor."""
    p = rng.uniform(0.1, 1.0, n)
    if kind == "tied":
        p[1] = p[0]
    elif kind == "nearly tied":
        p[1] = p[0] + rng.uniform(0.0, 1e-12)
    if kind != "near floor":
        return p / p.sum()
    floor = rng.uniform(0.0, 3.0) * RANK_TOL
    p[-1] = 0.0
    p = (1.0 - floor) * p / p.sum()
    p[-1] = floor
    return p


@settings(max_examples=60)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["generic", "tied", "nearly tied", "near floor"]))
def test_density_matrix_is_the_stack_row_bit_for_bit(n, seed, kind):
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(4):
        u = rand_unitary(rng, n)
        mats.append((u * _spectrum(rng, n, kind if k % 2 else "generic")) @ u.conj().T)
    stack = DensityStack(np.array(mats))
    for k, m in enumerate(mats):
        rho = DensityMatrix(m)
        assert np.array_equal(rho.eigenvalues, stack.eigenvalues[k])
        assert np.array_equal(rho.eigenvectors, stack.eigenvectors[k])
        assert np.array_equal(rho.root, stack.root[k])
        assert rho.min_eigenvalue == stack.min_eigenvalue[k]
        assert rho.full_rank == stack.full_rank[k]


def _reference_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


@settings(max_examples=60)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_fidelity_matches_the_square_root_formula_and_is_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rand_density(rng, n), rand_density(rng, n)
    sing = np.linalg.svd(_reference_sqrt(a.mat) @ _reference_sqrt(b.mat), compute_uv=False)
    assert fidelity(a, b) == pytest.approx(min(sing.sum(), 1.0), abs=1e-14)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
