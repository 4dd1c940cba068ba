"""Shared helpers: random states/curves and the acceptance summary table."""

import numpy as np
from hypothesis import settings

from mixedqgt import DensityMatrix

# property tests replay one fixed sequence of examples, so tier-1 runs are
# reproducible; numerical examples vary in cost, so no per-example deadline
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# one line per acceptance criterion, printed after the run so the
# pass/fail verdicts survive pytest's output capture
_ACCEPTANCE = {}


def record_criterion(num, name, passed, detail):
    _ACCEPTANCE[num] = (name, bool(passed), detail)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        name, passed, detail = _ACCEPTANCE[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"AC{num:02d} {verdict}  {name}: {detail}")


def counted(calls, name, fn):
    """``fn``, adding one to ``calls[name]`` on every call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def rand_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_density(rng, n, floor=0.1):
    """Random full-rank density matrix with spectrum bounded away from 0."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T + floor * np.eye(n)
    return DensityMatrix(m / np.trace(m).real)


def rand_bloch_density(rng, rmax=0.95, rmin=0.2):
    v = rng.standard_normal(3)
    v *= rng.uniform(rmin, rmax) / np.linalg.norm(v)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return DensityMatrix(0.5 * (np.eye(2) + v[0] * sx + v[1] * sy + v[2] * sz))


def traceless_herm(rng, n, scale=1.0):
    h = rand_herm(rng, n)
    h -= np.trace(h).real / n * np.eye(n)
    return scale * h


def unitary_orbit_curve(rng, n, floor=0.25):
    """Closed smooth full-rank curve rho(t) = u(t) rho0 u(t)^dag on [0, 1]."""
    from scipy.linalg import expm

    h0, h1, h2 = (rand_herm(rng, n) for _ in range(3))
    rho0 = rand_density(rng, n, floor=floor)

    def curve(t):
        gen = (np.sin(2 * np.pi * t) * h0
               + (np.cos(2 * np.pi * t) - 1.0) * h1
               + np.sin(4 * np.pi * t) * h2)
        u = expm(1j * gen)
        return DensityMatrix(u @ rho0.mat @ u.conj().T)

    return curve
