import importlib
import inspect
import pkgutil
import types

import numpy as np
import pytest

import mixedqgt


def _public_signatures():
    """(qualified name, signature) of every public function, class and public
    method defined in the mixedqgt modules."""
    for info in pkgutil.iter_modules(mixedqgt.__path__):
        module = importlib.import_module(f"mixedqgt.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", inspect.signature(obj)
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{info.name}.{name}", inspect.signature(obj)
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and isinstance(
                            member, (types.FunctionType, classmethod, staticmethod)):
                        yield f"{info.name}.{name}.{attr}", inspect.signature(getattr(obj, attr))


def test_tolerances_are_not_parameters():
    # the checks run at fixed module tolerances; only EnvOperator takes one,
    # as from_symmetrized builds it unchecked (tol = inf)
    found = [f"{where}({param})" for where, sig in _public_signatures()
             if not where.startswith("bundle.EnvOperator")
             for param in sig.parameters
             if param in ("tol", "rank_tol", "mirror") or param.endswith("_tol")]
    assert found == []


def test_grid_model_parameters_that_no_caller_set_are_gone():
    # callers dump the exported dict themselves, and every grid model is "grid-model"
    signatures = dict(_public_signatures())
    assert "path" not in signatures["models.export_grid_model"].parameters
    assert "name" not in signatures["models.load_grid_model"].parameters
    assert "name" not in signatures["models.GridModel"].parameters
    assert mixedqgt.GridModel(["x"], [[0.0, 1.0]], [[[1.0]], [[1.0]]]).name == "grid-model"


def test_neighbour_certificate_parameters_are_gone():
    # every central-difference neighbour of an uncertified model gets the full check
    signatures = dict(_public_signatures())
    assert "centre" not in signatures["models.derivative_stack"].parameters
    assert "certified" not in signatures["states.check_density_stack"].parameters


def test_curve_apis_take_and_return_stacks():
    # multi-node curve data is one (K, N, N) stack per quantity: amplitudes W,
    # tangents dW and base matrices rho, never one object per node
    sol = mixedqgt.solve_geodesic(mixedqgt.DensityMatrix(np.diag([0.7, 0.3])),
                                  mixedqgt.DensityMatrix(np.diag([0.4, 0.6])))
    times = np.linspace(0.0, sol.theta, 5)
    w, dw = mixedqgt.geodesic_samples(sol, times)
    assert all(type(x) is np.ndarray and x.shape == (5, 2, 2) for x in (w, dw))
    assert mixedqgt.path_length((w, dw), times) == pytest.approx(sol.theta, abs=1e-6)
    moved = mixedqgt.gauge_transform_curve((w, dw), np.broadcast_to(np.eye(2), w.shape),
                                           np.zeros_like(w))
    assert type(moved) is tuple and len(moved) == 2
    assert all(type(x) is np.ndarray and x.shape == (5, 2, 2) for x in moved)
    lift = mixedqgt.LiftedCurve(times, moved[0], w @ w.conj().swapaxes(-1, -2))
    assert lift.amplitudes.shape == lift.base.shape == (5, 2, 2)
