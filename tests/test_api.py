import importlib
import inspect
import pkgutil
import types

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
