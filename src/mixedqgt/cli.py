"""Command-line driver for grid sweeps, geodesics, holonomy and validation.

Subcommands
    field        tensor components of a model family over a parameter grid
    geodesic     geodesic between two states, trace table and summary
    holonomy     holonomy of a closed loop given by chart vertices
    limit-sweep  thermal family tensor against its zero-temperature limit
    validate     check a matrix or grid-model JSON file, listing violations

Exit codes: 0 success; 1 validation findings; 2 usage/config/schema
problems; 3 invalid input data (failed state or model validation);
4 numerical refusals (rank floor, angle margin, open loop, coarse grid,
domain violations, a central step that leaves a coordinate unchanged).
"""

import argparse
import contextlib
import itertools
import json
import math
import operator
import os
import sys

import numpy as np

from .errors import (
    AngleOutOfRangeError,
    CoarseGridError,
    DegenerateSpectrumError,
    InconsistentStencilError,
    MixedQGTError,
    NoAnalyticDerivativesError,
    NotClosedError,
    OutOfDomainError,
    RankDeficientError,
    SchemaError,
)
from .states import (
    DensityMatrix,
    _by_item,
    _json_floats,
    _read_json,
    _stack_violations,
    chunks,
    density_violations,
    load_matrix,
    matrix_from_json,
    root_fidelity,
)
from .qgt import msqgt_field, qgt_to_json, thermal_limit_sweep
from .geodesics import (
    _ode_residuals,
    bloch_ellipse_check,
    bloch_vector,
    geodesic_points,
    geodesic_samples,
    path_length,
    solve_geodesic,
)
from .transport import DEFAULT_STEPS, MAX_STEPS, holonomy, holonomy_report_json
from .models import BlochQubitModel, ChartLoop, load_grid_model, rotated_field_qubit

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (
    RankDeficientError,
    AngleOutOfRangeError,
    NotClosedError,
    CoarseGridError,
    OutOfDomainError,
    DegenerateSpectrumError,
    InconsistentStencilError,
)

DEFAULT_POLE_MARGIN = 0.05
DEFAULT_GRID_COUNT = 31


class _UsageError(ValueError):
    pass


def _opened(output):
    """stdout, or the file ``output`` opened for writing, as a context manager."""
    if output in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(output, "w", encoding="utf-8")


def _emit(text, output):
    """Write the string ``text`` to stdout or to the file ``output``."""
    with _opened(output) as fh:
        fh.write(text)


def _write_csv(columns, blocks, output, line=None):
    """Write the CSV header, then ``line(values)`` of each row of the 2-D float blocks
    (default: each value ``%.17g``); all blocks come computed, so a failure writes nothing."""
    line = line or (",".join(["%.17g"] * len(columns)) + "\n").__mod__
    with _opened(output) as fh:
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.writelines(line(tuple(row.tolist())) for row in block)


def _hermitian_line(dim, width):
    """Line formatter for geodesic rows of t, rho's upper triangle (re, then im)
    and the trailing columns, each formatted ``%.17g`` once: the lower triangle is
    the mirror, im sign-flipped as text, so the rho written is exactly Hermitian."""
    upper, strict = np.triu_indices(dim), np.triu_indices(dim, 1)
    re = np.zeros((dim, dim), dtype=int)
    re[upper] = 1 + np.arange(len(upper[0]))
    im = re + len(upper[0])
    im.T[strict] = width + np.arange(len(strict[0]))  # flipped copies follow the fields
    negate = im[strict].tolist()
    order = operator.itemgetter(0, *np.maximum(re, re.T).ravel().tolist(), *im.ravel().tolist(),
                                *range(1 + 2 * len(upper[0]), width))
    template = ",".join(["%.17g"] * width) + "\n"  # the last field, a trailing one, ends the line
    def line(values):
        fields = (template % values).split(",")
        fields += [f[1:] if f[0] == "-" else "-" + f for f in map(fields.__getitem__, negate)]
        return ",".join(order(fields))
    return line


def _finite(text):
    """``float(text)`` refusing NaN and infinities; the type of float options."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


def _margin(text):
    """``_finite`` refusing negative values; the type of ``--pole-margin``."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value!r}")
    return value


def _number(raw, what):
    try:
        return _finite(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise _UsageError(f"{what}: {exc}") from None


def _count(low, high=math.inf):
    """argparse type for an integer in [low, high]."""
    def count(text):
        value = int(text)
        if not low <= value <= high:
            limit = f"at most {high}" if value > high else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {limit}, got {value}")
        return value
    return count


def _parse_overrides(items):
    out = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        out[key] = _number(raw, f"--set {key}")
    return out


def _parse_scheme(text):
    """``--scheme`` as (scheme, h); analytic by default: every model here has
    analytic derivatives."""
    if text in (None, "analytic"):
        return "analytic", None
    if text == "central":
        return "central", 1e-5
    name, sep, raw = text.partition(":")
    if name == "central" and sep:
        h = _number(raw, f"--scheme {text!r} step")
        if h <= 0:
            raise _UsageError(f"--scheme step must be positive, got {h!r}")
        return "central", h
    raise _UsageError(f"--scheme must be analytic or central[:h], got {text!r}")


def _parse_grid_spec(text):
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError(f"--grid expects name:min:max:count, got {text!r}")
    name = parts[0]
    lo, hi = (_number(raw, f"--grid {text!r} bound") for raw in parts[1:3])
    try:
        count = int(parts[3])
    except ValueError:
        raise _UsageError(f"--grid {text!r}: non-integer count") from None
    if count < 2:
        raise _UsageError(f"--grid {text!r}: count must be >= 2")
    if hi <= lo:
        raise _UsageError(f"--grid {text!r}: need min < max")
    return name, lo, hi, count


def _parse_point(text, labels):
    values = {}
    for chunk in text.split(","):
        key, sep, raw = chunk.partition("=")
        if not sep:
            raise _UsageError(f"point expects name=value pairs, got {chunk!r}")
        values[key.strip()] = _number(raw, f"point coordinate {key!r}")
    missing = [l for l in labels if l not in values]
    extra = [k for k in values if k not in labels]
    if missing or extra:
        raise _UsageError(
            f"point must set exactly {list(labels)}; missing {missing}, unknown {extra}"
        )
    return np.array([values[l] for l in labels])


def _build_model(spec, overrides):
    overrides = dict(overrides)
    if spec in ("bloch", "bloch-qubit"):
        r = overrides.pop("r", 0.9)
        if overrides:
            raise _UsageError(f"unknown --set keys for bloch model: {sorted(overrides)}")
        return BlochQubitModel(r=r)
    if spec == "thermal-qubit":
        beta = overrides.pop("beta", 1.0)
        gap = overrides.pop("gap", 0.5)
        if overrides:
            raise _UsageError(f"unknown --set keys for thermal-qubit: {sorted(overrides)}")
        return rotated_field_qubit(beta, gap=gap)
    if overrides:
        raise _UsageError("--set is not supported for grid-model files")
    if not os.path.exists(spec):
        raise _UsageError(
            f"unknown model {spec!r}: expected bloch, thermal-qubit, or a grid-model JSON path"
        )
    return load_grid_model(spec)


def _grid_axes(model, grid_specs, pole_margin):
    named = {}
    for spec in grid_specs or []:
        name, lo, hi, count = _parse_grid_spec(spec)
        if name not in model.param_labels:
            raise _UsageError(
                f"--grid names unknown parameter {name!r}; family has {model.param_labels}"
            )
        named[name] = (lo, hi, count)
    axes = []
    for label, (dlo, dhi) in zip(model.param_labels, model.domain):
        lo, hi, count = named.get(label, (dlo, dhi, DEFAULT_GRID_COUNT))
        if label == "theta" and pole_margin > 0:
            lo_c, hi_c = max(lo, dlo + pole_margin), min(hi, dhi - pole_margin)
            if lo_c >= hi_c:
                raise _UsageError(
                    f"theta grid [{lo}, {hi}] lies inside the pole margin"
                    f" {pole_margin:g}; pass --pole-margin 0 to allow it"
                )
            lo, hi = lo_c, hi_c
        axes.append(np.linspace(lo, hi, count))
    return axes


def _field_chunk(task):
    """Table rows (chart point, Q upper triangle re/im, residuals) of one chunk."""
    model, scheme, h, points = task
    q, sym, antisym = _by_item(
        lambda p: msqgt_field(model, p, scheme, h), points,
        label=lambda k, exc: type(exc)(f"at grid point {points[k].tolist()}: {exc}"))
    upper = np.triu_indices(q.shape[-1])
    return np.column_stack([points, q.real[:, upper[0], upper[1]],
                            q.imag[:, upper[0], upper[1]], sym, antisym])


def _pair_columns(labels):
    upper = np.triu_indices(len(labels))
    names = [f"{labels[a]}_{labels[b]}" for a, b in zip(*upper)]
    return [f"re_Q_{n}" for n in names] + [f"im_Q_{n}" for n in names], upper


def _cmd_field(args):
    model = _build_model(args.model or "bloch", _parse_overrides(args.set))
    scheme, h = _parse_scheme(args.scheme)
    margin = DEFAULT_POLE_MARGIN if args.pole_margin is None else args.pole_margin
    axes = _grid_axes(model, args.grid, margin)
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    # chunk boundaries depend on the state dimension only, never on --workers
    dim = model.matrix_at(np.mean(model.domain, axis=1)).shape[-1]
    tasks = [(model, scheme, h, points[s]) for s in chunks(len(points), dim)]
    workers = min(args.workers or 1, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_field_chunk, tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        blocks = [_field_chunk(t) for t in tasks]
    labels = model.param_labels
    columns = list(labels) + _pair_columns(labels)[0] + ["sym_residual", "antisym_residual"]
    fmt = args.format or "csv"
    if fmt == "csv":
        # rows run over the C-order product of the axes: each coordinate is
        # formatted once, and each row's prefix joins them
        prefixes = map("".join, itertools.product(*(["%.17g," % x for x in axis.tolist()]
                                                     for axis in axes)))
        template = ",".join(["%.17g"] * (len(columns) - len(axes))) + "\n"
        _write_csv(columns, (block[:, len(axes):] for block in blocks), args.output,
                   lambda values: next(prefixes) + template % values)
    else:
        scheme_text = "analytic" if scheme == "analytic" else f"central:{h:g}"
        rows = (json.dumps(block.tolist())[1:-1] for block in blocks)  # C encoder, block by block
        with _opened(args.output) as fh:  # the head, up to the rows' "[", then the rows
            fh.write(json.dumps({"model": model.name, "scheme": scheme_text, "columns": columns,
                                 "rows": []})[:-2] + next(rows))
            fh.writelines(", " + text for text in rows)
            fh.write("]}\n")
    return EXIT_OK


def _geodesic_endpoints(args):
    by_point = args.point_a is not None or args.point_b is not None
    by_state = args.state_a is not None or args.state_b is not None
    if by_point == by_state:
        raise _UsageError("give either --point-a/--point-b or --state-a/--state-b")
    if by_state:
        if args.state_a is None or args.state_b is None:
            raise _UsageError("both --state-a and --state-b are required")
        return (DensityMatrix(load_matrix(args.state_a)),
                DensityMatrix(load_matrix(args.state_b)))
    if args.point_a is None or args.point_b is None:
        raise _UsageError("both --point-a and --point-b are required")
    model = _build_model(args.model or "bloch", _parse_overrides(args.set))
    return (model.evaluate(_parse_point(args.point_a, model.param_labels)),
            model.evaluate(_parse_point(args.point_b, model.param_labels)))


def _cmd_geodesic(args):
    rho_a, rho_b = _geodesic_endpoints(args)
    margin = 1e-6 if args.angle_margin is None else args.angle_margin
    sol = solve_geodesic(rho_a, rho_b, angle_margin=margin,
                         require_full_rank=not args.allow_rank_deficient)
    samples = 201 if args.samples is None else args.samples
    ts = np.linspace(0.0, sol.theta, samples)
    qubit = rho_a.dim == 2

    fmt = args.format or "json"
    if fmt == "json":
        ellipse = bloch_ellipse_check(sol) if qubit else None
        report = {
            "theta": sol.theta,
            "fidelity": float(np.cos(sol.theta)),
            "path_length": path_length(geodesic_samples(sol, ts), ts),
            "samples": int(samples),
            "ellipse": None if ellipse is None else {
                "center": ellipse.center.tolist(),
                "semi_major": ellipse.semi_major,
                "semi_minor": ellipse.semi_minor,
                "max_deviation": ellipse.max_deviation,
                "out_of_plane": ellipse.out_of_plane,
            },
        }
        _emit(json.dumps(report) + "\n", args.output)
    else:
        dim = rho_a.dim
        cells = [f"rho_{i}_{j}" for i in range(dim) for j in range(dim)]
        columns = ["t", *(f"re_{c}" for c in cells), *(f"im_{c}" for c in cells),
                   *(["bloch_x", "bloch_y", "bloch_z"] if qubit else []),
                   "fidelity_to_a", "fidelity_to_b", "ode_residual"]
        # one table filled in place (no heap fragmentation), of rho's upper triangle only
        table = np.empty((samples, len(columns) - dim * (dim - 1)))
        for s in chunks(samples, dim):
            w, rho = geodesic_points(sol, ts[s])
            triangle = rho[:, np.tri(dim, dtype=bool).T]  # row by row, as triu_indices
            table[s] = np.column_stack([
                ts[s], triangle.real, triangle.imag, *([bloch_vector(rho)] if qubit else []),
                root_fidelity(w, sol.psi0.amplitude_matrix), root_fidelity(w, rho_b.root),
                _ode_residuals(sol, ts[s], 1e-3, w)])
        _write_csv(columns, [table], args.output, _hermitian_line(dim, table.shape[1]))
    return EXIT_OK


def _load_loop(path, model):
    obj = _read_json(path)
    if not isinstance(obj, dict) or "points" not in obj:
        raise SchemaError('loop file must be an object with a "points" key')
    pts = obj["points"]
    if not isinstance(pts, list) or len(pts) < 3:
        raise SchemaError("loop needs at least 3 chart points")
    vertices = []
    for k, p in enumerate(pts):
        if not isinstance(p, list) or len(p) != model.n_params:
            raise SchemaError(
                f"loop point {k} must list {model.n_params} coordinates"
            )
        vertices.append(_json_floats(p, f"loop point {k}", "coordinates", ndim=1, finite=True))
    # an open vertex list is legal here; closure is enforced on the
    # density-matrix curve itself (NotClosed -> exit 4)
    return np.array(vertices)


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _cmd_holonomy(args):
    model = _build_model(args.model or "bloch", _parse_overrides(args.set))
    if args.loop is None:
        raise _UsageError("--loop is required")
    vertices = _load_loop(args.loop, model)
    curve = ChartLoop(model, vertices)
    gauge = None
    if args.seed is not None:
        # randomized (constant) reference gauge: the result is reference
        # independent, so the seed only exercises that invariance.
        g = _random_unitary(np.random.default_rng(args.seed), model.evaluate(vertices[0]).dim)
        gauge = lambda t: g
    steps = DEFAULT_STEPS if args.steps is None else args.steps
    result = holonomy(curve, steps=steps, reference_gauge=gauge)
    fmt = args.format or "json"
    if fmt != "json":
        raise _UsageError("holonomy output supports only --format json")
    _emit(json.dumps(holonomy_report_json(result)) + "\n", args.output)
    return EXIT_OK


def _cmd_limit_sweep(args):
    overrides = _parse_overrides(args.set)
    gap = overrides.pop("gap", 0.5)
    if overrides:
        raise _UsageError(f"unknown --set keys for limit-sweep: {sorted(overrides)}")
    if args.model not in (None, "thermal-qubit"):
        raise _UsageError("limit-sweep supports only the thermal-qubit model")
    betas = [_number(b, "--betas") for b in (args.betas or "1,2,5,10,20,40").split(",")]
    if args.point is None:
        raise _UsageError("--point is required")
    model = rotated_field_qubit(betas[0], gap=gap)
    point = _parse_point(args.point, model.param_labels)
    result = thermal_limit_sweep(model, point, betas)

    q_columns, upper = _pair_columns(model.param_labels)
    devs = result.deviations
    tail_monotone = all(b < a for a, b in zip(devs, devs[1:]))
    fmt = args.format or "csv"
    if fmt == "csv":
        columns = ["beta", *q_columns, "deviation_from_pure", "tail_monotone"]
        rows = [[e.beta, *e.tensor.entries[upper].real, *e.tensor.entries[upper].imag,
                 e.deviation, float(tail_monotone)] for e in result.entries]
        _write_csv(columns, [np.array(rows)], args.output)
    else:
        _emit(json.dumps({
            "betas": result.betas,
            "deviations": result.deviations,
            "tail_monotone": tail_monotone,
            "truncated_at": result.truncated_at,
            "pure": qgt_to_json(result.pure_tensor),
            "tensors": [qgt_to_json(e.tensor) for e in result.entries],
        }) + "\n", args.output)
    if result.truncated_at is not None:
        print(
            f"error: state fell below the rank floor at beta = {result.truncated_at:g};"
            " sweep truncated", file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_validate(args):
    obj = _read_json(args.input)
    if not isinstance(obj, dict):
        raise SchemaError("top level must be a JSON object")

    findings = []
    if {"params", "nodes"} <= set(obj):
        model = load_grid_model(obj, check=False, validate_nodes=False)
        n = model.values.shape[-1]
        nodes = list(np.ndindex(*(g.size for g in model.grids)))
        flat = model.values.reshape(len(nodes), n, n)
        for s in chunks(len(nodes), n):
            for idx, messages in zip(nodes[s], _stack_violations(flat[s])):
                findings.extend(f"node {list(idx)}: {message}" for message in messages)
        kind = "grid model"
    elif {"dim", "re", "im"} <= set(obj):
        findings.extend(density_violations(matrix_from_json(obj)))
        kind = "matrix"
    else:
        raise SchemaError(
            "unrecognized document: expected matrix keys dim/re/im or"
            " grid-model keys params/nodes"
        )
    for line in findings:
        print(f"FAIL {line}")
    if findings:
        return EXIT_FINDINGS
    print(f"OK: valid {kind}")
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--model", help="bloch | thermal-qubit | grid-model JSON path")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="model parameter override (repeatable)")
    sub.add_argument("--output", help="output path ('-' or omitted: stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=None)
    sub.add_argument("--seed", type=int, help="seed for randomized cross-checks")
    sub.add_argument("--config", help="JSON file of defaults for these options")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mixedqgt",
        description="Mixed-state geometric tensor, Bures geodesics and holonomy tools",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    field = subs.add_parser("field", help="tensor over a parameter grid")
    _add_common(field)
    field.add_argument("--grid", action="append", metavar="NAME:MIN:MAX:COUNT")
    field.add_argument("--scheme", help="analytic | central[:h]")
    field.add_argument("--pole-margin", type=_margin, dest="pole_margin",
                       help="clamp theta grids this far from the poles (default 0.05)")
    field.add_argument("--workers", type=_count(1), help="process count (default 1)")

    geo = subs.add_parser("geodesic", help="geodesic between two states")
    _add_common(geo)
    geo.add_argument("--point-a", dest="point_a", metavar="NAME=VAL,...")
    geo.add_argument("--point-b", dest="point_b", metavar="NAME=VAL,...")
    geo.add_argument("--state-a", dest="state_a", metavar="PATH")
    geo.add_argument("--state-b", dest="state_b", metavar="PATH")
    geo.add_argument("--samples", type=_count(2), help="trace sample count (default 201)")
    geo.add_argument("--angle-margin", type=_finite, dest="angle_margin")
    geo.add_argument("--allow-rank-deficient", action="store_true",
                     dest="allow_rank_deficient")

    hol = subs.add_parser("holonomy", help="holonomy of a closed chart loop")
    _add_common(hol)
    hol.add_argument("--loop", metavar="PATH", help="JSON file with chart vertices")
    hol.add_argument("--steps", type=_count(2, MAX_STEPS), help="integration steps (default 1024)")

    sweep = subs.add_parser("limit-sweep", help="thermal tensor toward the pure limit")
    _add_common(sweep)
    sweep.add_argument("--point", metavar="NAME=VAL,...")
    sweep.add_argument("--betas", metavar="B1,B2,...")

    val = subs.add_parser("validate", help="validate a matrix or grid-model file")
    val.add_argument("input", metavar="PATH")
    return parser


def _config_value(key, value, action):
    """A config value, checked as the option's command-line text would be."""
    try:
        if action.nargs == 0:  # a flag
            ok = isinstance(value, bool)
        elif isinstance(action, argparse._AppendAction):
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
            value = (action.type or str)(str(value)) if ok else value
            ok = ok and (action.choices is None or value in action.choices)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise _UsageError(f"config key {key!r}: {exc}") from None
    if not ok:
        raise _UsageError(f"config key {key!r}: invalid value {value!r}")
    return value


def _apply_config(args, parser):
    if getattr(args, "config", None) is None:
        return
    try:
        conf = _read_json(args.config)
    except SchemaError as exc:
        raise _UsageError(f"config is {exc}") from None
    if not isinstance(conf, dict):
        raise _UsageError("config must be a JSON object of option values")
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subs.choices[args.command]._actions}
    for key, value in conf.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or not hasattr(args, dest):
            raise _UsageError(f"config key {key!r} is not an option of this command")
        value = _config_value(key, value, actions[dest])
        if getattr(args, dest) is None or getattr(args, dest) is False:
            setattr(args, dest, value)


_COMMANDS = {
    "field": _cmd_field,
    "geodesic": _cmd_geodesic,
    "holonomy": _cmd_holonomy,
    "limit-sweep": _cmd_limit_sweep,
    "validate": _cmd_validate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _apply_config(args, parser)
        return _COMMANDS[args.command](args)
    except (_UsageError, SchemaError, NoAnalyticDerivativesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MixedQGTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
