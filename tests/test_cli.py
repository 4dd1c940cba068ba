import concurrent.futures
import contextlib
import copy
import csv
import io
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixedqgt import (BlochQubitModel, DensityMatrix, GridModel, density_violations,
                      export_grid_model, geodesic_point, load_grid_model, load_matrix,
                      matrix_to_json, solve_geodesic)
from mixedqgt import cli, models, qgt, states
from mixedqgt.errors import RankDeficientError
from mixedqgt.geodesics import bloch_vector, geodesic_points, ode_residual
from conftest import counted

CLI = shutil.which("mixedqgt")


def run_cli(*args, cwd=None):
    cmd = [CLI] + list(args) if CLI else [sys.executable, "-m", "mixedqgt.cli"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_field_writes_expected_columns(tmp_path):
    out = tmp_path / "field.csv"
    r = run_cli("field", "--model", "bloch", "--set", "r=0.9",
                "--grid", "theta:0.3:2.8:4", "--grid", "phi:0:6.0:3",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = read_csv(out)
    assert len(rows) == 12
    assert list(rows[0]) == ["theta", "phi",
                             "re_Q_theta_theta", "re_Q_theta_phi", "re_Q_phi_phi",
                             "im_Q_theta_theta", "im_Q_theta_phi", "im_Q_phi_phi",
                             "sym_residual", "antisym_residual"]
    # spot-check one closed-form value
    first = rows[0]
    assert float(first["re_Q_theta_theta"]) == pytest.approx(0.81 / 4, abs=1e-12)


def test_field_rows_are_phi_independent(tmp_path):
    out = tmp_path / "field.csv"
    r = run_cli("field", "--model", "bloch", "--set", "r=0.9",
                "--grid", "theta:0.3:2.8:5", "--grid", "phi:0:6.0:4",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    by_theta = defaultdict(list)
    for row in read_csv(out):
        by_theta[row["theta"]].append(row)
    for rows in by_theta.values():
        for key in rows[0]:
            if key in ("theta", "phi"):
                continue
            vals = [float(x[key]) for x in rows]
            assert max(vals) - min(vals) < 1e-12


def test_field_reruns_and_worker_counts_are_byte_identical(tmp_path):
    args = ("field", "--model", "bloch", "--set", "r=0.9", "--seed", "7",
            "--grid", "theta:0.3:2.8:4", "--grid", "phi:0:6.0:3")
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli(*args, "--output", str(a)).returncode == 0
    assert run_cli(*args, "--output", str(b)).returncode == 0
    assert run_cli(*args, "--output", str(c), "--workers", "3").returncode == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_field_pole_margin_clamps_theta(tmp_path):
    out = tmp_path / "field.csv"
    r = run_cli("field", "--model", "bloch",
                "--grid", "theta:0:3.14159265:3", "--grid", "phi:0:6.0:2",
                "--pole-margin", "0.2", "--output", str(out))
    assert r.returncode == 0, r.stderr
    thetas = sorted({float(row["theta"]) for row in read_csv(out)})
    assert thetas[0] == pytest.approx(0.2)
    assert thetas[-1] == pytest.approx(np.pi - 0.2, abs=1e-6)


def test_pole_margin_is_absolute_on_grid_model_theta(tmp_path):
    # the margin keeps theta within [X, pi - X]; a grid model's domain edges
    # are not poles, so a [0.3, 2.8] grid is swept as requested
    inner, full = tmp_path / "inner.json", tmp_path / "full.json"
    phis = np.linspace(0.0, 6.0, 7)
    inner.write_text(json.dumps(export_grid_model(
        BlochQubitModel(r=0.9), [np.linspace(0.3, 2.8, 7), phis])))
    full.write_text(json.dumps(export_grid_model(
        BlochQubitModel(r=0.9), [np.linspace(0.0, np.pi, 7), phis])))
    out = tmp_path / "field.csv"
    for path, grid, expected in ((inner, "theta:0.3:2.8:3", [0.3, 1.55, 2.8]),
                                 (full, "theta:0:3.14159265:3", [0.05, None, np.pi - 0.05])):
        r = run_cli("field", "--model", str(path), "--grid", grid, "--grid", "phi:0:6:2",
                    "--output", str(out))
        assert r.returncode == 0, r.stderr
        thetas = sorted({float(row["theta"]) for row in read_csv(out)})
        assert [thetas[0], thetas[-1]] == [expected[0], expected[-1]]
        if path is inner:
            assert thetas == expected
    r = run_cli("field", "--model", str(full), "--grid", "theta:0.01:0.04:3",
                "--grid", "phi:0:6:2")
    assert r.returncode == 2
    assert ("theta grid [0.01, 0.04] lies inside the pole margin 0.05;"
            " pass --pole-margin 0 to allow it") in r.stderr


def test_field_grid_spec_errors_are_usage_errors(tmp_path):
    r = run_cli("field", "--model", "bloch", "--grid", "theta:0.3:0.3:1",
                "--grid", "phi:0:6:3")
    assert r.returncode == 2
    r = run_cli("field", "--model", "bloch", "--grid", "theta:2.0:1.0:5",
                "--grid", "phi:0:6:3")
    assert r.returncode == 2
    r = run_cli("field", "--model", "nonsense", "--grid", "theta:0.3:2.8:3",
                "--grid", "phi:0:6:3")
    assert r.returncode == 2
    assert "unknown model" in r.stderr


def test_field_json_format(tmp_path):
    out = tmp_path / "field.json"
    r = run_cli("field", "--model", "bloch", "--grid", "theta:0.5:2.5:3",
                "--grid", "phi:0:5:2", "--format", "json", "--output", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 6


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "bloch", "set": ["r=0.9"],
        "grid": ["theta:0.3:2.8:3", "phi:0:6.0:2"],
    }))
    out = tmp_path / "out.csv"
    r = run_cli("field", "--config", str(cfg), "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert len(read_csv(out)) == 6
    # explicit flags win over the file
    out2 = tmp_path / "out2.csv"
    r = run_cli("field", "--config", str(cfg), "--grid", "theta:0.3:2.8:2",
                "--grid", "phi:0:6.0:2", "--output", str(out2))
    assert r.returncode == 0, r.stderr
    assert len(read_csv(out2)) == 4


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bloch", "bogus": 1}))
    r = run_cli("field", "--config", str(cfg), "--grid", "theta:0.3:2.8:2",
                "--grid", "phi:0:6:2")
    assert r.returncode == 2


def test_geodesic_json_summary(tmp_path):
    out = tmp_path / "geo.json"
    r = run_cli("geodesic", "--model", "bloch", "--set", "r=0.9",
                "--point-a", "theta=0.7,phi=0.2", "--point-b", "theta=1.9,phi=2.4",
                "--format", "json", "--output", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert set(doc) >= {"theta", "fidelity", "path_length", "ellipse"}
    assert doc["theta"] == pytest.approx(np.arccos(doc["fidelity"]))
    assert doc["path_length"] == pytest.approx(doc["theta"], abs=1e-9)
    assert doc["ellipse"]["max_deviation"] < 1e-9


def test_geodesic_csv_trace(tmp_path):
    out = tmp_path / "geo.csv"
    r = run_cli("geodesic", "--model", "bloch", "--set", "r=0.9",
                "--point-a", "theta=0.7,phi=0.2", "--point-b", "theta=1.9,phi=2.4",
                "--samples", "11", "--format", "csv", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = read_csv(out)
    assert len(rows) == 11
    assert float(rows[0]["fidelity_to_a"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[-1]["fidelity_to_b"]) == pytest.approx(1.0, abs=1e-12)
    assert all(float(row["ode_residual"]) < 1e-6 for row in rows)
    # bloch coordinates stay inside the ball
    for row in rows:
        v = np.array([float(row["bloch_x"]), float(row["bloch_y"]), float(row["bloch_z"])])
        assert np.linalg.norm(v) <= 1 + 1e-12


def test_geodesic_identical_points_fail_numerically(tmp_path):
    r = run_cli("geodesic", "--model", "bloch",
                "--point-a", "theta=0.7,phi=0.2", "--point-b", "theta=0.7,phi=0.2")
    assert r.returncode == 4


def _loop_file(path, points):
    path.write_text(json.dumps({"points": points}))
    return str(path)


def test_holonomy_closed_loop(tmp_path):
    loop = _loop_file(tmp_path / "loop.json",
                      [[0.8, 0.0], [0.8, 2.0], [1.6, 2.0], [1.6, 0.0], [0.8, 0.0]])
    out = tmp_path / "hol.json"
    r = run_cli("holonomy", "--model", "bloch", "--set", "r=0.9",
                "--loop", loop, "--steps", "512", "--output", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"unitary_re", "unitary_im", "mean_holonomy",
                        "uhlmann_phase", "steps", "convergence_estimate"}
    u = np.array(doc["unitary_re"]) + 1j * np.array(doc["unitary_im"])
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10
    mean = complex(*doc["mean_holonomy"])
    assert abs(mean) <= 1 + 1e-12
    assert doc["convergence_estimate"] < 1e-3


def test_holonomy_open_loop_exits_4(tmp_path):
    loop = _loop_file(tmp_path / "open.json",
                      [[0.8, 0.0], [0.8, 2.0], [1.6, 2.0], [1.6, 0.0]])
    r = run_cli("holonomy", "--model", "bloch", "--loop", loop, "--steps", "64")
    assert r.returncode == 4


def test_holonomy_seeded_reference_gauge_changes_nothing(tmp_path):
    loop = _loop_file(tmp_path / "loop.json",
                      [[0.8, 0.0], [0.8, 2.0], [1.6, 2.0], [1.6, 0.0], [0.8, 0.0]])
    plain, seeded = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("holonomy", "--model", "bloch", "--loop", loop,
                   "--steps", "256", "--output", str(plain)).returncode == 0
    assert run_cli("holonomy", "--model", "bloch", "--loop", loop,
                   "--steps", "256", "--seed", "11", "--output", str(seeded)).returncode == 0
    a, b = json.loads(plain.read_text()), json.loads(seeded.read_text())
    ua = np.array(a["unitary_re"]) + 1j * np.array(a["unitary_im"])
    ub = np.array(b["unitary_re"]) + 1j * np.array(b["unitary_im"])
    assert np.max(np.abs(ua - ub)) < 1e-10


def test_limit_sweep_monotone_tail(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_cli("limit-sweep", "--betas", "1,5,10,20,40", "--set", "gap=0.5",
                "--point", "theta=1.2,phi=0.8", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = read_csv(out)
    devs = [float(row["deviation_from_pure"]) for row in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-4
    assert all(row["tail_monotone"] == "1" for row in rows)


def test_limit_sweep_truncation_exits_4(tmp_path):
    out = tmp_path / "sweep.json"
    r = run_cli("limit-sweep", "--betas", "1,5,2000", "--set", "gap=0.5",
                "--point", "theta=1.2,phi=0.8", "--format", "json",
                "--output", str(out))
    assert r.returncode == 4
    assert "2000" in r.stderr
    doc = json.loads(out.read_text())
    assert doc["truncated_at"] == 2000.0
    assert len(doc["betas"]) == 2


def test_limit_sweep_rejects_nonpositive_beta():
    r = run_cli("limit-sweep", "--betas", "0,5", "--point", "theta=1.2,phi=0.8")
    assert r.returncode == 3


def test_validate_matrix(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"dim": 2, "re": [[0.6, 0.1], [0.1, 0.4]],
                                "im": [[0.0, 0.2], [-0.2, 0.0]]}))
    r = run_cli("validate", str(good))
    assert r.returncode == 0
    assert "OK" in r.stdout

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "re": [[0.6 + 1e-7, 0.1], [0.1, 0.4]],
                               "im": [[0.0, 0.2], [-0.2, 0.0]]}))
    r = run_cli("validate", str(bad))
    assert r.returncode == 1
    assert "FAIL" in r.stdout and "trace" in r.stdout


def test_validate_grid_names_offending_node(tmp_path):
    doc = export_grid_model(BlochQubitModel(r=0.9),
                            [np.linspace(0.3, 2.8, 3), np.linspace(0.0, 6.0, 3)])
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)).returncode == 0

    doc["nodes"][4]["re"] = [[1.4, 0.0], [0.0, -0.4]]
    path.write_text(json.dumps(doc))
    r = run_cli("validate", str(path))
    assert r.returncode == 1
    assert "node [1, 1]" in r.stdout


def test_validate_unrecognized_document(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    assert run_cli("validate", str(path)).returncode == 2
    path.write_text("not json at all")
    assert run_cli("validate", str(path)).returncode == 2


def test_field_over_grid_model_file(tmp_path):
    doc = export_grid_model(BlochQubitModel(r=0.9),
                            [np.linspace(0.3, 2.8, 9), np.linspace(0.0, 6.0, 9)])
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "field.csv"
    r = run_cli("field", "--model", str(path),
                "--grid", "theta:0.5:2.6:3", "--grid", "phi:0.5:5.5:2",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = read_csv(out)
    assert len(rows) == 6
    for row in rows:
        assert float(row["sym_residual"]) < 1e-9
        assert float(row["antisym_residual"]) < 1e-9


FIELD_GRID = ("--grid", "theta:0.3:2.8:9", "--grid", "phi:0.1:6.0:7")


def _field_bytes(tmp_path, name, *args):
    out = tmp_path / name
    assert cli.main(["field", *args, "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("model, scheme", [("bloch", "analytic"), ("thermal-qubit", "central")])
def test_field_rows_do_not_depend_on_chunk_size(tmp_path, monkeypatch, model, scheme):
    args = ("--model", model, "--scheme", scheme, *FIELD_GRID)
    default = _field_bytes(tmp_path, "default.csv", *args)
    for size in (1, 7):
        monkeypatch.setattr(states, "CHUNK_ENTRIES", size * 2 * 2)  # points per chunk for N = 2
        assert _field_bytes(tmp_path, f"chunk{size}.csv", *args) == default


def test_field_pool_is_sized_by_chunks_and_cpus(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    serial = _field_bytes(tmp_path, "serial.csv", *FIELD_GRID)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 7 * 2 * 2)  # 63 points: 9 chunks
    assert _field_bytes(tmp_path, "many.csv", *FIELD_GRID, "--workers", "1000") == serial
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 40 * 2 * 2)  # 2 chunks
    assert _field_bytes(tmp_path, "two.csv", *FIELD_GRID, "--workers", "1000") == serial
    assert sizes == [3, 2]


def test_serial_field_does_not_load_the_process_pool(tmp_path):
    code = ("import sys; from mixedqgt import cli; "
            f"cli.main(['field', *{FIELD_GRID!r}, '--output', {str(tmp_path / 'f.csv')!r}]); "
            "print('concurrent.futures.process' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


def test_field_worker_processes_write_the_serial_bytes(tmp_path, monkeypatch):
    serial = _field_bytes(tmp_path, "serial.csv", *FIELD_GRID)
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 5 * 2 * 2)
    assert _field_bytes(tmp_path, "pool.csv", *FIELD_GRID, "--workers", "2") == serial


def test_field_failure_names_the_first_failing_point(tmp_path, monkeypatch, capsys):
    # only the points on the phi = 6.2831853 column are closer than h to the domain edge
    args = ["field", "--scheme", "central", "--grid", "theta:0.5:2.5:3",
            "--grid", "phi:1.0:6.2831853:4", "--output", str(tmp_path / "f.csv")]
    messages = []
    for size in (1, 2, 4096):
        monkeypatch.setattr(states, "CHUNK_ENTRIES", size * 2 * 2)
        assert cli.main(args) == 4
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].startswith("error: at grid point [0.5, 6.2831853]: phi = ")


def test_a_vanishing_central_step_is_refused(tmp_path, capsys):
    # theta + h == theta at every grid point: the differences would all be 0
    out = tmp_path / "field.csv"
    assert cli.main(["field", "--scheme", "central:1e-300", "--grid", "theta:0.1:3:3",
                     "--grid", "phi:0.1:6:3", "--output", str(out)]) == 4
    assert capsys.readouterr() == ("", "error: at grid point [0.1, 0.1]: central step"
                                       " h = 1e-300 vanishes against theta = 0.1\n")
    assert not out.exists()


def test_field_failure_in_a_later_chunk_writes_nothing(tmp_path, monkeypatch, capsys):
    # every chunk is computed before the output is opened
    real = cli._field_chunk
    calls = []

    def second_chunk_fails(task):
        calls.append(len(task[-1]))
        if len(calls) == 2:
            raise RankDeficientError("rank floor at the second chunk")
        return real(task)

    monkeypatch.setattr(cli, "_field_chunk", second_chunk_fails)
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 7 * 2 * 2)  # 63 points: 9 chunks
    out = tmp_path / "f.csv"
    for fmt in ("csv", "json"):
        for target in (["--output", str(out)], []):
            calls.clear()
            assert cli.main(["field", *FIELD_GRID, "--format", fmt, *target]) == 4
            assert capsys.readouterr() == ("", "error: rank floor at the second chunk\n")
            assert len(calls) == 2 and not out.exists()


def test_field_rank_deficient_family_exits_4_naming_the_point():
    r = run_cli("field", "--model", "bloch", "--set", "r=1",
                "--grid", "theta:0.3:2.8:4", "--grid", "phi:0:6:3")
    assert r.returncode == 4
    assert "at grid point [0.3, 0.0]" in r.stderr and "rank floor" in r.stderr


@pytest.mark.parametrize("args", [
    ("field", "--grid", "theta:0.5:nan:3"),
    ("field", "--grid", "theta:-inf:2.5:3"),
    ("field", "--set", "r=nan"),
    ("field", "--pole-margin", "nan"),
    ("field", "--pole-margin", "-1"),
    ("field", "--scheme", "central:nan"),
    ("geodesic", "--point-a", "theta=nan,phi=0.2", "--point-b", "theta=1.9,phi=2.4"),
    ("limit-sweep", "--betas", "1,nan", "--point", "theta=1.2,phi=0.8"),
])
def test_non_finite_numbers_are_usage_errors(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert "finite" in r.stderr


@pytest.mark.parametrize("workers", ["0", "-1", "abc"])
def test_field_rejects_bad_worker_counts(workers):
    r = run_cli("field", "--workers", workers, *FIELD_GRID)
    assert r.returncode == 2
    assert "--workers" in r.stderr


@pytest.mark.parametrize("conf, key", [
    ({"workers": "abc"}, "workers"),
    ({"workers": 0}, "workers"),
    ({"workers": 2.5}, "workers"),
    ({"pole_margin": "wide"}, "pole_margin"),
    ({"pole_margin": -1}, "pole_margin"),
    ({"format": "xml"}, "format"),
    ({"grid": "theta:0.3:2.8:3"}, "grid"),
    ({"model": ["bloch"]}, "model"),
])
def test_config_values_are_type_checked(tmp_path, conf, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(conf))
    r = run_cli("field", "--config", str(cfg), *FIELD_GRID)
    assert r.returncode == 2, r.stderr
    assert f"config key {key!r}" in r.stderr
    assert "Traceback" not in r.stderr


LOOP = [[0.8, 0.0], [0.8, 2.0], [1.6, 2.0], [1.6, 0.0], [0.8, 0.0]]
GEODESIC_POINTS = ("--point-a", "theta=0.7,phi=0.2", "--point-b", "theta=1.9,phi=2.4")


@pytest.mark.parametrize("option, value", [
    ("steps", 0), ("steps", 1), ("steps", 2 ** 15 + 1), ("samples", 0), ("samples", 1),
])
@pytest.mark.parametrize("via_config", [False, True])
def test_counts_below_two_or_above_max_steps_are_usage_errors(tmp_path, option, value,
                                                              via_config):
    if option == "steps":
        args = ["holonomy", "--loop", _loop_file(tmp_path / "loop.json", LOOP)]
    else:
        args = ["geodesic", *GEODESIC_POINTS]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        args += ["--config", str(cfg)]
    else:
        args += [f"--{option}", str(value)]
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert (f"config key {option!r}" if via_config else f"--{option}") in r.stderr
    assert "Traceback" not in r.stderr


def _state_file(path, mat):
    path.write_text(json.dumps({"dim": len(mat), "re": np.real(mat).tolist(),
                                "im": np.imag(mat).tolist()}))
    return str(path)


@pytest.mark.parametrize("entry", [(0, 0, np.inf), (0, 1, 1j * np.inf)])
def test_non_finite_state_file_fails_with_one_error_line(tmp_path, entry):
    i, j, value = entry
    bad = np.diag([0.6, 0.4]).astype(complex)
    bad[i, j] = value
    bad_path = _state_file(tmp_path / "bad.json", bad)
    good_path = _state_file(tmp_path / "good.json", np.diag([0.3, 0.7]))
    r = run_cli("geodesic", "--state-a", bad_path, "--state-b", good_path)
    assert r.returncode == 3
    assert r.stderr == "error: density matrix has non-finite (nan or inf) entries\n"
    r = run_cli("validate", bad_path)
    assert r.returncode == 1
    assert r.stdout == "FAIL finite: non-finite (nan or inf) entries\n"
    assert r.stderr == ""


@pytest.mark.parametrize("part, col", [("re", 1), ("im", 0)])
def test_non_finite_grid_node_fails_with_one_error_line(tmp_path, part, col):
    doc = export_grid_model(BlochQubitModel(r=0.9),
                            [np.linspace(0.3, 2.8, 3), np.linspace(0.0, 6.0, 3)])
    doc["nodes"][4][part][1][col] = float("inf")  # re diagonal or im off-diagonal
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    r = run_cli("field", "--model", str(path))
    assert r.returncode == 3
    assert r.stderr == "error: node [1, 1]: density matrix has non-finite (nan or inf) entries\n"
    r = run_cli("validate", str(path))
    assert r.returncode == 1
    assert r.stdout == "FAIL node [1, 1]: finite: non-finite (nan or inf) entries\n"
    assert r.stderr == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_entries_near_the_float_maximum_fail_with_only_the_error_lines(tmp_path, capsys):
    # the Hermiticity residual and the trace overflow to inf without a warning
    good_path = _state_file(tmp_path / "good.json", np.diag([0.3, 0.7]))
    for mat, error, fail in (
            ([[0.5, 1e308], [-1e308, 0.5]], "not Hermitian: max|rho - rho^dag| = inf > 1.0e-12",
             "hermiticity: max|rho - rho^dag| = inf > 1.0e-12"),
            ([[1.5e308, 0.0], [0.0, 1.5e308]], "trace differs from 1 by inf > 1.0e-12",
             "trace: differs from 1 by inf > 1.0e-12")):
        bad_path = _state_file(tmp_path / "bad.json", np.array(mat))
        assert cli.main(["geodesic", "--state-a", bad_path, "--state-b", good_path]) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert cli.main(["validate", bad_path]) == 1
        assert capsys.readouterr() == (f"FAIL {fail}\n", "")


def test_validate_checks_grid_nodes_a_chunk_at_a_time(tmp_path, monkeypatch, capsys):
    doc = export_grid_model(BlochQubitModel(r=0.9),
                            [np.linspace(0.3, 2.8, 3), np.linspace(0.0, 6.0, 3)])
    doc["nodes"][1]["re"] = [[1.4, 0.0], [0.0, -0.4]]
    doc["nodes"][5]["re"][0][1] = float("inf")
    doc["nodes"][7]["im"] = [[0.0, 1e308], [1e308, 0.0]]  # Hermiticity residual inf
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    model = load_grid_model(doc, check=False, validate_nodes=False)
    expected = "".join(f"FAIL node {list(idx)}: {message}\n"
                       for idx in np.ndindex(3, 3)
                       for message in density_violations(model.values[idx]))
    calls = defaultdict(int)
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 4 * 2 * 2)
    monkeypatch.setattr(states, "_density_residuals",
                        counted(calls, "residuals", states._density_residuals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr() == (expected, "")
    assert expected.count("FAIL") == 3
    assert calls["residuals"] == len(states.chunks(9, 2)) == 3


def test_geodesic_csv_columns_come_from_the_shared_helpers(tmp_path):
    out = tmp_path / "geo.csv"
    args = ["--model", "bloch", "--set", "r=0.9", *GEODESIC_POINTS]
    assert cli.main(["geodesic", *args, "--samples", "9", "--format", "csv",
                     "--output", str(out)]) == 0
    model = BlochQubitModel(r=0.9)
    sol = solve_geodesic(model.evaluate([0.7, 0.2]), model.evaluate([1.9, 2.4]))
    rows = read_csv(out)
    assert len(rows) == 9
    for row in rows:
        t = float(row["t"])
        assert float(row["ode_residual"]) == ode_residual(sol, t, 1e-3)
        bloch = [float(row[f"bloch_{a}"]) for a in "xyz"]
        assert bloch == bloch_vector(geodesic_point(sol, t).mat).tolist()


def test_geodesic_csv_skips_the_unreported_length_and_ellipse(tmp_path, monkeypatch):
    args = ["geodesic", "--model", "bloch", "--set", "r=0.9", *GEODESIC_POINTS,
            "--samples", "21", "--format", "csv"]
    plain = tmp_path / "plain.csv"
    assert cli.main([*args, "--output", str(plain)]) == 0

    def refuse(*a, **kw):
        raise AssertionError("CSV output computed an unreported quantity")

    monkeypatch.setattr(cli, "path_length", refuse)
    monkeypatch.setattr(cli, "bloch_ellipse_check", refuse)
    skipped = tmp_path / "skipped.csv"
    assert cli.main([*args, "--output", str(skipped)]) == 0
    assert skipped.read_bytes() == plain.read_bytes()
    with pytest.raises(AssertionError):
        cli.main([*args[:-2], "--output", str(tmp_path / "geo.json")])


def test_geodesic_csv_rows_do_not_depend_on_chunk_size(tmp_path, monkeypatch, capsys):
    # the N = 5 pair checks the mirrored lower triangle across chunk boundaries
    five = _state_files(tmp_path, dim=5)
    for dim, pair in ((2, ["--model", "bloch", "--set", "r=0.9", *GEODESIC_POINTS]),
                      (5, ["--state-a", str(five[0]), "--state-b", str(five[1])])):
        args = ["geodesic", *pair, "--samples", "21", "--format", "csv"]
        assert cli.main(args) == 0
        default = capsys.readouterr().out
        assert default.count("\n") == 22 and default.count("bloch_x") == (dim == 2)
        for size in (1, 7):
            with monkeypatch.context() as patch:
                patch.setattr(states, "CHUNK_ENTRIES", size * dim * dim)  # samples per chunk
                out = tmp_path / f"n{dim}_chunk{size}.csv"
                assert cli.main([*args, "--output", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == default


def _state_files(tmp_path, dim=4, seed=31):
    """Files of two full-rank dim x dim states: a a^dag + 0.1 I, normalized."""
    rng = np.random.default_rng(seed)
    paths = []
    for name in "ab":
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a @ a.conj().T + 0.1 * np.eye(dim)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(matrix_to_json(m / np.trace(m).real)))
    return paths


@settings(max_examples=25)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, seed=0)
@example(dim=3, seed=0)
@example(dim=5, seed=0)
def test_geodesic_csv_writes_the_upper_triangle_and_its_mirror(dim, seed):
    # numpy's W W^dag is not always bit-Hermitian (at N = 2, 3, 5 and 6): the
    # lower triangle is written as the upper's mirror, within 1e-16 of the
    # product's own; N = 1 has no geodesic, as every 1 x 1 state is [[1]]
    with tempfile.TemporaryDirectory() as tmp:
        paths = _state_files(pathlib.Path(tmp), dim, seed)
        out = pathlib.Path(tmp) / "geo.csv"
        assert cli.main(["geodesic", "--state-a", str(paths[0]), "--state-b", str(paths[1]),
                         "--samples", "7", "--format", "csv", "--output", str(out)]) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        sol = solve_geodesic(*(DensityMatrix(load_matrix(p)) for p in paths))
    ts = np.linspace(0.0, sol.theta, 7)
    _, rho = geodesic_points(sol, ts)
    assert len(header) == 1 + 2 * dim * dim + 3 * (dim == 2) + 3 and len(rows) == 7
    for t, fields, r in zip(ts, rows, rho):
        row = dict(zip(header, fields))
        assert row["t"] == "%.17g" % t
        for i, j in zip(*np.triu_indices(dim)):
            # upper and diagonal fields are rho's own; lower ones its mirror,
            # im negated ("0" and "-0" swap)
            assert row[f"re_rho_{i}_{j}"] == "%.17g" % r[i, j].real == row[f"re_rho_{j}_{i}"]
            assert row[f"im_rho_{i}_{j}"] == "%.17g" % r[i, j].imag
            if i < j:
                assert row[f"im_rho_{j}_{i}"] == "%.17g" % -r[i, j].imag
                flipped = complex(float(row[f"re_rho_{j}_{i}"]), float(row[f"im_rho_{j}_{i}"]))
                assert abs(flipped - r[j, i]) <= 1e-16


def test_geodesic_csv_linalg_calls_grow_with_chunks_not_samples(tmp_path, monkeypatch):
    # only the two endpoints are decomposed; the samples rho = W W^dag are
    # not checked again, and each chunk gets one svd per fidelity column,
    # next to the one svd of the geodesic's construction
    paths = _state_files(tmp_path)
    for samples in (21, 2001):
        calls = defaultdict(int)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted(calls, "eigh", np.linalg.eigh))
            patch.setattr(np.linalg, "svd", counted(calls, "svd", np.linalg.svd))
            patch.setattr(np.linalg, "eigvalsh", counted(calls, "eigvalsh", np.linalg.eigvalsh))
            assert cli.main(["geodesic", "--state-a", str(paths[0]), "--state-b", str(paths[1]),
                             "--samples", str(samples), "--format", "csv",
                             "--output", str(tmp_path / "geo.csv")]) == 0
        # eigvalsh is counted too, and is never called
        assert calls == {"eigh": 2, "svd": 1 + 2 * len(states.chunks(samples, 4))}
    assert len(states.chunks(2001, 4)) == 2


def test_geodesic_csv_failure_in_a_later_chunk_writes_nothing(tmp_path, monkeypatch, capsys):
    real = cli.geodesic_points
    calls = []

    def second_chunk_fails(sol, times):
        calls.append(len(times))
        w, rho = real(sol, times)
        if len(calls) == 2:
            states.check_norm_stack(1.01 * w)  # the norm check refuses this chunk
        return w, rho

    monkeypatch.setattr(cli, "geodesic_points", second_chunk_fails)
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 7 * 2 * 2)  # 21 samples: 3 chunks
    out = tmp_path / "geo.csv"
    args = ["geodesic", "--model", "bloch", "--set", "r=0.9", *GEODESIC_POINTS,
            "--samples", "21", "--format", "csv"]
    for target in (["--output", str(out)], []):
        calls.clear()
        assert cli.main([*args, *target]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith("error: norm^2 differs from 1 by ")
        assert calls == [7, 7] and not out.exists()


def test_geodesic_csv_text_is_never_held_whole(tmp_path):
    # 16,001 samples of N = 4 states: a 4.6 MB float table and 11 MB of text,
    # so a peak below the file's size means the text was never held whole
    paths = _state_files(tmp_path)
    out = tmp_path / "geo.csv"
    tracemalloc.start()
    try:
        assert cli.main(["geodesic", "--state-a", str(paths[0]), "--state-b", str(paths[1]),
                         "--samples", "16001", "--format", "csv", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


def test_field_json_rows_are_never_held_whole(tmp_path, monkeypatch):
    # 14,641 points in chunks of 256: a 1.2 MB float table and 3.0 MB of JSON,
    # so a peak below the file's size means neither the row lists nor the text
    # of the whole table were held at once
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 256 * 2 * 2)
    out = tmp_path / "field.json"
    tracemalloc.start()
    try:
        assert cli.main(["field", "--grid", "theta:0.3:2.8:121", "--grid", "phi:0:6:121",
                         "--format", "json", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size
    # the blocks join into the one-shot encoder's text
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert len(doc["rows"]) == 121 * 121 and text == json.dumps(doc) + "\n"


def test_central_field_sweep_decomposes_no_neighbour(tmp_path, monkeypatch):
    # the certified model checks no neighbour, so eigvalsh runs only for the
    # metric check of each chunk's tensors, plus the set-up check of the 7 x 7
    # nodes, one per chunk; interpolation is stacked: one seam call per chunk
    # of states and one per chunk of neighbours, plus the probe of N
    _central_field_sweep_counts(tmp_path, monkeypatch)


def test_uncertified_central_field_sweep_checks_neighbours_per_chunk(tmp_path, monkeypatch):
    # without the certificate each chunk's +-h neighbours get one stacked
    # eigvalsh, and registration checks its 5 x 5 lattice too (one seam call
    # per chunk, plus its own probe of N)
    monkeypatch.setattr(models, "_certified", lambda values, residuals: False)
    _central_field_sweep_counts(tmp_path, monkeypatch, certified=False)


def _central_field_sweep_counts(tmp_path, monkeypatch, certified=True):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(export_grid_model(
        BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 7), np.linspace(0.0, 6.2, 7)])))
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 7 * 2 * 2)  # points per chunk for N = 2
    for count in (3, 11):
        calls = defaultdict(int)
        with monkeypatch.context() as patch:
            patch.setattr(states, "_eigvalsh", counted(calls, "eigvalsh", states._eigvalsh))
            patch.setattr(GridModel, "_evaluate", counted(calls, "_evaluate", GridModel._evaluate))
            assert cli.main(["field", "--model", str(path), "--scheme", "central:1e-5",
                             "--grid", f"theta:0.4:2.7:{count}", "--grid", f"phi:0.1:6.1:{count}",
                             "--output", str(tmp_path / "field.csv")]) == 0
        lattice = len(states.chunks(5 ** 2, 2))
        setup = len(states.chunks(7 ** 2, 2)) + (not certified) * lattice
        sweep = (2 - certified) * len(states.chunks(count ** 2, 2))  # metric (and neighbours)
        evaluations = 1 + 2 * len(states.chunks(count ** 2, 2)) + (not certified) * (1 + lattice)
        assert calls == {"eigvalsh": sweep + setup, "_evaluate": evaluations}
    assert len(states.chunks(11 ** 2, 2)) == 18


def test_analytic_field_sweep_gathers_each_chunk_once(tmp_path, monkeypatch):
    # a certified grid model's states and exact derivatives come from one
    # corner gather per chunk: one eigh per chunk, no central differences and
    # no neighbour interpolants (matrices_at serves only the probe of N)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(export_grid_model(
        BlochQubitModel(r=0.8), [np.linspace(0.3, 2.8, 7), np.linspace(0.0, 6.2, 7)])))
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 7 * 2 * 2)  # points per chunk for N = 2
    calls = defaultdict(int)
    monkeypatch.setattr(states, "_eigh", counted(calls, "eigh", states._eigh))
    monkeypatch.setattr(qgt, "derivative_stack", counted(calls, "central", qgt.derivative_stack))
    for name in ("matrices_at", "_corners"):
        monkeypatch.setattr(GridModel, name, counted(calls, name, getattr(GridModel, name)))
    # 10 values per axis, none of them within 0.01 of a node line
    assert cli.main(["field", "--model", str(path), "--grid", "theta:0.4:2.7:10",
                     "--grid", "phi:0.1:6.1:10", "--output", str(tmp_path / "field.csv")]) == 0
    chunks = len(states.chunks(10 ** 2, 2))
    assert chunks == 15
    assert calls == {"eigh": chunks, "_corners": chunks + 1, "matrices_at": 1}


@pytest.mark.parametrize("text, message", [
    (b'{"params": [{"name": "x", "grid": [[0.0], [1.0]]}], "nodes": []}',
     "error: params[0].grid has non-numeric entries\n"),
    (b'{"params": [{"name": "x", "grid": [0.0, 1.0]}], "nodes": [',
     "error: not valid JSON: Expecting value: line 1 column 59 (char 58)\n"),
    (b'\xff{"params": []}',
     "error: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0:"
     " invalid start byte\n"),
    (b'{"params": [{"name": "x", "grid": [0, 1%s]}], "nodes": []}' % (b"0" * 400),
     "error: params[0].grid has entries beyond the float range\n"),
    (b'{"params": [{"name": "x", "grid": [0, 1]}], "nodes": [{"index": [0],'
     b' "re": [[1%s]], "im": [[0]]}, {"index": [1], "re": [[1]], "im": [[0]]}]}' % (b"0" * 400),
     "error: nodes[0] has matrix entries beyond the float range\n"),
    (b'{"params": [{"name": "x", "grid": [0.0, true]}], "nodes": []}',
     "error: params[0].grid has non-numeric entries\n"),
    (b'{"params": [{"name": "x", "grid": [0, 1]}], "nodes": [{"index": [0],'
     b' "re": [[null]], "im": [[0]]}, {"index": [1], "re": [[1]], "im": [[0]]}]}',
     "error: nodes[0] has non-numeric matrix entries\n"),
    (b'{"params": [{"name": "x", "grid": [0, 1]}], "nodes": [{"index": [0],'
     b' "re": [[1]], "im": 0}, {"index": [1], "re": [[1]], "im": [[0]]}]}',
     "error: nodes[0] has non-numeric matrix entries\n"),
    # a finite axis whose span, or a difference, overflows (no RuntimeWarning first)
    (b'{"params": [{"name": "x", "grid": [-1e308, 0, 1e308]}], "nodes": []}',
     "error: params[0].grid has a span beyond the float range\n"),
    (b'{"params": [{"name": "x", "grid": [-1e308, 1e308]}], "nodes": []}',
     "error: params[0].grid has a span beyond the float range\n"),
])
def test_malformed_grid_model_files_fail_with_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "grid.json"
    path.write_bytes(text)
    for args in (["validate", str(path)], ["field", "--model", str(path)]):
        assert cli.main(args) == 2
        assert capsys.readouterr() == ("", message)


def test_geodesic_between_close_points_succeeds():
    r = run_cli("geodesic", "--point-a", "theta=0.7,phi=0.2", "--point-b", "theta=0.71,phi=0.2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["theta"] == pytest.approx(0.0045, rel=1e-3)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_grid_axis_fails_with_one_error_line(tmp_path, value):
    doc = export_grid_model(BlochQubitModel(r=0.8),
                            [np.linspace(0.3, 2.8, 3), np.linspace(0.0, 6.0, 3)])
    doc["params"][1]["grid"][-1] = value
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    for args in (("validate", str(path)), ("field", "--model", str(path))):
        r = run_cli(*args)
        assert r.returncode == 2
        assert r.stderr == "error: params[1].grid has non-finite entries\n"
        assert r.stdout == ""


def test_field_csv_rows_are_the_json_rows_formatted(tmp_path):
    # the coordinates are formatted once per axis value, the rest per row
    grid = ("--grid", "theta:0.3:2.8:5", "--grid", "phi:0:6.1:7")
    paths = tmp_path / "field.csv", tmp_path / "field.json"
    for fmt, path in zip(("csv", "json"), paths):
        assert cli.main(["field", *grid, "--format", fmt, "--output", str(path)]) == 0
    doc = json.loads(paths[1].read_text(encoding="utf-8"))
    lines = paths[0].read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(doc["columns"])
    assert lines[1:] == [",".join("%.17g" % v for v in row) for row in doc["rows"]]


BIG = "1" + "0" * 400  # an integer literal beyond the float range
STATE_TEXT = '{"dim": %s, "re": [[0.6, %s], [0.1, 0.4]], "im": [[0, 0], [0, 0]]}'


@pytest.mark.parametrize("text, message", [
    (STATE_TEXT % (2, '"a"'), "re has non-numeric entries"),
    ('{"dim": 2, "re": [[0.6, 0.1], [0.4]], "im": [[0, 0], [0, 0]]}',
     "re has non-numeric entries"),
    ('{"dim": 2, "re": [[0.6, 0.1], {"a": 0.4}], "im": [[0, 0], [0, 0]]}',
     "re has non-numeric entries"),
    ('{"dim": 2, "re": {"a": 0.4}, "im": [[0, 0], [0, 0]]}', "re has non-numeric entries"),
    (STATE_TEXT % (2, BIG), "re has entries beyond the float range"),
    (STATE_TEXT % ('"2"', 0.1), "dim must be a positive integer, got '2'"),
    (STATE_TEXT % ("true", 0.1), "dim must be a positive integer, got True"),
    (STATE_TEXT % (0, 0.1), "dim must be a positive integer, got 0"),
    (STATE_TEXT % (2, "null"), "re has non-numeric entries"),
    ('{"dim": 2, "re": [[0.6, 0.1], [0.1, 0.4]], "im": [[0, 0], [null, 0]]}',
     "im has non-numeric entries"),
    (STATE_TEXT % (3, 0.1), "matrix parts must be 3x3, got (2, 2) and (2, 2)"),
])
def test_malformed_state_files_fail_with_one_error_line(tmp_path, capsys, text, message):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(STATE_TEXT % (2, 0.1))
    for args in (["validate", str(bad)],
                 ["geodesic", "--state-a", str(bad), "--state-b", str(good)]):
        assert cli.main(args) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_state_file_numbers_decide_the_data_checks(tmp_path, capsys):
    # an integral float dim is a dim; a NaN literal is data (a finding); a
    # boolean inside a matrix part is read as a number, as numpy reads it
    path = tmp_path / "state.json"
    for dim, entry, code, out in (
            (2.0, "0.1", 0, "OK: valid matrix\n"),
            (2, "NaN", 1, "FAIL finite: non-finite (nan or inf) entries\n"),
            (2, "false", 1, "FAIL hermiticity: max|rho - rho^dag| = 1.000e-01 > 1.0e-12\n")):
        path.write_text(STATE_TEXT % (dim, entry))
        assert cli.main(["validate", str(path)]) == code
        assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("coordinate, message", [
    ('"a"', "loop point 1 has non-numeric coordinates"),
    ("[2.0]", "loop point 1 has non-numeric coordinates"),
    ("null", "loop point 1 has non-numeric coordinates"),
    ("true", "loop point 1 has non-numeric coordinates"),
    (BIG, "loop point 1 has coordinates beyond the float range"),
    ("NaN", "loop point 1 has non-finite coordinates"),
    ("-Infinity", "loop point 1 has non-finite coordinates"),
])
def test_malformed_loop_files_fail_with_one_error_line(tmp_path, capsys, coordinate, message):
    path = tmp_path / "loop.json"
    path.write_text('{"points": [[0.8, 0.0], [0.8, %s], [1.6, 2.0], [0.8, 0.0]]}' % coordinate)
    assert cli.main(["holonomy", "--loop", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# --- every input file fails loudly -------------------------------------------

FUZZ_DOCUMENTS = {
    "state": {"dim": 2, "re": [[0.6, 0.1], [0.1, 0.4]], "im": [[0.0, 0.05], [-0.05, 0.0]]},
    "loop": {"points": LOOP},
    "grid": export_grid_model(BlochQubitModel(r=0.8), [np.array([0.3, 1.5, 2.8]),
                                                       np.array([0.0, 6.0])]),
    "config": {"grid": ["theta:0.3:2.8:3", "phi:0.1:6:3"], "format": "json", "workers": 1,
               "scheme": "central:1e-4", "pole_margin": 0.1},
}
ODD_VALUES = [None, True, False, "a", "", float("nan"), float("inf"), -float("inf"), 10 ** 400,
              -10 ** 400, 1e308, -1e308, 0, -1, 2, 1.5, [], {}, [[1.0, 2.0], [3.0]], [None],
              {"a": 1}]


def _json_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, path + (key,))


@st.composite
def malformed_inputs(draw):
    """(kind, file bytes): a valid document of one kind after one or two edits
    (a value dropped, retyped, nested or made ragged), written as JSON with
    NaN/Infinity literals, then perhaps truncated or given a non-UTF-8 byte."""
    kind = draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    doc = copy.deepcopy(FUZZ_DOCUMENTS[kind])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        if not path:
            doc = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            continue
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        key, value = path[-1], holder[path[-1]]
        edit = draw(st.sampled_from(["retype", "drop", "nest", "ragged"]))
        if edit == "retype":
            holder[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif edit == "drop":
            del holder[key]
        elif edit == "nest":
            holder[key] = [value]
        else:
            holder[key] = value[:-1] if isinstance(value, list) and value else [value, [value]]
    text = json.dumps(doc).encode()
    damage = draw(st.sampled_from(["none", "none", "none", "truncate", "not-utf-8"]))
    if damage != "none" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] if damage == "truncate" else text[:at] + b"\xff" + text[at + 1:]
    return kind, text


def _fuzz_commands(kind, path, good_state):
    return {"state": [["validate", path],
                      ["geodesic", "--state-a", path, "--state-b", good_state, "--samples", "3"]],
            "loop": [["holonomy", "--loop", path, "--steps", "16"]],
            "grid": [["validate", path], ["field", "--model", path]],
            "config": [["field", "--config", path]]}[kind]


@settings(max_examples=150)
@given(case=malformed_inputs())
@example(case=("state", (STATE_TEXT % (2, '"a"')).encode()))
@example(case=("state", b'{"dim": 2, "re": [[0.6, 0.1], [0.4]], "im": [[0, 0], [0, 0]]}'))
@example(case=("state", b'{"dim": 2, "re": {"a": 0.4}, "im": [[0, 0], [0, 0]]}'))
@example(case=("state", (STATE_TEXT % (2, BIG)).encode()))
@example(case=("state", (STATE_TEXT % ('"2"', 0.1)).encode()))
@example(case=("state", (STATE_TEXT % ("true", 0.1)).encode()))
@example(case=("state", (STATE_TEXT % (2, "null")).encode()))
@example(case=("loop", b'{"points": [[0.8, 0.0], [0.8, "a"], [1.6, 2.0], [0.8, 0.0]]}'))
@example(case=("loop", b'{"points": [[0.8, 0.0], [0.8, [2.0]], [1.6, 2.0], [0.8, 0.0]]}'))
@example(case=("loop", b'{"points": [[0.8, 0.0], [0.8, null], [1.6, 2.0], [0.8, 0.0]]}'))
@example(case=("loop", b'{"points": [[0.8, 0.0], [0.8, true], [1.6, 2.0], [0.8, 0.0]]}'))
@example(case=("loop", ('{"points": [[0.8, 0.0], [0.8, %s], [1.6, 2.0], [0.8, 0.0]]}'
                        % BIG).encode()))
@example(case=("loop", b'{"points": [[0.8, 0.0], [Infinity, 2.0], [1.6, 2.0], [0.8, 0.0]]}'))
@example(case=("grid", b'{"params": [{"name": "x", "grid": [0.0, true]}], "nodes": []}'))
@example(case=("grid", b"[" * 100000))
def test_malformed_input_files_fail_with_documented_exits(case):
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path, good = pathlib.Path(tmp, "input.json"), pathlib.Path(tmp, "good.json")
        path.write_bytes(text)
        good.write_text(STATE_TEXT % (2, 0.1))
        for args in _fuzz_commands(kind, str(path), str(good)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args + ["--output", str(pathlib.Path(tmp, "out"))]
                                if args[0] != "validate" else args)
            out, err = out.getvalue(), err.getvalue()
            assert code in ((0, 1, 2) if args[0] == "validate" else (0, 2, 3, 4)), (args, err)
            if code == 1:  # validate's data findings
                assert out and all(line.startswith("FAIL ") for line in out.splitlines())
                assert err == ""
            elif code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
