"""Tests of the benchmark itself (not of the package).

    python -m pytest perfbench -q

Smoke runs use ``--size tiny`` so each takes seconds; the corrupted-output
tests feed a damaged copy of a real output to the checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

WL = run._import_program()
RUN_PY = os.path.join(run.BENCH_DIR, "run.py")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _bench(*args, cwd=run.ROOT, script=RUN_PY):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


_SMOKE = {}


def _smoke(name, trace):
    key = (name, trace)
    if key not in _SMOKE:
        proc = _bench("--workload", name, "--seed", "5", "--seconds", "0",
                      "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        _SMOKE[key] = proc.stdout.strip().splitlines()
    return _SMOKE[key]


def test_benchmark_json_lists_the_harness_tables():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WL.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(WL.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(name, trace):
    lines = _smoke(name, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)
    for metric, unit in table:
        assert any(line.split()[1:2] == [metric] and unit in line for line in lines[:-1])
    assert any(line.split()[1:3] == ["fail_ratio", "0"] for line in lines[:-1])


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _bench("--workload", "holonomy-qubit", "--seed", "5", "--seconds", "0",
                      "--trace", "1", "--size", "tiny")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".per_item", "step_ratio"))})
    assert counts[0] == counts[1]
    assert counts[0]["bundle.connection.calls"] > 0
    assert counts[0]["transport.step_ratio"] > 0


@pytest.fixture
def tiny_output(tmp_path):
    """(workload, inputs, output path) for one tiny run of a workload."""
    import numpy as np

    def make(name):
        workload = WL.WORKLOADS[name]
        inputs = workload.make_inputs(np.random.default_rng(5), str(tmp_path))
        output = str(tmp_path / f"{name}.out")
        code, _, _, log = run.run_child(run.CLI + workload.argv(inputs, output, "tiny"),
                                        str(tmp_path))
        assert code == 0, log
        return workload, inputs, output

    return make


def _record(workload, inputs, output, code=0):
    result = run.Result(workload.name)
    result.record(code, output, lambda path: workload.check(path, inputs, "tiny"))
    return result


def test_intact_outputs_pass(tiny_output):
    for name in WL.WORKLOADS:
        result = _record(*tiny_output(name))
        assert (result.attempted, result.failed) == (1, 0), result.problems


def test_perturbed_tensor_entry_fails_the_run(tiny_output):
    workload, inputs, output = tiny_output("field-qubit")
    with open(output, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    col = header.index("re_Q_phi_phi")
    row[col] = repr(float(row[col]) + 1e-6)
    lines[5] = ",".join(row)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    result = _record(workload, inputs, output)
    assert (result.attempted, result.failed) == (1, 1)
    assert "closed-form deviation" in result.problems[0]


def _double_steps(report):
    report["steps"] *= 2


def _nan_unitary_entry(report):
    report["unitary_re"][0][0] = float("nan")


def _null_convergence(report):
    report["convergence_estimate"] = None


@pytest.mark.parametrize("corrupt, problem", [
    (_double_steps, "!= requested"),
    (_nan_unitary_entry, "U^dag U"),
    (_null_convergence, "unreadable output"),
])
def test_corrupted_holonomy_report_fails_the_run(tiny_output, corrupt, problem):
    workload, inputs, output = tiny_output("holonomy-qubit")
    with open(output, encoding="utf-8") as fh:
        report = json.load(fh)
    corrupt(report)
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    result = _record(workload, inputs, output)
    assert result.failed == 1 and problem in result.problems[0]


def test_perturbed_dense_tensor_fails_the_route_check(tiny_output):
    workload, inputs, output = tiny_output("field-dense")
    with open(output, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index("re_Q_x_y")
    for k in range(1, len(lines)):
        row = lines[k].split(",")
        row[col] = repr(float(row[col]) + 1e-6)
        lines[k] = ",".join(row)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    result = _record(workload, inputs, output)
    assert result.failed == 1 and "covariant route" in result.problems[0]


def _set_csv_cell(output, row, column, text):
    with open(output, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[row].split(",")
    fields[lines[0].split(",").index(column)] = text
    lines[row] = ",".join(fields)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, column", [
    ("field-qubit", "re_Q_theta_theta"),
    ("field-qubit", "re_Q_theta_phi"),
    ("field-dense", "sym_residual"),
    ("geodesic-trace", "fidelity_to_a"),
    ("geodesic-trace", "ode_residual"),
])
def test_nan_entry_fails_the_run(tiny_output, name, column):
    workload, inputs, output = tiny_output(name)
    _set_csv_cell(output, 3, column, "nan")
    result = _record(workload, inputs, output)
    assert (result.attempted, result.failed) == (1, 1)


def test_failed_exit_and_missing_output_count_as_failures(tiny_output):
    workload, inputs, output = tiny_output("geodesic-trace")
    assert _record(workload, inputs, output, code=4).failed == 1
    assert _record(workload, inputs, output, code=None).problems == ["timeout"]
    os.remove(output)
    assert _record(workload, inputs, output).problems == ["no output file"]


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "field-qubit", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibrated_times_scale_by_the_kernel_runs_next_to_each_child(monkeypatch):
    kernel = iter([0.4, 0.2, 0.6])
    monkeypatch.setattr(run, "calibrate", lambda np: next(kernel))
    monkeypatch.setattr(run, "run_child", lambda args, workdir: (0, 3.0, 100.0, ""))
    timer = run.Calibrated(None)
    first, second = timer.run([], "."), timer.run([], ".")
    assert first[1] == pytest.approx(3.0 * run.CAL_REF_S / 0.3)
    assert second[1] == pytest.approx(3.0 * run.CAL_REF_S / 0.4)
    assert timer.samples == [0.4, 0.2, 0.6]
