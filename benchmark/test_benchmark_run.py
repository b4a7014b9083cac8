"""Tests of the benchmark itself, at its tiny input size.

Each test starts benchmark/run.py as a subprocess, the way it is run for
measurements, and reads the JSON object on the last line of its output.
Run from the repository root: python3 -m pytest benchmark
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny"]
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=120)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def copy_benchmark(tmp_path: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return tmp_path


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(workload, trace, kind):
    proc = run(ROOT, workload, 1, trace)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert "checked against stored references" in proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_traced_counts_repeat_exactly_on_an_invariants_only_seed():
    runs = [run(ROOT, "stability", 3, 1) for _ in range(2)]
    outs = [result(p) for p in runs]
    assert all("invariants only" in p.stdout for p in runs)
    assert all(o["correct"] for o in outs)
    count_lines = [[line for line in p.stdout.splitlines() if "counts per pass" in line] for p in runs]
    assert count_lines[0] and count_lines[0][0].split(":", 1)[1] == count_lines[1][0].split(":", 1)[1]
    counts = [{k: m["value"] for k, m in o["metrics"].items() if m["unit"] in ("count", "ratio")
               and k != "trace.overhead_ratio"} for o in outs]
    assert counts[0] == counts[1]
    assert counts[0]["harness.trials"] == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_reference_drives_error_rate_above_zero(tmp_path, trace):
    root = copy_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = root / "benchmark" / "references.json"
    references = json.loads(path.read_text())
    references["tiny"]["sweep"]["1"][0] = "0" * 64
    path.write_text(json.dumps(references))
    proc = run(root, "sweep", 1, trace)
    out = result(proc)
    assert out["correct"] is False
    assert out["failed"] > 0
    assert "differs from reference" in proc.stdout
    error_rate = float(next(line for line in proc.stdout.splitlines()
                            if line.startswith("# error_rate")).split()[2])
    assert error_rate > 0


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    proc = run(copy_benchmark(tmp_path), "sweep", 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
