"""Every named metric is emitted with its unit on a tiny-scale run of each
workload, and the benchmark refuses to run without the program's source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.003"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_metrics_the_code_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {workload["name"] for workload in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr[-2000:]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        if not trace:
            assert value["value"] > 0, name
    record = json.loads(done.stdout.strip().splitlines()[-2].removeprefix("record: "))
    assert record["host"]["cpu_count"] >= 1 and record["corpus"]["tls_rows"] > 0
    if trace:
        assert result["metrics"]["trace.unattributed_ratio"]["value"] <= 0.10
        assert (BENCH / "_work" / "traces" / f"{workload}-seed3.trace.json").is_file()


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run_bench("batch-cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
