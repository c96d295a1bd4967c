"""Smoke test of the benchmark harness itself, at minimal size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs with a handful of pairs, untraced and traced, through the
same code as a real run; the result line must carry exactly the metrics that
BENCHMARK.json declares, with their units. A negative control corrupts one
stored label, which the oracle check must catch and count as a failure, and
that one failure must take `ok_frac` outside its declared bound. (At full
size, `collect.py` flags an `ok_frac` bound that one failure would not cross.)
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.import_seqstack()
import workloads  # noqa: E402  (needs the checkout's seqstack on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(spec: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(spec, bins={b: 20 for b in spec.bins}, n_train=8, n_dev=4,
                               n_test=workloads.PADDING_SAMPLE)


@pytest.fixture
def work():
    scratch = run.ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {name: small(spec) for name, spec in workloads.WORKLOADS.items()})


def test_benchmark_declares_the_workloads_the_harness_runs():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_result_line_has_every_declared_metric(name, trace, small_workloads, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        assert trace or metric["value"] != 0


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_corrupted_label_fails_the_oracle_check(name, work, monkeypatch):
    make_inputs = workloads.make_inputs

    def corrupted(spec, seed, data_dir):
        make_inputs(spec, seed, data_dir)
        path = data_dir / "train.tsv"
        lines = path.read_text().splitlines()
        label, premise, hypothesis = lines[0].split("\t")
        lines[0] = "\t".join(("ind" if label != "ind" else "eq", premise, hypothesis))
        path.write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(workloads, "make_inputs", corrupted)
    metrics, ledger = workloads.run(small(workloads.WORKLOADS[name]), 3, 0, False, work)
    assert ledger.failures == ["train.tsv labels match the truth-table oracle"]
    assert metrics["ok_frac"][0] == 1.0 - 1 / ledger.attempted
    bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "ok_frac")
    assert 1.0 - metrics["ok_frac"][0] > bound


def test_refuses_to_run_without_sources(work):
    """In a directory holding only BENCHMARK.json and perfbench/, exit non-zero
    and print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    shutil.copytree(Path(run.__file__).parent, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-ci", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
