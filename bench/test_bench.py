"""Tests of the benchmark itself (not collected by the Tier-1 suite).

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import inputs
from bench import run as bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.05",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_tampered_reference_digest_counts_as_failure(tmp_path):
    bench.import_program()
    from bench.tracing import Tracer

    expected = bench.load_reference()["tiny"]["deep-lattice"]["3"]
    tampered = dict(expected, **{"nested.jsonl": "0" * 64})
    honest = bench.Run("deep-lattice", 3, "tiny", tmp_path / "a", Tracer(), expected)
    honest.setup()
    honest.iterate()
    assert honest.failures == []
    run = bench.Run("deep-lattice", 3, "tiny", tmp_path / "b", Tracer(), tampered)
    run.setup()
    run.iterate()
    assert run.attempted == honest.attempted
    assert len(run.failures) == 1 and "nested.jsonl SHA-256" in run.failures[0]


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, size, tmp_path):
    bench.import_program()
    from bench.tracing import Tracer

    seed = 37
    variant = inputs.variant_of(seed)
    written = []
    for name in ("a", "b"):
        run = bench.Run(workload, variant, size, tmp_path / name, Tracer(), None)
        run.write_inputs()
        written.append({p.name: p.read_bytes() for p in run.dir.iterdir()})
    assert written[0] == written[1]
    other = inputs.generate(workload, inputs.variant_of(seed + 1), size)
    assert {k: v.encode() for k, v in other.items()} != written[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "deep-lattice", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
