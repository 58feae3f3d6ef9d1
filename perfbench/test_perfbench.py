"""Smoke tests of the benchmark itself: output schema and correctness gate.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs ``run.py --smoke`` (tiny inputs from the cheapest bands)
in a subprocess from the repository root.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ("scl-sweep", "rot-long", "paper-cli", "encode-large")


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_schema(doc, names):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"]
    assert set(doc["metrics"]) == set(names)
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload, tmp_path):
    proc, doc = bench("--workload", workload, "--seed", "3", "--trace", "0", "--smoke",
                      "--out", str(tmp_path / "result.json"))
    assert proc.returncode == 0, proc.stderr
    check_schema(doc, [m["name"] for m in benchmark_json()["end_to_end"]])
    assert doc["correct"] is True
    assert doc["metrics"]["setup_s"]["value"] > 0
    with open(tmp_path / "result.json", encoding="utf-8") as handle:
        result = json.load(handle)
    env = result["environment"]
    assert env["python"] and env["rational"] and env["nproc"]
    assert result["results"][0]["inputs"]["ops"] == doc["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload, tmp_path):
    proc, doc = bench("--workload", workload, "--seed", "4", "--trace", "1", "--smoke",
                      "--out", str(tmp_path / "result.json"))
    assert proc.returncode == 0, proc.stderr
    check_schema(doc, [m["name"] for m in benchmark_json()["per_layer"]])
    assert doc["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_seeds_give_different_corpora_with_the_same_bands():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    for workload in WORKLOADS:
        a, _ = run.make_rounds(pins, workload, 1, smoke=False)
        b, _ = run.make_rounds(pins, workload, 2, smoke=False)
        assert [op["id"] for op in a[0]] != [op["id"] for op in b[0]]
        assert sorted(op["band"] for op in a[0]) == sorted(op["band"] for op in b[0])


def test_wrong_pin_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    for item in pins["scl"]:
        item["scl"] = "7/3"
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins), encoding="utf-8")
    proc, doc = bench("--workload", "scl-sweep", "--seed", "5", "--smoke",
                      "--pins", str(bad), "--out", str(tmp_path / "result.json"))
    assert proc.returncode == 1
    assert doc["correct"] is False


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n, beyond = run.tail([float(k) for k in range(40)])
    assert (value, n, beyond) == (29.0, 40, 10)
    assert pct == 75.0


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rot-long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_paper_cli_exit_codes():
    pin = {"commands": [{"exit": 3}, {"exit": 0, "record": {"scl": "1/2"}}]}
    nonzero, zero = {"step": 0}, {"step": 1}

    def verdict(op, code):
        out = {"exit": code, "stderr": ["boom"], "record": {"scl": "1/2"}}
        return run.check_op("paper-cli", op, pin, {"out": out}, "/tmp")[0]

    assert verdict(nonzero, 3) == "ok"
    assert verdict(nonzero, 2) == "wrong"
    assert verdict(nonzero, 0) == "wrong"
    assert verdict(zero, 0) == "ok"
    assert verdict(zero, 5) == "failed"


def test_unattributed_op_time_fails_the_traced_run():
    untraced = {"results": [{"latency_s": 1.0}]}
    spans_ = [["sclenc.solve_chain", 0.0, 0.5, None, 0]]
    traced = {"results": [{"latency_s": 1.0, "out": {}}],
              "trace": [{"spans": spans_, "counters": {}, "errors": {}}]}
    with pytest.raises(run.BenchError):
        run.per_layer("scl-sweep", traced, untraced)
    spans_[0][2] = 0.99
    metrics = run.per_layer("scl-sweep", traced, untraced)
    assert metrics["trace_coverage"][0] == pytest.approx(0.99)
    assert metrics["sclenc.solve_chain.self_s"][0] == pytest.approx(0.99)
