"""The sclkit benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --out FILE
    python3 perfbench/run.py --workload NAME --smoke

Run it from the root of a checkout; it runs the program from ``src/`` and
builds nothing.  Each workload runs in a fresh worker process (module
caches start cold) driven by one client in a closed loop, for the
workload's fixed number of rounds; --seconds is the time the rounds are
sized for, and a run whose ops take over CAP_FACTOR times that stops
early and says so.  Every output is checked against
pins.json and against independent relations; a wrong answer fails the
run, an op that raises counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1).  The full result, with environment and input properties,
goes to --out (default perfbench/out/).  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from fractions import Fraction
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("scl-sweep", "rot-long", "paper-cli", "encode-large")
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170
CAP_FACTOR = 4  # ops stop being sent after CAP_FACTOR * --seconds
# the reported self times must add up to at least this share of the
# traced op time (they cannot exceed it: spans lie inside the op)
TRACE_COVERAGE_MIN = 0.95
LONG_WORD = 520  # rot-long words past this length overflow the float holonomy

END_TO_END = (("throughput_ops_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("success_rate", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics: self time for every span name in spans.NAMES, and
# calls for these
CALL_COUNTS = ("ratlp.solve_min", "sclenc.solve_chain", "freegroup.canonicalize")
LAYER_COUNTERS = (("ratlp.pivots", "pivots/op"), ("ratlp.value_bits", "bits"),
                  ("ratlp.verify.rejects", "rejects/op"), ("sclenc.lp_rows", "rows/op"),
                  ("sclenc.lp_cols", "cols/op"), ("sclenc.lp_nnz", "nnz/op"),
                  ("freegroup.canonicalize.letters", "letters/op"))
MODULES = ("cli", "chainexpr", "freegroup", "sclenc", "ratlp", "rotation",
           "surfcert", "immersion")


class BenchError(Exception):
    """The benchmark could not run (not a fault of the program's answers)."""


# ---------------------------------------------------------------------------
# processes

def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait(proc, deadline, what):
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("%s did not finish in time" % what) from None


def setup_probe(workload, deadline):
    """Seconds from spawn until the program is ready for its first op."""
    if workload == "paper-cli":
        cmd = [sys.executable, "-m", "sclkit", "--help"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "ready"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if workload == "paper-cli":
        out, err = proc.communicate()
        ready = time.perf_counter()
    else:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        out, err = proc.communicate()
        out = line + out
    wait(proc, deadline, "set-up probe")
    if proc.returncode != 0 or (workload != "paper-cli" and not out.startswith("ready")):
        raise BenchError("set-up probe failed: %s" % err.strip()[-500:])
    return ready - start


def expect(proc, word, deadline, what):
    """Read the next protocol line of a worker; it must be `word`."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline().decode().strip() if ready else None
    if line != word:
        raise BenchError("%s: %s" % (what, "timed out" if line is None else
                                     "worker said %r, expected %r" % (line, word)))


def run_workers(specs, tmp, deadline, cap_s, probe, probes):
    """Run one worker per spec and send them the same ops in lockstep.

    The client sends op i to each worker in turn (the first worker goes
    first on even ops, last on odd ones) and the next op as soon as the
    last is done.  With two workers, untraced and traced, drift of the
    machine's speed hits both alike.  Stops sending once cap_s have
    passed.  Calls probe() `probes` times, spread over the run, while
    the workers wait between ops.  Returns each worker's output
    document, whether the ops were cut short, and the probe results.
    """
    procs = []
    try:
        for spec in specs:
            in_path = os.path.join(tmp, "input-%s.json" % spec["pass"])
            with open(in_path, "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            err_path = os.path.join(tmp, "stderr-%s.txt" % spec["pass"])
            with open(err_path, "w", encoding="utf-8") as err:
                procs.append(subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "worker.py"), "run", in_path,
                     os.path.join(tmp, "output-%s.json" % spec["pass"])],
                    env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=err, bufsize=0))
        try:
            for proc in procs:
                expect(proc, "ready", deadline, "worker start")
            total = sum(len(ops) for ops in specs[0]["rounds"])
            probe_at = [k * total // probes for k in range(probes)]
            began, sent, probed = time.monotonic(), 0, []
            while sent < total and time.monotonic() - began < cap_s:
                while len(probed) < probes and probe_at[len(probed)] <= sent:
                    probed.append(probe())
                for proc in procs if sent % 2 == 0 else procs[::-1]:
                    proc.stdin.write(b"go\n")
                    expect(proc, "done", deadline, "op %d" % sent)
                sent += 1
            while len(probed) < probes:
                probed.append(probe())
            for proc in procs:
                proc.stdin.close()
                wait(proc, deadline, "worker")
        except (BenchError, BrokenPipeError) as err:
            stderr = ""
            for spec in specs:
                with open(os.path.join(tmp, "stderr-%s.txt" % spec["pass"]),
                          encoding="utf-8") as handle:
                    stderr += handle.read().strip()[-2000:]
            raise BenchError("%s %s" % (err, stderr)) from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for proc in procs:
        if proc.returncode != 0:
            raise BenchError("worker failed (exit %d)" % proc.returncode)
    docs = []
    for spec in specs:
        with open(os.path.join(tmp, "output-%s.json" % spec["pass"]), encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs, sent < total, probed


# ---------------------------------------------------------------------------
# inputs and the correctness gate

def make_rounds(pins, workload, seed, smoke):
    plan = (corpus.SMOKE_PLANS if smoke else corpus.PLANS)[workload]
    rounds = corpus.ROUNDS[workload](pins, seed, plan)
    texts = {}
    if workload == "rot-long":
        by_id = {item["id"]: item for item in pins["rot"]}
        for op in (op for ops in rounds for op in ops):
            if op["id"] not in texts:
                text, _ = corpus.rot_candidate(op["id"])
                if zlib.crc32(text.encode()) != by_id[op["id"]]["crc"]:
                    raise BenchError("rot-long generator no longer matches pins.json")
                texts[op["id"]] = text
    return rounds, texts


def program_input(workload, op, index, texts):
    """What the worker gets for one op: the generated input only."""
    if workload == "rot-long":
        return {"op": index, "text": texts[op["id"]]}
    if workload == "paper-cli":
        return {"op": index, "argv": op["argv"]}
    return {"op": index, "terms": op["terms"], "rank": op["rank"]}


def check_op(workload, op, pin, entry, tmp):
    """'ok', 'failed' (the op raised or exited unexpectedly) or 'wrong'."""
    if workload == "paper-cli":
        # the exit code is the answer of the commands pinned to exit 2, 3
        # or 4; a command pinned to exit 0 that exits otherwise has failed
        want = pin["commands"][op["step"]]
        got = entry["out"]
        if want["exit"] != 0:
            if got["exit"] == want["exit"]:
                return "ok", None
            return "wrong", "exit %d where the pin has exit %d" % (got["exit"], want["exit"])
        if got["exit"] != 0:
            return "failed", "exit %d (%s)" % (got["exit"], " ".join(got["stderr"]))
        record = json.loads(json.dumps(got["record"]).replace(tmp, "{tmp}"))
        if record == want["record"]:
            return "ok", None
        return "wrong", "record differs from the pin"
    if "error" in entry:
        return "failed", entry["error"]
    got = entry["out"]
    if workload == "scl-sweep":
        value = Fraction(pin["scl"]) * Fraction(op["factor"])
        if Fraction(got["scl"]) != value:
            return "wrong", "scl %s, pinned %s" % (got["scl"], value)
        if Fraction(-got["chi"], 2 * got["degree"]) / Fraction(got["scale"]) != value:
            return "wrong", "certificate -chi/(2*degree*scale) differs from scl"
        keys = ("rows", "cols", "nnz")
    elif workload == "encode-large":
        keys = ("rows", "cols", "nnz", "digest")
    else:
        if got["turning"] != pin["rot"] or got["dynamical"] != pin["rot"]:
            return "wrong", "rot %s / turning %s, pinned %s" % (
                got["dynamical"], got["turning"], pin["rot"])
        keys = ("letters",)
    for key in keys:
        if got[key] != pin[key]:
            return "wrong", "%s %s, pinned %s" % (key, got[key], pin[key])
    return "ok", None


def gate(workload, pins, ops, doc, tmp):
    pool = {item["id"]: item for item in pins[corpus.POOL[workload]]}
    verdicts = []
    for entry in doc["results"]:
        op = ops[entry["op"]]
        verdicts.append(check_op(workload, op, pool[op["id"]], entry, tmp))
    return verdicts


# ---------------------------------------------------------------------------
# metrics

def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, n, 10


def end_to_end(doc, verdicts, setup):
    latencies = [r["latency_s"] for r in doc["results"]]
    failed = sum(1 for v, _ in verdicts if v == "failed")
    value, pct, n, beyond = tail(latencies)
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "success_rate": 1.0 - failed / len(latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": doc["peak_rss_mb"],
    }, {"error_rate": failed / len(latencies), "failed": failed, "tail_percentile": pct,
        "samples": n, "beyond_tail": beyond}


def per_layer(workload, traced, untraced):
    """Self time and counts per op from the traced pass; the overhead from
    the untraced pass, which ran the same ops interleaved with it."""
    nops = len(traced["results"])
    counters, errors = dict.fromkeys(spans.COUNTER_NAMES, 0), {}
    for dump in traced["trace"]:
        for key, value in dump["counters"].items():
            if key == "ratlp.value_bits":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for key, value in dump["errors"].items():
            errors[key] = errors.get(key, 0) + value
    table = {}
    for dump in traced["trace"]:
        for name, row in spans.self_times(dump["spans"]).items():
            acc = table.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
    metrics = {}
    for name in spans.NAMES:
        metrics[name + ".self_s"] = (table.get(name, (0, 0.0, 0.0))[2] / nops, "s/op")
    for name in CALL_COUNTS:
        metrics[name + ".calls"] = (table.get(name, (0, 0.0, 0.0))[0] / nops, "calls/op")
    for name, unit in LAYER_COUNTERS:
        value = counters[name]
        metrics[name] = (value if unit == "bits" else value / nops, unit)
    metrics["rotation.rot_element.errors"] = (
        errors.get("rotation.rot_element", 0) / nops, "errors/op")
    repeats = sum(1 for r in traced["results"] if r.get("out", {}).get("repeat"))
    metrics["sclenc.repeat_share"] = (repeats / nops, "ratio")
    for module in MODULES:
        metrics[module + ".self_s"] = (sum(row[2] for name, row in table.items()
                                           if name.split(".")[0] == module) / nops, "s/op")
    traced_s = sum(r["latency_s"] for r in traced["results"])
    untraced_s = sum(r["latency_s"] for r in untraced["results"])
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    # The self times of the blocking path must add up to the traced op
    # time, so that no time goes unattributed.  A paper-cli op is a whole
    # process; its spans can cover only the time after the interpreter
    # started, which traced_cli.py reports as inner_s.
    if workload == "paper-cli":
        op_s = sum(dump["inner_s"] for dump in traced["trace"])
    else:
        op_s = traced_s
    attributed = sum(row[2] for row in table.values())
    coverage = attributed / op_s
    if not TRACE_COVERAGE_MIN <= coverage <= 1.0 + 1e-6:
        raise BenchError("the per-layer self times add up to %.3f of the traced op time"
                         % coverage)
    metrics["trace_coverage"] = (coverage, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# one workload

def environment(backend):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"commit": commit, "python": platform.python_version(),
            "rational": backend, "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def input_properties(workload, pins, ops):
    pool = {item["id"]: item for item in pins[corpus.POOL[workload]]}
    hist = {}
    for op in ops:
        hist[op["band"]] = hist.get(op["band"], 0) + 1
    props = {"ops": len(ops), "bands": dict(sorted(hist.items()))}
    if workload == "scl-sweep":
        props["repeat_share"] = sum(op["repeat"] for op in ops) / len(ops)
        props["multi_term_share"] = sum(len(pool[op["id"]]["terms"]) > 1 for op in ops) / len(ops)
        props["rank3_share"] = sum(op["rank"] == 3 for op in ops) / len(ops)
    elif workload == "rot-long":
        lengths = [pool[op["id"]]["letters"] for op in ops]
        props["letters_min_max"] = [min(lengths), max(lengths)]
        props["long_share"] = sum(n > LONG_WORD for n in lengths) / len(lengths)
    elif workload == "encode-large":
        for key in ("rows", "cols", "nnz"):
            props["lp_" + key] = sum(pool[op["id"]][key] for op in ops)
    else:
        exits = {}
        for op in ops:
            code = str(pool[op["id"]]["commands"][op["step"]]["exit"])
            exits[code] = exits.get(code, 0) + 1
        props["exits"] = exits
    return props


def run_workload(workload, args, pins, deadline):
    rounds, texts = make_rounds(pins, workload, args.seed, args.smoke)
    ops = [op for ops_ in rounds for op in ops_]
    program_rounds, index = [], 0
    for ops_ in rounds:
        program_rounds.append([program_input(workload, op, index + k, texts)
                               for k, op in enumerate(ops_)])
        index += len(ops_)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        spec = {"workload": workload, "root": ROOT, "tmp": tmp, "rounds": program_rounds,
                "trace": False, "pass": "untraced"}
        specs = [spec, dict(spec, trace=True, **{"pass": "traced"})] if args.trace else [spec]
        docs, truncated, setup = run_workers(
            specs, tmp, deadline, CAP_FACTOR * args.seconds,
            lambda: setup_probe(workload, deadline), 2 if args.smoke else SETUP_PROBES)
        untraced = docs[0]
        verdicts = [v for doc in docs for v in gate(workload, pins, ops, doc, tmp)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics, extra = end_to_end(untraced, verdicts[:len(untraced["results"])], setup)
    done = [ops[r["op"]] for r in untraced["results"]]
    result = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "rounds": len(rounds), "truncated": truncated,
        "inputs": input_properties(workload, pins, done),
        "end_to_end": metrics, "detail": extra, "setup_samples": setup,
        "attempted": len(verdicts), "failed": sum(v == "failed" for v, _ in verdicts),
        "wrong": [{"op": i, "why": why} for i, (v, why) in enumerate(verdicts) if v == "wrong"],
        "failures": sorted({why for v, why in verdicts if v == "failed"}),
        "ops": [[ops[r["op"]]["band"], ops[r["op"]]["id"], r["latency_s"], v]
                for r, (v, _) in zip(untraced["results"], verdicts)],
    }
    if args.trace:
        result["per_layer"] = per_layer(workload, docs[1], untraced)
    return result


# ---------------------------------------------------------------------------
# reporting

def print_workload(res):
    w = res["workload"]
    m, d = res["end_to_end"], res["detail"]
    print("%s: %d ops in %d rounds%s, %d failed, %d wrong%s" % (
        w, d["samples"], res["rounds"],
        " (CUT SHORT at %g s)" % (CAP_FACTOR * res["seconds"]) if res["truncated"] else "",
        d["failed"], len(res["wrong"]),
        " (of %d ops in both passes)" % res["attempted"] if "per_layer" in res else ""))
    print("  throughput_ops_s = %.6g 1/s" % m["throughput_ops_s"])
    print("  latency_p50_s = %.6g s" % m["latency_p50_s"])
    print("  latency_tail_s = %.6g s (p%.1f, n=%d, %d beyond)" % (
        m["latency_tail_s"], d["tail_percentile"], d["samples"], d["beyond_tail"]))
    print("  error_rate = %.6g (%d of %d)" % (d["error_rate"], d["failed"], d["samples"]))
    print("  setup_s = %.6g s (median of %d)" % (m["setup_s"], len(res["setup_samples"])))
    print("  peak_rss_mb = %.6g MB" % m["peak_rss_mb"])
    print("  inputs: %s" % json.dumps(res["inputs"], sort_keys=True))
    for why in res["failures"][:5]:
        print("  failure: %s" % why[:200])
    for wrong in res["wrong"][:5]:
        print("  WRONG op %d: %s" % (wrong["op"], wrong["why"]))
    for name, (value, unit) in sorted(res.get("per_layer", {}).items()):
        print("  %s = %.6g %s" % (name, value, unit))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="the time the rounds are sized for; ops stop being "
                             "sent after %d times this" % CAP_FACTOR)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    parser.add_argument("--out", default=None, help="result file (JSON)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S * (4 if args.workload == "all" else 1)
    if not os.path.isfile(os.path.join(ROOT, "src", "sclkit", "__init__.py")):
        print("run.py: no program at %s" % os.path.join(ROOT, "src", "sclkit"),
              file=sys.stderr)
        return 2
    with open(args.pins, encoding="utf-8") as handle:
        pins = json.load(handle)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        backend = subprocess.run(
            [sys.executable, "-c", "from sclkit.rational import QQ; "
             "print(QQ.__module__ + '.' + QQ.__name__)"],
            env=child_env(), capture_output=True, text=True, check=True).stdout.strip()
        results = [run_workload(name, args, pins, deadline) for name in names]
    except (BenchError, subprocess.CalledProcessError) as err:
        print("run.py: %s" % err, file=sys.stderr)
        return 1
    doc = {"environment": environment(backend), "pins_environment": pins["environment"],
           "argv": argv, "results": results}
    out = args.out or os.path.join(HERE, "out", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    for res in results:
        print_workload(res)
    print("result file: %s" % out)

    correct = all(not res["wrong"] for res in results)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        if args.trace:
            for name, (value, unit) in res["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": unit}
        else:
            for name, unit in END_TO_END:
                metrics[prefix + name] = {"value": res["end_to_end"][name], "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": sum(res["failed"] for res in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
