"""The process that runs the program for one benchmark run.

    python perfbench/worker.py ready
        Import sclkit, build the punctured-torus representation, print
        "ready" and exit (a set-up probe).
    python perfbench/worker.py run INPUT OUTPUT
        Print "ready" once the program is loaded, then run the ops of
        INPUT (JSON from run.py) one by one: read "go" from standard
        input, run the next op, print "done".  At end of input, write
        per-op latencies, outputs and, when traced, spans to OUTPUT.

sclkit comes from PYTHONPATH, which run.py points at the checkout's
``src``.  run.py is the one client: it sends the next op as soon as the
last is done, or alternates two workers op by op.  Each op is timed
alone; turning the program's answer into plain data for the correctness
gate happens after the clock stops.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def frac(value):
    return "%d/%d" % (int(value.numerator), int(value.denominator))


def lp_counts(lp):
    return {"rows": lp.num_rows, "cols": lp.num_vars,
            "nnz": sum(len(row) for row in lp.rows)}


def lp_digest(lp):
    """sha256 of the LP's exact text: sizes, sparse rows, rhs, objective."""
    h = hashlib.sha256()
    h.update(b"%d %d\n" % (lp.num_vars, lp.num_rows))
    for row in lp.rows:
        h.update(" ".join("%d:%s" % (c, frac(v)) for c, v in row).encode())
        h.update(b"\n")
    h.update(" ".join(frac(v) for v in lp.rhs).encode() + b"\n")
    h.update(" ".join(frac(v) for v in lp.objective).encode() + b"\n")
    return h.hexdigest()[:16]


def chain_of_terms(terms, rank, canonical=False):
    """A sclkit Chain exactly as spelled, without canonicalizing."""
    from sclkit.freegroup import Chain, ChainTerm, Word, make_word
    from sclkit.rational import QQ
    out = []
    for c, w in terms:
        letters = tuple(ord(ch) - 96 if ch.islower() else -(ord(ch) - 64) for ch in w)
        f = Fraction(c)
        word = Word(letters, rank) if canonical else make_word(letters, rank)
        out.append(ChainTerm(QQ(f.numerator, f.denominator), word))
    return Chain(tuple(out), rank)


def projective_key(chain):
    """A prepared chain up to positive scaling (what a result cache keys on)."""
    from math import gcd
    g = 0
    for t in chain.terms:
        g = gcd(g, int(t.coefficient))
    return tuple((int(t.coefficient) // g, t.word.letters) for t in chain.terms)


# ---------------------------------------------------------------------------
# one op per workload: prepare (untimed), run (timed), summarise (untimed)

class SclSweep:
    def __init__(self):
        from sclkit import sclenc
        self.sclenc = sclenc
        self.seen = set()

    def prepare(self, op):
        return chain_of_terms(op["terms"], op["rank"])

    def run(self, chain):
        enc, result = self.sclenc.solve_chain(chain)
        return enc, result, self.sclenc.decode_certificate(enc, result)

    def summarise(self, out):
        enc, result, cert = out
        key = projective_key(enc.chain)
        repeat = key in self.seen
        self.seen.add(key)
        summary = {"scl": frac(result.value / (2 * enc.scale)),
                   "chi": cert.chi, "degree": cert.degree,
                   "scale": frac(enc.scale), "pivots": result.pivots,
                   "repeat": repeat}
        summary.update(lp_counts(enc.lp))
        return summary


class EncodeLarge:
    def __init__(self):
        from sclkit import sclenc
        self.sclenc = sclenc

    def prepare(self, op):
        return chain_of_terms(op["terms"], op["rank"], canonical=True)

    def run(self, chain):
        return self.sclenc.build_lp(chain)

    def summarise(self, enc):
        summary = lp_counts(enc.lp)
        summary["digest"] = lp_digest(enc.lp)
        return summary


class RotLong:
    def __init__(self):
        from sclkit import chainexpr, rotation
        self.parse_chain = chainexpr.parse_chain
        self.rotation = rotation

    def prepare(self, op):
        return op["text"]

    def run(self, text):
        chain = self.parse_chain(text, min_rank=2).chain
        dynamical = self.rotation.rot(chain)
        turning = self.rotation.turning_number_chain(chain)
        return chain, dynamical, turning

    def summarise(self, out):
        chain, dynamical, turning = out
        return {"dynamical": frac(Fraction(dynamical)),
                "turning": frac(Fraction(turning)),
                "letters": sum(len(t.word) for t in chain.terms)}


class PaperCli:
    """Each op is one ``python -m sclkit ... --json`` process; traced ops
    start perfbench/traced_cli.py instead, which wraps sclkit first."""

    def __init__(self, tmp, traced):
        self.tmp = tmp
        self.traced = traced
        self.span_files = []

    def prepare(self, op):
        argv = [a.replace("{tmp}", self.tmp) for a in op["argv"]] + ["--json"]
        if not self.traced:
            return [sys.executable, "-m", "sclkit"] + argv
        spans = os.path.join(self.tmp, "spans-%d.json" % len(self.span_files))
        self.span_files.append(spans)
        return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans] + argv

    def run(self, cmd):
        return subprocess.run(cmd, capture_output=True, text=True, check=False)

    def summarise(self, proc):
        summary = {"exit": proc.returncode,
                   "stderr": proc.stderr.strip().splitlines()[-1:]}
        if proc.returncode == 0:
            summary["record"] = json.loads(proc.stdout)["record"]
        return summary


LIBRARY_WORKLOADS = {"scl-sweep": SclSweep, "encode-large": EncodeLarge,
                     "rot-long": RotLong}


def load_program():
    import sclkit
    from sclkit.rotation import punctured_torus_rep
    punctured_torus_rep()
    return sclkit


def run(spec, out_path):
    name = spec["workload"]
    traced = spec["trace"]
    tracer = None
    if name == "paper-cli":
        runner = PaperCli(spec["tmp"], traced)
    else:
        sclkit = load_program()
        expected = os.path.join(spec["root"], "src", "sclkit")
        if os.path.dirname(os.path.abspath(sclkit.__file__)) != expected:
            raise SystemExit("worker: sclkit was not loaded from %s" % expected)
        if traced:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        runner = LIBRARY_WORKLOADS[name]()
    print("ready", flush=True)

    results = []
    clock = time.perf_counter
    ops = [(rnd, op) for rnd, ops_ in enumerate(spec["rounds"]) for op in ops_]
    for rnd, op in ops:
        if sys.stdin.readline().strip() != "go":
            break
        item = runner.prepare(op)
        if tracer is not None:
            tracer.op = len(results)
        error = None
        start = clock()
        try:
            out = runner.run(item)
        except Exception as err:  # an op that fails is counted, not fatal
            out = None
            error = "%s: %s" % (type(err).__name__, err)
        latency = clock() - start
        if tracer is not None:
            tracer.op = None
        entry = {"op": op["op"], "round": rnd, "latency_s": latency}
        if error is None:
            entry["out"] = runner.summarise(out)
        else:
            entry["error"] = error
        out = item = None
        results.append(entry)
        print("done", flush=True)

    usage = resource.RUSAGE_CHILDREN if name == "paper-cli" else resource.RUSAGE_SELF
    doc = {"results": results,
           "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0}
    if tracer is not None:
        doc["trace"] = [tracer.dump()]
    if name == "paper-cli" and traced:
        doc["trace"] = []
        for op_index, path in enumerate(runner.span_files):
            with open(path, encoding="utf-8") as handle:
                dump = json.load(handle)
            for span in dump["spans"]:
                span[4] = op_index
            doc["trace"].append(dump)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def main(argv):
    if argv[:1] == ["ready"]:
        load_program()
        print("ready", flush=True)
        return 0
    if len(argv) == 3 and argv[0] == "run":
        with open(argv[1], encoding="utf-8") as handle:
            spec = json.load(handle)
        run(spec, argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
