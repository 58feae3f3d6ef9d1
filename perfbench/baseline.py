"""Re-measure the ROADMAP's baseline table.

    python3 perfbench/baseline.py [--out perfbench/results/FILE.json]

Three rows, each timed in this process with perf_counter, best of
REPEAT runs per input:

* the exact solve of single rank-2 words of 6, 8 and 10 letters
  (``build_lp`` and ``solve_min`` timed apart, with LP size and pivots);
* ``build_lp`` on chains of 24 prepared letters;
* ``parse_chain`` against ``rot`` on words of about 958 letters
  (commutators from the rot-long pool).

Inputs come from pins.json, so the numbers are for the same chains the
workloads use.  Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
from worker import chain_of_terms  # noqa: E402

from sclkit import rotation, sclenc  # noqa: E402
from sclkit.chainexpr import parse_chain  # noqa: E402
from sclkit.ratlp import solve_min  # noqa: E402
from sclkit.rational import QQ  # noqa: E402

REPEAT = 3


def best(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return min(times), out


def solve_rows(pins, repeat, per_size):
    rows = []
    for letters in (6, 8, 10):
        words = [it for it in pins["scl"] if it["rank"] == 2 and len(it["terms"]) == 1
                 and it["letters"] == letters][:per_size]
        for it in words:
            chain = chain_of_terms(it["terms"], 2, canonical=True)
            build_s, enc = best(lambda: sclenc.build_lp(chain), repeat)
            solve_s, result = best(lambda: solve_min(enc.lp), repeat)
            rows.append({"chain": it["terms"][0][1], "letters": letters,
                         "cols": enc.lp.num_vars, "rows": enc.lp.num_rows,
                         "pivots": result.pivots, "build_lp_s": build_s,
                         "solve_s": solve_s})
    return rows


def encode_rows(pins, repeat, count):
    rows = []
    for it in [it for it in pins["encode"] if it["letters"] == 24][:count]:
        chain = chain_of_terms(it["terms"], 2, canonical=True)
        seconds, enc = best(lambda: sclenc.build_lp(chain), repeat)
        rows.append({"letters": 24, "cols": enc.lp.num_vars, "rows": enc.lp.num_rows,
                     "build_lp_s": seconds})
    return rows


def rot_rows(pins, repeat, count):
    rows = []
    near = sorted(pins["rot"], key=lambda it: abs(it["letters"] - 958))[:count]
    for it in near:
        text, _ = corpus.rot_candidate(it["id"])
        parse_s, ce = best(lambda: parse_chain(text, min_rank=2), repeat)

        def rot():
            try:
                return "%s" % QQ(rotation.rot(ce.chain))
            except ValueError as err:  # the float holonomy overflowed
                return "error: %s" % err
        rot_s, outcome = best(rot, repeat)
        rows.append({"letters": it["letters"], "terms": len(ce.chain.terms),
                     "parse_s": parse_s, "rot_s": rot_s, "rot": outcome})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    rotation.punctured_torus_rep()
    doc = {"python": platform.python_version(),
           "rational": "%s.%s" % (QQ.__module__, QQ.__name__),
           "solve": solve_rows(pins, REPEAT, 3),
           "build_lp_24": encode_rows(pins, REPEAT, 3),
           "parse_vs_rot": rot_rows(pins, REPEAT, 3)}
    for letters in (6, 8, 10):
        rows = [r for r in doc["solve"] if r["letters"] == letters]
        print("%2d letters: %s cols x %s rows, pivots %s, solve %s s, build_lp %s s" % (
            letters, "/".join(str(r["cols"]) for r in rows),
            "/".join(str(r["rows"]) for r in rows), "/".join(str(r["pivots"]) for r in rows),
            "/".join("%.2f" % r["solve_s"] for r in rows),
            "/".join("%.3f" % r["build_lp_s"] for r in rows)))
    print("24 letters: build_lp %s s (median %.2f)" % (
        "/".join("%.2f" % r["build_lp_s"] for r in doc["build_lp_24"]),
        statistics.median(r["build_lp_s"] for r in doc["build_lp_24"])))
    for r in doc["parse_vs_rot"]:
        print("%d letters, %d term(s): parse %.3f s, rot %s (%s)" % (
            r["letters"], r["terms"], r["parse_s"],
            "%.4f s" % r["rot_s"], r["rot"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
