"""Run one sclkit command with timing spans installed.

    python perfbench/traced_cli.py SPANS_JSON ARG...

Installs the wrappers of spans.py in this process (importing sclkit, as
the span ``sclkit.import``), calls ``sclkit.cli.main(ARG...)`` and writes
the spans, the counters and ``inner_s``, the seconds from this script's
first statement until the command returned, to SPANS_JSON before exiting
with the command's exit code.
"""

import time

BEGAN = time.perf_counter()

import sys  # noqa: E402

import spans  # noqa: E402


def main(argv):
    out_path, args = argv[0], argv[1:]
    tracer = spans.Tracer()
    start = time.perf_counter()
    spans.install(tracer)
    tracer.spans.append(["sclkit.import", start, time.perf_counter(), None, None])
    from sclkit import cli
    try:
        code = cli.main(args)
    finally:
        dump = tracer.dump()
        dump["inner_s"] = time.perf_counter() - BEGAN
        import json
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
