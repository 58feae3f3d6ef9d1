"""Command-line surface for the toolkit.

Every exact value is printed as "p/q" with positive denominator; --json
wraps the same payload in a {"record": ..., "timing": ...} document whose
"record" section is byte-stable across identical invocations.

Exit codes: 0 success, 2 parse or usage error (or a closed stdout), 3
chain not homologically trivial, 4 resource limit, 5 internal invariant
violation.
"""

import argparse
import json
import os
import sys
import time

from . import immersion, rotation, sclenc, surfcert
from .chainexpr import format_chain, format_word, parse_chain, parse_word
from .errors import (InvariantViolationError, NotBoundaryError,
                     ResourceLimitError, SclError)
from .freegroup import prepare
from .rational import fmt, qq

SOFT_BUDGET_SECONDS = 60.0

# exit code of each error a command may raise; any other SclError,
# ValueError or OSError is a parse or usage error, exit 2
_EXIT_CODES = ((NotBoundaryError, 3), (ResourceLimitError, 4),
               (InvariantViolationError, 5))


def _bool(flag):
    return "true" if flag else "false"


def _cap(text):
    """A resource cap: a nonnegative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _limits(args):
    return {"max_letters": args.max_letters, "max_pivots": args.max_pivots}


def _criterion_fields(report):
    return {
        "chain": format_chain(report.chain),
        "scl": fmt(report.scl),
        "rot": fmt(report.rot),
        "rot_half": fmt(qq(report.rot) / 2),
        "bounds_immersed": report.bounds_immersed,
    }


def _criterion_line(report):
    return "scl = %s, rot/2 = %s, bounds_immersed = %s" % (
        fmt(report.scl), fmt(qq(report.rot) / 2), _bool(report.bounds_immersed))


def _parse_n_range(text):
    """Inclusive "a..b" or a single integer."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError("bad n range %r (use N or LO..HI)" % text) from None
    if hi < lo:
        raise ValueError("empty n range %r" % text)
    return range(lo, hi + 1)


def _table(key, entries):
    """Record rows and text lines of a criterion table over (key, report)
    pairs."""
    rows, lines = [], []
    for x, report in entries:
        rows.append({key: x, **_criterion_fields(report)})
        lines.append("%s = %d: %s" % (key, x, _criterion_line(report)))
    return rows, lines


def _cmd_scl(args):
    ce = parse_chain(args.chain)
    value = sclenc.scl(ce.chain, **_limits(args))
    record = {"input": args.chain, "chain": format_chain(ce.chain),
              "scl": fmt(value)}
    return record, ["scl = %s" % fmt(value)]


def _cmd_rot(args):
    ce = parse_chain(args.chain, min_rank=2)
    record = {"input": args.chain, "chain": format_chain(ce.chain),
              "method": args.method}
    lines = []
    if args.method in ("dynamical", "both"):
        dyn = qq(rotation.rot(ce.chain))
        record["dynamical"] = fmt(dyn)
    if args.method in ("turning", "both"):
        turn = qq(rotation.turning_number_chain(ce.chain))
        record["turning"] = fmt(turn)
    if args.method == "both":
        if dyn != turn:
            raise InvariantViolationError(
                "dynamical rot %s disagrees with turning number %s"
                % (fmt(dyn), fmt(turn)))
        record["rot"] = fmt(dyn)
        lines.append("rot = %s (dynamical = turning)" % fmt(dyn))
    else:
        value = dyn if args.method == "dynamical" else turn
        record["rot"] = fmt(value)
        lines.append("rot = %s" % fmt(value))
    return record, lines


def _cmd_immersed(args):
    ce = parse_chain(args.chain, min_rank=2)
    report = immersion.bounds_immersed(ce.chain, **_limits(args))
    record = {"input": args.chain, "on_face": report.bounds_immersed,
              **_criterion_fields(report)}
    return record, [_criterion_line(report)]


def _cmd_stabilize(args):
    ce = parse_chain(args.chain, min_rank=2)
    st = immersion.minimal_stabilization(ce.chain, args.max_R,
                                         **_limits(args))
    rows, lines = _table("R", enumerate(st.table))
    if st.minimal_r is None:
        lines.append("minimal R = none (searched 0..%d)" % args.max_R)
    else:
        lines.append("minimal R = %d" % st.minimal_r)
    record = {"input": args.chain, "base": format_chain(st.base),
              "boundary": format_chain(st.boundary),
              "max_R": args.max_R, "minimal_R": st.minimal_r,
              "table": rows}
    return record, lines


def _cmd_scan(args):
    w = parse_word(args.w, min_rank=2)
    ns = _parse_n_range(args.n_range)
    sc = immersion.scan_conjecture(w, ns, **_limits(args))
    rows, lines = _table("n", sc.entries)
    if sc.first_equality is None:
        lines.append("no equality in range")
    elif sc.persistent:
        lines.append("first equality at n = %d, persists through the range"
                     % sc.first_equality)
    else:
        lines.append("first equality at n = %d, does not persist"
                     % sc.first_equality)
    record = {"w": format_word(sc.w), "n_range": [ns.start, ns.stop - 1],
              "first_equality": sc.first_equality,
              "persistent": sc.persistent, "table": rows}
    return record, lines


def _cmd_corollary(args):
    w = parse_word(args.w, min_rank=2)
    lhs, rhs, equal = immersion.corollary_check(w, args.n, **_limits(args))
    record = {"w": format_word(w), "n": args.n, "lhs": fmt(lhs),
              "rhs": fmt(rhs), "equal": equal}
    line = "lhs = %s, rhs = %s, equal = %s" % (fmt(lhs), fmt(rhs), _bool(equal))
    return record, [line]


def _cmd_certify(args):
    with open(args.file, "r", encoding="ascii") as handle:
        text = handle.read()
    m, file_chain, degree = surfcert.read_certificate(text)
    cert = surfcert.certificate_from_matching(m)
    record = {"file": args.file, "chi": cert.chi,
              "boundary": format_chain(cert.boundary)}
    lines = ["chi = %d, boundary = %s" % (cert.chi,
                                          format_chain(cert.boundary))]
    target = None
    if args.chain is not None:
        target = parse_chain(args.chain).chain
    elif file_chain is not None:
        target = file_chain
    if target is not None:
        ratio = surfcert.extremality_ratio(cert, target)
        value = sclenc.scl(target, **_limits(args))
        extremal = ratio == value
        record.update(chain=format_chain(target), ratio=fmt(ratio),
                      scl=fmt(value), extremal=extremal)
        if degree is not None:
            record["degree"] = degree
        lines.append("ratio = %s, scl = %s, extremal = %s"
                     % (fmt(ratio), fmt(value), _bool(extremal)))
    return record, lines


def _cmd_matchbound(args):
    ce = parse_chain(args.chain)
    prepared, scale = prepare(ce.chain)
    # the search pairs degree copies of every letter of the prepared chain
    arcs = args.degree * sum(int(t.coefficient) * len(t.word)
                             for t in prepared.terms)
    if arcs > args.max_letters:
        raise ResourceLimitError(
            "matching search has %d arcs, cap is %d" % (arcs, args.max_letters))
    cert, m = surfcert.search_matching(ce.chain, n=args.degree)
    bound = qq(-cert.chi, 2 * args.degree * scale)
    record = {"input": args.chain, "chain": format_chain(ce.chain),
              "degree": args.degree, "chi": cert.chi, "bound": fmt(bound)}
    lines = ["bound = %s (chi = %d, degree = %d)" % (fmt(bound), cert.chi,
                                                     args.degree)]
    if args.emit is not None:
        with open(args.emit, "w", encoding="ascii") as handle:
            handle.write(surfcert.write_certificate(m, ce.chain, args.degree))
        record["emitted"] = args.emit
        lines.append("certificate written to %s" % args.emit)
    return record, lines


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a structured JSON document")
    common.add_argument("--max-letters", type=_cap, default=sclenc.MAX_LETTERS,
                        help="cap on letters in the prepared chain")
    common.add_argument("--max-pivots", type=_cap, default=sclenc.MAX_PIVOTS,
                        help="cap on exact simplex pivots")
    top = argparse.ArgumentParser(
        prog="sclkit",
        description="exact stable commutator length and rotation numbers "
                    "in free groups")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("scl", parents=[common],
                       help="exact scl of a rational chain")
    p.add_argument("chain")
    p.set_defaults(handler=_cmd_scl)

    p = sub.add_parser("rot", parents=[common],
                       help="rotation number of a rank-2 boundary chain")
    p.add_argument("chain")
    p.add_argument("--method", choices=("turning", "dynamical", "both"),
                   default="dynamical")
    p.set_defaults(handler=_cmd_rot)

    p = sub.add_parser("immersed", parents=[common],
                       help="test the equality scl = rot/2")
    p.add_argument("chain")
    p.set_defaults(handler=_cmd_immersed)

    p = sub.add_parser("stabilize", parents=[common],
                       help="criterion table for C + R*abAB, R = 0..max")
    p.add_argument("chain")
    p.add_argument("--max-R", type=int, required=True, dest="max_R")
    p.set_defaults(handler=_cmd_stabilize)

    p = sub.add_parser("scan", parents=[common],
                       help="criterion table for the family w*(abAB)^n")
    p.add_argument("--w", required=True)
    p.add_argument("--n-range", required=True, dest="n_range",
                   help="N or LO..HI (inclusive)")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("corollary", parents=[common],
                       help="compare scl((abAB)^n c w C) with "
                            "(|n + rot(w)| + 1)/2")
    p.add_argument("--w", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_corollary)

    p = sub.add_parser("certify", parents=[common],
                       help="check a band-surface certificate file")
    p.add_argument("--file", required=True)
    p.add_argument("--chain", default=None,
                   help="base chain to test extremality against "
                        "(overrides the file's chain line)")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("matchbound", parents=[common],
                       help="scl upper bound from a searched arc matching")
    p.add_argument("chain")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--emit", default=None,
                   help="write the best matching as a certificate file")
    p.set_defaults(handler=_cmd_matchbound)
    return top


def main(argv=None):
    """Run one subcommand and return its exit code.  The handlers return
    (record, lines); the command name and caps are added to every record
    here."""
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        record, lines = args.handler(args)
    except (SclError, ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES
                     if isinstance(err, kind)), 2)
    record.update(command=args.subcommand, limits=_limits(args))
    elapsed = time.perf_counter() - start
    if args.json:
        lines = [json.dumps(
            {"record": record,
             "timing": {"seconds": round(elapsed, 6),
                        "soft_budget_exceeded": elapsed > SOFT_BUDGET_SECONDS}},
            sort_keys=True, indent=2)]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except OSError as err:
        # stdout is closed or full.  Its buffer keeps the unwritten bytes,
        # so the flush at interpreter exit would fail again; send them to
        # the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: %s" % err, file=sys.stderr)
        return 2
    if elapsed > SOFT_BUDGET_SECONDS and not args.json:
        print("note: command exceeded the %ds soft budget"
              % int(SOFT_BUDGET_SECONDS), file=sys.stderr)
    return 0
