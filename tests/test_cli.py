"""Command-line behavior: pinned output, JSON stability, exit codes."""

import json
import os
import subprocess
import sys
from collections import OrderedDict

import pytest

import sclkit.immersion
import sclkit.rotation
import sclkit.sclenc
import sclkit.surfcert
from sclkit.cli import main
from sclkit.rational import qq

from conftest import child_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scl_line(capsys):
    code, out, err = run(capsys, "scl", "2*abAB + ab - a - b")
    assert code == 0
    assert out == "scl = 1/1\n"
    assert err == ""


def test_scl_fraction(capsys):
    code, out, _ = run(capsys, "scl", "[a,b]")
    assert code == 0
    assert out == "scl = 1/2\n"


def test_rot_default_method(capsys):
    code, out, _ = run(capsys, "rot", "abAB")
    assert code == 0
    assert out == "rot = 1/1\n"


def test_rot_both_methods(capsys):
    code, out, _ = run(capsys, "rot", "3*abAB - abABabAB", "--method", "both")
    assert code == 0
    assert out == "rot = 1/1 (dynamical = turning)\n"


def test_rot_turning(capsys):
    code, out, _ = run(capsys, "rot", "abABabAB", "--method", "turning")
    assert code == 0
    assert out == "rot = 2/1\n"


def test_immersed_false_line(capsys):
    code, out, _ = run(capsys, "immersed", "a + b + BA")
    assert code == 0
    assert out == "scl = 1/2, rot/2 = 0/1, bounds_immersed = false\n"


def test_immersed_true_line(capsys):
    code, out, _ = run(capsys, "immersed", "abAB")
    assert code == 0
    assert out == "scl = 1/2, rot/2 = 1/2, bounds_immersed = true\n"


def test_stabilize_table(capsys):
    code, out, _ = run(capsys, "stabilize", "ab - a - b", "--max-R", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "R = 0: scl = 1/2, rot/2 = 0/1, bounds_immersed = false"
    assert lines[1] == "R = 1: scl = 2/3, rot/2 = 1/2, bounds_immersed = false"
    assert lines[2] == "R = 2: scl = 1/1, rot/2 = 1/1, bounds_immersed = true"
    assert lines[-1] == "minimal R = 2"


def test_stabilize_none_found(capsys):
    code, out, _ = run(capsys, "stabilize", "ab - a - b", "--max-R", "1")
    assert code == 0
    assert out.splitlines()[-1] == "minimal R = none (searched 0..1)"


def test_scan_range(capsys):
    code, out, _ = run(capsys, "scan", "--w", "abAB", "--n-range", "1..3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n = 1: scl = 1/1")
    assert lines[-1] == "first equality at n = 1, persists through the range"


def test_scan_single_point(capsys):
    code, out, _ = run(capsys, "scan", "--w", "abABAbaB", "--n-range", "0")
    assert code == 0
    assert out.splitlines()[-1] == "no equality in range"


def test_corollary(capsys):
    code, out, _ = run(capsys, "corollary", "--w", "abAB", "--n", "1")
    assert code == 0
    assert out == "lhs = 3/2, rhs = 3/2, equal = true\n"


def test_matchbound_and_certify_roundtrip(capsys, tmp_path):
    path = tmp_path / "torus.cert"
    code, out, _ = run(capsys, "matchbound", "[a,b]", "--emit", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound = 1/2 (chi = -1, degree = 1)"
    assert lines[1] == "certificate written to %s" % path

    code, out, _ = run(capsys, "certify", "--file", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chi = -1, boundary = abAB"
    assert lines[1] == "ratio = 1/2, scl = 1/2, extremal = true"


def test_certify_explicit_chain(capsys, tmp_path):
    path = tmp_path / "torus.cert"
    run(capsys, "matchbound", "[a,b]", "--emit", str(path))
    code, out, _ = run(capsys, "certify", "--file", str(path),
                       "--chain", "abAB")
    assert code == 0
    assert out.splitlines()[-1] == "ratio = 1/2, scl = 1/2, extremal = true"


def test_certify_rejects_repeated_cycle(capsys, tmp_path):
    # a second "cycle 0:" line would otherwise replace the first and
    # certify a one-cycle surface
    path = tmp_path / "twice.cert"
    run(capsys, "matchbound", "abAB + abAB", "--emit", str(path))
    text = path.read_text()
    assert "cycle 1: a b A B\n" in text
    path.write_text(text.replace("cycle 1:", "cycle 0:"))
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 3: repeated cycle 0\n"
    path.write_text(text + "degree 2\n")
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert code == 2 and out == ""
    assert err.endswith(": repeated degree line\n")


TORUS_CERT = ("rank 2\ncycle 0: a b A B\npair 0.0 0.2\npair 0.1 0.3\n"
              "chain abAB\n")


def test_certify_rejects_contradictory_degree(capsys, tmp_path):
    # the torus bounds abAB once, not seven times
    path = tmp_path / "torus.cert"
    path.write_text(TORUS_CERT + "degree 7\n")
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: boundary is not 7 times the prepared chain\n"
    path.write_text(TORUS_CERT + "degree 0\n")
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 6: degree must be positive, got 0\n"


@pytest.mark.parametrize("extra, message", [
    ((), "has 2400 arcs, cap is 24"),
    # one recursion level per band: 1200 outrun the interpreter's stack
    (("--max-letters", "100000"), "too deep for the stack")])
def test_exit_code_matchbound_too_many_arcs(capsys, extra, message):
    code, out, err = run(capsys, "matchbound", "abAB", "--degree", "600",
                         *extra)
    assert (code, out) == (4, "")
    assert err == "error: matching search %s\n" % message


def test_matchbound_letter_cap_admits_equality(capsys):
    # 6 copies of abAB: 24 arcs, the default cap
    assert run(capsys, "matchbound", "abAB", "--degree", "6")[0] == 0
    code, _, err = run(capsys, "matchbound", "abAB", "--degree", "6",
                       "--max-letters", "23")
    assert code == 4
    assert err == "error: matching search has 24 arcs, cap is 23\n"


@pytest.mark.parametrize("argv", [
    ("scl", "abAB"), ("immersed", "abAB"), ("stabilize", "abAB", "--max-R", "0"),
    ("scan", "--w", "abAB", "--n-range", "0"),
    ("corollary", "--w", "abAB", "--n", "1"),
    ("certify", "--file", "{cert}", "--chain", "abAB"), ("matchbound", "abAB")])
def test_exit_code_max_letters_on_every_capped_command(capsys, monkeypatch,
                                                        tmp_path, argv):
    monkeypatch.setattr(sclkit.sclenc, "_scl_cache", OrderedDict())  # fresh
    path = tmp_path / "torus.cert"
    path.write_text(TORUS_CERT)
    argv = [a.replace("{cert}", str(path)) for a in argv]
    code, out, err = run(capsys, *argv, "--max-letters", "3")
    assert (code, out) == (4, "")
    assert "cap is 3" in err


def test_exit_code_matchbound_chi_disagreement(capsys, monkeypatch):
    # the branch-and-bound chi is checked against the corner-orbit recount
    monkeypatch.setattr(sclkit.surfcert, "euler_characteristic",
                        lambda m: 7)
    code, out, err = run(capsys, "matchbound", "abAB")
    assert (code, out) == (5, "")
    assert err == "error: search chi -1 disagrees with corner-orbit chi 7\n"


def test_matchbound_zero_chain(capsys):
    code, out, _ = run(capsys, "matchbound", "a + A")
    assert code == 0
    assert out == "bound = 0/1 (chi = 0, degree = 1)\n"


def test_json_record_stable(capsys):
    code1, out1, _ = run(capsys, "immersed", "2*abAB + ab - a - b", "--json")
    code2, out2, _ = run(capsys, "immersed", "2*abAB + ab - a - b", "--json")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["record"] == doc2["record"]
    assert json.dumps(doc1["record"], sort_keys=True) \
        == json.dumps(doc2["record"], sort_keys=True)
    assert set(doc1) == {"record", "timing"}
    assert set(doc1["timing"]) == {"seconds", "soft_budget_exceeded"}
    assert doc1["timing"]["soft_budget_exceeded"] is False
    rec = doc1["record"]
    assert rec["scl"] == "1/1"
    assert rec["rot"] == "2/1"
    assert rec["rot_half"] == "1/1"
    assert rec["bounds_immersed"] is True
    assert rec["on_face"] is True
    assert rec["limits"] == {"max_letters": 24, "max_pivots": 10 ** 6}


def test_json_scl(capsys):
    code, out, _ = run(capsys, "scl", "abABcabABC", "--json")
    assert code == 0
    rec = json.loads(out)["record"]
    assert rec == {"command": "scl", "input": "abABcabABC",
                   "chain": rec["chain"], "scl": "3/2",
                   "limits": {"max_letters": 24, "max_pivots": 10 ** 6}}


def test_exit_code_syntax_error(capsys):
    code, out, err = run(capsys, "scl", "ab^")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "offset 2" in err


def test_exit_code_bad_range(capsys):
    code, _, err = run(capsys, "scan", "--w", "abAB", "--n-range", "5..1")
    assert code == 2
    assert "empty n range" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "certify", "--file", "/nonexistent/x.cert")
    assert code == 2
    assert err.startswith("error: ")


def test_exit_code_not_boundary(capsys):
    code, _, err = run(capsys, "scl", "ab")
    assert code == 3
    assert "homologically trivial" in err


@pytest.mark.parametrize("subcommand", ["scl", "immersed"])
def test_exit_code_not_boundary_over_letter_cap(capsys, subcommand):
    # 30 prepared letters: the boundary check comes before the letter cap
    code, out, err = run(capsys, subcommand, "ab + [aabab,bbaba] + [abb,aab]")
    assert (code, out) == (3, "")
    assert "homologically trivial" in err
    code, out, err = run(capsys, subcommand, "[aabab,bbaba] + [abb,aab]")
    assert (code, out) == (4, "")
    assert "chain has 28 letters, cap is 24" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_exit_code_matchbound_bad_degree(capsys, degree):
    code, out, err = run(capsys, "matchbound", "abAB", "--degree", degree)
    assert (code, out) == (2, "")
    assert err == "error: degree must be positive, got %s\n" % degree


def test_exit_code_rank_mismatch(capsys):
    code, _, err = run(capsys, "immersed", "[a,c]")
    assert code == 2
    assert "rank" in err


def test_exit_code_resource_limit(capsys, monkeypatch):
    monkeypatch.setattr(sclkit.sclenc, "_scl_cache", OrderedDict())  # fresh
    code, _, err = run(capsys, "scl", "[ab,ba]", "--max-pivots", "2")
    assert code == 4
    assert "pivot cap" in err


@pytest.mark.parametrize("expr, cap", [("2*a + 2*BBAA - 2*BBA", 5),
                                       ("1/2*bbbaBBBAbbbaBBBA", 7)])
def test_exit_code_resource_limit_pinned_caps(capsys, monkeypatch, expr, cap):
    # The benchmark pins these two commands to exit 4.  No pivot rule can
    # finish either within its cap: the basis is all artificial before the
    # start basis is built, each pivot brings in at most one column of A,
    # and once phase 1 and the drive-out are done the basis holds rank(A)
    # columns of A (43 and 47 here).  The start's pivots count toward the
    # cap like any other, so every solve needs at least rank(A) counted
    # pivots.  The solver takes 48 and 51, 42 and 46 of them in the start.
    monkeypatch.setattr(sclkit.sclenc, "_scl_cache", OrderedDict())  # fresh
    code, _, err = run(capsys, "scl", expr, "--max-pivots", str(cap))
    assert code == 4
    assert "pivot cap" in err
    # and so on a result cache hit
    assert run(capsys, "scl", expr)[0] == 0
    code, _, err = run(capsys, "scl", expr, "--max-pivots", str(cap))
    assert code == 4
    assert "pivot cap" in err


@pytest.mark.parametrize("flag", ["--max-letters", "--max-pivots"])
def test_exit_code_negative_cap(capsys, flag):
    # a negative cap is a usage error, not a resource limit
    with pytest.raises(SystemExit) as exc:
        main(["scl", "abAB", flag, "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: must be nonnegative, got -1" % flag in err


def test_exit_code_invariant_violation(capsys, monkeypatch):
    # force the two rotation computations apart to exercise the guard
    monkeypatch.setattr(sclkit.rotation, "turning_number_chain",
                        lambda chain: 99)
    code, _, err = run(capsys, "rot", "abAB", "--method", "both")
    assert code == 5
    assert "disagrees" in err


def test_exit_code_encoder_fault(capsys, monkeypatch):
    # a malformed LP from build_lp is an internal fault, not a usage error
    def malformed(*args):
        raise ValueError("row columns must be strictly increasing")

    monkeypatch.setattr(sclkit.sclenc, "LinearProgram", malformed)
    code, out, err = run(capsys, "scl", "abAB")
    assert code == 5
    assert out == ""
    assert err == ("error: malformed scl LP: row columns must be strictly "
                   "increasing\n")


def test_exit_code_persistence_guard(capsys, monkeypatch):
    verdicts = iter([True, False])
    monkeypatch.setattr(
        sclkit.immersion, "bounds_immersed",
        lambda chain, **limits: sclkit.immersion.CriterionReport(
            chain, qq(1, 2), qq(1), next(verdicts)))
    code, out, err = run(capsys, "stabilize", "abAB", "--max-R", "3")
    assert code == 5
    assert out == ""
    assert "did not persist at R = 1" in err


def test_exit_code_non_ascii(capsys):
    # a non-ASCII letter or digit is a syntax error at its own offset
    for text, offset in [("abé", 2), ("a^²", 2)]:
        code, out, err = run(capsys, "scl", text)
        assert code == 2
        assert out == ""
        assert err == "error: unexpected character %r (at offset %d)\n" % (
            text[offset], offset)


def test_exit_code_holonomy_overflow(capsys):
    # a 484-letter primitive word, which overflowed the float64 holonomy
    # that rotation numbers once used: the exact holonomy has no limit
    text = "aabbAABB" * 60 + "abAB"
    for method in ((), ("--method", "turning")):
        code, out, err = run(capsys, "rot", text, *method)
        assert code == 0
        assert out == "rot = 61/1\n"
        assert err == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sclkit", "scl", "[a,b]"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "scl = 1/2\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_closed_stdout_is_quiet(json_flag, unbuffered):
    # stdout is a pipe whose reader is already gone: the write fails with
    # BrokenPipeError, an OSError, so exit 2 with one error line.  A
    # buffered stdout (the default) still holds the bytes afterwards, and
    # its flush at interpreter exit must not fail a second time
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sclkit", "rot", "abAB", *json_flag],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"
    assert proc.returncode == 2
