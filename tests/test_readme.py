"""The README's examples: every "$ sclkit ..." line of "Command line"
prints the lines shown under it, and "Certificate files" shows the file
that `matchbound --emit` writes."""

import os
import shlex

from sclkit.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def fenced_block(heading):
    """Body of the first fenced block under the README's "## heading"."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("\n## %s\n" % heading, 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_command_line_examples(capsys, monkeypatch, tmp_path):
    # the examples run in order in one directory: certify reads the file
    # that matchbound --emit wrote
    monkeypatch.chdir(tmp_path)
    examples = []
    for line in fenced_block("Command line").splitlines():
        if line.startswith("$ "):
            examples.append((line, []))
        else:
            examples[-1][1].append(line)
    assert examples
    for command, expected in examples:
        prog, *argv = shlex.split(command[2:])
        assert prog == "sclkit"
        assert main(argv) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_certificate_file_example(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["matchbound", "[a,b]", "--emit", "torus.cert"]) == 0
    capsys.readouterr()
    written = (tmp_path / "torus.cert").read_text(encoding="ascii")
    assert written == fenced_block("Certificate files")
