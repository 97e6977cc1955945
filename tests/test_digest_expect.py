"""The ``--expect FILE`` mode of the digest scripts, on made-up lines; no
digest is computed here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_SPEC = importlib.util.spec_from_file_location(
    "digest_expect", _SCRIPTS / "digest_expect.py")
digest_expect = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest_expect)


@pytest.fixture
def expected(tmp_path):
    path = tmp_path / "digests.expected"
    path.write_text(f"{digest_expect.host()}\n[a.py]\nx 1\ncombined 2\n"
                    f"[b.py]\ny 3\n")
    return path


def test_same_lines_exit_0(expected, capsys):
    assert digest_expect.emit(["x 1", "combined 2"], expected, "a.py") == 0
    assert digest_expect.emit(iter(["y 3"]), expected, "b.py") == 0
    out, err = capsys.readouterr()
    assert out == "x 1\ncombined 2\ny 3\n" and err == ""


@pytest.mark.parametrize("lines,message", [
    (["x 1", "combined 9"], "line 2 differs from {}: expected combined 2"),
    (["x 1"], "line 2 is missing: expected combined 2"),
    (["x 1", "combined 2", "z"], "line 3 differs from {}: expected no line")])
def test_first_differing_line_exits_1(expected, capsys, lines, message):
    assert digest_expect.emit(lines, expected, "a.py") == 1
    assert capsys.readouterr().err == message.format(expected) + "\n"


def test_stops_at_the_first_differing_line(expected, capsys):
    produced = []

    def lines():
        for line in ("x 0", "combined 2"):
            produced.append(line)
            yield line
    assert digest_expect.emit(lines(), expected, "a.py") == 1
    assert produced == ["x 0"]


def test_other_host_is_named(expected, capsys):
    text = expected.read_text().splitlines()
    expected.write_text("\n".join(["host numpy 0.0, OpenBLAS core Other"]
                                  + text[1:]) + "\n")
    assert digest_expect.emit(["x 1", "combined 2"], expected, "a.py") == 0
    err = capsys.readouterr().err
    assert err.startswith(f"note: {expected} was recorded on 'host numpy "
                          f"0.0, OpenBLAS core Other', this is 'host numpy")


def test_without_expect_prints_every_line(capsys):
    assert digest_expect.emit(["x 0", "y"], None, "a.py") == 0
    assert capsys.readouterr().out == "x 0\ny\n"


def test_committed_file_has_both_scripts():
    path = _SCRIPTS / "digests.expected"
    host, artifact = digest_expect._recorded(path, "artifact_digest.py")
    assert host.startswith("host numpy ")
    assert artifact[-1].startswith("combined ")
    assert digest_expect._recorded(path, "train_digest.py")[1][-1] \
        .startswith("combined ")


def test_script_prints_the_host_line():
    proc = subprocess.run([sys.executable, str(_SCRIPTS / "digest_expect.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == digest_expect.host() + "\n"
