"""The report writer: ``report_text`` against the ``json.dumps`` oracle, and
``--out`` written in place.

``engine ... --out path`` writes ``json.dumps(report, sort_keys=True,
indent=2)`` and a newline.  ``cli.report_text`` builds that text without
``json``'s pure-Python indenting encoder, so every test here compares it with
the oracle, on the reports of every verb and on generated JSON values.
"""

import errno
import json
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3alg import burnside, cli
from so3alg.cli import main, report_text

FIXTURE_DIR = Path(cli.__file__).resolve().parent / "data"
FIXTURES = sorted(str(p) for p in FIXTURE_DIR.glob("*.json"))


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def _fixture_commands(tmp_path):
    """A command line of every verb, on each of the 14 fixtures where the
    verb reads an object file."""
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps(burnside.to_json(cli.evaluate_burnside("e_T + e_D4 * e_D4", "SO3"))))
    commands = [["fixtures"], ["selftest"], ["burnside", "e_T", "-", "e_D2n3"],
                ["burnside", "e_D2n1", "*", "1", "--group", "O2"], ["restrict", str(elem)]]
    for k, path in enumerate(FIXTURES):
        other = FIXTURES[(k + 5) % len(FIXTURES)]
        commands += [
            ["star-check", path], ["resolve", path], ["homology", path], ["split", path],
            ["cover", path, "--slot", "tail", "--degree", "0"],
            ["hom", path, other, "--window=-1:1"], ["ext", path, other, "--window=0:0"],
            ["bracket", path, path, "--window=0:0"],
        ]
    return commands


def test_every_verbs_report_on_the_fixtures_is_the_oracles_text(tmp_path, monkeypatch, capsys):
    reports = []

    def spy(report):
        reports.append(report)
        return report_text(report)

    monkeypatch.setattr(cli, "report_text", spy)
    out = tmp_path / "report.json"
    commands = _fixture_commands(tmp_path)
    assert {argv[0] for argv in commands} == set(cli._VERBS)
    for argv in commands:
        assert main(argv + ["--out", str(out)]) == 0, argv
        capsys.readouterr()
        assert out.read_bytes() == (oracle(reports[-1]) + "\n").encode(), argv
    assert len(reports) == len(commands)


scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text() | st.text(alphabet=st.characters(min_codepoint=0x80))
)
json_values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=4)
        | st.dictionaries(st.booleans() | st.none(), inner, max_size=1)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_report_text_is_the_oracles_text_on_json_values(value):
    assert report_text(value) == oracle(value)


def test_report_text_writes_the_edge_values_as_json_does():
    values = [
        {}, [], (), "", {"": []}, {"a": {}, "b": ()}, [[], {}, [[]]],
        {10: 1, 9: 2, -1: 3}, {"10": 1, "9": 2}, {True: 1}, {False: 0}, {None: None},
        "é中\U0001f600\"\\\n\t\x00\x1f", 2**200, -(2**200), [True, False, None],
    ]
    for value in values:
        assert report_text(value) == oracle(value)


@pytest.mark.parametrize("value", [
    {"x": {1, 2}}, [object()], Fraction(1, 2), {(1, 2): 0}, {1: 0, "a": 1},
])
def test_report_text_raises_type_error_where_json_does(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        report_text(value)


# -- --out written in place -------------------------------------------------------


def test_a_short_report_after_a_long_one_leaves_exactly_the_short_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["resolve", FIXTURES[0], "--out", str(out)]) == 0
    long_bytes = out.read_bytes()
    assert main(["burnside", "e_T", "--out", str(out)]) == 0
    short = out.read_bytes()
    assert len(short) < len(long_bytes)
    assert short == (oracle({"verb": "burnside", "element": burnside.to_json(
        burnside.idempotent("SO3", "T"))}) + "\n").encode()
    # and a long one after the short one
    assert main(["resolve", FIXTURES[0], "--out", str(out)]) == 0
    assert out.read_bytes() == long_bytes


def test_out_to_dev_null_works():
    assert main(["burnside", "e_T", "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_through_a_symlink_updates_the_target_and_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 5000)
    link.symlink_to(target)
    assert main(["burnside", "e_D", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith('{\n  "element"') and len(target.read_text()) < 5000


def test_out_to_a_fifo_streams_the_report(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    assert main(["burnside", "e_T", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert got and got[0].startswith(b'{\n  "element"') and got[0].endswith(b"}\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_to_dev_stdout_follows_the_printed_lines(tmp_path):
    """With stdout redirected to a file, ``--out /dev/stdout`` leaves the
    verb's stdout lines in it, followed by the report."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    for argv in (["burnside", "e_T"], ["resolve", FIXTURES[0]]):
        engine = [sys.executable, "-m", "so3alg.cli", *argv]
        lines = subprocess.run(engine, capture_output=True, env=env, check=True).stdout
        report = tmp_path / "report.json"
        subprocess.run(engine + ["--out", str(report)], capture_output=True, env=env, check=True)
        out = tmp_path / "stdout.txt"
        with out.open("wb") as fh:
            subprocess.run(engine + ["--out", "/dev/stdout"], stdout=fh, env=env, check=True)
        assert lines and out.read_bytes() == lines + report.read_bytes(), argv


def test_a_new_report_file_gets_mode_0o666_less_the_umask(tmp_path):
    for umask in (0o022, 0o077, 0o002):
        out = tmp_path / f"new-{umask:o}.json"
        old = os.umask(umask)
        try:
            assert main(["burnside", "e_T", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_an_unwritable_out_exits_2_naming_the_path(tmp_path, monkeypatch, capsys):
    directory = tmp_path / "dir"
    directory.mkdir()
    missing = tmp_path / "no-such-dir" / "report.json"
    cases = [(directory, "Is a directory"), (missing, "No such file or directory")]
    for path, reason in cases:
        assert main(["selftest", "--out", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    if os.path.exists("/dev/full"):
        # the open succeeds and the write fails
        assert main(["burnside", "e_T", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == "error: /dev/full: No space left on device\n"
    read_only = tmp_path / "read-only.json"
    read_only.write_text("old")
    read_only.chmod(0o444)
    if os.access(read_only, os.W_OK):
        # permission bits do not bind this user (root): give the open the
        # error the kernel gives everyone else
        def refuse(path, flags, mode=0o777):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(cli.os, "open", refuse)
    assert main(["burnside", "e_T", "--out", str(read_only)]) == 2
    assert capsys.readouterr().err == f"error: {read_only}: Permission denied\n"
    assert read_only.read_text() == "old"
