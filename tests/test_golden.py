"""Command outputs pinned byte for byte against reports stored in data/.

The stored files were written by the commands named in each test; a change
to any bound rule, statement, entry order or search count shows up here.
"""

from pathlib import Path

from rdnum.cli import main

DATA = Path(__file__).parent / "data"


def _stdout(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


def test_survey_n6_report(capsys):
    got = _stdout(capsys, "survey", "--n", "6")
    assert got == (DATA / "survey_n6.txt").read_bytes()


def test_analyze_petersen_exact(capsys):
    got = _stdout(capsys, "analyze", "IheA@GUAo", "--exact")
    assert got == (DATA / "analyze_petersen.txt").read_bytes()
