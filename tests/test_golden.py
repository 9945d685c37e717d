"""Command outputs pinned byte for byte against reports stored in data/.

The stored files were written by the commands named in each test; a change
to any bound rule, statement, entry order, search count or certificate
order shows up here.
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


def test_survey_n6_budget30_report(capsys):
    # a budget-limited survey pins Budget.spent: a rule that spends more or
    # fewer nodes on a graph moves the pass and na counts of later rules
    got = _stdout(capsys, "survey", "--n", "6", "--budget", "30")
    assert got == (DATA / "survey_n6_budget30.txt").read_bytes()


def test_analyze_petersen_exact(capsys):
    got = _stdout(capsys, "analyze", "IheA@GUAo", "--exact")
    assert got == (DATA / "analyze_petersen.txt").read_bytes()


def test_verify_c10_certificates(capsys):
    # c10.coloring is `rdnum color IhCGGC@_G --out`: the constructed
    # 2-coloring of C10, whose pairs away from vertex 0 need sides that are
    # not stars
    got = _stdout(capsys, "verify", str(DATA / "c10.coloring"))
    assert got == (DATA / "verify_c10.txt").read_bytes()
