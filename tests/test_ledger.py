"""Every output the ledger records, recomputed against `tests/data/ledger.txt`.

`python tests/ledger.py` regenerates the file; a change that moves it on
purpose says which fields moved and why."""

from ledger import LEDGER, first_difference, graphs, ledger_line


def test_every_output_matches_the_ledger():
    want = LEDGER.read_text(encoding="utf-8").splitlines()
    inputs = graphs()
    assert len(want) == len(inputs) == 1006
    for line, g in zip(want, inputs):
        why = first_difference(line, ledger_line(g))
        assert why is None, why
