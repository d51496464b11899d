"""Every command of the committed report corpus still exits as recorded and
prints a report with the recorded float-free projection; `python
tests/golden.py --check` compares the full bytes."""

import golden


def test_the_corpus_lists_every_golden_command():
    assert [e["argv"] for e in golden.load()["entries"]] == golden.commands()


def test_reports_keep_their_exit_codes_and_projections():
    for want in golden.load()["entries"]:
        got = golden.entry(want["argv"])
        for key in ("exit", "projection", "stderr"):
            assert got[key] == want[key], (want["argv"], key)
