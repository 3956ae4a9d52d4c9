"""The bundled policy/trace corpus is a frozen regression suite: every case
records the expected verdict and the hand-counted number of domain matches."""

import dataclasses

import pytest

from policygraph import corpus
from policygraph.corpus import CaseResult, CorpusEntry, load_corpus_policy, load_manifest, run_corpus


def test_every_corpus_case_agrees():
    results = run_corpus()
    mismatches = [r.line() for r in results if not r.ok]
    assert mismatches == []
    assert len(results) == 22, "two cases per corpus policy (11 policies in 10 files)"


def test_corpus_exercises_both_verdicts():
    results = run_corpus()
    expected = {r.expected for r in results}
    assert expected == {"upheld", "violated"}


def test_match_counts_are_pinned():
    for entry in load_manifest():
        for case in entry.cases:
            assert case.matches is not None, (
                f"{entry.policy}/{case.trace}: corpus cases must pin a match count"
            )


def test_result_lines_name_the_case():
    for r in run_corpus():
        kind, rest = r.line().split("\t", 1)
        assert kind in ("ok", "MISMATCH")
        assert rest.startswith(f"{r.policy} on {r.trace}:")
        assert f"({r.actual_matches} matches)" in rest


@pytest.mark.parametrize("result,line", [
    (CaseResult("p", "t.jsonl", "upheld", "violated", 2, 2),
     "MISMATCH\tp on t.jsonl: expected upheld, got violated (2 matches)"),
    (CaseResult("p", "t.jsonl", "violated", "violated", 3, 2),
     "MISMATCH\tp on t.jsonl: expected violated, got violated (2 matches, expected 3)"),
])
def test_a_mismatch_is_reported_with_its_detail(result, line):
    assert not result.ok
    assert result.line() == line
    assert dataclasses.replace(result, expected_matches=None, actual=result.expected).ok


def test_a_policy_missing_from_its_file_is_a_key_error():
    with pytest.raises(KeyError, match="policy 'nonesuch' not found in no_read_up.policy"):
        load_corpus_policy(CorpusEntry("no_read_up.policy", "nonesuch", ()))


def test_main_exits_one_when_a_case_disagrees(monkeypatch, capsys):
    """A manifest that expects the wrong verdict for one case: main prints
    that case as a MISMATCH, counts the rest as agreeing, and exits 1."""
    entry, *rest = load_manifest()
    first, *others = entry.cases
    flipped = dataclasses.replace(first, expected="upheld" if first.expected == "violated" else "violated")
    monkeypatch.setattr(corpus, "load_manifest", lambda: [dataclasses.replace(entry, cases=(flipped, *others)), *rest])
    assert corpus.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("MISMATCH")] == [
        f"MISMATCH\t{entry.policy} on {first.trace}: expected {flipped.expected}, got {first.expected}"
        f" ({first.matches} matches)"]
    assert lines[-1] == "21/22 corpus cases agree"
