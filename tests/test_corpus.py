"""Tier-1 replay of the byte-identity corpus (tests/corpus.py): every family."""

import pytest

import corpus

RECORDED = corpus.recorded()


def test_every_family_has_a_digest():
    assert RECORDED["families"].keys() == corpus.FAMILIES.keys()


@pytest.mark.parametrize("family", corpus.FAMILIES)
def test_family_keeps_its_bytes(family):
    assert corpus.family_digest(family) == RECORDED["families"][family]


def _short(argv: list[str]) -> str:
    """argv joined, each token past 40 characters cut to its first 10 and its length."""
    return " ".join(t if len(t) <= 40 else f"{t[:10]}...({len(t)})" for t in argv)


@pytest.mark.parametrize("argv", corpus.refusals(), ids=_short)
def test_refusal_exits_1_with_empty_stdout(argv):
    _, code, stdout_sha, _ = corpus.line(argv).split("\t")
    assert (code, stdout_sha) == ("1", corpus._sha(""))
