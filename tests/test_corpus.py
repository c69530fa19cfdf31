"""Tier-1 replay of the byte-identity corpus (tests/corpus.py): every family
but the two largest, which the CI replays with the rest."""

import pytest

import corpus

RECORDED = corpus.recorded()
SAMPLE = [name for name in corpus.FAMILIES if name not in ("pairs", "lemma5")]


def test_every_family_has_a_digest():
    assert RECORDED["families"].keys() == corpus.FAMILIES.keys()


@pytest.mark.parametrize("family", SAMPLE)
def test_family_keeps_its_bytes(family):
    assert corpus.family_digest(family) == RECORDED["families"][family]
