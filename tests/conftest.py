"""Fixtures shared by the test modules."""

import pytest

import reach


@pytest.fixture(scope="session")
def corpus_replay():
    """One traced replay of the byte-identity corpus (`reach.replay`) per
    session: `test_corpus` reads its lines, `test_reach` the src lines run."""
    return reach.replay()
