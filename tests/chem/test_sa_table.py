"""The shipped SA fragment table equals the corpus it stands for.

``repro.chem.sa`` loads its environment counts from ``sa_fragments.json``
instead of regenerating the 600-molecule reference corpus in every
process.  These tests regenerate the corpus once and hold the file, and
the table built from it, to plain ``==``.
"""

import json

import pytest

import repro.chem.sa as sa
from repro.chem.sa import (
    FRAGMENTS_FILE,
    FragmentTable,
    corpus_fragment_counts,
    default_fragment_table,
    write_fragment_counts,
)

REWRITE_COMMAND = (
    'PYTHONPATH=src python -c "from repro.chem.sa import '
    'write_fragment_counts; write_fragment_counts()"'
)


def shipped_counts() -> dict[str, int]:
    with open(FRAGMENTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def assert_same_counts(shipped: dict, regenerated: dict) -> None:
    """Ordered ``==``: the table's centre is a float sum in file order."""
    assert list(shipped.items()) == list(regenerated.items()), (
        f"{FRAGMENTS_FILE.name} no longer matches the reference corpus; "
        f"rewrite it from the repository root with: {REWRITE_COMMAND}"
    )


@pytest.fixture(scope="module")
def corpus_counts():
    return corpus_fragment_counts()


def test_shipped_counts_equal_the_corpus(corpus_counts):
    assert_same_counts(shipped_counts(), corpus_counts)


def test_rewrite_reproduces_the_shipped_bytes(corpus_counts, monkeypatch,
                                              tmp_path):
    monkeypatch.setattr(sa, "corpus_fragment_counts", lambda: corpus_counts)
    written = tmp_path / "sa_fragments.json"
    write_fragment_counts(written)
    assert written.read_bytes() == FRAGMENTS_FILE.read_bytes()


def test_loaded_table_equals_corpus_table(corpus_counts):
    loaded = default_fragment_table()
    built = FragmentTable(corpus_counts)
    assert list(loaded._log_counts.items()) == list(built._log_counts.items())
    assert loaded._center == built._center
    assert loaded._floor == built._floor
    assert loaded.radius == built.radius == 2


def test_mismatch_message_gives_the_rewrite_command():
    with pytest.raises(AssertionError) as failure:
        assert_same_counts({"Cd1h3;1Cd1h3": 2}, {"Cd1h3;1Cd1h3": 3})
    assert REWRITE_COMMAND in str(failure.value)
    # The command the failure prints is the one the module documents.
    assert REWRITE_COMMAND in sa.__doc__


def test_default_table_does_not_regenerate_the_corpus(monkeypatch):
    def no_corpus(*args, **kwargs):
        raise AssertionError("default_fragment_table generated molecules")

    monkeypatch.setattr(sa, "random_molecules", no_corpus)
    default_fragment_table.cache_clear()
    try:
        table = default_fragment_table()
        assert len(table._log_counts) == len(shipped_counts())
    finally:
        default_fragment_table.cache_clear()


def test_empty_counts_are_rejected():
    with pytest.raises(ValueError, match="non-empty corpus"):
        FragmentTable({})
