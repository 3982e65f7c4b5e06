"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def no_cache_from_the_shell(monkeypatch):
    """Unset MEDEIR_CACHE, so that no test writes into a cache the shell
    names; a test that wants a cache sets one under its tmp_path."""
    monkeypatch.delenv("MEDEIR_CACHE", raising=False)


@pytest.fixture
def dataset_reads(monkeypatch):
    """The paths that load_dataset reads line by line, one entry per read:
    the qrels file directly, the id/text files through _id_text_rows."""
    import medeir.checkpoint as checkpoint
    import medeir.evaluation as evaluation

    paths = []
    real = checkpoint.numbered_jsonl

    def counting(path, digest=None):
        paths.append(path)
        return real(path, digest)

    monkeypatch.setattr(checkpoint, "numbered_jsonl", counting)
    monkeypatch.setattr(evaluation, "numbered_jsonl", counting)
    return paths
