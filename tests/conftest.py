"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def no_cache_from_the_shell(monkeypatch):
    """Unset MEDEIR_CACHE, so that no test writes into a cache the shell
    names; a test that wants a cache sets one under its tmp_path."""
    monkeypatch.delenv("MEDEIR_CACHE", raising=False)


@pytest.fixture
def dataset_reads(monkeypatch):
    """The paths that load_dataset parses line by line, one entry per
    numbered_jsonl call."""
    import medeir.checkpoint as checkpoint
    import medeir.evaluation as evaluation

    paths = []
    real = checkpoint.numbered_jsonl

    def counting(path, parse, data=None):
        paths.append(path)
        return real(path, parse, data)

    monkeypatch.setattr(checkpoint, "numbered_jsonl", counting)
    monkeypatch.setattr(evaluation, "numbered_jsonl", counting)
    return paths
