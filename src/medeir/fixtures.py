"""Loaders for the data files bundled with the package.

The assets directory carries three hand-built vocabularies (a base-style
vocabulary that fragments medical terms, a curated domain vocabulary, and
their merge) plus a small synthetic corpus of medical abstracts. They back
the demo CLI paths and the test suite, and they are small enough to ship
in the wheel.
"""

from __future__ import annotations

from importlib import resources

from .checkpoint import read_jsonl
from .tokenizer import TokenizerModel, Vocabulary

_VOCAB_FILES = {
    "base": "vocab_base.txt",
    "domain": "vocab_domain.txt",
    "merged": "vocab_merged.txt",
}


def _asset(name: str):
    return resources.files("medeir.assets").joinpath(name)


def fixture_vocabulary(kind: str) -> Vocabulary:
    """Load one of the bundled vocabularies: "base", "domain", or "merged"."""
    if kind not in _VOCAB_FILES:
        raise ValueError(f"unknown fixture vocabulary {kind!r}")
    with resources.as_file(_asset(_VOCAB_FILES[kind])) as path:
        return Vocabulary.load(path)


def fixture_tokenizer(kind: str) -> TokenizerModel:
    return TokenizerModel(fixture_vocabulary(kind))


def load_mini_corpus() -> list[dict]:
    """Return the bundled abstracts as a list of {"id", "text"} dicts."""
    with resources.as_file(_asset("mini_medical_abstracts.jsonl")) as path:
        return list(read_jsonl(path))


def mini_corpus_texts() -> list[str]:
    return [doc["text"] for doc in load_mini_corpus()]
