"""The loader for the mini corpus bundled with the package.

The assets directory carries a small synthetic corpus of medical abstracts,
which the smoke pipeline and the benchmark run on, plus three hand-built
vocabularies (a base-style vocabulary that fragments medical terms, a
curated domain vocabulary, and their merge) that the tests load. They are
small enough to ship in the wheel.
"""

from __future__ import annotations

from importlib import resources

from .checkpoint import numbered_jsonl


def _asset(name: str):
    return resources.files("medeir.assets").joinpath(name)


def load_mini_corpus() -> list[dict]:
    """Return the bundled abstracts as a list of {"id", "text"} dicts."""
    with resources.as_file(_asset("mini_medical_abstracts.jsonl")) as path:
        return list(numbered_jsonl(path, dict))
