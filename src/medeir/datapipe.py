"""Corpus preparation: cleaning, dedup, chunk packing, pair filtering, and
hard-negative mining.

All dataset files are UTF-8 JSON-lines. Documents carry {"id", "text"} and
optionally "source"; pairs carry {"query", "positive", "source_id"}; hard
negatives add a "negatives" list. Cleaning is regex-grade on purpose (the
inputs are abstracts, not arbitrary web pages).

Mining scores every query against the distinct corpus texts at once with
the scorer that retrieval evaluation ranks with (evaluation._top_k), in
float64, so a mined record never repeats a negative.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .checkpoint import id_text, numbered_jsonl, string_field, write_jsonl
from .evaluation import _top_k
from .tokenizer import SEP_TOKEN, TokenizerModel

Embedder = Callable[[str], np.ndarray]


@dataclass(frozen=True)
class CorpusDocument:
    id: str
    text: str
    source: str = ""


@dataclass(frozen=True)
class SentencePair:
    query: str
    positive: str
    source_id: str = ""
    similarity: float | None = None

    def __post_init__(self):
        if not self.query or not self.positive:
            raise ValueError("pair texts must be non-empty")


@dataclass(frozen=True)
class HardNegativeRecord:
    query: str
    positive: str
    negatives: tuple[str, ...]
    source_id: str = ""
    flagged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "negatives", tuple(self.negatives))
        if self.positive in self.negatives:
            raise ValueError("positive must not appear among negatives")
        if not self.negatives and not self.flagged:
            raise ValueError("empty negatives are only allowed on flagged records")


# ---------------------------------------------------------------------------
# cleaning

_TAG_RE = re.compile(r"<[^>]+>")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


def clean_document(text: str) -> str:
    """Strip HTML tags, drop URLs, collapse repeated paragraphs, tidy spaces."""
    text = _TAG_RE.sub(" ", text)
    text = _URL_RE.sub(" ", text)
    paragraphs = []
    for raw in text.split("\n"):
        para = " ".join(raw.split())
        if not para:
            continue
        if paragraphs and paragraphs[-1] == para:
            continue
        paragraphs.append(para)
    return "\n".join(paragraphs)


def _normalized_hash(text: str) -> str:
    return hashlib.sha256(" ".join(text.split()).encode("utf-8")).hexdigest()


def dedup_corpus(docs: Iterable[CorpusDocument]) -> list[CorpusDocument]:
    """Drop exact duplicates (normalized text hash); first occurrence wins."""
    seen: set[str] = set()
    kept = []
    for doc in docs:
        digest = _normalized_hash(doc.text)
        if digest in seen:
            continue
        seen.add(digest)
        kept.append(doc)
    return kept


# ---------------------------------------------------------------------------
# chunk packing

def pack_chunks(docs: Sequence[CorpusDocument], tokenizer: TokenizerModel,
                chunk_len: int = 512, min_tail: int = 16) -> list[list[int]]:
    """Concatenate document tokens with [SEP] between docs and slice into
    chunks of exactly chunk_len ids; the final remainder is kept only when
    it reaches min_tail.

    The [SEP] goes in front of a document only when the buffer holds ids
    already: a document that ends exactly on a chunk boundary leaves an
    empty buffer, so the next chunk starts with the next document's first
    id and no [SEP] separates the two.
    """
    if min_tail < 1:
        raise ValueError("min_tail must be >= 1")
    if chunk_len < min_tail:
        raise ValueError("chunk_len must be >= min_tail")
    sep_id = tokenizer.vocab.id_of[SEP_TOKEN]
    chunks: list[list[int]] = []
    buffer: list[int] = []
    for doc in docs:
        ids = tokenizer.encode(doc.text).ids
        if not ids:
            continue
        if buffer:
            buffer.append(sep_id)
        buffer.extend(ids)
        while len(buffer) >= chunk_len:
            chunks.append(buffer[:chunk_len])
            buffer = buffer[chunk_len:]
    if len(buffer) >= min_tail:
        chunks.append(buffer)
    return chunks


# ---------------------------------------------------------------------------
# pair filtering

def filter_pairs_by_similarity(pairs: Sequence[SentencePair], embedder: Embedder,
                               threshold: float | None = None,
                               drop_fraction: float | None = None) -> list[SentencePair]:
    """Keep pairs by cosine similarity of their two embeddings, a float64
    dot product as in mining and ranking.

    Exactly one of threshold / drop_fraction selects the mode. Threshold
    keeps pairs with similarity >= threshold. drop_fraction removes the
    floor(f*N) lowest-similarity pairs (ties broken by input order), which
    makes f=0.10 a by-construction 10% reduction.
    """
    if (threshold is None) == (drop_fraction is None):
        raise ValueError("exactly one of threshold or drop_fraction is required")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    queries = np.asarray([embedder(p.query) for p in pairs], dtype=np.float64)
    positives = np.asarray([embedder(p.positive) for p in pairs], dtype=np.float64)
    similarities = np.einsum("ij,ij->i", queries, positives)
    scored = [dataclasses.replace(p, similarity=float(sim))
              for p, sim in zip(pairs, similarities)]
    if threshold is not None:
        return [p for p in scored if p.similarity >= threshold]
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError("drop_fraction must be in [0, 1]")
    n_drop = int(np.floor(drop_fraction * len(scored)))
    if n_drop == 0:
        return scored
    order = sorted(range(len(scored)), key=lambda i: (scored[i].similarity, i))
    dropped = set(order[:n_drop])
    return [p for i, p in enumerate(scored) if i not in dropped]


# ---------------------------------------------------------------------------
# hard-negative mining

def mine_hard_negatives(pairs: Sequence[SentencePair],
                        corpus: Sequence[str], embedder: Embedder,
                        per_query: int = 5,
                        band: tuple[float, float] = (0.3, 0.9)) -> list[HardNegativeRecord]:
    """For each pair, the per_query highest-cosine distinct corpus texts
    (to the query) inside the inclusive similarity band, excluding the
    positive itself. Cosines are float64; equal ones go to the text that
    occurs first in the corpus.

    Queries with fewer than per_query in-band candidates yield a shorter,
    flagged record.
    """
    if per_query < 1:
        raise ValueError("per_query must be >= 1")
    lo, hi = band
    if lo > hi:
        raise ValueError(f"empty similarity band {band}")
    texts = list(dict.fromkeys(corpus))
    pairs = list(pairs)
    if texts and pairs:
        index = {text: i for i, text in enumerate(texts)}
        chosen = _top_k(np.stack([np.asarray(embedder(p.query)) for p in pairs]),
                        np.stack([np.asarray(embedder(t)) for t in texts]),
                        per_query, band=band,
                        exclude=[index.get(p.positive, -1) for p in pairs])
    else:
        chosen = [()] * len(pairs)
    records = []
    for pair, top in zip(pairs, chosen):
        negatives = tuple(texts[i] for i in top)
        records.append(HardNegativeRecord(
            query=pair.query, positive=pair.positive, negatives=negatives,
            source_id=pair.source_id, flagged=len(negatives) < per_query))
    return records


# ---------------------------------------------------------------------------
# JSONL I/O

def read_documents(path: Path) -> list[CorpusDocument]:
    seen: set[str] = set()

    def document(row: dict) -> CorpusDocument:
        doc_id, text = id_text(row, seen)
        return CorpusDocument(id=doc_id, text=text,
                              source=string_field(row, "source", ""))

    return list(numbered_jsonl(path, document))


def write_documents(path: Path, docs: Iterable[CorpusDocument]) -> None:
    write_jsonl(path, ({"id": d.id, "text": d.text}
                       | ({"source": d.source} if d.source else {})
                       for d in docs))


def _pair(row: dict) -> SentencePair:
    """A pair row; "similarity", when present, must be a number."""
    similarity = row.get("similarity")
    if "similarity" in row and type(similarity) not in (int, float):
        raise ValueError(f"'similarity' must be a number, got {similarity!r}")
    return SentencePair(query=string_field(row, "query"),
                        positive=string_field(row, "positive"),
                        source_id=string_field(row, "source_id", ""),
                        similarity=similarity)


def read_pairs(path: Path) -> list[SentencePair]:
    return list(numbered_jsonl(path, _pair))


def write_pairs(path: Path, pairs: Iterable[SentencePair]) -> None:
    write_jsonl(path, ({"query": p.query, "positive": p.positive,
                        "source_id": p.source_id}
                       | ({} if p.similarity is None
                          else {"similarity": p.similarity})
                       for p in pairs))


def _hard_negative(row: dict) -> HardNegativeRecord:
    """A mined record row; "flagged", when present, must be true or false."""
    negatives = row.get("negatives")
    if not isinstance(negatives, list) or not all(isinstance(n, str) for n in negatives):
        raise ValueError(f"'negatives' must be a list of strings, got {negatives!r}")
    flagged = row.get("flagged", False)
    if type(flagged) is not bool:
        raise ValueError(f"'flagged' must be true or false, got {flagged!r}")
    return HardNegativeRecord(query=string_field(row, "query"),
                              positive=string_field(row, "positive"),
                              negatives=tuple(negatives),
                              source_id=string_field(row, "source_id", ""),
                              flagged=flagged)


def read_hard_negatives(path: Path) -> list[HardNegativeRecord]:
    return list(numbered_jsonl(path, _hard_negative))


def write_hard_negatives(path: Path, records: Iterable[HardNegativeRecord]) -> None:
    write_jsonl(path, ({"query": r.query, "positive": r.positive,
                        "negatives": list(r.negatives), "source_id": r.source_id}
                       | ({"flagged": True} if r.flagged else {})
                       for r in records))
