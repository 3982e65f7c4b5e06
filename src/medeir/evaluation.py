"""Retrieval evaluation: cosine ranking, graded nDCG, recall, and
model-comparison reports.

A dataset is three JSON-lines files in one directory: queries.jsonl and
corpus.jsonl with {"id", "text"}, and qrels.jsonl with {"qid", "did",
"rel"} where rel is a non-negative integer grade. Reports carry raw rows
(percent scale) plus enough metadata to trace which checkpoint produced
them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import (atomic_write_bytes, atomic_write_text, read_jsonl,
                         write_jsonl)
# embed_text is not called here; perfbench/spans.py wraps it by this name
from .model import EncoderModel, embed_text, embed_texts  # noqa: F401
from .tokenizer import TokenizerModel

REPORT_VERSION = 1


@dataclass(frozen=True)
class RetrievalDataset:
    name: str
    queries: dict[str, str]
    corpus: dict[str, str]
    qrels: dict[str, dict[str, int]]

    def __post_init__(self):
        if not self.queries:
            raise ValueError(f"dataset {self.name!r} has no queries")
        for qid, rels in self.qrels.items():
            if qid not in self.queries:
                raise ValueError(f"qrels references unknown query {qid!r}")
            for did, rel in rels.items():
                if did not in self.corpus:
                    raise ValueError(f"qrels references unknown doc {did!r}")
                if rel < 0:
                    raise ValueError(f"negative relevance grade for {did!r}")


@dataclass(frozen=True)
class ModelUnderTest:
    """A named embedder: what comparison rows refer to by `model`."""

    name: str
    model: EncoderModel
    tokenizer: TokenizerModel
    checkpoint_hash: str = ""


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two pre-normalized vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not np.any(a) or not np.any(b):
        raise ValueError("cosine of a zero vector is undefined")
    return float(a @ b)


# ---------------------------------------------------------------------------
# embedding cache

def default_cache_dir() -> Path | None:
    value = os.environ.get("MEDEIR_CACHE", "")
    return Path(value) if value else None


def tokenizer_fingerprint(tokenizer: TokenizerModel) -> str:
    payload = "\n".join(tokenizer.vocab.tokens).encode("utf-8")
    extras = f"|{tokenizer.vocab.continuation_prefix}|{tokenizer.lowercase}"
    return hashlib.sha256(payload + extras.encode("utf-8")).hexdigest()


def _corpus_fingerprint(corpus: Mapping[str, str]) -> str:
    digest = hashlib.sha256()
    for did in sorted(corpus):
        digest.update(did.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(corpus[did].encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def _embed_corpus(mut: ModelUnderTest, corpus: Mapping[str, str],
                  cache_dir: Path | None) -> tuple[list[str], np.ndarray]:
    doc_ids = sorted(corpus)
    cache_path = None
    if cache_dir is not None and mut.checkpoint_hash:
        key = "-".join((mut.checkpoint_hash[:16],
                        tokenizer_fingerprint(mut.tokenizer)[:16],
                        _corpus_fingerprint(corpus)[:16]))
        cache_path = Path(cache_dir) / f"{key}.npz"
        if cache_path.exists():
            with np.load(cache_path) as blob:
                cached_ids = [str(x) for x in blob["ids"]]
                if cached_ids == doc_ids:
                    return doc_ids, blob["embeddings"]
    matrix = embed_texts(mut.model, mut.tokenizer, [corpus[did] for did in doc_ids])
    if cache_path is not None:
        buffer = io.BytesIO()
        np.savez(buffer, ids=np.array(doc_ids), embeddings=matrix)
        atomic_write_bytes(cache_path, buffer.getvalue())
    return doc_ids, matrix


# ---------------------------------------------------------------------------
# ranking and metrics

def retrieval_run(mut: ModelUnderTest, dataset: RetrievalDataset, k: int,
                  cache_dir: Path | None = None) -> dict[str, list[str]]:
    """Top-k corpus doc ids per query, by descending cosine; ties broken
    by doc id ascending. The corpus is embedded once per run."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset.corpus:
        raise ValueError(f"dataset {dataset.name!r} has an empty corpus")
    doc_ids, matrix = _embed_corpus(mut, dataset.corpus, cache_dir)
    corpus = matrix.astype(np.float64)
    qids = sorted(dataset.queries)
    queries = embed_texts(mut.model, mut.tokenizer, [dataset.queries[q] for q in qids])
    ranked: dict[str, list[str]] = {}
    for qid, q in zip(qids, queries):
        # a per-row reduction, unlike BLAS gemv, gives identical rows
        # identical sums, so exact ties stay ties
        sims = (corpus * q.astype(np.float64)).sum(axis=1)
        # doc_ids is sorted, so a stable sort breaks ties by doc id
        order = np.argsort(-sims, kind="stable")[:k]
        ranked[qid] = [doc_ids[i] for i in order]
    return ranked


def ndcg_at_k(ranked: Sequence[str], qrels: Mapping[str, int], k: int = 10) -> float:
    """Graded nDCG with gain 2^rel - 1 and discount log2(rank + 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for rank, did in enumerate(ranked[:k], start=1):
        rel = qrels.get(did, 0)
        if rel > 0:
            dcg += (2 ** rel - 1) / math.log2(rank + 1)
    ideal = sorted((rel for rel in qrels.values() if rel > 0), reverse=True)
    idcg = sum((2 ** rel - 1) / math.log2(rank + 1)
               for rank, rel in enumerate(ideal[:k], start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def recall_at_k(ranked: Sequence[str], qrels: Mapping[str, int], k: int) -> float | None:
    """Fraction of relevant docs in the top k; None when the query has no
    relevant docs (callers skip and count those)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    relevant = {did for did, rel in qrels.items() if rel > 0}
    if not relevant:
        return None
    hits = sum(1 for did in ranked[:k] if did in relevant)
    return hits / len(relevant)


def dataset_scores(mut: ModelUnderTest, dataset: RetrievalDataset, k: int = 10,
                   cache_dir: Path | None = None) -> dict:
    """Mean nDCG@k and recall@k over the dataset's scoreable queries.

    Queries without any positively graded doc are excluded from the means
    and surfaced as a skip count.
    """
    run = retrieval_run(mut, dataset, k, cache_dir=cache_dir)
    ndcgs: list[float] = []
    recalls: list[float] = []
    skipped = 0
    for qid in sorted(dataset.queries):
        rels = dataset.qrels.get(qid, {})
        recall = recall_at_k(run[qid], rels, k)
        if recall is None:
            skipped += 1
            continue
        recalls.append(recall)
        ndcgs.append(ndcg_at_k(run[qid], rels, k))
    if not ndcgs:
        raise ValueError(f"dataset {dataset.name!r} has no scoreable queries")
    return {
        "ndcg": float(np.mean(ndcgs)),
        "recall": float(np.mean(recalls)),
        "skipped_queries": skipped,
    }


# ---------------------------------------------------------------------------
# comparison reports

@dataclass
class EvalReport:
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            missing = {"dataset", "model", "metric", "value"} - set(row)
            if missing:
                raise ValueError(f"report row missing fields {sorted(missing)}")
            if not 0.0 <= row["value"] <= 100.0:
                raise ValueError(f"metric value {row['value']} outside [0, 100]")

    def to_dict(self) -> dict:
        return {"version": REPORT_VERSION, "rows": self.rows,
                "metadata": self.metadata}

    @classmethod
    def from_dict(cls, blob: dict) -> "EvalReport":
        if blob.get("version") != REPORT_VERSION:
            raise ValueError("unsupported report version")
        return cls(rows=list(blob["rows"]), metadata=dict(blob.get("metadata", {})))


def compare_models(models: Sequence[ModelUnderTest],
                   datasets: Sequence[RetrievalDataset], k: int = 10,
                   cache_dir: Path | None = None) -> EvalReport:
    """Mean-over-queries metrics for every (model, dataset) combination,
    stable-sorted by (dataset, model)."""
    if not models:
        raise ValueError("at least one model required")
    if not datasets:
        raise ValueError("at least one dataset required")
    rows = []
    skipped: dict[str, int] = {}
    for dataset in datasets:
        for mut in models:
            scores = dataset_scores(mut, dataset, k, cache_dir=cache_dir)
            skipped[dataset.name] = scores["skipped_queries"]
            rows.append({"dataset": dataset.name, "model": mut.name,
                         "metric": f"ndcg@{k}",
                         "value": 100.0 * scores["ndcg"]})
            rows.append({"dataset": dataset.name, "model": mut.name,
                         "metric": f"recall@{k}",
                         "value": 100.0 * scores["recall"]})
    rows.sort(key=lambda r: (r["dataset"], r["model"]))
    metadata = {
        "k": k,
        "checkpoint_hashes": {m.name: m.checkpoint_hash for m in models},
        "tokenizer_hashes": {m.name: tokenizer_fingerprint(m.tokenizer)
                             for m in models},
        "skipped_queries": skipped,
    }
    return EvalReport(rows=rows, metadata=metadata)


def render_table(report: EvalReport) -> str:
    """Aligned plain-text table, one line per (dataset, metric), one column
    per model; the best value on each line is starred."""
    models: list[str] = []
    cells: dict[tuple[str, str], dict[str, float]] = {}
    line_keys: list[tuple[str, str]] = []
    for row in report.rows:
        if row["model"] not in models:
            models.append(row["model"])
        key = (row["dataset"], row["metric"])
        if key not in cells:
            cells[key] = {}
            line_keys.append(key)
        cells[key][row["model"]] = row["value"]
    lines = []
    for dataset, metric in line_keys:
        values = cells[(dataset, metric)]
        best = max(values.values())
        rendered = []
        for name in models:
            if name not in values:
                rendered.append("-")
                continue
            text = f"{values[name]:.2f}"
            rendered.append("*" + text if values[name] == best else text)
        lines.append([dataset, metric] + rendered)
    header = ["dataset", "metric"] + models
    widths = [max(len(header[c]), *(len(line[c]) for line in lines)) if lines
              else len(header[c]) for c in range(len(header))]
    def fmt(parts):
        left = [parts[0].ljust(widths[0]), parts[1].ljust(widths[1])]
        right = [parts[i].rjust(widths[i]) for i in range(2, len(parts))]
        return "  ".join(left + right).rstrip()
    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(line) for line in lines)
    return "\n".join(out) + "\n"


def save_report(path: Path, report: EvalReport) -> None:
    atomic_write_text(Path(path), json.dumps(report.to_dict(), indent=2,
                                             sort_keys=True) + "\n")


def load_report(path: Path) -> EvalReport:
    with open(path, "r", encoding="utf-8") as fh:
        return EvalReport.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# dataset files

def load_dataset(directory: Path, name: str | None = None) -> RetrievalDataset:
    """Read a dataset directory. Its name is, in order of preference, the
    name argument, the one dataset.json records, or the directory's name."""
    directory = Path(directory)
    queries = _read_id_text(directory / "queries.jsonl")
    corpus = _read_id_text(directory / "corpus.jsonl")
    qrels: dict[str, dict[str, int]] = {}
    for blob in read_jsonl(directory / "qrels.jsonl"):
        qrels.setdefault(str(blob["qid"]), {})[str(blob["did"])] = int(blob["rel"])
    if name is None:
        info = directory / "dataset.json"
        if info.exists():
            with open(info, "r", encoding="utf-8") as fh:
                name = str(json.load(fh)["name"])
        else:
            name = directory.name
    return RetrievalDataset(name=name, queries=queries, corpus=corpus, qrels=qrels)


def save_dataset(directory: Path, dataset: RetrievalDataset) -> None:
    directory = Path(directory)
    atomic_write_text(directory / "dataset.json",
                      json.dumps({"name": dataset.name}, ensure_ascii=False) + "\n")
    _write_id_text(directory / "queries.jsonl", dataset.queries)
    _write_id_text(directory / "corpus.jsonl", dataset.corpus)
    write_jsonl(directory / "qrels.jsonl",
                ({"qid": qid, "did": did, "rel": dataset.qrels[qid][did]}
                 for qid in sorted(dataset.qrels)
                 for did in sorted(dataset.qrels[qid])))


def _read_id_text(path: Path) -> dict[str, str]:
    table: dict[str, str] = {}
    for blob in read_jsonl(path):
        key = str(blob["id"])
        if key in table:
            raise ValueError(f"duplicate id {key!r} in {path}")
        table[key] = blob["text"]
    return table


def _write_id_text(path: Path, table: Mapping[str, str]) -> None:
    write_jsonl(path, ({"id": key, "text": table[key]} for key in sorted(table)))
