"""Retrieval evaluation: cosine ranking, graded nDCG, recall, and
model-comparison reports.

Ranking runs on _top_k, the top-k scorer that hard-negative mining
shares. It scores in float64, one matrix product per block of queries
over the distinct corpus rows, so equal rows get one score and exact ties
stay ties; ties break by ascending row index, which is doc id order here.

A dataset is three JSON-lines files in one directory: queries.jsonl and
corpus.jsonl with {"id", "text"}, and qrels.jsonl with {"qid", "did",
"rel"}; every id is a JSON string and rel is a non-negative integer grade.
An optional dataset.json names it. Reports carry raw rows (percent scale)
plus enough metadata to trace which checkpoint produced them.

With a cache directory (MEDEIR_CACHE for the CLI), work is kept across
runs: corpus embeddings as <checkpoint>-<tokenizer>-<corpus>.npz, and the
parsed dataset files as dataset-<sha256>.json, keyed by the files' bytes,
so a warm run embeds no corpus document and parses no JSON line. An entry
that cannot be read, or does not fit what it stands for, is a miss and is
rewritten.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .checkpoint import (atomic_write_bytes, atomic_write_text, id_field, id_text,
                         numbered_jsonl, read_json_object, write_jsonl)
# embed_text is not called here; perfbench/spans.py wraps it by this name
from .model import EncoderModel, embed_text, embed_texts  # noqa: F401
from .tokenizer import CONTINUATION_PREFIX, TokenizerModel

REPORT_VERSION = 1


@dataclass(frozen=True)
class RetrievalDataset:
    name: str
    queries: dict[str, str]
    corpus: dict[str, str]
    qrels: dict[str, dict[str, int]]

    def __post_init__(self):
        """The rules a parse of the dataset files enforces: a cached copy
        that breaks one is rejected like a file that does."""
        if not self.queries:
            raise ValueError(f"dataset {self.name!r} has no queries")
        for table in (self.queries, self.corpus):
            for key, text in table.items():
                if type(text) is not str:
                    raise ValueError(f"text of {key!r} must be a string, got {text!r}")
        for qid, rels in self.qrels.items():
            if qid not in self.queries:
                raise ValueError(f"qrels references unknown query {qid!r}")
            if type(rels) is not dict:
                raise ValueError(f"qrels of {qid!r} must be an object, got {rels!r}")
            for did, rel in rels.items():
                if did not in self.corpus:
                    raise ValueError(f"qrels references unknown doc {did!r}")
                if type(rel) is not int:  # a bool is not a grade
                    raise ValueError(f"relevance grade for {did!r} must be an "
                                     f"integer, got {rel!r}")
                if rel < 0:
                    raise ValueError(f"negative relevance grade for {did!r}")


@dataclass(frozen=True)
class ModelUnderTest:
    """A named embedder: what comparison rows refer to by `model`."""

    name: str
    model: EncoderModel
    tokenizer: TokenizerModel
    checkpoint_hash: str = ""


# ---------------------------------------------------------------------------
# embedding cache

def default_cache_dir() -> Path | None:
    value = os.environ.get("MEDEIR_CACHE", "")
    return Path(value) if value else None


def tokenizer_fingerprint(tokenizer: TokenizerModel) -> str:
    payload = "\n".join(tokenizer.vocab.tokens).encode("utf-8")
    # The suffix names the fixed continuation prefix and lowercasing; it stays
    # in the hashed bytes so earlier cache keys and report hashes still match.
    extras = f"|{CONTINUATION_PREFIX}|True"
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
        matrix = _cached_embeddings(cache_path, doc_ids, mut.model.config.hidden)
        if matrix is not None:
            return doc_ids, matrix
    matrix = embed_texts(mut.model, mut.tokenizer, [corpus[did] for did in doc_ids])
    if cache_path is not None:
        buffer = io.BytesIO()
        np.savez(buffer, ids=np.array(doc_ids), embeddings=matrix)
        atomic_write_bytes(cache_path, (buffer.getbuffer(),))
    return doc_ids, matrix


def _cached_embeddings(path: Path, doc_ids: list[str], width: int) -> np.ndarray | None:
    """The embeddings matrix of a cache entry, or None when the entry is
    missing, np.load cannot read it, or its ids or matrix shape do not fit
    doc_ids and width: a miss, which the caller rewrites."""
    try:
        with np.load(path) as blob:
            if [str(x) for x in blob["ids"]] == doc_ids:
                matrix = blob["embeddings"]
                if matrix.shape == (len(doc_ids), width):
                    return matrix
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        pass
    return None


# ---------------------------------------------------------------------------
# ranking and metrics

# Most floats one block of scores may hold, (queries in the block) x (rows);
# more queries are scored over several blocks.
_SCORE_FLOATS = 1 << 22


def _top_k(queries: np.ndarray, rows: np.ndarray, k: int,
           band: tuple[float, float] | None = None,
           exclude: Sequence[int] | None = None) -> list[np.ndarray]:
    """For each query, the indices of its k highest-scoring rows, best
    first, equal scores by ascending index.

    A score is a float64 dot product. The distinct rows are scored, one GEMM
    per block of queries, and the scores gathered back, so identical rows
    get one score and exact ties stay ties whatever order the GEMM sums in.
    A row scoring outside the inclusive band, or the row exclude[i] for
    query i (-1 for none), is never chosen, so a query may get fewer than k.
    """
    n = len(rows)
    # adding 0.0 turns -0.0 into +0.0, so rows equal as floats are equal as
    # bytes; np.unique over one void item per row is np.unique(axis=0)
    # without its per-field compares, 3x faster at 100k x 128
    rows = np.add(rows, 0.0, dtype=np.float64, order="C")
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = rows[first]
    queries = np.asarray(queries, dtype=np.float64)
    step = max(1, _SCORE_FLOATS // n)
    chosen = []
    for start in range(0, len(queries), step):
        scores = (queries[start:start + step] @ distinct.T)[:, inverse]
        if band is not None:
            scores[(scores < band[0]) | (scores > band[1])] = -np.inf
        if exclude is not None:
            skip = np.asarray(exclude[start:start + step], dtype=np.int64)
            hit = np.flatnonzero(skip >= 0)
            scores[hit, skip[hit]] = -np.inf
        if k < n:
            kth = np.partition(scores, n - k, axis=1)[:, n - k]
        else:
            kth = np.full(len(scores), -np.inf)
        for row, floor in zip(scores, kth):
            # every row scoring at least the k-th best, -inf ones never;
            # flatnonzero is ascending, so the stable sort breaks ties by index
            idx = np.flatnonzero(row >= floor if floor > -np.inf else row > floor)
            chosen.append(idx[np.argsort(-row[idx], kind="stable")][:k])
    return chosen


def retrieval_run(mut: ModelUnderTest, dataset: RetrievalDataset, k: int,
                  cache_dir: Path | None = None) -> dict[str, list[str]]:
    """Top-k corpus doc ids per query, by descending cosine; ties broken
    by doc id ascending. The corpus is embedded once per run."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset.corpus:
        raise ValueError(f"dataset {dataset.name!r} has an empty corpus")
    doc_ids, matrix = _embed_corpus(mut, dataset.corpus, cache_dir)
    qids = sorted(dataset.queries)
    queries = embed_texts(mut.model, mut.tokenizer, [dataset.queries[q] for q in qids])
    # doc_ids is sorted, so ties break by doc id
    return {qid: [doc_ids[i] for i in top]
            for qid, top in zip(qids, _top_k(queries, matrix, k))}


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

def compare_models(models: Sequence[ModelUnderTest],
                   datasets: Sequence[RetrievalDataset], k: int = 10,
                   cache_dir: Path | None = None) -> dict:
    """A report: {"version", "rows", "metadata"}, the rows holding the
    mean-over-queries metrics of every (model, dataset) combination in
    percent, stable-sorted by (dataset, model)."""
    if not models:
        raise ValueError("at least one model required")
    if not datasets:
        raise ValueError("at least one dataset required")
    # rows are keyed by name, so two inputs of one name would merge
    for kind, names in (("models", [m.name for m in models]),
                        ("datasets", [d.name for d in datasets])):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ValueError(f"two {kind} are named {repeated[0]!r}")
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
    return {"version": REPORT_VERSION, "rows": rows, "metadata": metadata}


def render_table(report: dict) -> str:
    """Aligned plain-text table, one line per (dataset, metric), one column
    per model; the best value on each line is starred. Every model has a
    value on every line, as compare_models gives."""
    models: list[str] = []
    cells: dict[tuple[str, str], dict[str, float]] = {}
    line_keys: list[tuple[str, str]] = []
    for row in report["rows"]:
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


def save_report(path: Path, report: dict) -> None:
    atomic_write_text(Path(path), json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# dataset files

_DATASET_FILES = ("queries", "corpus", "qrels")


def load_dataset(directory: Path, cache_dir: Path | None = None) -> RetrievalDataset:
    """Read a dataset directory. Its name is the one dataset.json records,
    or else the directory's name.

    Each of the three JSON-lines files is read once. With a cache_dir, a
    parsed copy of them is kept there as dataset-<key>.json, the key being
    the sha256 of the three files' sha256 digests, taken over the bytes
    that are parsed. A later load of the same bytes decodes that entry in
    one json.loads instead of parsing them line by line, and writes
    nothing; an entry that does not decode to three tables that
    RetrievalDataset accepts is a miss and is rewritten.
    """
    directory = Path(directory)
    paths = [directory / f"{part}.jsonl" for part in _DATASET_FILES]
    blobs = [path.read_bytes() for path in paths]
    if cache_dir is not None:
        entry = _dataset_entry(cache_dir, [hashlib.sha256(b).hexdigest() for b in blobs])
        tables = _read_dataset_entry(entry)
        if tables is not None:
            name = _dataset_name(directory)
            try:
                return RetrievalDataset(name, *tables)
            except ValueError:
                pass  # not what a parse gives: a miss
    tables = _parse_dataset(paths, blobs)
    dataset = RetrievalDataset(_dataset_name(directory), *tables)
    if cache_dir is not None:
        atomic_write_bytes(entry, _dataset_entry_chunks(tables))
    return dataset


def _grade(queries: dict, corpus: dict, row: dict) -> tuple[str, str, int]:
    """A qrels row's query id, doc id and grade; both ids must be known."""
    rel = row.get("rel")
    if type(rel) is not int or rel < 0:  # a bool is not a grade
        raise ValueError(f"'rel' must be an integer >= 0, got {rel!r}")
    qid, did = id_field(row, "qid"), id_field(row, "did")
    if qid not in queries:
        raise ValueError(f"qrels references unknown query {qid!r}")
    if did not in corpus:
        raise ValueError(f"qrels references unknown doc {did!r}")
    return qid, did, rel


def _parse_dataset(paths: Sequence[Path], blobs: Sequence[bytes]) -> tuple[dict, dict, dict]:
    """The queries, corpus and qrels tables parsed from each file's bytes."""
    queries = dict(numbered_jsonl(paths[0], functools.partial(id_text, seen=set()), blobs[0]))
    corpus = dict(numbered_jsonl(paths[1], functools.partial(id_text, seen=set()), blobs[1]))
    qrels: dict[str, dict[str, int]] = {}
    grade = functools.partial(_grade, queries, corpus)
    for qid, did, rel in numbered_jsonl(paths[2], grade, blobs[2]):
        qrels.setdefault(qid, {})[did] = rel
    return queries, corpus, qrels


def _dataset_name(directory: Path) -> str:
    info = directory / "dataset.json"
    if not info.exists():
        return directory.name
    name = read_json_object(info).get("name")
    if type(name) is not str:
        raise ValueError(f"{info}: 'name' must be a string, got {name!r}")
    return name


def _dataset_entry(cache_dir: Path, file_digests: Sequence[str]) -> Path:
    key = hashlib.sha256("".join(file_digests).encode("ascii")).hexdigest()
    return Path(cache_dir) / f"dataset-{key}.json"


def _read_dataset_entry(path: Path) -> tuple[dict, dict, dict] | None:
    """The three tables of a cache entry, or None when it is missing, does
    not decode, or its top level is not the three objects; what they hold
    is checked by RetrievalDataset."""
    try:
        blob = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None
    if (not isinstance(blob, dict) or blob.keys() != set(_DATASET_FILES)
            or not all(isinstance(table, dict) for table in blob.values())):
        return None
    return tuple(blob[part] for part in _DATASET_FILES)


def _dataset_entry_chunks(tables: Sequence[dict]) -> Iterator[bytes]:
    """A cache entry's JSON object, one chunk per table. json.dumps escapes
    every non-ASCII character, so a lone surrogate survives the UTF-8 file."""
    opener = b"{"
    for part, table in zip(_DATASET_FILES, tables):
        yield opener + f'"{part}":'.encode("ascii")
        yield json.dumps(table, separators=(",", ":")).encode("ascii")
        opener = b","
    yield b"}"


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


def _write_id_text(path: Path, table: Mapping[str, str]) -> None:
    write_jsonl(path, ({"id": key, "text": table[key]} for key in sorted(table)))
