"""Correctness checks for every stage's output.

Each check takes plain data (id lists, log records, numpy arrays, parsed
JSONL) and raises CheckError on the first property that does not hold. The
expected values come from the generator's own records or from numpy
recomputations, not from the code paths that produced the outputs.
`selftest.py` shows that each check rejects a corrupted output.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

UNIT_NORM_TOL = 1e-4
SIM_TOL = 1e-5


class CheckError(Exception):
    """An output of the pipeline is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_pack(chunks: Sequence[Sequence[int]], doc_ids: Sequence[Sequence[int]],
               sep_id: int, chunk_len: int, min_tail: int) -> None:
    """Chunk lengths and [SEP] count follow from the per-document token
    counts, and the ids are the documents' own ids in order.

    A [SEP] precedes every document but the first, except one that starts
    exactly on a chunk boundary: the packer only separates documents that
    share a chunk.
    """
    counts = [len(ids) for ids in doc_ids if ids]
    stream_len = 0
    sep_positions = []
    for n in counts:
        if stream_len % chunk_len:
            sep_positions.append(stream_len)
            stream_len += 1
        stream_len += n
    full, tail = divmod(stream_len, chunk_len)
    lengths = [chunk_len] * full + ([tail] if tail >= min_tail else [])
    _require([len(c) for c in chunks] == lengths,
             f"pack: chunk lengths {[len(c) for c in chunks][:8]}... "
             f"do not follow from {len(counts)} documents of {sum(counts)} tokens")
    kept = sum(lengths)
    expected_seps = sum(1 for p in sep_positions if p < kept)
    seps = sum(list(c).count(sep_id) for c in chunks)
    _require(seps == expected_seps,
             f"pack: {seps} [SEP] ids, expected {expected_seps}")
    stream: list[int] = []
    for ids in doc_ids:
        if not ids:
            continue
        if len(stream) % chunk_len:
            stream.append(sep_id)
        stream.extend(ids)
    flat = [i for c in chunks for i in c]
    _require(flat == stream[:kept], "pack: chunk ids differ from the documents' ids")


def check_mlm_log(records: Sequence[Mapping], vocab_size: int, steps: int,
                  tolerance: float = 0.02) -> None:
    """First loss is ln V (uniform-gate initialisation); the last is finite
    and lower than the first."""
    losses = [r["loss"] for r in records if "loss" in r]
    _require(len(losses) == steps, f"mlm: {len(losses)} logged steps, expected {steps}")
    first, last = losses[0], losses[-1]
    expected = math.log(vocab_size)
    _require(abs(first - expected) <= tolerance * expected,
             f"mlm: first loss {first:.4f} is not ln V = {expected:.4f}")
    _require(math.isfinite(last) and last < first,
             f"mlm: final loss {last} is not finite and below the first {first}")


def check_train_log(records: Sequence[Mapping], steps: int, stage: str) -> None:
    losses = [r["loss"] for r in records if "loss" in r]
    _require(len(losses) == steps, f"{stage}: {len(losses)} logged steps, expected {steps}")
    _require(all(math.isfinite(x) for x in losses), f"{stage}: non-finite loss")


def check_embeddings(matrix: np.ndarray, dim: int, what: str) -> None:
    """Every row is finite, unit-norm and of the model's hidden size."""
    matrix = np.asarray(matrix)
    _require(matrix.ndim == 2 and matrix.shape[1] == dim,
             f"{what}: embeddings of shape {matrix.shape}, expected (n, {dim})")
    _require(bool(np.all(np.isfinite(matrix))), f"{what}: non-finite embedding")
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    _require(worst <= UNIT_NORM_TOL, f"{what}: embedding norm off by {worst:.2e}")


def check_filter(pairs: Sequence[tuple[str, str]], kept: Sequence[Mapping],
                 sims: np.ndarray, drop_fraction: float) -> None:
    """Exactly floor(f*N) pairs dropped, in-order survivors, every kept
    similarity >= every dropped one, and the stored similarities equal the
    dot products of separately computed embeddings."""
    n = len(pairs)
    n_drop = math.floor(drop_fraction * n)
    _require(len(kept) == n - n_drop,
             f"filter: kept {len(kept)} of {n}, expected {n - n_drop}")
    kept_idx = []
    j = 0
    for rec in kept:
        while j < n and (pairs[j][0], pairs[j][1]) != (rec["query"], rec["positive"]):
            j += 1
        _require(j < n, "filter: kept pairs are not an in-order subset of the input")
        kept_idx.append(j)
        j += 1
    for rec, i in zip(kept, kept_idx):
        _require(abs(rec["similarity"] - float(sims[i])) <= SIM_TOL,
                 f"filter: stored similarity {rec['similarity']} != "
                 f"recomputed {float(sims[i])}")
    dropped = sorted(set(range(n)) - set(kept_idx))
    if dropped and kept_idx:
        lowest_kept = min(float(sims[i]) for i in kept_idx)
        highest_dropped = max(float(sims[i]) for i in dropped)
        _require(lowest_kept >= highest_dropped - SIM_TOL,
                 f"filter: kept similarity {lowest_kept} below dropped "
                 f"{highest_dropped}")


def check_mine(records: Sequence[Mapping], pairs: Sequence[tuple[str, str]],
               corpus: Sequence[str], query_embs: np.ndarray,
               corpus_embs: np.ndarray, per_query: int,
               band: tuple[float, float]) -> None:
    """Negatives are in the band, exclude the positive, are the top in-band
    candidates in descending order of recomputed similarity, and a record is
    flagged exactly when it is short."""
    lo, hi = band
    _require(len(records) == len(pairs),
             f"mine: {len(records)} records for {len(pairs)} pairs")
    index_of: dict[str, int] = {}
    for i, text in enumerate(corpus):
        index_of.setdefault(text, i)
    for rec, (query, positive), q in zip(records, pairs, query_embs):
        _require((rec["query"], rec["positive"]) == (query, positive),
                 "mine: record does not match its pair")
        sims = corpus_embs.astype(np.float64) @ q.astype(np.float64)
        negs = rec["negatives"]
        _require(positive not in negs, "mine: the positive is among the negatives")
        _require(all(n in index_of for n in negs), "mine: negative not in the corpus")
        neg_sims = [float(sims[index_of[n]]) for n in negs]
        _require(all(lo - SIM_TOL <= s <= hi + SIM_TOL for s in neg_sims),
                 f"mine: negative similarity outside the band {band}")
        _require(all(b <= a + SIM_TOL for a, b in zip(neg_sims, neg_sims[1:])),
                 "mine: negatives are not in descending similarity order")
        _require(bool(rec.get("flagged", False)) == (len(negs) < per_query),
                 f"mine: flagged={rec.get('flagged', False)} with {len(negs)} negatives")
        candidates = np.array([s for text, s in zip(corpus, sims) if text != positive])
        inner = int(np.sum((candidates >= lo + SIM_TOL) & (candidates <= hi - SIM_TOL)))
        outer = int(np.sum((candidates >= lo - SIM_TOL) & (candidates <= hi + SIM_TOL)))
        _require(min(per_query, inner) <= len(negs) <= min(per_query, outer),
                 f"mine: {len(negs)} negatives but {inner} in-band candidates")
        if negs:
            unchosen = [s for text, s in zip(corpus, sims)
                        if text != positive and text not in negs
                        and lo + SIM_TOL <= s <= hi - SIM_TOL]
            _require(not unchosen or max(unchosen) <= neg_sims[-1] + SIM_TOL,
                     "mine: a closer in-band candidate was skipped")


def numpy_ranking(query_embs: np.ndarray, doc_ids: Sequence[str],
                  doc_embs: np.ndarray, k: int) -> tuple[list[list[str]], np.ndarray]:
    """Top-k doc ids per query, one matmul then lexsort on (doc id, -sim),
    and the similarity matrix they were ranked by."""
    sims = query_embs.astype(np.float64) @ doc_embs.astype(np.float64).T
    ids = np.asarray(doc_ids)
    return [[doc_ids[j] for j in np.lexsort((ids, -row))[:k]] for row in sims], sims


def check_ranking(ranked: Mapping[str, Sequence[str]], qids: Sequence[str],
                  doc_ids: Sequence[str], expected: Sequence[Sequence[str]],
                  sims: np.ndarray, tie_tol: float = 1e-9) -> None:
    """Each top-k equals the numpy ranking. Documents whose similarities
    differ by less than tie_tol (summation order of the two products) may
    trade places."""
    _require(sorted(ranked) == sorted(qids), "eval: ranked queries differ from the dataset")
    column = {d: j for j, d in enumerate(doc_ids)}
    for qid, exp, row in zip(qids, expected, sims):
        got = list(ranked[qid])
        _require(len(got) == len(exp) and len(set(got)) == len(got),
                 f"eval: top-k of {qid} has the wrong length or repeats a document")
        for a, b in zip(got, exp):
            _require(a == b or abs(row[column[a]] - row[column[b]]) <= tie_tol,
                     f"eval: top-k of {qid} differs from the numpy ranking at {a} vs {b}")


def ndcg_recall(ranking: Sequence[Sequence[str]], qids: Sequence[str],
                qrels: Mapping[str, Mapping[str, int]], k: int) -> tuple[float, float]:
    """Mean nDCG@k (gain 2^rel - 1) and recall@k over queries with a
    relevant document, in percent."""
    ndcgs, recalls = [], []
    for qid, top in zip(qids, ranking):
        rels = qrels.get(qid, {})
        relevant = [r for r in rels.values() if r > 0]
        if not relevant:
            continue
        gains = [(2 ** rels.get(d, 0) - 1) / math.log2(r + 2) for r, d in enumerate(top[:k])]
        ideal = [(2 ** g - 1) / math.log2(r + 2)
                 for r, g in enumerate(sorted(relevant, reverse=True)[:k])]
        ndcgs.append(sum(gains) / sum(ideal))
        recalls.append(sum(1 for d in top[:k] if rels.get(d, 0) > 0) / len(relevant))
    return 100.0 * float(np.mean(ndcgs)), 100.0 * float(np.mean(recalls))


def check_report(report: Mapping, ndcg: float, recall: float, k: int) -> None:
    values = {row["metric"]: row["value"] for row in report["rows"]}
    _require(abs(values.get(f"ndcg@{k}", -1.0) - ndcg) <= 1e-6,
             f"eval: reported nDCG@{k} {values.get(f'ndcg@{k}')} != recomputed {ndcg}")
    _require(abs(values.get(f"recall@{k}", -1.0) - recall) <= 1e-6,
             f"eval: reported recall@{k} {values.get(f'recall@{k}')} != recomputed {recall}")


def check_warm(cold_ranked: Mapping, warm_ranked: Mapping, cold_report: Mapping,
               warm_report: Mapping, cache_before: tuple, cache_after: tuple) -> None:
    """The warm run ranks identically and embeds no corpus document: a cache
    miss always rewrites the cache file, so the file must be untouched."""
    _require(dict(cold_ranked) == dict(warm_ranked), "eval: warm rankings differ from cold")
    _require(cold_report == warm_report, "eval: warm report differs from cold")
    _require(cache_before == cache_after, "eval: the warm run rewrote the embedding cache")


def check_quality(final_ndcg: float, start_ndcg: float) -> None:
    _require(final_ndcg > start_ndcg,
             f"quality: fine-tuned nDCG@10 {final_ndcg:.2f} does not exceed the "
             f"starting checkpoint's {start_ndcg:.2f}")
