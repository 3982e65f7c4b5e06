#!/usr/bin/env python3
"""Show that every correctness check accepts a right output and rejects a
deliberately corrupted one. Needs numpy only; runs in about a second:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def _pack(doc_ids, sep, chunk_len, min_tail):
    """A packer written from the rule the check states."""
    stream = []
    for ids in doc_ids:
        if len(stream) % chunk_len:
            stream.append(sep)
        stream.extend(ids)
    chunks = [stream[i:i + chunk_len] for i in range(0, len(stream), chunk_len)]
    return chunks if len(chunks[-1]) >= min_tail else chunks[:-1]


def _mine(pairs, corpus, q_embs, c_embs, per_query, band):
    records = []
    for (query, positive), q in zip(pairs, q_embs):
        sims = c_embs.astype(np.float64) @ q.astype(np.float64)
        cands = sorted((-s, i) for i, s in enumerate(sims)
                       if corpus[i] != positive and band[0] <= s <= band[1])
        negs = [corpus[i] for _, i in cands[:per_query]]
        records.append({"query": query, "positive": positive, "negatives": negs,
                        "flagged": len(negs) < per_query})
    return records


def cases():
    """(name, check, good args, corrupted args) for every check."""
    rng = np.random.default_rng(0)
    out = []

    doc_ids = [[5, 6, 7], [8, 9, 10, 11, 12], [13, 14], [15, 16, 17, 18, 19, 20]]
    chunks = _pack(doc_ids, 3, 4, 2)
    bad_id = copy.deepcopy(chunks)
    bad_id[1][2] = 99
    shifted = [c[:] for c in chunks]
    shifted[-1] = shifted[-1][:-1]
    out.append(("pack ids", checks.check_pack, (chunks, doc_ids, 3, 4, 2),
                (bad_id, doc_ids, 3, 4, 2)))
    out.append(("pack lengths", checks.check_pack, (chunks, doc_ids, 3, 4, 2),
                (shifted, doc_ids, 3, 4, 2)))

    ln_v = math.log(400)
    log = [{"loss": ln_v + 0.01}, {"loss": ln_v - 0.3}]
    out.append(("mlm first loss", checks.check_mlm_log, (log, 400, 2),
                ([{"loss": ln_v + 1.0}, {"loss": ln_v - 0.3}], 400, 2)))
    out.append(("mlm final loss", checks.check_mlm_log, (log, 400, 2),
                ([{"loss": ln_v}, {"loss": float("nan")}], 400, 2)))

    embs = _unit_rows(rng, 6, 8)
    scaled = embs.copy()
    scaled[2] *= 1.1
    out.append(("embedding norm", checks.check_embeddings, (embs, 8, "x"), (scaled, 8, "x")))
    out.append(("embedding dim", checks.check_embeddings, (embs, 8, "x"), (embs[:, :7], 8, "x")))

    pairs = [(f"q{i}", f"p{i}") for i in range(10)]
    sims = rng.uniform(0, 1, 10)
    low = int(np.argmin(sims))
    kept = [{"query": q, "positive": p, "similarity": float(sims[i])}
            for i, (q, p) in enumerate(pairs) if i != low]
    wrong = [{"query": q, "positive": p, "similarity": float(sims[i])}
             for i, (q, p) in enumerate(pairs) if i != int(np.argmax(sims))]
    out.append(("filter drops the lowest", checks.check_filter, (pairs, kept, sims, 0.1),
                (pairs, wrong, sims, 0.1)))
    moved = copy.deepcopy(kept)
    moved[0]["similarity"] += 0.01
    out.append(("filter similarity", checks.check_filter, (pairs, kept, sims, 0.1),
                (pairs, moved, sims, 0.1)))

    corpus = [f"c{i}" for i in range(30)]
    c_embs = _unit_rows(rng, 30, 8)
    m_pairs = [(f"mq{i}", corpus[i]) for i in range(5)]
    q_embs = _unit_rows(rng, 5, 8)
    band = (-0.2, 0.6)
    records = _mine(m_pairs, corpus, q_embs, c_embs, 4, band)
    full = next(i for i, r in enumerate(records) if len(r["negatives"]) >= 2)

    def corrupt(fn):
        bad = copy.deepcopy(records)
        fn(bad[full])
        return (bad, m_pairs, corpus, q_embs, c_embs, 4, band)

    good = (records, m_pairs, corpus, q_embs, c_embs, 4, band)
    out.append(("mine positive", checks.check_mine, good,
                corrupt(lambda r: r["negatives"].__setitem__(0, r["positive"]))))
    out.append(("mine order", checks.check_mine, good,
                corrupt(lambda r: r["negatives"].reverse())))
    out.append(("mine flag", checks.check_mine, good,
                corrupt(lambda r: r.__setitem__("flagged", not r["flagged"]))))
    out.append(("mine skipped candidate", checks.check_mine, good,
                corrupt(lambda r: r["negatives"].pop(0))))

    doc_ids_e = [f"d{i:02d}" for i in range(20)]
    d_embs = _unit_rows(rng, 20, 8)
    qe = _unit_rows(rng, 4, 8)
    qids = [f"q{i}" for i in range(4)]
    expected, sim_matrix = checks.numpy_ranking(qe, doc_ids_e, d_embs, 5)
    ranked = dict(zip(qids, expected))
    swapped = {q: list(v) for q, v in ranked.items()}
    swapped["q1"][0], swapped["q1"][3] = swapped["q1"][3], swapped["q1"][0]
    out.append(("ranking", checks.check_ranking,
                (ranked, qids, doc_ids_e, expected, sim_matrix),
                (swapped, qids, doc_ids_e, expected, sim_matrix)))

    qrels = {q: {expected[i][i % 5]: 1, "d19": 2} for i, q in enumerate(qids)}
    ndcg, recall = checks.ndcg_recall(expected, qids, qrels, 5)
    report = {"rows": [{"metric": "ndcg@5", "value": ndcg},
                       {"metric": "recall@5", "value": recall}]}
    off = copy.deepcopy(report)
    off["rows"][0]["value"] += 0.5
    out.append(("report", checks.check_report, (report, ndcg, recall, 5),
                (off, ndcg, recall, 5)))

    stat = (("a.npz", 1, 2, 3),)
    out.append(("warm cache", checks.check_warm,
                (ranked, ranked, report, report, stat, stat),
                (ranked, ranked, report, report, stat, (("a.npz", 4, 5, 3),))))
    out.append(("warm ranking", checks.check_warm,
                (ranked, ranked, report, report, stat, stat),
                (ranked, swapped, report, report, stat, stat)))

    out.append(("quality", checks.check_quality, (33.3, 18.5), (18.5, 18.5)))
    return out


def main() -> int:
    failures = []
    all_cases = cases()
    for name, check, good, bad in all_cases:
        if _rejects(check, *good):
            failures.append(f"{name}: rejected a right output")
        if not _rejects(check, *bad):
            failures.append(f"{name}: accepted a corrupted output")
    for line in failures:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {len(all_cases) - len(failures)} of {len(all_cases)} checks "
          f"accept right outputs and reject corrupted ones")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
