"""The two benchmark workloads and their seeded input generators.

Every input a workload feeds to the pipeline comes from `make_inputs(seed)`:
the same seed gives the same texts, pairs, records and retrieval dataset.
The model is always initialised from a fixed seed, so the seed varies the
data and nothing else.

long-docs    a ~30k-token merged vocabulary of generated words, 512-token
             MLM chunks, passage-length pairs and an eval corpus of long
             documents (2-3x the training length). Time goes to numpy.
short-pairs  a ~400-token WordPiece vocabulary trained from the bundled
             corpus, texts of about 30 tokens and an eval corpus of
             thousands of short documents. Time goes to Python overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict              # ModelConfig fields except vocab_size
    chunk_len: int
    min_tail: int
    mlm: dict                # StageConfig fields except stage
    contrastive: dict
    hardneg: dict
    negatives: int           # negatives per generated hard-negative record
    drop_fraction: float
    per_query: int
    band: tuple[float, float]
    k: int = 10
    vocab_size: int = 400    # `tokenizer train --size` (short-pairs only)
    fault: bool = False      # also run `train hardneg` on mined records
    repeats: dict = field(default_factory=dict)  # stage -> calls per round


@dataclass
class Inputs:
    docs: list[tuple[str, str]]                 # packing / MLM corpus
    doc_ids: list[list[int]] | None             # generator's own token ids
    pairs: list[tuple[str, str]]                # contrastive pairs
    records: list[tuple[str, str, list[str]]]   # full hard-negative records
    filter_pairs: list[tuple[str, str]]
    mine_pairs: list[tuple[str, str]]
    mine_corpus: list[tuple[str, str]]
    queries: dict[str, str]
    corpus: dict[str, str]
    qrels: dict[str, dict[str, int]]
    vocab_files: dict[str, list[str]] = field(default_factory=dict)


LONG_DOCS = Workload(
    name="long-docs",
    model=dict(hidden=128, layers=2, heads=4, ffn_dim=512, num_projections=4,
               max_train_len=512, max_infer_len=2048),
    chunk_len=512, min_tail=64,
    mlm=dict(total_steps=3, peak_lr=1e-3, beta1=0.9, beta2=0.98,
             global_batch=1, grad_accum=1, warmup_fraction=0.3, max_len=512,
             mask_rate=0.3, seed=MODEL_SEED),
    contrastive=dict(total_steps=8, peak_lr=1e-3, beta1=0.9, beta2=0.98,
                     global_batch=16, grad_accum=1, warmup_fraction=0.3,
                     max_len=128, temperature=0.05, seed=MODEL_SEED),
    hardneg=dict(total_steps=4, peak_lr=1e-3, beta1=0.9, beta2=0.98,
                 global_batch=4, grad_accum=1, warmup_fraction=0.3,
                 max_len=128, temperature=0.05, seed=MODEL_SEED),
    negatives=3, drop_fraction=0.1, per_query=4, band=(0.3, 0.9),
    repeats=dict(pack=12, filter=3, mine=2, eval_warm=3),
)

SHORT_PAIRS = Workload(
    name="short-pairs",
    model=dict(hidden=32, layers=2, heads=2, ffn_dim=64, num_projections=2,
               max_train_len=64, max_infer_len=128),
    chunk_len=64, min_tail=16,
    mlm=dict(total_steps=20, peak_lr=3e-4, beta1=0.9, beta2=0.98,
             global_batch=4, grad_accum=1, warmup_fraction=0.1, max_len=64,
             mask_rate=0.3, seed=MODEL_SEED),
    contrastive=dict(total_steps=40, peak_lr=5e-4, beta1=0.9, beta2=0.98,
                     global_batch=16, grad_accum=1, warmup_fraction=0.1,
                     max_len=64, temperature=0.05, seed=MODEL_SEED),
    hardneg=dict(total_steps=6, peak_lr=5e-4, beta1=0.9, beta2=0.98,
                 global_batch=8, grad_accum=1, warmup_fraction=0.1,
                 max_len=64, temperature=0.05, seed=MODEL_SEED),
    negatives=3, drop_fraction=0.1, per_query=5, band=(0.3, 0.9),
    vocab_size=400, fault=True,
    repeats=dict(pack=12, mlm=3, hardneg=3, filter=4, mine=3, eval_warm=3),
)

WORKLOADS = {w.name: w for w in (LONG_DOCS, SHORT_PAIRS)}


# ---------------------------------------------------------------------------
# long-docs: generated vocabulary and texts made of whole vocabulary words

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_SUFFIXES = ("itis", "osis", "emia", "ectomy", "plasty", "ase", "ine",
             "umab", "pril", "olol")


def _fresh_words(rng: np.random.Generator, count: int, syllables: tuple[int, int],
                 suffixes: tuple[str, ...], taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        n = int(rng.integers(syllables[0], syllables[1] + 1))
        word = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                       + _VOWELS[rng.integers(len(_VOWELS))] for _ in range(n))
        if suffixes:
            word += suffixes[rng.integers(len(suffixes))]
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _alphabet() -> list[str]:
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return list(SPECIALS) + letters + ["##" + c for c in letters]


def _long_docs_inputs(seed: int) -> Inputs:
    # The vocabulary and the topic pools are fixed; the seed draws the texts.
    fixed = np.random.default_rng(0)
    taken: set[str] = set()
    base_words = _fresh_words(fixed, 20000, (2, 3), (), taken)
    domain_words = _fresh_words(fixed, 9500, (2, 3), _SUFFIXES, taken)
    # A few domain entries repeat base words, so the merge has to dedup.
    repeats = [base_words[i] for i in fixed.choice(len(base_words), 500, replace=False)]
    base = _alphabet() + base_words
    domain = _alphabet() + domain_words + repeats
    merged = list(base)
    seen = set(merged)
    for tok in domain:
        if tok not in seen:
            merged.append(tok)
            seen.add(tok)
    id_of = {tok: i for i, tok in enumerate(merged)}

    zipf = 1.0 / (np.arange(len(base_words)) + 10.0)
    zipf /= zipf.sum()
    # Topics pair a query-side and a document-side word pool with no word in
    # common, so a query matches its documents only once training has tied
    # the two pools together.
    n_topics, pool = 6, 6
    topic_words = [domain_words[i] for i in
                   fixed.choice(len(domain_words), 2 * pool * n_topics, replace=False)]
    topics = [(topic_words[2 * pool * t:2 * pool * t + pool],
               topic_words[2 * pool * t + pool:2 * pool * (t + 1)]) for t in range(n_topics)]
    rng = np.random.default_rng([seed, 1])

    def text(pool: list[str], n: int, share: float) -> list[str]:
        n_topic = int(round(share * n))
        words = [pool[i] for i in rng.integers(0, len(pool), n_topic)]
        words += [base_words[i] for i in rng.choice(len(base_words), n - n_topic, p=zipf)]
        return [words[i] for i in rng.permutation(n)]

    def passage(t: int) -> str:
        return " ".join(text(topics[t][1], 96, 0.25))

    def pair() -> tuple[str, str]:
        t = int(rng.integers(len(topics)))
        return " ".join(text(topics[t][0], 16, 0.6)), passage(t)

    docs, doc_ids = [], []
    for i in range(48):
        t = int(rng.integers(len(topics)))
        words = text(topics[t][0] + topics[t][1], int(rng.integers(800, 1200)), 0.2)
        docs.append((f"doc-{i:04d}", " ".join(words)))
        doc_ids.append([id_of[w] for w in words])

    pairs = [pair() for _ in range(64)]
    records = []
    for _ in range(32):
        t = int(rng.integers(len(topics)))
        others = [o for o in range(len(topics)) if o != t]
        negs = [passage(others[i]) for i in rng.choice(len(others), LONG_DOCS.negatives, replace=False)]
        records.append((" ".join(text(topics[t][0], 16, 0.6)), passage(t), negs))
    filter_pairs = [pair() for _ in range(32)]
    mine_pairs = pairs[:16]
    mine_corpus = [(f"psg-{i:04d}", p) for i, (_, p) in enumerate(pairs)]

    queries, corpus, qrels = {}, {}, {}
    for t in range(len(topics)):
        dids = [f"d{t}-{j}" for j in range(4)]
        for did in dids:
            corpus[did] = " ".join(text(topics[t][1], int(rng.integers(1024, 1537)), 0.25))
        for j in range(32):
            qid = f"q{t}-{j:02d}"
            queries[qid] = " ".join(text(topics[t][0], 16, 0.6))
            qrels[qid] = {did: 1 for did in dids}
    return Inputs(docs=docs, doc_ids=doc_ids, pairs=pairs, records=records,
                  filter_pairs=filter_pairs, mine_pairs=mine_pairs,
                  mine_corpus=mine_corpus, queries=queries, corpus=corpus,
                  qrels=qrels, vocab_files={"base": base, "domain": domain})


# ---------------------------------------------------------------------------
# short-pairs: texts made of words from the bundled corpus

def _short_pairs_inputs(seed: int, corpus_words: list[str]) -> Inputs:
    # As in long-docs, each topic has disjoint query-side and document-side
    # word pools; here texts carry no background words. The pools are fixed
    # and the seed draws the texts.
    fixed = np.random.default_rng(0)
    words = [corpus_words[i] for i in fixed.permutation(len(corpus_words))]
    rng = np.random.default_rng([seed, 2])
    n_topics, pool = 4, 4
    topics = [(words[2 * pool * t:2 * pool * t + pool],
               words[2 * pool * t + pool:2 * pool * (t + 1)]) for t in range(n_topics)]

    def text(words: list[str], n: int) -> str:
        return " ".join(words[i] for i in rng.integers(0, len(words), n))

    def pair(t: int | None = None) -> tuple[str, str]:
        t = int(rng.integers(n_topics)) if t is None else t
        return text(topics[t][0], 3), text(topics[t][1], 5)

    def negatives(t: int, n: int) -> list[str]:
        others = [o for o in range(n_topics) if o != t]
        return [text(topics[o][1], 5) for o in rng.choice(others, n, replace=False)]

    docs = []
    for i in range(2000):
        t = int(rng.integers(n_topics))
        docs.append((f"doc-{i:05d}", text(topics[t][0] + topics[t][1], 6)))
    pairs = [pair() for _ in range(1024)]
    records = []
    for _ in range(256):
        t = int(rng.integers(n_topics))
        q, p = pair(t)
        records.append((q, p, negatives(t, SHORT_PAIRS.negatives)))
    filter_pairs = [pair() for _ in range(200)]
    mine_pairs = [pair() for _ in range(50)]
    mine_corpus = [(f"m{i:05d}", p) for i, (_, p) in enumerate(mine_pairs)]
    mine_corpus += [(f"m{i:05d}", pair()[1]) for i in range(50, 500)]

    queries, corpus, qrels = {}, {}, {}
    by_topic: dict[int, list[str]] = {}
    for i in range(2000):
        t = i % n_topics
        did = f"d{i:05d}"
        corpus[did] = text(topics[t][1], 5)
        by_topic.setdefault(t, []).append(did)
    for i in range(200):
        t = i % n_topics
        qid = f"q{i:04d}"
        queries[qid] = text(topics[t][0], 3)
        qrels[qid] = {did: 1 for did in by_topic[t]}
    return Inputs(docs=docs, doc_ids=None, pairs=pairs, records=records,
                  filter_pairs=filter_pairs, mine_pairs=mine_pairs,
                  mine_corpus=mine_corpus, queries=queries, corpus=corpus,
                  qrels=qrels)


def make_inputs(workload: Workload, seed: int,
                corpus_words: list[str] | None = None) -> Inputs:
    if workload.name == LONG_DOCS.name:
        return _long_docs_inputs(seed)
    if corpus_words is None:
        raise ValueError("short-pairs needs the bundled corpus words")
    return _short_pairs_inputs(seed, corpus_words)
