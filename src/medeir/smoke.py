"""Synthetic data generators and a small end-to-end pipeline run.

Two generators live here: topic-structured retrieval pairs whose
query/document word pools are disjoint (so an untrained encoder has no
lexical shortcut), and a looping bigram stream for length-extrapolation
checks. run_smoke_pipeline drives the real CLI from raw corpus to an
evaluation report in a few seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import atomic_write_text
from .datapipe import CorpusDocument, SentencePair, write_documents, write_pairs
from .evaluation import RetrievalDataset, save_dataset
from .fixtures import load_mini_corpus
from .model import EncoderModel, ModelConfig, build_model, mlm_loss, save_model
from .tokenizer import (
    MASK_TOKEN,
    SPECIAL_TOKENS,
    EncodedSequence,
    Vocabulary,
    sequence_from_ids,
)


# ---------------------------------------------------------------------------
# topic-pair generator

@dataclass(frozen=True)
class TopicPairData:
    vocab: Vocabulary
    train: tuple[SentencePair, ...]
    dataset: RetrievalDataset


def synthetic_topic_pairs(n_topics: int = 16, train_per_topic: int = 4,
                          eval_per_topic: int = 1, pool_size: int = 5,
                          words_per_text: int = 6, seed: int = 0) -> TopicPairData:
    """Topic-aligned pairs where queries and documents share no words.

    Every topic owns two disjoint word pools; queries sample from one,
    documents from the other. The query-document association is therefore
    invisible to an untrained encoder and must be learned contrastively.
    Held-out texts are fresh samples from the same pools.
    """
    rng = np.random.default_rng(seed)
    query_pools = [[f"qu{t}{chr(97 + j)}" for j in range(pool_size)]
                   for t in range(n_topics)]
    doc_pools = [[f"do{t}{chr(97 + j)}" for j in range(pool_size)]
                 for t in range(n_topics)]

    def sample(pool: list[str]) -> str:
        picks = rng.integers(0, len(pool), size=words_per_text)
        return " ".join(pool[i] for i in picks)

    train = []
    for t in range(n_topics):
        for _ in range(train_per_topic):
            train.append(SentencePair(query=sample(query_pools[t]),
                                      positive=sample(doc_pools[t]),
                                      source_id="synthetic"))
    queries: dict[str, str] = {}
    corpus: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    for t in range(n_topics):
        for k in range(eval_per_topic):
            qid, did = f"q{t:02d}_{k}", f"d{t:02d}_{k}"
            queries[qid] = sample(query_pools[t])
            corpus[did] = sample(doc_pools[t])
            qrels[qid] = {did: 1}
    words = [w for pool in query_pools + doc_pools for w in pool]
    vocab = Vocabulary(list(SPECIAL_TOKENS) + words)
    dataset = RetrievalDataset(name="synthetic-topics", queries=queries,
                               corpus=corpus, qrels=qrels)
    return TopicPairData(vocab=vocab, train=tuple(train), dataset=dataset)


# ---------------------------------------------------------------------------
# bigram stream generator

def bigram_vocabulary(n_words: int = 12) -> Vocabulary:
    words = [f"tok{i:02d}" for i in range(n_words)]
    return Vocabulary(list(SPECIAL_TOKENS) + words)


def bigram_stream(vocab: Vocabulary, length: int, seed: int,
                  loop_prob: float = 0.85) -> list[int]:
    """Token ids from a looping Markov chain over the non-special words.

    State i usually steps to i+1 (mod n); otherwise it jumps uniformly.
    The resulting local structure is learnable by a short-context model at
    any sequence length.
    """
    n_special = len(SPECIAL_TOKENS)
    n_words = len(vocab) - n_special
    rng = np.random.default_rng(seed)
    state = int(rng.integers(0, n_words))
    ids = []
    for _ in range(length):
        ids.append(n_special + state)
        if rng.random() < loop_prob:
            state = (state + 1) % n_words
        else:
            state = int(rng.integers(0, n_words))
    return ids


def bigram_sequences(vocab: Vocabulary, count: int, length: int,
                     seed: int) -> list[EncodedSequence]:
    return [sequence_from_ids(vocab, bigram_stream(vocab, length, seed + i))
            for i in range(count)]


def windowed_masked_ce(model: EncoderModel, vocab: Vocabulary,
                       stream: list[int], window: int,
                       mask_every: int = 7) -> float:
    """Mean masked-token cross-entropy over consecutive windows of a stream.

    Masked positions are deterministic (every mask_every-th slot), so the
    same stream scored at two window sizes masks the same tokens.
    """
    mask_id = vocab.id_of[MASK_TOKEN]
    total = 0.0
    count = 0
    for start in range(0, len(stream) - window + 1, window):
        ids = stream[start:start + window]
        positions = [i for i in range(window) if (start + i) % mask_every == 3]
        if not positions:
            continue
        corrupted = list(ids)
        for pos in positions:
            corrupted[pos] = mask_id
        with ad.no_grad():
            loss = mlm_loss(model, [corrupted], [positions], [ids])
        total += loss.item() * len(positions)
        count += len(positions)
    if count == 0:
        raise ValueError("stream too short for any masked window")
    return total / count


# ---------------------------------------------------------------------------
# end-to-end pipeline

def _require(rc: int, step: str) -> None:
    if rc != 0:
        raise RuntimeError(f"smoke pipeline step failed (exit {rc}): {step}")


def run_smoke_pipeline(out_dir: Path, seed: int = 0, mlm_steps: int = 50,
                       contrastive_steps: int = 200) -> dict[str, Path]:
    """Tokenizer training, packing, MLM, contrastive training, and eval,
    all through the CLI, on the bundled mini corpus. Returns artifact
    paths. Fully seeded: two runs with the same seed produce byte-identical
    checkpoints and reports."""
    from .cli import dispatch  # local import to avoid a module cycle

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    docs = [CorpusDocument(id=d["id"], text=d["text"])
            for d in load_mini_corpus()]
    raw = out / "corpus.jsonl"
    write_documents(raw, docs)

    cleaned = out / "cleaned.jsonl"
    _require(dispatch(["data", "clean", "--in", str(raw), "--out", str(cleaned)]),
             "data clean")

    vocab_path = out / "vocab.txt"
    _require(dispatch(["tokenizer", "train", "--corpus", str(cleaned),
                       "--size", "360", "--min-freq", "2",
                       "--out", str(vocab_path)]), "tokenizer train")

    chunks = out / "chunks.jsonl"
    _require(dispatch(["data", "pack", "--in", str(cleaned),
                       "--vocab", str(vocab_path), "--out", str(chunks),
                       "--chunk-len", "48", "--min-tail", "8"]), "data pack")

    vocab = Vocabulary.load(vocab_path)
    config = ModelConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                         ffn_dim=64, num_projections=2, max_train_len=64,
                         max_infer_len=256)
    init = out / "ckpt_init"
    save_model(init, build_model(config, seed=seed), vocab)

    mlm_cfg = out / "mlm.json"
    atomic_write_text(mlm_cfg, json.dumps({
        "stage": "mlm", "total_steps": mlm_steps, "peak_lr": 2e-4,
        "beta1": 0.9, "beta2": 0.98, "global_batch": 2, "grad_accum": 2,
        "warmup_fraction": 0.10, "max_len": 48, "mask_rate": 0.30,
        "seed": seed,
    }))
    ckpt_mlm = out / "ckpt_mlm"
    _require(dispatch(["train", "mlm", "--config", str(mlm_cfg),
                       "--data", str(chunks), "--init", str(init),
                       "--out", str(ckpt_mlm)]), "train mlm")

    # Query/positive pairs: two halves of the same abstract; the held-out
    # tail of the corpus becomes the retrieval dataset.
    def halves(text: str) -> tuple[str, str] | None:
        words = text.split()
        if len(words) < 12:
            return None
        return " ".join(words[:6]), " ".join(words[6:12])

    pairs = []
    for doc in docs[:120]:
        cut = halves(doc.text)
        if cut is not None:
            pairs.append(SentencePair(query=cut[0], positive=cut[1],
                                      source_id="smoke"))
    pairs_path = out / "pairs.jsonl"
    write_pairs(pairs_path, pairs)

    queries: dict[str, str] = {}
    corpus: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    for doc in docs[120:152]:
        cut = halves(doc.text)
        if cut is None:
            continue
        qid, did = f"q-{doc.id}", f"d-{doc.id}"
        queries[qid] = cut[0]
        corpus[did] = cut[1]
        qrels[qid] = {did: 1}
    dataset_dir = out / "dataset"
    save_dataset(dataset_dir, RetrievalDataset(
        name="smoke-heldout", queries=queries, corpus=corpus, qrels=qrels))

    con_cfg = out / "contrastive.json"
    atomic_write_text(con_cfg, json.dumps({
        "stage": "contrastive", "total_steps": contrastive_steps,
        "peak_lr": 5e-5, "beta1": 0.95, "beta2": 0.98, "global_batch": 4,
        "grad_accum": 1, "warmup_fraction": 0.06, "max_len": 48,
        "temperature": 0.05, "seed": seed,
    }))
    ckpt_con = out / "ckpt_contrastive"
    _require(dispatch(["train", "contrastive", "--config", str(con_cfg),
                       "--data", str(pairs_path), "--init", str(ckpt_mlm),
                       "--out", str(ckpt_con)]), "train contrastive")

    report = out / "report.json"
    _require(dispatch(["eval", "run", "--model", str(ckpt_con),
                       "--dataset", str(dataset_dir), "--k", "10",
                       "--out", str(report)]), "eval run")

    return {
        "vocab": vocab_path,
        "chunks": chunks,
        "checkpoint": ckpt_con,
        "mlm_checkpoint": ckpt_mlm,
        "report": report,
        "train_log": ckpt_con / "train_log.jsonl",
    }
