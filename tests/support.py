"""What the tests need and the program does not: the paper's stage
settings, the bundled vocabularies, synthetic data generators, and the
references that tests compare the program against.

Nothing under src/ imports this module; tests import it as `support`.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from medeir import autodiff as ad
from medeir.autodiff import Tensor, backward, no_grad
from medeir.datapipe import SentencePair
from medeir.evaluation import RetrievalDataset
from medeir.fixtures import _asset, load_mini_corpus
from medeir.model import AdaptiveSoftmaxHead, EncoderModel, mlm_loss
from medeir.tokenizer import (
    MASK_TOKEN,
    SPECIAL_TOKENS,
    EncodedSequence,
    TokenizerModel,
    Vocabulary,
    sequence_from_ids,
)
from medeir.training import StageConfig


# ---------------------------------------------------------------------------
# the paper's stage settings

_PAPER_STAGES = {
    "mlm": dict(peak_lr=2e-4, beta1=0.9, beta2=0.98, global_batch=16,
                grad_accum=2, warmup_fraction=0.10),
    "contrastive": dict(peak_lr=5e-5, beta1=0.95, beta2=0.98, global_batch=1024,
                        grad_accum=1, warmup_fraction=0.06),
    "hard_negative": dict(peak_lr=5e-5, beta1=0.95, beta2=0.98, global_batch=1024,
                          grad_accum=2, warmup_fraction=0.06),
}


def paper_stage(name: str, total_steps: int, **overrides) -> StageConfig:
    """The paper's settings for stage name, run for total_steps, with any
    field overridden."""
    return StageConfig(**{"stage": name, "total_steps": total_steps,
                          **_PAPER_STAGES[name], **overrides})


# ---------------------------------------------------------------------------
# bundled vocabularies and corpus

_VOCAB_FILES = {
    "base": "vocab_base.txt",
    "domain": "vocab_domain.txt",
    "merged": "vocab_merged.txt",
}


def fixture_vocabulary(kind: str) -> Vocabulary:
    """Load one of the bundled vocabularies: "base", "domain", or "merged"."""
    if kind not in _VOCAB_FILES:
        raise ValueError(f"unknown fixture vocabulary {kind!r}")
    with resources.as_file(_asset(_VOCAB_FILES[kind])) as path:
        return Vocabulary.load(path)


def fixture_tokenizer(kind: str) -> TokenizerModel:
    return TokenizerModel(fixture_vocabulary(kind))


def mini_corpus_texts() -> list[str]:
    return [doc["text"] for doc in load_mini_corpus()]


# ---------------------------------------------------------------------------
# references

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               sample: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs x.data in place. With sample set, only that many coordinates
    (chosen by rng) are probed, which keeps whole-model checks tractable.
    """
    if x.data.dtype != np.float64:
        raise ValueError("grad_check requires float64 tensors")
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(out)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).ravel()

    n = x.data.size
    if sample is None or sample >= n:
        coords = np.arange(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=sample, replace=False)

    flat = x.data.reshape(-1)
    max_err = 0.0
    with no_grad():
        for i in coords:
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f(x).data.item()
            flat[i] = saved - h
            f_minus = f(x).data.item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err


def adaptive_log_probs(head: AdaptiveSoftmaxHead, hidden: Tensor) -> Tensor:
    """Log-probabilities over the vocabulary in token-id order: hidden
    (B, d), result (B, V)."""
    cutoff0 = head.head_projection.shape[1] - len(head.tail_down)

    head_logits = ad.add(ad.matmul(hidden, head.head_projection), head.head_bias)
    head_lp = ad.log_softmax(head_logits, axis=-1)
    parts = [ad.narrow(head_lp, 1, 0, cutoff0)]
    for i, (down, out) in enumerate(zip(head.tail_down, head.tail_out)):
        gate = ad.narrow(head_lp, 1, cutoff0 + i, cutoff0 + i + 1)   # (B, 1)
        tail_lp = ad.log_softmax(ad.matmul(ad.matmul(hidden, down), out), axis=-1)
        parts.append(ad.add(tail_lp, gate))
    rank_lp = ad.concat(parts, axis=1)                               # (B, V) by rank
    return ad.transpose(ad.index_select(ad.transpose(rank_lp), head.rank_of))


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
