"""The three training stages: whole-word-masked MLM, InfoNCE contrastive
pretraining, and hard-negative fine-tuning.

Shared machinery lives here too: AdamW with decoupled weight decay, the
linear warmup/decay schedule, whole-word mask selection, and the
single-source batch sampler. run_stage drives any of the three stages over
a model and writes a JSON-lines loss log plus a final checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .checkpoint import write_jsonl
# embed_sequence is not called here; perfbench/spans.py wraps it by this name
from .model import (EncoderModel, embed_batch, embed_sequence,  # noqa: F401
                    length_groups, mlm_loss, save_model)
from .tokenizer import MASK_TOKEN, EncodedSequence, TokenizerModel

STAGES = ("mlm", "contrastive", "hard_negative")


# ---------------------------------------------------------------------------
# learning-rate schedule

@dataclass(frozen=True)
class ScheduleConfig:
    total_steps: int
    warmup_fraction: float

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in (0, 1)")

    @property
    def warmup_steps(self) -> int:
        return max(1, round(self.warmup_fraction * self.total_steps))


def lr_at(schedule: ScheduleConfig, peak_lr: float, step: int) -> float:
    """Linear warmup to peak_lr, then linear decay to zero."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    warmup = schedule.warmup_steps
    if step <= warmup:
        return peak_lr * step / warmup
    return peak_lr * (schedule.total_steps - step) / (schedule.total_steps - warmup)


# ---------------------------------------------------------------------------
# AdamW

@dataclass
class OptimizerState:
    beta1: float
    beta2: float
    eps: float = 1e-8
    weight_decay: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Tensor], state: OptimizerState,
               lr_now: float) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Rejects the whole step (no parameter or state mutation) if any gradient
    contains a non-finite value.
    """
    grads = {}
    for name, p in params.items():
        if p.grad is None:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"non-finite gradient in {name!r}; step rejected")
        grads[name] = p.grad
    state.t += 1
    t = state.t
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= lr_now * (m_hat / (np.sqrt(v_hat) + state.eps)
                            + state.weight_decay * p.data)


# ---------------------------------------------------------------------------
# masking

def select_whole_word_mask(seq: EncodedSequence, rate: float,
                           rng: np.random.Generator) -> set[int]:
    """Pick whole word groups in random order until the token budget is met."""
    if not seq.word_groups:
        raise ValueError("sequence has no word groups to mask")
    budget = rate * seq.non_special_length()
    if budget <= 0:
        return set()
    selected: set[int] = set()
    for gi in rng.permutation(len(seq.word_groups)):
        if len(selected) >= budget:
            break
        start, end = seq.word_groups[gi]
        selected.update(range(start, end))
    return selected


def apply_mask(seq: EncodedSequence, positions: Iterable[int], mask_id: int,
               rng: np.random.Generator | None = None,
               mask_prob: float = 1.0, random_prob: float = 0.0,
               vocab_size: int | None = None) -> tuple[list[int], list[int]]:
    """Corrupt ids at the given positions; return (corrupted, originals).

    By default every selected position becomes mask_id. The classic
    80/10/10 recipe is available through mask_prob/random_prob; whatever
    probability remains keeps the original token.
    """
    if mask_prob + random_prob > 1.0 + 1e-9:
        raise ValueError("mask_prob + random_prob must not exceed 1")
    if random_prob > 0 and (rng is None or vocab_size is None):
        raise ValueError("random replacement needs rng and vocab_size")
    valid = set(range(len(seq.ids))) - set(seq.special_positions)
    targets = list(seq.ids)
    corrupted = list(seq.ids)
    for pos in positions:
        if pos not in valid:
            raise ValueError(f"position {pos} is not a maskable index")
        if mask_prob >= 1.0:
            corrupted[pos] = mask_id
            continue
        roll = rng.random() if rng is not None else 0.0
        if roll < mask_prob:
            corrupted[pos] = mask_id
        elif roll < mask_prob + random_prob:
            corrupted[pos] = int(rng.integers(vocab_size))
    return corrupted, targets


# ---------------------------------------------------------------------------
# contrastive losses

def info_nce_loss(q_embs: Tensor, p_embs: Tensor, temperature: float = 0.05,
                  symmetric: bool = False) -> Tensor:
    """In-batch InfoNCE over cosine similarities of unit vectors."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if q_embs.ndim != 2 or p_embs.ndim != 2 or q_embs.shape != p_embs.shape:
        raise ValueError(f"expected matching (B, d) embeddings, got "
                         f"{q_embs.shape} and {p_embs.shape}")
    batch = q_embs.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    sims = ad.matmul(q_embs, ad.transpose(p_embs))
    logits = ad.mul(sims, 1.0 / temperature)
    targets = np.arange(batch)
    loss = ad.cross_entropy(logits, targets)
    if symmetric:
        other = ad.cross_entropy(ad.transpose(logits), targets)
        loss = ad.mul(ad.add(loss, other), 0.5)
    return loss


def hard_negative_loss(q_embs: Tensor, p_embs: Tensor,
                       neg_embs: Tensor | None, temperature: float = 0.05) -> Tensor:
    """InfoNCE with each item's own hard negatives added to the denominator.

    neg_embs is (B, H, d). An item with fewer than H negatives fills its
    remaining rows with zeros; embeddings are unit vectors, so a zero row is
    never a real negative, and its logit is masked out of the item's
    denominator.
    """
    if neg_embs is None or neg_embs.shape[1] == 0:
        return info_nce_loss(q_embs, p_embs, temperature)
    if neg_embs.ndim != 3 or neg_embs.shape[0] != q_embs.shape[0] \
            or neg_embs.shape[2] != q_embs.shape[1]:
        raise ValueError(f"neg_embs must be (B, H, d); got {neg_embs.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    batch, dim = q_embs.shape
    sims = ad.matmul(q_embs, ad.transpose(p_embs))                    # (B, B)
    own = ad.matmul(neg_embs, ad.reshape(q_embs, (batch, dim, 1)))    # (B, H, 1)
    own = ad.reshape(own, (batch, neg_embs.shape[1]))
    logits = ad.mul(ad.concat([sims, own], axis=1), 1.0 / temperature)
    padded = ~neg_embs.data.any(axis=2)                               # (B, H)
    if padded.any():
        in_batch = np.zeros((batch, batch), dtype=bool)
        logits = ad.masked_fill(logits, np.concatenate([in_batch, padded], axis=1),
                                -1e9)
    return ad.cross_entropy(logits, np.arange(batch))


# ---------------------------------------------------------------------------
# batches and sampling

@dataclass
class PairBatch:
    source_id: str
    queries: list
    positives: list

    def __post_init__(self):
        if len(self.queries) != len(self.positives):
            raise ValueError("queries and positives must align")


@dataclass
class TripletBatch(PairBatch):
    negatives: list = field(default_factory=list)

    def __post_init__(self):
        super().__post_init__()
        if len(self.negatives) != len(self.queries):
            raise ValueError("negatives must align with queries")


@dataclass
class PairSource:
    source_id: str
    items: list  # (query, positive) or (query, positive, [negatives])


def single_source_sampler(sources: Sequence[PairSource], batch_size: int,
                          rng: np.random.Generator) -> Iterator[PairBatch]:
    """Endless stream of batches, each drawn wholly from one source.

    Sources are picked proportionally to their remaining items this epoch;
    a source with fewer than batch_size items left is reshuffled into a new
    epoch (the leftovers are dropped for that epoch).
    """
    if not sources:
        raise ValueError("no sources")
    for src in sources:
        if len(src.items) < batch_size:
            raise ValueError(f"source {src.source_id!r} has {len(src.items)} "
                             f"items, fewer than batch_size {batch_size}")
    queues = [list(rng.permutation(len(src.items))) for src in sources]
    positions = [0] * len(sources)

    while True:
        remaining = []
        for qi, (queue, pos) in enumerate(zip(queues, positions)):
            left = len(queue) - pos
            remaining.append(left if left >= batch_size else len(queues[qi]))
        weights = np.asarray(remaining, dtype=np.float64)
        choice = int(rng.choice(len(sources), p=weights / weights.sum()))
        if len(queues[choice]) - positions[choice] < batch_size:
            queues[choice] = list(rng.permutation(len(sources[choice].items)))
            positions[choice] = 0
        start = positions[choice]
        positions[choice] = start + batch_size
        picked = [sources[choice].items[i]
                  for i in queues[choice][start:start + batch_size]]
        source_id = sources[choice].source_id
        if picked and len(picked[0]) == 3:
            yield TripletBatch(source_id=source_id,
                               queries=[it[0] for it in picked],
                               positives=[it[1] for it in picked],
                               negatives=[it[2] for it in picked])
        else:
            yield PairBatch(source_id=source_id,
                            queries=[it[0] for it in picked],
                            positives=[it[1] for it in picked])


# ---------------------------------------------------------------------------
# stage configuration

@dataclass(frozen=True)
class StageConfig:
    stage: str
    total_steps: int
    peak_lr: float
    beta1: float
    beta2: float
    global_batch: int
    grad_accum: int
    warmup_fraction: float
    weight_decay: float = 0.01
    max_len: int = 512
    mask_rate: float = 0.30
    temperature: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.global_batch % self.grad_accum != 0:
            raise ValueError("global_batch must be divisible by grad_accum")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    @property
    def micro_batch(self) -> int:
        return self.global_batch // self.grad_accum

    @property
    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(self.total_steps, self.warmup_fraction)

    @classmethod
    def mlm_defaults(cls, total_steps: int, **overrides) -> "StageConfig":
        base = dict(stage="mlm", total_steps=total_steps, peak_lr=2e-4,
                    beta1=0.9, beta2=0.98, global_batch=16, grad_accum=2,
                    warmup_fraction=0.10)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def contrastive_defaults(cls, total_steps: int, **overrides) -> "StageConfig":
        base = dict(stage="contrastive", total_steps=total_steps, peak_lr=5e-5,
                    beta1=0.95, beta2=0.98, global_batch=1024, grad_accum=1,
                    warmup_fraction=0.06)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def hard_negative_defaults(cls, total_steps: int, **overrides) -> "StageConfig":
        base = dict(stage="hard_negative", total_steps=total_steps, peak_lr=5e-5,
                    beta1=0.95, beta2=0.98, global_batch=1024, grad_accum=2,
                    warmup_fraction=0.06)
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage, "total_steps": self.total_steps,
            "peak_lr": self.peak_lr, "beta1": self.beta1, "beta2": self.beta2,
            "global_batch": self.global_batch, "grad_accum": self.grad_accum,
            "warmup_fraction": self.warmup_fraction,
            "weight_decay": self.weight_decay, "max_len": self.max_len,
            "mask_rate": self.mask_rate, "temperature": self.temperature,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "StageConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(blob) - known
        if unknown:
            raise ValueError(f"unknown StageConfig keys: {sorted(unknown)}")
        return cls(**blob)


# ---------------------------------------------------------------------------
# the stage loop

def _encode_batch(model: EncoderModel, tokenizer: TokenizerModel,
                  texts: Sequence[str], max_len: int) -> tuple[Tensor, int]:
    """(n, d) embeddings of texts cut to max_len tokens, and their token count."""
    id_lists = []
    for text in texts:
        ids = tokenizer.encode(text).ids[:max_len]
        if not ids:
            raise ValueError(f"text tokenized to nothing: {text[:40]!r}")
        id_lists.append(ids)
    return embed_batch(model, id_lists), sum(len(ids) for ids in id_lists)


def _encode_negatives(model: EncoderModel, tokenizer: TokenizerModel,
                      negatives: Sequence[Sequence[str]],
                      max_len: int) -> tuple[Tensor, int]:
    """(B, H, d) embeddings of each item's negatives, H the largest count.

    All negatives are embedded in one call. An item with fewer than H
    negatives is padded with zero rows, which hard_negative_loss masks out.
    """
    width = max(len(negs) for negs in negatives)
    texts = [text for negs in negatives for text in negs]
    embs, tokens = _encode_batch(model, tokenizer, texts, max_len)
    dim = embs.shape[1]
    table = ad.concat([embs, Tensor(np.zeros((1, dim), dtype=embs.dtype))], axis=0)
    rows, start = [], 0
    for negs in negatives:
        rows += list(range(start, start + len(negs))) + [len(texts)] * (width - len(negs))
        start += len(negs)
    picked = ad.index_select(table, rows)
    return ad.reshape(picked, (len(negatives), width, dim)), tokens


def _mlm_micro_loss(model: EncoderModel, batch: list[EncodedSequence],
                    mask_rate: float, mask_id: int,
                    rng: np.random.Generator) -> tuple[Tensor, int]:
    """Mean over the batch's maskable sequences of each one's MLM loss.

    Masks are drawn sequence by sequence in batch order; sequences of equal
    length then run as one forward.
    """
    masked = []
    tokens = 0
    for seq in batch:
        tokens += len(seq.ids)
        positions = select_whole_word_mask(seq, mask_rate, rng)
        if not positions:
            continue
        corrupted, targets = apply_mask(seq, positions, mask_id)
        masked.append((corrupted, positions, targets, seq.attention_mask))
    if not masked:
        raise ValueError("no maskable sequences in batch")
    total = None
    for rows in length_groups([len(m[0]) for m in masked], model.config.heads):
        corrupted, positions, targets, masks = zip(*(masked[i] for i in rows))
        loss = ad.mul(mlm_loss(model, corrupted, positions, targets, masks),
                      len(rows) / len(masked))
        total = loss if total is None else ad.add(total, loss)
    return total, tokens


def _batched(data: Iterable, size: int) -> Iterator[list]:
    batch = []
    for item in data:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []


def run_stage(config: StageConfig, model: EncoderModel,
              tokenizer: TokenizerModel, data,
              out_dir: Path | None = None,
              log_path: Path | None = None) -> list[dict]:
    """Train one stage; returns the loss records it logged.

    data is a sequence of EncodedSequence for the MLM stage, or a list of
    PairSource for the contrastive and hard-negative stages. A finite MLM
    stream may end early; a partial accumulation at the end is dropped and
    noted in the log.
    """
    rng = np.random.default_rng(config.seed)
    params = model.named_parameters()
    state = OptimizerState(beta1=config.beta1, beta2=config.beta2,
                           weight_decay=config.weight_decay)
    schedule = config.schedule
    mask_id = tokenizer.vocab.id_of[MASK_TOKEN]

    if config.stage == "mlm":
        micro_stream: Iterator = _batched(iter(data), config.micro_batch)
    else:
        micro_stream = single_source_sampler(list(data), config.micro_batch, rng)

    records: list[dict] = []
    tokens_seen = 0
    stopped_early = False

    for step in range(1, config.total_steps + 1):
        model.zero_grad()
        step_loss = 0.0
        completed = 0
        for _ in range(config.grad_accum):
            try:
                batch = next(micro_stream)
            except StopIteration:
                stopped_early = True
                break
            if config.stage == "mlm":
                loss, tokens = _mlm_micro_loss(model, batch, config.mask_rate,
                                               mask_id, rng)
            else:
                q_embs, q_tokens = _encode_batch(model, tokenizer,
                                                 batch.queries, config.max_len)
                p_embs, p_tokens = _encode_batch(model, tokenizer,
                                                 batch.positives, config.max_len)
                tokens = q_tokens + p_tokens
                if config.stage == "contrastive" or not isinstance(batch, TripletBatch):
                    loss = info_nce_loss(q_embs, p_embs, config.temperature)
                else:
                    neg_embs = None
                    if any(batch.negatives):
                        neg_embs, n_tokens = _encode_negatives(
                            model, tokenizer, batch.negatives, config.max_len)
                        tokens += n_tokens
                    loss = hard_negative_loss(q_embs, p_embs, neg_embs,
                                              config.temperature)
            scaled = ad.mul(loss, 1.0 / config.grad_accum)
            backward(scaled)
            step_loss += scaled.item()
            tokens_seen += tokens
            completed += 1
        if stopped_early:
            if 0 < completed < config.grad_accum:
                records.append({"step": step, "stage": config.stage,
                                "event": "partial_accumulation_dropped",
                                "micro_batches": completed})
            break
        lr_now = lr_at(schedule, config.peak_lr, step)
        adamw_step(params, state, lr_now)
        records.append({"step": step, "stage": config.stage, "lr": lr_now,
                        "loss": step_loss, "tokens_seen": tokens_seen})

    if log_path is not None:
        write_jsonl(Path(log_path), records)
    if out_dir is not None:
        save_model(Path(out_dir), model, tokenizer.vocab)
    return records
