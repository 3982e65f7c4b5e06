"""The three training stages: whole-word-masked MLM, InfoNCE contrastive
pretraining, and hard-negative fine-tuning.

Shared machinery lives here too: AdamW with decoupled weight decay, the
linear warmup/decay schedule, whole-word mask selection, and the
single-source batch sampler. run_stage drives any of the three stages over
a model and writes a JSON-lines loss log plus a final checkpoint. Both pair
stages compute hard_negative_loss, which is InfoNCE for a batch whose items
have no hard negatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .checkpoint import config_from_dict, write_jsonl
# embed_sequence is not called here; perfbench/spans.py wraps it by this name
from .model import (EncoderModel, _token_ids, embed_batch,  # noqa: F401
                    embed_sequence, mlm_loss, save_model)
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
            raise ValueError(f"warmup_fraction must be in (0, 1), "
                             f"got {self.warmup_fraction!r}")

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

_BLOCK = 1 << 16  # elements per pass of the in-place update; 64 Ki measured fastest
# Parameters this small are updated together as one flat array: one by one,
# numpy's per-call overhead would cost more than their arithmetic.
_SMALL = 1 << 12
# Above this share of live rows, gathering and scattering them costs more
# than the dense update of the whole parameter (measured on a 29.6k x 128 table).
_SPARSE_SHARE = 0.25
_ADAM_EPS = 1e-8


def _check_adam_settings(beta1: float, beta2: float, weight_decay: float) -> None:
    """Reject settings under which an AdamW step writes NaN or inf."""
    for name, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {value!r}")
    if not 0.0 <= weight_decay < math.inf:
        raise ValueError(f"weight_decay must be non-negative and finite, "
                         f"got {weight_decay!r}")


@dataclass
class OptimizerState:
    """AdamW settings, the step count, and each parameter's moments m and v.

    live[name], for a parameter with two or more dimensions and more than
    _SMALL elements, marks the rows (along axis 0) whose gradient has been
    nonzero at some step. Every other
    row has m = v = +0.0 exactly, and while its gradient stays zero its
    dense AdamW update reduces exactly to p -= lr * (wd*p + 0.0), which is
    all adamw_step runs on it. Any mask that covers every row not +0.0 in
    m or v is as exact, so moments given without a mask get one rebuilt
    from them (_live_rows).
    """
    beta1: float
    beta2: float
    weight_decay: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        _check_adam_settings(self.beta1, self.beta2, self.weight_decay)


def _live_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows along axis 0 where m or v holds anything but +0.0."""
    held = (m != 0) | np.signbit(m) | (v != 0)
    return held.any(axis=tuple(range(1, held.ndim)))


def _sparse_rows(state: OptimizerState, name: str, g: np.ndarray) -> np.ndarray | None:
    """The live rows of a matrix once this step's gradient is counted, or
    None when more than _SPARSE_SHARE of them are live."""
    if name not in state.live:
        state.live[name] = _live_rows(state.m[name], state.v[name])
    live = state.live[name]
    if live.all():
        return None
    live |= (g != 0).any(axis=tuple(range(1, g.ndim)))
    rows = np.flatnonzero(live)
    return rows if rows.size <= _SPARSE_SHARE * len(live) else None


def _rows_per_block(a: np.ndarray) -> int:
    """How many rows along axis 0 make a block of about _BLOCK elements."""
    return max(1, _BLOCK // max(1, a[:1].size))


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 state: OptimizerState, lr_now: float) -> None:
    """The dense AdamW update, in place, block by block along axis 0.

    Each block runs the elementwise ops of
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr * (m/bias1 / (sqrt(v/bias2) + eps) + wd*p)
    in this order with two scratch buffers, so the result is bitwise that
    of the whole-array expressions.
    """
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    rows = _rows_per_block(p)
    a, b = np.empty((2,) + p[:rows].shape, dtype=p.dtype)
    for start in range(0, len(p), rows):
        block = slice(start, start + rows)
        pb, gb, mb, vb = p[block], g[block], m[block], v[block]
        if len(pb) < len(a):
            a, b = a[:len(pb)], b[:len(pb)]
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=a)
        mb += a
        vb *= b2
        np.multiply(gb, 1.0 - b2, out=a)
        a *= gb
        vb += a
        np.divide(mb, bias1, out=a)
        np.divide(vb, bias2, out=b)
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b
        np.multiply(pb, state.weight_decay, out=b)
        a += b
        a *= lr_now
        pb -= a


def _adam_update_together(ps: Sequence[np.ndarray], gs: Sequence[np.ndarray],
                          ms: Sequence[np.ndarray], vs: Sequence[np.ndarray],
                          state: OptimizerState, lr_now: float) -> None:
    """The dense update of several arrays of one dtype, run on their
    concatenation and written back to each."""
    p, g, m, v = (np.concatenate([a.reshape(-1) for a in arrays])
                  for arrays in (ps, gs, ms, vs))
    _adam_update(p, g, m, v, state, lr_now)
    start = 0
    for arrays in zip(ps, ms, vs):
        end = start + arrays[0].size
        for dest, flat in zip(arrays, (p, m, v)):
            dest[...] = flat[start:end].reshape(dest.shape)
        start = end


def _decay(p: np.ndarray, weight_decay: float, lr_now: float) -> None:
    """p -= lr * (wd*p + 0.0) in place: the dense update of a row whose m, v
    and gradient are zero. The + 0.0 turns a -0.0 product into +0.0, as the
    dense update's 0/(0 + eps) term does."""
    rows = _rows_per_block(p)
    a = np.empty(p[:rows].shape, dtype=p.dtype)
    for start in range(0, len(p), rows):
        pb = p[start:start + rows]
        if len(pb) < len(a):
            a = a[:len(pb)]
        np.multiply(pb, weight_decay, out=a)
        a += 0.0
        a *= lr_now
        pb -= a


def adamw_step(params: dict[str, Tensor], state: OptimizerState,
               lr_now: float) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Bitwise the dense update of every parameter. Parameters of at most
    _SMALL elements are updated together as one flat array. A larger one
    with two or more dimensions of which at most a quarter of the rows are
    live (OptimizerState) runs the Adam arithmetic only on those rows;
    every other row only decays. Rejects the whole step (no parameter or
    state mutation) if any gradient contains a non-finite value or does
    not match its parameter's shape and dtype.
    """
    grads = {}
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape or g.dtype != p.data.dtype:
            raise ValueError(f"gradient of {name!r} is {g.dtype}{list(g.shape)}, "
                             f"parameter is {p.data.dtype}{list(p.data.shape)}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in {name!r}; step rejected")
        grads[name] = g
    state.t += 1
    small: dict[np.dtype, list[tuple]] = {}
    for name, g in grads.items():
        p = params[name].data
        if name not in state.m:
            # np.zeros leaves pages no live row touches unallocated
            state.m[name] = np.zeros(p.shape, dtype=p.dtype)
            state.v[name] = np.zeros(p.shape, dtype=p.dtype)
            if p.ndim >= 2 and p.size > _SMALL:
                state.live[name] = np.zeros(len(p), dtype=bool)
        m, v = state.m[name], state.v[name]
        if p.size <= _SMALL:
            small.setdefault(p.dtype, []).append((p, g, m, v))
            continue
        rows = _sparse_rows(state, name, g) if p.ndim >= 2 else None
        if rows is None:
            _adam_update(p, g, m, v, state, lr_now)
            continue
        p_rows, m_rows, v_rows = p[rows], m[rows], v[rows]
        _decay(p, state.weight_decay, lr_now)
        _adam_update(p_rows, g[rows], m_rows, v_rows, state, lr_now)
        p[rows] = p_rows
        m[rows] = m_rows
        v[rows] = v_rows
    for group in small.values():
        _adam_update_together(*zip(*group), state, lr_now)


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


def apply_mask(seq: EncodedSequence, positions: Iterable[int],
               mask_id: int) -> tuple[list[int], list[int]]:
    """Replace the ids at the given positions with mask_id; return
    (corrupted, originals)."""
    size, specials = len(seq.ids), seq.special_positions
    targets = list(seq.ids)
    corrupted = list(seq.ids)
    for pos in positions:
        if not 0 <= pos < size or pos in specials:
            raise ValueError(f"position {pos} is not a maskable index")
        corrupted[pos] = mask_id
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
    """One source's items; negatives[i] lists item i's hard negatives,
    empty for a plain pair."""
    source_id: str
    queries: list
    positives: list
    negatives: list

    def __post_init__(self):
        if not len(self.queries) == len(self.positives) == len(self.negatives):
            raise ValueError("queries, positives and negatives must align")


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
        yield PairBatch(source_id=sources[choice].source_id,
                        queries=[it[0] for it in picked],
                        positives=[it[1] for it in picked],
                        negatives=[it[2] if len(it) == 3 else [] for it in picked])


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
        if self.global_batch < 1 or self.grad_accum < 1:
            raise ValueError("global_batch and grad_accum must be >= 1")
        if self.global_batch % self.grad_accum != 0:
            raise ValueError("global_batch must be divisible by grad_accum")
        self.schedule  # checks total_steps and warmup_fraction
        _check_adam_settings(self.beta1, self.beta2, self.weight_decay)
        if not 0.0 <= self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be non-negative and finite, "
                             f"got {self.peak_lr!r}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len!r}")
        if not 0.0 < self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in (0, 1], got {self.mask_rate!r}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, "
                             f"got {self.temperature!r}")

    @property
    def micro_batch(self) -> int:
        return self.global_batch // self.grad_accum

    @property
    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(self.total_steps, self.warmup_fraction)

    @classmethod
    def from_dict(cls, blob: dict) -> "StageConfig":
        return config_from_dict(cls, blob)


# ---------------------------------------------------------------------------
# the stage loop

def _encode_batch(model: EncoderModel, tokenizer: TokenizerModel,
                  texts: Sequence[str], max_len: int) -> tuple[Tensor, int]:
    """(n, d) embeddings of texts cut to max_len tokens, and their token count."""
    id_lists = _token_ids(tokenizer, texts, max_len)
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

    Masks are drawn sequence by sequence in batch order; the masked
    sequences then run through one packed mlm_loss.
    """
    masked = []
    tokens = 0
    for seq in batch:
        tokens += len(seq.ids)
        positions = select_whole_word_mask(seq, mask_rate, rng)
        if not positions:
            continue
        corrupted, targets = apply_mask(seq, positions, mask_id)
        masked.append((corrupted, positions, targets))
    if not masked:
        raise ValueError("no maskable sequences in batch")
    corrupted, positions, targets = zip(*masked)
    return mlm_loss(model, corrupted, positions, targets), tokens


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

    data is any iterable of EncodedSequence, none longer than
    config.max_len, for the MLM stage, or a list of PairSource for the
    contrastive and hard-negative stages; either pair stage trains on the
    negatives its items carry. The MLM stage takes its sequences in order,
    one micro-batch at a time, and takes no more than total_steps x
    global_batch of them. A finite MLM stream may end early; a partial
    accumulation at the end is dropped and noted in the log.
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
                longest = max(len(seq.ids) for seq in batch)
                if longest > config.max_len:
                    raise ValueError(f"an MLM sequence of {longest} tokens exceeds "
                                     f"max_len {config.max_len}")
                loss, tokens = _mlm_micro_loss(model, batch, config.mask_rate,
                                               mask_id, rng)
            else:
                q_embs, q_tokens = _encode_batch(model, tokenizer,
                                                 batch.queries, config.max_len)
                p_embs, p_tokens = _encode_batch(model, tokenizer,
                                                 batch.positives, config.max_len)
                tokens = q_tokens + p_tokens
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
