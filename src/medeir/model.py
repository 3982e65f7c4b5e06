"""The MedEIR encoder.

Pieces that differ from a stock pre-norm transformer:
  - token embeddings pass through K parallel projections whose outputs are
    combined by a learned attention-weighted sum;
  - attention uses symmetric ALiBi distance penalties instead of position
    embeddings, so no parameter anywhere carries a sequence-length axis;
  - the MLM head is an adaptive softmax with a layer norm applied before
    projection. Its clusters are contiguous ranges of token ranks, and
    token_order maps rank to token id. build_model ranks tokens by
    descending count when given token_counts; no CLI or smoke path passes
    them, so every pipeline model ranks tokens in id order. Training
    (mlm_loss through target_log_probs) computes only the head and the tail
    clusters that the masked targets hit, never the full distribution over
    the vocabulary.

Forward functions take packed ids (T,): the tokens of several sequences
laid end to end, with runs that give the count and length of each block of
equal-length sequences. Every op except attention and pooling works row by
row over the whole pack; autodiff.attention keeps each query inside its own
sequence, and autodiff.run_mean pools each sequence's rows. embed_batch is
the one encode path that training, evaluation, filtering and mining share,
and mlm_loss runs on the same packed forward. Both order sequences by
length, then input order, and fill packs of at most _PACK_TOKENS tokens, so
a batch of short texts runs as one forward however many lengths it holds.
No sequence is padded and each run's attention is the per-sequence
kernel, so a text's embedding does not depend on what it is packed with;
_min_rows tops up a pack too short for that. Each forward builds its
ALiBi biases afresh, in the model's dtype, as strided views of one
(heads, 2S - 1) row per head and run length.

Position-wise steps run as autodiff's fused nodes, with the bits of their
composed op chains: affine_norm for every layer norm (two per layer, the
final one and the MLM pre-norm) and linear for the q, v, output and both
FFN projections. The key projection has no bias and stays a matmul. A
forward of the 2-layer model builds 43 nodes: 10 in embed_tokens, 16 per
layer and 1 for the final norm. autodiff.backward frees each activation
once the last closure that reads it has run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import (atomic_write_text, config_from_dict, file_hash, load_arrays,
                         read_json_object, save_arrays)
from .tokenizer import TokenizerModel, Vocabulary

MODEL_FORMAT_VERSION = 2

# Each adaptive-softmax tail projects to hidden / _TAIL_REDUCTION ** (i + 1).
_TAIL_REDUCTION = 4


def _default_cutoffs(vocab_size: int) -> tuple[int, ...]:
    """Head = the first ~20% of token ranks, two tails splitting the rest."""
    c0 = max(1, round(0.2 * vocab_size))
    c1 = max(c0 + 1, round(0.6 * vocab_size))
    return tuple(c for c in (c0, c1) if c < vocab_size) + (vocab_size,)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden: int = 128
    layers: int = 2
    heads: int = 4
    ffn_dim: int = 512
    num_projections: int = 4
    max_train_len: int = 512
    max_infer_len: int = 8192
    adaptive_cutoffs: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("vocab_size", "hidden", "layers", "heads", "ffn_dim",
                     "num_projections", "max_train_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.max_infer_len < self.max_train_len:
            raise ValueError("max_infer_len must be >= max_train_len")
        cutoffs = tuple(self.adaptive_cutoffs) or _default_cutoffs(self.vocab_size)
        if list(cutoffs) != sorted(set(cutoffs)) or cutoffs[0] < 1:
            raise ValueError(f"cutoffs must be strictly ascending from >= 1: {cutoffs}")
        if cutoffs[-1] != self.vocab_size:
            raise ValueError(f"last cutoff {cutoffs[-1]} != vocab size {self.vocab_size}")
        object.__setattr__(self, "adaptive_cutoffs", cutoffs)

    @classmethod
    def from_dict(cls, blob: dict) -> "ModelConfig":
        return config_from_dict(cls, blob)


# ---------------------------------------------------------------------------
# ALiBi

def _power_of_two_slopes(n: int) -> list[float]:
    return [2.0 ** (-8.0 * i / n) for i in range(1, n + 1)]


def alibi_slopes(n_heads: int) -> tuple[float, ...]:
    """Geometric head slopes, positive and strictly decreasing;
    non-powers-of-two interleave two ladders, which share no exponent."""
    if n_heads < 1:
        raise ValueError("n_heads must be >= 1")
    if math.log2(n_heads).is_integer():
        slopes = _power_of_two_slopes(n_heads)
    else:
        closest = 2 ** math.floor(math.log2(n_heads))
        slopes = _power_of_two_slopes(closest)
        slopes += _power_of_two_slopes(2 * closest)[0::2][: n_heads - closest]
        slopes.sort(reverse=True)
    return tuple(slopes)


def _alibi_stack(slopes: tuple[float, ...], seq_len: int, dtype) -> np.ndarray:
    """(heads, S, S) read-only view of the symmetric encoder bias: entry
    (h, i, j) is -slopes[h] * |i - j|, computed in float64 and cast to dtype.

    Each head's values come from one row of -slope * |d| for d in
    [-(S - 1), S - 1]; row i of a head is the window of that row starting
    at offset S - 1 - i.
    """
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    dist = np.abs(np.arange(1 - seq_len, seq_len))
    rows = (-np.asarray(slopes, dtype=np.float64)[:, None] * dist).astype(dtype)
    windows = np.lib.stride_tricks.sliding_window_view(rows, seq_len, axis=-1)
    return windows[:, ::-1, :]


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class MultiProjEmbedding:
    table: Tensor          # (V, d)
    projections: Tensor    # (K, d, d)
    scorer: Tensor         # (K, d)


@dataclass
class EncoderLayer:
    ln1_gamma: Tensor
    ln1_beta: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    w_ffn_in: Tensor
    b_ffn_in: Tensor
    w_ffn_out: Tensor
    b_ffn_out: Tensor


_LAYER_FIELDS = tuple(f.name for f in fields(EncoderLayer))


@dataclass
class AdaptiveSoftmaxHead:
    pre_norm_gamma: Tensor
    pre_norm_beta: Tensor
    head_projection: Tensor          # (d, cutoff0 + n_tails)
    head_bias: Tensor                # (cutoff0 + n_tails,)
    tail_down: list[Tensor]          # each (d, d_i)
    tail_out: list[Tensor]           # each (d_i, cluster_size)
    token_order: np.ndarray          # rank -> token id (frozen int buffer)
    rank_of: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rank_of = np.argsort(self.token_order).astype(np.int64)


@dataclass
class EncoderModel:
    config: ModelConfig
    embedding: MultiProjEmbedding
    layers: list[EncoderLayer]
    final_gamma: Tensor
    final_beta: Tensor
    alibi: tuple[float, ...]          # one ALiBi slope per head
    mlm_head: AdaptiveSoftmaxHead

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {
            "embedding.table": self.embedding.table,
            "embedding.projections": self.embedding.projections,
            "embedding.scorer": self.embedding.scorer,
        }
        for i, layer in enumerate(self.layers):
            for name in _LAYER_FIELDS:
                params[f"layers.{i}.{name}"] = getattr(layer, name)
        params["final_gamma"] = self.final_gamma
        params["final_beta"] = self.final_beta
        head = self.mlm_head
        params["mlm.pre_norm_gamma"] = head.pre_norm_gamma
        params["mlm.pre_norm_beta"] = head.pre_norm_beta
        params["mlm.head_projection"] = head.head_projection
        params["mlm.head_bias"] = head.head_bias
        for i, (down, out) in enumerate(zip(head.tail_down, head.tail_out)):
            params[f"mlm.tails.{i}.down"] = down
            params[f"mlm.tails.{i}.out"] = out
        return params

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.grad = None


def token_frequency_order(token_counts: np.ndarray | None, vocab_size: int) -> np.ndarray:
    """Rank tokens by descending count, ties by ascending id."""
    if token_counts is None:
        return np.arange(vocab_size, dtype=np.int64)
    counts = np.asarray(token_counts, dtype=np.int64)
    if counts.shape != (vocab_size,):
        raise ValueError(f"token_counts shape {counts.shape} != ({vocab_size},)")
    order = np.lexsort((np.arange(vocab_size), -counts))
    return order.astype(np.int64)


def _param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every parameter, in the order build_model
    draws them; init is "normal", "identity", "zeros", "ones" or "gate"."""
    d, k, f = config.hidden, config.num_projections, config.ffn_dim
    specs = [("embedding.projections", (k, d, d), "identity"),
             ("embedding.table", (config.vocab_size, d), "normal"),
             ("embedding.scorer", (k, d), "normal")]
    layer = {"ln1_gamma": ((d,), "ones"), "ln1_beta": ((d,), "zeros"),
             "wq": ((d, d), "normal"), "bq": ((d,), "zeros"),
             "wk": ((d, d), "normal"),
             "wv": ((d, d), "normal"), "bv": ((d,), "zeros"),
             "wo": ((d, d), "normal"), "bo": ((d,), "zeros"),
             "ln2_gamma": ((d,), "ones"), "ln2_beta": ((d,), "zeros"),
             "w_ffn_in": ((d, f), "normal"), "b_ffn_in": ((f,), "zeros"),
             "w_ffn_out": ((f, d), "normal"), "b_ffn_out": ((d,), "zeros")}
    for i in range(config.layers):
        specs += [(f"layers.{i}.{name}", *layer[name]) for name in _LAYER_FIELDS]
    cutoffs = config.adaptive_cutoffs
    n_tails = len(cutoffs) - 1
    for i in range(n_tails):
        d_i = max(1, d // (_TAIL_REDUCTION ** (i + 1)))
        specs += [(f"mlm.tails.{i}.down", (d, d_i), "normal"),
                  (f"mlm.tails.{i}.out", (d_i, cutoffs[i + 1] - cutoffs[i]), "normal")]
    head_width = cutoffs[0] + n_tails
    specs += [("mlm.pre_norm_gamma", (d,), "ones"), ("mlm.pre_norm_beta", (d,), "zeros"),
              ("mlm.head_projection", (d, head_width), "normal"),
              ("mlm.head_bias", (head_width,), "gate"),
              ("final_gamma", (d,), "ones"), ("final_beta", (d,), "zeros")]
    return specs


def _assemble(config: ModelConfig, params: dict[str, np.ndarray],
              token_order: np.ndarray) -> EncoderModel:
    """Wrap named parameter arrays in the model's containers."""
    def p(name):
        return Tensor(params[name], requires_grad=True)

    n_tails = len(config.adaptive_cutoffs) - 1
    return EncoderModel(
        config=config,
        embedding=MultiProjEmbedding(table=p("embedding.table"),
                                     projections=p("embedding.projections"),
                                     scorer=p("embedding.scorer")),
        layers=[EncoderLayer(**{name: p(f"layers.{i}.{name}") for name in _LAYER_FIELDS})
                for i in range(config.layers)],
        final_gamma=p("final_gamma"),
        final_beta=p("final_beta"),
        alibi=alibi_slopes(config.heads),
        mlm_head=AdaptiveSoftmaxHead(
            pre_norm_gamma=p("mlm.pre_norm_gamma"),
            pre_norm_beta=p("mlm.pre_norm_beta"),
            head_projection=p("mlm.head_projection"),
            head_bias=p("mlm.head_bias"),
            tail_down=[p(f"mlm.tails.{i}.down") for i in range(n_tails)],
            tail_out=[p(f"mlm.tails.{i}.out") for i in range(n_tails)],
            token_order=token_order,
        ),
    )


def build_model(config: ModelConfig, seed: int = 0,
                token_counts: np.ndarray | None = None,
                dtype=np.float32) -> EncoderModel:
    rng = np.random.default_rng(seed)
    cutoffs = config.adaptive_cutoffs
    params: dict[str, np.ndarray] = {}
    for name, shape, init in _param_specs(config):
        if init == "ones":
            arr = np.ones(shape, dtype=dtype)
        elif init == "zeros":
            arr = np.zeros(shape, dtype=dtype)
        elif init == "gate":
            # gate bias log|cluster| makes an all-zero head exactly uniform over V
            arr = np.zeros(shape, dtype=dtype)
            for i in range(len(cutoffs) - 1):
                arr[cutoffs[0] + i] = math.log(cutoffs[i + 1] - cutoffs[i])
        else:
            arr = rng.normal(0.0, 0.02, shape).astype(dtype)
            if init == "identity":
                arr += np.eye(shape[-1], dtype=dtype)
        params[name] = arr
    return _assemble(config, params,
                     token_frequency_order(token_counts, config.vocab_size))


# ---------------------------------------------------------------------------
# forward

def embed_tokens(embedding: MultiProjEmbedding, ids) -> Tensor:
    """Attention-weighted sum of K projected views of each token embedding:
    ids (T,), result (T, d)."""
    ids = np.asarray(ids, dtype=np.int64)
    vocab_size = embedding.table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError(f"token id out of range for vocab of {vocab_size}")
    k, d = embedding.scorer.shape
    e = ad.reshape(ad.index_select(embedding.table, ids), (1, ids.size, d))
    h = ad.matmul(e, embedding.projections)                   # (K, T, d)
    scores = ad.sum_(ad.mul(h, ad.reshape(embedding.scorer, (k, 1, d))), axis=-1)
    weights = ad.softmax(scores, axis=0)                      # (K, T)
    combined = ad.mul(h, ad.reshape(weights, weights.shape + (1,)))
    return ad.sum_(combined, axis=0)                          # (T, d)


def _attention(h: Tensor, layer: EncoderLayer, runs: tuple[tuple[int, int], ...],
               biases: list[np.ndarray], config: ModelConfig) -> Tensor:
    t, d = h.shape
    heads_shape = (t, config.heads, d // config.heads)
    q = ad.reshape(ad.linear(h, layer.wq, layer.bq), heads_shape)
    # no key bias: it would add q . bk to every logit of a query, which the
    # softmax over keys cancels
    key = ad.reshape(ad.matmul(h, layer.wk), heads_shape)
    v = ad.reshape(ad.linear(h, layer.wv, layer.bv), heads_shape)
    scale = 1.0 / math.sqrt(heads_shape[-1])
    ctx = ad.attention(q, key, v, runs, biases, scale)          # (T, heads, dh)
    return ad.linear(ad.reshape(ctx, (t, d)), layer.wo, layer.bo)


def encoder_forward(model: EncoderModel, ids,
                    runs: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """Hidden states (T, d) of the sequences packed end to end in ids (T,).

    runs lists (count, length) for each run of equal-length sequences in
    packed order (autodiff.attention); None means that ids is one sequence.
    Attention stays within each sequence, and every other op works row by
    row, so a sequence's rows do not depend on what it is packed with.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("ids must be a non-empty (T,) array of token ids")
    runs = ((1, ids.size),) if runs is None else tuple(runs)
    if sum(count * length for count, length in runs) != ids.size:
        raise ValueError(f"runs {runs} do not lay out {ids.size} ids")
    longest = max(length for _, length in runs)
    if longest > model.config.max_infer_len:
        raise ValueError(f"sequence length {longest} exceeds "
                         f"max_infer_len {model.config.max_infer_len}")
    rows = ids.size
    pad = _min_rows(model.config) - rows
    if pad > 0:
        ids = np.concatenate([ids, np.full(pad, ids[0])])
        runs += ((pad, 1),)
    dtype = model.embedding.table.dtype
    biases = [_alibi_stack(model.alibi, length, dtype) for _, length in runs]

    h = embed_tokens(model.embedding, ids)
    for layer in model.layers:
        attn_in = ad.affine_norm(h, layer.ln1_gamma, layer.ln1_beta)
        h = ad.add(h, _attention(attn_in, layer, runs, biases, model.config))
        ffn_in = ad.affine_norm(h, layer.ln2_gamma, layer.ln2_beta)
        ffn = ad.gelu(ad.linear(ffn_in, layer.w_ffn_in, layer.b_ffn_in))
        h = ad.add(h, ad.linear(ffn, layer.w_ffn_out, layer.b_ffn_out))
    out = ad.affine_norm(h, model.final_gamma, model.final_beta)
    return ad.narrow(out, 0, 0, rows) if pad > 0 else out


def _min_rows(config: ModelConfig) -> int:
    """Fewest rows a forward runs on; a shorter pack is topped up with
    one-token sequences whose rows are dropped.

    numpy's OpenBLAS computes a one-row float32 product with gemv, and one
    of at most 10**6 multiply-adds with a small-matrix kernel. Measured on
    x86-64 with AVX-512, that kernel rounds like the blocked gemm of a
    larger product when the inner size K is at most 384 and either the
    output width N is a multiple of 16 or K is below 32. So a pack needs 2
    rows, and enough rows to pass the cut when a position-wise product
    (K, N) is outside those sizes. Every row of a product then comes out the
    same whatever rows it is computed with, so a sequence's hidden states
    do not depend on what it is packed with.
    """
    d, f = config.hidden, config.ffn_dim
    rows = 2
    for k, n in ((d, d), (d, f), (f, d)):
        if k > 384 or (n % 16 and k >= 32):
            rows = max(rows, 10 ** 6 // (k * n) + 1)
    return rows


# Most tokens one forward packs; a longer sequence runs alone. A run of
# sequences of length S then holds at most heads * _PACK_TOKENS * S
# attention weights.
_PACK_TOKENS = 2048


def _packs(id_lists: Sequence[Sequence[int]]) -> Iterator[tuple]:
    """Yield (rows, ids, runs) for each forward over id_lists.

    Sequences are taken shortest first, in input order within a length, and
    laid end to end until the next one would take a pack past
    _PACK_TOKENS. rows are the indices of a pack's sequences in packed
    order, ids their (T,) concatenation and runs its (count, length) runs.
    """
    lengths = [len(ids) for ids in id_lists]
    packs: list[list[int]] = []
    tokens = 0
    for i in sorted(range(len(lengths)), key=lambda i: (lengths[i], i)):
        if not packs or tokens + lengths[i] > _PACK_TOKENS:
            packs.append([])
            tokens = 0
        packs[-1].append(i)
        tokens += lengths[i]
    for rows in packs:
        ids = np.concatenate([np.asarray(id_lists[i], dtype=np.int64) for i in rows])
        runs = tuple((len(list(group)), length)
                     for length, group in groupby(lengths[i] for i in rows))
        yield rows, ids, runs


def embed_batch(model: EncoderModel, id_lists: Sequence[Sequence[int]]) -> Tensor:
    """(n, d) unit embeddings of n token-id sequences, rows in input order.

    Each pack of sequences runs as one forward and is mean-pooled per
    sequence, so each row equals the embedding of that sequence alone, bit
    for bit. The graph is recorded whenever gradients are enabled.
    """
    if len(id_lists) == 0:
        return Tensor(np.zeros((0, model.config.hidden), dtype=model.embedding.table.dtype))
    if not all(len(ids) for ids in id_lists):
        raise ValueError("cannot embed an empty token sequence")
    parts, order = [], []
    for rows, ids, runs in _packs(id_lists):
        pooled = ad.run_mean(encoder_forward(model, ids, runs), runs)
        parts.append(ad.l2_normalize(pooled, axis=-1))
        order += rows
    out = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    if order == sorted(order):
        return out
    return ad.index_select(out, np.argsort(order))


def embed_sequence(model: EncoderModel, ids: Sequence[int]) -> Tensor:
    """Differentiable (d,) unit embedding of one token-id sequence."""
    return ad.reshape(embed_batch(model, [ids]), (model.config.hidden,))


def _token_ids(tokenizer: TokenizerModel, texts: Sequence[str],
               limit: int) -> list[list[int]]:
    """Each text's token ids cut to limit; a text with no tokens is an error."""
    id_lists = []
    for text in texts:
        ids = tokenizer.encode(text).ids[:limit]
        if not ids:
            raise ValueError(f"text tokenized to nothing: {text[:40]!r}")
        id_lists.append(ids)
    return id_lists


def embed_texts(model: EncoderModel, tokenizer: TokenizerModel,
                texts: Sequence[str]) -> np.ndarray:
    """(n, d) unit embeddings of texts, each cut to max_infer_len tokens."""
    id_lists = _token_ids(tokenizer, texts, model.config.max_infer_len)
    with ad.no_grad():
        return embed_batch(model, id_lists).data


def embed_text(model: EncoderModel, tokenizer: TokenizerModel, text: str) -> np.ndarray:
    return embed_texts(model, tokenizer, [text])[0]


# ---------------------------------------------------------------------------
# adaptive softmax MLM head

def target_log_probs(head: AdaptiveSoftmaxHead, hidden: Tensor, targets) -> Tensor:
    """Log-probability of each row's target token: hidden (B, d), targets
    (B,) token ids, result (B,).

    Equals the targets picked from the full distribution over the
    vocabulary (adaptive_log_probs in tests/support.py), but computes only
    what the targets need (Grave et al. 2017, arXiv:1609.04309, sec. 4):
    the head log-softmax, and each tail cluster only on the rows whose
    target falls in it. A tail that no target hits runs on zero rows: it
    costs no arithmetic, and its parameters get an exact zero gradient, as
    under the full distribution, so AdamW still steps them (a parameter
    left without a gradient would skip its momentum and weight decay).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (hidden.shape[0],):
        raise ValueError(f"need one target per row: {targets.shape} vs {hidden.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= head.rank_of.size):
        raise ValueError(f"target id out of range for vocab of {head.rank_of.size}")
    n_tails = len(head.tail_down)
    cutoff0 = head.head_projection.shape[1] - n_tails
    ends = cutoff0 + np.cumsum([0] + [out.shape[1] for out in head.tail_out])
    ranks = head.rank_of[targets]
    cluster = np.searchsorted(ends, ranks, side="right")   # 0 head, i + 1 tail i

    head_logits = ad.add(ad.matmul(hidden, head.head_projection), head.head_bias)
    head_lp = ad.log_softmax(head_logits, axis=-1)
    gate_lp = ad.pick(head_lp, np.where(cluster == 0, ranks, cutoff0 + cluster - 1))

    terms = []
    # row -> its tail term; head-target rows read the zero appended last
    where = np.full(len(targets), np.count_nonzero(cluster), dtype=np.int64)
    start = 0
    for i, (down, out) in enumerate(zip(head.tail_down, head.tail_out)):
        rows = np.flatnonzero(cluster == i + 1)
        tail_h = ad.index_select(hidden, rows)
        tail_lp = ad.log_softmax(ad.matmul(ad.matmul(tail_h, down), out), axis=-1)
        terms.append(ad.pick(tail_lp, ranks[rows] - ends[i]))
        where[rows] = np.arange(start, start + rows.size)
        start += rows.size
    terms.append(Tensor(np.zeros(1, dtype=gate_lp.dtype)))
    return ad.add(gate_lp, ad.index_select(ad.concat(terms, axis=0), where))


def mlm_loss(model: EncoderModel, id_lists: Sequence[Sequence[int]],
             mask_positions: Sequence[Sequence[int]],
             original_ids: Sequence[Sequence[int]]) -> Tensor:
    """Mean over sequences of each one's cross-entropy, averaged over its
    masked positions.

    id_lists holds the corrupted sequences, mask_positions one non-empty set
    of positions per sequence and original_ids each sequence's uncorrupted
    ids. The sequences run through the packed forward, and only their masked
    rows, picked by flat offset, reach the head. The head runs through
    target_log_probs, so only the clusters that the targets hit are
    computed; no (positions, V) array is built.
    """
    n = len(id_lists)
    if n == 0:
        raise ValueError("mlm_loss needs at least one sequence")
    if len(mask_positions) != n or len(original_ids) != n:
        raise ValueError(f"{len(mask_positions)} position sets and {len(original_ids)} "
                         f"targets for {n} sequences")
    positions = [np.asarray(sorted(p), dtype=np.int64) for p in mask_positions]
    for ids, pos, original in zip(id_lists, positions, original_ids):
        if pos.size == 0:
            raise ValueError("mlm_loss needs at least one masked position per sequence")
        if len(original) != len(ids) or pos[0] < 0 or pos[-1] >= len(ids):
            raise ValueError(f"masked positions {pos.tolist()} or targets do not fit "
                             f"a sequence of {len(ids)} tokens")
    picked, order = [], []
    for rows, ids, runs in _packs(id_lists):
        starts = np.cumsum([0] + [len(id_lists[i]) for i in rows[:-1]])
        flat = np.concatenate([start + positions[i] for start, i in zip(starts, rows)])
        picked.append(ad.index_select(encoder_forward(model, ids, runs), flat))
        order += rows
    hidden = picked[0] if len(picked) == 1 else ad.concat(picked, axis=0)
    head = model.mlm_head
    normed = ad.affine_norm(hidden, head.pre_norm_gamma, head.pre_norm_beta)
    targets = np.concatenate([np.asarray(original_ids[i], dtype=np.int64)[positions[i]]
                              for i in order])
    log_probs = target_log_probs(head, normed, targets)
    counts = np.array([positions[i].size for i in order])
    weights = np.repeat(1.0 / (n * counts), counts).astype(log_probs.dtype)
    return ad.neg(ad.sum_(ad.mul(log_probs, weights)))


# ---------------------------------------------------------------------------
# save / load

def save_model(directory: Path, model: EncoderModel, vocab: Vocabulary) -> None:
    directory = Path(directory)
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays["mlm.token_order"] = model.mlm_head.token_order
    save_arrays(directory, arrays)
    vocab.save(directory / "vocab.txt")
    config_blob = asdict(model.config)
    config_blob["format_version"] = MODEL_FORMAT_VERSION
    config_blob["vocab_sha256"] = file_hash(directory / "vocab.txt")
    atomic_write_text(directory / "config.json",
                      json.dumps(config_blob, indent=2) + "\n")


def load_model(directory: Path) -> tuple[EncoderModel, Vocabulary]:
    directory = Path(directory)
    config_path = directory / "config.json"
    blob = read_json_object(config_path)
    if "format_version" not in blob:
        raise ValueError(f"{config_path}: model config missing format_version")
    version = blob.pop("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{directory} is a model format {version} checkpoint; "
                         f"this medeir reads only model format {MODEL_FORMAT_VERSION}")
    if "vocab_sha256" not in blob:
        raise ValueError(f"{config_path}: model config missing vocab_sha256")
    stored_hash = blob.pop("vocab_sha256")
    vocab_path = directory / "vocab.txt"
    if file_hash(vocab_path) != stored_hash:
        raise ValueError(f"{vocab_path}: does not match the hash recorded in config.json")
    vocab = Vocabulary.load(vocab_path)
    try:
        config = ModelConfig.from_dict(blob)
    except ValueError as err:
        raise ValueError(f"{config_path}: {err}") from err

    arrays = load_arrays(directory)
    shapes = {name: shape for name, shape, _ in _param_specs(config)}
    shapes["mlm.token_order"] = (config.vocab_size,)
    missing = set(shapes) - set(arrays)
    extra = set(arrays) - set(shapes)
    if missing or extra:
        raise ValueError(f"{directory / 'manifest.json'}: checkpoint mismatch: "
                         f"missing={sorted(missing)} extra={sorted(extra)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{directory / 'manifest.json'}: shape mismatch for {name}: "
                             f"{arrays[name].shape} vs {shape}")
    token_order = arrays.pop("mlm.token_order").astype(np.int64)
    if not np.array_equal(np.sort(token_order), np.arange(config.vocab_size)):
        raise ValueError(f"{directory / 'manifest.json'}: mlm.token_order is not "
                         f"a permutation of the {config.vocab_size} token ids")
    params = {name: arr.astype(np.float32, copy=False) for name, arr in arrays.items()}
    return _assemble(config, params, token_order), vocab
