"""The MedEIR encoder.

Pieces that differ from a stock pre-norm transformer:
  - token embeddings pass through K parallel projections whose outputs are
    combined by a learned attention-weighted sum;
  - attention uses symmetric ALiBi distance penalties instead of position
    embeddings, so no parameter anywhere carries a sequence-length axis;
  - the MLM head is an adaptive softmax over frequency-ranked clusters with
    a layer norm applied before projection.

Forward functions take one sequence of ids (S,) or a batch of equal-length
sequences (B, S), and every op broadcasts over the leading batch axis.
embed_batch is the one encode path that training, evaluation, filtering and
mining share: it groups sequences by exact token length and runs one
forward per group. Unpadded groups make each row's arithmetic (numpy
matmul runs one gemm per batch item; reductions see the same lengths)
that of a forward over that sequence alone, so a text's embedding does not
depend on what it is batched with. Attention is one fused autodiff op
(autodiff.attention), and each forward builds its ALiBi bias afresh, in the
model's dtype, as a strided view of one (heads, 2S - 1) row per head.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import atomic_write_text, file_hash, load_arrays, save_arrays
from .tokenizer import TokenizerModel, Vocabulary

MODEL_FORMAT_VERSION = 1


def _default_cutoffs(vocab_size: int) -> tuple[int, ...]:
    """Head = top ~20% of tokens by frequency, two tails splitting the rest."""
    c0 = max(1, round(0.2 * vocab_size))
    c1 = max(c0 + 1, round(0.6 * vocab_size))
    cuts = [c0, c1, vocab_size]
    ascending = []
    for c in cuts:
        if c >= vocab_size:
            break
        if not ascending or c > ascending[-1]:
            ascending.append(c)
    return tuple(ascending + [vocab_size])


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
    tail_reduction_factor: int = 4
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.num_projections < 1:
            raise ValueError("num_projections must be >= 1")
        if self.max_infer_len < self.max_train_len:
            raise ValueError("max_infer_len must be >= max_train_len")
        cutoffs = tuple(self.adaptive_cutoffs) or _default_cutoffs(self.vocab_size)
        if list(cutoffs) != sorted(set(cutoffs)):
            raise ValueError(f"cutoffs must be strictly ascending: {cutoffs}")
        if cutoffs[-1] != self.vocab_size:
            raise ValueError(f"last cutoff {cutoffs[-1]} != vocab size {self.vocab_size}")
        object.__setattr__(self, "adaptive_cutoffs", cutoffs)

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "hidden": self.hidden,
            "layers": self.layers,
            "heads": self.heads,
            "ffn_dim": self.ffn_dim,
            "num_projections": self.num_projections,
            "max_train_len": self.max_train_len,
            "max_infer_len": self.max_infer_len,
            "adaptive_cutoffs": list(self.adaptive_cutoffs),
            "tail_reduction_factor": self.tail_reduction_factor,
            "layer_norm_eps": self.layer_norm_eps,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "ModelConfig":
        blob = dict(blob)
        blob["adaptive_cutoffs"] = tuple(blob.get("adaptive_cutoffs", ()))
        return cls(**blob)


# ---------------------------------------------------------------------------
# ALiBi

@dataclass(frozen=True)
class AlibiBias:
    slopes: tuple[float, ...]

    def __post_init__(self):
        if not self.slopes:
            raise ValueError("AlibiBias needs at least one slope")
        if any(s <= 0 for s in self.slopes):
            raise ValueError("slopes must be positive")
        if any(a <= b for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must be strictly decreasing")


def _power_of_two_slopes(n: int) -> list[float]:
    return [2.0 ** (-8.0 * i / n) for i in range(1, n + 1)]


def alibi_slopes(n_heads: int) -> AlibiBias:
    """Geometric head slopes; non-powers-of-two interleave two ladders."""
    if n_heads < 1:
        raise ValueError("n_heads must be >= 1")
    if math.log2(n_heads).is_integer():
        slopes = _power_of_two_slopes(n_heads)
    else:
        closest = 2 ** math.floor(math.log2(n_heads))
        slopes = _power_of_two_slopes(closest)
        slopes += _power_of_two_slopes(2 * closest)[0::2][: n_heads - closest]
        slopes.sort(reverse=True)
    return AlibiBias(tuple(slopes))


def alibi_bias_matrix(seq_len: int, slope: float) -> np.ndarray:
    """Symmetric encoder bias: entry (i, j) is -slope * |i - j|."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    idx = np.arange(seq_len)
    return (-slope * np.abs(idx[:, None] - idx[None, :])).astype(np.float64)


def _alibi_stack(slopes: tuple[float, ...], seq_len: int, dtype) -> np.ndarray:
    """(heads, S, S) read-only view equal to the stacked alibi_bias_matrix.

    Each head's values come from one row of -slope * |d| for d in
    [-(S - 1), S - 1], computed in float64 and cast to dtype as
    alibi_bias_matrix(...).astype(dtype) would. Row i of a head is the
    window of that row starting at offset S - 1 - i.
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
    bk: Tensor
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
    alibi: AlibiBias
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
             "wk": ((d, d), "normal"), "bk": ((d,), "zeros"),
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
        d_i = max(1, d // (config.tail_reduction_factor ** (i + 1)))
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

def _affine_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    return ad.add(ad.mul(ad.layer_norm(x, eps), gamma), beta)


def embed_tokens(embedding: MultiProjEmbedding, ids) -> Tensor:
    """Attention-weighted sum of K projected views of each token embedding.

    ids is (S,) or (B, S); the result is (S, d) or (B, S, d).
    """
    ids = np.asarray(ids, dtype=np.int64)
    vocab_size = embedding.table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError(f"token id out of range for vocab of {vocab_size}")
    k, d = embedding.scorer.shape
    e = ad.index_select(embedding.table, ids)                 # (..., S, d)
    e = ad.reshape(e, ids.shape[:-1] + (1, ids.shape[-1], d))
    h = ad.matmul(e, embedding.projections)                   # (..., K, S, d)
    scores = ad.sum_(ad.mul(h, ad.reshape(embedding.scorer, (k, 1, d))), axis=-1)
    weights = ad.softmax(scores, axis=-2)                     # (..., K, S)
    combined = ad.mul(h, ad.reshape(weights, weights.shape + (1,)))
    return ad.sum_(combined, axis=-3)                         # (..., S, d)


def _attention(h: Tensor, layer: EncoderLayer, alibi_bias: np.ndarray,
               pad_mask: np.ndarray | None, config: ModelConfig) -> Tensor:
    lead, (s, d) = h.shape[:-2], h.shape[-2:]
    n = config.heads
    dh = d // n
    r = len(lead)
    swap = tuple(range(r)) + (r + 1, r, r + 2)  # (..., S, n, dh) <-> (..., n, S, dh)

    def heads_view(x):
        return ad.transpose(ad.reshape(x, lead + (s, n, dh)), swap)

    q = heads_view(ad.add(ad.matmul(h, layer.wq), layer.bq))
    key = heads_view(ad.add(ad.matmul(h, layer.wk), layer.bk))
    v = heads_view(ad.add(ad.matmul(h, layer.wv), layer.bv))

    ctx = ad.attention(q, key, v, alibi_bias, 1.0 / math.sqrt(dh),
                       pad_mask)                               # (..., n, S, dh)
    merged = ad.reshape(ad.transpose(ctx, swap), lead + (s, d))
    return ad.add(ad.matmul(merged, layer.wo), layer.bo)


def encoder_forward(model: EncoderModel, ids, attention_mask=None) -> Tensor:
    """Run the full encoder over one sequence (S,) or a batch of equal-length
    sequences (B, S); returns (S, d) or (B, S, d) hidden states."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size == 0:
        raise ValueError("ids must be a non-empty (S,) sequence or (B, S) batch")
    seq_len = ids.shape[-1]
    if seq_len > model.config.max_infer_len:
        raise ValueError(f"sequence length {seq_len} exceeds "
                         f"max_infer_len {model.config.max_infer_len}")
    pad = None
    if attention_mask is not None:
        mask = np.asarray(attention_mask)
        if mask.shape != ids.shape:
            raise ValueError("attention_mask shape must match ids")
        if (mask == 0).any():
            pad = mask == 0
    eps = model.config.layer_norm_eps

    alibi = _alibi_stack(model.alibi.slopes, seq_len, model.embedding.table.dtype)

    h = embed_tokens(model.embedding, ids)
    for layer in model.layers:
        attn_in = _affine_norm(h, layer.ln1_gamma, layer.ln1_beta, eps)
        h = ad.add(h, _attention(attn_in, layer, alibi, pad, model.config))
        ffn_in = _affine_norm(h, layer.ln2_gamma, layer.ln2_beta, eps)
        ffn = ad.matmul(ad.gelu(ad.add(ad.matmul(ffn_in, layer.w_ffn_in),
                                       layer.b_ffn_in)), layer.w_ffn_out)
        h = ad.add(h, ad.add(ffn, layer.b_ffn_out))
    return _affine_norm(h, model.final_gamma, model.final_beta, eps)


def mean_pool(hidden: Tensor, attention_mask=None) -> Tensor:
    """Mean of each sequence's hidden states over its unmasked positions.

    hidden is (S, d) or (B, S, d); a mask that leaves positions out is
    taken only for a single sequence.
    """
    mask = None if attention_mask is None else np.asarray(attention_mask)
    if mask is None or (mask == 1).all():
        return ad.mean(hidden, axis=-2)
    if hidden.ndim != 2:
        raise ValueError("mean_pool over padded positions takes one sequence")
    keep = np.flatnonzero(mask == 1)
    if keep.size == 0:
        raise ValueError("mean_pool with every position masked")
    return ad.mean(ad.index_select(hidden, keep), axis=0)


def embed_sequence(model: EncoderModel, ids, attention_mask=None) -> Tensor:
    """Differentiable text embedding: forward, mean-pool, unit-normalize.

    ids is (S,) or (B, S); the result is (d,) or (B, d).
    """
    hidden = encoder_forward(model, ids, attention_mask)
    return ad.l2_normalize(mean_pool(hidden, attention_mask), axis=-1)


# Most floats one forward's (B, heads, S, S) attention weights may hold; a
# larger group of equal-length sequences is split over several forwards.
_GROUP_FLOATS = 1 << 22


def length_groups(lengths: Sequence[int], heads: int) -> list[list[int]]:
    """Indices of the sequences of each length, shortest length first and in
    input order within a length, split so that no group's attention weights
    exceed _GROUP_FLOATS floats."""
    by_length: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        by_length.setdefault(length, []).append(i)
    groups = []
    for length in sorted(by_length):
        rows = by_length[length]
        step = max(1, _GROUP_FLOATS // (heads * length * length))
        groups.extend(rows[start:start + step] for start in range(0, len(rows), step))
    return groups


def embed_batch(model: EncoderModel, id_lists: Sequence[Sequence[int]]) -> Tensor:
    """(n, d) unit embeddings of n token-id sequences, rows in input order.

    Sequences of one length run as one forward over a (B, S) batch, so each
    row equals embed_sequence of that sequence alone, bit for bit. The graph
    is recorded whenever gradients are enabled.
    """
    if not id_lists:
        return Tensor(np.zeros((0, model.config.hidden), dtype=model.embedding.table.dtype))
    if not all(len(ids) for ids in id_lists):
        raise ValueError("cannot embed an empty token sequence")
    groups = length_groups([len(ids) for ids in id_lists], model.config.heads)
    parts = [embed_sequence(model, [id_lists[i] for i in rows]) for rows in groups]
    out = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    order = [i for rows in groups for i in rows]
    if order == sorted(order):
        return out
    return ad.index_select(out, np.argsort(order))


def embed_texts(model: EncoderModel, tokenizer: TokenizerModel,
                texts: Sequence[str]) -> np.ndarray:
    """(n, d) unit embeddings of texts, each cut to max_infer_len tokens."""
    limit = model.config.max_infer_len
    id_lists = []
    for text in texts:
        ids = tokenizer.encode(text).ids
        if not ids:
            raise ValueError("text produced no tokens")
        id_lists.append(ids[:limit])
    with ad.no_grad():
        return embed_batch(model, id_lists).data


def embed_text(model: EncoderModel, tokenizer: TokenizerModel, text: str) -> np.ndarray:
    return embed_texts(model, tokenizer, [text])[0]


# ---------------------------------------------------------------------------
# adaptive softmax MLM head

def adaptive_log_probs(head: AdaptiveSoftmaxHead, hidden: Tensor) -> Tensor:
    """Log-probabilities over the vocabulary in token-id order.

    hidden may be (d,) for one position or (B, d) for a batch; the result
    is (V,) or (B, V) accordingly.
    """
    single = hidden.ndim == 1
    if single:
        hidden = ad.reshape(hidden, (1, hidden.shape[0]))
    cutoff0 = head.head_projection.shape[1] - len(head.tail_down)

    head_logits = ad.add(ad.matmul(hidden, head.head_projection), head.head_bias)
    head_lp = ad.log_softmax(head_logits, axis=-1)
    parts = [ad.narrow(head_lp, 1, 0, cutoff0)]
    for i, (down, out) in enumerate(zip(head.tail_down, head.tail_out)):
        gate = ad.narrow(head_lp, 1, cutoff0 + i, cutoff0 + i + 1)   # (B, 1)
        tail_lp = ad.log_softmax(ad.matmul(ad.matmul(hidden, down), out), axis=-1)
        parts.append(ad.add(tail_lp, gate))
    rank_lp = ad.concat(parts, axis=1)                               # (B, V) by rank
    id_lp = ad.transpose(ad.index_select(ad.transpose(rank_lp), head.rank_of))
    if single:
        id_lp = ad.reshape(id_lp, (id_lp.shape[1],))
    return id_lp


def mlm_loss(model: EncoderModel, ids, mask_positions, original_ids,
             attention_mask=None) -> Tensor:
    """Cross-entropy at the masked positions.

    For one sequence (ids (S,), one set of positions) it is the mean over
    those positions. For a batch of equal-length sequences (ids (B, S), one
    set of positions per row) it is the mean over rows of each row's mean.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids, mask_positions, original_ids = ids[None], [mask_positions], [original_ids]
        if attention_mask is not None:
            attention_mask = np.asarray(attention_mask)[None]
    rows = [sorted(positions) for positions in mask_positions]
    if len(rows) != ids.shape[0]:
        raise ValueError(f"{len(rows)} position sets for {ids.shape[0]} sequences")
    if not all(rows):
        raise ValueError("mlm_loss needs at least one masked position per sequence")
    batch, seq_len = ids.shape
    flat = np.concatenate([b * seq_len + np.asarray(r, dtype=np.int64)
                           for b, r in enumerate(rows)])
    hidden = encoder_forward(model, ids, attention_mask)
    hidden = ad.reshape(hidden, (batch * seq_len, hidden.shape[-1]))
    head = model.mlm_head
    normed = _affine_norm(ad.index_select(hidden, flat), head.pre_norm_gamma,
                          head.pre_norm_beta, model.config.layer_norm_eps)
    log_probs = adaptive_log_probs(head, normed)
    targets = np.asarray(original_ids, dtype=np.int64).reshape(-1)[flat]
    counts = np.array([len(r) for r in rows])
    weights = np.repeat(1.0 / (batch * counts), counts).astype(log_probs.dtype)
    return ad.neg(ad.sum_(ad.mul(ad.pick(log_probs, targets), weights)))


# ---------------------------------------------------------------------------
# save / load

def save_model(directory: Path, model: EncoderModel, vocab: Vocabulary) -> None:
    directory = Path(directory)
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays["mlm.token_order"] = model.mlm_head.token_order
    save_arrays(directory, arrays)
    vocab.save(directory / "vocab.txt")
    config_blob = model.config.to_dict()
    config_blob["format_version"] = MODEL_FORMAT_VERSION
    config_blob["vocab_sha256"] = file_hash(directory / "vocab.txt")
    atomic_write_text(directory / "config.json",
                      json.dumps(config_blob, indent=2) + "\n")


def load_model(directory: Path) -> tuple[EncoderModel, Vocabulary]:
    directory = Path(directory)
    with open(directory / "config.json", "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if "format_version" not in blob:
        raise ValueError("model config missing format_version")
    if blob.pop("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError("unsupported model format version")
    stored_hash = blob.pop("vocab_sha256", None)
    vocab_path = directory / "vocab.txt"
    if stored_hash is not None and file_hash(vocab_path) != stored_hash:
        raise ValueError("vocab.txt does not match the hash recorded in config.json")
    vocab = Vocabulary.load(vocab_path)
    config = ModelConfig.from_dict(blob)

    arrays = load_arrays(directory)
    token_order = arrays.pop("mlm.token_order").astype(np.int64)
    shapes = {name: shape for name, shape, _ in _param_specs(config)}
    missing = set(shapes) - set(arrays)
    extra = set(arrays) - set(shapes)
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing={sorted(missing)} "
                         f"extra={sorted(extra)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"shape mismatch for {name}: "
                             f"{arrays[name].shape} vs {shape}")
    params = {name: arr.astype(np.float32, copy=False) for name, arr in arrays.items()}
    return _assemble(config, params, token_order), vocab
