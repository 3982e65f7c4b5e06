import math
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from medeir import autodiff as ad
from medeir.autodiff import Tensor
from medeir import model as model_module
from medeir.model import (
    ModelConfig,
    _alibi_stack,
    alibi_slopes,
    build_model,
    embed_batch,
    embed_sequence,
    embed_text,
    embed_texts,
    embed_tokens,
    encoder_forward,
    load_model,
    mlm_loss,
    save_model,
    target_log_probs,
    token_frequency_order,
)
from medeir.tokenizer import SPECIAL_TOKENS, TokenizerModel, Vocabulary
from medeir.training import info_nce_loss
from support import adaptive_log_probs, grad_check
from test_autodiff import packed_attention_chain

TOY = ModelConfig(vocab_size=40, hidden=32, layers=2, heads=4, ffn_dim=64,
                  num_projections=3, max_train_len=80, max_infer_len=256)


def toy_model(seed=0, dtype=np.float32, config=TOY):
    return build_model(config, seed=seed, dtype=dtype)


def alibi_bias_matrix(seq_len: int, slope: float) -> np.ndarray:
    """Reference symmetric encoder bias: entry (i, j) is -slope * |i - j|."""
    idx = np.arange(seq_len)
    return (-slope * np.abs(idx[:, None] - idx[None, :])).astype(np.float64)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(vocab_size=1000)
        assert cfg.hidden == 128 and cfg.layers == 2 and cfg.heads == 4
        assert cfg.adaptive_cutoffs == (200, 600, 1000)

    def test_small_vocab_cutoffs_stay_ascending(self):
        for v in (1, 2, 3, 5, 7, 31):
            cfg = ModelConfig(vocab_size=v, hidden=8, heads=2, ffn_dim=16)
            cuts = cfg.adaptive_cutoffs
            assert list(cuts) == sorted(set(cuts))
            assert cuts[-1] == v

    def test_hidden_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, hidden=30, heads=4)

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 0), ("hidden", 0), ("layers", 0), ("layers", -1), ("heads", 0),
        ("ffn_dim", 0), ("num_projections", 0), ("max_train_len", 0)])
    def test_size_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            ModelConfig(**{"vocab_size": 10, field: value})

    def test_zero_first_cutoff_rejected(self):
        with pytest.raises(ValueError, match="from >= 1"):
            ModelConfig(vocab_size=10, adaptive_cutoffs=(0, 10))

    def test_bad_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, adaptive_cutoffs=(5, 5, 10))
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, adaptive_cutoffs=(5, 9))

    def test_infer_len_shorter_than_train_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, max_train_len=512, max_infer_len=256)

    def test_round_trip_dict(self):
        cfg = ModelConfig(vocab_size=100, hidden=64, heads=8)
        assert ModelConfig.from_dict(asdict(cfg)) == cfg


class TestAlibi:
    def test_power_of_two_slopes(self):
        assert alibi_slopes(8) == tuple(2.0 ** -i for i in range(1, 9))

    def test_single_head(self):
        assert alibi_slopes(1) == (2.0 ** -8,)

    def test_non_power_of_two_interleaves(self):
        got = alibi_slopes(6)
        base = [2.0 ** (-8.0 * i / 4) for i in range(1, 5)]
        extra = [2.0 ** (-8.0 * i / 8) for i in range(1, 9)][0::2][:2]
        assert sorted(got, reverse=True) == sorted(base + extra, reverse=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_slopes_positive_strictly_decreasing(self, n):
        s = alibi_slopes(n)
        assert len(s) == n
        assert all(x > 0 for x in s)
        assert all(a > b for a, b in zip(s, s[1:]))

    def test_zero_heads_rejected(self):
        with pytest.raises(ValueError):
            alibi_slopes(0)

    def test_bias_matrix_values(self):
        m = alibi_bias_matrix(5, 0.25)
        assert np.all(np.diag(m) == 0.0)
        assert m[0, 3] == pytest.approx(-0.75)
        assert np.array_equal(m, m.T)


class TestAlibiStack:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seq_len", [1, 2, 7, 513])
    @pytest.mark.parametrize("heads", range(1, 9))
    def test_bitwise_equal_to_stacked_matrices(self, heads, seq_len, dtype):
        slopes = alibi_slopes(heads)
        got = _alibi_stack(slopes, seq_len, dtype)
        expect = np.stack([alibi_bias_matrix(seq_len, s).astype(dtype)
                           for s in slopes])
        assert got.dtype == np.dtype(dtype)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            _alibi_stack((0.5,), 0, np.float32)


class TestEmbedTokens:
    def test_k1_is_plain_projection(self):
        cfg = ModelConfig(vocab_size=10, hidden=8, layers=1, heads=2, ffn_dim=16,
                          num_projections=1)
        m = toy_model(config=cfg)
        ids = [3, 7]
        out = embed_tokens(m.embedding, ids)
        expect = m.embedding.table.data[ids] @ m.embedding.projections.data[0]
        assert np.allclose(out.data, expect, atol=1e-6)

    def test_identical_projections_give_uniform_weights(self):
        cfg = ModelConfig(vocab_size=10, hidden=8, layers=1, heads=2, ffn_dim=16,
                          num_projections=4)
        m = toy_model(config=cfg)
        proj0 = m.embedding.projections.data[0].copy()
        m.embedding.projections.data[:] = proj0
        score0 = m.embedding.scorer.data[0].copy()
        m.embedding.scorer.data[:] = score0
        out = embed_tokens(m.embedding, [2]).data[0]
        expect = m.embedding.table.data[2] @ proj0
        assert np.allclose(out, expect, atol=1e-6)

    def test_matches_straight_line_oracle(self):
        m = toy_model(seed=11)
        ids = [5, 17]
        got = embed_tokens(m.embedding, ids).data
        table = m.embedding.table.data
        projs = m.embedding.projections.data
        scorer = m.embedding.scorer.data
        for row, tid in enumerate(ids):
            e = table[tid]
            hs = np.stack([e @ projs[k] for k in range(projs.shape[0])])
            scores = np.array([hs[k] @ scorer[k] for k in range(projs.shape[0])])
            exp = np.exp(scores - scores.max())
            weights = exp / exp.sum()
            assert weights.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(weights >= 0)
            oracle = (weights[:, None] * hs).sum(axis=0)
            assert np.allclose(got[row], oracle, atol=1e-5)

    def test_out_of_range_id_rejected(self):
        m = toy_model()
        with pytest.raises(ValueError):
            embed_tokens(m.embedding, [TOY.vocab_size])


class TestEncoderForward:
    def test_output_shape(self):
        m = toy_model()
        out = encoder_forward(m, np.arange(9) % TOY.vocab_size)
        assert out.shape == (9, TOY.hidden)

    def test_length_over_max_infer_rejected(self):
        m = toy_model()
        with pytest.raises(ValueError):
            encoder_forward(m, np.zeros(TOY.max_infer_len + 1, dtype=int))

    def test_long_input_beyond_train_len_accepted(self):
        m = toy_model()
        out = encoder_forward(m, np.arange(TOY.max_train_len * 2) % TOY.vocab_size)
        assert out.shape == (TOY.max_train_len * 2, TOY.hidden)

    def test_no_parameter_carries_sequence_length(self):
        m = toy_model()
        for name, p in m.named_parameters().items():
            for dim in p.shape:
                assert dim not in (TOY.max_train_len, TOY.max_infer_len), name

    def test_fused_attention_matches_composed_chain(self, monkeypatch):
        """The model's forward and gradients are bitwise those it gets when
        attention runs as the unfused chain of autodiff ops."""
        self.check_fused_matches_composed(monkeypatch, None)

    def test_fused_attention_matches_composed_chain_over_a_pack(self, monkeypatch):
        self.check_fused_matches_composed(monkeypatch, ((3, 1), (2, 9), (1, 109)))

    @staticmethod
    def check_fused_matches_composed(monkeypatch, runs):
        rng = np.random.default_rng(12)
        ids = rng.integers(0, TOY.vocab_size, 130)

        def run():
            m = toy_model(seed=4)
            out = encoder_forward(m, ids, runs)
            ad.backward(ad.sum_(ad.mul(out, out)))
            return [out.data] + [p.grad for p in m.named_parameters().values()]

        fused = run()
        monkeypatch.setattr(ad, "attention", packed_attention_chain)
        composed = run()
        for a, b in zip(fused, composed):
            assert np.array_equal(a, b)

    def test_runs_must_cover_the_ids(self):
        m = toy_model()
        with pytest.raises(ValueError):
            encoder_forward(m, np.arange(9), ((2, 4),))
        with pytest.raises(ValueError):
            encoder_forward(m, np.arange(9), ((1, 4), (1, TOY.max_infer_len + 1)))

    def test_deterministic(self):
        ids = np.array([3, 1, 4, 1, 5])
        a = encoder_forward(toy_model(seed=5), ids).data
        b = encoder_forward(toy_model(seed=5), ids).data
        assert np.array_equal(a, b)


class TestFloat32Model:
    """A float32 model computes in float32 end to end."""

    def test_encoder_forward_and_losses_stay_float32(self):
        m = toy_model(seed=1)
        ids = np.array([3, 8, 2, 9, 14])
        assert encoder_forward(m, ids).dtype == np.float32
        assert mlm_loss(m, [ids], [[1, 3]], [ids]).dtype == np.float32
        q = ad.stack([embed_sequence(m, ids[:3]), embed_sequence(m, ids[1:])])
        p = ad.stack([embed_sequence(m, ids[2:]), embed_sequence(m, ids[:4])])
        assert q.dtype == np.float32
        assert info_nce_loss(q, p, temperature=0.05).dtype == np.float32

    def test_embed_text_is_float32(self, setup):
        model, tok = setup
        assert embed_text(model, tok, "abc def").dtype == np.float32

    def test_float64_model_stays_float64(self):
        m = toy_model(seed=1, dtype=np.float64)
        ids = np.array([3, 8, 2])
        assert encoder_forward(m, ids).dtype == np.float64
        assert mlm_loss(m, [ids], [[1]], [ids]).dtype == np.float64


@pytest.fixture(scope="module")
def setup():
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    vocab = Vocabulary(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters])
    cfg = ModelConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                      ffn_dim=64, max_train_len=64, max_infer_len=128)
    return build_model(cfg, seed=1), TokenizerModel(vocab)


class TestEmbedText:
    def test_unit_norm(self, setup):
        model, tok = setup
        v = embed_text(model, tok, "abc def")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_self_cosine_is_one(self, setup):
        model, tok = setup
        a = embed_text(model, tok, "some words here")
        b = embed_text(model, tok, "some words here")
        assert float(a @ b) == pytest.approx(1.0, abs=1e-6)

    def test_empty_tokenization_rejected(self, setup):
        model, tok = setup
        with pytest.raises(ValueError):
            embed_text(model, tok, "   ")


def per_text_embedding(model, tok, text):
    """The per-text reference: one forward over the text alone, then the
    mean over its positions and unit normalization, in numpy."""
    ids = tok.encode(text).ids[:model.config.max_infer_len]
    with ad.no_grad():
        hidden = encoder_forward(model, ids).data
    pooled = hidden.mean(axis=0)
    return pooled / np.sqrt((pooled ** 2).sum(axis=-1, keepdims=True))


MIXED_TEXTS = ["abc def", "some words here", "abc def", "x", "q r s t",
               "x", "abd fed", " ".join(["abc"] * 60), "some words here"]


class TestEmbedBatch:
    @pytest.mark.parametrize("heads", [2, 4])
    def test_bitwise_equal_to_per_text_forwards(self, setup, heads):
        model, tok = setup
        if heads != model.config.heads:
            model = build_model(ModelConfig(vocab_size=len(tok.vocab), hidden=32,
                                            layers=2, heads=heads, ffn_dim=64,
                                            num_projections=3, max_train_len=64,
                                            max_infer_len=64), seed=2)
        lengths = [len(tok.encode(t).ids) for t in MIXED_TEXTS]
        assert max(lengths) > model.config.max_infer_len  # one text is cut
        got = embed_texts(model, tok, MIXED_TEXTS)
        assert got.dtype == np.float32
        want = np.stack([per_text_embedding(model, tok, t) for t in MIXED_TEXTS])
        assert np.array_equal(got, want)
        assert np.array_equal(got[0], got[2])  # duplicates tie exactly
        assert np.array_equal(embed_text(model, tok, MIXED_TEXTS[1]), want[1])

    def test_rows_follow_input_order_when_grouped(self, setup):
        model, tok = setup
        ids = [tok.encode(t).ids for t in MIXED_TEXTS[:7]]
        with ad.no_grad():
            out = embed_batch(model, ids).data
            alone = [embed_batch(model, [row]).data[0] for row in ids]
        assert np.array_equal(out, np.stack(alone))

    def test_oversized_group_splits_with_identical_output(self, setup, monkeypatch):
        model, tok = setup
        texts = ["abc def ghi", "def abc ghi", "ghi def abc", "cba fed ihg", "abc abc abc"]
        ids = [tok.encode(t).ids for t in texts]
        assert len({len(row) for row in ids}) == 1
        calls = []
        real = model_module.encoder_forward

        def counting(model, ids, runs=None):
            calls.append(sum(count for count, _ in runs))  # sequences per forward
            return real(model, ids, runs)

        monkeypatch.setattr(model_module, "encoder_forward", counting)
        whole = embed_texts(model, tok, texts)
        assert len(calls) == 1
        seq_len = len(ids[0])
        # a token budget with room for two sequences per forward
        monkeypatch.setattr(model_module, "_PACK_TOKENS", 2 * seq_len + 1)
        calls.clear()
        split = embed_texts(model, tok, texts)
        assert calls == [2, 2, 1]
        assert np.array_equal(whole, split)

    def test_graph_size_does_not_grow_with_equal_length_texts(self, setup):
        model, tok = setup
        ids = tok.encode("abc def ghi").ids

        def nodes(n):
            loss = ad.sum_(embed_batch(model, [ids] * n))
            return len(ad.ComputationTape.build(loss).nodes)

        assert nodes(6) == nodes(1)

    def test_graph_size_does_not_grow_with_distinct_lengths(self, setup):
        """N texts of N distinct lengths run as one forward: their graph has
        as many nodes as that of one text."""
        model, _ = setup
        rng = np.random.default_rng(6)
        id_lists = [rng.integers(5, 30, n).tolist() for n in range(2, 26)]

        def nodes(batch):
            loss = ad.sum_(embed_batch(model, batch))
            return len(ad.ComputationTape.build(loss).nodes)

        assert nodes(id_lists) == nodes(id_lists[-1:])

    @pytest.mark.parametrize("config", [TOY, ModelConfig(
        vocab_size=40, hidden=128, layers=1, heads=4, ffn_dim=512, num_projections=2,
        max_train_len=64, max_infer_len=64)], ids=["toy", "ffn512"])
    def test_every_length_in_one_pack_is_bitwise_its_own_forward(self, config, monkeypatch):
        """Texts of every length from 1 to N, duplicates, 1-token texts and
        a text cut at max_infer_len, packed together, split over packs by a
        small token budget, and each alone, give the same bits."""
        model = toy_model(seed=3, config=config)
        rng = np.random.default_rng(2)
        n = 40
        id_lists = [rng.integers(0, config.vocab_size, length).tolist()
                    for length in range(1, n + 1)]
        id_lists += [id_lists[0], id_lists[4], [7]]
        long = rng.integers(0, config.vocab_size, config.max_infer_len + 9).tolist()
        id_lists.append(long[:config.max_infer_len])
        order = rng.permutation(len(id_lists))
        id_lists = [id_lists[i] for i in order]
        with ad.no_grad():
            packed = embed_batch(model, id_lists).data
            alone = np.stack([embed_batch(model, [ids]).data[0] for ids in id_lists])
            monkeypatch.setattr(model_module, "_PACK_TOKENS", 50)
            split = embed_batch(model, id_lists).data
        assert np.array_equal(packed, alone)
        assert np.array_equal(split, alone)
        one_token = [i for i, ids in enumerate(id_lists) if len(ids) == 1]
        assert len(one_token) == 3

    def test_min_rows_puts_each_product_on_one_blas_path(self):
        """The rows of every position-wise product over a pack of at least
        _min_rows rows are bitwise those of any larger product."""
        rng = np.random.default_rng(0)
        for config in (TOY, ModelConfig(vocab_size=40, hidden=128, ffn_dim=512),
                       ModelConfig(vocab_size=40, hidden=40, heads=4, ffn_dim=200),
                       ModelConfig(vocab_size=40, hidden=16, heads=2, ffn_dim=24)):
            low = model_module._min_rows(config)
            d, f = config.hidden, config.ffn_dim
            for k, n in ((d, d), (d, f), (f, d)):
                x = rng.standard_normal((1200, k)).astype(np.float32)
                w = rng.standard_normal((k, n)).astype(np.float32)
                full = x @ w
                for rows in range(low, 1000, 7):
                    assert np.array_equal(x[:rows] @ w, full[:rows]), (k, n, rows)

    def test_empty_inputs(self, setup):
        model, tok = setup
        assert embed_texts(model, tok, []).shape == (0, model.config.hidden)
        with pytest.raises(ValueError):
            embed_batch(model, [[5, 6], []])
        with pytest.raises(ValueError):
            embed_texts(model, tok, ["abc", "   "])


class TestAdaptiveSoftmax:
    def test_probabilities_sum_to_one(self):
        m = toy_model(seed=9)
        rng = np.random.default_rng(0)
        h = Tensor(rng.standard_normal((5, TOY.hidden)).astype(np.float32))
        lp = adaptive_log_probs(m.mlm_head, h)
        assert lp.shape == (5, TOY.vocab_size)
        assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-6)

    def test_single_cluster_equals_full_softmax(self):
        cfg = ModelConfig(vocab_size=30, hidden=16, layers=1, heads=2, ffn_dim=32,
                          adaptive_cutoffs=(30,))
        m = toy_model(config=cfg, seed=4)
        rng = np.random.default_rng(1)
        h = Tensor(rng.standard_normal((3, 16)).astype(np.float32))
        lp = adaptive_log_probs(m.mlm_head, h).data
        head = m.mlm_head
        logits = h.data @ head.head_projection.data + head.head_bias.data
        manual = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                                 .sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        manual_id = manual[:, head.rank_of]
        assert np.allclose(lp, manual_id, atol=1e-6)

    def test_tail_probability_decomposes(self):
        m = toy_model(seed=13)
        head = m.mlm_head
        cutoffs = TOY.adaptive_cutoffs
        rng = np.random.default_rng(2)
        h = rng.standard_normal(TOY.hidden).astype(np.float32)
        lp = adaptive_log_probs(head, Tensor(h[None, :])).data[0]

        c0 = cutoffs[0]
        head_logits = h @ head.head_projection.data + head.head_bias.data
        head_lp = head_logits - np.log(np.exp(head_logits).sum())
        for tail_idx in range(len(cutoffs) - 1):
            lo, hi = cutoffs[tail_idx], cutoffs[tail_idx + 1]
            tail_h = h @ head.tail_down[tail_idx].data
            tail_logits = tail_h @ head.tail_out[tail_idx].data
            tail_lp = tail_logits - np.log(np.exp(tail_logits).sum())
            for rank in (lo, hi - 1):
                token_id = head.token_order[rank]
                expect = head_lp[c0 + tail_idx] + tail_lp[rank - lo]
                assert lp[token_id] == pytest.approx(expect, abs=1e-5)


# ranks by cluster of TOY's default cutoffs (8, 24, 40): head [0, 8),
# tail 0 [8, 24), tail 1 [24, 40)
_TARGET_CASES = {
    "head_only": (TOY, None, [0, 3, 7, 7, 1]),
    "every_tail": (TOY, None, [2, 8, 23, 24, 39, 5, 30]),
    "unhit_tail": (TOY, None, [9, 0, 15, 6, 23]),
    "single_row": (TOY, None, [31]),
    "single_cluster": (ModelConfig(vocab_size=30, hidden=16, layers=1, heads=2,
                                   ffn_dim=32, adaptive_cutoffs=(30,)),
                       None, [0, 29, 13, 13, 4]),
    "permuted_ranks": (TOY, np.random.default_rng(7).integers(0, 1000, 40),
                       [1, 7, 8, 20, 26, 39, 3]),
}


class TestTargetLogProbs:
    @pytest.mark.parametrize("case", sorted(_TARGET_CASES))
    def test_matches_dense_log_probs(self, case):
        cfg, counts, ranks = _TARGET_CASES[case]
        head = build_model(cfg, seed=3, token_counts=counts).mlm_head
        if counts is not None:
            assert not np.array_equal(head.rank_of, np.arange(cfg.vocab_size))
        targets = head.token_order[ranks]
        rng = np.random.default_rng(11)
        h = Tensor(rng.standard_normal((len(ranks), cfg.hidden)).astype(np.float32))
        got = target_log_probs(head, h, targets)
        want = ad.pick(adaptive_log_probs(head, h), targets)
        assert got.shape == (len(ranks),) and got.dtype == np.float32
        assert np.allclose(got.data, want.data, rtol=0.0, atol=1e-6)

    def test_bad_targets_rejected(self):
        head = toy_model().mlm_head
        h = Tensor(np.zeros((2, TOY.hidden), dtype=np.float32))
        with pytest.raises(ValueError):
            target_log_probs(head, h, [1])
        with pytest.raises(ValueError):
            target_log_probs(head, h, [1, TOY.vocab_size])
        with pytest.raises(ValueError):
            target_log_probs(head, h, [-1, 2])


# three tails, so targets can hit some and miss others
_THREE_TAILS = ModelConfig(vocab_size=40, hidden=16, layers=1, heads=2, ffn_dim=24,
                           num_projections=2, adaptive_cutoffs=(8, 16, 28, 40),
                           max_train_len=32, max_infer_len=64)


def _masked_loss_fn(model, targets):
    """mlm_loss over 10 tokens with the targets masked at positions 0, 2, 4, ..."""
    ids = np.array([6, 1, 9, 2, 17, 3, 33, 5, 11, 7])
    positions = list(range(0, 2 * len(targets), 2))
    ids[positions] = targets
    corrupted = ids.copy()
    corrupted[positions] = 4
    return lambda _: mlm_loss(model, [corrupted], [positions], [ids])


class TestTargetLossGradients:
    def test_grad_check_through_mlm_loss(self):
        m = build_model(_THREE_TAILS, seed=5, dtype=np.float64)
        loss_fn = _masked_loss_fn(m, [3, 10, 20, 35])   # head, tails 0, 1, 2
        rng = np.random.default_rng(9)
        names = ["mlm.head_projection", "mlm.head_bias", "mlm.pre_norm_gamma",
                 "mlm.pre_norm_beta", "final_gamma"]
        names += [f"mlm.tails.{i}.{part}" for i in range(3) for part in ("down", "out")]
        for name in names:
            param = m.named_parameters()[name]
            err = grad_check(loss_fn, param, h=1e-5, sample=12, rng=rng)
            assert err < 1e-4, f"{name}: {err}"

    def test_grad_check_on_hidden_state(self):
        head = build_model(_THREE_TAILS, seed=5, dtype=np.float64).mlm_head
        rng = np.random.default_rng(4)
        h = Tensor(rng.standard_normal((5, 16)), requires_grad=True)
        targets = [3, 10, 20, 35, 0]
        err = grad_check(lambda x: ad.sum_(target_log_probs(head, x, targets)), h)
        assert err < 1e-6

    def test_unhit_tail_runs_on_no_rows_and_gets_zero_gradient(self):
        m = build_model(_THREE_TAILS, seed=5, dtype=np.float64)
        loss = _masked_loss_fn(m, [3, 10, 35])(None)     # tail 1 [16, 28) unhit
        unhit = m.mlm_head.tail_down[1]
        readers = [node for node in ad.ComputationTape.build(loss).nodes
                   if any(p is unhit for p in node._parents)]
        assert [r.shape for r in readers] == [(0, unhit.shape[1])]
        ad.backward(loss)
        params = m.named_parameters()
        for part in ("down", "out"):
            # an exact zero, as under the full distribution: AdamW skips a
            # parameter whose grad is None, which would change training
            assert not params[f"mlm.tails.1.{part}"].grad.any()
            assert params[f"mlm.tails.0.{part}"].grad.any()
            assert params[f"mlm.tails.2.{part}"].grad.any()

    def test_graph_has_no_vocabulary_wide_node(self):
        # guards against the dense (B, V) path: with V far above the number
        # of masked positions, no computed node may carry a V-sized axis.
        # Parameters are leaves and exempt: the embedding table is (V, d).
        cfg = ModelConfig(vocab_size=3000, hidden=16, layers=1, heads=2, ffn_dim=24,
                          num_projections=2, max_train_len=32, max_infer_len=64)
        m = toy_model(config=cfg, seed=1)
        ids = np.array([5, 700, 2000, 2999, 9, 12, 1500, 8])
        positions = [0, 1, 2, 3, 6]   # head and both tails of (600, 1800, 3000)
        loss = mlm_loss(m, [ids], [positions], [ids])
        computed = [node for node in ad.ComputationTape.build(loss).nodes if node._parents]
        # the scan covers the whole graph: the 27-node one-layer forward, the
        # masked-row pick and pre-norm, the head, both tails and the loss;
        # each pick is a flat reshape and an index_select, the negation a mul
        kinds = Counter(node._backward_fn.__qualname__.split(".")[0] for node in computed)
        assert kinds == {"index_select": 8, "reshape": 10, "matmul": 7, "mul": 4,
                         "sum_": 3, "softmax": 1, "affine_norm": 4, "linear": 5,
                         "attention": 1, "add": 4, "gelu": 1, "log_softmax": 3,
                         "concat": 1}
        assert len(computed) == 52
        for node in computed:
            assert cfg.vocab_size not in node.shape, node


class TestTokenFrequencyOrder:
    def test_ranks_by_count_then_id(self):
        counts = np.array([5, 9, 9, 1])
        assert token_frequency_order(counts, 4).tolist() == [1, 2, 0, 3]

    def test_none_counts_identity(self):
        assert token_frequency_order(None, 5).tolist() == [0, 1, 2, 3, 4]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            token_frequency_order(np.array([1, 2]), 3)


class TestMlmLoss:
    def test_zeroed_head_gives_exactly_ln_v(self):
        m = toy_model(seed=2)
        m.mlm_head.head_projection.data[:] = 0.0
        for t in m.mlm_head.tail_down + m.mlm_head.tail_out:
            t.data[:] = 0.0
        ids = np.array([3, 8, 2, 9])
        loss = mlm_loss(m, [ids], [[0, 2]], [ids])
        assert loss.item() == pytest.approx(math.log(TOY.vocab_size), abs=1e-4)

    def test_fresh_model_close_to_ln_v(self):
        m = toy_model(seed=8)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, TOY.vocab_size, 24)
        loss = mlm_loss(m, [ids], [list(range(0, 24, 3))], [ids]).item()
        assert abs(loss - math.log(TOY.vocab_size)) / math.log(TOY.vocab_size) < 0.05

    def test_empty_positions_rejected(self):
        m = toy_model()
        with pytest.raises(ValueError):
            mlm_loss(m, [np.array([1, 2])], [[]], [np.array([1, 2])])

    @pytest.mark.parametrize("positions, targets", [
        ([[0], [3]], [[1, 2], [3, 4, 5]]),      # position past its sequence
        ([[0], [-1]], [[1, 2], [3, 4, 5]]),     # negative position
        ([[0], [1]], [[1, 2], [3, 4]]),         # targets shorter than the sequence
        ([[0]], [[1, 2], [3, 4, 5]]),           # one position set for two sequences
    ])
    def test_positions_and_targets_must_fit_their_sequences(self, positions, targets):
        with pytest.raises(ValueError):
            mlm_loss(toy_model(), [[1, 2], [3, 4, 5]], positions, targets)
        with pytest.raises(ValueError):
            mlm_loss(toy_model(), [], [], [])

    def test_packed_loss_is_the_mean_of_per_sequence_losses(self):
        m = toy_model(seed=3)
        rng = np.random.default_rng(5)
        seqs = [rng.integers(5, TOY.vocab_size, n).tolist() for n in (7, 3, 7, 12, 1)]
        positions = [[1, 4], [0], [6], [2, 3, 11], [0]]
        corrupted = [[4 if i in pos else t for i, t in enumerate(seq)]
                     for seq, pos in zip(seqs, positions)]
        packed = mlm_loss(m, corrupted, positions, seqs).item()
        alone = [mlm_loss(m, [c], [p], [s]).item()
                 for c, p, s in zip(corrupted, positions, seqs)]
        assert packed == pytest.approx(np.mean(alone), rel=1e-6)

    def test_backward_peaks_near_the_memory_it_starts_with(self):
        """One backward of a fixed MLM step peaks within 20 % of the traced
        memory at its start: the graph's activations, attention weights and
        saved arrays. Each is freed once the last closure reading it has
        run, which makes room for the gradients. This step peaks at 1.12x
        its start, and at 1.30x when the graph is held until the walk ends."""
        cfg = ModelConfig(vocab_size=200, hidden=64, layers=2, heads=4, ffn_dim=256,
                          num_projections=2, max_train_len=128, max_infer_len=128)
        m = build_model(cfg, seed=1)
        rng = np.random.default_rng(0)
        ids = [rng.integers(5, cfg.vocab_size, 96) for _ in range(4)]
        positions = [list(range(3, 96, 7))] * len(ids)
        tracemalloc.start()
        try:
            loss = mlm_loss(m, ids, positions, ids)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grads = sum(p.grad.nbytes for p in m.named_parameters().values())
        assert start > 5_000_000
        assert peak <= 1.2 * start, peak / start
        # what is left is the parameter gradients
        assert end <= grads + 100_000, (end, grads)

    def test_mlm_loss_grad_check(self):
        cfg = ModelConfig(vocab_size=20, hidden=16, layers=2, heads=2, ffn_dim=24,
                          num_projections=2, max_train_len=32, max_infer_len=64)
        m = build_model(cfg, seed=5, dtype=np.float64)
        ids = np.array([3, 7, 11, 2, 19, 5])
        positions = [1, 4]

        def loss_fn(_):
            return mlm_loss(m, [ids], [positions], [ids])

        rng = np.random.default_rng(9)
        for name in ("embedding.table", "embedding.scorer", "layers.0.wq",
                     "layers.1.w_ffn_in", "mlm.head_projection",
                     "mlm.tails.0.down"):
            param = m.named_parameters()[name]
            err = grad_check(loss_fn, param, h=1e-5, sample=12, rng=rng)
            assert err < 1e-4, f"{name}: {err}"


CONFIG_JSON = """\
{
  "vocab_size": 14,
  "hidden": 16,
  "layers": 1,
  "heads": 2,
  "ffn_dim": 24,
  "num_projections": 4,
  "max_train_len": 32,
  "max_infer_len": 64,
  "adaptive_cutoffs": [
    3,
    8,
    14
  ],
  "format_version": 2,
  "vocab_sha256": "6f61030f340651a3ef4fdf5b60c85a7cc2b9f077b07e08455e8f2b3343e90b2f"
}
"""


class TestSaveLoad:
    def _vocab(self):
        letters = [chr(c) for c in range(ord("a"), ord("j"))]
        return Vocabulary(list(SPECIAL_TOKENS) + letters)

    def test_round_trip(self, tmp_path):
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        counts = np.arange(len(vocab))
        model = build_model(cfg, seed=3, token_counts=counts)
        save_model(tmp_path / "ckpt", model, vocab)
        loaded, loaded_vocab = load_model(tmp_path / "ckpt")

        assert loaded.config == cfg
        assert loaded_vocab == vocab
        assert np.array_equal(loaded.mlm_head.token_order, model.mlm_head.token_order)
        for name, p in model.named_parameters().items():
            assert np.array_equal(loaded.named_parameters()[name].data, p.data), name

        ids = np.array([6, 7, 8])
        a = encoder_forward(model, ids).data
        b = encoder_forward(loaded, ids).data
        assert np.array_equal(a, b)

    def test_load_save_load_keeps_the_bytes(self, tmp_path):
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        model = build_model(cfg, seed=3, token_counts=np.arange(len(vocab)))
        save_model(tmp_path / "a", model, vocab)
        loaded, loaded_vocab = load_model(tmp_path / "a")
        params = loaded.named_parameters()
        for name, p in params.items():
            flags = p.data.flags
            assert flags.writeable and flags.c_contiguous and flags.aligned, name
            assert p.data.dtype == np.float32 and p.data.dtype.isnative, name
        assert loaded.mlm_head.token_order.dtype == np.int64
        save_model(tmp_path / "b", loaded, loaded_vocab)
        for name in ("manifest.json", "params.bin", "config.json", "vocab.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name
        again, _ = load_model(tmp_path / "b")
        for name, p in again.named_parameters().items():
            assert np.array_equal(p.data, params[name].data), name
        # the parameters share one buffer but no bytes: each can be written alone
        for i, p in enumerate(params.values()):
            p.data[...] = i
        for i, (name, p) in enumerate(params.items()):
            assert (p.data == i).all(), name

    def _large(self, tmp_path):
        """A checkpoint whose params.bin is a few MB (a 4,096 x 256 table),
        its model and vocabulary, and the size of params.bin."""
        vocab = Vocabulary(list(SPECIAL_TOKENS) + [f"w{i:04d}" for i in range(4091)])
        cfg = ModelConfig(vocab_size=len(vocab), hidden=256, layers=1, heads=4,
                          ffn_dim=256, num_projections=2, max_train_len=32,
                          max_infer_len=64)
        model = build_model(cfg, seed=0)
        save_model(tmp_path / "ckpt", model, vocab)
        return model, vocab, (tmp_path / "ckpt" / "params.bin").stat().st_size

    def test_load_peak_memory_is_about_one_copy(self, tmp_path):
        _, _, size = self._large(tmp_path)
        assert size > 4_000_000
        tracemalloc.start()
        try:
            load_model(tmp_path / "ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * size, peak / size

    def test_save_adds_no_copy_of_the_parameters(self, tmp_path):
        model, vocab, size = self._large(tmp_path)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            save_model(tmp_path / "again", model, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live <= 0.1 * size, (peak - live) / size

    def test_config_json_bytes(self, tmp_path):
        # key order and layout are part of the checkpoint format
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        save_model(tmp_path / "ckpt", build_model(cfg, seed=0), vocab)
        assert (tmp_path / "ckpt" / "config.json").read_text() == CONFIG_JSON

    def test_load_draws_no_random_initialisation(self, tmp_path, monkeypatch):
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        model = build_model(cfg, seed=3)
        save_model(tmp_path / "ckpt", model, vocab)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(model_module, "build_model", no_rng)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, _ = load_model(tmp_path / "ckpt")
        for name, p in loaded.named_parameters().items():
            assert p.requires_grad and p.dtype == np.float32, name
            assert np.array_equal(p.data, model.named_parameters()[name].data), name

    def test_shape_mismatch_rejected(self, tmp_path):
        import json
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        save_model(tmp_path / "ckpt", build_model(cfg, seed=0), vocab)
        cfg_path = tmp_path / "ckpt" / "config.json"
        blob = json.loads(cfg_path.read_text())
        blob["ffn_dim"] = 32
        cfg_path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_model(tmp_path / "ckpt")

    def test_vocab_tamper_detected(self, tmp_path):
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        save_model(tmp_path / "ckpt", build_model(cfg, seed=0), vocab)
        path = tmp_path / "ckpt" / "vocab.txt"
        path.write_text(path.read_text() + "extra\n")
        with pytest.raises(ValueError):
            load_model(tmp_path / "ckpt")

    def test_missing_version_rejected(self, tmp_path):
        vocab = self._vocab()
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                          ffn_dim=24, max_train_len=32, max_infer_len=64)
        save_model(tmp_path / "ckpt", build_model(cfg, seed=0), vocab)
        import json
        cfg_path = tmp_path / "ckpt" / "config.json"
        blob = json.loads(cfg_path.read_text())
        del blob["format_version"]
        cfg_path.write_text(json.dumps(blob))
        with pytest.raises(ValueError):
            load_model(tmp_path / "ckpt")
