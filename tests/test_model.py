import math

import numpy as np
import pytest

from medeir import autodiff as ad
from medeir.autodiff import Tensor, grad_check
from medeir import model as model_module
from medeir.model import (
    AlibiBias,
    ModelConfig,
    _alibi_stack,
    adaptive_log_probs,
    alibi_bias_matrix,
    alibi_slopes,
    build_model,
    embed_batch,
    embed_sequence,
    embed_text,
    embed_texts,
    embed_tokens,
    encoder_forward,
    load_model,
    mean_pool,
    mlm_loss,
    save_model,
    token_frequency_order,
)
from medeir.tokenizer import SPECIAL_TOKENS, TokenizerModel, Vocabulary
from medeir.training import info_nce_loss
from test_autodiff import attention_chain

TOY = ModelConfig(vocab_size=40, hidden=32, layers=2, heads=4, ffn_dim=64,
                  num_projections=3, max_train_len=80, max_infer_len=256)


def toy_model(seed=0, dtype=np.float32, config=TOY):
    return build_model(config, seed=seed, dtype=dtype)


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
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestAlibi:
    def test_power_of_two_slopes(self):
        assert alibi_slopes(8).slopes == tuple(2.0 ** -i for i in range(1, 9))

    def test_single_head(self):
        assert alibi_slopes(1).slopes == (2.0 ** -8,)

    def test_non_power_of_two_interleaves(self):
        got = alibi_slopes(6).slopes
        base = [2.0 ** (-8.0 * i / 4) for i in range(1, 5)]
        extra = [2.0 ** (-8.0 * i / 8) for i in range(1, 9)][0::2][:2]
        assert sorted(got, reverse=True) == sorted(base + extra, reverse=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_slopes_positive_strictly_decreasing(self, n):
        s = alibi_slopes(n).slopes
        assert len(s) == n
        assert all(x > 0 for x in s)
        assert all(a > b for a, b in zip(s, s[1:]))

    def test_zero_heads_rejected(self):
        with pytest.raises(ValueError):
            alibi_slopes(0)

    def test_increasing_slopes_rejected(self):
        with pytest.raises(ValueError):
            AlibiBias((0.25, 0.5))

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
        slopes = alibi_slopes(heads).slopes
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

    def test_pad_tail_content_is_irrelevant(self):
        m = toy_model(seed=3)
        ids_a = np.array([4, 9, 12, 7, 1, 2])
        ids_b = np.array([4, 9, 12, 7, 2, 1])  # permuted pad-only tail
        mask = np.array([1, 1, 1, 1, 0, 0])
        out_a = encoder_forward(m, ids_a, mask).data[:4]
        out_b = encoder_forward(m, ids_b, mask).data[:4]
        assert np.allclose(out_a, out_b, atol=1e-5)

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

    @pytest.mark.parametrize("padded", [False, True], ids=["no_pad", "pad"])
    def test_fused_attention_matches_composed_chain(self, monkeypatch, padded):
        """The model's forward and gradients are bitwise those it gets when
        attention runs as the unfused chain of autodiff ops."""
        rng = np.random.default_rng(12)
        ids = rng.integers(0, TOY.vocab_size, 130)
        mask = np.ones(130, dtype=np.int64)
        if padded:
            mask[-9:] = 0

        def run():
            m = toy_model(seed=4)
            out = encoder_forward(m, ids, mask)
            ad.backward(ad.sum_(ad.mul(out, out)))
            return [out.data] + [p.grad for p in m.named_parameters().values()]

        fused = run()
        monkeypatch.setattr(ad, "attention", attention_chain)
        composed = run()
        for a, b in zip(fused, composed):
            assert np.array_equal(a, b)

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
        mask = np.array([1, 1, 1, 1, 0])
        assert encoder_forward(m, ids, mask).dtype == np.float32
        assert mlm_loss(m, ids, [1, 3], ids, mask).dtype == np.float32
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
        assert mlm_loss(m, ids, [1], ids).dtype == np.float64


class TestMeanPool:
    def test_identical_rows(self):
        h = Tensor(np.tile([1.0, 2.0], (4, 1)))
        assert np.allclose(mean_pool(h, [1, 1, 1, 1]).data, [1.0, 2.0])

    def test_single_unmasked_row(self):
        h = Tensor(np.array([[1.0, 0.0], [5.0, 5.0]]))
        assert np.allclose(mean_pool(h, [0, 1]).data, [5.0, 5.0])

    def test_two_rows(self):
        h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(mean_pool(h, [1, 1]).data, [0.5, 0.5])

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            mean_pool(Tensor(np.ones((2, 2))), [0, 0])


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

        def counting(model, ids, attention_mask=None):
            calls.append(np.shape(ids))
            return real(model, ids, attention_mask)

        monkeypatch.setattr(model_module, "encoder_forward", counting)
        whole = embed_texts(model, tok, texts)
        assert len(calls) == 1
        seq_len = len(ids[0])
        # room for two sequences' attention weights per forward
        monkeypatch.setattr(model_module, "_GROUP_FLOATS",
                            2 * model.config.heads * seq_len * seq_len)
        calls.clear()
        split = embed_texts(model, tok, texts)
        assert [shape[0] for shape in calls] == [2, 2, 1]
        assert np.array_equal(whole, split)

    def test_graph_size_does_not_grow_with_equal_length_texts(self, setup):
        model, tok = setup
        ids = tok.encode("abc def ghi").ids

        def nodes(n):
            loss = ad.sum_(embed_batch(model, [ids] * n))
            return len(ad.ComputationTape.build(loss).nodes)

        assert nodes(6) == nodes(1)

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
        lp = adaptive_log_probs(head, Tensor(h)).data

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

    def test_single_vector_matches_batch(self):
        m = toy_model(seed=6)
        rng = np.random.default_rng(3)
        h = rng.standard_normal(TOY.hidden).astype(np.float32)
        single = adaptive_log_probs(m.mlm_head, Tensor(h)).data
        batch = adaptive_log_probs(m.mlm_head, Tensor(h[None, :])).data[0]
        assert np.array_equal(single, batch)


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
        loss = mlm_loss(m, ids, [0, 2], ids)
        assert loss.item() == pytest.approx(math.log(TOY.vocab_size), abs=1e-4)

    def test_fresh_model_close_to_ln_v(self):
        m = toy_model(seed=8)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, TOY.vocab_size, 24)
        loss = mlm_loss(m, ids, list(range(0, 24, 3)), ids).item()
        assert abs(loss - math.log(TOY.vocab_size)) / math.log(TOY.vocab_size) < 0.05

    def test_empty_positions_rejected(self):
        m = toy_model()
        with pytest.raises(ValueError):
            mlm_loss(m, np.array([1, 2]), [], np.array([1, 2]))

    def test_mlm_loss_grad_check(self):
        cfg = ModelConfig(vocab_size=20, hidden=16, layers=2, heads=2, ffn_dim=24,
                          num_projections=2, max_train_len=32, max_infer_len=64)
        m = build_model(cfg, seed=5, dtype=np.float64)
        ids = np.array([3, 7, 11, 2, 19, 5])
        positions = [1, 4]

        def loss_fn(_):
            return mlm_loss(m, ids, positions, ids)

        rng = np.random.default_rng(9)
        for name in ("embedding.table", "embedding.scorer", "layers.0.wq",
                     "layers.1.w_ffn_in", "mlm.head_projection",
                     "mlm.tails.0.down"):
            param = m.named_parameters()[name]
            err = grad_check(loss_fn, param, h=1e-5, sample=12, rng=rng)
            assert err < 1e-4, f"{name}: {err}"


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
