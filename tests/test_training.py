import json
import math

import numpy as np
import pytest

from medeir import autodiff as ad
from medeir.autodiff import Tensor, backward, grad_check
from medeir.model import ModelConfig, build_model, embed_sequence, load_model, mlm_loss
from medeir.tokenizer import (
    MASK_TOKEN,
    SPECIAL_TOKENS,
    EncodedSequence,
    TokenizerModel,
    Vocabulary,
)
from medeir.training import (
    _encode_batch,
    _encode_negatives,
    _mlm_micro_loss,
    OptimizerState,
    PairBatch,
    PairSource,
    ScheduleConfig,
    StageConfig,
    TripletBatch,
    adamw_step,
    apply_mask,
    hard_negative_loss,
    info_nce_loss,
    lr_at,
    run_stage,
    select_whole_word_mask,
    single_source_sampler,
)


class TestSchedule:
    def test_anchor_points(self):
        sched = ScheduleConfig(total_steps=100, warmup_fraction=0.10)
        peak = 3e-4
        assert lr_at(sched, peak, 0) == 0.0
        assert lr_at(sched, peak, 10) == pytest.approx(peak)
        assert lr_at(sched, peak, 55) == pytest.approx(0.5 * peak)
        assert lr_at(sched, peak, 100) == 0.0

    def test_piecewise_linear_and_continuous(self):
        sched = ScheduleConfig(total_steps=50, warmup_fraction=0.2)
        values = [lr_at(sched, 1.0, s) for s in range(51)]
        assert max(values) == values[sched.warmup_steps]
        ups = np.diff(values[: sched.warmup_steps + 1])
        downs = np.diff(values[sched.warmup_steps:])
        assert np.allclose(ups, ups[0])
        assert np.allclose(downs, downs[0])

    def test_step_beyond_total_rejected(self):
        sched = ScheduleConfig(total_steps=10, warmup_fraction=0.1)
        with pytest.raises(ValueError):
            lr_at(sched, 1.0, 11)

    def test_bad_warmup_fraction_rejected(self):
        with pytest.raises(ValueError):
            ScheduleConfig(total_steps=10, warmup_fraction=0.0)
        with pytest.raises(ValueError):
            ScheduleConfig(total_steps=10, warmup_fraction=1.0)


class TestAdamW:
    def test_single_step_oracle(self):
        # hand-computed: m=0.05, v=0.005, m_hat=0.5, v_hat=0.25,
        # update = 0.1*(0.5/(0.5+1e-8) + 0.01*1.0) -> w' = 0.899000002
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([0.5])
        state = OptimizerState(beta1=0.9, beta2=0.98, weight_decay=0.01)
        adamw_step({"w": w}, state, lr_now=0.1)

        m = 0.1 * 0.5
        v = 0.02 * 0.25
        m_hat = m / 0.1
        v_hat = v / 0.02
        expected = 1.0 - 0.1 * (m_hat / (math.sqrt(v_hat) + 1e-8) + 0.01 * 1.0)
        assert w.data[0] == pytest.approx(expected, abs=1e-12)
        assert w.data[0] == pytest.approx(0.899000002, abs=1e-6)
        assert state.t == 1

    def test_zero_grad_no_decay_is_identity(self):
        w = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        w.grad = np.zeros(2)
        state = OptimizerState(beta1=0.9, beta2=0.98, weight_decay=0.0)
        adamw_step({"w": w}, state, lr_now=0.1)
        assert np.array_equal(w.data, [2.0, -3.0])

    def test_non_finite_gradient_rejects_whole_step(self):
        w1 = Tensor(np.array([1.0]), requires_grad=True)
        w2 = Tensor(np.array([1.0]), requires_grad=True)
        w1.grad = np.array([0.5])
        w2.grad = np.array([np.nan])
        state = OptimizerState(beta1=0.9, beta2=0.98)
        with pytest.raises(ValueError):
            adamw_step({"w1": w1, "w2": w2}, state, lr_now=0.1)
        assert w1.data[0] == 1.0
        assert state.t == 0
        assert not state.m

    def test_none_grad_param_skipped(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState(beta1=0.9, beta2=0.98)
        adamw_step({"w": w}, state, lr_now=0.1)
        assert w.data[0] == 1.0

    def test_grad_accumulation_equals_full_batch(self):
        xs = np.array([0.5, -1.0, 2.0, 0.25])
        ys = np.array([1.0, 0.0, -1.0, 2.0])

        def loss_of(w, sl):
            pred = ad.mul(w, Tensor(xs[sl]))
            err = ad.sub(pred, Tensor(ys[sl]))
            return ad.mean(ad.mul(err, err))

        w_full = Tensor(np.array([0.3]), requires_grad=True)
        backward(loss_of(w_full, slice(None)))
        state_full = OptimizerState(beta1=0.9, beta2=0.98)
        adamw_step({"w": w_full}, state_full, lr_now=0.05)

        w_accum = Tensor(np.array([0.3]), requires_grad=True)
        for sl in (slice(0, 2), slice(2, 4)):
            backward(ad.mul(loss_of(w_accum, sl), 0.5))
        state_accum = OptimizerState(beta1=0.9, beta2=0.98)
        adamw_step({"w": w_accum}, state_accum, lr_now=0.05)

        assert w_full.data[0] == pytest.approx(w_accum.data[0], abs=1e-6)


def letters_vocab():
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return Vocabulary(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters])


def encode_words(words):
    return TokenizerModel(letters_vocab()).encode(" ".join(words))


class TestWholeWordMask:
    def test_rate_zero_selects_nothing(self):
        seq = encode_words(["ab", "cd"])
        assert select_whole_word_mask(seq, 0.0, np.random.default_rng(0)) == set()

    def test_rate_one_selects_all_non_special(self):
        seq = encode_words(["ab", "cd", "e"])
        got = select_whole_word_mask(seq, 1.0, np.random.default_rng(0))
        assert got == set(range(len(seq.ids)))

    def test_ten_single_token_words_rate_point_three(self):
        seq = encode_words(list("abcdefghij"))
        first = select_whole_word_mask(seq, 0.3, np.random.default_rng(42))
        again = select_whole_word_mask(seq, 0.3, np.random.default_rng(42))
        assert len(first) == 3
        assert first == again

    def test_groups_never_split(self):
        rng = np.random.default_rng(7)
        seq = encode_words(["abc", "de", "fgh", "i", "jk"])
        for _ in range(20):
            got = select_whole_word_mask(seq, 0.4, rng)
            for start, end in seq.word_groups:
                span = set(range(start, end))
                assert span <= got or span.isdisjoint(got)

    def test_specials_never_masked(self):
        vocab = letters_vocab()
        ids = [vocab.id_of["[CLS]"], vocab.id_of["a"], vocab.id_of["##b"],
               vocab.id_of["[SEP]"]]
        seq = EncodedSequence(ids=ids, word_groups=[(1, 3)],
                              attention_mask=[1] * 4,
                              special_positions=frozenset({0, 3}))
        got = select_whole_word_mask(seq, 1.0, np.random.default_rng(0))
        assert got == {1, 2}

    def test_mean_rate_over_thousand_sequences(self):
        rng = np.random.default_rng(123)
        letters = "abcdefghijklmnopqrstuvwxyz"
        rates = []
        for _ in range(1000):
            n_words = int(rng.integers(16, 48))
            words = ["".join(rng.choice(list(letters), size=rng.integers(1, 4)))
                     for _ in range(n_words)]
            seq = encode_words(words)
            picked = select_whole_word_mask(seq, 0.30, rng)
            rates.append(len(picked) / seq.non_special_length())
        mean_rate = float(np.mean(rates))
        assert 0.28 <= mean_rate <= 0.34, mean_rate


class TestApplyMask:
    def test_empty_positions_no_change(self):
        seq = encode_words(["ab", "cd"])
        mask_id = letters_vocab().id_of[MASK_TOKEN]
        corrupted, targets = apply_mask(seq, [], mask_id)
        assert corrupted == seq.ids
        assert targets == seq.ids

    def test_all_positions_masked(self):
        seq = encode_words(["ab", "cd"])
        mask_id = letters_vocab().id_of[MASK_TOKEN]
        corrupted, targets = apply_mask(seq, range(len(seq.ids)), mask_id)
        assert all(c == mask_id for c in corrupted)
        assert targets == seq.ids

    def test_corruption_exactly_at_positions(self):
        seq = encode_words(["abc", "def", "gh"])
        mask_id = letters_vocab().id_of[MASK_TOKEN]
        positions = {0, 4}
        corrupted, _ = apply_mask(seq, positions, mask_id)
        changed = {i for i, (c, o) in enumerate(zip(corrupted, seq.ids)) if c != o}
        assert changed == positions

    def test_out_of_range_position_rejected(self):
        seq = encode_words(["ab"])
        with pytest.raises(ValueError):
            apply_mask(seq, [99], 4)

    def test_special_position_rejected(self):
        vocab = letters_vocab()
        seq = EncodedSequence(ids=[vocab.id_of["[CLS]"], vocab.id_of["a"]],
                              word_groups=[(1, 2)], attention_mask=[1, 1],
                              special_positions=frozenset({0}))
        with pytest.raises(ValueError):
            apply_mask(seq, [0], vocab.id_of[MASK_TOKEN])

    def test_eighty_ten_ten_split(self):
        seq = encode_words(["ab"] * 50)
        vocab = letters_vocab()
        mask_id = vocab.id_of[MASK_TOKEN]
        rng = np.random.default_rng(0)
        outcomes = {"mask": 0, "kept": 0, "other": 0}
        for _ in range(40):
            corrupted, _ = apply_mask(seq, range(len(seq.ids)), mask_id,
                                      rng=rng, mask_prob=0.8, random_prob=0.1,
                                      vocab_size=len(vocab))
            for c, o in zip(corrupted, seq.ids):
                if c == mask_id:
                    outcomes["mask"] += 1
                elif c == o:
                    outcomes["kept"] += 1
                else:
                    outcomes["other"] += 1
        total = sum(outcomes.values())
        assert 0.75 < outcomes["mask"] / total < 0.85
        assert outcomes["kept"] / total < 0.15
        assert outcomes["other"] / total < 0.15


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=-1, keepdims=True)


class TestInfoNCE:
    def test_single_pair_is_zero(self):
        q = Tensor(unit_rows(np.array([[1.0, 2.0]])))
        assert info_nce_loss(q, q, 0.05).item() == pytest.approx(0.0, abs=1e-7)

    def test_identical_embeddings_give_ln_b(self):
        v = unit_rows(np.array([[0.3, -0.4, 0.5]]))
        q = Tensor(np.repeat(v, 4, axis=0))
        assert info_nce_loss(q, q, 0.05).item() == pytest.approx(math.log(4), abs=1e-5)

    def test_identity_similarity_matrix_at_tau_one(self):
        q = Tensor(np.eye(2))
        p = Tensor(np.eye(2))
        expect = math.log(1 + math.exp(-1.0))
        assert info_nce_loss(q, p, 1.0).item() == pytest.approx(expect, abs=1e-6)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = Tensor(unit_rows(rng.standard_normal((6, 8))))
            p = Tensor(unit_rows(rng.standard_normal((6, 8))))
            assert info_nce_loss(q, p, 0.05).item() >= 0.0

    def test_bad_temperature_rejected(self):
        q = Tensor(np.eye(2))
        with pytest.raises(ValueError):
            info_nce_loss(q, q, 0.0)

    def test_empty_batch_rejected(self):
        q = Tensor(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            info_nce_loss(q, q, 0.05)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            info_nce_loss(Tensor(np.eye(2)), Tensor(np.eye(3)), 0.05)

    def test_symmetric_averages_both_directions(self):
        rng = np.random.default_rng(6)
        q = Tensor(unit_rows(rng.standard_normal((3, 4))))
        p = Tensor(unit_rows(rng.standard_normal((3, 4))))
        sym = info_nce_loss(q, p, 0.1, symmetric=True).item()
        a = info_nce_loss(q, p, 0.1).item()
        sims = q.data @ p.data.T / 0.1
        ce_rows = [-(sims[:, j][j] - np.log(np.exp(sims[:, j]).sum()))
                   for j in range(3)]
        b = float(np.mean(ce_rows))
        assert sym == pytest.approx(0.5 * (a + b), abs=1e-6)

    def test_grad_check_three_pairs(self):
        rng = np.random.default_rng(7)
        p = Tensor(unit_rows(rng.standard_normal((3, 4))))
        q_raw = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(t):
            return info_nce_loss(ad.l2_normalize(t, axis=-1), p, 0.1)

        assert grad_check(f, q_raw, h=1e-5) < 1e-4


class TestHardNegativeLoss:
    def test_no_negatives_reduces_to_info_nce(self):
        rng = np.random.default_rng(8)
        q = Tensor(unit_rows(rng.standard_normal((4, 6))))
        p = Tensor(unit_rows(rng.standard_normal((4, 6))))
        base = info_nce_loss(q, p, 0.05).item()
        assert hard_negative_loss(q, p, None, 0.05).item() == base
        empty = Tensor(np.zeros((4, 0, 6)))
        assert hard_negative_loss(q, p, empty, 0.05).item() == base

    def test_negative_equal_to_positive_adds_ln_two(self):
        v = unit_rows(np.array([[0.6, 0.8]]))
        q = Tensor(v)
        p = Tensor(v.copy())
        negs = Tensor(v[None, :, :].copy())   # (1, 1, 2)
        base = hard_negative_loss(q, p, None, 0.05).item()
        with_neg = hard_negative_loss(q, p, negs, 0.05).item()
        assert base == pytest.approx(0.0, abs=1e-7)
        assert with_neg - base == pytest.approx(math.log(2), abs=1e-6)

    def test_wrong_shape_rejected(self):
        q = Tensor(np.eye(2))
        with pytest.raises(ValueError):
            hard_negative_loss(q, q, Tensor(np.zeros((3, 1, 2))), 0.05)

    def test_grad_check(self):
        rng = np.random.default_rng(9)
        p = Tensor(unit_rows(rng.standard_normal((3, 4))))
        negs = Tensor(unit_rows(rng.standard_normal((3, 2, 4))))
        q_raw = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(t):
            return hard_negative_loss(ad.l2_normalize(t, axis=-1), p, negs, 0.1)

        assert grad_check(f, q_raw, h=1e-5) < 1e-4


def ragged_negatives(rng, dim):
    """Unit negatives for three items holding 2, 1 and 0 of them."""
    return [unit_rows(rng.standard_normal((n, dim))) for n in (2, 1, 0)]


def pad_negatives(negs, dim):
    width = max(len(n) for n in negs)
    return np.stack([np.concatenate([n, np.zeros((width - len(n), dim))])
                     for n in negs])


class TestRaggedHardNegativeLoss:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(11)
        q = unit_rows(rng.standard_normal((3, 5)))
        p = unit_rows(rng.standard_normal((3, 5)))
        negs = ragged_negatives(rng, 5)
        got = hard_negative_loss(Tensor(q), Tensor(p), Tensor(pad_negatives(negs, 5)),
                                 0.1).item()
        want = []
        for i in range(3):
            logits = np.concatenate([p @ q[i], negs[i] @ q[i]]) / 0.1
            want.append(np.log(np.exp(logits).sum()) - logits[i])
        assert got == pytest.approx(np.mean(want), rel=1e-12)

    def test_padding_does_not_change_full_items(self):
        rng = np.random.default_rng(12)
        q = Tensor(unit_rows(rng.standard_normal((2, 4))))
        p = Tensor(unit_rows(rng.standard_normal((2, 4))))
        full = unit_rows(rng.standard_normal((2, 2, 4)))
        padded = np.concatenate([full, np.zeros((2, 1, 4))], axis=1)
        a = hard_negative_loss(q, p, Tensor(full), 0.05).item()
        b = hard_negative_loss(q, p, Tensor(padded), 0.05).item()
        assert a == b

    @pytest.mark.parametrize("which", ["q", "p", "negatives"])
    def test_grad_check(self, which):
        rng = np.random.default_rng(13)
        inputs = {"q": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                  "p": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                  "negatives": Tensor(rng.standard_normal((3, 4)), requires_grad=True)}

        def f(t):
            args = dict(inputs, **{which: t})
            flat = ad.l2_normalize(args["negatives"], axis=-1)  # 2 + 1 + 0 rows
            negs = ad.stack([ad.narrow(flat, 0, 0, 2),
                             ad.concat([ad.narrow(flat, 0, 2, 3),
                                        Tensor(np.zeros((1, 4)))]),
                             Tensor(np.zeros((2, 4)))])
            return hard_negative_loss(ad.l2_normalize(args["q"], axis=-1),
                                      ad.l2_normalize(args["p"], axis=-1), negs, 0.2)

        # one coordinate's gradient is ~1e-6, so central-difference round-off
        # alone gives it a relative error near 1e-5
        assert grad_check(f, inputs[which], h=1e-5) < 1e-4


class TestSampler:
    def pairs(self, tag, n):
        return [(f"{tag} query {i}", f"{tag} passage {i}") for i in range(n)]

    def test_single_source(self):
        src = PairSource("only", self.pairs("a", 8))
        stream = single_source_sampler([src], 4, np.random.default_rng(0))
        for _ in range(5):
            batch = next(stream)
            assert batch.source_id == "only"
            assert len(batch.queries) == 4

    def test_epoch_without_replacement(self):
        src = PairSource("s", self.pairs("s", 12))
        stream = single_source_sampler([src], 4, np.random.default_rng(1))
        seen = []
        for _ in range(3):
            seen.extend(next(stream).queries)
        assert sorted(seen) == sorted(q for q, _ in src.items)

    def test_two_equal_sources_are_balanced(self):
        sources = [PairSource("a", self.pairs("a", 64)),
                   PairSource("b", self.pairs("b", 64))]
        stream = single_source_sampler(sources, 8, np.random.default_rng(42))
        counts = {"a": 0, "b": 0}
        for _ in range(100):
            counts[next(stream).source_id] += 1
        assert 40 <= counts["a"] <= 60

    def test_small_source_rejected(self):
        with pytest.raises(ValueError):
            next(single_source_sampler([PairSource("tiny", self.pairs("t", 3))],
                                       4, np.random.default_rng(0)))

    def test_triples_yield_triplet_batches(self):
        items = [(f"q{i}", f"p{i}", [f"n{i}a", f"n{i}b"]) for i in range(6)]
        stream = single_source_sampler([PairSource("t", items)], 2,
                                       np.random.default_rng(0))
        batch = next(stream)
        assert isinstance(batch, TripletBatch)
        assert len(batch.negatives[0]) == 2

    def test_deterministic_for_seed(self):
        sources = [PairSource("a", self.pairs("a", 16)),
                   PairSource("b", self.pairs("b", 16))]

        def draw():
            stream = single_source_sampler(sources, 4, np.random.default_rng(3))
            return [(b.source_id, tuple(b.queries)) for _, b in zip(range(10), stream)]

        assert draw() == draw()


class TestStageConfig:
    def test_mlm_defaults(self):
        cfg = StageConfig.mlm_defaults(total_steps=100)
        assert (cfg.peak_lr, cfg.beta1, cfg.beta2) == (2e-4, 0.9, 0.98)
        assert (cfg.global_batch, cfg.grad_accum) == (16, 2)
        assert cfg.warmup_fraction == 0.10
        assert cfg.mask_rate == 0.30
        assert cfg.max_len == 512

    def test_contrastive_defaults(self):
        cfg = StageConfig.contrastive_defaults(total_steps=10)
        assert (cfg.peak_lr, cfg.beta1, cfg.beta2) == (5e-5, 0.95, 0.98)
        assert cfg.global_batch == 1024
        assert cfg.warmup_fraction == 0.06

    def test_hard_negative_defaults(self):
        cfg = StageConfig.hard_negative_defaults(total_steps=10)
        assert cfg.grad_accum == 2
        assert cfg.stage == "hard_negative"

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            StageConfig.mlm_defaults(total_steps=10, global_batch=5, grad_accum=2)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            StageConfig(stage="pretrain", total_steps=1, peak_lr=1e-4,
                        beta1=0.9, beta2=0.98, global_batch=4, grad_accum=1,
                        warmup_fraction=0.1)

    def test_from_dict_rejects_unknown_keys(self):
        blob = StageConfig.mlm_defaults(total_steps=5).to_dict()
        blob["bogus"] = 1
        with pytest.raises(ValueError):
            StageConfig.from_dict(blob)

    def test_round_trip(self):
        cfg = StageConfig.contrastive_defaults(total_steps=7, temperature=0.2)
        assert StageConfig.from_dict(cfg.to_dict()) == cfg


def tiny_setup():
    vocab = letters_vocab()
    tokenizer = TokenizerModel(vocab)
    cfg = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                      ffn_dim=24, num_projections=2, max_train_len=32,
                      max_infer_len=64)
    return build_model(cfg, seed=0), tokenizer


def mlm_sequences(tokenizer, n=32, seed=0):
    rng = np.random.default_rng(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    seqs = []
    for _ in range(n):
        words = ["".join(rng.choice(list(letters), size=rng.integers(1, 4)))
                 for _ in range(int(rng.integers(4, 9)))]
        seqs.append(tokenizer.encode(" ".join(words)))
    return seqs


def encode_per_sequence(model, tokenizer, texts, max_len):
    """The per-sequence reference for _encode_batch: one forward per text."""
    return ad.stack([embed_sequence(model, tokenizer.encode(t).ids[:max_len])
                     for t in texts])


def negatives_per_item(model, tokenizer, negatives, max_len):
    """The per-item reference for _encode_negatives: zero rows pad each item."""
    width = max(len(negs) for negs in negatives)
    items = []
    for negs in negatives:
        rows = [encode_per_sequence(model, tokenizer, negs, max_len)] if negs else []
        if len(negs) < width:
            rows.append(Tensor(np.zeros((width - len(negs), model.config.hidden),
                                        dtype=model.embedding.table.dtype)))
        items.append(ad.concat(rows, axis=0))
    return ad.stack(items)


def mlm_per_sequence(model, batch, mask_rate, mask_id, rng):
    """The per-sequence reference for _mlm_micro_loss."""
    losses = []
    for seq in batch:
        positions = select_whole_word_mask(seq, mask_rate, rng)
        if positions:
            corrupted, targets = apply_mask(seq, positions, mask_id)
            losses.append(mlm_loss(model, corrupted, positions, targets))
    total = losses[0]
    for extra in losses[1:]:
        total = ad.add(total, extra)
    return ad.mul(total, 1.0 / len(losses))


QUERIES = ["ab cd ea", "xy", "ab cd eb", "ab cd", "xz", "abc de fgh"]
POSITIVES = ["ab cd fa", "xy zz", "ab ce", "ab cd fb", "xq", "abd de fgh"]
NEGATIVES = [["qq rr", "ss"], ["tt uu"], [], ["vv", "ww xx", "yy"], [], ["zz"]]
MAX_LEN = 6  # cuts the longest texts


def batched_losses(model, tokenizer, rng_seed=0):
    """Contrastive, hard-negative and MLM losses, batched and per sequence."""
    out = {}
    for name, encode, encode_negs in (
            ("batched", lambda t: _encode_batch(model, tokenizer, t, MAX_LEN)[0],
             lambda n: _encode_negatives(model, tokenizer, n, MAX_LEN)[0]),
            ("reference", lambda t: encode_per_sequence(model, tokenizer, t, MAX_LEN),
             lambda n: negatives_per_item(model, tokenizer, n, MAX_LEN))):
        q, p = encode(QUERIES), encode(POSITIVES)
        out[name, "contrastive"] = info_nce_loss(q, p, 0.1)
        out[name, "hardneg"] = hard_negative_loss(q, p, encode_negs(NEGATIVES), 0.1)
    seqs = mlm_sequences(tokenizer, n=6, seed=4)
    mask_id = tokenizer.vocab.id_of[MASK_TOKEN]
    out["batched", "mlm"] = _mlm_micro_loss(model, seqs, 0.3, mask_id,
                                            np.random.default_rng(rng_seed))[0]
    out["reference", "mlm"] = mlm_per_sequence(model, seqs, 0.3, mask_id,
                                               np.random.default_rng(rng_seed))
    return out


class TestBatchedLosses:
    def test_inputs_cover_grouping(self):
        _, tokenizer = tiny_setup()
        lengths = [len(tokenizer.encode(t).ids) for t in QUERIES + POSITIVES]
        assert len(set(lengths)) < len(lengths) and max(lengths) > MAX_LEN
        seqs = mlm_sequences(tokenizer, n=6, seed=4)
        assert len({len(s.ids) for s in seqs}) < len(seqs)

    @pytest.mark.parametrize("loss", ["contrastive", "hardneg", "mlm"])
    def test_match_per_sequence_reference(self, loss):
        values, grads = {}, {}
        for side in ("batched", "reference"):
            model, tokenizer = tiny_setup()
            out = batched_losses(model, tokenizer)[side, loss]
            backward(out)
            values[side] = out.item()
            grads[side] = {k: p.grad for k, p in model.named_parameters().items()}
        assert values["batched"] == pytest.approx(values["reference"], rel=1e-5)
        for name, g in grads["reference"].items():
            if g is None:
                assert grads["batched"][name] is None, name
            else:
                assert np.allclose(grads["batched"][name], g, rtol=1e-3, atol=1e-6), name

    @pytest.mark.parametrize("loss", ["contrastive", "hardneg", "mlm"])
    def test_grad_check(self, loss):
        _, tokenizer = tiny_setup()
        model = build_model(tiny_setup()[0].config, seed=0, dtype=np.float64)
        params = model.named_parameters()
        rng = np.random.default_rng(5)
        # embedding.scorer is left out: its gradients here are 1e-6 to 1e-8,
        # below what central differences resolve on a loss near ln V
        for name in ("embedding.table", "layers.0.wq", "layers.0.w_ffn_in",
                     "final_gamma", "mlm.head_projection"):
            err = grad_check(lambda _: batched_losses(model, tokenizer)["batched", loss],
                             params[name], h=1e-4, sample=6, rng=rng)
            assert err < 1e-4, (name, err)


class TestRunStage:
    def test_mlm_stage_end_to_end(self, tmp_path):
        model, tokenizer = tiny_setup()
        data = mlm_sequences(tokenizer, n=24)
        cfg = StageConfig.mlm_defaults(total_steps=3, global_batch=4,
                                       grad_accum=2, max_len=32, seed=1)
        records = run_stage(cfg, model, tokenizer, data,
                            out_dir=tmp_path / "ckpt",
                            log_path=tmp_path / "loss.jsonl")
        assert len(records) == 3
        sched = cfg.schedule
        for i, rec in enumerate(records, start=1):
            assert rec["step"] == i
            assert rec["stage"] == "mlm"
            assert rec["lr"] == pytest.approx(lr_at(sched, cfg.peak_lr, i))
            assert math.isfinite(rec["loss"])
            assert rec["tokens_seen"] > 0

        logged = [json.loads(line)
                  for line in (tmp_path / "loss.jsonl").read_text().splitlines()]
        assert logged == records
        loaded, _ = load_model(tmp_path / "ckpt")
        assert loaded.config == model.config

    def test_mlm_first_step_loss_near_ln_v(self):
        model, tokenizer = tiny_setup()
        data = mlm_sequences(tokenizer, n=16, seed=3)
        cfg = StageConfig.mlm_defaults(total_steps=1, global_batch=8,
                                       grad_accum=2, max_len=32, seed=2)
        records = run_stage(cfg, model, tokenizer, data)
        ln_v = math.log(len(tokenizer.vocab))
        assert abs(records[0]["loss"] - ln_v) / ln_v < 0.05

    def test_train_log_bytes(self, tmp_path):
        model, tokenizer = tiny_setup()
        data = mlm_sequences(tokenizer, n=6)  # 3 micro batches of 2
        cfg = StageConfig.mlm_defaults(total_steps=5, global_batch=4,
                                       grad_accum=2, max_len=32, seed=0)
        log = tmp_path / "train_log.jsonl"
        first = run_stage(cfg, model, tokenizer, data, log_path=log)[0]
        assert log.read_bytes() == (
            f'{{"step": 1, "stage": "mlm", "lr": {first["lr"]!r}, '
            f'"loss": {first["loss"]!r}, "tokens_seen": {first["tokens_seen"]}}}\n'
            '{"step": 2, "stage": "mlm", "event": "partial_accumulation_dropped", '
            '"micro_batches": 1}\n').encode()

    def test_partial_accumulation_dropped_and_logged(self):
        model, tokenizer = tiny_setup()
        data = mlm_sequences(tokenizer, n=6)  # 3 micro batches of 2
        cfg = StageConfig.mlm_defaults(total_steps=5, global_batch=4,
                                       grad_accum=2, max_len=32, seed=0)
        records = run_stage(cfg, model, tokenizer, data)
        assert records[-1]["event"] == "partial_accumulation_dropped"
        full_steps = [r for r in records if "loss" in r]
        assert len(full_steps) == 1

    def test_contrastive_stage_runs(self):
        model, tokenizer = tiny_setup()
        pairs = [(f"ab cd e{c}", f"ab cd f{c}") for c in "abcdefgh"]
        sources = [PairSource("s0", pairs)]
        cfg = StageConfig.contrastive_defaults(total_steps=2, global_batch=4,
                                               grad_accum=1, max_len=16, seed=4)
        records = run_stage(cfg, model, tokenizer, sources)
        assert len(records) == 2
        assert all(math.isfinite(r["loss"]) for r in records)

    def test_hard_negative_stage_runs(self):
        model, tokenizer = tiny_setup()
        items = [(f"q{c} aa", f"p{c} bb", [f"n{c} cc", f"n{c} dd"]) for c in "abcdef"]
        sources = [PairSource("s0", items)]
        cfg = StageConfig.hard_negative_defaults(total_steps=2, global_batch=4,
                                                 grad_accum=2, max_len=16, seed=5)
        records = run_stage(cfg, model, tokenizer, sources)
        assert len(records) == 2
        assert all(math.isfinite(r["loss"]) for r in records)

    def test_ragged_hard_negative_stage_runs(self):
        model, tokenizer = tiny_setup()
        counts = [2, 1, 0, 2, 0, 1]
        items = [(f"q{c} aa", f"p{c} bb", [f"n{c} c{k}" for k in "de"[:n]])
                 for c, n in zip("abcdef", counts)]
        cfg = StageConfig.hard_negative_defaults(total_steps=3, global_batch=6,
                                                 grad_accum=1, max_len=16, seed=5)
        records = run_stage(cfg, model, tokenizer, [PairSource("s0", items)])
        assert len(records) == 3
        assert all(math.isfinite(r["loss"]) for r in records)

    def test_hard_negative_batch_without_negatives_is_info_nce(self):
        pairs = [(f"q{c} aa", f"p{c} bb") for c in "abcd"]

        def losses(stage, items):
            model, tokenizer = tiny_setup()
            cfg = StageConfig(stage=stage, total_steps=2, peak_lr=1e-3, beta1=0.9,
                              beta2=0.98, global_batch=4, grad_accum=1,
                              warmup_fraction=0.5, max_len=16, seed=3)
            return [r["loss"] for r in
                    run_stage(cfg, model, tokenizer, [PairSource("s0", items)])]

        assert losses("hard_negative", [(q, p, []) for q, p in pairs]) \
            == losses("contrastive", pairs)

    def test_seeded_mlm_stage_is_reproducible(self):
        def final_params():
            model, tokenizer = tiny_setup()
            data = mlm_sequences(tokenizer, n=16, seed=7)
            cfg = StageConfig.mlm_defaults(total_steps=2, global_batch=4,
                                           grad_accum=2, max_len=32, seed=9)
            run_stage(cfg, model, tokenizer, data)
            return {k: v.data.copy() for k, v in model.named_parameters().items()}

        a = final_params()
        b = final_params()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
