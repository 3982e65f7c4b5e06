"""Acceptance suite: one test per release criterion, numbered 01 through 12.

Each test prints a single line naming the criterion and the measured
numbers, so a verbose run doubles as the acceptance report. Stated
runtime budgets are enforced with wall-clock asserts.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from medeir import autodiff as ad
from medeir.autodiff import Tensor
from medeir.datapipe import (
    CorpusDocument,
    SentencePair,
    filter_pairs_by_similarity,
    pack_chunks,
)
from medeir.evaluation import ModelUnderTest, ndcg_at_k, recall_at_k, retrieval_run
from medeir.model import (
    ModelConfig,
    build_model,
    mlm_loss,
)
from medeir.smoke import run_smoke_pipeline
from medeir.tokenizer import (
    MASK_TOKEN,
    SPECIAL_TOKENS,
    TokenizerModel,
    Vocabulary,
    sequence_from_ids,
    tokenizer_compare,
)
from medeir.training import (
    OptimizerState,
    PairSource,
    ScheduleConfig,
    StageConfig,
    adamw_step,
    hard_negative_loss,
    info_nce_loss,
    lr_at,
    run_stage,
    select_whole_word_mask,
)

from support import (
    adaptive_log_probs,
    bigram_sequences,
    bigram_stream,
    bigram_vocabulary,
    fixture_tokenizer,
    grad_check,
    mini_corpus_texts,
    synthetic_topic_pairs,
    windowed_masked_ce,
)
from test_tokenizer_golden import GOLDEN_ROWS, alnum_tokens


def _unit_rows(rng, shape):
    data = rng.standard_normal(shape)
    return data / np.linalg.norm(data, axis=-1, keepdims=True)


def _param(rng, shape, positive=False):
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return ad.tensor(data, requires_grad=True, dtype=np.float64)


def _const(rng, shape):
    return ad.tensor(rng.standard_normal(shape), dtype=np.float64)


# ---------------------------------------------------------------------------
# 1. golden segmentation table

def test_criterion_01_golden_rows_reproduce():
    start = time.monotonic()
    base = fixture_tokenizer("base")
    merged = fixture_tokenizer("merged")
    for text, base_expected, merged_expected in GOLDEN_ROWS:
        assert alnum_tokens(base, text) == base_expected
        assert alnum_tokens(merged, text) == merged_expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 01 PASS: {len(GOLDEN_ROWS)}/16 golden rows reproduced "
          f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. token-count reduction on the bundled mini corpus

def test_criterion_02_token_reduction_on_mini_corpus():
    start = time.monotonic()
    base = fixture_tokenizer("base")
    merged = fixture_tokenizer("merged")
    report = tokenizer_compare(base, merged, mini_corpus_texts(), corpus_id="mini")
    elapsed = time.monotonic() - start
    assert report.tokens_merged < report.tokens_base
    assert report.reduction_pct > 0.0
    assert elapsed < 10.0
    print(f"criterion 02 PASS: reduction_pct={report.reduction_pct:.2f} "
          f"({report.tokens_base} -> {report.tokens_merged} tokens, "
          f"{elapsed:.2f}s; the reference figure of roughly 30% is reported, "
          f"not asserted)")


# ---------------------------------------------------------------------------
# 3. gradient correctness for every core op and for full losses

def _op_cases():
    """(name, scalar function, input tensor) for every differentiable op."""
    rng = np.random.default_rng(20240819)
    cases = []

    def weighted(op, out_shape):
        w = _const(rng, out_shape)
        return lambda t: ad.sum_(ad.mul(op(t), w))

    x34 = lambda: _param(rng, (3, 4))
    bias = _const(rng, (4,))
    cases.append(("add", weighted(lambda t: ad.add(t, bias), (3, 4)), x34()))
    shift = _const(rng, (3, 4))
    cases.append(("sub", weighted(lambda t: ad.sub(t, shift), (3, 4)), x34()))
    scale = _const(rng, (3, 4))
    cases.append(("mul", weighted(lambda t: ad.mul(t, scale), (3, 4)), x34()))
    denom = ad.tensor(np.abs(rng.standard_normal((3, 4))) + 0.5, dtype=np.float64)
    cases.append(("div", weighted(lambda t: ad.div(t, denom), (3, 4)), x34()))
    numer = _const(rng, (3, 4))
    cases.append(("div_denominator",
                  weighted(lambda t: ad.div(numer, t), (3, 4)),
                  _param(rng, (3, 4), positive=True)))
    cases.append(("neg", weighted(ad.neg, (3, 4)), x34()))

    w45 = _const(rng, (4, 5))
    cases.append(("matmul", weighted(lambda t: ad.matmul(t, w45), (3, 5)), x34()))
    w244 = _const(rng, (2, 4, 4))
    cases.append(("matmul_broadcast",
                  weighted(lambda t: ad.matmul(t, w244), (2, 3, 4)), x34()))
    lhs = _const(rng, (5, 3))
    cases.append(("matmul_rhs", weighted(lambda t: ad.matmul(lhs, t), (5, 4)), x34()))

    cases.append(("transpose",
                  weighted(lambda t: ad.transpose(t, (1, 0, 2)), (3, 2, 4)),
                  _param(rng, (2, 3, 4))))
    cases.append(("reshape", weighted(lambda t: ad.reshape(t, (2, 6)), (2, 6)), x34()))
    tail = _const(rng, (3, 2))
    cases.append(("concat",
                  weighted(lambda t: ad.concat([t, tail], axis=1), (3, 6)), x34()))
    other = _const(rng, (3, 4))
    cases.append(("stack",
                  weighted(lambda t: ad.stack([t, other], axis=0), (2, 3, 4)), x34()))
    cases.append(("narrow",
                  weighted(lambda t: ad.narrow(t, 1, 1, 3), (3, 2)), x34()))
    cases.append(("index_select",
                  weighted(lambda t: ad.index_select(t, [2, 0, 2]), (3, 4)), x34()))
    cases.append(("pick",
                  weighted(lambda t: ad.pick(t, [1, 3, 0]), (3,)), x34()))

    cases.append(("softmax", weighted(ad.softmax, (3, 4)), x34()))
    cases.append(("log_softmax", weighted(ad.log_softmax, (3, 4)), x34()))
    cases.append(("layer_norm", weighted(ad.layer_norm, (3, 4)), x34()))
    cases.append(("l2_normalize", weighted(ad.l2_normalize, (3, 4)), x34()))
    cases.append(("gelu", weighted(ad.gelu, (3, 4)), x34()))
    cases.append(("tanh", weighted(ad.tanh, (3, 4)), x34()))

    cases.append(("sum", lambda t: ad.sum_(t), x34()))
    cases.append(("sum_axis",
                  weighted(lambda t: ad.sum_(t, axis=0, keepdims=True), (1, 4)), x34()))
    cases.append(("mean", lambda t: ad.mean(t), x34()))
    cases.append(("mean_axis", weighted(lambda t: ad.mean(t, axis=1), (3,)), x34()))

    mask = np.array([[True, False, False, True],
                     [False, True, False, False],
                     [False, False, False, False]])
    cases.append(("masked_fill",
                  weighted(lambda t: ad.masked_fill(t, mask, -2.5), (3, 4)), x34()))
    targets = np.array([3, 0, 2])
    cases.append(("cross_entropy", lambda t: ad.cross_entropy(t, targets), x34()))
    return cases


def test_criterion_03_gradient_checks():
    start = time.monotonic()
    worst = {}

    for name, fn, x in _op_cases():
        worst[f"op:{name}"] = grad_check(fn, x, h=1e-4)

    # Full MLM loss through a two-layer, four-head, 128-wide encoder. The
    # three sequences tile the whole vocabulary and the mask targets land in
    # every head cluster, so no parameter is left without gradient signal.
    config = ModelConfig(vocab_size=60, hidden=128, layers=2, heads=4,
                         ffn_dim=256, num_projections=2,
                         max_train_len=32, max_infer_len=64)
    model = build_model(config, seed=11, dtype=np.float64)
    mask_id = SPECIAL_TOKENS.index(MASK_TOKEN)
    batch = []
    for base in (0, 20, 40):
        positions = [6, 12, 19]
        original = list(range(base, base + 20))
        original += [original[pos] for pos in positions]
        corrupted = list(original)
        for pos in positions:
            corrupted[pos] = mask_id
        batch.append((corrupted, positions, original))

    def loss_fn(_):
        losses = [mlm_loss(model, [c], [p], [o]) for c, p, o in batch]
        return ad.mul(ad.add(ad.add(losses[0], losses[1]), losses[2]),
                      1.0 / 3.0)

    sample_rng = np.random.default_rng(7)
    for pname, param in model.named_parameters().items():
        worst[f"mlm:{pname}"] = grad_check(loss_fn, param, h=1e-4,
                                           sample=4, rng=sample_rng)

    # Contrastive losses, checked against each embedding argument.
    g = np.random.default_rng(12)
    q = ad.tensor(_unit_rows(g, (4, 8)), requires_grad=True, dtype=np.float64)
    p = ad.tensor(_unit_rows(g, (4, 8)), requires_grad=True, dtype=np.float64)
    worst["infonce:q"] = grad_check(
        lambda t: info_nce_loss(t, p, temperature=0.2), q, h=1e-4)
    worst["infonce:p"] = grad_check(
        lambda t: info_nce_loss(q, t, temperature=0.2), p, h=1e-4)
    worst["infonce:symmetric"] = grad_check(
        lambda t: info_nce_loss(t, p, temperature=1.0, symmetric=True), q, h=1e-4)

    hq = ad.tensor(_unit_rows(g, (3, 8)), requires_grad=True, dtype=np.float64)
    hp = ad.tensor(_unit_rows(g, (3, 8)), requires_grad=True, dtype=np.float64)
    hn = ad.tensor(_unit_rows(g, (3, 2, 8)), requires_grad=True, dtype=np.float64)
    worst["hardneg:q"] = grad_check(
        lambda t: hard_negative_loss(t, hp, hn, temperature=0.2), hq, h=1e-4)
    worst["hardneg:p"] = grad_check(
        lambda t: hard_negative_loss(hq, t, hn, temperature=0.2), hp, h=1e-4)
    worst["hardneg:negatives"] = grad_check(
        lambda t: hard_negative_loss(hq, hp, t, temperature=0.2), hn, h=1e-4)

    elapsed = time.monotonic() - start
    peak = max(worst, key=worst.get)
    assert max(worst.values()) < 1e-4, f"worst {peak}: {worst[peak]:.3e}"
    assert elapsed < 120.0
    print(f"criterion 03 PASS: {len(worst)} gradient checks, "
          f"max rel err {worst[peak]:.2e} at {peak} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. analytic loss anchors

def test_criterion_04_loss_anchors():
    vocab_size = 200
    config = ModelConfig(vocab_size=vocab_size, hidden=64, layers=2, heads=4,
                         ffn_dim=128, num_projections=2,
                         max_train_len=64, max_infer_len=128)
    model = build_model(config, seed=2)
    rng = np.random.default_rng(0)
    original = rng.integers(len(SPECIAL_TOKENS), vocab_size, size=40).tolist()
    positions = list(range(0, 40, 4))
    corrupted = list(original)
    mask_id = SPECIAL_TOKENS.index(MASK_TOKEN)
    for pos in positions:
        corrupted[pos] = mask_id
    with ad.no_grad():
        fresh = mlm_loss(model, [corrupted], [positions], [original]).data.item()
    ln_v = math.log(vocab_size)
    assert abs(fresh - ln_v) <= 0.05 * ln_v

    row = _unit_rows(np.random.default_rng(1), (1, 16))
    identical = ad.tensor(np.repeat(row, 4, axis=0))
    ln_b = info_nce_loss(identical, identical).data.item()
    assert ln_b == pytest.approx(math.log(4.0), abs=1e-4)
    assert ln_b == pytest.approx(1.3863, abs=1e-4)

    single = ad.tensor(row)
    assert info_nce_loss(single, single).data.item() == 0.0

    eye = ad.tensor(np.eye(2))
    two = info_nce_loss(eye, eye, temperature=1.0).data.item()
    assert two == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-4)

    print(f"criterion 04 PASS: fresh MLM {fresh:.3f} vs ln V {ln_v:.3f} "
          f"({abs(fresh - ln_v) / ln_v:.1%} off), identical-batch InfoNCE "
          f"{ln_b:.4f} = ln 4, B=1 loss exactly 0, 2x2 identity "
          f"{two:.5f} = ln(1+e^-1)")


# ---------------------------------------------------------------------------
# 5. adaptive softmax is a proper distribution and collapses correctly

def test_criterion_05_adaptive_softmax_consistency():
    config = ModelConfig(vocab_size=120, hidden=32, layers=1, heads=2,
                         ffn_dim=64, num_projections=2,
                         max_train_len=32, max_infer_len=64)
    model = build_model(config, seed=5, dtype=np.float64)
    rng = np.random.default_rng(9)
    hidden = Tensor(rng.standard_normal((100, 32)))
    log_probs = adaptive_log_probs(model.mlm_head, hidden)
    sums = np.exp(log_probs.data).sum(axis=-1)
    assert log_probs.shape == (100, 120)
    assert np.all(np.abs(sums - 1.0) <= 1e-6)

    flat_config = ModelConfig(vocab_size=40, hidden=16, layers=1, heads=2,
                              ffn_dim=32, num_projections=2,
                              adaptive_cutoffs=(40,),
                              max_train_len=32, max_infer_len=64)
    flat = build_model(flat_config, seed=4, dtype=np.float64)
    head = flat.mlm_head
    h = Tensor(rng.standard_normal((8, 16)))
    adaptive = adaptive_log_probs(head, h).data
    logits = h.data @ head.head_projection.data + head.head_bias.data
    peak = logits.max(axis=-1, keepdims=True)
    manual = logits - peak - np.log(np.exp(logits - peak).sum(-1, keepdims=True))
    assert np.allclose(adaptive, manual[:, head.rank_of], atol=1e-6)

    print(f"criterion 05 PASS: 100/100 probability sums within "
          f"{np.abs(sums - 1.0).max():.1e} of 1, single-cluster head matches "
          f"a full softmax within {np.abs(adaptive - manual[:, head.rank_of]).max():.1e}")


# ---------------------------------------------------------------------------
# 6. train short, evaluate long

def test_criterion_06_length_extrapolation():
    start = time.monotonic()
    seed = 6
    vocab = bigram_vocabulary(12)
    tokenizer = TokenizerModel(vocab)
    config = ModelConfig(vocab_size=len(vocab), hidden=32, layers=2, heads=4,
                         ffn_dim=64, num_projections=2,
                         max_train_len=64, max_infer_len=256)
    model = build_model(config, seed=seed)
    stage = StageConfig(stage="mlm", total_steps=500, peak_lr=3e-3,
                        beta1=0.9, beta2=0.98, global_batch=8, grad_accum=1,
                        warmup_fraction=0.10, max_len=64, mask_rate=0.30,
                        seed=seed)
    data = bigram_sequences(vocab, count=500 * 8, length=64, seed=seed + 1000)
    records = run_stage(stage, model, tokenizer, data)

    held_out = bigram_stream(vocab, 1024, seed=seed + 9999)
    ce_64 = windowed_masked_ce(model, vocab, held_out, window=64)
    ce_256 = windowed_masked_ce(model, vocab, held_out, window=256)
    elapsed = time.monotonic() - start

    assert ce_64 < math.log(len(vocab)), "training never beat the uniform baseline"
    assert ce_256 <= 1.5 * ce_64
    assert elapsed < 600.0
    print(f"criterion 06 PASS: trained at len 64 (loss "
          f"{records[0]['loss']:.3f} -> {records[-1]['loss']:.3f}), "
          f"CE@64 {ce_64:.4f}, CE@256 {ce_256:.4f}, "
          f"ratio {ce_256 / ce_64:.3f} <= 1.5 ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. whole-word masking statistics

def test_criterion_07_masking_statistics():
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    vocab = Vocabulary(list(SPECIAL_TOKENS) + letters
                       + ["##" + ch for ch in letters])
    cls_id = vocab.id_of["[CLS]"]
    sep_id = vocab.id_of["[SEP]"]
    rng = np.random.default_rng(77)
    rates = []
    for _ in range(1000):
        n_words = int(rng.integers(16, 49))
        body = []
        for _ in range(n_words):
            length = int(rng.integers(1, 5))
            chars = rng.choice(letters, size=length)
            body.append(vocab.id_of[chars[0]])
            body.extend(vocab.id_of["##" + ch] for ch in chars[1:])
        seq = sequence_from_ids(vocab, [cls_id] + body + [sep_id])
        positions = select_whole_word_mask(seq, 0.30, rng)
        assert not positions & seq.special_positions, "special token masked"
        for group_start, group_end in seq.word_groups:
            span = set(range(group_start, group_end))
            hit = span & positions
            assert hit == span or not hit, "word group partially masked"
        rates.append(len(positions) / seq.non_special_length())
    mean_rate = float(np.mean(rates))
    assert 0.28 <= mean_rate <= 0.34
    print(f"criterion 07 PASS: mean mask rate {mean_rate:.4f} over 1000 "
          f"sequences, no partial word groups, no masked specials")


# ---------------------------------------------------------------------------
# 8. optimizer and schedule anchors

def test_criterion_08_optimizer_anchors():
    weight = Tensor(np.array([1.0]), requires_grad=True)
    weight.grad = np.array([0.5])
    state = OptimizerState(beta1=0.9, beta2=0.98, weight_decay=0.01)
    adamw_step({"w": weight}, state, lr_now=0.1)
    stepped = float(weight.data[0])
    # By hand: m_hat = 0.5, v_hat = 0.25, so the update is
    # 0.1 * (0.5 / (0.5 + 1e-8) + 0.01 * 1.0) and the weight lands at
    # 0.899000002 (the value sometimes quoted as 0.8999 transposes a digit).
    assert stepped == pytest.approx(0.899000002, abs=1e-6)

    schedule = ScheduleConfig(total_steps=100, warmup_fraction=0.10)
    peak = 3e-4
    assert lr_at(schedule, peak, 0) == 0.0
    assert lr_at(schedule, peak, 10) == pytest.approx(peak, rel=1e-12)
    assert lr_at(schedule, peak, 55) == pytest.approx(0.5 * peak, rel=1e-12)
    assert lr_at(schedule, peak, 100) == 0.0

    config = ModelConfig(vocab_size=30, hidden=16, layers=1, heads=2,
                         ffn_dim=32, num_projections=2,
                         max_train_len=32, max_infer_len=64)
    rng = np.random.default_rng(8)
    sequences = []
    for _ in range(4):
        ids = rng.integers(len(SPECIAL_TOKENS), 30, size=12).tolist()
        positions = [2, 6, 10]
        corrupted = list(ids)
        for pos in positions:
            corrupted[pos] = SPECIAL_TOKENS.index(MASK_TOKEN)
        sequences.append((corrupted, positions, ids))

    def batch_loss(model, batch):
        losses = [mlm_loss(model, [c], [p], [o]) for c, p, o in batch]
        total = losses[0]
        for extra in losses[1:]:
            total = ad.add(total, extra)
        return ad.mul(total, 1.0 / len(batch))

    full = build_model(config, seed=88, dtype=np.float64)
    accum = build_model(config, seed=88, dtype=np.float64)
    lr = 1e-3

    loss = batch_loss(full, sequences)
    ad.backward(loss)
    adamw_step(full.named_parameters(), OptimizerState(0.9, 0.98), lr)

    for half in (sequences[:2], sequences[2:]):
        part = ad.mul(batch_loss(accum, half), 0.5)
        ad.backward(part)
    adamw_step(accum.named_parameters(), OptimizerState(0.9, 0.98), lr)

    for name, param in full.named_parameters().items():
        twin = accum.named_parameters()[name]
        assert np.allclose(param.data, twin.data, atol=1e-6), name

    print(f"criterion 08 PASS: hand-stepped weight {stepped:.9f}, schedule "
          f"anchors at steps 0/10/55/100 exact, accumulated step matches "
          f"full-batch step within 1e-6")


# ---------------------------------------------------------------------------
# 9. contrastive training lifts retrieval on held-out pairs

def _retrieval_scores(model, tokenizer, dataset):
    under_test = ModelUnderTest(name="probe", model=model, tokenizer=tokenizer)
    run = retrieval_run(under_test, dataset, k=10)
    recall = float(np.mean([recall_at_k(run[qid], dataset.qrels[qid], 1)
                            for qid in dataset.queries]))
    ndcg = float(np.mean([ndcg_at_k(run[qid], dataset.qrels[qid], 10)
                          for qid in dataset.queries]))
    return recall, ndcg


def test_criterion_09_contrastive_training_improves_retrieval():
    start = time.monotonic()
    seed = 4
    data = synthetic_topic_pairs(n_topics=16, train_per_topic=4,
                                 eval_per_topic=1, pool_size=4,
                                 words_per_text=10, seed=seed)
    tokenizer = TokenizerModel(data.vocab)
    config = ModelConfig(vocab_size=len(data.vocab), hidden=32, layers=1,
                         heads=2, ffn_dim=64, num_projections=2,
                         max_train_len=16, max_infer_len=32)
    model = build_model(config, seed=seed)

    recall_before, ndcg_before = _retrieval_scores(model, tokenizer, data.dataset)
    assert recall_before <= 0.15, "untrained model is already too good"

    stage = StageConfig(stage="contrastive", total_steps=200, peak_lr=3e-3,
                        beta1=0.95, beta2=0.98, global_batch=8, grad_accum=1,
                        warmup_fraction=0.06, max_len=16, temperature=0.05,
                        seed=seed)
    source = PairSource(source_id="synthetic",
                        items=[(p.query, p.positive) for p in data.train])
    run_stage(stage, model, tokenizer, [source])

    recall_after, ndcg_after = _retrieval_scores(model, tokenizer, data.dataset)
    elapsed = time.monotonic() - start
    assert recall_after >= 0.9
    assert ndcg_after >= 0.9
    assert elapsed < 900.0
    print(f"criterion 09 PASS: recall@1 {recall_before:.3f} -> "
          f"{recall_after:.3f}, nDCG@10 {ndcg_before:.3f} -> {ndcg_after:.3f} "
          f"on 16 held-out queries ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 10. retrieval metric anchors

def test_criterion_10_metric_anchors():
    qrels = {"d1": 3, "d2": 2, "d3": 1}
    ideal = ["d1", "d2", "d3", "x1", "x2"]
    assert ndcg_at_k(ideal, qrels, 10) == pytest.approx(1.0, abs=1e-12)

    third = ndcg_at_k(["x1", "x2", "hit"], {"hit": 1}, 10)
    assert third == pytest.approx(0.5, abs=1e-12)

    assert ndcg_at_k(["x1", "x2", "x3"], {"d1": 2}, 10) == 0.0
    assert recall_at_k(["x1", "d1"], {"d1": 1}, 2) == 1.0
    assert recall_at_k(["x1", "x2"], {"d1": 1}, 2) == 0.0

    print("criterion 10 PASS: nDCG@10 is 1.0 for ideal ranking, 0.5 for a "
          "single grade-1 hit at rank 3, 0.0 when nothing relevant is "
          "retrieved")


# ---------------------------------------------------------------------------
# 11. same-seed pipeline runs are byte-identical

def test_criterion_11_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("MEDEIR_CACHE", raising=False)
    start = time.monotonic()
    first = run_smoke_pipeline(tmp_path / "run1", seed=0)
    second = run_smoke_pipeline(tmp_path / "run2", seed=0)
    elapsed = time.monotonic() - start

    compared = []
    for key in ("report", "vocab", "chunks", "train_log"):
        compared.append((key, first[key], second[key]))
    for key in ("checkpoint", "mlm_checkpoint"):
        for part in ("params.bin", "manifest.json", "config.json", "vocab.txt"):
            compared.append((f"{key}/{part}", first[key] / part, second[key] / part))
    for label, path_a, path_b in compared:
        assert filecmp.cmp(path_a, path_b, shallow=False), \
            f"{label} differs between same-seed runs"

    report = json.loads(first["report"].read_text())
    assert report["rows"], "pipeline produced an empty report"
    print(f"criterion 11 PASS: {len(compared)} artifacts byte-identical "
          f"across same-seed runs ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 12. exact data-shaping arithmetic

def test_criterion_12_data_shaping_arithmetic():
    angles = np.linspace(5, 85, 20)
    table = {"q": np.array([1.0, 0.0])}
    pairs = []
    for i, angle in enumerate(angles):
        rad = math.radians(angle)
        table[f"p{i}"] = np.array([math.cos(rad), math.sin(rad)])
        pairs.append(SentencePair(query="q", positive=f"p{i}"))
    kept = filter_pairs_by_similarity(pairs, lambda text: table[text],
                                      drop_fraction=0.10)
    assert len(kept) == len(pairs) - math.floor(0.10 * len(pairs))
    assert len(kept) == 18
    dropped = {p.positive for p in pairs} - {p.positive for p in kept}
    assert dropped == {"p18", "p19"}, "kept a lower-similarity pair"

    odd_sized = pairs[:13]
    survivors = filter_pairs_by_similarity(odd_sized, lambda text: table[text],
                                           drop_fraction=0.10)
    assert len(survivors) == 13 - math.floor(0.10 * 13) == 12

    tokenizer = TokenizerModel(Vocabulary(list(SPECIAL_TOKENS) + ["a"]))
    doc = CorpusDocument(id="long", text=" ".join(["a"] * 1030))
    chunks = pack_chunks([doc], tokenizer, chunk_len=512, min_tail=16)
    assert [len(chunk) for chunk in chunks] == [512, 512]

    print(f"criterion 12 PASS: drop_fraction=0.10 removed exactly "
          f"{len(pairs) - len(kept)} of {len(pairs)} pairs, a 1030-token "
          f"document packs to exactly two 512-token chunks")
