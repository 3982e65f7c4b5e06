import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medeir.tokenizer import (
    CONTINUATION_PREFIX,
    SPECIAL_TOKENS,
    EncodedSequence,
    TokenizerModel,
    Vocabulary,
    count_subtokens,
    merge_vocabularies,
    pretokenize,
    sequence_from_ids,
    tokenizer_compare,
    train_wordpiece,
)


def small_vocab(extra=()):
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    tokens = list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters]
    tokens += [t for t in extra if t not in tokens]
    return Vocabulary(tokens)


class TestPretokenize:
    def test_whitespace_and_punctuation(self):
        assert pretokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_punctuation_runs_split_per_character(self):
        assert pretokenize("wait...") == ["wait", ".", ".", "."]

    def test_interior_punctuation(self):
        assert pretokenize("dose-response") == ["dose", "-", "response"]

    def test_unicode_whitespace(self):
        assert pretokenize("a b\tc\nd") == ["a", "b", "c", "d"]

    def test_empty(self):
        assert pretokenize("   ") == []


class TestVocabulary:
    def test_ids_follow_file_order(self):
        v = small_vocab()
        assert v.token(0) == "[PAD]"
        assert v.id_of["[UNK]"] == 1
        assert v.token(len(v) - 1) == "##z"

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(list(SPECIAL_TOKENS) + ["a", "a"])

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["[PAD]", "[UNK]", "a"])

    def test_bare_prefix_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(list(SPECIAL_TOKENS) + ["a", "##"])

    def test_bad_id_rejected(self):
        v = small_vocab()
        with pytest.raises(ValueError):
            v.token(len(v))

    def test_save_load_round_trip(self, tmp_path):
        v = small_vocab(extra=["hello", "##llo"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert Vocabulary.load(path) == v

    def test_special_ids(self):
        v = small_vocab()
        specials = [i for i in range(len(v)) if v.is_special_id(i)]
        assert [v.token(i) for i in specials] == list(SPECIAL_TOKENS)


class TestSegmentation:
    def test_greedy_longest_match(self):
        model = TokenizerModel(small_vocab(extra=["hell", "hello", "##o"]))
        assert model.segment_word("hello") == ["hello"]

    def test_continuation_pieces(self):
        model = TokenizerModel(small_vocab())
        assert model.segment_word("abc") == ["a", "##b", "##c"]

    def test_unsegmentable_word_is_unk(self):
        vocab = Vocabulary(list(SPECIAL_TOKENS) + ["a", "##a"])
        model = TokenizerModel(vocab)
        assert model.segment_word("ab") == ["[UNK]"]

    def test_overlong_word_is_unk(self):
        model = TokenizerModel(small_vocab())
        assert model.segment_word("a" * 101) == ["[UNK]"]
        assert model.segment_word("a" * 100) != ["[UNK]"]

    def test_encode_structure(self):
        model = TokenizerModel(small_vocab())
        seq = model.encode("ab cd")
        toks = [model.vocab.token(i) for i in seq.ids]
        assert toks == ["a", "##b", "c", "##d"]
        assert seq.word_groups == [(0, 2), (2, 4)]
        assert seq.non_special_length() == 4

    def test_decode_round_trip(self):
        model = TokenizerModel(small_vocab(extra=["hello", "world", "##d"]))
        seq = model.encode("Hello world")
        assert model.decode(seq.ids) == "hello world"

    def test_decode_skips_specials(self):
        v = small_vocab()
        model = TokenizerModel(v)
        ids = [v.id_of["[CLS]"], v.id_of["a"], v.id_of["##b"], v.id_of["[SEP]"]]
        assert model.decode(ids) == "ab"

    def test_sequence_from_ids_rebuilds_groups(self):
        v = small_vocab()
        ids = [v.id_of["a"], v.id_of["##b"], v.id_of["[SEP]"], v.id_of["c"]]
        seq = sequence_from_ids(v, ids)
        assert seq.word_groups == [(0, 2), (3, 4)]
        assert seq.special_positions == frozenset({2})


class TestEncodedSequenceValidation:
    def test_groups_must_partition_non_special_positions(self):
        with pytest.raises(ValueError):
            EncodedSequence(ids=[5, 6], word_groups=[(0, 1)])


class TestTraining:
    def test_learns_initial_pair_over_continuation_pair(self):
        # both candidate merges have equal score on this corpus; the
        # tie must resolve toward "aa", not "##ab"
        vocab = train_wordpiece(["aaab"] * 3, target_size=9, min_frequency=1)
        assert "aa" in vocab
        assert "##ab" not in vocab

    def test_trivial_corpus(self):
        vocab = train_wordpiece(["x"], target_size=6, min_frequency=1)
        assert set(vocab.tokens) == set(SPECIAL_TOKENS) | {"x"}

    def test_min_frequency_drops_rare_words(self):
        vocab = train_wordpiece(["abab abab rare"], target_size=60, min_frequency=2)
        assert "rare" not in vocab
        # the alphabet keeps every character seen, even from rare words
        assert "r" in vocab and "##e" in vocab

    def test_stops_at_target_size(self):
        corpus = ["the cat sat on the mat", "the cat ran"] * 10
        floor = len(train_wordpiece(corpus, target_size=5000, min_frequency=1))
        target = min(floor, 40)
        vocab = train_wordpiece(corpus, target_size=target, min_frequency=1)
        assert len(vocab) <= 40

    def test_deterministic(self):
        corpus = ["low lower lowest", "new newer newest"] * 5
        a = train_wordpiece(corpus, target_size=60, min_frequency=1)
        b = train_wordpiece(corpus, target_size=60, min_frequency=1)
        assert a.tokens == b.tokens

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_wordpiece([], target_size=100)

    def test_target_below_floor_rejected(self):
        with pytest.raises(ValueError):
            train_wordpiece(["abc"], target_size=3, min_frequency=1)


class TestMerge:
    def test_base_ids_preserved_and_domain_appended(self):
        base = small_vocab(extra=["hello"])
        domain = Vocabulary(list(SPECIAL_TOKENS) + ["hello", "ibuprofen"])
        merged = merge_vocabularies(base, domain)
        for tok, idx in base.id_of.items():
            assert merged.id_of[tok] == idx
        assert merged.id_of["ibuprofen"] == len(base)
        assert len(merged) == len(base) + 1

    def test_idempotent(self):
        base = small_vocab()
        domain = Vocabulary(list(SPECIAL_TOKENS) + ["qq"])
        once = merge_vocabularies(base, domain)
        twice = merge_vocabularies(once, domain)
        assert once == twice


class TestComparison:
    def test_count_excludes_specials_and_unk(self):
        vocab = Vocabulary(list(SPECIAL_TOKENS) + ["a", "##a"])
        model = TokenizerModel(vocab)
        # "aa" segments into two pieces; "b" becomes [UNK] and is excluded
        tokens, words = count_subtokens(model, ["aa b"])
        assert tokens == 2
        assert words == 2

    def test_identical_tokenizers_zero_reduction(self):
        model = TokenizerModel(small_vocab())
        report = tokenizer_compare(model, model, ["ab cd"], "toy")
        assert report.reduction_pct == 0.0
        assert report.tokens_base == report.tokens_merged

    def test_merged_reduces_counts(self):
        base = TokenizerModel(small_vocab())
        merged = TokenizerModel(small_vocab(extra=["abc"]))
        report = tokenizer_compare(base, merged, ["abc abc"], "toy")
        assert report.tokens_base == 6
        assert report.tokens_merged == 2
        assert report.reduction_pct == pytest.approx(100.0 * 4 / 6)
        assert report.fertility_base == pytest.approx(3.0)
        assert report.fertility_merged == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        model = TokenizerModel(small_vocab())
        with pytest.raises(ValueError):
            tokenizer_compare(model, model, [], "toy")


WORDS = st.text(alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
                min_size=1, max_size=12)


@settings(max_examples=50)
@given(st.lists(WORDS, min_size=1, max_size=8))
def test_round_trip_over_alphabet_vocab(words):
    model = TokenizerModel(small_vocab())
    text = " ".join(words)
    assert model.decode(model.encode(text).ids) == text


@settings(max_examples=50)
@given(st.lists(WORDS, min_size=1, max_size=8))
def test_encode_groups_partition(words):
    model = TokenizerModel(small_vocab())
    seq = model.encode(" ".join(words))
    covered = sorted(i for s, e in seq.word_groups for i in range(s, e))
    assert covered == list(range(len(seq.ids)))


@settings(max_examples=25, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=6))
def test_merged_never_increases_subtokens(words):
    corpus = [" ".join(words)]
    base_vocab = train_wordpiece(corpus, target_size=500, min_frequency=1)
    domain = Vocabulary(list(SPECIAL_TOKENS) + sorted(set(words)))
    merged = merge_vocabularies(base_vocab, domain)
    base_count = count_subtokens(TokenizerModel(base_vocab), corpus)
    merged_count = count_subtokens(TokenizerModel(merged), corpus)
    assert merged_count <= base_count
