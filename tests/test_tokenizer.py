import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medeir import tokenizer as tokenizer_module
from medeir.datapipe import CorpusDocument, pack_chunks
from medeir.tokenizer import (
    CONTINUATION_PREFIX,
    MAX_CHARS_PER_WORD,
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

from support import fixture_tokenizer, mini_corpus_texts


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
        with pytest.raises(ValueError, match=r"^duplicate token 'a'$"):
            Vocabulary(list(SPECIAL_TOKENS) + ["a", "a"])
        with pytest.raises(ValueError, match=r"^duplicate token '\[PAD\]'$"):
            Vocabulary(list(SPECIAL_TOKENS) + ["a", "[PAD]"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^empty token string$"):
            Vocabulary(list(SPECIAL_TOKENS) + ["a", ""])

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^special token '\[CLS\]' missing from vocabulary$"):
            Vocabulary(["[PAD]", "[UNK]", "a"])

    def test_bare_prefix_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^bare continuation prefix is not a valid token$"):
            Vocabulary(list(SPECIAL_TOKENS) + ["a", "##"])

    @pytest.mark.parametrize("tokens, message", [
        (list(SPECIAL_TOKENS) + ["b", "a", "b", "", "##", "a"], "duplicate token 'b'"),
        (list(SPECIAL_TOKENS) + ["", "b", "b", "##"], "empty token string"),
        (list(SPECIAL_TOKENS) + ["##", "", "b", "b"],
         "bare continuation prefix is not a valid token"),
        (["[PAD]", "a", "a"], "duplicate token 'a'"),
        (["a", "", "[PAD]"], "empty token string"),
    ], ids=["duplicate", "empty", "bare-prefix", "duplicate-before-missing-special",
            "empty-before-missing-special"])
    def test_first_fault_in_token_order_is_named(self, tokens, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Vocabulary(tokens)

    def test_ids_follow_token_order_in_a_large_vocabulary(self):
        tokens = list(SPECIAL_TOKENS) + [f"w{i}" for i in range(2000)]
        v = Vocabulary(reversed(tokens))
        assert v.id_of == {tok: i for i, tok in enumerate(reversed(tokens))}

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

    @pytest.mark.parametrize("groups, specials, message", [
        ([(0, 1), (2, 4)], (), "partition"),                # gap at 1
        ([(0, 1), (3, 4)], {2}, "partition"),               # gap at 1 beside a special
        ([(0, 2)], (), "partition"),                        # uncovered tail
        ([(0, 2), (1, 4)], (), "overlap"),
        ([(2, 4), (0, 2)], (), "overlap"),                  # unordered
        ([(0, 2), (2, 3), (2, 4)], (), "overlap"),          # a group twice
        ([(-1, 2), (2, 4)], (), "bad word group span"),
        ([(0, 2), (2, 5)], (), "bad word group span"),
        ([(0, 2), (2, 2), (2, 4)], (), "bad word group span"),  # empty group
        ([(0, 2), (2, 4)], {3}, "overlaps a special"),
        ([(0, 3)], {1, 3}, "overlaps a special"),
        ([(0, 1), (2, 4)], {1, 4}, "partition"),            # 4 is past the end
        ([(0, 1), (2, 3)], {1, 7}, "partition"),            # counts add up, 3 is uncovered
        ([(0, 2), (2, 4)], {-1}, "partition"),
    ])
    def test_rejections(self, groups, specials, message):
        with pytest.raises(ValueError, match=message):
            EncodedSequence(ids=[5, 6, 7, 8], word_groups=groups,
                            special_positions=frozenset(specials))

    @pytest.mark.parametrize("groups, specials", [
        ([(0, 4)], ()),
        ([(0, 1), (1, 3), (3, 4)], ()),
        ([], {0, 1, 2, 3}),
        ([(1, 3)], {0, 3}),
        ([(0, 1), (3, 4)], {1, 2}),
    ])
    def test_partitions_pass(self, groups, specials):
        seq = EncodedSequence(ids=[5, 6, 7, 8], word_groups=groups,
                              special_positions=frozenset(specials))
        assert seq.non_special_length() == 4 - len(specials)

    def test_empty_sequence(self):
        assert EncodedSequence(ids=[], word_groups=[]).non_special_length() == 0

    def test_packed_chunks_rebuild(self):
        tok = fixture_tokenizer("merged")
        docs = [CorpusDocument(f"d{i}", t) for i, t in enumerate(mini_corpus_texts())]
        chunks = pack_chunks(docs, tok, chunk_len=64, min_tail=8)
        sep = tok.vocab.id_of["[SEP]"]
        assert any(sep in chunk for chunk in chunks)
        for chunk in chunks:
            seq = sequence_from_ids(tok.vocab, chunk)
            assert seq.special_positions == {i for i, t in enumerate(chunk) if t == sep}


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
    seq = model.encode(text)
    pieces = [model.vocab.token(i).removeprefix("##") for i in seq.ids]
    assert " ".join("".join(pieces[start:end]) for start, end in seq.word_groups) == text


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


# ---------------------------------------------------------------------------
# the memoized encode against the plain per-word reference

def reference_pretokenize(text):
    """pretokenize as one loop over every character, with no fast path."""
    words = []
    for chunk in text.lower().split():
        buf = []
        for ch in chunk:
            if unicodedata.category(ch).startswith("P"):
                if buf:
                    words.append("".join(buf))
                    buf.clear()
                words.append(ch)
            else:
                buf.append(ch)
        if buf:
            words.append("".join(buf))
    return words


def reference_encode(model, text):
    """(ids, word groups) with every word segmented afresh."""
    ids, groups = [], []
    for word in reference_pretokenize(text):
        start = len(ids)
        ids.extend(model.vocab.id_of[p] for p in model.segment_word(word))
        groups.append((start, len(ids)))
    return ids, groups


# Letters (ASCII, accented, German, Greek, Cyrillic, one that lowercases to
# two characters), digits and other numbers, punctuation (P*), symbols (S*)
# and a combining mark. Some are in MIXED_VOCAB, the rest make [UNK] words.
MIXED_CHARS = ("abcdeABCDE" "éÉßΣσж" "İ" "0123" "²½" ",.-(«¿_—" "+$°©" "\u0301")
MIXED_VOCAB = Vocabulary(
    list(SPECIAL_TOKENS)
    + ["a", "b", "c", "é", "σ", "1", "+", "°", "ab", "abc", "ca", "é1"]
    + ["##a", "##b", "##c", "##é", "##σ", "##ς", "##1", "##2", "##+", "##bc", "##°"]
    + [",", ".", "-", "(", "«", "_"])
MIXED_WORDS = st.one_of(
    st.text(alphabet=st.sampled_from(MIXED_CHARS), min_size=1, max_size=8),
    st.text(alphabet=st.sampled_from("abc"), min_size=MAX_CHARS_PER_WORD - 1,
            max_size=MAX_CHARS_PER_WORD + 3),
)
MIXED_TEXTS = st.lists(MIXED_WORDS, max_size=12).flatmap(
    lambda words: st.lists(st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u3000"]),
                           min_size=len(words), max_size=len(words)).map(
        lambda seps: "".join(s + w for s, w in zip(seps, words))))
SHARED_MODEL = TokenizerModel(MIXED_VOCAB)  # its memo carries over between examples


@settings(max_examples=100, deadline=None)
@given(st.lists(MIXED_TEXTS, min_size=1, max_size=3))
def test_memoized_encode_matches_reference(texts):
    fresh = TokenizerModel(MIXED_VOCAB)
    for text in texts + texts:
        want = reference_encode(fresh, text)
        for model in (fresh, SHARED_MODEL):
            seq = model.encode(text)
            assert (seq.ids, seq.word_groups) == want, text


def test_pretokenize_fast_path_on_overlong_and_unknown_words():
    model = TokenizerModel(MIXED_VOCAB)
    text = "ABC жж " + "a" * (MAX_CHARS_PER_WORD + 1) + " abc, " + "b" * MAX_CHARS_PER_WORD
    assert pretokenize(text) == reference_pretokenize(text)
    seq = model.encode(text)
    assert (seq.ids, seq.word_groups) == reference_encode(model, text)
    assert [model.vocab.token(i) for i in seq.ids][:4] == ["abc", "[UNK]", "[UNK]", "abc"]


def test_alphanumeric_characters_are_never_punctuation():
    # pretokenize keeps a chunk whole when chunk.isalnum(); that is only
    # right if no alphanumeric character is in a P* category
    for cp in range(0x110000):
        ch = chr(cp)
        if ch.isalnum():
            assert not unicodedata.category(ch).startswith("P"), hex(cp)


def test_tokenizers_with_different_vocabularies_share_no_memo():
    whole = TokenizerModel(small_vocab(extra=["hello"]))
    pieces = TokenizerModel(small_vocab())
    assert [whole.vocab.token(i) for i in whole.encode("hello").ids] == ["hello"]
    assert [pieces.vocab.token(i) for i in pieces.encode("hello").ids] == [
        "h", "##e", "##l", "##l", "##o"]
    assert [whole.vocab.token(i) for i in whole.encode("hello").ids] == ["hello"]
    assert whole._word_ids is not pieces._word_ids


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(tokenizer_module, "_MEMO_WORDS", 3)
    model = TokenizerModel(small_vocab())
    text = "ab cd ef gh ij kl ab cd mn"
    for _ in range(2):
        seq = model.encode(text)
        assert (seq.ids, seq.word_groups) == reference_encode(model, text)
        assert len(model._word_ids) == 3
    assert set(model._word_ids) == {"ab", "cd", "ef"}
