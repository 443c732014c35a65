"""CoNLL-U parsing, character streams, vocabularies, embeddings, splits."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatagger import data

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestParse:
    def test_field_mapping(self):
        sents = data.parse_conllu(load("tiny.conllu"))
        assert len(sents) == 2
        assert sents[0].forms() == ["Dog", "barks"]
        assert sents[0].gold_tags("xpos") == ["NN", "VBZ"]
        assert sents[0].gold_tags("upos") == ["NOUN", "VERB"]
        assert sents[1].forms() == ["I", "had", "shingles"]

    def test_feats_canonicalized_at_parse(self):
        sents = data.parse_conllu(load("tiny.conllu"))
        assert sents[1].gold_tags("feats")[0] == "Case=Nom|Number=Sing"

    def test_range_and_empty_node_lines_skipped(self):
        sents = data.parse_conllu(load("ranges.conllu"))
        assert sents[0].forms() == ["vamos", "nos", "a", "el", "mar"]
        assert sents[1].forms() == ["Sue", "likes", "coffee", "and",
                                    "Bill", "tea"]
        # but the lines stay in the raw block
        assert any(l.startswith("1-2\t") for l in sents[0].raw_lines)
        assert any(l.startswith("5.1\t") for l in sents[1].raw_lines)

    def test_round_trip_bytes(self):
        for name in ("tiny.conllu", "ranges.conllu"):
            text = load(name)
            assert data.write_conllu(data.parse_conllu(text)) == text

    def test_bad_column_count_names_line(self):
        text = "1\tDog\tdog\tNOUN\tNN\tNumber=Sing\t2\tnsubj\t_\n"
        with pytest.raises(data.DataError, match="line 1"):
            data.parse_conllu(text)

    def test_empty_form_names_line(self):
        text = ("1\tDog\tdog\tNOUN\tNN\t_\t2\tnsubj\t_\t_\n"
                "2\t\tbark\tVERB\tVBZ\t_\t0\troot\t_\t_\n")
        with pytest.raises(data.DataError,
                           match=r"^line 2: empty token form$"):
            data.parse_conllu(text)

    def test_empty_input(self):
        assert data.parse_conllu("") == []

    def test_crlf_text_parses_like_lf_text(self):
        for name in ("tiny.conllu", "ranges.conllu"):
            text = load(name)
            crlf = data.parse_conllu(text.replace("\n", "\r\n"))
            lf = data.parse_conllu(text)
            assert [s.raw_lines for s in crlf] == [s.raw_lines for s in lf]
            assert [s.tokens for s in crlf] == [s.tokens for s in lf]
            assert data.write_conllu(crlf) == text

    def test_malformed_feats_names_line(self):
        text = ("1\tDog\tdog\tNOUN\tNN\tNumber=Sing\t2\tnsubj\t_\t_\n"
                "2\tbarks\tbark\tVERB\tVBZ\tMood\t0\troot\t_\t_\n")
        with pytest.raises(data.DataError, match="line 2: .*'Mood'"):
            data.parse_conllu(text)

    def test_malformed_feats_is_checked_only_for_the_feats_task(self):
        text = ("1\tDog\tdog\tNOUN\tNN\tNumber=Sing|Case=Nom\t2\tnsubj\t_\t_\n"
                "2\tbarks\tbark\tVERB\tVBZ\tMood\t0\troot\t_\t_\n")
        with pytest.raises(data.DataError, match="line 2: .*'Mood'"):
            data.parse_conllu(text, "feats")
        for task in ("upos", "xpos"):
            [s] = data.parse_conllu(text, task)
            assert s.gold_tags("feats") == \
                ["Number=Sing|Case=Nom", "Mood"]
            assert s.gold_tags(task) == (["NOUN", "VERB"] if task == "upos"
                                         else ["NN", "VBZ"])
            assert data.write_conllu([s]) == text

    def test_char_spans_cover_forms(self):
        for s in data.parse_conllu(load("ranges.conllu")):
            for tok, (a, b) in zip(s.tokens, s.spans):
                assert s.chars[a:b + 1] == tok.form

    def test_spans_are_the_char_streams(self):
        text = load("ranges.conllu") + (
            "\n1\tNew York\t_\t_\tNNP\t_\t0\t_\t_\t_\n"
            "2\tx\t_\t_\tNN\t_\t0\t_\t_\t_\n")
        sents = data.parse_conllu(text)
        assert sents[-1].forms() == ["New York", "x"]
        for s in sents:
            chars, spans = data.char_stream_build(s.forms())
            assert s.chars == chars
            assert s.spans.shape == (len(s), 2)
            assert s.spans.tolist() == [list(span) for span in spans]


class TestCharStream:
    def test_two_tokens(self):
        chars, spans = data.char_stream_build(["ab", "c"])
        assert chars == "ab c"
        assert spans == [(0, 1), (3, 3)]

    def test_single_token_no_space(self):
        chars, spans = data.char_stream_build(["x"])
        assert chars == "x"
        assert spans == [(0, 0)]

    def test_running_example(self):
        chars, spans = data.char_stream_build(["I", "had", "shingles"])
        assert len(chars) == 14
        assert spans == [(0, 0), (2, 4), (6, 13)]

    def test_empty_form_rejected(self):
        with pytest.raises(data.DataError):
            data.char_stream_build(["a", ""])

    def test_internal_space_is_ordinary(self):
        chars, spans = data.char_stream_build(["New York", "city"])
        assert chars == "New York city"
        assert spans == [(0, 7), (9, 12)]


class TestMorphBundle:
    def test_sorted_by_attribute(self):
        assert data.morph_bundle_tag("Number=Sing|Case=Nom") == \
            "Case=Nom|Number=Sing"

    def test_empty_bundle(self):
        assert data.morph_bundle_tag("_") == "_"

    def test_order_insensitive(self):
        a = data.morph_bundle_tag("A=1|B=2|C=3")
        b = data.morph_bundle_tag("C=3|A=1|B=2")
        assert a == b

    def test_idempotent(self):
        t = data.morph_bundle_tag("Number=Sing|Case=Nom")
        assert data.morph_bundle_tag(t) == t

    def test_malformed_pair(self):
        with pytest.raises(data.DataError):
            data.morph_bundle_tag("Number")


def corpus_of(*texts):
    blocks = []
    for si, toks in enumerate(texts):
        lines = [f"{i + 1}\t{w}\t_\t_\tX{i}\t_\t0\t_\t_\t_"
                 for i, w in enumerate(toks.split())]
        blocks.append("\n".join(lines))
    return data.parse_conllu("\n\n".join(blocks) + "\n")


class TestVocabs:
    def test_word_vocab_first_occurrence(self):
        v = data.build_vocabs(corpus_of("a b", "a"))
        assert v.words == {"a": 1, "b": 2}
        assert v.n_words == 3  # UNK + a + b
        assert v.word_id("a") == 1
        assert v.word_id("zzz") == data.UNK_ID

    def test_char_vocab_contains_space(self):
        v = data.build_vocabs(corpus_of("ab cd"))
        assert " " in v.chars
        assert v.char_id("?") == data.UNK_ID

    def test_determinism(self):
        a = data.build_vocabs(corpus_of("a b c", "d e"))
        b = data.build_vocabs(corpus_of("a b c", "d e"))
        assert a.words == b.words and a.chars == b.chars and a.tags == b.tags

    def test_min_count_prunes_words(self):
        v = data.build_vocabs(corpus_of("a a b"), min_count=2)
        assert "a" in v.words and "b" not in v.words

    def test_tag_vocab_task_specific(self):
        sents = data.parse_conllu(load("tiny.conllu"))
        vx = data.build_vocabs(sents, task="xpos")
        vf = data.build_vocabs(sents, task="feats")
        assert set(vx.tags) == {"NN", "VBZ", "PRP", "VBD", "NNS"}
        assert "Number=Sing" in vf.tags
        unseen = data.parse_conllu(
            "1\tDog\tdog\tNOUN\tNN\tNoSuch=Tag\t0\t_\t_\t_\n")
        data.assign_ids(unseen, vf)
        assert unseen[0].tag_ids.tolist() == [-1]

    @pytest.mark.parametrize("task", ["upos", "xpos", "feats"])
    def test_assign_ids_numbers_the_gold_tags_of_the_vocabs_task(self, task):
        sents = data.parse_conllu(load("tiny.conllu"), task)
        v = data.build_vocabs(sents[:1], task=task)
        data.assign_ids(sents, v)
        for s in sents:
            assert s.tag_ids.dtype == np.intp
            assert s.tag_ids.tolist() == [v.tags.get(tag, -1)
                                          for tag in s.gold_tags(task)]
        assert sents[0].tag_ids.tolist() == [0, 1]
        assert -1 in sents[1].tag_ids.tolist()

    def test_vocabs_are_frozen(self):
        import dataclasses
        v = data.build_vocabs(corpus_of("a b"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.task = "upos"
        assert v.task == "xpos"

    def test_tag_strings_inverse(self):
        v = data.build_vocabs(corpus_of("a b"))
        names = v.tag_strings()
        for tag, i in v.tags.items():
            assert names[i] == tag

    def test_assign_ids(self):
        sents = corpus_of("ab c", "c ab")
        v = data.build_vocabs(sents)
        data.assign_ids(sents, v)
        assert sents[0].word_ids[0] == v.word_id("ab")
        assert sents[0].char_ids.shape == (4,)
        assert sents[0].char_ids[2] == v.char_id(" ")


class TestPretrained:
    def test_alignment_and_zero_fill(self):
        sents = corpus_of("dog barks loudly")
        v = data.build_vocabs(sents)
        emb = data.load_pretrained(FIXTURES / "vectors.txt", v)
        assert emb.shape == (v.n_words, 3)
        np.testing.assert_array_equal(emb[data.UNK_ID], [0, 0, 0])
        np.testing.assert_array_equal(emb[v.word_id("dog")],
                                      [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(emb[v.word_id("loudly")], [0, 0, 0])

    def test_lowercase_fallback(self):
        v = data.build_vocabs(corpus_of("Dog I"))
        on = data.load_pretrained(FIXTURES / "vectors.txt", v)
        off = data.load_pretrained(FIXTURES / "vectors.txt", v,
                                   lowercase_fallback=False)
        np.testing.assert_array_equal(on[v.word_id("Dog")], [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(off[v.word_id("Dog")], [0, 0, 0])

    def test_header_optional(self, tmp_path):
        p = tmp_path / "noheader.txt"
        p.write_text("a 1.0 2.0\nb 3.0 4.0\n")
        v = data.build_vocabs(corpus_of("a b"))
        emb = data.load_pretrained(p, v)
        assert emb.shape == (v.n_words, 2)
        np.testing.assert_array_equal(emb[v.word_id("b")], [3, 4])

    def test_inconsistent_dim(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a 1.0 2.0\nb 3.0\n")
        v = data.build_vocabs(corpus_of("a b"))
        with pytest.raises(data.DataError, match="line 2"):
            data.load_pretrained(p, v)

    def test_missing_file(self):
        v = data.build_vocabs(corpus_of("a"))
        with pytest.raises(OSError):
            data.load_pretrained("/no/such/file.txt", v)


class TestDevSplit:
    def make(self, n):
        return corpus_of(*[f"w{i} x{i}" for i in range(n)])

    def test_sizes_100(self):
        train, dev = data.dev_split(self.make(100), seed=1)
        assert len(train) == 90 and len(dev) == 10

    def test_ceil_on_small(self):
        train, dev = data.dev_split(self.make(15), seed=1)
        assert len(dev) == 2 and len(train) == 13

    def test_seed_determinism(self):
        c = self.make(30)
        a = data.dev_split(c, seed=7)
        b = data.dev_split(c, seed=7)
        assert [s.forms() for s in a[1]] == [s.forms() for s in b[1]]

    def test_partition(self):
        c = self.make(20)
        train, dev = data.dev_split(c, seed=3)
        ids = lambda xs: {id(s) for s in xs}
        assert ids(train) | ids(dev) == ids(c)
        assert ids(train) & ids(dev) == set()

    def test_too_small(self):
        with pytest.raises(data.DataError):
            data.dev_split(self.make(1), seed=0)


class TestTaggedOutput:
    def test_column_rewrite_preserves_rest(self):
        sents = data.parse_conllu(load("tiny.conllu"))
        tags = [["A", "B"], ["C", "D", "E"]]
        out = data.write_conllu(sents, tags, task="xpos")
        re = data.parse_conllu(out)
        assert re[0].gold_tags("xpos") == ["A", "B"]
        assert re[1].gold_tags("xpos") == ["C", "D", "E"]
        # everything except column 5 unchanged
        assert re[0].forms() == sents[0].forms()
        assert re[0].gold_tags("upos") == sents[0].gold_tags("upos")
        assert out.splitlines()[0] == "# sent_id = 1"

    def test_range_lines_pass_through(self):
        sents = data.parse_conllu(load("ranges.conllu"))
        tags = [["T"] * len(s) for s in sents]
        out = data.write_conllu(sents, tags, task="xpos")
        assert "1-2\tvamonos" in out
        assert "5.1\tlikes" in out

    def test_tag_count_mismatch(self):
        sents = data.parse_conllu(load("tiny.conllu"))
        with pytest.raises(data.DataError):
            data.sentence_block(sents[0], ["onlyone"], "xpos")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_characters=" \t\n",
                                               blacklist_categories=("Cs",)),
                        min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_char_stream_reconstructs_forms(forms):
    chars, spans = data.char_stream_build(forms)
    rebuilt = [chars[a:b + 1] for a, b in spans]
    assert rebuilt == forms
    assert chars == " ".join(forms)
    # spans never cover the separator spaces
    covered = set()
    for a, b in spans:
        covered.update(range(a, b + 1))
    for i, ch in enumerate(chars):
        if i not in covered:
            assert ch == " "
