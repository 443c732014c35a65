"""Diagnostic corpus generators: placement of signal, splits, noise."""

from metatagger import data, synthetic


def stems_of(sentences):
    out = set()
    for sent in sentences:
        for form in sent.forms():
            if form != "." and (form.endswith("ka") or form.endswith("tu")):
                out.add(form[:-2])
    return out


class TestSuffixContext:
    def setup_method(self):
        self.train, self.dev = synthetic.suffix_context_corpora(3)

    def test_tag_is_next_tokens_suffix_class(self):
        for sent in self.train + self.dev:
            forms = sent.forms()
            tags = sent.gold_tags("xpos")
            for i in range(len(forms) - 2):
                expect = "KA" if forms[i + 1].endswith("ka") else "TU"
                assert tags[i] == expect

    def test_sentence_end_markers(self):
        for sent in self.train + self.dev:
            assert sent.forms()[-1] == "."
            assert sent.gold_tags("xpos")[-2:] == ["END", "PUNCT"]

    def test_split_sizes(self):
        assert len(self.train) == 60
        assert len(self.dev) == 30

    def test_stems_disjoint_across_split(self):
        assert not (stems_of(self.train) & stems_of(self.dev))

    def test_deterministic_per_seed(self):
        again = synthetic.suffix_context_corpora(3)
        assert data.write_conllu(self.train) == data.write_conllu(again[0])
        other = synthetic.suffix_context_corpora(4)
        assert data.write_conllu(self.train) != data.write_conllu(other[0])

    def test_length_bounds(self):
        for sent in self.train:
            assert 5 <= len(sent.tokens) <= 8


class TestComplementary:
    def setup_method(self):
        self.train, self.dev = synthetic.complementary_corpora(5)

    def test_alternation_and_tag_sources(self):
        for sent in self.train + self.dev:
            forms = sent.forms()
            tags = sent.gold_tags("xpos")
            assert len(forms) % 2 == 0
            for i, (form, tag) in enumerate(zip(forms, tags)):
                if i % 2 == 0:
                    assert sorted(form) == sorted("lorit")
                    assert tag in ("K1", "K2")
                else:
                    expect = "S1" if form.endswith("ka") else "S2"
                    assert tag == expect

    def test_closed_forms_tagged_consistently(self):
        seen = {}
        for sent in self.train + self.dev:
            for form, tag in zip(sent.forms(), sent.gold_tags("xpos")):
                if tag in ("K1", "K2"):
                    assert seen.setdefault(form, tag) == tag

    def test_closed_lexicon_shared_open_stems_disjoint(self):
        train_closed = {f for s in self.train for f, t in
                        zip(s.forms(), s.gold_tags("xpos")) if t[0] == "K"}
        dev_closed = {f for s in self.dev for f, t in
                      zip(s.forms(), s.gold_tags("xpos")) if t[0] == "K"}
        assert dev_closed <= train_closed
        assert not (stems_of(self.train) & stems_of(self.dev))

    def test_closed_size_parameter(self):
        train, _ = synthetic.complementary_corpora(5, n_closed=32)
        forms = {f for s in train for f, t in
                 zip(s.forms(), s.gold_tags("xpos")) if t[0] == "K"}
        assert len(forms) <= 32
        assert len(forms) > 12

    def test_zero_noise_is_identity(self):
        clean, _ = synthetic.complementary_corpora(5, noise_rate=0.0)
        assert data.write_conllu(clean) == data.write_conllu(self.train)


class TestCorruptTags:
    def test_dev_stays_clean(self):
        _, dev = synthetic.complementary_corpora(5, noise_rate=0.4,
                                                 noise_seed=11)
        _, clean_dev = synthetic.complementary_corpora(5)
        assert data.write_conllu(dev) == data.write_conllu(clean_dev)

    def test_flip_rate_in_plausible_band(self):
        train, _ = synthetic.complementary_corpora(5, noise_rate=0.3,
                                                   noise_seed=11)
        clean, _ = synthetic.complementary_corpora(5)
        pairs = [(a, b) for ca, cb in zip(clean, train)
                 for a, b in zip(ca.gold_tags("xpos"), cb.gold_tags("xpos"))]
        flipped = sum(a != b for a, b in pairs)
        assert 0.15 < flipped / len(pairs) < 0.45
        for a, b in pairs:
            if a != b:
                assert synthetic.TAG_FLIPS[a] == b

    def test_deterministic(self):
        one, _ = synthetic.complementary_corpora(5, noise_rate=0.2,
                                                 noise_seed=9)
        two, _ = synthetic.complementary_corpora(5, noise_rate=0.2,
                                                 noise_seed=9)
        assert data.write_conllu(one) == data.write_conllu(two)

    def test_unpaired_tags_survive(self):
        train, _ = synthetic.suffix_context_corpora(3)
        synthetic.corrupt_tags(train, 1.0, seed=0)
        for sent in train:
            tags = sent.gold_tags("xpos")
            assert tags[-2:] == ["END", "PUNCT"]
            assert all(t in ("KA", "TU") for t in tags[:-2])

    def test_raw_lines_rewritten(self):
        train, _ = synthetic.complementary_corpora(5, noise_rate=0.5,
                                                   noise_seed=2)
        reparsed = data.parse_conllu(data.write_conllu(train))
        got = [s.gold_tags("xpos") for s in reparsed]
        want = [s.gold_tags("xpos") for s in train]
        assert got == want


def test_generators_feed_training_pipeline():
    train, dev = synthetic.complementary_corpora(1, n_train=4, n_dev=2)
    vocabs = data.build_vocabs(train, "xpos")
    data.assign_ids(train, vocabs)
    data.assign_ids(dev, vocabs)
    for sent in train:
        assert sent.char_ids is not None
        assert sent.word_ids is not None
    assert set(vocabs.tags) == {"K1", "K2", "S1", "S2"}
