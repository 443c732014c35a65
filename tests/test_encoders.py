"""Encoder behavior: context sensitivity contrast, gather handling, frozen
embeddings, and the combiner's gradient isolation."""

import numpy as np
import pytest

import oracles
from metatagger import data, encoders, meta, nn, training
from metatagger import tensor as T


def make_world(texts, task="xpos", seed=0):
    blocks = []
    for toks in texts:
        lines = [f"{i + 1}\t{w}\t_\t_\tT{i % 3}\t_\t0\t_\t_\t_"
                 for i, w in enumerate(toks.split())]
        blocks.append("\n".join(lines))
    sents = data.parse_conllu("\n\n".join(blocks) + "\n")
    vocabs = data.build_vocabs(sents, task=task)
    data.assign_ids(sents, vocabs)
    return sents, vocabs


def small_config(**overrides):
    """A config at test sizes, without dropout."""
    sizes = dict(char_emb_dim=5, char_bilstm_size=6, char_bilstm_layers=2,
                 word_emb_dim=4, word_bilstm_size=6, word_bilstm_layers=2,
                 meta_bilstm_size=5, meta_bilstm_layers=1, mlp_size=7,
                 lstm_init="scaled", mlp_init="scaled", char_emb_dropout=0.0,
                 word_emb_dropout=0.0, lstm_dropout=0.0, mlp_dropout=0.0)
    return training.TrainConfig(**{**sizes, **overrides})


def small_encoders(vocabs, seed=1, gather=nn.GATHER_PARTS):
    rng = np.random.default_rng(seed)
    config = small_config(gather=",".join(gather))
    cs = encoders.char_sent_encoder(config, vocabs.n_chars, vocabs.n_tags,
                                    rng)
    ct = encoders.char_token_encoder(config, vocabs.n_chars, vocabs.n_tags,
                                     rng)
    wd = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags, rng)
    return cs, ct, wd


class TestCharSentence:
    def test_shapes_full_gather(self):
        sents, vocabs = make_world(["the dog barks"])
        cs, _, _ = small_encoders(vocabs)
        g, m, logits = encoders.encode_chars_sentence(cs, [sents[0]])
        assert g.shape == (3, 4 * 6)
        assert m.shape == (3, 7)
        assert logits.shape == (3, vocabs.n_tags)

    def test_single_char_token_degeneracy(self):
        sents, vocabs = make_world(["a bc d"])
        cs, _, _ = small_encoders(vocabs)
        g, _, _ = encoders.encode_chars_sentence(cs, [sents[0]])
        h = 6
        for row in (0, 2):  # "a" and "d" are single characters
            f1, fl = g.data[row, 0:h], g.data[row, h:2 * h]
            b1, bl = g.data[row, 2 * h:3 * h], g.data[row, 3 * h:4 * h]
            assert np.array_equal(f1, fl)
            assert np.array_equal(b1, bl)
        # the two-char token has distinct first/last outputs
        assert not np.array_equal(g.data[1, 0:h], g.data[1, h:2 * h])

    def test_gather_declaration_order_irrelevant(self):
        sents, vocabs = make_world(["ab cd"])
        rng_seed = 3
        a = small_encoders(vocabs, seed=rng_seed,
                           gather=("B_last", "F_1st"))[0]
        b = small_encoders(vocabs, seed=rng_seed,
                           gather=("F_1st", "B_last"))[0]
        ga, _, _ = encoders.encode_chars_sentence(a, [sents[0]])
        gb, _, _ = encoders.encode_chars_sentence(b, [sents[0]])
        assert np.array_equal(ga.data, gb.data)
        assert a.gather == b.gather == ("F_1st", "B_last")

    def test_subset_gather_shapes(self):
        sents, vocabs = make_world(["ab cd"])
        cs = small_encoders(vocabs, gather=("F_last", "B_1st"))[0]
        g, m, _ = encoders.encode_chars_sentence(cs, [sents[0]])
        assert g.shape == (2, 2 * 6)

    def test_neighbor_perturbation_changes_rep(self):
        # same middle token, different final token
        sents, vocabs = make_world(["aa bb cc", "aa bb cd"])
        cs, _, _ = small_encoders(vocabs)
        g1, _, _ = encoders.encode_chars_sentence(cs, [sents[0]])
        g2, _, _ = encoders.encode_chars_sentence(cs, [sents[1]])
        assert np.abs(g1.data[1] - g2.data[1]).max() > 0

    def test_deterministic_without_dropout(self):
        sents, vocabs = make_world(["the dog"])
        cs, _, _ = small_encoders(vocabs)
        a = encoders.encode_chars_sentence(cs, [sents[0]])[1].data
        b = encoders.encode_chars_sentence(cs, [sents[0]])[1].data
        assert np.array_equal(a, b)

    def test_empty_sentence_raises(self):
        sents, vocabs = make_world(["x"])
        cs, _, _ = small_encoders(vocabs)
        empty = data.Sentence(tokens=[], chars="", spans=np.empty((0, 2), int),
                              raw_lines=[], token_line_idx=[],
                              char_ids=np.array([], int))
        with pytest.raises(T.ShapeError):
            encoders.encode_chars_sentence(cs, [empty])

    def test_missing_ids_raises(self):
        sents, vocabs = make_world(["x y"])
        cs, _, _ = small_encoders(vocabs)
        sents[0].char_ids = None
        with pytest.raises(ValueError):
            encoders.encode_chars_sentence(cs, [sents[0]])

    def test_grad_check(self):
        sents, vocabs = make_world(["ab c"])
        cs, _, _ = small_encoders(vocabs, seed=11)
        golds = sents[0].tag_ids

        def f():
            _, _, logits = encoders.encode_chars_sentence(cs, [sents[0]])
            return nn.softmax_xent_rows(logits, golds)

        assert oracles.grad_check(f, cs.parameters()) < 1e-6

    def test_bad_gather_rejected(self):
        with pytest.raises(ValueError):
            nn.canonical_gather(("F_1st", "middle"))
        with pytest.raises(ValueError):
            nn.canonical_gather(())

    def test_each_part_is_the_stack_state_it_names(self):
        """Each gathered block is one direction's half of the stack's
        output at the token's first or last character, in a batch of two
        sentences with one- and multi-character tokens."""
        sents, vocabs = make_world(["a bc def", "gh i"])
        cs, _, _ = small_encoders(vocabs)
        g, _, _ = encoders.encode_chars_sentence(cs, sents)
        ids = np.concatenate([s.char_ids for s in sents])
        out = nn.bilstm_stack_run(
            cs.view.stack, T.take_rows(cs.char_table, ids),
            lengths=[len(s.char_ids) for s in sents]).data
        h = cs.view.stack[0][0].hidden_size
        halves = {"F": out[:, :h], "B": out[:, h:]}
        spans = np.concatenate([sents[0].spans,
                                sents[1].spans + len(sents[0].char_ids)])
        assert spans.tolist() == [[0, 0], [2, 3], [5, 7], [8, 9], [11, 11]]
        where = {"1st": 0, "last": 1}
        for row, span in enumerate(spans):
            for k, part in enumerate(cs.gather):
                direction, end = part.split("_")
                want = halves[direction][span[where[end]]]
                assert np.array_equal(g.data[row, k * h:(k + 1) * h], want), \
                    (row, part)


class TestCharToken:
    def test_context_free_bit_exact(self):
        # identical middle token in different contexts
        sents, vocabs = make_world(["aa bb cc", "zz bb yy"])
        _, ct, _ = small_encoders(vocabs)
        r1, _ = encoders.encode_chars_token(ct, [sents[0]])
        r2, _ = encoders.encode_chars_token(ct, [sents[1]])
        assert np.array_equal(r1.data[1], r2.data[1])

    def test_identical_forms_identical_reps(self):
        sents, vocabs = make_world(["dog chased dog"])
        _, ct, _ = small_encoders(vocabs)
        r, _ = encoders.encode_chars_token(ct, [sents[0]])
        assert np.array_equal(r.data[0], r.data[2])

    def test_single_char_token_rep(self):
        sents, vocabs = make_world(["a"])
        _, ct, _ = small_encoders(vocabs)
        r, _ = encoders.encode_chars_token(ct, [sents[0]])
        ids = sents[0].char_ids
        emb = T.take_rows(ct.char_table, ids)
        states = nn.lstm_run(ct.lstm, emb, lengths=[len(ids)])
        np.testing.assert_allclose(r.data[0], 2 * states.data[0], atol=1e-12)

    def test_shapes(self):
        sents, vocabs = make_world(["the dog barks"])
        _, ct, _ = small_encoders(vocabs)
        r, logits = encoders.encode_chars_token(ct, [sents[0]])
        assert r.shape == (3, 6)
        assert logits.shape == (3, vocabs.n_tags)

    def test_embedding_mask_is_applied_by_the_lstm_run(self):
        """Under dropout, reps, logits and every parameter gradient are
        bitwise those of the mask applied by ``apply_mask`` in front of an
        ``lstm_run`` without ``x_mask``, and the tape records no "mask"
        node."""
        sents, vocabs = make_world(["the dog barks", "a", "ab cd"])
        config = small_config(char_emb_dropout=0.3, lstm_dropout=0.2)
        ct = encoders.char_token_encoder(config, vocabs.n_chars,
                                         vocabs.n_tags,
                                         np.random.default_rng(7))
        [masks] = nn.draw_masks(np.random.default_rng(3), sents,
                                ct.dropout_sites)
        assert "emb" in masks and "state" in masks
        forms = [f for s in sents for f in s.forms()]
        lens = [len(f) for f in forms]
        ids = [vocabs.char_id(c) for f in forms for c in f]
        golds = np.concatenate([s.tag_ids for s in sents])

        def composed(p, batch, masks):
            emb = nn.apply_mask(T.take_rows(p.char_table, ids),
                                masks["emb"], lens)
            states = nn.lstm_run(p.lstm, emb, masks["state"], lengths=lens)
            reps = nn.char_attention(p.attn_vec, states, lens)
            return reps, nn.affine(p.classifier, reps)

        def run(encode):
            oracles.zero_grads(ct.parameters())
            with T.Graph() as g:
                reps, logits = encode(ct, sents, masks)
                loss = nn.softmax_xent_rows(logits, golds)
            g.backward(loss)
            grads = {n: p.grad.copy() for n, p in ct.parameters()}
            return reps.data, logits.data, grads, [n.op for n in g.nodes]

        reps, logits, grads, ops = run(encoders.encode_chars_token)
        want_reps, want_logits, want_grads, want_ops = run(composed)
        assert np.array_equal(reps, want_reps)
        assert np.array_equal(logits, want_logits)
        assert grads.keys() == want_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name
        assert want_ops.count("mask") == 1
        assert "mask" not in ops
        assert len(ops) == len(want_ops) - 1

    def test_grad_check(self):
        sents, vocabs = make_world(["ab c"])
        _, ct, _ = small_encoders(vocabs, seed=13)
        golds = sents[0].tag_ids

        def f():
            _, logits = encoders.encode_chars_token(ct, [sents[0]])
            return nn.softmax_xent_rows(logits, golds)

        assert oracles.grad_check(f, ct.parameters()) < 1e-6


class TestWordEncoder:
    def test_zero_init_absent_pretrained_gives_zero_input(self):
        sents, vocabs = make_world(["new words here"])
        _, _, wd = small_encoders(vocabs)
        ids = sents[0].word_ids
        emb = T.add(T.take_rows(wd.learned, ids),
                    T.take_rows(wd.pretrained, ids))
        assert not emb.data.any()

    def test_shapes(self):
        sents, vocabs = make_world(["the dog barks"])
        _, _, wd = small_encoders(vocabs)
        o, m, logits = encoders.encode_words(wd, [sents[0]])
        assert o.shape == (3, 12)
        assert m.shape == (3, 7)
        assert logits.shape == (3, vocabs.n_tags)

    def test_pretrained_never_gets_gradient(self):
        sents, vocabs = make_world(["the dog barks"])
        rng = np.random.default_rng(5)
        pre = rng.normal(size=(vocabs.n_words, 4))
        wd = encoders.word_encoder(small_config(word_bilstm_layers=1),
                                   vocabs.n_words, vocabs.n_tags, rng, pre)
        golds = sents[0].tag_ids
        with T.Graph() as g:
            _, _, logits = encoders.encode_words(wd, [sents[0]])
            loss = nn.softmax_xent_rows(logits, golds)
        g.backward(loss)
        assert wd.pretrained.grad is None
        assert wd.learned.grad is not None
        assert np.abs(wd.learned.grad).sum() > 0
        names = [n for n, _ in wd.parameters()]
        assert not any("pretrained" in n for n in names)

    def test_pretrained_values_flow_forward(self):
        sents, vocabs = make_world(["the dog"])
        rng = np.random.default_rng(6)
        pre = rng.normal(size=(vocabs.n_words, 4))
        config = small_config(word_bilstm_layers=1)
        wd_zero = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags,
                                        np.random.default_rng(7))
        wd_pre = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags,
                                       np.random.default_rng(7), pre)
        a = encoders.encode_words(wd_zero, [sents[0]])[2].data
        b = encoders.encode_words(wd_pre, [sents[0]])[2].data
        assert not np.array_equal(a, b)

    def test_shape_mismatch_pretrained(self):
        with pytest.raises(T.ShapeError):
            encoders.word_encoder(small_config(), 5, 3,
                                  np.random.default_rng(0), np.zeros((6, 4)))

    def test_grad_check(self):
        sents, vocabs = make_world(["ab c"])
        rng = np.random.default_rng(15)
        pre = rng.normal(size=(vocabs.n_words, 3))
        config = small_config(word_bilstm_size=4, mlp_size=5)
        wd = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags, rng,
                                   pre)
        golds = sents[0].tag_ids

        def f():
            _, _, logits = encoders.encode_words(wd, [sents[0]])
            return nn.softmax_xent_rows(logits, golds)

        assert oracles.grad_check(f, wd.parameters()) < 1e-6


class TestBatchCheck:
    """One check of a batch serves every encoder."""
    ENCODERS = {"encode_chars_sentence": 0, "encode_chars_token": 1,
                "encode_words": 2}

    @pytest.mark.parametrize("name", list(ENCODERS))
    def test_token_less_sentence_is_shape_error(self, name):
        sents, vocabs = make_world(["x y"])
        params = small_encoders(vocabs)[self.ENCODERS[name]]
        [empty] = data.parse_conllu("# a comment alone\n")
        data.assign_ids([empty], vocabs)
        with pytest.raises(T.ShapeError, match="no tokens"):
            getattr(encoders, name)(params, [sents[0], empty])

    @pytest.mark.parametrize("name", list(ENCODERS))
    def test_sentence_before_assign_ids_is_value_error(self, name):
        sents, vocabs = make_world(["x y"])
        params = small_encoders(vocabs)[self.ENCODERS[name]]
        fresh = data.parse_conllu("1\tx\t_\t_\tT0\t_\t0\t_\t_\t_\n")
        with pytest.raises(ValueError, match="assign_ids"):
            getattr(encoders, name)(params, [sents[0], *fresh])


def build_triple(vocabs, seed=21):
    rng = np.random.default_rng(seed)
    config = small_config(char_bilstm_layers=1, word_bilstm_layers=1)
    cs = encoders.char_sent_encoder(config, vocabs.n_chars, vocabs.n_tags,
                                    rng)
    wd = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags, rng)
    mp = nn.view_params(config, "meta", 7 + config.mlp_size, vocabs.n_tags,
                        rng)
    return cs, wd, mp


class TestMeta:
    def run_meta_loss(self, sents, vocabs, cs, wd, mp, detach):
        golds = sents[0].tag_ids
        for _, p in (cs.parameters() + wd.parameters()
                     + mp.parameters("meta")):
            p.grad = None
        with T.Graph() as g:
            _, m_c, _ = encoders.encode_chars_sentence(cs, [sents[0]])
            _, m_w, _ = encoders.encode_words(wd, [sents[0]])
            if detach:
                m_c, m_w = m_c.detach(), m_w.detach()
            _, logits = meta.combine(mp, m_c, m_w, [len(sents[0])])
            loss = nn.softmax_xent_rows(logits, golds)
        g.backward(loss)

    def total_grad(self, params):
        return sum(np.abs(p.grad).sum() for _, p in params
                   if p.grad is not None)

    def test_isolation_in_detached_mode(self):
        sents, vocabs = make_world(["the dog barks"])
        cs, wd, mp = build_triple(vocabs)
        self.run_meta_loss(sents, vocabs, cs, wd, mp, detach=True)
        assert self.total_grad(cs.parameters()) == 0.0
        assert self.total_grad(wd.parameters()) == 0.0
        assert self.total_grad(mp.parameters("meta")) > 0.0

    def test_gradient_reaches_encoders_when_joint(self):
        sents, vocabs = make_world(["the dog barks"])
        cs, wd, mp = build_triple(vocabs)
        self.run_meta_loss(sents, vocabs, cs, wd, mp, detach=False)
        assert self.total_grad(cs.parameters()) > 0.0
        assert self.total_grad(wd.parameters()) > 0.0

    def test_length_mismatch(self):
        mp = nn.view_params(small_config(meta_bilstm_size=4, mlp_size=3),
                            "meta", 3 + 3, 2, np.random.default_rng(0))
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((3, 3)))
        with pytest.raises(T.ShapeError):
            meta.combine(mp, a, b, [2])

    def test_single_token_sentence(self):
        sents, vocabs = make_world(["hello"])
        cs, wd, mp = build_triple(vocabs)
        _, m_c, _ = encoders.encode_chars_sentence(cs, [sents[0]])
        _, m_w, _ = encoders.encode_words(wd, [sents[0]])
        m, logits = meta.combine(mp, m_c, m_w, [1])
        assert m.shape == (1, 7)
        assert logits.shape == (1, vocabs.n_tags)

    def test_combined_width(self):
        sents, vocabs = make_world(["a bb"])
        cs, wd, mp = build_triple(vocabs)
        _, m_c, _ = encoders.encode_chars_sentence(cs, [sents[0]])
        _, m_w, _ = encoders.encode_words(wd, [sents[0]])
        cw = T.concat([m_c.detach(), m_w.detach()], axis=1)
        assert cw.shape[1] == m_c.shape[1] + m_w.shape[1]

    def test_meta_grad_check(self):
        sents, vocabs = make_world(["ab c"])
        cs, wd, mp = build_triple(vocabs, seed=33)
        golds = sents[0].tag_ids

        def f():
            _, m_c, _ = encoders.encode_chars_sentence(cs, [sents[0]])
            _, m_w, _ = encoders.encode_words(wd, [sents[0]])
            _, logits = meta.combine(mp, m_c, m_w, [len(sents[0])])
            return nn.softmax_xent_rows(logits, golds)

        assert oracles.grad_check(f, mp.parameters("meta")) < 1e-6

    def test_predict_tie_break(self):
        z = T.Tensor([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
        np.testing.assert_array_equal(nn.predict_tags(z), [0, 1])


class TestBatches:
    """A batch equals its sentences run one at a time, dropout included,
    when both draw masks from generators in the same state."""

    texts = ["the dog barks", "a", "cats chase the small dog", "ab cd"]

    def dropout_triple(self, vocabs):
        rng = np.random.default_rng(41)
        config = small_config(
            char_emb_dropout=0.1, word_emb_dropout=0.25, lstm_dropout=0.3,
            mlp_dropout=0.2, meta_bilstm_layers=2)
        cs = encoders.char_sent_encoder(config, vocabs.n_chars, vocabs.n_tags,
                                        rng)
        ct = encoders.char_token_encoder(config, vocabs.n_chars,
                                         vocabs.n_tags, rng)
        wd = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags, rng,
                                   rng.normal(size=(vocabs.n_words, 4)))
        mp = nn.view_params(config, "meta", 7 + config.mlp_size,
                            vocabs.n_tags, rng)
        return cs, ct, wd, mp

    def assert_batch_equals_singletons(self, p, encode, sents, sites):
        """``encode(p, ...)`` under masks drawn over ``sites``."""
        r_batch, r_one = np.random.default_rng(5), np.random.default_rng(5)
        [masks] = nn.draw_masks(r_batch, sents, sites)
        batched = encode(p, sents, masks)
        singles = []
        for s in sents:
            [masks] = nn.draw_masks(r_one, [s], sites)
            singles.append(encode(p, [s], masks))
        for i, out in enumerate(batched):
            want = np.concatenate([one[i].data for one in singles])
            np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        assert r_batch.random() == r_one.random()

    def test_char_sentence_encoder(self):
        sents, vocabs = make_world(self.texts)
        cs = self.dropout_triple(vocabs)[0]
        self.assert_batch_equals_singletons(
            cs, encoders.encode_chars_sentence, sents, cs.view.dropout_sites)

    def test_char_token_encoder(self):
        sents, vocabs = make_world(self.texts)
        ct = self.dropout_triple(vocabs)[1]
        self.assert_batch_equals_singletons(
            ct, encoders.encode_chars_token, sents, ct.dropout_sites)

    def test_word_encoder(self):
        sents, vocabs = make_world(self.texts)
        wd = self.dropout_triple(vocabs)[2]
        self.assert_batch_equals_singletons(
            wd, encoders.encode_words, sents, wd.view.dropout_sites)

    def test_combiner(self):
        sents, vocabs = make_world(self.texts)
        cs, _, wd, mp = self.dropout_triple(vocabs)
        _, m_c, _ = encoders.encode_chars_sentence(cs, sents)
        _, m_w, _ = encoders.encode_words(wd, sents)

        rows = np.concatenate([[0], np.cumsum(encoders.token_counts(sents))])

        def combine(p, batch, masks):
            pick = np.concatenate([np.arange(rows[k], rows[k + 1])
                                   for k, s in enumerate(sents)
                                   if any(s is b for b in batch)])
            return meta.combine(p, T.Tensor(m_c.data[pick]),
                                T.Tensor(m_w.data[pick]),
                                encoders.token_counts(batch), masks)

        self.assert_batch_equals_singletons(mp, combine, sents,
                                            mp.dropout_sites)

    def test_batch_gradients_equal_summed_singletons(self):
        sents, vocabs = make_world(self.texts)
        cs = self.dropout_triple(vocabs)[0]
        golds = np.concatenate([s.tag_ids for s in sents])

        def grads(batches):
            oracles.zero_grads(cs.parameters())
            with T.Graph() as g:
                losses = []
                start = 0
                for batch in batches:
                    _, _, logits = encoders.encode_chars_sentence(cs, batch)
                    n = logits.shape[0]
                    losses.append(oracles.mul(nn.softmax_xent_rows(
                        logits, golds[start:start + n]), T.Tensor(float(n))))
                    start += n
                loss = losses[0]
                for l in losses[1:]:
                    loss = T.add(loss, l)
            g.backward(loss)
            return {n: p.grad.copy() for n, p in cs.parameters()}

        batched = grads([sents])
        singles = grads([[s] for s in sents])
        for name in batched:
            np.testing.assert_allclose(batched[name], singles[name], rtol=0,
                                       atol=1e-12, err_msg=name)
