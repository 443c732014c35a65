"""Optimizer arithmetic, schedule locality, determinism, checkpoints."""

import numpy as np
import pytest

import oracles
from metatagger import data, encoders, meta, nn, training
from metatagger import tensor as T


class TestAdam:
    def one_param(self, value=1.0):
        p = T.Tensor(np.array(value), requires_grad=True)
        return [("w", p)], p

    def test_first_step_closed_form(self):
        params, p = self.one_param(0.5)
        opt = training.Adam(params)
        p.grad = np.array(1.0)
        opt.step()
        # bias correction makes m_hat = v_hat = 1 on step 1
        want = 0.5 - 0.002 * 1.0 / (1.0 + 1e-08)
        assert abs(p.data - want) < 1e-15
        assert opt.steps == 1
        assert p.grad is None  # dropped once applied

    def test_zero_gradient_leaves_params(self):
        params, p = self.one_param(0.7)
        opt = training.Adam(params)
        p.grad = np.array(0.0)
        opt.step()
        assert p.data == 0.7
        assert opt.steps == 1

    def test_none_gradient_skipped(self):
        params, p = self.one_param(0.7)
        opt = training.Adam(params)
        opt.step()
        assert p.data == 0.7

    def test_decay_arithmetic(self):
        opt = training.Adam([], lr=0.002, decay=0.999994)
        opt.steps = 115525
        assert abs(opt.effective_rate() - 0.001) < 1e-5

    def test_first_update_uses_full_rate(self):
        opt = training.Adam([])
        assert opt.effective_rate() == 0.002

    def test_rate_nonincreasing(self):
        params, p = self.one_param()
        opt = training.Adam(params)
        rates = []
        for _ in range(5):
            rates.append(opt.effective_rate())
            p.grad = np.array(1.0)
            opt.step()
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_nonfinite_gradient_names_param(self):
        p = T.Tensor(np.zeros(3), requires_grad=True)
        opt = training.Adam([("word.mlp.weight", p)])
        p.grad = np.array([0.0, np.nan, 0.0])
        with pytest.raises(T.NonFiniteError, match="word.mlp.weight"):
            opt.step()

    def test_moment_shapes(self):
        p = T.Tensor(np.zeros((3, 4)), requires_grad=True)
        opt = training.Adam([("p", p)])
        assert opt.m["p"].shape == (3, 4)
        assert opt.v["p"].shape == (3, 4)

    def test_descends_a_quadratic(self):
        params, p = self.one_param(3.0)
        opt = training.Adam(params, lr=0.1, decay=1.0)
        for _ in range(500):
            p.grad = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data) < 0.05


def unblocked_adam_step(opt):
    """Adam.step as one whole-array formula per parameter: the oracle the
    blocked, in-place step must match bit for bit."""
    rate = opt.effective_rate()
    opt.steps += 1
    t = opt.steps
    b1, b2 = opt.beta1, opt.beta2
    for name, p in opt.params:
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise T.NonFiniteError(f"non-finite gradient in {name}")
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data -= rate * m_hat / (np.sqrt(v_hat) + opt.epsilon)


BLOCK = training._ADAM_BLOCK


class TestBlockedAdam:
    SHAPES = {"scalar": (), "small": (3, 5), "two_blocks": (2, BLOCK),
              "ragged": (2 * BLOCK + 7,)}

    def params(self, seed=0):
        g = np.random.default_rng(seed)
        return [(name, T.Tensor(g.normal(size=shape), requires_grad=True))
                for name, shape in self.SHAPES.items()]

    def test_matches_the_unblocked_formula_bitwise(self):
        blocked, plain = self.params(), self.params()
        opts = (training.Adam(blocked, lr=0.01, decay=0.99),
                training.Adam(plain, lr=0.01, decay=0.99))
        g = np.random.default_rng(1)
        for step in range(6):
            for (name, a), (_, b) in zip(blocked, plain):
                # scales from tiny to large, exact zeros, one skipped param
                grad = np.where(g.random(a.shape) < 0.1, 0.0,
                                g.normal(size=a.shape)
                                * 10.0 ** g.integers(-8, 4))
                skip = name == "small" and step == 2
                a.grad = None if skip else grad
                b.grad = None if skip else grad.copy()
            opts[0].step()
            unblocked_adam_step(opts[1])
            for (name, a), (_, b) in zip(blocked, plain):
                assert np.array_equal(a.data, b.data), name
                assert np.array_equal(opts[0].m[name], opts[1].m[name]), name
                assert np.array_equal(opts[0].v[name], opts[1].v[name]), name
        assert opts[0].steps == opts[1].steps == 6

    def test_nan_in_the_last_block_names_the_parameter(self):
        params = self.params()
        opt = training.Adam(params)
        for name, p in params:
            p.grad = np.zeros(p.shape)
        grad = dict(params)["ragged"].grad
        grad[-1] = np.nan
        with pytest.raises(T.NonFiniteError, match="ragged"):
            opt.step()


class TestConfig:
    def test_reference_defaults(self):
        c = training.TrainConfig()
        assert c.char_bilstm_layers == 3
        assert c.word_bilstm_layers == 3
        assert c.meta_bilstm_layers == 1
        assert (c.char_bilstm_size, c.word_bilstm_size,
                c.meta_bilstm_size) == (400, 400, 400)
        assert c.lstm_dropout == 0.33
        assert c.mlp_dropout == 0.33
        assert c.word_emb_dropout == 0.33
        assert c.char_emb_dropout == 0.05
        assert c.mlp_activation == "elu"
        assert c.word_emb_init == "zero"
        assert c.char_emb_init == "gaussian"
        assert c.mlp_init == "gaussian"
        assert c.optimizer == "adam"
        assert c.loss == "cross_entropy"
        assert c.learning_rate == 0.002
        assert c.decay == 0.999994
        assert c.adam_epsilon == 1e-08
        assert c.beta1 == 0.9
        assert c.beta2 == 0.999

    def test_gather_parsing(self):
        c = training.TrainConfig(gather="B_last, F_1st")
        assert c.gather_parts() == ("F_1st", "B_last")

    def test_validation(self):
        with pytest.raises(ValueError):
            training.TrainConfig(task="pos").validate()
        with pytest.raises(ValueError):
            training.TrainConfig(optimization="both").validate()
        with pytest.raises(ValueError):
            training.TrainConfig(gather="F_mid").validate()

    def test_from_dict_coercion(self):
        c = training.config_from_dict({
            "seed": "7", "learning_rate": "0.01",
            "lowercase_pretrained_fallback": "false", "task": "feats"})
        assert c.seed == 7
        assert c.learning_rate == 0.01
        assert c.lowercase_pretrained_fallback is False
        assert c.task == "feats"

    @pytest.mark.parametrize("key, raw", [
        ("seed", [1]), ("seed", True), ("seed", 1.0), ("seed", None),
        ("lstm_dropout", "x"), ("lstm_dropout", False),
        ("lowercase_pretrained_fallback", 1), ("task", 3),
    ])
    def test_from_dict_rejects_a_value_of_the_wrong_type(self, key, raw):
        with pytest.raises(ValueError, match=f"'{key}'"):
            training.config_from_dict({key: raw})

    def test_from_dict_keeps_values_of_the_field_type(self):
        c = training.config_from_dict({
            "seed": 3, "lstm_dropout": 0, "learning_rate": 0.5,
            "lowercase_pretrained_fallback": False, "task": "upos"})
        assert (c.seed, c.lstm_dropout, c.learning_rate) == (3, 0, 0.5)
        assert c.lowercase_pretrained_fallback is False and c.task == "upos"

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="nope"):
            training.config_from_dict({"nope": "1"})

    def test_print_config_lists_every_field(self):
        text = training.print_config(training.TrainConfig())
        import dataclasses
        for f in dataclasses.fields(training.TrainConfig):
            assert f"{f.name} = " in text


def mini_corpus(n_sentences, seed=0):
    """Tiny deterministic corpus where the tag is decided by the first
    letter: x* -> TX, y* -> TY."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_sentences):
        length = int(rng.integers(2, 5))
        lines = []
        for i in range(length):
            first = "x" if rng.random() < 0.5 else "y"
            rest = "".join(rng.choice(list("abc"), size=2))
            tag = "TX" if first == "x" else "TY"
            lines.append(f"{i + 1}\t{first}{rest}\t_\t_\t{tag}\t_\t0\t_\t_\t_")
        blocks.append("\n".join(lines))
    return data.parse_conllu("\n\n".join(blocks) + "\n")


def small_config(**over):
    base = dict(seed=3, max_epochs=2, batch_size=4, char_bilstm_layers=1,
                word_bilstm_layers=1, meta_bilstm_layers=1,
                char_bilstm_size=8, word_bilstm_size=8, meta_bilstm_size=8,
                mlp_size=8, char_emb_dim=6, word_emb_dim=6,
                lstm_dropout=0.1, mlp_dropout=0.1, word_emb_dropout=0.1,
                char_emb_dropout=0.05, learning_rate=0.01,
                mlp_init="scaled", char_emb_init="scaled")
    base.update(over)
    return training.TrainConfig(**base)


def three_adams(model, **settings):
    """One Adam per model, char, word and meta, as ``train_model`` makes
    them."""
    return [training.Adam(ps, **settings) for ps in (
        model.char_parameters(), model.word_parameters(),
        model.meta_parameters())]


class TestScheduleLocality:
    def test_one_batch_moves_each_model_by_its_own_loss(self):
        """One batch of ``train_epoch_synchronous``: each optimizer moves
        only its own model, and the gradient it steps on, taken from the
        three summed losses, is bitwise the gradient of its view's loss
        alone under the same dropout masks."""
        sents = mini_corpus(6)
        config = small_config()
        model, tr, _ = training.prepare(config, sents, sents)
        views = {"char": model.char_parameters(),
                 "word": model.word_parameters(),
                 "meta": model.meta_parameters()}
        golds = np.concatenate([training._gold_ids(model.vocabs, s, "xpos")
                                for s in tr])
        weights = np.concatenate([np.full(len(s), 1.0 / (len(s) * len(tr)))
                                  for s in tr])
        masks = training._draw_masks(model, tr, np.random.default_rng(5))
        own = {}
        for k, view in enumerate(training._HEADS):
            oracles.zero_grads(model.all_parameters())
            with T.Graph() as g:
                logits = training.forward(model, tr, training._HEADS, masks)
                loss = nn.softmax_xent_rows(logits[k], golds, weights)
            g.backward(loss)
            own[view] = {n: p.grad.copy() for n, p in views[view]}
        oracles.zero_grads(model.all_parameters())

        stepped, moved = {}, {}

        class Recording(training.Adam):
            def __init__(self, view):
                super().__init__(views[view])
                self.view = view

            def step(self):
                before = {n: a.copy() for n, a in model.array_manifest()}
                stepped[self.view] = {n: p.grad.copy()
                                      for n, p in self.params}
                super().step()
                moved[self.view] = {n for n, a in model.array_manifest()
                                    if not np.array_equal(before[n], a)}

        opts = [Recording(view) for view in training._HEADS]
        training.train_epoch_synchronous(model, *opts, tr,
                                         np.arange(len(tr)), len(tr),
                                         np.random.default_rng(5))
        for view, params in views.items():
            names = {n for n, _ in params}
            assert moved[view] and moved[view] <= names, view
            assert stepped[view].keys() == own[view].keys()
            for name, grad in stepped[view].items():
                assert np.array_equal(grad, own[view][name]), name

    def test_joint_three_adams_step_as_one_adam(self):
        """Joint mode through the one loop: the three optimizers, each over
        its own model, leave every parameter bitwise where one Adam over
        all of them, stepped on the summed loss, leaves it."""
        config = small_config(optimization="joint")  # 6 sentences: 2 batches
        model, tr, _ = training.prepare(config, mini_corpus(6),
                                        mini_corpus(6))
        oracle, _, _ = training.prepare(config, mini_corpus(6),
                                        mini_corpus(6))
        order = np.array([4, 1, 5, 0, 3, 2])
        initial = [p.data.copy() for _, p in model.all_parameters()]
        training.train_epoch_synchronous(
            model, *three_adams(model, lr=config.learning_rate), tr, order,
            config.batch_size, np.random.default_rng(7))
        oracles.synchronous_epoch(
            oracle, [training.Adam(oracle.all_parameters(),
                                   lr=config.learning_rate)],
            tr, order, config.batch_size, np.random.default_rng(7))
        for (name, got), (_, want) in zip(model.all_parameters(),
                                          oracle.all_parameters()):
            assert np.array_equal(got.data, want.data), name
        assert any(not np.array_equal(a, p.data)
                   for a, (_, p) in zip(initial, model.all_parameters()))

    @pytest.mark.parametrize("char_encoder", ["sentence", "token"])
    @pytest.mark.parametrize("optimization", ["separate", "joint"])
    def test_steps_inside_the_sweep_match_steps_after_it(
            self, optimization, char_encoder):
        """Two batches of ``train_epoch_synchronous``, whose optimizers
        step inside the backward sweep, leave every parameter and every
        Adam moment bitwise where stepping after the whole backward
        (``oracles.synchronous_epoch``) leaves them."""
        config = small_config(optimization=optimization,
                              char_encoder=char_encoder)

        def run(in_sweep):
            model, tr, _ = training.prepare(config, mini_corpus(6),
                                            mini_corpus(6))
            opts = three_adams(model, lr=config.learning_rate)
            args = (tr, np.array([4, 1, 5, 0, 3, 2]), config.batch_size,
                    np.random.default_rng(7))
            if in_sweep:
                losses = training.train_epoch_synchronous(model, *opts,
                                                          *args)
            else:
                losses = oracles.synchronous_epoch(model, opts, *args)
            return model, opts, losses

        (model, opts, losses), (want, want_opts, want_losses) = \
            run(True), run(False)
        assert losses == want_losses
        for (name, got), (_, ref) in zip(model.all_parameters(),
                                         want.all_parameters()):
            assert np.array_equal(got.data, ref.data), name
        for opt, ref in zip(opts, want_opts):
            assert opt.steps == ref.steps == 2
            for name in opt.m:
                assert np.array_equal(opt.m[name], ref.m[name]), name
                assert np.array_equal(opt.v[name], ref.v[name]), name

    @pytest.mark.parametrize("optimization", ["separate", "joint"])
    def test_a_view_is_stepped_and_freed_before_the_next_view_sweeps(
            self, monkeypatch, optimization):
        """The sweep runs the meta model's nodes, then the character
        model's, then the word model's. When a node of one model runs its
        backward, every gradient of the models swept before it is already
        applied and gone."""
        model, tr, _ = training.prepare(
            small_config(optimization=optimization), mini_corpus(6),
            mini_corpus(6))
        views = {"meta": model.meta_parameters(),
                 "char": model.char_parameters(),
                 "word": model.word_parameters()}
        owner = {id(p): view for view, ps in views.items() for _, p in ps}
        seen = []  # (view of the node, views holding a gradient)

        def spy(view, fn):
            def bwd(g):
                seen.append((view, [v for v, ps in views.items()
                                    if any(p.grad is not None
                                           for _, p in ps)]))
                return fn(g)
            return bwd

        backward = T.Graph.backward

        def spied(graph, loss):
            for node in graph.nodes:
                found = {owner[id(t)] for t in node.inputs if id(t) in owner}
                if found:
                    [view] = found
                    node.backward_fn = spy(view, node.backward_fn)
            backward(graph, loss)

        monkeypatch.setattr(T.Graph, "backward", spied)
        training.train_epoch_synchronous(
            model, *three_adams(model), tr, np.arange(len(tr)), 3,
            np.random.default_rng(0))
        order = list(views)
        for view, live in seen:
            swept = order[:order.index(view)]
            assert not set(live) & set(swept), (view, live)
        assert {view for view, _ in seen} == set(order)

    def test_zero_learning_rate_is_side_effect_free(self):
        sents = mini_corpus(5)
        config = small_config(learning_rate=0.0, max_epochs=1)
        model, tr, dv = training.prepare(config, sents, sents)
        before = {n: a.copy() for n, a in model.array_manifest()}
        training.train_model(model, tr, dv)
        for name, arr in model.array_manifest():
            np.testing.assert_array_equal(before[name], arr, err_msg=name)


class TestTrainLoop:
    def test_max_epochs_zero_returns_initialized_model(self):
        sents = mini_corpus(5)
        config = small_config(max_epochs=0)
        model, tr, dv = training.prepare(config, sents, sents)
        want = {n: a.copy() for n, a in model.array_manifest()}
        init_acc = training.evaluate(model, dv)
        ckpt = training.train_model(model, tr, dv)
        assert ckpt.best_epoch == 0
        assert ckpt.best_score == init_acc
        for name, arr in ckpt.arrays.items():
            np.testing.assert_array_equal(arr, want[name], err_msg=name)

    def test_holds_no_copy_of_the_model_between_epochs(self, monkeypatch,
                                                        tmp_path):
        """Epochs 1 and 2 improve on the dev set, 3 and 4 do not. From the
        start of the run to each epoch, from each epoch to the next and
        from the last one to the end, the traced peak beyond the Adam
        moments stays under half a copy of the model's arrays: a better
        epoch goes to the checkpoint file, not to a second copy in memory,
        and the moments are freed before the file is read back. The file
        is byte for byte that of a run stopped at its best epoch."""
        import dataclasses
        import tracemalloc
        config = small_config(seed=5, max_epochs=4, char_bilstm_size=128,
                              word_bilstm_size=128, meta_bilstm_size=128,
                              mlp_size=128)

        def prepared(max_epochs):
            return training.prepare(
                dataclasses.replace(config, max_epochs=max_epochs),
                mini_corpus(8), mini_corpus(6, seed=1))

        model, tr, dv = prepared(4)
        copy_bytes = sum(a.nbytes for _, a in model.array_manifest())
        moment_bytes = 2 * sum(p.data.nbytes
                               for _, p in model.all_parameters())
        epoch = training.train_epoch_synchronous
        between = []

        def measured(*args):
            between.append(tracemalloc.get_traced_memory()[1])
            out = epoch(*args)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(training, "train_epoch_synchronous", measured)
        path = tmp_path / "a.ckpt"
        tracemalloc.start()
        try:
            ckpt = training.train_model(model, tr, dv, path=str(path))
            between.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert ckpt.best_epoch == 2 and len(between) == 5
        assert max(between) - moment_bytes < 0.5 * copy_bytes, \
            [(b - moment_bytes) / copy_bytes for b in between]
        stopped = training.train_model(*prepared(2))
        training.checkpoint_save(str(tmp_path / "b.ckpt"), dataclasses.replace(
            stopped, config=ckpt.config))
        assert path.read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_a_killed_run_keeps_its_best_checkpoint(self, monkeypatch,
                                                    tmp_path, capsys):
        """Epoch 2 improves on the dev set, epoch 3 does not. A run that
        dies in epoch 4 leaves at its path the checkpoint of epoch 2, byte
        for byte that of a run stopped there, and ``metatagger tag`` reads
        it."""
        import dataclasses
        from metatagger import cli
        config = small_config(seed=1, learning_rate=0.05, max_epochs=6)
        dev = mini_corpus(6, seed=1)
        epoch = training.train_epoch_synchronous
        epochs = []

        def dies_in_epoch_4(*args):
            epochs.append(len(epochs) + 1)
            if len(epochs) == 4:
                raise RuntimeError("killed")
            return epoch(*args)

        monkeypatch.setattr(training, "train_epoch_synchronous",
                            dies_in_epoch_4)
        path = tmp_path / "killed.ckpt"
        with pytest.raises(RuntimeError, match="killed"):
            training.train(config, mini_corpus(8), dev, path=str(path))
        monkeypatch.undo()
        kept = training.checkpoint_load(str(path))
        assert kept.best_epoch == 2
        stopped = training.train(
            dataclasses.replace(config, max_epochs=kept.best_epoch),
            mini_corpus(8), dev)
        training.checkpoint_save(str(tmp_path / "stopped.ckpt"),
                                 dataclasses.replace(stopped, config=config))
        assert path.read_bytes() == (tmp_path / "stopped.ckpt").read_bytes()
        corpus = tmp_path / "dev.conllu"
        corpus.write_text(data.write_conllu(dev))
        assert cli.main(["tag", "--checkpoint", str(path), "--input",
                         str(corpus), "--output",
                         str(tmp_path / "tagged.conllu")]) == 0
        assert capsys.readouterr().err.startswith("tag: ")

    @pytest.mark.parametrize("dies", [False, True], ids=["ends", "dies"])
    def test_a_run_without_a_path_leaves_no_file(self, monkeypatch, tmp_path,
                                                 dies):
        """Without a path the run keeps its best so far in one temporary
        directory, which is gone whether the run ends or dies."""
        import tempfile
        epoch = training.train_epoch_synchronous
        epochs = []

        def dies_in_epoch_2(*args):
            [tmp] = tmp_path.iterdir()
            assert [f.name for f in tmp.iterdir()] == ["best.ckpt"]
            if dies and epochs:
                raise RuntimeError("killed")
            epochs.append(args)
            return epoch(*args)

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(training, "train_epoch_synchronous",
                            dies_in_epoch_2)
        sents = mini_corpus(5)
        model, tr, dv = training.prepare(small_config(max_epochs=3), sents,
                                         sents)
        if dies:
            with pytest.raises(RuntimeError, match="killed"):
                training.train_model(model, tr, dv)
        else:
            assert training.train_model(model, tr, dv).best_epoch >= 0
        assert list(tmp_path.iterdir()) == []

    def test_determinism_same_seed(self):
        def run():
            sents = mini_corpus(8)
            lines = []
            ckpt = training.train(small_config(max_epochs=2), sents,
                                  mini_corpus(3, seed=9), log=lines.append)
            return lines, ckpt

        lines_a, ckpt_a = run()
        lines_b, ckpt_b = run()
        assert lines_a == lines_b
        assert set(ckpt_a.arrays) == set(ckpt_b.arrays)
        for name in ckpt_a.arrays:
            np.testing.assert_array_equal(ckpt_a.arrays[name],
                                          ckpt_b.arrays[name], err_msg=name)

    def test_different_seed_differs(self):
        sents = mini_corpus(8)
        a = training.train(small_config(seed=1), sents, mini_corpus(3, seed=9))
        b = training.train(small_config(seed=2), sents, mini_corpus(3, seed=9))
        assert any(not np.array_equal(a.arrays[n], b.arrays[n])
                   for n in a.arrays)

    def test_log_format(self):
        sents = mini_corpus(5)
        lines = []
        training.train(small_config(max_epochs=1), sents, sents,
                       log=lines.append)
        assert lines[0].startswith("epoch=0 dev_acc=0.")
        assert lines[1].startswith("epoch=1 char_loss=")
        for key in ("char_loss=", "word_loss=", "meta_loss=", "dev_acc="):
            assert key in lines[1]

    def test_patience_stops_early(self):
        sents = mini_corpus(5)
        lines = []
        config = small_config(learning_rate=0.0, max_epochs=50, patience=2)
        training.train(config, sents, sents, log=lines.append)
        assert any("stopped early" in l for l in lines)
        # epoch 0 + 2 stagnant epochs + the stop notice
        assert len(lines) == 4

    def test_learns_the_toy_pattern(self):
        sents = mini_corpus(16, seed=4)
        config = small_config(max_epochs=25, patience=0, batch_size=4)
        model, tr, dv = training.prepare(config, sents, sents)
        ckpt = training.train_model(model, tr, dv)
        assert ckpt.best_score >= 0.9

    def test_joint_mode_moves_encoder_params(self):
        """Only in joint mode does the meta loss move the encoders: from
        the same start, a joint epoch leaves the character encoder
        elsewhere than a separate one."""
        sents = mini_corpus(6)
        after = {}
        for mode in ("separate", "joint"):
            config = small_config(optimization=mode)
            model, tr, _ = training.prepare(config, sents, sents)
            training.train_epoch_synchronous(
                model, *three_adams(model), tr, np.arange(len(tr)),
                config.batch_size, np.random.default_rng(0))
            after[mode] = model.char_parameters()
        assert any(not np.array_equal(a.data, b.data) for (_, a), (_, b)
                   in zip(after["separate"], after["joint"]))

    def test_token_char_encoder_variant_trains(self):
        sents = mini_corpus(6)
        config = small_config(char_encoder="token", max_epochs=1)
        ckpt = training.train(config, sents, sents)
        assert "char_token.attn_vec" in ckpt.arrays

    def test_unseen_dev_tags_do_not_crash(self):
        tr = mini_corpus(5)
        dev = data.parse_conllu("1\tzz\t_\t_\tNEVER\t_\t0\t_\t_\t_\n")
        ckpt = training.train(small_config(max_epochs=1), tr, dev)
        assert 0.0 <= ckpt.best_score <= 1.0


# the head sets ``forward`` serves, (heads, detach): one head alone, all
# three for separate training and all three for joint training
PASSES = {"char": (("char",), True), "word": (("word",), True),
          "meta": (("meta",), True), "separate": (training._HEADS, True),
          "joint": (training._HEADS, False)}


class TestBatchLoss:
    # head -> the indices into ``train_epoch_synchronous``'s losses checked,
    # and the optimization schedule
    LOSSES = {"char": ((0,), "separate"), "word": ((1,), "separate"),
              "meta": ((2,), "separate"), "joint": ((0, 1, 2), "joint")}

    @pytest.mark.parametrize("head", list(LOSSES))
    def test_batch_loss_is_mean_of_sentence_means(self, head):
        indices, mode = self.LOSSES[head]
        sents = mini_corpus(5)
        model, tr, _ = training.prepare(small_config(optimization=mode),
                                        sents, sents)
        got = training.train_epoch_synchronous(
            model, *three_adams(model, lr=0.0), tr, np.arange(len(tr)),
            len(tr), np.random.default_rng(3))
        rng = np.random.default_rng(3)
        per_sentence = []
        for s in tr:
            golds = training._gold_ids(model.vocabs, s, "xpos")
            masks = training._draw_masks(model, [s], rng)
            per_sentence.append([
                nn.softmax_xent_rows(logits, golds).item()
                for logits in training.forward(model, [s], training._HEADS,
                                               masks, mode == "separate")])
        for index in indices:
            want = np.mean([losses[index] for losses in per_sentence])
            assert abs(got[index] - want) < 1e-12


class TestForward:
    """``forward`` runs only the encoders a head needs. Over the head sets
    training runs, and for one encoder's head alone, it tapes only ops the
    loss's gradient reaches."""

    @pytest.mark.parametrize("char_encoder", ["sentence", "token"])
    @pytest.mark.parametrize("head", [h for h in PASSES if h != "meta"])
    def test_every_recorded_node_gets_a_gradient(self, head, char_encoder):
        heads, detach = PASSES[head]
        sents = mini_corpus(4)
        model, tr, _ = training.prepare(
            small_config(char_encoder=char_encoder), sents, sents)
        golds = np.concatenate([training._gold_ids(model.vocabs, s, "xpos")
                                for s in tr])
        masks = training._draw_masks(model, tr, np.random.default_rng(0))
        oracles.zero_grads(model.all_parameters())
        with T.Graph() as g:
            losses = [nn.softmax_xent_rows(logits, golds) for logits in
                      training.forward(model, tr, heads, masks, detach)]
            loss = losses[0]
            for l in losses[1:]:
                loss = T.add(loss, l)
        g.backward(loss)
        assert g.nodes
        idle = [node.op for node in g.nodes if node.output.grad is None]
        assert not idle, f"{head}: taped ops without a gradient: {idle}"

    RUNS = {"char": ["encode_chars_sentence"], "word": ["encode_words"],
            "meta": ["combine", "encode_chars_sentence", "encode_words"]}
    RUNS["separate"] = RUNS["joint"] = RUNS["meta"]

    @pytest.mark.parametrize("head", list(PASSES))
    def test_a_head_runs_only_what_it_needs(self, monkeypatch, head):
        heads, detach = PASSES[head]
        sents = mini_corpus(3)
        model, tr, _ = training.prepare(small_config(), sents, sents)
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("encode_chars_sentence", "encode_chars_token",
                     "encode_words"):
            counted(encoders, name)
        counted(meta, "combine")
        logits = training.forward(model, tr, heads, detach=detach)
        assert len(logits) == len(heads)
        assert sorted(calls) == self.RUNS[head]


class TestCheckpoint:
    def trained(self, tmp_path):
        sents = mini_corpus(6)
        config = small_config(max_epochs=1)
        model, tr, dv = training.prepare(config, sents, sents)
        ckpt = training.train_model(model, tr, dv)
        path = tmp_path / "model.ckpt"
        training.checkpoint_save(path, ckpt)
        return model, ckpt, path, dv

    def test_round_trip_bit_identical(self, tmp_path):
        _, ckpt, path, _ = self.trained(tmp_path)
        loaded = training.checkpoint_load(path)
        assert set(loaded.arrays) == set(ckpt.arrays)
        for name in ckpt.arrays:
            np.testing.assert_array_equal(loaded.arrays[name],
                                          ckpt.arrays[name], err_msg=name)
        assert loaded.best_score == ckpt.best_score
        assert loaded.best_epoch == ckpt.best_epoch
        assert loaded.config == ckpt.config
        assert loaded.vocabs.tags == ckpt.vocabs.tags

    def test_rebuilt_model_tags_identically(self, tmp_path):
        model, _, path, dv = self.trained(tmp_path)
        rebuilt = training.checkpoint_load(path).rebuild()
        want = training.tag_corpus(model, dv)
        got = training.tag_corpus(rebuilt, dv)
        assert want == got

    def test_rebuilt_model_wraps_the_saved_arrays(self, tmp_path):
        _, _, path, _ = self.trained(tmp_path)
        loaded = training.checkpoint_load(path)
        rebuilt = loaded.rebuild()
        for name, p in rebuilt.all_parameters():
            assert p.data is loaded.arrays[name], name
        assert rebuilt.word.pretrained.data is loaded.arrays["word.pretrained"]

    def test_rebuild_draws_nothing(self, tmp_path, monkeypatch):
        _, _, path, dv = self.trained(tmp_path)
        loaded = training.checkpoint_load(path)

        def no_generator(seed):
            raise AssertionError("rebuild made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        training.tag_corpus(loaded.rebuild(), dv)

    @pytest.mark.parametrize("change, message", [
        (lambda a: a.pop("meta.classifier.bias"),
         "checkpoint is missing array 'meta.classifier.bias'"),
        (lambda a: a.update({"meta.classifier.bias": np.zeros(99)}),
         r"checkpoint array 'meta.classifier.bias' has shape \(99,\)"),
        (lambda a: a.update({"meta.extra": np.zeros(3)}),
         "checkpoint holds arrays the model does not use: 'meta.extra'"),
    ], ids=["missing", "shape", "unused"])
    def test_rebuild_rejects_arrays_that_do_not_fit(self, tmp_path, change,
                                                    message):
        _, ckpt, _, _ = self.trained(tmp_path)
        change(ckpt.arrays)
        with pytest.raises(ValueError, match=message):
            ckpt.rebuild()

    def test_save_is_deterministic(self, tmp_path):
        _, ckpt, path, _ = self.trained(tmp_path)
        other = tmp_path / "again.ckpt"
        training.checkpoint_save(other, ckpt)
        assert path.read_bytes() == other.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, _, path, _ = self.trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(ValueError, match="truncated"):
            training.checkpoint_load(path)

    def test_huge_shape_is_truncated_before_allocation(self, tmp_path):
        import json
        _, _, path, _ = self.trained(tmp_path)
        head, _, body = path.read_bytes().partition(b"\n")
        manifest = json.loads(head)
        [entry] = [e for e in manifest["arrays"]
                   if e["name"] == "meta.classifier.bias"]
        entry["shape"] = [2 ** 40]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="truncated checkpoint "
                           r"\(array 'meta.classifier.bias' incomplete\)"):
            training.checkpoint_load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, path, _ = self.trained(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="trailing bytes"):
            training.checkpoint_load(path)

    def test_wrong_version_rejected(self, tmp_path):
        _, ckpt, path, _ = self.trained(tmp_path)
        import json
        blob = path.read_bytes()
        head, _, body = blob.partition(b"\n")
        manifest = json.loads(head)
        manifest["version"] = 99
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="version"):
            training.checkpoint_load(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"{\"format\":\"something-else\"}\nxxxx")
        with pytest.raises(ValueError):
            training.checkpoint_load(p)
        p.write_bytes(b"no newline at all")
        with pytest.raises(ValueError):
            training.checkpoint_load(p)


def saved_lstm(prefix, n_in, hidden):
    """The five saved arrays of one LSTM direction, in order."""
    return [(f"{prefix}.w_x", (n_in, 4 * hidden)),
            (f"{prefix}.w_h", (hidden, 4 * hidden)),
            (f"{prefix}.bias", (4 * hidden,)), (f"{prefix}.h0", (hidden,)),
            (f"{prefix}.c0", (hidden,))]


def saved_bilstm(prefix, layer_inputs, hidden):
    """A saved stack: per layer, the forward then the backward direction."""
    return [entry for j, n_in in enumerate(layer_inputs)
            for side in ("fwd", "bwd")
            for entry in saved_lstm(f"{prefix}.layer{j}.{side}", n_in, hidden)]


def saved_word_and_meta(rep):
    """The word and meta arrays of a model of ``TestArrayTable.CONFIG``
    whose character output of ``rep`` columns reaches the meta stack."""
    return ([("word.learned", (14, 6))]
            + saved_bilstm("word.stack", [6, 10], 5)
            + [("word.mlp.weight", (10, 3)), ("word.mlp.bias", (3,)),
               ("word.classifier.weight", (3, 2)),
               ("word.classifier.bias", (2,))]
            + saved_bilstm("meta.stack", [rep + 3], 7)
            + [("meta.mlp.weight", (14, 3)), ("meta.mlp.bias", (3,)),
               ("meta.classifier.weight", (3, 2)),
               ("meta.classifier.bias", (2,))])


class TestArrayTable:
    """A checkpoint loads only into a model whose array names, order and
    shapes match the saved ones, so they are pinned here."""
    CONFIG = dict(char_bilstm_layers=2, word_bilstm_layers=2,
                  char_bilstm_size=4, word_bilstm_size=5, meta_bilstm_size=7,
                  mlp_size=3, gather="F_1st,B_last")
    TABLES = {
        "sentence": ([("char_sent.char_table", (7, 6))]
                     + saved_bilstm("char_sent.stack", [6, 8], 4)
                     + [("char_sent.mlp.weight", (8, 3)),
                        ("char_sent.mlp.bias", (3,)),
                        ("char_sent.classifier.weight", (3, 2)),
                        ("char_sent.classifier.bias", (2,))]
                     + saved_word_and_meta(3)),
        "token": ([("char_token.char_table", (7, 6))]
                  + saved_lstm("char_token.lstm", 6, 4)
                  + [("char_token.attn_vec", (4,)),
                     ("char_token.classifier.weight", (4, 2)),
                     ("char_token.classifier.bias", (2,))]
                  + saved_word_and_meta(4)),
    }

    @pytest.mark.parametrize("char_encoder", ["sentence", "token"])
    def test_names_order_and_shapes(self, char_encoder):
        config = small_config(char_encoder=char_encoder, **self.CONFIG)
        model, _, _ = training.prepare(config, mini_corpus(6), mini_corpus(2))
        want = self.TABLES[char_encoder]
        got = [(name, a.shape) for name, a in model.array_manifest()]
        assert got == want + [("word.pretrained", (14, 6))]
        assert [(name, p.shape) for name, p in model.all_parameters()] == want


class TestHeads:
    def test_all_three_heads_evaluable(self):
        sents = mini_corpus(6)
        model, tr, dv = training.prepare(small_config(), sents, sents)
        for head in ("char", "word", "meta"):
            acc = training.evaluate(model, dv, head=head)
            assert 0.0 <= acc <= 1.0
