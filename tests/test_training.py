"""Optimizer arithmetic, schedule locality, determinism, checkpoints."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metatagger import data, encoders, evaluation, meta, nn, training
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


BLOCK = training._ADAM_BLOCK


class TestBlockedAdam:
    SHAPES = {"scalar": (), "small": (3, 5), "two_blocks": (2, BLOCK),
              "ragged": (2 * BLOCK + 7,)}
    # the element midpoint of the blocks falls inside "big"
    MID_SHAPES = {"head": (7,), "big": (3 * BLOCK + 5,), "mid": (4, 3),
                  "tail": (11,)}

    def params(self, seed=0, shapes=SHAPES):
        g = np.random.default_rng(seed)
        return [(name, T.Tensor(g.normal(size=shape), requires_grad=True))
                for name, shape in shapes.items()]

    def assert_matches_unblocked(self, shapes, skipped, before_step=None):
        """Six steps of Adam.step and of the whole-array formula on
        ``shapes`` agree bitwise; ``skipped`` has no gradient at step 2.
        ``before_step(opt)``, if given, runs before each Adam.step."""
        blocked, plain = self.params(shapes=shapes), self.params(shapes=shapes)
        opts = (training.Adam(blocked, lr=0.01, decay=0.99),
                training.Adam(plain, lr=0.01, decay=0.99))
        g = np.random.default_rng(1)
        for step in range(6):
            for (name, a), (_, b) in zip(blocked, plain):
                # scales from tiny to large, exact zeros, one skipped param
                grad = np.where(g.random(a.shape) < 0.1, 0.0,
                                g.normal(size=a.shape)
                                * 10.0 ** g.integers(-8, 4))
                skip = name == skipped and step == 2
                a.grad = None if skip else grad
                b.grad = None if skip else grad.copy()
            if before_step is not None:
                before_step(opts[0])
            opts[0].step()
            oracles.unblocked_adam_step(opts[1])
            for (name, a), (_, b) in zip(blocked, plain):
                assert a.grad is None
                assert np.array_equal(a.data, b.data), name
                assert np.array_equal(opts[0].m[name], opts[1].m[name]), name
                assert np.array_equal(opts[0].v[name], opts[1].v[name]), name
        assert opts[0].steps == opts[1].steps == 6

    @staticmethod
    def submissions(monkeypatch) -> list:
        """The calls handed to ``nn``'s worker from now on."""
        submitted, real_submit = [], nn._WORKER.submit

        def submit(*args):
            submitted.append(args)
            return real_submit(*args)
        monkeypatch.setattr(nn._WORKER, "submit", submit)
        return submitted

    def test_matches_the_unblocked_formula_bitwise(self):
        self.assert_matches_unblocked(self.SHAPES, "small")

    def test_folds_then_a_step_match_the_unblocked_formula_bitwise(self):
        """Each parameter but "ragged" is folded, in reverse order, before
        the step, which folds "ragged" itself; "small" has no gradient at
        step 2. The folds move no parameter."""
        def fold(opt):
            before = [p.data.copy() for _, p in opt.params]
            for i in reversed(range(len(opt.params))):
                name, p = opt.params[i]
                if name != "ragged":
                    opt.fold(i)
                    assert p.grad is None
            for (name, p), was in zip(opt.params, before):
                assert np.array_equal(p.data, was), name
        self.assert_matches_unblocked(self.SHAPES, "small", fold)

    def test_split_inside_one_parameter_matches_bitwise(self, monkeypatch):
        submitted = self.submissions(monkeypatch)
        self.assert_matches_unblocked(self.MID_SHAPES, "head")
        # every step ran half of its fold of "big", and half of the
        # update of all four, on the worker
        assert len(submitted) == 12

    def test_a_step_under_two_blocks_stays_on_this_thread(self,
                                                          monkeypatch):
        def submit(*args):
            raise AssertionError("handed to the worker")
        monkeypatch.setattr(nn._WORKER, "submit", submit)
        self.assert_matches_unblocked(
            {"a": (BLOCK,), "b": (BLOCK - 2,), "c": ()}, "c")

    def test_nan_in_the_last_block_names_the_parameter(self):
        params = self.params()
        opt = training.Adam(params)
        for name, p in params:
            p.grad = np.zeros(p.shape)
        grad = dict(params)["ragged"].grad
        grad[-1] = np.nan
        with pytest.raises(T.NonFiniteError, match="ragged"):
            opt.step()

    @pytest.mark.parametrize("size, submits", [(2 * BLOCK, 1),
                                                (2 * BLOCK - 1, 0)])
    def test_a_fold_of_two_blocks_runs_half_on_the_worker(
            self, monkeypatch, size, submits):
        submitted = self.submissions(monkeypatch)
        p = T.Tensor(np.zeros(size), requires_grad=True)
        opt = training.Adam([("p", p)])
        p.grad = np.ones(size)
        opt.fold(0)
        assert len(submitted) == submits
        assert p.grad is None
        assert np.all(opt.m["p"] == 1 - opt.beta1)
        assert np.all(opt.v["p"] == 1 - opt.beta2)

    def test_nonfinite_folds_name_the_first_parameter_in_order(self):
        """Folded last to first, the NaN of "third" is met before that of
        "first"; the step names "first" and moves no parameter."""
        params = self.params(shapes={"first": (3,), "second": (BLOCK,),
                                     "third": (2 * BLOCK,)})
        opt = training.Adam(params)
        for _, p in params:
            p.grad = np.zeros(p.shape)
        params[0][1].grad[1] = np.nan
        params[2][1].grad[-1] = np.nan
        before = [p.data.copy() for _, p in params]
        for i in reversed(range(len(params))):
            opt.fold(i)
        with pytest.raises(T.NonFiniteError,
                           match="non-finite gradient in first$"):
            opt.step()
        assert opt.steps == 0
        for (name, p), was in zip(params, before):
            assert np.array_equal(p.data, was), name

    def test_zero_grad_discards_pending_folds(self):
        """Folds not yet stepped, a non-finite one among them, are
        forgotten by ``zero_grad``: the next step moves nothing and does
        not raise."""
        params = self.params(shapes={"a": (4,), "b": (3,)})
        opt = training.Adam(params)
        for _, p in params:
            p.grad = np.ones(p.shape)
        params[1][1].grad[0] = np.inf
        opt.fold(0)
        opt.fold(1)
        opt.zero_grad()
        before = [p.data.copy() for _, p in params]
        opt.step()
        assert opt.steps == 1
        for (name, p), was in zip(params, before):
            assert np.array_equal(p.data, was), name

    @pytest.mark.parametrize("bad, named", [
        ({"second": 3}, "second"), ({"first": -1, "second": 0}, "first")])
    def test_nan_in_either_half_names_the_first_bad_parameter(self, bad,
                                                              named):
        """``step`` folds "first", then "second", each under two blocks
        and so on this thread, and names the first bad parameter in
        parameter order; a NaN in the worker's half of a fold is
        ``test_nonfinite_folds_name_the_first_parameter_in_order``'s."""
        params = self.params(shapes={"first": (BLOCK,), "second": (BLOCK,)})
        for name, p in params:
            p.grad = np.zeros(p.shape)
            if name in bad:
                p.grad[bad[name]] = np.nan
        with pytest.raises(T.NonFiniteError,
                           match=f"non-finite gradient in {named}$"):
            training.Adam(params).step()


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
            training.TrainConfig(task="pos")
        with pytest.raises(ValueError):
            training.TrainConfig(optimization="both")
        with pytest.raises(ValueError):
            training.TrainConfig(gather="F_mid")

    def test_a_config_is_checked_when_made_and_cannot_change(self):
        import dataclasses
        config = training.TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch_size = 0
        with pytest.raises(ValueError, match="'batch_size' must be >= 1"):
            dataclasses.replace(config, batch_size=0)
        assert config.batch_size == 32

    def test_every_key_has_one_rule(self):
        """Each non-bool key but ``gather`` (checked by ``gather_parts``)
        is bounded or chosen from a list, never both, and every rule
        names a key."""
        import dataclasses
        keys = {f.name for f in dataclasses.fields(training.TrainConfig)
                if f.type != "bool" and f.name != "gather"}
        rules = list(training.CHOICES) + list(training._BOUNDS)
        assert sorted(rules) == sorted(keys)

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
        only its own model, and the gradients it folds into its moments,
        taken from the three summed losses, are bitwise the gradients of
        its view's loss alone under the same dropout masks."""
        sents = mini_corpus(6)
        config = small_config()
        model, tr, _ = training.prepare(config, sents, sents)
        views = {"char": model.char_parameters(),
                 "word": model.word_parameters(),
                 "meta": model.meta_parameters()}
        golds = np.concatenate([s.tag_ids for s in tr])
        weights = np.concatenate([np.full(len(s), 1.0 / (len(s) * len(tr)))
                                  for s in tr])
        masks = training._draw_masks(model, tr, np.random.default_rng(5))
        own = {}
        for k, view in enumerate(training._HEADS):
            oracles.zero_grads(model.all_parameters())
            with T.Graph() as g:
                logits = training.forward(model, tr, masks)
                loss = nn.softmax_xent_rows(logits[k], golds, weights)
            g.backward(loss)
            own[view] = {n: p.grad.copy() for n, p in views[view]}
        oracles.zero_grads(model.all_parameters())

        stepped, moved = {}, {}

        class Recording(training.Adam):
            def __init__(self, view):
                super().__init__(views[view])
                self.view = view

            def fold(self, index):
                name, p = self.params[index]
                stepped.setdefault(self.view, {})[name] = p.grad.copy()
                super().fold(index)

            def step(self):
                before = {n: a.copy() for n, a in model.array_manifest()}
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
        fold each gradient inside the backward sweep, leave every
        parameter and every Adam moment bitwise where folding nothing
        before the steps (``oracles.synchronous_epoch``) leaves them."""
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
        folded and gone."""
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

    @pytest.mark.parametrize("optimization", ["separate", "joint"])
    def test_the_optimizers_step_after_the_sweep_meta_char_word(
            self, monkeypatch, optimization):
        """Each batch's three steps come after the backward of its last
        node, in the order the sweep finishes the models: meta, char,
        word."""
        model, tr, _ = training.prepare(
            small_config(optimization=optimization), mini_corpus(6),
            mini_corpus(6))
        events = []

        class Logged(training.Adam):
            def __init__(self, view, params):
                super().__init__(params)
                self.view = view

            def step(self):
                events.append(self.view)
                super().step()

        def spy(fn):
            def bwd(g):
                events.append("node")
                return fn(g)
            return bwd

        backward = T.Graph.backward

        def spied(graph, loss):
            for node in graph.nodes:
                node.backward_fn = spy(node.backward_fn)
            backward(graph, loss)

        monkeypatch.setattr(T.Graph, "backward", spied)
        training.train_epoch_synchronous(
            model, Logged("char", model.char_parameters()),
            Logged("word", model.word_parameters()),
            Logged("meta", model.meta_parameters()), tr, np.arange(len(tr)),
            3, np.random.default_rng(0))
        assert [e for e, _ in itertools.groupby(events)] == \
            ["node", "meta", "char", "word"] * 2

    @pytest.mark.parametrize("optimization", ["separate", "joint"])
    def test_a_layer_holds_no_gradient_once_its_backward_has_run(
            self, monkeypatch, optimization):
        """Each parameter's gradient is folded away at its earliest
        reader: once a layer's ``lstm_run`` backward and the hooks after
        it have run, none of the layer's parameters holds a gradient."""
        model, tr, _ = training.prepare(
            small_config(optimization=optimization, char_bilstm_layers=2,
                         word_bilstm_layers=2), mini_corpus(6),
            mini_corpus(6))
        swept, held = [], []  # parameters of the lstm_run nodes run

        def spy(node, fn):
            def bwd(g):
                held.extend(t for t in swept if t.grad is not None)
                grads = fn(g)
                if node.op == "lstm_run":
                    swept.extend(node.inputs[1:])
                return grads
            return bwd

        backward = T.Graph.backward

        def spied(graph, loss):
            for node in graph.nodes:
                node.backward_fn = spy(node, node.backward_fn)
            backward(graph, loss)

        monkeypatch.setattr(T.Graph, "backward", spied)
        training.train_epoch_synchronous(
            model, *three_adams(model), tr, np.arange(len(tr)), 3,
            np.random.default_rng(0))
        # 5 layers, two batches, each direction's 5 parameters
        assert len(swept) == 5 * 2 * 10
        assert not held

    def test_zero_learning_rate_is_side_effect_free(self):
        sents = mini_corpus(5)
        config = small_config(learning_rate=0.0, max_epochs=1)
        model, tr, dv = training.prepare(config, sents, sents)
        before = {n: a.copy() for n, a in model.array_manifest()}
        training.train_model(model, tr, dv)
        for name, arr in model.array_manifest():
            np.testing.assert_array_equal(before[name], arr, err_msg=name)


FORMS = ("xa", "yb", "xab", "b", "ya", "xbb")


@st.composite
def two_batch_runs(draw):
    """A small config of either schedule and character encoder, dropout
    on or off, a corpus of 2-6 sentences of 1-5 tokens, an order that
    fills two batches, and an Adam block size."""
    layers, size = st.integers(1, 2), st.integers(3, 9)
    rate = draw(st.sampled_from([0.0, 0.25]))
    sentences = draw(st.lists(st.lists(st.sampled_from(FORMS), min_size=1,
                                       max_size=5), min_size=2, max_size=6))
    batch_size = draw(st.integers(1, min(4, len(sentences) - 1)))
    order = draw(st.permutations(range(len(sentences))))[:2 * batch_size]
    config = training.TrainConfig(
        seed=draw(st.integers(0, 2 ** 16)), batch_size=batch_size,
        optimization=draw(st.sampled_from(["separate", "joint"])),
        char_encoder=draw(st.sampled_from(["sentence", "token"])),
        gather=",".join(draw(st.lists(st.sampled_from(nn.GATHER_PARTS),
                                      min_size=1, unique=True))),
        char_bilstm_layers=draw(layers), word_bilstm_layers=draw(layers),
        meta_bilstm_layers=draw(layers), char_bilstm_size=draw(size),
        word_bilstm_size=draw(size), meta_bilstm_size=draw(size),
        mlp_size=draw(size), char_emb_dim=draw(size),
        word_emb_dim=draw(size), lstm_dropout=rate, mlp_dropout=rate,
        word_emb_dropout=rate, char_emb_dropout=rate, learning_rate=0.01,
        mlp_init="scaled", char_emb_init="scaled")
    text = "\n\n".join("\n".join(
        f"{i + 1}\t{form}\t_\t_\tT{form[0]}\t_\t0\t_\t_\t_"
        for i, form in enumerate(tokens)) for tokens in sentences) + "\n"
    return config, text, np.array(order), draw(st.integers(2, 16))


def slopes(model, batch, masks, rng, eps=1e-6):
    """The three summed batch losses' slope along a random unit direction
    over every parameter: from the taped gradients, and by central
    differences under the same ``masks``. The combiner's inputs stay
    attached, so the taped gradient is the whole loss's in either
    schedule."""
    golds = np.concatenate([s.tag_ids for s in batch])
    weights = np.concatenate([np.full(len(s), 1.0 / (len(s) * len(batch)))
                              for s in batch])
    params = [p for _, p in model.all_parameters()]
    saved = [p.data.copy() for p in params]
    steps = [rng.normal(size=p.shape) for p in params]
    norm = np.sqrt(sum(np.vdot(d, d) for d in steps))
    steps = [d / norm for d in steps]

    def loss():
        losses = [nn.softmax_xent_rows(logits, golds, weights)
                  for logits in training.forward(model, batch, masks,
                                                 detach=False)]
        return T.add(T.add(losses[0], losses[1]), losses[2])

    oracles.zero_grads(model.all_parameters())
    with T.Graph() as g:
        total = loss()
    g.backward(total)
    taped = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, steps))
    oracles.zero_grads(model.all_parameters())
    ends = []
    for sign in (1, -1):
        for p, x, d in zip(params, saved, steps):
            p.data[...] = x + sign * eps * d
        ends.append(loss().item())
    for p, x in zip(params, saved):
        p.data[...] = x
    return taped, (ends[0] - ends[1]) / (2 * eps)


class FoldedAdam(training.Adam):
    """Checks at each step that the sweep's hooks folded every gradient."""

    def step(self):
        held = [name for name, p in self.params if p.grad is not None]
        assert not held, f"not folded in the sweep: {held}"
        super().step()


class WholeArrayAdam(training.Adam):
    def step(self):
        oracles.unblocked_adam_step(self)


@settings(max_examples=50, deadline=None)
@given(two_batch_runs())
def test_two_batches_on_both_threads_match_the_whole_array_oracle(run):
    """Two batches of ``train_epoch_synchronous`` with every layer's
    directions, and every fold and step, split onto ``nn``'s worker, in
    blocks of a few elements, leave the parameters, Adam moments and
    losses bitwise where ``oracles.synchronous_epoch`` leaves them on one
    thread with the whole-array Adam; and each step finds every gradient
    folded inside the sweep. Both sides run the same ops, so the first
    batch's taped gradient is also held to central differences along a
    random direction."""
    config, text, order, block = run
    sides = []
    for adam in (FoldedAdam, WholeArrayAdam):
        model, tr, _ = training.prepare(config, data.parse_conllu(text),
                                        data.parse_conllu(text))
        opts = [adam(ps, lr=config.learning_rate) for ps in (
            model.char_parameters(), model.word_parameters(),
            model.meta_parameters())]
        args = (tr, order, config.batch_size,
                np.random.default_rng(config.seed))
        if adam is FoldedAdam:
            first = [tr[i] for i in order[:config.batch_size]]
            rng = np.random.default_rng(config.seed + 1)
            with mock.patch.object(nn, "_PARALLEL_MIN_WORK", 0), \
                    mock.patch.object(training, "_ADAM_BLOCK", block):
                taped, numeric = slopes(
                    model, first, training._draw_masks(model, first, rng),
                    rng)
                losses = training.train_epoch_synchronous(model, *opts,
                                                          *args)
            assert abs(taped - numeric) <= 1e-6 * max(1, abs(numeric))
        else:
            losses = oracles.synchronous_epoch(model, opts, *args)
        sides.append((model, opts, losses))
    (model, opts, losses), (want, want_opts, want_losses) = sides
    assert losses == want_losses
    for (name, got), (_, ref) in zip(model.all_parameters(),
                                     want.all_parameters()):
        assert np.array_equal(got.data, ref.data), name
    for opt, ref in zip(opts, want_opts):
        assert opt.steps == ref.steps == 2
        for name in opt.m:
            assert np.array_equal(opt.m[name], ref.m[name]), name
            assert np.array_equal(opt.v[name], ref.v[name]), name


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
            training.train_model(
                *training.prepare(config, mini_corpus(8), dev), path=str(path))
        monkeypatch.undo()
        kept = training.checkpoint_load(str(path))
        assert kept.best_epoch == 2
        stopped = training.train_model(*training.prepare(
            dataclasses.replace(config, max_epochs=kept.best_epoch),
            mini_corpus(8), dev))
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
            ckpt = training.train_model(
                *training.prepare(small_config(max_epochs=2), sents,
                                  mini_corpus(3, seed=9)), log=lines.append)
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
        a, b = (training.train_model(*training.prepare(
            small_config(seed=seed), sents, mini_corpus(3, seed=9)))
            for seed in (1, 2))
        assert any(not np.array_equal(a.arrays[n], b.arrays[n])
                   for n in a.arrays)

    def test_log_format(self):
        sents = mini_corpus(5)
        lines = []
        training.train_model(
            *training.prepare(small_config(max_epochs=1), sents, sents),
            log=lines.append)
        assert lines[0].startswith("epoch=0 dev_acc=0.")
        assert lines[1].startswith("epoch=1 char_loss=")
        for key in ("char_loss=", "word_loss=", "meta_loss=", "dev_acc="):
            assert key in lines[1]

    def test_patience_stops_early(self):
        sents = mini_corpus(5)
        lines = []
        config = small_config(learning_rate=0.0, max_epochs=50, patience=2)
        training.train_model(*training.prepare(config, sents, sents),
                             log=lines.append)
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
        ckpt = training.train_model(*training.prepare(config, sents, sents))
        assert "char_token.attn_vec" in ckpt.arrays

    def test_unseen_dev_tags_do_not_crash(self):
        tr = mini_corpus(5)
        dev = data.parse_conllu("1\tzz\t_\t_\tNEVER\t_\t0\t_\t_\t_\n")
        ckpt = training.train_model(
            *training.prepare(small_config(max_epochs=1), tr, dev))
        assert 0.0 <= ckpt.best_score <= 1.0


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
            golds = s.tag_ids
            masks = training._draw_masks(model, [s], rng)
            per_sentence.append([
                nn.softmax_xent_rows(logits, golds).item()
                for logits in training.forward(model, [s], masks,
                                               mode == "separate")])
        for index in indices:
            want = np.mean([losses[index] for losses in per_sentence])
            assert abs(got[index] - want) < 1e-12


class TestForward:
    """``forward`` computes every head. Over both training schedules it
    tapes only ops the summed loss's gradient reaches."""

    @pytest.mark.parametrize("char_encoder", ["sentence", "token"])
    @pytest.mark.parametrize("schedule", ["separate", "joint"])
    def test_every_recorded_node_gets_a_gradient(self, schedule,
                                                 char_encoder):
        sents = mini_corpus(4)
        model, tr, _ = training.prepare(
            small_config(char_encoder=char_encoder), sents, sents)
        golds = np.concatenate([s.tag_ids for s in tr])
        masks = training._draw_masks(model, tr, np.random.default_rng(0))
        oracles.zero_grads(model.all_parameters())
        with T.Graph() as g:
            losses = [nn.softmax_xent_rows(logits, golds) for logits in
                      training.forward(model, tr, masks,
                                       schedule == "separate")]
            loss = losses[0]
            for l in losses[1:]:
                loss = T.add(loss, l)
        g.backward(loss)
        assert g.nodes
        idle = [node.op for node in g.nodes if node.output.grad is None]
        assert not idle, f"{schedule}: taped ops without a gradient: {idle}"

    def test_the_combiner_lists_an_input_site_but_draws_no_mask(self):
        """The combiner's body lists the "emb" site first, at rate 0, so
        it draws no mask there; the encoders' bodies draw theirs."""
        model, tr, _ = training.prepare(small_config(), mini_corpus(4),
                                        mini_corpus(4))
        sites = model.combiner.dropout_sites(tr[0])
        assert sites[0] == ("emb", model.combiner.stack[0][0].input_size,
                            0.0)
        masks = training._draw_masks(model, tr, np.random.default_rng(0))
        assert "emb" not in masks["meta"]
        assert "emb" in masks["char"] and "emb" in masks["word"]

    @pytest.mark.parametrize("char_encoder", ["sentence", "token"])
    def test_runs_words_then_chars_then_combiner_once(self, monkeypatch,
                                                      char_encoder):
        sents = mini_corpus(3)
        model, tr, _ = training.prepare(
            small_config(char_encoder=char_encoder), sents, sents)
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
        logits = training.forward(model, tr)
        assert calls == ["encode_words", f"encode_chars_{char_encoder}",
                         "combine"]
        n_tokens = sum(len(s) for s in tr)
        assert [l.shape for l in logits] == \
            [(n_tokens, model.vocabs.n_tags)] * 3


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

    def test_vocab_table_is_the_vocabs_fields(self, tmp_path):
        """The manifest's vocabs object holds ``Vocabs``' fields in their
        declared order; one that holds an extra key still loads."""
        import dataclasses
        import json
        _, ckpt, path, _ = self.trained(tmp_path)
        head, _, body = path.read_bytes().partition(b"\n")
        manifest = json.loads(head)
        assert list(manifest["vocabs"]) == \
            [f.name for f in dataclasses.fields(data.Vocabs)]
        manifest["vocabs"]["extra"] = {"x": 1}
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        assert training.checkpoint_load(path).vocabs == ckpt.vocabs

    def test_save_gives_the_mode_of_a_plain_open(self, tmp_path):
        _, ckpt, path, _ = self.trained(tmp_path)
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["model.ckpt", "plain"]

    def test_a_failed_save_leaves_no_file(self, tmp_path):
        vocabs = data.Vocabs(words={}, chars={}, tags={}, task="xpos")
        broken = training.Checkpoint(
            config=training.TrainConfig(), vocabs=vocabs,
            arrays={"w": np.array(["not a number"])}, best_score=0.0,
            best_epoch=0)
        with pytest.raises(ValueError):
            training.checkpoint_save(tmp_path / "model.ckpt", broken)
        assert not list(tmp_path.iterdir())

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

    def test_a_file_replaced_while_read_gives_the_first_file(self, tmp_path,
                                                             monkeypatch):
        """Once the manifest is read, the path is replaced by a checkpoint
        of the same config and other weights; the arrays still come from
        the file whose manifest was read."""
        import os
        _, ckpt, path, _ = self.trained(tmp_path)
        other = tmp_path / "other.ckpt"
        training.checkpoint_save(other, training.Checkpoint(
            config=ckpt.config, vocabs=ckpt.vocabs,
            arrays={name: a + 1.0 for name, a in ckpt.arrays.items()},
            best_score=ckpt.best_score, best_epoch=ckpt.best_epoch))
        read_manifest = training._read_manifest

        def then_replace(*args):
            manifest = read_manifest(*args)
            os.replace(other, path)
            return manifest
        monkeypatch.setattr(training, "_read_manifest", then_replace)
        loaded = training.checkpoint_load(path)
        assert not other.exists()
        for name, a in ckpt.arrays.items():
            assert loaded.arrays[name].tobytes() == a.tobytes(), name

    @pytest.mark.parametrize("char_encoder", ["sentence", "token"])
    def test_a_load_reads_one_buffer_in_two_halves(self, tmp_path,
                                                   monkeypatch, char_encoder):
        """A load hands one call to ``nn``'s worker, holds at its peak
        little beyond the arrays' bytes, and gives C-contiguous, writeable
        float64 arrays bitwise the saved ones. The byte midpoint of this
        model's arrays falls inside one of them."""
        import tracemalloc
        sents = mini_corpus(6)
        config = small_config(char_encoder=char_encoder,
                              char_bilstm_size=64, word_bilstm_size=64,
                              meta_bilstm_size=64, mlp_size=64)
        model, _, _ = training.prepare(config, sents, sents)
        saved = dict(model.array_manifest())
        path = tmp_path / "model.ckpt"
        training.checkpoint_save(path, training.Checkpoint(
            config=config, vocabs=model.vocabs, arrays=saved,
            best_score=0.0, best_epoch=0))
        nbytes = sum(a.nbytes for a in saved.values())
        assert nbytes // 16 * 8 not in np.cumsum([a.nbytes
                                                  for a in saved.values()])
        submitted = TestBlockedAdam.submissions(monkeypatch)
        tracemalloc.start()
        try:
            loaded = training.checkpoint_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(submitted) == 1
        assert peak <= 1.05 * nbytes
        assert list(loaded.arrays) == list(saved)
        for name, a in loaded.arrays.items():
            assert a.dtype == np.float64, name
            assert a.flags.c_contiguous and a.flags.writeable, name
            assert a.tobytes() == saved[name].tobytes(), name

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
    def test_all_three_heads_evaluable(self, monkeypatch):
        """From one forward per ``batch_size`` sentences."""
        sents = mini_corpus(6)
        model, tr, dv = training.prepare(small_config(), sents, sents)
        batches = []
        forward = training.forward

        def counted(model, batch):
            batches.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(training, "forward", counted)
        accs = training.accuracies(model, dv)
        assert batches == [4, 2]  # ceil(6 / 4) calls
        assert list(accs) == ["char", "word", "meta"]
        assert all(0.0 <= acc <= 1.0 for acc in accs.values())
        assert accs["meta"] == training.evaluate(model, dv)


def three_column_text(n_sentences, seed, unseen=False):
    """CoNLL-U whose UPOS, XPOS and FEATS each follow the first letter of
    the form, FEATS pairs written in a random order. With ``unseen`` each
    sentence ends in a token whose three tags only such tokens hold."""
    rng = np.random.default_rng(seed)
    columns = {"x": ("NOUN", "TX", ["Case=Nom", "Number=Sing"]),
               "y": ("VERB", "TY", ["Mood=Ind", "Tense=Past"])}
    blocks = []
    for _ in range(n_sentences):
        rows = []
        for _ in range(int(rng.integers(2, 5))):
            first = "xy"[int(rng.integers(2))]
            upos, xpos, feats = columns[first]
            rows.append((first + "".join(rng.choice(list("abc"), size=2)),
                         upos, xpos, "|".join(rng.permutation(feats))))
        if unseen:
            rows.append(("zz", "INTJ", "TZ", "Polite=Form"))
        blocks.append("\n".join(
            f"{i + 1}\t{form}\t_\t{upos}\t{xpos}\t{feats}\t0\t_\t_\t_"
            for i, (form, upos, xpos, feats) in enumerate(rows)))
    return "\n\n".join(blocks) + "\n"


class TestEvaluate:
    """``accuracies`` counts tag ids; ``evaluation.score``, which compares
    tag strings, is its reference."""

    @staticmethod
    def head_tags(model, sentences, head):
        """One head's tag strings, one list per sentence, from its logits
        over batches of ``batch_size`` sentences, as ``accuracies`` takes
        them."""
        names = model.vocabs.tag_strings()
        tagged = [s for s in sentences if s.tokens]
        size = model.config.batch_size
        ids = []
        for start in range(0, len(tagged), size):
            logits = training.forward(model, tagged[start:start + size])[
                ("char", "word", "meta").index(head)]
            ids += nn.predict_tags(logits).tolist()
        ids = iter(ids)
        return [[names[next(ids)] for _ in s.tokens] for s in sentences]

    @pytest.mark.parametrize("task", ["upos", "xpos", "feats"])
    def test_each_heads_accuracy_is_the_scorers(self, task):
        train = data.parse_conllu(three_column_text(8, seed=1), task)
        dev = data.parse_conllu(three_column_text(5, seed=2, unseen=True),
                                task)
        model, train, dev = training.prepare(small_config(task=task),
                                             train, dev)
        training.train_model(model, train, dev)
        [empty] = data.parse_conllu("# no tokens\n")
        data.assign_ids([empty], model.vocabs)
        dev.insert(1, empty)
        assert all(s.tag_ids[-1] == -1 and -1 not in s.tag_ids[:-1]
                   for s in dev if s.tokens)
        for head in ("char", "word", "meta"):
            tagged = data.parse_conllu(data.write_conllu(
                dev, self.head_tags(model, dev, head), task), task)
            want = evaluation.score(dev, tagged, task).accuracy
            assert 0.0 < want < 1.0
            assert training.accuracies(model, dev)[head] == want
        assert training.tag_corpus(model, dev) == \
            self.head_tags(model, dev, "meta")
        tagged = data.parse_conllu(data.write_conllu([empty], [[]], task),
                                   task)
        assert training.evaluate(model, [empty]) == 0.0 == \
            evaluation.score([empty], tagged, task).accuracy
