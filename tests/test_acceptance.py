"""Acceptance suite: ten go/no-go checks at stated tolerances and budgets.

Each test prints one `criterion N: PASS (...)` line; pytest -v adds the
canonical pass/fail verdict per criterion. Budgets are asserted, so a
regression that blows a runtime envelope fails loudly instead of just
running long. Criteria 4 to 6 run the studies of scripts/run_experiments.py,
whose command line is checked here too.
"""

import importlib.util
import time
from concurrent.futures.process import _RemoteTraceback
from pathlib import Path

import numpy as np
import pytest

import oracles
from metatagger import (cli, data, evaluation, nn, synthetic, tensor as T,
                        training)

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
run_experiments = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_experiments)


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)


def tiny_config(**over):
    base = dict(seed=3, max_epochs=1, batch_size=2,
                char_bilstm_layers=1, word_bilstm_layers=1,
                meta_bilstm_layers=1,
                char_bilstm_size=4, word_bilstm_size=4, meta_bilstm_size=4,
                mlp_size=4, char_emb_dim=3, word_emb_dim=3,
                lstm_dropout=0.0, mlp_dropout=0.0, word_emb_dropout=0.0,
                char_emb_dropout=0.0, mlp_init="scaled",
                char_emb_init="scaled")
    base.update(over)
    return training.TrainConfig(**base)


def small_config(**over):
    return training.TrainConfig(**{**run_experiments.SMALL, **over})


TWO_SENTENCES = (
    "1\tab\t_\t_\tT1\t_\t0\t_\t_\t_\n"
    "2\tba\t_\t_\tT2\t_\t0\t_\t_\t_\n"
    "\n"
    "1\tbb\t_\t_\tT2\t_\t0\t_\t_\t_\n"
    "2\tab\t_\t_\tT1\t_\t0\t_\t_\t_\n"
    "3\taa\t_\t_\tT1\t_\t0\t_\t_\t_\n")


def fixture_model():
    sents = data.parse_conllu(TWO_SENTENCES)
    model, tr, _ = training.prepare(tiny_config(), sents, sents)
    return model, tr


def joint_loss(model, sentences):
    losses = []
    for s in sentences:
        golds = s.tag_ids
        logits_c, logits_w, logits_m = training.forward(
            model, [s], detach=False)
        losses.append(T.add(T.add(nn.softmax_xent_rows(logits_c, golds),
                                  nn.softmax_xent_rows(logits_w, golds)),
                            nn.softmax_xent_rows(logits_m, golds)))
    return oracles.mean_loss(losses)


def test_criterion_01_gradients():
    t0 = time.monotonic()
    worst = {}
    rng = np.random.default_rng(0)
    xs = T.Tensor(rng.standard_normal((4, 3)))

    p = nn.affine_params(3, 5, np.random.default_rng(1), "gaussian")
    worst["mlp"] = oracles.grad_check(
        lambda: oracles.tsum(T.elu(nn.affine(p, xs))), p.parameters("mlp"))

    c = nn.affine_params(3, 4, np.random.default_rng(2), "scaled")
    worst["classifier+xent"] = oracles.grad_check(
        lambda: nn.softmax_xent_rows(nn.affine(c, xs), [0, 3, 1, 2]),
        c.parameters("cls"))

    lp = nn.lstm_params(3, 4, np.random.default_rng(3))
    worst["lstm_run"] = oracles.grad_check(
        lambda: oracles.tsum(nn.lstm_run(lp, xs, lengths=[4])),
        lp.parameters("lstm"))
    mask = np.random.default_rng(4).integers(0, 2, size=(1, 4)) * 2.0
    worst["lstm_run+mask"] = oracles.grad_check(
        lambda: oracles.tsum(nn.lstm_run(lp, xs, h_mask=mask, lengths=[4])),
        lp.parameters("lstm"))

    stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(5))
    worst["bilstm_stack"] = oracles.grad_check(
        lambda: oracles.tsum(nn.bilstm_stack_run(stack, xs, lengths=[4])),
        nn.stack_parameters(stack, "st"))
    x_in = T.Tensor(np.random.default_rng(9).standard_normal((5, 3)),
                    requires_grad=True)
    mask_rng = np.random.default_rng(10)
    masks = {key: mask_rng.integers(0, 2, size=(2, width)) * 2.0
             for key, width in (("layer0.in", 3), ("layer0.bwd", 4),
                                ("layer1.in", 8))}
    worst["bilstm_stack+input_masks"] = oracles.grad_check(
        lambda: oracles.tsum(nn.bilstm_stack_run(stack, x_in, lengths=[3, 2],
                                                 masks=masks)),
        nn.stack_parameters(stack, "st") + [("xs", x_in)])

    table = T.Tensor(np.random.default_rng(6).standard_normal((5, 3)),
                     requires_grad=True)
    worst["embedding"] = oracles.grad_check(
        lambda: oracles.tsum(oracles.sigmoid(
            T.take_rows(table, [0, 2, 2, 4]))),
        [("table", table)])

    v = T.Tensor(np.random.default_rng(7).standard_normal(4),
                 requires_grad=True)
    states = T.Tensor(np.random.default_rng(8).standard_normal((6, 4)))
    worst["char_attention"] = oracles.grad_check(
        lambda: oracles.tsum(nn.char_attention(v, states, [6])), [("v", v)])

    model, tr = fixture_model()
    worst["full_step"] = oracles.grad_check(lambda: joint_loss(model, tr),
                                            model.all_parameters())
    elapsed = time.monotonic() - t0
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: max rel err {err:.3e}"
    assert elapsed < 120.0
    peak = max(worst.values())
    report(1, f"{len(worst)} checks, worst rel err {peak:.2e}, "
              f"{elapsed:.1f}s < 120s")


def test_criterion_02_gradient_isolation():
    t0 = time.monotonic()
    model, tr = fixture_model()
    encoder_params = list(model.char_parameters()) + \
        list(model.word_parameters())

    def meta_loss(detach):
        golds = tr[0].tag_ids
        logits = training.forward(model, [tr[0]], detach=detach)[2]
        return nn.softmax_xent_rows(logits, golds)

    oracles.zero_grads(model.all_parameters())
    with T.Graph() as g:
        loss = meta_loss(detach=True)
    g.backward(loss)
    leaked = sum(float(np.abs(p.grad).sum())
                 for _, p in encoder_params if p.grad is not None)
    assert leaked == 0.0

    oracles.zero_grads(model.all_parameters())
    with T.Graph() as g:
        loss = meta_loss(detach=False)
    g.backward(loss)
    moved = sum(float(np.abs(p.grad).sum())
                for _, p in encoder_params if p.grad is not None)
    assert moved > 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, f"separate leak 0.0 exactly, joint grad mass {moved:.3e}, "
              f"{elapsed:.1f}s < 10s")


def test_criterion_03_overfit():
    t0 = time.monotonic()
    cfg = small_config(seed=11, max_epochs=200, patience=10,
                       char_bilstm_size=64, word_bilstm_size=64,
                       meta_bilstm_size=64, mlp_size=64,
                       char_emb_dim=16, word_emb_dim=16,
                       lstm_dropout=0.0, mlp_dropout=0.0,
                       word_emb_dropout=0.0)
    corpus, _ = synthetic.complementary_corpora(7, n_train=50, n_dev=2)
    assert len(corpus) == 50
    model, tr, dv = training.prepare(cfg, corpus, corpus)
    ckpt = training.train_model(model, tr, dv)
    acc = training.evaluate(model, tr)
    elapsed = time.monotonic() - t0
    assert acc >= 0.995
    assert ckpt.best_epoch <= 200
    assert elapsed < 300.0
    report(3, f"train acc {acc:.4f} at epoch {ckpt.best_epoch}, "
              f"{elapsed:.0f}s < 300s")


@pytest.mark.study
def test_criterion_04_context_contrast():
    t0 = time.monotonic()
    accs = run_experiments.run_study("context", 10)
    gaps = [100.0 * (s - t)
            for s, t in zip(accs["sentence-chars"], accs["token-chars"])]
    wins = sum(g >= 2.0 for g in gaps)
    elapsed = time.monotonic() - t0
    detail = " ".join(f"{g:+.1f}" for g in gaps)
    assert wins >= 8, f"sentence-vs-token gaps in points: {detail}"
    assert elapsed < 1800.0
    report(4, f"sentence wins by >=2.0 pts in {wins}/10 seeds "
              f"[{detail}], {elapsed:.0f}s < 1800s")


@pytest.mark.study
def test_criterion_05_meta_combination():
    t0 = time.monotonic()
    results = run_experiments.run_study("components", 10)
    ok = sum(m >= max(c, w) - 0.002 for c, w, m in zip(
        results["char-only"], results["word-only"], results["meta"]))
    elapsed = time.monotonic() - t0
    table = evaluation.render_table(results)
    print(table)
    assert ok >= 8, f"meta within 0.2 pts of best single view in {ok}/10\n" \
                    + table
    assert elapsed < 1800.0
    report(5, f"meta >= best single - 0.2 pts in {ok}/10 seeds, "
              f"{elapsed:.0f}s < 1800s")


@pytest.mark.study
def test_criterion_06_optimization_schema():
    t0 = time.monotonic()
    accs = run_experiments.run_study("optimization", 10)
    sep_mean = float(np.mean(accs["separate"]))
    jnt_mean = float(np.mean(accs["joint"]))
    elapsed = time.monotonic() - t0
    pairs = " ".join(f"{100 * s:.1f}/{100 * j:.1f}"
                     for s, j in zip(accs["separate"], accs["joint"]))
    assert sep_mean >= jnt_mean, f"per-seed separate/joint: {pairs}"
    assert elapsed < 3600.0
    report(6, f"separate mean {100 * sep_mean:.2f} >= joint mean "
              f"{100 * jnt_mean:.2f} over 10 seeds, {elapsed:.0f}s < 3600s")


def test_criterion_07_scorer_equivalence():
    t0 = time.monotonic()
    expected = [("pair1", "xpos", 4, 4), ("pair2", "xpos", 3, 4),
                ("pair3", "feats", 2, 3), ("pair4", "xpos", 4, 5),
                ("pair5", "xpos", 2, 4)]
    for stem, task, correct, total in expected:
        gold = data.parse_conllu(
            (FIXTURES / "scorer" / f"{stem}_gold.conllu").read_text())
        pred = data.parse_conllu(
            (FIXTURES / "scorer" / f"{stem}_pred.conllu").read_text())
        rep = evaluation.score(gold, pred, task)
        assert (rep.correct, rep.total) == (correct, total), stem
        assert rep.accuracy == correct / total
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(7, f"5 fixture pairs match hand counts exactly, "
              f"{elapsed:.2f}s < 1s")


def test_criterion_08_determinism(tmp_path):
    t0 = time.monotonic()
    train, dev = synthetic.complementary_corpora(9, n_train=16, n_dev=6)
    train_path = tmp_path / "train.conllu"
    dev_path = tmp_path / "dev.conllu"
    train_path.write_text(data.write_conllu(train))
    dev_path.write_text(data.write_conllu(dev))
    overrides = ["--set", "max_epochs=3", "--set", "batch_size=8",
                 "--set", "char_bilstm_layers=1",
                 "--set", "word_bilstm_layers=1",
                 "--set", "meta_bilstm_layers=1",
                 "--set", "char_bilstm_size=12",
                 "--set", "word_bilstm_size=12",
                 "--set", "meta_bilstm_size=12",
                 "--set", "mlp_size=12", "--set", "char_emb_dim=8",
                 "--set", "word_emb_dim=8",
                 "--set", "learning_rate=0.01",
                 "--set", "mlp_init=scaled", "--set", "char_emb_init=scaled"]
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        code = cli.main(["train", "--train", str(train_path),
                         "--dev", str(dev_path),
                         "--checkpoint", str(d / "model.ckpt"),
                         "--log", str(d / "train.log"),
                         "--seed", "21"] + overrides)
        assert code == 0
        outputs.append(((d / "train.log").read_bytes(),
                        (d / "model.ckpt").read_bytes()))
    elapsed = time.monotonic() - t0
    assert outputs[0][0] == outputs[1][0], "training logs differ"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ"
    assert elapsed < 600.0
    report(8, f"logs and checkpoints byte-identical across reruns "
              f"({len(outputs[0][1])} ckpt bytes), {elapsed:.0f}s < 600s")


def test_criterion_09_gather_degeneracy_and_strategies():
    t0 = time.monotonic()
    text = ("1\ta\t_\t_\tT1\t_\t0\t_\t_\t_\n"
            "2\tb\t_\t_\tT2\t_\t0\t_\t_\t_\n"
            "3\ta\t_\t_\tT1\t_\t0\t_\t_\t_\n")
    sents = data.parse_conllu(text)
    cfg = tiny_config()
    model, tr, _ = training.prepare(cfg, sents, sents)
    from metatagger import encoders
    g, _, _ = encoders.encode_chars_sentence(model.char_sent, [tr[0]])
    h = cfg.char_bilstm_size
    assert g.data.shape[1] == 4 * h
    assert np.array_equal(g.data[:, 0:h], g.data[:, h:2 * h])
    assert np.array_equal(g.data[:, 2 * h:3 * h], g.data[:, 3 * h:4 * h])

    toy_train, toy_dev = synthetic.complementary_corpora(4, n_train=8,
                                                         n_dev=4)
    ran = []
    for strategy in cli.GATHER_ABLATION + ("F_1st,F_last,B_1st,B_last",):
        run_cfg = small_config(max_epochs=1, char_bilstm_size=8,
                               word_bilstm_size=8, meta_bilstm_size=8,
                               mlp_size=8, char_emb_dim=6, word_emb_dim=6,
                               gather=strategy)
        ckpt = training.train_model(*training.prepare(run_cfg, toy_train,
                                                      toy_dev))
        assert 0.0 <= ckpt.best_score <= 1.0
        ran.append(strategy)
    elapsed = time.monotonic() - t0
    assert len(ran) == 5
    assert elapsed < 300.0
    report(9, f"single-char F/B blocks bit-equal; {len(ran)} gather "
              f"strategies ran end-to-end, {elapsed:.0f}s < 300s")


def test_criterion_10_config_fidelity(capsys):
    t0 = time.monotonic()
    assert cli.main(["train", "--print-config"]) == 0
    out = capsys.readouterr().out
    golden = (FIXTURES / "default_config.txt").read_text()
    assert out == golden
    for needle in ("learning_rate = 0.002", "decay = 0.999994",
                   "adam_epsilon = 1e-08", "beta1 = 0.9", "beta2 = 0.999",
                   "char_bilstm_layers = 3", "word_bilstm_layers = 3",
                   "meta_bilstm_layers = 1", "char_bilstm_size = 400",
                   "lstm_dropout = 0.33", "mlp_dropout = 0.33",
                   "word_emb_dropout = 0.33", "char_emb_dropout = 0.05",
                   "mlp_activation = elu", "word_emb_init = zero",
                   "char_emb_init = gaussian", "mlp_init = gaussian"):
        assert needle in out, needle
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(10, f"--print-config matches the golden file field-for-field, "
               f"{elapsed:.2f}s < 1s")


def test_study_seeds_in_processes_match_one_process(monkeypatch):
    """Seed processes give each label's accuracies of the in-process loop,
    in seed order, with more seeds than processes; seed k's are
    ``cli.run_axis``'s at config seed k + 1 on that seed's corpora."""
    corpora, settings = run_experiments.PROTOCOLS["optimization"]
    settings = dict(settings, max_epochs=2)
    monkeypatch.setitem(run_experiments.PROTOCOLS, "optimization",
                        (corpora, settings))
    results = []
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(run_experiments.os, "sched_getaffinity",
                            lambda pid, cores=cores: cores)
        results.append(run_experiments.run_study("optimization", 3))
    assert sorted(results[0]) == ["joint", "separate"]
    assert all(len(accs) == 3 for accs in results[0].values())
    assert results[1] == results[0]
    for k in range(3):
        config = small_config(**settings, seed=k + 1)
        model, train, dev = training.prepare(config, *corpora(k))
        alone = cli.run_axis(config, "optimization", model.vocabs,
                             model.word.pretrained.data, train, dev)
        assert alone == {label: accs[k] for label, accs in results[0].items()}


def test_a_seed_that_fails_to_prepare_fails_the_study_before_the_pool(
        monkeypatch):
    """Each seed's corpora are prepared in this process, so corpora that
    fail ``training.prepare`` fail the study before any seed process
    starts."""
    corpora, settings = run_experiments.PROTOCOLS["optimization"]
    monkeypatch.setitem(
        run_experiments.PROTOCOLS, "optimization",
        (lambda k: corpora(k) if k == 0 else ([], []),
         dict(settings, max_epochs=1)))
    monkeypatch.setattr(run_experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1})

    def no_pool(*args, **kwargs):
        raise AssertionError("a seed process pool was started")

    monkeypatch.setattr(run_experiments, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="no non-empty sentences"):
        run_experiments.run_study("optimization", 2)


def test_an_error_in_a_seed_process_fails_the_study(monkeypatch):
    """Training that diverges inside the seed processes fails the study
    with the error it raised there."""
    corpora, settings = run_experiments.PROTOCOLS["optimization"]
    monkeypatch.setitem(
        run_experiments.PROTOCOLS, "optimization",
        (corpora, dict(settings, max_epochs=1, learning_rate=1e200)))
    monkeypatch.setattr(run_experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    with pytest.raises(T.NonFiniteError, match="non-finite gradient in ") \
            as raised:
        run_experiments.run_study("optimization", 2)
    assert isinstance(raised.value.__cause__, _RemoteTraceback)


def test_study_script_on_one_seed_and_on_none(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        run_experiments.main(["context", "--seeds", "0"])
    assert "--seeds must be at least 1" in capsys.readouterr().err
    prepared = []
    prepare = training.prepare

    def counted(*args):
        prepared.append(args)
        return prepare(*args)

    monkeypatch.setattr(training, "prepare", counted)
    run_experiments.main(["optimization", "--seeds", "1"])
    assert len(prepared) == 1  # both models of the seed train from it
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("== optimization (1 seeds, ")
    assert [line.split()[:2] for line in lines[1:4]] == [
        ["config", "seeds"], ["separate", "1"], ["joint", "1"]]
    assert lines[4] == "config,seed,task,accuracy"
    assert [line.split(",")[:3] for line in lines[5:7]] == [
        ["separate", "0", "xpos"], ["joint", "0", "xpos"]]
    assert lines[7:] == ["paired t: n/a (paired test needs at least 2 pairs)",
                         ""]
