"""CLI behavior: config layering, exit codes, file round trips."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metatagger import cli, data, evaluation, synthetic, training

FIXTURES = Path(__file__).parent / "fixtures"

SMALL_OVERRIDES = [
    "--set", "max_epochs=2", "--set", "batch_size=8",
    "--set", "char_bilstm_layers=1", "--set", "word_bilstm_layers=1",
    "--set", "meta_bilstm_layers=1", "--set", "char_bilstm_size=10",
    "--set", "word_bilstm_size=10", "--set", "meta_bilstm_size=10",
    "--set", "mlp_size=10", "--set", "char_emb_dim=6",
    "--set", "word_emb_dim=6", "--set", "learning_rate=0.01",
    "--set", "mlp_init=scaled", "--set", "char_emb_init=scaled",
]


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    train, dev = synthetic.complementary_corpora(3, n_train=12, n_dev=4)
    (d / "train.conllu").write_text(data.write_conllu(train))
    (d / "dev.conllu").write_text(data.write_conllu(dev))
    return d


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    """Small checkpoints shared by the tag/eval tests: model.ckpt, and
    token.ckpt, the same run with the token character encoder."""
    d = tmp_path_factory.mktemp("run")
    corpus = ["--train", str(corpus_dir / "train.conllu"),
              "--dev", str(corpus_dir / "dev.conllu"), "--seed", "7"]
    code = cli.main(["train", *corpus, "--checkpoint", str(d / "model.ckpt"),
                     "--log", str(d / "train.log")] + SMALL_OVERRIDES)
    assert code == 0
    code = cli.main(["train", *corpus, "--checkpoint", str(d / "token.ckpt"),
                     "--set", "char_encoder=token"] + SMALL_OVERRIDES)
    assert code == 0
    return d


class TestPrintConfig:
    def test_defaults_match_golden_file(self, capsys):
        assert cli.main(["train", "--print-config"]) == 0
        golden = (FIXTURES / "default_config.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_env_var_supplies_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "77")
        cli.main(["train", "--print-config"])
        assert "seed = 77" in capsys.readouterr().out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "77")
        cli.main(["train", "--print-config", "--seed", "5"])
        assert "seed = 5" in capsys.readouterr().out

    def test_file_beats_env_and_set_beats_file(self, capsys, monkeypatch,
                                               tmp_path):
        monkeypatch.setenv(cli.SEED_ENV, "77")
        cfg = tmp_path / "c.txt"
        cfg.write_text("# comment line\n\nseed = 9\nbatch_size = 4\n")
        cli.main(["train", "--print-config", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert "seed = 9" in out and "batch_size = 4" in out
        cli.main(["train", "--print-config", "--config", str(cfg),
                  "--set", "seed=11"])
        assert "seed = 11" in capsys.readouterr().out

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        cfg = tmp_path / "c.txt"
        for text in ("\ufeffseed = 3\n", "\ufeff# comment\nseed = 3\n"):
            cfg.write_text(text, encoding="utf-8")
            assert cli.main(["train", "--print-config",
                             "--config", str(cfg)]) == 0
            assert "seed = 3" in capsys.readouterr().out.splitlines()


def set_first(ids: dict, value) -> None:
    """Give the first entry of a vocabulary map the id ``value``."""
    ids[next(iter(ids))] = value


def on_token_checkpoint(mutate):
    """Mark a manifest mutation as one of token.ckpt, not model.ckpt."""
    mutate.checkpoint = "token.ckpt"
    return mutate


def zero_width_words(arrays, vocabs):
    """Word embeddings of width 0: both tables and layer 0's w_x."""
    def shrink(name, a):
        if name in ("word.pretrained", "word.learned"):
            return np.zeros((a.shape[0], 0))
        if name.startswith("word.stack.layer0.") and name.endswith(".w_x"):
            return np.zeros((0, a.shape[1]))
        return a
    return {name: shrink(name, a) for name, a in arrays.items()}, vocabs


def no_tags(arrays, vocabs):
    """An empty tag vocabulary, with every classifier 0 logits wide."""
    return ({name: np.zeros(a.shape[:-1] + (0,)) if ".classifier." in name
             else a for name, a in arrays.items()},
            dataclasses.replace(vocabs, tags={}))


class TestExitCodes:
    def test_no_subcommand_is_usage(self):
        assert cli.main([]) == 1

    def test_unknown_config_key_is_usage(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("learning_rat = 0.1\n")
        assert cli.main(["train", "--print-config",
                         "--config", str(cfg)]) == 1

    def test_malformed_config_line_is_usage(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("just some words\n")
        assert cli.main(["train", "--print-config",
                         "--config", str(cfg)]) == 1

    def test_bad_value_type_is_usage(self):
        assert cli.main(["train", "--print-config",
                         "--set", "max_epochs=soon"]) == 1

    def test_missing_corpus_file_is_data_error(self, tmp_path):
        assert cli.main(["train", "--train", str(tmp_path / "nope.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt")]) == 2

    def test_train_without_corpus_flag_is_usage(self, tmp_path):
        assert cli.main(["train",
                         "--checkpoint", str(tmp_path / "m.ckpt")]) == 1

    def test_train_without_checkpoint_path_is_usage(self, corpus_dir,
                                                    capsys):
        assert cli.main(["train",
                         "--train", str(corpus_dir / "train.conllu")]) == 1
        assert capsys.readouterr().err == (
            "usage error: a checkpoint path is required "
            "(--checkpoint or checkpoint_file in the config)\n")

    def test_set_without_equals_is_usage(self, capsys):
        assert cli.main(["train", "--print-config",
                         "--set", "max_epochs"]) == 1
        assert capsys.readouterr().err == \
            "usage error: --set expects key=value, got 'max_epochs'\n"

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_corpus_without_sentences_is_data_error(
            self, corpus_dir, tmp_path, capsys, empty):
        comments = tmp_path / "comments.conllu"
        comments.write_text("# sent_id = 1\n\n# sent_id = 2\n\n")
        paths = {"train": corpus_dir / "train.conllu",
                 "dev": corpus_dir / "dev.conllu", empty: comments}
        code = cli.main(["train", "--train", str(paths["train"]),
                         "--dev", str(paths["dev"]),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + SMALL_OVERRIDES)
        assert code == 2
        corpus = "training" if empty == "train" else "dev"
        assert capsys.readouterr().err == \
            f"data error: {corpus} corpus has no non-empty sentences\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_a_split_that_empties_a_corpus_is_one_line(self, tmp_path,
                                                         capsys):
        """Without --dev, one of two sentences is held out; the other has
        no tokens, so one corpus is empty whichever is held out."""
        corpus = tmp_path / "c.conllu"
        corpus.write_text("1\tab\t_\t_\tX1\t_\t0\t_\t_\t_\n\n# none\n\n")
        code = cli.main(["train", "--train", str(corpus),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + SMALL_OVERRIDES)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.endswith("corpus has no non-empty sentences\n")

    @pytest.mark.parametrize("rate", ["1e200", "1e120"])
    def test_training_driven_to_overflow_is_one_line(self, corpus_dir,
                                                     tmp_path, rate):
        """numpy's floating-point warnings would print before the error
        line (pytest turns them into exceptions, so this runs the CLI in
        a process of its own)."""
        proc = subprocess.run(
            [sys.executable, "-m", "metatagger.cli", "train",
             "--train", str(corpus_dir / "train.conllu"),
             "--dev", str(corpus_dir / "dev.conllu"),
             "--checkpoint", str(tmp_path / "m.ckpt"), *SMALL_OVERRIDES,
             "--set", f"learning_rate={rate}"],
            env=dict(os.environ,
                     PYTHONPATH=str(Path(__file__).parents[1] / "src")),
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numeric error: ")

    def test_a_failing_run_without_dev_is_one_line(self, corpus_dir,
                                                   tmp_path):
        """The hold-out notice is printed only once the run has succeeded,
        so the error line stands alone."""
        proc = subprocess.run(
            [sys.executable, "-m", "metatagger.cli", "train",
             "--train", str(corpus_dir / "train.conllu"),
             "--checkpoint", str(tmp_path / "m.ckpt"), *SMALL_OVERRIDES,
             "--set", "learning_rate=1e200"],
            env=dict(os.environ,
                     PYTHONPATH=str(Path(__file__).parents[1] / "src")),
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numeric error: ")

    @pytest.mark.parametrize("flag", ["--train", "--log"])
    def test_a_file_named_like_a_temporary_checkpoint_survives(
            self, corpus_dir, tmp_path, capsys, flag):
        """The checkpoint is written through a temporary file beside it
        whose name no existing file has, so an input or log named
        ``<checkpoint>.tmp`` is neither read into it nor replaced."""
        train = corpus_dir / "train.conllu"
        named = tmp_path / "m.ckpt.tmp"
        if flag == "--train":
            named.write_bytes(train.read_bytes())
        argv = ["train", "--train", str(named if flag == "--train" else train),
                "--dev", str(corpus_dir / "dev.conllu"),
                "--checkpoint", str(tmp_path / "m.ckpt"), *SMALL_OVERRIDES]
        if flag == "--log":
            argv += ["--log", str(named)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        if flag == "--train":
            assert named.read_bytes() == train.read_bytes()
        else:
            assert named.read_text().splitlines() == printed[:-2]
            assert printed[0].startswith("epoch=0 ")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["m.ckpt", "m.ckpt.tmp"]
        training.checkpoint_load(tmp_path / "m.ckpt")

    def test_bad_axis_is_usage(self, corpus_dir):
        assert cli.main(["ablate", "--axis", "sideways",
                         "--train", str(corpus_dir / "train.conllu")]) == 1

    def test_grid_checks_sizes_before_reading_a_corpus(self, tmp_path,
                                                        monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a corpus was read before --sizes")

        monkeypatch.setattr(cli, "_parse_corpus", unreachable)
        assert cli.main(["grid", "--train", str(tmp_path / "nope.conllu"),
                         "--sizes", "bad"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--sizes" in err
        assert "Traceback" not in err

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, corpus_dir):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("not a checkpoint\n")
        assert cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")]) == 2


    def test_manifest_without_arrays_is_data_error(self, trained, tmp_path,
                                                   corpus_dir, capsys):
        import json
        head, _, body = (trained / "model.ckpt").read_bytes().partition(b"\n")
        manifest = json.loads(head)
        del manifest["arrays"]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="'arrays'"):
            training.checkpoint_load(bad)
        capsys.readouterr()
        assert cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'arrays'" in err

    @pytest.mark.parametrize("mutate, key", [
        (lambda m: m.update(arrays=5), "'arrays'"),
        (lambda m: m.update(arrays={"name": "x"}), "'arrays'"),
        (lambda m: m["arrays"][0].update(shape=7), "'shape'"),
        (lambda m: m["arrays"][0].update(shape="ab"), "'shape'"),
        (lambda m: m["arrays"][0].update(shape=[2, -1]), "'shape'"),
        (lambda m: m["arrays"][0].update(shape=[2.0]), "'shape'"),
        (lambda m: m["arrays"][0].update(shape=[True]), "'shape'"),
        (lambda m: m["arrays"][0].update(name=["x"]), "'name'"),
        (lambda m: m.update(config=[]), "config"),
        (lambda m: m["config"].update(seed=[1]), "'seed'"),
        (lambda m: m["config"].update(lstm_dropout="x"), "'lstm_dropout'"),
        (lambda m: m["vocabs"].update(words=5), "'words'"),
        (lambda m: m["vocabs"].update(tags=["K1", "K2"]), "'tags'"),
        (lambda m: m["vocabs"]["chars"].update(a="1"), "'chars'"),
        *(pytest.param(mutate, key, id=name) for name, mutate, key in [
            ("word-id-negative",
             lambda m: set_first(m["vocabs"]["words"], -1), "'words'"),
            ("word-id-huge",
             lambda m: set_first(m["vocabs"]["words"], 10 ** 30), "'words'"),
            ("word-id-repeated",
             lambda m: set_first(m["vocabs"]["words"], 2), "'words'"),
            ("char-id-negative",
             lambda m: set_first(m["vocabs"]["chars"], -1), "'chars'"),
            ("char-id-huge",
             lambda m: set_first(m["vocabs"]["chars"], 10 ** 30), "'chars'"),
            ("tag-id-repeated",
             lambda m: set_first(m["vocabs"]["tags"], 1), "'tags'"),
            ("char-layers-huge",
             lambda m: m["config"].update(char_bilstm_layers=10 ** 30),
             "'char_bilstm_layers'"),
            ("meta-layers-huge",
             lambda m: m["config"].update(meta_bilstm_layers=100000),
             "'meta_bilstm_layers'"),
            ("char-size-huge",
             lambda m: m["config"].update(char_bilstm_size=10 ** 12),
             "'char_bilstm_size'"),
            ("word-size-other",
             lambda m: m["config"].update(word_bilstm_size=11),
             "'word_bilstm_size'"),
            ("mlp-size-huge",
             lambda m: m["config"].update(mlp_size=10 ** 9), "'mlp_size'"),
            ("char-emb-dim-other",
             lambda m: m["config"].update(char_emb_dim=7), "'char_emb_dim'"),
            ("token-char-size-other", on_token_checkpoint(
                lambda m: m["config"].update(char_bilstm_size=11)),
             "'char_bilstm_size'"),
            ("optimizer-unimplemented",
             lambda m: m["config"].update(optimizer="sgd"), "'optimizer'"),
            ("vocabs-task-bogus",
             lambda m: m["vocabs"].update(task="bogus"), "vocabs task"),
            ("vocabs-task-other-than-config",
             lambda m: m["vocabs"].update(task="upos"), "vocabs task"),
            ("version-bool", lambda m: m.update(version=True), "version"),
            ("version-multiline",
             lambda m: m.update(version="1\n2"), "version"),
        ]),
    ])
    def test_manifest_with_wrong_json_types_is_data_error(
            self, trained, tmp_path, corpus_dir, capsys, mutate, key):
        import json
        source = trained / getattr(mutate, "checkpoint", "model.ckpt")
        head, _, body = source.read_bytes().partition(b"\n")
        manifest = json.loads(head)
        mutate(manifest)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        with pytest.raises(ValueError, match=key):
            training.checkpoint_load(bad)
        capsys.readouterr()
        assert cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ") and key in err

    def test_unused_array_is_data_error(self, trained, tmp_path, corpus_dir,
                                        capsys):
        head, _, body = (trained / "model.ckpt").read_bytes().partition(b"\n")
        manifest = json.loads(head)
        manifest["arrays"].append({"name": "meta.extra", "shape": [2]})
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(manifest).encode() + b"\n" + body
                        + bytes(16))
        assert cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ") and "'meta.extra'" in err

    @pytest.mark.parametrize("where", ["first", "second", "boundary"])
    def test_a_checkpoint_cut_while_read_is_data_error(
            self, trained, tmp_path, corpus_dir, capsys, monkeypatch, where):
        """The file is cut once its size has been checked, inside the first
        or the second half of its array bytes, or in the second at the end
        of an array: the load names the first array the cut leaves
        incomplete, and ``tag`` ends in one line."""
        blob = (trained / "model.ckpt").read_bytes()
        head = blob.partition(b"\n")[0]
        start = len(head) + 1
        mid = (len(blob) - start) // 16 * 8
        entries = json.loads(head)["arrays"]
        ends = np.cumsum([8 * np.prod(entry["shape"]) for entry in entries])
        kept = int({"first": mid // 2,
                    "second": (mid + len(blob) - start) // 2,
                    "boundary": ends[ends > mid][0]}[where])
        name = entries[np.argmax(ends > kept)]["name"]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        key = (bad.stat().st_dev, bad.stat().st_ino)
        fstat, preadv = os.fstat, os.preadv
        reads = []

        def fstat_then_cut(fd):
            result = fstat(fd)
            if (result.st_dev, result.st_ino) == key:
                os.truncate(bad, start + kept)
            return result

        def counted_preadv(*args):  # a read that spins at the end fails
            reads.append(args)
            assert len(reads) < 100, "the read does not stop at the end"
            return preadv(*args)
        monkeypatch.setattr(os, "fstat", fstat_then_cut)
        monkeypatch.setattr(os, "preadv", counted_preadv)
        message = f"truncated checkpoint (array {name!r} incomplete)"
        with pytest.raises(ValueError, match=re.escape(message)):
            training.checkpoint_load(bad)
        bad.write_bytes(blob)
        capsys.readouterr()
        assert cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ") and message in err

    @pytest.mark.parametrize("setting", [
        "word_bilstm_layers=0", "meta_bilstm_layers=0", "mlp_size=0",
        "char_bilstm_size=-1", "char_emb_dim=0", "word_emb_dim=0",
        "lstm_dropout=1.5", "optimizer=sgd", "mlp_activation=relu",
        "loss=hinge", "word_emb_init=gaussian", "mlp_init=foo",
        "lstm_init=foo", "char_emb_init=foo", "seed=-1",
        "learning_rate=nan", "decay=1.5", "beta1=1", "beta2=1",
        "adam_epsilon=0", "patience=-1", "min_count=0"])
    def test_bad_structural_value_is_usage(self, corpus_dir, tmp_path,
                                           capsys, setting):
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--set", setting])
        assert code == 1
        err = capsys.readouterr().err
        key = setting.partition("=")[0]
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and repr(key) in err

    def test_negative_env_seed_is_usage(self, corpus_dir, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "-1")
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and "'seed'" in err

    @pytest.mark.parametrize("flag, name", [
        ("--pretrained", "missing.vec"), ("--pretrained", ""),
        ("--checkpoint", "no_dir/m.ckpt"), ("--log", "no_dir/train.log"),
    ], ids=["pretrained-missing", "pretrained-directory",
            "checkpoint-directory-missing", "log-directory-missing"])
    def test_unusable_train_path_is_data_error(self, corpus_dir, tmp_path,
                                               capsys, flag, name):
        path = str(tmp_path / name)
        paths = {"--checkpoint": str(tmp_path / "m.ckpt"), flag: path}
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         *(x for pair in paths.items() for x in pair),
                         "--set", "max_epochs=0"] + SMALL_OVERRIDES[2:])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ") and path in err

    @pytest.mark.parametrize("flag, name", [
        ("--checkpoint", "no_dir/m.ckpt"), ("--checkpoint", ""),
        ("--log", "no_dir/train.log"), ("--log", ""),
    ], ids=["checkpoint-directory-missing", "checkpoint-is-a-directory",
            "log-directory-missing", "log-is-a-directory"])
    def test_unusable_destination_fails_before_training(
            self, corpus_dir, tmp_path, capsys, monkeypatch, flag, name):
        def never(*args, **kwargs):
            raise AssertionError("training ran")

        for attr in ("prepare", "train_model"):
            monkeypatch.setattr(training, attr, never)
        out = tmp_path / "out"
        out.mkdir()
        path = str(out / name)
        paths = {"--checkpoint": str(out / "m.ckpt"), flag: path}
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         *(x for pair in paths.items() for x in pair)]
                        + SMALL_OVERRIDES)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {path}: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("output, other", [
        ("--checkpoint", "--log"), ("--checkpoint", "--train"),
        ("--checkpoint", "--dev"), ("--checkpoint", "--pretrained"),
        ("--log", "--train"), ("--log", "--dev"), ("--log", "--pretrained"),
    ])
    def test_output_that_is_another_path_is_usage(
            self, corpus_dir, tmp_path, capsys, monkeypatch, output, other):
        """An output naming the same file as the other output or an input,
        here through a symbolic link, fails before any corpus is read."""
        def never(*args, **kwargs):
            raise AssertionError("a corpus was read")

        monkeypatch.setattr(cli, "_parse_corpus", never)
        paths = {"--train": corpus_dir / "train.conllu",
                 "--dev": corpus_dir / "dev.conllu",
                 "--pretrained": FIXTURES / "vectors.txt",
                 "--checkpoint": tmp_path / "m.ckpt",
                 "--log": tmp_path / "train.log"}
        if other in ("--checkpoint", "--log"):
            paths[other].write_text("")
        link = tmp_path / "link"
        link.symlink_to(paths[other])
        paths[output] = link
        before = paths[other].read_bytes()
        code = cli.main(["train", *(str(x) for pair in paths.items()
                                    for x in pair)] + SMALL_OVERRIDES)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and "same file" in err
        assert paths[other].read_bytes() == before

    @pytest.mark.parametrize("command, name", [
        ("tag", "no_dir/o.conllu"), ("tag", ""),
        ("eval", "no_dir/s.csv"), ("eval", ""),
        ("grid", "no_dir/g.csv"), ("grid", ""),
        ("ablate", "no_dir/a.csv"), ("ablate", ""),
    ], ids=["tag-directory-missing", "tag-is-a-directory",
            "eval-directory-missing", "eval-is-a-directory",
            "grid-directory-missing", "grid-is-a-directory",
            "ablate-directory-missing", "ablate-is-a-directory"])
    def test_unusable_output_fails_before_any_input_is_read(
            self, corpus_dir, tmp_path, capsys, monkeypatch, command, name):
        def never(*args, **kwargs):
            raise AssertionError("work began before the output was checked")

        for module, attr in ((training, "prepare"), (training, "train_model"),
                             (training, "tag_corpus"),
                             (training, "checkpoint_load"),
                             (cli, "_parse_corpus")):
            monkeypatch.setattr(module, attr, never)
        out = tmp_path / "out"
        out.mkdir()
        path = str(out / name)
        corpus = str(corpus_dir / "dev.conllu")
        argv = {
            "tag": ["tag", "--checkpoint", str(out / "m.ckpt"),
                    "--input", corpus, "--output", path],
            "eval": ["eval", "--gold", corpus, "--pred", corpus,
                     "--csv", path],
            "grid": ["grid", "--train", corpus, "--sizes", "2:2:1",
                     "--out", path],
            "ablate": ["ablate", "--train", corpus, "--axis", "components",
                       "--seeds", "2", "--out", path],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {path}: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, output, other", [
        ("tag", "--output", "--checkpoint"), ("tag", "--output", "--input"),
        ("eval", "--csv", "--gold"), ("eval", "--csv", "--pred"),
        *((command, "--out", other) for command in ("grid", "ablate")
          for other in ("--train", "--dev", "--pretrained")),
    ])
    @pytest.mark.parametrize("via", ["same-name", "link"])
    def test_no_command_overwrites_its_input(
            self, corpus_dir, tmp_path, capsys, monkeypatch, command, output,
            other, via):
        """An output naming one of the command's inputs, as such or
        through a symbolic link, fails before any input is read."""
        def never(*args, **kwargs):
            raise AssertionError("an input was read")

        for module, attr in ((training, "checkpoint_load"),
                             (cli, "_parse_corpus")):
            monkeypatch.setattr(module, attr, never)
        inputs = {"--checkpoint": tmp_path / "m.ckpt",
                  "--input": tmp_path / "in.conllu",
                  "--gold": tmp_path / "gold.conllu",
                  "--pred": tmp_path / "pred.conllu",
                  "--train": tmp_path / "train.conllu",
                  "--dev": tmp_path / "dev.conllu",
                  "--pretrained": tmp_path / "e.vec"}
        for path in inputs.values():
            path.write_text(f"{path.name}\n")
        target = inputs[other]
        if via == "link":
            target = tmp_path / "link"
            target.symlink_to(inputs[other])
        flags = {"tag": ["--checkpoint", "--input"],
                 "eval": ["--gold", "--pred"],
                 "grid": ["--train", "--dev", "--pretrained"],
                 "ablate": ["--train", "--dev", "--pretrained"]}[command]
        argv = [command, *(x for flag in flags
                           for x in (flag, str(inputs[flag]))),
                output, str(target)]
        if command == "ablate":
            argv += ["--axis", "components"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and "same file" in err
        assert inputs[other].read_text() == f"{inputs[other].name}\n"

    @pytest.mark.parametrize("command, output", [
        ("train", "--checkpoint"), ("train", "--log"), ("tag", "--output"),
        ("eval", "--csv"), ("grid", "--out"), ("ablate", "--out"),
    ])
    def test_empty_output_name_is_a_missing_file(
            self, trained, corpus_dir, tmp_path, capsys, monkeypatch,
            command, output):
        """An empty output name fails like a missing file, before any
        epoch is trained, and leaves nothing in the working directory."""
        monkeypatch.chdir(tmp_path)
        corpus = ["--train", str(corpus_dir / "train.conllu"),
                  "--dev", str(corpus_dir / "dev.conllu")]
        dev = str(corpus_dir / "dev.conllu")
        argv = {
            "train": ["train", *corpus, "--checkpoint", "m.ckpt",
                      *SMALL_OVERRIDES],
            "tag": ["tag", "--checkpoint", str(trained / "model.ckpt"),
                    "--input", dev],
            "eval": ["eval", "--gold", dev, "--pred", dev],
            "grid": ["grid", *corpus, "--sizes", "2:2:1", *SMALL_OVERRIDES],
            "ablate": ["ablate", *corpus, "--axis", "components",
                       *SMALL_OVERRIDES],
        }[command]
        assert cli.main(argv + [output, ""]) == 2
        out, err = capsys.readouterr()
        assert err == f"data error: {output}: empty file name\n"
        assert "epoch=" not in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shrink, name", [
        (zero_width_words, "word.learned"),
        (no_tags, "char_sent.classifier.weight"),
    ], ids=["zero-width-words", "no-tags"])
    def test_zero_sized_array_is_data_error(self, trained, tmp_path,
                                            corpus_dir, capsys, shrink,
                                            name):
        ckpt = training.checkpoint_load(str(trained / "model.ckpt"))
        arrays, vocabs = shrink(ckpt.arrays, ckpt.vocabs)
        bad = tmp_path / "bad.ckpt"
        training.checkpoint_save(str(bad), dataclasses.replace(
            ckpt, arrays=arrays, vocabs=vocabs))
        code = cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ") and f"{name!r}" in err

    def test_non_finite_checkpoint_array_is_numeric_error(
            self, trained, tmp_path, corpus_dir, capsys):
        """The logits of a checkpoint with a NaN array stop ``tag``."""
        ckpt = training.checkpoint_load(str(trained / "model.ckpt"))
        ckpt.arrays["meta.classifier.bias"][:] = np.nan
        bad = tmp_path / "bad.ckpt"
        training.checkpoint_save(str(bad), ckpt)
        code = cli.main(["tag", "--checkpoint", str(bad),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")])
        assert code == 2
        assert capsys.readouterr().err == (
            "numeric error: non-finite meta logits: array "
            "'meta.classifier.bias' is not finite\n")
        assert not (tmp_path / "o.conllu").exists()

    @pytest.mark.parametrize("vectors, line", [
        ("ab \nb \n", 1), ("ab 0.5 1\nb \n", 2), ("ab 0.5\nb\n", 2),
    ], ids=["trailing-space", "second-line", "no-space"])
    def test_vector_without_values_names_its_line(self, corpus_dir, tmp_path,
                                                  capsys, vectors, line):
        emb = tmp_path / "e.vec"
        emb.write_text(vectors)
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--pretrained", str(emb),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + TINY_RUN)
        assert code == 2
        assert capsys.readouterr().err == \
            f"data error: embedding line {line}: no vector values\n"

    def test_checkpoint_directory_is_data_error(self, corpus_dir, tmp_path,
                                                capsys):
        code = cli.main(["tag", "--checkpoint", str(tmp_path),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(tmp_path / "o.conllu")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {tmp_path}: ")

    def test_non_finite_training_is_data_error(self, corpus_dir, tmp_path,
                                               capsys, monkeypatch):
        """Training that meets a NaN, here in the frozen vectors of a built
        model, ends in one line."""
        build = training.build_model

        def nan_vectors(*args, **kwargs):
            model = build(*args, **kwargs)
            model.word.pretrained.data[:] = np.nan
            return model

        monkeypatch.setattr(training, "build_model", nan_vectors)
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + SMALL_OVERRIDES)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_vector_names_its_line(self, corpus_dir, tmp_path,
                                              capsys, value):
        """A vectors file holding a value that is not finite fails before
        any epoch, and writes no checkpoint."""
        vectors = tmp_path / "e.vec"
        vectors.write_text(f"ab 0.5 1\nb 0.5 {value}\n")
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--pretrained", str(vectors),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + SMALL_OVERRIDES)
        assert code == 2
        out, err = capsys.readouterr()
        assert err == "data error: embedding line 2: non-finite value\n"
        assert "epoch=" not in out
        assert not (tmp_path / "m.ckpt").exists()

    def test_a_model_too_large_for_memory_is_one_line(
            self, corpus_dir, tmp_path, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 EiB for an array")

        monkeypatch.setattr(training, "build_model", too_large)
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + SMALL_OVERRIDES)
        assert code == 2
        assert capsys.readouterr().err == \
            "memory error: Unable to allocate 7.45 EiB for an array\n"

    def test_unreadable_vectors_leave_the_log_unchanged(
            self, corpus_dir, tmp_path, capsys):
        """Every input is read before ``--log`` is opened, so a run that
        fails on one leaves an earlier run's log as it was."""
        log = tmp_path / "train.log"
        log.write_text("epoch=0 dev_acc=0.500000\n")
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--pretrained", str(tmp_path / "missing.vec"),
                         "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--log", str(log)] + SMALL_OVERRIDES)
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert log.read_text() == "epoch=0 dev_acc=0.500000\n"

    @pytest.mark.parametrize("command", ["grid", "ablate"])
    def test_unreadable_vectors_fail_before_any_model(
            self, corpus_dir, tmp_path, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(training, "train_model", never)
        out = tmp_path / "out.csv"
        argv = {"grid": ["grid", "--sizes", "8:16:8"],
                "ablate": ["ablate", "--axis", "components"]}[command]
        code = cli.main(argv + ["--train", str(corpus_dir / "train.conllu"),
                                "--dev", str(corpus_dir / "dev.conllu"),
                                "--pretrained", str(tmp_path / "missing.vec"),
                                "--out", str(out)] + SMALL_OVERRIDES)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {tmp_path / 'missing.vec'}: ")
        assert not out.exists()


def manifest_paths(value, path=()):
    """Every key path into a JSON value, the value's own path first."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from manifest_paths(child, path + (key,))


JSON_VALUES = st.one_of(
    st.booleans(), st.integers(max_value=-1),
    st.integers(min_value=2 ** 31, max_value=10 ** 40), st.floats(),
    st.text(max_size=8), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.none())


@pytest.fixture(scope="module")
def checkpoint_parts(trained):
    blob = (trained / "model.ckpt").read_bytes()
    head, _, body = blob.partition(b"\n")
    manifest = json.loads(head)
    return blob, head, body, list(manifest_paths(manifest))[1:]


def array_offset(manifest, name: str) -> int:
    """Where the bytes of array ``name`` start in a checkpoint's body."""
    offset = 0
    for entry in manifest["arrays"]:
        if entry["name"] == name:
            return offset
        offset += 8 * int(np.prod(entry["shape"]))
    raise KeyError(name)


@settings(max_examples=200, derandomize=True, deadline=None)
@example(kind="array", data=None)
@given(kind=st.sampled_from(["truncate", "manifest", "array"]),
       data=st.data())
def test_mutated_checkpoint_exits_cleanly(trained, corpus_dir,
                                          checkpoint_parts, kind, data):
    """A checkpoint cut at any byte, with one manifest value replaced or
    with one byte of its arrays overwritten makes ``tag`` exit 0, 1 or 2,
    with one stderr line when not 0. The explicit example (``data`` None)
    writes NaN into the first value of the character head's classifier
    bias, which the tagged meta head never reads: ``tag`` stops on it."""
    blob, head, body, paths = checkpoint_parts
    manifest = json.loads(head)
    if kind == "truncate":
        mutated = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "manifest":
        *parents, last = data.draw(st.sampled_from(paths), label="path")
        target = manifest
        for key in parents:
            target = target[key]
        target[last] = data.draw(JSON_VALUES, label="value")
        mutated = json.dumps(manifest).encode() + b"\n" + body
    else:
        body = bytearray(body)
        if data is None:  # a quiet NaN, 0x7FF8 in its top two bytes
            at = array_offset(manifest, "char_sent.classifier.bias") + 6
            body[at:at + 2] = b"\xf8\x7f"
        else:
            body[data.draw(st.integers(0, len(body) - 1), label="at")] = \
                data.draw(st.integers(0, 255), label="byte")
        mutated = head + b"\n" + bytes(body)
    bad = trained / "fuzzed.ckpt"
    bad.write_bytes(mutated)
    code, err = run_quietly(["tag", "--checkpoint", str(bad),
                             "--input", str(corpus_dir / "dev.conllu"),
                             "--output", str(trained / "fuzzed.conllu")])
    assert_clean_exit(code, err)
    if data is None:
        assert code == 2
        assert err == ("numeric error: non-finite char logits: array "
                       "'char_sent.classifier.bias' is not finite\n")


def cli_process_state(env_threads: str | None) -> list[str]:
    """OPENBLAS_NUM_THREADS as a fresh process sees it after importing
    the CLI, and whether that import loaded scipy."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if env_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env_threads
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    code = ("import os, sys, metatagger.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout.split()


@pytest.mark.parametrize("env_threads, seen", [(None, "1"), ("2", "2")])
def test_cli_pins_one_blas_thread_unless_set(env_threads, seen):
    assert cli_process_state(env_threads)[0] == seen


def test_cli_import_leaves_scipy_out():
    assert cli_process_state(None)[1] == "False"


def test_reruns_at_two_blas_threads_write_the_same_bytes(tmp_path):
    """Criterion 8 under OPENBLAS_NUM_THREADS=2: two runs of one `train`
    command write the same log and checkpoint bytes. Each 16-sentence
    batch holds over 400 character rows, and two OpenBLAS threads sum the
    weight-gradient products over that many rows in another order than
    one thread does: measured with OpenBLAS 0.3.31 on Haswell kernels,
    a one-thread run writes other checkpoint bytes."""
    train, dev = synthetic.complementary_corpora(9, n_train=32, n_dev=6)
    (tmp_path / "train.conllu").write_text(data.write_conllu(train))
    (tmp_path / "dev.conllu").write_text(data.write_conllu(dev))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    sizes = dict(max_epochs=3, batch_size=16, char_bilstm_layers=1,
                 word_bilstm_layers=1, meta_bilstm_layers=1,
                 char_bilstm_size=32, word_bilstm_size=32,
                 meta_bilstm_size=32, mlp_size=16, char_emb_dim=16,
                 word_emb_dim=16, learning_rate=0.01)
    outputs = []
    for run in ("a", "b"):
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from metatagger import cli; "
             "sys.exit(cli.main(sys.argv[1:]))",
             "train", "--train", "train.conllu", "--dev", "dev.conllu",
             "--checkpoint", f"{run}.ckpt", "--log", f"{run}.log",
             "--seed", "21"]
            + [a for k, v in sizes.items() for a in ("--set", f"{k}={v}")],
            cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=300)
        outputs.append(((tmp_path / f"{run}.log").read_bytes(),
                        (tmp_path / f"{run}.ckpt").read_bytes()))
    assert outputs[0][0].count(b"\n") == 4  # epoch 0 and three trained
    assert outputs[0] == outputs[1]


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained):
        ckpt = training.checkpoint_load(str(trained / "model.ckpt"))
        assert ckpt.config.seed == 7
        log = (trained / "train.log").read_text()
        lines = log.splitlines()
        assert lines[0].startswith("epoch=0 dev_acc=")
        assert len(lines) == 3
        assert all(l.startswith("epoch=") for l in lines)

    @pytest.mark.parametrize("settings, epochs", [
        ([], 3), (["learning_rate=0.0", "patience=1"], 1)])
    def test_train_reports_its_time_on_stderr(self, corpus_dir, tmp_path,
                                              capsys, settings, epochs):
        """One stderr line after the run, counting the epochs trained (an
        early stop included); stdout is the log's lines and the two
        closing lines."""
        log = tmp_path / "train.log"
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--log", str(log), *SMALL_OVERRIDES,
                         "--set", "max_epochs=3",
                         *(f"--set={kv}" for kv in settings)])
        assert code == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(rf"train: {epochs} epochs in \d+\.\d{{3}} s, "
                            r"peak RSS [1-9]\d* MB\n", err), err
        lines = out.splitlines()
        assert lines[:-2] == log.read_text().splitlines()
        assert lines[-2].startswith("best epoch=")

    def test_a_killed_run_keeps_its_log(self, corpus_dir, tmp_path, capsys,
                                        monkeypatch):
        """The log holds every line printed before the run died, and they
        begin an uninterrupted run's log."""
        argv = ["train", "--train", str(corpus_dir / "train.conllu"),
                "--dev", str(corpus_dir / "dev.conllu"), *SMALL_OVERRIDES,
                "--set", "max_epochs=3"]
        assert cli.main(argv + ["--checkpoint", str(tmp_path / "full.ckpt"),
                                "--log", str(tmp_path / "full.log")]) == 0
        full = (tmp_path / "full.log").read_text().splitlines()
        capsys.readouterr()
        epoch = training.train_epoch_synchronous
        calls = []

        def dies_in_the_second_epoch(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return epoch(*args, **kwargs)

        monkeypatch.setattr(training, "train_epoch_synchronous",
                            dies_in_the_second_epoch)
        log = tmp_path / "m.log"
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv + ["--checkpoint", str(tmp_path / "m.ckpt"),
                             "--log", str(log)])
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        assert log.read_text().splitlines() == printed == full[:2]

    def test_dev_split_fallback(self, corpus_dir, tmp_path, capsys):
        code = cli.main(["train",
                         "--train", str(corpus_dir / "train.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        assert "holding out 2 of 12" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["grid", "--sizes", "8:8:8"],
        ["ablate", "--axis", "components", "--seeds", "1"]],
        ids=["grid", "ablate"])
    def test_hold_out_notice_follows_the_csv(self, corpus_dir, command):
        """Printed to one stream, stdout then stderr: the CSV is whole and
        unchanged, and the notice comes after it."""
        argv = [*command, "--train", str(corpus_dir / "train.conllu"),
                "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:]
        both = io.StringIO()
        with contextlib.redirect_stdout(both), \
                contextlib.redirect_stderr(both):
            assert cli.main(argv) == 0
        *printed, notice = both.getvalue().splitlines()
        assert notice == "no dev file given: holding out 2 of 12 sentences"
        assert printed[-1].count(",") == printed[-2].count(",") >= 2


class TestTagAndEval:
    def test_round_trip_and_composition(self, trained, corpus_dir, tmp_path,
                                        capsys):
        out = tmp_path / "tagged.conllu"
        code = cli.main(["tag", "--checkpoint", str(trained / "model.ckpt"),
                         "--input", str(corpus_dir / "dev.conllu"),
                         "--output", str(out)])
        assert code == 0
        reparsed = data.parse_conllu(out.read_text())
        assert len(reparsed) == 4
        capsys.readouterr()
        csv = tmp_path / "r.csv"
        code = cli.main(["eval", "--gold", str(corpus_dir / "dev.conllu"),
                         "--pred", str(out), "--task", "xpos",
                         "--csv", str(csv)])
        assert code == 0
        acc = csv.read_text().splitlines()[1].split(",")[3]
        best = (trained / "train.log").read_text().splitlines()[-1]
        assert best.endswith(f"dev_acc={acc}")

    def test_tag_reports_its_time_on_stderr(self, trained, corpus_dir,
                                            tmp_path, capsys):
        dev = corpus_dir / "dev.conllu"
        n_tokens = sum(len(s.tokens)
                       for s in data.parse_conllu(dev.read_text()))
        assert cli.main(["tag", "--checkpoint", str(trained / "model.ckpt"),
                         "--input", str(dev),
                         "--output", str(tmp_path / "o.conllu")]) == 0
        out, err = capsys.readouterr()
        assert out == f"tagged {n_tokens} tokens in 4 sentences (xpos column)\n"
        assert re.fullmatch(r"tag: load \d+\.\d{3} s, tag \d+\.\d{3} s, "
                            r"\d+ tok/s, peak RSS [1-9]\d* MB\n", err), err

    def test_non_token_lines_pass_through(self, trained, tmp_path):
        text = ("# sent_id = 1\n"
                "1-2\tvamos\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "1\tvamos\t_\t_\tK1\t_\t0\t_\t_\t_\n"
                "2\tnos\t_\t_\tK2\t_\t0\t_\t_\t_\n")
        src = tmp_path / "in.conllu"
        src.write_text(text)
        out = tmp_path / "out.conllu"
        assert cli.main(["tag", "--checkpoint", str(trained / "model.ckpt"),
                         "--input", str(src), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# sent_id = 1"
        assert lines[1] == "1-2\tvamos\t_\t_\t_\t_\t_\t_\t_\t_"
        for line in lines[2:4]:
            cols = line.split("\t")
            assert cols[4] in ("K1", "K2", "S1", "S2")

    def test_malformed_feats_matters_only_to_the_feats_task(
            self, trained, tmp_path, capsys):
        text = ("1\tvamos\t_\t_\tK1\tCase\t0\t_\t_\t_\n"
                "2\tnos\t_\t_\tK2\t_\t0\t_\t_\t_\n")
        src = tmp_path / "in.conllu"
        src.write_text(text)
        out = tmp_path / "out.conllu"
        assert cli.main(["tag", "--checkpoint", str(trained / "model.ckpt"),
                         "--input", str(src), "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0].split("\t")[5] == "Case"
        assert cli.main(["eval", "--gold", str(src), "--pred", str(src),
                         "--task", "xpos"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--gold", str(src), "--pred", str(src),
                         "--task", "feats"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "line 1: malformed feature pair 'Case'" in err

    def test_eval_reports_its_time_on_stderr(self, corpus_dir, tmp_path,
                                             capsys):
        """One stderr line; stdout is the report's lines and the CSV its
        one row, as without the line."""
        dev = corpus_dir / "dev.conllu"
        gold = data.parse_conllu(dev.read_text())
        report = evaluation.score(gold, gold, "xpos")
        csv = tmp_path / "r.csv"
        assert cli.main(["eval", "--gold", str(dev), "--pred", str(dev),
                         "--csv", str(csv)]) == 0
        out, err = capsys.readouterr()
        assert out == "".join(line + "\n" for line in report.lines())
        assert csv.read_text() == (
            f"task,total,correct,accuracy\nxpos,{report.total},"
            f"{report.total},1.000000\n")
        assert re.fullmatch(rf"eval: {report.total} tokens in \d+\.\d{{3}} s, "
                            r"\d+ tok/s\n", err), err

    def test_eval_identical_files(self, corpus_dir, capsys):
        gold = str(corpus_dir / "dev.conllu")
        assert cli.main(["eval", "--gold", gold, "--pred", gold]) == 0
        assert "accuracy: 1.0000" in capsys.readouterr().out

    def test_eval_misaligned_is_data_error(self, corpus_dir):
        assert cli.main(["eval",
                         "--gold", str(corpus_dir / "dev.conllu"),
                         "--pred", str(corpus_dir / "train.conllu")]) == 2


class TestGridAndAblate:
    def test_grid_single_cell(self, corpus_dir, tmp_path):
        out = tmp_path / "g.csv"
        code = cli.main(["grid", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--sizes", "8:8:8", "--out", str(out),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "char_size,word_size,dev_accuracy"
        assert len(lines) == 2
        assert lines[1].startswith("8,8,0.")

    def test_grid_ordering(self, corpus_dir, tmp_path):
        out = tmp_path / "g.csv"
        code = cli.main(["grid", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--sizes", "8:16:8", "--out", str(out),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        cells = [tuple(map(int, l.split(",")[:2]))
                 for l in out.read_text().splitlines()[1:]]
        assert cells == [(8, 8), (8, 16), (16, 8), (16, 16)]

    def test_bad_sizes_is_usage(self, corpus_dir):
        assert cli.main(["grid", "--train", str(corpus_dir / "train.conllu"),
                         "--sizes", "pocket"]) == 1

    @pytest.mark.parametrize("sizes, message", [
        ("4:x:1", "--sizes expects integers, got '4:x:1'"),
        ("8:4:1", "--sizes range is empty or invalid: '8:4:1'")])
    def test_sizes_that_are_no_range_are_usage(self, corpus_dir, capsys,
                                               sizes, message):
        assert cli.main(["grid", "--train", str(corpus_dir / "train.conllu"),
                         "--sizes", sizes]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_a_huge_sizes_range_reaches_its_first_cell(self, monkeypatch):
        """More sizes than ``sys.maxsize`` allocate nothing up front: the
        grid starts training its first cell."""
        cells = []

        def interrupted(model, *args, **kwargs):
            cells.append((model.config.char_bilstm_size,
                          model.config.word_bilstm_size))
            raise KeyboardInterrupt

        monkeypatch.setattr(training, "train_model", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["grid", "--sizes", f"1:{10 ** 21}:1",
                      "--train", str(FIXTURES / "tiny.conllu")])
        assert cells == [(1, 1)]

    @pytest.mark.parametrize("command", [
        ["grid", "--sizes", "8:8:8"],
        ["ablate", "--axis", "components", "--seeds", "1"]])
    def test_without_out_the_csv_goes_to_stdout(self, corpus_dir, tmp_path,
                                                capsys, command):
        argv = [*command, "--train", str(corpus_dir / "train.conllu"),
                "--dev", str(corpus_dir / "dev.conllu"),
                "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:]
        out = tmp_path / "o.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        written = capsys.readouterr().out.splitlines(keepends=True)
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        # ablate prints its table first, with --out or without
        table = "".join(written[:-1])
        assert printed == table + out.read_text()

    def test_ablate_components_csv(self, corpus_dir, tmp_path, monkeypatch):
        trained, scored = [], []

        def accuracies(model, dev):  # each head's own score of the seed
            scored.append(model.config.seed)
            return {"char": model.config.seed / 10,
                    "word": model.config.seed / 100,
                    "meta": model.config.seed / 1000}

        monkeypatch.setattr(training, "train_model",
                            lambda *args: trained.append(args))
        monkeypatch.setattr(training, "accuracies", accuracies)
        out = tmp_path / "a.csv"
        code = cli.main(["ablate", "--axis", "components", "--seeds", "2",
                         "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--out", str(out),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "config,seed,task,accuracy"
        configs = [l.split(",")[0] for l in lines[1:]]
        assert configs == ["char-only"] * 2 + ["word-only"] * 2 + ["meta"] * 2
        assert len(trained) == 2  # one model per seed scores all three heads
        assert len(scored) == 2  # from one pass over dev
        # each label's rows in seed order, each its seed's model's score
        assert scored[1] == scored[0] + 1
        assert [l.split(",")[3] for l in lines[1:]] == [
            f"{seed / scale:.6f}" for scale in (10, 100, 1000)
            for seed in scored]

    def test_ablate_gather_enumerates_strategies(self, corpus_dir, tmp_path,
                                                 monkeypatch):
        """Gather acts on the sentence-level character encoder alone, so
        each gather model sets it, whatever the config's."""
        configs = []
        monkeypatch.setattr(training, "train_model",
                            lambda model, *args: configs.append(model.config))
        out = tmp_path / "a.csv"
        code = cli.main(["ablate", "--axis", "gather", "--seeds", "1",
                         "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--out", str(out), "--set", "char_encoder=token",
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        labels = [l.split(",")[0] for l in out.read_text().splitlines()[1:]]
        assert labels == ["F_last+B_1st", "F_1st+B_last",
                          "F_last+B_last", "F_1st+B_1st"]
        assert [(c.char_encoder, c.gather) for c in configs] == [
            ("sentence", strategy) for strategy in cli.GATHER_ABLATION]

    def test_a_cell_that_fails_to_train_records_its_error(
            self, corpus_dir, tmp_path, monkeypatch):
        train_model = training.train_model

        def fails_at_16(model, *args, **kwargs):
            if model.config.char_bilstm_size == 16:
                raise ValueError("diverged, badly")
            return train_model(model, *args, **kwargs)

        monkeypatch.setattr(training, "train_model", fails_at_16)
        out = tmp_path / "g.csv"
        code = cli.main(["grid", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--sizes", "8:16:8", "--out", str(out),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0].startswith("8,8,0.") and rows[1].startswith("8,16,0.")
        assert rows[2:] == ["16,8,error: diverged; badly",
                            "16,16,error: diverged; badly"]

    @pytest.mark.parametrize("argv", [
        ["grid", "--sizes", "8:16:8"],
        ["ablate", "--axis", "components", "--seeds", "2"],
    ], ids=["grid", "ablate"])
    def test_inputs_are_read_once(self, corpus_dir, tmp_path, monkeypatch,
                                  argv):
        """Four grid cells, or two ablation seeds, train from one read of
        the vectors file."""
        reads = []
        load = data.load_pretrained

        def counted(*args, **kwargs):
            reads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(data, "load_pretrained", counted)
        code = cli.main(argv + ["--train", str(corpus_dir / "train.conllu"),
                                "--dev", str(corpus_dir / "dev.conllu"),
                                "--pretrained", str(FIXTURES / "vectors.txt"),
                                "--out", str(tmp_path / "out.csv"),
                                "--set", "max_epochs=1"]
                        + SMALL_OVERRIDES[2:])
        assert code == 0
        assert len(reads) == 1

    def test_zero_seeds_is_usage(self, corpus_dir):
        assert cli.main(["ablate", "--axis", "context", "--seeds", "0",
                         "--train", str(corpus_dir / "train.conllu")]) == 1


# --- malformed train/tag inputs: exit 0, 1 or 2, one line, no traceback ----

TINY_RUN = ["--set", "max_epochs=0", "--set", "batch_size=2",
            "--set", "char_bilstm_layers=1", "--set", "word_bilstm_layers=1",
            "--set", "meta_bilstm_layers=1", "--set", "char_bilstm_size=2",
            "--set", "word_bilstm_size=2", "--set", "meta_bilstm_size=2",
            "--set", "mlp_size=2", "--set", "char_emb_dim=2",
            "--set", "word_emb_dim=2"]


@st.composite
def conllu_texts(draw):
    """CoNLL-U text with CRLF line ends, 9 or 11 columns, range ids, empty
    forms and malformed FEATS mixed into well-formed lines."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        for i in range(draw(st.integers(1, 3))):
            tok_id = draw(st.sampled_from([str(i + 1)] * 4 + [f"{i + 1}-2"]))
            form = draw(st.sampled_from(["ab", "b", "ca", "a b"] * 2 + [""]))
            feats = draw(st.sampled_from(["_", "Case=Nom", "Case=Nom|Num=Sg",
                                          "Case", "=", "Case=Nom|"]))
            xpos = draw(st.sampled_from(["X1", "X2"]))
            cols = [tok_id, form, "_", "K1", xpos, feats, "0", "_", "_", "_"]
            n_cols = draw(st.sampled_from([10] * 10 + [9, 11]))
            lines.append("\t".join((cols + ["_"])[:n_cols]))
        lines.append("")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def embedding_texts(draw):
    """A vector file for the forms of ``GOOD_CONLLU``: maybe a header,
    maybe no vectors, dimensions that may disagree between lines."""
    lines = [draw(st.sampled_from(["", "3 2\n", "2 3\n"]))]
    for form in draw(st.lists(st.sampled_from(["ab", "b", "zz"]),
                              max_size=3)):
        dim = draw(st.integers(1, 3))
        values = draw(st.lists(st.sampled_from(["0.5", "-1", "x", "nan"]),
                               min_size=dim, max_size=dim))
        lines.append(" ".join([form] + values) + "\n")
    return "".join(lines)


GOOD_CONLLU = ("1\tab\t_\t_\tX1\t_\t0\t_\t_\t_\n"
               "2\tb\t_\t_\tX2\t_\t0\t_\t_\t_\n\n"
               "1\tb\t_\t_\tX2\t_\t0\t_\t_\t_\n\n")


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A scratch directory holding a tiny checkpoint per task, trained on
    ``GOOD_CONLLU``."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "good.conllu").write_text(GOOD_CONLLU)
    for task in ("xpos", "feats"):
        assert run_quietly(["train", "--train", str(d / "good.conllu"),
                            "--dev", str(d / "good.conllu"), "--task", task,
                            "--checkpoint", str(d / f"{task}.ckpt")]
                           + TINY_RUN)[0] == 0
    return d


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=conllu_texts(), task=st.sampled_from(["xpos", "feats"]),
       with_dev=st.booleans())
def test_malformed_conllu_exits_cleanly(fuzz_dir, text, task, with_dev):
    """``train`` on a fuzzed corpus, and ``tag`` of it with a good model."""
    corpus = fuzz_dir / "corpus.conllu"
    corpus.write_bytes(text.encode("utf-8"))
    dev = ["--dev", str(corpus)] if with_dev else []
    assert_clean_exit(*run_quietly(
        ["train", "--train", str(corpus), *dev, "--task", task,
         "--checkpoint", str(fuzz_dir / "m.ckpt")] + TINY_RUN))
    assert_clean_exit(*run_quietly(
        ["tag", "--checkpoint", str(fuzz_dir / f"{task}.ckpt"),
         "--input", str(corpus), "--output", str(fuzz_dir / "tagged.conllu")]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(vectors=embedding_texts())
def test_malformed_embeddings_exit_cleanly(fuzz_dir, vectors):
    emb = fuzz_dir / "vectors.txt"
    emb.write_text(vectors)
    good = str(fuzz_dir / "good.conllu")
    code, err = run_quietly(["train", "--train", good, "--dev", good,
                             "--pretrained", str(emb),
                             "--checkpoint", str(fuzz_dir / "e.ckpt")]
                            + TINY_RUN)
    assert_clean_exit(code, err)
    dims = {len(l.split()) - 1 for l in vectors.splitlines()
            if not l[0].isdigit()}  # the header is the one numeric line
    if len(dims) != 1:  # ragged, or a header and no vectors
        assert code == 2


CONFIG_KEYS = ([f.name for f in dataclasses.fields(training.TrainConfig)]
               + list(cli.PATH_KEYS) + ["colour", "Seed", "seed seed"])
CONFIG_VALUES = ["", "nan", "-inf", "1_0", "1.0", "2", "0", "-1", "0.5",
                 "true", "sentence", "joint", "F_1st,,B_last", str(10 ** 40),
                 "9" * 5000, "a\x00b"]


@st.composite
def config_files(draw):
    """Config file bytes: ``key = value`` lines over the config's fields,
    its path keys and unknown keys, mixed with comments, blank lines and
    lines without '=', values that are no number or not UTF-8, maybe a
    byte-order mark, LF or CRLF ends."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(CONFIG_KEYS)).encode()
        value = draw(st.sampled_from(
            [v.encode() for v in CONFIG_VALUES] * 4 + [b"\xff", b"x\xe9"]))
        lines.append(draw(st.sampled_from(
            [key + b" = " + value] * 8 + [key + b"=" + value] * 2
            + [key, b"# " + key, b"", b"\x00"])))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    bom = draw(st.sampled_from([b""] * 3 + [b"\xef\xbb\xbf"]))
    return bom + b"".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=config_files())
def test_malformed_config_exits_cleanly(fuzz_dir, text):
    """``train`` with a fuzzed config file; the size keys and paths that
    the flags set never reach the run."""
    config = fuzz_dir / "fuzzed.cfg"
    config.write_bytes(text)
    good = str(fuzz_dir / "good.conllu")
    assert_clean_exit(*run_quietly(
        ["train", "--config", str(config), "--train", good, "--dev", good,
         "--checkpoint", str(fuzz_dir / "c.ckpt"),
         "--log", str(fuzz_dir / "c.log")] + TINY_RUN))
