"""CLI behavior: config layering, exit codes, file round trips."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatagger import cli, data, synthetic, training

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


def set_first(ids: dict, value) -> None:
    """Give the first entry of a vocabulary map the id ``value``."""
    ids[next(iter(ids))] = value


def on_token_checkpoint(mutate):
    """Mark a manifest mutation as one of token.ckpt, not model.ckpt."""
    mutate.checkpoint = "token.ckpt"
    return mutate


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

    @pytest.mark.parametrize("setting", [
        "word_bilstm_layers=0", "meta_bilstm_layers=0", "mlp_size=0",
        "char_bilstm_size=-1", "char_emb_dim=0", "word_emb_dim=0",
        "lstm_dropout=1.5", "optimizer=sgd", "mlp_activation=relu",
        "loss=hinge", "word_emb_init=gaussian", "mlp_init=foo",
        "lstm_init=foo", "char_emb_init=foo", "seed=-1",
        "learning_rate=nan", "decay=1.5", "beta1=1", "beta2=1",
        "adam_epsilon=0", "patience=-1"])
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

        monkeypatch.setattr(training, "train", never)
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

        for module, attr in ((training, "train"), (training, "train_model"),
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
                                               capsys):
        train = data.parse_conllu((corpus_dir / "train.conllu").read_text())
        vectors = tmp_path / "nan.vec"
        vectors.write_text("".join(f"{t.form} nan nan nan nan nan nan\n"
                                   for t in train[0].tokens))
        code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--pretrained", str(vectors),
                         "--checkpoint", str(tmp_path / "m.ckpt")]
                        + SMALL_OVERRIDES)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-finite" in err


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_exits_cleanly(trained, corpus_dir,
                                          checkpoint_parts, data):
    """A checkpoint cut at any byte, or with one manifest value replaced,
    makes ``tag`` exit 0, 1 or 2, with one stderr line when not 0."""
    blob, head, body, paths = checkpoint_parts
    if data.draw(st.booleans(), label="truncate"):
        mutated = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        manifest = json.loads(head)
        *parents, last = data.draw(st.sampled_from(paths), label="path")
        target = manifest
        for key in parents:
            target = target[key]
        target[last] = data.draw(JSON_VALUES, label="value")
        mutated = json.dumps(manifest).encode() + b"\n" + body
    bad = trained / "fuzzed.ckpt"
    bad.write_bytes(mutated)
    assert_clean_exit(*run_quietly(
        ["tag", "--checkpoint", str(bad),
         "--input", str(corpus_dir / "dev.conllu"),
         "--output", str(trained / "fuzzed.conllu")]))


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

    def test_dev_split_fallback(self, corpus_dir, tmp_path, capsys):
        code = cli.main(["train",
                         "--train", str(corpus_dir / "train.conllu"),
                         "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        assert "holding out 2 of 12" in capsys.readouterr().err


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

    def test_ablate_components_csv(self, corpus_dir, tmp_path, monkeypatch):
        trained = []
        train_model = training.train_model

        def counted(*args):
            trained.append(args)
            return train_model(*args)

        monkeypatch.setattr(training, "train_model", counted)
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

    def test_ablate_gather_enumerates_strategies(self, corpus_dir, tmp_path):
        out = tmp_path / "a.csv"
        code = cli.main(["ablate", "--axis", "gather", "--seeds", "1",
                         "--train", str(corpus_dir / "train.conllu"),
                         "--dev", str(corpus_dir / "dev.conllu"),
                         "--out", str(out),
                         "--set", "max_epochs=1"] + SMALL_OVERRIDES[2:])
        assert code == 0
        configs = [l.split(",")[0]
                   for l in out.read_text().splitlines()[1:]]
        assert configs == ["F_last+B_1st", "F_1st+B_last",
                           "F_last+B_last", "F_1st+B_1st"]

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
