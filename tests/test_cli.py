"""CLI behavior: config layering, exit codes, file round trips."""

from pathlib import Path

import pytest

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
    """One small checkpoint shared by the tag/eval tests."""
    d = tmp_path_factory.mktemp("run")
    ckpt = d / "model.ckpt"
    log = d / "train.log"
    code = cli.main(["train", "--train", str(corpus_dir / "train.conllu"),
                     "--dev", str(corpus_dir / "dev.conllu"),
                     "--checkpoint", str(ckpt), "--log", str(log),
                     "--seed", "7"] + SMALL_OVERRIDES)
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


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained):
        ckpt = training.checkpoint_load(str(trained / "model.ckpt"))
        assert ckpt.config.seed == 7
        log = (trained / "train.log").read_text()
        lines = log.splitlines()
        assert lines[0].startswith("epoch=0 dev_acc=")
        assert len(lines) == 3
        assert all(l.startswith("epoch=") for l in lines)

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

    def test_ablate_components_csv(self, corpus_dir, tmp_path):
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
