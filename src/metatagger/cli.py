"""Command-line workflows binding the modules together.

Subcommands: train, tag, eval, grid, ablate. Configuration comes from
three layers, later ones winning: a config file of `key = value` lines
(full-line '#' comments allowed), repeated `--set key=value` flags, and
the dedicated flags (--task, --seed, --optimization, file paths). The
METATAGGER_SEED environment variable supplies the default seed when no
layer sets one. `train --print-config` dumps the effective configuration
and exits.

Path keys accepted in config files: train_file, dev_file, pretrained_file,
checkpoint_file, log_file.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(unreadable, unwritable or malformed files, alignment failures, corrupt
checkpoints, training driven to non-finite values).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import resource
import sys
import time
from pathlib import Path

# One BLAS thread unless the user says otherwise: the two directions of an
# LSTM layer already run on two threads, and each would otherwise drive one
# OpenBLAS thread per core. This must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import data, evaluation, training  # noqa: E402
from .tensor import NonFiniteError  # noqa: E402

SEED_ENV = "METATAGGER_SEED"
PATH_KEYS = ("train_file", "dev_file", "pretrained_file",
             "checkpoint_file", "log_file")

GATHER_ABLATION = ("F_last,B_1st", "F_1st,B_last",
                   "F_last,B_last", "F_1st,B_1st")


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_corpus(path: str, task: str) -> list[data.Sentence]:
    return data.parse_conllu(_read_text(path), task)


def read_config_file(path: str) -> dict[str, str]:
    """`key = value` lines; blank lines and full-line '#' comments skipped."""
    values = {}
    for n, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliUsageError(f"{path}:{n}: expected key = value, "
                                f"got {line!r}")
        values[key.strip()] = value.strip()
    return values


def effective_config(ns) -> tuple[training.TrainConfig, dict[str, str]]:
    """Merge env seed, config file, --set pairs, and dedicated flags."""
    cfg_vals: dict[str, object] = {}
    paths: dict[str, str] = {}
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        cfg_vals["seed"] = env_seed
    if getattr(ns, "config", None):
        for key, value in read_config_file(ns.config).items():
            (paths if key in PATH_KEYS else cfg_vals)[key] = value
    for item in getattr(ns, "set", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise CliUsageError(f"--set expects key=value, got {item!r}")
        key, value = key.strip(), value.strip()
        (paths if key in PATH_KEYS else cfg_vals)[key] = value
    for flag in ("task", "seed", "optimization"):
        value = getattr(ns, flag, None)
        if value is not None:
            cfg_vals[flag] = value
    for flag, key in (("train", "train_file"), ("dev", "dev_file"),
                      ("pretrained", "pretrained_file"),
                      ("checkpoint", "checkpoint_file"),
                      ("log", "log_file")):
        value = getattr(ns, flag, None)
        if value is not None:
            paths[key] = value
    try:
        config = training.config_from_dict(cfg_vals)
    except ValueError as e:
        raise CliUsageError(str(e)) from None
    return config, paths


def _corpora(config, paths) -> tuple[list[data.Sentence], list[data.Sentence]]:
    if "train_file" not in paths:
        raise CliUsageError("a training corpus is required "
                            "(--train or train_file in the config)")
    train_sents = _parse_corpus(paths["train_file"], config.task)
    if "dev_file" in paths:
        dev_sents = _parse_corpus(paths["dev_file"], config.task)
    else:
        train_sents, dev_sents = data.dev_split(train_sents, fraction=0.1,
                                                seed=config.seed)
        print(f"no dev file given: holding out {len(dev_sents)} "
              f"of {len(dev_sents) + len(train_sents)} sentences",
              file=sys.stderr)
    return train_sents, dev_sents


def _check_destination(path: str) -> None:
    """Raise the OSError that writing ``path`` during a run would: its
    directory must exist and the path must not be a directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_train(ns) -> int:
    config, paths = effective_config(ns)
    if ns.print_config:
        sys.stdout.write(training.print_config(config))
        return 0
    if "checkpoint_file" not in paths:
        raise CliUsageError("a checkpoint path is required "
                            "(--checkpoint or checkpoint_file in the config)")
    real = {key: os.path.realpath(path) for key, path in paths.items()}
    for key in ("checkpoint_file", "log_file"):
        if key in paths:
            _check_destination(paths[key])
            same = [k for k in PATH_KEYS  # files the run would overwrite
                    if k != key and real.get(k) == real[key]]
            if same:
                raise CliUsageError(f"{key} and {same[0]} are the same "
                                    f"file: {paths[key]}")
    train_sents, dev_sents = _corpora(config, paths)
    log_lines: list[str] = []

    def emit(line: str) -> None:
        print(line)
        log_lines.append(line)

    t0 = time.perf_counter()
    ckpt = training.train(config, train_sents, dev_sents,
                          pretrained_path=paths.get("pretrained_file"),
                          log=emit, path=paths["checkpoint_file"])
    seconds = time.perf_counter() - t0
    if "log_file" in paths:
        Path(paths["log_file"]).write_text("\n".join(log_lines) + "\n",
                                           encoding="utf-8")
    print(f"best epoch={ckpt.best_epoch} dev_acc={ckpt.best_score:.6f}")
    print(f"checkpoint written to {paths['checkpoint_file']}")
    epochs = sum(line.startswith("epoch=") for line in log_lines) - 1
    print(f"train: {epochs} epochs in {seconds:.3f} s, "
          f"peak RSS {_peak_rss_mb():.0f} MB", file=sys.stderr)
    return 0


def cmd_tag(ns) -> int:
    _check_destination(ns.output)
    t0 = time.perf_counter()
    ckpt = training.checkpoint_load(ns.checkpoint)
    model = ckpt.rebuild()
    t1 = time.perf_counter()
    sentences = _parse_corpus(ns.input, ckpt.config.task)
    data.assign_ids(sentences, ckpt.vocabs)
    t2 = time.perf_counter()
    tags = training.tag_corpus(model, sentences)
    t3 = time.perf_counter()
    text = data.write_conllu(sentences, tags, task=ckpt.config.task)
    Path(ns.output).write_text(text, encoding="utf-8")
    n_tokens = sum(len(s.tokens) for s in sentences)
    print(f"tagged {n_tokens} tokens in {len(sentences)} sentences "
          f"({ckpt.config.task} column)")
    rate = n_tokens / (t3 - t2) if t3 > t2 else 0.0
    print(f"tag: load {t1 - t0:.3f} s, tag {t3 - t2:.3f} s, {rate:.0f} tok/s, "
          f"peak RSS {_peak_rss_mb():.0f} MB", file=sys.stderr)
    return 0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (2**20 bytes);
    ``ru_maxrss`` counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def cmd_eval(ns) -> int:
    if ns.csv:
        _check_destination(ns.csv)
    gold = _parse_corpus(ns.gold, ns.task)
    pred = _parse_corpus(ns.pred, ns.task)
    report = evaluation.score(gold, pred, ns.task)
    for line in report.lines():
        print(line)
    if ns.csv:
        Path(ns.csv).write_text(
            "task,total,correct,accuracy\n"
            f"{report.task},{report.total},{report.correct},"
            f"{report.accuracy:.6f}\n", encoding="utf-8")
    return 0


def _parse_sizes(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliUsageError(f"--sizes expects start:stop:step, got {spec!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise CliUsageError(f"--sizes expects integers, got {spec!r}") \
            from None
    if step <= 0 or stop < start or start <= 0:
        raise CliUsageError(f"--sizes range is empty or invalid: {spec!r}")
    return list(range(start, stop + 1, step))


def cmd_grid(ns) -> int:
    sizes = _parse_sizes(ns.sizes)
    config, paths = effective_config(ns)
    if ns.out:
        _check_destination(ns.out)
    train_sents, dev_sents = _corpora(config, paths)
    pretrained = paths.get("pretrained_file")
    lines = ["char_size,word_size,dev_accuracy"]
    for char_size in sizes:
        for word_size in sizes:
            cell = dataclasses.replace(config, char_bilstm_size=char_size,
                                       word_bilstm_size=word_size)
            try:
                ckpt = training.train(cell, train_sents, dev_sents,
                                      pretrained_path=pretrained)
                value = f"{ckpt.best_score:.6f}"
            except Exception as e:
                value = "error: " + str(e).replace(",", ";").replace("\n", " ")
            lines.append(f"{char_size},{word_size},{value}")
    csv = "\n".join(lines) + "\n"
    if ns.out:
        Path(ns.out).write_text(csv, encoding="utf-8")
        print(f"grid written to {ns.out} ({(len(lines) - 1)} cells)")
    else:
        sys.stdout.write(csv)
    return 0


def _ablation_variants(axis: str):
    """(label, config overrides, evaluation head) per variant. The gather
    and context axes score the character head in isolation; optimization
    is judged on the combined head; components scores each head of one
    model."""
    if axis == "gather":
        return [(strategy.replace(",", "+"), {"gather": strategy}, "char")
                for strategy in GATHER_ABLATION]
    if axis == "context":
        return [("sentence-chars", {"char_encoder": "sentence"}, "char"),
                ("token-chars", {"char_encoder": "token"}, "char")]
    if axis == "optimization":
        return [("separate", {"optimization": "separate"}, "meta"),
                ("joint", {"optimization": "joint"}, "meta")]
    if axis == "components":
        return [("char-only", {}, "char"), ("word-only", {}, "word"),
                ("meta", {}, "meta")]
    raise CliUsageError(f"unknown ablation axis {axis!r}")


def cmd_ablate(ns) -> int:
    if ns.seeds < 1:
        raise CliUsageError("--seeds must be at least 1")
    config, paths = effective_config(ns)
    if ns.out:
        _check_destination(ns.out)
    train_sents, dev_sents = _corpora(config, paths)
    variants = _ablation_variants(ns.axis)
    results = {label: [] for label, _, _ in variants}
    for k in range(ns.seeds):
        trained_with = None
        for label, overrides, head in variants:
            # consecutive variants with equal overrides share one model
            if overrides != trained_with:
                cfg = dataclasses.replace(config, seed=config.seed + k,
                                          **overrides)
                model, tr, dv = training.prepare(
                    cfg, train_sents, dev_sents,
                    pretrained_path=paths.get("pretrained_file"))
                training.train_model(model, tr, dv)
                trained_with = overrides
            results[label].append(training.evaluate(model, dv, head))
    rows = evaluation.ablation_report(results)
    print(evaluation.render_table(rows))
    csv = evaluation.render_csv(rows, task=config.task)
    if ns.out:
        Path(ns.out).write_text(csv, encoding="utf-8")
        print(f"rows written to {ns.out}")
    else:
        sys.stdout.write(csv)
    return 0


def _add_config_flags(sub, with_checkpoint=False):
    sub.add_argument("--config", help="config file of key = value lines")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--task", choices=("upos", "xpos", "feats"))
    sub.add_argument("--seed", type=int)
    sub.add_argument("--optimization", choices=("separate", "joint"))
    sub.add_argument("--train", metavar="CONLLU")
    sub.add_argument("--dev", metavar="CONLLU")
    sub.add_argument("--pretrained", metavar="VECTORS")
    if with_checkpoint:
        sub.add_argument("--checkpoint", metavar="PATH")
        sub.add_argument("--log", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metatagger",
                     description="three-view morphosyntactic tagger")
    subs = parser.add_subparsers(dest="command", metavar="command")

    p = subs.add_parser("train", help="train and write a checkpoint")
    _add_config_flags(p, with_checkpoint=True)
    p.add_argument("--print-config", action="store_true",
                   help="print the effective config and exit")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("tag", help="annotate a CoNLL-U file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, metavar="CONLLU")
    p.add_argument("--output", required=True, metavar="CONLLU")
    p.set_defaults(func=cmd_tag)

    p = subs.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True, metavar="CONLLU")
    p.add_argument("--pred", required=True, metavar="CONLLU")
    p.add_argument("--task", default="xpos", choices=("upos", "xpos", "feats"))
    p.add_argument("--csv", metavar="PATH", help="also write a one-row CSV")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("grid", help="LSTM-size grid search")
    _add_config_flags(p)
    p.add_argument("--sizes", default="200:500:50", metavar="START:STOP:STEP")
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=cmd_grid)

    p = subs.add_parser("ablate", help="run one ablation axis over seeds")
    _add_config_flags(p)
    p.add_argument("--axis", required=True,
                   choices=("gather", "context", "optimization", "components"))
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return ns.func(ns)
    except CliUsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NonFiniteError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # data.DataError, evaluation.AlignmentError, ...
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # a file named on the command line or in a config
        where = f"{e.filename}: " if e.filename is not None else ""
        print(f"data error: {where}{e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
