"""One benchmark workload in one process; perfbench/run.py starts it.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        [--spans PATH] [--tiny]

Prints one JSON object: correct, attempted, failed, metrics and env.
With --spans the run is traced and also writes its spans to PATH.
--tiny shrinks every size, for the benchmark's own tests.

The workload repeats its unit of work (set-up, one training epoch and an
evaluation; or one tagging round) while the next one still fits in
--seconds, and at least twice, because the repetitions must agree
exactly. Timings are medians over repetitions and set-ups.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from metatagger import data, synthetic, training  # noqa: E402
from metatagger import tensor as T  # noqa: E402

import checks  # noqa: E402
from metrics import EXACT_COUNTS, PASS_TOK_S  # noqa: E402
from tracing import Patches, Tracer, now  # noqa: E402

# A frozen copy of SMALL in scripts/run_experiments.py: editing the script
# must not change what this benchmark measures.
DESK_CONFIG = dict(batch_size=8, char_bilstm_layers=1, word_bilstm_layers=1,
                   meta_bilstm_layers=1, char_bilstm_size=24,
                   word_bilstm_size=24, meta_bilstm_size=24, mlp_size=24,
                   char_emb_dim=12, word_emb_dim=12, lstm_dropout=0.1,
                   mlp_dropout=0.1, word_emb_dropout=0.1,
                   char_emb_dropout=0.0, learning_rate=0.01,
                   mlp_init="scaled", char_emb_init="scaled")
# The paper workloads' default sizes, shrunk for the tests.
TINY_CONFIG = dict(char_bilstm_size=6, word_bilstm_size=6,
                   meta_bilstm_size=6, mlp_size=6, char_emb_dim=4,
                   word_emb_dim=4)

# paper-tag's vocabulary comes from this fixed corpus and its model from
# the config's fixed default seed, so the checkpoint never depends on the
# workload seed.
TAG_VOCAB_SEED = 0


@dataclass(frozen=True)
class TrainSize:
    config: dict  # TrainConfig fields; {} keeps the defaults
    n_train: int
    n_dev: int
    acc_floor: float  # meta dev accuracy each repetition must reach
    setups: int  # extra set-ups before the repetitions, for setup_s


@dataclass(frozen=True)
class TagSize:
    config: dict
    n_sentences: int
    max_len: int  # tokens before the closing period
    setups: int  # checkpoint loads, for setup_s; the last one is tagged with


SIZES = {
    "desk-train": TrainSize(DESK_CONFIG, 400, 200, 0.95, 10),
    "paper-train": TrainSize({}, 32, 16, 0.0, 3),
    "paper-tag": TagSize({}, 24, 40, 5),
}
TINY = {
    "desk-train": TrainSize(DESK_CONFIG, 16, 4, 0.0, 2),
    "paper-train": TrainSize(TINY_CONFIG, 8, 2, 0.0, 2),
    "paper-tag": TagSize(TINY_CONFIG, 3, 6, 2),
}


@dataclass
class Outcome:
    """What a workload measured and found wrong."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    setup_windows: list = field(default_factory=list)
    rep_windows: list = field(default_factory=list)
    reference: list | None = None  # outputs of the first repetition

    def ops(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def crashed(self, attempted: int, failed: int) -> None:
        """Count a failed operation that raised; the run goes on."""
        self.ops(attempted, failed, [traceback.format_exc().rstrip()])

    def repeatable(self, outputs: list, what: str) -> None:
        """Compare a repetition's outputs with the first repetition's."""
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.problems.append(f"{what} differs from the first one")


def repeat(seconds: float, unit_of_work) -> None:
    """Call ``unit_of_work`` twice, then again while one more call of the
    last call's length still ends within ``seconds`` of the start."""
    start = now()
    done = 0
    last = 0.0
    while done < 2 or now() - start + last <= seconds:
        t = now()
        unit_of_work()
        last = now() - t
        done += 1


class ViewAdam(training.Adam):
    """The benchmark's optimizer for one view. A pass calls ``zero_grad``
    before each of its batches and once after the last, so the first and
    last calls in an epoch mark where the pass starts and ends."""

    def __init__(self, view: str, params, config, tracer: Tracer | None):
        super().__init__(params, lr=config.learning_rate,
                         decay=config.decay, beta1=config.beta1,
                         beta2=config.beta2, epsilon=config.adam_epsilon)
        self.view = view
        self.tracer = tracer
        self.marks: list[float] = []
        self.steps_done = 0

    def zero_grad(self) -> None:
        self.marks.append(now())
        if self.tracer is not None and self.tracer.pass_name != self.view:
            self.tracer.begin_pass(self.view)
        super().zero_grad()

    def step(self) -> None:
        if self.tracer is None:
            super().step()
        else:
            self.tracer.count("training.adam.steps")
            with self.tracer.span("training.Adam.step"):
                super().step()
        self.steps_done += 1


def tap_losses(patches: Patches, losses: list) -> None:
    """Append each batch loss to ``losses``: every training batch calls
    Graph.backward once, with its loss."""
    def make(backward):
        def tapped(graph, loss):
            losses.append(loss.item())
            return backward(graph, loss)
        return tapped
    patches.method(T.Graph, "backward", make)


# ---------------------------------------------------------------------------
# desk-train and paper-train

def train_workload(size: TrainSize, seed: int, seconds: float,
                   tracer: Tracer | None, out: Outcome) -> None:
    """Train on complementary corpora made from ``seed``, in repetitions
    that each start from a fresh set-up."""
    config = training.TrainConfig(seed=seed, **size.config)
    train, dev = synthetic.complementary_corpora(
        seed, n_train=size.n_train, n_dev=size.n_dev)
    texts = data.write_conllu(train), data.write_conllu(dev)
    losses: list[float] = []
    patches = Patches()
    tap_losses(patches, losses)
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(size.setups):
            _setup(config, texts, tracer, out)
        repeat(seconds, lambda: _train_rep(size, config, texts, seed, tracer,
                                           out, losses))
    finally:
        if tracer is not None:
            tracer.uninstall()
        patches.restore()


def _setup(config, texts, tracer, out):
    """From corpus text to a ready model, as ``metatagger train`` does."""
    if tracer is not None:
        tracer.begin_window()
    t = now()
    ready = training.prepare(
        config, data.parse_conllu(texts[0]), data.parse_conllu(texts[1]))
    out.samples["setup_s"].append(now() - t)
    if tracer is not None:
        out.setup_windows.append(tracer.end_window())
    return ready


def _train_rep(size, config, texts, seed, tracer, out, losses) -> None:
    """Set up from text, train one epoch, then evaluate on dev."""
    model, train, dev = _setup(config, texts, tracer, out)
    if tracer is not None:
        tracer.begin_window()
        tracer.begin("epoch")
    n_train = sum(len(s) for s in train)
    n_dev = sum(len(s) for s in dev)
    opts = [ViewAdam("char", model.char_parameters(), config, tracer),
            ViewAdam("word", model.word_parameters(), config, tracer),
            ViewAdam("meta", model.meta_parameters(), config, tracer)]
    order_seed, dropout_seed = np.random.SeedSequence(seed).spawn(2)
    order = np.random.default_rng(order_seed).permutation(len(train))
    losses.clear()
    t0 = now()
    try:
        training.train_epoch_synchronous(
            model, *opts, train, order, config.batch_size,
            np.random.default_rng(dropout_seed))
    except Exception:
        done = sum(opt.steps_done for opt in opts)
        out.crashed(done + 1, checks.nonfinite(losses[:done]) + 1)
        if tracer is not None:
            tracer.reset()
        return
    t1 = now()
    bad = checks.nonfinite(losses)
    out.ops(len(losses), bad,
            [f"{bad} non-finite batch losses"] if bad else [])
    out.samples["tok_s"].append(n_train / (t1 - t0))
    for opt, name in zip(opts, PASS_TOK_S):
        out.samples[name].append(n_train / (opt.marks[-1] - opt.marks[0]))

    if tracer is not None:
        tracer.begin_pass("eval")
    t2 = now()
    try:
        accuracy = training.evaluate(model, dev)
    except Exception:
        out.crashed(len(dev), len(dev))
        if tracer is not None:
            tracer.reset()
        return
    t3 = now()
    if tracer is not None:
        tracer.end_pass()
        tracer.end()
        out.rep_windows.append(tracer.end_window())
    if not size.acc_floor <= accuracy <= 1.0:
        out.ops(len(dev), len(dev), [f"meta dev accuracy {accuracy:.4f} is "
                                     f"outside [{size.acc_floor}, 1]"])
    else:
        out.ops(len(dev), 0)
    out.samples["fwd_tok_s"].append(n_dev / (t3 - t2))
    out.repeatable(losses + [accuracy],
                   "a repetition's batch losses and dev accuracy")


# ---------------------------------------------------------------------------
# paper-tag

def tag_workload(size: TagSize, seed: int, seconds: float,
                 tracer: Tracer | None, out: Outcome, workdir: str) -> None:
    """Save an untrained checkpoint, load it as ``metatagger tag`` does,
    then tag the same text in rounds."""
    config = training.TrainConfig(**size.config)
    path = os.path.join(workdir, "model.ckpt")
    _save_untrained_checkpoint(config, path)
    text, n_sentences, n_tokens = tag_input(seed, size)
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(size.setups):
            model = checkpoint = None  # free the last model before loading
            if tracer is not None:
                tracer.begin_window()
            t = now()
            checkpoint = training.checkpoint_load(path)
            model = checkpoint.rebuild()
            out.samples["setup_s"].append(now() - t)
            if tracer is not None:
                out.setup_windows.append(tracer.end_window())
        tags = set(checkpoint.vocabs.tags)

        def tag_round():
            # what cli.cmd_tag does between reading and writing the files
            if tracer is not None:
                tracer.begin_window()
                tracer.begin("round")
                tracer.begin_pass("tag")
            try:
                t0 = now()
                sentences = data.parse_conllu(text)
                data.assign_ids(sentences, checkpoint.vocabs)
                t1 = now()
                predicted = training.tag_corpus(model, sentences)
                t2 = now()
                result = data.write_conllu(sentences, predicted,
                                           task=checkpoint.config.task)
                t3 = now()
            except Exception:
                out.crashed(n_sentences, n_sentences)
                if tracer is not None:
                    tracer.reset()
                return
            if tracer is not None:
                tracer.end_pass()
                tracer.end()
                out.rep_windows.append(tracer.end_window())
            bad, problems = checks.tagged_output(text, result, tags,
                                                 checkpoint.config.task)
            out.ops(n_sentences, bad, problems)
            out.repeatable([result], "a tagging round's output")
            out.samples["tok_s"].append(n_tokens / (t3 - t0))
            out.samples["fwd_tok_s"].append(n_tokens / (t2 - t1))

        repeat(seconds, tag_round)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _save_untrained_checkpoint(config, path: str) -> None:
    train, dev = synthetic.suffix_context_corpora(TAG_VOCAB_SEED)
    model, _, _ = training.prepare(config, train, dev)
    training.checkpoint_save(path, training.Checkpoint(
        config=config, vocabs=model.vocabs,
        arrays=dict(model.array_manifest()), best_score=0.0, best_epoch=0))


def tag_input(seed: int, size: TagSize) -> tuple[str, int, int]:
    """CoNLL-U text of suffix-context sentences of 2 to ``max_len`` tokens
    plus a period, each under two comment lines. Returns (text, sentences,
    tokens)."""
    rng = np.random.default_rng(seed)
    stems = ["".join(p) for p in
             itertools.permutations(synthetic.STEM_LETTERS, 3)]
    rng.shuffle(stems)
    sentences = synthetic.suffix_context_sentences(
        stems, size.n_sentences, rng, min_len=2, max_len=size.max_len)
    blocks = data.write_conllu(sentences).strip("\n").split("\n\n")
    text = "".join(
        f"# sent_id = {k + 1}\n# text = {' '.join(s.forms())}\n{block}\n\n"
        for k, (s, block) in enumerate(zip(sentences, blocks)))
    return text, len(sentences), sum(len(s) for s in sentences)


# ---------------------------------------------------------------------------
# results

def layer_metrics(out: Outcome) -> dict[str, float]:
    """Median over set-ups plus median over repetitions, per metric. The
    exact counts must agree between repetitions."""
    total: dict[str, float] = defaultdict(float)
    for windows in (out.setup_windows, out.rep_windows):
        for name in sorted({k for w in windows for k in w}):
            values = [w.get(name, 0.0) for w in windows]
            if name.rsplit(".", 1)[0] in EXACT_COUNTS \
                    and len(set(values)) > 1:
                out.problems.append(f"{name} differs between repetitions: "
                                    f"{values}")
            total[name] += statistics.median(values)
    return dict(total)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": "CPU clocks are not pinned and caches are not dropped: the "
                "machine does not allow either",
    }


def run(workload: str, seed: int, seconds: float, spans: str | None,
        tiny: bool) -> dict:
    size = (TINY if tiny else SIZES)[workload]
    tracer = Tracer() if spans else None
    out = Outcome()
    if isinstance(size, TrainSize):
        train_workload(size, seed, seconds, tracer, out)
    else:
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch,
                                         prefix="perfbench-") as workdir:
            tag_workload(size, seed, seconds, tracer, out, workdir)
    metrics = {name: statistics.median(v) for name, v in out.samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        metrics.update(layer_metrics(out))
        tracer.write_spans(spans)
    return {"correct": not out.problems and out.failed == 0,
            "attempted": out.attempted, "failed": out.failed,
            "metrics": metrics, "problems": out.problems,
            "env": environment(seed)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    ns = ap.parse_args()
    result = run(ns.workload, ns.seed, ns.seconds, ns.spans, ns.tiny)
    for problem in result["problems"]:
        print(f"perfbench: {ns.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
