"""Training: three cross-entropy losses, three Adam optimizers. An epoch is
one pass over the shuffled corpus; each batch gets one forward of the
character, word and meta heads, one backward of their three summed losses
and then one step of each model's optimizer; inside that backward, each
gradient is folded into its optimizer's moments as soon as it is final.
Both schedules run this one loop. In separate optimization (the paper's)
the encoders' outputs reach the combiner detached, so each model learns
from its own loss alone; joint optimization, kept for the optimization
ablation, leaves them attached, so the meta loss moves the encoders too.
Adam is elementwise, so three optimizers with the same settings and step
count update the parameters exactly as one over all of them would.
Either way the meta model reads the encoders as they stood before the
batch's update. Dev accuracy of the meta predictions drives model
selection; the best epoch lives in its checkpoint file alone.
``forward`` is the one forward of all three heads, for training,
evaluation and tagging alike: it computes every head each time and
decides where the meta head's gradient stops.

Also here: the hyperparameter dataclass with the reference defaults, the
deterministic checkpoint container, and the per-epoch log line format.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import encoders, meta, nn
from . import tensor as T
from .data import TASK_COLUMN, Sentence, Vocabs
from .tensor import Tensor

CHECKPOINT_FORMAT = "metatagger-checkpoint"
CHECKPOINT_VERSION = 1

# The values a config key takes: each non-bool key but ``gather`` (read by
# ``gather_parts``) has one rule, a choice from ``CHOICES`` or a bound from
# ``_BOUNDS``. Bounds are chained comparisons, so that NaN fails them.
CHOICES = {
    "task": tuple(TASK_COLUMN),
    "optimization": ("separate", "joint"),
    "char_encoder": ("sentence", "token"),
    "mlp_activation": ("elu",),
    "word_emb_init": ("zero",),
    "char_emb_init": nn.INIT_KINDS,
    "mlp_init": nn.INIT_KINDS,
    "lstm_init": nn.INIT_KINDS,
    "optimizer": ("adam",),
    "loss": ("cross_entropy",),
}
_AT_LEAST_0 = (">= 0", lambda v: 0 <= v)
_AT_LEAST_1 = (">= 1", lambda v: 1 <= v)
_UNIT = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)
_BOUNDS = {
    "seed": _AT_LEAST_0, "max_epochs": _AT_LEAST_0, "patience": _AT_LEAST_0,
    "batch_size": _AT_LEAST_1, "min_count": _AT_LEAST_1,
    **dict.fromkeys(("char_bilstm_layers", "word_bilstm_layers",
                     "meta_bilstm_layers", "char_bilstm_size",
                     "word_bilstm_size", "meta_bilstm_size", "mlp_size",
                     "char_emb_dim", "word_emb_dim"), _AT_LEAST_1),
    **dict.fromkeys(("lstm_dropout", "mlp_dropout", "word_emb_dropout",
                     "char_emb_dropout", "beta1", "beta2"), _UNIT),
    "learning_rate": ("finite and >= 0", lambda v: 0.0 <= v < math.inf),
    "decay": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "adam_epsilon": ("finite and > 0", lambda v: 0.0 < v < math.inf),
}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters. The defaults are the reference settings audited by
    the golden-config test; fields that audit does not pin (batch size,
    epoch budget, LSTM weight init, embedding widths) are documented
    package decisions. A config is checked once, when it is made, by its
    constructor or ``dataclasses.replace`` (each key against its rule in
    ``CHOICES`` or ``_BOUNDS``, and ``gather``), and cannot be changed
    afterwards."""
    task: str = "xpos"
    seed: int = 1
    max_epochs: int = 200
    batch_size: int = 32
    patience: int = 0  # 0 disables early stopping
    optimization: str = "separate"
    char_encoder: str = "sentence"
    gather: str = "F_1st,F_last,B_1st,B_last"
    # architecture
    char_bilstm_layers: int = 3
    word_bilstm_layers: int = 3
    meta_bilstm_layers: int = 1
    char_bilstm_size: int = 400
    word_bilstm_size: int = 400
    meta_bilstm_size: int = 400
    lstm_dropout: float = 0.33
    mlp_dropout: float = 0.33
    word_emb_dropout: float = 0.33
    char_emb_dropout: float = 0.05
    mlp_activation: str = "elu"  # the only implemented choice
    mlp_size: int = 400
    char_emb_dim: int = 100
    word_emb_dim: int = 100  # replaced by the pretrained dimension when given
    # initialization
    word_emb_init: str = "zero"  # the only implemented choice
    char_emb_init: str = "gaussian"
    mlp_init: str = "gaussian"
    lstm_init: str = "scaled"  # not covered by the table; 1/sqrt(fan_in)
    # optimization
    optimizer: str = "adam"  # the only implemented choice
    loss: str = "cross_entropy"  # the only implemented choice
    learning_rate: float = 0.002
    decay: float = 0.999994  # per optimizer step
    adam_epsilon: float = 1e-08
    beta1: float = 0.9
    beta2: float = 0.999
    # data handling
    lowercase_pretrained_fallback: bool = True
    min_count: int = 1

    def gather_parts(self) -> tuple[str, ...]:
        return nn.canonical_gather(
            p.strip() for p in self.gather.split(","))

    def __post_init__(self) -> None:
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"config key {key!r} must be "
                                 f"{' or '.join(choices)}, got "
                                 f"{getattr(self, key)!r}")
        for key, (bound, ok) in _BOUNDS.items():
            if not ok(getattr(self, key)):
                raise ValueError(f"config key {key!r} must be {bound}, got "
                                 f"{getattr(self, key)!r}")
        self.gather_parts()


def print_config(config: TrainConfig) -> str:
    """Canonical key = value rendering of every field, in declaration order."""
    lines = []
    for f in dataclasses.fields(config):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def config_from_dict(values: dict) -> TrainConfig:
    """Build a config from string-keyed values, coercing to field types."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    kwargs = {}
    for key, raw in values.items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(raw, fields[key].type, key)
    return TrainConfig(**kwargs)


def _coerce(raw, typ: str, key: str):
    """``raw`` as a value of the field type ``typ``: strings are parsed,
    other values (JSON from a checkpoint, an int flag) must already have
    that type; an int passes for a float, a bool for neither."""
    if not isinstance(raw, str):
        ok = {"int": int, "float": (int, float), "bool": bool, "str": ()}[typ]
        if isinstance(raw, bool) != (typ == "bool") \
                or not isinstance(raw, ok):
            raise ValueError(f"config key {key!r}: {raw!r} is not a {typ}")
        return raw
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot read {raw!r} as "
                         f"{typ}") from None
    if typ == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r}: cannot read {raw!r} as bool")
    return raw


# ---------------------------------------------------------------------------
# optimizer

# Elements of one parameter that Adam folds or applies at a time: the
# block's slices of the parameter, gradient and moments and the scratch
# buffers (256 KiB each) stay in cache across the ufuncs of an update. A
# step over 10.24M parameters on a 2-vCPU x86 VM (median of 5) took 128,
# 113 and 119 ms on one thread with 2^14, 2^15 and 2^16 blocks, and split
# across two threads 86, 68 and 68 ms: 2^14 blocks make more ufunc calls,
# which contend for the GIL.
_ADAM_BLOCK = 1 << 15


def _in_halves(fn, groups, *args) -> list:
    """Results of ``fn(blocks, *args)`` over the ``_ADAM_BLOCK``-element
    blocks of ``groups``, tuples of same-sized arrays, one per parameter,
    each block a tuple of slices of the flattened arrays. When the blocks
    hold at least two blocks' worth of elements, their list is cut at the
    block boundary nearest its element midpoint and the second half runs
    on ``nn``'s worker thread, free between ops (``nn.run_calls``), while
    this one runs the first."""
    blocks = []
    for group in groups:
        flat = [x.reshape(-1) for x in group]
        blocks += [tuple(x[i:i + _ADAM_BLOCK] for x in flat)
                   for i in range(0, flat[0].size, _ADAM_BLOCK)]
    halves = [blocks]
    ends = np.cumsum([b[0].size for b in blocks])
    if blocks and ends[-1] >= 2 * _ADAM_BLOCK:
        cut = int(np.argmin(np.abs(ends - ends[-1] / 2))) + 1
        halves = [blocks[:cut], blocks[cut:]]
    return nn.run_calls(len(halves) == 2,
                        [(fn, half, *args) for half in halves])


class Adam:
    """Adam with bias correction and multiplicative per-step rate decay.

    The effective rate of an update is learning_rate * decay**steps_done,
    so the very first update runs at the full learning rate.

    An update comes in two parts. ``fold`` adds one parameter's gradient
    into its moments and drops it; the training loop calls it from the
    backward sweep as soon as that gradient is final. ``step`` then moves
    every parameter folded since the last step. Per element it is the
    plain formula, the same ufuncs in the same order:

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        p -= rate * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    so parameters and moments are bitwise what it gives, wherever the
    folds fall. Both parts walk the arrays in blocks of ``_ADAM_BLOCK``
    elements, the arithmetic running in cache on block-sized scratch
    buffers with no full-size temporary, and split a large enough walk
    across two threads (``_in_halves``). Parameters change only in
    ``step``.
    """

    def __init__(self, params, lr: float = 0.002, decay: float = 0.999994,
                 beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-08):
        self.params = list(params)
        self.lr = lr
        self.decay = decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.steps = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        # indices into params of the parameters folded since the last
        # step, and of those whose fold met a non-finite gradient
        self._folded: set[int] = set()
        self._nonfinite: set[int] = set()

    def effective_rate(self) -> float:
        return self.lr * self.decay ** self.steps

    def fold(self, index: int) -> None:
        """Fold the gradient of ``params[index]`` into its moments and drop
        it (``grad`` set to None); a parameter without a gradient is left
        as it is. Each block of the gradient is checked before it is
        folded: a NaN or inf stops the fold of its half there and is
        recorded, for the next ``step`` to raise."""
        name, p = self.params[index]
        g, p.grad = p.grad, None
        if g is None:
            return
        m, v = self.m[name], self.v[name]
        assert m.flags.c_contiguous and v.flags.c_contiguous, \
            f"{name}: fold would hit a copy"
        finite = all(_in_halves(self._fold, [(m, v, g)]))
        (self._folded if finite else self._nonfinite).add(index)

    def step(self) -> None:
        """One update of every parameter with a gradient, in place: first
        ``fold`` every parameter still holding one, then move every
        parameter folded since the last step, at this step's rate and bias
        correction, and advance ``steps``. If a fold since the last step
        met a non-finite gradient, raises ``NonFiniteError`` naming the
        first such parameter in parameter order instead, before any
        parameter moves; the moments are then partly folded, so the
        optimizer and the model must be discarded.
        """
        for i, (_, p) in enumerate(self.params):
            if p.grad is not None:
                self.fold(i)
        if self._nonfinite:
            name = self.params[min(self._nonfinite)][0]
            raise T.NonFiniteError(f"non-finite gradient in {name}")
        rate = self.effective_rate()
        self.steps += 1
        t = self.steps
        c1, c2 = 1 - self.beta1 ** t, 1 - self.beta2 ** t
        groups = []
        for i in sorted(self._folded):
            name, p = self.params[i]
            assert p.data.flags.c_contiguous, f"{name}: step would hit a copy"
            groups.append((p.data, self.m[name], self.v[name]))
        self._folded.clear()
        _in_halves(self._apply, groups, rate, c1, c2)

    def _fold(self, blocks) -> bool:
        """Fold ``blocks``, (m, v, gradient) slices, in order; False at
        the first block whose gradient is not finite."""
        b1, b2 = self.beta1, self.beta2
        scratch = np.empty(_ADAM_BLOCK)
        finite = np.empty(_ADAM_BLOCK, dtype=bool)
        for mb, vb, gb in blocks:
            a = scratch[:gb.size]
            if not np.isfinite(gb, out=finite[:gb.size]).all():
                return False
            mb *= b1
            mb += np.multiply(1 - b1, gb, out=a)
            vb *= b2
            vb += np.multiply(1 - b2, np.multiply(gb, gb, out=a), out=a)
        return True

    def _apply(self, blocks, rate: float, c1: float, c2: float) -> None:
        """Move ``blocks``, (parameter, m, v) slices, in order."""
        eps = self.epsilon
        scratch = np.empty((2, _ADAM_BLOCK))
        for pb, mb, vb in blocks:
            a, b = scratch[0, :pb.size], scratch[1, :pb.size]
            np.divide(mb, c1, out=a)  # m_hat
            a *= rate
            np.divide(vb, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pb -= a

    def zero_grad(self) -> None:
        """Drop every gradient and forget the folds since the last step:
        the next ``step`` moves no parameter by them, though the moments
        keep what was folded."""
        for _, p in self.params:
            p.grad = None
        self._folded.clear()
        self._nonfinite.clear()


# ---------------------------------------------------------------------------
# model assembly

@dataclass
class TaggerModel:
    config: TrainConfig
    vocabs: Vocabs
    char_sent: encoders.CharSentEncoderParams | None
    char_token: encoders.CharTokenEncoderParams | None
    word: encoders.WordEncoderParams
    combiner: nn.ViewParams

    def char_parameters(self):
        if self.char_sent is not None:
            return self.char_sent.parameters()
        return self.char_token.parameters()

    def word_parameters(self):
        return self.word.parameters()

    def meta_parameters(self):
        return self.combiner.parameters("meta")

    def all_parameters(self):
        return (self.char_parameters() + self.word_parameters()
                + self.meta_parameters())

    def saved_tensors(self):
        """Stable (name, tensor) list of everything a checkpoint saves and
        a tag run needs: the trainable parameters plus the frozen
        pretrained matrix."""
        return self.all_parameters() + [("word.pretrained",
                                         self.word.pretrained)]

    def array_manifest(self):
        """``saved_tensors`` as (name, array) pairs."""
        return [(name, p.data) for name, p in self.saved_tensors()]


class _NoDraw:
    """Stands in for the init generator when every drawn array is about to
    be replaced: each "draw" is calloc'd zeros, never touched or read."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


def build_model(config: TrainConfig, vocabs: Vocabs,
                pretrained: np.ndarray | None = None,
                arrays: dict[str, np.ndarray] | None = None) -> TaggerModel:
    """Construct all parameter sets. Without ``arrays`` every weight is
    drawn from the config seed in a fixed construction order, so a
    (config, vocabs, pretrained) triple determines every array. With
    ``arrays`` (a checkpoint's, by name) nothing is drawn: the weights are
    zero placeholders for ``Checkpoint.rebuild`` to replace, and the frozen
    pretrained matrix is ``arrays["word.pretrained"]`` itself. ``config``
    was checked when it was made."""
    if arrays is None:
        rng = np.random.default_rng(config.seed)
    else:
        rng, pretrained = _NoDraw(), arrays["word.pretrained"]
    char_sent = char_token = None
    if config.char_encoder == "sentence":
        char_sent = encoders.char_sent_encoder(config, vocabs.n_chars,
                                               vocabs.n_tags, rng)
        char_rep_size = config.mlp_size
    else:
        char_token = encoders.char_token_encoder(config, vocabs.n_chars,
                                                 vocabs.n_tags, rng)
        char_rep_size = config.char_bilstm_size
    word = encoders.word_encoder(config, vocabs.n_words, vocabs.n_tags, rng,
                                 pretrained)
    combiner = nn.view_params(config, "meta", char_rep_size + config.mlp_size,
                              vocabs.n_tags, rng)
    return TaggerModel(config=config, vocabs=vocabs, char_sent=char_sent,
                       char_token=char_token, word=word, combiner=combiner)


_HEADS = ("char", "word", "meta")


def forward(model: TaggerModel, batch: list[Sentence],
            masks: dict | None = None, detach: bool = True
            ) -> tuple[Tensor, Tensor, Tensor]:
    """Logits of the char, word and meta heads, in that order, one row per
    token of the batch. ``masks`` maps "char", "word" and "meta" to each
    model's dropout masks (see ``_draw_masks``); without them every model
    runs as at evaluation.

    Every head is computed: the meta head reads both encoders' per-token
    outputs. With ``detach`` (separate optimization) each encoder's output
    is detached before the combiner, so the meta head's loss cannot move
    encoder weights. Without it (joint optimization) the meta head's
    gradient reaches the encoders.
    """
    masks = masks or {}
    # Word before character: the backward sweep then frees the character
    # tape, the largest, before any word gradient is allocated.
    _, word_rep, word_logits = encoders.encode_words(model.word, batch,
                                                     masks.get("word"))
    if model.char_sent is not None:
        _, char_rep, char_logits = encoders.encode_chars_sentence(
            model.char_sent, batch, masks.get("char"))
    else:
        char_rep, char_logits = encoders.encode_chars_token(
            model.char_token, batch, masks.get("char"))
    if detach:
        char_rep, word_rep = char_rep.detach(), word_rep.detach()
    _, meta_logits = meta.combine(model.combiner, char_rep, word_rep,
                                  encoders.token_counts(batch),
                                  masks.get("meta"))
    return char_logits, word_logits, meta_logits


def _predict(model: TaggerModel, sentences: list[Sentence]) -> np.ndarray:
    """Tag ids of the char, word and meta heads, a row each, for the tokens
    of ``sentences``, one forward per ``batch_size`` sentences, untaped.
    Logits that are not finite raise ``NonFiniteError`` naming their head
    and the first array of the model that is not finite."""
    tagged = [s for s in sentences if s.tokens]
    size = model.config.batch_size
    ids = []
    for i in range(0, len(tagged), size):
        logits = forward(model, tagged[i:i + size])
        for head, rows in zip(_HEADS, logits):
            if not np.isfinite(rows.data).all():
                cause = next((f"array {name!r} is not finite"
                              for name, a in model.array_manifest()
                              if not np.isfinite(a).all()),
                             "every array is finite")
                raise T.NonFiniteError(f"non-finite {head} logits: {cause}")
        ids.append([nn.predict_tags(rows) for rows in logits])
    return np.concatenate(ids, axis=1) if ids else np.empty((3, 0), np.intp)


def tag_corpus(model: TaggerModel, sentences: list[Sentence]) -> list[list[str]]:
    """Tag strings from the combiner head (the only head used at test
    time), one list per sentence; token-less sentences get none."""
    names = model.vocabs.tag_strings()
    ids = iter(_predict(model, sentences)[-1].tolist())  # the meta row
    return [[names[next(ids)] for _ in s.tokens] for s in sentences]


def accuracies(model: TaggerModel, sentences: list[Sentence]) -> dict:
    """Accuracy of the "char", "word" and "meta" heads on ``sentences``,
    from one pass: the share of their tokens whose predicted tag id is
    the gold one (``Sentence.tag_ids``, -1 for a tag training never saw)."""
    predicted = _predict(model, sentences)
    if not predicted.size:
        return dict.fromkeys(_HEADS, 0.0)
    gold = np.concatenate([s.tag_ids for s in sentences])
    return dict(zip(_HEADS, (np.count_nonzero(predicted == gold, axis=1)
                             / gold.size).tolist()))


def evaluate(model: TaggerModel, sentences: list[Sentence]) -> float:
    """The meta head's accuracy (see ``accuracies``): it selects epochs."""
    return accuracies(model, sentences)["meta"]


# ---------------------------------------------------------------------------
# the training loop

def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def _draw_masks(model: TaggerModel, batch: list[Sentence],
                rng: np.random.Generator) -> dict[str, dict]:
    """Dropout masks of the char, word and meta models, keyed by view;
    drawn sentence by sentence, in the order the per-sentence forward
    used."""
    char = model.char_sent.view if model.char_sent is not None \
        else model.char_token
    return dict(zip(_HEADS, nn.draw_masks(
        rng, batch, char.dropout_sites, model.word.view.dropout_sites,
        model.combiner.dropout_sites)))


def train_epoch_synchronous(model: TaggerModel, opt_char: Adam,
                            opt_word: Adam, opt_meta: Adam,
                            sentences: list[Sentence], order: np.ndarray,
                            batch_size: int, rng: np.random.Generator
                            ) -> tuple[float, float, float]:
    """One epoch of synchronized training over the shuffled corpus, for
    either schedule of ``model.config.optimization``. Per batch: one
    forward of the three heads (see ``forward``), one backward of the
    three summed losses, then one step of ``opt_meta``, ``opt_char`` and
    ``opt_word``, the order in which the sweep finishes their models, so
    a non-finite gradient stops the batch with the models swept before
    its own moved. In separate optimization the encoders' outputs are
    detached before the combiner, so each model's gradient comes from
    its own loss alone; in joint optimization the meta loss reaches the
    encoders too. The meta model reads the encoders as they stood before
    this batch's update. Returns the mean per-batch loss of the char,
    word and meta heads.

    Each parameter's gradient is folded into its optimizer's moments and
    dropped (``Adam.fold``) at the point of the sweep where it is
    complete, its earliest reader (``Graph.when_final``), so a layer's
    gradients are gone once its backward has run. The three views'
    gradients are thus never held together, nor a view's finished
    layers' beside its next. Where the folds fall changes no value: each
    folds a gradient no later node adds to, and parameters move only in
    the steps.

    A head's batch loss is the mean over its sentences of each sentence's
    mean token loss, computed in one forward over the whole batch by
    weighting token rows 1/(n_s * B). Gradients are cleared before each
    batch and after the last one, ``opt_char``'s last: the benchmark
    charges a batch's traced work to the view cleared last.
    """
    detach = model.config.optimization == "separate"
    optimizers = (opt_char, opt_word, opt_meta)
    batch_losses = []
    for batch_idx in _batches(order, batch_size):
        for opt in reversed(optimizers):
            opt.zero_grad()
        batch = [sentences[si] for si in batch_idx]
        golds = np.concatenate([s.tag_ids for s in batch])
        weights = np.concatenate([np.full(len(s), 1.0 / (len(s) * len(batch)))
                                  for s in batch])
        masks = _draw_masks(model, batch, rng)
        with T.Graph() as g:
            losses = [nn.softmax_xent_rows(logits, golds, weights)
                      for logits in forward(model, batch, masks, detach)]
            total = T.add(T.add(losses[0], losses[1]), losses[2])
        for opt in optimizers:
            for i, (_, p) in enumerate(opt.params):
                g.when_final(p, functools.partial(opt.fold, i))
        g.backward(total)
        for opt in (opt_meta, opt_char, opt_word):
            opt.step()
        batch_losses.append([l.item() for l in losses])
    for opt in reversed(optimizers):
        opt.zero_grad()
    return tuple(float(np.mean(column)) for column in zip(*batch_losses))


@dataclass
class Checkpoint:
    config: TrainConfig
    vocabs: Vocabs
    arrays: dict[str, np.ndarray]
    best_score: float
    best_epoch: int

    def rebuild(self) -> TaggerModel:
        """The model of this checkpoint, built around its arrays: nothing is
        drawn and nothing is copied (see ``bind``)."""
        return self.bind(build_model(self.config, self.vocabs,
                                     arrays=self.arrays))

    def bind(self, model: TaggerModel) -> TaggerModel:
        """Point each of ``model.saved_tensors()``, its parameters and the
        frozen pretrained matrix, at the saved array of its name, so
        training the model changes ``self.arrays`` as well. An array that
        is missing, of the wrong shape or unused is an error."""
        named = model.saved_tensors()
        for name, p in named:
            saved = self.arrays.get(name)
            if saved is None:
                raise ValueError(f"checkpoint is missing array {name!r}")
            if saved.shape != p.shape:
                raise ValueError(
                    f"checkpoint array {name!r} has shape {saved.shape}, "
                    f"model expects {p.shape}")
            p.data = saved
        unused = sorted(set(self.arrays) - {name for name, _ in named})
        if unused:
            raise ValueError(f"checkpoint holds arrays the model does not "
                             f"use: {', '.join(map(repr, unused))}")
        return model


def prepare(config: TrainConfig, train_sentences: list[Sentence],
            dev_sentences: list[Sentence],
            pretrained_path: str | None = None
            ) -> tuple[TaggerModel, list[Sentence], list[Sentence]]:
    """Vocabularies from the training corpus, ids onto both corpora,
    pretrained vectors aligned to the vocabulary, model built: every read
    and check of a run's inputs. A command that trains several models
    prepares once and builds each from this model's vocabularies and
    frozen vectors (``model.vocabs``, ``model.word.pretrained.data``).
    ``config`` was checked when it was made."""
    from .data import assign_ids, build_vocabs, load_pretrained

    train_sentences = [s for s in train_sentences if len(s.tokens) > 0]
    dev_sentences = [s for s in dev_sentences if len(s.tokens) > 0]
    if not train_sentences:
        raise ValueError("training corpus has no non-empty sentences")
    if not dev_sentences:
        raise ValueError("dev corpus has no non-empty sentences")
    vocabs = build_vocabs(train_sentences, task=config.task,
                          min_count=config.min_count)
    assign_ids(train_sentences, vocabs)
    assign_ids(dev_sentences, vocabs)
    pretrained = None
    if pretrained_path is not None:
        pretrained = load_pretrained(pretrained_path, vocabs,
                                     config.lowercase_pretrained_fallback)
    model = build_model(config, vocabs, pretrained=pretrained)
    return model, train_sentences, dev_sentences


def train_model(model: TaggerModel, train_sentences: list[Sentence],
                dev_sentences: list[Sentence], log=None,
                path: str | None = None) -> Checkpoint:
    """Training loop over an already-built model (vocab ids must be
    assigned to both corpora). Epoch 0 is the initialized model; a later
    epoch replaces it only when strictly better, in the checkpoint file at
    ``path`` (a temporary one when None), which a run that dies leaves
    behind. Returns that file's checkpoint; the model ends with its arrays."""
    config = model.config
    emit = log if log is not None else (lambda line: None)
    seq = np.random.SeedSequence(config.seed)
    order_seed, dropout_seed = seq.spawn(2)
    order_rng = np.random.default_rng(order_seed)
    dropout_rng = np.random.default_rng(dropout_seed)

    opt_char = _make_adam(model.char_parameters(), config)
    opt_word = _make_adam(model.word_parameters(), config)
    opt_meta = _make_adam(model.meta_parameters(), config)

    with contextlib.ExitStack() as stack:
        if path is None:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            path = os.path.join(tmp, "best.ckpt")
        best_score = -math.inf
        for epoch in range(config.max_epochs + 1):
            losses = ""
            if epoch:
                order = order_rng.permutation(len(train_sentences))
                c, w, m = train_epoch_synchronous(
                    model, opt_char, opt_word, opt_meta, train_sentences,
                    order, config.batch_size, dropout_rng)
                losses = (f"char_loss={c:.6f} word_loss={w:.6f} "
                          f"meta_loss={m:.6f} ")
            acc = evaluate(model, dev_sentences)
            emit(f"epoch={epoch} {losses}dev_acc={acc:.6f}")
            if acc > best_score:
                best_score = acc
                best_epoch = epoch
                checkpoint_save(path, Checkpoint(
                    config=config, vocabs=model.vocabs,
                    arrays=dict(model.array_manifest()), best_score=acc,
                    best_epoch=epoch))
            elif config.patience and epoch - best_epoch >= config.patience:
                emit(f"stopped early at epoch={epoch} "
                     f"(no improvement in {config.patience})")
                break
        del opt_char, opt_word, opt_meta  # free the moments before the read
        checkpoint = checkpoint_load(path)
    checkpoint.bind(model)
    return checkpoint


def _make_adam(params, config: TrainConfig) -> Adam:
    return Adam(params, lr=config.learning_rate, decay=config.decay,
                beta1=config.beta1, beta2=config.beta2,
                epsilon=config.adam_epsilon)


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout: one JSON manifest line (format, version, config, vocabs, scores,
# array name/shape/offset table), then the arrays' raw float64 little-endian
# bytes concatenated in manifest order. No timestamps anywhere, so equal
# models produce equal files.

def checkpoint_save(path: str, checkpoint: Checkpoint) -> None:
    names = list(checkpoint.arrays)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(checkpoint.config),
        "vocabs": vars(checkpoint.vocabs),
        "best_score": checkpoint.best_score,
        "best_epoch": checkpoint.best_epoch,
        "arrays": [{"name": n, "shape": list(checkpoint.arrays[n].shape)}
                   for n in names],
    }
    header = json.dumps(manifest, ensure_ascii=False,
                        separators=(",", ":")).encode("utf-8")
    # A new file (O_EXCL) beside the checkpoint, so that no input, log or
    # other save is written into; mode 0o666 under the umask, as ``open``.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(header)
            fh.write(b"\n")
            for n in names:  # each array's own buffer, not a bytes copy
                fh.write(np.ascontiguousarray(
                    checkpoint.arrays[n], dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_MANIFEST_KEYS = tuple(f.name for f in dataclasses.fields(Checkpoint))
_VOCAB_KEYS = tuple(f.name for f in dataclasses.fields(Vocabs))


def _require(path: str, what: str, mapping, keys) -> None:
    """Reject a manifest part that is not a mapping holding ``keys``."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: checkpoint {what} is not a JSON object")
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{path}: checkpoint {what} has no {key!r} key")


def _check_structure(path: str, config: TrainConfig,
                     shapes: dict[str, list[int]]) -> None:
    """Reject a config whose layer counts and widths differ from the saved
    arrays', before ``Checkpoint.rebuild`` allocates a model of it."""
    def saved(name: str, axis: int) -> int:
        if len(shapes.get(name, ())) <= axis:
            raise ValueError(f"{path}: checkpoint is missing array {name!r} "
                             f"or its axis {axis}")
        return shapes[name][axis]

    saved("word.pretrained", 1)  # the word embedding width comes from it
    char = "char_sent" if config.char_encoder == "sentence" else "char_token"
    expected = {"char_emb_dim": saved(f"{char}.char_table", 1),
                "mlp_size": saved("word.mlp.weight", 1)}
    stacks = {"word_bilstm": "word.stack", "meta_bilstm": "meta.stack"}
    if char == "char_sent":
        stacks["char_bilstm"] = "char_sent.stack"
    else:
        expected["char_bilstm_size"] = saved("char_token.lstm.w_h", 0)
    for key, prefix in stacks.items():
        layers = {name.split(".")[2] for name in shapes
                  if name.startswith(f"{prefix}.layer")}
        expected[f"{key}_layers"] = len(layers)
        expected[f"{key}_size"] = saved(f"{prefix}.layer0.fwd.w_h", 0)
    for key, value in expected.items():
        if getattr(config, key) != value:
            raise ValueError(f"{path}: checkpoint config key {key!r} is "
                             f"{getattr(config, key)!r}, the saved arrays "
                             f"have {value}")


def _read_manifest(path: str, head: bytes) -> dict:
    """The manifest of the checkpoint whose first line is ``head``, with
    its keys, vocabularies and array entries checked."""
    if not head.endswith(b"\n"):
        raise ValueError(f"{path}: not a checkpoint (no manifest line)")
    try:
        manifest = json.loads(head[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: corrupt manifest: {e}") from None
    if not isinstance(manifest, dict) \
            or manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if type(manifest.get("version")) is not int \
            or manifest["version"] != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {manifest.get('version')!r} is not "
            f"supported (expected {CHECKPOINT_VERSION})")
    _require(path, "manifest", manifest, _MANIFEST_KEYS)
    _require(path, "config", manifest["config"], ())
    _require(path, "vocabs", manifest["vocabs"], _VOCAB_KEYS)
    for key, first in (("words", 1), ("chars", 1), ("tags", 0)):
        ids = manifest["vocabs"][key]
        if not isinstance(ids, dict) or not all(
                type(i) is int for i in ids.values()):
            raise ValueError(f"{path}: checkpoint vocabs key {key!r} is not "
                             f"a JSON object of integer ids")
        if sorted(ids.values()) != list(range(first, first + len(ids))):
            raise ValueError(f"{path}: checkpoint vocabs key {key!r} does "
                             f"not number its entries {first}, {first + 1}, "
                             f"... once each")
    if not isinstance(manifest["arrays"], list):
        raise ValueError(f"{path}: checkpoint manifest key 'arrays' is not "
                         f"a list")
    for entry in manifest["arrays"]:
        _require(path, "array entry", entry, ("name", "shape"))
        if not isinstance(entry["name"], str):
            raise ValueError(f"{path}: checkpoint array entry key 'name' is "
                             f"not a string")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 1 for d in shape):
            raise ValueError(f"{path}: checkpoint array entry key 'shape' of "
                             f"{entry['name']!r} is not a list of "
                             f"positive integers")
    return manifest


def _read_at(fd: int, dest: np.ndarray, offset: int) -> int:
    """Fill ``dest``, a byte array, from the file at ``offset`` with
    positional reads; the number of bytes read, short only where the file
    ends first."""
    done = 0
    while done < dest.size:
        n = os.preadv(fd, [dest[done:]], offset + done)
        if n == 0:
            break
        done += n
    return done


def checkpoint_load(path: str) -> Checkpoint:
    """Read a checkpoint: the manifest line, then every array's bytes into
    one buffer, each array a view of it. The arrays' byte count is checked
    against the file's before the buffer is allocated. The bytes are read
    in two halves, cut at their midpoint, the second on ``nn``'s worker
    thread (``nn.run_calls``) while this one reads the first. Both read at
    positions of the descriptor that read the manifest, so a file replaced
    meanwhile is not mixed in; one cut meanwhile is a truncated
    checkpoint."""
    with open(path, "rb") as fh:
        manifest = _read_manifest(path, fh.readline())
        config = config_from_dict(manifest["config"])
        if manifest["vocabs"]["task"] != config.task:
            raise ValueError(f"{path}: checkpoint vocabs task "
                             f"{manifest['vocabs']['task']!r} is not the "
                             f"config's {config.task!r}")
        entries = [(entry["name"], tuple(entry["shape"]))
                   for entry in manifest["arrays"]]
        _check_structure(path, config, dict(entries))
        start = fh.tell()
        left = os.fstat(fh.fileno()).st_size - start
        ends = []  # each array's end, in elements of the buffer
        for name, shape in entries:
            ends.append((ends[-1] if ends else 0) + math.prod(shape))
            if ends[-1] * 8 > left:
                raise ValueError(f"{path}: truncated checkpoint "
                                 f"(array {name!r} incomplete)")
        if ends[-1] * 8 < left:
            raise ValueError(f"{path}: trailing bytes after the last array")
        buffer = np.empty(ends[-1], "<f8")
        arrays = {name: buffer[end - math.prod(shape):end].reshape(shape)
                  for (name, shape), end in zip(entries, ends)}
        raw = buffer.view(np.uint8)
        cut = buffer.size // 2 * 8
        got = nn.run_calls(True, [
            (_read_at, fh.fileno(), raw[:cut], start),
            (_read_at, fh.fileno(), raw[cut:], start + cut)])
        if got != [cut, raw.size - cut]:
            read = got[0] if got[0] < cut else cut + got[1]
            name = entries[int(np.searchsorted(ends, read // 8, "right"))][0]
            raise ValueError(f"{path}: truncated checkpoint "
                             f"(array {name!r} incomplete)")
    vocabs = Vocabs(**{key: manifest["vocabs"][key] for key in _VOCAB_KEYS})
    return Checkpoint(config=config, vocabs=vocabs, arrays=arrays,
                      best_score=manifest["best_score"],
                      best_epoch=manifest["best_epoch"])
