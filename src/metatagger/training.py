"""Training: three cross-entropy losses, three Adam optimizers. An epoch is
one pass over the shuffled corpus; each batch gets one forward of the
character, word and meta heads, one backward of their three summed losses
and one step of each model's optimizer, taken inside that backward once
the model's gradients are complete. Both schedules run this one loop.
In separate optimization (the paper's) the encoders' outputs reach the
combiner detached, so each model learns from its own loss alone; joint
optimization, kept for the optimization ablation, leaves them attached,
so the meta loss moves the encoders too. Adam is elementwise, so three
optimizers with the same settings and step count update the parameters
exactly as one over all of them would. Either way the meta model reads
the encoders as they stood before the batch's update. Dev accuracy of
the meta predictions drives model selection; the best epoch lives in
its checkpoint file alone. ``forward`` is the one forward of all three
heads, for training, evaluation and tagging alike: it decides which
encoders run and where the meta head's gradient stops.

Also here: the hyperparameter dataclass with the reference defaults, the
deterministic checkpoint container, and the per-epoch log line format.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import encoders, meta, nn
from . import tensor as T
from .data import Sentence, Vocabs
from .evaluation import score
from .tensor import Tensor

CHECKPOINT_FORMAT = "metatagger-checkpoint"
CHECKPOINT_VERSION = 1

# The structural sizes and the dropout rates ``TrainConfig.validate`` bounds.
_SIZE_KEYS = ("char_bilstm_layers", "word_bilstm_layers", "meta_bilstm_layers",
              "char_bilstm_size", "word_bilstm_size", "meta_bilstm_size",
              "mlp_size", "char_emb_dim", "word_emb_dim")
_DROPOUT_KEYS = ("lstm_dropout", "mlp_dropout", "word_emb_dropout",
                 "char_emb_dropout")


@dataclass
class TrainConfig:
    """Hyperparameters. The defaults are the reference settings audited by
    the golden-config test; fields that audit does not pin (batch size,
    epoch budget, LSTM weight init, embedding widths) are documented
    package decisions."""
    task: str = "xpos"  # upos | xpos | feats
    seed: int = 1
    max_epochs: int = 200
    batch_size: int = 32
    patience: int = 0  # 0 disables early stopping
    optimization: str = "separate"  # separate | joint
    char_encoder: str = "sentence"  # sentence | token
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
        return encoders.canonical_gather(
            p.strip() for p in self.gather.split(","))

    def validate(self) -> None:
        if self.task not in ("upos", "xpos", "feats"):
            raise ValueError(f"task must be upos/xpos/feats, got {self.task!r}")
        if self.optimization not in ("separate", "joint"):
            raise ValueError(
                f"optimization must be separate or joint, got "
                f"{self.optimization!r}")
        if self.char_encoder not in ("sentence", "token"):
            raise ValueError(
                f"char_encoder must be sentence or token, got "
                f"{self.char_encoder!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        for key in _SIZE_KEYS:
            if getattr(self, key) < 1:
                raise ValueError(f"config key {key!r} must be >= 1, got "
                                 f"{getattr(self, key)!r}")
        for key in _DROPOUT_KEYS:
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"config key {key!r} must be in [0, 1), "
                                 f"got {getattr(self, key)!r}")
        for key, only in (("mlp_activation", "elu"), ("optimizer", "adam"),
                          ("loss", "cross_entropy"),
                          ("word_emb_init", "zero")):
            if getattr(self, key) != only:
                raise ValueError(f"config key {key!r} must be {only!r}, the "
                                 f"only implemented choice, got "
                                 f"{getattr(self, key)!r}")
        for key in ("char_emb_init", "mlp_init", "lstm_init"):
            if getattr(self, key) not in ("gaussian", "scaled"):
                raise ValueError(f"config key {key!r} must be gaussian or "
                                 f"scaled, got {getattr(self, key)!r}")
        # chained comparisons, so that NaN fails them
        for key, ok, bound in (
                ("seed", 0 <= self.seed, ">= 0"),
                ("patience", 0 <= self.patience, ">= 0"),
                ("learning_rate", 0.0 <= self.learning_rate < math.inf,
                 "finite and >= 0"),
                ("decay", 0.0 <= self.decay <= 1.0, "in [0, 1]"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("adam_epsilon", 0.0 < self.adam_epsilon < math.inf,
                 "finite and > 0")):
            if not ok:
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
    config = TrainConfig(**kwargs)
    config.validate()
    return config


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

# Elements of one parameter that Adam.step updates at a time: the block's
# slices of the parameter, gradient and moments and the two scratch buffers
# (128 KiB each) stay in cache across the ufuncs of an update. Over the
# three default-size optimizers on a 2-vCPU x86 VM, 2^13 to 2^15 took about
# 250 ms a step, 2^12 about 330 and the unblocked formula 320 to 360.
_ADAM_BLOCK = 1 << 14


class Adam:
    """Adam with bias correction and multiplicative per-step rate decay.

    The effective rate of an update is learning_rate * decay**steps_done,
    so the very first update runs at the full learning rate.
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

    def effective_rate(self) -> float:
        return self.lr * self.decay ** self.steps

    def step(self) -> None:
        """One update of every parameter with a gradient, in place; each
        gradient is dropped (``grad`` set to None) once it is applied.

        Each parameter is walked in blocks of ``_ADAM_BLOCK`` elements, so
        the arithmetic runs in cache on two block-sized scratch buffers and
        makes no full-size temporary. Per element it is the plain formula,
        the same ufuncs in the same order:

            m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            p -= rate * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

        so parameters and moments are bitwise what it gives. A block's
        gradient is checked before the block is updated: a NaN or inf
        raises ``NonFiniteError`` naming the parameter. The step is then
        partly applied (``steps`` advanced, earlier parameters and blocks
        updated), so the optimizer and the model must be discarded.
        """
        rate = self.effective_rate()
        self.steps += 1
        t = self.steps
        b1, b2, eps = self.beta1, self.beta2, self.epsilon
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        scratch = np.empty((2, _ADAM_BLOCK))
        finite = np.empty(_ADAM_BLOCK, dtype=bool)
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            assert p.data.flags.c_contiguous and m.flags.c_contiguous \
                and v.flags.c_contiguous, f"{name}: update would hit a copy"
            flat_p, flat_m, flat_v, flat_g = (
                x.reshape(-1) for x in (p.data, m, v, g))
            for i in range(0, flat_p.size, _ADAM_BLOCK):
                j = min(i + _ADAM_BLOCK, flat_p.size)
                gb, mb, vb = flat_g[i:j], flat_m[i:j], flat_v[i:j]
                a, b = scratch[0, :j - i], scratch[1, :j - i]
                if not np.isfinite(gb, out=finite[:j - i]).all():
                    raise T.NonFiniteError(f"non-finite gradient in {name}")
                mb *= b1
                mb += np.multiply(1 - b1, gb, out=a)
                vb *= b2
                vb += np.multiply(1 - b2, np.multiply(gb, gb, out=a), out=a)
                np.divide(mb, c1, out=a)  # m_hat
                a *= rate
                np.divide(vb, c2, out=b)  # v_hat
                np.sqrt(b, out=b)
                b += eps
                a /= b
                flat_p[i:j] -= a
            p.grad = None

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


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

    def array_manifest(self):
        """Stable (name, array) list covering everything a tag run needs:
        trainable parameters plus the frozen pretrained matrix."""
        entries = [(name, p.data) for name, p in self.all_parameters()]
        entries.append(("word.pretrained", self.word.pretrained.data))
        return entries


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
    pretrained matrix is ``arrays["word.pretrained"]`` itself."""
    config.validate()
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
    combiner = meta.meta_params(config, char_rep_size, vocabs.n_tags, rng)
    return TaggerModel(config=config, vocabs=vocabs, char_sent=char_sent,
                       char_token=char_token, word=word, combiner=combiner)


_HEADS = ("char", "word", "meta")


def forward(model: TaggerModel, batch: list[Sentence], heads,
            masks: dict | None = None, detach: bool = True) -> list[Tensor]:
    """Logits of each head in ``heads``, a subset of ("char", "word",
    "meta") in that order, one row per token of the batch. ``masks`` maps
    "char", "word" and "meta" to each model's dropout masks (see
    ``_draw_masks``).

    An encoder runs only when a requested head needs it; the meta head
    needs both, whose per-token outputs the combiner reads. With
    ``detach`` (separate optimization) each encoder's output is detached
    before the combiner, so the meta head's loss cannot move encoder
    weights. Without it (joint optimization) the meta head's gradient
    reaches the encoders.
    """
    masks = masks or {}
    reps, logits = {}, {}
    # Word before character: the backward sweep then frees the character
    # tape, the largest, before any word gradient is allocated.
    for view in ("word", "char"):
        if view not in heads and "meta" not in heads:
            continue
        if view == "word":
            _, rep, out = encoders.encode_words(model.word, batch,
                                                masks.get("word"))
        elif model.char_sent is not None:
            _, rep, out = encoders.encode_chars_sentence(
                model.char_sent, batch, masks.get("char"))
        else:
            rep, out = encoders.encode_chars_token(
                model.char_token, batch, masks.get("char"))
        reps[view] = rep.detach() if detach else rep
        logits[view] = out
    if "meta" in heads:
        _, logits["meta"] = meta.combine(
            model.combiner, reps["char"], reps["word"],
            encoders.token_counts(batch), masks.get("meta"))
    return [logits[h] for h in heads]


def _predict(model: TaggerModel, sentences: list[Sentence],
             head: str) -> list[list[str]]:
    """Tag strings from one head, ``batch_size`` sentences at a time.
    Callers run it outside any ``Graph``, so nothing is taped. Token-less
    sentences get no tags."""
    names = model.vocabs.tag_strings()
    tagged = [s for s in sentences if s.tokens]
    size = model.config.batch_size
    found = []
    for start in range(0, len(tagged), size):
        batch = tagged[start:start + size]
        [logits] = forward(model, batch, (head,))
        ids = np.split(nn.predict_tags(logits),
                       np.cumsum(encoders.token_counts(batch))[:-1])
        found += [[names[i] for i in row] for row in ids]
    found = iter(found)
    return [next(found) if s.tokens else [] for s in sentences]


def tag_corpus(model: TaggerModel, sentences: list[Sentence]) -> list[list[str]]:
    """Tag strings from the combiner head (the only head used at test time)."""
    return _predict(model, sentences, "meta")


def evaluate(model: TaggerModel, sentences: list[Sentence],
             head: str = "meta") -> float:
    """Accuracy of one head ("char", "word" or "meta") on ``sentences``."""
    return score(sentences, _predict(model, sentences, head),
                 model.config.task).accuracy


# ---------------------------------------------------------------------------
# the training loop

def _gold_ids(vocabs: Vocabs, sentence: Sentence, task: str) -> list[int]:
    ids = []
    for tag in sentence.gold_tags(task):
        i = vocabs.tag_id(tag)
        if i is None:
            raise ValueError(f"gold tag {tag!r} missing from the training "
                             f"tag vocabulary")
        ids.append(i)
    return ids


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def _draw_masks(model: TaggerModel, batch: list[Sentence],
                rng: np.random.Generator) -> dict[str, dict]:
    """Dropout masks of the char, word and meta models, keyed by view;
    drawn sentence by sentence, in the order the per-sentence forward
    used."""
    char = model.char_sent if model.char_sent is not None \
        else model.char_token
    return dict(zip(_HEADS, nn.draw_masks(
        rng, batch, char.dropout_sites, model.word.dropout_sites,
        model.combiner.dropout_sites)))


def train_epoch_synchronous(model: TaggerModel, opt_char: Adam,
                            opt_word: Adam, opt_meta: Adam,
                            sentences: list[Sentence], order: np.ndarray,
                            batch_size: int, rng: np.random.Generator
                            ) -> tuple[float, float, float]:
    """One epoch of synchronized training over the shuffled corpus, for
    either schedule of ``model.config.optimization``. Per batch: one
    forward of the three heads (see ``forward``) and one backward of the
    three summed losses, inside which ``opt_char``, ``opt_word`` and
    ``opt_meta`` each step once. In separate optimization the encoders'
    outputs are detached before the combiner, so each model's gradient
    comes from its own loss alone; in joint optimization the meta loss
    reaches the encoders too. The meta model reads the encoders as they
    stood before this batch's update. Returns the mean per-batch loss of
    the char, word and meta heads.

    Each optimizer's step is hooked (``Graph.when_final``) to the point of
    the sweep where its model's gradients are complete, and drops them as
    it applies them: the meta model's are stepped and freed before the
    character model's part of the sweep begins, and the character model's
    before the word model's, so the three views' gradients are never held
    together. Where the steps fall changes no value: each optimizer
    touches only its own parameters, once every backward that reads them
    has run.

    A head's batch loss is the mean over its sentences of each sentence's
    mean token loss, computed in one forward over the whole batch by
    weighting token rows 1/(n_s * B). Gradients are cleared before each
    batch and after the last one, ``opt_char``'s last: the benchmark
    charges a batch's traced work to the view cleared last.
    """
    task = model.config.task
    detach = model.config.optimization == "separate"
    optimizers = (opt_char, opt_word, opt_meta)
    batch_losses = []
    for batch_idx in _batches(order, batch_size):
        for opt in reversed(optimizers):
            opt.zero_grad()
        batch = [sentences[si] for si in batch_idx]
        golds = np.concatenate([_gold_ids(model.vocabs, s, task)
                                for s in batch])
        weights = np.concatenate([np.full(len(s), 1.0 / (len(s) * len(batch)))
                                  for s in batch])
        masks = _draw_masks(model, batch, rng)
        with T.Graph() as g:
            losses = [nn.softmax_xent_rows(logits, golds, weights)
                      for logits in forward(model, batch, _HEADS, masks,
                                            detach)]
            total = T.add(T.add(losses[0], losses[1]), losses[2])
        for opt in optimizers:
            g.when_final([p for _, p in opt.params], opt.step)
        g.backward(total)
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
        drawn and nothing is copied. Each parameter's ``data`` is the saved
        array of its name, and so is the frozen pretrained matrix, so
        training a rebuilt model changes ``self.arrays`` as well. An array
        that is missing, of the wrong shape or unused is an error."""
        model = build_model(self.config, self.vocabs, arrays=self.arrays)
        params = model.all_parameters()
        for name, p in params:
            saved = self.arrays.get(name)
            if saved is None:
                raise ValueError(f"checkpoint is missing array {name!r}")
            if saved.shape != p.shape:
                raise ValueError(
                    f"checkpoint array {name!r} has shape {saved.shape}, "
                    f"model expects {p.shape}")
            p.data = saved
        unused = sorted(set(self.arrays) - {"word.pretrained"}
                        - {name for name, _ in params})
        if unused:
            raise ValueError(f"checkpoint holds arrays the model does not "
                             f"use: {', '.join(map(repr, unused))}")
        return model


def prepare(config: TrainConfig, train_sentences: list[Sentence],
            dev_sentences: list[Sentence],
            pretrained_path: str | None = None
            ) -> tuple[TaggerModel, list[Sentence], list[Sentence]]:
    """Vocabularies from the training corpus, ids onto both corpora,
    pretrained vectors aligned to the vocabulary, model built."""
    from .data import assign_ids, build_vocabs, load_pretrained

    config.validate()
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


def train(config: TrainConfig, train_sentences: list[Sentence],
          dev_sentences: list[Sentence], pretrained_path: str | None = None,
          log=None, path: str | None = None) -> Checkpoint:
    """Run the synchronous (or joint) schedule for up to max_epochs and
    return the checkpoint with the best dev accuracy of the combiner head,
    kept at ``path`` (see ``train_model``). ``log`` is called with one
    formatted line per epoch."""
    model, tr, dv = prepare(config, train_sentences, dev_sentences,
                            pretrained_path)
    return train_model(model, tr, dv, log=log, path=path)


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
    for name, p in model.all_parameters():
        p.data = checkpoint.arrays[name]
    model.word.pretrained.data = checkpoint.arrays["word.pretrained"]
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
        "vocabs": {
            "words": checkpoint.vocabs.words,
            "chars": checkpoint.vocabs.chars,
            "tags": checkpoint.vocabs.tags,
            "task": checkpoint.vocabs.task,
        },
        "best_score": checkpoint.best_score,
        "best_epoch": checkpoint.best_epoch,
        "arrays": [{"name": n, "shape": list(checkpoint.arrays[n].shape)}
                   for n in names],
    }
    header = json.dumps(manifest, ensure_ascii=False,
                        separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(b"\n")
        for n in names:  # each array's own buffer, not a bytes copy
            fh.write(np.ascontiguousarray(
                checkpoint.arrays[n], dtype="<f8").data)
    os.replace(tmp, path)


_MANIFEST_KEYS = ("config", "vocabs", "best_score", "best_epoch", "arrays")
_VOCAB_KEYS = ("words", "chars", "tags", "task")


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
                type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"{path}: checkpoint array entry key 'shape' of "
                             f"{entry['name']!r} is not a list of "
                             f"non-negative integers")
    return manifest


def checkpoint_load(path: str) -> Checkpoint:
    """Read a checkpoint: the manifest line, then each array straight from
    the file. The arrays' byte count is checked against the file's before
    any array is allocated."""
    with open(path, "rb") as fh:
        manifest = _read_manifest(path, fh.readline())
        config = config_from_dict(manifest["config"])
        entries = [(entry["name"], tuple(entry["shape"]))
                   for entry in manifest["arrays"]]
        _check_structure(path, config, dict(entries))
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, shape in entries:
            left -= math.prod(shape) * 8
            if left < 0:
                raise ValueError(f"{path}: truncated checkpoint "
                                 f"(array {name!r} incomplete)")
        if left:
            raise ValueError(f"{path}: trailing bytes after the last array")
        arrays = {name: np.fromfile(fh, "<f8", math.prod(shape)).reshape(shape)
                  for name, shape in entries}
    vocabs = Vocabs(words=manifest["vocabs"]["words"],
                    chars=manifest["vocabs"]["chars"],
                    tags=manifest["vocabs"]["tags"],
                    task=manifest["vocabs"]["task"])
    return Checkpoint(config=config, vocabs=vocabs, arrays=arrays,
                      best_score=manifest["best_score"],
                      best_epoch=manifest["best_epoch"])
