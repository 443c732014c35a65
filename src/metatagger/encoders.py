"""The three token encoders.

* sentence-level character encoder: the char view's body
  (``nn.ViewParams``) over the whole character stream, spaces included;
  between its BiLSTM and its MLP a token's representation is gathered
  from the forward and backward outputs at its first and last character
* token-level character encoder: unidirectional LSTM over a single token's
  characters plus attention pooling; sees no context at all, kept as the
  contrastive baseline
* word encoder: the word view's body over word embeddings (learned
  zero-initialized table summed with a frozen pretrained table)

Each encoder owns an output head so it can be trained against its own
cross-entropy loss. Sentence inputs must have vocabulary ids attached
(data.assign_ids) before encoding.

Encoders take a batch, a list of sentences, and return one row per token,
sentences in batch order. Dropout comes from ``masks``, drawn by
``nn.draw_masks`` over the encoder's ``dropout_sites``; without masks the
encoder runs as at evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from . import tensor as T
from .data import Sentence
from .tensor import Tensor

if TYPE_CHECKING:
    from .training import TrainConfig

GATHER_PARTS = ("F_1st", "F_last", "B_1st", "B_last")


def canonical_gather(parts) -> tuple[str, ...]:
    """Validate a gather strategy and fix its order to the canonical one."""
    got = set(parts)
    bad = got - set(GATHER_PARTS)
    if bad:
        raise ValueError(f"unknown gather parts {sorted(bad)}; "
                         f"valid: {GATHER_PARTS}")
    if not got:
        raise ValueError("gather strategy must name at least one output")
    return tuple(p for p in GATHER_PARTS if p in got)


@dataclass
class CharSentEncoderParams:
    char_table: Tensor
    gather: tuple[str, ...]
    emb_dropout: float
    view: nn.ViewParams

    def dropout_sites(self, sentence: Sentence) -> list[nn.Site]:
        return ([("emb", self.char_table.shape[1], self.emb_dropout)]
                + self.view.dropout_sites(sentence))

    def parameters(self, prefix: str = "char_sent"):
        return ([(f"{prefix}.char_table", self.char_table)]
                + self.view.parameters(prefix))


def char_sent_encoder(config: TrainConfig, n_chars: int, n_tags: int,
                      rng: np.random.Generator) -> CharSentEncoderParams:
    """Character table, then the char view's body over it, its MLP
    reading ``config.gather_parts()``."""
    gather = config.gather_parts()
    emb_dim = config.char_emb_dim
    table = T.create((n_chars, emb_dim), init="gaussian", rng=rng,
                     std=nn.init_std(config.char_emb_init, 1),
                     requires_grad=True)
    view = nn.view_params(config, "char", emb_dim, n_tags, rng,
                          parts=len(gather))
    return CharSentEncoderParams(table, gather, config.char_emb_dropout, view)


def token_counts(batch: list[Sentence]) -> list[int]:
    return [len(s.tokens) for s in batch]


def _check_char_batch(batch: list[Sentence], op: str) -> None:
    """Check a batch for the character encoders."""
    for s in batch:
        if len(s.tokens) == 0:
            raise T.ShapeError(f"{op}: sentence has no tokens")
        if s.char_ids is None:
            raise ValueError(
                "sentence has no char ids; run data.assign_ids first")


def encode_chars_sentence(p: CharSentEncoderParams, batch: list[Sentence],
                          masks: dict | None = None
                          ) -> tuple[Tensor, Tensor, Tensor]:
    """Per-token (gathered rep, MLP output, logits) for a batch: one
    packed BiLSTM run over the sentences' character streams."""
    _check_char_batch(batch, "encode_chars_sentence")
    masks = masks or {}
    stream_lens = [len(s.char_ids) for s in batch]
    firsts, lasts = [], []
    offset = 0
    for s, n_stream in zip(batch, stream_lens):
        for pos in (s.tokens[0].char_span[0], s.tokens[-1].char_span[1]):
            if not 0 <= pos < n_stream:
                raise T.ShapeError(
                    f"token span position {pos} outside stream of {n_stream}")
        firsts += [offset + t.char_span[0] for t in s.tokens]
        lasts += [offset + t.char_span[1] for t in s.tokens]
        offset += n_stream
    emb = T.take_rows(p.char_table,
                      np.concatenate([s.char_ids for s in batch]))
    emb = nn.apply_mask(emb, masks.get("emb"), stream_lens)
    out = nn.bilstm_stack_run(p.view.stack, emb, lengths=stream_lens,
                              masks=masks)
    # As (2 * chars, hidden), row 2i is the forward state at character i
    # and row 2i + 1 the backward one: one gather picks every part.
    firsts, lasts = 2 * np.array(firsts), 2 * np.array(lasts)
    source = {"F_1st": firsts, "F_last": lasts,
              "B_1st": firsts + 1, "B_last": lasts + 1}
    ids = np.stack([source[name] for name in p.gather], axis=1).reshape(-1)
    hidden = p.view.stack.hidden_size
    g = T.reshape(T.take_rows(T.reshape(out, (2 * offset, hidden)), ids),
                  (len(firsts), len(p.gather) * hidden))
    return (g,) + nn.view_head(p.view, g, token_counts(batch), masks)


@dataclass
class CharTokenEncoderParams:
    """Context-free baseline: each token encoded from its own characters."""
    char_table: Tensor
    lstm: nn.LstmParams
    attn_vec: Tensor
    classifier: nn.Affine
    emb_dropout: float
    lstm_dropout: float

    def dropout_sites(self, sentence: Sentence) -> list[nn.Site]:
        """Per token: the embedding mask, then the state mask."""
        return [("emb", self.char_table.shape[1], self.emb_dropout),
                ("state", self.lstm.hidden_size, self.lstm_dropout)
                ] * len(sentence.tokens)

    def parameters(self, prefix: str = "char_token"):
        return ([(f"{prefix}.char_table", self.char_table)]
                + self.lstm.parameters(f"{prefix}.lstm")
                + [(f"{prefix}.attn_vec", self.attn_vec)]
                + self.classifier.parameters(f"{prefix}.classifier"))


def char_token_encoder(config: TrainConfig, n_chars: int, n_tags: int,
                       rng: np.random.Generator) -> CharTokenEncoderParams:
    """Character table, one LSTM of ``config.char_bilstm_size`` units,
    attention vector and classifier, at the config's init kinds."""
    emb_dim, hidden = config.char_emb_dim, config.char_bilstm_size
    table = T.create((n_chars, emb_dim), init="gaussian", rng=rng,
                     std=nn.init_std(config.char_emb_init, 1),
                     requires_grad=True)
    lstm = nn.lstm_params(emb_dim, hidden, rng, config.lstm_init)
    attn = T.create((hidden,), init="gaussian", rng=rng,
                    std=nn.init_std(config.lstm_init, hidden),
                    requires_grad=True)
    cls = nn.affine_params(hidden, n_tags, rng, "scaled")
    return CharTokenEncoderParams(table, lstm, attn, cls,
                                  config.char_emb_dropout, config.lstm_dropout)


def encode_chars_token(p: CharTokenEncoderParams, batch: list[Sentence],
                       masks: dict | None = None) -> tuple[Tensor, Tensor]:
    """Per-token (rep, logits); the rep of a token depends only on its form.
    One packed LSTM run over every token's characters."""
    _check_char_batch(batch, "encode_chars_token")
    masks = masks or {}
    spans = [(s, t.char_span) for s in batch for t in s.tokens]
    lens = [b - a + 1 for _, (a, b) in spans]
    ids = np.concatenate([s.char_ids[a:b + 1] for s, (a, b) in spans])
    emb = nn.apply_mask(T.take_rows(p.char_table, ids),
                        masks.get("emb"), lens)
    states = nn.lstm_run(p.lstm, emb, masks.get("state"), lengths=lens)
    reps = nn.char_attention(p.attn_vec, states, lens)
    return reps, nn.affine(p.classifier, reps)


@dataclass
class WordEncoderParams:
    learned: Tensor  # zero-initialized, trained
    pretrained: Tensor  # frozen, never receives gradient
    emb_dropout: float
    view: nn.ViewParams

    def dropout_sites(self, sentence: Sentence) -> list[nn.Site]:
        return ([("emb", self.learned.shape[1], self.emb_dropout)]
                + self.view.dropout_sites(sentence))

    def parameters(self, prefix: str = "word"):
        # the pretrained matrix is intentionally absent: it is not a
        # trainable parameter and must stay out of optimizer updates
        return ([(f"{prefix}.learned", self.learned)]
                + self.view.parameters(prefix))


def word_encoder(config: TrainConfig, n_words: int, n_tags: int,
                 rng: np.random.Generator,
                 pretrained: np.ndarray | None = None) -> WordEncoderParams:
    """Learned and frozen embedding tables, then the word view's body over
    them. The embedding width is the ``pretrained`` matrix's, or
    ``config.word_emb_dim`` without one (a zero frozen table)."""
    if pretrained is None:
        pretrained = np.zeros((n_words, config.word_emb_dim))
    emb_dim = pretrained.shape[-1]
    if pretrained.shape != (n_words, emb_dim):
        raise T.ShapeError(
            f"pretrained matrix {pretrained.shape} does not match "
            f"({n_words}, {emb_dim})")
    learned = T.create((n_words, emb_dim), init="zeros", requires_grad=True)
    frozen = Tensor(pretrained, requires_grad=False)
    view = nn.view_params(config, "word", emb_dim, n_tags, rng)
    return WordEncoderParams(learned, frozen, config.word_emb_dropout, view)


def encode_words(p: WordEncoderParams, batch: list[Sentence],
                 masks: dict | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Per-token (BiLSTM output, MLP output, logits) for a batch: one packed
    BiLSTM run over the sentences' word sequences."""
    if any(len(s.tokens) == 0 for s in batch):
        raise T.ShapeError("encode_words: sentence has no tokens")
    masks = masks or {}
    ids = [t.word_id for s in batch for t in s.tokens]
    if any(i is None for i in ids):
        raise ValueError("sentence has no word ids; run data.assign_ids first")
    lens = token_counts(batch)
    emb = T.add(T.take_rows(p.learned, ids), T.take_rows(p.pretrained, ids))
    emb = nn.apply_mask(emb, masks.get("emb"), lens)
    o = nn.bilstm_stack_run(p.view.stack, emb, lengths=lens, masks=masks)
    return (o,) + nn.view_head(p.view, o, lens, masks)
