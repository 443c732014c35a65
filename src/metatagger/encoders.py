"""The three token encoders.

* sentence-level character encoder: the char view's body
  (``nn.ViewParams``) over the whole character stream, spaces included;
  between its BiLSTM and its MLP a token's representation is gathered
  from the forward and backward outputs at its first and last character,
  the parts its config names (``nn.GATHER_PARTS``), which
  ``nn.view_forward`` finds from each token's span in the batch's
  stacked streams
* token-level character encoder: unidirectional LSTM over a single token's
  characters plus attention pooling; sees no context at all, kept as the
  contrastive baseline
* word encoder: the word view's body over word embeddings (learned
  zero-initialized table summed with a frozen pretrained table)

Each encoder owns an output head, trained against its own cross-entropy
loss; the view encoders run theirs with their body, by ``nn.view_forward``.

Encoders take a batch, a list of sentences, and return one row per token,
sentences in batch order. They read each sentence's arrays and walk no
tokens: the token spans that parsing sets (``Sentence.spans``) and the
char and word id arrays that ``data.assign_ids`` attaches, which one
check of the batch requires. Dropout comes from ``masks``, drawn by
``nn.draw_masks`` over the ``dropout_sites`` of the encoder's body (of the
token encoder itself); without masks the encoder runs as at evaluation.
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

@dataclass
class CharSentEncoderParams:
    char_table: Tensor
    gather: tuple[str, ...]
    view: nn.ViewParams

    def parameters(self, prefix: str = "char_sent"):
        return ([(f"{prefix}.char_table", self.char_table)]
                + self.view.parameters(prefix))


def char_sent_encoder(config: TrainConfig, n_chars: int, n_tags: int,
                      rng: np.random.Generator) -> CharSentEncoderParams:
    """Character table, then the char view's body over it, its MLP
    reading ``config.gather_parts()``."""
    gather = config.gather_parts()
    emb_dim = config.char_emb_dim
    table = nn.gaussian((n_chars, emb_dim), rng,
                        nn.init_std(config.char_emb_init, 1))
    view = nn.view_params(config, "char", emb_dim, n_tags, rng,
                          parts=len(gather),
                          emb_dropout=config.char_emb_dropout)
    return CharSentEncoderParams(table, gather, view)


def token_counts(batch: list[Sentence]) -> list[int]:
    return [len(s.tokens) for s in batch]


def _check_batch(batch: list[Sentence], op: str) -> None:
    """Check a batch for any encoder: each sentence has tokens and the
    id arrays of ``data.assign_ids``."""
    for s in batch:
        if len(s.tokens) == 0:
            raise T.ShapeError(f"{op}: sentence has no tokens")
        if s.char_ids is None or s.word_ids is None or s.tag_ids is None:
            raise ValueError(
                "sentence has no vocabulary ids; run data.assign_ids first")


def encode_chars_sentence(p: CharSentEncoderParams, batch: list[Sentence],
                          masks: dict | None = None
                          ) -> tuple[Tensor, Tensor, Tensor]:
    """Per-token (gathered rep, MLP output, logits) for a batch: one
    packed BiLSTM run over the sentences' character streams."""
    _check_batch(batch, "encode_chars_sentence")
    stream_lens = [len(s.char_ids) for s in batch]
    starts = np.cumsum([0] + stream_lens[:-1])
    spans = np.concatenate([s.spans + start
                            for s, start in zip(batch, starts)])
    emb = T.take_rows(p.char_table,
                      np.concatenate([s.char_ids for s in batch]))
    return nn.view_forward(p.view, emb, stream_lens, masks,
                           gather=(spans, p.gather, token_counts(batch)))


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
    table = nn.gaussian((n_chars, emb_dim), rng,
                        nn.init_std(config.char_emb_init, 1))
    lstm = nn.lstm_params(emb_dim, hidden, rng, config.lstm_init)
    attn = nn.gaussian((hidden,), rng, nn.init_std(config.lstm_init, hidden))
    cls = nn.affine_params(hidden, n_tags, rng, "scaled")
    return CharTokenEncoderParams(table, lstm, attn, cls,
                                  config.char_emb_dropout, config.lstm_dropout)


def encode_chars_token(p: CharTokenEncoderParams, batch: list[Sentence],
                       masks: dict | None = None) -> tuple[Tensor, Tensor]:
    """Per-token (rep, logits); the rep of a token depends only on its form.
    One packed LSTM run over every token's characters."""
    _check_batch(batch, "encode_chars_token")
    masks = masks or {}
    spans = np.concatenate([s.spans for s in batch])
    lens = spans[:, 1] - spans[:, 0] + 1
    # each stream without the spaces that separate its tokens
    ids = np.concatenate([np.delete(s.char_ids, s.spans[:-1, 1] + 1)
                          for s in batch])
    states = nn.lstm_run(p.lstm, T.take_rows(p.char_table, ids),
                         masks.get("state"), lengths=lens,
                         x_mask=masks.get("emb"))
    reps = nn.char_attention(p.attn_vec, states, lens)
    return reps, nn.affine(p.classifier, reps)


@dataclass
class WordEncoderParams:
    learned: Tensor  # zero-initialized, trained
    pretrained: Tensor  # frozen, never receives gradient
    view: nn.ViewParams

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
    learned = nn.zeros((n_words, emb_dim))
    frozen = Tensor(pretrained, requires_grad=False)
    view = nn.view_params(config, "word", emb_dim, n_tags, rng,
                          emb_dropout=config.word_emb_dropout)
    return WordEncoderParams(learned, frozen, view)


def encode_words(p: WordEncoderParams, batch: list[Sentence],
                 masks: dict | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Per-token (BiLSTM output, MLP output, logits) for a batch: one packed
    BiLSTM run over the sentences' word sequences."""
    _check_batch(batch, "encode_words")
    ids = np.concatenate([s.word_ids for s in batch])
    emb = T.add(T.take_rows(p.learned, ids), T.take_rows(p.pretrained, ids))
    return nn.view_forward(p.view, emb, token_counts(batch), masks)
