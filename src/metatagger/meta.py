"""Combiner model: a BiLSTM over the concatenated per-token outputs of the
character and word models, with its own MLP and classifier.

Whether the combiner's loss reaches the encoders is decided by
``training.forward``, which hands this model their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor


@dataclass
class MetaParams:
    stack: nn.BiLstmStack
    mlp: nn.MlpParams
    classifier: nn.ClassifierParams
    lstm_dropout: float = 0.0
    mlp_dropout: float = 0.0

    def dropout_sites(self, sentence) -> list[nn.Site]:
        return (nn.stack_sites(self.stack, self.lstm_dropout)
                + [("mlp", self.mlp.output_size, self.mlp_dropout)])

    def parameters(self, prefix: str = "meta"):
        return (self.stack.parameters(f"{prefix}.stack")
                + self.mlp.parameters(f"{prefix}.mlp")
                + self.classifier.parameters(f"{prefix}.classifier"))


def meta_params(char_rep_size: int, word_rep_size: int, n_tags: int, *,
                hidden: int = 400, depth: int = 1, mlp_size: int = 400,
                rng: np.random.Generator, mlp_init: str = "gaussian",
                lstm_init: str = "scaled", lstm_dropout: float = 0.0,
                mlp_dropout: float = 0.0) -> MetaParams:
    stack = nn.bilstm_stack(char_rep_size + word_rep_size, hidden, depth,
                            rng, lstm_init)
    mlp = nn.mlp_params(2 * hidden, mlp_size, rng, mlp_init)
    cls = nn.classifier_params(mlp_size, n_tags, rng)
    return MetaParams(stack, mlp, cls, lstm_dropout, mlp_dropout)


def combine(p: MetaParams, m_chars: Tensor, m_word: Tensor, lengths,
            masks: dict | None = None) -> tuple[Tensor, Tensor]:
    """Per-token (combined rep, logits) for the sentences whose token rows
    the encoder outputs stack, split by ``lengths``, the sentences' token
    counts. Dropout comes from ``masks`` (see
    ``MetaParams.dropout_sites``)."""
    if m_chars.shape[0] != m_word.shape[0]:
        raise T.ShapeError(
            f"combine: {m_chars.shape[0]} char outputs vs "
            f"{m_word.shape[0]} word outputs")
    masks = masks or {}
    cw = T.concat([m_chars, m_word], axis=1)
    o = nn.bilstm_stack_run(p.stack, cw, lengths=lengths, masks=masks)
    m = nn.apply_mask(nn.mlp_apply(p.mlp, o), masks.get("mlp"), lengths)
    return m, nn.classify(p.classifier, m)
