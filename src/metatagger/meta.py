"""Combiner model: a BiLSTM over the concatenated per-token outputs of the
character and word models, with its own MLP and classifier.

Whether the combiner's loss reaches the encoders is decided by
``training.forward``, which hands this model their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

if TYPE_CHECKING:
    from .training import TrainConfig


@dataclass
class MetaParams:
    stack: nn.BiLstmStack
    mlp: nn.MlpParams
    classifier: nn.ClassifierParams
    lstm_dropout: float
    mlp_dropout: float

    def dropout_sites(self, sentence) -> list[nn.Site]:
        return (nn.stack_sites(self.stack, self.lstm_dropout)
                + [("mlp", self.mlp.output_size, self.mlp_dropout)])

    def parameters(self, prefix: str = "meta"):
        return (self.stack.parameters(f"{prefix}.stack")
                + self.mlp.parameters(f"{prefix}.mlp")
                + self.classifier.parameters(f"{prefix}.classifier"))


def meta_params(config: TrainConfig, char_rep_size: int, n_tags: int,
                rng: np.random.Generator) -> MetaParams:
    """BiLSTM stack over a character output of ``char_rep_size`` beside the
    word model's ``config.mlp_size`` one, then MLP and classifier, at the
    config's ``meta_*`` sizes and init kinds."""
    hidden = config.meta_bilstm_size
    stack = nn.bilstm_stack(char_rep_size + config.mlp_size, hidden,
                            config.meta_bilstm_layers, rng, config.lstm_init)
    mlp = nn.mlp_params(2 * hidden, config.mlp_size, rng, config.mlp_init)
    cls = nn.classifier_params(config.mlp_size, n_tags, rng)
    return MetaParams(stack, mlp, cls, config.lstm_dropout,
                      config.mlp_dropout)


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
