"""Combiner model: a BiLSTM over the concatenated per-token outputs of the
character and word models, with its own MLP and classifier.

In the default (separate-optimization) mode the encoder outputs are detached
before concatenation, so the combiner's loss cannot move encoder weights.
Joint mode skips the detach; it exists for the optimization ablation.
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


def combine(p: MetaParams, m_chars: Tensor, m_word: Tensor, lengths=None,
            masks: dict | None = None, detach: bool = True
            ) -> tuple[Tensor, Tensor]:
    """Per-token (combined rep, logits) for the sentences whose token rows
    the encoder outputs stack, split by ``lengths`` (None is one sentence).
    Dropout comes from ``masks`` (see ``MetaParams.dropout_sites``).
    ``detach=True`` stops gradient at the inputs, keeping the encoders
    untouched by this model's loss."""
    if m_chars.shape[0] != m_word.shape[0]:
        raise T.ShapeError(
            f"combine: {m_chars.shape[0]} char outputs vs "
            f"{m_word.shape[0]} word outputs")
    if lengths is None:
        lengths = [m_chars.shape[0]]
    masks = masks or {}
    if detach:
        m_chars, m_word = m_chars.detach(), m_word.detach()
    cw = T.concat([m_chars, m_word], axis=1)
    f, b = nn.bilstm_stack_run(p.stack, cw, lengths=lengths, masks=masks)
    m = nn.apply_mask(nn.mlp_apply(p.mlp, T.concat([f, b], axis=1)),
                      masks.get("mlp"), lengths)
    return m, nn.classify(p.classifier, m)


predict = nn.predict_tags
