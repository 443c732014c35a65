"""Combiner model: the meta view's body (``nn.ViewParams``: BiLSTM stack,
MLP, classifier) over the concatenated per-token MLP outputs of the
character and word models. It gathers nothing: its MLP reads every
BiLSTM output row.

Whether the combiner's loss reaches the encoders is decided by
``training.forward``, which hands this model their outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

if TYPE_CHECKING:
    from .training import TrainConfig


def meta_params(config: TrainConfig, char_rep_size: int, n_tags: int,
                rng: np.random.Generator) -> nn.ViewParams:
    """The meta view's body over a character output of ``char_rep_size``
    beside the word model's ``config.mlp_size`` one."""
    return nn.view_params(config, "meta", char_rep_size + config.mlp_size,
                          n_tags, rng)


def combine(p: nn.ViewParams, m_chars: Tensor, m_word: Tensor, lengths,
            masks: dict | None = None) -> tuple[Tensor, Tensor]:
    """Per-token (combined rep, logits) for the sentences whose token rows
    the encoder outputs stack, split by ``lengths``, the sentences' token
    counts. Dropout comes from ``masks`` (see
    ``nn.ViewParams.dropout_sites``)."""
    if m_chars.shape[0] != m_word.shape[0]:
        raise T.ShapeError(
            f"combine: {m_chars.shape[0]} char outputs vs "
            f"{m_word.shape[0]} word outputs")
    masks = masks or {}
    cw = T.concat([m_chars, m_word], axis=1)
    o = nn.bilstm_stack_run(p.stack, cw, lengths=lengths, masks=masks)
    return nn.view_head(p, o, lengths, masks)
