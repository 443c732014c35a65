"""Combiner model: the meta view's body (``nn.ViewParams``: BiLSTM stack,
MLP, classifier) over the concatenated per-token MLP outputs of the
character and word models. It gathers nothing, and its input takes no
dropout: its MLP reads every BiLSTM output row.

What it reads of each encoder is a package decision, since the paper's
abstract does not say: the encoder's MLP output after that encoder's
"mlp" dropout mask, the output ``nn.view_forward`` returns to
``training.forward``. Over 40 seeds of the optimization study, separate
minus joint optimization is -0.41 points as built and -0.07 when the
combiner reads the outputs before the masks (README, Experiments).

``training.build_model`` builds the body with ``nn.view_params``. Whether
the combiner's loss reaches the encoders is decided by
``training.forward``, which hands this model their outputs.
"""

from __future__ import annotations

from . import nn
from . import tensor as T
from .tensor import Tensor


def combine(p: nn.ViewParams, m_chars: Tensor, m_word: Tensor, lengths,
            masks: dict | None = None) -> tuple[Tensor, Tensor]:
    """Per-token (combined rep, logits) for the sentences whose token rows
    the encoder outputs stack, split by ``lengths``, the sentences' token
    counts. Dropout comes from ``masks`` (see
    ``nn.ViewParams.dropout_sites``)."""
    cw = T.concat([m_chars, m_word], axis=1)
    return nn.view_forward(p, cw, lengths, masks)[1:]
