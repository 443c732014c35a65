"""Synthetic diagnostic corpora with controlled information placement.

Two families:

* suffix-context corpus: every token is stem+suffix and a token's tag is
  decided by the NEXT token's suffix. Only an encoder that reads past the
  token boundary can solve it; a token-internal character model is stuck
  near the class prior, and a word model fails on held-out stems.
* complementary corpus: tokens alternate between a small closed vocabulary
  with arbitrary memorized tags (easy for the word model, slow for a
  character model because the forms are permutations of one letter pool)
  and open-class tokens whose tag is carried by their own suffix (easy for
  the character model, hopeless for the word model on unseen stems).

Both generators emit CoNLL-U text with tags in the XPOS column, so the
normal data pipeline applies unchanged. Train and dev draw their open-class
stems from disjoint sets.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .data import TASK_COLUMN, Sentence, parse_conllu, sentence_block

STEM_LETTERS = "bdfglmnprs"
SUFFIXES = ("ka", "tu")

TAG_FLIPS = {"K1": "K2", "K2": "K1", "S1": "S2", "S2": "S1",
             "KA": "TU", "TU": "KA"}


def _all_stems(rng: np.random.Generator) -> list[str]:
    stems = ["".join(p) for p in permutations(STEM_LETTERS, 3)]
    rng.shuffle(stems)
    return stems


def _conllu(sent_tags_forms: list[list[tuple[str, str]]]) -> list[Sentence]:
    blocks = []
    for pairs in sent_tags_forms:
        lines = [f"{i + 1}\t{form}\t_\t_\t{tag}\t_\t0\t_\t_\t_"
                 for i, (form, tag) in enumerate(pairs)]
        blocks.append("\n".join(lines))
    return parse_conllu("\n\n".join(blocks) + "\n")


def _suffix_class(form: str) -> str:
    return "KA" if form.endswith("ka") else "TU"


def suffix_context_sentences(stems: list[str], n_sentences: int,
                             rng: np.random.Generator, min_len: int = 4,
                             max_len: int = 7) -> list[Sentence]:
    """Sentences of stem+suffix tokens closed by ".". A token's tag names
    the suffix class of its right neighbor; the last real token is tagged
    END and the period PUNCT."""
    out = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        forms = [stems[rng.integers(len(stems))] + SUFFIXES[rng.integers(2)]
                 for _ in range(n)]
        pairs = []
        for i, form in enumerate(forms):
            if i + 1 < n:
                tag = _suffix_class(forms[i + 1])
            else:
                tag = "END"
            pairs.append((form, tag))
        pairs.append((".", "PUNCT"))
        out.append(pairs)
    return _conllu(out)


def suffix_context_corpora(seed: int, n_train: int = 60, n_dev: int = 30
                           ) -> tuple[list[Sentence], list[Sentence]]:
    """Train/dev pair with disjoint inventories of 40 stems each."""
    rng = np.random.default_rng(seed)
    stems = _all_stems(rng)
    train = suffix_context_sentences(stems[:40], n_train, rng)
    dev = suffix_context_sentences(stems[40:80], n_dev, rng)
    return train, dev


def closed_vocabulary(rng: np.random.Generator, n_forms: int = 12
                      ) -> dict[str, str]:
    """Fixed lexicon of permutation forms with arbitrary K1/K2 tags."""
    forms = ["".join(p) for p in permutations("lorit")][:n_forms * 4]
    rng.shuffle(forms)
    forms = forms[:n_forms]
    return {form: ("K1" if rng.random() < 0.5 else "K2") for form in forms}


def complementary_sentences(lexicon: dict[str, str], stems: list[str],
                            n_sentences: int, rng: np.random.Generator
                            ) -> list[Sentence]:
    """Two or three pairs per sentence of a closed-vocabulary token and an
    open-class suffix-tagged one."""
    closed_forms = list(lexicon)
    out = []
    for _ in range(n_sentences):
        pairs = []
        for _ in range(int(rng.integers(2, 4))):
            w = closed_forms[rng.integers(len(closed_forms))]
            pairs.append((w, lexicon[w]))
            suffix = SUFFIXES[rng.integers(2)]
            stem = stems[rng.integers(len(stems))]
            pairs.append((stem + suffix,
                          "S1" if suffix == "ka" else "S2"))
        out.append(pairs)
    return _conllu(out)


def corrupt_tags(sentences: list[Sentence], rate: float, seed: int) -> None:
    """Flip each token's XPOS tag to its paired class with probability
    ``rate``, in place. One random draw is consumed per token whether or
    not its tag is flippable, so the stream is stable across tag sets.
    Structural tags without a pair (END, PUNCT) are left alone."""
    rng = np.random.default_rng(seed)
    col = TASK_COLUMN["xpos"]
    for sent in sentences:
        for tok in sent.tokens:
            if rng.random() < rate and tok.columns[col] in TAG_FLIPS:
                tok.columns[col] = TAG_FLIPS[tok.columns[col]]
        sent.raw_lines = sentence_block(sent, sent.gold_tags("xpos"), "xpos")


def complementary_corpora(seed: int, n_train: int = 60, n_dev: int = 30,
                          n_closed: int = 12,
                          noise_rate: float = 0.0,
                          noise_seed: int | None = None
                          ) -> tuple[list[Sentence], list[Sentence]]:
    """Train/dev pair sharing the closed lexicon, with disjoint inventories
    of 40 open stems each.
    ``noise_rate`` corrupts train tags only; dev stays clean."""
    rng = np.random.default_rng(seed)
    lexicon = closed_vocabulary(rng, n_closed)
    stems = _all_stems(rng)
    train = complementary_sentences(lexicon, stems[:40], n_train, rng)
    dev = complementary_sentences(lexicon, stems[40:80], n_dev, rng)
    if noise_rate > 0.0:
        corrupt_tags(train, noise_rate,
                     seed if noise_seed is None else noise_seed)
    return train, dev
