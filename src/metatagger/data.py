"""CoNLL-U ingestion, character streams, vocabularies and embeddings.

Sentences keep their raw lines so tagged output can reproduce the input
byte-for-byte outside the one column being rewritten. The character stream
of a sentence is the concatenation of token forms separated by single ASCII
spaces, whatever the original whitespace was; spans index into that stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CoNLL-U column indices
COL_ID, COL_FORM, COL_LEMMA, COL_UPOS, COL_XPOS, COL_FEATS = 0, 1, 2, 3, 4, 5
N_COLS = 10

TASK_COLUMN = {"upos": COL_UPOS, "xpos": COL_XPOS, "feats": COL_FEATS}

UNK_ID = 0


class DataError(ValueError):
    """Malformed input data (bad CoNLL-U line, bad embedding file, ...)."""


@dataclass
class Token:
    """One word line: its ten columns, FEATS canonicalized (see
    ``morph_bundle_tag``) unless parsed for the upos or xpos task."""
    columns: list[str]

    @property
    def form(self) -> str:
        return self.columns[COL_FORM]


@dataclass
class Sentence:
    tokens: list[Token]
    chars: str  # forms joined by single spaces
    spans: np.ndarray  # (tokens, 2): inclusive first, last of each form
    raw_lines: list[str]  # full block, comments and range lines included
    token_line_idx: list[int]  # position of each token's line in raw_lines
    char_ids: np.ndarray | None = None
    word_ids: np.ndarray | None = None
    tag_ids: np.ndarray | None = None  # gold tag ids, -1 for an unknown tag

    def __len__(self) -> int:
        return len(self.tokens)

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    def gold_tags(self, task: str) -> list[str]:
        col = TASK_COLUMN[task]
        return [t.columns[col] for t in self.tokens]


def morph_bundle_tag(feats_column: str) -> str:
    """Canonicalize a FEATS column into one tag string.

    Pairs are sorted by attribute name and re-joined with '|'; "_" stays
    itself (the empty bundle).
    """
    if feats_column == "_":
        return "_"
    pairs = feats_column.split("|")
    for p in pairs:
        if "=" not in p:
            raise DataError(f"malformed feature pair {p!r} in {feats_column!r}")
    return "|".join(sorted(pairs, key=lambda p: p.split("=", 1)[0]))


def char_stream_build(forms: list[str]) -> tuple[str, list[tuple[int, int]]]:
    """Join forms with single spaces; return the stream and inclusive spans."""
    if not forms:
        raise DataError("char_stream_build: no forms")
    spans = []
    pos = 0
    for form in forms:
        if not form:
            raise DataError("char_stream_build: empty token form")
        spans.append((pos, pos + len(form) - 1))
        pos += len(form) + 1
    return " ".join(forms), spans


def _is_range_id(tok_id: str) -> bool:
    return "-" in tok_id


def _is_empty_node_id(tok_id: str) -> bool:
    return "." in tok_id


def parse_conllu(text: str, task: str | None = None) -> list[Sentence]:
    """Parse CoNLL-U text into Sentences.

    Word lines become Tokens; multiword range lines ("1-2") and empty-node
    lines ("1.1") are retained in raw_lines but produce no Token. A block
    containing only comments yields a token-less Sentence so that rewriting
    preserves the file structure. Lines may end in "\r\n"; the "\r" is
    dropped.

    The FEATS column is canonicalized (see ``morph_bundle_tag``) unless
    ``task`` names another column, in which case it is kept as written
    and a malformed bundle is no error.
    """
    canonical_feats = task in (None, "feats")
    sentences: list[Sentence] = []
    block: list[str] = []
    token_cols: list[list[str]] = []
    token_line_idx: list[int] = []

    def flush():
        nonlocal block, token_cols, token_line_idx
        if not block:
            return
        forms = [cols[COL_FORM] for cols in token_cols]
        if forms:
            chars, spans = char_stream_build(forms)
        else:
            chars, spans = "", []
        spans = np.array(spans, dtype=np.intp).reshape(-1, 2)
        sentences.append(Sentence(tokens=[Token(cols) for cols in token_cols],
                                  chars=chars, spans=spans, raw_lines=block,
                                  token_line_idx=token_line_idx))
        block, token_cols, token_line_idx = [], [], []

    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line == "":
            flush()
            continue
        if line.startswith("#"):
            block.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != N_COLS:
            raise DataError(
                f"line {lineno}: expected {N_COLS} tab-separated columns, "
                f"got {len(cols)}")
        block.append(line)
        tok_id = cols[COL_ID]
        if _is_range_id(tok_id) or _is_empty_node_id(tok_id):
            continue
        if cols[COL_FORM] == "":
            raise DataError(f"line {lineno}: empty token form")
        if canonical_feats:
            try:
                cols[COL_FEATS] = morph_bundle_tag(cols[COL_FEATS])
            except DataError as e:
                raise DataError(f"line {lineno}: {e}") from None
        token_cols.append(cols)
        token_line_idx.append(len(block) - 1)
    flush()
    return sentences


def sentence_block(sentence: Sentence, tags: list[str] | None = None,
                   task: str = "xpos") -> list[str]:
    """Raw lines of a sentence, optionally with the task column rewritten."""
    if tags is None:
        return list(sentence.raw_lines)
    if len(tags) != len(sentence.tokens):
        raise DataError(
            f"{len(tags)} tags for {len(sentence.tokens)} tokens")
    col = TASK_COLUMN[task]
    lines = list(sentence.raw_lines)
    for tok_pos, line_pos in enumerate(sentence.token_line_idx):
        cols = lines[line_pos].split("\t")
        cols[col] = tags[tok_pos]
        lines[line_pos] = "\t".join(cols)
    return lines


def write_conllu(sentences: list[Sentence],
                 tags: list[list[str]] | None = None,
                 task: str = "xpos") -> str:
    """Serialize sentences back to CoNLL-U text (one blank line after each)."""
    parts = []
    for i, s in enumerate(sentences):
        block = sentence_block(s, tags[i] if tags is not None else None, task)
        parts.append("\n".join(block))
    return "\n\n".join(parts) + "\n" if parts else ""


# ---------------------------------------------------------------------------
# vocabularies

@dataclass(frozen=True)
class Vocabs:
    """Frozen string-to-id maps. Id 0 is the unknown word / unknown char;
    real entries start at 1. Tags carry no unknown entry: the tag inventory
    is fixed by the training data, and ``assign_ids`` gives an unseen gold
    tag id -1, which never matches any prediction."""
    words: dict[str, int]
    chars: dict[str, int]
    tags: dict[str, int]
    task: str

    @property
    def n_words(self) -> int:
        return len(self.words) + 1

    @property
    def n_chars(self) -> int:
        return len(self.chars) + 1

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def word_id(self, form: str) -> int:
        return self.words.get(form, UNK_ID)

    def char_id(self, ch: str) -> int:
        return self.chars.get(ch, UNK_ID)

    def tag_strings(self) -> list[str]:
        out = [""] * len(self.tags)
        for tag, i in self.tags.items():
            out[i] = tag
        return out


def build_vocabs(train_sentences: list[Sentence], task: str = "xpos",
                 min_count: int = 1) -> Vocabs:
    """First-occurrence-ordered vocabularies over the training corpus."""
    counts: dict[str, int] = {}
    word_order: list[str] = []
    chars: dict[str, int] = {}
    tags: dict[str, int] = {}
    for s in train_sentences:
        for t in s.tokens:
            if t.form not in counts:
                word_order.append(t.form)
                counts[t.form] = 0
            counts[t.form] += 1
        for ch in s.chars:
            if ch not in chars:
                chars[ch] = len(chars) + 1
        for tag in s.gold_tags(task):
            if tag not in tags:
                tags[tag] = len(tags)
    words = {}
    for w in word_order:
        if counts[w] >= min_count:
            words[w] = len(words) + 1
    return Vocabs(words=words, chars=chars, tags=tags, task=task)


def assign_ids(sentences: list[Sentence], vocabs: Vocabs) -> None:
    """Attach the char-stream ids, word ids and gold tag ids of
    ``vocabs.task`` in place, one array each. A tag the vocabulary lacks
    gets -1, which no prediction equals."""
    for s in sentences:
        s.char_ids = np.array([vocabs.char_id(c) for c in s.chars],
                              dtype=np.intp)
        s.word_ids = np.array([vocabs.word_id(f) for f in s.forms()],
                              dtype=np.intp)
        s.tag_ids = np.array([vocabs.tags.get(tag, -1)
                              for tag in s.gold_tags(vocabs.task)],
                             dtype=np.intp)


# ---------------------------------------------------------------------------
# pretrained embeddings

def load_pretrained(path: str, vocabs: Vocabs,
                    lowercase_fallback: bool = True) -> np.ndarray:
    """Read a text embedding file ("token v1 .. vd" lines, optional
    "count dim" header) into the (n_words, dim) matrix aligned with the
    word vocabulary.

    Row 0 (the unknown word) and vocabulary words missing from the file
    get zero rows. With ``lowercase_fallback`` a miss retries the
    lowercased form. A value that is not finite (``nan``, ``inf``,
    ``1e999``) is an error naming its line.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            if len(parts) < 2 and line.strip() == "":
                continue
            token = parts[0]
            try:
                vec = np.array([float(v) for v in parts[1:] if v != ""])
            except ValueError as e:
                raise DataError(f"embedding line {lineno}: {e}") from None
            if vec.size == 0:
                raise DataError(f"embedding line {lineno}: no vector values")
            if not np.isfinite(vec).all():
                raise DataError(f"embedding line {lineno}: non-finite value")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(
                    f"embedding line {lineno}: dimension {vec.size} != {dim}")
            vectors[token] = vec
    if dim is None:
        raise DataError(f"embedding file {path} contains no vectors")

    matrix = np.zeros((vocabs.n_words, dim))
    for word, idx in vocabs.words.items():
        vec = vectors.get(word)
        if vec is None and lowercase_fallback:
            vec = vectors.get(word.lower())
        if vec is not None:
            matrix[idx] = vec
    return matrix


# ---------------------------------------------------------------------------
# splitting

def dev_split(corpus: list[Sentence],
              seed: int = 0) -> tuple[list[Sentence], list[Sentence]]:
    """Seeded sentence-level split; dev gets 10% of the N sentences,
    rounded up. Both halves keep their original corpus order."""
    n = len(corpus)
    if n < 2:
        raise DataError(f"cannot split a corpus of {n} sentence(s)")
    n_dev = math.ceil(0.1 * n)
    perm = np.random.default_rng(seed).permutation(n)
    dev_idx = set(perm[:n_dev].tolist())
    train = [s for i, s in enumerate(corpus) if i not in dev_idx]
    dev = [s for i, s in enumerate(corpus) if i in dev_idx]
    return train, dev
