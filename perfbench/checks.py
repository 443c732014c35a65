"""Output checks of the benchmark. Each returns what it found wrong, so a
failed check counts against the operations it covers and the run goes on.
"""

from __future__ import annotations

import math

from metatagger import data


def nonfinite(values) -> int:
    """How many of ``values`` (batch losses, accuracies) are NaN or
    infinite."""
    return sum(1 for v in values if not math.isfinite(v))


def tagged_output(input_text: str, output_text: str, tags,
                  task: str) -> tuple[int, list[str]]:
    """Check tagged CoNLL-U against the text that was tagged.

    Per sentence: the output re-parses to the same number of sentences and
    of tokens; comment lines and every column but the task column are
    byte-identical to the input; every predicted tag is in ``tags``.
    Returns (sentences that fail, one message per failure found).
    """
    column = data.TASK_COLUMN[task]
    blocks_in = _blocks(input_text)
    blocks_out = _blocks(output_text)
    if len(blocks_in) != len(blocks_out):
        return len(blocks_in), [f"{len(blocks_in)} sentences in, "
                                f"{len(blocks_out)} out"]
    problems = []
    bad = set()
    try:
        parsed_in = data.parse_conllu(input_text)
        parsed_out = data.parse_conllu(output_text)
    except data.DataError as e:
        return len(blocks_in), [f"output does not re-parse: {e}"]
    if len(parsed_in) != len(parsed_out):
        return len(blocks_in), [f"re-parse gives {len(parsed_out)} "
                                f"sentences, expected {len(parsed_in)}"]
    for k, (s_in, s_out) in enumerate(zip(parsed_in, parsed_out)):
        if len(s_in.tokens) != len(s_out.tokens):
            bad.add(k)
            problems.append(f"sentence {k + 1}: {len(s_out.tokens)} tokens "
                            f"out, {len(s_in.tokens)} in")
    for k, (b_in, b_out) in enumerate(zip(blocks_in, blocks_out)):
        problem = _block_problem(b_in, b_out, column, tags)
        if problem is not None:
            bad.add(k)
            problems.append(f"sentence {k + 1}: {problem}")
    return len(bad), problems


def _blocks(text: str) -> list[list[str]]:
    return [b.split("\n") for b in text.strip("\n").split("\n\n") if b]


def _block_problem(lines_in, lines_out, column, tags) -> str | None:
    if len(lines_in) != len(lines_out):
        return f"{len(lines_out)} lines out, {len(lines_in)} in"
    for line_in, line_out in zip(lines_in, lines_out):
        if line_in.startswith("#") or line_out.startswith("#"):
            if line_in != line_out:
                return f"comment changed: {line_out!r}"
            continue
        cols_in = line_in.split("\t")
        cols_out = line_out.split("\t")
        if not cols_in[0].isdigit():  # multiword range or empty node
            if line_in != line_out:
                return f"line changed: {line_out!r}"
            continue
        if len(cols_out) != len(cols_in):
            return f"{len(cols_out)} columns out: {line_out!r}"
        for j, (a, b) in enumerate(zip(cols_in, cols_out)):
            if j != column and a != b:
                return f"column {j + 1} changed: {line_out!r}"
        if cols_out[column] not in tags:
            return f"tag {cols_out[column]!r} not in the model's tag set"
    return None
