"""Names, units and directions of every metric the benchmark prints.
BENCHMARK.json lists the same; perfbench/tests checks that they agree.
Imports nothing, so run.py can use it without loading numpy.
"""

WORKLOADS = ("desk-train", "paper-train", "paper-tag")
# The workloads BENCHMARK.json lists. desk-train runs only by hand: on a
# shared VM whose speed switches between two levels about 1.7x apart for
# tens of seconds at a time, its interpreter-bound runs land wholly on one
# level or the other, so ten runs spread by more than any usable bound.
BENCHMARKED = ("paper-train", "paper-tag")

# Printed by every workload. On the training workloads tok_s is gold
# tokens trained per second over the three passes of an epoch and
# fwd_tok_s is training.evaluate on dev; on paper-tag tok_s is CoNLL-U
# text in to CoNLL-U text out and fwd_tok_s the tag_corpus share of it.
END_TO_END = {
    "tok_s": "tok/s",
    "fwd_tok_s": "tok/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The specific name of what each shared metric measures on a workload;
# the human-readable lines print it next to the shared name.
ALIASES = {
    "desk-train": {"tok_s": "train_tok_s", "fwd_tok_s": "dev_eval_tok_s"},
    "paper-train": {"tok_s": "train_tok_s", "fwd_tok_s": "dev_eval_tok_s"},
    "paper-tag": {"tok_s": "tag_tok_s", "fwd_tok_s": "tag_corpus_tok_s"},
}

# Throughput of each training pass, measured in the untraced run. Zero on
# paper-tag, which does not train.
PASS_TOK_S = ("char_pass_tok_s", "word_pass_tok_s", "meta_pass_tok_s")

TRAIN_PASSES = ("char", "word", "meta")
ALL_PASSES = TRAIN_PASSES + ("eval", "tag")


def _per_pass(prefix, unit, better, passes):
    return [(f"{prefix}.{p}", unit, better) for p in passes]


# (name, unit, better) of every per-layer metric, in print order. Layer
# seconds and counts are per repetition of the measured work (see
# perfbench/README.md); set-up layers are per set-up.
PER_LAYER = (
    _per_pass("tensor.record.calls", "count", "lower", ALL_PASSES)
    + _per_pass("tensor.graph.nodes", "count", "lower", TRAIN_PASSES)
    + _per_pass("tensor.graph.useful_ratio", "ratio", "higher",
                TRAIN_PASSES)
    + _per_pass("tensor.graph.backward_self_s", "s", "lower", TRAIN_PASSES)
    + _per_pass("nn.lstm_run.calls", "count", "lower", ALL_PASSES)
    + _per_pass("nn.lstm_run.steps", "count", "lower", ALL_PASSES)
    + _per_pass("nn.lstm_run.fwd_s", "s", "lower", ALL_PASSES)
    + _per_pass("nn.lstm_run.bwd_s", "s", "lower", TRAIN_PASSES)
    + _per_pass("nn.softmax_xent_rows.s", "s", "lower", TRAIN_PASSES)
    + _per_pass("encoders.encode_chars_sentence.s", "s", "lower",
                ("char", "meta", "eval", "tag"))
    + _per_pass("encoders.encode_words.s", "s", "lower",
                ("word", "meta", "eval", "tag"))
    + _per_pass("meta.combine.s", "s", "lower", ("meta", "eval", "tag"))
    + _per_pass("training.adam.step_s", "s", "lower", TRAIN_PASSES)
    + _per_pass("training.adam.steps", "count", "lower", TRAIN_PASSES)
    + [("training.prepare.s", "s", "lower"),
       ("training.checkpoint_load.s", "s", "lower"),
       ("training.checkpoint.rebuild_s", "s", "lower"),
       ("data.parse_conllu.s", "s", "lower"),
       ("data.assign_ids.s", "s", "lower"),
       ("data.write_conllu.s", "s", "lower"),
       ("evaluation.score.s", "s", "lower")]
    + [(name, "tok/s", "higher") for name in PASS_TOK_S]
    # traced minus untraced, per end-to-end and pass metric
    + [(f"trace.overhead.{name}", unit,
        "higher" if unit == "tok/s" else "lower")
       for name, unit in list(END_TO_END.items())
       + [(n, "tok/s") for n in PASS_TOK_S]]
)

# Per-layer counts that must repeat exactly for the same seed.
EXACT_COUNTS = ("tensor.record.calls", "tensor.graph.nodes",
                "nn.lstm_run.calls", "nn.lstm_run.steps",
                "training.adam.steps")
