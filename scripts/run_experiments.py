#!/usr/bin/env python3
"""Desk-scale versions of the three contrast studies.

  context       sentence-level vs token-level character encoder on the
                suffix-context corpus (char head, late integration)
  components    char / word / meta heads on the complementary corpus
  optimization  separate vs joint schedule on the noisy complementary
                corpus (meta head)

Each study trains small models over several seeds and prints a
mean/stdev table. Runtimes on one core are a few minutes per study
at the default 10 seeds.
"""

import argparse
import time

from metatagger import evaluation, synthetic, training

SMALL = dict(max_epochs=12, batch_size=8,
             char_bilstm_layers=1, word_bilstm_layers=1,
             meta_bilstm_layers=1,
             char_bilstm_size=24, word_bilstm_size=24, meta_bilstm_size=24,
             mlp_size=24, char_emb_dim=12, word_emb_dim=12,
             lstm_dropout=0.1, mlp_dropout=0.1, word_emb_dropout=0.1,
             char_emb_dropout=0.0, learning_rate=0.01,
             mlp_init="scaled", char_emb_init="scaled")


def fit(config, train, dev):
    model, tr, dv = training.prepare(config, train, dev)
    training.train_model(model, tr, dv)
    return model, dv


def study_context(seeds):
    results = {"sentence-chars": [], "token-chars": []}
    for seed in range(seeds):
        train, dev = synthetic.suffix_context_corpora(seed + 100)
        for encoder, label in (("sentence", "sentence-chars"),
                               ("token", "token-chars")):
            cfg = training.TrainConfig(seed=seed + 1, char_encoder=encoder,
                                       **SMALL)
            model, dv = fit(cfg, train, dev)
            results[label].append(training.evaluate(model, dv, "char"))
    return results


def study_components(seeds):
    results = {"char-only": [], "word-only": [], "meta": []}
    for seed in range(seeds):
        train, dev = synthetic.complementary_corpora(seed + 200)
        cfg = training.TrainConfig(seed=seed + 1,
                                   **dict(SMALL, max_epochs=15))
        model, dv = fit(cfg, train, dev)
        results["char-only"].append(training.evaluate(model, dv, "char"))
        results["word-only"].append(training.evaluate(model, dv, "word"))
        results["meta"].append(training.evaluate(model, dv, "meta"))
    return results


def study_optimization(seeds):
    small = dict(SMALL, max_epochs=10, learning_rate=0.005,
                 char_bilstm_size=16, word_bilstm_size=16,
                 meta_bilstm_size=16, mlp_size=16)
    results = {"separate": [], "joint": []}
    for seed in range(seeds):
        train, dev = synthetic.complementary_corpora(
            seed + 200, n_closed=32, noise_rate=0.1, noise_seed=seed + 999)
        for mode in ("separate", "joint"):
            cfg = training.TrainConfig(seed=seed + 1, optimization=mode,
                                       **small)
            model, dv = fit(cfg, train, dev)
            results[mode].append(training.evaluate(model, dv, "meta"))
    return results


STUDIES = {"context": study_context, "components": study_components,
           "optimization": study_optimization}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("study", choices=sorted(STUDIES) + ["all"])
    ap.add_argument("--seeds", type=int, default=10)
    ns = ap.parse_args()
    names = sorted(STUDIES) if ns.study == "all" else [ns.study]
    for name in names:
        t0 = time.time()
        results = STUDIES[name](ns.seeds)
        rows = evaluation.ablation_report(results)
        print(f"== {name} ({ns.seeds} seeds, {time.time() - t0:.0f}s) ==")
        print(evaluation.render_table(rows))
        if name == "optimization":
            t, p = evaluation.paired_t(results["separate"],
                                       results["joint"])
            print(f"paired t={t:.3f} p={p:.4f}")
        print()


if __name__ == "__main__":
    main()
