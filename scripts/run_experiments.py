#!/usr/bin/env python3
"""Desk-scale versions of the three contrast studies: `metatagger ablate`'s
context, components and optimization axes on synthetic corpora per seed.

  context       sentence- vs token-level characters, suffix-context corpus
  components    char / word / meta heads, complementary corpus
  optimization  separate vs joint schedule, noisy complementary corpus

Each study trains small models over several seeds and prints a
mean/stdev table and `ablate`'s CSV. Acceptance criteria 4 to 6 run them.
The seeds of a study run in one process per usable core: at the default
10 seeds a study takes about 10 to 15 s on two cores, 15 to 25 s on
one. Importing the CLI pins one BLAS thread, which the seed processes
inherit.
"""

import argparse
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

from metatagger import cli, evaluation, synthetic, training

SMALL = dict(max_epochs=12, batch_size=8,
             char_bilstm_layers=1, word_bilstm_layers=1,
             meta_bilstm_layers=1,
             char_bilstm_size=24, word_bilstm_size=24, meta_bilstm_size=24,
             mlp_size=24, char_emb_dim=12, word_emb_dim=12,
             lstm_dropout=0.1, mlp_dropout=0.1, word_emb_dropout=0.1,
             char_emb_dropout=0.0, learning_rate=0.01,
             mlp_init="scaled", char_emb_init="scaled")

# Each study's (training and dev corpora for seed k, settings over SMALL).
PROTOCOLS = {
    "context": (lambda k: synthetic.suffix_context_corpora(k + 100), {}),
    "components": (lambda k: synthetic.complementary_corpora(k + 200),
                   dict(max_epochs=15)),
    "optimization": (
        lambda k: synthetic.complementary_corpora(
            k + 200, n_closed=32, noise_rate=0.1, noise_seed=k + 999),
        dict(max_epochs=10, learning_rate=0.005, char_bilstm_size=16,
             word_bilstm_size=16, meta_bilstm_size=16, mlp_size=16)),
}


def run_study(name: str, seeds: int) -> dict[str, list[float]]:
    """Dev accuracy of each label of ``cli.ABLATIONS[name]``, one per seed
    in seed order, by label: the study's corpora for seed k are prepared
    once, here, and ``cli.run_axis`` trains each model on them at config
    seed k + 1.

    The seeds are independent, so ``cli.run_axis`` runs in a pool of
    ``spawn`` processes, one per usable core, or in this process when
    there is one core or one seed; an error in a seed is raised here. A
    forked child would inherit ``nn``'s worker thread pool without its
    thread."""
    corpora, settings = PROTOCOLS[name]
    jobs = []
    for k in range(seeds):
        config = training.TrainConfig(**{**SMALL, **settings, "seed": k + 1})
        model, train, dev = training.prepare(config, *corpora(k))
        jobs.append((config, name, model.vocabs, model.word.pretrained.data,
                     train, dev))
    workers = min(len(os.sched_getaffinity(0)), seeds)
    if workers == 1:
        per_seed = [cli.run_axis(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn")) \
                as pool:
            per_seed = list(pool.map(cli.run_axis, *zip(*jobs)))
    return {label: [accs[label] for accs in per_seed]
            for label in per_seed[0]}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("study", choices=sorted(PROTOCOLS) + ["all"])
    ap.add_argument("--seeds", type=int, default=10)
    ns = ap.parse_args(argv)
    if ns.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {ns.seeds}")
    names = sorted(PROTOCOLS) if ns.study == "all" else [ns.study]
    for name in names:
        t0 = time.time()
        results = run_study(name, ns.seeds)
        print(f"== {name} ({ns.seeds} seeds, {time.time() - t0:.0f}s) ==")
        print(evaluation.render_table(results))
        print(evaluation.render_csv(results, training.TrainConfig().task),
              end="")
        if name == "optimization":
            try:
                t, p = evaluation.paired_t(results["separate"],
                                           results["joint"])
                print(f"paired t={t:.3f} p={p:.4f}")
            except ValueError as e:
                print(f"paired t: n/a ({e})")
        print()


if __name__ == "__main__":
    main()
