#!/usr/bin/env python3
"""Traced memory of one training batch at the benchmark's paper scale.

    python3 scripts/train_memory.py [--seed N] [--tiny]

Builds the default-config model on 32 training sentences of the synthetic
complementary corpus of seed N (default 3), one batch of the default
size, as the paper-train workload of perfbench does, and its three Adam
optimizers. It then starts tracemalloc, trains that one batch with
``training.train_epoch_synchronous`` and prints, in MiB allocated beyond
the model and the moments:

* entry: held when the backward sweep begins, mostly the tape;
* peak: the sweep's highest point, with the op and output shape of the
  node whose backward, together with the gradient sums and folds right
  after it, reached it, e.g. ``lstm_run (892, 800)``;
* after: held once the batch is done.

Then the SHA-256 of every model array, every Adam moment and the three
batch losses after the batch, so that two checkouts can be compared
bit for bit, and last the process's peak RSS (``ru_maxrss``), in MiB.

--tiny shrinks every size, for a smoke test. Run it with
OPENBLAS_NUM_THREADS=1, as the benchmark does; it needs numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from metatagger import synthetic, training  # noqa: E402
from metatagger import tensor as T  # noqa: E402

TINY = dict(char_bilstm_size=6, word_bilstm_size=6, meta_bilstm_size=6,
            mlp_size=6, char_emb_dim=4, word_emb_dim=4)
MIB = 2 ** 20


def measure(seed: int, tiny: bool) -> dict:
    """Bytes held at backward entry and after the batch, the sweep's peak
    and the node it fell in, all beyond what the model and moments hold;
    the bytes of the parameters and of the moments; and the digest of
    the parameters, moments and losses after the batch."""
    config = training.TrainConfig(seed=seed, **(TINY if tiny else {}))
    train, dev = synthetic.complementary_corpora(
        seed, n_train=8 if tiny else 32, n_dev=2)
    model, train, _ = training.prepare(config, train, dev)
    opts = [training._make_adam(params, config)
            for params in (model.char_parameters(), model.word_parameters(),
                           model.meta_parameters())]
    found = {"params": sum(p.data.nbytes for _, p in model.all_parameters()),
             "moments": sum(m.nbytes + opt.v[name].nbytes for opt in opts
                            for name, m in opt.m.items())}
    backward = T.Graph.backward

    def traced(graph, loss):
        found["entry"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        peaks = []  # (peak since the op's backward began, op)
        last = ["(before the first node)"]

        def spied(node):
            fn = node.backward_fn
            shape = ", ".join(map(str, node.output.shape))

            def bwd(g):
                peaks.append((tracemalloc.get_traced_memory()[1], last[0]))
                tracemalloc.reset_peak()
                last[0] = f"{node.op} ({shape})"
                return fn(g)
            return bwd

        for node in graph.nodes:
            node.backward_fn = spied(node)
        backward(graph, loss)
        peaks.append((tracemalloc.get_traced_memory()[1], last[0]))
        found["peak"], found["peak_op"] = max(peaks)

    T.Graph.backward = traced
    tracemalloc.start()
    try:
        losses = training.train_epoch_synchronous(
            model, *opts, train, np.arange(len(train)), config.batch_size,
            np.random.default_rng(seed))
        found["after"] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        T.Graph.backward = backward
    digest = hashlib.sha256(np.array(losses).tobytes())
    for _, a in model.array_manifest():
        digest.update(a.tobytes())
    for opt in opts:
        for name in opt.m:
            digest.update(opt.m[name].tobytes())
            digest.update(opt.v[name].tobytes())
    found["digest"] = digest.hexdigest()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size, for a smoke test")
    args = parser.parse_args(argv)
    m = measure(args.seed, args.tiny)
    print(f"model {m['params'] / MIB:.1f} MiB, moments "
          f"{m['moments'] / MIB:.1f} MiB (not counted below)")
    print(f"entry {m['entry'] / MIB:.1f} MiB")
    print(f"peak {m['peak'] / MIB:.1f} MiB at {m['peak_op']}")
    print(f"after {m['after'] / MIB:.1f} MiB")
    print(f"digest {m['digest']}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {rss:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
