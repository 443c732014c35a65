"""Hooks the benchmark puts on metatagger from outside: none of them edits
the package.

``Patches`` replaces a function object everywhere a metatagger module binds
it (so ``training.score``, an alias of ``evaluation.score``, is caught too)
and puts every original back on ``restore``.

``Tracer`` is used by the traced run only. It wraps the public functions of
each module, keeps spans in memory and sums per-layer metrics over
windows: one window per set-up and one per repetition of the measured
work. A span is ``[name, pass, start, end, parent]``; its parent is the
innermost span open when it began, so a layer span's parent is its pass
and a pass span's parent is its epoch or round.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from metatagger import tensor as T
from metrics import ALL_PASSES

now = time.perf_counter

# span name -> metric prefix; one metric per pass in which the span occurs
_BY_PASS = {
    "nn.lstm_run": "nn.lstm_run.fwd_s",
    "nn.lstm_run.backward": "nn.lstm_run.bwd_s",
    "nn.softmax_xent_rows": "nn.softmax_xent_rows.s",
    "encoders.encode_chars_sentence": "encoders.encode_chars_sentence.s",
    "encoders.encode_words": "encoders.encode_words.s",
    "meta.combine": "meta.combine.s",
    "training.Adam.step": "training.adam.step_s",
}
# span name -> metric, summed whatever the pass
_WHOLE = {
    "training.prepare": "training.prepare.s",
    "training.checkpoint_load": "training.checkpoint_load.s",
    "training.Checkpoint.rebuild": "training.checkpoint.rebuild_s",
    "data.parse_conllu": "data.parse_conllu.s",
    "data.assign_ids": "data.assign_ids.s",
    "data.write_conllu": "data.write_conllu.s",
    "evaluation.score": "evaluation.score.s",
}
_BACKWARD = "tensor.Graph.backward"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "metatagger"
                                  or name.startswith("metatagger."))]


class Patches:
    """Replacements of functions and methods, undone by ``restore``."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original), in patch order

    def function(self, module, name: str, make):
        """Replace ``module.name`` and every alias of it in the package's
        modules with ``make(original)``. A name the package no longer has
        is skipped with a warning, so a refactor costs a metric, not the
        run."""
        original = getattr(module, name, None)
        if original is None:
            print(f"perfbench: {module.__name__}.{name} not found; its "
                  f"metrics read 0", file=sys.stderr)
            return
        replacement = make(original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def method(self, cls, name: str, make):
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """Spans, counts and per-window sums of the traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_name = "setup"
        self._stack: list[list] = []  # [span index, seconds of children]
        self._pass_open = False
        self._window: defaultdict | None = None
        self._patches = Patches()

    # -- spans and counts -------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, self.pass_name, now(), 0.0, parent])

    def end(self) -> None:
        index, children = self._stack.pop()
        span = self.spans[index]
        span[3] = now()
        duration = span[3] - span[2]
        if self._stack:
            self._stack[-1][1] += duration
        w = self._window
        if w is None:
            return
        name = span[0]
        if name in _BY_PASS:
            w[f"{_BY_PASS[name]}.{span[1]}"] += duration
        elif name in _WHOLE:
            w[_WHOLE[name]] += duration
        elif name == _BACKWARD:
            w[f"tensor.graph.backward_self_s.{span[1]}"] += duration - children

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, n: int = 1) -> None:
        if self._window is not None:
            self._window[f"{name}.{self.pass_name}"] += n

    def begin_pass(self, name: str) -> None:
        """Close the open pass span, if any, and open one for ``name``."""
        self.end_pass()
        self.pass_name = name
        self.begin(f"pass.{name}")
        self._pass_open = True

    def end_pass(self) -> None:
        if self._pass_open:
            self.end()
            self._pass_open = False
        self.pass_name = "setup"

    def reset(self) -> None:
        """Close every open span and drop the window, after a failure."""
        while self._stack:
            self.end()
        self._pass_open = False
        self.pass_name = "setup"
        self._window = None

    def begin_window(self) -> None:
        self._window = defaultdict(float)

    def end_window(self) -> dict[str, float]:
        w, self._window = self._window, None
        for p in ALL_PASSES:
            nodes = w.pop(f"tensor.graph.nodes.{p}", 0.0)
            useful = w.pop(f"tensor.graph.useful.{p}", 0.0)
            if nodes:
                w[f"tensor.graph.nodes.{p}"] = nodes
                w[f"tensor.graph.useful_ratio.{p}"] = useful / nodes
        return dict(w)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, pass_name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "pass": pass_name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- wrapping the package ---------------------------------------------

    def _timed(self, name: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end()
            return wrapper
        return make

    def install(self) -> None:
        from metatagger import data, encoders, evaluation, meta, nn, training

        tracer = self
        p = self._patches

        def counted_record(fn):
            @functools.wraps(fn)
            def record(*args, **kwargs):
                tracer.count("tensor.record.calls")
                return fn(*args, **kwargs)
            return record

        def traced_lstm_run(fn):
            timed_backward = self._timed("nn.lstm_run.backward")

            @functools.wraps(fn)
            def lstm_run(params, xs, *args, **kwargs):
                tracer.count("nn.lstm_run.calls")
                tracer.count("nn.lstm_run.steps", xs.shape[0])
                tracer.begin("nn.lstm_run")
                try:
                    out = fn(params, xs, *args, **kwargs)
                finally:
                    tracer.end()
                graph = T.active_graph()
                if graph is not None and graph.nodes \
                        and graph.nodes[-1].output is out:
                    node = graph.nodes[-1]
                    node.backward_fn = timed_backward(node.backward_fn)
                return out
            return lstm_run

        def traced_backward(fn):
            @functools.wraps(fn)
            def backward(graph, loss):
                tracer.begin(_BACKWARD)
                try:
                    fn(graph, loss)
                finally:
                    tracer.end()
                tracer.count("tensor.graph.nodes", len(graph.nodes))
                tracer.count("tensor.graph.useful", sum(
                    1 for n in graph.nodes if n.output.grad is not None))
            return backward

        p.function(T, "record", counted_record)
        p.method(T.Graph, "backward", traced_backward)
        p.function(nn, "lstm_run", traced_lstm_run)
        for module, name in ((nn, "softmax_xent_rows"),
                             (encoders, "encode_chars_sentence"),
                             (encoders, "encode_words"),
                             (meta, "combine"),
                             (training, "prepare"),
                             (training, "checkpoint_load"),
                             (data, "parse_conllu"),
                             (data, "assign_ids"),
                             (data, "write_conllu"),
                             (evaluation, "score")):
            short = module.__name__.rsplit(".", 1)[-1]
            p.function(module, name, self._timed(f"{short}.{name}"))
        p.method(training.Checkpoint, "rebuild",
                 self._timed("training.Checkpoint.rebuild"))

    def uninstall(self) -> None:
        self._patches.restore()
