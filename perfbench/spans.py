"""Call spans around fairmoe's public entry points, recorded from outside.

``Patcher`` swaps a fairmoe function or method for a wrapper in every loaded
fairmoe module that holds it (``from .tensor import conv2d`` copies the
name), and puts the originals back on exit.  ``Tracer`` keeps one span per
wrapped call in memory: name, start, end, parent and an optional count.
``StepClock`` is the only hook of an untraced run: it times each training
step of ``training.train`` from the step's forward pass to the end of its
Adam update, and keeps each step's loss parts.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

from fairmoe import data, fairness, model, moe, objectives, tensor, training


class Patcher:
    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        orig = getattr(module, name)
        new = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fairmoe" or mod_name.startswith("fairmoe."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)
                        self._undo.append((mod, attr, orig))

    def method(self, cls, name, make_wrapper):
        orig = cls.__dict__[name]
        setattr(cls, name, make_wrapper(orig))
        self._undo.append((cls, name, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _file_size(path):
    return os.path.getsize(path)


# span name -> (owner, attribute, is_method, count(args, result) or None)
TRACED = {
    "tensor.conv2d": (tensor, "conv2d", False, None),
    "tensor.dense": (tensor, "dense", False, None),
    "tensor.backward": (tensor.Tensor, "backward", True, None),
    "moe.moe_forward": (moe, "moe_forward", False, lambda a, out: len(out[1])),
    "moe.route_scores": (moe, "route_scores", False, None),
    "moe.selection_probabilities": (moe, "selection_probabilities", False, None),
    "moe.select_expert": (moe, "select_expert", False, None),
    "objectives.estimate_joint": (objectives, "estimate_joint", False, None),
    "objectives.mutual_information": (objectives, "mutual_information", False, None),
    "objectives.total_loss": (objectives, "total_loss", False, None),
    "model.forward": (model.Model, "forward", True, None),
    "model.build_model": (model, "build_model", False, None),
    "model.save_checkpoint": (model, "save_checkpoint", False, None),
    "model.load_checkpoint": (model, "load_checkpoint", False, lambda a, out: _file_size(a[0])),
    "training.train": (training, "train", False, None),
    "training.adam_step": (training.Adam, "step", True, None),
    "training.evaluate": (training, "evaluate", False, None),
    "training.write_routing_csv": (
        training, "write_routing_csv", False, lambda a, out: _file_size(a[1])
    ),
    "fairness.build_report": (fairness, "build_report", False, None),
    "fairness.write_predictions": (fairness.PredictionLog, "write_csv", True, None),
    "data.generate": (data, "generate", False, None),
    "data.save": (data, "save", False, None),
    "data.load": (data, "load", False, lambda a, out: _file_size(Path(a[0]) / "data.fmds")),
    "data.split": (data, "split", False, None),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, count]
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, perf_counter(), 0.0, 0])

    def close(self, count=0):
        span = self.spans[self._stack.pop()]
        span[3] = perf_counter()
        span[4] = count

    def install(self, patcher):
        for name, (owner, attr, is_method, count) in TRACED.items():
            make = self._wrapper(name, count)
            if is_method:
                patcher.method(owner, attr, make)
            else:
                patcher.function(owner, attr, make)

    def _wrapper(self, name, count):
        def make(fn):
            def traced(*args, **kwargs):
                self.open(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    self.close()
                    raise
                self.close(count(args, out) if count else 0)
                return out

            traced.__wrapped__ = fn
            return traced

        return make

    def per_root(self, root):
        """For each span named ``root``: {name: [inclusive s, self s, calls, count]}.

        A span's self time is its duration minus its children's; the traced
        code is single-threaded, so children never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        root_of = [-1] * len(spans)
        table = {}
        for i, (name, parent, start, end, count) in enumerate(spans):
            root_of[i] = i if name == root else (root_of[parent] if parent >= 0 else -1)
            r = root_of[i]
            if r < 0 or r == i:
                if r == i:
                    table[i] = {}
                continue
            row = table[r].setdefault(name, [0.0, 0.0, 0, 0])
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
            row[3] += count
        return [table[i] for i in sorted(table)]

    def root_durations(self, root):
        return [end - start for name, _, start, end, _ in self.spans if name == root]


def median_of(rows, name, field):
    """Median over roots of one field; a root without the span counts as 0."""
    return statistics.median(row.get(name, [0.0, 0.0, 0, 0])[field] for row in rows)


class StepClock:
    """Per-step wall time and loss parts of ``training.train``, taken from outside.

    A step runs from its model forward pass (the first forward after the
    previous step ended) to the return of its ``Adam.step``.  Only steps of
    calls made while ``active`` is set are recorded.
    """

    def __init__(self):
        self.tracer = None  # a Tracer here records each step as a "step" span
        self.active = False
        self.step_seconds = []
        self.parts = []
        self.last_probs = None  # {layer index: (N, m) probabilities} of the last step
        self.last_groups = None
        self._start = None

    def install(self, patcher):
        clock = self

        def wrap_forward(forward):
            def timed_forward(net, x, *args, **kwargs):
                if clock.active and clock._start is None:
                    clock._start = perf_counter()
                    if clock.tracer:
                        clock.tracer.open("step")
                out = forward(net, x, *args, **kwargs)
                if clock.active:
                    clock.last_probs = {k: p.data for k, p in out[2].items()}
                    clock.last_groups = kwargs.get("groups")
                return out

            return timed_forward

        def wrap_step(step):
            def timed_step(opt):
                step(opt)
                if clock._start is not None:
                    clock.step_seconds.append(perf_counter() - clock._start)
                    clock._start = None
                    if clock.tracer:
                        clock.tracer.close()

            return timed_step

        def wrap_loss(total_loss):
            def recorded_loss(*args, **kwargs):
                out = total_loss(*args, **kwargs)
                if clock.active:
                    clock.parts.append(out[1])
                return out

            return recorded_loss

        patcher.method(model.Model, "forward", wrap_forward)
        patcher.method(training.Adam, "step", wrap_step)
        patcher.function(training, "total_loss", wrap_loss)

    def drop_open_step(self):
        """Forget a step that raised before its Adam update."""
        if self._start is not None and self.tracer:
            self.tracer.close()
        self._start = None
