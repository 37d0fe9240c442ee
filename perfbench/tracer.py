"""A traced SGD step built from the model's own layers, from outside.

The forward is rebuilt from the public calls ``Segmenter.forward`` makes,
one module scope at a time.  Each scope runs on a fresh leaf copy of the
previous scope's output, so its tape holds only its own ops and its
backward can run on its own.  Backward runs scope by scope, last first;
each earlier scope is seeded with ``sum_all(hadamard(out, upstream))``,
whose gradient with respect to ``out`` is exactly ``upstream``.  The
result equals the whole-model forward and backward bit for bit, which
:func:`check_against_model` verifies.

Spans (name, start, end, parent, step) are kept in memory by
:class:`Spans` and written out by the caller when the run ends.
"""

from __future__ import annotations

import time

import numpy as np

from wingraph import (Tensor, backward, ba_apply, conv2d, cross_entropy_logits, global_relation,
                      hadamard, local_relation, sum_all)
from wingraph.relation import FusionType

now = time.perf_counter


class Spans:
    """In-memory span log; one span per timed region."""

    def __init__(self):
        self.records: list[tuple[str, float, float, str | None, int]] = []

    def add(self, name: str, start: float, end: float, parent: str | None, step: int) -> None:
        self.records.append((name, start, end, parent, step))

    def durations_ms(self, name: str) -> list[float]:
        return [(e - s) * 1e3 for n, s, e, _, _ in self.records if n == name]


def tape_ops(out: Tensor) -> int:
    """Op nodes reachable from ``out`` through ``_parents``."""
    seen: set[int] = set()
    stack = [out]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            count += 1
        stack.extend(node._parents)
    return count


def scope_calls(model) -> list[tuple[str, object]]:
    """(scope, fn) pairs that together compute ``model.forward``'s logits."""
    cfg = model.config
    if cfg.fusion is not FusionType.GR_THEN_LR or not cfg.enable_gt or not cfg.enable_ba:
        raise ValueError("traced step supports GT+BA models with gr_then_lr fusion only")
    gcfg = cfg.graph_config()
    calls = [("stem", lambda x: conv2d(x, model.stem))]
    for s, stage in enumerate(model.stages):
        for b, block in enumerate(stage.attention):
            calls.append((f"stage{s}.attn{b}", lambda x, blk=block, g=stage.grid: blk.forward(x, g)))
        calls.append((f"stage{s}.gt.gr",
                      lambda x, st=stage: global_relation(x, st.grid, st.gr, gcfg)))
        calls.append((f"stage{s}.gt.lr",
                      lambda x, st=stage: local_relation(x, st.grid, st.lr, gcfg)))
    calls.append(("ba", lambda x: ba_apply(x, model.ba)))
    calls.append(("head", lambda x: conv2d(x, model.head)))
    return calls


class TracedStep:
    """Runs one SGD step scope by scope, recording spans and tape counts."""

    def __init__(self, model, lr: float, spans: Spans):
        self.model = model
        self.lr = lr
        self.spans = spans
        self.calls = scope_calls(model)
        self.tape_ops: dict[str, int] = {}
        self.step_index = 0

    def forward(self, image: Tensor, labels: np.ndarray, step: int | None = None):
        """Segmented forward; returns (segments, loss).  Records spans when
        ``step`` is given."""
        segments = []
        x = image
        for name, fn in self.calls:
            t0 = now()
            out = fn(x)
            t1 = now()
            if step is not None:
                self.spans.add(f"{name}.fwd", t0, t1, "step.forward", step)
            x = Tensor(out.data.copy(), requires_grad=True)
            segments.append((name, out, x))
        t0 = now()
        loss = cross_entropy_logits(x, labels)
        t1 = now()
        if step is not None:
            self.spans.add("loss.fwd", t0, t1, "step.forward", step)
        return segments, loss

    def backward(self, segments, loss: Tensor, step: int | None = None) -> None:
        """Segmented backward, last scope first."""
        t0 = now()
        backward(loss)
        t1 = now()
        if step is not None:
            self.spans.add("loss.bwd", t0, t1, "step.backward", step)
        for name, out, leaf in reversed(segments):
            t0 = now()
            backward(sum_all(hadamard(out, Tensor(leaf.grad))))
            t1 = now()
            if step is not None:
                self.spans.add(f"{name}.bwd", t0, t1, "step.backward", step)

    def count_ops(self, segments, loss: Tensor) -> dict[str, int]:
        counts = {name: tape_ops(out) for name, out, _ in segments}
        counts["loss"] = tape_ops(loss)
        return counts

    def step(self, image: Tensor, labels: np.ndarray) -> float:
        """One traced SGD step, as ``train()`` does it; returns the loss."""
        k = self.step_index
        self.step_index += 1
        add = self.spans.add
        t_step = now()
        self.model.zero_grad()
        t1 = now()
        add("step.zero_grad", t_step, t1, "step", k)
        segments, loss = self.forward(image, labels, k)
        t2 = now()
        add("step.forward", t1, t2, "step", k)
        if not self.tape_ops:
            # Counted once, before backward runs; check_against_model
            # re-counts and compares.
            self.tape_ops = self.count_ops(segments, loss)
        t3 = now()
        self.backward(segments, loss, k)
        t4 = now()
        add("step.backward", t3, t4, "step", k)
        for p in self.model.parameters().values():
            if p.grad is not None:
                p.data -= self.lr * p.grad
        t5 = now()
        add("step.update", t4, t5, "step", k)
        add("step", t_step, t5, None, k)
        return loss.item()


def check_against_model(traced: TracedStep, image: Tensor, labels: np.ndarray) -> list[str]:
    """Compare the segmented forward/backward with the whole model's.

    Leaves parameter gradients as the segmented pass left them and the
    parameters unchanged.  Returns a list of failure descriptions.
    """
    model = traced.model
    failures = []
    model.zero_grad()
    logits = model.forward(image)
    whole_loss = cross_entropy_logits(logits, labels)
    whole_ops = tape_ops(whole_loss)
    backward(whole_loss)
    whole_grads = {n: p.grad.copy() for n, p in model.parameters().items()}

    model.zero_grad()
    segments, loss = traced.forward(image, labels)
    ops = traced.count_ops(segments, loss)
    traced.backward(segments, loss)
    traced_logits = segments[-1][1].data
    if traced_logits.tobytes() != logits.data.tobytes():
        failures.append("traced logits differ from model.forward")
    if loss.data.tobytes() != whole_loss.data.tobytes():
        failures.append("traced loss differs from the whole-model loss")
    if not np.isfinite(traced_logits).all() or not np.isfinite(loss.data).all():
        failures.append("non-finite logits or loss in the traced step")
    for n, p in model.parameters().items():
        if p.grad.tobytes() != whole_grads[n].tobytes():
            failures.append(f"segmented gradient of {n} differs from whole-model backward")
    if traced.tape_ops and ops != traced.tape_ops:
        failures.append(f"scope tape ops changed between steps: {ops} vs {traced.tape_ops}")
    if sum(ops.values()) != whole_ops:
        failures.append(f"scope tape ops sum to {sum(ops.values())}, whole model has {whole_ops}")
    return failures
