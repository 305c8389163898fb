"""Tracing rnaloop from outside its source: spans are recorded by wrapping
public functions at their module or class attribute; no source is edited.

A :class:`Tracer` replaces each target attribute with a wrapper that
records a span (name, start, end, parent span, unit id) into in-memory
columns, and restores every original attribute on exit. Python's garbage
collector is observed through ``gc.callbacks``, from outside as well.
Per-layer metrics are derived afterwards from the spans' self times.
"""

from __future__ import annotations

import gc
import gzip
import json
from collections import defaultdict
from time import perf_counter_ns

MARK = "_perfbench_span"

# autodiff spans reported under their own names; every other autodiff op
# is summed into ``autodiff.other_ops``.
_OWN_AUTODIFF = {"autodiff.backward", "autodiff.sgd_step", "autodiff.conv2d",
                 "autodiff.film", "autodiff.Tape"}


# Unit-phase figures are per unit; set-up figures are per set-up.
# What each should move, written down before measuring:
# - autodiff.backward.*, autodiff.tape_nodes, autodiff.tapes: latency on
#   depth_tto; flat (zero) on depth_controller and cls_knn, which record no
#   tape.
# - autodiff.sgd_step: latency on depth_tto.
# - autodiff.conv2d.*: latency on both UNet workloads.
# - autodiff.film: latency on depth_tto and depth_controller.
# - autodiff.other_ops, nets.Model.forward (layer-dispatch glue): latency on cls_knn.
# - nets.Controller.forward, signals.encode_feedback: latency on
#   depth_controller and cls_knn; signals.knn_coarse: latency on cls_knn.
# - signals.build_embedding_index, taskgen.train_main.s, serialize.*: setup_s.
# - gc.*: peak_rss_mb and latency_ms_p90 on depth_tto.
LAYER_UNITS = {
    "autodiff.backward.self_ms": "ms/unit",
    "autodiff.backward.calls": "count/unit",
    "autodiff.tape_nodes": "count/call",
    "autodiff.tapes": "count/unit",
    "autodiff.sgd_step.self_ms": "ms/unit",
    "autodiff.conv2d.self_ms": "ms/unit",
    "autodiff.conv2d.calls": "count/unit",
    "autodiff.conv2d.out_mb": "MB/unit",
    "autodiff.conv2d.gflop": "GFLOP/unit",
    "autodiff.conv2d.gflops_per_s": "GFLOP/s",
    "autodiff.film.self_ms": "ms/unit",
    "autodiff.other_ops.self_ms": "ms/unit",
    "nets.Model.forward.self_ms": "ms/unit",
    "nets.Controller.forward.ms": "ms/unit",
    "signals.encode_feedback.ms": "ms/unit",
    "signals.knn_coarse.ms": "ms/unit",
    "signals.build_embedding_index.s": "s/setup",
    "taskgen.train_main.s": "s/setup",
    "serialize.save.ms": "ms/setup",
    "serialize.load.ms": "ms/setup",
    "gc.collections": "count/unit",
    "gc.pause_ms": "ms/unit",
    "gc.collected_objects": "count/unit",
    "trace.overhead_frac": "ratio",
}


def _conv2d_counts(args, kwargs, out):
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    _, c, k, _ = kernel.shape
    # one multiply and one add per kernel tap, per output element
    return (2 * out.array.size * c * k * k, out.array.nbytes)


def _backward_counts(args, kwargs, out):
    root = args[0] if args else kwargs["root"]
    return (len(root.node.tape.nodes), 0)


def rnaloop_targets(rnaloop) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count hook) for every traced boundary.

    ``rnaloop`` is the imported package; its submodules must be imported.
    """
    ad, nets, signals, taskgen, serialize = (
        rnaloop.autodiff, rnaloop.nets, rnaloop.signals, rnaloop.taskgen, rnaloop.serialize
    )
    hooks = {"conv2d": _conv2d_counts, "backward": _backward_counts}
    targets = []
    for name in ad.__all__:
        obj = getattr(ad, name)
        # tape_count advances the counter it reports; never call or wrap it
        if isinstance(obj, type) or name in ("tape_count", "set_debug_checks"):
            continue
        targets.append((ad, name, f"autodiff.{name}", hooks.get(name)))
    targets += [
        (ad.Tape, "__init__", "autodiff.Tape", None),
        (nets.Model, "forward", "nets.Model.forward", None),
        (nets.Controller, "forward", "nets.Controller.forward", None),
        (nets, "save_model", "nets.save_model", None),
        (nets, "load_model", "nets.load_model", None),
        (nets, "save_controller", "nets.save_controller", None),
        (nets, "load_controller", "nets.load_controller", None),
        (signals, "encode_feedback", "signals.encode_feedback", None),
        (signals, "knn_coarse", "signals.knn_coarse", None),
        (signals, "build_embedding_index", "signals.build_embedding_index", None),
        (taskgen, "train_main", "taskgen.train_main", None),
        (serialize, "save", "serialize.save", None),
        (serialize, "load", "serialize.load", None),
    ]
    return targets


class Tracer:
    """Span recorder. Use ``with tracer:`` around the code to trace.

    ``unit`` is the id stamped on new spans: -1 during set-up, the unit
    index while units run. Garbage-collector statistics are
    counted only while ``unit >= 0``.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.unit = -1
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.counts: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.gc_collections = 0
        self.gc_collected = 0
        self.gc_pause_ns = 0
        self._gc_start = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, hook in self.targets:
                original = vars(owner)[attr]
                if getattr(original, MARK, None) is not None:
                    raise RuntimeError(f"{name} is already wrapped")
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
        except BaseException:
            self._restore()
            raise
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Targets whose attribute is not the original function."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, _, _ in self.targets
                if getattr(vars(owner)[attr], MARK, None) is not None]

    def _wrap(self, fn, name: str, hook):
        name_id = self._name_ids.setdefault(name, len(self.span_names))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        names, starts, ends, parents, units = (
            self.names, self.starts, self.ends, self.parents, self.units
        )
        stack, counts, tracer = self._stack, self.counts, self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            units.append(tracer.unit)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                counts[idx] = hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, name)
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.unit < 0:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self.gc_collected += info.get("collected", 0)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.names)):
                rec = {"name": self.span_names[self.names[i]], "start_ns": self.starts[i],
                       "end_ns": self.ends[i], "parent": self.parents[i], "unit": self.units[i]}
                if i in self.counts:
                    rec["counts"] = list(self.counts[i])
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(starts, ends, parents) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    return [
        ends[i] - starts[i]
        - covered_ns(starts[i], ends[i], [(starts[c], ends[c]) for c in children.get(i, ())])
        for i in range(len(starts))
    ]


def layer_metrics(tracer: Tracer, n_units: int, n_setups: int) -> dict[str, float]:
    """Per-layer metrics: unit-phase figures per unit, set-up figures per set-up."""
    selfs = self_times_ns(tracer.starts, tracer.ends, tracer.parents)
    unit_self = defaultdict(int)
    unit_incl = defaultdict(int)
    unit_calls = defaultdict(int)
    setup_incl = defaultdict(int)
    flops = out_bytes = nodes = 0
    for i, nid in enumerate(tracer.names):
        name = tracer.span_names[nid]
        dur = tracer.ends[i] - tracer.starts[i]
        if tracer.units[i] < 0:
            setup_incl[name] += dur
            continue
        unit_self[name] += selfs[i]
        unit_incl[name] += dur
        unit_calls[name] += 1
        if name == "autodiff.conv2d":
            f, b = tracer.counts.get(i, (0, 0))
            flops += f
            out_bytes += b
        elif name == "autodiff.backward":
            nodes += tracer.counts.get(i, (0, 0))[0]
    u, s = max(n_units, 1), max(n_setups, 1)

    def per_unit_ms(ns):
        return ns / 1e6 / u

    other = sum(v for k, v in unit_self.items()
                if k.startswith("autodiff.") and k not in _OWN_AUTODIFF)
    conv_s = unit_self["autodiff.conv2d"] / 1e9
    return {
        "autodiff.backward.self_ms": per_unit_ms(unit_self["autodiff.backward"]),
        "autodiff.backward.calls": unit_calls["autodiff.backward"] / u,
        "autodiff.tape_nodes": nodes / unit_calls["autodiff.backward"]
        if unit_calls["autodiff.backward"] else 0.0,
        "autodiff.tapes": unit_calls["autodiff.Tape"] / u,
        "autodiff.sgd_step.self_ms": per_unit_ms(unit_self["autodiff.sgd_step"]),
        "autodiff.conv2d.self_ms": per_unit_ms(unit_self["autodiff.conv2d"]),
        "autodiff.conv2d.calls": unit_calls["autodiff.conv2d"] / u,
        "autodiff.conv2d.out_mb": out_bytes / 1e6 / u,
        "autodiff.conv2d.gflop": flops / 1e9 / u,
        "autodiff.conv2d.gflops_per_s": flops / 1e9 / conv_s if conv_s > 0 else 0.0,
        "autodiff.film.self_ms": per_unit_ms(unit_self["autodiff.film"]),
        "autodiff.other_ops.self_ms": per_unit_ms(other),
        "nets.Model.forward.self_ms": per_unit_ms(unit_self["nets.Model.forward"]),
        "nets.Controller.forward.ms": per_unit_ms(unit_incl["nets.Controller.forward"]),
        "signals.encode_feedback.ms": per_unit_ms(unit_incl["signals.encode_feedback"]),
        "signals.knn_coarse.ms": per_unit_ms(unit_incl["signals.knn_coarse"]),
        "signals.build_embedding_index.s": setup_incl["signals.build_embedding_index"] / 1e9 / s,
        "taskgen.train_main.s": setup_incl["taskgen.train_main"] / 1e9 / s,
        "serialize.save.ms": setup_incl["serialize.save"] / 1e6 / s,
        "serialize.load.ms": setup_incl["serialize.load"] / 1e6 / s,
        "gc.collections": tracer.gc_collections / u,
        "gc.pause_ms": tracer.gc_pause_ns / 1e6 / u,
        "gc.collected_objects": tracer.gc_collected / u,
    }
