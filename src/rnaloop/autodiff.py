"""Reverse-mode automatic differentiation over dense float64 arrays.

The op set is deliberately small: exactly what small convolutional/MLP
networks, feature-wise (FiLM) modulation, and the adaptation losses need.
Everything is float64 so analytic gradients can be validated against
central finite differences with tight tolerances.

Graphs are recorded on an explicit :class:`Tape`. Ops executed while a
tape is active record nodes onto it; ops executed with no active tape are
plain numpy forward passes (used for inference paths that must not build
graphs). Tapes are thread-local, so independent episodes may run on
separate threads with separate tapes.

Shape discipline: op bodies see batched operands only, with the batch on
axis 0 ([N,C,H,W] maps, [N,K] rows). One sample ([C,H,W] or [K]) enters
through one boundary, :func:`_one_sample`, which gives it a batch of one and
drops that axis from the result again. There is no broadcasting except the
channel-wise patterns of ``film``, ``add_bias`` and the ``conv2d`` bias. All
other operand shapes must match exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateSupervisionError,
    DimensionError,
)

__all__ = [
    "Tensor",
    "Tape",
    "ParamSet",
    "as_tensor",
    "backward",
    "sgd_step",
    "tape_count",
    "set_debug_checks",
    "add",
    "mul",
    "scale",
    "add_bias",
    "matmul",
    "conv2d",
    "relu",
    "avgpool2",
    "upsample2",
    "concat_channels",
    "slice_channels",
    "film",
    "reshape",
    "stack_rows",
    "expand_batch",
    "squeeze_batch",
    "flatten_batch",
    "global_avg_pool",
    "sum_all",
    "softmax_cross_entropy",
    "masked_cross_entropy",
    "coarse_cross_entropy",
    "prediction_entropy",
    "bernoulli_entropy",
    "masked_l1",
    "mean_l1",
    "softmax",
]

_F64 = np.float64

# When enabled, every op asserts its output is finite. Cheap at desk scale;
# the test suite turns it on globally.
_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


def _check_finite(arr: np.ndarray, opname: str) -> None:
    if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
        raise ContractError(f"{opname} produced non-finite values")


_node_ids = itertools.count()
# One-element box, bumped in place under the lock by every new Tape.
_tapes_created = [0]
_tapes_lock = threading.Lock()
_tls = threading.local()


def tape_count() -> int:
    """Number of tapes created so far in this process.

    Instrumentation hook: forward-only code paths can be checked by
    reading this counter around the call. Reading it changes nothing.
    """
    return _tapes_created[0]


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


@dataclass(slots=True)
class Node:
    nid: int
    # The tape owns its nodes and a node refers to it weakly, so a dropped
    # tape and its graph are freed by reference counting, with no cycle.
    tape_ref: "weakref.ref[Tape]"
    parents: tuple["Node | None", ...]
    # backward_fn(grad_out, needs) -> per-parent gradient contributions,
    # with None at positions whose needs flag is False. Leaf nodes have None.
    backward_fn: Callable | None
    needs_grad: bool
    shape: tuple[int, ...]

    @property
    def tape(self) -> "Tape | None":
        """The recording tape, or None once it has been freed."""
        return self.tape_ref()


class Tape:
    """Recorded computation: nodes in topological (creation) order.

    Use as a context manager; ops record onto the innermost active tape of
    the current thread. ``grads`` is populated by :func:`backward` and maps
    node id to the gradient array of that node's output.
    """

    def __init__(self) -> None:
        with _tapes_lock:
            _tapes_created[0] += 1
        self.nodes: list[Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self._prev: Tape | None = None

    def __enter__(self) -> "Tape":
        self._prev = _active_tape()
        _tls.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _tls.tape = self._prev
        self._prev = None

    def leaf(self, value: np.ndarray, needs_grad: bool) -> "Tensor":
        """Register an input array as a leaf node on this tape."""
        arr = np.asarray(value, dtype=_F64)
        node = Node(next(_node_ids), weakref.ref(self), (), None, bool(needs_grad), arr.shape)
        self.nodes.append(node)
        return Tensor(arr, node)

    def grad(self, t: "Tensor") -> np.ndarray | None:
        if t.node is None:
            return None
        return self.grads.get(t.node.nid)


class Tensor:
    """Dense float64 array plus an optional handle into the recording tape."""

    __slots__ = ("array", "node")

    def __init__(self, array: np.ndarray, node: Node | None = None):
        self.array = np.asarray(array, dtype=_F64)
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def node_id(self) -> int | None:
        return None if self.node is None else self.node.nid

    def item(self) -> float:
        return float(self.array)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


class _Constant(Tensor):
    """A frozen parameter's read-only value, as a constant with no tape node.

    Immutable for life: nothing writes its array, and unfreezing gives the
    parameter a new array instead of releasing this one. So ``derived``,
    which holds what ops compute from the value alone (the tap columns of a
    conv kernel), stays valid for as long as anything holds the constant.
    The parameter owns it while frozen, so the cache dies with the model.
    """

    __slots__ = ("derived",)

    def __init__(self, array: np.ndarray):
        super().__init__(array, None)
        self.derived: dict[str, np.ndarray] = {}


def _derived(t: Tensor, key: str, make: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``make(t.array)``, kept on ``t`` when it is a frozen parameter's constant.

    Filled lazily. Threads that race on a first fill compute equal arrays and
    ``dict.setdefault`` keeps one of them, so every caller sees the same one.
    """
    if not isinstance(t, _Constant):
        return make(t.array)
    got = t.derived.get(key)
    if got is None:
        got = make(t.array)
        got.flags.writeable = False
        got = t.derived.setdefault(key, got)
    return got


def as_tensor(value) -> Tensor:
    """Wrap an array as a constant (non-differentiable) tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=_F64), None)


def _record(out: np.ndarray, parents: Sequence[Tensor], backward_fn, opname: str) -> Tensor:
    _check_finite(out, opname)
    tape = _active_tape()
    if tape is None:
        return Tensor(out, None)
    pnodes = tuple(p.node for p in parents)
    if not any(n is not None and n.needs_grad for n in pnodes):
        return Tensor(out, None)
    for n in pnodes:
        if n is not None and n.tape is not tape:
            raise ContractError(f"{opname}: operand recorded on a different tape")
    node = Node(next(_node_ids), weakref.ref(tape), pnodes, backward_fn, True, out.shape)
    tape.nodes.append(node)
    return Tensor(out, node)


def backward(root: Tensor, tape: Tape | None = None) -> None:
    """Populate ``tape.grads`` for every grad-requiring ancestor of ``root``.

    ``root`` must be a scalar recorded on a tape. Constants (frozen
    parameters, plain inputs) and leaves registered with ``needs_grad=False``
    are skipped: gradient still flows *through* the ops that consume them,
    but their own gradients are neither computed nor stored.
    """
    if root.node is None:
        raise ContractError("backward: root is not recorded on any tape")
    if root.array.shape != ():
        raise ContractError(f"backward: root must be scalar, got shape {root.array.shape}")
    t = root.node.tape
    if t is None:
        raise ContractError("backward: the root's tape no longer exists")
    if tape is not None and tape is not t:
        raise ContractError("backward: root does not belong to the given tape")
    grads: dict[int, np.ndarray] = {root.node.nid: np.ones((), dtype=_F64)}
    for node in reversed(t.nodes):
        g = grads.get(node.nid)
        if g is None or node.backward_fn is None:
            continue
        needs = tuple(p is not None and p.needs_grad for p in node.parents)
        pgrads = node.backward_fn(g, needs)
        for parent, pg in zip(node.parents, pgrads):
            if pg is None or parent is None or not parent.needs_grad:
                continue
            acc = grads.get(parent.nid)
            grads[parent.nid] = pg if acc is None else acc + pg
    t.grads = grads


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class Param:
    value: np.ndarray
    # While frozen: the read-only value as a constant tensor (see _freeze).
    const: _Constant | None = None

    @property
    def frozen(self) -> bool:
        return self.const is not None


def _freeze(p: Param, frozen: bool) -> None:
    """Make ``p`` an immutable constant, or writable again.

    Freezing replaces the value by a read-only private copy, so no array
    taken before, nor any view of one, can write it. Unfreezing gives the
    parameter a writable copy and drops its constant, which with its array
    and cache stays as it was for whoever still holds it.
    """
    if frozen and p.const is None:
        p.value = p.value.copy()
        p.value.flags.writeable = False
        p.const = _Constant(p.value)
    elif not frozen and p.const is not None:
        p.value = p.value.copy()
        p.const = None


class ParamSet:
    """Named parameter arrays, each frozen or not.

    Iteration order is insertion order and therefore deterministic. Frozen
    parameters never receive gradients or optimizer updates, and their
    values are read-only: an in-place write raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, frozen: bool = False) -> None:
        if name in self._entries:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = Param(np.asarray(value, dtype=_F64))
        _freeze(p, frozen)
        self._entries[name] = p

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def get(self, name: str) -> np.ndarray:
        return self._entries[name].value

    def items(self) -> Iterable[tuple[str, Param]]:
        return self._entries.items()

    def set_frozen(self, frozen: bool) -> None:
        """Freeze every parameter, or unfreeze every one. A frozen value is
        read-only and :meth:`lift` hands it out as a constant; unfreezing
        gives each parameter a writable copy of its value."""
        for p in self._entries.values():
            _freeze(p, frozen)

    def clone(self) -> "ParamSet":
        out = ParamSet()
        for name, p in self._entries.items():
            out.add(name, p.value.copy(), p.frozen)
        return out

    def count(self) -> int:
        return sum(p.value.size for p in self._entries.values())

    def state_bytes(self) -> bytes:
        """Concatenated little-endian values, for byte-identity checks."""
        return b"".join(
            p.value.astype("<f8", copy=False).tobytes() for p in self._entries.values()
        )

    def lift(self, tape: Tape | None) -> dict[str, Tensor]:
        """The parameters as tensors for one pass, by name.

        An unfrozen parameter becomes a leaf that needs a gradient on
        ``tape``. Every other one is a constant with no tape node: a frozen
        parameter is its read-only constant, the same object on every call
        while it stays frozen (ops cache what they derive from it), and an
        unfrozen one with no tape is a plain constant.
        """
        out = {}
        for name, p in self._entries.items():
            if p.const is not None:
                out[name] = p.const
            elif tape is None:
                out[name] = Tensor(p.value, None)
            else:
                out[name] = tape.leaf(p.value, True)
        return out

    def grads_from(self, tape: Tape, lifted: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """Collect gradients for the unfrozen parameters.

        Raises if an unfrozen parameter ended up with no gradient (it was
        never used in the recorded graph), which indicates a wiring bug.
        """
        out = {}
        for name, p in self._entries.items():
            if p.frozen:
                continue
            g = tape.grad(lifted[name])
            if g is None:
                raise ContractError(f"missing gradient for unfrozen parameter {name!r}")
            out[name] = g
        return out


def sgd_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place p <- p - lr*g for the unfrozen parameters.

    lr == 0 is an allowed null step; negative lr is rejected.
    """
    if lr < 0:
        raise ContractError(f"sgd_step: negative learning rate {lr}")
    for name, p in params.items():
        if p.frozen:
            continue
        if name not in grads:
            raise ContractError(f"sgd_step: missing gradient for unfrozen parameter {name!r}")
        if lr != 0.0:
            p.value -= lr * grads[name]


# ---------------------------------------------------------------------------
# one-sample boundary
# ---------------------------------------------------------------------------


def _one_sample(ranks: tuple[int, ...], *operands: str):
    """Decorator: the one entry point for unbatched samples into a batched op.

    ``ranks`` are the batched ranks the op body accepts; ``operands`` name
    the arguments that carry the batch axis, the first argument first. When
    the first argument has one axis fewer than a batched rank, every named
    operand gains a leading axis of 1 (a tensor through a recorded
    ``expand_batch``, anything else through ``[None]``), the body runs on
    that batch of one, and a non-scalar result loses the axis again through
    ``squeeze_batch``. Values and gradients are the batch-of-one ones bit
    for bit. A batched call costs one rank test and goes straight to the
    body; any other rank reaches the body, which raises ``DimensionError``.

    On a tape an unbatched call records those two extra nodes. Networks
    avoid them: ``Model.forward`` batches a [C,H,W] input once, so an
    unbatched forward records 2 extra nodes, not 2 per op.
    """
    sample_ranks = frozenset(r - 1 for r in ranks)

    def wrap(op):
        sig = inspect.signature(op)

        @functools.wraps(op)
        def batched_or_one(x, *args, **kwargs):
            if x.array.ndim not in sample_ranks:
                return op(x, *args, **kwargs)
            bound = sig.bind(x, *args, **kwargs)
            for name in operands:
                v = bound.arguments[name]
                bound.arguments[name] = expand_batch(v) if isinstance(v, Tensor) else np.asarray(v)[None]
            out = op(*bound.args, **bound.kwargs)
            return out if out.array.ndim == 0 else squeeze_batch(out)

        return batched_or_one

    return wrap


def _need_rank(xv: np.ndarray, rank: int, opname: str) -> None:
    if xv.ndim != rank:
        raise DimensionError(
            f"{opname}: expected a rank-{rank} batch or one rank-{rank - 1} sample, got {xv.shape}"
        )


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def _same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{opname}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _record(a.array + b.array, (a, b), lambda g, n: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = a.array, b.array

    def bwd(g, needs):
        return (g * bv if needs[0] else None, g * av if needs[1] else None)

    return _record(av * bv, (a, b), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record(a.array * c, (a,), lambda g, n: (g * c,), "scale")


@_one_sample((2, 4), "x")
def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias to x using one of the supported channel patterns.

    Supported: [N,K]+[K] and [N,C,H,W]+[C].
    """
    xv, bv = x.array, b.array
    if bv.ndim != 1:
        raise DimensionError(f"add_bias: bias must be 1-D, got {bv.shape}")
    if xv.ndim == 2 and xv.shape[1] == bv.shape[0]:
        out = xv + bv[None, :]
        axes = (0,)
    elif xv.ndim == 4 and xv.shape[1] == bv.shape[0]:
        out = xv + bv[None, :, None, None]
        axes = (0, 2, 3)
    else:
        raise DimensionError(f"add_bias: no channel pattern for {xv.shape} + {bv.shape}")

    def bwd(g, needs):
        gb = g.sum(axis=axes) if needs[1] else None
        return (g if needs[0] else None, gb)

    return _record(out, (x, b), bwd, "add_bias")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.array, b.array
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")

    def bwd(g, needs):
        ga = g @ bv.T if needs[0] else None
        gb = av.T @ g if needs[1] else None
        return (ga, gb)

    return _record(av @ bv, (a, b), bwd, "matmul")


def relu(x: Tensor) -> Tensor:
    """max(x, 0), bit for bit ``np.where(x > 0, x, 0.0)`` on every input.

    ``np.fmax`` is several times cheaper than ``np.where`` on large arrays.
    Like the ``np.where`` form it gives 0.0 for NaN; it may keep a -0.0
    input, which adding +0.0 turns into +0.0. The backward keeps only the
    bool mask ``x > 0``.
    """
    xv = x.array
    out = np.fmax(xv, 0.0)
    out += 0.0
    mask = xv > 0
    return _record(out, (x,), lambda g, n: (g * mask,), "relu")


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _record(
        np.asarray(x.array.sum()), (x,),
        lambda g, n: (np.broadcast_to(g, shape).copy(),), "sum_all",
    )


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------


@_one_sample((4,), "x")
def conv2d(
    x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0, bias: Tensor | None = None
) -> Tensor:
    """2-D cross-correlation plus an optional per-channel bias.

    x: [N,C,H,W]; kernel: [O,C,k,k]; bias: [O] or None. Kernel
    size must be odd. Output spatial size (H + 2*pad - k)/stride + 1 must be
    integral. With a bias the result equals ``add_bias(conv2d(x, kernel,
    stride, pad), bias)`` bit for bit, recorded as one node.

    Every stride runs the same stride-1 row-tap kernel, :func:`_conv_rows`.
    For stride > 1 the output keeps every ``stride``-th row and column of the
    stride-1 result. The input gradient is the stride-1 correlation of the
    incoming gradient with the flipped, channel-transposed kernel at pad
    ``k - 1 - pad``; for stride > 1 (or when the kernel needs a gradient)
    the incoming gradient is first placed at its positions of a zeroed
    stride-1 grid of the forward's padded width. The kernel gradient is
    that grid times the forward's row matrix at each of the k horizontal
    offsets, summed over the batch. The row matrix is kept for the backward
    pass only when the kernel is a recorded tensor that needs a gradient.

    The kernel's GEMM operands (its tap columns, and for the input gradient
    those of the flipped, channel-transposed kernel) are cached on a frozen
    parameter's constant (see :meth:`ParamSet.lift`) and built on every
    call for any other kernel; both give the same bits.
    """
    xv, wv = x.array, kernel.array
    if wv.ndim != 4 or wv.shape[2] != wv.shape[3]:
        raise DimensionError(f"conv2d: kernel must be [O,C,k,k], got {wv.shape}")
    o, _, k, _ = wv.shape
    if k % 2 == 0:
        raise ConfigurationError(f"conv2d: kernel size must be odd, got {k}")
    if bias is not None and bias.array.shape != (o,):
        raise DimensionError(f"conv2d: bias must be [{o}], got {bias.array.shape}")
    _need_rank(xv, 4, "conv2d")
    n, c, h, w = xv.shape
    if wv.shape[1] != c:
        raise DimensionError(
            f"conv2d: input has {c} channels but kernel expects {wv.shape[1]} "
            f"(shapes {xv.shape} and {wv.shape})"
        )
    if (h + 2 * pad - k) % stride != 0 or (w + 2 * pad - k) % stride != 0:
        raise ConfigurationError(
            f"conv2d: non-integral output size for input {h}x{w}, k={k}, "
            f"stride={stride}, pad={pad}"
        )
    grid, rows = _conv_rows(xv, _derived(kernel, "taps", _tap_cols), pad)
    _, _, h1, wp = grid.shape
    w1 = wp - k + 1
    valid = grid[:, :, ::stride, :w1:stride]
    if bias is None:
        out = np.ascontiguousarray(valid)
    else:
        out = valid + bias.array[None, :, None, None]
    if kernel.node is None or not kernel.node.needs_grad:
        rows = None  # only the kernel gradient reads the row matrix

    def bwd(g, needs):
        gw = gx = None
        gs = g
        if stride > 1 or needs[1]:
            # the incoming gradient on the padded-width stride-1 grid of the forward
            gfull = np.zeros((n, o, h1, wp))
            gfull[:, :, ::stride, :w1:stride] = g
            gs = gfull[:, :, :, :w1]
        if needs[1]:
            gw = _conv_kernel_grad(gfull, rows, k)
        if needs[0]:
            gxg, _ = _conv_rows(gs, _derived(kernel, "flipped_taps", _flipped_tap_cols), k - 1 - pad)
            gx = np.ascontiguousarray(gxg[:, :, :, :w])
        if bias is None:
            return (gx, gw)
        gbias = g.sum(axis=(0, 2, 3)) if needs[2] else None
        return (gx, gw, gbias)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _record(out, parents, bwd, "conv2d")


def _tap_cols(wv: np.ndarray) -> np.ndarray:
    """The kernel [O,C,k,k] as k GEMM operands, C-contiguous [k, O, C*k]:
    ``[j]`` is ``W[:, :, :, j]`` with its rows ordered like the row matrix
    of :func:`_conv_rows`."""
    o, c, k, _ = wv.shape
    return np.ascontiguousarray(wv.transpose(3, 0, 1, 2).reshape(k, o, c * k))


def _flipped_tap_cols(wv: np.ndarray) -> np.ndarray:
    """:func:`_tap_cols` of the flipped, channel-transposed kernel [C,O,k,k],
    with which the input gradient is a stride-1 correlation."""
    return _tap_cols(wv.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def _conv_rows(xb: np.ndarray, wcols: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 cross-correlation of [N,C,H,W] with a kernel [O,C,k,k],
    given as its tap columns ``wcols`` (:func:`_tap_cols`), as k GEMMs.

    The input is written into a zeroed buffer [N, C, Hp+1, Wp] (Hp = H +
    2*pad, Wp = W + 2*pad; a negative pad, which the input gradient of a
    conv with pad > k-1 needs, crops instead). With each channel
    flattened, tap (i, j) reads the contiguous run of H1*Wp values that
    starts at i*Wp + j, where H1 = Hp - k + 1; the extra zero row keeps the
    last tap's run in bounds. The row matrix [N, C*k, H1*Wp + k-1] copies,
    for every channel c and kernel row i, the run that starts at i*Wp: k
    copies of the input, not k*k. Kernel column j reads the window
    ``rows[:, :, j : j + H1*Wp]`` of it, a strided view, so the output is
    the sum over j of ``W[:, :, :, j] @ window_j``, with no further copy
    (the partial-im2col scheme of Anderson et al. 2017, arXiv:1709.03395).
    A 1x1 kernel with pad 0 uses the input itself as the row matrix.

    Returns ``(grid, rows)``. ``grid`` is [N, O, H1, Wp]: the output on the
    padded-width grid, whose last k-1 columns of every row wrap around into
    the next row and are junk, so the valid output is ``grid[..., :Wp-k+1]``.
    """
    n, c, h, w = xb.shape
    k, o, _ = wcols.shape
    if k == 1 and pad == 0:
        rows = xb.reshape(n, c, h * w)
        return (wcols[0] @ rows).reshape(n, o, h, w), rows
    hp, wp = h + 2 * pad, w + 2 * pad
    h1 = hp - k + 1
    run = h1 * wp
    p, q = max(pad, 0), max(-pad, 0)
    xp = np.zeros((n, c, hp + 1, wp))
    xp[:, :, p : p + h - 2 * q, p : p + w - 2 * q] = xb[:, :, q : h - q, q : w - q]
    # The k row taps of every channel as an overlapping view of the buffer
    # (built with the ndarray constructor: as_strided costs more than the
    # copy at these sizes), then copied, so each window is a GEMM operand
    # with a row stride at least its width.
    taps = np.ndarray((n, c, k, run + k - 1), _F64, xp, 0, xp.strides)
    rows = np.ascontiguousarray(taps).reshape(n, c * k, run + k - 1)
    grid = wcols[0] @ rows[:, :, :run]
    for j in range(1, k):
        grid += wcols[j] @ rows[:, :, j : j + run]
    return grid.reshape(n, o, h1, wp), rows


def _conv_kernel_grad(gfull: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Kernel gradient [O,C,k,k] from the padded-width gradient grid and the
    forward's row matrix: column j is ``gfull @ window_jᵀ`` summed over N."""
    n, o, h1, wp = gfull.shape
    run = h1 * wp
    gf = gfull.reshape(n, o, run)
    gw = np.empty((o, rows.shape[1], k))
    for j in range(k):
        gw[:, :, j] = (gf @ rows[:, :, j : j + run].transpose(0, 2, 1)).sum(axis=0)
    return gw.reshape(o, rows.shape[1] // k, k, k)


def _quad_sum(v: np.ndarray) -> np.ndarray:
    """Sum of every 2x2 block of the last two axes, as ``(v00 + v01) +
    (v10 + v11)`` over four strided views: the order in which numpy's own
    reduction over the block axes of ``reshape(..., h/2, 2, w/2, 2)`` adds
    them when the output is more than one column wide."""
    return (v[..., ::2, ::2] + v[..., ::2, 1::2]) + (v[..., 1::2, ::2] + v[..., 1::2, 1::2])


def _quad_spread(v: np.ndarray) -> np.ndarray:
    """Every value of the last two axes copied into its 2x2 block."""
    out = np.empty(v.shape[:-2] + (2 * v.shape[-2], 2 * v.shape[-1]))
    out[..., ::2, ::2] = v
    out[..., ::2, 1::2] = v
    out[..., 1::2, ::2] = v
    out[..., 1::2, 1::2] = v
    return out


@_one_sample((4,), "x")
def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 of [N,C,H,W]. H and W must be even."""
    _need_rank(x.array, 4, "avgpool2")
    h, w = x.array.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(f"avgpool2: odd spatial size {h}x{w}")
    out = _quad_sum(x.array) / 4.0
    return _record(out, (x,), lambda g, n: (_quad_spread(g * 0.25),), "avgpool2")


@_one_sample((4,), "x")
def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of [N,C,H,W]."""
    _need_rank(x.array, 4, "upsample2")
    return _record(_quad_spread(x.array), (x,), lambda g, n: (_quad_sum(g),), "upsample2")


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate [N,C,H,W] (or [C,H,W]) maps along the channel axis, -3."""
    arrs = [p.array for p in parts]
    if any(a.ndim != arrs[0].ndim for a in arrs) or arrs[0].ndim not in (3, 4):
        raise DimensionError(f"concat_channels: mixed ranks {[a.shape for a in arrs]}")
    offs = [0, *itertools.accumulate(a.shape[-3] for a in arrs)]
    out = np.concatenate(arrs, axis=-3)

    def bwd(g, needs):
        return tuple(
            g[..., offs[i] : offs[i + 1], :, :] if needs[i] else None for i in range(len(arrs))
        )

    return _record(out, tuple(parts), bwd, "concat_channels")


def slice_channels(x: Tensor, start: int, stop: int, axis: int = 1) -> Tensor:
    """Contiguous slice along one axis (used to split controller heads)."""
    xv = x.array
    idx = [slice(None)] * xv.ndim
    idx[axis] = slice(start, stop)
    out = xv[tuple(idx)].copy()

    def bwd(g, needs):
        gx = np.zeros_like(xv)
        gx[tuple(idx)] = g
        return (gx,)

    return _record(out, (x,), bwd, "slice_channels")


@_one_sample((4,), "x")
def film(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Channel-wise affine modulation: out[c] = gamma[c]*x[c] + beta[c].

    x: [N,C,H,W]; gamma/beta: [C] (shared) or [N,C] (per sample).
    gamma=1, beta=0 is the exact identity.
    """
    xv, gv, bv = x.array, gamma.array, beta.array
    if gv.shape != bv.shape:
        raise DimensionError(f"film: gamma {gv.shape} and beta {bv.shape} differ")
    _need_rank(xv, 4, "film")
    n, c = xv.shape[:2]
    if gv.shape == (c,):
        gexp, bexp = gv[None, :, None, None], bv[None, :, None, None]
        sum_axes = (0, 2, 3)
    elif gv.shape == (n, c):
        gexp, bexp = gv[:, :, None, None], bv[:, :, None, None]
        sum_axes = (2, 3)
    else:
        raise DimensionError(f"film: x is {xv.shape}, gamma is {gv.shape}")

    out = gexp * xv + bexp

    def bwd(g, needs):
        gx = g * gexp if needs[0] else None
        gg = (g * xv).sum(axis=sum_axes) if needs[1] else None
        gb = g.sum(axis=sum_axes) if needs[2] else None
        return (gx, gg, gb)

    return _record(out, (x, gamma, beta), bwd, "film")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.array.shape
    out = x.array.reshape(shape).copy()
    return _record(out, (x,), lambda g, n: (g.reshape(old),), "reshape")


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along axis 0 (batch assembly)."""
    arrs = [p.array for p in parts]
    offs = [0, *itertools.accumulate(a.shape[0] for a in arrs)]
    out = np.concatenate(arrs, axis=0)

    def bwd(g, needs):
        return tuple(
            g[offs[i] : offs[i + 1]] if needs[i] else None for i in range(len(arrs))
        )

    return _record(out, tuple(parts), bwd, "stack_rows")


def expand_batch(x: Tensor) -> Tensor:
    """[C,H,W] -> [1,C,H,W] (or [K] -> [1,K])."""
    return _record(x.array[None].copy(), (x,), lambda g, n: (g[0],), "expand_batch")


def squeeze_batch(x: Tensor) -> Tensor:
    """[1,...] -> [...]."""
    if x.array.shape[0] != 1:
        raise DimensionError(f"squeeze_batch: leading axis is {x.array.shape[0]}, not 1")
    return _record(x.array[0].copy(), (x,), lambda g, n: (g[None],), "squeeze_batch")


@_one_sample((4,), "x")
def flatten_batch(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C*H*W]."""
    xv = x.array
    _need_rank(xv, 4, "flatten_batch")
    shape = xv.shape
    return _record(xv.reshape(shape[0], -1).copy(), (x,), lambda g, n: (g.reshape(shape),), "flatten_batch")


def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] by spatial mean."""
    xv = x.array
    if xv.ndim != 4:
        raise DimensionError(f"global_avg_pool: expected [N,C,H,W], got {xv.shape}")
    n, c, h, w = xv.shape
    out = xv.mean(axis=(2, 3))

    def bwd(g, needs):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), xv.shape).copy(),)

    return _record(out, (x,), bwd, "global_avg_pool")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a plain array (max subtraction)."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


@_one_sample((2,), "logits", "target")
def softmax_cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean -log softmax(logits)[target] over the batch.

    logits: [N,K] with a length-N index vector (one sample: [K], int target).
    """
    rows = logits.array
    _need_rank(rows, 2, "softmax_cross_entropy")
    t = np.asarray(target, dtype=np.int64)
    n, k = rows.shape
    if t.shape != (n,):
        raise DimensionError(f"softmax_cross_entropy: {n} rows but targets {t.shape}")
    if np.any(t < 0) or np.any(t >= k):
        raise IndexError(f"softmax_cross_entropy: target out of range [0,{k})")
    p = softmax(rows, axis=1)
    loss = float(-np.log(p[np.arange(n), t]).mean())

    def bwd(g, needs):
        gl = p.copy()
        gl[np.arange(n), t] -= 1.0
        gl *= float(g) / n
        return (gl,)

    return _record(np.asarray(loss), (logits,), bwd, "softmax_cross_entropy")


@_one_sample((4,), "logits", "labels", "mask")
def masked_cross_entropy(logits: Tensor, labels, mask) -> Tensor:
    """Per-pixel cross-entropy averaged over masked positions.

    logits: [N,K,H,W]; labels/mask: [N,H,W]. The mask is binary; at least
    one position must be selected.
    """
    xv = logits.array
    lb = np.asarray(labels, dtype=np.int64)
    mk = np.asarray(mask, dtype=_F64)
    if xv.ndim != 4 or lb.shape != (xv.shape[0],) + xv.shape[2:] or mk.shape != lb.shape:
        raise DimensionError(
            f"masked_cross_entropy: logits {logits.shape}, labels {lb.shape}, mask {mk.shape}"
        )
    nvalid = mk.sum()
    if nvalid < 1:
        raise DegenerateSupervisionError("masked_cross_entropy: empty mask")
    k = xv.shape[1]
    if np.any(lb < 0) or np.any(lb >= k):
        raise IndexError(f"masked_cross_entropy: label out of range [0,{k})")
    p = softmax(xv, axis=1)
    n_idx, h_idx, w_idx = np.meshgrid(
        np.arange(xv.shape[0]), np.arange(xv.shape[2]), np.arange(xv.shape[3]), indexing="ij"
    )
    logp = np.log(p[n_idx, lb, h_idx, w_idx])
    loss = float(-(logp * mk).sum() / nvalid)

    def bwd(g, needs):
        gl = p.copy()
        gl[n_idx, lb, h_idx, w_idx] -= 1.0
        gl *= (mk[:, None] * float(g)) / nvalid
        return (gl,)

    return _record(np.asarray(loss), (logits,), bwd, "masked_cross_entropy")


@_one_sample((2,), "logits", "coarse_target")
def coarse_cross_entropy(logits: Tensor, coarse_target, group_of_fine: np.ndarray) -> Tensor:
    """Marginalized cross-entropy: -log sum_{fine in group} softmax(logits)[fine].

    ``group_of_fine`` maps each fine class index to its coarse class.
    logits: [N,K] with a length-N target vector (one sample: [K], int target).
    """
    rows = logits.array
    _need_rank(rows, 2, "coarse_cross_entropy")
    n, k = rows.shape
    gmap = np.asarray(group_of_fine, dtype=np.int64)
    if gmap.shape != (k,):
        raise DimensionError(f"coarse_cross_entropy: grouping covers {gmap.shape}, logits have {k}")
    t = np.asarray(coarse_target, dtype=np.int64)
    if t.shape != (n,):
        raise DimensionError(f"coarse_cross_entropy: {n} rows but targets {t.shape}")
    if np.any(t < 0) or np.any(t >= gmap.max() + 1):
        raise IndexError("coarse_cross_entropy: coarse target out of range")
    p = softmax(rows, axis=1)
    member = gmap[None, :] == t[:, None]  # [N,K]
    if not member.any(axis=1).all():
        raise ContractError("coarse_cross_entropy: empty coarse group")
    mass = (p * member).sum(axis=1)
    loss = float(-np.log(mass).mean())

    def bwd(g, needs):
        gl = p - p * member / mass[:, None]
        gl *= float(g) / n
        return (gl,)

    return _record(np.asarray(loss), (logits,), bwd, "coarse_cross_entropy")


@_one_sample((2, 4), "logits")
def prediction_entropy(logits: Tensor) -> Tensor:
    """Mean Shannon entropy of softmax(logits) over batch/pixels.

    Accepts [N,K] or [N,K,H,W] (one sample: [K] or [K,H,W]); the class axis
    is axis 1.
    """
    xv = logits.array
    if xv.ndim == 2:
        rows = xv
    elif xv.ndim == 4:
        rows = xv.transpose(0, 2, 3, 1).reshape(-1, xv.shape[1])
    else:
        raise DimensionError(f"prediction_entropy: expected [N,K] or [N,K,H,W], got {xv.shape}")
    p = softmax(rows, axis=1)
    logp = np.log(np.maximum(p, 1e-300))  # p*log p -> 0 as p -> 0
    ent = -(p * logp).sum(axis=1)
    m = rows.shape[0]
    loss = float(ent.mean())

    def bwd(g, needs):
        grows = -p * (logp + ent[:, None]) * (float(g) / m)
        if xv.ndim == 2:
            return (grows,)
        n, k, h, w = xv.shape
        return (grows.reshape(n, h, w, k).transpose(0, 3, 1, 2),)

    return _record(np.asarray(loss), (logits,), bwd, "prediction_entropy")


def bernoulli_entropy(x: Tensor, eps: float = 1e-4) -> Tensor:
    """Mean binary entropy of values interpreted as probabilities in [0,1].

    Values are clipped to [eps, 1-eps] before the entropy; the gradient is
    zero in the clipped region. Used as a confidence proxy for bounded
    dense regressions, where softmax entropy is undefined.
    """
    xv = x.array
    xc = np.clip(xv, eps, 1.0 - eps)
    inside = (xv > eps) & (xv < 1.0 - eps)
    ent = -(xc * np.log(xc) + (1.0 - xc) * np.log(1.0 - xc))
    m = xv.size
    loss = float(ent.mean())

    def bwd(g, needs):
        gx = np.where(inside, np.log((1.0 - xc) / xc), 0.0) * (float(g) / m)
        return (gx,)

    return _record(np.asarray(loss), (x,), bwd, "bernoulli_entropy")


@_one_sample((4,), "pred", "target", "mask")
def masked_l1(pred: Tensor, target: Tensor, mask) -> Tensor:
    """Mean absolute error over masked positions.

    pred/target: [N,C,H,W]; mask: [N,C,H,W], or [N,H,W] broadcast over
    channels. The gradient is zero at unmasked positions.
    """
    pv = pred.array
    tv = target.array if isinstance(target, Tensor) else np.asarray(target, dtype=_F64)
    if pv.shape != tv.shape:
        raise DimensionError(f"masked_l1: pred {pv.shape} vs target {tv.shape}")
    _need_rank(pv, 4, "masked_l1")
    mk = np.asarray(mask, dtype=_F64)
    if mk.shape == pv.shape:
        mfull = mk
    elif mk.shape == (pv.shape[0],) + pv.shape[2:]:
        mfull = np.broadcast_to(mk[:, None], pv.shape)
    else:
        raise DimensionError(f"masked_l1: mask {mk.shape} does not align with pred {pv.shape}")
    nvalid = mfull.sum()
    if nvalid < 1:
        raise DegenerateSupervisionError("masked_l1: empty mask")
    r = pv - tv
    loss = float((np.abs(r) * mfull).sum() / nvalid)

    def bwd(g, needs):
        gp = np.sign(r) * mfull * (float(g) / nvalid)
        gt = -gp if needs[1] else None
        return (gp if needs[0] else None, gt)

    tgt = target if isinstance(target, Tensor) else Tensor(tv, None)
    return _record(np.asarray(loss), (pred, tgt), bwd, "masked_l1")


def mean_l1(pred: Tensor, target) -> Tensor:
    """Plain mean absolute error (masked_l1 with a full mask)."""
    return masked_l1(pred, target, np.ones(pred.shape))
