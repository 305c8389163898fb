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

Shape discipline: every op takes batches only, with the batch on axis 0:
[N,C,H,W] maps and [N,K] rows. One sample is a batch of one ([1,C,H,W] or
[1,K]); an operand of any other rank raises ``DimensionError``. There is no
broadcasting except the per-channel patterns of ``film``, the ``conv2d``
bias and the [N,K]+[K] rows of ``add_bias``. All other operand shapes must
match exactly. The masked losses take one mask form, [N,H,W]: the
positions supervised, the same in every channel, as bool or as numbers
each 0 or 1; a mask never weights a position (:func:`_need_mask`). Every
loss takes its class labels through ``errors.need_labels``.

There is one configuration and no debug mode. No op checks its output
for NaN or inf, so an untaped loss is returned as computed, but
:func:`backward` refuses a root that is not finite before it computes any
gradient, so a NaN or inf loss never reaches the gradients. The test suite
wraps :func:`_record`, through which every op's output goes, and so checks
that every op of every test gives finite values.

Losses over classes work in log space, on the class axis 1 of [N,K] rows
and [N,K,H,W] maps, and take no log of a probability, which is -inf once
the probability underflows (a logit gap of about 745). :func:`_log_softmax`
gives the probabilities and ``logp = (z - max) - log(sum)``, finite for
finite logits. The three cross-entropies each mark the classes that count
with a bool ``member`` array, a one-hot of the label or the coarse
target's group, and call one core, :func:`_class_nll`: -logsumexp of the
members' ``logp``, weighted and averaged. ``prediction_entropy`` reads the
same ``logp``. Logits with no classes raise ``DimensionError``.

Memory: a recorded op keeps only what its backward pass reads, in its
node's backward closure: masks, shapes, softmax probabilities (a
cross-entropy keeps its gradient p - q, computed in the forward, instead),
and an operand of a product only when the other operand's gradient is
computed.
A concat keeps its channel offsets, not its operands, so the maps it joins
die when the forward drops them. A conv with a recorded kernel keeps its
input, from which the kernel gradient rebuilds the row matrix, and not the
row matrix (k copies of the padded input); its backward drops that input
once the kernel gradient has read it, before the input gradient allocates.
:func:`backward` drops each node's closure as it reaches the node, and
each intermediate gradient once that node has used it, so a tape goes
through backward once and then holds the leaves' gradients only:
``Tape.grads`` maps leaf ids to gradients.

A conv goes through its batch in chunks (:func:`_chunk`), in the forward
and in both gradients: the whole batch when its row matrix fits 1 MiB,
else one image at a time. Each chunk's padded buffer, row matrix and
padded-width output grid are built alone, its valid columns are written
straight into the result, and the kernel gradient pads the incoming
gradient one chunk at a time. So the peak holds one chunk's buffers. The
size is set from a sweep of batch shapes (``tools/conv_crossover.py``) and
from the memory it saves, as the comment on ``_ROWS_BUDGET`` says. The
bits do not depend on the chunks: numpy's matmul of a matrix with a stack
issues one GEMM per image, the very GEMM of the one-image product, and the
kernel gradient adds the chunks' products in the order of the batched
``.sum(axis=0)``.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateSupervisionError,
    DimensionError,
    is_real,
    need_int,
    need_labels,
)

__all__ = [
    "Tensor",
    "Tape",
    "ParamSet",
    "as_tensor",
    "backward",
    "sgd_step",
    "add",
    "mul",
    "add_bias",
    "matmul",
    "conv2d",
    "relu",
    "avgpool2",
    "upsample2",
    "concat_channels",
    "slice_channels",
    "film",
    "flatten_batch",
    "global_avg_pool",
    "sum_all",
    "softmax_cross_entropy",
    "masked_cross_entropy",
    "coarse_cross_entropy",
    "prediction_entropy",
    "masked_l1",
    "mean_l1",
    "softmax",
]

_F64 = np.float64

_node_ids = itertools.count()
_tls = threading.local()


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
    # Every node needs a gradient; constants are not recorded at all.
    backward_fn: Callable | None

    @property
    def tape(self) -> "Tape | None":
        """The recording tape, or None once it has been freed."""
        return self.tape_ref()


class Tape:
    """Recorded computation: nodes in topological (creation) order.

    Use as a context manager; ops record onto the innermost active tape of
    the current thread. ``grads`` is populated by :func:`backward` and maps
    the node id of each leaf that received a gradient to that gradient.
    Backward runs once per tape: it releases the closures it runs.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self._spent = False
        self._prev: Tape | None = None

    def __enter__(self) -> "Tape":
        self._prev = _active_tape()
        _tls.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _tls.tape = self._prev
        self._prev = None

    def leaf(self, value: np.ndarray) -> "Tensor":
        """Register an input array as a leaf node that needs a gradient."""
        arr = np.asarray(value, dtype=_F64)
        node = Node(next(_node_ids), weakref.ref(self), (), None)
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
    """A frozen set's read-only value, as a constant with no tape node.

    Immutable for life: nothing writes its array, and unfreezing gives the
    set new arrays instead of releasing this one. So ``derived``, which
    holds what ops compute from the value alone (the tap columns of a conv
    kernel), stays valid for as long as anything holds the constant. The
    set's mapping of constants owns it while the set is frozen, so the
    cache dies with the model.
    """

    __slots__ = ("derived",)

    def __init__(self, array: np.ndarray):
        super().__init__(array, None)
        self.derived: dict[str, np.ndarray] = {}


def _derived(t: Tensor, key: str, make: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``make(t.array)``, kept on ``t`` when it is a frozen set's constant.

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
    tape = _active_tape()
    if tape is None:
        return Tensor(out, None)
    pnodes = tuple(p.node for p in parents)
    if all(n is None for n in pnodes):
        return Tensor(out, None)
    for n in pnodes:
        if n is not None and n.tape is not tape:
            raise ContractError(f"{opname}: operand recorded on a different tape")
    node = Node(next(_node_ids), weakref.ref(tape), pnodes, backward_fn)
    tape.nodes.append(node)
    return Tensor(out, node)


def backward(root: Tensor) -> None:
    """Populate ``grads`` of the root's tape for every leaf ancestor of ``root``.

    ``root`` must be a finite scalar recorded on a tape: a NaN or infinite
    root raises ``ContractError`` before any gradient is computed. Constants
    (frozen parameters, plain inputs) have no node and are skipped: gradient
    still flows *through* the ops that consume them, but their own gradients
    are neither computed nor stored.

    Walking the nodes in reverse, backward drops each node's closure, and
    with it what the op kept, and each intermediate gradient once that node
    has used it. So only leaf gradients are kept, and a tape goes through
    backward once: a second call raises ``ContractError``.
    """
    if root.node is None:
        raise ContractError("backward: root is not recorded on any tape")
    if root.array.shape != ():
        raise ContractError(f"backward: root must be scalar, got shape {root.array.shape}")
    if not np.isfinite(root.array):
        raise ContractError(f"backward: root is not finite: {root.item()}")
    t = root.node.tape
    if t is None:
        raise ContractError("backward: the root's tape no longer exists")
    if t._spent:
        raise ContractError("backward: this tape has already been through backward")
    t._spent = True
    grads: dict[int, np.ndarray] = {root.node.nid: np.ones((), dtype=_F64)}
    for node in reversed(t.nodes):
        g = grads.pop(node.nid, None)
        fn = node.backward_fn
        if fn is None:
            if g is not None:
                t.grads[node.nid] = g
            continue
        node.backward_fn = None
        if g is None:
            continue
        for parent, pg in zip(node.parents, fn(g, tuple(p is not None for p in node.parents))):
            if pg is None or parent is None:
                continue
            acc = grads.get(parent.nid)
            grads[parent.nid] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class ParamSet:
    """Named parameter arrays, frozen or not as a whole.

    Iteration order is insertion order and therefore deterministic. A
    frozen set receives no gradients or optimizer updates, takes no new
    parameter, and its values are read-only: an in-place write raises
    ``ValueError``.
    """

    def __init__(self) -> None:
        self._values: dict[str, np.ndarray] = {}
        # While frozen: every value as a constant, in one read-only mapping.
        # State that only set_frozen sets.
        self._consts: MappingProxyType | None = None

    @property
    def frozen(self) -> bool:
        return self._consts is not None

    def add(self, name: str, value: np.ndarray) -> None:
        if self.frozen:
            raise ContractError(f"cannot add parameter {name!r} to a frozen set; call set_frozen(False) first")
        if name in self._values:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._values[name] = np.asarray(value, dtype=_F64)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def get(self, name: str) -> np.ndarray:
        return self._values[name]

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._values.items()

    def set_frozen(self, frozen: bool) -> None:
        """Freeze the set, or unfreeze it.

        Freezing replaces every value by a read-only private copy, so no
        array taken before, nor any view of one, can write it, and builds
        the one mapping of constants that :meth:`lift` hands out while the
        set stays frozen. Unfreezing gives every parameter a writable copy
        and drops that mapping, which with its arrays and caches stays as it
        was for whoever still holds it; a refreeze builds a new one.
        """
        if bool(frozen) == self.frozen:
            return
        self._values = {name: v.copy() for name, v in self._values.items()}
        self._consts = None
        if frozen:
            for v in self._values.values():
                v.flags.writeable = False
            self._consts = MappingProxyType({name: _Constant(v) for name, v in self._values.items()})

    def clone(self) -> "ParamSet":
        """A set of copies of the values, frozen if this one is."""
        out = ParamSet()
        for name, v in self._values.items():
            out.add(name, v.copy())
        out.set_frozen(self.frozen)
        return out

    def count(self) -> int:
        return sum(v.size for v in self._values.values())

    def state_bytes(self) -> bytes:
        """Concatenated little-endian values, for byte-identity checks."""
        return b"".join(v.astype("<f8", copy=False).tobytes() for v in self._values.values())

    def lift(self, tape: Tape | None) -> Mapping[str, Tensor]:
        """The parameters as tensors for one pass, by name.

        A frozen set gives its read-only mapping of constants with no tape
        node, the same object on every call while it stays frozen (ops cache
        what they derive from a constant). An unfrozen set gives a new dict:
        each parameter a leaf that needs a gradient on ``tape``, or with no
        tape a plain constant.
        """
        if self._consts is not None:
            return self._consts
        if tape is None:
            return {name: Tensor(v, None) for name, v in self._values.items()}
        return {name: tape.leaf(v) for name, v in self._values.items()}

    def grads_from(self, tape: Tape, lifted: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
        """Collect the parameters' gradients: none for a frozen set.

        Raises if a parameter of an unfrozen set ended up with no gradient
        (it was never used in the recorded graph), which indicates a wiring
        bug.
        """
        if self.frozen:
            return {}
        out = {}
        for name in self._values:
            g = tape.grad(lifted[name])
            if g is None:
                raise ContractError(f"missing gradient for unfrozen parameter {name!r}")
            out[name] = g
        return out


def sgd_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place p <- p - lr*g for every parameter of an unfrozen set; a
    frozen set is left as it is.

    lr == 0 is an allowed null step; a negative or non-finite lr, or one
    that is not a number, is rejected. Every parameter needs a gradient of
    its own shape and a writable value: ``ContractError`` if a gradient is
    missing or a value read-only, ``DimensionError`` if a gradient has
    another shape, all checked before any value is written, so a set is
    stepped whole or not at all.
    """
    if not (is_real(lr) and 0 <= lr < np.inf):  # NaN fails both
        raise ContractError(f"sgd_step: learning rate must be a number, finite and >= 0, got {lr!r}")
    if params.frozen:
        return
    steps = []
    for name, value in params.items():
        if name not in grads:
            raise ContractError(f"sgd_step: missing gradient for unfrozen parameter {name!r}")
        g = np.asarray(grads[name], dtype=_F64)
        if g.shape != value.shape:
            raise DimensionError(f"sgd_step: gradient of {name!r} has shape {g.shape}, the parameter {value.shape}")
        if not value.flags.writeable:
            raise ContractError(f"sgd_step: parameter {name!r} is read-only")
        steps.append((value, g))
    if lr != 0.0:
        for value, g in steps:
            value -= lr * g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def _same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{opname}: shapes {a.shape} and {b.shape} differ")


def _need_rank(xv: np.ndarray, rank: int, opname: str) -> None:
    if xv.ndim != rank:
        raise DimensionError(f"{opname}: expected a rank-{rank} batch, got {xv.shape}")


def _kept_for(arr: np.ndarray, other: Tensor) -> np.ndarray | None:
    """``arr``, which only the gradient of ``other`` reads, if that gradient
    is computed (``other`` is recorded); else None, so the op keeps nothing."""
    return None if other.node is None else arr


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _record(a.array + b.array, (a, b), lambda g, n: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = a.array * b.array
    # each operand is kept only for the other's gradient
    av, bv = _kept_for(a.array, b), _kept_for(b.array, a)

    def bwd(g, needs):
        return (g * bv if needs[0] else None, g * av if needs[1] else None)

    return _record(out, (a, b), bwd, "mul")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Rows plus a bias: [N,K] + [K]."""
    xv, bv = x.array, b.array
    if xv.ndim != 2 or bv.shape != xv.shape[1:]:
        raise DimensionError(f"add_bias: expected [N,K] rows and a [K] bias, got {xv.shape} + {bv.shape}")

    def bwd(g, needs):
        return (g if needs[0] else None, g.sum(axis=0) if needs[1] else None)

    return _record(xv + bv[None, :], (x, b), bwd, "add_bias")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.array, b.array
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    out = av @ bv
    av, bv = _kept_for(av, b), _kept_for(bv, a)

    def bwd(g, needs):
        ga = g @ bv.T if needs[0] else None
        gb = av.T @ g if needs[1] else None
        return (ga, gb)

    return _record(out, (a, b), bwd, "matmul")


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


def conv2d(x: Tensor, kernel: Tensor, stride: int, pad: int, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation plus an optional per-channel bias.

    x: [N,C,H,W]; kernel: [O,C,k,k]; bias: [O] or None. Kernel size must
    be odd, ``stride`` 1 and ``pad`` an int in [0, k-1], and the output
    [N, O, H + 2*pad - k + 1, W + 2*pad - k + 1] at least one pixel;
    anything else raises ``ConfigurationError``. With a bias the result
    equals ``conv2d(x, kernel, 1, pad)`` plus ``bias[None, :, None, None]``
    bit for bit, recorded as one node.

    The forward is the row-tap kernel :func:`_conv_rows`, which adds the
    bias. The input gradient is the correlation of the incoming gradient
    with the flipped, channel-transposed kernel at pad ``k - 1 - pad``.
    The kernel gradient, :func:`_conv_kernel_grad`, places the incoming
    gradient on a zeroed grid ``gf`` of the forward's padded width and
    multiplies it by the forward's row matrix at each of the k horizontal
    offsets, summed over the batch. All three go through the batch in the
    chunks of :func:`_chunk`.
    When the kernel is a recorded tensor that needs a gradient, the op
    keeps its input, not the row matrix (k copies of the padded input),
    and the backward pass rebuilds the row matrix from it with the
    forward's own builder, :func:`_row_matrix`. The backward drops the
    kept input as soon as the kernel gradient has read it, so the op no
    longer holds it while the input gradient's buffers exist.

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
    _, c, h, w = xv.shape
    if wv.shape[1] != c:
        raise DimensionError(
            f"conv2d: input has {c} channels but kernel expects {wv.shape[1]} "
            f"(shapes {xv.shape} and {wv.shape})"
        )
    pad = need_int("pad", pad, 0)
    if stride != 1 or pad >= k or min(h, w) + 2 * pad < k:
        raise ConfigurationError(
            f"conv2d: needs stride 1, an int pad in [0, {k - 1}] and an output of at least "
            f"one pixel; got input {h}x{w}, k={k}, stride={stride}, pad={pad}"
        )
    out = _conv_rows(xv, _derived(kernel, "taps", _tap_cols), pad,
                     None if bias is None else bias.array)
    # only the kernel gradient reads the input
    kept = _kept_for(xv, kernel)

    def bwd(g, needs):
        nonlocal kept
        gw = gx = None
        if needs[1]:
            gw = _conv_kernel_grad(g, kept, k, pad)
        kept = None  # read; freed before the input gradient allocates
        if needs[0]:
            gx = _conv_rows(g, _derived(kernel, "flipped_taps", _flipped_tap_cols), k - 1 - pad, None)
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


# Bytes of row matrix above which a conv takes its batch one image at a time
# (_chunk). tools/conv_crossover.py times a conv step both ways over 31
# batch shapes. While the per-image path built full-batch grids, every
# threshold from 1,007,616 to 1,566,719 bytes came within 1.3% of the least
# total time in three runs on a 2-vCPU Xeon, and 1 MiB sat at the low end of
# that band, where the least memory is held. With the grids built per image,
# seven of nine runs put the least total at 3.0-3.1 MB, with 1 MiB up to 5%
# above it; one chunk measured faster on batches of many small images (N =
# 64, 8x8 to 12x12). The one training batch of the benchmark between 1 and 2
# MiB, the UNet's [8, 8, 32, 32], ran as fast one image at a time, and a 2
# MiB budget raised the traced peak of a batch-8 UNet step from 5.1 to 6.9
# MB, so the budget stays at 1 MiB. Taking every batch one image at a time
# nearly doubled the set-up time of a batch-32 classifier, whose largest row
# matrix is 1,007,616 bytes. A spy on _chunk over one set-up and ten units
# of each benchmark workload saw one image at a time only in the depth
# set-ups' batch-8 UNet layers: the forward and kernel gradient of
# [8, 24, 32, 32] and [8, 40, 16, 16], and the input gradient into
# [8, 8, 32, 32]. Every other conv, the classifier's batches of 16 to 64
# and every unit's batch of one among them, ran as one chunk.
_ROWS_BUDGET = 1 << 20


def _chunk(shape: tuple[int, ...], k: int, pad: int) -> int:
    """The images per pass of a conv of a batch of ``shape`` [N,C,H,W] with a
    k x k kernel at ``pad``: the whole batch when its row matrix
    (:func:`_row_matrix`) fits ``_ROWS_BUDGET`` or the kernel is 1x1 (pad 0,
    which builds no row matrix), else one. Never zero: an empty batch is
    one empty pass."""
    n, c, h, w = shape
    run = (h + 2 * pad - k + 1) * (w + 2 * pad)
    return max(n, 1) if k == 1 or n * c * k * (run + k - 1) * 8 <= _ROWS_BUDGET else 1


def _row_matrix(xb: np.ndarray, k: int, pad: int) -> tuple[np.ndarray, int, int]:
    """The row matrix of [N,C,H,W] for a k x k kernel at ``pad`` (see
    :func:`_conv_rows`), [N, C*k, H1*Wp + k-1], with H1 and Wp."""
    n, c, h, w = xb.shape
    if k == 1:
        return xb.reshape(n, c, h * w), h, w
    hp, wp = h + 2 * pad, w + 2 * pad
    h1 = hp - k + 1
    run = h1 * wp
    xp = np.zeros((n, c, hp + 1, wp))
    xp[:, :, pad : pad + h, pad : pad + w] = xb
    # The k row taps of every channel as an overlapping view of the buffer
    # (built with the ndarray constructor: as_strided costs more than the
    # copy at these sizes), then copied, so each window is a GEMM operand
    # with a row stride at least its width.
    taps = np.ndarray((n, c, k, run + k - 1), _F64, xp, 0, xp.strides)
    return np.ascontiguousarray(taps).reshape(n, c * k, run + k - 1), h1, wp


def _conv_rows(xb: np.ndarray, wcols: np.ndarray, pad: int, bias: np.ndarray | None) -> np.ndarray:
    """Stride-1 cross-correlation of [N,C,H,W] with a kernel [O,C,k,k],
    given as its tap columns ``wcols`` (:func:`_tap_cols`), as k GEMMs,
    plus ``bias`` [O] per output channel unless it is None.

    The input is written into a zeroed buffer [N, C, Hp+1, Wp] (Hp = H +
    2*pad, Wp = W + 2*pad, 0 <= pad <= k-1). With each channel
    flattened, tap (i, j) reads the contiguous run of H1*Wp values that
    starts at i*Wp + j, where H1 = Hp - k + 1; the extra zero row keeps the
    last tap's run in bounds. The row matrix [N, C*k, H1*Wp + k-1]
    (:func:`_row_matrix`) copies, for every channel c and kernel row i, the
    run that starts at i*Wp: k copies of the input, not k*k. Kernel column
    j reads the window ``rows[:, :, j : j + H1*Wp]`` of it, a strided view,
    so the output is the sum over j of ``W[:, :, :, j] @ window_j``, with
    no further copy (the partial-im2col scheme of Anderson et al. 2017,
    arXiv:1709.03395). A 1x1 kernel (pad 0) uses the input itself as
    the row matrix.

    The GEMMs give the output on the padded-width grid [N, O, H1, Wp]
    (:func:`_conv_grid`), whose last k-1 columns of every row wrap around
    into the next row and are junk. The batch goes through in the chunks
    of :func:`_chunk`, and each chunk's valid columns [n, O, H1, W1], W1 =
    Wp - k + 1, plus the bias, are written into its slot of one
    C-contiguous result, so only one chunk's buffer, row matrix and grid
    exist at once. Chunks of one image give the bits of the whole batch:
    numpy's matmul of a matrix with a stack issues one GEMM per image, with
    the same operands as the single-image product, and the bias is added
    to the same values.
    """
    n, k = len(xb), len(wcols)
    w1 = xb.shape[3] + 2 * pad - k + 1
    step = _chunk(xb.shape, k, pad)
    for i in range(0, max(n, 1), step):  # an empty batch is one empty chunk
        grid = _conv_grid(xb[i : i + step], wcols, pad)[..., :w1]
        if i == 0:  # made after the first chunk's row matrix is freed, not beside it
            out = np.empty((n,) + grid.shape[1:])
        if bias is None:
            out[i : i + step] = grid
        else:
            np.add(grid, bias[:, None, None], out=out[i : i + step])
        del grid  # before the next chunk's grid is made
    return out


def _conv_grid(xb: np.ndarray, wcols: np.ndarray, pad: int) -> np.ndarray:
    """The k GEMMs of :func:`_conv_rows` on the whole of ``xb``: the output
    on the padded-width grid [N, O, H1, Wp], junk columns included."""
    k, o, _ = wcols.shape
    rows, h1, wp = _row_matrix(xb, k, pad)
    run = h1 * wp
    grid = wcols[0] @ rows[:, :, :run]
    for j in range(1, k):
        grid += wcols[j] @ rows[:, :, j : j + run]
    return grid.reshape(xb.shape[0], o, h1, wp)


def _conv_kernel_grad(g: np.ndarray, xb: np.ndarray, k: int, pad: int) -> np.ndarray:
    """Kernel gradient [O,C,k,k] from the incoming gradient ``g`` [N,O,H1,W1]
    and the forward's input, in the chunks of :func:`_chunk`. Each chunk's
    ``g`` is placed on a zeroed grid ``gf`` of the forward's padded width Wp,
    which gives the junk columns of the forward's grid a zero gradient, and
    with the chunk's row matrix rebuilt from the input, column j is ``gf @
    window_jᵀ`` summed over the chunk. Each chunk's sum is added to the
    running sum in image order, with one chunk's grid and row matrix alive
    at a time. Chunks of one image give the bits of the whole batch: that is
    the order in which ``.sum(axis=0)`` adds the per-image products (from a
    +0.0 start, which each one-image sum also has).
    """
    n, o, h1, w1 = g.shape
    step = _chunk(xb.shape, k, pad)
    for i in range(0, max(n, 1), step):  # an empty batch is one empty chunk
        rows, _, wp = _row_matrix(xb[i : i + step], k, pad)
        run = h1 * wp
        gf = np.zeros((len(rows), o, h1, wp))
        gf[..., :w1] = g[i : i + step]
        gf = gf.reshape(len(rows), o, run)
        part = np.empty((o, rows.shape[1], k))
        for j in range(k):
            part[:, :, j] = (gf @ rows[:, :, j : j + run].transpose(0, 2, 1)).sum(axis=0)
        del rows, gf  # before the next chunk's are built
        gw = part if i == 0 else gw + part
    return gw.reshape(o, xb.shape[1], k, k)


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


def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 of [N,C,H,W]. H and W must be even."""
    _need_rank(x.array, 4, "avgpool2")
    h, w = x.array.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(f"avgpool2: odd spatial size {h}x{w}")
    out = _quad_sum(x.array) / 4.0
    return _record(out, (x,), lambda g, n: (_quad_spread(g * 0.25),), "avgpool2")


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of [N,C,H,W]."""
    _need_rank(x.array, 4, "upsample2")
    return _record(_quad_spread(x.array), (x,), lambda g, n: (_quad_sum(g),), "upsample2")


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate [N,C,H,W] maps along the channel axis, 1."""
    arrs = [p.array for p in parts]
    if any(a.ndim != 4 for a in arrs):
        raise DimensionError(f"concat_channels: expected [N,C,H,W] maps, got {[a.shape for a in arrs]}")
    offs = [0, *itertools.accumulate(a.shape[1] for a in arrs)]
    out = np.concatenate(arrs, axis=1)

    # the channel offsets only: holding the operands would keep every skip
    # and upsampled map alive until backward reaches the concat
    def bwd(g, needs):
        return tuple(g[:, a:b] if need else None for a, b, need in zip(offs, offs[1:], needs))

    return _record(out, tuple(parts), bwd, "concat_channels")


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along axis 1 (used to split controller heads)."""
    out = x.array[:, start:stop].copy()
    shape = x.shape

    def bwd(g, needs):
        gx = np.zeros(shape)
        gx[:, start:stop] = g
        return (gx,)

    return _record(out, (x,), bwd, "slice_channels")


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
    xv = _kept_for(xv, gamma)

    def bwd(g, needs):
        gx = g * gexp if needs[0] else None
        gg = (g * xv).sum(axis=sum_axes) if needs[1] else None
        gb = g.sum(axis=sum_axes) if needs[2] else None
        return (gx, gg, gb)

    return _record(out, (x, gamma, beta), bwd, "film")


def flatten_batch(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C*H*W]."""
    xv = x.array
    _need_rank(xv, 4, "flatten_batch")
    shape = xv.shape
    # the row width from the shape, as reshape cannot infer it for an empty batch
    rows = xv.reshape(shape[0], math.prod(shape[1:])).copy()
    return _record(rows, (x,), lambda g, n: (g.reshape(shape),), "flatten_batch")


def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] by spatial mean."""
    xv = x.array
    if xv.ndim != 4:
        raise DimensionError(f"global_avg_pool: expected [N,C,H,W], got {xv.shape}")
    n, c, h, w = shape = xv.shape
    out = xv.mean(axis=(2, 3))

    def bwd(g, needs):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), shape).copy(),)

    return _record(out, (x,), bwd, "global_avg_pool")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _need_classes(z: np.ndarray, axis: int, opname: str) -> None:
    """``DimensionError`` when the class axis of logits ``z`` is empty."""
    if z.shape[axis] == 0:
        raise DimensionError(f"{opname}: logits {z.shape} have no classes on axis {axis}")


def _shifted_exp(z: np.ndarray, axis: int, opname: str) -> tuple[np.ndarray, np.ndarray]:
    """``z`` minus its max over the class axis ``axis``, and exp of that:
    the max shift of every softmax here."""
    _need_classes(z, axis, opname)
    zs = z - z.max(axis=axis, keepdims=True)
    return zs, np.exp(zs)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a plain array (max subtraction)."""
    _, e = _shifted_exp(logits, axis, "softmax")
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(z: np.ndarray, opname: str) -> tuple[np.ndarray, np.ndarray]:
    """``(p, logp)`` over the class axis 1: ``p`` is ``softmax(z, axis=1)``
    bit for bit, and ``logp = (z - max) - log(sum)``, finite for finite
    ``z`` where ``log(p)`` is -inf once ``p`` underflows."""
    zs, e = _shifted_exp(z, 1, opname)
    s = e.sum(axis=1, keepdims=True)
    return e / s, zs - np.log(s)


def _need_rows(opname: str, m: int) -> None:
    """``DegenerateSupervisionError`` when a loss would average over no rows."""
    if m == 0:
        raise DegenerateSupervisionError(f"{opname}: empty batch")


def _class_nll(logits: Tensor, member: np.ndarray, weight, count, opname: str) -> Tensor:
    """The negative log-likelihood of a set of classes, the core of the three
    cross-entropies: sum of ``weight * -log sum_{member} softmax(logits)``
    over rows or pixels, divided by ``count``.

    ``member`` is a bool array of the logits' shape that marks, on the class
    axis 1, the classes of each row's or pixel's set; every set holds one
    class at least. ``weight`` broadcasts against the loss of each row or
    pixel, which keeps the class axis as one entry.
    The log of a set's mass is the logsumexp of its members' ``logp``
    (:func:`_log_softmax`), so the loss is finite for finite logits. The
    gradient is ``p - q`` times ``weight * g / count``, q the softmax
    restricted to the members; with one member q is exactly the one-hot.
    """
    p, logp = _log_softmax(logits.array, opname)
    # -inf off the set, where exp gives 0: logp - top there may overflow
    lm = np.where(member, logp, -np.inf)
    top = lm.max(axis=1, keepdims=True)
    e = np.exp(lm - top)
    s = e.sum(axis=1, keepdims=True)
    loss = float((-(top + np.log(s)) * weight).sum() / count)
    d = p - e / s

    def bwd(g, needs):
        return (d * ((weight * float(g)) / count),)

    return _record(np.asarray(loss), (logits,), bwd, opname)


def softmax_cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean -log softmax(logits)[target] over the batch, by
    :func:`_class_nll` with the target's one-hot as the class set.

    logits: [N,K] with a length-N index vector, N >= 1.
    """
    rows = logits.array
    _need_rank(rows, 2, "softmax_cross_entropy")
    n, k = rows.shape
    t = need_labels("softmax_cross_entropy targets", target, (n,), k)
    _need_rows("softmax_cross_entropy", n)
    return _class_nll(logits, np.arange(k) == t[:, None], 1.0, n, "softmax_cross_entropy")


def _need_mask(opname: str, mask, shape: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The [N,H,W] supervision mask of a masked loss as float64, and the
    count of positions it selects. A mask selects positions and weights
    none: it is bool, or numbers that are each 0 or 1 (a bool mask gives the
    bits of the equal float one, with no scan of its entries).
    ``DimensionError`` unless its shape is ``shape``; ``ContractError`` for
    any other entry, NaN included; ``DegenerateSupervisionError`` if it
    selects none."""
    mk = np.asarray(mask, dtype=_F64)
    if mk.shape != shape:
        raise DimensionError(f"{opname}: mask {mk.shape}, expected [N,H,W] {shape}")
    if np.asarray(mask).dtype != bool and not np.all((mk == 0) | (mk == 1)):
        raise ContractError(f"{opname}: mask entries must be 0 or 1, not weights")
    nvalid = mk.sum()
    if nvalid < 1:
        raise DegenerateSupervisionError(f"{opname}: empty mask")
    return mk, nvalid


def masked_cross_entropy(logits: Tensor, labels, mask) -> Tensor:
    """Per-pixel cross-entropy averaged over masked positions, by
    :func:`_class_nll` with each label's one-hot as the class set and the
    mask as the weight.

    logits: [N,K,H,W]; labels/mask: [N,H,W], the mask as ``_need_mask``
    takes it; at least one position must be selected.
    """
    xv = logits.array
    _need_rank(xv, 4, "masked_cross_entropy")
    n, k, h, w = xv.shape
    lb = need_labels("masked_cross_entropy labels", labels, (n, h, w), k)
    mk, nvalid = _need_mask("masked_cross_entropy", mask, (n, h, w))
    member = np.arange(k)[:, None, None] == lb[:, None]
    return _class_nll(logits, member, mk[:, None], nvalid, "masked_cross_entropy")


def coarse_cross_entropy(logits: Tensor, coarse_target, group_of_fine: np.ndarray) -> Tensor:
    """Marginalized cross-entropy: -log sum_{fine in group} softmax(logits)[fine],
    by :func:`_class_nll` with the target's group as the class set.

    ``group_of_fine`` maps each fine class index to its coarse class.
    logits: [N,K] with a length-N target vector, N >= 1, K >= 1.
    """
    rows = logits.array
    _need_rank(rows, 2, "coarse_cross_entropy")
    n, k = rows.shape
    _need_classes(rows, 1, "coarse_cross_entropy")  # before the grouping's max
    # a grouping has no more coarse classes than fine ones
    gmap = need_labels("coarse_cross_entropy grouping", group_of_fine, (k,), k)
    t = need_labels("coarse_cross_entropy targets", coarse_target, (n,), gmap.max() + 1)
    _need_rows("coarse_cross_entropy", n)
    member = gmap == t[:, None]  # [N,K]
    if not member.any(axis=1).all():
        raise ContractError("coarse_cross_entropy: empty coarse group")
    return _class_nll(logits, member, 1.0, n, "coarse_cross_entropy")


def prediction_entropy(logits: Tensor) -> Tensor:
    """Mean Shannon entropy of softmax(logits) over batch/pixels.

    Accepts [N,K] or [N,K,H,W] with at least one row or pixel; the class
    axis is axis 1. The entropy is -sum p * logp with ``logp`` from
    :func:`_log_softmax`, so a class whose p underflows adds 0.
    """
    xv = logits.array
    if xv.ndim not in (2, 4):
        raise DimensionError(f"prediction_entropy: expected [N,K] or [N,K,H,W], got {xv.shape}")
    m = math.prod(xv.shape[:1] + xv.shape[2:])
    _need_rows("prediction_entropy", m)
    p, logp = _log_softmax(xv, "prediction_entropy")
    ent = -(p * logp).sum(axis=1, keepdims=True)
    loss = float(ent.mean())

    def bwd(g, needs):
        return (-p * (logp + ent) * (float(g) / m),)

    return _record(np.asarray(loss), (logits,), bwd, "prediction_entropy")


def masked_l1(pred: Tensor, target: Tensor, mask) -> Tensor:
    """Mean absolute error over masked positions.

    pred/target: [N,C,H,W]; mask: [N,H,W], as ``_need_mask`` takes it,
    the same positions in every channel. The gradient is zero at unmasked
    positions.
    """
    pv = pred.array
    tv = target.array if isinstance(target, Tensor) else np.asarray(target, dtype=_F64)
    if pv.shape != tv.shape:
        raise DimensionError(f"masked_l1: pred {pv.shape} vs target {tv.shape}")
    _need_rank(pv, 4, "masked_l1")
    n, c, h, w = pv.shape
    mk, nvalid = _need_mask("masked_l1", mask, (n, h, w))
    mfull = mk[:, None]  # the mask on the channel axis, broadcast over it
    nvalid *= c
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
    _need_rank(pred.array, 4, "mean_l1")
    n, _, h, w = pred.shape
    return masked_l1(pred, target, np.ones((n, h, w), bool))
