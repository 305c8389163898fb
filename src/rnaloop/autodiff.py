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

Shape discipline: no broadcasting except the channel-wise patterns of
``film`` and ``add_bias``. All other operand shapes must match exactly.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
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
    "sub",
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
    def data(self) -> np.ndarray:
        """Flat row-major view of the underlying values."""
        return self.array.reshape(-1)

    @property
    def node_id(self) -> int | None:
        return None if self.node is None else self.node.nid

    def item(self) -> float:
        return float(self.array)

    def detach(self) -> "Tensor":
        return Tensor(self.array, None)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


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

    ``root`` must be a scalar recorded on a tape. Leaves registered with
    ``needs_grad=False`` (frozen parameters, plain inputs) are skipped:
    gradient still flows *through* the ops that consume them, but their own
    gradients are neither computed nor stored.
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
    trainable: bool = True
    frozen: bool = False


class ParamSet:
    """Named parameter arrays with {trainable, frozen} flags.

    Iteration order is insertion order and therefore deterministic. Frozen
    parameters never receive gradients or optimizer updates.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True, frozen: bool = False) -> None:
        if name in self._entries:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._entries[name] = Param(np.asarray(value, dtype=_F64), trainable, frozen)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def get(self, name: str) -> np.ndarray:
        return self._entries[name].value

    def entry(self, name: str) -> Param:
        return self._entries[name]

    def items(self) -> Iterable[tuple[str, Param]]:
        return self._entries.items()

    def set_frozen(self, frozen: bool, names: Iterable[str] | None = None) -> None:
        for name in names if names is not None else list(self._entries):
            self._entries[name].frozen = frozen

    def clone(self) -> "ParamSet":
        out = ParamSet()
        for name, p in self._entries.items():
            out.add(name, p.value.copy(), p.trainable, p.frozen)
        return out

    def copy_values_from(self, other: "ParamSet") -> None:
        if other.names() != self.names():
            raise ContractError("parameter sets do not match")
        for name, p in self._entries.items():
            np.copyto(p.value, other.get(name))

    def count(self) -> int:
        return sum(p.value.size for p in self._entries.values())

    def state_bytes(self) -> bytes:
        """Concatenated little-endian values, for byte-identity checks."""
        return b"".join(
            p.value.astype("<f8", copy=False).tobytes() for p in self._entries.values()
        )

    def lift(self, tape: Tape | None) -> dict[str, Tensor]:
        """Register every parameter as a leaf on ``tape``.

        With no tape, returns plain constant tensors (pure inference).
        """
        out = {}
        for name, p in self._entries.items():
            if tape is None:
                out[name] = Tensor(p.value, None)
            else:
                out[name] = tape.leaf(p.value, p.trainable and not p.frozen)
        return out

    def grads_from(self, tape: Tape, lifted: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """Collect gradients for trainable, unfrozen parameters.

        Raises if a trainable parameter ended up with no gradient (it was
        never used in the recorded graph), which indicates a wiring bug.
        """
        out = {}
        for name, p in self._entries.items():
            if not p.trainable or p.frozen:
                continue
            g = tape.grad(lifted[name])
            if g is None:
                raise ContractError(f"missing gradient for trainable parameter {name!r}")
            out[name] = g
        return out


def sgd_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place p <- p - lr*g for trainable, unfrozen parameters.

    lr == 0 is an allowed null step; negative lr is rejected.
    """
    if lr < 0:
        raise ContractError(f"sgd_step: negative learning rate {lr}")
    for name, p in params.items():
        if not p.trainable or p.frozen:
            continue
        if name not in grads:
            raise ContractError(f"sgd_step: missing gradient for trainable parameter {name!r}")
        if lr != 0.0:
            p.value -= lr * grads[name]


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def _same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{opname}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _record(a.array + b.array, (a, b), lambda g, n: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _record(a.array - b.array, (a, b), lambda g, n: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = a.array, b.array

    def bwd(g, needs):
        return (g * bv if needs[0] else None, g * av if needs[1] else None)

    return _record(av * bv, (a, b), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record(a.array * c, (a,), lambda g, n: (g * c,), "scale")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias to x using one of the supported channel patterns.

    Supported: [N,K]+[K], [C,H,W]+[C], [N,C,H,W]+[C].
    """
    xv, bv = x.array, b.array
    if bv.ndim != 1:
        raise DimensionError(f"add_bias: bias must be 1-D, got {bv.shape}")
    if xv.ndim == 2 and xv.shape[1] == bv.shape[0]:
        out = xv + bv[None, :]
        axes = (0,)
    elif xv.ndim == 3 and xv.shape[0] == bv.shape[0]:
        out = xv + bv[:, None, None]
        axes = (1, 2)
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
    xv = x.array
    mask = xv > 0
    return _record(np.where(mask, xv, 0.0), (x,), lambda g, n: (g * mask,), "relu")


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _record(
        np.asarray(x.array.sum()), (x,),
        lambda g, n: (np.broadcast_to(g, shape).copy(),), "sum_all",
    )


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------


def _as_batched(xv: np.ndarray, opname: str) -> tuple[np.ndarray, bool]:
    if xv.ndim == 3:
        return xv[None], True
    if xv.ndim == 4:
        return xv, False
    raise DimensionError(f"{opname}: expected [C,H,W] or [N,C,H,W], got {xv.shape}")


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation. x: [C,H,W] or [N,C,H,W]; kernel: [O,C,k,k].

    Kernel size must be odd. Output spatial size (H + 2*pad - k)/stride + 1
    must be integral.

    Every stride runs the same stride-1 kernel, :func:`_conv_flat`. For
    stride > 1 the output keeps every ``stride``-th row and column of the
    stride-1 result; the backward pass places the incoming gradient at those
    positions of a zeroed stride-1 gradient grid, so both gradients are the
    stride-1 ones: the kernel gradient is that grid times the columns of the
    forward pass, summed over the batch, and the input gradient is the
    stride-1 correlation of the grid with the flipped, channel-transposed
    kernel at pad ``k - 1 - pad``. The columns are kept for the backward
    pass only when the kernel is a recorded tensor that needs a gradient.
    """
    from .errors import ConfigurationError

    xv, wv = x.array, kernel.array
    if wv.ndim != 4 or wv.shape[2] != wv.shape[3]:
        raise DimensionError(f"conv2d: kernel must be [O,C,k,k], got {wv.shape}")
    k = wv.shape[2]
    if k % 2 == 0:
        raise ConfigurationError(f"conv2d: kernel size must be odd, got {k}")
    xb, squeezed = _as_batched(xv, "conv2d")
    n, c, h, w = xb.shape
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
    grid, cols = _conv_flat(xb, wv, pad)
    _, o, h1, wp = grid.shape
    w1 = wp - k + 1
    out = np.ascontiguousarray(grid[:, :, ::stride, :w1:stride])
    if kernel.node is None or not kernel.node.needs_grad:
        cols = None  # only the kernel gradient reads the columns
    if squeezed:
        out = out[0]

    def bwd(g, needs):
        # the incoming gradient on the padded-width stride-1 grid of the forward
        gfull = np.zeros((n, o, h1, wp))
        gfull[:, :, ::stride, :w1:stride] = g[None] if squeezed else g
        gw = gx = None
        if needs[1]:
            gw = (gfull.reshape(n, o, h1 * wp) @ cols.transpose(0, 2, 1)).sum(axis=0)
            gw = gw.reshape(wv.shape)
        if needs[0]:
            wflip = np.ascontiguousarray(wv.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            gxg, _ = _conv_flat(gfull[:, :, :, :w1], wflip, k - 1 - pad)
            gx = np.ascontiguousarray(gxg[:, :, :, :w])
            if squeezed:
                gx = gx[0]
        return (gx, gw)

    return _record(out, (x, kernel), bwd, "conv2d")


def _conv_flat(xb: np.ndarray, wv: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 cross-correlation of [N,C,H,W] with [O,C,k,k] as one GEMM.

    The input is written into a zeroed buffer [N, C, Hp+1, Wp] (Hp = H +
    2*pad, Wp = W + 2*pad; a negative pad, which the input gradient of a
    conv with pad > k-1 needs, crops instead). With each channel
    flattened, tap (i, j) reads the contiguous run of H1*Wp values that
    starts at i*Wp + j, where H1 = Hp - k + 1; the extra zero row keeps the
    last tap's run in bounds. Stacking the k*k runs of every channel gives
    the columns [N, C*k*k, H1*Wp] by copying whole rows, with no gather.

    Returns ``(grid, cols)``. ``grid`` is [N, O, H1, Wp]: the output on the
    padded-width grid, whose last k-1 columns of every row wrap around into
    the next row and are junk, so the valid output is ``grid[..., :Wp-k+1]``.
    """
    n, c, h, w = xb.shape
    o, _, k, _ = wv.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    h1 = hp - k + 1
    p, q = max(pad, 0), max(-pad, 0)
    xp = np.zeros((n, c, hp + 1, wp))
    xp[:, :, p : p + h - 2 * q, p : p + w - 2 * q] = xb[:, :, q : h - q, q : w - q]
    sn, sc, sh, sw = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, k, k, h1 * wp), strides=(sn, sc, sh, sw, sw), writeable=False
    )
    cols = taps.reshape(n, c * k * k, h1 * wp)
    grid = (wv.reshape(o, c * k * k) @ cols).reshape(n, o, h1, wp)
    return grid, cols


def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2. Spatial dims must be even."""
    xv = x.array
    xb, squeezed = _as_batched(xv, "avgpool2")
    n, c, h, w = xb.shape
    if h % 2 or w % 2:
        raise DimensionError(f"avgpool2: odd spatial size {h}x{w}")
    out = xb.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    if squeezed:
        out = out[0]

    def bwd(g, needs):
        gb = g[None] if squeezed else g
        gx = np.repeat(np.repeat(gb, 2, axis=2), 2, axis=3) * 0.25
        return ((gx[0] if squeezed else gx),)

    return _record(out, (x,), bwd, "avgpool2")


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling."""
    xv = x.array
    xb, squeezed = _as_batched(xv, "upsample2")
    out = np.repeat(np.repeat(xb, 2, axis=2), 2, axis=3)
    if squeezed:
        out = out[0]

    def bwd(g, needs):
        gb = g[None] if squeezed else g
        n, c, h2, w2 = gb.shape
        gx = gb.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
        return ((gx[0] if squeezed else gx),)

    return _record(out, (x,), bwd, "upsample2")


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis ([C,H,W] axis 0, [N,C,H,W] axis 1)."""
    arrs = [p.array for p in parts]
    nd = arrs[0].ndim
    if any(a.ndim != nd for a in arrs) or nd not in (3, 4):
        raise DimensionError(f"concat_channels: mixed ranks {[a.shape for a in arrs]}")
    axis = 0 if nd == 3 else 1
    sizes = [a.shape[axis] for a in arrs]
    out = np.concatenate(arrs, axis=axis)

    def bwd(g, needs):
        offs = np.cumsum([0] + sizes)
        return tuple(
            np.take(g, range(offs[i], offs[i + 1]), axis=axis) if needs[i] else None
            for i in range(len(arrs))
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


def film(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Channel-wise affine modulation: out[c] = gamma[c]*x[c] + beta[c].

    x: [C,H,W] or [N,C,H,W]; gamma/beta: [C] (shared) or [N,C] (per sample,
    batched x only). gamma=1, beta=0 is the exact identity.
    """
    xv, gv, bv = x.array, gamma.array, beta.array
    if gv.shape != bv.shape:
        raise DimensionError(f"film: gamma {gv.shape} and beta {bv.shape} differ")
    if xv.ndim == 3:
        c = xv.shape[0]
        if gv.shape != (c,):
            raise DimensionError(f"film: x has {c} channels, gamma is {gv.shape}")
        gexp, bexp = gv[:, None, None], bv[:, None, None]
        sum_axes = (1, 2)
    elif xv.ndim == 4:
        n, c = xv.shape[:2]
        if gv.shape == (c,):
            gexp, bexp = gv[None, :, None, None], bv[None, :, None, None]
            sum_axes = (0, 2, 3)
        elif gv.shape == (n, c):
            gexp, bexp = gv[:, :, None, None], bv[:, :, None, None]
            sum_axes = (2, 3)
        else:
            raise DimensionError(f"film: x is {xv.shape}, gamma is {gv.shape}")
    else:
        raise DimensionError(f"film: expected [C,H,W] or [N,C,H,W], got {xv.shape}")

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
    sizes = [a.shape[0] for a in arrs]
    out = np.concatenate(arrs, axis=0)

    def bwd(g, needs):
        offs = np.cumsum([0] + sizes)
        return tuple(
            g[offs[i] : offs[i + 1]] if needs[i] else None for i in range(len(arrs))
        )

    return _record(out, tuple(parts), bwd, "stack_rows")


def expand_batch(x: Tensor) -> Tensor:
    """[C,H,W] -> [1,C,H,W] (or [K] -> [1,K])."""
    old = x.array.shape
    return _record(x.array[None].copy(), (x,), lambda g, n: (g[0],), "expand_batch")


def squeeze_batch(x: Tensor) -> Tensor:
    """[1,...] -> [...]."""
    if x.array.shape[0] != 1:
        raise DimensionError(f"squeeze_batch: leading axis is {x.array.shape[0]}, not 1")
    return _record(x.array[0].copy(), (x,), lambda g, n: (g[None],), "squeeze_batch")


def flatten_batch(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C*H*W] (or [C,H,W] -> [C*H*W])."""
    xv = x.array
    if xv.ndim == 4:
        out = xv.reshape(xv.shape[0], -1)
    elif xv.ndim == 3:
        out = xv.reshape(-1)
    else:
        raise DimensionError(f"flatten_batch: got {xv.shape}")
    shape = xv.shape
    return _record(out.copy(), (x,), lambda g, n: (g.reshape(shape),), "flatten_batch")


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


def _as_logit_rows(xv: np.ndarray, opname: str) -> tuple[np.ndarray, bool]:
    if xv.ndim == 1:
        return xv[None], True
    if xv.ndim == 2:
        return xv, False
    raise DimensionError(f"{opname}: expected [K] or [N,K] logits, got {xv.shape}")


def softmax_cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean -log softmax(logits)[target] over the batch.

    logits: [K] with an int target, or [N,K] with a length-N index vector.
    """
    rows, single = _as_logit_rows(logits.array, "softmax_cross_entropy")
    t = np.atleast_1d(np.asarray(target, dtype=np.int64))
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
        return ((gl[0] if single else gl),)

    return _record(np.asarray(loss), (logits,), bwd, "softmax_cross_entropy")


def masked_cross_entropy(logits: Tensor, labels, mask) -> Tensor:
    """Per-pixel cross-entropy averaged over masked positions.

    logits: [K,H,W] or [N,K,H,W]; labels/mask: [H,W] or [N,H,W]. The mask is
    binary; at least one position must be selected.
    """
    xv = logits.array
    single = xv.ndim == 3
    lb = np.asarray(labels, dtype=np.int64)
    mk = np.asarray(mask, dtype=_F64)
    if single:
        xv, lb, mk = xv[None], lb[None], mk[None]
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
        return ((gl[0] if single else gl),)

    return _record(np.asarray(loss), (logits,), bwd, "masked_cross_entropy")


def coarse_cross_entropy(logits: Tensor, coarse_target, group_of_fine: np.ndarray) -> Tensor:
    """Marginalized cross-entropy: -log sum_{fine in group} softmax(logits)[fine].

    ``group_of_fine`` maps each fine class index to its coarse class.
    logits: [K] with int target, or [N,K] with a length-N target vector.
    """
    rows, single = _as_logit_rows(logits.array, "coarse_cross_entropy")
    n, k = rows.shape
    gmap = np.asarray(group_of_fine, dtype=np.int64)
    if gmap.shape != (k,):
        raise DimensionError(f"coarse_cross_entropy: grouping covers {gmap.shape}, logits have {k}")
    t = np.atleast_1d(np.asarray(coarse_target, dtype=np.int64))
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
        return ((gl[0] if single else gl),)

    return _record(np.asarray(loss), (logits,), bwd, "coarse_cross_entropy")


def prediction_entropy(logits: Tensor) -> Tensor:
    """Mean Shannon entropy of softmax(logits) over batch/pixels.

    Accepts [K], [N,K], [K,H,W] or [N,K,H,W]; the class axis is axis 0 for
    unbatched input and axis 1 otherwise (pixels are extra trailing axes).
    """
    xv = logits.array
    if xv.ndim == 1:
        rows = xv[None]
    elif xv.ndim == 2:
        rows = xv
    elif xv.ndim == 3:  # [K,H,W]
        rows = xv.reshape(xv.shape[0], -1).T
    elif xv.ndim == 4:  # [N,K,H,W]
        k = xv.shape[1]
        rows = xv.transpose(0, 2, 3, 1).reshape(-1, k)
    else:
        raise DimensionError(f"prediction_entropy: got {xv.shape}")
    p = softmax(rows, axis=1)
    logp = np.log(np.maximum(p, 1e-300))  # p*log p -> 0 as p -> 0
    ent = -(p * logp).sum(axis=1)
    m = rows.shape[0]
    loss = float(ent.mean())

    def bwd(g, needs):
        grows = -p * (logp + ent[:, None]) * (float(g) / m)
        if xv.ndim == 1:
            gx = grows[0]
        elif xv.ndim == 2:
            gx = grows
        elif xv.ndim == 3:
            gx = grows.T.reshape(xv.shape)
        else:
            n, k, h, w = xv.shape
            gx = grows.reshape(n, h, w, k).transpose(0, 3, 1, 2)
        return (gx,)

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


def masked_l1(pred: Tensor, target: Tensor, mask) -> Tensor:
    """Mean absolute error over masked positions.

    pred/target: [C,H,W] or [N,C,H,W] (or matching 2-D); mask matches the
    spatial (and batch) axes and is broadcast over channels. The gradient
    is zero at unmasked positions.
    """
    pv = pred.array
    tv = target.array if isinstance(target, Tensor) else np.asarray(target, dtype=_F64)
    if pv.shape != tv.shape:
        raise DimensionError(f"masked_l1: pred {pv.shape} vs target {tv.shape}")
    mk = np.asarray(mask, dtype=_F64)
    if mk.shape == pv.shape:
        mfull = mk
    elif pv.ndim == 3 and mk.shape == pv.shape[1:]:
        mfull = np.broadcast_to(mk[None], pv.shape)
    elif pv.ndim == 4 and mk.shape == (pv.shape[0],) + pv.shape[2:]:
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
    tv = target.array if isinstance(target, Tensor) else np.asarray(target, dtype=_F64)
    if pred.array.ndim == 4:
        mk = np.ones((pred.array.shape[0],) + pred.array.shape[2:])
    elif pred.array.ndim == 3:
        mk = np.ones(pred.array.shape[1:])
    else:
        mk = np.ones(pred.array.shape)
    return masked_l1(pred, as_tensor(tv), mk)
