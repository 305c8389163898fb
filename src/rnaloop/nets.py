"""Network builders: main task networks, FiLM sites, controllers, adapters.

Main networks are layer-list models (conv / relu / avg-pool / nearest
upsample / channel concat / flatten / linear) over the autodiff ops. FiLM
sites name layer indices whose activations get a channel-wise affine
modulation; with gamma=1, beta=0 the modulated network is bit-identical
to the unmodulated one.

Controllers map an error-feedback encoding to FiLM coefficients for every
site. Their final layer is zero-initialized and gamma is emitted as
1 + residual, so a freshly built controller is exactly the identity
adaptation.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .errors import ConfigurationError, ContractError, DimensionError, SerializationError
from . import serialize

# Controller size relative to the main network, for shipped configs.
BUDGET_RANGE = (0.05, 0.20)


class BudgetWarning(UserWarning):
    """Controller/main parameter ratio fell outside the intended range."""


# ---------------------------------------------------------------------------
# model specs
# ---------------------------------------------------------------------------


@dataclass
class ModelSpec:
    """Declarative layer list plus FiLM site placement.

    task_kind: dense_regression | dense_segmentation | classification
    layers: dicts with a "kind" key (conv, relu, pool, upsample, concat,
        flatten, linear) and kind-specific fields.
    film_sites: (layer_index, channel_count) pairs; the site modulates the
        output of that layer.
    """

    task_kind: str
    in_shape: tuple[int, int, int]
    layers: list[dict] = field(default_factory=list)
    film_sites: list[tuple[int, int]] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "task_kind": self.task_kind,
                "in_shape": list(self.in_shape),
                "layers": self.layers,
                "film_sites": [list(s) for s in self.film_sites],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        d = json.loads(text)
        return ModelSpec(
            task_kind=d["task_kind"],
            in_shape=tuple(d["in_shape"]),
            layers=d["layers"],
            film_sites=[tuple(s) for s in d["film_sites"]],
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelSpec) and self.to_json() == other.to_json()


def _trace_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """The shape of one sample after every layer: (C, H, W) while the
    activation is spatial, (F,) once it is flat.

    Raises ``ConfigurationError`` where a layer cannot take its input: a
    channel count that does not match, an odd kernel size, a non-integral
    or empty conv output, an odd size before ``pool``, spatial sizes that
    differ at ``concat``, a spatial layer after ``flatten`` or a ``linear``
    whose ``nin`` is not the flat size it receives.
    """
    out: list[tuple[int, ...]] = []
    shape = tuple(spec.in_shape)
    for i, layer in enumerate(spec.layers):
        kind = layer["kind"]
        if kind in ("conv", "pool", "upsample", "concat", "flatten") and len(shape) != 3:
            raise ConfigurationError(f"layer {i}: {kind} needs a spatial input, gets flat {shape}")
        if kind == "conv":
            c, h, w = shape
            k, s, p = layer["k"], layer["stride"], layer["pad"]
            if layer["cin"] != c:
                raise ConfigurationError(f"layer {i}: conv expects {layer['cin']} channels, gets {c}")
            if k % 2 == 0:
                raise ConfigurationError(f"layer {i}: conv kernel size must be odd, got {k}")
            if h + 2 * p < k or w + 2 * p < k or (h + 2 * p - k) % s or (w + 2 * p - k) % s:
                raise ConfigurationError(
                    f"layer {i}: conv k={k}, stride={s}, pad={p} has no integral output "
                    f"for a {h}x{w} input"
                )
            shape = (layer["cout"], (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
        elif kind == "pool":
            c, h, w = shape
            if h % 2 or w % 2:
                raise ConfigurationError(f"layer {i}: pool needs an even size, gets {h}x{w}")
            shape = (c, h // 2, w // 2)
        elif kind == "upsample":
            c, h, w = shape
            shape = (c, 2 * h, 2 * w)
        elif kind == "concat":
            src = layer["skip_from"]
            if not (0 <= src < i):
                raise ConfigurationError(f"layer {i}: concat skip_from {src} out of range")
            skip = out[src]
            if len(skip) != 3:
                raise ConfigurationError(f"layer {i}: concat source {src} is not spatial")
            if skip[1:] != shape[1:]:
                raise ConfigurationError(
                    f"layer {i}: concat of a {shape[1]}x{shape[2]} map with layer {src}'s "
                    f"{skip[1]}x{skip[2]} map"
                )
            shape = (shape[0] + skip[0],) + shape[1:]
        elif kind == "flatten":
            shape = (shape[0] * shape[1] * shape[2],)
        elif kind == "linear":
            if shape != (layer["nin"],):
                raise ConfigurationError(f"layer {i}: linear expects nin={layer['nin']}, gets {shape}")
            shape = (layer["nout"],)
        elif kind != "relu":
            raise ConfigurationError(f"layer {i}: unknown kind {kind!r}")
        out.append(shape)
    return out


# Integer fields every layer kind needs, with their least allowed value.
_INT_FIELDS = {
    "conv": {"cin": 1, "cout": 1, "k": 1, "stride": 1, "pad": 0},
    "linear": {"nin": 1, "nout": 1},
    "concat": {"skip_from": 0},
}


def validate_spec(spec: ModelSpec) -> None:
    """Raise ``ConfigurationError`` unless ``spec`` builds a network that
    runs on inputs of ``in_shape``: integer layer fields, shapes that fit
    from layer to layer (traced from ``in_shape``) and FiLM sites on
    spatial layers with the declared channel count."""
    shape = spec.in_shape
    if (not isinstance(shape, (tuple, list)) or len(shape) != 3
            or any(type(v) is not int or v < 1 for v in shape)):
        raise ConfigurationError(f"in_shape must be three positive integers (C, H, W), got {shape!r}")
    for i, layer in enumerate(spec.layers):
        for key, least in _INT_FIELDS.get(layer["kind"], {}).items():
            if type(layer.get(key)) is not int or layer[key] < least:
                raise ConfigurationError(
                    f"layer {i}: {layer['kind']} needs an integer {key} >= {least}, "
                    f"got {layer.get(key)!r}"
                )
    shapes = _trace_shapes(spec)
    for idx, c in spec.film_sites:
        if not (0 <= idx < len(spec.layers)):
            raise ConfigurationError(f"film site at layer {idx} out of range")
        if len(shapes[idx]) != 3 or shapes[idx][0] != c:
            raise ConfigurationError(
                f"film site at layer {idx} declares {c} channels, layer gives {shapes[idx]}"
            )


# ---------------------------------------------------------------------------
# FiLM parameters
# ---------------------------------------------------------------------------


class FiLMParams:
    """Per-site (gamma, beta) channel vectors, shared or per-sample."""

    def __init__(self, sites: list[tuple[Tensor, Tensor]]):
        self.sites = [(ad.as_tensor(g), ad.as_tensor(b)) for g, b in sites]
        for g, b in self.sites:
            if g.shape != b.shape:
                raise DimensionError(f"film params: gamma {g.shape} vs beta {b.shape}")

    @staticmethod
    def identity(channel_counts: list[int]) -> "FiLMParams":
        return FiLMParams([(np.ones(c), np.zeros(c)) for c in channel_counts])

    def __len__(self) -> int:
        return len(self.sites)

    def numpy(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(g.array, b.array) for g, b in self.sites]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    """A layer-list network bound to its parameter store."""

    def __init__(self, spec: ModelSpec, params: ParamSet):
        self.spec = spec
        self.params = params
        # Per thread, the last unmodulated pass on frozen weights (see forward).
        self._memo = threading.local()

    def lift(self, tape) -> dict[str, Tensor]:
        return self.params.lift(tape)

    def forward(
        self,
        x,
        film: FiLMParams | None = None,
        lifted: dict[str, Tensor] | None = None,
        tape=None,
        return_acts: bool = False,
    ):
        """Run the network. x: [C,H,W] / [N,C,H,W] array or Tensor.

        ``film`` replaces each site's activation with its modulation.
        ``lifted`` reuses already-lifted parameters (training loops); when
        absent, parameters are lifted onto ``tape`` (or used as constants).

        A call runs on frozen weights when every lifted parameter is a
        frozen parameter's constant (``autodiff._Constant``) and ``x`` needs
        no gradient, as in test-time optimization and controller
        adaptation; the ops then record nothing before the first FiLM site.
        Per thread, the model keeps its last unmodulated pass on frozen
        weights and one image (a batch of one, as an adaptation episode
        runs): copies of the input, of the activations up to and including
        the first site's layer (every layer when there are no sites) and of
        the output, and the constants read. Batched passes are not kept: in
        index building and set-up training they are never or rarely
        repeated, and their activations cost peak memory.

        A later call on frozen weights and the same thread reuses the kept
        pass when its input (as a batch) is byte-equal to the kept one and
        it reads the same constant objects. A constant never changes, so
        that is the same weights. On reuse an unmodulated call without
        ``return_acts`` gets a copy of the kept output; any other call
        resumes at the first site from the kept activations. Results,
        ``return_acts`` lists and gradients are those of the full pass bit
        for bit, and no array handed out is kept. A call on unfrozen weights
        neither reuses nor replaces the kept pass.
        """
        xt = x if isinstance(x, Tensor) else ad.as_tensor(x)
        squeeze = xt.array.ndim == 3
        if squeeze:
            xt = ad.expand_batch(xt)
        if lifted is None:
            lifted = self.params.lift(tape)
        site_map = dict_from_sites(self.spec.film_sites, film)
        layers = self.spec.layers
        keep = min(self.spec.film_sites)[0] + 1 if self.spec.film_sites else len(layers)
        frozen = (xt.node is None or not xt.node.needs_grad) and all(
            isinstance(t, ad._Constant) for t in lifted.values())
        memo = getattr(self._memo, "last", None) if frozen else None
        acts: list[Tensor] = []
        if memo is not None and memo.matches(xt.array, lifted):
            if not site_map and not return_acts:
                out = Tensor(memo.out.copy())
                return ad.squeeze_batch(out) if squeeze else out
            acts = [Tensor(a.copy() if return_acts else a) for a in memo.acts]
            if keep - 1 in site_map:
                acts[-1] = ad.film(acts[-1], *site_map[keep - 1])
        resumed = bool(acts)

        cur = acts[-1] if acts else xt
        for i in range(len(acts), len(layers)):
            layer = layers[i]
            kind = layer["kind"]
            if kind == "conv":
                bias = lifted[f"L{i}.b"] if layer.get("bias", True) else None
                cur = ad.conv2d(cur, lifted[f"L{i}.w"], layer["stride"], layer["pad"], bias=bias)
            elif kind == "relu":
                cur = ad.relu(cur)
            elif kind == "pool":
                cur = ad.avgpool2(cur)
            elif kind == "upsample":
                cur = ad.upsample2(cur)
            elif kind == "concat":
                cur = ad.concat_channels([cur, acts[layer["skip_from"]]])
            elif kind == "flatten":
                cur = ad.flatten_batch(cur)
            elif kind == "linear":
                cur = ad.matmul(cur, lifted[f"L{i}.w"])
                if layer.get("bias", True):
                    cur = ad.add_bias(cur, lifted[f"L{i}.b"])
            if i in site_map:
                g, b = site_map[i]
                cur = ad.film(cur, g, b)
            acts.append(cur)

        out = acts[-1]
        if frozen and not site_map and not resumed and len(xt.array) == 1:
            self._memo.last = _Pass.record(xt.array, lifted, acts[:keep], out)
        if squeeze:
            out = ad.squeeze_batch(out)
        if return_acts:
            return out, acts
        return out

    def clone(self) -> "Model":
        return Model(self.spec, self.params.clone())


@dataclass(slots=True)
class _Pass:
    """One unmodulated pass of a Model on frozen weights, held for reuse.

    Holds private copies of the input and the activations, so neither the
    caller of that pass nor of a later reuse can change what a reuse
    returns, and the frozen constants the pass read. A constant is
    immutable for life (see ``autodiff._Constant``), so a later call reads
    the same weights exactly when it holds the same constant objects.
    """

    x_shape: tuple[int, ...]
    x_bytes: bytes
    held: dict[str, Tensor]  # the constants read, by name
    acts: list[np.ndarray]  # activations of the first len(acts) layers
    out: np.ndarray

    @staticmethod
    def record(xv: np.ndarray, lifted: dict[str, Tensor], kept: list[Tensor], out: Tensor) -> "_Pass":
        acts = [a.array.copy() for a in kept]
        out_copy = acts[-1] if kept[-1] is out else out.array.copy()
        return _Pass(xv.shape, xv.tobytes(), dict(lifted), acts, out_copy)

    def matches(self, xv: np.ndarray, lifted: dict[str, Tensor]) -> bool:
        """Same input bytes, and the same constant under every held name."""
        return (xv.shape == self.x_shape and xv.tobytes() == self.x_bytes
                and all(lifted.get(n) is c for n, c in self.held.items()))


def dict_from_sites(sites: list[tuple[int, int]], film: FiLMParams | None):
    if film is None:
        return {}
    if len(film) != len(sites):
        raise ContractError(
            f"film params carry {len(film)} sites, model declares {len(sites)}"
        )
    for (idx, c), (g, _) in zip(sites, film.sites):
        if g.shape[-1] != c:
            raise ContractError(f"film site at layer {idx}: {c} channels vs {g.shape[-1]}")
    return {idx: film.sites[k] for k, (idx, _) in enumerate(sites)}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _conv(cin, cout, k=3, stride=1, pad=1, bias=True):
    return {"kind": "conv", "cin": cin, "cout": cout, "k": k, "stride": stride,
            "pad": pad, "bias": bias}


def unet_spec(task_kind: str, in_ch: int = 1, out_ch: int = 1, grid: int = 32) -> ModelSpec:
    """Encoder/decoder with three 2x downsamplings and skip connections."""
    if grid % 8 != 0:
        raise ConfigurationError(f"grid {grid} must be divisible by 8")
    layers = [
        _conv(in_ch, 8),            # 0   enc1
        {"kind": "relu"},           # 1
        {"kind": "pool"},           # 2
        _conv(8, 16),               # 3   enc2
        {"kind": "relu"},           # 4
        {"kind": "pool"},           # 5
        _conv(16, 24),              # 6   enc3
        {"kind": "relu"},           # 7
        {"kind": "pool"},           # 8
        _conv(24, 32),              # 9   bottleneck
        {"kind": "relu"},           # 10
        {"kind": "upsample"},       # 11
        {"kind": "concat", "skip_from": 7},   # 12 -> 56
        _conv(56, 24),              # 13  dec3
        {"kind": "relu"},           # 14
        {"kind": "upsample"},       # 15
        {"kind": "concat", "skip_from": 4},   # 16 -> 40
        _conv(40, 16),              # 17  dec2
        {"kind": "relu"},           # 18
        {"kind": "upsample"},       # 19
        {"kind": "concat", "skip_from": 1},   # 20 -> 24
        _conv(24, 8),               # 21  dec1
        {"kind": "relu"},           # 22
        _conv(8, out_ch, k=1, pad=0),  # 23  head
    ]
    return ModelSpec(task_kind, (in_ch, grid, grid), layers, [])


# FiLM sites for the UNet above: two encoder blocks, two decoder blocks.
_UNET_SITE_LADDER = [(4, 16), (7, 24), (14, 24), (18, 16)]


def classifier_spec(num_classes: int = 20, in_ch: int = 1, grid: int = 16) -> ModelSpec:
    if grid % 4 != 0:
        raise ConfigurationError(f"grid {grid} must be divisible by 4")
    feat = 16 * (grid // 4) * (grid // 4)
    layers = [
        _conv(in_ch, 8),        # 0
        {"kind": "relu"},       # 1
        {"kind": "pool"},       # 2
        _conv(8, 16),           # 3
        {"kind": "relu"},       # 4
        {"kind": "pool"},       # 5
        _conv(16, 16),          # 6
        {"kind": "relu"},       # 7
        {"kind": "flatten"},    # 8
        {"kind": "linear", "nin": feat, "nout": num_classes},  # 9
    ]
    return ModelSpec("classification", (in_ch, grid, grid), layers, [])


_CLASSIFIER_SITE_LADDER = [(1, 8), (4, 16), (7, 16)]


def build_main(spec: ModelSpec, seed: int) -> Model:
    """Instantiate parameters (He-style init) for a validated spec."""
    validate_spec(spec)
    rng = np.random.default_rng(seed)
    params = ParamSet()
    for _, name, shape in _param_layout(spec):
        if name.endswith(".b"):
            params.add(name, np.zeros(shape))
        else:
            # fan-in: cin*k*k of a conv kernel [O,C,k,k], nin of a linear weight [nin,nout]
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            params.add(name, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))
    return Model(spec, params)


def _param_layout(spec: ModelSpec) -> list[tuple[int, str, tuple[int, ...]]]:
    """(layer index, name, shape) of every parameter the layers read, in creation order."""
    out = []
    for i, layer in enumerate(spec.layers):
        if layer["kind"] == "conv":
            out.append((i, f"L{i}.w", (layer["cout"], layer["cin"], layer["k"], layer["k"])))
            width = layer["cout"]
        elif layer["kind"] == "linear":
            out.append((i, f"L{i}.w", (layer["nin"], layer["nout"])))
            width = layer["nout"]
        else:
            continue
        if layer.get("bias", True):
            out.append((i, f"L{i}.b", (width,)))
    return out


def insert_film_sites(model: Model, k: int) -> Model:
    """Mark k modulation sites, spread over encoder and decoder blocks.

    Parameters are untouched; with identity coefficients the function
    computed by the model is unchanged.
    """
    if model.spec.task_kind == "classification":
        ladder = _CLASSIFIER_SITE_LADDER
    else:
        ladder = _UNET_SITE_LADDER
    if k > len(ladder):
        raise ConfigurationError(f"k={k} exceeds the {len(ladder)} eligible layers")
    spec = ModelSpec(
        model.spec.task_kind, model.spec.in_shape, model.spec.layers, list(ladder[:k])
    )
    validate_spec(spec)
    return Model(spec, model.params)


def param_count(obj) -> int:
    """Total scalar parameters of a Model, Controller, adapter, or ParamSet."""
    if isinstance(obj, ParamSet):
        return obj.count()
    return obj.params.count()


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


@dataclass
class ControllerSpec:
    """Encoding and trunk description for the FiLM controller.

    arch "conv": feedback is a [N,in_channels,H,W] stack (prediction,
    signal values, validity mask); trunk is conv8/pool/conv16/pool/GAP.
    arch "mlp": feedback is a [N,in_dim] vector (post-softmax prediction
    concatenated with a coarse one-hot).
    The output head has dimension sum(2*C_i) over the target film sites.
    """

    arch: str
    in_channels: int
    film_channels: list[int]
    hidden: int = 16
    trunk: tuple[int, int] = (8, 16)
    raw_out: int | None = None  # set for heads that emit a flat vector instead

    @property
    def out_dim(self) -> int:
        if self.raw_out is not None:
            return self.raw_out
        return 2 * sum(self.film_channels)


class Controller:
    """Small network emitting per-site FiLM coefficients from error feedback."""

    def __init__(self, cspec: ControllerSpec, params: ParamSet):
        self.cspec = cspec
        self.params = params

    def lift(self, tape) -> dict[str, Tensor]:
        return self.params.lift(tape)

    def head_raw(self, feedback, lifted=None, tape=None) -> Tensor:
        """Raw head output [N, out_dim] before the identity offset."""
        fb = feedback if isinstance(feedback, Tensor) else ad.as_tensor(feedback)
        if lifted is None:
            lifted = self.params.lift(tape)
        c = self.cspec
        if c.arch == "conv":
            if fb.array.ndim != 4 or fb.array.shape[1] != c.in_channels:
                raise DimensionError(
                    f"controller expects [N,{c.in_channels},H,W] feedback, got {fb.shape}"
                )
            h = ad.relu(ad.conv2d(fb, lifted["c1.w"], 1, 1, bias=lifted["c1.b"]))
            h = ad.avgpool2(h)
            h = ad.relu(ad.conv2d(h, lifted["c2.w"], 1, 1, bias=lifted["c2.b"]))
            h = ad.avgpool2(h)
            h = ad.global_avg_pool(h)
        elif c.arch == "mlp":
            if fb.array.ndim != 2 or fb.array.shape[1] != c.in_channels:
                raise DimensionError(
                    f"controller expects [N,{c.in_channels}] feedback, got {fb.shape}"
                )
            h = fb
        else:
            raise ConfigurationError(f"unknown controller arch {c.arch!r}")
        h = ad.relu(ad.add_bias(ad.matmul(h, lifted["fc.w"]), lifted["fc.b"]))
        return ad.add_bias(ad.matmul(h, lifted["head.w"]), lifted["head.b"])

    def forward(self, feedback, lifted=None, tape=None) -> FiLMParams:
        """Emit FiLMParams; gamma = 1 + residual, beta = residual."""
        if self.cspec.raw_out is not None:
            raise ContractError("raw-output controllers do not emit film params")
        raw = self.head_raw(feedback, lifted=lifted, tape=tape)
        sites = []
        off = 0
        for c in self.cspec.film_channels:
            gres = ad.slice_channels(raw, off, off + c)
            beta = ad.slice_channels(raw, off + c, off + 2 * c)
            gamma = ad.add(gres, ad.as_tensor(np.ones_like(gres.array)))
            sites.append((gamma, beta))
            off += 2 * c
        return FiLMParams(sites)


def _init_controller_params(cspec: ControllerSpec, seed: int) -> ParamSet:
    rng = np.random.default_rng(seed)
    params = ParamSet()
    t1, t2 = cspec.trunk
    if cspec.arch == "conv":
        fan1 = cspec.in_channels * 9
        params.add("c1.w", rng.normal(0, np.sqrt(2.0 / fan1), size=(t1, cspec.in_channels, 3, 3)))
        params.add("c1.b", np.zeros(t1))
        params.add("c2.w", rng.normal(0, np.sqrt(2.0 / (t1 * 9)), size=(t2, t1, 3, 3)))
        params.add("c2.b", np.zeros(t2))
        feat = t2
    else:
        feat = cspec.in_channels
    params.add("fc.w", rng.normal(0, np.sqrt(2.0 / feat), size=(feat, cspec.hidden)))
    params.add("fc.b", np.zeros(cspec.hidden))
    # zero head => identity adaptation at initialization
    params.add("head.w", np.zeros((cspec.hidden, cspec.out_dim)))
    params.add("head.b", np.zeros(cspec.out_dim))
    return params


def build_controller(cspec: ControllerSpec, main: Model, seed: int) -> Controller:
    """Instantiate a controller for the main model's film sites.

    The head is zero-initialized so the first emitted coefficients are the
    exact identity. Warns if the parameter budget leaves the intended
    share of the main network.
    """
    if not main.spec.film_sites:
        raise ContractError("main model has no film sites; insert them first")
    expected = [c for _, c in main.spec.film_sites]
    if cspec.film_channels != expected:
        raise ConfigurationError(
            f"controller film channels {cspec.film_channels} != model sites {expected}"
        )
    h = Controller(cspec, _init_controller_params(cspec, seed))
    ratio = param_count(h) / param_count(main)
    if not (BUDGET_RANGE[0] <= ratio <= BUDGET_RANGE[1]):
        warnings.warn(
            f"controller/main parameter ratio {ratio:.3f} outside "
            f"[{BUDGET_RANGE[0]}, {BUDGET_RANGE[1]}]",
            BudgetWarning,
        )
    return h


def build_side_controller(cspec: ControllerSpec, seed: int) -> Controller:
    """Controller for an input adapter (drives the adapter, not the main net)."""
    if cspec.raw_out is None and not cspec.film_channels:
        raise ConfigurationError("side controller needs film channels or raw_out")
    return Controller(cspec, _init_controller_params(cspec, seed))


# ---------------------------------------------------------------------------
# input adapters (alternative controller targets)
# ---------------------------------------------------------------------------


def _film_x_adapter_spec(in_ch: int = 1) -> ModelSpec:
    layers = [
        _conv(in_ch, 6),             # 0
        {"kind": "relu"},            # 1
        {"kind": "pool"},            # 2
        _conv(6, 12),                # 3
        {"kind": "relu"},            # 4
        {"kind": "upsample"},        # 5
        {"kind": "concat", "skip_from": 1},  # 6 -> 18
        _conv(18, 6),                # 7
        {"kind": "relu"},            # 8
        _conv(6, in_ch, k=1, pad=0),  # 9 head, zero-init
    ]
    spec = ModelSpec("input_adapter", (in_ch, 32, 32), layers,
                     [(1, 6), (4, 12), (8, 6)])
    return spec


class FilmXAdapter:
    """Adapts the input image instead of the main network's features.

    A small modulated encoder/decoder computes a residual update of x; the
    controller drives the adapter's film sites. The residual head starts at
    zero, so the adapter is the exact identity at initialization.
    """

    def __init__(self, seed: int, in_ch: int = 1):
        spec = _film_x_adapter_spec(in_ch)
        self.model = build_main(spec, seed)
        self.model.params.get("L9.w")[:] = 0.0
        self.params = self.model.params
        self.film_channels = [c for _, c in spec.film_sites]

    def apply(self, x, film: FiLMParams, lifted=None) -> Tensor:
        """x -> adapted x, with the adapter's sites modulated by ``film``."""
        xt = x if isinstance(x, Tensor) else ad.as_tensor(x)
        return ad.add(xt, self.model.forward(xt, film=film, lifted=lifted))


class HypernetXAdapter:
    """Adapts the input image with a fixed 3-layer conv net whose weights
    the controller emits; the net's output is added to x.

    The emitted vector holds residuals on the base weights; the base output
    layer is zero, so a zero emission is the exact identity.
    """

    TARGET_LAYERS = ((6, 1, 3), (6, 6, 3), (1, 6, 3))  # (cout, cin, k) per layer

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.base = []
        for li, (cout, cin, k) in enumerate(self.TARGET_LAYERS):
            w = rng.normal(0, np.sqrt(2.0 / (cin * k * k)), size=(cout, cin, k, k))
            if li == len(self.TARGET_LAYERS) - 1:
                w[:] = 0.0  # emitted residuals alone drive the output layer
            self.base.append((w, np.zeros(cout)))
        self.params = ParamSet()  # the conv net's weights come from the controller
        # emitted-vector length: every layer's weights, then its bias
        self.weight_count = sum(w.size + b.size for w, b in self.base)

    def apply(self, x, emitted: Tensor) -> Tensor:
        """x [N,C,H,W] -> adapted x, from the emitted weight residuals
        [N, weight_count], one conv net per sample."""
        xt = x if isinstance(x, Tensor) else ad.as_tensor(x)
        n = xt.array.shape[0]
        if emitted.shape != (n, self.weight_count):
            raise DimensionError(
                f"hypernet adapter: {n} images need emitted weights [{n}, {self.weight_count}], "
                f"got {emitted.shape}"
            )
        outs = []
        for i in range(n):
            xi = ad.slice_channels(xt, i, i + 1, axis=0)
            wvec = ad.slice_channels(emitted, i, i + 1, axis=0)
            h = xi
            off = 0
            for li, ((bw, bb), (cout, cin, k)) in enumerate(zip(self.base, self.TARGET_LAYERS)):
                wsz = cout * cin * k * k
                wres = ad.slice_channels(wvec, off, off + wsz)
                bres = ad.slice_channels(wvec, off + wsz, off + wsz + cout)
                off += wsz + cout
                w = ad.add(ad.reshape(wres, (cout, cin, k, k)), ad.as_tensor(bw))
                b = ad.add(ad.reshape(bres, (cout,)), ad.as_tensor(bb))
                h = ad.conv2d(h, w, 1, k // 2, bias=b)
                if li < len(self.base) - 1:
                    h = ad.relu(h)
            outs.append(ad.add(xi, h))
        return ad.stack_rows(outs)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _with_meta(info: dict, meta: dict | None) -> dict:
    """``info`` plus the caller's metadata, which may not replace its keys."""
    clash = sorted(set(info) & set(meta or {}))
    if clash:
        raise ContractError(f"metadata keys {clash} are reserved for the file format")
    return {**info, **(meta or {})}


def save_model(path, model: Model, meta: dict | None = None) -> None:
    info = _with_meta({"spec": model.spec.to_json()}, meta)
    arrays = {name: p.value for name, p in model.params.items()}
    serialize.save(path, "model", info, arrays)


def load_model(path) -> tuple[Model, dict]:
    _, meta, arrays = serialize.load(path, expect_kind="model")
    try:
        spec = ModelSpec.from_json(meta["spec"])
        validate_spec(spec)
        layout = {name: shape for _, name, shape in _param_layout(spec)}
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError, ConfigurationError too
        raise SerializationError(f"model file spec is missing or malformed: {exc!r}") from None
    found = {name: a.shape for name, a in arrays.items()}
    if found != layout:
        bad = {n: (found.get(n), layout.get(n)) for n in sorted(found.keys() | layout.keys())
               if found.get(n) != layout.get(n)}
        raise SerializationError(f"model file arrays do not match its spec, (file, spec) shapes: {bad}")
    params = ParamSet()
    for name in layout:
        params.add(name, arrays[name])
    return Model(spec, params), meta


# Version of the controller metadata; 2 stores every ControllerSpec field.
CONTROLLER_FORMAT = 2


def save_controller(path, h: Controller, meta: dict | None = None) -> None:
    info = _with_meta({
        "controller_format": CONTROLLER_FORMAT,
        "cspec": json.dumps(dataclasses.asdict(h.cspec), sort_keys=True),
        "param_order": json.dumps(h.params.names()),
    }, meta)
    serialize.save(path, "controller", info, {n: p.value for n, p in h.params.items()})


def load_controller(path) -> tuple[Controller, dict]:
    _, meta, arrays = serialize.load(path, expect_kind="controller")
    if meta.get("controller_format") != CONTROLLER_FORMAT:
        raise SerializationError(
            f"controller format {meta.get('controller_format')!r} is not supported "
            f"(expected {CONTROLLER_FORMAT}); save the controller again with the current tool"
        )
    names = {f.name for f in dataclasses.fields(ControllerSpec)}
    try:
        d = json.loads(meta["cspec"])
        order = json.loads(meta["param_order"])
        if set(d) != names:
            raise ValueError(f"spec fields {sorted(d)}, expected {sorted(names)}")
        cspec = ControllerSpec(**{**d, "trunk": tuple(d["trunk"])})
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise SerializationError(f"controller file spec is missing or malformed: {exc}") from None
    if not isinstance(order, list) or sorted(order, key=str) != sorted(arrays):
        raise SerializationError(
            f"controller param_order {order!r} does not list the file's arrays {sorted(arrays)}"
        )
    params = ParamSet()
    for name in order:
        params.add(name, arrays[name])
    return Controller(cspec, params), meta
