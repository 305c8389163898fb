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


def _trace_channels(spec: ModelSpec) -> list[int | None]:
    """Channel count after every layer (None once spatial structure is gone)."""
    out: list[int | None] = []
    ch = spec.in_shape[0]
    for i, layer in enumerate(spec.layers):
        kind = layer["kind"]
        if kind == "conv":
            if layer["cin"] != ch:
                raise ConfigurationError(
                    f"layer {i}: conv expects {layer['cin']} channels, gets {ch}"
                )
            ch = layer["cout"]
        elif kind == "concat":
            src = layer["skip_from"]
            if not (0 <= src < i):
                raise ConfigurationError(f"layer {i}: concat skip_from {src} out of range")
            skip_ch = out[src]
            if skip_ch is None:
                raise ConfigurationError(f"layer {i}: concat source {src} is not spatial")
            ch = ch + skip_ch
        elif kind == "flatten":
            ch = None
        elif kind == "linear":
            ch = None
        elif kind not in ("relu", "pool", "upsample"):
            raise ConfigurationError(f"layer {i}: unknown kind {kind!r}")
        out.append(ch)
    return out


def validate_spec(spec: ModelSpec) -> None:
    channels = _trace_channels(spec)
    for idx, c in spec.film_sites:
        if not (0 <= idx < len(spec.layers)):
            raise ConfigurationError(f"film site at layer {idx} out of range")
        if channels[idx] != c:
            raise ConfigurationError(
                f"film site at layer {idx} declares {c} channels, layer has {channels[idx]}"
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

    def channel_counts(self) -> list[int]:
        return [g.shape[-1] for g, _ in self.sites]

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
        """
        xt = x if isinstance(x, Tensor) else ad.as_tensor(x)
        squeeze = xt.array.ndim == 3
        if squeeze:
            xt = ad.expand_batch(xt)
        if lifted is None:
            lifted = self.params.lift(tape)
        site_map = dict_from_sites(self.spec.film_sites, film)

        acts: list[Tensor] = []
        cur = xt
        for i, layer in enumerate(self.spec.layers):
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
        if squeeze:
            out = ad.squeeze_batch(out)
        if return_acts:
            return out, acts
        return out

    def clone(self) -> "Model":
        return Model(self.spec, self.params.clone())


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
    for i, layer in enumerate(spec.layers):
        if layer["kind"] == "conv":
            fan_in = layer["cin"] * layer["k"] * layer["k"]
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                           size=(layer["cout"], layer["cin"], layer["k"], layer["k"]))
            params.add(f"L{i}.w", w)
            if layer.get("bias", True):
                params.add(f"L{i}.b", np.zeros(layer["cout"]))
        elif layer["kind"] == "linear":
            w = rng.normal(0.0, np.sqrt(2.0 / layer["nin"]),
                           size=(layer["nin"], layer["nout"]))
            params.add(f"L{i}.w", w)
            if layer.get("bias", True):
                params.add(f"L{i}.b", np.zeros(layer["nout"]))
    return Model(spec, params)


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


def adapted_forward(f: Model, fp: FiLMParams | None, x, lifted=None, tape=None):
    """Forward pass of f with its site activations modulated by fp."""
    if fp is not None and len(fp) != len(f.spec.film_sites):
        raise ContractError(
            f"adapter emits {len(fp)} sites, model has {len(f.spec.film_sites)}"
        )
    return f.forward(x, film=fp, lifted=lifted, tape=tape)


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


class InputAdapter:
    """Adapts the input image instead of the main network's features.

    kind "film_x": a small modulated encoder/decoder computes a residual
    update of x; the controller drives the adapter's film sites.
    kind "hypernetwork_x": the controller emits the full weight vector of
    a fixed 3-layer conv net whose output is added to x.
    Both are exact identities at initialization.
    """

    TARGET_LAYERS = ((6, 1, 3), (6, 6, 3), (1, 6, 3))  # (cout, cin, k) per layer

    def __init__(self, kind: str, seed: int, in_ch: int = 1):
        self.kind = kind
        if kind == "film_x":
            spec = _film_x_adapter_spec(in_ch)
            self.model = build_main(spec, seed)
            # residual head starts at zero so adapter(x) == x
            self.model.params.get("L9.w")[:] = 0.0
            self.params = self.model.params
            self.film_channels = [c for _, c in spec.film_sites]
        elif kind == "hypernetwork_x":
            rng = np.random.default_rng(seed)
            base = []
            for li, (cout, cin, k) in enumerate(self.TARGET_LAYERS):
                fan = cin * k * k
                w = rng.normal(0, np.sqrt(2.0 / fan), size=(cout, cin, k, k))
                if li == len(self.TARGET_LAYERS) - 1:
                    w[:] = 0.0  # emitted residuals alone drive the output layer
                base.append((w, np.zeros(cout)))
            self.base = base
            self.params = ParamSet()  # the conv net's weights come from the controller
            self.film_channels = []
        else:
            raise ConfigurationError(f"unknown input adapter variant {kind!r}")

    @property
    def weight_count(self) -> int:
        """Emitted-vector length for the hypernetwork variant."""
        if self.kind != "hypernetwork_x":
            raise ContractError("weight_count applies to the hypernetwork variant")
        return sum(w.size + b.size for w, b in self.base)

    def apply(self, x, emitted, lifted=None):
        """x -> adapted x. ``emitted`` is FiLMParams (film_x) or the raw
        weight-residual tensor [N, weight_count] (hypernetwork_x)."""
        xt = x if isinstance(x, Tensor) else ad.as_tensor(x)
        if self.kind == "film_x":
            delta = self.model.forward(xt, film=emitted, lifted=lifted)
            return ad.add(xt, delta)
        n = xt.array.shape[0]
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


def build_input_adapter(variant: str, seed: int, in_ch: int = 1) -> InputAdapter:
    return InputAdapter(variant, seed, in_ch=in_ch)


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
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise SerializationError(f"model file spec is missing or malformed: {exc!r}") from None
    params = ParamSet()
    for i, layer in enumerate(spec.layers):
        for suffix in ("w", "b"):
            name = f"L{i}.{suffix}"
            if name in arrays:
                params.add(name, arrays[name])
    model = Model(spec, params)
    if set(params.names()) != set(arrays):
        raise ContractError("model file arrays do not match its spec")
    return model, meta


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
    d = json.loads(meta["cspec"])
    names = {f.name for f in dataclasses.fields(ControllerSpec)}
    if set(d) != names:
        raise SerializationError(
            f"controller spec has fields {sorted(d)}, expected {sorted(names)}"
        )
    cspec = ControllerSpec(**{**d, "trunk": tuple(d["trunk"])})
    params = ParamSet()
    for name in json.loads(meta["param_order"]):
        params.add(name, arrays[name])
    return Controller(cspec, params), meta
