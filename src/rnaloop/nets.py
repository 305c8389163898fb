"""Network builders: main task networks, their FiLM sites and controllers.

There are two main networks, a UNet for the dense tasks and a small CNN
classifier. A ``ModelSpec`` holds the arguments that build one (task kind,
input and output channels, grid, FiLM site count), and derives from them,
once, the layer sequence (conv / relu / avg-pool / nearest upsample /
channel concat / flatten / linear over the autodiff ops) that
``Model.forward`` runs. FiLM sites name layer indices whose activations
get a channel-wise affine modulation; with gamma=1, beta=0 the modulated
network is bit-identical to the unmodulated one.

Controllers map an error-feedback encoding to FiLM coefficients for every
site of the main network, the only network they adapt. A
``ControllerSpec`` derives its layer sequence the same way, with one more
kind, ``gap`` (global average pooling). Each conv and linear layer of
either sequence carries the name of its parameters ("L{index}" in a main
network; c1, c2, fc and head in a controller), so one parameter layout
and one layer interpreter (``_layer``) serve both networks. A
controller's head is zero-initialized and gamma is emitted as
1 + residual, so a freshly built controller is exactly the identity
adaptation.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .errors import (ConfigurationError, ContractError, DimensionError, SerializationError, need_int,
                     seeded)
from . import serialize


# ---------------------------------------------------------------------------
# model specs
# ---------------------------------------------------------------------------


# FiLM sites of each architecture, in the order film_k takes them: (layer
# index, channel count). The UNet's are two encoder blocks, then two decoder
# blocks.
_UNET_SITE_LADDER = ((4, 16), (7, 24), (14, 24), (18, 16))
_CLASSIFIER_SITE_LADDER = ((1, 8), (4, 16), (7, 16))


@dataclass(frozen=True)
class ModelSpec:
    """A main network, given by its builder's arguments.

    task_kind: dense_regression or dense_segmentation (the UNet of
        ``_unet_layers``), or classification (the CNN of
        ``_classifier_layers``).
    in_ch, out_ch: input and output channels; out_ch is the class count of
        a classifier.
    grid: input height and width, a multiple of 8 (UNet) or 4 (classifier).
    film_k: the number of FiLM sites, the first film_k of the
        architecture's ladder.

    Construction raises ``ConfigurationError`` unless task_kind is one of
    the three, in_ch, out_ch and grid are integers >= 1, grid divides as
    above and film_k is an integer in [0, ladder length]. It keeps the four
    counts as Python ints, then sets, once:

    in_shape: (in_ch, grid, grid), one input sample.
    layers: dicts with a "kind" key (conv, relu, pool, upsample, concat,
        flatten, linear) and kind-specific fields. A conv has stride 1, pad
        k // 2 and a bias; a linear layer has a bias. A conv or linear
        layer at index i carries the name "L{i}" of its parameters,
        "L{i}.w" and "L{i}.b".
    film_sites: (layer_index, channel_count) pairs; the site modulates the
        output of that layer.
    skip_sources: the indices of the layers whose output a concat reads.
    """

    task_kind: str
    in_ch: int
    out_ch: int
    grid: int
    film_k: int

    def __post_init__(self):
        classifier = self.task_kind == "classification"
        if not classifier and self.task_kind not in ("dense_regression", "dense_segmentation"):
            raise ConfigurationError(f"unknown task_kind {self.task_kind!r}")
        for name, least in (("in_ch", 1), ("out_ch", 1), ("grid", 1), ("film_k", 0)):
            object.__setattr__(self, name, need_int(name, getattr(self, name), least))
        ladder, step = (_CLASSIFIER_SITE_LADDER, 4) if classifier else (_UNET_SITE_LADDER, 8)
        if self.grid % step:
            raise ConfigurationError(f"grid {self.grid} must be divisible by {step}")
        if self.film_k > len(ladder):
            raise ConfigurationError(f"film_k={self.film_k} exceeds the {len(ladder)} eligible layers")
        layers = _named(_classifier_layers(self.in_ch, self.out_ch, self.grid) if classifier
                        else _unet_layers(self.in_ch, self.out_ch))
        object.__setattr__(self, "in_shape", (self.in_ch, self.grid, self.grid))
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "film_sites", ladder[: self.film_k])
        object.__setattr__(self, "skip_sources",
                           frozenset(l["skip_from"] for l in layers if l["kind"] == "concat"))


def _conv(cin, cout, k=3):
    return {"kind": "conv", "cin": cin, "cout": cout, "k": k}


def _named(layers, names=()) -> tuple[dict, ...]:
    """The layers, each conv and linear one given the name of its
    parameters: the next of ``names``, or "L{i}" for the layer at index i
    once they run out."""
    names = iter(names)
    return tuple({**layer, "name": next(names, f"L{i}")} if layer["kind"] in ("conv", "linear")
                 else layer for i, layer in enumerate(layers))


def _unet_layers(in_ch: int, out_ch: int) -> tuple[dict, ...]:
    """Encoder/decoder with three 2x downsamplings and skip connections."""
    return (
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
        _conv(8, out_ch, k=1),      # 23  head
    )


def _classifier_layers(in_ch: int, num_classes: int, grid: int) -> tuple[dict, ...]:
    """Three convs, two 2x downsamplings, then one linear layer."""
    return (
        _conv(in_ch, 8),        # 0
        {"kind": "relu"},       # 1
        {"kind": "pool"},       # 2
        _conv(8, 16),           # 3
        {"kind": "relu"},       # 4
        {"kind": "pool"},       # 5
        _conv(16, 16),          # 6
        {"kind": "relu"},       # 7
        {"kind": "flatten"},    # 8
        {"kind": "linear", "nin": 16 * (grid // 4) ** 2, "nout": num_classes},  # 9
    )


# ---------------------------------------------------------------------------
# FiLM parameters
# ---------------------------------------------------------------------------


class FiLMParams:
    """Per-site (gamma, beta) channel vectors, shared or per-sample.
    ``ad.film`` checks their shapes against each other and the site's
    activation when ``Model.forward`` applies them."""

    def __init__(self, sites: list[tuple[Tensor, Tensor]]):
        self.sites = [(ad.as_tensor(g), ad.as_tensor(b)) for g, b in sites]

    def __len__(self) -> int:
        return len(self.sites)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    """A main network (the UNet or the classifier) bound to its parameter store."""

    def __init__(self, spec: ModelSpec, params: ParamSet):
        self.spec = spec
        self.params = params
        # Per thread, the last unmodulated pass on frozen weights (see forward).
        self._memo = threading.local()

    def forward(
        self,
        x,
        film: FiLMParams | None = None,
        lifted: Mapping[str, Tensor] | None = None,
        tape=None,
        return_acts: bool = False,
    ):
        """Run the network on a batch x: an [N,C,H,W] array or Tensor (one
        image is a batch of one) with [C,H,W] equal to ``spec.in_shape``.
        Any other shape raises ``DimensionError``.

        ``film``, a :class:`FiLMParams`, replaces each site's activation with
        its modulation; ``ContractError`` unless it is a ``FiLMParams`` with
        one (gamma, beta) pair per site, ``DimensionError`` (from
        ``ad.film``) unless each pair fits its site.
        ``lifted`` reuses already-lifted parameters (training loops); when
        absent, parameters are lifted onto ``tape`` (or used as constants).

        The pass holds a layer's output only while something still reads
        it: the next layer, a later concat (``spec.skip_sources``), the
        pass kept for reuse (below), which copies the layers up to and
        including the first site's, or the caller, who with ``return_acts``
        gets every layer's output as a list beside the result. Any other output is dropped as soon as
        the next layer has run; what a backward pass needs of it lives in
        the recorded op.

        A call runs on frozen weights when ``x`` needs no gradient and
        ``lifted`` is the frozen parameter set's one mapping of constants
        (``params.lift`` of a frozen set, by the model or by the caller), as
        in test-time optimization and controller adaptation; the ops then
        record nothing before the first FiLM site. Per thread, the model
        keeps its last unmodulated pass on frozen weights and one image (a
        batch of one, as an adaptation episode runs): copies of the input,
        of the activations up to and including the first site's layer (every
        layer when there are no sites) and of the output, and the mapping
        read. Passes on more than one image are not kept: in index building
        and set-up training they are never or rarely repeated, and their
        activations cost peak memory.

        A later call on frozen weights and the same thread reuses the kept
        pass when its input is byte-equal to the kept one and it reads the
        same mapping object. A frozen set's mapping and its constants never
        change, and a refreeze builds a new mapping, so that is the same
        weights. On reuse an unmodulated call without ``return_acts`` gets a
        copy of the kept output; any other call resumes at the first site
        from the kept activations. Results, ``return_acts`` lists and
        gradients are those of the full pass bit for bit, and no array handed
        out is kept. A call on unfrozen weights neither reuses nor replaces
        the kept pass.
        """
        xt = x if isinstance(x, Tensor) else ad.as_tensor(x)
        in_shape = self.spec.in_shape
        if xt.array.ndim != 4 or xt.shape[1:] != in_shape:
            raise DimensionError(
                f"Model.forward: expected an [N,C,H,W] batch with [C,H,W] = spec.in_shape "
                f"{in_shape}, got {xt.shape}"
            )
        if lifted is None:
            lifted = self.params.lift(tape)
        sites = self.spec.film_sites
        if film is not None and not isinstance(film, FiLMParams):
            raise ContractError(f"film must be FiLMParams or None, got {type(film).__name__}")
        if film is not None and len(film) != len(sites):
            raise ContractError(f"film params carry {len(film)} sites, model declares {len(sites)}")
        site_map = {} if film is None else {i: gb for (i, _), gb in zip(sites, film.sites)}
        layers = self.spec.layers
        keep = min(sites)[0] + 1 if sites else len(layers)
        frozen = xt.node is None and self.params.frozen and lifted is self.params.lift(None)
        memo = getattr(self._memo, "last", None) if frozen else None
        # acts[i] is layer i's output if it is held (see above), else None
        acts: list[Tensor | None] = []
        if memo is not None and memo.matches(xt.array, lifted):
            if not site_map and not return_acts:
                return Tensor(memo.out.copy())
            acts = [Tensor(a.copy() if return_acts else a) for a in memo.acts]
            if keep - 1 in site_map:
                acts[-1] = ad.film(acts[-1], *site_map[keep - 1])
        record = frozen and not site_map and not acts and len(xt.array) == 1
        held = self.spec.skip_sources

        cur = acts[-1] if acts else xt
        for i in range(len(acts), len(layers)):
            cur = _layer(layers[i], cur, lifted, acts)
            if i in site_map:
                g, b = site_map[i]
                cur = ad.film(cur, g, b)
            acts.append(cur if return_acts or i in held or (record and i < keep) else None)

        if record:
            self._memo.last = _Pass.record(xt.array, lifted, acts[:keep], cur)
        if return_acts:
            return cur, acts
        return cur


def _layer(layer: dict, cur: Tensor, lifted: Mapping[str, Tensor], acts) -> Tensor:
    """One layer of a spec's ``layers`` applied to ``cur``. ``lifted`` holds
    the parameters by name; ``acts`` holds the earlier layers' outputs that
    a concat reads (None for a controller, which has none)."""
    kind = layer["kind"]
    if kind == "conv":
        name = layer["name"]
        return ad.conv2d(cur, lifted[f"{name}.w"], 1, layer["k"] // 2, bias=lifted[f"{name}.b"])
    if kind == "relu":
        return ad.relu(cur)
    if kind == "pool":
        return ad.avgpool2(cur)
    if kind == "upsample":
        return ad.upsample2(cur)
    if kind == "concat":
        return ad.concat_channels([cur, acts[layer["skip_from"]]])
    if kind == "flatten":
        return ad.flatten_batch(cur)
    if kind == "gap":
        return ad.global_avg_pool(cur)
    name = layer["name"]  # linear
    return ad.add_bias(ad.matmul(cur, lifted[f"{name}.w"]), lifted[f"{name}.b"])


@dataclass(slots=True)
class _Pass:
    """One unmodulated pass of a Model on frozen weights, held for reuse.

    Holds private copies of the input and the activations, so neither the
    caller of that pass nor of a later reuse can change what a reuse
    returns, and the frozen set's mapping of constants that the pass read.
    That mapping and its constants are immutable for life (see
    ``ParamSet.set_frozen``), so a later call reads the same weights
    exactly when it holds the same mapping.
    """

    x_shape: tuple[int, ...]
    x_bytes: bytes
    consts: Mapping[str, Tensor]  # the frozen set's constants read
    acts: list[np.ndarray]  # activations of the first len(acts) layers
    out: np.ndarray

    @staticmethod
    def record(xv: np.ndarray, consts: Mapping[str, Tensor], kept: list[Tensor], out: Tensor) -> "_Pass":
        acts = [a.array.copy() for a in kept]
        out_copy = acts[-1] if kept[-1] is out else out.array.copy()
        return _Pass(xv.shape, xv.tobytes(), consts, acts, out_copy)

    def matches(self, xv: np.ndarray, lifted: Mapping[str, Tensor]) -> bool:
        """The same mapping of constants, and the same input bytes."""
        return lifted is self.consts and xv.shape == self.x_shape and xv.tobytes() == self.x_bytes


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_main(spec: ModelSpec, seed: int) -> Model:
    """Instantiate parameters (He-style init) for a spec; ``ConfigurationError``
    unless the seed is an integer >= 0."""
    return Model(spec, _init_params(_param_layout(spec), seed))


def _init_params(layout: dict[str, tuple[int, ...]], seed: int) -> ParamSet:
    """He-style init, drawn in layout order: a weight is normal with std
    sqrt(2 / fan-in); a bias (``*.b``) and a controller head (``head.*``)
    start at zero."""
    rng = seeded(seed)
    params = ParamSet()
    for name, shape in layout.items():
        if name.endswith(".b") or name.startswith("head."):
            params.add(name, np.zeros(shape))
        else:
            # fan-in: cin*k*k of a conv kernel [O,C,k,k], nin of a linear weight [nin,nout]
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            params.add(name, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))
    return params


def _param_layout(spec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the layers of a ``ModelSpec`` or a
    ``ControllerSpec`` read, in creation order."""
    out = {}
    for layer in spec.layers:
        name = layer.get("name")
        if layer["kind"] == "conv":
            out[f"{name}.w"] = (layer["cout"], layer["cin"], layer["k"], layer["k"])
            out[f"{name}.b"] = (layer["cout"],)
        elif layer["kind"] == "linear":
            out[f"{name}.w"] = (layer["nin"], layer["nout"])
            out[f"{name}.b"] = (layer["nout"],)
    return out


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


# Output channels of the conv controller's two 3x3 trunk convs.
CONTROLLER_TRUNK = (8, 16)


@dataclass(frozen=True)
class ControllerSpec:
    """Encoding description for the FiLM controller.

    arch "conv": feedback is a [N,in_channels,H,W] stack (prediction,
    signal values, validity mask), with H and W multiples of 4.
    arch "mlp": feedback is a [N,in_channels] vector (post-softmax
    prediction concatenated with a coarse one-hot).
    film_channels: the channel count of each target film site, a list or
        tuple kept as a tuple.
    hidden: the width of the hidden linear layer.
    The output head has dimension out_dim = sum(2*C_i) over the target
    film sites.

    Construction raises ``ConfigurationError`` unless arch is one of the two,
    in_channels and hidden are integers >= 1 and film_channels is a
    non-empty list or tuple of them. It keeps them as Python ints, then
    sets ``layers`` once, in the layer dicts of ``ModelSpec.layers`` plus
    the kind ``gap`` (global average pooling to [N,C]):
      conv: conv(in_channels, 8), relu, pool, conv(8, 16), relu, pool, gap
        (the two trunk widths are ``CONTROLLER_TRUNK``), then the mlp's
        layers on its 16 features;
      mlp: linear(in_channels, hidden), relu, linear(hidden, out_dim).
    The convs carry the parameter names c1 and c2, the linear layers fc
    and head.
    """

    arch: str
    in_channels: int
    film_channels: tuple[int, ...]
    hidden: int = 16

    def __post_init__(self):
        if self.arch not in ("conv", "mlp"):
            raise ConfigurationError(f"unknown controller arch {self.arch!r}")
        film = self.film_channels
        if not isinstance(film, (list, tuple)) or not film:
            raise ConfigurationError(f"film_channels must be a non-empty list, got {film!r}")
        for name in ("in_channels", "hidden"):
            object.__setattr__(self, name, need_int(name, getattr(self, name), 1))
        film = tuple(need_int("film channel count", c, 1) for c in film)
        object.__setattr__(self, "film_channels", film)
        trunk, feat, names = (), self.in_channels, ("fc", "head")
        if self.arch == "conv":
            t1, t2 = CONTROLLER_TRUNK
            trunk = (_conv(self.in_channels, t1), {"kind": "relu"}, {"kind": "pool"},
                     _conv(t1, t2), {"kind": "relu"}, {"kind": "pool"}, {"kind": "gap"})
            feat, names = t2, ("c1", "c2", *names)
        mlp = ({"kind": "linear", "nin": feat, "nout": self.hidden}, {"kind": "relu"},
               {"kind": "linear", "nin": self.hidden, "nout": self.out_dim})
        object.__setattr__(self, "layers", _named(trunk + mlp, names))

    @property
    def out_dim(self) -> int:
        return 2 * sum(self.film_channels)


class Controller:
    """Small network emitting per-site FiLM coefficients from error feedback."""

    def __init__(self, cspec: ControllerSpec, params: ParamSet):
        self.cspec = cspec
        self.params = params

    def lift(self, tape) -> dict[str, Tensor]:
        return self.params.lift(tape)

    def forward(self, feedback, lifted=None) -> FiLMParams:
        """Run ``cspec.layers`` on a feedback batch and emit FiLMParams from
        the head output [N, out_dim], which holds each site's gamma
        residual, then its beta: gamma = 1 + residual, beta = residual.
        Feedback of another rank, channel count or width than the spec's
        raises ``DimensionError`` from the first op that reads it.
        ``lifted`` holds the parameters as a training loop lifted them onto
        its tape; when absent they are constants."""
        raw = feedback if isinstance(feedback, Tensor) else ad.as_tensor(feedback)
        if lifted is None:
            lifted = self.params.lift(None)
        for layer in self.cspec.layers:
            raw = _layer(layer, raw, lifted, None)
        sites = []
        off = 0
        for ch in self.cspec.film_channels:
            gres = ad.slice_channels(raw, off, off + ch)
            beta = ad.slice_channels(raw, off + ch, off + 2 * ch)
            gamma = ad.add(gres, ad.as_tensor(np.ones_like(gres.array)))
            sites.append((gamma, beta))
            off += 2 * ch
        return FiLMParams(sites)


def build_controller(cspec: ControllerSpec, main: Model, seed: int) -> Controller:
    """Instantiate a controller for the main model's film sites.

    The head is zero-initialized so the first emitted coefficients are the
    exact identity. ``ConfigurationError`` unless the seed is an integer
    >= 0.
    """
    if not main.spec.film_sites:
        raise ContractError("main model has no film sites; build it with film_k >= 1")
    expected = tuple(c for _, c in main.spec.film_sites)
    if cspec.film_channels != expected:
        raise ConfigurationError(
            f"controller film channels {cspec.film_channels} != model sites {expected}"
        )
    return Controller(cspec, _init_params(_param_layout(cspec), seed))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _save(path, kind: str, spec, params: ParamSet) -> None:
    """Store the spec's fields and the parameters as a ``kind`` file; the
    spec alone fixes the parameters' names, order and shapes."""
    serialize.save(path, kind, dataclasses.asdict(spec), dict(params.items()))


def _load(path, kind: str, spec_cls) -> tuple:
    """(spec, parameters, spec fields) of a ``kind`` file.

    ``SerializationError`` unless the file's spec has exactly the fields of
    the dataclass ``spec_cls`` and builds, and its arrays have exactly the
    names and shapes of ``_param_layout(spec)``; the parameters come in layout
    order. Files of another ``serialize.VERSION`` are refused there.
    """
    fields, arrays = serialize.load(path, kind)
    names = sorted(f.name for f in dataclasses.fields(spec_cls))
    if sorted(fields) != names:
        raise SerializationError(f"{kind} file spec fields {sorted(fields)}, expected {names}")
    try:
        spec = spec_cls(**fields)
    except ConfigurationError as exc:
        raise SerializationError(f"{kind} file spec is malformed: {exc}") from None
    layout = _param_layout(spec)
    found = {name: a.shape for name, a in arrays.items()}
    if found != layout:
        bad = {n: (found.get(n), layout.get(n)) for n in sorted(found.keys() | layout.keys())
               if found.get(n) != layout.get(n)}
        raise SerializationError(f"{kind} file arrays do not match its spec, (file, spec) shapes: {bad}")
    params = ParamSet()
    for name in layout:
        params.add(name, arrays[name])
    return spec, params, fields


def save_model(path, model: Model) -> None:
    _save(path, "model", model.spec, model.params)


def load_model(path) -> tuple[Model, dict]:
    """The model of a file ``save_model`` wrote, and its spec's fields as stored."""
    spec, params, fields = _load(path, "model", ModelSpec)
    return Model(spec, params), fields


def save_controller(path, h: Controller) -> None:
    _save(path, "controller", h.cspec, h.params)


def load_controller(path) -> tuple[Controller, dict]:
    """The controller of a file ``save_controller`` wrote, and its spec's fields as stored."""
    cspec, params, fields = _load(path, "controller", ControllerSpec)
    return Controller(cspec, params), fields
