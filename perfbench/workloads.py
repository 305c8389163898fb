"""The benchmark's workloads, written against the public rnaloop API.

Every workload follows one protocol:

- ``make_inputs(seed)`` builds every input from the workload seed; it is
  not timed.
- ``setup(inputs, workdir)`` is the timed set-up: it trains the main
  network (and the controller), round-trips them through ``nets.save_*``
  and ``nets.load_*`` and builds the retrieval index. Units use the loaded
  artifacts; the trained ones are kept for the gates.
- ``unit(state, i)`` runs one closed-loop unit and returns its outputs;
  ``check(out)`` says whether they have the expected shape and are finite.
- ``score(state, i, out)`` accumulates task error for the first
  ``scored_units`` units and ``errors(state)`` returns (before, after).
  The error work is fixed by count, so the errors are deterministic per
  seed. Every unit adapts one image.
- ``gates(state)`` returns the correctness gates, name -> passed;
  ``final_gates(state)`` those that need the scored units.

The test-time optimisation (TTO) loop and the controller-training loop
below stand in for an adaptation engine that rnaloop does not have yet.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from rnaloop import autodiff as ad
from rnaloop import nets, presets, shifts, signals, taskgen

SHIFT_KINDS = ("gaussian_noise", "blur", "pixelate", "contrast")
# The networks are trained on data drawn from this fixed seed, so every
# workload seed measures the same deployed networks on its own test stream.
TRAIN_SEED = 0


def derive(seed: int, *stream: int) -> int:
    """Independent child seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def shifted(images: np.ndarray, seed: int, severity: int) -> np.ndarray:
    """The four shift kinds, cycling over the images, at one severity."""
    return np.stack([
        shifts.apply_shift(x, shifts.ShiftSpec(SHIFT_KINDS[i % 4], severity, derive(seed, 9, i)))
        for i, x in enumerate(images)
    ])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def finite(*arrays: np.ndarray) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def params_digest(*param_sets) -> str:
    h = hashlib.sha256()
    for ps in param_sets:
        h.update(ps.state_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# depth: shared inputs and set-up
# ---------------------------------------------------------------------------

DEPTH = {
    "train_seed": TRAIN_SEED,
    "grid": presets.DENSE_GRID,
    "film_sites": presets.DENSE_FILM_K,
    "train_images": 160,
    "train_epochs": 2,
    "train_lr": 0.05,
    "batch": 8,
    "test_images": 256,
    "shift_severity": 3,
    "signal": {"fraction": 0.05, "noise_sigma": 0.02, "outlier_rate": 0.05},
}


@dataclass
class DepthInputs:
    train: taskgen.Dataset
    train_signals: list
    test_x: np.ndarray  # shifted, [P,1,H,W]
    test_y: np.ndarray  # clean depth, [P,1,H,W]
    test_signals: list
    init_seed: int


def make_depth_inputs(seed: int) -> DepthInputs:
    world = taskgen.SceneWorldConfig(grid=DEPTH["grid"])
    sig = DEPTH["signal"]
    train = taskgen.gen_dense_regression(world, DEPTH["train_images"], derive(TRAIN_SEED, 1))
    test = taskgen.gen_dense_regression(world, DEPTH["test_images"], derive(seed, 2))

    def noisy(targets, source, stream):
        return [signals.noisy_sparse(t, sig["fraction"], sig["noise_sigma"], sig["outlier_rate"],
                                     derive(source, stream, i)) for i, t in enumerate(targets)]

    return DepthInputs(
        train=train,
        train_signals=noisy(train.targets, TRAIN_SEED, 3),
        test_x=shifted(test.inputs, derive(seed, 4), DEPTH["shift_severity"]),
        test_y=test.targets,
        test_signals=noisy(test.targets, seed, 5),
        init_seed=derive(TRAIN_SEED, 6),
    )


def train_depth_main(inputs: DepthInputs, workdir) -> tuple[nets.Model, nets.Model]:
    """Train the UNet from its initialisation; return (trained, loaded)."""
    main = presets.dense_main(inputs.init_seed)
    taskgen.train_main(main, inputs.train, DEPTH["train_epochs"], DEPTH["train_lr"],
                       inputs.init_seed, batch_size=DEPTH["batch"])
    path = workdir / "depth_main.rnlb"
    nets.save_model(path, main)
    loaded, _ = nets.load_model(path)
    return main, loaded


def depth_error(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - target)))


def proxy_l1(pred: np.ndarray, sig) -> float:
    """The TTO proxy: masked L1 against the noisy sparse signal."""
    return float((np.abs(pred[0, 0] - sig.values) * sig.mask).sum() / sig.mask.sum())


def film_identity(sites: list[int]) -> ad.ParamSet:
    ps = ad.ParamSet()
    for s, c in enumerate(sites):
        ps.add(f"site{s}.gamma", np.ones(c))
        ps.add(f"site{s}.beta", np.zeros(c))
    return ps


def film_of(ps: ad.ParamSet, values: dict) -> nets.FiLMParams:
    n = len(ps) // 2
    return nets.FiLMParams([(values[f"site{s}.gamma"], values[f"site{s}.beta"]) for s in range(n)])


def tto_episode(main: nets.Model, x: np.ndarray, sig, steps: int, lr: float):
    """k SGD steps on per-site (gamma, beta) against the signal; main frozen.

    Returns (unadapted output, adapted output).
    """
    before = main.forward(x).array
    film = film_identity([c for _, c in main.spec.film_sites])
    target = sig.values[None, None]
    mask = sig.mask[None]
    for _ in range(steps):
        with ad.Tape() as tape:
            lifted = film.lift(tape)
            pred = main.forward(x, film=film_of(film, lifted), tape=tape)
            loss = ad.masked_l1(pred, target, mask)
            ad.backward(loss)
        ad.sgd_step(film, film.grads_from(tape, lifted), lr)
    after = main.forward(x, film=film_of(film, film.lift(None))).array
    return before, after


def controller_episode(main: nets.Model, controller: nets.Controller, x: np.ndarray, sig):
    """Unadapted forward, feedback encoding, controller, adapted forward; no tape."""
    before = main.forward(x)
    film = controller.forward(signals.encode_feedback(before, [sig]))
    return before.array, main.forward(x, film=film).array


class Workload:
    """Defaults of the workload protocol."""

    name = ""
    config: dict = {}

    def final_gates(self, state) -> dict[str, bool]:
        return {}


@dataclass
class EpisodeScores:
    before: list = field(default_factory=list)
    after: list = field(default_factory=list)
    proxy_before: list = field(default_factory=list)
    proxy_after: list = field(default_factory=list)


class _DepthEpisodes(Workload):
    """Shared parts of the two depth adaptation workloads."""

    scored_units = DEPTH["test_images"]

    def __init__(self):
        self.scores = EpisodeScores()

    def make_inputs(self, seed: int) -> DepthInputs:
        return make_depth_inputs(seed)

    def check(self, out) -> bool:
        shape = (1, 1, DEPTH["grid"], DEPTH["grid"])
        return all(o.shape == shape for o in out) and finite(*out)

    def score(self, state, i, out) -> None:
        j = i % len(state.inputs.test_x)
        before, after = out
        sig = state.inputs.test_signals[j]
        self.scores.before.append(depth_error(before, state.inputs.test_y[j:j + 1]))
        self.scores.after.append(depth_error(after, state.inputs.test_y[j:j + 1]))
        self.scores.proxy_before.append(proxy_l1(before, sig))
        self.scores.proxy_after.append(proxy_l1(after, sig))

    def errors(self, state) -> tuple[float, float]:
        return float(np.mean(self.scores.before)), float(np.mean(self.scores.after))

    def episode_input(self, state, i):
        j = i % len(state.inputs.test_x)
        return state.inputs.test_x[j:j + 1], state.inputs.test_signals[j]


@dataclass
class DepthState:
    inputs: DepthInputs
    trained: nets.Model
    main: nets.Model
    trained_controller: nets.Controller | None = None
    controller: nets.Controller | None = None

    def digest(self) -> str:
        sets = [self.main.params]
        if self.controller is not None:
            sets.append(self.controller.params)
        return params_digest(*sets)


TTO = {"steps": 5, "lr": 0.05, "params": "film", "loss": "masked_l1 vs noisy sparse depth"}


class DepthTTO(_DepthEpisodes):
    name = "depth_tto"
    config = {"depth": DEPTH, "tto": TTO}

    def setup(self, inputs: DepthInputs, workdir) -> DepthState:
        trained, loaded = train_depth_main(inputs, workdir)
        loaded.params.set_frozen(True)
        return DepthState(inputs, trained, loaded)

    def unit(self, state: DepthState, i: int):
        x, sig = self.episode_input(state, i)
        return tto_episode(state.main, x, sig, TTO["steps"], TTO["lr"])

    def gates(self, state: DepthState) -> dict[str, bool]:
        gates = {"loaded_main_bit_identical": True, "tto_lr0_identity": True}
        for i in range(4):
            x, sig = self.episode_input(state, i)
            gates["loaded_main_bit_identical"] &= same_bits(
                state.trained.forward(x).array, state.main.forward(x).array)
            before, after = tto_episode(state.main, x, sig, TTO["steps"], 0.0)
            gates["tto_lr0_identity"] &= same_bits(before, after)
        return gates

    def final_gates(self, state) -> dict[str, bool]:
        s = self.scores
        return {"tto_lowers_proxy": float(np.mean(s.proxy_after)) < float(np.mean(s.proxy_before))}


CONTROLLER_TRAIN = {"steps": 32, "lr": 0.05, "batch": 8, "loss": "mean_l1 vs clean depth",
                    "images": "clean training images"}


def train_depth_controller(main: nets.Model, inputs: DepthInputs, workdir):
    """Controller training with the main network frozen; returns (trained, loaded)."""
    controller = presets.dense_controller(main, derive(inputs.init_seed, 1))
    rng = np.random.default_rng(derive(inputs.init_seed, 2))
    cfg = CONTROLLER_TRAIN
    for _ in range(cfg["steps"]):
        idx = rng.choice(len(inputs.train), cfg["batch"], replace=False)
        xb, yb = inputs.train.inputs[idx], inputs.train.targets[idx]
        feedback = signals.encode_feedback(main.forward(xb), [inputs.train_signals[i] for i in idx])
        with ad.Tape() as tape:
            lifted = controller.lift(tape)
            film = controller.forward(feedback, lifted=lifted)
            loss = ad.mean_l1(main.forward(xb, film=film, tape=tape), yb)
            ad.backward(loss)
        ad.sgd_step(controller.params, controller.params.grads_from(tape, lifted), cfg["lr"])
    path = workdir / "depth_controller.rnlb"
    nets.save_controller(path, controller)
    loaded, _ = nets.load_controller(path)
    return controller, loaded


class DepthController(_DepthEpisodes):
    name = "depth_controller"
    config = {"depth": DEPTH, "controller_train": CONTROLLER_TRAIN}

    def setup(self, inputs: DepthInputs, workdir) -> DepthState:
        trained, loaded = train_depth_main(inputs, workdir)
        loaded.params.set_frozen(True)
        trained_c, loaded_c = train_depth_controller(loaded, inputs, workdir)
        return DepthState(inputs, trained, loaded, trained_c, loaded_c)

    def unit(self, state: DepthState, i: int):
        x, sig = self.episode_input(state, i)
        return controller_episode(state.main, state.controller, x, sig)

    def gates(self, state: DepthState) -> dict[str, bool]:
        zero_head = presets.dense_controller(state.main, 0)
        gates = {"loaded_main_bit_identical": True, "loaded_controller_bit_identical": True,
                 "zero_head_identity": True}
        for i in range(4):
            x, sig = self.episode_input(state, i)
            before, after = controller_episode(state.main, zero_head, x, sig)
            gates["zero_head_identity"] &= same_bits(before, after)
            gates["loaded_main_bit_identical"] &= same_bits(
                state.trained.forward(x).array, before)
            trained_out = controller_episode(state.main, state.trained_controller, x, sig)[1]
            loaded_out = controller_episode(state.main, state.controller, x, sig)[1]
            gates["loaded_controller_bit_identical"] &= same_bits(trained_out, loaded_out)
        return gates


# ---------------------------------------------------------------------------
# cls_knn: kNN coarse-label retrieval driving an MLP controller
# ---------------------------------------------------------------------------

CLS = {
    "train_seed": TRAIN_SEED,
    "grid": presets.CLS_GRID,
    "classes": presets.NUM_CLASSES,
    "coarse": presets.NUM_COARSE,
    "film_sites": presets.CLS_FILM_K,
    "index_images": 2048,
    "train_epochs": 2,
    "train_lr": 0.1,
    "train_batch": 32,
    "controller_images": 256,
    "test_images": 4096,
    "knn_k": 20,
    "shift_severity": 3,
}
CLS_CONTROLLER_TRAIN = {"steps": 60, "lr": 0.1, "batch": 16,
                        "loss": "softmax_cross_entropy vs fine label",
                        "signal": "knn_coarse of clean images outside the index"}


@dataclass
class ClsInputs:
    train: taskgen.Dataset  # main training set and retrieval index
    controller_train: taskgen.Dataset
    test_x: np.ndarray  # shifted, [P,1,H,W]
    test_y: np.ndarray
    grouping: signals.CoarseGrouping
    init_seed: int


@dataclass
class ClsState:
    inputs: ClsInputs
    trained: nets.Model
    main: nets.Model
    index: signals.EmbeddingIndex
    trained_controller: nets.Controller
    controller: nets.Controller

    def digest(self) -> str:
        return params_digest(self.main.params, self.controller.params)


def cls_episode(state: ClsState, controller: nets.Controller, x: np.ndarray):
    """Retrieval signal, unadapted forward, MLP controller, adapted forward."""
    sig = signals.knn_coarse(x, state.index, CLS["knn_k"], state.inputs.grouping)
    before = state.main.forward(x[None]).array
    film = controller.forward(signals.encode_feedback(before[0], sig)[None])
    return before, state.main.forward(x[None], film=film).array


class ClsKnn(Workload):
    name = "cls_knn"
    config = {"cls": CLS, "controller_train": CLS_CONTROLLER_TRAIN}
    scored_units = CLS["test_images"]

    def __init__(self):
        self.wrong_before = 0
        self.wrong_after = 0

    def make_inputs(self, seed: int) -> ClsInputs:
        k, grid = CLS["classes"], CLS["grid"]
        proto = derive(TRAIN_SEED, 1)
        train = taskgen.gen_classification(k, CLS["index_images"], proto, derive(TRAIN_SEED, 2), grid)
        ctrl = taskgen.gen_classification(k, CLS["controller_images"], proto,
                                          derive(TRAIN_SEED, 3), grid)
        test = taskgen.gen_classification(k, CLS["test_images"], proto, derive(seed, 4), grid)
        return ClsInputs(
            train=train,
            controller_train=ctrl,
            test_x=shifted(test.inputs, derive(seed, 5), CLS["shift_severity"]),
            test_y=test.targets,
            grouping=signals.make_coarse_grouping(k, CLS["coarse"]),
            init_seed=derive(TRAIN_SEED, 6),
        )

    def setup(self, inputs: ClsInputs, workdir) -> ClsState:
        main = presets.cls_main(inputs.init_seed)
        taskgen.train_main(main, inputs.train, CLS["train_epochs"], CLS["train_lr"],
                           inputs.init_seed, batch_size=CLS["train_batch"])
        nets.save_model(workdir / "cls_main.rnlb", main)
        loaded, _ = nets.load_model(workdir / "cls_main.rnlb")
        loaded.params.set_frozen(True)
        index = signals.build_embedding_index(loaded, inputs.train)

        cfg, ds = CLS_CONTROLLER_TRAIN, inputs.controller_train
        feedback_sigs = [signals.knn_coarse(x, index, CLS["knn_k"], inputs.grouping)
                         for x in ds.inputs]
        controller = presets.cls_controller(loaded, derive(inputs.init_seed, 1))
        rng = np.random.default_rng(derive(inputs.init_seed, 2))
        for _ in range(cfg["steps"]):
            idx = rng.choice(len(ds), cfg["batch"], replace=False)
            xb = ds.inputs[idx]
            feedback = signals.encode_feedback(loaded.forward(xb), [feedback_sigs[i] for i in idx])
            with ad.Tape() as tape:
                lifted = controller.lift(tape)
                film = controller.forward(feedback, lifted=lifted)
                loss = ad.softmax_cross_entropy(loaded.forward(xb, film=film, tape=tape),
                                                ds.targets[idx])
                ad.backward(loss)
            ad.sgd_step(controller.params, controller.params.grads_from(tape, lifted), cfg["lr"])
        nets.save_controller(workdir / "cls_controller.rnlb", controller)
        loaded_c, _ = nets.load_controller(workdir / "cls_controller.rnlb")
        return ClsState(inputs, main, loaded, index, controller, loaded_c)

    def unit(self, state: ClsState, i: int):
        return cls_episode(state, state.controller, state.inputs.test_x[i % len(state.inputs.test_x)])

    def check(self, out) -> bool:
        return all(o.shape == (1, CLS["classes"]) for o in out) and finite(*out)

    def score(self, state, i, out) -> None:
        y = state.inputs.test_y[i % len(state.inputs.test_y)]
        self.wrong_before += int(np.argmax(out[0][0]) != y)
        self.wrong_after += int(np.argmax(out[1][0]) != y)

    def errors(self, state) -> tuple[float, float]:
        return self.wrong_before / self.scored_units, self.wrong_after / self.scored_units

    def gates(self, state: ClsState) -> dict[str, bool]:
        zero_head = presets.cls_controller(state.main, 0)
        gates = {"loaded_main_bit_identical": True, "loaded_controller_bit_identical": True,
                 "zero_head_identity": True}
        for x in state.inputs.test_x[:4]:
            before, after = cls_episode(state, zero_head, x)
            gates["zero_head_identity"] &= same_bits(before, after)
            gates["loaded_main_bit_identical"] &= same_bits(
                state.trained.forward(x[None]).array, before)
            gates["loaded_controller_bit_identical"] &= same_bits(
                cls_episode(state, state.trained_controller, x)[1],
                cls_episode(state, state.controller, x)[1])
        return gates


WORKLOADS = {w.name: w for w in (DepthTTO, DepthController, ClsKnn)}


def config_hash(workload) -> str:
    text = json.dumps(workload.config, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
