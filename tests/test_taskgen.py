import dataclasses
import hashlib

import numpy as np
import pytest

from rnaloop import nets, presets, shifts, taskgen
from rnaloop.errors import ConfigurationError, ContractError, DimensionError, TrainingError


def painter_oracle(config, shapes):
    """Per-pixel loop: nearest covering shape wins, else background."""
    g = config.grid
    depth = np.full((g, g), taskgen.BACKGROUND_DEPTH)
    for y in range(g):
        for x in range(g):
            best = taskgen.BACKGROUND_DEPTH
            for s in shapes:
                if s.kind == "rectangle":
                    inside = abs(x - s.cx) <= s.hw and abs(y - s.cy) <= s.hh
                else:
                    inside = (x - s.cx) ** 2 + (y - s.cy) ** 2 <= s.hw**2
                if inside and s.depth < best:
                    best = s.depth
            depth[y, x] = best
    return depth


class TestDenseRegression:
    def test_empty_scene_is_background(self):
        cfg = taskgen.SceneWorldConfig(shapes_per_scene=(0, 0))
        ds = taskgen.gen_dense_regression(cfg, 3, seed=0)
        assert np.all(ds.targets == 1.0)

    def test_full_frame_rectangle_constant_depth(self):
        cfg = taskgen.SceneWorldConfig()
        shape = taskgen.Shape("rectangle", "plain", 15.5, 15.5, 40, 40, depth=0.42, albedo=0.7)
        _, depth, _ = taskgen.render_scene(cfg, [shape])
        assert np.all(depth == 0.42)

    def test_against_painters_oracle(self):
        cfg = taskgen.SceneWorldConfig(grid=16)
        rng = np.random.default_rng(1)
        for _ in range(25):
            shapes = taskgen.sample_scene(cfg, ("plain", "striped"), rng)
            _, depth, _ = taskgen.render_scene(cfg, shapes)
            assert np.array_equal(depth, painter_oracle(cfg, shapes))

    def test_reproducible_and_seed_sensitive(self):
        cfg = taskgen.SceneWorldConfig()
        a = taskgen.gen_dense_regression(cfg, 5, seed=9)
        b = taskgen.gen_dense_regression(cfg, 5, seed=9)
        c = taskgen.gen_dense_regression(cfg, 5, seed=10)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_split_disjointness(self):
        cfg = taskgen.SceneWorldConfig()
        train = taskgen.gen_dense_regression(cfg, 100, seed=0)
        test = taskgen.gen_dense_regression(cfg, 100, seed=1)
        train_hashes = {t.tobytes() for t in train.inputs}
        test_hashes = {t.tobytes() for t in test.inputs}
        assert not (train_hashes & test_hashes)

    def test_values_in_unit_range(self):
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 20, seed=3)
        assert ds.inputs.min() >= 0 and ds.inputs.max() <= 1
        assert ds.targets.min() >= 0 and ds.targets.max() <= 1


class TestDenseSegmentation:
    CFG = taskgen.SceneWorldConfig()

    def test_empty_scene_all_background(self):
        cfg = dataclasses.replace(self.CFG, shapes_per_scene=(0, 0))
        ds = taskgen.gen_dense_segmentation(cfg, 2, K=5, seed=0)
        assert np.all(ds.targets == 0)

    def test_single_disk_class(self):
        shape = taskgen.Shape("disk", "plain", 16, 16, 5, 5, depth=0.3, albedo=0.8, seg_class=3)
        _, _, classes = taskgen.render_scene(self.CFG, [shape])
        cover = (np.mgrid[0:32, 0:32][1] - 16) ** 2 + (np.mgrid[0:32, 0:32][0] - 16) ** 2 <= 25
        assert np.all(classes[cover] == 3)
        assert np.all(classes[~cover] == 0)

    def test_k_exceeding_combinations_rejected(self):
        with pytest.raises(ConfigurationError):
            taskgen.gen_dense_segmentation(self.CFG, 1, K=9, seed=0)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ConfigurationError, match="n must be >= 1"):
            taskgen.gen_dense_segmentation(self.CFG, n, K=5, seed=0)

    def test_class_histogram_roughly_uniform(self):
        ds = taskgen.gen_dense_segmentation(self.CFG, 1000, K=5, seed=4)
        counts = np.bincount(ds.targets.reshape(-1), minlength=5)[1:]
        fg = counts.sum()
        uniform = fg / 4
        assert np.all(counts >= 0.5 * uniform)
        assert np.all(counts <= 2.0 * uniform)


def _nearest_rolled_prototype(image, protos):
    """(label, residual) of the prototype and roll within JITTER closest to
    ``image`` in max abs difference."""
    j = taskgen.JITTER
    return min(
        ((k, float(np.abs(image - np.roll(p, (dy, dx), axis=(0, 1))).max()))
         for k, p in enumerate(protos) for dy in range(-j, j + 1) for dx in range(-j, j + 1)),
        key=lambda pair: pair[1])


class TestClassification:
    def test_images_are_rolled_noisy_prototypes(self):
        # each image is its label's prototype rolled by at most JITTER pixels
        # per axis, within five noise sds at every pixel
        ds = taskgen.gen_classification(4, 8, proto_seed=5, seed=6)
        protos = taskgen.make_prototypes(4, 5)
        for image, label in zip(ds.inputs[:, 0], ds.targets):
            nearest, residual = _nearest_rolled_prototype(image, protos)
            assert nearest == label
            assert residual < 5 * taskgen.NOISE_SIGMA

    def test_balanced_labels(self):
        ds = taskgen.gen_classification(5, 100, proto_seed=0, seed=1)
        counts = np.bincount(ds.targets, minlength=5)
        assert np.all(counts == 20)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ConfigurationError, match="n must be >= 1"):
            taskgen.gen_classification(5, n, proto_seed=0, seed=0)

    @pytest.mark.parametrize("K", [2.0, -1, 0, True])
    def test_prototype_count_not_a_positive_int_rejected(self, K):
        # used to fail with a bare TypeError (2.0), numpy's ValueError (-1),
        # or return an empty array (0)
        with pytest.raises(ConfigurationError, match="K must be >= 1"):
            taskgen.make_prototypes(K, 0)

    @pytest.mark.parametrize("grid", [18, 2, 0, 16.0, True])
    def test_grid_not_a_multiple_of_four_rejected(self, grid):
        with pytest.raises(ConfigurationError, match="grid"):
            taskgen.make_prototypes(5, 0, grid)
        with pytest.raises(ConfigurationError, match="grid"):
            taskgen.gen_classification(5, 4, proto_seed=0, seed=0, grid=grid)

    def test_smallest_grid_is_the_prototype_field(self):
        ds = taskgen.gen_classification(5, 4, proto_seed=0, seed=0, grid=4)
        protos = taskgen.make_prototypes(5, 0, 4)
        assert ds.inputs.shape == (4, 1, 4, 4)
        for image, label in zip(ds.inputs[:, 0], ds.targets):
            assert _nearest_rolled_prototype(image, protos)[1] < 5 * taskgen.NOISE_SIGMA

    def test_determinism(self):
        a = taskgen.gen_classification(5, 50, proto_seed=2, seed=3)
        b = taskgen.gen_classification(5, 50, proto_seed=2, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


_CFG = taskgen.SceneWorldConfig()
_GENERATORS = {
    "gen_dense_regression": lambda n, K: taskgen.gen_dense_regression(_CFG, n, seed=0),
    "gen_dense_segmentation": lambda n, K: taskgen.gen_dense_segmentation(_CFG, n, K, seed=0),
    "gen_classification": lambda n, K: taskgen.gen_classification(K, n, 0, 0),
}


@pytest.mark.parametrize("world, match", [
    pytest.param(dict(grid=0), "grid must be >= 1, as an int; got 0", id="grid_0"),
    pytest.param(dict(grid=-4), "grid must be >= 1, as an int; got -4", id="grid_negative"),
    pytest.param(dict(grid=32.0), "grid must be >= 1, as an int; got 32.0", id="grid_float"),
    pytest.param(dict(shapes_per_scene=(3, 1)), "high must be >= 3, as an int; got 1",
                 id="shapes_high_under_low"),
    pytest.param(dict(shapes_per_scene=(1.5, 3)), "low must be >= 0, as an int; got 1.5",
                 id="shapes_float"),
    pytest.param(dict(shapes_per_scene=(-2, -1)), "low must be >= 0, as an int; got -2",
                 id="shapes_negative"),
    pytest.param(dict(shapes_per_scene=3), r"a \(low, high\) pair, got 3", id="shapes_not_a_pair"),
    pytest.param(dict(shapes_per_scene=(1, 2, 3)), r"a \(low, high\) pair", id="shapes_three"),
    pytest.param(dict(half_size_range=(9.0, 3.0)), r"half_size_range must be finite reals 0 <= low <= high",
                 id="half_size_high_under_low"),
    pytest.param(dict(half_size_range=(-5.0, 2.0)), r"half_size_range must be finite reals",
                 id="half_size_negative"),
    pytest.param(dict(half_size_range=(3.0, np.inf)), r"half_size_range must be finite reals",
                 id="half_size_infinite"),
    pytest.param(dict(half_size_range=(0, 10**400)), r"half_size_range must be finite reals",
                 id="half_size_past_float"),
    pytest.param(dict(albedo_range=("0.4", "0.9")), r"albedo_range must be finite reals", id="albedo_strings"),
    pytest.param(dict(albedo_range=(np.nan, 0.9)), r"albedo_range must be finite reals", id="albedo_nan"),
    pytest.param(dict(albedo_range=0.5), r"albedo_range must be a \(low, high\) pair", id="albedo_not_a_pair"),
])
def test_world_counts_checked_when_built(world, match):
    # before the check, grid 0, -4 and 32.0 and, at the first scene, (3, 1)
    # and a half_size_range of (9.0, 3.0) failed inside numpy, and (1.5, 3),
    # (-2, -1) and a half_size_range of (-5.0, 2.0) ran; (0, 10**400) failed
    # with a bare OverflowError at the first scene
    with pytest.raises(ConfigurationError, match=match):
        taskgen.gen_dense_regression(taskgen.SceneWorldConfig(**world), 2, 0)


def test_world_keeps_its_counts_as_python_ints():
    # and its pairs as tuples, so that a world given lists still hashes
    world = taskgen.SceneWorldConfig(grid=np.int64(16), shapes_per_scene=[np.uint8(0), np.int64(0)],
                                     albedo_range=[0.0, 1.0])
    assert world == taskgen.SceneWorldConfig(grid=16, shapes_per_scene=(0, 0), albedo_range=(0.0, 1.0))
    assert hash(world) == hash(taskgen.SceneWorldConfig(grid=16, shapes_per_scene=(0, 0), albedo_range=(0.0, 1.0)))
    assert type(world.grid) is int and all(type(v) is int for v in world.shapes_per_scene)
    assert shifts.shifted_world(world).shapes_per_scene == (2, 6)


@pytest.mark.parametrize("gen, name, value", [
    (gen, name, value)
    for gen in _GENERATORS
    for name in (("n",) if gen == "gen_dense_regression" else ("n", "K"))
    for value in (2.0, True)
])
def test_non_integer_counts_rejected_at_entry(gen, name, value):
    # Past the entry check these fail inside numpy with a bare TypeError,
    # or run (a segmentation K of 5.0 runs as 5).
    args = {"n": 4, "K": 5, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be >= .*as an int; got {value!r}"):
        _GENERATORS[gen](args["n"], args["K"])


_TINY_CLASSIFIER = nets.ModelSpec("classification", 1, 4, 4, 1)
_SEED_ENTRIES = {
    "gen_dense_regression": lambda seed: taskgen.gen_dense_regression(_CFG, 2, seed),
    "gen_dense_segmentation": lambda seed: taskgen.gen_dense_segmentation(_CFG, 2, 5, seed),
    "make_prototypes": lambda seed: taskgen.make_prototypes(4, seed),
    "gen_classification_seed": lambda seed: taskgen.gen_classification(4, 8, 0, seed),
    "gen_classification_proto_seed": lambda seed: taskgen.gen_classification(4, 8, seed, 0),
    "train_main": lambda seed: taskgen.train_main(
        presets.cls_main(0), taskgen.gen_classification(presets.NUM_CLASSES, 4, 0, 0), 1, 0.01, seed),
    "build_main": lambda seed: nets.build_main(_TINY_CLASSIFIER, seed),
    "build_controller": lambda seed: nets.build_controller(
        nets.ControllerSpec("mlp", 6, (8,), 4), nets.build_main(_TINY_CLASSIFIER, 0), seed),
    "dense_main": lambda seed: presets.dense_main(seed),
    "dense_controller": lambda seed: presets.dense_controller(presets.dense_main(0), seed),
    "cls_main": lambda seed: presets.cls_main(seed),
    "cls_controller": lambda seed: presets.cls_controller(presets.cls_main(0), seed),
}


@pytest.mark.parametrize("entry", _SEED_ENTRIES)
@pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
def test_seeds_checked_at_entry(entry, seed):
    # past the entry check a float or bool seed ran as its int, and -1
    # failed inside numpy with a bare ValueError; the builders and presets
    # passed every seed to numpy unchecked
    with pytest.raises(ConfigurationError, match=f"seed must be >= 0, as an int; got {seed!r}"):
        _SEED_ENTRIES[entry](seed)


class TestGeneratorPins:
    # sha256 of inputs then targets, pinned so that any change of draw order
    # or of the scene model shows
    SHA256 = {
        "depth": "f580e08da6ae35f98e8e6d5b6eec4fa2b0e5dbb2a621717bdbed325255689a8c",
        "depth_shifted_world": "3aadc95da6763c7ab37c9eb9cbc145c9a21865dfb9526bbb9f6e9a957b9b8eb9",
        "classification": "413cbaf217254d08a413b50daca08fe5ccb9b2215a9ae086c21e5719dc4cd0f7",
        "segmentation": "165ff8bb5063d50dc89cf7fd0d88159cea8be3d7d6df9d28f5ab72c2b0010801",
    }

    def test_outputs_pinned(self):
        world = taskgen.SceneWorldConfig(grid=32)
        datasets = {
            "depth": taskgen.gen_dense_regression(world, 30, 7),
            "depth_shifted_world": taskgen.gen_dense_regression(shifts.shifted_world(world), 30, 7),
            "classification": taskgen.gen_classification(20, 100, 3, 4, 16),
            "segmentation": taskgen.gen_dense_segmentation(world, 30, 5, 7),
        }
        got = {name: hashlib.sha256(ds.inputs.tobytes() + ds.targets.tobytes()).hexdigest()
               for name, ds in datasets.items()}
        assert got == self.SHA256


_PRESET_DATA = {
    "dense_main": lambda: taskgen.gen_dense_regression(taskgen.SceneWorldConfig(), 4, 0),
    "seg_main": lambda: taskgen.gen_dense_segmentation(taskgen.SceneWorldConfig(), 4, presets.SEG_CLASSES, 0),
    "cls_main": lambda: taskgen.gen_classification(presets.NUM_CLASSES, 4, 0, 0, presets.CLS_GRID),
}


@pytest.mark.parametrize("preset", _PRESET_DATA)
def test_every_main_preset_trains_on_default_world_data(preset):
    # the default world serves every shipped main network, segmentation's
    # SEG_CLASSES included
    model = getattr(presets, preset)(0)
    before = model.params.state_bytes()
    _, curve = taskgen.train_main(model, _PRESET_DATA[preset](), epochs=1, lr=0.01, seed=0, batch_size=4)
    assert len(curve) == 1 and np.isfinite(curve[0])
    assert model.params.state_bytes() != before


class TestTrainMain:
    def test_lr_zero_keeps_params_and_flat_curve(self):
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 16, seed=0)
        model = presets.dense_main(seed=0)
        before = model.params.state_bytes()
        _, curve = taskgen.train_main(model, ds, epochs=3, lr=0.0, seed=0)
        assert model.params.state_bytes() == before
        assert max(curve) - min(curve) < 1e-12

    @pytest.mark.parametrize("epochs,batch_size", [(1, 0), (-1, 8), (0, 8), (1, 2.0)])
    def test_bad_epochs_or_batch_size_rejected(self, epochs, batch_size):
        ds = taskgen.gen_classification(presets.NUM_CLASSES, 8, proto_seed=0, seed=0)
        model = presets.cls_main(1)
        before = model.params.state_bytes()
        with pytest.raises(ConfigurationError, match="(epochs|batch_size) must be >= 1, as an int"):
            taskgen.train_main(model, ds, epochs=epochs, lr=0.01, seed=0, batch_size=batch_size)
        assert model.params.state_bytes() == before

    @pytest.mark.parametrize("case, error, match", [
        pytest.param("no_images", ContractError, "dataset holds no images", id="no_images"),
        pytest.param("one_target_short", DimensionError,
                     r"8 inputs need one target each, got targets of shape \(7,\)", id="one_target_short"),
        pytest.param("scalar_target", DimensionError,
                     r"8 inputs need one target each, got targets of shape \(\)", id="scalar_target"),
    ])
    def test_dataset_checked_before_training(self, case, error, match):
        # no images gave (model, [nan]) and numpy's "Mean of empty slice";
        # targets not one per input raised a bare IndexError
        ds = taskgen.gen_classification(presets.NUM_CLASSES, 8, proto_seed=0, seed=0)
        if case == "no_images":
            ds = taskgen.Dataset(ds.task_kind, ds.inputs[:0], ds.targets[:0])
        else:
            ds = taskgen.Dataset(ds.task_kind, ds.inputs, ds.targets[:7] if case == "one_target_short" else 3)
        model = presets.cls_main(1)
        before = model.params.state_bytes()
        with pytest.raises(error, match=match):
            taskgen.train_main(model, ds, epochs=1, lr=0.01, seed=0)
        assert model.params.state_bytes() == before

    def test_task_mismatch_rejected(self):
        ds = taskgen.gen_classification(5, 10, proto_seed=0, seed=0)
        model = presets.dense_main(seed=0)
        with pytest.raises(ConfigurationError):
            taskgen.train_main(model, ds, epochs=1, lr=0.01, seed=0)

    def test_divergence_reports_epoch_and_lr(self, unchecked_ops):
        # unchecked ops let the overflow reach the loss, which train_main
        # refuses before backward would
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 16, seed=0)
        model = presets.dense_main(seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError, match="lr="):
            taskgen.train_main(model, ds, epochs=5, lr=1e200, seed=0)

    def test_fully_frozen_model_rejected_before_training(self):
        ds = taskgen.gen_classification(presets.NUM_CLASSES, 8, proto_seed=0, seed=0)
        model = presets.cls_main(1)
        model.params.set_frozen(True)
        before = model.params.state_bytes()
        with pytest.raises(ContractError, match=r"every parameter is frozen.*set_frozen\(False\)"):
            taskgen.train_main(model, ds, epochs=1, lr=0.01, seed=0)
        assert model.params.state_bytes() == before

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected_at_the_first_step(self, lr):
        ds = taskgen.gen_classification(presets.NUM_CLASSES, 8, proto_seed=0, seed=0)
        model = presets.cls_main(0)
        before = model.params.state_bytes()
        with pytest.raises(ContractError, match="learning rate"):
            taskgen.train_main(model, ds, epochs=1, lr=lr, seed=0)
        assert model.params.state_bytes() == before

    def test_loss_decreases_on_small_run(self):
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 64, seed=0)
        model = presets.dense_main(seed=0)
        _, curve = taskgen.train_main(model, ds, epochs=4, lr=0.05, seed=0)
        assert curve[-1] < curve[0]
