import numpy as np
import pytest

from rnaloop import nets, presets, taskgen
from rnaloop.errors import ConfigurationError, ContractError, TrainingError


def painter_oracle(config, shapes):
    """Per-pixel loop: nearest covering shape wins, else background."""
    g = config.grid
    depth = np.full((g, g), config.background_depth)
    for y in range(g):
        for x in range(g):
            best = config.background_depth
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
            shapes = taskgen.sample_scene(cfg, rng)
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

    def test_degenerate_config_rejected(self):
        cfg = taskgen.SceneWorldConfig(shapes_per_scene=(0, 2), background_depth=None)
        with pytest.raises(ConfigurationError):
            taskgen.gen_dense_regression(cfg, 1, seed=0)

    def test_values_in_unit_range(self):
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 20, seed=3)
        assert ds.inputs.min() >= 0 and ds.inputs.max() <= 1
        assert ds.targets.min() >= 0 and ds.targets.max() <= 1


class TestDenseSegmentation:
    CFG = taskgen.SceneWorldConfig(textures=("plain", "striped"))

    def test_empty_scene_all_background(self):
        cfg = self.CFG.with_overrides(shapes_per_scene=(0, 0))
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

    def test_class_histogram_roughly_uniform(self):
        ds = taskgen.gen_dense_segmentation(self.CFG, 1000, K=5, seed=4)
        counts = np.bincount(ds.targets.reshape(-1), minlength=5)[1:]
        fg = counts.sum()
        uniform = fg / 4
        assert np.all(counts >= 0.5 * uniform)
        assert np.all(counts <= 2.0 * uniform)


class TestClassification:
    def test_zero_jitter_zero_noise_reproduces_prototype(self):
        ds = taskgen.gen_classification(4, 8, proto_seed=5, seed=6, jitter=0, noise_sigma=0.0)
        protos = ds.extra["prototypes"]
        for i in range(8):
            assert np.array_equal(ds.inputs[i, 0], protos[ds.targets[i]])

    def test_balanced_labels(self):
        ds = taskgen.gen_classification(5, 100, proto_seed=0, seed=1)
        counts = np.bincount(ds.targets, minlength=5)
        assert np.all(counts == 20)

    def test_determinism(self):
        a = taskgen.gen_classification(5, 50, proto_seed=2, seed=3)
        b = taskgen.gen_classification(5, 50, proto_seed=2, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


class TestTrainMain:
    def test_lr_zero_keeps_params_and_flat_curve(self):
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 16, seed=0)
        model = presets.dense_main(seed=0)
        before = model.params.state_bytes()
        _, curve = taskgen.train_main(model, ds, epochs=3, lr=0.0, seed=0)
        assert model.params.state_bytes() == before
        assert max(curve) - min(curve) < 1e-12

    def test_task_mismatch_rejected(self):
        ds = taskgen.gen_classification(5, 10, proto_seed=0, seed=0)
        model = presets.dense_main(seed=0)
        with pytest.raises(ConfigurationError):
            taskgen.train_main(model, ds, epochs=1, lr=0.01, seed=0)

    def test_divergence_reports_epoch_and_lr(self):
        from rnaloop import autodiff

        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 16, seed=0)
        model = presets.dense_main(seed=0)
        autodiff.set_debug_checks(False)  # let the overflow reach the loss
        try:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError, match="lr="):
                taskgen.train_main(model, ds, epochs=5, lr=1e200, seed=0)
        finally:
            autodiff.set_debug_checks(True)

    def test_fully_frozen_model_rejected_before_training(self):
        ds = taskgen.gen_classification(presets.NUM_CLASSES, 8, proto_seed=0, seed=0)
        model = presets.cls_main(1)
        model.params.set_frozen(True)
        before = model.params.state_bytes()
        with pytest.raises(ContractError, match=r"every parameter is frozen.*set_frozen\(False\)"):
            taskgen.train_main(model, ds, epochs=1, lr=0.01, seed=0)
        assert model.params.state_bytes() == before

    def test_loss_decreases_on_small_run(self):
        cfg = taskgen.SceneWorldConfig()
        ds = taskgen.gen_dense_regression(cfg, 64, seed=0)
        model = presets.dense_main(seed=0)
        _, curve = taskgen.train_main(model, ds, epochs=4, lr=0.05, seed=0)
        assert curve[-1] < curve[0]
