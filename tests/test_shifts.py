import json

import numpy as np
import pytest

from rnaloop import shifts, taskgen
from rnaloop.errors import ConfigurationError, DimensionError


def laplacian_energy(img):
    k = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
    h, w = img.shape[-2:]
    out = np.zeros((h - 2, w - 2))
    for i in range(h - 2):
        for j in range(w - 2):
            out[i, j] = (img[..., i : i + 3, j : j + 3] * k).sum()
    return float((out**2).sum())


class TestApplyShift:
    def test_identity_bit_exact(self):
        x = np.random.default_rng(0).random((1, 16, 16))
        out = shifts.apply_shift(x, shifts.ShiftSpec("identity", 3))
        assert np.array_equal(out, x)
        assert out is not x

    @pytest.mark.parametrize("severity", [1, 2, 3, 4])
    def test_noise_moment_matches_table(self, severity):
        x = np.full((1, 100, 100), 0.5)
        spec = shifts.ShiftSpec("gaussian_noise", severity, seed=3)
        out = shifts.apply_shift(x, spec)
        sigma = shifts.SEVERITY_TABLES["gaussian_noise"][severity - 1]
        emp = (out - x).std()
        assert abs(emp - sigma) / sigma < 0.05

    def test_noise_severity5_only_shrunk_by_clipping(self):
        x = np.full((1, 100, 100), 0.5)
        out = shifts.apply_shift(x, shifts.ShiftSpec("gaussian_noise", 5, seed=3))
        sigma = shifts.SEVERITY_TABLES["gaussian_noise"][4]
        emp = (out - x).std()
        assert 0.90 * sigma <= emp <= sigma * 1.01

    def test_blur_reduces_high_frequency_energy(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 24, 24))
        e1 = laplacian_energy(shifts.apply_shift(x, shifts.ShiftSpec("blur", 1))[0])
        e5 = laplacian_energy(shifts.apply_shift(x, shifts.ShiftSpec("blur", 5))[0])
        assert e5 < e1

    def test_blur_preserves_constant_image(self):
        x = np.full((1, 16, 16), 0.7)
        out = shifts.apply_shift(x, shifts.ShiftSpec("blur", 4))
        assert np.allclose(out, 0.7, atol=1e-12)

    def test_pixelate_blocks_are_constant(self):
        x = np.random.default_rng(2).random((1, 32, 32))
        out = shifts.apply_shift(x, shifts.ShiftSpec("pixelate", 4))  # block 6
        assert np.all(out[0, 0:6, 0:6] == out[0, 0, 0])
        assert np.allclose(out[0, 0, 0], x[0, 0:6, 0:6].mean(), atol=1e-12)

    def test_contrast_shrinks_deviation(self):
        x = np.random.default_rng(3).random((1, 16, 16))
        out = shifts.apply_shift(x, shifts.ShiftSpec("contrast", 5))
        assert out.std() < 0.3 * x.std()
        assert abs(out.mean() - x.mean()) < 1e-9

    def test_deterministic_under_seed(self):
        x = np.random.default_rng(4).random((1, 16, 16))
        spec = shifts.ShiftSpec("gaussian_noise", 3, seed=7)
        assert np.array_equal(shifts.apply_shift(x, spec), shifts.apply_shift(x, spec))
        other = shifts.ShiftSpec("gaussian_noise", 3, seed=8)
        assert not np.array_equal(shifts.apply_shift(x, spec), shifts.apply_shift(x, other))

    def test_output_clipped(self):
        x = np.random.default_rng(5).random((1, 16, 16))
        out = shifts.apply_shift(x, shifts.ShiftSpec("gaussian_noise", 5, seed=0))
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("shape", [(), (16,)], ids=["rank0", "rank1"])
    @pytest.mark.parametrize("kind", shifts.KINDS)
    def test_input_without_a_trailing_grid_rejected(self, kind, shape):
        # pixelate and contrast raised numpy's errors on these, and blur
        # blurred the one axis of a 1-D input twice
        with pytest.raises(DimensionError, match=r"apply_shift: expected an input ending in \[H,W\]"):
            shifts.apply_shift(np.full(shape, 0.5), shifts.ShiftSpec(kind, 2, seed=1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            shifts.ShiftSpec("fog", 1)

    def test_bad_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            shifts.ShiftSpec("blur", 6)

    def test_identity_takes_a_severity_of_at_least_one(self):
        assert shifts.ShiftSpec("identity", 3).severity == 3
        with pytest.raises(ConfigurationError, match="severity must be >= 1, as an int; got 0"):
            shifts.ShiftSpec("identity", 0)

    @pytest.mark.parametrize("severity", [2.0, True, "2"])
    def test_severity_not_an_int_rejected(self, severity):
        with pytest.raises(ConfigurationError, match="severity must be >= 1, as an int"):
            shifts.ShiftSpec("blur", severity)

    def test_monotone_tables(self):
        t = shifts.SEVERITY_TABLES
        assert all(np.diff(t["gaussian_noise"]) > 0)
        assert all(np.diff(t["blur"]) > 0)
        assert all(np.diff(t["pixelate"]) > 0)
        assert all(np.diff(t["contrast"]) < 0)  # smaller factor = stronger shift


class TestSeverityTableExport:
    def test_json_round_trip(self):
        tables = shifts.SEVERITY_TABLES
        assert json.loads(json.dumps(tables)) == tables


class TestCrossDistribution:
    def test_same_config_same_distribution(self):
        # a train split from one world and a test split from its shifted
        # world: the same arguments give the same data, and at one seed the
        # two worlds give different data
        base = taskgen.SceneWorldConfig()
        moved = shifts.shifted_world(base)
        for world, seed in [(base, 0), (moved, 1)]:
            a = taskgen.gen_dense_regression(world, 10, seed)
            b = taskgen.gen_dense_regression(world, 10, seed)
            assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
        assert not np.array_equal(taskgen.gen_dense_regression(base, 10, 1).inputs,
                                  taskgen.gen_dense_regression(moved, 10, 1).inputs)

    def test_shifted_world_changes_ranges(self):
        base = taskgen.SceneWorldConfig()
        moved = shifts.shifted_world(base)
        assert moved.half_size_range != base.half_size_range
        assert moved.albedo_range != base.albedo_range
