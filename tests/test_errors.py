import functools
import pickle
import re

import numpy as np
import pytest

from rnaloop import autodiff as ad
from rnaloop import nets, presets, shifts, signals, taskgen
from rnaloop.errors import (ConfigurationError, ContractError, DimensionError, LabelRangeError, is_int,
                            is_real, need_int, need_labels, seeded)


class TestIntegerRule:
    @pytest.mark.parametrize("value", [0, 7, -3, 2**70, np.int64(7), np.uint8(7), np.int8(-3)])
    def test_integers_are_ints(self, value):
        assert is_int(value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, np.float64(2.0), "2", None, [2]])
    def test_other_values_are_not(self, value):
        assert not is_int(value)

    @pytest.mark.parametrize("value", [5, np.int64(5), np.uint8(5)])
    def test_need_int_returns_a_python_int(self, value):
        got = need_int("n", value, 5)
        assert type(got) is int and got == 5

    @pytest.mark.parametrize("value", [4, np.uint8(4), True, 5.0, "5", None])
    def test_need_int_refuses_small_or_non_integer_values(self, value):
        match = re.escape(f"n must be >= 5, as an int; got {value!r}")
        with pytest.raises(ConfigurationError, match=match):
            need_int("n", value, 5)

    def test_seeded_draws_as_default_rng_of_the_seed_sequence(self):
        a = seeded(np.uint8(9), 101, 2).random(4)
        b = np.random.default_rng(np.random.SeedSequence([9, 101, 2])).random(4)
        assert a.tobytes() == b.tobytes()
        assert seeded(9).random(4).tobytes() == np.random.default_rng(9).random(4).tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seeded_refuses_a_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be >= 0, as an int"):
            seeded(seed, 101)


class TestRealRule:
    @pytest.mark.parametrize("value", [0, 2.5, -3, 2**70, np.float64(0.1), np.int64(7), float("inf")])
    def test_reals_are_reals(self, value):
        assert is_real(value)

    @pytest.mark.parametrize("value", [
        pytest.param(10**400, id="past_float"), pytest.param(-(10**400), id="past_negative_float"),
        True, "1.0", None, 1j, [1.0]])
    def test_other_values_are_not(self, value):
        # an int past the float range raised a bare OverflowError where it was used
        assert not is_real(value)


class TestLabelRule:
    def test_int64_labels_come_back_uncopied(self):
        labels = np.array([0, 2, 1])
        assert need_labels("y", labels, (3,), 3) is labels

    @pytest.mark.parametrize("value", [[0, 2], np.array([0, 2], dtype=np.uint8), np.array([0, 2], dtype=np.int8)])
    def test_other_integers_become_int64(self, value):
        got = need_labels("y", value, (2,), 3)
        assert got.dtype == np.int64 and got.tolist() == [0, 2]

    def test_no_labels_pass(self):
        assert need_labels("y", np.zeros((0, 2), dtype=np.int64), (0, 2), 3).shape == (0, 2)

    @pytest.mark.parametrize("value", [[], ()])
    def test_an_empty_list_or_tuple_is_no_labels(self, value):
        # np.asarray([]) is float64, which was refused as not integer labels
        got = need_labels("y", value, (0,), 3)
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_an_empty_float_array_stays_refused(self):
        with pytest.raises(LabelRangeError, match="integer class labels, got dtype float64"):
            need_labels("y", np.zeros(0), (0,), 3)

    def test_unsigned_labels_past_int64_refused(self):
        with pytest.raises(LabelRangeError, match=r"y span \[0, 9223372036854775808\], out of range \[0, 3\)"):
            need_labels("y", np.array([0, 2**63], dtype=np.uint64), (2,), 3)

    def test_shape_is_checked_before_dtype(self):
        with pytest.raises(DimensionError, match=r"y: expected labels of shape \(2,\), got \(3,\)"):
            need_labels("y", [0.5, 0.5, 0.5], (2,), 3)


# ---------------------------------------------------------------------------
# every entry that takes an integer: numpy integers give the Python int's
# bits, and bools, floats, strings and None are refused as before
# ---------------------------------------------------------------------------

_TARGET = np.linspace(0.0, 1.0, 64).reshape(1, 8, 8)
_LABELS = np.arange(64).reshape(8, 8) % 3
_WORLD = taskgen.SceneWorldConfig(grid=16)


@functools.cache
def _cls_main():
    return presets.cls_main(0)


@functools.cache
def _index():
    ds = taskgen.gen_classification(presets.NUM_CLASSES, 24, proto_seed=0, seed=1)
    return ds.inputs[0], signals.build_embedding_index(_cls_main(), ds)


def _knn(k):
    image, index = _index()
    grouping = signals.make_coarse_grouping(presets.NUM_CLASSES, presets.NUM_COARSE)
    return signals.knn_coarse(image, index, k, grouping)


def _shift(severity=2, seed=3):
    spec = shifts.ShiftSpec("gaussian_noise", severity, seed)
    return spec, shifts.apply_shift(_TARGET, spec)


def _world(grid=16, low=1, high=4):
    world = taskgen.SceneWorldConfig(grid=grid, shapes_per_scene=(low, high))
    return world, taskgen.gen_dense_regression(world, 2, 0)


def _train(epochs=1, batch_size=2, seed=0):
    data = taskgen.gen_classification(presets.NUM_CLASSES, 4, 0, 0)
    return taskgen.train_main(presets.cls_main(0), data, epochs, 0.01, seed, batch_size)


def _cls_controller(in_channels=25, hidden=12, first_site=8, seed=1):
    cspec = nets.ControllerSpec("mlp", in_channels, (first_site, 16, 16), hidden)
    return nets.build_controller(cspec, _cls_main(), seed)


def _conv(pad):
    x = np.linspace(-1.0, 1.0, 2 * 36).reshape(1, 2, 6, 6)
    w = np.linspace(-0.5, 0.5, 3 * 2 * 9).reshape(3, 2, 3, 3)
    return ad.conv2d(ad.as_tensor(x), ad.as_tensor(w), 1, pad).array


# name: (an entry as a function of one integer argument, a valid value).
# Each refused a non-integer with ConfigurationError before numpy integers
# were taken, except the world's counts, the two builders' seeds,
# coarse_label's class and CoarseGrouping's num_coarse, which ran or failed
# inside numpy or Python.
_ENTRIES = {
    "masked_gt_seed": (lambda v: signals.masked_gt(_TARGET, 0.1, v), 3),
    "noisy_sparse_seed": (lambda v: signals.noisy_sparse(_TARGET, 0.1, 0.02, 0.05, v), 3),
    "clicks_per_class": (lambda v: signals.click_annotations(_LABELS, v, 0), 2),
    "clicks_seed": (lambda v: signals.click_annotations(_LABELS, 2, v), 3),
    "knn_k": (_knn, 5),
    "coarse_label": (lambda v: signals.coarse_label(v, signals.make_coarse_grouping(20, 5)), 7),
    "coarse_grouping_K": (lambda v: signals.make_coarse_grouping(v, 5), 20),
    "coarse_grouping_C": (lambda v: signals.make_coarse_grouping(20, v), 5),
    "coarse_grouping_num_coarse": (lambda v: signals.CoarseGrouping((0, 1, 1), v), 2),
    "shift_severity": (lambda v: _shift(severity=v), 2),
    "shift_seed": (lambda v: _shift(seed=v), 3),
    "world_grid": (lambda v: _world(grid=v), 16),
    "world_shapes_low": (lambda v: _world(low=v), 1),
    "world_shapes_high": (lambda v: _world(high=v), 4),
    "dense_regression_n": (lambda v: taskgen.gen_dense_regression(_WORLD, v, 0), 2),
    "dense_regression_seed": (lambda v: taskgen.gen_dense_regression(_WORLD, 2, v), 3),
    "dense_segmentation_n": (lambda v: taskgen.gen_dense_segmentation(_WORLD, v, 5, 0), 2),
    "dense_segmentation_K": (lambda v: taskgen.gen_dense_segmentation(_WORLD, 2, v, 0), 4),
    "dense_segmentation_seed": (lambda v: taskgen.gen_dense_segmentation(_WORLD, 2, 5, v), 3),
    "prototypes_K": (lambda v: taskgen.make_prototypes(v, 0), 4),
    "prototypes_seed": (lambda v: taskgen.make_prototypes(4, v), 3),
    "prototypes_grid": (lambda v: taskgen.make_prototypes(4, 0, v), 8),
    "classification_K": (lambda v: taskgen.gen_classification(v, 6, 0, 0), 3),
    "classification_n": (lambda v: taskgen.gen_classification(3, v, 0, 0), 6),
    "classification_proto_seed": (lambda v: taskgen.gen_classification(3, 6, v, 0), 3),
    "classification_seed": (lambda v: taskgen.gen_classification(3, 6, 0, v), 3),
    "classification_grid": (lambda v: taskgen.gen_classification(3, 6, 0, 0, v), 8),
    "train_epochs": (lambda v: _train(epochs=v), 1),
    "train_batch_size": (lambda v: _train(batch_size=v), 2),
    "train_seed": (lambda v: _train(seed=v), 3),
    "model_in_ch": (lambda v: nets.build_main(nets.ModelSpec("classification", v, 20, 16, 3), 0), 2),
    "model_out_ch": (lambda v: nets.build_main(nets.ModelSpec("classification", 1, v, 16, 3), 0), 7),
    "model_grid": (lambda v: nets.build_main(nets.ModelSpec("classification", 1, 20, v, 3), 0), 8),
    "model_film_k": (lambda v: nets.build_main(nets.ModelSpec("classification", 1, 20, 16, v), 0), 2),
    "build_main_seed": (lambda v: nets.build_main(nets.ModelSpec("classification", 1, 20, 16, 3), v), 3),
    "controller_in_channels": (lambda v: _cls_controller(in_channels=v), 25),
    "controller_hidden": (lambda v: _cls_controller(hidden=v), 12),
    "controller_film_channel": (lambda v: _cls_controller(first_site=v), 8),
    "build_controller_seed": (lambda v: _cls_controller(seed=v), 3),
    "conv2d_pad": (_conv, 1),
}


def _bits(out) -> bytes:
    """What an entry returns, as bytes. Pickle tells a numpy integer from a
    Python int; a network's thread-local pass cache does not pickle, so a
    network gives its spec and its parameter bytes."""
    if isinstance(out, tuple):
        return b"".join(_bits(o) for o in out)
    if isinstance(out, nets.Model):
        return pickle.dumps(out.spec) + out.params.state_bytes()
    if isinstance(out, nets.Controller):
        return pickle.dumps(out.cspec) + out.params.state_bytes()
    return pickle.dumps(out)


@pytest.mark.parametrize("to_numpy", [np.int64, np.uint8])
@pytest.mark.parametrize("entry", _ENTRIES)
def test_numpy_integers_give_the_python_ints_bits(entry, to_numpy):
    call, value = _ENTRIES[entry]
    assert _bits(call(to_numpy(value))) == _bits(call(value))


@pytest.mark.parametrize("bad", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
@pytest.mark.parametrize("entry", _ENTRIES)
def test_non_integers_refused(entry, bad):
    # coarse_label's class is a class label, which need_labels refuses
    # with LabelRangeError, as it refuses every label that is not an integer
    error, match = ((LabelRangeError, "must be integer class labels") if entry == "coarse_label"
                    else (ConfigurationError, "must be >= .*, as an int"))
    with pytest.raises(error, match=match):
        _ENTRIES[entry][0](bad)


def test_knn_k_outside_the_index_stays_a_contract_error():
    for k in (0, np.int64(0), np.uint8(25)):  # the index holds 24 items
        with pytest.raises(ContractError, match="need 1 <= k="):
            _knn(k)


def _numpy_main():
    spec = nets.ModelSpec("classification", np.int64(1), np.uint8(20), np.int64(16), np.uint8(3))
    return nets.build_main(spec, np.int64(5))


def _numpy_controller():
    cspec = nets.ControllerSpec("mlp", np.int64(25), tuple(np.array([8, 16, 16])), np.uint8(12))
    return nets.build_controller(cspec, _cls_main(), np.uint8(5))


@pytest.mark.parametrize("build, save, load", [
    (_numpy_main, nets.save_model, nets.load_model),
    (_numpy_controller, nets.save_controller, nets.load_controller),
], ids=["model", "controller"])
def test_spec_of_numpy_integers_saves_and_loads(tmp_path, build, save, load):
    # the spec keeps Python ints, so its JSON writes, and the file reads
    # back to the same spec (pickled, so an int's type shows) and values
    net = build()
    save(tmp_path / "net.rnl", net)
    again, _ = load(tmp_path / "net.rnl")
    assert _bits(again) == _bits(net)


# ---------------------------------------------------------------------------
# every entry that takes class labels checks them through need_labels: the
# shape, an integer dtype (bool is not one) and the range [0, K)
# ---------------------------------------------------------------------------


def _click_feedback(values):
    sig = signals.AdaptationSignal("clicks", np.asarray(values), np.ones((2, 2), dtype=bool))
    return signals.encode_feedback(np.zeros((3, 2, 2)), sig)


# name: (the entry as a function of its labels, their shape, the class
# count K, or None for click_annotations, whose class map has no count:
# encode_feedback checks the clicked classes against the prediction's)
_LABEL_ENTRIES = {
    "softmax_cross_entropy": (lambda v: ad.softmax_cross_entropy(ad.as_tensor(np.zeros((2, 4))), v), (2,), 4),
    "coarse_cross_entropy": (lambda v: ad.coarse_cross_entropy(ad.as_tensor(np.zeros((2, 4))), v,
                                                               np.array([0, 0, 1, 1])), (2,), 2),
    "masked_cross_entropy": (lambda v: ad.masked_cross_entropy(ad.as_tensor(np.zeros((1, 3, 2, 2))), v,
                                                               np.ones((1, 2, 2))), (1, 2, 2), 3),
    "embedding_index": (lambda v: signals.EmbeddingIndex(_cls_main(), np.ones((4, 8)), v), (4,),
                        presets.NUM_CLASSES),
    "click_feedback": (_click_feedback, (2, 2), 3),
    "click_annotations": (lambda v: signals.click_annotations(v, 1, 0), (2, 2), None),
    "coarse_label": (lambda v: signals.coarse_label(v, signals.make_coarse_grouping(20, 5)), (), 20),
    # one coarse class, so that any valid grouping is onto it
    "coarse_grouping": (lambda v: signals.CoarseGrouping(v, 1), (2,), 1),
}


def _bad_labels(kind, shape, classes):
    """(labels of the kind, the error need_labels raises for them, a
    pattern of its message or None)."""
    if kind == "half":
        return np.full(shape, 0.5), LabelRangeError, "must be integer class labels, got dtype float64"
    if kind == "bool":
        return np.ones(shape, dtype=bool), LabelRangeError, "must be integer class labels, got dtype bool"
    if kind == "wrong_shape":  # the entries word their own shape errors
        return np.zeros(shape + (1,), dtype=np.int64), DimensionError, None
    value = -1 if kind == "minus_one" else classes
    return np.full(shape, value), LabelRangeError, rf"span \[{value}, {value}\], out of range \[0, "


@pytest.mark.parametrize("entry, kind", [
    (entry, kind)
    for entry, (_, _, classes) in _LABEL_ENTRIES.items()
    for kind in ("half", "minus_one", "class_count", "bool", "wrong_shape")
    if not (kind == "class_count" and classes is None)
])
def test_bad_labels_refused(entry, kind):
    call, shape, classes = _LABEL_ENTRIES[entry]
    labels, error, match = _bad_labels(kind, shape, classes)
    with pytest.raises(error, match=match):
        call(labels)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
@pytest.mark.parametrize("entry", _LABEL_ENTRIES)
def test_integer_labels_of_the_last_class_taken(entry, dtype):
    call, shape, classes = _LABEL_ENTRIES[entry]
    call(np.full(shape, 1 if classes is None else classes - 1, dtype=dtype))
