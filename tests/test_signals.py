import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnaloop import autodiff as ad
from rnaloop import nets, presets, shifts, signals, taskgen
from rnaloop.errors import (ConfigurationError, ContractError, DimensionError, LabelRangeError,
                            RnaLoopError)


class TestMaskedGt:
    def test_dense_limit(self):
        target = np.random.default_rng(0).random((1, 8, 8))
        sig = signals.masked_gt(target, 1.0, seed=0)
        assert np.array_equal(sig.mask, np.ones((8, 8)))
        assert np.array_equal(sig.values, target[0])

    def test_pixel_count_rounding(self):
        target = np.random.default_rng(1).random((1, 32, 32))
        sig = signals.masked_gt(target, 0.005, seed=0)
        assert sig.mask.sum() == 5

    def test_minimum_one_pixel(self):
        target = np.random.default_rng(2).random((1, 32, 32))
        sig = signals.masked_gt(target, 1e-6, seed=0)
        assert sig.mask.sum() == 1

    def test_self_consistency_zero_loss(self):
        target = np.random.default_rng(3).random((1, 16, 16))
        sig = signals.masked_gt(target, 0.1, seed=4)
        loss = ad.masked_l1(
            ad.as_tensor(target[None]), ad.as_tensor(sig.values[None, None]), sig.mask[None]
        )
        assert loss.item() == 0.0

    @given(frac=st.floats(0.001, 1.0), seed=st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_density_contract(self, frac, seed):
        target = np.zeros((1, 16, 16))
        sig = signals.masked_gt(target, frac, seed)
        expect = max(1, round(frac * 256))
        assert abs(sig.mask.sum() - expect) <= 1

    def test_bad_fraction_rejected(self):
        for fraction in (0.0, "0.1", None):
            with pytest.raises(ConfigurationError, match="fraction"):
                signals.masked_gt(np.zeros((1, 8, 8)), fraction, seed=0)


class TestNoisySparse:
    def test_degenerate_noise_equals_masked_gt(self):
        target = np.random.default_rng(5).random((1, 16, 16))
        a = signals.masked_gt(target, 0.1, seed=6)
        b = signals.noisy_sparse(target, 0.1, 0.0, 0.0, seed=6)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.mask, b.mask)

    def test_residual_moment(self):
        target = np.random.default_rng(7).random((1, 128, 128)) * 0.5 + 0.25
        sig = signals.noisy_sparse(target, 1.0, noise_sigma=0.05, outlier_rate=0.0, seed=8)
        residual = (sig.values - target[0])[sig.mask > 0]
        assert residual.size >= 10_000
        assert abs(residual.std() - 0.05) / 0.05 < 0.10

    def test_paper_default_fraction_two_pixels(self):
        target = np.zeros((1, 32, 32))
        sig = signals.noisy_sparse(target, 0.0016, 0.01, 0.0, seed=9)
        assert sig.mask.sum() == 2  # round(0.0016 * 1024)

    def test_outliers_replace_values(self):
        target = np.full((1, 64, 64), 0.5)
        sig = signals.noisy_sparse(target, 1.0, 0.0, 0.5, seed=10)
        moved = np.abs(sig.values - 0.5) > 1e-9
        frac = moved.mean()
        assert 0.35 < frac < 0.65

    @pytest.mark.parametrize("noise_sigma,outlier_rate",
                             [(float("nan"), 0.0), (-0.1, 0.0), (0.0, float("nan")), (0.0, 1.5),
                              ("0.1", 0.0), (None, 0.0), (0.0, "0.1"), (0.0, None),
                              pytest.param(float("inf"), 0.0, id="inf_sigma"),
                              pytest.param(10**400, 0.1, id="sigma_past_float")])
    def test_bad_noise_rejected(self, noise_sigma, outlier_rate):
        # an infinite sigma gave a signal of infinite values, and 10**400 a
        # bare OverflowError
        with pytest.raises(ConfigurationError, match="noise_sigma"):
            signals.noisy_sparse(np.zeros((1, 8, 8)), 0.5, noise_sigma, outlier_rate, seed=0)


class TestClickAnnotations:
    def test_single_class_three_clicks(self):
        classes = np.zeros((16, 16), dtype=np.int64)
        sig = signals.click_annotations(classes, 3, seed=0)
        assert sig.mask.sum() == 3
        assert np.all(sig.values[sig.mask > 0] == 0)

    def test_saturation_marks_whole_class(self):
        classes = np.zeros((8, 8), dtype=np.int64)
        classes[:2, :2] = 3  # class 3 has 4 pixels
        sig = signals.click_annotations(classes, 25, seed=1)
        assert np.all(sig.mask[:2, :2] == 1.0)

    def test_per_class_counts(self):
        rng = np.random.default_rng(2)
        classes = rng.integers(0, 4, size=(32, 32))
        sig = signals.click_annotations(classes, 5, seed=3)
        for cls in range(4):
            on = (sig.mask > 0) & (classes == cls)
            assert on.sum() == 5

    def test_clicks_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            signals.click_annotations(np.zeros((4, 4), dtype=np.int64), 26, seed=0)


class TestCoarseGrouping:
    def test_contiguous_default_scale(self):
        g = signals.make_coarse_grouping(20, 5)
        arr = g.as_array()
        sizes = np.bincount(arr)
        assert np.all(sizes == 4)
        assert arr[7] == 1  # floor(7/4)

    def test_identity_grouping(self):
        g = signals.make_coarse_grouping(6, 6)
        assert g.as_array().tolist() == list(range(6))

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        g = signals.make_coarse_grouping(10, 3)
        sizes = np.bincount(g.as_array())
        assert sizes.max() - sizes.min() <= 1

    def test_surjective_and_nonempty(self):
        g = signals.make_coarse_grouping(20, 7)
        assert set(g.as_array().tolist()) == set(range(7))

    @pytest.mark.parametrize("K,C", [(0, 0), (1, 1), (5, 1), (5, 6)])
    def test_c_outside_two_to_k_rejected(self, K, C):
        with pytest.raises(ConfigurationError, match="2 <= C <= K|[KC] must be >= 2, as an int"):
            signals.make_coarse_grouping(K, C)

    @pytest.mark.parametrize("K,C", [(5.0, 2), (5, 2.0), (True, 2), (5, "2")])
    def test_counts_not_ints_rejected(self, K, C):
        with pytest.raises(ConfigurationError, match="[KC] must be >= 2, as an int"):
            signals.make_coarse_grouping(K, C)

    def test_array_grouping_kept_as_a_hashable_tuple_of_ints(self):
        g = signals.CoarseGrouping(np.array([0, 1, 1], dtype=np.uint8), np.int64(2))
        same = signals.CoarseGrouping((0, 1, 1), 2)
        assert g == same and hash(g) == hash(same)
        assert all(type(c) is int for c in g.group_of_fine) and type(g.num_coarse) is int

    @pytest.mark.parametrize("groups, num_coarse, error, match", [
        pytest.param((0, 1), 2.0, ConfigurationError, "num_coarse must be >= 1, as an int", id="float_count"),
        pytest.param((0, 1.0), 2, LabelRangeError, "group_of_fine must be integer class labels", id="float_group"),
        pytest.param((0, 2), 2, LabelRangeError, r"group_of_fine span \[0, 2\], out of range \[0, 2\)",
                     id="group_out_of_range"),
        pytest.param(np.int64(0), 1, DimensionError, "group_of_fine: expected labels", id="rank0"),
        pytest.param(((0, 1), (1, 0)), 2, DimensionError, "group_of_fine: expected labels", id="rank2"),
        pytest.param((0, 0), 2, ConfigurationError, "surjective", id="not_onto"),
        pytest.param((), 1, ConfigurationError, "surjective", id="empty_tuple"),
        pytest.param([], 1, ConfigurationError, "surjective", id="empty_list"),
    ])
    def test_malformed_grouping_rejected(self, groups, num_coarse, error, match):
        # a float count raised a bare TypeError; a float group built, and
        # coarse_label then raised a bare IndexError
        with pytest.raises(error, match=match):
            signals.CoarseGrouping(groups, num_coarse)


class TestCoarseLabel:
    def test_identity_grouping_equals_fine_one_hot(self):
        g = signals.make_coarse_grouping(5, 5)
        sig = signals.coarse_label(3, g)
        expect = np.zeros(5)
        expect[3] = 1.0
        assert np.array_equal(sig.values, expect)

    def test_contiguous_example(self):
        g = signals.make_coarse_grouping(20, 5)
        sig = signals.coarse_label(7, g)
        assert sig.values.argmax() == 1
        assert sig.values.sum() == 1.0

    @pytest.mark.parametrize("y_fine", [-1, 20, 99])
    def test_fine_class_out_of_range_rejected(self, y_fine):
        match = rf"fine class span \[{y_fine}, {y_fine}\], out of range \[0, 20\)"
        with pytest.raises(LabelRangeError, match=match):
            signals.coarse_label(y_fine, signals.make_coarse_grouping(20, 5))

    def test_marginalization_two_ways(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=20)
        g = signals.make_coarse_grouping(20, 5)
        probs = ad.softmax(logits)
        for coarse in range(5):
            direct = probs[g.as_array() == coarse].sum()
            via_loss = np.exp(-ad.coarse_cross_entropy(
                ad.as_tensor(logits[None]), [coarse], g.as_array()
            ).item())
            assert abs(direct - via_loss) < 1e-12


# The identity grouping, one coarse class per fine class: its histogram is
# the fine-label histogram.
FINE = signals.make_coarse_grouping(presets.NUM_CLASSES, presets.NUM_CLASSES)


class TestKnnCoarse:
    @pytest.fixture(scope="class")
    def setup(self):
        model = presets.cls_main(seed=0)
        ds = taskgen.gen_classification(presets.NUM_CLASSES, 500, proto_seed=0, seed=1)
        index = signals.build_embedding_index(model, ds)
        return model, ds, index

    def test_self_retrieval(self, setup):
        _, ds, index = setup
        sig = signals.knn_coarse(ds.inputs[17], index, 1, FINE)
        assert sig.values.argmax() == ds.targets[17]
        assert sig.values.max() == 1.0

    def test_matches_brute_force(self, setup):
        model, ds, index = setup
        img = ds.inputs[123]
        emb = signals.classifier_embedding(model, img[None])[0]
        emb = emb / np.linalg.norm(emb)
        all_emb = []
        for i in range(500):
            e = signals.classifier_embedding(model, ds.inputs[i : i + 1])[0]
            all_emb.append(e / np.linalg.norm(e))
        sims = np.array([float(e @ emb) for e in all_emb])
        top = np.argsort(-sims, kind="stable")[:20]
        hist = np.bincount(ds.targets[top], minlength=presets.NUM_CLASSES) / 20
        sig = signals.knn_coarse(img, index, 20, FINE)
        assert np.allclose(sig.values, hist, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 7, 20, 41])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_ties_resolve_like_a_stable_sort(self, setup, k, grouped):
        # every embedding appears five times with different labels, so the
        # k-th similarity is tied and the cut falls inside a tied run
        model, ds, index = setup
        rows = np.repeat(index.embeddings[:60], 5, axis=0)
        labels = np.arange(len(rows)) % presets.NUM_CLASSES
        tied = signals.EmbeddingIndex(model, rows, labels)
        g = signals.make_coarse_grouping(presets.NUM_CLASSES, 5) if grouped else FINE
        img = ds.inputs[11]
        sig = signals.knn_coarse(img, tied, k, g)

        emb = signals.classifier_embedding(model, img[None])[0]
        emb = emb / max(np.linalg.norm(emb), 1e-12)
        top = np.argsort(-(tied.embeddings @ emb), kind="stable")[:k]
        picked = g.as_array()[tied.labels[top]]
        hist = np.bincount(picked, minlength=g.num_coarse).astype(float)
        assert sig.values.tobytes() == (hist / hist.sum()).tobytes()

    def test_nan_similarity_rejected(self, setup):
        model, ds, index = setup
        rows = index.embeddings.copy()
        rows[4] = np.nan
        with pytest.raises(ContractError, match="NaN"):
            signals.knn_coarse(ds.inputs[0], signals.EmbeddingIndex(model, rows, index.labels), 20, FINE)

    def test_k_below_one_rejected(self, setup):
        _, ds, index = setup
        with pytest.raises(ContractError):
            signals.knn_coarse(ds.inputs[0], index, 0, FINE)

    def test_with_grouping(self, setup):
        _, ds, index = setup
        g = signals.make_coarse_grouping(presets.NUM_CLASSES, 5)
        sig = signals.knn_coarse(ds.inputs[9], index, 7, g)
        assert sig.values.shape == (5,)
        assert abs(sig.values.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("fine", [10, 25])
    def test_grouping_of_other_class_count_rejected(self, setup, fine):
        # a grouping of fewer classes than the index model's would index past
        # its table; one of more would give a histogram of the wrong classes
        _, ds, index = setup
        g = signals.make_coarse_grouping(fine, 5)
        with pytest.raises(ContractError, match=f"grouping covers {fine} fine classes.*has 20"):
            signals.knn_coarse(ds.inputs[9], index, 7, g)

    def test_k_exceeding_index_rejected(self, setup):
        _, ds, index = setup
        with pytest.raises(ContractError):
            signals.knn_coarse(ds.inputs[0], index, 501, FINE)

    def test_empty_index_rejected(self, setup):
        model, ds, _ = setup
        with pytest.raises(ContractError):
            signals.EmbeddingIndex(model, np.zeros((0, 4)), np.zeros(0, dtype=np.int64))

    def test_index_of_no_images_rejected(self, setup):
        # used to fail with numpy's bare ValueError from the flatten layer
        model, ds, _ = setup
        empty = taskgen.Dataset(ds.task_kind, ds.inputs[:0], ds.targets[:0])
        with pytest.raises(ContractError, match="empty"):
            signals.build_embedding_index(model, empty)

    @pytest.mark.parametrize("shape", [(3,), (4, 0), (2, 2, 2)], ids=["one_axis", "no_column", "three_axes"])
    def test_embeddings_not_rows_rejected(self, shape):
        # a one-axis array used to fail with numpy's bare AxisError from the norm
        model = presets.cls_main(0)
        with pytest.raises(DimensionError, match=r"\[N, D\] embeddings"):
            signals.EmbeddingIndex(model, np.ones(shape), np.zeros(shape[0], dtype=np.int64))

    def test_labels_outside_the_model_classes_rejected(self):
        # 25 classes of data on a 20-class model: the index used to build,
        # and knn_coarse then failed with a bare IndexError
        model = presets.cls_main(0)
        ds = taskgen.gen_classification(25, 50, 0, 1)
        with pytest.raises(LabelRangeError, match=r"index labels span \[0, 24\], out of range \[0, 20\)"):
            signals.build_embedding_index(model, ds)

    @pytest.mark.parametrize("labels, error", [
        (np.arange(4) - 1, LabelRangeError),
        (np.zeros(3, dtype=np.int64), DimensionError),
        (np.zeros((4, 1), dtype=np.int64), DimensionError),
        (np.zeros(4), LabelRangeError),
        (np.zeros(4, dtype=bool), LabelRangeError),
    ], ids=["negative", "one_short", "not_one_per_row", "float", "bool"])
    def test_labels_not_one_class_per_embedding_rejected(self, setup, labels, error):
        # a label array of the wrong shape is a DimensionError, as for every label input
        model, _, index = setup
        with pytest.raises(error):
            signals.EmbeddingIndex(model, index.embeddings[:4], labels)

    def test_model_without_flatten_rejected(self):
        unet = presets.dense_main(seed=0)
        images = np.zeros((2, 1, 32, 32))
        with pytest.raises(ConfigurationError, match="no flatten layer"):
            signals.classifier_embedding(unet, images)
        ds = taskgen.Dataset("dense_regression", images, np.zeros((2, 1, 32, 32)))
        with pytest.raises(ConfigurationError, match="no flatten layer"):
            signals.build_embedding_index(unet, ds)

    def test_embedding_of_one_unbatched_sample_rejected(self, setup):
        model, ds, _ = setup
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            signals.classifier_embedding(model, ds.inputs[0])


class TestEncodeFeedback:
    def test_dense_shape_contract(self):
        pred = np.random.default_rng(5).random((1, 32, 32))
        sig = signals.masked_gt(np.random.default_rng(6).random((1, 32, 32)), 0.01, 0)
        fb = signals.encode_feedback(pred, sig)
        assert fb.shape == (3, 32, 32)
        assert np.array_equal(fb[0], pred[0])

    def test_zero_mask_channels(self):
        pred = np.zeros((1, 8, 8))
        sig = signals.AdaptationSignal("masked_gt", np.zeros((8, 8)), np.zeros((8, 8)))
        fb = signals.encode_feedback(pred, sig)
        assert np.all(fb[1] == 0) and np.all(fb[2] == 0)

    def test_signal_injectivity(self):
        pred = np.random.default_rng(7).random((1, 16, 16))
        target = np.random.default_rng(8).random((1, 16, 16))
        a = signals.masked_gt(target, 0.05, seed=1)
        b = signals.masked_gt(target, 0.05, seed=2)
        fa = signals.encode_feedback(pred, a)
        fb = signals.encode_feedback(pred, b)
        assert not np.array_equal(fa, fb)

    def test_classification_encoding(self):
        logits = np.random.default_rng(9).normal(size=20)
        g = signals.make_coarse_grouping(20, 5)
        sig = signals.coarse_label(11, g)
        fb = signals.encode_feedback(logits, sig)
        assert fb.shape == (25,)
        assert abs(fb[:20].sum() - 1.0) < 1e-12

    def test_clicks_encoding(self):
        logits = np.random.default_rng(10).normal(size=(5, 16, 16))
        classes = np.random.default_rng(11).integers(0, 5, size=(16, 16))
        sig = signals.click_annotations(classes, 3, seed=0)
        fb = signals.encode_feedback(logits, sig)
        assert fb.shape == (11, 16, 16)
        ys, xs = np.nonzero(sig.mask)
        for y, x in zip(ys, xs):
            assert fb[5 + classes[y, x], y, x] == 1.0

    @pytest.mark.parametrize("batched", [False, True])
    def test_signal_map_of_another_size_rejected(self, batched):
        pred = np.zeros((1, 8, 8))
        dense = signals.masked_gt(np.zeros((1, 16, 16)), 0.1, seed=0)
        clicks = signals.click_annotations(np.zeros((16, 16), dtype=np.int64), 2, seed=0)
        for p, sig in [(pred, dense), (np.zeros((3, 8, 8)), clicks)]:
            with pytest.raises(DimensionError, match=r"\(16, 16\).*prediction's \[H,W\] \(8, 8\)"):
                if batched:
                    signals.encode_feedback(p[None], [sig])
                else:
                    signals.encode_feedback(p, sig)
        mask_only = signals.AdaptationSignal("noisy_sparse", np.zeros((8, 8)), np.zeros((8, 9)))
        with pytest.raises(DimensionError, match=r"mask \(8, 9\)"):
            signals.encode_feedback(pred, mask_only)

    @pytest.mark.parametrize("kind, pred", [("masked_gt", np.zeros((1, 8, 8))),
                                            ("noisy_sparse", np.zeros((1, 8, 8))),
                                            ("clicks", np.zeros((3, 8, 8)))])
    def test_spatial_signal_without_mask_rejected(self, kind, pred):
        sig = signals.AdaptationSignal(kind, np.zeros((8, 8), dtype=np.int64))
        with pytest.raises(DimensionError, match="mask None"):
            signals.encode_feedback(pred, sig)

    def test_batch_encoding(self):
        preds = np.random.default_rng(12).random((3, 1, 8, 8))
        target = np.random.default_rng(13).random((1, 8, 8))
        sigs = [signals.masked_gt(target, 0.1, seed=i) for i in range(3)]
        fb = signals.encode_feedback(preds, sigs)
        assert fb.shape == (3, 3, 8, 8)
        for i in range(3):
            assert np.array_equal(fb[i], signals.encode_feedback(preds[i], sigs[i]))

    @pytest.mark.parametrize("pred, signal_count, match", [
        (np.zeros((0, 1, 8, 8)), 0, "0 predictions vs 0 signals; a batch needs"),
        (np.zeros((2, 1, 8, 8)), 1, "2 predictions vs 1 signals; a batch needs"),
        (np.float64(1.0), 0, "a prediction of rank 0"),
    ], ids=["empty", "counts_disagree", "scalar"])
    def test_batch_count_checked(self, pred, signal_count, match):
        # an empty batch raised numpy's bare ValueError from np.stack, and a
        # scalar prediction a bare IndexError
        sig = signals.masked_gt(np.zeros((1, 8, 8)), 0.1, seed=0)
        with pytest.raises(DimensionError, match=match):
            signals.encode_feedback(pred, [sig] * signal_count)

    def test_bool_mask_gives_the_float_mask_bits(self):
        rng = np.random.default_rng(14)
        dense = signals.noisy_sparse(rng.random((1, 8, 8)), 0.2, 0.02, 0.1, seed=3)
        clicks = signals.click_annotations(rng.integers(0, 3, size=(8, 8)), 2, seed=4)
        for pred, sig in [(rng.random((1, 8, 8)), dense), (rng.normal(size=(3, 8, 8)), clicks)]:
            assert sig.mask.dtype == bool
            as_float = signals.AdaptationSignal(sig.kind, sig.values, sig.mask.astype(float))
            for p, a, b in [(pred, sig, as_float), (pred[None], [sig], [as_float])]:
                got, want = signals.encode_feedback(p, a), signals.encode_feedback(p, b)
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()


def _knn_at_k(k):
    model = presets.cls_main(seed=0)
    ds = taskgen.gen_classification(presets.NUM_CLASSES, 40, proto_seed=0, seed=1)
    return signals.knn_coarse(ds.inputs[0], signals.build_embedding_index(model, ds), k, FINE)


_LABELS = np.arange(64).reshape(8, 8) % 3
_TARGET = np.linspace(0.0, 1.0, 64).reshape(1, 8, 8)


@pytest.mark.parametrize("call", [
    lambda: shifts.ShiftSpec("gaussian_noise", 2, seed=1.5),
    lambda: shifts.ShiftSpec("gaussian_noise", 2, seed=-1),
    lambda: signals.masked_gt(_TARGET, 0.1, -1),
    lambda: signals.noisy_sparse(_TARGET, 0.1, 0.02, 0.05, -1),
    lambda: signals.click_annotations(_LABELS, 2.0, 0),
    lambda: nets.ControllerSpec("conv", 3, (2.0,)),
    lambda: _knn_at_k(2.5),
    lambda: _knn_at_k("5"),
    lambda: _knn_at_k(None),
], ids=["shift_seed_float", "shift_seed_negative", "masked_gt_seed_negative",
        "noisy_sparse_seed_negative", "clicks_float", "film_channels_float", "knn_k_float",
        "knn_k_str", "knn_k_none"])
def test_seeds_and_counts_checked_at_entry(call):
    # each fails at entry with a package error, not inside numpy
    with pytest.raises(RnaLoopError, match="must be >= .*, as an int"):
        call()
