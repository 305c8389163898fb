import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnaloop import autodiff as ad
from rnaloop.errors import (
    ConfigurationError,
    ContractError,
    DegenerateSupervisionError,
    DimensionError,
    LabelRangeError,
)

from oracles import (
    avgpool2_loops,
    central_fd,
    conv2d_loops,
    entropy_mp,
    film_loops,
    matmul_loops,
    max_rel_err,
    softmax_ce_mp,
    upsample2_loops,
)


def t(x):
    return ad.as_tensor(np.asarray(x, dtype=np.float64))


# (stride, pad, k) for a 7x5 input: every combination conv2d accepts, stride 1
# with 0 <= pad <= k-1, up to pad 2.
CONV_GRID = [(1, p, k) for p in (0, 1, 2) for k in (1, 3, 5) if p < k]


class TestMatmul:
    def test_identity(self):
        a = np.eye(2)
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(t(a), t(b))
        assert np.array_equal(out.array, b)

    def test_hand_1x1(self):
        out = ad.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert out.array.shape == (1, 1)
        assert out.array[0, 0] == 11.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        out = ad.matmul(t(a), t(b)).array
        assert np.max(np.abs(out - matmul_loops(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


class TestConv2d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 6, 6))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = ad.conv2d(t(x), t(w), stride=1, pad=1)
        assert np.array_equal(out.array, x)

    def test_ones_kernel_counts_interior(self):
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        out = ad.conv2d(t(x), t(w), stride=1, pad=1).array[0]
        assert np.all(out[0, 1:3, 1:3] == 9.0)
        assert out[0, 0, 0] == 4.0  # corner sees a 2x2 patch

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 2, 3, 3))
        x8 = rng.normal(size=(2, 8, 8))
        for pad in (0, 1):
            out = ad.conv2d(t(x8[None]), t(w), stride=1, pad=pad).array[0]
            ref = conv2d_loops(x8, w, stride=1, pad=pad)
            assert np.max(np.abs(out - ref)) < 1e-12
        xb = rng.normal(size=(2, 2, 7, 5))
        for stride, pad, k in CONV_GRID:
            wk = rng.normal(size=(3, 2, k, k))
            out = ad.conv2d(t(xb), t(wk), stride=stride, pad=pad).array
            for n in range(2):
                ref = conv2d_loops(xb[n], wk, stride=stride, pad=pad)
                assert np.max(np.abs(out[n] - ref)) < 1e-12, (stride, pad, k)

    @pytest.mark.parametrize("several", [False, True])  # a batch of two, or of one
    @pytest.mark.parametrize("stride,pad,k", CONV_GRID)
    def test_gradients_finite_difference(self, stride, pad, k, several):
        rng = np.random.default_rng(100 * stride + 10 * pad + k)
        x = rng.normal(size=(2 if several else 1, 2, 7, 5))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        r = rng.normal(size=ad.conv2d(t(x), t(w), stride, pad).shape)

        # without a bias, then with a fused bias (gradients for x, kernel and bias)
        for arrs in ([x, w], [x, w, b]):
            def loss(ts):
                return ad.sum_all(ad.mul(ad.conv2d(ts[0], ts[1], stride, pad, *ts[2:]), t(r)))

            with ad.Tape() as tape:
                leaves = [tape.leaf(a) for a in arrs]
                ad.backward(loss(leaves))
            for arr, leaf in zip(arrs, leaves):
                fd = central_fd(lambda: loss([t(a) for a in arrs]).item(), arr)
                assert max_rel_err(tape.grad(leaf), fd) < 1e-7, len(arrs)

    @pytest.mark.parametrize("several", [False, True])  # a batch of two, or of one
    def test_fused_bias_equals_add_bias_bitwise(self, several):
        # Unfused, the bias is added by film with unit gamma: 1.0 * x is x,
        # and the beta gradient sums over N, H and W as the fused one does.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2 if several else 1, 2, 7, 5))
        for stride, pad, k in CONV_GRID:
            w, b = rng.normal(size=(3, 2, k, k)), rng.normal(size=3)
            r = rng.normal(size=ad.conv2d(t(x), t(w), stride, pad).shape)
            runs = []
            for fused in (True, False):
                with ad.Tape() as tape:
                    xt, wt, bt = (tape.leaf(a) for a in (x, w, b))
                    if fused:
                        out = ad.conv2d(xt, wt, stride, pad, bias=bt)
                    else:
                        out = ad.film(ad.conv2d(xt, wt, stride, pad), t(np.ones(3)), bt)
                    ad.backward(ad.sum_all(ad.mul(out, t(r))))
                runs.append([out.array] + [tape.grad(lt) for lt in (xt, wt, bt)])
            for fused, unfused in zip(*runs):
                assert fused.shape == unfused.shape
                assert fused.tobytes() == unfused.tobytes(), (stride, pad, k)

    def test_bias_shape_checked(self):
        with pytest.raises(DimensionError, match="bias"):
            ad.conv2d(t(np.zeros((1, 1, 4, 4))), t(np.zeros((2, 1, 3, 3))), 1, 1, bias=t(np.zeros(3)))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        xb = rng.normal(size=(4, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        out = ad.conv2d(t(xb), t(w), stride=1, pad=1).array
        for n in range(4):
            single = ad.conv2d(t(xb[n : n + 1]), t(w), stride=1, pad=1).array
            assert np.array_equal(out[n], single[0])

    # [N,C,H,W] input into 8 channels, 3x3 at pad 1: the first batch's row
    # matrix (5.0 MB) is over the budget, so it goes one image at a time, the
    # second's (0.4 MB) under, so it goes whole. Over it, the batch also goes
    # through once as one chunk, with the budget lifted, and must give the
    # bits of the chunks of one image.
    @pytest.mark.parametrize("shape, over", [((8, 24, 32, 32), True), ((8, 8, 16, 16), False)])
    def test_batch_equals_its_images_bit_for_bit(self, shape, over, monkeypatch):
        assert ad._chunk(shape, 3, 1) == (1 if over else shape[0])
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        w = rng.normal(size=(8, shape[1], 3, 3))
        r = rng.normal(size=(shape[0], 8) + shape[2:])

        def run(xs, rs):
            with ad.Tape() as tape:
                xt, wt = tape.leaf(xs), tape.leaf(w)
                out = ad.conv2d(xt, wt, 1, 1)
                ad.backward(ad.sum_all(ad.mul(out, t(rs))))
            return out.array, tape.grad(xt), tape.grad(wt)

        out, gx, gw = run(x, r)
        if over:
            with monkeypatch.context() as m:
                m.setattr(ad, "_ROWS_BUDGET", 1 << 62)
                assert ad._chunk(shape, 3, 1) == shape[0]
                batched = run(x, r)
            for a, b in zip(batched, (out, gx, gw)):
                assert a.tobytes() == b.tobytes()
        gw_sum = None
        for i in range(shape[0]):
            out_i, gx_i, gw_i = run(x[i : i + 1], r[i : i + 1])
            assert out[i].tobytes() == out_i[0].tobytes()
            assert gx[i].tobytes() == gx_i[0].tobytes()
            gw_sum = gw_i if gw_sum is None else gw_sum + gw_i
        assert gw.tobytes() == gw_sum.tobytes()

    @pytest.mark.parametrize("k, pad", [(1, 0), (3, 1)])
    def test_empty_batch_is_one_empty_chunk(self, k, pad):
        assert ad._chunk((0, 2, 5, 5), k, pad) == 1
        with ad.Tape() as tape:
            xt, wt, bt = (tape.leaf(a) for a in (np.zeros((0, 2, 5, 5)), np.ones((3, 2, k, k)), np.ones(3)))
            out = ad.conv2d(xt, wt, 1, pad, bias=bt)
            ad.backward(ad.sum_all(out))
        assert out.shape == (0, 3, 5, 5) and tape.grad(xt).shape == (0, 2, 5, 5)
        assert not tape.grad(wt).any() and not tape.grad(bt).any()

    # (input H=W, k, stride, pad) that conv2d refuses at entry
    @pytest.mark.parametrize("size, k, stride, pad", [
        pytest.param(6, 3, 2, 0, id="stride_2"),
        pytest.param(6, 3, 1, -1, id="negative_pad"),
        pytest.param(6, 1, 1, 1, id="pad_k_1"),
        pytest.param(6, 3, 1, 3, id="pad_k_3"),
        pytest.param(2, 5, 1, 0, id="output_under_a_pixel"),
    ])
    def test_unsupported_geometry_rejected(self, size, k, stride, pad):
        x, w = t(np.zeros((1, 1, size, size))), t(np.zeros((1, 1, k, k)))
        with pytest.raises(ConfigurationError, match="stride 1"):
            ad.conv2d(x, w, stride, pad)


class TestResampling:
    """avgpool2/upsample2 against loop oracles and, bit for bit, against the
    6-D reshape and ``np.repeat`` expressions they replace."""

    SHAPES = [(1, 8, 32, 32), (2, 16, 16, 16), (3, 24, 8, 8), (2, 5, 6, 4), (1, 3, 4, 4), (2, 3, 6, 2)]

    @staticmethod
    def block_sum(v):
        n, c, h, w = v.shape
        return v.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))

    @staticmethod
    def repeat2(v):
        return np.repeat(np.repeat(v, 2, axis=2), 2, axis=3)

    @pytest.mark.parametrize("several", [False, True])  # each shape's batch, or its first sample
    def test_against_loop_oracles(self, several):
        rng = np.random.default_rng(30)
        for shape in self.SHAPES:
            x = rng.normal(size=shape)
            x = x if several else x[:1]
            pooled = ad.avgpool2(t(x)).array
            upsampled = ad.upsample2(t(x)).array
            for n in range(len(x)):
                assert np.max(np.abs(pooled[n] - avgpool2_loops(x[n]))) < 1e-15
                assert np.array_equal(upsampled[n], upsample2_loops(x[n]))

    @pytest.mark.parametrize("several", [False, True])  # each shape's batch, or its first sample
    def test_bitwise_equal_to_reshape_expressions(self, several):
        # Width 2 is left out: there numpy coalesces each 2x2 block into one
        # run of 4 and adds it left to right, so the last bit can differ.
        rng = np.random.default_rng(31)
        for shape in [s for s in self.SHAPES if s[3] > 2]:
            x = rng.normal(size=shape)
            small = rng.normal(size=shape[:2] + (shape[2] // 2, shape[3] // 2))
            if not several:
                x, small = x[:1], small[:1]
            with ad.Tape() as tape:
                xt, st_ = tape.leaf(x), tape.leaf(small)
                pooled, upsampled = ad.avgpool2(xt), ad.upsample2(st_)
                gp, gu = rng.normal(size=pooled.shape), rng.normal(size=upsampled.shape)
                ad.backward(ad.add(ad.sum_all(ad.mul(pooled, t(gp))), ad.sum_all(ad.mul(upsampled, t(gu)))))
            n = len(x)
            expected = [
                (pooled.array, x.reshape(n, shape[1], shape[2] // 2, 2, shape[3] // 2, 2).mean(axis=(3, 5))),
                (upsampled.array, self.repeat2(small)),
                (tape.grad(xt), self.repeat2(gp) * 0.25),
                (tape.grad(st_), self.block_sum(gu)),
            ]
            for got, want in expected:
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), shape

    def test_odd_size_and_rank_rejected(self):
        with pytest.raises(DimensionError, match="odd"):
            ad.avgpool2(t(np.zeros((1, 1, 3, 4))))
        with pytest.raises(DimensionError):
            ad.upsample2(t(np.zeros((4, 4))))


class TestFilm:
    def test_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 5, 5))
        out = ad.film(t(x), t(np.ones(3)), t(np.zeros(3)))
        assert np.array_equal(out.array, x)

    def test_constant_case(self):
        x = np.random.default_rng(5).normal(size=(1, 3, 4, 4))
        b = np.array([1.0, -2.0, 0.5])
        out = ad.film(t(x), t(np.zeros(3)), t(b)).array
        for c in range(3):
            assert np.all(out[0, c] == b[c])

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6, 6))
        g = rng.normal(size=4)
        b = rng.normal(size=4)
        out = ad.film(t(x[None]), t(g), t(b)).array[0]
        assert np.max(np.abs(out - film_loops(x, g, b))) < 1e-15

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.film(t(np.zeros((1, 3, 2, 2))), t(np.ones(4)), t(np.zeros(4)))

    def test_per_sample_params(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 4, 4))
        g = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        out = ad.film(t(x), t(g), t(b)).array
        for n in range(2):
            assert np.allclose(out[n], film_loops(x[n], g[n], b[n]), atol=1e-15)

    @given(
        c=st.integers(1, 4),
        h=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_identity_property(self, c, h, seed):
        x = np.random.default_rng(seed).normal(size=(1, c, h, h))
        out = ad.film(t(x), t(np.ones(c)), t(np.zeros(c)))
        assert np.array_equal(out.array, x)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        out = ad.softmax_cross_entropy(t(np.zeros((1, 4))), [2])
        assert abs(out.item() - math.log(4)) < 1e-12

    def test_near_certain(self):
        out = ad.softmax_cross_entropy(t([[10.0, -10.0]]), [0])
        assert abs(out.item() - 2.061153622438558e-09) < 1e-15

    def test_against_extended_precision(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(scale=3.0, size=10)
        got = ad.softmax_cross_entropy(t(logits[None]), [7]).item()
        assert abs(got - softmax_ce_mp(logits, 7)) < 1e-10

    def test_large_logits_stable(self):
        out = ad.softmax_cross_entropy(t([[1000.0, 999.0]]), [0])
        assert np.isfinite(out.item())

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(t(np.zeros((1, 4))), [4])


def test_label_out_of_range_is_a_label_range_error():
    logits = t(np.zeros((1, 4)))
    for call in (lambda: ad.softmax_cross_entropy(logits, [-1]),
                 lambda: ad.coarse_cross_entropy(logits, [2], np.array([0, 0, 1, 1])),
                 lambda: ad.masked_cross_entropy(t(np.zeros((1, 4, 2, 2))), np.full((1, 2, 2), 4),
                                                 np.ones((1, 2, 2)))):
        with pytest.raises(LabelRangeError, match="out of range"):
            call()


@pytest.mark.parametrize("loss", ["masked_l1", "masked_cross_entropy"])
def test_bool_mask_gives_the_float_mask_bits(loss):
    rng = np.random.default_rng(13)
    mask = rng.random((2, 5, 5)) < 0.4
    if loss == "masked_l1":
        x, target = rng.normal(size=(2, 1, 5, 5)), rng.normal(size=(2, 1, 5, 5))
        call = lambda p, m: ad.masked_l1(p, target, m)
    else:
        x, target = rng.normal(size=(2, 3, 5, 5)), rng.integers(0, 3, size=(2, 5, 5))
        call = lambda p, m: ad.masked_cross_entropy(p, target, m)
    runs = []
    for m in (mask, mask.astype(float)):
        with ad.Tape() as tape:
            pred = tape.leaf(x)
            out = call(pred, m)
            ad.backward(out)
        runs.append((out.array.tobytes(), tape.grad(pred).tobytes()))
    assert runs[0] == runs[1]


class TestMaskedCrossEntropy:
    @staticmethod
    def meshgrid_form(x, labels, mask):
        """Loss and logits gradient of the op, gathered and scattered through
        three [N,H,W] index grids."""
        p = ad.softmax(x, axis=1)
        n, h, w = np.meshgrid(*(np.arange(x.shape[i]) for i in (0, 2, 3)), indexing="ij")
        mk = mask.astype(float)
        loss = np.asarray(float(-(np.log(p[n, labels, h, w]) * mk).sum() / mk.sum()))
        gl = p.copy()
        gl[n, labels, h, w] -= 1.0
        gl *= mk[:, None] / mk.sum()
        return loss, gl

    @pytest.mark.parametrize("shape", [(8, 5, 32, 32), (2, 3, 5, 7), (1, 2, 1, 1)])
    def test_loss_and_gradient_bits_equal_the_meshgrid_form(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * 3
        n, k, h, w = shape
        labels = rng.integers(0, k, size=(n, h, w))
        mask = rng.random((n, h, w)) < 0.6
        mask.flat[0] = True
        with ad.Tape() as tape:
            logits = tape.leaf(x)
            out = ad.masked_cross_entropy(logits, labels, mask)
            ad.backward(out)
        loss, gl = self.meshgrid_form(x, labels, mask)
        assert out.array.tobytes() == loss.tobytes()
        assert tape.grad(logits).tobytes() == gl.tobytes()

    def test_backward_keeps_no_index_grid(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, size=(8, 32, 32))
        with ad.Tape() as tape:
            out = ad.masked_cross_entropy(tape.leaf(rng.normal(size=(8, 5, 32, 32))), labels,
                                          np.ones((8, 32, 32)))
            held = [c.cell_contents for c in out.node.backward_fn.__closure__]
            ints = [a for a in held if isinstance(a, np.ndarray) and a.dtype.kind in "iu"]
            # the labels themselves, on the class axis, and no [N,H,W] integer array
            assert ints and all(np.shares_memory(a, labels) for a in ints)
            assert all(a.shape != labels.shape for a in ints)
            ad.backward(out)


class TestMaskedL1:
    def test_zero_residual(self):
        x = np.random.default_rng(9).normal(size=(1, 1, 4, 4))
        mask = np.ones((1, 4, 4))
        out = ad.masked_l1(t(x), t(x.copy()), mask)
        assert out.item() == 0.0

    def test_full_mask_is_mean_l1(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(1, 1, 4, 4))
        b = rng.normal(size=(1, 1, 4, 4))
        out = ad.masked_l1(t(a), t(b), np.ones((1, 4, 4)))
        assert abs(out.item() - np.abs(a - b).mean()) < 1e-15

    def test_sparse_mask_against_index_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(1, 1, 4, 4))
        b = rng.normal(size=(1, 1, 4, 4))
        mask = np.zeros((1, 4, 4))
        pts = [(0, 1), (1, 3), (2, 0), (3, 3), (2, 2)]
        for i, j in pts:
            mask[0, i, j] = 1.0
        acc = sum(abs(a[0, 0, i, j] - b[0, 0, i, j]) for i, j in pts) / len(pts)
        out = ad.masked_l1(t(a), t(b), mask)
        assert abs(out.item() - acc) < 1e-14

    def test_empty_mask_rejected(self):
        with pytest.raises(DegenerateSupervisionError):
            ad.masked_l1(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 2, 2))), np.zeros((1, 2, 2)))

    def test_gradient_zero_off_mask(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(1, 1, 3, 3))
        b = rng.normal(size=(1, 1, 3, 3))
        mask = np.zeros((1, 3, 3))
        mask[0, 1, 1] = 1.0
        with ad.Tape() as tape:
            pred = tape.leaf(a)
            loss = ad.masked_l1(pred, t(b), mask)
            ad.backward(loss)
        g = tape.grad(pred)
        assert g[0, 0, 1, 1] != 0.0
        g2 = g.copy()
        g2[0, 0, 1, 1] = 0.0
        assert np.all(g2 == 0.0)


class TestPredictionEntropy:
    def test_uniform_is_log_k(self):
        out = ad.prediction_entropy(t(np.zeros((1, 4))))
        assert abs(out.item() - math.log(4)) < 1e-12

    def test_one_hot_like_near_zero(self):
        out = ad.prediction_entropy(t([[100.0, 0.0, 0.0, 0.0]]))
        assert out.item() < 1e-10

    def test_against_extended_precision(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(scale=2.0, size=6)
        got = ad.prediction_entropy(t(logits[None])).item()
        assert abs(got - entropy_mp(logits)) < 1e-10

    def test_pixelwise_mean(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 2, 2))
        got = ad.prediction_entropy(t(x[None])).item()
        ref = np.mean([entropy_mp(x[:, i, j]) for i in range(2) for j in range(2)])
        assert abs(got - ref) < 1e-10

    @given(st.integers(2, 8), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_bounds_property(self, k, seed):
        logits = np.random.default_rng(seed).normal(scale=3.0, size=k)
        h = ad.prediction_entropy(t(logits[None])).item()
        assert -1e-12 <= h <= math.log(k) + 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        x = np.random.default_rng(15).normal(size=(3, 4))
        with ad.Tape() as tape:
            xt = tape.leaf(x)
            loss = ad.sum_all(xt)
            ad.backward(loss)
        assert np.array_equal(tape.grad(xt), np.ones((3, 4)))
        assert set(tape.grads) == {xt.node_id}

    def test_quadratic(self):
        x = np.random.default_rng(16).normal(size=(5,))
        with ad.Tape() as tape:
            xt = tape.leaf(x)
            loss = ad.sum_all(ad.mul(xt, xt))
            ad.backward(loss)
        assert np.allclose(tape.grad(xt), 2 * x, atol=1e-15)

    def test_grads_hold_exactly_the_leaves_that_received_a_gradient(self):
        rng = np.random.default_rng(23)
        with ad.Tape() as tape:
            a, b, unused = (tape.leaf(rng.normal(size=(2, 3))) for _ in range(3))
            hidden = ad.relu(ad.mul(a, b))
            loss = ad.sum_all(ad.add(hidden, a))
            ad.backward(loss)
        assert set(tape.grads) == {a.node_id, b.node_id}
        assert tape.grad(unused) is None and tape.grad(hidden) is None

    def test_second_backward_rejected(self):
        with ad.Tape() as tape:
            xt = tape.leaf(np.ones((2, 2)))
            loss = ad.sum_all(ad.mul(xt, xt))
            ad.backward(loss)
            with pytest.raises(ContractError, match="already been through backward"):
                ad.backward(loss)
        assert np.array_equal(tape.grad(xt), 2 * np.ones((2, 2)))

    def test_trainable_conv_input_released_by_backward(self):
        # The conv keeps its input, not its row matrix, for the kernel
        # gradient; backward drops it while the tape is still alive.
        rng = np.random.default_rng(24)
        with ad.Tape() as tape:
            wt = tape.leaf(rng.normal(size=(4, 3, 3, 3)))
            h = ad.relu(t(rng.normal(size=(2, 3, 6, 6))))
            kept = weakref.ref(h.array)
            loss = ad.sum_all(ad.conv2d(h, wt, 1, 1))
            del h
            assert kept() is not None
            ad.backward(loss)
        assert kept() is None
        assert tape.grad(wt).shape == (4, 3, 3, 3)

    def test_non_scalar_root_rejected(self):
        with ad.Tape() as tape:
            xt = tape.leaf(np.zeros(3))
            y = ad.mul(xt, xt)
            with pytest.raises(ContractError):
                ad.backward(y)

    def test_untaped_root_rejected(self):
        y = ad.sum_all(t(np.zeros(3)))
        with pytest.raises(ContractError):
            ad.backward(y)

    def test_small_network_finite_difference(self):
        # conv -> relu -> film -> pool -> flatten -> linear -> ce, all params checked
        rng = np.random.default_rng(17)
        x = rng.normal(scale=0.5, size=(1, 2, 6, 6))
        params = {
            "w": rng.normal(scale=0.1, size=(3, 2, 3, 3)),
            "g": 1.0 + rng.normal(scale=0.1, size=3),
            "b": rng.normal(scale=0.1, size=3),
            "wl": rng.normal(scale=0.1, size=(27, 4)),
        }

        def forward(lift):
            h1 = ad.relu(ad.conv2d(ad.as_tensor(x), lift["w"], 1, 1))
            h2 = ad.film(h1, lift["g"], lift["b"])
            h3 = ad.avgpool2(h2)
            flat = ad.flatten_batch(h3)  # [1, 27]
            logits = ad.matmul(flat, lift["wl"])  # [1, 4]
            return ad.softmax_cross_entropy(logits, [1])

        with ad.Tape() as tape:
            lifted = {k: tape.leaf(v) for k, v in params.items()}
            loss = forward(lifted)
            ad.backward(loss)

        for name, arr in params.items():
            fd = central_fd(
                lambda: forward({k: ad.as_tensor(v) for k, v in params.items()}).item(), arr
            )
            assert max_rel_err(tape.grad(lifted[name]), fd) < 1e-4, name


class TestSgdStep:
    def test_lr_zero_is_noop(self):
        ps = ad.ParamSet()
        ps.add("p", np.array([1.0, 2.0]))
        before = ps.get("p").copy()
        ad.sgd_step(ps, {"p": np.array([5.0, 5.0])}, 0.0)
        assert np.array_equal(ps.get("p"), before)

    def test_hand_arithmetic(self):
        ps = ad.ParamSet()
        ps.add("p", np.array([1.0]))
        ad.sgd_step(ps, {"p": np.array([2.0])}, 0.1)
        assert abs(ps.get("p")[0] - 0.8) < 1e-15

    def test_frozen_unchanged_bit_exact(self):
        ps = ad.ParamSet()
        ps.add("p", np.array([1.0, 2.0]), frozen=True)
        before = ps.state_bytes()
        ad.sgd_step(ps, {}, 0.1)
        assert ps.state_bytes() == before

    def test_missing_gradient_rejected(self):
        ps = ad.ParamSet()
        ps.add("p", np.array([1.0]))
        with pytest.raises(ContractError):
            ad.sgd_step(ps, {}, 0.1)

    def test_negative_lr_rejected(self):
        ps = ad.ParamSet()
        ps.add("p", np.array([1.0]))
        with pytest.raises(ContractError):
            ad.sgd_step(ps, {"p": np.array([1.0])}, -0.1)

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_rejected(self, lr):
        ps = ad.ParamSet()
        ps.add("p", np.array([1.0]))
        with pytest.raises(ContractError, match="finite and >= 0"):
            ad.sgd_step(ps, {"p": np.array([1.0])}, lr)
        assert ps.get("p").tolist() == [1.0]


class TestTapeSemantics:
    def test_tape_isolation(self):
        x = np.random.default_rng(18).normal(size=(4,))
        with ad.Tape() as t1:
            x1 = t1.leaf(x)
            l1 = ad.sum_all(ad.mul(x1, x1))
        with ad.Tape() as t2:
            x2 = t2.leaf(x)
            l2 = ad.sum_all(x2)
            ad.backward(l2)
        assert t1.grads == {}
        assert t2.grad(x2) is not None
        assert x1.node_id != x2.node_id

    def test_cross_tape_mixing_rejected(self):
        with ad.Tape() as t1:
            a = t1.leaf(np.zeros(3))
        with ad.Tape():
            with pytest.raises(ContractError):
                ad.mul(a, a)

    def test_no_tape_means_no_nodes(self):
        out = ad.relu(t(np.array([-1.0, 2.0])))
        assert out.node is None

    def test_frozen_leaf_gets_no_grad(self):
        ps = ad.ParamSet()
        rng = np.random.default_rng(19)
        ps.add("w", rng.normal(size=(3, 3)), frozen=True)
        ps.add("v", rng.normal(size=(3, 3)))
        with ad.Tape() as tape:
            lifted = ps.lift(tape)
            loss = ad.sum_all(ad.matmul(lifted["w"], lifted["v"]))
            ad.backward(loss)
        assert tape.grad(lifted["w"]) is None
        assert tape.grad(lifted["v"]) is not None
        grads = ps.grads_from(tape, lifted)
        assert set(grads) == {"v"}

    def test_backward_after_tape_freed_rejected(self):
        def record():
            with ad.Tape() as tape:
                xt = tape.leaf(np.ones(3))
                return ad.sum_all(ad.mul(xt, xt))

        root = record()
        assert root.node.tape is None
        with pytest.raises(ContractError, match="no longer exists"):
            ad.backward(root)


class TestFrozenParams:
    @staticmethod
    def frozen_set():
        ps = ad.ParamSet()
        ps.add("w", np.random.default_rng(30).normal(size=(3, 3)))
        ps.add("v", np.arange(4.0))
        ps.set_frozen(True)
        return ps

    def test_frozen_values_are_read_only_until_unfrozen(self):
        ps = self.frozen_set()
        with pytest.raises(ValueError):
            ps.get("w")[0, 0] = 1.0
        with pytest.raises(ValueError):
            ps.get("v")[...] += 1.0
        ps.set_frozen(False)
        ps.get("w")[0, 0] = 1.0
        assert ps.get("w")[0, 0] == 1.0

    def test_unfreezing_gives_a_writable_copy_and_leaves_the_constant(self):
        ps = self.frozen_set()
        const = ps.lift(None)["w"]
        before = const.array.tobytes()
        ps.set_frozen(False)
        ps.get("w")[...] += 1.0
        assert ps.get("w") is not const.array
        assert const.array.tobytes() == before and not const.array.flags.writeable
        ps.set_frozen(True)
        assert ps.lift(None)["w"] is not const
        assert ps.get("w").tobytes() != before

    def test_lift_hands_out_frozen_entries_as_constants(self):
        ps = self.frozen_set()
        with ad.Tape() as tape:
            a = ps.lift(tape)
        b = ps.lift(None)
        assert a is not b and a == b  # the same constants, in a new dict
        assert all(t.node is None for t in a.values()) and tape.nodes == []
        assert a["w"].array is ps.get("w")
        ps.set_frozen(False)
        with ad.Tape() as tape:
            c = ps.lift(tape)
        assert all(t.node is not None for t in c.values())
        ps.set_frozen(True)
        assert ps.lift(None)["w"] is not a["w"]

    def test_partly_frozen_set(self):
        ps = ad.ParamSet()
        ps.add("w", np.ones(2), frozen=True)
        ps.add("v", np.ones(2))
        with ad.Tape() as tape:
            lifted = ps.lift(tape)
        assert lifted["w"].node is None
        assert lifted["v"].node is not None
        assert lifted["w"] is ps.lift(tape)["w"]
        assert len(tape.nodes) == 2  # one leaf for v per lift
        with pytest.raises(ValueError):
            ps.get("w")[0] = 2.0
        ps.get("v")[0] = 2.0  # not frozen: writable
        assert ps.lift(None)["v"].node is None  # no tape: a plain constant

    def test_clone_of_a_frozen_set_is_frozen_and_read_only(self):
        ps = self.frozen_set()
        twin = ps.clone()
        assert twin.state_bytes() == ps.state_bytes()
        assert all(p.frozen for _, p in twin.items())
        with pytest.raises(ValueError):
            twin.get("w")[0, 0] = 1.0
        assert twin.get("w") is not ps.get("w")
        assert twin.lift(None)["w"].node is None

    def test_freezing_copies_a_value_that_views_other_memory(self):
        base = np.arange(6.0)
        ps = ad.ParamSet()
        ps.add("w", base[:3])
        ps.set_frozen(True)
        base[0] = 7.0  # the caller's array stays writable and is not the parameter
        assert ps.get("w").tolist() == [0.0, 1.0, 2.0]
        assert base.flags.writeable

    def test_arrays_taken_before_freezing_cannot_write_it(self):
        given = np.arange(4.0)
        ps = ad.ParamSet()
        ps.add("w", given)
        ps.add("v", given, frozen=True)
        value = ps.get("w")
        view = value[1:]
        ps.set_frozen(True)
        view[0] = 9.0
        value[0] = 9.0
        given[2] = 9.0  # the caller's array stays writable and is not the parameter
        assert ps.get("w").tolist() == ps.get("v").tolist() == [0.0, 1.0, 2.0, 3.0]
        assert ps.lift(None)["w"].array is ps.get("w")

    @pytest.mark.parametrize("stride,pad,k", CONV_GRID)
    def test_cached_conv_operands_give_the_same_bits(self, stride, pad, k):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, 7, 5))
        w = rng.normal(size=(4, 3, k, k))
        ps = ad.ParamSet()
        ps.add("w", w.copy())
        ps.set_frozen(True)

        def run(kernel):
            with ad.Tape() as tape:
                xt = tape.leaf(x)
                out = ad.conv2d(xt, kernel, stride, pad)
                ad.backward(ad.sum_all(ad.mul(out, ad.as_tensor(np.cos(out.array)))))
            return out.array.tobytes(), tape.grad(xt).tobytes()

        plain = run(ad.as_tensor(w))
        const = ps.lift(None)["w"]
        assert run(const) == plain  # fills the cache
        assert set(const.derived) == {"taps", "flipped_taps"}
        assert run(const) == plain  # reads it
        with pytest.raises(ValueError):
            const.derived["taps"][...] = 0.0


class TestRelu:
    @pytest.mark.parametrize("n", [7, 64, 8192, 8193, 16384, 40000])
    def test_bitwise_equal_to_where(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        x[::5] = -0.0
        x[::7] = 0.0
        x[::11] = -5e-324
        x[::13] = 5e-324
        g = rng.normal(size=n)
        for xv in (x, x.reshape(-1, 1)[::2, 0], x[::-1]):
            with ad.Tape() as tape:
                xt = tape.leaf(xv)
                out = ad.relu(xt)
                ad.backward(ad.sum_all(ad.mul(out, ad.as_tensor(g[: xv.size]))))
            want = np.where(xv > 0, xv, 0.0)
            assert out.array.tobytes() == want.tobytes()
            assert not np.signbit(out.array).any()
            assert tape.grad(xt).tobytes() == (g[: xv.size] * (xv > 0)).tobytes()

    def test_non_finite_input_as_where(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEBUG_CHECKS", False)
        x = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 1.0])
        out = ad.relu(ad.as_tensor(x)).array
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()  # NaN -> +0.0

    def test_backward_keeps_only_the_mask(self):
        with ad.Tape() as tape:
            xt = tape.leaf(np.array([-1.0, 2.0]))
            out = ad.relu(xt)
        fn = out.node.backward_fn
        kept = [c.cell_contents for c in fn.__closure__ or ()]
        assert len(kept) == 1 and kept[0].dtype == bool


class TestDeterminism:
    def test_forward_and_grads_bit_identical(self):
        def run():
            rng = np.random.default_rng(20)
            x = rng.normal(size=(1, 2, 8, 8))
            w = rng.normal(scale=0.1, size=(3, 2, 3, 3))
            with ad.Tape() as tape:
                wt = tape.leaf(w)
                out = ad.relu(ad.conv2d(ad.as_tensor(x), wt, 1, 1))
                loss = ad.sum_all(out)
                ad.backward(loss)
            return out.array.tobytes(), tape.grad(wt).tobytes()

        assert run() == run()


class TestOtherOpGradients:
    @pytest.mark.parametrize(
        "name",
        [
            "add_bias_2d", "avgpool", "upsample", "concat", "concat_4d",
            "slice", "gap", "entropy_pix", "bernoulli", "masked_ce", "coarse_ce",
        ],
    )
    def test_finite_difference(self, name):
        rng = np.random.default_rng(hash(name) % 2**31)
        if name == "add_bias_2d":
            x, b = rng.normal(size=(3, 4)), rng.normal(size=4)
            build = lambda xs: ad.sum_all(ad.mul(ad.add_bias(xs[0], xs[1]), ad.add_bias(xs[0], xs[1])))
            arrs = [x, b]
        elif name == "avgpool":
            x = rng.normal(size=(1, 2, 4, 4))
            build = lambda xs: ad.sum_all(ad.mul(ad.avgpool2(xs[0]), ad.avgpool2(xs[0])))
            arrs = [x]
        elif name == "upsample":
            x = rng.normal(size=(1, 2, 3, 3))
            build = lambda xs: ad.sum_all(ad.mul(ad.upsample2(xs[0]), ad.upsample2(xs[0])))
            arrs = [x]
        elif name == "concat":
            a, b = rng.normal(size=(1, 2, 3, 3)), rng.normal(size=(1, 1, 3, 3))
            build = lambda xs: ad.sum_all(
                ad.mul(ad.concat_channels(xs), ad.concat_channels(xs))
            )
            arrs = [a, b]
        elif name == "concat_4d":
            a, b = rng.normal(size=(2, 2, 3, 3)), rng.normal(size=(2, 3, 3, 3))
            build = lambda xs: ad.sum_all(
                ad.mul(ad.concat_channels(xs), ad.concat_channels(xs))
            )
            arrs = [a, b]
        elif name == "slice":
            x = rng.normal(size=(2, 6))
            build = lambda xs: ad.sum_all(
                ad.mul(ad.slice_channels(xs[0], 1, 4), ad.slice_channels(xs[0], 1, 4))
            )
            arrs = [x]
        elif name == "gap":
            x = rng.normal(size=(2, 3, 4, 4))
            build = lambda xs: ad.sum_all(ad.mul(ad.global_avg_pool(xs[0]), ad.global_avg_pool(xs[0])))
            arrs = [x]
        elif name == "entropy_pix":
            x = rng.normal(size=(2, 4, 3, 3))
            build = lambda xs: ad.prediction_entropy(xs[0])
            arrs = [x]
        elif name == "bernoulli":
            x = rng.uniform(0.05, 0.95, size=(1, 4, 4))
            build = lambda xs: ad.bernoulli_entropy(xs[0])
            arrs = [x]
        elif name == "masked_ce":
            x = rng.normal(size=(2, 3, 4, 4))
            labels = rng.integers(0, 3, size=(2, 4, 4))
            mask = (rng.random((2, 4, 4)) < 0.4).astype(float)
            mask[0, 0, 0] = 1.0
            build = lambda xs: ad.masked_cross_entropy(xs[0], labels, mask)
            arrs = [x]
        else:  # coarse_ce
            x = rng.normal(size=(3, 8))
            gmap = np.array([0, 0, 1, 1, 2, 2, 3, 3])
            build = lambda xs: ad.coarse_cross_entropy(xs[0], [2, 0, 3], gmap)
            arrs = [x]

        with ad.Tape() as tape:
            lifted = [tape.leaf(a) for a in arrs]
            loss = build(lifted)
            ad.backward(loss)

        for arr, lt in zip(arrs, lifted):
            fd = central_fd(lambda: build([ad.as_tensor(a) for a in arrs]).item(), arr)
            assert max_rel_err(tape.grad(lt), fd) < 1e-4


def _sample_cases():
    """op name -> (call, [(array, is_leaf, gains_batch_axis)], top batched rank)
    for one sample, without a batch axis, of every op with a batched operand;
    ``gains_batch_axis`` marks the operands that carry the batch.
    ``add_bias_maps`` is the [C,H,W]+[C] pattern, which add_bias takes in no
    rank."""
    rng = np.random.default_rng(40)
    n = rng.normal
    return {
        "conv2d": (lambda a: ad.conv2d(a[0], a[1], 1, 1, bias=a[2]),
                   [(n(size=(2, 7, 5)), True, True), (n(size=(3, 2, 3, 3)), True, False),
                    (n(size=3), True, False)], 4),
        "avgpool2": (lambda a: ad.avgpool2(a[0]), [(n(size=(2, 4, 6)), True, True)], 4),
        "upsample2": (lambda a: ad.upsample2(a[0]), [(n(size=(2, 3, 3)), True, True)], 4),
        "film": (lambda a: ad.film(*a), [(n(size=(3, 4, 4)), True, True), (n(size=3), True, False),
                                         (n(size=3), True, False)], 4),
        "flatten_batch": (lambda a: ad.flatten_batch(a[0]), [(n(size=(2, 3, 3)), True, True)], 4),
        "add_bias_rows": (lambda a: ad.add_bias(*a), [(n(size=4), True, True), (n(size=4), True, False)], 2),
        "add_bias_maps": (lambda a: ad.add_bias(*a),
                          [(n(size=(3, 2, 2)), True, True), (n(size=3), True, False)], 4),
        "softmax_cross_entropy": (lambda a: ad.softmax_cross_entropy(*a),
                                  [(n(size=5), True, True), (np.int64(2), False, True)], 2),
        "coarse_cross_entropy": (lambda a: ad.coarse_cross_entropy(*a),
                                 [(n(size=8), True, True), (np.int64(1), False, True),
                                  (np.repeat(np.arange(4), 2), False, False)], 2),
        "masked_cross_entropy": (lambda a: ad.masked_cross_entropy(*a),
                                 [(n(size=(3, 4, 4)), True, True),
                                  (rng.integers(0, 3, size=(4, 4)), False, True),
                                  ((rng.random((4, 4)) < 0.5).astype(float), False, True)], 4),
        "prediction_entropy_rows": (lambda a: ad.prediction_entropy(a[0]), [(n(size=6), True, True)], 4),
        "prediction_entropy_maps": (lambda a: ad.prediction_entropy(a[0]),
                                    [(n(size=(9, 3, 2)), True, True)], 4),
        "masked_l1": (lambda a: ad.masked_l1(*a),
                      [(n(size=(2, 4, 4)), True, True), (n(size=(2, 4, 4)), True, True),
                       ((rng.random((4, 4)) < 0.5).astype(float), False, True)], 4),
    }


class TestOneSampleBoundary:
    """Ops take batches only: one sample without its batch axis, or an
    operand with an axis too many, raises ``DimensionError``."""

    @pytest.mark.parametrize("name", list(_sample_cases()))
    def test_unbatched_sample_rejected(self, name):
        call, arrays, _ = _sample_cases()[name]
        with pytest.raises(DimensionError):
            call([t(a) if leaf else a for a, leaf, _ in arrays])

    @pytest.mark.parametrize("name", list(_sample_cases()))
    def test_rank_neither_batched_nor_sample_rejected(self, name):
        call, arrays, top = _sample_cases()[name]
        lead = top + 1 - np.ndim(arrays[0][0])
        args = [np.reshape(a, (1,) * lead + np.shape(a)) if ax else a for a, _, ax in arrays]
        with pytest.raises(DimensionError):
            call([t(a) if leaf else a for a, (_, leaf, _) in zip(args, arrays)])


def test_add_bias_takes_rows_only():
    x, b = np.zeros((2, 3, 4, 4)), np.zeros(3)
    with pytest.raises(DimensionError, match="add_bias"):
        ad.add_bias(t(x), t(b))


class TestCoarseCrossEntropy:
    def test_identity_grouping_equals_plain_ce(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=8)
        gmap = np.arange(8)
        a = ad.coarse_cross_entropy(t(logits[None]), [3], gmap).item()
        b = ad.softmax_cross_entropy(t(logits[None]), [3]).item()
        assert abs(a - b) < 1e-14

    def test_uniform_logits_equal_groups(self):
        # C groups of size K/C each hold mass K/C * 1/K = 1/C
        logits = np.zeros(12)
        gmap = np.repeat(np.arange(4), 3)
        out = ad.coarse_cross_entropy(t(logits[None]), [2], gmap).item()
        assert abs(out - math.log(4)) < 1e-12
