import dataclasses
import gc
import hashlib
import json
import struct
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnaloop import autodiff as ad
from rnaloop import nets, presets, serialize, signals
from rnaloop.errors import ConfigurationError, ContractError, DimensionError, SerializationError

from oracles import central_fd, max_rel_err


def _identity_film(model) -> nets.FiLMParams:
    """gamma = 1, beta = 0 at each of the model's film sites."""
    return nets.FiLMParams([(np.ones(c), np.zeros(c)) for _, c in model.spec.film_sites])


def _arrays(film: nets.FiLMParams) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(g.array, b.array) for g, b in film.sites]


def _names(params: ad.ParamSet) -> list[str]:
    return [name for name, _ in params.items()]


def _size(params: ad.ParamSet) -> int:
    return sum(v.size for _, v in params.items())


@pytest.fixture(scope="module")
def dense_pair():
    f = presets.dense_main(seed=7)
    h = presets.dense_controller(f, seed=8)
    return f, h


class TestBuildMain:
    def test_dense_shape_contract(self):
        f = presets.dense_main(seed=0)
        x = np.random.default_rng(0).random((1, 1, 32, 32))
        out = f.forward(x)
        assert out.shape == (1, 1, 32, 32)

    def test_classifier_shape_contract(self):
        f = presets.cls_main(seed=0)
        x = np.random.default_rng(0).random((1, 1, 16, 16))
        out = f.forward(x)
        assert out.shape == (1, presets.NUM_CLASSES)

    def test_seed_determinism(self):
        a = presets.dense_main(seed=3)
        b = presets.dense_main(seed=3)
        assert a.params.state_bytes() == b.params.state_bytes()
        c = presets.dense_main(seed=4)
        assert a.params.state_bytes() != c.params.state_bytes()

    def test_inconsistent_spec_rejected(self):
        # A spec's fields never change after construction, so its layers
        # cannot go out of step with them; a changed copy is checked anew.
        spec = nets.ModelSpec("dense_regression", 1, 1, 32, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.grid = 36
        with pytest.raises(ConfigurationError, match="divisible by 8"):
            nets.build_main(dataclasses.replace(spec, grid=36), 0)

    @pytest.mark.parametrize("preset", ["dense_main", "cls_main"])
    def test_unbatched_input_rejected(self, preset):
        f = getattr(presets, preset)(seed=0)
        x = np.zeros(f.spec.in_shape)
        with pytest.raises(DimensionError, match=r"Model\.forward.*\[N,C,H,W\]"):
            f.forward(x)
        with pytest.raises(DimensionError, match=r"Model\.forward"):
            f.forward(x[None, None])

    @pytest.mark.parametrize("preset, shape", [
        ("dense_main", (1, 1, 64, 64)),  # would run silently on the 32-grid UNet
        ("dense_main", (1, 1, 30, 30)),  # would fail inside avgpool2
        ("dense_main", (1, 2, 32, 32)),  # would fail inside conv2d
        ("cls_main", (1, 1, 20, 20)),  # would fail inside matmul
    ])
    def test_input_other_than_in_shape_rejected_at_entry(self, preset, shape):
        f = getattr(presets, preset)(seed=0)
        with pytest.raises(DimensionError, match=r"Model\.forward.*spec\.in_shape"):
            f.forward(np.zeros(shape))

    @pytest.mark.parametrize("preset", ["dense_main", "cls_main"])
    def test_empty_batch_gives_an_empty_result(self, preset):
        f = getattr(presets, preset)(seed=0)
        out = f.forward(np.zeros((0,) + f.spec.in_shape))
        assert out.shape == {"dense_main": (0, 1, 32, 32), "cls_main": (0, presets.NUM_CLASSES)}[preset]

    def test_batched_forward_matches_single(self):
        # bit-exactness across batch sizes is not promised (BLAS blocking);
        # agreement at float64 resolution is
        f = presets.dense_main(seed=5)
        xb = np.random.default_rng(1).random((3, 1, 32, 32))
        out = f.forward(xb).array
        for n in range(3):
            assert np.allclose(out[n], f.forward(xb[n : n + 1]).array[0], atol=1e-12, rtol=0)


class TestFilmSites:
    def test_identity_insertion(self):
        # film_k does not change the parameters a seed draws, and identity
        # coefficients at its sites do not change a bit of the output
        x = np.random.default_rng(2).random((1, 1, 32, 32))
        base = nets.build_main(nets.ModelSpec("dense_regression", 1, 1, 32, 0), 11)
        filmed = nets.build_main(nets.ModelSpec("dense_regression", 1, 1, 32, 4), 11)
        assert filmed.params.state_bytes() == base.params.state_bytes()
        ident = _identity_film(filmed)
        assert filmed.forward(x, film=ident).array.tobytes() == base.forward(x).array.tobytes()

    def test_k_zero_is_noop(self):
        # no sites, and the unmodulated function of the same seed with sites
        base = nets.build_main(nets.ModelSpec("dense_regression", 1, 1, 32, 0), 11)
        filmed = nets.build_main(nets.ModelSpec("dense_regression", 1, 1, 32, 4), 11)
        assert base.spec.film_sites == ()
        x = np.random.default_rng(3).random((1, 1, 32, 32))
        assert np.array_equal(base.forward(x).array, filmed.forward(x).array)

    def test_k_exceeds_eligible_layers(self):
        with pytest.raises(ConfigurationError):
            nets.ModelSpec("dense_regression", 1, 1, 32, 99)

    @pytest.mark.parametrize("k", [-1, 1.0, True])
    def test_k_negative_or_not_an_int_rejected(self, k):
        with pytest.raises(ConfigurationError, match="film_k must be >= 0, as an int"):
            nets.ModelSpec("classification", 1, presets.NUM_CLASSES, presets.CLS_GRID, k)

    def test_random_site_params_change_output(self):
        f = presets.dense_main(seed=12)
        rng = np.random.default_rng(4)
        counts = [c for _, c in f.spec.film_sites]
        fp = nets.FiLMParams(
            [(1.0 + 0.3 * rng.normal(size=c), 0.3 * rng.normal(size=c)) for c in counts]
        )
        changed = 0
        for _ in range(10):
            x = rng.random((1, 1, 32, 32))
            if not np.array_equal(f.forward(x).array, f.forward(x, film=fp).array):
                changed += 1
        assert changed >= 1


class TestController:
    def test_identity_at_init(self, dense_pair):
        f, h = dense_pair
        rng = np.random.default_rng(5)
        fb = rng.random((2, 3, 32, 32))
        fp = h.forward(fb)
        for g, b in _arrays(fp):
            assert np.array_equal(g, np.ones_like(g))
            assert np.array_equal(b, np.zeros_like(b))

    def test_budget_in_range(self, dense_pair):
        f, h = dense_pair
        ratio = _size(h.params) / _size(f.params)
        assert 0.05 <= ratio <= 0.20

    def test_head_length_arithmetic(self):
        cspec = nets.ControllerSpec(arch="conv", in_channels=3,
                                    film_channels=[8, 16, 16, 8])
        assert cspec.out_dim == 96

    @pytest.mark.parametrize("preset", ["dense_controller", "cls_controller"])
    def test_init_matches_the_explicit_draws(self, preset):
        # The draws written out one parameter at a time: the He-init rule of
        # build_main, in the order c1.w, c2.w, fc.w, with a zero head.
        main = presets.dense_main(seed=0) if preset == "dense_controller" else presets.cls_main(seed=0)
        h = getattr(presets, preset)(main, 31)
        cspec = h.cspec
        rng = np.random.default_rng(31)
        params = ad.ParamSet()
        t1, t2 = nets.CONTROLLER_TRUNK
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
        params.add("head.w", np.zeros((cspec.hidden, cspec.out_dim)))
        params.add("head.b", np.zeros(cspec.out_dim))
        assert _names(h.params) == _names(params)
        assert h.params.state_bytes() == params.state_bytes()

    # The parameter layouts of the shipped controllers, as the files they
    # wrote before their layers became data hold them.
    PRESET_LAYOUTS = {
        "dense_controller": [
            ("c1.w", (8, 3, 3, 3)), ("c1.b", (8,)), ("c2.w", (16, 8, 3, 3)), ("c2.b", (16,)),
            ("fc.w", (16, 16)), ("fc.b", (16,)), ("head.w", (16, 160)), ("head.b", (160,)),
        ],
        "cls_controller": [("fc.w", (25, 12)), ("fc.b", (12,)), ("head.w", (12, 80)), ("head.b", (80,))],
    }

    @pytest.mark.parametrize("preset", list(PRESET_LAYOUTS))
    def test_param_layout_of_the_shipped_controllers(self, preset):
        main = presets.dense_main(seed=0) if preset == "dense_controller" else presets.cls_main(seed=0)
        h = getattr(presets, preset)(main, 1)
        assert list(nets._param_layout(h.cspec).items()) == self.PRESET_LAYOUTS[preset]
        assert [(n, v.shape) for n, v in h.params.items()] == self.PRESET_LAYOUTS[preset]

    @staticmethod
    def _reference_forward(cspec, fb, lifted):
        """The controller pass written out op by op: the trunk (conv arch
        only), the hidden layer and the head, then each site's gamma
        residual and beta."""
        h = fb
        if cspec.arch == "conv":
            h = ad.relu(ad.conv2d(h, lifted["c1.w"], 1, 1, bias=lifted["c1.b"]))
            h = ad.avgpool2(h)
            h = ad.relu(ad.conv2d(h, lifted["c2.w"], 1, 1, bias=lifted["c2.b"]))
            h = ad.avgpool2(h)
            h = ad.global_avg_pool(h)
        h = ad.relu(ad.linear(h, lifted["fc.w"], lifted["fc.b"]))
        raw = ad.linear(h, lifted["head.w"], lifted["head.b"])
        sites, off = [], 0
        for ch in cspec.film_channels:
            gres = ad.slice_channels(raw, off, off + ch)
            beta = ad.slice_channels(raw, off + ch, off + 2 * ch)
            sites.append((ad.add(gres, ad.as_tensor(np.ones_like(gres.array))), beta))
            off += 2 * ch
        return sites

    @pytest.mark.parametrize("preset", ["dense_controller", "cls_controller"])
    def test_layers_give_the_written_out_pass_bit_for_bit(self, preset):
        # outputs and parameter gradients at random non-zero parameters on
        # a batch of three, against the pass written out above
        main = presets.dense_main(seed=0) if preset == "dense_controller" else presets.cls_main(seed=0)
        h = getattr(presets, preset)(main, 1)
        rng = np.random.default_rng(12)
        params = ad.ParamSet()
        for name, v in h.params.items():
            params.add(name, rng.normal(0.0, 0.3, v.shape))
        h = nets.Controller(h.cspec, params)
        in_shape = (3, h.cspec.in_channels, 32, 32) if h.cspec.arch == "conv" else (3, h.cspec.in_channels)
        fb = rng.random(in_shape)
        weights = [(rng.normal(size=(3, c)), rng.normal(size=(3, c))) for c in h.cspec.film_channels]

        def run(forward):
            with ad.Tape() as tape:
                lifted = params.lift(tape)
                sites = forward(lifted)
                terms = [ad.sum_all(ad.mul(t, ad.as_tensor(w)))
                         for (g, b), (wg, wb) in zip(sites, weights) for t, w in ((g, wg), (b, wb))]
                loss = terms[0]
                for term in terms[1:]:
                    loss = ad.add(loss, term)
                ad.backward(loss)
            grads = params.grads_from(tape, lifted)
            return [t.array.tobytes() for site in sites for t in site], {n: g.tobytes() for n, g in grads.items()}

        got = run(lambda lifted: h.forward(fb, lifted=lifted).sites)
        want = run(lambda lifted: self._reference_forward(h.cspec, ad.as_tensor(fb), lifted))
        assert got == want
        assert set(got[1]) == {name for name, _ in self.PRESET_LAYOUTS[preset]}

    @pytest.mark.parametrize("preset, shape", [
        pytest.param("dense_controller", (2, 3, 32), id="conv-rank3"),
        pytest.param("dense_controller", (2, 3), id="conv-rank2"),
        pytest.param("dense_controller", (2, 4, 32, 32), id="conv-channels"),
        pytest.param("dense_controller", (2, 3, 6, 6), id="conv-odd_pooled_grid"),
        pytest.param("cls_controller", (2, 25, 1, 1), id="mlp-rank4"),
        pytest.param("cls_controller", (25,), id="mlp-rank1"),
        pytest.param("cls_controller", (2, 24), id="mlp-width"),
    ])
    def test_feedback_of_another_shape_is_a_dimension_error(self, preset, shape):
        # the first op that reads the feedback refuses it
        main = presets.dense_main(seed=0) if preset == "dense_controller" else presets.cls_main(seed=0)
        h = getattr(presets, preset)(main, 1)
        with pytest.raises(DimensionError, match="conv2d|linear|avgpool2"):
            h.forward(np.zeros(shape))

    BAD_SPECS = {
        "float_film_channels": {"film_channels": (16.0, 24.0, 24.0, 16.0)},
        "zero_in_channels": {"in_channels": 0},
        "str_hidden": {"hidden": "16"},
        "zero_hidden": {"hidden": 0},
        "film_channels_not_a_list": {"film_channels": 16},
        "no_film_channels": {"film_channels": ()},
        "unknown_arch": {"arch": "rnn"},
    }

    @pytest.mark.parametrize("case", list(BAD_SPECS))
    def test_malformed_spec_rejected(self, dense_pair, case):
        # a spec checks its fields when it is built, as a ModelSpec does
        _, h = dense_pair
        with pytest.raises(ConfigurationError, match="as an int|non-empty list|unknown controller arch"):
            dataclasses.replace(h.cspec, **self.BAD_SPECS[case])

    def test_spec_is_frozen_and_keeps_a_list_as_a_tuple(self, dense_pair):
        _, h = dense_pair
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.cspec.hidden = 5
        assert nets.ControllerSpec("conv", 3, [16, 24, 24, 16]) == h.cspec

    def test_requires_film_sites(self):
        base = nets.build_main(nets.ModelSpec("dense_regression", 1, 1, 32, 0), 0)
        cspec = nets.ControllerSpec(arch="conv", in_channels=3, film_channels=(16,))
        with pytest.raises(ContractError):
            nets.build_controller(cspec, base, 0)

    def test_batch_consistency(self, dense_pair):
        f, h = dense_pair
        # nonzero head so outputs depend on the input
        hp = h.params.clone()
        hp.get("head.w")[:] = np.random.default_rng(6).normal(0, 0.05, hp.get("head.w").shape)
        h2 = nets.Controller(h.cspec, hp)
        fb = np.random.default_rng(7).random((4, 3, 32, 32))
        batch = h2.forward(fb)
        for n in range(4):
            single = h2.forward(fb[n : n + 1])
            for (gb, bb), (gs, bs) in zip(_arrays(batch), _arrays(single)):
                assert np.allclose(gb[n], gs[0], atol=1e-12)
                assert np.allclose(bb[n], bs[0], atol=1e-12)

    def test_signal_sensitivity_after_training_step(self, dense_pair):
        f, h = dense_pair
        h = nets.Controller(h.cspec, h.params.clone())
        rng = np.random.default_rng(8)
        x = rng.random((2, 1, 32, 32))
        target = rng.random((2, 1, 32, 32))
        fb = rng.random((2, 3, 32, 32))
        f.params.set_frozen(True)
        try:
            with ad.Tape() as tape:
                lifted = h.params.lift(tape)
                fp = h.forward(fb, lifted=lifted)
                out = f.forward(x, film=fp, tape=tape)
                loss = ad.mean_l1(out, target)
                ad.backward(loss)
            ad.sgd_step(h.params, h.params.grads_from(tape, lifted), lr=0.5)
        finally:
            f.params.set_frozen(False)

        fb_a = fb.copy()
        fb_b = fb.copy()
        fb_b[:, 1:] = rng.random((2, 2, 32, 32))  # different signal, same prediction
        pa = _arrays(h.forward(fb_a))
        pb = _arrays(h.forward(fb_b))
        linf = max(
            max(np.abs(ga - gb).max(), np.abs(ba - bb).max())
            for (ga, ba), (gb, bb) in zip(pa, pb)
        )
        assert linf > 0.0


class TestAdaptedForward:
    def test_identity_params_reproduce_baseline(self, dense_pair):
        f, h = dense_pair
        x = np.random.default_rng(9).random((1, 1, 32, 32))
        ident = _identity_film(f)
        assert np.array_equal(f.forward(x, film=ident).array, f.forward(x).array)

    def test_site_mismatch_rejected(self, dense_pair):
        f, _ = dense_pair
        bad = nets.FiLMParams([(np.ones(c), np.zeros(c)) for c in (16, 24)])
        with pytest.raises(ContractError, match="2 sites, model declares 4"):
            f.forward(np.zeros((1, 1, 32, 32)), film=bad)

    def test_film_that_is_not_film_params_rejected(self, dense_pair):
        # a plain list of (gamma, beta) pairs raised a bare AttributeError
        f, _ = dense_pair
        pairs = [(np.ones(c), np.zeros(c)) for _, c in f.spec.film_sites]
        with pytest.raises(ContractError, match="film must be FiLMParams or None, got list"):
            f.forward(np.zeros((1, 1, 32, 32)), film=pairs)

    @pytest.mark.parametrize("site", [0, 3])
    @pytest.mark.parametrize("mismatch", ["channels", "gamma_vs_beta"])
    def test_site_shape_mismatch_is_a_dimension_error(self, dense_pair, site, mismatch):
        # ad.film checks each pair against its site; site 0 is the one a
        # reused unmodulated pass resumes at, site 3 one the pass runs to
        f, _ = dense_pair
        sites = [(np.ones(c), np.zeros(c)) for _, c in f.spec.film_sites]
        c = f.spec.film_sites[site][1]
        sites[site] = (np.ones(c - 1 if mismatch == "channels" else c), np.zeros(c - 1))
        x = np.zeros((1, 1, 32, 32))
        f.forward(x)
        with pytest.raises(DimensionError, match="film: "):
            f.forward(x, film=nets.FiLMParams(sites))

    def test_gamma_zero_final_site_blanks_activation(self, dense_pair):
        f, _ = dense_pair
        counts = [c for _, c in f.spec.film_sites]
        sites = [(np.ones(c), np.zeros(c)) for c in counts[:-1]]
        sites.append((np.zeros(counts[-1]), np.full(counts[-1], 0.37)))
        fp = nets.FiLMParams(sites)
        last_layer = f.spec.film_sites[-1][0]
        rng = np.random.default_rng(10)
        acts = []
        for _ in range(5):
            _, a = f.forward(rng.random((1, 1, 32, 32)), film=fp, return_acts=True)
            acts.append(a[last_layer].array)
        for a in acts[1:]:
            assert np.array_equal(a, acts[0])


# Builder arguments (task_kind, in_ch, out_ch, grid, film_k) that ModelSpec
# refuses. The cases named after a layer fault hold arguments whose derived
# layers would have that fault, were they built.
_BAD_ARGS = {
    "unknown_task_kind": ("depth", 1, 1, 32, 0),
    "float_grid": ("dense_regression", 1, 1, 32.0, 0),
    "str_grid": ("classification", 1, 20, "16", 0),
    "bool_in_ch": ("dense_regression", True, 1, 32, 0),
    "zero_in_ch": ("dense_regression", 0, 1, 32, 0),
    "zero_out_ch": ("classification", 1, 0, 16, 0),
    "zero_grid": ("classification", 1, 20, 0, 0),  # 0 is divisible by 4
    "odd_size_before_pool": ("dense_regression", 1, 1, 36, 0),  # 36 -> 18 -> 9, then a third pool
    "in_shape_99": ("classification", 1, 20, 99, 0),
    # linear nin 16 * (10 // 4) ** 2 = 64, not the flattened 16 * 2.5 ** 2
    "linear_nin_255": ("classification", 1, 20, 10, 0),
    # 20 -> 10 -> 5 -> 2.5: no upsampled map would meet its skip's size
    "concat_size_mismatch": ("dense_segmentation", 1, 3, 20, 0),
    # a 16.5-wide input: no conv output has an integral size
    "non_integral_conv": ("classification", 1, 20, 16.5, 0),
    # the head conv's kernel would be [-2, 8, 1, 1]
    "even_kernel": ("dense_segmentation", 1, -2, 32, 0),
    # a fourth classifier site would modulate the flattened vector (layer 8)
    "spatial_after_flatten": ("classification", 1, 20, 16, 4),
    "negative_film_k": ("dense_regression", 1, 1, 32, -1),
    "film_k_past_the_ladder": ("dense_regression", 1, 1, 32, 5),
    "float_film_k": ("dense_regression", 1, 1, 32, 1.0),
}


def _every_preset(seed: int) -> dict:
    """Every shipped preset network, mains at ``seed``, controllers at ``seed + 1``."""
    dense, seg, cls = presets.dense_main(seed), presets.seg_main(seed), presets.cls_main(seed)
    control, dens = presets.control_mains(seed)
    return {
        "dense_main": dense, "dense_controller": presets.dense_controller(dense, seed + 1),
        "seg_main": seg, "seg_controller": presets.seg_controller(seg, seed + 1),
        "cls_main": cls, "cls_controller": presets.cls_controller(cls, seed + 1),
        "densification_dense": presets.densification_dense(seed),
        "control_main": control, "control_dens": dens,
    }


class TestSpecValidation:
    @pytest.mark.parametrize("case", list(_BAD_ARGS))
    def test_build_main_rejects(self, case):
        with pytest.raises(ConfigurationError):
            nets.build_main(nets.ModelSpec(*_BAD_ARGS[case]), 0)

    @pytest.mark.parametrize("case", list(_BAD_ARGS))
    def test_load_model_rejects(self, tmp_path, case):
        path = tmp_path / "model.rnl"
        nets.save_model(path, presets.cls_main(seed=2))
        _, arrays = serialize.load(path, "model")
        fields = [f.name for f in dataclasses.fields(nets.ModelSpec)]
        serialize.save(path, "model", dict(zip(fields, _BAD_ARGS[case])), arrays)
        with pytest.raises(SerializationError, match="spec"):
            nets.load_model(path)

    def test_every_shipped_preset_validates(self):
        models = [presets.dense_main(0), presets.seg_main(0), presets.cls_main(0),
                  presets.densification_dense(0), *presets.control_mains(0)]
        for m in models:
            again = nets.ModelSpec(**dataclasses.asdict(m.spec))
            assert again == m.spec
            assert (again.in_shape, again.layers, again.film_sites) == (
                m.spec.in_shape, m.spec.layers, m.spec.film_sites)
            x = np.zeros((1,) + m.spec.in_shape)
            assert np.all(np.isfinite(m.forward(x).array))

    @given(dense=st.booleans(), in_ch=st.integers(1, 3), out_ch=st.integers(1, 4),
           cells=st.integers(1, 4), film_k=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_every_builder_spec_runs(self, dense, in_ch, out_ch, cells, film_k):
        # The layers derived from any accepted arguments fit together: the
        # ops' own shape checks pass and the output has the task's shape.
        task, grid = ("dense_regression", 8 * cells) if dense else ("classification", 4 * cells)
        film_k = min(film_k, 4 if dense else 3)
        m = nets.build_main(nets.ModelSpec(task, in_ch, out_ch, grid, film_k), 0)
        x = np.random.default_rng(cells).random((2, in_ch, grid, grid))
        out = m.forward(x).array
        assert out.shape == ((2, out_ch, grid, grid) if dense else (2, out_ch))
        ident = _identity_film(m)
        assert np.array_equal(m.forward(x, film=ident).array, out)


class TestParamCount:
    def test_linear_with_bias(self):
        # the classifier at grid 4: three 3x3 convs, then a 16 -> 2 linear layer
        spec = nets.ModelSpec("classification", 1, 2, 4, 0)
        convs = (8 * 1 * 9 + 8) + (16 * 8 * 9 + 16) + (16 * 16 * 9 + 16)
        assert _size(nets.build_main(spec, 0).params) == convs + 16 * 2 + 2

    def test_conv_with_bias(self):
        # the UNet's eight convs (cin, cout, k), each with a bias
        spec = nets.ModelSpec("dense_regression", 1, 1, 8, 1)
        convs = [(1, 8, 3), (8, 16, 3), (16, 24, 3), (24, 32, 3),
                 (56, 24, 3), (40, 16, 3), (24, 8, 3), (8, 1, 1)]
        expected = sum(cout * cin * k * k + cout for cin, cout, k in convs)
        assert _size(nets.build_main(spec, 0).params) == expected

    def test_composite_vs_layerwise_sum(self):
        f = presets.dense_main(seed=0)
        expected = 0
        for layer in f.spec.layers:
            if layer["kind"] == "conv":
                expected += layer["cout"] * layer["cin"] * layer["k"] ** 2 + layer["cout"]
            elif layer["kind"] == "linear":
                expected += layer["nin"] * layer["nout"] + layer["nout"]
        assert _size(f.params) == expected


class TestPresetInit:
    # sha256 of state_bytes() at mains seed 7, controllers seed 8, pinned so
    # that any change of parameter layout or draw order shows.
    STATE_SHA256 = {
        "dense_main": "f5a670fed0f3c6d705faa7d4bb0926987158ab278c4840a91c9413738963bbd2",
        "dense_controller": "81192b8d499f324f05f219f15087a26dc9da69128dae4071f789ca8a85d45c43",
        "seg_main": "e86d2251cf3bf248032a2fddcf705aa080ca2f977b794da77dbe7babe0fc6c31",
        "seg_controller": "b959c459bf027dee1f7d94472c0c7067284fd183b836abc0151aa300823cf7f1",
        "cls_main": "fafa646088d9de86e95bb21e04d808eec1c4f2aad07ec0765d816ca32be2def0",
        "cls_controller": "6bfa1f6d0aad217b55bb36cecd506c9e2f09f0c2e03ff6f28875e2c859e18c62",
        "densification_dense": "14a3ee75a478f52d90d859fb27e70ed397a881780f29d4f471be98822d9dbb90",
        "control_main": "14a3ee75a478f52d90d859fb27e70ed397a881780f29d4f471be98822d9dbb90",
        "control_dens": "3bb3fd57773819c3512fa8033e93148cf3a8b4d6d667288fb20811ff9fd29e5d",
    }

    def test_state_bytes_pinned(self):
        got = {name: hashlib.sha256(net.params.state_bytes()).hexdigest()
               for name, net in _every_preset(7).items()}
        assert got == self.STATE_SHA256


class TestBudgetsAllShippedConfigs:
    def test_every_shipped_ratio_in_range(self):
        f = presets.dense_main(seed=0)
        hs = [(f, presets.dense_controller(f, 1))]
        s = presets.seg_main(seed=0)
        hs.append((s, presets.seg_controller(s, 1)))
        c = presets.cls_main(seed=0)
        hs.append((c, presets.cls_controller(c, 1)))
        fc, _ = presets.control_mains(seed=0)
        hs.append((fc, presets.dense_controller(fc, 1)))
        for main, ctrl in hs:
            ratio = _size(ctrl.params) / _size(main.params)
            assert 0.05 <= ratio <= 0.20, ratio


def _saved_file(path, kind: str) -> tuple[dict, dict]:
    """Save cls_main's model or dense_controller's controller to ``path``;
    the file's spec fields and arrays."""
    if kind == "model":
        nets.save_model(path, presets.cls_main(seed=2))
    else:
        nets.save_controller(path, presets.dense_controller(presets.dense_main(seed=2), seed=3))
    return serialize.load(path, kind)


def _write(path, header: dict, arrays: dict, version: int = serialize.VERSION) -> None:
    """Write ``header`` and ``arrays`` (as float64) as a checksummed
    container of ``version``; the header is written as given."""
    head = json.dumps(header).encode()
    blob = b"".join(np.asarray(a, "<f8").tobytes() for a in arrays.values())
    body = (serialize.MAGIC + struct.pack("<I", version) + struct.pack("<Q", len(head)) + head
            + struct.pack("<Q", len(blob)) + blob)
    path.write_bytes(body + hashlib.sha256(body).digest())


def _directory(arrays: dict, **extra) -> list[dict]:
    return [{"name": name, "shape": list(a.shape), **extra} for name, a in arrays.items()]


# Ways a file of either kind can be malformed, as _malform applies them.
_MALFORMED_FILES = ["no_spec", "spec_not_a_string", "spec_not_json", "spec_not_an_object",
                    "extra_field", "missing_field", "float_field", "unknown_arch",
                    "spec_other_than_arrays", "extra_array", "missing_array", "wrong_shape"]


def _malform(case: str, kind: str, spec: dict, arrays: dict) -> dict:
    """The header of a file of ``kind`` whose spec fields and arrays were
    saved, edited in the way ``case`` names; ``arrays`` is edited in place."""
    # the kind's architecture field, an int field some array shape follows,
    # and its first array
    arch, count, first = ("task_kind", "out_ch", "L0.w") if kind == "model" else ("arch", "hidden", "c1.w")
    if case == "spec_not_a_string":
        spec = 5  # neither an object nor the JSON string the version-1 files held
    elif case == "spec_not_json":
        spec = "{not json"  # a string: a JSON-encoded spec, as version 1 held it, is refused too
    elif case == "spec_not_an_object":
        spec = [1, 2]
    elif case == "extra_field":
        spec["layers"] = 5  # as model files held a layer list before the builder spec
    elif case == "missing_field":
        del spec[count]
    elif case == "float_field":
        # float and int shapes compare equal, so only the spec's type check refuses it
        spec[count] = float(spec[count])
    elif case == "unknown_arch":
        spec[arch] = "rnn"
    elif case == "spec_other_than_arrays":
        spec[count] -= 1
    elif case == "extra_array":
        arrays["extra.w"] = np.zeros(3)
    elif case == "missing_array":
        del arrays[first]
    elif case == "wrong_shape":
        arrays[first] = np.zeros((2, 2))
    header = {"kind": kind, "spec": spec, "arrays": _directory(arrays)}
    if case == "no_spec":
        del header["spec"]
    return header


class TestSpecSerialization:
    def test_spec_round_trip(self, tmp_path):
        # a model file stores the five builder arguments and nothing else
        f = presets.dense_main(seed=0)
        path = tmp_path / "model.rnl"
        nets.save_model(path, f)
        stored, _ = serialize.load(path, "model")
        assert stored == {"task_kind": "dense_regression", "in_ch": 1, "out_ch": 1, "grid": 32, "film_k": 4}
        assert nets.ModelSpec(**stored) == f.spec

    def test_every_preset_round_trips_bit_identically(self, tmp_path):
        rng = np.random.default_rng(17)
        for name, net in _every_preset(7).items():
            path = tmp_path / f"{name}.rnl"
            if isinstance(net, nets.Model):
                nets.save_model(path, net)
                loaded, _ = nets.load_model(path)
                assert loaded.spec == net.spec
                x = rng.random((2,) + net.spec.in_shape)
                assert loaded.forward(x).array.tobytes() == net.forward(x).array.tobytes()
            else:
                net.params.get("head.w")[:] = rng.normal(0, 0.05, net.params.get("head.w").shape)
                nets.save_controller(path, net)
                loaded, _ = nets.load_controller(path)
                c = net.cspec
                fb = rng.random((2, c.in_channels, 32, 32) if c.arch == "conv" else (2, c.in_channels))
                got, want = _arrays(loaded.forward(fb)), _arrays(net.forward(fb))
                assert [(g.tobytes(), b.tobytes()) for g, b in got] == [
                    (g.tobytes(), b.tobytes()) for g, b in want]
            assert loaded.params.state_bytes() == net.params.state_bytes()

    def test_model_file_round_trip(self, tmp_path):
        f = presets.dense_main(seed=2)
        path = tmp_path / "model.rnl"
        nets.save_model(path, f)
        loaded, fields = nets.load_model(path)
        assert loaded.spec == f.spec
        assert loaded.params.state_bytes() == f.params.state_bytes()
        assert fields == dataclasses.asdict(f.spec)

    def test_version_mismatch_message(self, tmp_path):
        f = presets.cls_main(seed=2)
        path = tmp_path / "model.rnl"
        nets.save_model(path, f)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="version 99"):
            serialize.load(path, "model")

    def test_controller_round_trip(self, tmp_path, dense_pair):
        _, h = dense_pair
        path = tmp_path / "ctrl.rnl"
        nets.save_controller(path, h)
        loaded, _ = nets.load_controller(path)
        assert loaded.cspec == h.cspec
        assert loaded.params.state_bytes() == h.params.state_bytes()

    def test_mlp_controller_round_trip(self, tmp_path):
        h = presets.cls_controller(presets.cls_main(seed=3), seed=4)
        h.params.get("head.w")[:] = np.random.default_rng(3).normal(0, 0.05, h.params.get("head.w").shape)
        path = tmp_path / "ctrl.rnl"
        nets.save_controller(path, h)
        loaded, _ = nets.load_controller(path)
        assert loaded.cspec == h.cspec
        assert _names(loaded.params) == _names(h.params)
        assert loaded.params.state_bytes() == h.params.state_bytes()
        fb = np.random.default_rng(4).random((2, h.cspec.in_channels))
        for (g, b), (g2, b2) in zip(_arrays(h.forward(fb)), _arrays(loaded.forward(fb))):
            assert np.array_equal(g, g2) and np.array_equal(b, b2)

    @pytest.mark.parametrize("kind", ["model", "controller"])
    def test_files_of_the_previous_format_rejected(self, tmp_path, kind):
        # Container version 1 held the spec as a JSON string in a "meta"
        # object beside "format": 5, and a dtype in each array entry.
        path = tmp_path / f"{kind}.rnl"
        spec, arrays = _saved_file(path, kind)
        meta = {"format": 5, "spec": json.dumps(spec, sort_keys=True)}
        _write(path, {"kind": kind, "meta": meta, "arrays": _directory(arrays, dtype="f8")}, arrays, version=1)
        load = nets.load_model if kind == "model" else nets.load_controller
        with pytest.raises(SerializationError, match=f"container version 1 .*expected {serialize.VERSION}"):
            load(path)

    @pytest.mark.parametrize("case", _MALFORMED_FILES)
    @pytest.mark.parametrize("kind", ["model", "controller"])
    def test_malformed_file_rejected(self, tmp_path, kind, case):
        path = tmp_path / f"{kind}.rnl"
        spec, arrays = _saved_file(path, kind)
        _write(path, _malform(case, kind, spec, arrays), arrays)
        load = nets.load_model if kind == "model" else nets.load_controller
        # a spec that is no JSON object fails the container's header check
        no_object = case in ("no_spec", "spec_not_a_string", "spec_not_json", "spec_not_an_object")
        match = "lacks a kind, spec or arrays" if no_object else f"{kind} file (spec|arrays)"
        with pytest.raises(SerializationError, match=match):
            load(path)

    @pytest.mark.parametrize(
        "case",
        ["layers_not_a_list", "site_without_channels", "parent_layer_list", "conv_without_stride",
         "missing_field"],
    )
    def test_malformed_model_file_rejected(self, tmp_path, case):
        # A spec holds exactly the five builder arguments: a layer-list field
        # next to them, or a layer-list spec as older files hold, is refused
        # even under the current format.
        path = tmp_path / "model.rnl"
        spec, arrays = _saved_file(path, "model")
        built = nets.ModelSpec(**spec)
        parent = {"task_kind": "classification", "in_shape": list(built.in_shape),
                  "layers": [dict(layer) for layer in built.layers],
                  "film_sites": [list(site) for site in built.film_sites]}
        for layer in parent["layers"]:
            if layer["kind"] == "conv":
                layer.update(stride=1, pad=layer["k"] // 2, bias=True)
        if case == "layers_not_a_list":
            spec["layers"] = 5
        elif case == "site_without_channels":
            spec["film_sites"] = [[1]]
        elif case == "parent_layer_list":
            spec = parent
        elif case == "conv_without_stride":
            del parent["layers"][0]["stride"]
            spec = parent
        else:  # missing_field
            del spec["film_k"]
        serialize.save(path, "model", spec, arrays)
        with pytest.raises(SerializationError, match="model file spec"):
            nets.load_model(path)

    @pytest.mark.parametrize("case", ["hidden_disagrees", "film_channels_disagree"])
    def test_malformed_controller_file_rejected(self, tmp_path, case):
        # a spec that builds but names other shapes than the arrays hold
        path = tmp_path / "ctrl.rnl"
        cspec, arrays = _saved_file(path, "controller")
        assert cspec["hidden"] == 16 and cspec["film_channels"] == [16, 24, 24, 16]
        if case == "hidden_disagrees":
            # the arrays are still those of hidden=16, so fc.w is 16 wide
            cspec["hidden"] = 5
        else:  # film_channels_disagree
            # the head still fits [16, 24, 24, 16]; the spec says the last site has 8
            cspec["film_channels"] = [16, 24, 24, 8]
        serialize.save(path, "controller", cspec, arrays)
        with pytest.raises(SerializationError, match="controller file arrays do not match"):
            nets.load_controller(path)

    @pytest.mark.parametrize("spec", ['{"task_kind": "x"}'])
    def test_model_file_with_missing_or_bad_spec_rejected(self, tmp_path, spec):
        # a spec of one field, and that of no known task kind
        path = tmp_path / "model.rnl"
        _, arrays = _saved_file(path, "model")
        serialize.save(path, "model", json.loads(spec), arrays)
        with pytest.raises(SerializationError, match="model file spec"):
            nets.load_model(path)


class TestGradientsThroughModel:
    def test_tto_step_records_only_film_dependent_nodes(self, dense_pair):
        # Frozen main weights are constants, not tape leaves: a FiLM TTO step
        # on the UNet records 8 FiLM leaves, 23 ops from the first site on
        # and the loss.
        f, _ = dense_pair
        f.params.set_frozen(True)
        try:
            x = np.random.default_rng(21).random((1,) + f.spec.in_shape)
            f.forward(x)  # the unadapted pass an episode starts with
            with ad.Tape() as tape:
                film = TestPassReuse.film_leaves(f, tape, 22)
                loss = ad.mean_l1(f.forward(x, film=film, tape=tape), np.zeros_like(x))
                ad.backward(loss)
        finally:
            f.params.set_frozen(False)
        assert len(tape.nodes) == 32

    def test_cls_controller_training_step_records_one_node_per_weighted_layer(self):
        # A controller training step on the classifier, as the cls_knn set-up
        # runs it, records the controller's 4 parameter leaves, its two
        # linear layers and relu, per site (3) the gamma and beta slices and
        # gamma's 1 + residual, the frozen main's 11 ops from the first site
        # on and the loss: each linear layer, like each conv, is one node.
        main = presets.cls_main(seed=0)
        main.params.set_frozen(True)
        controller = presets.cls_controller(main, 1)
        rng = np.random.default_rng(22)
        x = rng.random((2,) + main.spec.in_shape)
        feedback = rng.random((2, controller.cspec.in_channels))
        with ad.Tape() as tape:
            lifted = controller.lift(tape)
            film = controller.forward(feedback, lifted=lifted)
            loss = ad.softmax_cross_entropy(main.forward(x, film=film, tape=tape), [0, 1])
            ad.backward(loss)
        assert len(tape.nodes) == 28

    def test_training_step_peak_memory(self):
        # One batch-8 UNet training step on the tape: backward frees what each
        # node kept once it has run, and a trainable conv keeps its input
        # rather than its row matrix (k copies of the padded input). The bound
        # lies between the ~13 MiB this peaks at and the ~19 MiB of a tape
        # that keeps every closure until it dies and each conv's row matrix.
        model = presets.dense_main(seed=3)
        rng = np.random.default_rng(25)
        x, y = (rng.random((8,) + model.spec.in_shape) for _ in range(2))

        def step():
            with ad.Tape() as tape:
                lifted = model.params.lift(tape)
                ad.backward(ad.mean_l1(model.forward(x, lifted=lifted), y))
            ad.sgd_step(model.params, model.params.grads_from(tape, lifted), 0.01)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_tto_step_graph_freed_without_garbage_collector(self, dense_pair):
        # Nodes refer to their tape weakly, so reference counting alone frees
        # a finished step's tape and the graph it holds.
        f, _ = dense_pair
        x = np.random.default_rng(20).random((1,) + f.spec.in_shape)
        sites = range(len(f.spec.film_sites))
        film = ad.ParamSet()
        for s, (_, c) in zip(sites, f.spec.film_sites):
            film.add(f"g{s}", np.ones(c))
            film.add(f"b{s}", np.zeros(c))

        def step():
            with ad.Tape() as tape:
                lifted = film.lift(tape)
                fp = nets.FiLMParams([(lifted[f"g{s}"], lifted[f"b{s}"]) for s in sites])
                loss = ad.mean_l1(f.forward(x, film=fp, tape=tape), np.zeros_like(x))
                ad.backward(loss)
            ad.sgd_step(film, film.grads_from(tape, lifted), 0.05)
            return weakref.ref(tape)

        gc.disable()
        try:
            assert step()() is None
        finally:
            gc.enable()

    def test_film_params_gradient_finite_difference(self):
        rng = np.random.default_rng(18)
        x = rng.random((1, 1, 8, 8))
        # the UNet at grid 8 with its first site (layer 4, 16 channels) keeps
        # the finite-difference loop fast
        m = nets.build_main(nets.ModelSpec("dense_regression", 1, 1, 8, 1), 19)
        target = rng.random((1, 1, 8, 8))
        gamma = 1.0 + 0.1 * rng.normal(size=(1, 16))
        beta = 0.1 * rng.normal(size=(1, 16))

        def loss_value(g, b):
            fp = nets.FiLMParams([(g, b)])
            out = m.forward(x, film=fp)
            return ad.mean_l1(out, target).item()

        with ad.Tape() as tape:
            gt = tape.leaf(gamma)
            bt = tape.leaf(beta)
            fp = nets.FiLMParams([(gt, bt)])
            out = m.forward(x, film=fp, tape=tape)
            loss = ad.mean_l1(out, target)
            ad.backward(loss)

        fd_g = central_fd(lambda: loss_value(gamma, beta), gamma)
        fd_b = central_fd(lambda: loss_value(gamma, beta), beta)
        assert max_rel_err(tape.grad(gt), fd_g) < 1e-4
        assert max_rel_err(tape.grad(bt), fd_b) < 1e-4


class TestConcurrentEpisodes:
    @staticmethod
    def tto_episode(f, x, target, mask, steps=3, lr=0.05) -> bytes:
        """FiLM-only TTO on one image with the main network frozen.

        The unadapted pass comes first, so every later pass of the episode
        resumes from it at the first site.
        """
        before = f.forward(x).array.tobytes()
        sites = range(len(f.spec.film_sites))
        film = ad.ParamSet()
        for s, (_, c) in zip(sites, f.spec.film_sites):
            film.add(f"g{s}", np.ones(c))
            film.add(f"b{s}", np.zeros(c))

        def film_of(values):
            return nets.FiLMParams([(values[f"g{s}"], values[f"b{s}"]) for s in sites])

        for _ in range(steps):
            with ad.Tape() as tape:
                lifted = film.lift(tape)
                pred = f.forward(x, film=film_of(lifted), tape=tape)
                ad.backward(ad.masked_l1(pred, target, mask))
            ad.sgd_step(film, film.grads_from(tape, lifted), lr)
        after = f.forward(x, film=film_of(film.lift(None))).array.tobytes()
        return before + film.state_bytes() + after

    def test_threaded_tto_episodes_equal_sequential_bitwise(self):
        # Tapes are thread-local and the kernels keep no shared work
        # buffer, so episodes interleaved on threads give the sequential bits.
        f = presets.dense_main(seed=11)
        f.params.set_frozen(True)
        rng = np.random.default_rng(12)
        cases = [
            (rng.random((1,) + f.spec.in_shape), rng.random((1,) + f.spec.in_shape),
             (rng.random((1,) + f.spec.in_shape[1:]) < 0.1).astype(float))
            for _ in range(6)
        ]
        sequential = [self.tto_episode(f, *case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(self.tto_episode, f, *case) for case in cases]
                threaded = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential


class TestPassReuse:
    """Model.forward reuses its last unmodulated pass on frozen weights."""

    @staticmethod
    def film_leaves(model, tape, seed):
        rng = np.random.default_rng(seed)
        return nets.FiLMParams([
            (tape.leaf(1.0 + 0.1 * rng.normal(size=c)), tape.leaf(0.1 * rng.normal(size=c)))
            for _, c in model.spec.film_sites
        ])

    @classmethod
    def episode(cls, model, x, seed=3) -> list[bytes]:
        """The calls of an adaptation episode on one image, as bytes."""
        out = [model.forward(x).array.tobytes(), model.forward(x).array.tobytes()]
        _, acts = model.forward(x, return_acts=True)
        out += [a.array.tobytes() for a in acts]
        if model.spec.film_sites:
            with ad.Tape() as tape:
                film = cls.film_leaves(model, tape, seed)
                pred, acts = model.forward(x, film=film, tape=tape, return_acts=True)
                ad.backward(ad.sum_all(ad.relu(pred)))
            out += [a.array.tobytes() for a in acts]
            out += [tape.grad(t).tobytes() for site in film.sites for t in site]
            film = nets.FiLMParams([(g.array, b.array) for g, b in film.sites])
            out.append(model.forward(x, film=film).array.tobytes())
        out.append(model.forward(x).array.tobytes())
        return out

    @staticmethod
    def models():
        dense = presets.dense_main(seed=31)
        cls_sites = presets.cls_main(seed=32)
        plain = nets.build_main(nets.ModelSpec("classification", 1, 20, 16, 0), 33)  # no sites: every layer is kept
        return [dense, cls_sites, plain]

    @staticmethod
    def conv_calls(monkeypatch) -> list[int]:
        calls = [0]
        conv = ad.conv2d

        def spy(*args, **kwargs):
            calls[0] += 1
            return conv(*args, **kwargs)

        monkeypatch.setattr(ad, "conv2d", spy)
        return calls

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("batch", [None, 1, 2])
    def test_episode_bit_identical_to_a_fresh_model(self, which, batch):
        # batch None: one unbatched image, which forward rejects; the rejected
        # call must leave the kept pass as it was for the image sent as a batch
        model = self.models()[which]
        model.params.set_frozen(True)
        x = np.random.default_rng(34).random((batch or 1,) + model.spec.in_shape)
        if batch is None:
            model.forward(x)
            for m in (model, _FreshEveryCall(model)):
                with pytest.raises(DimensionError, match=r"Model\.forward"):
                    m.forward(x[0])
        assert self.episode(model, x) == self.episode(_FreshEveryCall(model), x)

    def test_reuse_skips_the_prefix_and_only_there(self, monkeypatch):
        model = presets.dense_main(seed=35)  # 8 convs, 2 before the first site (layer 4)
        model.params.set_frozen(True)
        x = np.random.default_rng(36).random((1,) + model.spec.in_shape)
        film = _identity_film(model)
        calls = self.conv_calls(monkeypatch)

        def convs(*args, **kwargs):
            before = calls[0]
            model.forward(*args, **kwargs)
            return calls[0] - before

        assert convs(x) == 8
        assert convs(x) == 0
        assert convs(x, film=film) == 6
        assert convs(x, return_acts=True) == 6
        with ad.Tape() as tape:
            assert convs(x, film=film, tape=tape) == 6  # frozen main weights: TTO
        with ad.Tape() as tape:
            assert convs(tape.leaf(x)) == 8  # taped input needing a gradient
        assert convs(x) == 0  # which neither reused nor replaced the kept pass
        assert convs(x.copy()) == 0  # equal values, another array
        pair = np.concatenate([x, x])
        assert convs(pair) == 8  # another shape
        assert convs(pair) == 8  # a batch of two is not kept
        assert convs(x) == 0  # nor does it replace the kept pass
        model.params.set_frozen(False)
        with ad.Tape() as tape:
            assert convs(x, tape=tape) == 8  # unfrozen parameters
        assert convs(x) == 8  # are never reused
        assert convs(x) == 8  # nor kept
        model.params.set_frozen(True)
        assert convs(x) == 8  # new constants, though with the same values
        assert convs(x) == 0

    def test_in_place_edits_defeat_reuse(self, monkeypatch):
        model = presets.dense_main(seed=37)
        model.params.set_frozen(True)
        x = np.random.default_rng(38).random((1,) + model.spec.in_shape)
        film = _identity_film(model)
        calls = self.conv_calls(monkeypatch)

        def check(*args, **kwargs):
            before = calls[0]
            got = model.forward(*args, **kwargs).array
            ran = calls[0] - before
            want = nets.Model(model.spec, model.params).forward(*args, **kwargs).array
            assert got.tobytes() == want.tobytes()
            return ran

        def edit(name, index, delta):
            model.params.set_frozen(False)
            model.params.get(name)[index] += delta
            model.params.set_frozen(True)

        assert check(x) == 8
        x[0, 0, 5, 5] += 0.5
        assert check(x) == 8
        assert check(x, film=film) == 6
        # frozen weights are read-only: unfreeze, edit, refreeze
        edit("L0.w", (0, 0, 1, 1), 0.25)  # before the first site
        assert check(x, film=film) == 8
        assert check(x) == 8
        assert check(x) == 0
        edit("L23.b", 0, -0.125)  # after the first site
        assert check(x, film=film) == 8
        assert check(x) == 8
        # unfrozen weights are never reused, edited or not
        model.params.set_frozen(False)
        lifted = model.params.lift(None)  # plain tensors over the writable values
        assert check(x) == 8
        assert check(x, lifted=lifted) == 8
        model.params.get("L0.w")[0, 0, 1, 1] -= 0.25
        assert check(x, lifted=lifted) == 8  # the same tensors, new values
        assert check(x) == 8
        model.params.set_frozen(True)
        assert check(x) == 8
        assert check(x, lifted=model.params.lift(None)) == 0  # a caller's lift of the same constants
        twin = model.params.clone()
        assert check(x, lifted=twin.lift(None)) == 8  # equal values, other constants
        lifted = {n: ad.Tensor(v + 1e-3) for n, v in model.params.items()}
        assert check(x, lifted=lifted) == 8  # the weights a call reads, not the store's

    def test_only_the_frozen_sets_own_mapping_is_reused(self, monkeypatch):
        model = presets.dense_main(seed=54)
        model.params.set_frozen(True)
        x = np.random.default_rng(55).random((1,) + model.spec.in_shape)
        want = model.forward(x).array.tobytes()
        calls = self.conv_calls(monkeypatch)

        def convs(**kwargs):
            before = calls[0]
            assert model.forward(x, **kwargs).array.tobytes() == want
            return calls[0] - before

        consts = model.params.lift(None)
        assert convs() == 0
        assert convs(lifted=consts) == 0  # the caller's lift is the same mapping
        assert convs(lifted=dict(consts)) == 8  # the same constants in another dict
        assert convs(lifted=model.params.clone().lift(None)) == 8  # a twin's constants
        assert convs(lifted={n: ad.Tensor(v) for n, v in model.params.items()}) == 8  # plain tensors
        assert convs() == 0  # none of them replaced the kept pass
        model.params.set_frozen(False)
        model.params.set_frozen(True)
        assert model.params.lift(None) is not consts
        assert convs() == 8  # refrozen: a new mapping, so a full pass
        assert convs() == 0  # which is kept and reused
        assert convs(lifted=consts) == 8  # the old mapping no longer matches

    def test_unfrozen_weights_are_never_reused(self, monkeypatch):
        src = presets.dense_main(seed=50)
        base = src.params.get("L0.w").copy()
        view = base[...]
        view.flags.writeable = False
        params = ad.ParamSet()
        for name, v in src.params.items():
            params.add(name, view if name == "L0.w" else v)
        model = nets.Model(src.spec, params)
        x = np.random.default_rng(51).random((1,) + model.spec.in_shape)
        calls = self.conv_calls(monkeypatch)
        model.forward(x)
        model.forward(x)
        assert calls[0] == 16  # read-only, but not frozen
        base[0, 0, 1, 1] += 0.25  # the parameter is a view of this writable array
        got = model.forward(x).array
        assert calls[0] == 24
        assert got.tobytes() == nets.Model(model.spec, params).forward(x).array.tobytes()

    def test_views_taken_before_freezing_cannot_stale_the_kept_pass(self, monkeypatch):
        model = presets.dense_main(seed=52)
        view = model.params.get("L0.w")[...]
        model.params.set_frozen(True)
        x = np.random.default_rng(53).random((1,) + model.spec.in_shape)
        model.forward(x)
        view[0, 0, 1, 1] += 0.25  # writes the array the parameter had before freezing
        calls = self.conv_calls(monkeypatch)
        got = model.forward(x).array.tobytes()
        assert calls[0] == 0
        assert got == presets.dense_main(seed=52).forward(x).array.tobytes()
        assert got == nets.Model(model.spec, model.params.clone()).forward(x).array.tobytes()

    def test_frozen_weights_are_read_only(self):
        model = presets.dense_main(seed=44)
        model.params.set_frozen(True)
        with pytest.raises(ValueError, match="read-only"):
            model.params.get("L0.w")[0, 0, 1, 1] += 0.25
        with pytest.raises(ValueError, match="read-only"):
            model.params.lift(None)["L23.b"].array[0] = 1.0
        model.params.set_frozen(False)
        model.params.get("L0.w")[0, 0, 1, 1] += 0.25

    def test_conv_operand_cache_dies_with_the_model(self):
        model = presets.dense_main(seed=45)
        model.params.set_frozen(True)
        x = np.random.default_rng(46).random((1,) + model.spec.in_shape)
        with ad.Tape() as tape:
            film = self.film_leaves(model, tape, 47)
            ad.backward(ad.sum_all(model.forward(x, film=film, tape=tape)))
        kernel = model.params.lift(None)["L21.w"]
        forward_cols = weakref.ref(kernel.derived["taps"])
        backward_cols = weakref.ref(kernel.derived["flipped_taps"])
        del model, kernel, tape, film
        gc.collect()
        assert forward_cols() is None and backward_cols() is None

    def test_unfreezing_leaves_the_old_constant_and_its_cache(self):
        model = presets.dense_main(seed=48)
        model.params.set_frozen(True)
        x = np.random.default_rng(49).random((1,) + model.spec.in_shape)
        kernel = model.params.lift(None)["L3.w"]
        model.forward(x)
        taps = kernel.derived["taps"]
        assert set(kernel.derived) == {"taps"}
        model.params.set_frozen(False)
        model.params.get("L3.w")[...] *= 2.0
        assert set(kernel.derived) == {"taps"} and kernel.derived["taps"] is taps
        assert kernel.array.tobytes() == nets.build_main(model.spec, 48).params.get("L3.w").tobytes()
        assert not kernel.array.flags.writeable
        model.params.set_frozen(True)
        fresh = model.params.lift(None)["L3.w"]
        assert fresh is not kernel and fresh.derived == {}
        want = nets.build_main(model.spec, 48)
        want.params.get("L3.w")[...] *= 2.0
        assert model.forward(x).array.tobytes() == want.forward(x).array.tobytes()

    def test_returned_arrays_cannot_corrupt_a_later_reuse(self):
        for model in self.models():
            model.params.set_frozen(True)
            x = np.random.default_rng(39).random((1,) + model.spec.in_shape)
            want = self.episode(_FreshEveryCall(model), x)
            out, acts = model.forward(x, return_acts=True)
            for t in [out, *acts]:
                t.array[...] = 7.0
            x[...] = np.random.default_rng(39).random(x.shape)  # same values again
            model.forward(x).array[...] = 7.0
            assert self.episode(model, x) == want
            for t in model.forward(x, return_acts=True)[1]:
                t.array[...] = 7.0
            assert self.episode(model, x) == want

    def test_threads_keep_their_own_pass(self, monkeypatch):
        model = presets.dense_main(seed=40)
        model.params.set_frozen(True)
        x = np.random.default_rng(41).random((1,) + model.spec.in_shape)
        calls = self.conv_calls(monkeypatch)
        model.forward(x)
        with ThreadPoolExecutor(max_workers=1) as pool:
            before = calls[0]
            pool.submit(model.forward, x).result(timeout=60)
            assert calls[0] - before == 8
            before = calls[0]
            pool.submit(model.forward, x).result(timeout=60)
            assert calls[0] - before == 0
        before = calls[0]
        model.forward(x)
        assert calls[0] - before == 0

    def test_kept_pass_is_bounded_and_dies_with_the_model(self):
        model = presets.cls_main(seed=42)
        model.params.set_frozen(True)
        rng = np.random.default_rng(43)
        model.forward(rng.random((1,) + model.spec.in_shape))
        first = weakref.ref(model._memo.last.out)
        model.forward(rng.random((1,) + model.spec.in_shape))
        assert first() is None  # one pass per model and thread
        second = weakref.ref(model._memo.last.out)
        del model
        gc.collect()
        assert second() is None


class TestKeptPassProperty:
    """Any sequence of calls, freezes and edits gives a fresh model's bits."""

    OPS = ["plain", "film", "acts", "tto", "edit", "unfreeze", "refreeze", "new_input"]

    @staticmethod
    def call(model, op, x, film_values) -> list[bytes]:
        if op == "plain":
            return [model.forward(x).array.tobytes()]
        if op == "film":
            return [model.forward(x, film=nets.FiLMParams(film_values)).array.tobytes()]
        if op == "acts":
            out, acts = model.forward(x, return_acts=True)
            return [t.array.tobytes() for t in [out, *acts]]
        # a taped FiLM TTO step
        with ad.Tape() as tape:
            film = nets.FiLMParams([(tape.leaf(g), tape.leaf(b)) for g, b in film_values])
            pred = model.forward(x, film=film, tape=tape)
            ad.backward(ad.sum_all(ad.relu(pred)))
        return [pred.array.tobytes()] + [tape.grad(t).tobytes() for site in film.sites for t in site]

    @given(which=st.sampled_from(["dense", "cls"]),
           ops=st.lists(st.sampled_from(OPS), max_size=10),
           seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_every_call_matches_a_fresh_model(self, which, ops, seed):
        model = presets.dense_main(seed=60) if which == "dense" else presets.cls_main(seed=61)
        model.params.set_frozen(True)
        fresh = _FreshEveryCall(model)
        rng = np.random.default_rng(seed)
        x = rng.random((1,) + model.spec.in_shape)
        names = _names(model.params)

        def check(op):
            film_values = [(1.0 + 0.1 * rng.normal(size=c), 0.1 * rng.normal(size=c))
                           for _, c in model.spec.film_sites]
            assert self.call(model, op, x, film_values) == self.call(fresh, op, x, film_values)

        for op in ops:
            if op in ("plain", "film", "acts", "tto"):
                check(op)
            elif op == "edit":
                kernel = model.params.lift(None)["L0.w"]
                if isinstance(kernel, ad._Constant):
                    check("plain")  # a frozen forward fills the first kernel's tap columns
                    taps = kernel.derived["taps"]
                    held = (kernel.array.tobytes(), taps.tobytes())
                model.params.set_frozen(False)
                value = model.params.get(names[int(rng.integers(len(names)))])
                value.flat[int(rng.integers(value.size))] += 0.25
                model.params.set_frozen(True)
                if isinstance(kernel, ad._Constant):
                    assert (kernel.array.tobytes(), taps.tobytes()) == held
                    assert not kernel.array.flags.writeable
                    assert kernel.derived["taps"] is taps
            elif op == "unfreeze":
                model.params.set_frozen(False)
            elif op == "refreeze":
                model.params.set_frozen(True)
            else:
                x = rng.random((1,) + model.spec.in_shape)
        check("plain")


class TestAdaptationInvariants:
    def test_tto_at_lr_zero_changes_nothing(self):
        f = presets.dense_main(seed=13)
        f.params.set_frozen(True)
        rng = np.random.default_rng(14)
        x = rng.random((1,) + f.spec.in_shape)
        target = rng.random(x.shape)
        mask = (rng.random((1,) + f.spec.in_shape[1:]) < 0.1).astype(float)
        before = f.forward(x).array.tobytes()
        film = ad.ParamSet()
        for s, (_, c) in enumerate(f.spec.film_sites):
            film.add(f"g{s}", np.ones(c))
            film.add(f"b{s}", np.zeros(c))
        identity, main = film.state_bytes(), f.params.state_bytes()

        def film_of(values):
            return nets.FiLMParams([(values[f"g{s}"], values[f"b{s}"])
                                    for s in range(len(f.spec.film_sites))])

        for _ in range(5):
            with ad.Tape() as tape:
                lifted = film.lift(tape)
                pred = f.forward(x, film=film_of(lifted), tape=tape)
                ad.backward(ad.masked_l1(pred, target, mask))
            ad.sgd_step(film, film.grads_from(tape, lifted), 0.0)
        assert film.state_bytes() == identity
        assert f.params.state_bytes() == main
        assert f.forward(x, film=film_of(film.lift(None))).array.tobytes() == before

    @pytest.mark.parametrize("task", ["dense", "cls"])
    def test_untaped_passes_and_a_controller_episode_make_no_tape(self, task, monkeypatch):
        # Counted as the benchmark's tracer counts tapes: by wrapping Tape.__init__.
        made = [0]
        init = ad.Tape.__init__

        def counting_init(tape):
            made[0] += 1
            init(tape)

        monkeypatch.setattr(ad.Tape, "__init__", counting_init)
        rng = np.random.default_rng(15)
        if task == "dense":
            main = presets.dense_main(seed=16)
            controller = presets.dense_controller(main, seed=17)
            x = rng.random((1,) + main.spec.in_shape)
            sig = signals.noisy_sparse(rng.random(x.shape[1:]), 0.05, 0.02, 0.05, seed=18)
        else:
            main = presets.cls_main(seed=16)
            controller = presets.cls_controller(main, seed=17)
            x = rng.random((1,) + main.spec.in_shape)
            sig = signals.coarse_label(3, signals.make_coarse_grouping(presets.NUM_CLASSES, presets.NUM_COARSE))
        main.params.set_frozen(True)

        before = main.forward(x)
        feedback = signals.encode_feedback(before, [sig])
        film = controller.forward(feedback)
        main.forward(x, film=film)
        assert made[0] == 0
        ad.Tape()
        assert made[0] == 1  # the count sees a tape when one is made


class _FreshEveryCall:
    """A model whose every forward runs on a new Model instance."""

    def __init__(self, model):
        self.spec, self.params = model.spec, model.params

    def forward(self, *args, **kwargs):
        return nets.Model(self.spec, self.params).forward(*args, **kwargs)
