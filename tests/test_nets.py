import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnaloop import autodiff as ad
from rnaloop import nets, presets
from rnaloop.errors import ConfigurationError, ContractError, DimensionError, SerializationError

from oracles import central_fd, max_rel_err


@pytest.fixture(scope="module")
def dense_pair():
    f = presets.dense_main(seed=7)
    h = presets.dense_controller(f, seed=8)
    return f, h


class TestBuildMain:
    def test_dense_shape_contract(self):
        f = presets.dense_main(seed=0)
        x = np.random.default_rng(0).random((1, 32, 32))
        out = f.forward(x)
        assert out.shape == (1, 32, 32)

    def test_classifier_shape_contract(self):
        f = presets.cls_main(seed=0)
        x = np.random.default_rng(0).random((1, 16, 16))
        out = f.forward(x)
        assert out.shape == (presets.NUM_CLASSES,)

    def test_seed_determinism(self):
        a = presets.dense_main(seed=3)
        b = presets.dense_main(seed=3)
        assert a.params.state_bytes() == b.params.state_bytes()
        c = presets.dense_main(seed=4)
        assert a.params.state_bytes() != c.params.state_bytes()

    def test_inconsistent_spec_rejected(self):
        spec = nets.unet_spec("dense_regression")
        spec.layers[3]["cin"] = 99
        with pytest.raises(ConfigurationError):
            nets.build_main(spec, 0)

    def test_batched_forward_matches_single(self):
        # bit-exactness across batch sizes is not promised (BLAS blocking);
        # agreement at float64 resolution is
        f = presets.dense_main(seed=5)
        xb = np.random.default_rng(1).random((3, 1, 32, 32))
        out = f.forward(xb).array
        for n in range(3):
            assert np.allclose(out[n], f.forward(xb[n]).array, atol=1e-12, rtol=0)


class TestFilmSites:
    def test_identity_insertion(self):
        spec = nets.unet_spec("dense_regression")
        base = nets.build_main(spec, 11)
        x = np.random.default_rng(2).random((1, 32, 32))
        before = base.forward(x).array
        filmed = nets.insert_film_sites(base, 4)
        ident = nets.FiLMParams.identity([c for _, c in filmed.spec.film_sites])
        after = filmed.forward(x, film=ident).array
        assert np.array_equal(before, after)

    def test_k_zero_is_noop(self):
        base = nets.build_main(nets.unet_spec("dense_regression"), 11)
        filmed = nets.insert_film_sites(base, 0)
        assert filmed.spec.film_sites == []
        x = np.random.default_rng(3).random((1, 32, 32))
        assert np.array_equal(base.forward(x).array, filmed.forward(x).array)

    def test_k_exceeds_eligible_layers(self):
        base = nets.build_main(nets.unet_spec("dense_regression"), 11)
        with pytest.raises(ConfigurationError):
            nets.insert_film_sites(base, 99)

    def test_random_site_params_change_output(self):
        f = presets.dense_main(seed=12)
        rng = np.random.default_rng(4)
        counts = [c for _, c in f.spec.film_sites]
        fp = nets.FiLMParams(
            [(1.0 + 0.3 * rng.normal(size=c), 0.3 * rng.normal(size=c)) for c in counts]
        )
        changed = 0
        for _ in range(10):
            x = rng.random((1, 32, 32))
            if not np.array_equal(f.forward(x).array, f.forward(x, film=fp).array):
                changed += 1
        assert changed >= 1


class TestController:
    def test_identity_at_init(self, dense_pair):
        f, h = dense_pair
        rng = np.random.default_rng(5)
        fb = rng.random((2, 3, 32, 32))
        fp = h.forward(fb)
        for g, b in fp.numpy():
            assert np.array_equal(g, np.ones_like(g))
            assert np.array_equal(b, np.zeros_like(b))

    def test_budget_in_range(self, dense_pair):
        f, h = dense_pair
        ratio = nets.param_count(h) / nets.param_count(f)
        assert 0.05 <= ratio <= 0.20

    def test_budget_warning_outside_range(self):
        f = presets.dense_main(seed=0)
        cspec = nets.ControllerSpec(
            arch="conv", in_channels=3,
            film_channels=[c for _, c in f.spec.film_sites],
            hidden=256, trunk=(32, 64),
        )
        with pytest.warns(nets.BudgetWarning, match="ratio"):
            nets.build_controller(cspec, f, 0)

    def test_head_length_arithmetic(self):
        cspec = nets.ControllerSpec(arch="conv", in_channels=3,
                                    film_channels=[8, 16, 16, 8])
        assert cspec.out_dim == 96

    def test_requires_film_sites(self):
        base = nets.build_main(nets.unet_spec("dense_regression"), 0)
        cspec = nets.ControllerSpec(arch="conv", in_channels=3, film_channels=[])
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
            for (gb, bb), (gs, bs) in zip(batch.numpy(), single.numpy()):
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
        pa = h.forward(fb_a).numpy()
        pb = h.forward(fb_b).numpy()
        linf = max(
            max(np.abs(ga - gb).max(), np.abs(ba - bb).max())
            for (ga, ba), (gb, bb) in zip(pa, pb)
        )
        assert linf > 0.0


class TestAdaptedForward:
    def test_identity_params_reproduce_baseline(self, dense_pair):
        f, h = dense_pair
        x = np.random.default_rng(9).random((1, 32, 32))
        ident = nets.FiLMParams.identity([c for _, c in f.spec.film_sites])
        assert np.array_equal(f.forward(x, film=ident).array, f.forward(x).array)

    def test_site_mismatch_rejected(self, dense_pair):
        f, _ = dense_pair
        bad = nets.FiLMParams.identity([16, 24])
        with pytest.raises(ContractError, match="2 sites, model declares 4"):
            f.forward(np.zeros((1, 32, 32)), film=bad)

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


class TestInputAdapters:
    def test_film_x_identity_at_init(self):
        adapter, controller = presets.film_x_setup(seed=21)
        assert isinstance(adapter, nets.FilmXAdapter)
        x = np.random.default_rng(11).random((2, 1, 32, 32))
        fb = np.random.default_rng(12).random((2, 3, 32, 32))
        fp = controller.forward(fb)
        out = adapter.apply(x, fp)
        assert np.array_equal(out.array, x)

    def test_hypernet_weight_count(self):
        adapter, controller = presets.hypernet_x_setup(seed=22)
        assert isinstance(adapter, nets.HypernetXAdapter)
        # conv 1->6 (60), conv 6->6 (330), conv 6->1 (55)
        assert adapter.weight_count == nets.HypernetXAdapter(0).weight_count == 445
        assert controller.cspec.out_dim == 445

    def test_hypernet_identity_at_init(self):
        adapter, controller = presets.hypernet_x_setup(seed=23)
        x = np.random.default_rng(13).random((2, 1, 32, 32))
        fb = np.random.default_rng(14).random((2, 3, 32, 32))
        raw = controller.head_raw(fb)
        out = adapter.apply(x, raw)
        assert np.array_equal(out.array, x)

    def test_hypernet_gradient_reaches_emitter(self):
        adapter, controller = presets.hypernet_x_setup(seed=24)
        x = np.random.default_rng(15).random((2, 1, 32, 32))
        fb = np.random.default_rng(16).random((2, 3, 32, 32))
        target = np.random.default_rng(17).random((2, 1, 32, 32))
        with ad.Tape() as tape:
            lifted = controller.params.lift(tape)
            raw = controller.head_raw(fb, lifted=lifted)
            out = adapter.apply(x, raw)
            loss = ad.mean_l1(out, target)
            ad.backward(loss)
        grads = controller.params.grads_from(tape, lifted)
        assert np.abs(grads["head.w"]).max() > 0

    @pytest.mark.parametrize("rows", [1, 3])
    def test_hypernet_rows_must_match_the_batch(self, rows):
        adapter = nets.HypernetXAdapter(0)
        x = np.random.default_rng(13).random((2, 1, 32, 32))
        emitted = ad.as_tensor(np.zeros((rows, adapter.weight_count)))
        with pytest.raises(DimensionError, match=f"got \\({rows}, 445\\)"):
            adapter.apply(x, emitted)

    def test_film_x_gradient_reaches_emitter(self):
        adapter, controller = presets.film_x_setup(seed=25)
        # a zero residual head hides the sites; stand in for a trained adapter
        adapter.params.get("L9.w")[:] = 0.1
        adapter.params.set_frozen(True)
        x = np.random.default_rng(18).random((2, 1, 32, 32))
        fb = np.random.default_rng(19).random((2, 3, 32, 32))
        target = np.random.default_rng(20).random((2, 1, 32, 32))
        with ad.Tape() as tape:
            lifted = controller.params.lift(tape)
            out = adapter.apply(x, controller.forward(fb, lifted=lifted), lifted=adapter.params.lift(tape))
            ad.backward(ad.mean_l1(out, target))
        grads = controller.params.grads_from(tape, lifted)
        assert np.abs(grads["head.w"]).max() > 0


def _bad_spec(case: str) -> nets.ModelSpec:
    """A spec with one spatial inconsistency that only a shape trace finds."""
    if case == "linear_nin_255":
        spec = nets.classifier_spec()
        spec.layers[9]["nin"] = 255
    elif case == "in_shape_99":
        spec = nets.classifier_spec()
        spec.in_shape = (1, 99, 99)
    elif case == "odd_size_before_pool":
        spec = nets.unet_spec("dense_regression")
        spec.in_shape = (1, 36, 36)  # 36 -> 18 -> 9, then a third pool
    elif case == "concat_size_mismatch":
        spec = nets.unet_spec("dense_regression")
        spec.layers[12]["skip_from"] = 4  # an 8x8 map with a 16x16 one
        spec.layers[13]["cin"] = 32 + 16  # the channels do add up
    elif case == "non_integral_conv":
        spec = nets.classifier_spec()
        spec.layers[0].update(stride=2, pad=0)  # (16 - 3) / 2
    elif case == "even_kernel":
        spec = nets.ModelSpec("dense_regression", (1, 8, 8), [nets._conv(1, 4, k=2, pad=0)], [])
    else:  # spatial_after_flatten
        spec = nets.classifier_spec()
        spec.layers.insert(9, {"kind": "pool"})
    return spec


_BAD_SPECS = ["linear_nin_255", "in_shape_99", "odd_size_before_pool", "concat_size_mismatch",
              "non_integral_conv", "even_kernel", "spatial_after_flatten"]


class TestSpecValidation:
    @pytest.mark.parametrize("case", _BAD_SPECS)
    def test_build_main_rejects(self, case):
        with pytest.raises(ConfigurationError):
            nets.build_main(_bad_spec(case), 0)

    @pytest.mark.parametrize("case", _BAD_SPECS)
    def test_load_model_rejects(self, tmp_path, case):
        # The arrays fit the spec's own layout, so only the shape trace can fail.
        from rnaloop import serialize

        spec = _bad_spec(case)
        arrays = {name: np.zeros(shape) for _, name, shape in nets._param_layout(spec)}
        path = tmp_path / "model.rnl"
        serialize.save(path, "model", {"spec": spec.to_json()}, arrays)
        with pytest.raises(SerializationError, match="spec"):
            nets.load_model(path)

    @pytest.mark.parametrize("in_shape", [(1, 16), (0, 16, 16), (1, 16.0, 16), "116"])
    def test_malformed_in_shape_rejected(self, in_shape):
        spec = nets.classifier_spec()
        spec.in_shape = in_shape
        with pytest.raises(ConfigurationError, match="in_shape"):
            nets.build_main(spec, 0)

    def test_every_shipped_preset_validates(self):
        models = [presets.dense_main(0), presets.seg_main(0), presets.cls_main(0),
                  presets.densification_dense(0), *presets.control_mains(0),
                  nets.FilmXAdapter(0).model]
        for m in models:
            nets.validate_spec(m.spec)
            x = np.zeros((1,) + m.spec.in_shape)
            assert np.all(np.isfinite(m.forward(x).array))


class TestParamCount:
    def test_linear_with_bias(self):
        spec = nets.ModelSpec(
            "classification", (3, 1, 1),
            [{"kind": "flatten"}, {"kind": "linear", "nin": 3, "nout": 2}], [],
        )
        assert nets.param_count(nets.build_main(spec, 0)) == 8

    def test_conv_with_bias(self):
        spec = nets.ModelSpec(
            "dense_regression", (1, 8, 8),
            [{"kind": "conv", "cin": 1, "cout": 4, "k": 3, "stride": 1, "pad": 1}], [],
        )
        assert nets.param_count(nets.build_main(spec, 0)) == 40

    def test_composite_vs_layerwise_sum(self):
        f = presets.dense_main(seed=0)
        expected = 0
        for layer in f.spec.layers:
            if layer["kind"] == "conv":
                expected += layer["cout"] * layer["cin"] * layer["k"] ** 2 + layer["cout"]
            elif layer["kind"] == "linear":
                expected += layer["nin"] * layer["nout"] + layer["nout"]
        assert nets.param_count(f) == expected


class TestBudgetsAllShippedConfigs:
    def test_every_shipped_ratio_in_range(self):
        f = presets.dense_main(seed=0)
        hs = [(f, presets.dense_controller(f, 1))]
        s = presets.seg_main(seed=0)
        hs.append((s, presets.seg_controller(s, 1)))
        c = presets.cls_main(seed=0)
        hs.append((c, presets.cls_controller(c, 1)))
        fc, _ = presets.control_mains(seed=0)
        hs.append((fc, presets.control_controller(fc, 1)))
        for main, ctrl in hs:
            ratio = nets.param_count(ctrl) / nets.param_count(main)
            assert 0.05 <= ratio <= 0.20, ratio
        # input-adapter variants count the adapter as part of the side network
        fx_adapter, fx_ctrl = presets.film_x_setup(seed=0)
        hx_adapter, hx_ctrl = presets.hypernet_x_setup(seed=0)
        fmain = presets.dense_main(seed=0)
        for side in (
            nets.param_count(fx_adapter.params) + nets.param_count(fx_ctrl),
            nets.param_count(hx_ctrl),
        ):
            ratio = side / nets.param_count(fmain)
            assert 0.05 <= ratio <= 0.20, ratio


class TestSpecSerialization:
    def test_spec_round_trip(self):
        f = presets.dense_main(seed=0)
        again = nets.ModelSpec.from_json(f.spec.to_json())
        assert again == f.spec

    def test_model_file_round_trip(self, tmp_path):
        f = presets.dense_main(seed=2)
        path = tmp_path / "model.rnl"
        nets.save_model(path, f, meta={"note": "x"})
        loaded, meta = nets.load_model(path)
        assert loaded.spec == f.spec
        assert loaded.params.state_bytes() == f.params.state_bytes()
        assert meta["note"] == "x"

    def test_version_mismatch_message(self, tmp_path):
        from rnaloop import serialize
        from rnaloop.errors import SerializationError

        f = presets.cls_main(seed=2)
        path = tmp_path / "model.rnl"
        nets.save_model(path, f)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="version 99"):
            serialize.load(path)

    def test_controller_round_trip(self, tmp_path, dense_pair):
        _, h = dense_pair
        path = tmp_path / "ctrl.rnl"
        nets.save_controller(path, h)
        loaded, _ = nets.load_controller(path)
        assert loaded.cspec == h.cspec
        assert loaded.params.state_bytes() == h.params.state_bytes()

    def test_raw_out_controller_round_trip(self, tmp_path):
        _, h = presets.hypernet_x_setup(seed=3)
        path = tmp_path / "ctrl.rnl"
        nets.save_controller(path, h)
        loaded, _ = nets.load_controller(path)
        assert loaded.cspec == h.cspec
        assert loaded.cspec.out_dim == h.cspec.out_dim == h.cspec.raw_out
        assert loaded.params.state_bytes() == h.params.state_bytes()

    def test_controller_file_missing_a_spec_field_rejected(self, tmp_path, dense_pair):
        import json

        from rnaloop import serialize
        from rnaloop.errors import SerializationError

        _, h = dense_pair
        path = tmp_path / "ctrl.rnl"
        nets.save_controller(path, h)
        _, meta, arrays = serialize.load(path)
        cspec = json.loads(meta["cspec"])
        del cspec["raw_out"]
        serialize.save(path, "controller", {**meta, "cspec": json.dumps(cspec)}, arrays)
        with pytest.raises(SerializationError, match="raw_out"):
            nets.load_controller(path)
        del meta["controller_format"]
        serialize.save(path, "controller", meta, arrays)
        with pytest.raises(SerializationError, match="controller format None"):
            nets.load_controller(path)

    @pytest.mark.parametrize(
        "case",
        ["no_cspec", "no_param_order", "cspec_not_json", "trunk_not_a_list", "name_without_array",
         "unlisted_array"],
    )
    def test_malformed_controller_file_rejected(self, tmp_path, dense_pair, case):
        import json

        from rnaloop import serialize
        from rnaloop.errors import SerializationError

        path = tmp_path / "ctrl.rnl"
        nets.save_controller(path, dense_pair[1])
        _, meta, arrays = serialize.load(path)
        order = json.loads(meta["param_order"])
        if case == "no_cspec":
            del meta["cspec"]
        elif case == "no_param_order":
            del meta["param_order"]
        elif case == "cspec_not_json":
            meta["cspec"] = "{not json"
        elif case == "trunk_not_a_list":
            meta["cspec"] = json.dumps({**json.loads(meta["cspec"]), "trunk": 5})
        elif case == "name_without_array":
            meta["param_order"] = json.dumps(order + ["extra.w"])
        else:
            arrays["extra.w"] = np.zeros(3)
        serialize.save(path, "controller", meta, arrays)
        with pytest.raises(SerializationError):
            nets.load_controller(path)

    def test_model_meta_may_not_replace_reserved_keys(self, tmp_path):
        path = tmp_path / "model.rnl"
        with pytest.raises(ContractError, match="spec"):
            nets.save_model(path, presets.cls_main(seed=2), meta={"spec": "x"})
        assert not path.exists()

    @pytest.mark.parametrize("key", ["cspec", "param_order", "controller_format"])
    def test_controller_meta_may_not_replace_reserved_keys(self, tmp_path, dense_pair, key):
        path = tmp_path / "ctrl.rnl"
        with pytest.raises(ContractError, match=key):
            nets.save_controller(path, dense_pair[1], meta={key: "[]"})
        assert not path.exists()

    @pytest.mark.parametrize("spec", [None, 5, "not json {", '{"task_kind": "x"}', "[1, 2]"])
    def test_model_file_with_missing_or_bad_spec_rejected(self, tmp_path, spec):
        from rnaloop import serialize
        from rnaloop.errors import SerializationError

        f = presets.cls_main(seed=2)
        path = tmp_path / "model.rnl"
        meta = {} if spec is None else {"spec": spec}
        serialize.save(path, "model", meta, {n: p.value for n, p in f.params.items()})
        with pytest.raises(SerializationError, match="spec"):
            nets.load_model(path)


    @pytest.mark.parametrize(
        "case",
        ["layers_not_a_list", "site_without_channels", "conv_without_stride", "missing_array",
         "wrong_shape", "extra_array"],
    )
    def test_malformed_model_file_rejected(self, tmp_path, case):
        import json

        from rnaloop import serialize

        path = tmp_path / "model.rnl"
        nets.save_model(path, presets.cls_main(seed=2))
        _, meta, arrays = serialize.load(path)
        spec = json.loads(meta["spec"])
        if case == "layers_not_a_list":
            spec["layers"] = 5
        elif case == "site_without_channels":
            spec["film_sites"] = [[1]]
        elif case == "conv_without_stride":
            del spec["layers"][0]["stride"]
        elif case == "missing_array":
            del arrays["L0.b"]
        elif case == "wrong_shape":
            arrays["L0.w"] = np.zeros((2, 2))
        else:
            arrays["L99.w"] = np.zeros(3)
        serialize.save(path, "model", {**meta, "spec": json.dumps(spec)}, arrays)
        with pytest.raises(SerializationError):
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

    def test_film_params_gradient_finite_difference(self, dense_pair):
        f, _ = dense_pair
        rng = np.random.default_rng(18)
        x = rng.random((1, 1, 8, 8))
        # small model keeps the finite-difference loop fast
        spec = nets.ModelSpec(
            "dense_regression", (1, 8, 8),
            [
                {"kind": "conv", "cin": 1, "cout": 4, "k": 3, "stride": 1, "pad": 1},
                {"kind": "relu"},
                {"kind": "conv", "cin": 4, "cout": 1, "k": 1, "stride": 1, "pad": 0},
            ],
            [(1, 4)],
        )
        m = nets.build_main(spec, 19)
        target = rng.random((1, 1, 8, 8))
        gamma = 1.0 + 0.1 * rng.normal(size=(1, 4))
        beta = 0.1 * rng.normal(size=(1, 4))

        def loss_value(g, b):
            fp = nets.FiLMParams([(g, b)])
            out = m.forward(x, film=fp)
            return ad.mean_l1(out, target).item()

        with ad.Tape() as tape:
            gt = tape.leaf(gamma, True)
            bt = tape.leaf(beta, True)
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
            (tape.leaf(1.0 + 0.1 * rng.normal(size=c), True), tape.leaf(0.1 * rng.normal(size=c), True))
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
        plain = nets.build_main(nets.classifier_spec(), 33)  # no sites: every layer is kept
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
        model = self.models()[which]
        model.params.set_frozen(True)
        shape = model.spec.in_shape if batch is None else (batch,) + model.spec.in_shape
        x = np.random.default_rng(34).random(shape)
        assert self.episode(model, x) == self.episode(_FreshEveryCall(model), x)

    def test_reuse_skips_the_prefix_and_only_there(self, monkeypatch):
        model = presets.dense_main(seed=35)  # 8 convs, 2 before the first site (layer 4)
        model.params.set_frozen(True)
        x = np.random.default_rng(36).random((1,) + model.spec.in_shape)
        film = nets.FiLMParams.identity([c for _, c in model.spec.film_sites])
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
            assert convs(tape.leaf(x, True)) == 8  # taped input needing a gradient
        assert convs(x) == 0  # which neither reused nor replaced the kept pass
        assert convs(x.copy()) == 0  # equal values, another array
        assert convs(x[0]) == 0  # one sample is compared as a batch of one
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
        film = nets.FiLMParams.identity([c for _, c in model.spec.film_sites])
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
        lifted = {n: ad.Tensor(v.value + 1e-3) for n, v in model.params.items()}
        assert check(x, lifted=lifted) == 8  # the weights a call reads, not the store's

    def test_unfrozen_weights_are_never_reused(self, monkeypatch):
        src = presets.dense_main(seed=50)
        base = src.params.get("L0.w").copy()
        view = base[...]
        view.flags.writeable = False
        params = ad.ParamSet()
        for name, p in src.params.items():
            params.add(name, view if name == "L0.w" else p.value)
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
            film = nets.FiLMParams([(tape.leaf(g, True), tape.leaf(b, True)) for g, b in film_values])
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
        names = model.params.names()

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
                shape = model.spec.in_shape if rng.random() < 0.5 else (1,) + model.spec.in_shape
                x = rng.random(shape)
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


class _FreshEveryCall:
    """A model whose every forward runs on a new Model instance."""

    def __init__(self, model):
        self.spec, self.params = model.spec, model.params

    def forward(self, *args, **kwargs):
        return nets.Model(self.spec, self.params).forward(*args, **kwargs)
