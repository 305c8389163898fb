import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rnaloop import autodiff as ad
from rnaloop import nets, presets
from rnaloop.errors import ConfigurationError, ContractError

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
                out = nets.adapted_forward(f, fp, x, tape=tape)
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
        assert np.array_equal(
            nets.adapted_forward(f, ident, x).array, f.forward(x).array
        )

    def test_site_mismatch_rejected(self, dense_pair):
        f, _ = dense_pair
        bad = nets.FiLMParams.identity([16, 24])
        with pytest.raises(ContractError):
            nets.adapted_forward(f, bad, np.zeros((1, 32, 32)))

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
        x = np.random.default_rng(11).random((2, 1, 32, 32))
        fb = np.random.default_rng(12).random((2, 3, 32, 32))
        fp = controller.forward(fb)
        out = adapter.apply(x, fp)
        assert np.array_equal(out.array, x)

    def test_hypernet_weight_count(self):
        adapter, controller = presets.hypernet_x_setup(seed=22)
        # conv 1->6 (60), conv 6->6 (330), conv 6->1 (55)
        assert adapter.weight_count == 445
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

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            nets.build_input_adapter("mystery", 0)


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


class TestGradientsThroughModel:
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
        """FiLM-only TTO on one image with the main network frozen."""
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
        return film.state_bytes() + f.forward(x, film=film_of(film.lift(None))).array.tobytes()

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
