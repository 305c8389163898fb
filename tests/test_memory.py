"""Peak memory of one batched training step and of an index build,
measured with tracemalloc.

numpy reports its array allocations to tracemalloc, so the traced peak of
a step is the most array memory it held at once: the taped activations,
what the backward closures keep and the conv buffers. Measured peaks (MB,
UNet step / controller step), numpy 2.4, batch 8, on the conv that takes
a batch over the row budget one image at a time (``autodiff._chunk``):

- a concat's closure holding its operands, the conv's full-batch
  padded-width grids and their contiguous copies, the kernel gradient's
  full-batch padded gradient grid, and the conv's kept input held to the
  end of its backward: 9.65 / 7.47;
- only the concat holding its channel offsets alone: 7.20 / 5.12;
- that, and the conv writing each image's valid columns straight into its
  result and padding the gradient one image at a time: 5.61 / 5.08;
- that, and the kept input dropped once the kernel gradient has read it
  (the code as it is): 5.13 / 5.08;
- all of this but the concat holding its operands: 6.71 / 6.66.

Both bounds sit between the code's peak and the peak without the concat
fix. Building the 2048-image classifier index peaked at 12.69 MB while it
gathered the embeddings in a list and concatenated them, and at 9.02 MB
writing them into one array; its bound sits between the two.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from rnaloop import autodiff as ad
from rnaloop import presets, signals, taskgen

UNET_STEP_BOUND_MB = 6.0
CONTROLLER_STEP_BOUND_MB = 6.0
INDEX_BUILD_BOUND_MB = 11.0


@pytest.fixture(scope="module")
def batch():
    data = taskgen.gen_dense_regression(taskgen.SceneWorldConfig(grid=presets.DENSE_GRID), 8, seed=5)
    sigs = [signals.noisy_sparse(y, 0.05, 0.02, 0.05, seed=10 + i) for i, y in enumerate(data.targets)]
    return data.inputs, data.targets, sigs


def traced_peak_mb(step) -> float:
    """Traced peak of a second call of ``step`` above what was live before
    it; the first call fills the caches a frozen network keeps."""
    step()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        return (tracemalloc.get_traced_memory()[1] - live) / 1e6
    finally:
        tracemalloc.stop()


def test_unet_training_step_peak(batch):
    xb, yb, _ = batch
    main = presets.dense_main(3)

    def step():
        with ad.Tape() as tape:
            lifted = main.params.lift(tape)
            ad.backward(ad.mean_l1(main.forward(xb, lifted=lifted), yb))
        ad.sgd_step(main.params, main.params.grads_from(tape, lifted), 0.05)

    assert traced_peak_mb(step) < UNET_STEP_BOUND_MB


def test_controller_training_step_peak(batch):
    xb, yb, sigs = batch
    main = presets.dense_main(3)
    main.params.set_frozen(True)
    controller = presets.dense_controller(main, 4)

    def step():
        feedback = signals.encode_feedback(main.forward(xb), sigs)
        with ad.Tape() as tape:
            lifted = controller.lift(tape)
            film = controller.forward(feedback, lifted=lifted)
            ad.backward(ad.mean_l1(main.forward(xb, film=film, tape=tape), yb))
        ad.sgd_step(controller.params, controller.params.grads_from(tape, lifted), 0.05)

    assert traced_peak_mb(step) < CONTROLLER_STEP_BOUND_MB


@pytest.fixture(scope="module")
def index_data():
    return presets.cls_main(0), taskgen.gen_classification(presets.NUM_CLASSES, 2048, 0, 1)


def test_index_build_peak(index_data):
    model, ds = index_data
    assert traced_peak_mb(lambda: signals.build_embedding_index(model, ds)) < INDEX_BUILD_BOUND_MB


def test_index_build_equals_the_index_of_its_batches(index_data):
    model, ds = index_data
    built = signals.build_embedding_index(model, ds)
    batches = [signals.classifier_embedding(model, ds.inputs[s : s + 64]) for s in range(0, len(ds), 64)]
    whole = signals.EmbeddingIndex(model, np.concatenate(batches), ds.targets)
    assert built.embeddings.tobytes() == whole.embeddings.tobytes()
    assert built.labels.tobytes() == whole.labels.tobytes()


def test_concat_operands_die_with_the_forward_while_the_tape_lives():
    # a skip map and an upsampled map, as a UNet concatenates them
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(2, 3, 4, 4))
    with ad.Tape() as tape:
        xt, yt = tape.leaf(x), tape.leaf(rng.normal(size=(2, 1, 2, 2)))
        parts = [ad.relu(xt), ad.upsample2(yt)]
        refs = [weakref.ref(p.array) for p in parts]
        out = ad.concat_channels(parts)
        del parts
        assert all(r() is None for r in refs)
        ad.backward(ad.sum_all(ad.mul(out, ad.as_tensor(w))))
    assert np.array_equal(tape.grad(xt), w[:, :2] * (x > 0))
    gy = tape.grad(yt)[:, 0]
    assert np.allclose(gy, w[:, 2].reshape(2, 2, 2, 2, 2).sum(axis=(2, 4)))


@pytest.mark.parametrize("op, shape, slope", [
    (lambda x: ad.mul(x, ad.as_tensor(np.full((2, 3), 2.0))), (2, 3), 2.0),
    (lambda x: ad.matmul(x, ad.as_tensor(np.full((3, 4), 2.0))), (2, 3), 8.0),
    (lambda x: ad.film(x, ad.as_tensor(np.full(3, 2.0)), ad.as_tensor(np.zeros(3))), (2, 3, 1, 1), 2.0),
], ids=["mul", "matmul", "film"])
def test_an_operand_only_a_constant_partner_would_read_is_not_kept(op, shape, slope):
    # the backward reads x only for its partner's gradient, and a constant
    # has none; x's own gradient still flows
    v = np.arange(6.0).reshape(shape) - 2
    with ad.Tape() as tape:
        leaf = tape.leaf(v)
        x = ad.relu(leaf)
        ref = weakref.ref(x.array)
        y = op(x)
        del x
        assert ref() is None
        ad.backward(ad.sum_all(y))
    assert np.array_equal(tape.grad(leaf), slope * (v > 0))
