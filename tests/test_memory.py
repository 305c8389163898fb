"""Peak memory of one batched training step, measured with tracemalloc.

numpy reports its array allocations to tracemalloc, so the traced peak of
a step is the most array memory it held at once: the taped activations,
the backward closures and the conv row matrices. Measured peaks (MB,
UNet step / controller step), numpy 2.4:

- every layer's output held to the end of ``Model.forward`` and every
  batch's whole row matrix built at once: 13.9 / 14.9;
- only the row matrices built image by image: 9.7 / 9.5;
- only the dead activations dropped: 13.2 / 12.1;
- both: 9.7 / 7.5.

The UNet step peaks in its backward pass, after the forward's activations
are gone, so only the controller step shows the dropped activations; its
bound sits between 7.5 and 9.5.
"""

import tracemalloc

import pytest

from rnaloop import autodiff as ad
from rnaloop import presets, signals, taskgen

UNET_STEP_BOUND_MB = 11.0
CONTROLLER_STEP_BOUND_MB = 8.5


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
