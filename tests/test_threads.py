"""A seed gives the same bytes at any BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One batch-8 training step of the UNet, then a FiLM TTO episode on one
# image with the trained network frozen; prints the bytes of the trained
# parameters, the unadapted and adapted outputs and the FiLM coefficients.
SCRIPT = """
import numpy as np
from rnaloop import autodiff as ad, nets, presets, signals, taskgen

main = presets.dense_main(seed=5)
data = taskgen.gen_dense_regression(taskgen.SceneWorldConfig(grid=32), 8, 6)
taskgen.train_main(main, data, 1, 0.05, 7, batch_size=8)
out = [main.params.state_bytes()]

main.params.set_frozen(True)
x = data.inputs[:1]
sig = signals.noisy_sparse(data.targets[0], 0.05, 0.02, 0.05, 8)
out.append(main.forward(x).array.tobytes())
film = ad.ParamSet()
for s, (_, c) in enumerate(main.spec.film_sites):
    film.add(f"g{s}", np.ones(c))
    film.add(f"b{s}", np.zeros(c))


def film_of(values):
    return nets.FiLMParams([(values[f"g{s}"], values[f"b{s}"])
                            for s in range(len(main.spec.film_sites))])


for _ in range(3):
    with ad.Tape() as tape:
        lifted = film.lift(tape)
        pred = main.forward(x, film=film_of(lifted), tape=tape)
        ad.backward(ad.masked_l1(pred, sig.values[None, None], sig.mask[None]))
    ad.sgd_step(film, film.grads_from(tape, lifted), 0.05)
out.append(film.state_bytes())
out.append(main.forward(x, film=film_of(film.lift(None))).array.tobytes())
print(b"".join(out).hex())
"""


def run_at(threads: int) -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_training_step_and_tto_episode_identical_at_one_and_two_blas_threads():
    one, two = run_at(1), run_at(2)
    assert len(one) > 0
    assert one == two
