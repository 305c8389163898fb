"""Measure where a batched conv should switch to one image at a time.

Times one taped 3x3, pad-1 conv step (forward, input gradient and kernel
gradient) over batch shapes whose row matrix spans 0.3-4 MiB, once as one
chunk (the batch's row matrix built whole) and once in chunks of one image:
the two chunk sizes ``autodiff._chunk`` picks with the budget set above and
below the row matrix. Each shape runs ``--rounds`` alternating rounds (the
best of a few repetitions each); its time is the median over rounds. Then
for every threshold on the row matrix's bytes (one image at a time above
it) the tool sums the chosen path's time over all shapes, and prints those
totals: the thresholds with the least total are the crossover that
``autodiff._ROWS_BUDGET`` is set from.

    PYTHONPATH=src python tools/conv_crossover.py --rounds 6
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from rnaloop import autodiff as ad


def row_bytes(n: int, c: int, h: int) -> int:
    """Bytes of the row matrix of an [n,c,h,h] batch, 3x3 kernel, pad 1."""
    return n * c * 3 * (h * (h + 2) + 2) * 8


def threshold_totals(timed: list[tuple[int, float, float]]) -> dict[int, float]:
    """For each threshold t (0 and every measured size), the summed time of
    ``timed`` (row bytes, batched time, per-image time) rows when every
    row matrix over t bytes goes one image at a time."""
    return {t: sum(tb if s <= t else tp for s, tb, tp in timed)
            for t in sorted({0} | {s for s, _, _ in timed})}


def conv_step(x: np.ndarray, w: np.ndarray, r: np.ndarray) -> None:
    with ad.Tape() as tape:
        xt, wt = tape.leaf(x), tape.leaf(w)
        ad.backward(ad.sum_all(ad.mul(ad.conv2d(xt, wt, 1, 1), ad.as_tensor(r))))


def best_seconds(x: np.ndarray, w: np.ndarray, r: np.ndarray, reps: int) -> float:
    """The least time of ``reps`` conv steps, after one that warms up."""
    conv_step(x, w, r)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        conv_step(x, w, r)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=6)
    args = ap.parse_args()
    shapes = sorted(
        {(n, c, h) for n in (8, 16, 32, 64) for c in (8, 16, 24) for h in (8, 12, 16, 32)
         if 0.3 * 2**20 <= row_bytes(n, c, h) <= 4 * 2**20},
        key=lambda s: row_bytes(*s))
    rng = np.random.default_rng(0)
    budget = ad._ROWS_BUDGET
    timed = []  # (row bytes, batched s, per-image s)
    try:
        for n, c, h in shapes:
            x, r = rng.normal(size=(n, c, h, h)), rng.normal(size=(n, c, h, h))
            w = rng.normal(size=(c, c, 3, 3))
            reps = max(5, int(1e8 / (n * c * c * h * h * 54)))
            runs = {"batched": [], "per image": []}
            for i in range(args.rounds):
                sides = [("batched", 1 << 62), ("per image", -1)]
                for side, b in sides if i % 2 == 0 else sides[::-1]:
                    ad._ROWS_BUDGET = b
                    assert ad._chunk(x.shape, 3, 1) == (n if side == "batched" else 1)
                    runs[side].append(best_seconds(x, w, r, reps))
            tb, tp = np.median(runs["batched"]), np.median(runs["per image"])
            timed.append((row_bytes(n, c, h), tb, tp))
            print(f"N={n:2d} C=O={c:2d} {h:2d}x{h:<2d} rows {row_bytes(n, c, h):9,d} B  "
                  f"batched {tb * 1e3:7.3f} ms  per image {tp * 1e3:7.3f} ms  ratio {tp / tb:.3f}")
    finally:
        ad._ROWS_BUDGET = budget
    totals = threshold_totals(timed)
    least = min(totals.values())
    print("threshold (per image above it): total ms, relative to the least")
    for t, tot in totals.items():
        print(f"  {t:9,d} B  {tot * 1e3:8.2f}  {tot / least:.3f}")


if __name__ == "__main__":
    main()
