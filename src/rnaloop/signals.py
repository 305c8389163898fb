"""Test-time adaptation signals: sparse ground truth, simulated noisy
sparse measurements, click annotations, coarse labels, and kNN retrieval.

Signals derive from targets (or the clean training set, for retrieval)
plus declared noise models; never from the corrupted input. A spatial
signal carries a validity mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (ConfigurationError, ContractError, DimensionError, is_int, is_real, need_int,
                     need_labels, seeded)
from .nets import Model

_STREAM_SIGNAL = 201


@dataclass
class AdaptationSignal:
    """One feedback signal.

    kind: masked_gt, noisy_sparse, clicks, coarse or knn_coarse.
    values: a dense value map, a label map, or a distribution vector.
    mask: for the spatial kinds, the [H,W] bool validity mask (True where
        ``values`` holds a measurement or a click); None otherwise. Its
        consumers cast it to float64 (0.0 / 1.0) where they compute with it.
        It selects pixels and weights none: the masked losses refuse a mask
        entry other than 0 or 1, and take a bool mask with no scan.
    """

    kind: str
    values: np.ndarray
    mask: np.ndarray | None = None


def _squeeze_map(target) -> np.ndarray:
    t = np.asarray(target, dtype=np.float64)
    if t.ndim == 3 and t.shape[0] == 1:
        t = t[0]
    if t.ndim != 2:
        raise DimensionError(f"expected a [H,W] or [1,H,W] target, got {t.shape}")
    return t


def masked_gt(target, fraction: float, seed: int) -> AdaptationSignal:
    """Uniformly random pixel subset of the ground truth (control signal)."""
    if not (is_real(fraction) and 0 < fraction <= 1):
        raise ConfigurationError(f"fraction {fraction!r} is not a number in (0, 1]")
    rng = seeded(seed, _STREAM_SIGNAL)
    t = _squeeze_map(target)
    h, w = t.shape
    count = max(1, int(round(fraction * h * w)))
    flat = rng.choice(h * w, size=count, replace=False)
    mask = np.zeros((h, w), dtype=bool)
    mask.reshape(-1)[flat] = True
    values = np.where(mask, t, 0.0)
    return AdaptationSignal("masked_gt", values, mask)


def noisy_sparse(
    target,
    fraction: float,
    noise_sigma: float,
    outlier_rate: float,
    seed: int,
) -> AdaptationSignal:
    """Sparse values perturbed by Gaussian noise plus uniform outliers.

    Simulates sparse-reconstruction measurements: valid values are not
    clipped, and a fraction of them are replaced by uniform draws.
    ``ConfigurationError`` unless noise_sigma is a finite number >= 0 and
    outlier_rate one in [0, 1].
    """
    if not (is_real(noise_sigma) and is_real(outlier_rate)
            and 0 <= outlier_rate <= 1 and 0 <= noise_sigma < np.inf):  # NaN fails both
        raise ConfigurationError(
            f"noise_sigma must be a finite number >= 0 and outlier_rate one in [0,1], got "
            f"{noise_sigma!r}, {outlier_rate!r}")
    sig = masked_gt(target, fraction, seed)
    rng = seeded(seed, _STREAM_SIGNAL, 2)
    values = sig.values.copy()
    on = sig.mask
    if noise_sigma > 0:
        values[on] += rng.normal(0.0, noise_sigma, size=int(on.sum()))
    if outlier_rate > 0:
        hit = rng.random(int(on.sum())) < outlier_rate
        uni = rng.uniform(0.0, 1.0, size=int(on.sum()))
        vals_on = values[on]
        vals_on[hit] = uni[hit]
        values[on] = vals_on
    return AdaptationSignal("noisy_sparse", values, sig.mask)


def click_annotations(target_classes, clicks_per_class: int, seed: int) -> AdaptationSignal:
    """Per-class random pixel labels (simulated annotation clicks) of an
    [H,W] class map: ``DimensionError`` for another rank, and
    ``LabelRangeError`` for a map whose classes are not integers >= 0
    (``errors.need_labels``; the map's consumer knows the class count)."""
    clicks_per_class = need_int("clicks_per_class", clicks_per_class, 1)
    rng = seeded(seed, _STREAM_SIGNAL, 3)
    if clicks_per_class > 25:
        raise ConfigurationError(f"clicks_per_class {clicks_per_class} outside [1, 25]")
    t = np.asarray(target_classes)
    if t.ndim != 2:
        raise DimensionError(f"expected a [H,W] class map, got {t.shape}")
    t = need_labels("click class map", t, t.shape, np.iinfo(np.int64).max)
    mask = np.zeros(t.shape, dtype=bool)
    for cls in np.unique(t):
        ys, xs = np.nonzero(t == cls)
        take = min(clicks_per_class, len(ys))
        pick = rng.choice(len(ys), size=take, replace=False)
        mask[ys[pick], xs[pick]] = True
    values = np.where(mask, t, 0)
    return AdaptationSignal("clicks", values, mask)


# ---------------------------------------------------------------------------
# coarse labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseGrouping:
    """A map of fine classes onto coarse ones: fine class y is in coarse
    class ``group_of_fine[y]``.

    ``ConfigurationError`` unless num_coarse is an integer >= 1 and every
    coarse class holds a fine class. group_of_fine is a vector of labels
    in [0, num_coarse), as ``errors.need_labels`` checks them: a list,
    tuple or array of another rank raises ``DimensionError``, one that is
    not of integers or holds a label out of range ``LabelRangeError``. It
    is kept as a tuple of Python ints, so the grouping stays hashable.
    """

    group_of_fine: tuple[int, ...]
    num_coarse: int

    def __post_init__(self):
        num_coarse = need_int("num_coarse", self.num_coarse, 1)
        groups = self.group_of_fine
        groups = tuple(need_labels("group_of_fine", groups, (np.size(groups),), num_coarse).tolist())
        if set(groups) != set(range(num_coarse)):
            raise ConfigurationError("grouping must be surjective onto coarse classes")
        object.__setattr__(self, "group_of_fine", groups)
        object.__setattr__(self, "num_coarse", num_coarse)

    @property
    def num_fine(self) -> int:
        return len(self.group_of_fine)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.group_of_fine, dtype=np.int64)


def make_coarse_grouping(K: int, C: int) -> CoarseGrouping:
    """Deterministic fine-to-coarse class grouping: consecutive classes
    share a group (sizes differ by <= 1 when C does not divide K)."""
    K, C = need_int("K", K, 2), need_int("C", C, 2)
    if C > K:
        raise ConfigurationError(f"need 2 <= C <= K, got C={C}, K={K}")
    gmap = np.empty(K, dtype=np.int64)
    for c, block in enumerate(np.array_split(np.arange(K), C)):
        gmap[block] = c
    return CoarseGrouping(gmap, C)


def coarse_label(y_fine: int, grouping: CoarseGrouping) -> AdaptationSignal:
    """One-hot coarse label of a fine class, an integer label in
    [0, num_fine) as ``errors.need_labels`` checks it."""
    y_fine = need_labels("fine class", y_fine, (), grouping.num_fine)
    onehot = np.zeros(grouping.num_coarse)
    onehot[grouping.group_of_fine[y_fine]] = 1.0
    return AdaptationSignal("coarse", onehot)


# ---------------------------------------------------------------------------
# kNN retrieval over clean-training-set embeddings
# ---------------------------------------------------------------------------


class EmbeddingIndex:
    """Cosine-similarity index over penultimate-layer embeddings.

    ``DimensionError`` unless the embeddings are an [N, D] array with
    D >= 1; the labels are one per embedding, each a class of the model, as
    ``errors.need_labels`` checks them against ``model.spec.out_ch``.
    The index holds the embeddings normalized and the labels as int64,
    each in its own array.
    """

    def __init__(self, model: Model, embeddings: np.ndarray, labels: np.ndarray):
        if embeddings.ndim != 2 or embeddings.shape[1] < 1:
            raise DimensionError(f"index needs [N, D] embeddings with D >= 1, got {embeddings.shape}")
        if embeddings.shape[0] == 0:
            raise ContractError("embedding index is empty")
        self.labels = need_labels("index labels", labels, embeddings.shape[:1], model.spec.out_ch).copy()
        self.model = model
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        self.embeddings = embeddings / np.maximum(norms, 1e-12)

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def classifier_embedding(model: Model, images: np.ndarray) -> np.ndarray:
    """Penultimate activations (inputs of the final linear layer), [N,D],
    of an [N,C,H,W] batch.

    ``ConfigurationError`` for a model with no flatten layer, such as a UNet;
    ``DimensionError`` (from ``Model.forward``) for any other input shape.
    """
    flat_idx = next(
        (i for i, layer in enumerate(model.spec.layers) if layer["kind"] == "flatten"), None
    )
    if flat_idx is None:
        raise ConfigurationError(
            f"a {model.spec.task_kind} model has no flatten layer to take an embedding from"
        )
    _, acts = model.forward(images, return_acts=True)
    return acts[flat_idx].array


def build_embedding_index(model: Model, dataset) -> EmbeddingIndex:
    """The index of the dataset's embeddings, taken 64 images at a time and
    written into one [N, D] array, which the index then normalizes.
    ``ContractError``, as for any empty index, on a dataset of no images."""
    if len(dataset) == 0:
        raise ContractError("embedding index is empty")
    first = classifier_embedding(model, dataset.inputs[:64])
    embs = np.empty((len(dataset), first.shape[1]))
    embs[: len(first)] = first
    for start in range(64, len(dataset), 64):
        embs[start : start + 64] = classifier_embedding(model, dataset.inputs[start : start + 64])
    return EmbeddingIndex(model, embs, dataset.targets)


def knn_coarse(
    test_image: np.ndarray, index: EmbeddingIndex, k: int, grouping: CoarseGrouping
) -> AdaptationSignal:
    """Normalized coarse-label histogram of the k nearest training items to
    one [C,H,W] image.

    Nearest means largest cosine similarity; among items tied with the
    k-th largest, the lowest indices are taken (the set a stable sort picks).
    ``ContractError`` unless 1 <= k <= len(index) and the grouping covers
    exactly the index model's classes; ``ConfigurationError`` for a k that
    is not an int.
    """
    n = len(index)
    if is_int(k) and not 1 <= k <= n:
        raise ContractError(f"index holds {n} items, need 1 <= k={k} <= {n}")
    k = need_int("k", k, 1)
    classes = index.model.spec.out_ch
    if grouping.num_fine != classes:
        raise ContractError(
            f"grouping covers {grouping.num_fine} fine classes, the index model has {classes}")
    emb = classifier_embedding(index.model, test_image[None])[0]
    emb = emb / max(np.linalg.norm(emb), 1e-12)
    sims = index.embeddings @ emb
    if np.isnan(sims).any():
        raise ContractError("knn_coarse: a similarity is NaN; the embedding is not finite")
    kth = np.partition(sims, n - k)[n - k]
    top = np.flatnonzero(sims > kth)
    top = np.concatenate([top, np.flatnonzero(sims == kth)[: k - len(top)]])
    labels = grouping.as_array()[index.labels[top]]
    hist = np.bincount(labels, minlength=grouping.num_coarse).astype(np.float64)
    return AdaptationSignal("knn_coarse", hist / hist.sum())


# ---------------------------------------------------------------------------
# error-feedback encoding for the controller
# ---------------------------------------------------------------------------


def _need_same_map(pred: np.ndarray, signal: AdaptationSignal) -> None:
    """``DimensionError`` unless the signal's value map and its mask, which
    a spatial signal must have, are the prediction's [H,W]."""
    mask_shape = None if signal.mask is None else signal.mask.shape
    if signal.values.shape != pred.shape[1:] or mask_shape != pred.shape[1:]:
        raise DimensionError(
            f"{signal.kind} feedback: signal map {signal.values.shape} and mask "
            f"{mask_shape} must be the prediction's [H,W] {pred.shape[1:]}"
        )


def _encode_one(pred: np.ndarray, signal: AdaptationSignal) -> np.ndarray:
    if signal.kind in ("masked_gt", "noisy_sparse"):
        if pred.ndim != 3 or pred.shape[0] != 1:
            raise DimensionError(f"dense feedback expects [1,H,W] prediction, got {pred.shape}")
        _need_same_map(pred, signal)
        return np.stack([pred[0], signal.values, signal.mask])
    if signal.kind == "clicks":
        if pred.ndim != 3:
            raise DimensionError(f"click feedback expects [K,H,W] logits, got {pred.shape}")
        _need_same_map(pred, signal)
        ys, xs = np.nonzero(signal.mask > 0)
        clicked = need_labels("clicked classes", signal.values[ys, xs], ys.shape, pred.shape[0])
        probs = ad.softmax(pred, axis=0)
        onehot = np.zeros_like(pred)
        onehot[clicked, ys, xs] = 1.0
        return np.concatenate([probs, onehot, signal.mask[None]], axis=0)
    if signal.kind in ("coarse", "knn_coarse"):
        if pred.ndim != 1:
            raise DimensionError(f"vector feedback expects [K] logits, got {pred.shape}")
        return np.concatenate([ad.softmax(pred), signal.values])
    raise ConfigurationError(f"no feedback encoding for signal kind {signal.kind!r}")


def encode_feedback(prediction, signal) -> np.ndarray:
    """Concatenate prediction and signal into the controller input.

    Single sample: (prediction, AdaptationSignal) -> encoded array.
    Batch: ([N,...] predictions, list of N signals) -> stacked encoding;
    ``DimensionError`` unless N >= 1 and the counts agree.
    A prediction of rank 0 raises ``DimensionError`` either way. The
    clicked classes of a click signal are labels of the prediction's K
    classes, as ``errors.need_labels`` checks them.
    """
    pred = prediction.array if isinstance(prediction, ad.Tensor) else np.asarray(prediction)
    if pred.ndim == 0:
        raise DimensionError(f"encode_feedback: a prediction of rank 0 ({pred!r}) is no sample or batch")
    if isinstance(signal, AdaptationSignal):
        return _encode_one(pred, signal)
    if len(signal) != pred.shape[0] or not len(signal):
        raise DimensionError(f"{pred.shape[0]} predictions vs {len(signal)} signals; a batch needs at least one")
    return np.stack([_encode_one(pred[i], s) for i, s in enumerate(signal)])
