"""Test-time adaptation signals: sparse ground truth, simulated noisy
sparse measurements, click annotations, coarse labels, and kNN retrieval.

Signals derive from targets (or the clean training set, for retrieval)
plus declared noise models; never from the corrupted input. Each carries
a validity mask and provenance metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, ContractError, DimensionError, LabelRangeError, need_int
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
    meta: provenance, such as the fraction or the noise parameters.
    """

    kind: str
    values: np.ndarray
    mask: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _squeeze_map(target) -> np.ndarray:
    t = np.asarray(target, dtype=np.float64)
    if t.ndim == 3 and t.shape[0] == 1:
        t = t[0]
    if t.ndim != 2:
        raise DimensionError(f"expected a [H,W] or [1,H,W] target, got {t.shape}")
    return t


def masked_gt(target, fraction: float, seed: int) -> AdaptationSignal:
    """Uniformly random pixel subset of the ground truth (control signal)."""
    if not (0 < fraction <= 1):
        raise ConfigurationError(f"fraction {fraction} outside (0, 1]")
    need_int("seed", seed, 0)
    t = _squeeze_map(target)
    h, w = t.shape
    count = max(1, int(round(fraction * h * w)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SIGNAL]))
    flat = rng.choice(h * w, size=count, replace=False)
    mask = np.zeros((h, w), dtype=bool)
    mask.reshape(-1)[flat] = True
    values = np.where(mask, t, 0.0)
    return AdaptationSignal("masked_gt", values, mask, {"fraction": fraction})


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
    """
    if not (0 <= outlier_rate <= 1 and noise_sigma >= 0):  # NaN fails both
        raise ConfigurationError("noise_sigma must be >= 0 and outlier_rate in [0,1]")
    sig = masked_gt(target, fraction, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SIGNAL, 2]))
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
    return AdaptationSignal(
        "noisy_sparse",
        values,
        sig.mask,
        {"fraction": fraction, "noise_sigma": noise_sigma, "outlier_rate": outlier_rate},
    )


def click_annotations(target_classes, clicks_per_class: int, seed: int) -> AdaptationSignal:
    """Per-class random pixel labels (simulated annotation clicks)."""
    need_int("clicks_per_class", clicks_per_class, 1)
    need_int("seed", seed, 0)
    if clicks_per_class > 25:
        raise ConfigurationError(f"clicks_per_class {clicks_per_class} outside [1, 25]")
    t = np.asarray(target_classes, dtype=np.int64)
    if t.ndim != 2:
        raise DimensionError(f"expected a [H,W] class map, got {t.shape}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SIGNAL, 3]))
    mask = np.zeros(t.shape, dtype=bool)
    for cls in np.unique(t):
        ys, xs = np.nonzero(t == cls)
        take = min(clicks_per_class, len(ys))
        pick = rng.choice(len(ys), size=take, replace=False)
        mask[ys[pick], xs[pick]] = True
    values = np.where(mask, t, 0).astype(np.int64)
    return AdaptationSignal("clicks", values, mask, {"clicks_per_class": clicks_per_class})


# ---------------------------------------------------------------------------
# coarse labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseGrouping:
    group_of_fine: tuple[int, ...]  # fine class -> coarse class, surjective
    num_coarse: int

    def __post_init__(self):
        seen = set(self.group_of_fine)
        if seen != set(range(self.num_coarse)):
            raise ConfigurationError("grouping must be surjective onto coarse classes")

    @property
    def num_fine(self) -> int:
        return len(self.group_of_fine)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.group_of_fine, dtype=np.int64)


def make_coarse_grouping(K: int, C: int) -> CoarseGrouping:
    """Deterministic fine-to-coarse class grouping: consecutive classes
    share a group (sizes differ by <= 1 when C does not divide K)."""
    if type(K) is not int or type(C) is not int or not 2 <= C <= K:
        raise ConfigurationError(f"need integers 2 <= C <= K, got C={C!r}, K={K!r}")
    gmap = np.empty(K, dtype=np.int64)
    for c, block in enumerate(np.array_split(np.arange(K), C)):
        gmap[block] = c
    return CoarseGrouping(tuple(int(v) for v in gmap), C)


def coarse_label(y_fine: int, grouping: CoarseGrouping) -> AdaptationSignal:
    """One-hot coarse label of a fine class."""
    if not (0 <= y_fine < grouping.num_fine):
        raise LabelRangeError(f"fine class {y_fine} outside [0,{grouping.num_fine})")
    onehot = np.zeros(grouping.num_coarse)
    onehot[grouping.group_of_fine[y_fine]] = 1.0
    return AdaptationSignal("coarse", onehot, None, {"num_coarse": grouping.num_coarse})


# ---------------------------------------------------------------------------
# kNN retrieval over clean-training-set embeddings
# ---------------------------------------------------------------------------


class EmbeddingIndex:
    """Cosine-similarity index over penultimate-layer embeddings.

    ``DimensionError`` unless the embeddings are an [N, D] array with
    D >= 1; ``LabelRangeError`` unless the labels are one integer per
    embedding, each a class of the model: in [0, ``model.spec.out_ch``).
    The index holds the embeddings normalized, in its own array.
    """

    def __init__(self, model: Model, embeddings: np.ndarray, labels: np.ndarray):
        if embeddings.ndim != 2 or embeddings.shape[1] < 1:
            raise DimensionError(f"index needs [N, D] embeddings with D >= 1, got {embeddings.shape}")
        if embeddings.shape[0] == 0:
            raise ContractError("embedding index is empty")
        if labels.shape != embeddings.shape[:1] or labels.dtype.kind not in "iu":
            raise LabelRangeError(f"index needs one integer label per embedding, shape "
                                  f"{embeddings.shape[:1]}; got {labels.dtype} {labels.shape}")
        classes = model.spec.out_ch
        if labels.min() < 0 or labels.max() >= classes:
            raise LabelRangeError(f"index labels span [{labels.min()}, {labels.max()}], "
                                  f"outside the model's classes [0, {classes})")
        self.model = model
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        self.embeddings = embeddings / np.maximum(norms, 1e-12)
        self.labels = labels.astype(np.int64)

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
    if not 1 <= k <= n:
        raise ContractError(f"index holds {n} items, need 1 <= k={k} <= {n}")
    need_int("k", k, 1)
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
    return AdaptationSignal("knn_coarse", hist / hist.sum(), None, {"k": k})


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
        k = pred.shape[0]
        probs = ad.softmax(pred, axis=0)
        onehot = np.zeros_like(pred)
        ys, xs = np.nonzero(signal.mask > 0)
        onehot[signal.values[ys, xs], ys, xs] = 1.0
        return np.concatenate([probs, onehot, signal.mask[None]], axis=0)
    if signal.kind in ("coarse", "knn_coarse"):
        if pred.ndim != 1:
            raise DimensionError(f"vector feedback expects [K] logits, got {pred.shape}")
        return np.concatenate([ad.softmax(pred), signal.values])
    raise ConfigurationError(f"no feedback encoding for signal kind {signal.kind!r}")


def encode_feedback(prediction, signal) -> np.ndarray:
    """Concatenate prediction and signal into the controller input.

    Single sample: (prediction, AdaptationSignal) -> encoded array.
    Batch: ([N,...] predictions, list of N signals) -> stacked encoding.
    """
    pred = prediction.array if isinstance(prediction, ad.Tensor) else np.asarray(prediction)
    if isinstance(signal, AdaptationSignal):
        return _encode_one(pred, signal)
    if len(signal) != pred.shape[0]:
        raise DimensionError(f"{pred.shape[0]} predictions vs {len(signal)} signals")
    return np.stack([_encode_one(pred[i], s) for i, s in enumerate(signal)])
