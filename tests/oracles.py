"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive (explicit loops, extended precision)
and shares no code with the package internals.
"""

import numpy as np


def matmul_loops(a, b):
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def conv2d_loops(x, w, stride=1, pad=0):
    """Direct six-loop cross-correlation. x: [C,H,W], w: [O,C,k,k]."""
    c, h, wd = x.shape
    o, c2, k, _ = w.shape
    assert c == c2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((o, ho, wo))
    for oc in range(o):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ic in range(c):
                    for ki in range(k):
                        for kj in range(k):
                            acc += xp[ic, i * stride + ki, j * stride + kj] * w[oc, ic, ki, kj]
                out[oc, i, j] = acc
    return out


def avgpool2_loops(x):
    """Mean of every 2x2 block, summed in reading order. x: [C,H,W]."""
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ic in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                acc = 0.0
                for di in range(2):
                    for dj in range(2):
                        acc += x[ic, 2 * i + di, 2 * j + dj]
                out[ic, i, j] = acc / 4.0
    return out


def upsample2_loops(x):
    """Nearest-neighbour 2x upsampling, one output pixel at a time. x: [C,H,W]."""
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w))
    for ic in range(c):
        for i in range(2 * h):
            for j in range(2 * w):
                out[ic, i, j] = x[ic, i // 2, j // 2]
    return out


def film_loops(x, gamma, beta):
    """Elementwise FiLM. x: [C,H,W]."""
    out = np.zeros_like(x)
    c, h, w = x.shape
    for ic in range(c):
        for i in range(h):
            for j in range(w):
                out[ic, i, j] = gamma[ic] * x[ic, i, j] + beta[ic]
    return out


def softmax_ce_mp(logits, target, dps=50):
    """Cross-entropy via mpmath extended precision."""
    import mpmath

    with mpmath.workdps(dps):
        zs = [mpmath.mpf(float(v)) for v in logits]
        es = [mpmath.e**z for z in zs]
        total = mpmath.fsum(es)
        return float(-mpmath.log(es[target] / total))


def entropy_mp(logits, dps=50):
    """Softmax entropy via mpmath extended precision."""
    import mpmath

    with mpmath.workdps(dps):
        zs = [mpmath.mpf(float(v)) for v in logits]
        es = [mpmath.e**z for z in zs]
        total = mpmath.fsum(es)
        ps = [e / total for e in es]
        return float(-mpmath.fsum(p * mpmath.log(p) for p in ps))


def central_fd(f, arr, h=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. every entry."""
    g = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gflat[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(analytic, numeric, floor=1.0):
    """max |a-n| / max(floor, |n|) over all entries."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(a - n) / np.maximum(floor, np.abs(n))))
