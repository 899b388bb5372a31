"""Hot numeric loops over numpy arrays.

There is one implementation of each kernel. The SGD kernels keep the word2vec
update order, one (center, target) pair and one noise word at a time, and do
the per-dimension arithmetic as numpy vector operations. A noise word drawn
twice for one pair therefore sees the output row its first draw already moved.

All pseudo-randomness (window sizes, negative samples) is drawn outside the
kernels, so the random stream never depends on how a kernel is written.
"""

from __future__ import annotations

import math

import numpy as np


def numba_enabled() -> bool:
    # There is no JIT path any more; perfbench/run.py still records this field.
    return False


# Sigmoid inputs are clamped so math.exp never overflows; sigma(30) is 1 to
# within 1e-13, far below any gradient that still moves a weight.
_MAX_SCORE = 30.0


def skipgram_doc(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    """One skip-gram pass over a single document.

    doc: int64[n] vocabulary indices; win_lo/win_hi: inclusive context span
    per position; negatives: int64[n_pairs, k] noise words, rows consumed in
    pair-enumeration order; alphas: float64[n] per-position learning rate.
    Updates w_in / w_out in place, returns the summed pair loss.
    """
    words = doc.tolist()
    noise = negatives.tolist()
    exp, log = math.exp, math.log
    loss = 0.0
    pair = 0
    for i, center in enumerate(words):
        v = w_in[center]
        alpha = float(alphas[i])
        for j in range(int(win_lo[i]), int(win_hi[i]) + 1):
            if j == i:
                continue
            target = words[j]
            grad_in = np.zeros_like(v)
            # positive target then the drawn negatives, in row order; the
            # step is inlined because a call per word costs about a fifth
            # of a dim-10 run
            label = 1.0
            for word in [target] + [w for w in noise[pair] if w != target]:
                u = w_out[word]
                f = min(max(float(u.dot(v)), -_MAX_SCORE), _MAX_SCORE)
                sig = 1.0 / (1.0 + exp(-f))
                loss -= log(sig) if label == 1.0 else log(1.0 - sig)
                g = (label - sig) * alpha
                grad_in += g * u
                u += g * v
                label = 0.0
            v += grad_in
            pair += 1
    return loss


def cbow_doc(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    """One CBOW pass over a single document.

    The context mean predicts the center word; negatives has one row per
    position. The input-side gradient is split evenly over the context words.
    """
    words = doc.tolist()
    noise = negatives.tolist()
    exp, log = math.exp, math.log
    loss = 0.0
    for i, center in enumerate(words):
        lo, hi = int(win_lo[i]), int(win_hi[i])
        n_ctx = hi - lo
        if n_ctx <= 0:
            continue
        alpha = float(alphas[i])
        ctx = words[lo:i] + words[i + 1:hi + 1]
        # an axis-0 sum adds the context rows one after another
        hidden = w_in[ctx].sum(axis=0) / n_ctx
        grad_h = np.zeros_like(hidden)
        label = 1.0
        for word in [center] + [w for w in noise[i] if w != center]:
            u = w_out[word]
            f = min(max(float(u.dot(hidden)), -_MAX_SCORE), _MAX_SCORE)
            sig = 1.0 / (1.0 + exp(-f))
            loss -= log(sig) if label == 1.0 else log(1.0 - sig)
            g = (label - sig) * alpha
            grad_h += g * u
            u += g * hidden
            label = 0.0
        # unbuffered, so a context word that repeats gets each share in turn
        np.add.at(w_in, ctx, grad_h / n_ctx)
    return loss


def kmeans_assign(X, centers, out):
    """Nearest-center assignment (squared-distance ties go to the lowest id).

    Writes cluster ids into ``out`` and returns the within-cluster sum of
    squared distances.
    """
    best_d = np.full(X.shape[0], np.inf)
    out[:] = 0
    for c in range(centers.shape[0]):
        diff = X - centers[c]
        d = np.einsum("ij,ij->i", diff, diff)
        closer = d < best_d
        out[closer] = c
        best_d[closer] = d[closer]
    return float(best_d.sum())


def kmeans_update(X, assign, sums, counts):
    """Accumulate per-cluster coordinate sums and member counts in place.

    ``np.add.at`` adds the rows in index order, as a loop over them would.
    """
    counts += np.bincount(assign, minlength=counts.shape[0])
    np.add.at(sums, assign, X)
