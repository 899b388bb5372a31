"""Hot numeric loops over numpy arrays.

There is one implementation of each kernel. The SGD kernel keeps the word2vec
update order: one (center, target) pair per skip-gram step, and within a step
the target first, then each noise word that differs from it, in row order,
each scored against its output row as the words before it left that row.

``skipgram_doc`` hands each step to ``_negative_step``, which does it in one
gather, one matrix-vector product, one k=1 product for the row update and one
scatter, with one int64 index array for both the gather and the scatter.
That rests on two facts about the order.
The input vector ``h`` is fixed within a step: skip-gram adds the input
gradient only after the step. And an output row moves only through its own
updates, ``u += g * h``. So a word seen earlier in the step with summed
coefficient ``c`` now has the row ``u0 + c * h``: its score is
``u0 . h + c * (h . h)``, and it adds ``g * u0 + g * c * h`` to the input
gradient. Results match the one-word-at-a-time loop to rounding, and
``tests/test_kernels.py`` pins them bit for bit against the step before its
numpy calls were trimmed, save that the k=1 product gives -0.0 as +0.0: that
moves only a -0.0 in ``w_out``, which training never makes (zero start).

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


def _negative_step(w_out, h, words, alpha):
    """One negative-sampling step for the input vector ``h``.

    words: the target, then the drawn noise words (those equal to the target
    are skipped). Updates the rows of ``w_out`` in place and returns the
    input-side gradient and the step loss.
    """
    target = words[0]
    slots = {}
    for word in words:
        slots.setdefault(word, len(slots))
    idx = np.array(list(slots))
    rows = w_out.take(idx, axis=0)
    scores = rows.dot(h).tolist()
    coef = [0.0] * len(idx)
    exp, log = math.exp, math.log
    loss = repeat = 0.0
    hh = None
    label = 1.0
    for word in words:
        if label == 0.0 and word == target:
            continue
        s = slots[word]
        prior = coef[s]
        f = scores[s]
        if prior:  # the row already moved by prior * h in this step
            if hh is None:
                hh = float(h.dot(h))
            f += prior * hh
        if f > _MAX_SCORE:
            f = _MAX_SCORE
        elif f < -_MAX_SCORE:
            f = -_MAX_SCORE
        sig = 1.0 / (1.0 + exp(-f))
        loss -= log(sig) if label == 1.0 else log(1.0 - sig)
        g = (label - sig) * alpha
        repeat += g * prior
        coef[s] = prior + g
        label = 0.0
    c = np.array(coef)
    grad = c.dot(rows)
    if repeat:
        grad += repeat * h
    rows += np.dot(c[:, None], h[None, :])  # each entry is the one product c_i * h_j
    w_out[idx] = rows
    return grad, loss


def skipgram_doc(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    """One skip-gram pass over a single document.

    doc: int64[n] vocabulary indices; win_lo/win_hi: inclusive context span
    per position; negatives: int64[n_pairs, k] noise words, rows consumed in
    pair-enumeration order; alphas: float64[n] per-position learning rate.
    Updates w_in / w_out in place, returns the summed pair loss.
    """
    words = doc.tolist()
    noise = negatives.tolist()
    loss = 0.0
    pair = 0
    for i, center in enumerate(words):
        v = w_in[center]
        alpha = float(alphas[i])
        for j in range(int(win_lo[i]), int(win_hi[i]) + 1):
            if j == i:
                continue
            # v moves only after the step, so the step sees it fixed
            grad, step_loss = _negative_step(w_out, v, [words[j]] + noise[pair], alpha)
            v += grad
            loss += step_loss
            pair += 1
    return loss


def cbow_doc(*args):
    # No trainer calls this; perfbench/spans.py still wraps it by name.
    raise NotImplementedError("only skip-gram is trained")


def kmeans_assign(X, centers):
    """Nearest-center assignment (squared-distance ties go to the lowest id).

    Returns the int64 cluster id of each row and the within-cluster sum of
    squared distances. All k x n distances come from one k x n x dim float64
    difference: about 1 MB for 300 rows of dim 50 at k=8, 64 MB for 20 000.
    """
    diff = X - centers[:, None]
    d = np.einsum("kij,kij->ki", diff, diff)
    # argmin returns the first minimum, so a tie goes to the lowest id
    return d.argmin(axis=0), float(d.min(axis=0).sum())


def kmeans_update(X, ids, k):
    """Per-cluster coordinate sums and member counts of the ``k`` clusters.

    ``np.add.at`` adds the rows in index order, as a loop over them would.
    """
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, ids, X)
    return sums, np.bincount(ids, minlength=k)
