"""Hot numeric loops over numpy arrays.

There is one implementation of each kernel. The SGD kernel is minibatch SGD
on the negative-sampling objective (HogBatch, Ji et al. 2016,
arXiv:1604.04661). It enumerates the skip-gram (center, target) pairs in
word2vec's order and cuts them every ``BATCH`` pairs, so only a call's last
batch can be shorter. Every pair of a batch is scored against the weights as
they stood before the batch, and each row of ``w_in`` and ``w_out`` then
takes the sum of its pairs' steps. That is one SGD step on the batch's
summed ``embed.negative_sampling_loss``, at per-pair learning rates; a noise
word equal to its pair's target counts for nothing.

A batch works on its distinct input rows ``H`` and distinct output rows
``U``, each found with one sort of the batch's word ids and a lookup in a
slot table of one int64 per vocabulary word, made once per call
(``_distinct``, the values and inverse of ``np.unique`` at a fraction of its
cost). One flat index per (pair, word) gathers the scores from ``H @ U.T``
and sums the coefficients ``(label - sigma) * alpha`` into the matrix ``C``
of distinct input rows by distinct output rows, and the rows move by
``C @ U`` and ``C.T @ H``. So a batch's temporaries hold at most
``BATCH * (1 + k)`` scores, ``BATCH`` x ``BATCH * (1 + k)`` coefficients and
distinct-rows x dim row blocks; the one vocabulary-wide array is the slot
table, 1/dim the size of ``w_in``.

``kmeans_assign`` also returns the distances ``cluster.kmeans_fit`` re-seeds from.

All pseudo-randomness (window sizes, negative samples) is drawn outside the
kernels, so the random stream never depends on how a kernel is written.
"""

from __future__ import annotations

import numpy as np


def numba_enabled() -> bool:
    # There is no JIT path any more; perfbench/run.py still records this field.
    return False


# Sigmoid inputs are clamped so exp never overflows; sigma(30) is 1 to
# within 1e-13, far below any gradient that still moves a weight.
_MAX_SCORE = 30.0

#: Most skip-gram pairs in one minibatch SGD step.
BATCH = 64


def skipgram_doc(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    """Minibatch skip-gram SGD over a run of positions.

    doc: int64[n] vocabulary indices; win_lo/win_hi: inclusive context span
    per position, holding the position itself; negatives: int64[n_pairs, k]
    noise words, one row per pair in pair-enumeration order; alphas:
    float64[n] per-position learning rate. Updates w_in / w_out in place and
    returns nothing.
    """
    counts = win_hi - win_lo
    pos = np.repeat(np.arange(len(doc)), counts)  # the center position of each pair
    ctx = np.arange(len(pos)) - np.repeat(np.cumsum(counts) - counts - win_lo, counts)
    ctx += ctx >= pos  # skip the center itself
    centers = doc[pos]
    words = np.column_stack((doc[ctx], negatives))  # the target, then the noise words
    label = np.zeros(words.shape[1])
    label[0] = 1.0
    keep = np.ones(words.shape)
    keep[:, 1:] = negatives != words[:, :1]
    rate = alphas[pos][:, None] * keep
    slot = np.empty(len(w_in), np.int64)
    for start in range(0, len(pos), BATCH):
        b = slice(start, start + BATCH)
        rows_in, ci = _distinct(centers[b], slot)
        rows_out, wi = _distinct(words[b], slot)
        h, u = w_in[rows_in], w_out[rows_out]
        flat = ci[:, None] * len(rows_out) + wi
        f = h.dot(u.T).take(flat)
        np.maximum(f, -_MAX_SCORE, out=f)
        np.minimum(f, _MAX_SCORE, out=f)
        s = 1.0 / (1.0 + np.exp(-f))
        g = ((label - s) * rate[b]).ravel()
        c = np.bincount(flat.ravel(), g, len(rows_in) * len(rows_out)).reshape(len(rows_in), -1)
        w_in[rows_in] = h + c.dot(u)
        w_out[rows_out] = u + c.T.dot(h)


def _distinct(x, slot):
    """``np.unique(x, return_inverse=True)`` of a non-empty int array: the
    sorted distinct values, and each entry's index among them, shaped like
    ``x``. ``slot`` is an int64 scratch table indexed by value; its entries
    at ``x``'s values are written before they are read, so its old contents
    never matter. One sort and a table lookup cost less than ``np.unique``
    at batch sizes."""
    s = x.flatten()
    s.sort()
    first = np.empty(len(s), dtype=bool)
    first[0] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    rows = s[first]
    slot[rows] = np.arange(len(rows))
    return rows, slot[x]


def cbow_doc(*args):
    # No trainer calls this; perfbench/spans.py still wraps it by name.
    raise NotImplementedError("only skip-gram is trained")


def kmeans_assign(X, centers):
    """Nearest-center assignment (squared-distance ties go to the lowest id).

    Returns each row's int64 cluster id, the within-cluster sum of squared
    distances and the k x n squared distances, all from one k x n x dim
    float64 difference: about 1 MB for 300 rows of dim 50 at k=8, 64 MB for 20 000.
    """
    diff = X - centers[:, None]
    d = np.einsum("kij,kij->ki", diff, diff)
    # argmin returns the first minimum, so a tie goes to the lowest id
    return d.argmin(axis=0), float(d.min(axis=0).sum()), d


def kmeans_update(X, ids, k):
    """Per-cluster coordinate sums and member counts of the ``k`` clusters.

    One ``np.bincount`` over flat (cluster, coordinate) bins sums each bin's
    weights in row order from 0.0, as a loop over the rows would.
    """
    d = X.shape[1]
    flat = (ids[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=X.ravel(), minlength=k * d).reshape(k, d)
    return sums, np.bincount(ids, minlength=k)
