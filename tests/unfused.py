"""Unfused references: each fused tape op written as a composition of primitives.

GRU step, linear head, cross entropy, head slice, duration loss and
similarity penalty, each built from elementwise and matmul nodes.  The
differential tests in ``test_fused_ops.py`` compare the fused ops against
them.
"""

import numpy as np

from planb import nn


def gru_step(g, p: nn.GruParams, x: int, h: int) -> int:
    z = g.sigmoid(g.add(g.add(g.matmul(p.w_z, x), g.matmul(p.u_z, h)), p.b_z))
    r = g.sigmoid(g.add(g.add(g.matmul(p.w_r, x), g.matmul(p.u_r, h)), p.b_r))
    cand = g.tanh(g.add(g.add(g.matmul(p.w_h, x), g.matmul(p.u_h, g.mul(r, h))), p.b_h))
    one = g.leaf(np.ones_like(g.value(h)))
    return g.add(g.mul(g.sub(one, z), h), g.mul(z, cand))


def linear(g, p: nn.LinearParams, x: int) -> int:
    return g.add(g.matmul(p.weight, x), p.bias)


def cross_entropy(g, logits: int, target_class: int) -> int:
    v = g.value(logits)
    shift = float(v.max())
    shifted = g.sub(logits, g.leaf(np.full(v.shape, shift)))
    lse = g.add(g.log(g.sum(g.exp(shifted))), g.leaf(np.asarray(shift)))
    return g.sub(lse, g.gather_row(logits, target_class))


def head_slice(g, head_out: int, stop: int) -> int:
    """The first ``stop`` entries of a vector, as a matmul with a cut identity."""
    return g.matmul(g.leaf(np.eye(stop, g.value(head_out).shape[0])), head_out)


def time_loss(g, predicted_rel, ground_truth_rel) -> int:
    gt = np.asarray(ground_truth_rel, dtype=np.float64)
    pieces = []
    total = 0
    for rel in predicted_rel:
        n = min(g.value(rel).shape[0], gt.shape[0])
        if n == 0:
            continue
        pred = rel if g.value(rel).shape[0] == n else head_slice(g, rel, n)
        pieces.append(g.sum(g.square(g.sub(pred, g.leaf(gt[:n])))))
        total += n
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = g.add(acc, piece)
    return g.scale(acc, 1.0 / total)


def similarity_penalty(g, threads, lam: float) -> int:
    """-2 lambda / K^2 times the summed distance over unordered live thread pairs."""
    k = len(threads)
    if k <= 1:
        return g.leaf(np.asarray(0.0))
    emitted = [len(t.raw_duration_ids) for t in threads]
    terms = []
    for m in range(max(emitted)):
        live = [ti for ti in range(k) if emitted[ti] > m]
        soft = {ti: g.softmax(threads[ti].action_logit_ids[m]) for ti in live}
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                terms.append(g.sum(g.pairwise_l2(soft[live[a]], soft[live[b]])))
    if not terms:
        return g.leaf(np.asarray(0.0))
    acc = terms[0]
    for t in terms[1:]:
        acc = g.add(acc, t)
    return g.scale(acc, -2.0 * lam / (k * k))
