"""Choice table: coordination of K decoder threads.

The table stacks the K decoded futures.  During training two mechanisms keep
the threads from collapsing into the same minimum: a similarity penalty (the
negated sum of pairwise L2 distances between the threads' per-position
softmax outputs) rewards decoders for disagreeing, and random loss negation
(a Bernoulli mask over per-position action-loss terms, resampled every
iteration) lets individual threads ignore part of the ground truth and drift
toward an alternative future.  At inference each thread is scored by the
summed log probability of its own greedy sequence and the threads are ranked
by that score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Graph
from .crnn import DecodedThread, thread_action_loss


@dataclass
class ChoiceTable:
    threads: list[DecodedThread]

    @property
    def k(self) -> int:
        return len(self.threads)


@dataclass
class RlnMask:
    entries: np.ndarray  # (K, Nmax) of {0.0, 1.0}; 1 keeps the loss term
    phi: float


@dataclass
class RankedPredictions:
    thread_order: list[int]  # thread indices, most probable first
    log_probs: list[float]  # nonincreasing, aligned with thread_order


def similarity_penalty(g: Graph, table: ChoiceTable, lam: float) -> int:
    """Negated, scaled sum of pairwise distances between thread outputs.

    Positions are aligned by step index; a position contributes for a thread
    pair only where both threads emitted an action step.  Per position, the
    live threads' logits are stacked and softmaxed in one node and their full
    distance matrix summed, which counts every unordered pair twice (the
    matrix is symmetric with zero diagonal); the total is scaled by
    -lambda / K^2.
    """
    if lam < 0:
        raise ContractError("similarity penalty weight must be >= 0")
    k = table.k
    if k <= 1:
        return g.leaf(np.asarray(0.0))
    emitted = [len(t.raw_duration_ids) for t in table.threads]
    sums = []
    for m in range(max(emitted, default=0)):
        live = [t.action_logit_ids[m] for t, n in zip(table.threads, emitted) if n > m]
        if len(live) < 2:
            continue
        probs = g.softmax(g.stack(live))
        sums.append(g.sum(g.pairwise_l2(probs, probs)))
    if not sums:
        return g.leaf(np.asarray(0.0))
    total = sums[0] if len(sums) == 1 else g.sum(g.concat(sums))
    return g.scale(total, -lam / (k * k))


def sample_rln_mask(k: int, n_max: int, phi: float, rng_seed: int) -> RlnMask:
    """K x Nmax i.i.d. Bernoulli(phi) mask in {0, 1}; deterministic per seed."""
    if not 0.0 <= phi <= 1.0:
        raise ContractError("phi must lie in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    entries = (rng.random((k, n_max)) < phi).astype(np.float64)
    return RlnMask(entries=entries, phi=phi)


def masked_mean(g: Graph, loss_lists: list[list[int]], mask_entries: np.ndarray) -> int:
    """Mean over all (thread, position) loss terms, each gated by its mask entry."""
    k = len(loss_lists)
    widest = max((len(row) for row in loss_lists), default=0)
    if mask_entries.shape[0] < k or (widest and mask_entries.shape[1] < widest):
        raise ContractError(
            f"mask shape {mask_entries.shape} does not cover {k} x {widest} loss terms")
    nodes = []
    gates = []
    for ti, row in enumerate(loss_lists):
        for m, node in enumerate(row):
            nodes.append(node)
            gates.append(mask_entries[ti, m])
    if not nodes:
        return g.leaf(np.asarray(0.0))
    stacked = g.concat(nodes)
    gated = g.mul(stacked, g.leaf(np.asarray(gates)))
    return g.scale(g.sum(gated), 1.0 / len(nodes))


def masked_action_loss(g: Graph, table: ChoiceTable, gt_future_actions, mask: RlnMask,
                       eos: int) -> int:
    """Mean of mask-gated per-position action losses over all threads."""
    loss_lists = [thread_action_loss(g, t.action_logit_ids, gt_future_actions, eos)
                  for t in table.threads]
    return masked_mean(g, loss_lists, mask.entries)


def total_loss(g: Graph, recognition: int, action: int, time: int, sim: int) -> int:
    """Unweighted sum of the loss components (the sim term carries its own weight)."""
    return g.add(g.add(g.add(recognition, action), time), sim)


def thread_log_prob(thread: DecodedThread) -> float:
    """Summed log probability of the thread's own greedy choices.

    Covers every emitted step, including the terminating EOS choice.  An empty
    thread (no action steps at all) gets -inf so it ranks last.
    """
    if not thread.actions:
        return float("-inf")
    total = 0.0
    for row in thread.action_logits:
        m = row.max()
        lse = m + np.log(np.exp(row - m).sum())
        total += row.max() - lse  # greedy choice == argmax, whose logit is the max
    return float(total)


def rank_threads(table: ChoiceTable) -> RankedPredictions:
    """Stable sort by thread log probability, descending; ties keep thread order."""
    log_probs = [thread_log_prob(t) for t in table.threads]
    order = sorted(range(table.k), key=lambda i: (-log_probs[i], i))
    return RankedPredictions(thread_order=order, log_probs=[log_probs[i] for i in order])


def format_predictions(table: ChoiceTable, ranked: RankedPredictions,
                       action_names: list[str]) -> str:
    """One line per thread in ranked order: rank, log prob, action:reldur chain."""
    lines = []
    for rank, ti in enumerate(ranked.thread_order, start=1):
        thread = table.threads[ti]
        rel = thread.rel_durations
        chain = ";".join(
            f"{action_names[a]}:{rel[i]:.6f}" for i, a in enumerate(thread.actions))
        lines.append(f"{rank}\t{ranked.log_probs[rank - 1]:.6f}\t{chain}")
    return "\n".join(lines) + "\n"
