"""Collaborative RNN encoder/decoder.

The encoder runs a lower GRU over per-frame features; a linear classifier on
its hidden state labels every frame.  An upper GRU consumes the embedded
frame label, but only steps when that label changes (and on the first frame),
so it sees the video at action resolution.  The upper classifier's action is
embedded and fed back into the next frame's lower input -- the two levels
exchange classifications as messages.

The decoder mirrors this: per prediction step, a lower GRU consumes the
embedded previous lower/upper actions and a head emits action logits plus a
raw duration; the upper GRU consumes the embedded current action and its head
emits the upper action fed back into the next step.  Decoding starts from the
EOS token at both levels and stops when the lower head predicts EOS.  Raw
durations are softmax-normalized into relative durations.

All discrete feedback (argmax -> embedding) is non-differentiable by design:
gradients stop at the argmax and flow into the embedding rows instead.  Every
classifier head therefore carries its own cross-entropy loss so the whole
parameter set stays trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, DimensionError, Graph
from . import nn


@dataclass
class DecoderParams:
    """One decoder thread's private weights."""

    lower_gru: nn.GruParams
    upper_gru: nn.GruParams | None
    head_lower: nn.LinearParams  # (num_classes + 1) action logits + 1 raw duration
    head_upper: nn.LinearParams | None


@dataclass
class CrnnParams:
    """Shared encoder + embeddings and K per-thread decoder parameter sets."""

    num_classes: int  # real actions; the EOS token gets id == num_classes
    lower_encoder_gru: nn.GruParams
    upper_encoder_gru: nn.GruParams | None
    encoder_classifier_lower: nn.LinearParams
    encoder_classifier_upper: nn.LinearParams | None
    action_embed_lower: nn.EmbeddingTable  # embeds lower-level (frame/step) actions
    action_embed_upper: nn.EmbeddingTable | None  # embeds upper-level actions
    decoders: list[DecoderParams] = field(default_factory=list)

    @property
    def eos(self) -> int:
        return self.num_classes

    @property
    def num_outputs(self) -> int:
        return self.num_classes + 1

    @property
    def collaborative(self) -> bool:
        return self.upper_encoder_gru is not None

    @property
    def k_threads(self) -> int:
        return len(self.decoders)


def init_crnn(num_classes: int, feature_dim: int, hidden_lower: int, hidden_upper: int,
              embed_dim: int, k_threads: int, seed: int, collaborative: bool = True,
              shared_decoder_init: bool = False) -> CrnnParams:
    """Build a fresh parameter set; deterministic per seed.

    ``shared_decoder_init`` gives every decoder thread identical initial
    weights (the collapse-control configuration).
    """
    children = np.random.SeedSequence(seed).spawn(1 + k_threads)
    enc_rng = np.random.default_rng(children[0])
    n_out = num_classes + 1
    enc_lower_in = feature_dim + (embed_dim if collaborative else 0)
    params = CrnnParams(
        num_classes=num_classes,
        lower_encoder_gru=nn.init_gru(enc_rng, enc_lower_in, hidden_lower),
        upper_encoder_gru=nn.init_gru(enc_rng, embed_dim, hidden_upper) if collaborative else None,
        encoder_classifier_lower=nn.init_linear(enc_rng, hidden_lower, n_out),
        encoder_classifier_upper=nn.init_linear(enc_rng, hidden_upper, n_out) if collaborative else None,
        action_embed_lower=nn.init_embedding(enc_rng, n_out, embed_dim),
        action_embed_upper=nn.init_embedding(enc_rng, n_out, embed_dim) if collaborative else None,
    )
    dec_lower_in = embed_dim * (2 if collaborative else 1)
    for k in range(k_threads):
        child = children[1] if shared_decoder_init else children[1 + k]
        rng = np.random.default_rng(child)
        params.decoders.append(DecoderParams(
            lower_gru=nn.init_gru(rng, dec_lower_in, hidden_lower),
            upper_gru=nn.init_gru(rng, embed_dim, hidden_upper) if collaborative else None,
            head_lower=nn.init_linear(rng, hidden_lower, n_out + 1),
            head_upper=nn.init_linear(rng, hidden_upper, n_out) if collaborative else None,
        ))
    return params


# -- encoder -------------------------------------------------------------------


@dataclass
class EncoderOutput:
    graph: Graph
    h_lower: int
    h_upper: int | None
    frame_logit_ids: list[int]
    lower_actions: list[int]
    upper_logit_ids: list[int]
    upper_step_frames: list[int]

    @property
    def upper_step_count(self) -> int:
        return len(self.upper_step_frames)

    @property
    def per_frame_logits(self) -> np.ndarray:
        return np.stack([self.graph.value(i) for i in self.frame_logit_ids])


def encode(g: Graph, p: CrnnParams, features: np.ndarray,
           forced_lower_actions=None) -> EncoderOutput:
    """Run the two-level encoder over observed frame features (T x D).

    The upper level steps on the first frame and whenever the lower
    classification changes.  ``forced_lower_actions`` overrides the lower
    argmax trace (used by tests to pin the gating behavior).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ContractError("encode requires a non-empty T x D feature matrix")
    T = features.shape[0]
    frames = g.leaf(features)
    h_low = g.leaf(np.zeros_like(g.value(p.lower_encoder_gru.b_z)))
    h_up = g.leaf(np.zeros_like(g.value(p.upper_encoder_gru.b_z))) if p.collaborative else None

    prev_upper_action = p.eos
    frame_logit_ids: list[int] = []
    lower_actions: list[int] = []
    upper_logit_ids: list[int] = []
    upper_step_frames: list[int] = []

    for t in range(T):
        x = g.gather_row(frames, t)
        if p.collaborative:
            x = g.concat([x, nn.embed_row(g, p.action_embed_upper, prev_upper_action)])
        h_low = nn.gru_step(g, p.lower_encoder_gru, x, h_low)
        logits = nn.linear(g, p.encoder_classifier_lower, h_low)
        frame_logit_ids.append(logits)
        if forced_lower_actions is not None:
            a_t = int(forced_lower_actions[t])
        else:
            a_t = int(np.argmax(g.value(logits)))
        lower_actions.append(a_t)

        if p.collaborative and (t == 0 or a_t != lower_actions[t - 1]):
            h_up = nn.gru_step(g, p.upper_encoder_gru,
                               nn.embed_row(g, p.action_embed_lower, a_t), h_up)
            up_logits = nn.linear(g, p.encoder_classifier_upper, h_up)
            upper_logit_ids.append(up_logits)
            upper_step_frames.append(t)
            prev_upper_action = int(np.argmax(g.value(up_logits)))

    return EncoderOutput(
        graph=g, h_lower=h_low, h_upper=h_up,
        frame_logit_ids=frame_logit_ids, lower_actions=lower_actions,
        upper_logit_ids=upper_logit_ids, upper_step_frames=upper_step_frames,
    )


def encoder_recognition_loss(g: Graph, enc: EncoderOutput, gt_frame_labels) -> int:
    """Mean per-frame cross entropy of the lower classifier."""
    labels = np.asarray(gt_frame_labels)
    if labels.shape[0] != len(enc.frame_logit_ids):
        raise DimensionError(
            f"label count {labels.shape[0]} != frame count {len(enc.frame_logit_ids)}")
    terms = [nn.cross_entropy(g, logits, int(labels[t]))
             for t, logits in enumerate(enc.frame_logit_ids)]
    return g.mean(g.concat(terms))


def encoder_upper_recognition_loss(g: Graph, enc: EncoderOutput, gt_frame_labels) -> int | None:
    """Cross entropy of the upper classifier at its update frames (None if single-level)."""
    if not enc.upper_logit_ids:
        return None
    labels = np.asarray(gt_frame_labels)
    terms = [nn.cross_entropy(g, logits, int(labels[t]))
             for logits, t in zip(enc.upper_logit_ids, enc.upper_step_frames)]
    return g.mean(g.concat(terms))


# -- decoder -------------------------------------------------------------------


@dataclass
class DecodedThread:
    graph: Graph
    action_logit_ids: list[int]  # one (num_classes+1)-vector per emitted step
    actions: list[int]  # greedy actions, excluding the terminating EOS
    raw_duration_ids: list[int]  # raw duration outputs at the action steps
    rel_durations_id: int | None  # softmax over raw durations
    upper_logit_ids: list[int]  # empty when single-level
    terminated: bool  # EOS emitted before the step cap

    @property
    def action_logits(self) -> np.ndarray:
        return np.stack([self.graph.value(i) for i in self.action_logit_ids])

    @property
    def rel_durations(self) -> np.ndarray:
        if self.rel_durations_id is None:
            return np.zeros(0)
        return self.graph.value(self.rel_durations_id)


def duration_normalize(g: Graph, raw_duration_ids: list[int]) -> int | None:
    """Softmax over the raw per-step duration outputs."""
    if not raw_duration_ids:
        return None
    return g.softmax(g.concat(raw_duration_ids))


def decode_thread(g: Graph, p: CrnnParams, dec: DecoderParams, h_lower: int,
                  h_upper: int | None, max_len: int, num_steps: int | None = None,
                  gt_actions=None, teacher_force=None) -> DecodedThread:
    """Greedily decode one thread from the encoder hidden states.

    Inference (default): run until the lower head emits EOS or ``max_len``
    steps have been taken.  Training: pass ``num_steps`` to force exactly that
    many steps (one per ground-truth position plus the EOS slot), optionally
    with ``gt_actions``/``teacher_force`` so that step feedback uses the true
    previous action where the forcing mask is set.
    """
    if max_len < 1:
        raise ContractError("max_len must be >= 1")
    n_logits = p.num_outputs
    total = num_steps if num_steps is not None else max_len

    h_low, h_up = h_lower, h_upper
    prev_lower = p.eos
    prev_upper = p.eos
    action_logit_ids: list[int] = []
    actions: list[int] = []
    raw_duration_ids: list[int] = []
    upper_logit_ids: list[int] = []
    terminated = False

    for m in range(total):
        if p.collaborative:
            x = g.concat([nn.embed_row(g, p.action_embed_lower, prev_lower),
                          nn.embed_row(g, p.action_embed_upper, prev_upper)])
        else:
            x = nn.embed_row(g, p.action_embed_lower, prev_lower)
        h_low = nn.gru_step(g, dec.lower_gru, x, h_low)
        head_out = nn.linear(g, dec.head_lower, h_low)  # logits, then one raw duration
        logits = g.slice(head_out, 0, n_logits)
        action_logit_ids.append(logits)
        a_m = int(np.argmax(g.value(logits)))

        if num_steps is None and a_m == p.eos:
            terminated = True
            break
        is_action_step = num_steps is None or m < num_steps - 1
        if is_action_step:
            raw_duration_ids.append(g.gather_row(head_out, n_logits))
        if num_steps is None or a_m != p.eos:
            actions.append(a_m)

        # token treated as "what happened at step m" for both levels' feedback
        forced = (gt_actions is not None and teacher_force is not None
                  and m < len(teacher_force) and teacher_force[m])
        if forced:
            token = int(gt_actions[m]) if m < len(gt_actions) else p.eos
        else:
            token = a_m

        if p.collaborative:
            h_up = nn.gru_step(g, dec.upper_gru,
                               nn.embed_row(g, p.action_embed_lower, token), h_up)
            up_logits = nn.linear(g, dec.head_upper, h_up)
            upper_logit_ids.append(up_logits)
            u_m = int(np.argmax(g.value(up_logits)))
            prev_upper = token if forced else u_m
        prev_lower = token

    if num_steps is not None:
        terminated = bool(action_logit_ids) and \
            int(np.argmax(g.value(action_logit_ids[-1]))) == p.eos

    return DecodedThread(
        graph=g,
        action_logit_ids=action_logit_ids,
        actions=actions,
        raw_duration_ids=raw_duration_ids,
        rel_durations_id=duration_normalize(g, raw_duration_ids),
        upper_logit_ids=upper_logit_ids,
        terminated=terminated,
    )


def _padded_targets(gt_actions, length: int, eos: int) -> list[int]:
    gt = list(gt_actions)
    return [int(gt[m]) if m < len(gt) else eos for m in range(length)]


def thread_action_loss(g: Graph, logit_ids: list[int], gt_future_actions,
                       eos: int) -> list[int]:
    """Per-position cross entropy of one head's per-step logits vs ground truth.

    ``logit_ids`` is a thread's ``action_logit_ids`` or ``upper_logit_ids``;
    an empty list (the upper head of a single-level model) gives no terms.
    The loss covers max(len(logit_ids), len(gt) + 1) positions: the
    ground-truth tail is padded with EOS, and positions past the prediction's
    last step reuse its final (EOS-emitting) logits so early termination is
    penalized wherever the ground truth continues.  Returned unaggregated so
    the choice table can mask individual entries.
    """
    if not logit_ids:
        return []
    n_positions = max(len(logit_ids), len(gt_future_actions) + 1)
    targets = _padded_targets(gt_future_actions, n_positions, eos)
    last = len(logit_ids) - 1
    return [nn.cross_entropy(g, logit_ids[min(m, last)], targets[m])
            for m in range(n_positions)]
