import numpy as np
import pytest

from planb.autodiff import ContractError, DimensionError, Graph, finite_difference_check
from planb import crnn, nn


def tiny_model(num_classes=2, feature_dim=3, hidden=4, embed=2, k=1, seed=0, **kw):
    return crnn.init_crnn(num_classes, feature_dim, hidden, hidden, embed, k, seed, **kw)


def test_init_shapes_and_determinism():
    a = tiny_model(seed=42)
    b = tiny_model(seed=42)
    assert a.num_outputs == 3
    assert a.encoder_classifier_lower.out_dim == 3
    assert a.action_embed_lower.num_entries == 3
    assert a.decoders[0].head_lower.out_dim == 4  # logits + duration unit
    for name, arr in nn.flatten(a).items():
        assert np.array_equal(arr, nn.flatten(b)[name])


def test_shared_decoder_init_makes_identical_threads():
    m = tiny_model(k=3, shared_decoder_init=True)
    base = nn.flatten(m.decoders[0])
    for dec in m.decoders[1:]:
        for name, arr in nn.flatten(dec).items():
            assert np.array_equal(arr, base[name])
    m2 = tiny_model(k=3, shared_decoder_init=False)
    assert not np.array_equal(m2.decoders[0].lower_gru.w_z, m2.decoders[1].lower_gru.w_z)


def test_encode_gating_counts_changes():
    m = tiny_model()
    g = Graph()
    bound = nn.bind(g, m)
    feats = np.zeros((3, 3))
    enc = crnn.encode(g, bound, feats, forced_lower_actions=[0, 0, 1])
    assert enc.upper_step_count == 2
    assert enc.upper_step_frames == [0, 2]


def test_encode_constant_trace_single_upper_step():
    m = tiny_model()
    g = Graph()
    enc = crnn.encode(g, nn.bind(g, m), np.zeros((5, 3)), forced_lower_actions=[1] * 5)
    assert enc.upper_step_count == 1


def test_encode_gating_invariant_on_natural_trace():
    rng = np.random.default_rng(0)
    for trial in range(5):
        m = tiny_model(seed=trial)
        g = Graph()
        enc = crnn.encode(g, nn.bind(g, m), rng.normal(size=(8, 3)))
        changes = sum(1 for a, b in zip(enc.lower_actions, enc.lower_actions[1:]) if a != b)
        assert enc.upper_step_count == 1 + changes


def test_encode_logits_shape_and_empty_error():
    m = tiny_model()
    g = Graph()
    enc = crnn.encode(g, nn.bind(g, m), np.random.default_rng(1).normal(size=(7, 3)))
    assert enc.per_frame_logits.shape == (7, 3)
    with pytest.raises(ContractError):
        crnn.encode(Graph(), nn.bind(Graph(), m), np.zeros((0, 3)))


def _synthetic_encoder_output(g, logit_rows):
    ids = [g.leaf(row) for row in logit_rows]
    return crnn.EncoderOutput(graph=g, h_lower=ids[0], h_upper=None,
                              frame_logit_ids=ids, lower_actions=[0] * len(ids),
                              upper_logit_ids=[], upper_step_frames=[])


def test_recognition_loss_uniform_logits():
    g = Graph()
    enc = _synthetic_encoder_output(g, [np.zeros(4), np.zeros(4)])
    loss = crnn.encoder_recognition_loss(g, enc, [0, 3])
    assert np.isclose(float(g.value(loss)), np.log(4.0))


def test_recognition_loss_perfect_logits_near_zero():
    g = Graph()
    enc = _synthetic_encoder_output(g, [np.array([200.0, 0.0, 0.0])])
    loss = crnn.encoder_recognition_loss(g, enc, [0])
    assert 0.0 <= float(g.value(loss)) < 1e-9


def test_recognition_loss_nonnegative_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = Graph()
        rows = rng.normal(size=(4, 3)) * 5
        enc = _synthetic_encoder_output(g, list(rows))
        loss = crnn.encoder_recognition_loss(g, enc, rng.integers(0, 3, size=4))
        assert float(g.value(loss)) >= -1e-12


def test_recognition_loss_length_mismatch():
    g = Graph()
    enc = _synthetic_encoder_output(g, [np.zeros(3)])
    with pytest.raises(DimensionError):
        crnn.encoder_recognition_loss(g, enc, [0, 1])


def test_decode_deterministic_and_capped():
    m = tiny_model(seed=3)
    feats = np.random.default_rng(3).normal(size=(4, 3))

    def run(max_len):
        g = Graph()
        bound = nn.bind(g, m)
        enc = crnn.encode(g, bound, feats)
        t = crnn.decode_thread(g, bound, bound.decoders[0], enc.h_lower, enc.h_upper, max_len)
        return t

    t1, t2 = run(6), run(6)
    assert t1.actions == t2.actions
    assert np.array_equal(t1.action_logits, t2.action_logits)
    t_short = run(1)
    assert len(t_short.actions) <= 1
    with pytest.raises(ContractError):
        run(0)


def test_decode_rel_durations_sum_to_one():
    for seed in range(5):
        m = tiny_model(seed=seed)
        g = Graph()
        bound = nn.bind(g, m)
        enc = crnn.encode(g, bound, np.random.default_rng(seed).normal(size=(3, 3)))
        t = crnn.decode_thread(g, bound, bound.decoders[0], enc.h_lower, enc.h_upper, 5)
        if t.actions:
            assert np.isclose(t.rel_durations.sum(), 1.0, atol=1e-9)
            assert len(t.rel_durations) == len(t.actions)


def test_decode_training_mode_runs_exact_steps():
    m = tiny_model(seed=4)
    g = Graph()
    bound = nn.bind(g, m)
    enc = crnn.encode(g, bound, np.zeros((2, 3)))
    t = crnn.decode_thread(g, bound, bound.decoders[0], enc.h_lower, enc.h_upper,
                           max_len=10, num_steps=4, gt_actions=[0, 1, 0],
                           teacher_force=[True, False, True, False])
    assert len(t.action_logit_ids) == 4
    assert len(t.raw_duration_ids) == 3
    assert np.isclose(t.rel_durations.sum(), 1.0)


def _thread_with_logits(g, rows, n_action_steps):
    ids = [g.leaf(r) for r in rows]
    raw = [g.leaf(np.asarray(0.0))] * n_action_steps
    return crnn.DecodedThread(graph=g, action_logit_ids=ids,
                              actions=[int(np.argmax(r)) for r in rows[:n_action_steps]],
                              raw_duration_ids=raw, rel_durations_id=None,
                              upper_logit_ids=[], terminated=True)


def test_thread_action_loss_uniform_logits():
    g = Graph()
    rows = [np.zeros(4)] * 3  # 2 actions + EOS step, C+1 = 4
    t = _thread_with_logits(g, rows, 2)
    losses = crnn.thread_action_loss(g, t.action_logit_ids, [0, 1], eos=3)
    assert len(losses) == max(2 + 1, 2 + 1)
    for lid in losses:
        assert np.isclose(float(g.value(lid)), np.log(4.0))


def test_thread_action_loss_exact_match_near_zero():
    g = Graph()
    big = 200.0
    rows = [np.array([big, 0, 0, 0]), np.array([0, big, 0, 0]), np.array([0, 0, 0, big])]
    t = _thread_with_logits(g, rows, 2)
    losses = crnn.thread_action_loss(g, t.action_logit_ids, [0, 1], eos=3)
    for lid in losses:
        assert float(g.value(lid)) < 1e-9


def test_thread_action_loss_pads_short_prediction():
    g = Graph()
    rows = [np.array([5.0, 0, 0, 0]), np.array([0, 0, 0, 5.0])]  # action then EOS
    t = _thread_with_logits(g, rows, 1)
    losses = crnn.thread_action_loss(g, t.action_logit_ids, [0, 1, 2], eos=3)
    assert len(losses) == 4  # max(len(pred) + 1, len(gt) + 1)
    # positions past the prediction reuse the final EOS logits and stay penalized
    assert float(g.value(losses[1])) > 1.0
    assert float(g.value(losses[2])) > 1.0


def test_encoder_decoder_gradients_pass_fd():
    m = tiny_model(num_classes=2, feature_dim=2, hidden=3, embed=2, k=1, seed=5)
    feats = np.random.default_rng(5).normal(size=(2, 2))
    arrays = list(nn.flatten(m).values())

    def build(g, ids):
        bound = nn.structure_like(m, ids)
        enc = crnn.encode(g, bound, feats)
        rec = crnn.encoder_recognition_loss(g, enc, [0, 1])
        up = crnn.encoder_upper_recognition_loss(g, enc, [0, 1])
        t = crnn.decode_thread(g, bound, bound.decoders[0], enc.h_lower, enc.h_upper,
                               max_len=5, num_steps=3, gt_actions=[0, 1])
        act = g.mean(g.concat(
            crnn.thread_action_loss(g, t.action_logit_ids, [0, 1], bound.eos)))
        tl = nn.time_loss(g, [t.rel_durations_id], np.array([0.4, 0.6]))
        return g.add(g.add(rec, up), g.add(act, tl))

    assert finite_difference_check(build, arrays) <= 1e-4
