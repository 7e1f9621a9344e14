import numpy as np
import pytest

from planb.autodiff import ContractError, Graph, finite_difference_check
from planb import nn


def zero_gru(input_dim, hidden_dim):
    z = lambda *s: np.zeros(s)
    return nn.GruParams(
        w_z=z(hidden_dim, input_dim), u_z=z(hidden_dim, hidden_dim), b_z=z(hidden_dim),
        w_r=z(hidden_dim, input_dim), u_r=z(hidden_dim, hidden_dim), b_r=z(hidden_dim),
        w_h=z(hidden_dim, input_dim), u_h=z(hidden_dim, hidden_dim), b_h=z(hidden_dim),
    )


def test_gru_step_zero_everything():
    g = Graph()
    p = nn.bind(g, zero_gru(3, 4))
    h = nn.gru_step(g, p, g.leaf(np.zeros(3)), g.leaf(np.zeros(4)))
    assert np.allclose(g.value(h), 0.0)


def test_gru_step_zero_weights_halves_state():
    g = Graph()
    p = nn.bind(g, zero_gru(3, 4))
    v = np.array([0.5, -0.25, 1.0, 0.0])
    h = nn.gru_step(g, p, g.leaf(np.zeros(3)), g.leaf(v))
    assert np.allclose(g.value(h), 0.5 * v)


def test_gru_step_gradient_check():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        p = nn.init_gru(rng, 3, 4)
        x = rng.normal(size=3)
        h0 = rng.normal(size=4) * 0.5
        arrays = list(nn.flatten(p).values())

        def build(g, ids, x=x, h0=h0):
            names = list(nn.flatten(p).keys())
            bp = nn.GruParams(**dict(zip([n for n in names], ids)))
            return g.mean(g.square(nn.gru_step(g, bp, g.leaf(x), g.leaf(h0))))

        worst = max(worst, finite_difference_check(build, arrays))
    assert worst <= 1e-4


def test_gru_bounded_state_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = nn.init_gru(rng, 2, 5)
        g = Graph()
        bp = nn.bind(g, p)
        h = g.leaf(rng.uniform(-1, 1, size=5))
        h2 = nn.gru_step(g, bp, g.leaf(rng.normal(size=2) * 3), h)
        assert np.max(np.abs(g.value(h2))) <= 1.0 + 1e-12


def test_cross_entropy_uniform_two_classes():
    g = Graph()
    ce = nn.cross_entropy(g, g.leaf([0.0, 0.0]), 0)
    assert np.isclose(float(g.value(ce)), np.log(2.0))


def test_cross_entropy_hand_softmax():
    g = Graph()
    ce = nn.cross_entropy(g, g.leaf([np.log(9.0), 0.0]), 0)
    assert np.isclose(float(g.value(ce)), -np.log(0.9), atol=1e-12)


def test_cross_entropy_confident_is_near_zero():
    g = Graph()
    ce = nn.cross_entropy(g, g.leaf([500.0, 0.0, 0.0]), 0)
    assert 0.0 <= float(g.value(ce)) < 1e-12


def test_cross_entropy_class_out_of_range():
    g = Graph()
    with pytest.raises(ContractError):
        nn.cross_entropy(g, g.leaf([0.0, 1.0]), 2)


def test_cross_entropy_nonnegative_and_extreme_logits():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = Graph()
        logits = rng.normal(size=4) * rng.choice([1.0, 100.0, 1000.0])
        ce = nn.cross_entropy(g, g.leaf(logits), int(rng.integers(4)))
        v = float(g.value(ce))
        assert np.isfinite(v) and v >= -1e-12


def test_time_loss_exact_match_is_zero():
    g = Graph()
    rel = g.softmax(g.leaf([0.0, 0.0]))
    loss = nn.time_loss(g, [rel], np.array([0.5, 0.5]))
    assert np.isclose(float(g.value(loss)), 0.0)


def test_time_loss_hand_value():
    g = Graph()
    rel = g.leaf([0.5, 0.5])
    loss = nn.time_loss(g, [rel], np.array([0.25, 0.75]))
    assert np.isclose(float(g.value(loss)), 0.0625)


def test_time_loss_single_segment():
    g = Graph()
    rel = g.softmax(g.leaf([3.7]))  # softmax of a length-1 vector is (1.0,)
    loss = nn.time_loss(g, [rel], np.array([1.0]))
    assert np.isclose(float(g.value(loss)), 0.0)


def test_time_loss_empty_alignment_warns_and_returns_zero():
    g = Graph()
    with pytest.warns(UserWarning):
        loss = nn.time_loss(g, [], np.array([1.0]))
    assert float(g.value(loss)) == 0.0


def test_time_loss_length_mismatch_uses_min():
    g = Graph()
    rel = g.leaf([0.5, 0.3, 0.2])
    loss = nn.time_loss(g, [rel], np.array([0.5, 0.5]))
    assert np.isclose(float(g.value(loss)), (0.0 + 0.04) / 2)


def test_adam_zero_gradient_is_identity():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    before = p["w"].copy()
    state = nn.AdamState()
    nn.adam_update(state, p, {"w": np.zeros(3)}, lr=0.1)
    assert np.array_equal(p["w"], before)


def test_adam_first_step_is_signed_lr():
    p = {"w": np.array([1.0, 1.0])}
    state = nn.AdamState()
    nn.adam_update(state, p, {"w": np.array([0.5, -3.0])}, lr=0.01)
    assert np.allclose(p["w"] - 1.0, [-0.01, 0.01], atol=1e-6)


def test_adam_constant_gradient_step_approaches_lr():
    p = {"w": np.array([0.0])}
    state = nn.AdamState()
    grad = {"w": np.array([0.37])}
    prev = p["w"].copy()
    for _ in range(500):
        prev = p["w"].copy()
        nn.adam_update(state, p, grad, lr=0.001)
    assert np.isclose(abs((p["w"] - prev).item()), 0.001, rtol=1e-4)


def test_init_deterministic_per_seed():
    a = nn.init_gru(np.random.default_rng(7), 3, 4)
    b = nn.init_gru(np.random.default_rng(7), 3, 4)
    c = nn.init_gru(np.random.default_rng(8), 3, 4)
    for name, arr in nn.flatten(a).items():
        assert np.array_equal(arr, nn.flatten(b)[name])
    assert not np.array_equal(a.w_z, c.w_z)


def test_init_bounds_biases_and_mean():
    rng = np.random.default_rng(3)
    fan_in, fan_out = 50, 40
    a = np.sqrt(6.0 / (fan_in + fan_out))
    draws = nn.xavier_uniform(rng, (100, 100), fan_in, fan_out)
    assert np.max(np.abs(draws)) <= a
    assert abs(draws.mean()) < 0.01 * a
    lin = nn.init_linear(rng, 5, 3)
    assert np.array_equal(lin.bias, np.zeros(3))


def test_flatten_bind_grads_round_trip():
    rng = np.random.default_rng(4)
    p = nn.init_linear(rng, 3, 2)
    g = Graph()
    bp = nn.bind(g, p)
    out = nn.linear(g, bp, g.leaf(np.array([1.0, 2.0, 3.0])))
    g.backward(g.sum(out))
    grads = nn.grads_by_name(g, p, bp)
    assert set(grads) == {"weight", "bias"}
    assert np.array_equal(grads["bias"], np.ones(2))
    assert np.array_equal(grads["weight"], np.tile([1.0, 2.0, 3.0], (2, 1)))


def test_checkpoint_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    named = {
        "encoder.gru.w_z": rng.normal(size=(4, 3)),
        "decoders.0.head.bias": rng.normal(size=7),
        "meta.num_classes": np.asarray(3.0),
    }
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, named)
    loaded = nn.load_checkpoint(path)
    assert list(loaded) == list(named)
    for name in named:
        assert named[name].shape == loaded[name].shape
        assert np.array_equal(named[name], loaded[name])
    # re-serialization is byte-identical
    assert nn.checkpoint_bytes(loaded) == nn.checkpoint_bytes(named)


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    nn.save_checkpoint(path, {"w": np.zeros((2, 2))})
    blob = path.read_bytes()
    assert blob[:4] == b"PLNB"
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 1  # count
    assert int.from_bytes(blob[12:16], "little") == 1  # name length
    assert blob[16:17] == b"w"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractError):
        nn.load_checkpoint(path)


def test_checkpoint_truncated_at_every_offset_is_a_contract_error(tmp_path):
    named = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2), "meta.n": np.asarray(4.0)}
    blob = nn.checkpoint_bytes(named)
    path = tmp_path / "cut.ckpt"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ContractError):
            nn.load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ContractError, match="trailing"):
        nn.load_checkpoint(path)


def test_checkpoint_huge_rank_or_shape_is_a_contract_error(tmp_path):
    good = nn.checkpoint_bytes({"w": np.zeros((2, 2))})
    path = tmp_path / "huge.ckpt"
    # rank of "w" at bytes 17-21, its first dimension at 21-29
    for start, stop, value in ((17, 21, 2**32 - 1), (21, 29, 2**62)):
        blob = bytearray(good)
        blob[start:stop] = value.to_bytes(stop - start, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match="truncated"):
            nn.load_checkpoint(path)


def test_checkpoint_empty_array_round_trips(tmp_path):
    path = tmp_path / "empty.ckpt"
    nn.save_checkpoint(path, {"e": np.zeros((0, 3)), "s": np.asarray(1.5)})
    loaded = nn.load_checkpoint(path)
    assert loaded["e"].shape == (0, 3) and float(loaded["s"]) == 1.5
