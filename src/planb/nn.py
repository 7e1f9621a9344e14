"""Neural building blocks on top of the autodiff tape.

Parameters live outside any graph as plain float64 arrays grouped in small
dataclasses.  Per sample, ``bind`` inserts them into a fresh ``Graph`` as
trainable leaves (returning a structurally identical object whose array slots
hold node ids), the model runs, and ``grads_by_name`` maps gradients back to
the named arrays for the optimizer.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, DimensionError, Graph


@dataclass
class GruParams:
    """Standard GRU cell: update gate z, reset gate r, candidate state."""

    w_z: np.ndarray  # (hidden, input)
    u_z: np.ndarray  # (hidden, hidden)
    b_z: np.ndarray  # (hidden,)
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w_z.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_z.shape[0]


@dataclass
class LinearParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class EmbeddingTable:
    rows: np.ndarray  # (num_entries, embed_dim)

    @property
    def num_entries(self) -> int:
        return self.rows.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.rows.shape[1]


# -- initialization ----------------------------------------------------------


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_gru(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> GruParams:
    def w():
        return xavier_uniform(rng, (hidden_dim, input_dim), input_dim, hidden_dim)

    def u():
        return xavier_uniform(rng, (hidden_dim, hidden_dim), hidden_dim, hidden_dim)

    return GruParams(
        w_z=w(), u_z=u(), b_z=np.zeros(hidden_dim),
        w_r=w(), u_r=u(), b_r=np.zeros(hidden_dim),
        w_h=w(), u_h=u(), b_h=np.zeros(hidden_dim),
    )


def init_linear(rng: np.random.Generator, in_dim: int, out_dim: int) -> LinearParams:
    return LinearParams(
        weight=xavier_uniform(rng, (out_dim, in_dim), in_dim, out_dim),
        bias=np.zeros(out_dim),
    )


def init_embedding(rng: np.random.Generator, num_entries: int, embed_dim: int) -> EmbeddingTable:
    return EmbeddingTable(
        rows=xavier_uniform(rng, (num_entries, embed_dim), num_entries, embed_dim)
    )


# -- parameter trees ---------------------------------------------------------


def _walk(obj, prefix: str, out: dict):
    if isinstance(obj, np.ndarray):
        out[prefix] = obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _walk(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name, out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _walk(item, f"{prefix}.{i}" if prefix else str(i), out)
    # scalars/strings are structural metadata, not parameters


def flatten(params, prefix: str = "") -> dict[str, np.ndarray]:
    """Named view of every array in a parameter tree (references, not copies)."""
    out: dict[str, np.ndarray] = {}
    _walk(params, prefix, out)
    return out


def bind(graph: Graph, params):
    """Insert every array of a parameter tree into the graph as a trainable leaf.

    Returns a structurally identical object with node ids in the array slots.
    """
    if isinstance(params, np.ndarray):
        return graph.param(params)
    if dataclasses.is_dataclass(params):
        kwargs = {f.name: bind(graph, getattr(params, f.name)) for f in dataclasses.fields(params)}
        return type(params)(**kwargs)
    if isinstance(params, (list, tuple)):
        return type(params)(bind(graph, item) for item in params)
    return params


def structure_like(template, values):
    """Rebuild a parameter tree from values listed in ``flatten`` order.

    Used to re-bind a flat list of graph node ids (or arrays) into the same
    dataclass structure as ``template``.
    """
    it = iter(values)

    def rec(obj):
        if isinstance(obj, np.ndarray):
            return next(it)
        if dataclasses.is_dataclass(obj):
            return type(obj)(**{f.name: rec(getattr(obj, f.name))
                                for f in dataclasses.fields(obj)})
        if isinstance(obj, (list, tuple)):
            return type(obj)(rec(item) for item in obj)
        return obj

    out = rec(template)
    leftover = sum(1 for _ in it)
    if leftover:
        raise ContractError(f"structure_like: {leftover} unused values")
    return out


def grads_by_name(graph: Graph, params, bound, prefix: str = "") -> dict[str, np.ndarray]:
    """Gradients from a bound tree, keyed like ``flatten(params)``."""
    names = flatten(params, prefix)
    ids: dict[str, int] = {}
    _walk_aligned(params, bound, prefix, ids)
    return {name: graph.grad(ids[name]) for name in names}


def _walk_aligned(params, bound, prefix: str, out: dict):
    if isinstance(params, np.ndarray):
        out[prefix] = bound
    elif dataclasses.is_dataclass(params):
        for f in dataclasses.fields(params):
            _walk_aligned(
                getattr(params, f.name), getattr(bound, f.name),
                f"{prefix}.{f.name}" if prefix else f.name, out,
            )
    elif isinstance(params, (list, tuple)):
        for i, item in enumerate(params):
            _walk_aligned(item, bound[i], f"{prefix}.{i}" if prefix else str(i), out)


# -- forward building blocks ---------------------------------------------------


def gru_step(g: Graph, p: GruParams, x: int, h: int) -> int:
    """One GRU step: h' = (1-z) * h + z * candidate, as one tape node."""
    return g.gru(x, h, p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r, p.w_h, p.u_h, p.b_h)


def linear(g: Graph, p: LinearParams, x: int) -> int:
    return g.affine(p.weight, x, p.bias)


def embed_row(g: Graph, table: EmbeddingTable, index: int) -> int:
    """Embedding lookup; the discrete index carries no gradient, the row does."""
    return g.gather_row(table.rows, index)


def cross_entropy(g: Graph, logits: int, target_class: int) -> int:
    """-log softmax(logits)[target], computed via log-sum-exp for stability."""
    return g.cross_entropy(logits, target_class)


def time_loss(g: Graph, predicted_rel: list[int], ground_truth_rel: np.ndarray) -> int:
    """Mean squared error between predicted and true relative durations.

    ``predicted_rel`` holds one softmax-normalized duration vector node per
    thread; each is compared against the ground truth over the shorter of the
    two lengths, and the squared errors are averaged over all threads and
    aligned positions.
    """
    gt = np.asarray(ground_truth_rel, dtype=np.float64)
    preds = []
    targets = []
    for rel in predicted_rel:
        length = g.value(rel).shape[0]
        n = min(length, gt.shape[0])
        if n == 0:
            continue
        preds.append(rel if length == n else g.slice(rel, 0, n))
        targets.append(gt[:n])
    if not preds:
        warnings.warn("time loss: empty alignment, returning 0", stacklevel=2)
        return g.leaf(np.asarray(0.0))
    target = np.concatenate(targets)
    diff = g.sub(g.concat(preds), g.leaf(target))
    return g.scale(g.sum(g.square(diff)), 1.0 / target.shape[0])


# -- optimizer ----------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_update(state: AdamState, params: dict[str, np.ndarray],
                grads: dict[str, np.ndarray], lr: float) -> dict[str, np.ndarray]:
    """One Adam step with bias correction; updates the arrays in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        grad = grads[name]
        if p.shape != grad.shape:
            raise DimensionError(f"adam: grad shape {grad.shape} != param shape {p.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params


# -- checkpoint format ---------------------------------------------------------

CHECKPOINT_MAGIC = b"PLNB"
CHECKPOINT_VERSION = 1


def checkpoint_bytes(named: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays: magic, version, count, then per-array records."""
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(named))]
    for name, arr in named.items():
        encoded = name.encode("utf-8")
        a = np.asarray(arr, dtype=np.float64)
        out.append(struct.pack("<I", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<I", a.ndim))
        out.append(struct.pack(f"<{a.ndim}Q", *a.shape) if a.ndim else b"")
        out.append(a.astype("<f8").tobytes())
    return b"".join(out)


def save_checkpoint(path, named: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(named))


def _unpack(blob: bytes, fmt: str, offset: int, what: str) -> tuple[tuple, int]:
    """Read ``fmt`` at ``offset``; a read past the end is a ContractError."""
    size = struct.calcsize(fmt)
    if offset + size > len(blob):
        raise ContractError(f"truncated checkpoint: {what} needs {size} bytes at offset "
                            f"{offset}, file has {len(blob)}")
    return struct.unpack_from(fmt, blob, offset), offset + size


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ContractError(f"not a checkpoint file: bad magic {blob[:4]!r}")
    (version, count), offset = _unpack(blob, "<II", 4, "header")
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    named: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,), offset = _unpack(blob, "<I", offset, "name length")
        (raw_name,), offset = _unpack(blob, f"<{name_len}s", offset, "array name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContractError(f"checkpoint array name is not UTF-8: {raw_name!r}") from exc
        (rank,), offset = _unpack(blob, "<I", offset, f"rank of {name}")
        shape, offset = _unpack(blob, f"<{rank}Q", offset, f"shape of {name}")
        size = math.prod(shape)
        if 8 * size > len(blob) - offset:
            raise ContractError(f"truncated checkpoint: {name} {shape} needs {8 * size} "
                                f"bytes at offset {offset}, file has {len(blob)}")
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += 8 * size
        named[name] = arr.astype(np.float64)
    if offset != len(blob):
        raise ContractError(f"checkpoint has {len(blob) - offset} trailing bytes")
    return named
