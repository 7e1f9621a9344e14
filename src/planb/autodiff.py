"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Graph`` is a flat, append-only tape: node ids are ints, every node's
inputs have smaller ids, and insertion order is a valid topological order.
Graphs are define-by-run and rebuilt per sample; a graph must stay confined
to a single thread of execution.

Tensors are plain ``numpy.ndarray`` values (float64, row-major).  The tape
supports ``recompute()``, which re-runs the forward pass over the existing
topology after leaf values change -- discrete choices baked into the graph
(gather indices, concat layout) are frozen, which is exactly what the
finite-difference checker needs.

Besides elementwise and linear-algebra primitives, the tape has fused ops --
a GRU step, an affine map, a cross-entropy term, a slice and a row stack --
that each take one node and have a hand-derived backward pass, because the
cost of a tape is per node, not per FLOP.
"""

from __future__ import annotations

import os

import numpy as np


class GraphError(Exception):
    """Base class for tape construction/evaluation errors."""


class DimensionError(GraphError):
    """Operand shapes are incompatible for the requested op."""


class DomainError(GraphError):
    """Input outside the mathematical domain of the op (log/sqrt <= 0, non-finite values)."""


class ContractError(GraphError):
    """An operation was called outside its contract (e.g. backward on a non-scalar)."""


# Opt-in per-node finite check; the trainer always checks losses/grads per step.
_CHECK_EVERY_NODE = os.environ.get("PLANB_CHECK_FINITE", "") == "1"


def as_tensor(x) -> np.ndarray:
    """Coerce to a float64 C-order array and reject NaN/Inf."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    if not np.isfinite(arr).all():
        raise DomainError("tensor contains NaN or Inf")
    return arr


class Node:
    __slots__ = ("kind", "inputs", "value", "grad", "aux", "requires_grad")

    def __init__(self, kind, inputs, value, aux, requires_grad):
        self.kind = kind
        self.inputs = inputs
        self.value = value
        self.grad = None
        self.aux = aux
        self.requires_grad = requires_grad


def _fw_add(vals, aux):
    return vals[0] + vals[1]


def _fw_sub(vals, aux):
    return vals[0] - vals[1]


def _fw_mul(vals, aux):
    return vals[0] * vals[1]


def _fw_matmul(vals, aux):
    return vals[0] @ vals[1]


def _sigmoid(x):
    # tanh form: no exp overflow for large |x| and no sign branch
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _fw_sigmoid(vals, aux):
    return _sigmoid(vals[0])


def _fw_tanh(vals, aux):
    return np.tanh(vals[0])


def _fw_exp(vals, aux):
    return np.exp(vals[0])


def _fw_log(vals, aux):
    if np.any(vals[0] <= 0.0):
        raise DomainError("log of non-positive input")
    return np.log(vals[0])


def _fw_sqrt(vals, aux):
    if np.any(vals[0] <= 0.0):
        raise DomainError("sqrt of non-positive input")
    return np.sqrt(vals[0])


def _fw_square(vals, aux):
    return vals[0] * vals[0]


def _fw_softmax(vals, aux):
    x = vals[0]
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _fw_sum(vals, aux):
    return np.asarray(vals[0].sum())


def _fw_mean(vals, aux):
    return np.asarray(vals[0].mean())


def _fw_concat(vals, aux):
    return np.concatenate([v if v.ndim else v.reshape(1) for v in vals], axis=aux["axis"])


def _fw_take(vals, aux):
    # gather_row (an int key) and slice (a slice key): rows of a matrix or
    # entries of a vector, copied
    return np.array(vals[0][aux["key"]])


def _fw_scale(vals, aux):
    return vals[0] * aux["c"]


def _fw_pairwise_l2(vals, aux):
    a, b = np.atleast_2d(vals[0]), np.atleast_2d(vals[1])
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _fw_gru(vals, aux):
    x, h, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = vals
    z = _sigmoid(w_z @ x + u_z @ h + b_z)
    r = _sigmoid(w_r @ x + u_r @ h + b_r)
    rh = r * h
    cand = np.tanh(w_h @ x + u_h @ rh + b_h)
    aux["z"], aux["r"], aux["rh"], aux["cand"] = z, r, rh, cand
    return h + z * (cand - h)


def _fw_affine(vals, aux):
    return vals[0] @ vals[1] + vals[2]


def _fw_cross_entropy(vals, aux):
    v = vals[0]
    top = v.max()
    # (top - v[t]) >= 0 and the log term >= 0, so the loss is never negative
    return np.asarray((top - v[aux["target"]]) + np.log(np.exp(v - top).sum()))


def _fw_stack(vals, aux):
    return np.stack(vals)


_FORWARD = {
    "add": _fw_add,
    "sub": _fw_sub,
    "mul": _fw_mul,
    "matmul": _fw_matmul,
    "sigmoid": _fw_sigmoid,
    "tanh": _fw_tanh,
    "exp": _fw_exp,
    "log": _fw_log,
    "sqrt": _fw_sqrt,
    "square": _fw_square,
    "softmax": _fw_softmax,
    "sum": _fw_sum,
    "mean": _fw_mean,
    "concat": _fw_concat,
    "gather_row": _fw_take,
    "scale": _fw_scale,
    "pairwise_l2": _fw_pairwise_l2,
    "gru": _fw_gru,
    "affine": _fw_affine,
    "cross_entropy": _fw_cross_entropy,
    "slice": _fw_take,
    "stack": _fw_stack,
}

# Distance gradients divide by the distance itself; floor the denominator so
# coincident rows (exactly the collapse case the similarity penalty targets)
# get a zero subgradient instead of 0/0.
_L2_FLOOR = 1e-12


class Outer:
    """The gradient ``np.outer(left, right)`` of a weight matrix, not yet formed.

    A weight shared by many steps gets one such term per step;
    ``Graph.backward`` sums all of a leaf's terms in one matrix product
    instead of forming and adding one outer product per step.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _bw_add(node, vals, g):
    return (g, g)


def _bw_sub(node, vals, g):
    return (g, -g)


def _bw_mul(node, vals, g):
    return (g * vals[1], g * vals[0])


def _bw_matmul(node, vals, g):
    a, b = vals
    if b.ndim == 1:
        return (np.outer(g, b), a.T @ g)
    return (g @ b.T, a.T @ g)


def _bw_sigmoid(node, vals, g):
    s = node.value
    return (g * s * (1.0 - s),)


def _bw_tanh(node, vals, g):
    t = node.value
    return (g * (1.0 - t * t),)


def _bw_exp(node, vals, g):
    return (g * node.value,)


def _bw_log(node, vals, g):
    return (g / vals[0],)


def _bw_sqrt(node, vals, g):
    return (g / (2.0 * node.value),)


def _bw_square(node, vals, g):
    return (2.0 * g * vals[0],)


def _bw_softmax(node, vals, g):
    s = node.value
    dot = (g * s).sum(axis=-1, keepdims=True)
    return ((g - dot) * s,)


def _bw_sum(node, vals, g):
    return (np.broadcast_to(g, vals[0].shape).copy(),)


def _bw_mean(node, vals, g):
    n = vals[0].size
    return (np.broadcast_to(g / n, vals[0].shape).copy(),)


def _bw_concat(node, vals, g):
    # concat only joins along axis 0; a scalar input takes one entry
    grads = []
    offset = 0
    for v in vals:
        size = v.shape[0] if v.ndim else 1
        grads.append(g[offset:offset + size].reshape(v.shape))
        offset += size
    return tuple(grads)


def _bw_take(node, vals, g):
    out = np.zeros_like(vals[0])
    out[node.aux["key"]] = g
    return (out,)


def _bw_scale(node, vals, g):
    return (g * node.aux["c"],)


def _bw_pairwise_l2(node, vals, g):
    a, b = np.atleast_2d(vals[0]), np.atleast_2d(vals[1])
    diff = a[:, None, :] - b[None, :, :]
    denom = np.maximum(node.value, _L2_FLOOR)
    scaled = (g / denom)[:, :, None] * diff
    return (scaled.sum(axis=1).reshape(vals[0].shape),
            -scaled.sum(axis=0).reshape(vals[1].shape))


def _bw_gru(node, vals, g):
    x, h, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = vals
    z, r, rh, cand = node.aux["z"], node.aux["r"], node.aux["rh"], node.aux["cand"]
    # gradients at the pre-activations of the update gate, reset gate and candidate
    d_c = g * z * (1.0 - cand * cand)
    d_z = g * (cand - h) * z * (1.0 - z)
    d_rh = d_c @ u_h
    d_r = d_rh * h * r * (1.0 - r)
    d_x = d_z @ w_z + d_r @ w_r + d_c @ w_h
    d_h = g * (1.0 - z) + d_rh * r + d_z @ u_z + d_r @ u_r
    return (d_x, d_h,
            Outer(d_z, x), Outer(d_z, h), d_z,
            Outer(d_r, x), Outer(d_r, h), d_r,
            Outer(d_c, x), Outer(d_c, rh), d_c)


def _bw_affine(node, vals, g):
    w, x, _ = vals
    return (Outer(g, x), g @ w, g)


def _bw_cross_entropy(node, vals, g):
    v = vals[0]
    e = np.exp(v - v.max())
    grad = e / e.sum()
    grad[node.aux["target"]] -= 1.0
    return (grad * g,)


def _bw_stack(node, vals, g):
    return tuple(g)


_BACKWARD = {
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "matmul": _bw_matmul,
    "sigmoid": _bw_sigmoid,
    "tanh": _bw_tanh,
    "exp": _bw_exp,
    "log": _bw_log,
    "sqrt": _bw_sqrt,
    "square": _bw_square,
    "softmax": _bw_softmax,
    "sum": _bw_sum,
    "mean": _bw_mean,
    "concat": _bw_concat,
    "gather_row": _bw_take,
    "scale": _bw_scale,
    "pairwise_l2": _bw_pairwise_l2,
    "gru": _bw_gru,
    "affine": _bw_affine,
    "cross_entropy": _bw_cross_entropy,
    "slice": _bw_take,
    "stack": _bw_stack,
}


def _require_same_shape(a: np.ndarray, b: np.ndarray, op: str):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


class Graph:
    """Append-only tape of ops over float64 arrays."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self):
        return len(self.nodes)

    # -- node access ------------------------------------------------------

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def grad(self, nid: int) -> np.ndarray:
        g = self.nodes[nid].grad
        if g is None:
            raise ContractError("gradient not computed for this node (run backward first)")
        return g

    def set_value(self, nid: int, value) -> None:
        """Replace a leaf/param value in place (used with recompute)."""
        node = self.nodes[nid]
        if node.kind != "leaf":
            raise ContractError("set_value only applies to leaf nodes")
        arr = as_tensor(value)
        if arr.shape != node.value.shape:
            raise DimensionError(f"set_value: shape {arr.shape} != {node.value.shape}")
        node.value = arr

    # -- construction -----------------------------------------------------

    def leaf(self, value) -> int:
        """Constant input; no gradient is tracked."""
        node = Node("leaf", (), as_tensor(value).copy(), None, False)
        self.nodes.append(node)
        return len(self.nodes) - 1

    def param(self, value) -> int:
        """Trainable input; backward() will fill its gradient."""
        node = Node("leaf", (), as_tensor(value).copy(), None, True)
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _push(self, kind: str, input_ids: tuple, aux=None) -> int:
        nodes = self.nodes
        vals = [nodes[i].value for i in input_ids]
        value = _FORWARD[kind](vals, aux)
        if _CHECK_EVERY_NODE and not np.all(np.isfinite(value)):
            raise DomainError(f"{kind}: produced non-finite values")
        requires = any(nodes[i].requires_grad for i in input_ids)
        nodes.append(Node(kind, input_ids, value, aux, requires))
        return len(nodes) - 1

    # -- ops ----------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        _require_same_shape(self.value(a), self.value(b), "add")
        return self._push("add", (a, b))

    def sub(self, a: int, b: int) -> int:
        _require_same_shape(self.value(a), self.value(b), "sub")
        return self._push("sub", (a, b))

    def mul(self, a: int, b: int) -> int:
        _require_same_shape(self.value(a), self.value(b), "mul")
        return self._push("mul", (a, b))

    def matmul(self, a: int, b: int) -> int:
        va, vb = self.value(a), self.value(b)
        if va.ndim != 2 or vb.ndim not in (1, 2) or va.shape[1] != vb.shape[0]:
            raise DimensionError(f"matmul: incompatible shapes {va.shape} @ {vb.shape}")
        return self._push("matmul", (a, b))

    def sigmoid(self, a: int) -> int:
        return self._push("sigmoid", (a,))

    def tanh(self, a: int) -> int:
        return self._push("tanh", (a,))

    def exp(self, a: int) -> int:
        return self._push("exp", (a,))

    def log(self, a: int) -> int:
        return self._push("log", (a,))

    def sqrt(self, a: int) -> int:
        return self._push("sqrt", (a,))

    def square(self, a: int) -> int:
        return self._push("square", (a,))

    def softmax(self, a: int) -> int:
        """Softmax along the last axis, computed with max-subtraction."""
        return self._push("softmax", (a,))

    def sum(self, a: int) -> int:
        return self._push("sum", (a,))

    def mean(self, a: int) -> int:
        return self._push("mean", (a,))

    def concat(self, parts, axis: int = 0) -> int:
        if not parts:
            raise ContractError("concat of zero tensors")
        if axis != 0:
            raise DimensionError("concat: only axis 0 is supported")
        return self._push("concat", tuple(parts), {"axis": axis})

    def gather_row(self, a: int, index: int) -> int:
        """Row of a matrix, or a single entry of a vector."""
        va = self.value(a)
        if va.ndim not in (1, 2):
            raise DimensionError("gather_row: input must be a vector or matrix")
        if not 0 <= index < va.shape[0]:
            raise DimensionError(f"gather_row: index {index} out of range for {va.shape}")
        return self._push("gather_row", (a,), {"key": int(index)})

    def scale(self, a: int, c: float) -> int:
        return self._push("scale", (a,), {"c": float(c)})

    def pairwise_l2(self, a: int, b: int) -> int:
        """Matrix of Euclidean distances between rows of a and rows of b.

        Vectors are treated as single-row matrices.
        """
        va, vb = self.value(a), self.value(b)
        if va.ndim not in (1, 2) or vb.ndim not in (1, 2) or va.shape[-1] != vb.shape[-1]:
            raise DimensionError(f"pairwise_l2: incompatible shapes {va.shape}, {vb.shape}")
        return self._push("pairwise_l2", (a, b))

    # -- fused ops: one node each, with a hand-derived backward pass ----------

    def gru(self, x: int, h: int, w_z: int, u_z: int, b_z: int, w_r: int, u_r: int,
            b_r: int, w_h: int, u_h: int, b_h: int) -> int:
        """One GRU step, h' = (1 - z) * h + z * tanh(W_h x + U_h (r * h) + b_h).

        The gates z, r, the product r * h and the candidate are cached in the
        node's aux for the backward pass (``recompute`` refreshes them).
        """
        inputs = (x, h, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h)
        shapes = [self.nodes[i].value.shape for i in inputs]
        xs, hs = shapes[0], shapes[1]  # (input,), (hidden,)
        if len(xs) != 1 or len(hs) != 1 or shapes[2:] != [hs + xs, hs + hs, hs] * 3:
            raise DimensionError(f"gru: shapes {shapes} do not fit a GRU step")
        return self._push("gru", inputs, {})

    def affine(self, w: int, x: int, b: int) -> int:
        """W @ x + b for a matrix W and vectors x, b."""
        vw, vx, vb = self.value(w), self.value(x), self.value(b)
        if vw.ndim != 2 or vx.shape != (vw.shape[1],) or vb.shape != (vw.shape[0],):
            raise DimensionError(
                f"affine: incompatible shapes {vw.shape} @ {vx.shape} + {vb.shape}")
        return self._push("affine", (w, x, b))

    def cross_entropy(self, logits: int, target: int) -> int:
        """-log softmax(logits)[target] as a scalar, via log-sum-exp."""
        v = self.value(logits)
        if v.ndim != 1:
            raise DimensionError("cross_entropy expects a logits vector")
        if not 0 <= target < v.shape[0]:
            raise ContractError(f"target class {target} out of range for {v.shape[0]} classes")
        return self._push("cross_entropy", (logits,), {"target": int(target)})

    def slice(self, a: int, start: int, stop: int) -> int:
        """Rows ``start:stop`` of a matrix, or entries of a vector."""
        va = self.value(a)
        if va.ndim not in (1, 2) or not 0 <= start < stop <= va.shape[0]:
            raise DimensionError(f"slice: [{start}:{stop}] out of range for {va.shape}")
        return self._push("slice", (a,), {"key": slice(int(start), int(stop))})

    def stack(self, rows) -> int:
        """Matrix whose i-th row is the i-th of the given equal-length vectors."""
        rows = tuple(rows)
        if not rows:
            raise ContractError("stack of zero rows")
        shape = self.value(rows[0]).shape
        if len(shape) != 1 or any(self.value(r).shape != shape for r in rows):
            raise DimensionError("stack: rows must be vectors of one length")
        return self._push("stack", rows)

    # -- evaluation ---------------------------------------------------------

    def recompute(self, node_ids=None) -> None:
        """Re-run the forward pass over the frozen topology.

        ``node_ids`` restricts the pass to the given nodes (must be in
        topological order); by default every non-leaf node is recomputed.
        """
        nodes = self.nodes if node_ids is None else [self.nodes[i] for i in node_ids]
        for node in nodes:
            if node.kind == "leaf":
                continue
            vals = [self.nodes[i].value for i in node.inputs]
            node.value = _FORWARD[node.kind](vals, node.aux)

    def downstream(self, start: int) -> list[int]:
        """Ids of all nodes reachable from ``start``, in topological order."""
        seen = {start}
        order = []
        for nid in range(start + 1, len(self.nodes)):
            if any(i in seen for i in self.nodes[nid].inputs):
                seen.add(nid)
                order.append(nid)
        return order

    def backward(self, loss: int) -> None:
        """Fill .grad for every node that requires one; zero where the loss does not reach.

        Nodes the loss does not reach are skipped.  A node's first incoming
        gradient is stored as is and later ones are added out of place, so a
        gradient array shared between nodes is never written to.  A leaf's
        ``Outer`` terms are summed last, in one matrix product.
        """
        nodes = self.nodes
        top = nodes[loss]
        if top.value.size != 1:
            raise ContractError(f"backward: loss must be scalar, got shape {top.value.shape}")
        for node in nodes:
            node.grad = None
        if top.requires_grad:
            top.grad = np.ones_like(top.value)
            outers: dict[int, list[Outer]] = {}  # leaf id -> its deferred outer products
            for nid in range(loss, -1, -1):
                node = nodes[nid]
                if node.grad is None or not node.inputs:
                    continue
                vals = [nodes[i].value for i in node.inputs]
                grads = _BACKWARD[node.kind](node, vals, node.grad)
                for inp, g in zip(node.inputs, grads):
                    child = nodes[inp]
                    if not child.requires_grad:
                        continue
                    if type(g) is Outer:
                        if not child.inputs:
                            outers.setdefault(inp, []).append(g)
                            continue
                        g = np.outer(g.left, g.right)
                    child.grad = g if child.grad is None else child.grad + g
            for inp, terms in outers.items():
                left = np.array([t.left for t in terms])
                total = left.T @ np.array([t.right for t in terms])
                child = nodes[inp]
                child.grad = total if child.grad is None else child.grad + total
        for node in nodes:
            if node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.value)


def finite_difference_check(build, params, eps: float = 1e-3) -> float:
    """Compare backward() against central finite differences.

    ``build(graph, param_ids)`` must construct a scalar loss from the given
    parameter leaves and return its node id.  Returns the max over all
    parameter entries of |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < eps <= 1e-2:
        raise ContractError("eps must lie in (0, 1e-2]")
    g = Graph()
    ids = [g.param(p) for p in params]
    loss = build(g, ids)
    if g.value(loss).size != 1:
        raise ContractError("build must produce a scalar loss")
    g.backward(loss)
    analytic = [np.array(g.grad(i)).reshape(-1) for i in ids]

    max_rel = 0.0
    for i, nid in enumerate(ids):
        affected = g.downstream(nid)  # only these change under perturbation
        flat = g.nodes[nid].value.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            g.recompute(affected)
            f_plus = float(g.value(loss))
            flat[j] = orig - eps
            g.recompute(affected)
            f_minus = float(g.value(loss))
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(analytic[i][j] - numeric) / max(1.0, abs(analytic[i][j]))
            if rel > max_rel:
                max_rel = rel
        g.recompute(affected)  # restore this leaf's downstream values
    return max_rel
