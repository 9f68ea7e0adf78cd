"""Minimal reverse-mode autodiff over dense float64 matrices.

Implements exactly the operation set the layout-guidance loss chain needs:
matrix product, scaled row softmax, max entry (infinity norm of a
nonnegative map), elementwise arithmetic with scalar broadcast, sum
reduction, square, sigmoid, natural log, pairwise maximum, interval clamp,
and detach. Anything else is out of scope on purpose.

Values are numpy float64 arrays of shape (rows, cols), or scalars of shape
(). One ``Tape`` per differentiated computation: the forward pass records
nodes in topological order, ``Tape.backward`` runs a single reverse sweep
and returns the accumulated adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ContractError",
    "Grads",
    "ShapeError",
    "Tape",
    "Var",
    "clamp",
    "detach",
    "log",
    "matmul",
    "max_norm",
    "maximum",
    "row_softmax",
    "sigmoid",
    "square",
    "total",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """A non-shape precondition of an operation was violated."""


def _as_value(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 2:
        raise ShapeError(f"expected a scalar or matrix, got ndim={arr.ndim}")
    return arr


@dataclass
class _Node:
    value: np.ndarray
    parents: tuple[int, ...]
    # Maps the adjoint of this node to one adjoint per parent.
    vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None
    grad_enabled: bool


class Var:
    """Handle to one node on a tape; all state lives in the tape itself."""

    __slots__ = ("tape", "id")

    def __init__(self, tape: "Tape", node_id: int):
        self.tape = tape
        self.id = node_id

    @property
    def value(self) -> np.ndarray:
        return self.tape._nodes[self.id].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def sum(self) -> "Var":
        return total(self)

    def __add__(self, other):
        return _binary(self, other, "add")

    def __radd__(self, other):
        return _binary(_lift(self.tape, other), self, "add")

    def __sub__(self, other):
        return _binary(self, other, "sub")

    def __rsub__(self, other):
        return _binary(_lift(self.tape, other), self, "sub")

    def __mul__(self, other):
        return _binary(self, other, "mul")

    def __rmul__(self, other):
        return _binary(_lift(self.tape, other), self, "mul")

    def __truediv__(self, other):
        return _binary(self, other, "div")

    def __rtruediv__(self, other):
        return _binary(_lift(self.tape, other), self, "div")

    def __neg__(self):
        return _binary(_lift(self.tape, 0.0), self, "sub")

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Var(id={self.id}, shape={self.shape})"


class Grads:
    """Adjoints from one backward sweep, queryable per variable.

    Constants and detached nodes report all-zero gradients.
    """

    def __init__(self, tape: "Tape", table: dict[int, np.ndarray]):
        self._tape = tape
        self._table = table

    def __getitem__(self, var: Var) -> np.ndarray:
        if var.tape is not self._tape:
            raise ContractError("variable belongs to a different tape")
        got = self._table.get(var.id)
        if got is None:
            return np.zeros_like(var.value)
        return got


class Tape:
    """Ordered record of forward operations; parents always precede children."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """A differentiable input (gradients will be accumulated for it)."""
        return self._push(_as_value(value), (), None, grad_enabled=True)

    def constant(self, value) -> Var:
        """A non-differentiable input; backward reports zeros for it."""
        return self._push(_as_value(value), (), None, grad_enabled=False)

    def _push(self, value, parents, vjp, grad_enabled) -> Var:
        self._nodes.append(_Node(value, parents, vjp, grad_enabled))
        return Var(self, len(self._nodes) - 1)

    def _record(self, value: np.ndarray, parents: tuple[Var, ...], vjp) -> Var:
        enabled = any(self._nodes[p.id].grad_enabled for p in parents)
        ids = tuple(p.id for p in parents)
        return self._push(value, ids, vjp if enabled else None, enabled)

    def backward(self, loss: Var) -> Grads:
        """Reverse accumulation from a scalar node; visits each node once."""
        if loss.tape is not self:
            raise ContractError("loss lives on a different tape")
        if loss.value.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.value.shape}"
            )
        adjoint: dict[int, np.ndarray] = {loss.id: np.ones(())}
        for nid in range(loss.id, -1, -1):
            g = adjoint.get(nid)
            if g is None:
                continue
            node = self._nodes[nid]
            if node.vjp is None:
                continue
            for pid, pg in zip(node.parents, node.vjp(g)):
                if not self._nodes[pid].grad_enabled:
                    continue
                if pid in adjoint:
                    adjoint[pid] = adjoint[pid] + pg
                else:
                    adjoint[pid] = pg
        table = {
            nid: g for nid, g in adjoint.items() if self._nodes[nid].grad_enabled
        }
        return Grads(self, table)


def _lift(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ContractError("operands live on different tapes")
        return x
    return tape.constant(x)


def _check_elementwise(a: np.ndarray, b: np.ndarray) -> None:
    # Same shape, or one side a scalar; no general broadcasting.
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"elementwise shapes differ: {a.shape} vs {b.shape}")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    return np.asarray(np.sum(grad))  # scalar operand broadcast against a matrix


def _binary(a: Var, b, kind: str) -> Var:
    b = _lift(a.tape, b)
    av, bv = a.value, b.value
    _check_elementwise(av, bv)
    if kind == "add":
        out = av + bv

        def vjp(g):
            return _reduce_to(g, av.shape), _reduce_to(g, bv.shape)

    elif kind == "sub":
        out = av - bv

        def vjp(g):
            return _reduce_to(g, av.shape), _reduce_to(-g, bv.shape)

    elif kind == "mul":
        out = av * bv

        def vjp(g):
            return _reduce_to(g * bv, av.shape), _reduce_to(g * av, bv.shape)

    elif kind == "div":
        out = av / bv

        def vjp(g):
            return (
                _reduce_to(g / bv, av.shape),
                _reduce_to(-g * av / (bv * bv), bv.shape),
            )

    else:  # pragma: no cover
        raise ValueError(kind)
    return a.tape._record(out, (a, b), vjp)


def matmul(a: Var, b) -> Var:
    """Matrix product, recorded with both-operand backward rules."""
    b = _lift(a.tape, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul needs matrices, got {av.shape} @ {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {av.shape} @ {bv.shape}")
    out = av @ bv

    def vjp(g):
        return g @ bv.T, av.T @ g

    return a.tape._record(out, (a, b), vjp)


def row_softmax(x: Var, scale: float) -> Var:
    """Row-stochastic softmax of x/scale, max-shifted for stability."""
    if not scale > 0:
        raise ContractError(f"softmax scale must be positive, got {scale}")
    xv = x.value
    if xv.ndim != 2:
        raise ShapeError(f"row_softmax needs a matrix, got shape {xv.shape}")
    logits = xv / scale
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - inner) / scale,)

    return x.tape._record(y, (x,), vjp)


def max_norm(x: Var) -> Var:
    """Max entry (infinity norm for nonnegative maps) as a scalar.

    The gradient is routed to the first maximal entry in row-major order,
    which makes tie handling deterministic.
    """
    xv = x.value
    if xv.size == 0:
        raise ShapeError("max_norm of an empty array")
    flat_idx = int(np.argmax(xv))  # first max in row-major order
    out = np.asarray(xv.reshape(-1)[flat_idx])

    def vjp(g):
        full = np.zeros(xv.size)
        full[flat_idx] = g
        return (full.reshape(xv.shape),)

    return x.tape._record(out, (x,), vjp)


def total(x: Var) -> Var:
    """Sum of all entries, as a scalar node."""
    xv = x.value
    out = np.asarray(np.sum(xv))

    def vjp(g):
        return (np.full(xv.shape, float(g)),)

    return x.tape._record(out, (x,), vjp)


def square(x: Var) -> Var:
    xv = x.value
    out = xv * xv

    def vjp(g):
        return (2.0 * xv * g,)

    return x.tape._record(out, (x,), vjp)


def sigmoid(x: Var) -> Var:
    xv = x.value
    # Evaluate from the side that keeps exp() bounded.
    out = np.where(xv >= 0, 1.0 / (1.0 + np.exp(-np.abs(xv))),
                   np.exp(-np.abs(xv)) / (1.0 + np.exp(-np.abs(xv))))
    out = np.asarray(out)

    def vjp(g):
        return (out * (1.0 - out) * g,)

    return x.tape._record(out, (x,), vjp)


def log(x: Var) -> Var:
    """Natural log; callers must keep inputs positive (clamp first)."""
    xv = x.value
    out = np.log(xv)

    def vjp(g):
        return (g / xv,)

    return x.tape._record(out, (x,), vjp)


def maximum(a: Var, b) -> Var:
    """Elementwise max of two arrays; gradient follows the winning side.

    Ties route the gradient to the first operand.
    """
    b = _lift(a.tape, b)
    av, bv = a.value, b.value
    _check_elementwise(av, bv)
    take_a = av >= bv
    out = np.where(take_a, av, bv)
    out = np.asarray(out)

    def vjp(g):
        return (
            _reduce_to(g * take_a, av.shape),
            _reduce_to(g * ~take_a, bv.shape),
        )

    return a.tape._record(out, (a, b), vjp)


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Clamp entries to [lo, hi]; gradient passes only where unclamped."""
    if not lo < hi:
        raise ContractError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    xv = x.value
    out = np.clip(xv, lo, hi)
    passthrough = (xv >= lo) & (xv <= hi)

    def vjp(g):
        return (g * passthrough,)

    return x.tape._record(out, (x,), vjp)


def detach(x: Var) -> Var:
    """Copy of x's value as a constant; gradients stop here."""
    return x.tape.constant(x.value.copy())
