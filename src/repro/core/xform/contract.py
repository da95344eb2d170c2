"""Contraction: constant folding + dead-code elimination (paper §5.4).

"We implement an extended form of constant folding and dead-code
elimination that shrinks (or contracts) the program" (citing Appel & Jim's
shrinking reductions).  The pass iterates folding, copy propagation,
branch splicing, and dead-code elimination to a fixpoint; because every IR
op is pure, DCE is simply backward liveness over the structured SSA.

Run at every IR level (the vocabularies share the foldable core ops).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty.types import INT
from repro.errors import CompileError
from repro.runtime import ops as rt

# -- constant evaluation -------------------------------------------------------


def _as_np(v):
    return np.asarray(v)


def _fold(instr: Instr, args: list) -> object:
    """Evaluate a foldable op on constant arguments.

    Returns the constant, or raises ``_NoFold`` when this op isn't folded.
    """
    op = instr.op
    a = args
    ty = instr.results[0].ty if instr.results else None
    is_int = ty == INT
    if op == "add":
        return a[0] + a[1]
    if op == "sub":
        return a[0] - a[1]
    if op == "mul":
        # folded operands are unbatched, so plain broadcasting is correct
        return a[0] * a[1]
    if op == "div":
        if is_int:
            if a[1] == 0:
                raise _NoFold  # leave the fault to runtime
            return int(rt.idiv(a[0], a[1]))
        if isinstance(a[1], (int, float)) and a[1] == 0:
            raise _NoFold  # keep IEEE faults at runtime
        return a[0] / a[1]
    if op == "mod":
        if a[1] == 0:
            raise _NoFold
        return int(rt.imod(a[0], a[1]))
    if op == "neg":
        return -_as_np(a[0]) if isinstance(a[0], np.ndarray) else -a[0]
    if op == "pow":
        return rt.power(a[0], a[1])
    if op == "eq":
        return bool(np.all(_as_np(a[0]) == _as_np(a[1])))
    if op == "ne":
        return bool(np.any(_as_np(a[0]) != _as_np(a[1])))
    if op == "lt":
        return bool(a[0] < a[1])
    if op == "le":
        return bool(a[0] <= a[1])
    if op == "gt":
        return bool(a[0] > a[1])
    if op == "ge":
        return bool(a[0] >= a[1])
    if op == "and":
        return bool(a[0]) and bool(a[1])
    if op == "or":
        return bool(a[0]) or bool(a[1])
    if op == "not":
        return not bool(a[0])
    if op == "select":
        return a[1] if bool(a[0]) else a[2]
    if op in ("sqrt", "sin", "cos", "tan", "asin", "acos", "atan", "exp", "log", "floor", "ceil"):
        fn = getattr(math, op)
        return fn(a[0])
    if op == "atan2":
        return math.atan2(a[0], a[1])
    if op == "fmod":
        return math.fmod(a[0], a[1])
    if op == "min":
        return min(a[0], a[1])
    if op == "max":
        return max(a[0], a[1])
    if op == "abs":
        return abs(a[0])
    if op == "clamp":
        return float(rt.clamp(a[0], a[1], a[2]))
    if op == "lerp":
        return rt.lerp(a[0], a[1], a[2])
    if op == "int_to_real":
        return float(a[0])
    if op == "real_to_int":
        return int(np.trunc(a[0]))
    if op == "norm":
        return float(rt.norm(_as_np(a[0]), instr.attrs["order"]))
    if op == "dot":
        # by tensor order, like the generated code; a folded operand has no
        # lane axis, so its ndim is its order
        u, v = _as_np(a[0]), _as_np(a[1])
        return rt.dot_ord(u, v, u.ndim, v.ndim)
    if op == "cross":
        return rt.cross(_as_np(a[0]), _as_np(a[1]))
    if op == "outer":
        return rt.outer(_as_np(a[0]), _as_np(a[1]))
    if op == "trace":
        return float(rt.trace(_as_np(a[0])))
    if op == "det":
        return float(rt.det(_as_np(a[0])))
    if op == "transpose":
        return rt.transpose(_as_np(a[0]))
    if op == "normalize_v":
        return rt.normalize_v(_as_np(a[0]))
    if op == "evals":
        return rt.evals(_as_np(a[0]))
    if op == "evecs":
        return rt.evecs(_as_np(a[0]))
    if op == "tensor_cons":
        return rt.tensor_cons_flat(*a)
    if op == "tensor_index":
        arr = _as_np(a[0])
        return rt.tensor_index(arr, instr.attrs["indices"], order=arr.ndim)
    if op == "identity":
        return rt.identity(instr.attrs["n"])
    if op == "vec_cons":
        return np.stack([np.asarray(x) for x in a], axis=-1)
    if op == "horner":
        return float(rt.horner(instr.attrs["coeffs"], np.float64(a[0])))
    raise _NoFold


class _NoFold(Exception):
    pass


# -- the pass -------------------------------------------------------------------


class _Contract:
    def __init__(self, func: Func, vocabulary: dict):
        self.func = func
        self.vocab = vocabulary
        self.consts: dict[Value, object] = {}
        self.repl: dict[Value, Value] = {}
        self.changed = False

    def resolve(self, v: Value) -> Value:
        while v in self.repl:
            v = self.repl[v]
        return v

    def const_of(self, v: Value):
        v = self.resolve(v)
        return self.consts.get(v, _NoFold)

    # forward pass: folding, copy propagation, branch splicing
    def forward(self, body: Body) -> None:
        new_items = []
        for item in body.items:
            if isinstance(item, Instr):
                item.args = [self.resolve(a) for a in item.args]
                if item.op == "const":
                    self.consts[item.results[0]] = item.attrs["value"]
                    new_items.append(item)
                    continue
                info = self.vocab.get(item.op)
                arg_consts = [self.const_of(a) for a in item.args]
                if (
                    info is not None
                    and info.foldable
                    and item.results
                    and len(item.results) == 1
                    and all(c is not _NoFold for c in arg_consts)
                ):
                    try:
                        value = _fold(item, arg_consts)
                    except (_NoFold, ValueError, ZeroDivisionError, OverflowError):
                        value = _NoFold
                    if value is not _NoFold:
                        item.op = "const"
                        item.args = []
                        item.attrs = {"value": value}
                        self.consts[item.results[0]] = value
                        self.changed = True
                        new_items.append(item)
                        continue
                self._algebraic(item, arg_consts)
                new_items.append(item)
            else:
                item.cond = self.resolve(item.cond)
                cond_const = self.const_of(item.cond)
                if cond_const is not _NoFold:
                    # branch splicing: inline the taken side
                    taken = item.then_body if bool(cond_const) else item.else_body
                    self.forward(taken)
                    new_items.extend(taken.items)
                    for phi in item.phis:
                        src = phi.then_val if bool(cond_const) else phi.else_val
                        self.repl[phi.result] = self.resolve(src)
                    self.changed = True
                    continue
                self.forward(item.then_body)
                self.forward(item.else_body)
                live_phis = []
                for phi in item.phis:
                    phi.then_val = self.resolve(phi.then_val)
                    phi.else_val = self.resolve(phi.else_val)
                    if phi.then_val is phi.else_val:
                        self.repl[phi.result] = phi.then_val
                        self.changed = True
                    else:
                        live_phis.append(phi)
                item.phis = live_phis
                new_items.append(item)
        body.items = new_items

    def _algebraic(self, item: Instr, arg_consts: list) -> None:
        """Safe strength reductions (no IEEE-semantics changes)."""
        op = item.op
        if op == "select" and len(item.args) == 3 and item.args[1] is item.args[2]:
            self.repl[item.results[0]] = item.args[1]
            self.changed = True
        elif op == "and":
            for i, c in enumerate(arg_consts):
                if c is not _NoFold:
                    other = item.args[1 - i]
                    if bool(c):
                        self.repl[item.results[0]] = other
                    else:
                        item.op = "const"
                        item.args = []
                        item.attrs = {"value": False}
                        self.consts[item.results[0]] = False
                    self.changed = True
                    return
        elif op == "or":
            for i, c in enumerate(arg_consts):
                if c is not _NoFold:
                    other = item.args[1 - i]
                    if not bool(c):
                        self.repl[item.results[0]] = other
                    else:
                        item.op = "const"
                        item.args = []
                        item.attrs = {"value": True}
                        self.consts[item.results[0]] = True
                    self.changed = True
                    return

    # backward pass: dead-code elimination
    def dce(self) -> None:
        needed: set[Value] = set()
        self.func.results = [self.resolve(r) for r in self.func.results]
        for r in self.func.results:
            needed.add(r)

        def walk(body: Body) -> None:
            kept = []
            for item in reversed(body.items):
                if isinstance(item, Instr):
                    if any(r in needed for r in item.results):
                        for a in item.args:
                            needed.add(a)
                        kept.append(item)
                    else:
                        self.changed = True
                else:
                    item.phis = [p for p in item.phis if p.result in needed]
                    for p in item.phis:
                        needed.add(p.then_val)
                        needed.add(p.else_val)
                    # prune inner bodies against the updated needed set
                    walk(item.then_body)
                    walk(item.else_body)
                    if item.phis or item.then_body.items or item.else_body.items:
                        needed.add(item.cond)
                        kept.append(item)
                    else:
                        self.changed = True
            kept.reverse()
            body.items = kept

        walk(self.func.body)


def contract(func: Func, vocabulary: dict, max_rounds: int = 10,
             check: bool = False) -> Func:
    """Run contraction to a fixpoint (bounded by ``max_rounds``).

    The bound is the termination property of "Properties of
    Normalization" (arXiv 1705.08801) as a rewrite count.  Unchecked, a
    function still changing after ``max_rounds`` is returned as it stands
    (every round is sound on its own, so it is correct, just not fully
    contracted); under ``check`` that is a
    :class:`~repro.errors.CompileError`.
    """
    for _ in range(max_rounds):
        c = _Contract(func, vocabulary)
        c.forward(func.body)
        c.dce()
        if not c.changed:
            return func
    if check:
        raise CompileError(
            f"contraction of {func.name!r} still changing after "
            f"{max_rounds} rounds (no fixpoint within the bound)"
        )
    return func
