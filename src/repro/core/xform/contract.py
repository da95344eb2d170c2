"""Contraction: constant folding + dead-code elimination (paper §5.4).

"We implement an extended form of constant folding and dead-code
elimination that shrinks (or contracts) the program" (citing Appel & Jim's
shrinking reductions).  The pass iterates folding, copy propagation,
branch splicing, and dead-code elimination to a fixpoint; because every IR
op is pure, DCE is simply backward liveness over the structured SSA.

Run at every IR level (the vocabularies share the foldable core ops).
An op flagged ``foldable`` folds through its NumPy meaning, the op
table's ``py`` template formatted as ``pygen`` formats it, on the constant
values in double precision; there is no second definition of any op here.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.codegen.pygen import instr_expr
from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty.types import BOOL, INT, REAL, STRING
from repro.errors import CompileError
from repro.runtime import ops as rt

# -- constant evaluation -------------------------------------------------------

#: the names a folded expression reads besides its arguments
_SCOPE = {"np": np, "rt": rt, "_dt": np.float64}
#: a folded value's payload kind by result type (otherwise a float64 array)
_KIND = {BOOL: bool, INT: int, STRING: str, REAL: float}


@functools.lru_cache(maxsize=1024)
def _code(expr: str):
    return compile(expr, "<fold>", "eval")


def _value(c):
    """A constant payload as the generated module holds it (``pygen.const_text``)."""
    if isinstance(c, (bool, str, np.ndarray)):
        return c
    return np.int64(c) if isinstance(c, int) else np.float64(c)


def _fold(instr: Instr, args: list) -> object:
    """Evaluate a foldable op on constant arguments: its NumPy meaning
    (``pygen.instr_expr``) over the constants, in double precision.

    Raises ``_NoFold`` for a division or remainder by a constant zero:
    the int fault, or the real inf/NaN, stays at runtime.
    """
    if instr.op in ("div", "mod") and np.ndim(args[1]) == 0 and args[1] == 0:
        raise _NoFold
    names = [f"_a{i}" for i in range(len(args))]
    scope = dict(_SCOPE, **{n: _value(c) for n, c in zip(names, args)})
    with np.errstate(all="ignore"):
        value = eval(_code(instr_expr(instr, names)), scope)
    kind = _KIND.get(instr.results[0].ty)
    return kind(value) if kind else np.array(value, dtype=np.float64)


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
                        self._to_const(item, value)
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
        elif op in ("and", "or"):
            # x && true = x, x && false = false; x || false = x, x || true = true
            for c, other in zip(arg_consts, reversed(item.args)):
                if c is not _NoFold:
                    if bool(c) == (op == "and"):
                        self.repl[item.results[0]] = other
                        self.changed = True
                    else:
                        self._to_const(item, op == "or")
                    return

    def _to_const(self, item: Instr, value) -> None:
        item.op, item.args, item.attrs = "const", [], {"value": value}
        self.consts[item.results[0]] = value
        self.changed = True

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
