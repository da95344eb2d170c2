"""Value numbering over structured SSA (paper §5.4).

"We eliminate redundant computations using value numbering ... when
combined with the domain-specific operators in our IR, they produce
domain-specific optimizations that a general-purpose compiler would be
unlikely to achieve.  For example, if a program probes both a field F and
the gradient field ∇F at the same position, there are redundant
convolution computations that can be detected and eliminated.  Another
example is the symmetry of the Hessian, which is also detected by our
value-numbering pass."

Both examples fall out here exactly as described:

* probing ``F`` and ``∇F`` at the same position hashes the shared
  ``to_index`` / ``floor_i`` / ``fract`` / ``gather`` / order-0 ``weights``
  instructions to the same value numbers, so only the derivative weights
  and the final contractions differ;
* the Hessian components ``H[i][j]`` and ``H[j][i]`` lower to
  ``conv_contract`` instructions with *identical* argument lists (the same
  per-axis weight multiset), so the 9 contractions of a 3-D Hessian
  collapse to 6.

The walk is scoped lexically: a value computed in one branch of an ``if``
is available only within it, which is exactly dominance for structured
SSA.
"""

from __future__ import annotations

import numpy as np

from repro.core.ir.base import Body, Func, Instr, Value
from repro.kernels import Kernel

#: ops whose two arguments commute (sorted for hashing)
_COMMUTATIVE = {"add", "mul", "and", "or", "eq", "ne", "min", "max"}

#: ops that must not be merged even with equal keys (none currently — all
#: IR ops are pure — but kept as an explicit extension point)
_BARRIER: set[str] = set()


def _attr_key(v) -> object:
    if isinstance(v, np.ndarray):
        return ("ndarray", v.shape, str(v.dtype), v.tobytes())
    if isinstance(v, Kernel):
        # structural identity: two kernels with the same support and
        # piecewise polynomials compute the same weights, even when they
        # were constructed through different paths (e.g. bspline(3) vs the
        # interned KERNELS["bspln3"]).  Keying on id() here missed those
        # merges.
        return ("kernel", v.support, tuple(p.coeffs for p in v.pieces))
    if isinstance(v, (list, tuple)):
        return tuple(_attr_key(x) for x in v)
    if isinstance(v, float) and v != v:  # NaN constants never merge
        return ("nan", object())
    if isinstance(v, (bool, int, float)):
        # 1 == 1.0 == True in Python; an int constant must not merge with
        # a real constant (their runtime dtypes differ)
        return (type(v).__name__, v)
    return v


def _instr_key(instr: Instr, number: dict[Value, int]) -> tuple:
    args = [number[a] for a in instr.args]
    if instr.op in _COMMUTATIVE and len(args) == 2:
        args.sort()
    attrs = tuple(sorted((k, _attr_key(v)) for k, v in instr.attrs.items()))
    return (instr.op, tuple(args), attrs)


class _Numbering:
    def __init__(self):
        self.next = 0
        self.number: dict[Value, int] = {}  # value -> value number
        self.repl: dict[Value, Value] = {}
        self.removed = 0

    def fresh(self, v: Value) -> None:
        self.number[v] = self.next
        self.next += 1

    def resolve(self, v: Value) -> Value:
        while v in self.repl:
            v = self.repl[v]
        return v


def value_number(func: Func) -> int:
    """Run global value numbering in place; returns #instructions removed."""
    vn = _Numbering()
    for p in func.params:
        vn.fresh(p)

    def walk(body: Body, table: dict[tuple, Value]) -> None:
        new_items = []
        for item in body.items:
            if isinstance(item, Instr):
                item.args = [vn.resolve(a) for a in item.args]
                if len(item.results) == 1 and item.op not in _BARRIER:
                    key = _instr_key(item, vn.number)
                    hit = table.get(key)
                    if hit is not None:
                        vn.repl[item.results[0]] = hit
                        vn.number[item.results[0]] = vn.number[hit]
                        vn.removed += 1
                        continue  # drop the redundant instruction
                    vn.fresh(item.results[0])
                    table[key] = item.results[0]
                else:
                    for r in item.results:
                        vn.fresh(r)
                new_items.append(item)
            else:
                item.cond = vn.resolve(item.cond)
                walk(item.then_body, dict(table))
                walk(item.else_body, dict(table))
                for phi in item.phis:
                    phi.then_val = vn.resolve(phi.then_val)
                    phi.else_val = vn.resolve(phi.else_val)
                    if phi.then_val is phi.else_val:
                        vn.repl[phi.result] = phi.then_val
                        vn.number[phi.result] = vn.number[phi.then_val]
                    else:
                        vn.fresh(phi.result)
                item.phis = [p for p in item.phis if p.result not in vn.repl]
                new_items.append(item)
        body.items = new_items

    walk(func.body, {})
    func.results = [vn.resolve(r) for r in func.results]
    return vn.removed
