"""Structured SSA: the representation shared by HighIR, MidIR, and LowIR.

A :class:`Func` has parameter :class:`Value`\\ s, a :class:`Body`, and a list
of result Values.  A Body is a sequence of :class:`Instr`\\ s and
:class:`IfRegion`\\ s; an IfRegion carries two sub-bodies and a φ-list
merging the values that differ between them.  Every Value is assigned
exactly once (SSA), so the optimization passes — contraction and value
numbering (paper §5.4) — are simple worklist/hash-table algorithms.

Instructions are generic: an op name (validated against the level's
vocabulary), SSA arguments, and a dict of compile-time attributes (tensor
shapes, kernels, image slots, constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import CompileError


class Value:
    """An SSA value.

    ``ty`` is the semantic type at HighIR level and a lowered type tag at
    Mid/Low level; the passes only require it to be propagated, not
    interpreted, so one class serves all three IRs.  A value has no number:
    it hashes by identity, so passes key their tables by the value itself,
    and printers number a function's values themselves (:func:`value_names`)
    — nothing a compile emits depends on what the process compiled before.
    """

    __slots__ = ("ty", "producer")

    def __init__(self, ty, producer=None):
        self.ty = ty
        self.producer = producer  # Instr | Phi | ("param", Func) | None

    def __repr__(self) -> str:
        return f"%<{self.ty}>"


@dataclass
class Instr:
    """``results = op(args) {attrs}``; most ops have exactly one result."""

    op: str
    args: list[Value]
    attrs: dict
    results: list[Value] = field(default_factory=list)

    def new_result(self, ty) -> Value:
        v = Value(ty, self)
        self.results.append(v)
        return v

    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise CompileError(f"{self.op} has {len(self.results)} results")
        return self.results[0]

    def format(self, name: Callable[[Value], str] = repr) -> str:
        res = ", ".join(map(name, self.results))
        args = ", ".join(map(name, self.args))
        at = f" {self.attrs}" if self.attrs else ""
        return f"{res} = {self.op}({args}){at}"

    def __repr__(self) -> str:
        return self.format()


@dataclass
class Phi:
    """A join value: ``result = φ(then_val, else_val)`` of an IfRegion."""

    result: Value
    then_val: Value
    else_val: Value

    def format(self, name: Callable[[Value], str] = repr) -> str:
        return f"{name(self.result)} = φ({name(self.then_val)}, {name(self.else_val)})"

    def __repr__(self) -> str:
        return self.format()


@dataclass
class IfRegion:
    """Structured two-way conditional with SSA joins."""

    cond: Value
    then_body: "Body"
    else_body: "Body"
    phis: list[Phi]


@dataclass
class Body:
    items: list = field(default_factory=list)

    def add(self, item) -> None:
        self.items.append(item)

    def emit(self, op: str, args: list[Value], ty, **attrs) -> Value:
        """Append a single-result instruction and return its value."""
        instr = Instr(op, list(args), attrs)
        v = instr.new_result(ty)
        self.add(instr)
        return v

    def instructions(self) -> Iterator[Instr]:
        """All instructions, depth-first."""
        for item in self.items:
            if isinstance(item, Instr):
                yield item
            else:
                yield from item.then_body.instructions()
                yield from item.else_body.instructions()


@dataclass
class Func:
    """An SSA function: compiled form of one strand method or initializer."""

    name: str
    params: list[Value]
    param_names: list[str]
    body: Body
    results: list[Value] = field(default_factory=list)
    result_names: list[str] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"Func({self.name}, {len(self.params)} params)"


def value_names(func: Func) -> Callable[[Value], str]:
    """``%0, %1, ...`` for ``func``'s values in definition order (parameters,
    then depth-first through the body); a value it does not define is
    numbered on first use."""
    names: dict[Value, str] = {}

    def name(v: Value) -> str:
        n = names.get(v)
        if n is None:
            n = names[v] = f"%{len(names)}"
        return n

    def walk(body: Body) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                for r in item.results:
                    name(r)
            else:
                walk(item.then_body)
                walk(item.else_body)
                for phi in item.phis:
                    name(phi.result)

    for p in func.params:
        name(p)
    walk(func.body)
    return name


def format_func(func: Func) -> str:
    """Human-readable dump, used in tests and debugging."""
    name = value_names(func)
    lines = [f"func {func.name}({', '.join(f'{n}={name(v)}' for n, v in zip(func.param_names, func.params))})"]

    def walk(body: Body, indent: int) -> None:
        pad = "  " * indent
        for item in body.items:
            if isinstance(item, Instr):
                lines.append(pad + item.format(name))
            else:
                lines.append(pad + f"if {name(item.cond)}:")
                walk(item.then_body, indent + 1)
                lines.append(pad + "else:")
                walk(item.else_body, indent + 1)
                for phi in item.phis:
                    lines.append(pad + phi.format(name))

    walk(func.body, 1)
    lines.append(
        "  return " + ", ".join(f"{n}={name(v)}" for n, v in zip(func.result_names, func.results))
    )
    return "\n".join(lines)


def validate(func: Func, vocabulary: dict[str, object], level: str) -> None:
    """Check SSA well-formedness and op-vocabulary membership.

    * every op name is in ``vocabulary``;
    * every instruction argument and φ-operand is defined before use (in
      the structured dominance order);
    * every value is defined exactly once.
    """
    defined: set[Value] = set(func.params)
    seen_defs: set[Value] = set(defined)

    def define(v: Value, where: str) -> None:
        if v in seen_defs:
            raise CompileError(
                f"{level}:{func.name}: {value_names(func)(v)} defined twice ({where})")
        seen_defs.add(v)

    def check_use(v: Value, scope: set[Value], where: str) -> None:
        if v not in scope:
            raise CompileError(
                f"{level}:{func.name}: use of undefined {value_names(func)(v)} in {where}"
            )

    def walk(body: Body, scope: set[Value]) -> set[Value]:
        for item in body.items:
            if isinstance(item, Instr):
                if item.op not in vocabulary:
                    raise CompileError(
                        f"{level}:{func.name}: op {item.op!r} is not in the "
                        f"{level} vocabulary"
                    )
                for a in item.args:
                    check_use(a, scope, item.op)
                for r in item.results:
                    define(r, item.op)
                    scope.add(r)
            else:
                check_use(item.cond, scope, "if-condition")
                then_scope = walk(item.then_body, set(scope))
                else_scope = walk(item.else_body, set(scope))
                for phi in item.phis:
                    check_use(phi.then_val, then_scope, "phi")
                    check_use(phi.else_val, else_scope, "phi")
                    define(phi.result, "phi")
                    scope.add(phi.result)
        return scope

    final_scope = walk(func.body, set(defined))
    for r in func.results:
        check_use(r, final_scope, "return")
