"""Semantic types of the Diderot language (paper §3.1, §3.4).

Concrete value types: ``bool``, ``int``, ``string``, and ``tensor[σ]``
(``real`` ≡ ``tensor[]``, ``vecN`` ≡ ``tensor[N]``).  Abstract types:
``image(d)[σ]``, ``kernel#k``, and ``field#k(d)[σ]``.

Signature *patterns* may additionally contain :class:`ShapeVar`,
:class:`DimVar`, and :class:`ContVar` — the "shape variables and dimension
variables" of §5.1 — which :func:`match` binds against ground types.
:class:`Sig` is one overload instance over such patterns and
:func:`resolve` picks among a list of them; the op table
(:mod:`repro.core.ir.ops`) and the typechecker's tables
(:mod:`repro.core.ty.builtins`) are both written in these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


class Ty:
    """Base class of all semantic types."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return self.__class__.__name__


@dataclass(frozen=True)
class BoolTy(Ty):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntTy(Ty):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class StringTy(Ty):
    def __str__(self) -> str:
        return "string"


def _shape_str(shape: tuple) -> str:
    return "[" + ",".join(str(s) for s in shape) + "]"


@dataclass(frozen=True)
class TensorTy(Ty):
    """``tensor[σ]``; ``shape`` entries are ints or pattern variables."""

    shape: tuple = ()

    def __str__(self) -> str:
        if self.shape == ():
            return "real"
        return f"tensor{_shape_str(self.shape)}"

    @property
    def order(self) -> int:
        return len(self.shape)


@dataclass(frozen=True)
class ImageTy(Ty):
    """``image(d)[σ]``."""

    dim: object
    shape: tuple = ()

    def __str__(self) -> str:
        return f"image({self.dim}){_shape_str(self.shape)}"


@dataclass(frozen=True)
class KernelTy(Ty):
    """``kernel#k``."""

    continuity: object

    def __str__(self) -> str:
        return f"kernel#{self.continuity}"


@dataclass(frozen=True)
class FieldTy(Ty):
    """``field#k(d)[σ]``: C^k functions from d-space to tensor[σ]."""

    continuity: object
    dim: object
    shape: tuple = ()

    def __str__(self) -> str:
        return f"field#{self.continuity}({self.dim}){_shape_str(self.shape)}"


BOOL = BoolTy()
INT = IntTy()
STRING = StringTy()
REAL = TensorTy(())


def vec(n: int) -> TensorTy:
    return TensorTy((n,))


def matrix(n: int, m: int) -> TensorTy:
    return TensorTy((n, m))


# --------------------------------------------------------------------------
# pattern variables for overload signatures


@dataclass(frozen=True)
class ShapeVar:
    """A shape variable ``σ``: binds a whole tensor shape tuple."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class DimVar:
    """A dimension variable ``d``: binds one integer dimension (1-3)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ContVar:
    """A continuity variable ``k``: binds a kernel/field continuity level."""

    name: str

    def __str__(self) -> str:
        return self.name


def _bind(env: dict, var, value) -> bool:
    if var.name in env:
        return env[var.name] == value
    env[var.name] = value
    return True


def _match_shape(pattern: tuple, actual: tuple, env: dict) -> bool:
    # A shape pattern is either a single ShapeVar (binding the whole tuple),
    # or a tuple of ints/DimVars matched positionally, possibly with one
    # trailing ShapeVar capturing a prefix ("σ, d" patterns from Figure 2
    # are expressed with a *leading* ShapeVar: ("σ*", d)).
    if len(pattern) == 1 and isinstance(pattern[0], ShapeVar):
        return _bind(env, pattern[0], tuple(actual))
    if pattern and isinstance(pattern[0], ShapeVar):
        # leading shape var: σ binds all but the remaining fixed entries
        rest = pattern[1:]
        if len(actual) < len(rest):
            return False
        split = len(actual) - len(rest)
        if not _bind(env, pattern[0], tuple(actual[:split])):
            return False
        return _match_shape(tuple(rest), tuple(actual[split:]), env)
    if len(pattern) != len(actual):
        return False
    for p, a in zip(pattern, actual):
        if isinstance(p, int):
            if p != a:
                return False
        elif isinstance(p, DimVar):
            if not _bind(env, p, a):
                return False
        else:
            return False
    return True


def match(pattern: Ty, actual: Ty, env: dict) -> bool:
    """One-way unification: bind ``pattern``'s variables to match ``actual``.

    ``actual`` must be ground.  Bindings accumulate in ``env`` (shared
    across the parameters of one signature, so repeated variables force
    equality — e.g. ``tensor[σ] + tensor[σ]``).
    """
    if isinstance(pattern, TensorTy) and isinstance(actual, TensorTy):
        return _match_shape(pattern.shape, actual.shape, env)
    if isinstance(pattern, ImageTy) and isinstance(actual, ImageTy):
        if isinstance(pattern.dim, DimVar):
            if not _bind(env, pattern.dim, actual.dim):
                return False
        elif pattern.dim != actual.dim:
            return False
        return _match_shape(pattern.shape, actual.shape, env)
    if isinstance(pattern, KernelTy) and isinstance(actual, KernelTy):
        if isinstance(pattern.continuity, ContVar):
            return _bind(env, pattern.continuity, actual.continuity)
        return pattern.continuity == actual.continuity
    if isinstance(pattern, FieldTy) and isinstance(actual, FieldTy):
        if isinstance(pattern.continuity, ContVar):
            if not _bind(env, pattern.continuity, actual.continuity):
                return False
        elif pattern.continuity != actual.continuity:
            return False
        if isinstance(pattern.dim, DimVar):
            if not _bind(env, pattern.dim, actual.dim):
                return False
        elif pattern.dim != actual.dim:
            return False
        return _match_shape(pattern.shape, actual.shape, env)
    return type(pattern) is type(actual) and pattern == actual


def substitute(pattern: Ty, env: dict) -> Ty:
    """Instantiate a signature's result type from the match bindings."""

    def sub_shape(shape: tuple) -> tuple:
        out = []
        for s in shape:
            if isinstance(s, ShapeVar):
                out.extend(env[s.name])
            elif isinstance(s, DimVar):
                out.append(env[s.name])
            else:
                out.append(s)
        return tuple(out)

    def sub_scalar(v):
        if isinstance(v, (DimVar, ContVar)):
            return env[v.name]
        return v

    if isinstance(pattern, TensorTy):
        return TensorTy(sub_shape(pattern.shape))
    if isinstance(pattern, ImageTy):
        return ImageTy(sub_scalar(pattern.dim), sub_shape(pattern.shape))
    if isinstance(pattern, KernelTy):
        return KernelTy(sub_scalar(pattern.continuity))
    if isinstance(pattern, FieldTy):
        return FieldTy(
            sub_scalar(pattern.continuity),
            sub_scalar(pattern.dim),
            sub_shape(pattern.shape),
        )
    return pattern


# --------------------------------------------------------------------------
# overload signatures: the pattern variables every table shares, and Sig


S = ShapeVar("σ")
D = DimVar("d")
D1 = DimVar("d1")
D2 = DimVar("d2")
D3 = DimVar("d3")
K = ContVar("k")
K2 = ContVar("k2")

TENSOR_S = TensorTy((S,))


@dataclass
class Sig:
    """One overload instance.

    ``result`` computes the result type from the unification bindings;
    ``guard`` may veto a structurally matching call with an error message
    (e.g. differentiating a C⁰ field — the continuity tracking of §3.4).
    """

    params: tuple
    result: Callable[[dict], Ty]
    guard: Optional[Callable[[dict], Optional[str]]] = None

    def try_apply(self, arg_tys: list) -> tuple[Optional[Ty], Optional[str]]:
        """(result_ty, None) on success; (None, guard_error|None) otherwise."""
        if len(arg_tys) != len(self.params):
            return None, None
        env: dict = {}
        for p, a in zip(self.params, arg_tys):
            if not match(p, a, env):
                return None, None
        if self.guard is not None:
            err = self.guard(env)
            if err is not None:
                return None, err
        return self.result(env), None


def const(ty: Ty) -> Callable[[dict], Ty]:
    return lambda env: ty


def subst(pattern: Ty) -> Callable[[dict], Ty]:
    return lambda env: substitute(pattern, env)


def resolve(sigs, arg_tys: list) -> tuple[Optional[Ty], Optional[str]]:
    """Resolve an overload list against ground argument types.

    The signatures are tried in order; the first whose parameters match
    and whose guard passes determines the result type.  Returns
    ``(result_ty, None)`` on success or ``(None, message)`` where
    ``message`` is a guard error (if one fired) or ``None`` for a plain
    no-instance failure.
    """
    guard_err: Optional[str] = None
    for sig in sigs:
        ty, err = sig.try_apply(arg_tys)
        if ty is not None:
            return ty, None
        if err is not None and guard_err is None:
            guard_err = err
    return None, guard_err
