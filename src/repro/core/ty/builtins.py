"""Overload tables for Diderot's operators and builtin functions.

"Although Diderot is a monomorphic language, most of its operators have
instances at multiple types ... we use a mix of ad hoc overloading and
polymorphism in the type checker" (paper §5.1).  Each operator maps to a
list of :class:`~repro.core.ty.types.Sig` patterns tried in order; the
first whose parameters match (see :func:`repro.core.ty.types.match`) and
whose guard passes determines the result type.  The instances on concrete
values are the op table's (:mod:`repro.core.ir.ops`, by ``surface``
spelling); this module adds what only the surface language has — fields.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.ir import ops as irops
from repro.core.ty.types import (
    BOOL,
    D,
    D1,
    FieldTy,
    ImageTy,
    INT,
    K,
    K2,
    KernelTy,
    REAL,
    S,
    Sig,
    TensorTy,
    Ty,
    const,
    resolve as resolve_sigs,
    subst,
)

FIELD = FieldTy(K, D, (S,))


def _differentiable(env: dict) -> Optional[str]:
    if env["k"] <= 0:
        return (
            f"cannot differentiate a field#{env['k']} field: no continuous "
            "derivatives remain (choose a smoother kernel)"
        )
    return None


def _deriv_field(extra_shape) -> Callable[[dict], Ty]:
    """Result of a differentiation: continuity k-1, shape σ extended."""

    def build(env: dict) -> Ty:
        shape = tuple(env.get("σ", ())) + tuple(
            env["d"] if s == "d" else s for s in extra_shape
        )
        return FieldTy(env["k"] - 1, env["d"], shape)

    return build


def _min_cont_field(env: dict) -> Ty:
    return FieldTy(min(env["k"], env["k2"]), env["d"], tuple(env["σ"]))


def _from_table(functions: bool) -> dict[str, list[Sig]]:
    """The tensor-level overloads of every spelling the op table declares
    (the very ``Sig`` objects the IR validator resolves)."""
    return {
        name: list(irops.OPS[op].sigs)
        for name, op in irops.surface(functions).items()
    }


#: operator name → overload list.  Tried in order; first match wins.  The
#: value-level instances come from the op table; added here are the two
#: operators that are syntactic forms, the field-level instances, and the
#: operators that exist on fields only.
OPERATORS: dict[str, list[Sig]] = _from_table(functions=False)
OPERATORS["neg"] = [*irops.OPS["neg"].sigs, Sig((FIELD,), subst(FIELD))]
OPERATORS["norm"] = list(irops.OPS["norm"].sigs)
for _sym in "+-":
    OPERATORS[_sym].append(
        Sig((FIELD, FieldTy(K2, D, (S,))), _min_cont_field)
    )
OPERATORS["*"] += [
    Sig((REAL, FIELD), subst(FIELD)),
    Sig((FIELD, REAL), subst(FIELD)),
]
OPERATORS["/"].append(Sig((FIELD, REAL), subst(FIELD)))
OPERATORS.update({
    # convolution: image ⊛ kernel or kernel ⊛ image (Figures 1 and 7)
    "⊛": [
        Sig((ImageTy(D, (S,)), KernelTy(K)), subst(FieldTy(K, D, (S,)))),
        Sig((KernelTy(K), ImageTy(D, (S,))), subst(FieldTy(K, D, (S,)))),
    ],
    # differentiation (Figure 2's typing rules)
    "∇": [
        Sig((FieldTy(K, D, ()),), _deriv_field(("d",)), guard=_differentiable),
    ],
    "∇⊗": [
        Sig(
            (FieldTy(K, D, (S, D1)),),
            lambda env: FieldTy(
                env["k"] - 1, env["d"], tuple(env["σ"]) + (env["d1"], env["d"])
            ),
            guard=_differentiable,
        ),
    ],
    # divergence and curl (§8.3 future work, implemented as extensions)
    "∇•": [
        Sig(
            (FieldTy(K, D, (D,)),),
            lambda env: FieldTy(env["k"] - 1, env["d"], ()),
            guard=_differentiable,
        ),
    ],
    "∇×": [
        Sig(
            (FieldTy(K, 3, (3,)),),
            lambda env: FieldTy(env["k"] - 1, 3, (3,)),
            guard=_differentiable,
        ),
        Sig(
            (FieldTy(K, 2, (2,)),),
            lambda env: FieldTy(env["k"] - 1, 2, ()),
            guard=_differentiable,
        ),
    ],
})

#: builtin function name → overload list: the op table's, plus the domain
#: test on fields and the identity instances of the two casts (which emit
#: no op).
FUNCTIONS: dict[str, list[Sig]] = _from_table(functions=True)
FUNCTIONS["inside"] = [
    Sig((TensorTy((D,)), FieldTy(K, D, (S,))), const(BOOL)),
    # 1-D fields are probed at real positions, not tensor[1].
    Sig((REAL, FieldTy(K, 1, (S,))), const(BOOL)),
]
FUNCTIONS["real"].append(Sig((REAL,), const(REAL)))
FUNCTIONS["int"].append(Sig((INT,), const(INT)))

#: builtin constant name → type.
CONSTANTS: dict[str, Ty] = {
    "pi": REAL,
}


def resolve(table: dict[str, list[Sig]], name: str, arg_tys: list) -> tuple[Optional[Ty], Optional[str]]:
    """Resolve an overloaded name (see :func:`repro.core.ty.types.resolve`)."""
    return resolve_sigs(table.get(name, ()), arg_tys)
