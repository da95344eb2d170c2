"""The op table: every IR op declared once, every consumer derived.

The translation passes in :mod:`repro.core.xform` replace higher-level ops
with their lower-level equivalents (paper §5.1: "the translations between
these representations replaces higher-level operations with their
equivalent lower-level operations"); :func:`repro.core.ir.base.validate`
enforces that each function only uses its level's vocabulary.  One
:class:`OpInfo` row says everything the compiler knows about an op — the
levels it is legal at, its source spellings, its type signatures, its
NumPy and C meaning, its branch-cost weight and whether contraction may
fold it — and :data:`HIGH`/:data:`MID`/:data:`LOW`, the typechecker's
overload tables, ``to_high``'s name maps, the validator, ``pygen`` and
``cgen``'s elementwise emitter are all views of :data:`OPS` (DESIGN.md
"Adding an op").  :func:`heavy_arm` is the one cost model over the
``cost`` column: ``cgen`` branches around a heavy arm instead of blending
it, and ``pygen`` runs a heavy arm on its live lanes only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ir.base import Body, Instr
from repro.core.ty.types import (
    BOOL,
    D,
    D1,
    D2,
    D3,
    INT,
    REAL,
    STRING,
    TENSOR_S,
    Sig,
    TensorTy,
    const,
    subst,
)

_ALL = ("high", "mid", "low")
_LOWERED = ("mid", "low")


@dataclass(frozen=True)
class OpInfo:
    """One op.  Every op is pure (no side effects), which is what makes
    value numbering sound everywhere.

    ``surface``
        the source operator symbols and builtin function names that denote
        the op (syntactic forms — ``-x``, ``|x|``, ``a if c else b``,
        ``[a, b]``, ``t[i]``, ``identity[n]`` — are wired by hand in the
        typechecker and ``to_high``).
    ``sigs`` / ``rule``
        the type rule: overload patterns resolved by
        :func:`repro.core.ty.types.resolve`, or — for ops whose rule reads
        attributes or lowered type tags — the name of the
        ``verify.validate._TypeChecker`` method that implements it (the
        validator prefers ``rule``; the typechecker only sees ``sigs``).
    ``py``
        the NumPy meaning, an expression template ``pygen`` formats:
        ``{0}``.. argument names, ``{args}`` all of them, ``{o0}``.. their
        tensor orders and ``{ro}`` the result's, attributes by name
        (``_img_{image}`` is the bound image), ``{live}`` the lane-mask
        keyword of the faulting int ops.  Runtime functions are named,
        never captured: the perf ledger wraps ``runtime.ops`` by attribute.
    ``c``
        the scalar C meaning of an elementwise op, applied per element and
        lane by ``cgen`` (``{r1}`` is argument 1 cast to ``dd_real``);
        ``None`` for ops with a hand-written ``_Emitter._op_<name>``.
    ``py``/``c`` may be a dict by result kind (see :func:`template`).
    ``cost``
        branch weight (:func:`arm_cost`): emitted-loop trip count relative
        to one elementwise lane op.
    ``foldable``
        contraction evaluates the op when all arguments are constants,
        through its ``py`` template (``xform.contract._fold``).
    """

    doc: str
    py: str | dict[str, str]
    levels: tuple = _ALL
    surface: tuple = ()
    sigs: tuple = ()
    rule: str | None = None
    c: str | dict[str, str] | None = None
    cost: int = 1
    foldable: bool = True


def _det_sizes(env: dict) -> str | None:
    if env["d"] > 3:
        return f"det supports up to 3x3 matrices, got {env['d']}x{env['d']}"
    return None


_SQUARE = TensorTy((D, D))
_INT2 = Sig((INT, INT), const(INT))
_REAL1 = (Sig((REAL,), const(REAL)),)
_REAL2 = (Sig((REAL, REAL), const(REAL)),)
_BOOL2 = (Sig((BOOL, BOOL), const(BOOL)),)
_ADDSUB = (_INT2, Sig((TENSOR_S, TENSOR_S), subst(TENSOR_S)))
_ORDERED = (Sig((INT, INT), const(BOOL)), Sig((REAL, REAL), const(BOOL)))
_EQUALITY = _ORDERED + (
    Sig((BOOL, BOOL), const(BOOL)),
    Sig((STRING, STRING), const(BOOL)),
)
_MINMAX = (_INT2, Sig((REAL, REAL), const(REAL)))

OPS: dict[str, OpInfo] = {
    "const": OpInfo(
        "literal constant; attrs: value",
        py="{value}", rule="_op_const",
    ),
    # arithmetic --------------------------------------------------------------
    "add": OpInfo(
        "addition (add/subtract take two ints or two tensors of one shape)",
        surface=("+",), sigs=_ADDSUB, py="{0} + {1}", c="{0} + {1}",
    ),
    "sub": OpInfo(
        "subtraction (add/subtract take two ints or two tensors of one shape)",
        surface=("-",), sigs=_ADDSUB, py="{0} - {1}", c="{0} - {1}",
    ),
    "mul": OpInfo(
        "multiplication (int*int or scalar*tensor, either side)",
        surface=("*",),
        sigs=(
            _INT2,
            Sig((REAL, TENSOR_S), subst(TENSOR_S)),
            Sig((TENSOR_S, REAL), subst(TENSOR_S)),
        ),
        py={
            "int": "{0} * {1}",
            "mixed": "rt.scalar_broadcast_mul({0}, {1}, {o0}, {o1})",
            "real": "{0} * {1}",
        },
        c="{0} * {1}",
    ),
    "div": OpInfo(
        "division (int trunc-div, faulting on a live zero divisor, or "
        "tensor/scalar)",
        surface=("/",),
        sigs=(_INT2, Sig((TENSOR_S, REAL), subst(TENSOR_S))),
        py={
            "int": "rt.idiv({0}, {1}{live})",
            "mixed": "rt.scalar_broadcast_div({0}, {1}, {o0}, {o1})",
            "real": "rt.div0({0}, {1})",
        },
        c={"real": "{0} / {1}"},
    ),
    "mod": OpInfo(
        "int remainder (C semantics), faulting on a live zero divisor",
        surface=("%",), sigs=(_INT2,), py="rt.imod({0}, {1}{live})",
    ),
    "neg": OpInfo(
        "negation",
        sigs=(Sig((INT,), const(INT)), Sig((TENSOR_S,), subst(TENSOR_S))),
        py="-{0}", c="-{0}",
    ),
    "pow": OpInfo(
        "power (real^int or real^real)",
        surface=("^", "pow"),
        sigs=(Sig((REAL, INT), const(REAL)), Sig((REAL, REAL), const(REAL))),
        py="rt.power({0}, {1})", c="dd_pow({0}, {r1})", cost=8,
    ),
    # logic -------------------------------------------------------------------
    "and": OpInfo(
        "boolean and (strict)",
        surface=("&&",), sigs=_BOOL2,
        py="np.logical_and({0}, {1})", c="{0} && {1}",
    ),
    "or": OpInfo(
        "boolean or (strict)",
        surface=("||",), sigs=_BOOL2,
        py="np.logical_or({0}, {1})", c="{0} || {1}",
    ),
    "not": OpInfo(
        "boolean not",
        surface=("!",), sigs=(Sig((BOOL,), const(BOOL)),),
        py="np.logical_not({0})", c="!{0}",
    ),
    "select": OpInfo(
        "strict conditional value: select(cond, a, b)",
        rule="_op_select",
        py="rt.select({0}, {1}, {2}, {ro})", c="{0} ? {1} : {2}",
    ),
    # small-tensor algebra ----------------------------------------------------
    "dot": OpInfo(
        "inner product u•v / matrix-vector / matrix-matrix (paper §3.2)",
        surface=("•", "dot"),
        sigs=(
            Sig((TensorTy((D,)), TensorTy((D,))), const(REAL)),
            Sig((TensorTy((D1, D2)), TensorTy((D2,))), subst(TensorTy((D1,)))),
            Sig((TensorTy((D1,)), TensorTy((D1, D2))), subst(TensorTy((D2,)))),
            Sig((TensorTy((D1, D2)), TensorTy((D2, D3))),
                subst(TensorTy((D1, D3)))),
        ),
        py="rt.dot_ord({0}, {1}, {o0}, {o1})", cost=4,
    ),
    "cross": OpInfo(
        "cross product (3-D) or scalar cross (2-D)",
        surface=("×", "cross"),
        sigs=(
            Sig((TensorTy((3,)), TensorTy((3,))), const(TensorTy((3,)))),
            Sig((TensorTy((2,)), TensorTy((2,))), const(REAL)),
        ),
        py="rt.cross({0}, {1})",
    ),
    "outer": OpInfo(
        "tensor product u⊗v",
        surface=("⊗", "outer"),
        sigs=(Sig((TensorTy((D1,)), TensorTy((D2,))),
                  subst(TensorTy((D1, D2)))),),
        py="rt.outer({0}, {1})",
    ),
    "norm": OpInfo(
        "|t|: Euclidean / Frobenius norm; attrs: order",
        sigs=(Sig((TENSOR_S,), const(REAL)),), rule="_op_norm",
        py="rt.norm({0}, {order})",
    ),
    "trace": OpInfo(
        "trace of a square matrix",
        surface=("trace",), sigs=(Sig((_SQUARE,), const(REAL)),),
        py="rt.trace({0})",
    ),
    "det": OpInfo(
        "determinant of a square matrix up to 3x3",
        surface=("det",),
        sigs=(Sig((_SQUARE,), const(REAL), guard=_det_sizes),),
        py="rt.det({0})",
    ),
    "transpose": OpInfo(
        "matrix transpose",
        surface=("transpose",),
        sigs=(Sig((TensorTy((D1, D2)),), subst(TensorTy((D2, D1)))),),
        py="rt.transpose({0})",
    ),
    "evals": OpInfo(
        "eigenvalues of a symmetric (square) matrix, descending",
        surface=("evals",), sigs=(Sig((_SQUARE,), subst(TensorTy((D,)))),),
        py="rt.evals({0})", cost=24,
    ),
    "evecs": OpInfo(
        "eigenvectors of a symmetric (square) matrix (rows), matching evals",
        surface=("evecs",), sigs=(Sig((_SQUARE,), subst(_SQUARE)),),
        py="rt.evecs({0})", cost=48,
    ),
    "normalize_v": OpInfo(
        "unit vector (zero maps to zero)",
        surface=("normalize",),
        sigs=(Sig((TensorTy((D,)),), subst(TensorTy((D,)))),),
        py="rt.normalize_v({0})", cost=8,
    ),
    "tensor_cons": OpInfo(
        "stack args along a new leading axis",
        rule="_op_tensor_cons", py="rt.tensor_cons({o0}, {args})",
    ),
    "tensor_index": OpInfo(
        "constant indexing; attrs: indices",
        rule="_op_tensor_index",
        py="rt.tensor_index({0}, {indices!r}, {o0})",
    ),
    "identity": OpInfo(
        "identity matrix; attrs: n",
        rule="_op_identity", py="rt.identity({n}, _dt)",
    ),
    # scalar math -------------------------------------------------------------
    "atan2": OpInfo(
        "two-argument arctangent",
        surface=("atan2",), sigs=_REAL2,
        py="np.arctan2({0}, {1})", c="dd_atan2({0}, {1})",
    ),
    "fmod": OpInfo(
        "floating remainder",
        surface=("fmod",), sigs=_REAL2,
        py="np.fmod({0}, {1})", c="dd_fmod({0}, {1})",
    ),
    "min": OpInfo(
        "minimum (NaN from either side propagates)",
        surface=("min",), sigs=_MINMAX, py="np.minimum({0}, {1})",
        c={"int": "({0} < {1}) ? {0} : {1}", "real": "dd_min({0}, {1})"},
    ),
    "max": OpInfo(
        "maximum (NaN from either side propagates)",
        surface=("max",), sigs=_MINMAX, py="np.maximum({0}, {1})",
        c={"int": "({0} > {1}) ? {0} : {1}", "real": "dd_max({0}, {1})"},
    ),
    "abs": OpInfo(
        "absolute value",
        surface=("abs",),
        sigs=(Sig((INT,), const(INT)), Sig((REAL,), const(REAL))),
        py="np.abs({0})",
        c={"int": "({0} < 0) ? -{0} : {0}", "real": "dd_fabs({0})"},
    ),
    "clamp": OpInfo(
        "clamp(lo, hi, x) — Teem/Diderot argument order",
        surface=("clamp",), sigs=(Sig((REAL, REAL, REAL), const(REAL)),),
        py="rt.clamp({0}, {1}, {2})", c="dd_clamp({2}, {0}, {1})",
    ),
    "lerp": OpInfo(
        "lerp(a, b, t) = a + t*(b - a)",
        surface=("lerp",),
        sigs=(Sig((TENSOR_S, TENSOR_S, REAL), subst(TENSOR_S)),),
        py="rt.lerp({0}, {1}, {2}, {o0})", c="{0} + {2} * ({1} - {0})",
    ),
    "int_to_real": OpInfo(
        "int → real cast",
        surface=("real",), sigs=(Sig((INT,), const(REAL)),),
        py="rt.to_real({0}, _dt)", c="(dd_real){0}",
    ),
    "real_to_int": OpInfo(
        "real → int cast (truncating toward zero)",
        surface=("int",), sigs=(Sig((REAL,), const(INT)),),
        py="rt.to_int({0})", c="(int64_t){0}",
    ),
    # HighIR: the desugared source language — fields appear only as probes
    # of normalized convolutions (after field normalization) ------------------
    "probe": OpInfo(
        "probe V ⊛ ∇ⁱh at a world position; attrs: image, kernel, deriv, "
        "out_shape",
        levels=("high",), rule="_op_probe", foldable=False,
        py="rt.probe_high(_img_{image}, {kernel}, {0}, {deriv})",
    ),
    "inside": OpInfo(
        "domain test for a convolution field; attrs: image, support",
        levels=("high",), rule="_op_inside", foldable=False,
        py="rt.inside_high(_img_{image}, {support}, {0})",
    ),
    # MidIR: "supports vectors, transforms between coordinate spaces,
    # loading image data, and kernel evaluations.  At this stage, fields and
    # probes have been compiled away" (§5.1) ----------------------------------
    "to_index": OpInfo(
        "world → image-index position; attrs: image",
        levels=_LOWERED, rule="_op_to_index", foldable=False,
        py="rt.to_index(_img_{image}, {0})",
    ),
    "floor_i": OpInfo(
        "integer part of an index position (int vector)",
        levels=_LOWERED, rule="_op_floor_i", foldable=False,
        py="rt.floor_i({0})",
    ),
    "fract": OpInfo(
        "fractional part of an index position",
        levels=_LOWERED, rule="_op_fract", foldable=False,
        py="rt.fract({0})",
    ),
    "gather": OpInfo(
        "load the (2s)^d sample neighborhood; attrs: image, support",
        levels=_LOWERED, rule="_op_gather", foldable=False, cost=24,
        py="rt.gather(_img_{image}, {0}, {support})",
    ),
    "weights": OpInfo(
        "per-axis kernel weight vector h⁽ʳ⁾(f-i); attrs: kernel, deriv",
        levels=("mid",), rule="_op_weights", foldable=False,
        py="rt.weights({kernel}, {0}, {deriv})",
    ),
    "conv_contract": OpInfo(
        "contract a gathered neighborhood with per-axis weights; "
        "attrs: image (for the sample tensor shape)",
        levels=_LOWERED, rule="_op_conv_contract", foldable=False, cost=24,
        py="rt.conv_contract({args})",
    ),
    "deriv_assemble": OpInfo(
        "assemble per-derivative-combo contractions into one tensor; "
        "attrs: tshape, dim, deriv",
        levels=_LOWERED, rule="_op_deriv_assemble", foldable=False,
        py="rt.deriv_assemble([{args}], {tshape!r}, {dim}, {deriv})",
    ),
    "grad_xform": OpInfo(
        "apply M⁻ᵀ to the derivative axes of a probe result; "
        "attrs: image, deriv",
        levels=_LOWERED, rule="_op_grad_xform", foldable=False,
        py="rt.grad_xform(_img_{image}, {0}, {deriv})",
    ),
    "index_inside": OpInfo(
        "bounds test on floor indices; attrs: image, support",
        levels=_LOWERED, rule="_op_index_inside", foldable=False,
        py="rt.index_inside(_img_{image}, {0}, {support})",
    ),
    # probe-fusion ops (repro.core.xform.probe_fuse): separable contraction
    # of a gathered neighborhood, one sample axis at a time, so partial sums
    # are shared across the derivative combos of co-located probes.
    "contract_axis": OpInfo(
        "contract the leading remaining sample axis of a neighborhood (or "
        "partial contraction) with one weight vector; attrs: image, "
        "support, axes (sample axes remaining before this contraction)",
        levels=_LOWERED, rule="_op_contract_axis", foldable=False, cost=12,
        py="rt.contract_axis({0}, {1})",
    ),
    "probe_parts": OpInfo(
        "multi-result fused probe: evaluate several per-combo contractions "
        "of one gathered neighborhood through a shared partial-contraction "
        "tree; attrs: image, support, dim, specs (per-result tuple of "
        "weight-argument indices, one per sample axis)",
        levels=_LOWERED, rule="_op_probe_parts", foldable=False, cost=48,
        py="rt.probe_parts({specs!r}, {args})",
    ),
    # LowIR: "basic operations on vectors, scalars, and memory objects" —
    # kernel weight evaluation is now explicit Horner arithmetic --------------
    "horner": OpInfo(
        "evaluate a fixed polynomial by Horner's rule; attrs: coeffs "
        "({poly}: the arithmetic inline, paper §5.3)",
        levels=("low",), rule="_op_horner", py="{poly}", cost=3,
    ),
    "vec_cons": OpInfo(
        "pack scalar values into a vector",
        levels=("low",), rule="_op_vec_cons", py="rt.vec_cons({args})",
    ),
}

# the comparison and unary-real families differ only in a spelling
for _op, _sym in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("le", "<="),
                  ("gt", ">"), ("ge", ">=")):
    OPS[_op] = OpInfo(
        f"comparison a {_sym} b",
        surface=(_sym,), sigs=_EQUALITY if _op in ("eq", "ne") else _ORDERED,
        py=f"{{0}} {_sym} {{1}}", c=f"{{0}} {_sym} {{1}}",
    )
for _op, _np in (("sqrt", "sqrt"), ("sin", "sin"), ("cos", "cos"),
                 ("tan", "tan"), ("asin", "arcsin"), ("acos", "arccos"),
                 ("atan", "arctan"), ("exp", "exp"), ("log", "log"),
                 ("floor", "floor"), ("ceil", "ceil")):
    OPS[_op] = OpInfo(
        f"{_op} of a real",
        surface=(_op,), sigs=_REAL1,
        py=f"np.{_np}({{0}})", c=f"dd_{_op}({{0}})",
    )


def _level(level: str) -> dict[str, OpInfo]:
    return {name: info for name, info in OPS.items() if level in info.levels}


#: the three vocabularies, as views of the table
HIGH = _level("high")
MID = _level("mid")
LOW = _level("low")


def surface(functions: bool) -> dict[str, str]:
    """Source spelling → op name, for the builtin function names
    (``functions``) or for the operator symbols."""
    return {
        s: name
        for name, info in OPS.items()
        for s in info.surface
        if s.isidentifier() == functions
    }


def template(spec, instr):
    """The ``py``/``c`` template that applies to ``instr``.

    A dict selects by result kind: ``"int"``, else ``"mixed"`` (when the
    dict has it and the arguments' tensor orders differ — the
    scalar-broadcast forms), else ``"real"``; a missing kind is ``None``.
    """
    if not isinstance(spec, dict):
        return spec
    if instr.results[0].ty == INT:
        return spec.get("int")
    if "mixed" in spec and len({getattr(a.ty, "order", 0) for a in instr.args}) > 1:
        return spec["mixed"]
    return spec.get("real")


#: an ``if`` arm whose :func:`arm_cost` reaches this is *heavy*: ``cgen``
#: keeps a real ``if (any lane)`` branch around it (a lighter arm runs on
#: every lane and relies on the φ blend), and ``pygen`` runs it on the
#: block's live lanes only when the lanes disagree (a lighter arm runs on
#: every lane and relies on the φ select)
HEAVY_ARM_COST = 8


def arm_cost(body: Body) -> int:
    """Summed ``cost`` of an ``if`` arm, nested regions included (2 per
    region plus one per φ); an op the table lacks weighs 1."""
    cost = 0
    for item in body.items:
        if isinstance(item, Instr):
            info = LOW.get(item.op)
            cost += info.cost if info is not None else 1
        else:
            cost += (2 + arm_cost(item.then_body) + arm_cost(item.else_body)
                     + len(item.phis))
    return cost


def heavy_arm(body: Body) -> bool:
    """True when ``body`` is worth a branch (``cgen``) or a compaction
    (``pygen``) rather than running on every lane."""
    return arm_cost(body) >= HEAVY_ARM_COST
