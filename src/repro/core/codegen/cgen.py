"""LowIR -> C emitter for the native backend (strand-batched SIMD form).

``generate_c_module(high)`` walks the fully-lowered ``update`` function of a
compiled program and emits one self-contained C translation unit exposing a
single entry point, the super-step driver::

    int64_t dd_run(void **RP, int64_t **IP, unsigned char **BP,
                   const double *SC, const int64_t *IC,
                   int64_t *idx, int64_t *n_io, int64_t max_steps,
                   int64_t *counts, double *seconds);

``RP``/``IP``/``BP`` are flat per-strand buffers (real, int64, bool state plus
image voxel data and non-scalar globals), ``SC``/``IC`` carry scalar constants
(scalar globals, image origins / inverse transforms / sizes).  ``idx`` is the
caller's private work-list of ``*n_io`` active strand indices: ``dd_run``
updates them for up to ``max_steps`` super-steps, after each step compacting
the list in place to the strands still running and writing the step's
``(active, stable, died)`` counts to ``counts[3 * step ...]`` and its
``CLOCK_MONOTONIC`` duration to ``seconds[step]`` (both caller-owned, at
least ``max_steps`` rows).  It stops early when the list empties, stores the
remaining count in ``*n_io`` and returns the number of steps taken, or ``-1``
when an integer division by zero occurs on a live lane (the caller re-raises
``RuntimeErrorD`` to match the NumPy backend contract).

The update itself is the file-local ``dd_update(..., idx, start, end)``: one
pass over lanes ``[start, end)`` of an index list, where a ``NULL`` ``idx``
means the identity mapping ``lane == k``.  The driver picks that dense form
whenever the work-list is a contiguous ascending run (proved once at entry —
compaction preserves order — then an O(1) span test per step).

Unlike the PR 7 emitter (one scalar body per strand), the update loop is
*strand-batched*: strands are processed ``DD_VB`` at a time, every SSA value
becomes a small structure-of-arrays block (``dd_real v[size * DD_VB]``,
element-major with the lane index innermost, so each per-element lane loop is
a contiguous stride-1 access), and each LowIR op lowers to one or more
``#pragma omp simd`` lane loops that the C compiler turns into vector code.
Divergent control flow is if-converted: both arms of an ``IfRegion`` run on
all lanes under per-lane masks and the phis become branchless blends, except
that *heavy* arms (cost-modeled over the op table's ``cost`` column) keep a real
``if (any-lane)`` branch so a batch that uniformly skips an expensive probe
does no work for it — the blend-vs-branch cost model from the issue.

Per-lane arithmetic order is identical to the scalar emitter (contractions
accumulate in registers in the same serial order; no cross-lane reduction
exists anywhere), so the double-precision batched kernel is bit-identical to
the scalar one and keeps the 1e-12 differential agreement with the NumPy
backend.  NaN conventions are preserved: ``min``/``max`` propagate NaN from
either side, ``argmax``-style selections treat NaN as greater-than-everything
with first-wins ties, and the eigen decompositions mirror
:mod:`repro.tensors.eigen` operation for operation.  Double-precision builds
must use ``-ffp-contract=off`` so the compiler cannot fuse multiply-adds the
NumPy code performs as two roundings.

``generate_c_module(high, single=True)`` emits the same kernel over
``float``: ``dd_real`` becomes ``float``, every libm call switches to its
``f``-suffixed form, and all numeric literals (Horner coefficients included)
are rounded to float once at emission time and printed as exact hex float
literals.  The float kernel is validated against the float64 NumPy oracle at
a relaxed tolerance (see ``core.verify.fuzz``); it may use FMA contraction,
so ``-ffp-contract=off`` is *not* required on that path.

Alongside the C source, :func:`generate_c_module` returns a picklable *plan*
describing the buffer ABI: which state slot / image / global feeds each
pointer-table entry and each scalar-constant slot, plus ``real_dtype``
("float32"/"float64") and the batch width ``vb``.  The runtime binder
(:mod:`repro.runtime.native`) fills the tables from live arrays using only
the plan, so the same compiled artifact can be reused across runs (and
across forked process workers) without re-walking the IR.

Anything the emitter cannot translate raises
:class:`~repro.errors.CodegenError`; ``Program`` catches it and falls back to
the NumPy backend.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ...errors import CodegenError
from ..ir import ops as irops
from ..ir.base import Func, IfRegion, Instr, Phi, Value
from ..ty.types import BOOL, INT, TensorTy

__all__ = ["generate_c_module", "DEFAULT_VB_DOUBLE", "DEFAULT_VB_SINGLE", "MAX_VB"]

# Default strand-batch widths: 4 doubles or 8 floats fill one 256-bit
# vector per lane statement.  gcc prefers 256-bit vectors on current x86
# (512-bit widths measured slower on the headline probe), and a wider
# batch only grows the SoA scratch footprint without adding parallelism.
DEFAULT_VB_DOUBLE = 4
DEFAULT_VB_SINGLE = 8
#: widest batch the emitter accepts (widths run 1 .. MAX_VB)
MAX_VB = 64

# The blend-vs-branch model.  An IfRegion arm whose summed op weight (the
# op table's ``cost`` column) reaches _GUARD_MIN_COST keeps a real
# `if (any lane)` branch around it; cheaper arms always execute and rely on
# the phi blend alone.
_GUARD_MIN_COST = 8


# ---------------------------------------------------------------------------
# C helper prelude
# ---------------------------------------------------------------------------

_PRECISION_DOUBLE = """\
typedef double dd_real;
#define dd_sin sin
#define dd_cos cos
#define dd_tan tan
#define dd_asin asin
#define dd_acos acos
#define dd_atan atan
#define dd_exp exp
#define dd_log log
#define dd_sqrt sqrt
#define dd_ceil ceil
#define dd_floor floor
#define dd_atan2 atan2
#define dd_pow pow
#define dd_fmod fmod
#define dd_fabs fabs
"""

_PRECISION_SINGLE = """\
typedef float dd_real;
#define dd_sin sinf
#define dd_cos cosf
#define dd_tan tanf
#define dd_asin asinf
#define dd_acos acosf
#define dd_atan atanf
#define dd_exp expf
#define dd_log logf
#define dd_sqrt sqrtf
#define dd_ceil ceilf
#define dd_floor floorf
#define dd_atan2 atan2f
#define dd_pow powf
#define dd_fmod fmodf
#define dd_fabs fabsf
"""

# All helpers are static so multiple artifacts can coexist in one process.
# NaN behaviour is load-bearing throughout: see module docstring.  Literal
# constants stay double (C promotes, the store rounds), which keeps the
# double build bit-identical to the PR 7 scalar emitter.
_HELPERS = r"""
#define DD_PI 0x1.921fb54442d18p+1

static dd_real dd_min(dd_real a, dd_real b) {
    if (isnan(a)) return a;
    if (isnan(b)) return b;
    return (a < b) ? a : b;
}

static dd_real dd_max(dd_real a, dd_real b) {
    if (isnan(a)) return a;
    if (isnan(b)) return b;
    return (a > b) ? a : b;
}

static dd_real dd_clamp(dd_real x, dd_real lo, dd_real hi) {
    return dd_min(dd_max(x, lo), hi);
}

/* np.argmax tie-breaking: NaN counts as greater than everything, first
 * occurrence wins.  "x beats current best y" is therefore: x is NaN and y is
 * not, or x > y (false when either is NaN). */
static int dd_gt_nanfirst(dd_real x, dd_real y) {
    return (isnan(x) && !isnan(y)) || x > y;
}

/* np.argmin analog: NaN counts as less than everything, first wins. */
static int dd_lt_nanfirst(dd_real x, dd_real y) {
    return (isnan(x) && !isnan(y)) || x < y;
}

static void dd_cross3(const dd_real *u, const dd_real *v, dd_real *r) {
    r[0] = u[1] * v[2] - u[2] * v[1];
    r[1] = u[2] * v[0] - u[0] * v[2];
    r[2] = u[0] * v[1] - u[1] * v[0];
}

static dd_real dd_det3(const dd_real *m) {
    return m[0] * (m[4] * m[8] - m[5] * m[7])
         - m[1] * (m[3] * m[8] - m[5] * m[6])
         + m[2] * (m[3] * m[7] - m[4] * m[6]);
}

/* Mirrors tensors.ops.normalize: scale by the max |component| (NaN
 * propagates through the max), then divide by the scaled norm; an all-zero
 * vector maps to the zero vector. */
static void dd_normalize(const dd_real *u, int n, dd_real *r) {
    dd_real mx = dd_fabs(u[0]);
    int _i;
    for (_i = 1; _i < n; _i++) {
        dd_real av = dd_fabs(u[_i]);
        if (isnan(av) || av > mx) mx = av;
    }
    {
        dd_real ss = 0.0;
        for (_i = 0; _i < n; _i++) {
            dd_real s = u[_i] / mx;
            ss += s * s;
        }
        {
            dd_real nn = dd_sqrt(ss);
            for (_i = 0; _i < n; _i++) {
                dd_real out = (u[_i] / mx) / nn;
                r[_i] = (mx > 0.0) ? out : 0.0;
            }
        }
    }
}

/* Symmetric 2x2 eigenvalues, descending.  m = [a b; b d] row-major. */
static void dd_evals2(const dd_real *m, dd_real *lam) {
    dd_real a = m[0], b = m[1], d = m[3];
    dd_real mean = 0.5 * (a + d);
    dd_real rad = dd_sqrt(dd_max(0.25 * ((a - d) * (a - d)) + b * b, 0.0));
    lam[0] = mean + rad;
    lam[1] = mean - rad;
}

/* Symmetric 3x3 eigenvalues, descending (trigonometric method, Smith 1961).
 * Mirrors tensors.eigen._sym3 step for step, including the q*identity
 * subtraction (NaN q must poison every entry, so subtract q*(i==j) rather
 * than branching on the diagonal). */
static void dd_evals3(const dd_real *m, dd_real *lam) {
    dd_real q = (m[0] + m[4] + m[8]) / 3.0;
    dd_real a01 = m[1], a02 = m[2], a12 = m[5];
    dd_real p2 = (m[0] - q) * (m[0] - q) + (m[4] - q) * (m[4] - q)
              + (m[8] - q) * (m[8] - q)
              + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12);
    dd_real p = dd_sqrt(dd_max(p2 / 6.0, 0.0));
    dd_real safe_p = (p > 0.0) ? p : 1.0;
    dd_real dev[9];
    int _i, _j;
    for (_i = 0; _i < 3; _i++)
        for (_j = 0; _j < 3; _j++)
            dev[_i * 3 + _j] =
                (m[_i * 3 + _j] - q * ((_i == _j) ? 1.0 : 0.0)) / safe_p;
    {
        dd_real half_det = dd_clamp(0.5 * dd_det3(dev), -1.0, 1.0);
        dd_real phi = dd_acos(half_det) / 3.0;
        dd_real lam0 = q + 2.0 * p * dd_cos(phi);
        dd_real lam2 = q + 2.0 * p * dd_cos(phi + 2.0 * DD_PI / 3.0);
        dd_real lam1 = 3.0 * q - lam0 - lam2;
        if (p == 0.0) { lam0 = q; lam1 = q; lam2 = q; }
        lam[0] = lam0;
        lam[1] = lam1;
        lam[2] = lam2;
    }
}

/* Candidate eigenvector for eigenvalue lam of symmetric 3x3 m: the largest
 * cross product of row pairs of (m - lam I).  Returns the confidence value;
 * writes a unit vector (or the (1,0,0) fallback) into vec.  Mirrors
 * tensors.eigen._evec_raw including argmax NaN-first-wins selection. */
static dd_real dd_evec_raw(const dd_real *m, dd_real lam, dd_real *vec) {
    dd_real a[9];
    dd_real c01[3], c02[3], c12[3];
    dd_real n01, n02, n12;
    dd_real best[3];
    dd_real len2, length, scale2, conf;
    int good, _i, _j;
    for (_i = 0; _i < 3; _i++)
        for (_j = 0; _j < 3; _j++)
            a[_i * 3 + _j] = m[_i * 3 + _j] - lam * ((_i == _j) ? 1.0 : 0.0);
    dd_cross3(a + 0, a + 3, c01);
    dd_cross3(a + 0, a + 6, c02);
    dd_cross3(a + 3, a + 6, c12);
    n01 = c01[0] * c01[0] + c01[1] * c01[1] + c01[2] * c01[2];
    n02 = c02[0] * c02[0] + c02[1] * c02[1] + c02[2] * c02[2];
    n12 = c12[0] * c12[0] + c12[1] * c12[1] + c12[2] * c12[2];
    /* argmax over [n01, n02, n12], NaN-as-greatest, first wins. */
    best[0] = c01[0]; best[1] = c01[1]; best[2] = c01[2];
    len2 = n01;
    if (dd_gt_nanfirst(n02, len2)) {
        best[0] = c02[0]; best[1] = c02[1]; best[2] = c02[2];
        len2 = n02;
    }
    if (dd_gt_nanfirst(n12, len2)) {
        best[0] = c12[0]; best[1] = c12[1]; best[2] = c12[2];
        len2 = n12;
    }
    length = dd_sqrt(len2);
    scale2 = 0.0;
    for (_i = 0; _i < 9; _i++) scale2 += a[_i] * a[_i];
    conf = length / dd_max(scale2, 1e-24);
    good = length > 1e-24;
    if (good) {
        vec[0] = best[0] / length;
        vec[1] = best[1] / length;
        vec[2] = best[2] / length;
        return conf;
    }
    vec[0] = 1.0; vec[1] = 0.0; vec[2] = 0.0;
    return 0.0;
}

/* A unit vector orthogonal to v: cross v with the axis vector along v's
 * smallest |component| (argmin, NaN-as-least, first wins). */
static void dd_orth_unit(const dd_real *v, dd_real *r) {
    dd_real av0 = dd_fabs(v[0]), av1 = dd_fabs(v[1]), av2 = dd_fabs(v[2]);
    int ax = 0;
    dd_real e[3];
    dd_real len;
    if (dd_lt_nanfirst(av1, av0)) ax = 1;
    if (dd_lt_nanfirst(av2, (ax == 0) ? av0 : av1)) ax = 2;
    e[0] = 0.0; e[1] = 0.0; e[2] = 0.0;
    e[ax] = 1.0;
    dd_cross3(v, e, r);
    len = dd_sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]);
    len = (len > 0.0) ? len : 1.0;
    r[0] /= len; r[1] /= len; r[2] /= len;
}

/* Symmetric 2x2 eigenvectors as rows, matching tensors.eigen.evecs. */
static void dd_evecs2(const dd_real *m, dd_real *rows) {
    dd_real a = m[0], b = m[1], d = m[3];
    dd_real lam[2];
    int _i;
    dd_evals2(m, lam);
    for (_i = 0; _i < 2; _i++) {
        dd_real li = lam[_i];
        dd_real v1x = b, v1y = li - a;
        dd_real v2x = li - d, v2y = b;
        dd_real n1 = v1x * v1x + v1y * v1y;
        dd_real n2 = v2x * v2x + v2y * v2y;
        int pick1 = n1 >= n2;
        dd_real vx = pick1 ? v1x : v2x;
        dd_real vy = pick1 ? v1y : v2y;
        dd_real len = dd_sqrt(dd_max(vx * vx + vy * vy, 0.0));
        int good = len > 1e-24;
        rows[_i * 2 + 0] = good ? vx / len : ((_i == 0) ? 1.0 : 0.0);
        rows[_i * 2 + 1] = good ? vy / len : ((_i == 0) ? 0.0 : 1.0);
    }
}

/* Symmetric 3x3 eigenvectors as rows, matching tensors.eigen.evecs:
 * raw candidates for lam0/lam2, orthogonal-fallbacks for weak confidence,
 * Gram-Schmidt v2 against v0, middle vector by cross product. */
static void dd_evecs3(const dd_real *m, dd_real *rows) {
    dd_real lam[3];
    dd_real v0[3], v2[3];
    dd_real c0, c2;
    int w0, w2;
    dd_real ortho0[3];
    dd_real dotp, l2;
    dd_real v1[3];
    int _i;
    dd_evals3(m, lam);
    c0 = dd_evec_raw(m, lam[0], v0);
    c2 = dd_evec_raw(m, lam[2], v2);
    w0 = c0 <= 1e-10;
    w2 = c2 <= 1e-10;
    if (w2 && !w0) {
        dd_real ortho2[3];
        dd_orth_unit(v0, ortho2);
        v2[0] = ortho2[0]; v2[1] = ortho2[1]; v2[2] = ortho2[2];
    }
    if (w0) {
        dd_orth_unit(v2, ortho0);
        v0[0] = ortho0[0]; v0[1] = ortho0[1]; v0[2] = ortho0[2];
    } else {
        /* keep ortho0 available for the degenerate-v2 fallback below; it is
         * a pure function of v2 so compute it unconditionally. */
        dd_orth_unit(v2, ortho0);
    }
    dotp = v2[0] * v0[0] + v2[1] * v0[1] + v2[2] * v0[2];
    for (_i = 0; _i < 3; _i++) v2[_i] -= dotp * v0[_i];
    l2 = dd_sqrt(v2[0] * v2[0] + v2[1] * v2[1] + v2[2] * v2[2]);
    if (l2 > 1e-24) {
        for (_i = 0; _i < 3; _i++) v2[_i] /= l2;
    } else {
        /* degenerate after projection: fall back to a vector orthogonal to
         * the *original* v2 — but v2 has been mutated, so the Python code's
         * equivalent (recomputing from the pre-Gram-Schmidt v2) is the
         * ortho0 captured above. */
        v2[0] = ortho0[0]; v2[1] = ortho0[1]; v2[2] = ortho0[2];
    }
    dd_cross3(v2, v0, v1);
    rows[0] = v0[0]; rows[1] = v0[1]; rows[2] = v0[2];
    rows[3] = v1[0]; rows[4] = v1[1]; rows[5] = v1[2];
    rows[6] = v2[0]; rows[7] = v2[1]; rows[8] = v2[2];
}
"""


# The one exported entry point.  Strand status codes are the runtime's
# (0 running, 1 stabilized, 2 died); %d is the status slot in IP.
_DRIVER = """
int64_t dd_run(void **RP, int64_t **IP, unsigned char **BP,
               const double *SC, const int64_t *IC,
               int64_t *idx, int64_t *n_io, int64_t max_steps,
               int64_t *counts, double *seconds) {
    const int64_t *const status = IP[%d];
    int64_t n = *n_io, step = 0, i;
    /* compaction keeps a strictly ascending list strictly ascending, so
     * one proof at entry makes every later density test O(1) */
    int ascending = 1;
    for (i = 1; i < n; i++) ascending &= idx[i] > idx[i - 1];
    for (; step < max_steps && n > 0; step++) {
        struct timespec t0, t1;
        int64_t live = 0, stable = 0;
        int rc;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        if (ascending && idx[n - 1] - idx[0] == n - 1)
            rc = dd_update(RP, IP, BP, SC, IC, 0, idx[0], idx[0] + n);
        else
            rc = dd_update(RP, IP, BP, SC, IC, idx, 0, n);
        if (rc) return -rc;
        for (i = 0; i < n; i++) {
            const int64_t s = status[idx[i]];
            if (s == 0) idx[live++] = idx[i];
            else stable += s == 1;
        }
        clock_gettime(CLOCK_MONOTONIC, &t1);
        counts[3 * step] = n;
        counts[3 * step + 1] = stable;
        counts[3 * step + 2] = n - live - stable;
        seconds[step] = (double)(t1.tv_sec - t0.tv_sec)
            + 1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);
        n = live;
    }
    *n_io = n;
    return step;
}
"""


def _prelude(single: bool, vb: int) -> str:
    precision = _PRECISION_SINGLE if single else _PRECISION_DOUBLE
    return (
        "#include <stdint.h>\n"
        "#include <math.h>\n"
        "#include <time.h>\n\n"
        f"#define DD_VB {vb}\n"
        '#define DD_SIMD _Pragma("omp simd")\n'
        # one out-of-line copy of the batch body, whatever the driver's
        # call sites look like: compile time and rounding stay those of
        # a single function
        "#if defined(__GNUC__) && !defined(__clang__)\n"
        "#define DD_NOINLINE __attribute__((noinline, noclone))\n"
        "#else\n"
        "#define DD_NOINLINE __attribute__((noinline))\n"
        "#endif\n\n"
        + precision
        + _HELPERS
    )


# ---------------------------------------------------------------------------
# Type helpers
# ---------------------------------------------------------------------------


def _tensor_size(ty: Any) -> int:
    """Flat element count for a REAL/tensor type (1 for a scalar)."""
    n = 1
    for s in ty.shape:
        n *= s
    return n


def _val_size(ty: Any) -> int:
    """Flat element count of a value of any LowIR type tag."""
    if ty == INT or ty == BOOL or isinstance(ty, (type(INT), type(BOOL))):
        return 1
    if isinstance(ty, TensorTy):
        return _tensor_size(ty)
    if isinstance(ty, tuple):
        tag = ty[0]
        if tag == "ivec":
            return int(ty[1])
        if tag == "weights":
            return int(ty[1])
        # vox / part sizes depend on image metadata; resolved by callers that
        # carry the image table.
    raise CodegenError(f"cgen: cannot size type {ty!r}")


def _c_float(x: float, single: bool = False) -> str:
    """An exact C literal for a Python float (rounded once for float)."""
    if single:
        x = float(np.float32(x))
        if math.isnan(x):
            return "NAN"
        if math.isinf(x):
            return "INFINITY" if x > 0 else "-INFINITY"
        if x == int(x) and abs(x) < 1e15:
            return f"{x:.1f}f"
        return float(x).hex() + "f"
    if math.isnan(x):
        return "NAN"
    if math.isinf(x):
        return "INFINITY" if x > 0 else "-INFINITY"
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return float(x).hex()


def _c_int(x: int) -> str:
    x = int(x)
    if x == -(2**63):
        return "(-9223372036854775807LL - 1)"
    return f"{x}LL"


class _Namer:
    """Stable C identifiers for SSA values and a counter for scratch names.

    Values are numbered densely in first-use order: ``Value.id`` comes
    from a process-wide counter, so printing it would make the n-th
    compile of a source emit a different translation unit (and key a
    different artifact) than the first.
    """

    def __init__(self) -> None:
        self._uid = 0
        self._vals: dict[int, str] = {}

    def val(self, v: Value) -> str:
        name = self._vals.get(v.id)
        if name is None:
            name = self._vals[v.id] = f"v{len(self._vals)}"
        return name

    def fresh(self, stem: str) -> str:
        self._uid += 1
        return f"_{stem}{self._uid}"


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------


class _Emitter:
    def __init__(self, high: Any, single: bool = False, batch: int | None = None) -> None:
        self.high = high
        self.func: Func = high.update_func
        self.images = dict(high.images)
        self.single = bool(single)
        if batch is None:
            batch = DEFAULT_VB_SINGLE if single else DEFAULT_VB_DOUBLE
        batch = int(batch)
        if not 1 <= batch <= MAX_VB:
            raise CodegenError(f"cgen: batch width {batch} out of range [1, {MAX_VB}]")
        self.vb = batch
        self.names = _Namer()
        self.lines: list[str] = []
        self.indent = 1
        # value id -> flat element count of the logical value
        self.sizes: dict[int, int] = {}
        # value id -> "array" | "scalar" (logical shape; varying scalars are
        # still DD_VB-wide C arrays, one slot per lane)
        self.kinds: dict[int, str] = {}
        # ids of lane-invariant values (globals + hoisted constants)
        self.uniform: set[int] = set()
        # ids of values that must be zero-initialized (phi operands: their
        # defining arm may be skipped by an any-lane guard)
        self.zero_init: set[int] = set()
        # IfRegion predication masks, innermost last (C names of int[DD_VB])
        self.mask_stack: list[str] = []
        # plan tables, filled by _build_plan
        self.plan: dict[str, Any] = {}
        self.real_ptr_index: dict[Any, int] = {}
        self.int_ptr_index: dict[Any, int] = {}
        self.bool_ptr_index: dict[Any, int] = {}
        self.sc_index: dict[Any, int] = {}
        self.ic_index: dict[Any, int] = {}

    # -- plumbing -----------------------------------------------------------

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent) + line if line else "")

    def fail(self, msg: str) -> None:
        raise CodegenError(f"cgen: {msg}")

    def flit(self, x: float) -> str:
        return _c_float(float(x), self.single)

    # -- lane-loop helpers --------------------------------------------------

    def lane_stmt(self, stmt: str, simd: bool = True) -> None:
        """One lane loop ``for (_l = 0; _l < _n; _l++) stmt``."""
        if simd and self.vb > 1:
            self.emit("DD_SIMD")
        self.emit(f"for (int _l = 0; _l < _n; _l++) {stmt}")

    def lane_open(self, simd: bool = True) -> None:
        if simd and self.vb > 1:
            self.emit("DD_SIMD")
        self.emit("for (int _l = 0; _l < _n; _l++) {")
        self.indent += 1

    def lane_close(self) -> None:
        self.indent -= 1
        self.emit("}")

    # -- image metadata -----------------------------------------------------

    def _image_info(self, name: str) -> tuple[int, int]:
        """(dim, tensor element count) for an image by name."""
        slot = self.images.get(name)
        if slot is None:
            self.fail(f"unknown image {name!r}")
        tsize = 1
        for s in slot.shape:
            tsize *= s
        return slot.dim, tsize

    def _vox_size(self, ty: Any) -> int:
        tag = ty[0]
        if tag == "vox":
            _, img, s = ty
            dim, tsize = self._image_info(img)
            return ((2 * int(s)) ** dim) * tsize
        if tag == "part":
            _, img, s, axes = ty
            _, tsize = self._image_info(img)
            return ((2 * int(s)) ** int(axes)) * tsize
        self.fail(f"cannot size type {ty!r}")
        return 0  # unreachable

    def size_of(self, v: Value) -> int:
        sz = self.sizes.get(v.id)
        if sz is None:
            self.fail(f"value v{v.id} has no recorded size")
        return sz

    def compute_size(self, ty: Any) -> int:
        if isinstance(ty, tuple) and ty[0] in ("vox", "part"):
            return self._vox_size(ty)
        return _val_size(ty)

    # -- value references ---------------------------------------------------

    def is_scalar_val(self, v: Value) -> bool:
        return self.kinds.get(v.id) == "scalar"

    def ref(self, v: Value, e: str | int = 0, lane: str = "_l") -> str:
        """C expression for element ``e`` of value ``v`` on lane ``lane``."""
        name = self.names.val(v)
        uni = v.id in self.uniform
        if self.kinds.get(v.id) == "scalar":
            return name if uni else f"{name}[{lane}]"
        if uni:
            return f"{name}[{e}]"
        if isinstance(e, int):
            return f"{name}[{e * self.vb} + {lane}]"
        return f"{name}[({e}) * DD_VB + {lane}]"

    # -- plan construction --------------------------------------------------

    def _build_plan(self) -> None:
        high = self.high
        func = self.func
        used_images = sorted(
            {
                ins.attrs["image"]
                for ins in func.body.instructions()
                if isinstance(ins, Instr) and "image" in ins.attrs
            }
        )
        for name in used_images:
            if name not in self.images:
                self.fail(f"instruction references unknown image {name!r}")

        n_globals = len(high.concrete_globals)
        state_names = list(high.state_order) + list(high.extra_state)
        n_state = len(state_names)
        if len(func.params) != n_globals + n_state:
            self.fail(
                "update function arity mismatch: "
                f"{len(func.params)} params vs {n_globals} globals + {n_state} state"
            )
        # update returns one result per *written* state slot (a prefix of
        # the slots, in state order) plus status; immutable extras at the
        # tail are read-only parameters with no writeback
        n_ret = len(func.results) - 1
        if not 0 <= n_ret <= n_state:
            self.fail(
                f"update result arity mismatch: {len(func.results)} results "
                f"vs {n_state} state + status"
            )

        real_ptrs: list[tuple] = []
        int_ptrs: list[tuple] = []
        bool_ptrs: list[tuple] = []
        sc: list[tuple] = []
        ic: list[tuple] = []

        for name in used_images:
            self.real_ptr_index[("image", name)] = len(real_ptrs)
            real_ptrs.append(("image", name))

        for gi in range(n_globals):
            ty = func.params[gi].ty
            if isinstance(ty, TensorTy) and ty.shape != ():
                self.real_ptr_index[("global", gi)] = len(real_ptrs)
                real_ptrs.append(("global", gi))
            elif isinstance(ty, TensorTy):
                self.sc_index[("global", gi)] = len(sc)
                sc.append(("global", gi))
            elif ty == INT or ty == BOOL:
                self.ic_index[("global", gi)] = len(ic)
                ic.append(("global", gi))
            else:
                self.fail(f"unsupported global type {ty!r}")

        for si in range(n_state):
            ty = func.params[n_globals + si].ty
            if isinstance(ty, TensorTy):
                self.real_ptr_index[("state", si)] = len(real_ptrs)
                real_ptrs.append(("state", si))
            elif ty == INT:
                self.int_ptr_index[("state", si)] = len(int_ptrs)
                int_ptrs.append(("state", si))
            elif ty == BOOL:
                self.bool_ptr_index[("state", si)] = len(bool_ptrs)
                bool_ptrs.append(("state", si))
            else:
                self.fail(f"unsupported state type {ty!r}")

        # strand status lives in the int pointer table, after the state
        self.int_ptr_index[("status",)] = len(int_ptrs)
        int_ptrs.append(("status",))

        # footprint outputs (incremental re-execution): per gathered
        # image, (strands, dim) lo/hi index boxes.  The binder passes NULL
        # when the run does not record.
        gathered = sorted(
            {
                ins.attrs["image"]
                for ins in func.body.instructions()
                if isinstance(ins, Instr) and ins.op == "gather"
            }
        )
        for name in gathered:
            for kind in ("fp_lo", "fp_hi"):
                self.int_ptr_index[(kind, name)] = len(int_ptrs)
                int_ptrs.append((kind, name))

        for name in used_images:
            slot = self.images[name]
            d = slot.dim
            self.sc_index[("origin", name)] = len(sc)
            sc.extend(("origin", name) for _ in range(d))
            self.sc_index[("minv", name)] = len(sc)
            sc.extend(("minv", name) for _ in range(d * d))
            self.sc_index[("gxf", name)] = len(sc)
            sc.extend(("gxf", name) for _ in range(d * d))
            self.ic_index[("sizes", name)] = len(ic)
            ic.extend(("sizes", name) for _ in range(d))

        self.plan = {
            "real_ptrs": real_ptrs,
            "int_ptrs": int_ptrs,
            "bool_ptrs": bool_ptrs,
            "sc": sc,
            "ic": ic,
            "images": used_images,
            "n_globals": n_globals,
            "n_state": n_state,
            "n_ret": n_ret,
            "real_dtype": "float32" if self.single else "float64",
            "vb": self.vb,
        }

    # -- declarations -------------------------------------------------------

    def _collect_phi_operands(self, body) -> None:
        """Mark every phi operand for zero-initialization: its defining arm
        may sit behind an any-lane guard that a batch skips entirely, and the
        blend must then read a defined (if irrelevant) value."""
        for item in body.items:
            if isinstance(item, IfRegion):
                for phi in item.phis:
                    self.zero_init.add(phi.then_val.id)
                    self.zero_init.add(phi.else_val.id)
                self._collect_phi_operands(item.then_body)
                self._collect_phi_operands(item.else_body)

    def _declare_results(self, body) -> None:
        """Hoist C declarations for every Instr/Phi result in the body tree.

        Constant instructions become initialized lane-invariant declarations
        here (their op handler is then a no-op); everything else is a varying
        SoA block sized ``size * DD_VB``."""
        for item in body.items:
            if isinstance(item, Instr):
                if item.op == "const":
                    continue  # hoisted to function scope by _declare_consts
                for r in item.results:
                    self._declare_value(r)
            elif isinstance(item, IfRegion):
                self._declare_results(item.then_body)
                self._declare_results(item.else_body)
                for phi in item.phis:
                    self._declare_value(phi.result)

    def _declare_const(self, ins: Instr) -> None:
        res = ins.result
        v = ins.attrs["value"]
        name = self.names.val(res)
        self.uniform.add(res.id)
        if res.ty == BOOL:
            self.kinds[res.id] = "scalar"
            self.sizes[res.id] = 1
            self.emit(f"const int {name} = {1 if v else 0};")
        elif res.ty == INT:
            self.kinds[res.id] = "scalar"
            self.sizes[res.id] = 1
            self.emit(f"const int64_t {name} = {_c_int(v)};")
        elif isinstance(res.ty, TensorTy):
            try:
                arr = np.asarray(v, dtype=np.float64).reshape(-1)
            except (TypeError, ValueError) as exc:
                self.fail(f"const has non-numeric payload {v!r}: {exc}")
            sz = _tensor_size(res.ty)
            self.sizes[res.id] = sz
            if res.ty.shape == ():
                self.kinds[res.id] = "scalar"
                self.emit(f"const dd_real {name} = {self.flit(arr[0])};")
            else:
                self.kinds[res.id] = "array"
                lits = ", ".join(self.flit(x) for x in arr)
                self.emit(f"const dd_real {name}[{sz}] = {{{lits}}};")
        else:
            self.fail(f"const of unsupported type {res.ty!r}")

    def _declare_value(self, v: Value) -> None:
        ty = v.ty
        name = self.names.val(v)
        init = " = {0}" if v.id in self.zero_init else ""
        if ty == INT:
            self.kinds[v.id] = "scalar"
            self.sizes[v.id] = 1
            self.emit(f"int64_t {name}[DD_VB]{init};")
        elif ty == BOOL:
            self.kinds[v.id] = "scalar"
            self.sizes[v.id] = 1
            self.emit(f"int {name}[DD_VB]{init};")
        elif isinstance(ty, TensorTy):
            sz = _tensor_size(ty)
            self.sizes[v.id] = sz
            if ty.shape == ():
                self.kinds[v.id] = "scalar"
                self.emit(f"dd_real {name}[DD_VB]{init};")
            else:
                self.kinds[v.id] = "array"
                self.emit(f"dd_real {name}[{sz} * DD_VB]{init};")
        elif isinstance(ty, tuple) and ty[0] == "ivec":
            self.kinds[v.id] = "array"
            self.sizes[v.id] = int(ty[1])
            self.emit(f"int64_t {name}[{int(ty[1])} * DD_VB]{init};")
        elif isinstance(ty, tuple) and ty[0] in ("weights", "vox", "part"):
            sz = self.compute_size(ty)
            self.kinds[v.id] = "array"
            self.sizes[v.id] = sz
            self.emit(f"dd_real {name}[{sz} * DD_VB]{init};")
        else:
            self.fail(f"cannot declare value of type {ty!r}")

    # -- elementwise helpers ------------------------------------------------

    def _bcast_ref(self, v: Value, idx: str | int, out_size: int) -> str:
        """Reference operand ``v`` inside an elementwise loop of ``out_size``.

        Mirrors runtime _align: a smaller operand of size ka is indexed by
        ``i / (out_size // ka)`` (trailing singleton padding)."""
        if self.is_scalar_val(v):
            return self.ref(v)
        ka = self.size_of(v)
        if ka == out_size:
            return self.ref(v, idx)
        if ka == 1:
            return self.ref(v, 0)
        if out_size % ka != 0:
            self.fail(f"broadcast mismatch: operand size {ka} vs result {out_size}")
        step = out_size // ka
        if isinstance(idx, int):
            return self.ref(v, idx // step)
        return self.ref(v, f"({idx}) / {step}")

    def _ew_loop(self, res: Value, body_fn) -> None:
        """Element loop outer, SIMD lane loop inner, assigning each element.

        ``body_fn(idx_expr) -> rhs C expression`` (may reference lane _l)."""
        name = self.names.val(res)
        if self.is_scalar_val(res):
            self.lane_stmt(f"{name}[_l] = {body_fn(0)};")
            return
        sz = self.size_of(res)
        e = self.names.fresh("e")
        self.emit(f"for (int {e} = 0; {e} < {sz}; {e}++) {{")
        self.indent += 1
        self.lane_stmt(f"{name}[({e}) * DD_VB + _l] = {body_fn(e)};")
        self.indent -= 1
        self.emit("}")

    # -- instruction dispatch -----------------------------------------------

    def _emit_instr(self, ins: Instr) -> None:
        """An op with a ``c`` template in the op table for this result kind
        is elementwise; every other op has a hand-written ``_op_<name>``."""
        op = ins.op
        info = irops.LOW.get(op)
        tmpl = irops.template(info.c, ins) if info is not None else None
        if tmpl is not None:
            self._elementwise(ins, tmpl)
            return
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            self.fail(f"unsupported LowIR op {op!r}")
        handler(ins)

    def _elementwise(self, ins: Instr, tmpl: str) -> None:
        """``tmpl`` over every element and lane, smaller operands broadcast
        (``{r<i>}``: argument i as a real)."""
        res = ins.result
        sz = self.size_of(res)

        def rhs(i):
            refs = [self._bcast_ref(a, i, sz) for a in ins.args]
            reals = {
                f"r{k}": f"(dd_real){r}" if a.ty == INT else r
                for k, (a, r) in enumerate(zip(ins.args, refs))
            }
            return tmpl.format(*refs, **reals)

        self._ew_loop(res, rhs)

    # .. constants ..........................................................

    def _op_const(self, ins: Instr) -> None:
        # Constants are hoisted to lane-invariant initialized declarations
        # (see _declare_const); nothing to do at the original program point.
        pass

    # .. integer division (the real forms are elementwise) ...................

    def _int_div_like(self, ins: Instr, cop: str) -> None:
        """Integer / and % with the runtime's zero-divisor contract: a zero
        divisor on a *live* lane (under the current predication mask) is the
        "integer division by zero" fault; dead lanes compute a sanitized 0
        through a safe divisor so no lane ever traps."""
        a, b = ins.args
        res = ins.result
        name = self.names.val(res)
        bn = self.ref(b)
        mask = self.mask_stack[-1] if self.mask_stack else None
        if mask is None:
            self.lane_stmt(f"if ({bn} == 0) return 1;", simd=False)
            self.lane_stmt(f"{name}[_l] = {self.ref(a)} {cop} {bn};", simd=False)
        else:
            self.lane_stmt(f"if ({mask}[_l] && {bn} == 0) return 1;", simd=False)
            self.lane_open(simd=False)
            self.emit(f"int64_t _d = ({bn} == 0) ? 1 : {bn};")
            self.emit(f"{name}[_l] = ({bn} == 0) ? 0 : {self.ref(a)} {cop} _d;")
            self.lane_close()

    def _op_div(self, ins: Instr) -> None:
        # C truncation-toward-zero matches the NumPy backend's idiv.
        self._int_div_like(ins, "/")

    def _op_mod(self, ins: Instr) -> None:
        # imod = a - idiv(a,b)*b; C % has the same truncated semantics.
        self._int_div_like(ins, "%")

    # .. tensor algebra ......................................................

    def _op_dot(self, ins: Instr) -> None:
        a, b = ins.args
        res = ins.result
        oa = a.ty.order if isinstance(a.ty, TensorTy) else 0
        ob = b.ty.order if isinstance(b.ty, TensorTy) else 0
        name = self.names.val(res)
        # the k reduction is unrolled (left-associated) so the lane loop
        # stays straight-line code the compiler will vectorize
        if oa == 1 and ob == 1:
            n = self.size_of(a)
            chain = " + ".join(
                f"{self.ref(a, k)} * {self.ref(b, k)}" for k in range(n)
            )
            self.lane_stmt(f"{name}[_l] = {chain};")
        elif oa == 2 and ob == 1:
            rows, n = a.ty.shape
            i = self.names.fresh("i")
            self.emit(f"for (int {i} = 0; {i} < {rows}; {i}++) {{")
            self.indent += 1
            chain = " + ".join(
                f"{self.ref(a, f'{i} * {n} + {k}')} * {self.ref(b, k)}"
                for k in range(n)
            )
            self.lane_stmt(f"{name}[({i}) * DD_VB + _l] = {chain};")
            self.indent -= 1
            self.emit("}")
        elif oa == 1 and ob == 2:
            n, cols = b.ty.shape
            j = self.names.fresh("j")
            self.emit(f"for (int {j} = 0; {j} < {cols}; {j}++) {{")
            self.indent += 1
            chain = " + ".join(
                f"{self.ref(a, k)} * {self.ref(b, f'{k} * {cols} + {j}')}"
                for k in range(n)
            )
            self.lane_stmt(f"{name}[({j}) * DD_VB + _l] = {chain};")
            self.indent -= 1
            self.emit("}")
        elif oa == 2 and ob == 2:
            rows, n = a.ty.shape
            cols = b.ty.shape[1]
            i = self.names.fresh("i")
            j = self.names.fresh("j")
            self.emit(f"for (int {i} = 0; {i} < {rows}; {i}++)")
            self.emit(f"for (int {j} = 0; {j} < {cols}; {j}++) {{")
            self.indent += 1
            chain = " + ".join(
                f"{self.ref(a, f'{i} * {n} + {k}')} * "
                f"{self.ref(b, f'{k} * {cols} + {j}')}"
                for k in range(n)
            )
            self.lane_stmt(f"{name}[({i} * {cols} + {j}) * DD_VB + _l] = {chain};")
            self.indent -= 1
            self.emit("}")
        else:
            self.fail(f"dot of orders ({oa}, {ob}) is not supported")

    def _op_cross(self, ins: Instr) -> None:
        a, b = ins.args
        res = ins.result
        name = self.names.val(res)
        if self.size_of(a) == 2:
            self.lane_stmt(
                f"{name}[_l] = {self.ref(a, 0)} * {self.ref(b, 1)} - "
                f"{self.ref(a, 1)} * {self.ref(b, 0)};"
            )
            return
        # inline dd_cross3 component by component (same parenthesization)
        for r, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            self.lane_stmt(
                f"{name}[{r * self.vb} + _l] = "
                f"{self.ref(a, i)} * {self.ref(b, j)} - "
                f"{self.ref(a, j)} * {self.ref(b, i)};"
            )

    def _op_outer(self, ins: Instr) -> None:
        a, b = ins.args
        res = ins.result
        n = self.size_of(a)
        m = self.size_of(b)
        name = self.names.val(res)
        i = self.names.fresh("i")
        j = self.names.fresh("j")
        self.emit(f"for (int {i} = 0; {i} < {n}; {i}++)")
        self.emit(f"for (int {j} = 0; {j} < {m}; {j}++) {{")
        self.indent += 1
        self.lane_stmt(
            f"{name}[({i} * {m} + {j}) * DD_VB + _l] = "
            f"{self.ref(a, i)} * {self.ref(b, j)};"
        )
        self.indent -= 1
        self.emit("}")

    def _op_trace(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        n = a.ty.shape[0]
        terms = " + ".join(self.ref(a, i * n + i) for i in range(n))
        self.lane_stmt(f"{self.names.val(res)}[_l] = {terms};")

    def _op_transpose(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        r, c = a.ty.shape
        name = self.names.val(res)
        for i in range(r):
            for j in range(c):
                self.lane_stmt(
                    f"{name}[{(j * r + i) * self.vb} + _l] = {self.ref(a, i * c + j)};"
                )

    def _op_det(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        n = a.ty.shape[0]
        name = self.names.val(res)
        if n == 1:
            self.lane_stmt(f"{name}[_l] = {self.ref(a, 0)};")
        elif n == 2:
            self.lane_stmt(
                f"{name}[_l] = {self.ref(a, 0)} * {self.ref(a, 3)} - "
                f"{self.ref(a, 1)} * {self.ref(a, 2)};"
            )
        elif n == 3:
            # inline dd_det3 with identical parenthesization
            m = [self.ref(a, i) for i in range(9)]
            self.lane_stmt(
                f"{name}[_l] = {m[0]} * ({m[4]} * {m[8]} - {m[5]} * {m[7]}) - "
                f"{m[1]} * ({m[3]} * {m[8]} - {m[5]} * {m[6]}) + "
                f"{m[2]} * ({m[3]} * {m[7]} - {m[4]} * {m[6]});"
            )
        else:
            self.fail(f"det of {n}x{n} matrix is not supported")

    def _op_norm(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        order = ins.attrs.get("order", a.ty.order if isinstance(a.ty, TensorTy) else 0)
        name = self.names.val(res)
        if order == 0:
            self.lane_stmt(f"{name}[_l] = dd_fabs({self.ref(a)});")
            return
        n = self.size_of(a)
        chain = " + ".join(f"{self.ref(a, k)} * {self.ref(a, k)}" for k in range(n))
        self.lane_stmt(f"{name}[_l] = dd_sqrt({chain});")

    def _lanewise_helper(self, ins: Instr, call_fn) -> None:
        """Per-lane AoS extract -> helper call -> SoA insert, for the eigen/
        normalize helpers that are intrinsically scalar per strand.

        ``call_fn(in_name, out_name)`` returns the C call statement."""
        (a,) = ins.args
        res = ins.result
        in_sz = self.size_of(a)
        out_sz = self.size_of(res)
        e = self.names.fresh("e")
        self.lane_open(simd=False)
        self.emit(f"dd_real _in[{in_sz}];")
        self.emit(f"dd_real _out[{out_sz}];")
        self.emit(
            f"for (int {e} = 0; {e} < {in_sz}; {e}++) _in[{e}] = {self.ref(a, e)};"
        )
        self.emit(call_fn("_in", "_out"))
        name = self.names.val(res)
        if self.is_scalar_val(res):
            self.emit(f"{name}[_l] = _out[0];")
        else:
            self.emit(
                f"for (int {e} = 0; {e} < {out_sz}; {e}++) "
                f"{name}[({e}) * DD_VB + _l] = _out[{e}];"
            )
        self.lane_close()

    def _op_normalize_v(self, ins: Instr) -> None:
        n = self.size_of(ins.args[0])
        self._lanewise_helper(ins, lambda i, o: f"dd_normalize({i}, {n}, {o});")

    def _sym_helper(self, ins: Instr, stem: str) -> None:
        (a,) = ins.args
        n = a.ty.shape[0]
        if n not in (2, 3):
            self.fail(f"{stem} of {n}x{n} matrix is not supported")

        def call(i, o):
            return f"dd_{stem}{n}(_s, {o});"

        # symmetrize into _s inside the per-lane block, then call the helper
        res = ins.result
        out_sz = self.size_of(res)
        e = self.names.fresh("e")
        i = self.names.fresh("i")
        j = self.names.fresh("j")
        self.lane_open(simd=False)
        self.emit(f"dd_real _s[{n * n}];")
        self.emit(f"dd_real _out[{out_sz}];")
        self.emit(f"for (int {i} = 0; {i} < {n}; {i}++)")
        self.emit(
            f"    for (int {j} = 0; {j} < {n}; {j}++) "
            f"_s[{i} * {n} + {j}] = 0.5 * ({self.ref(a, f'{i} * {n} + {j}')} + "
            f"{self.ref(a, f'{j} * {n} + {i}')});"
        )
        self.emit(call("_s", "_out"))
        name = self.names.val(res)
        self.emit(
            f"for (int {e} = 0; {e} < {out_sz}; {e}++) "
            f"{name}[({e}) * DD_VB + _l] = _out[{e}];"
        )
        self.lane_close()

    def _op_evals(self, ins: Instr) -> None:
        self._sym_helper(ins, "evals")

    def _op_evecs(self, ins: Instr) -> None:
        self._sym_helper(ins, "evecs")

    # .. construction / indexing ............................................

    def _op_tensor_cons(self, ins: Instr) -> None:
        res = ins.result
        name = self.names.val(res)
        elem_size = self.size_of(res) // len(ins.args)
        for e, arg in enumerate(ins.args):
            if self.is_scalar_val(arg):
                self.lane_stmt(f"{name}[{e * elem_size * self.vb} + _l] = {self.ref(arg)};")
            else:
                i = self.names.fresh("i")
                self.emit(f"for (int {i} = 0; {i} < {elem_size}; {i}++) {{")
                self.indent += 1
                self.lane_stmt(
                    f"{name}[({e * elem_size} + {i}) * DD_VB + _l] = "
                    f"{self.ref(arg, i)};"
                )
                self.indent -= 1
                self.emit("}")

    def _op_vec_cons(self, ins: Instr) -> None:
        res = ins.result
        name = self.names.val(res)
        for i, arg in enumerate(ins.args):
            self.lane_stmt(f"{name}[{i * self.vb} + _l] = {self.ref(arg)};")

    def _op_tensor_index(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        indices = tuple(ins.attrs["indices"])
        shape = a.ty.shape
        if len(indices) > len(shape):
            self.fail("tensor_index with more indices than axes")
        # flat offset of the selected subtensor
        off = 0
        for pos, ind in enumerate(indices):
            off = off * shape[pos] + int(ind)
        rest = 1
        for s in shape[len(indices):]:
            rest *= s
        off *= rest
        name = self.names.val(res)
        if self.is_scalar_val(res):
            self.lane_stmt(f"{name}[_l] = {self.ref(a, off)};")
        else:
            i = self.names.fresh("i")
            self.emit(f"for (int {i} = 0; {i} < {rest}; {i}++) {{")
            self.indent += 1
            self.lane_stmt(
                f"{name}[({i}) * DD_VB + _l] = {self.ref(a, f'{off} + {i}')};"
            )
            self.indent -= 1
            self.emit("}")

    def _op_identity(self, ins: Instr) -> None:
        res = ins.result
        n = int(ins.attrs["n"])
        name = self.names.val(res)
        for i in range(n):
            for j in range(n):
                lit = self.flit(1.0 if i == j else 0.0)
                self.lane_stmt(f"{name}[{(i * n + j) * self.vb} + _l] = {lit};")

    # .. probing pipeline ....................................................

    def _op_to_index(self, ins: Instr) -> None:
        (pos,) = ins.args
        res = ins.result
        img = ins.attrs["image"]
        d, _ = self._image_info(img)
        name = self.names.val(res)
        porg = f"_org_{img}"
        pminv = f"_minv_{img}"
        for j in range(d):
            terms = " + ".join(
                f"({self.ref(pos, k)} - {porg}[{k}]) * {pminv}[{j * d + k}]"
                for k in range(d)
            )
            self.lane_stmt(f"{name}[{j * self.vb} + _l] = {terms};")

    def _op_floor_i(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        d = self.size_of(res)
        name = self.names.val(res)
        big = self.flit(1099511627776.0)
        i = self.names.fresh("i")
        self.emit(f"for (int {i} = 0; {i} < {d}; {i}++) {{")
        self.indent += 1
        self.lane_open()
        src = self.ref(a, i)
        self.emit(f"dd_real _c = isfinite({src}) ? {src} : 0.0;")
        self.emit(f"_c = dd_clamp(_c, -{big}, {big});")
        self.emit(f"{name}[({i}) * DD_VB + _l] = (int64_t)dd_floor(_c);")
        self.lane_close()
        self.indent -= 1
        self.emit("}")

    def _op_fract(self, ins: Instr) -> None:
        # Fractional part of the cleaned index-space position, matching
        # fields.probe.split_position (non-finite -> 0, clamp to +/-2^40).
        (a,) = ins.args
        res = ins.result
        d = self.size_of(res)
        name = self.names.val(res)
        big = self.flit(1099511627776.0)
        i = self.names.fresh("i")
        self.emit(f"for (int {i} = 0; {i} < {d}; {i}++) {{")
        self.indent += 1
        self.lane_open()
        src = self.ref(a, i)
        self.emit(f"dd_real _c = isfinite({src}) ? {src} : 0.0;")
        self.emit(f"_c = dd_clamp(_c, -{big}, {big});")
        self.emit(f"{name}[({i}) * DD_VB + _l] = _c - dd_floor(_c);")
        self.lane_close()
        self.indent -= 1
        self.emit("}")

    def _op_gather(self, ins: Instr) -> None:
        (n,) = ins.args
        res = ins.result
        img = ins.attrs["image"]
        s = int(ins.attrs["support"])
        d, tsize = self._image_info(img)
        w = 2 * s
        name = self.names.val(res)
        vox = f"_vox_{img}"
        szs = f"_sz_{img}"
        # Per-axis flat strides (innermost = tsize), then branchless-clamped
        # SoA offset tables holding clip(n + off, 0, size-1) * stride —
        # premultiplying here turns the per-tap address math into pure adds
        # (w**d taps each reusing the d*w products computed once).
        st_names = [self.names.fresh("st") for _ in range(d)]
        self.emit(f"const int64_t {st_names[d - 1]} = {tsize};")
        for ax in range(d - 2, -1, -1):
            self.emit(
                f"const int64_t {st_names[ax]} = "
                f"{szs}[{ax + 1}] * {st_names[ax + 1]};"
            )
        tables = []
        for ax in range(d):
            t = self.names.fresh("ix")
            tables.append(t)
            i = self.names.fresh("i")
            self.emit(f"int64_t {t}[{w} * DD_VB];")
            self.emit(f"for (int {i} = 0; {i} < {w}; {i}++) {{")
            self.indent += 1
            self.lane_open()
            self.emit(f"int64_t _x = {self.ref(n, ax)} + ({i} + {1 - s});")
            self.emit("_x = (_x < 0) ? 0 : _x;")
            self.emit(f"int64_t _mx = {szs}[{ax}] - 1;")
            self.emit("_x = (_x > _mx) ? _mx : _x;")
            self.emit(f"{t}[({i}) * DD_VB + _l] = _x * {st_names[ax]};")
            self.lane_close()
            self.indent -= 1
            self.emit("}")
        self._record_footprint(n, img, s, d)
        # Row-major tap loops; per tap, a lane-inner SIMD offset+copy.
        # Partial offset sums are hoisted per loop level so the innermost
        # tap adds exactly one table entry.  The output element counter _q
        # advances once per emitted element.
        q = self.names.fresh("q")
        self.emit(f"int64_t {q} = 0;")
        ivars = [self.names.fresh("i") for _ in range(d)]

        def table_ref(ax: int) -> str:
            return f"{tables[ax]}[({ivars[ax]}) * DD_VB + _l]"

        partial = None  # lane-_l ref of the hoisted offset prefix sum
        for ax in range(d):
            self.emit(f"for (int {ivars[ax]} = 0; {ivars[ax]} < {w}; {ivars[ax]}++) {{")
            self.indent += 1
            if 1 <= ax <= d - 2:
                po = self.names.fresh("po")
                self.emit(f"int64_t {po}[DD_VB];")
                self.lane_stmt(
                    f"{po}[_l] = {partial or table_ref(0)} + {table_ref(ax)};"
                )
                partial = f"{po}[_l]"
        if d == 1:
            off = table_ref(0)
        else:
            off = f"{partial or table_ref(0)} + {table_ref(d - 1)}"
        if tsize == 1:
            self.lane_stmt(f"{name}[({q}) * DD_VB + _l] = {vox}[{off}];")
            self.emit(f"{q}++;")
        else:
            t = self.names.fresh("t")
            self.emit(f"for (int {t} = 0; {t} < {tsize}; {t}++) {{")
            self.indent += 1
            self.lane_stmt(
                f"{name}[({q}) * DD_VB + _l] = {vox}[({off}) + {t}];"
            )
            self.emit(f"{q}++;")
            self.indent -= 1
            self.emit("}")
        for _ in range(d):
            self.indent -= 1
            self.emit("}")

    def _record_footprint(self, n: Value, img: str, s: int, d: int) -> None:
        """Fold this gather's sample box into each live lane's footprint.

        The box is the tap tables' first and last entry per axis, i.e.
        ``clip(n + 1 - s)`` and ``clip(n + s)`` — what
        ``FootprintRecorder.on_gather`` records for the NumPy backend.
        Lanes predicated off by an enclosing ``if`` are skipped: the phi
        blend discards whatever they gathered.  One NULL test outside the
        lane loop keeps an unrecorded run on the tap code alone.
        """
        lo = f"_ip{self.int_ptr_index[('fp_lo', img)]}"
        hi = f"_ip{self.int_ptr_index[('fp_hi', img)]}"
        self.emit(f"if ({lo}) {{")
        self.indent += 1
        self.lane_open(simd=False)
        if self.mask_stack:
            self.emit(f"if (!{self.mask_stack[-1]}[_l]) continue;")
        self.emit(f"const int64_t _r = _lane[_l] * {d};")
        for ax in range(d):
            self.emit("{")
            self.indent += 1
            self.emit(f"const int64_t _mx = _sz_{img}[{ax}] - 1;")
            for var, off in (("_a", 1 - s), ("_b", s)):
                self.emit(f"int64_t {var} = {self.ref(n, ax)} + ({off});")
                self.emit(f"{var} = ({var} < 0) ? 0 : {var};")
                self.emit(f"{var} = ({var} > _mx) ? _mx : {var};")
            self.emit(f"if (_a < {lo}[_r + {ax}]) {lo}[_r + {ax}] = _a;")
            self.emit(f"if (_b > {hi}[_r + {ax}]) {hi}[_r + {ax}] = _b;")
            self.indent -= 1
            self.emit("}")
        self.lane_close()
        self.indent -= 1
        self.emit("}")

    def _op_index_inside(self, ins: Instr) -> None:
        # Mirrors runtime.ops.index_inside: the argument is the *real*
        # index-space position; non-finite coordinates are outside by
        # definition, and the bounds test uses split_position's floor.
        # Branchless form (sticky _ok over unrolled axes) so the lane loop
        # vectorizes; identical results to the early-break original.
        (pos,) = ins.args
        res = ins.result
        img = ins.attrs["image"]
        s = int(ins.attrs["support"])
        d, _ = self._image_info(img)
        szs = f"_sz_{img}"
        name = self.names.val(res)
        big = self.flit(1099511627776.0)
        self.lane_open()
        self.emit("int _ok = 1;")
        for ax in range(d):
            p = self.ref(pos, ax)
            self.emit("{")
            self.indent += 1
            self.emit(f"dd_real _c = isfinite({p}) ? {p} : 0.0;")
            self.emit(f"_c = dd_clamp(_c, -{big}, {big});")
            self.emit("int64_t _nv = (int64_t)dd_floor(_c);")
            self.emit(
                f"_ok = _ok & (isfinite({p}) != 0) & (_nv >= {s - 1}) & "
                f"(_nv <= {szs}[{ax}] - 1 - {s});"
            )
            self.indent -= 1
            self.emit("}")
        self.emit(f"{name}[_l] = _ok;")
        self.lane_close()

    def _op_horner(self, ins: Instr) -> None:
        (f,) = ins.args
        res = ins.result
        coeffs = list(ins.attrs["coeffs"])
        name = self.names.val(res)
        if len(coeffs) == 1:
            self.lane_stmt(f"{name}[_l] = {self.flit(coeffs[0])};")
            return
        # One SIMD lane loop with a scalar register chain per lane.
        self.lane_open()
        self.emit(f"dd_real _f = {self.ref(f)};")
        self.emit(f"dd_real _h = {self.flit(coeffs[-1])};")
        for c in reversed(coeffs[:-1]):
            self.emit(f"_h = _h * _f + {self.flit(c)};")
        self.emit(f"{name}[_l] = _h;")
        self.lane_close()

    def _op_conv_contract(self, ins: Instr) -> None:
        vox = ins.args[0]
        weights = ins.args[1:]
        res = ins.result
        img = ins.attrs["image"]
        d, tsize = self._image_info(img)
        if len(weights) != d:
            self.fail("conv_contract weight count does not match image dim")
        w = self.size_of(weights[0])
        name = self.names.val(res)
        out_sz = self.size_of(res) if not self.is_scalar_val(res) else 1
        scalar = self.is_scalar_val(res)
        # zero-init, then accumulate tap by tap (same serial order per lane
        # as the scalar emitter)
        if scalar:
            self.lane_stmt(f"{name}[_l] = 0.0;")
        else:
            z = self.names.fresh("z")
            self.emit(f"for (int {z} = 0; {z} < {out_sz}; {z}++) {{")
            self.indent += 1
            self.lane_stmt(f"{name}[({z}) * DD_VB + _l] = 0.0;")
            self.indent -= 1
            self.emit("}")
        ivars = [self.names.fresh("i") for _ in range(d)]
        for ax in range(d):
            self.emit(f"for (int {ivars[ax]} = 0; {ivars[ax]} < {w}; {ivars[ax]}++) {{")
            self.indent += 1
        off = self.names.fresh("o")
        expr = ivars[0]
        for ax in range(1, d):
            expr = f"({expr} * {w} + {ivars[ax]})"
        self.emit(f"int64_t {off} = (int64_t)({expr}) * {tsize};")
        wprod = " * ".join(self.ref(weights[ax], ivars[ax]) for ax in range(d))
        if scalar:
            self.lane_stmt(f"{name}[_l] += {self.ref(vox, off)} * {wprod};")
        else:
            t = self.names.fresh("t")
            self.emit(f"for (int {t} = 0; {t} < {out_sz}; {t}++) {{")
            self.indent += 1
            self.lane_stmt(
                f"{name}[({t}) * DD_VB + _l] += "
                f"{self.ref(vox, f'{off} + {t}')} * {wprod};"
            )
            self.indent -= 1
            self.emit("}")
        for _ in range(d):
            self.indent -= 1
            self.emit("}")

    def _contract_step(self, out_name: str, out_scalar: bool, out_size: int,
                       in_ref, w_ref, w: int) -> None:
        """One axis contraction with a per-lane register accumulator:
        out[m] = sum_a in[a * out_size + m] * wv[a], ``a`` ascending (same
        serial order as the scalar emitter's += loop).

        ``in_ref(elem_expr)`` / ``w_ref(elem_expr)`` produce lane-_l refs.

        The ``a`` reduction is unrolled into a left-associated chain: gcc
        refuses to outer-vectorize a lane loop containing an inner serial
        reduction ("complicated access pattern"), but vectorizes the same
        straight-line chain trivially — and the association order matches
        the scalar += loop, preserving the 1e-12 oracle agreement."""
        if out_scalar:
            chain = " + ".join(f"{in_ref(a)} * {w_ref(a)}" for a in range(w))
            self.lane_stmt(f"{out_name}[_l] = {chain};")
            return
        m = self.names.fresh("m")
        self.emit(f"for (int {m} = 0; {m} < {out_size}; {m}++) {{")
        self.indent += 1
        chain = " + ".join(
            f"{in_ref(f'{a * out_size} + {m}')} * {w_ref(a)}" for a in range(w)
        )
        self.lane_stmt(f"{out_name}[({m}) * DD_VB + _l] = {chain};")
        self.indent -= 1
        self.emit("}")

    def _op_contract_axis(self, ins: Instr) -> None:
        x, wv = ins.args
        res = ins.result
        w = self.size_of(wv)
        in_sz = self.size_of(x)
        out_sz = 1 if self.is_scalar_val(res) else self.size_of(res)
        if in_sz != w * out_sz:
            self.fail("contract_axis size mismatch")
        self._contract_step(
            self.names.val(res), self.is_scalar_val(res), out_sz,
            lambda e: self.ref(x, e), lambda e: self.ref(wv, e), w,
        )

    def _op_probe_parts(self, ins: Instr) -> None:
        vox = ins.args[0]
        weights = ins.args[1:]
        specs = ins.attrs["specs"]
        img = ins.attrs["image"]
        d, tsize = self._image_info(img)
        w = self.size_of(weights[0]) if weights else 0
        # Prefix-memoized axis-at-a-time contraction, matching
        # runtime.ops.probe_parts: axes contract left to right and partial
        # sums are shared across results on their weight-index prefix.
        # cache: weight-index prefix -> (C name, size) of the partial sum
        cache: dict[tuple, str] = {}
        for ri, spec in enumerate(specs):
            spec = tuple(spec)
            if len(spec) != d:
                self.fail("probe_parts spec length does not match image dim")
            res = ins.results[ri]
            cur_name = self.names.val(vox)
            cur_val: Value | None = vox
            prefix: tuple = ()
            for step, wi in enumerate(spec):
                prefix = prefix + (wi,)
                is_last = step == d - 1
                out_size = (w ** (d - step - 1)) * tsize
                if is_last:
                    out_name = self.names.val(res)
                    out_is_scalar = self.is_scalar_val(res)
                else:
                    hit = cache.get(prefix)
                    if hit is not None:
                        cur_name = hit
                        cur_val = None
                        continue
                    out_name = self.names.fresh("pp")
                    self.emit(f"dd_real {out_name}[{out_size} * DD_VB];")
                    out_is_scalar = False
                wv = weights[wi]
                in_name = cur_name
                in_val = cur_val

                def in_ref(e, _n=in_name, _v=in_val):
                    if _v is not None:
                        return self.ref(_v, e)
                    return f"{_n}[({e}) * DD_VB + _l]"

                self._contract_step(
                    out_name, out_is_scalar, out_size,
                    in_ref, lambda e, _w=wv: self.ref(_w, e), w,
                )
                if not is_last:
                    cache[prefix] = out_name
                cur_name = out_name
                cur_val = res if is_last else None

    def _op_deriv_assemble(self, ins: Instr) -> None:
        parts = ins.args
        res = ins.result
        dim = int(ins.attrs["dim"])
        deriv = int(ins.attrs["deriv"])
        tshape = tuple(ins.attrs.get("tshape", ()))
        tlen = 1
        for s in tshape:
            tlen *= s
        name = self.names.val(res)
        ncomb = dim**deriv
        if len(parts) != ncomb:
            self.fail("deriv_assemble part count mismatch")
        if deriv == 0:
            (p,) = parts
            if self.is_scalar_val(res):
                self.lane_stmt(f"{name}[_l] = {self.ref(p)};")
            else:
                i = self.names.fresh("i")
                self.emit(f"for (int {i} = 0; {i} < {tlen}; {i}++) {{")
                self.indent += 1
                self.lane_stmt(f"{name}[({i}) * DD_VB + _l] = {self.ref(p, i)};")
                self.indent -= 1
                self.emit("}")
            return
        # result layout: tshape axes first, then deriv axes (runtime stacks
        # parts leading, reshapes to head+(dim,)*deriv+tshape, then moves the
        # deriv axes after tshape): out[t * ncomb + c] = parts[c][t]
        for c, p in enumerate(parts):
            if tlen == 1:
                self.lane_stmt(f"{name}[{c * self.vb} + _l] = {self.ref(p)};")
            else:
                t = self.names.fresh("t")
                self.emit(f"for (int {t} = 0; {t} < {tlen}; {t}++) {{")
                self.indent += 1
                self.lane_stmt(
                    f"{name}[({t} * {ncomb} + {c}) * DD_VB + _l] = {self.ref(p, t)};"
                )
                self.indent -= 1
                self.emit("}")

    def _op_grad_xform(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        img = ins.attrs["image"]
        deriv = int(ins.attrs["deriv"])
        d, _ = self._image_info(img)
        gxf = f"_gxf_{img}"
        name = self.names.val(res)
        if deriv == 0:
            if self.is_scalar_val(res):
                self.lane_stmt(f"{name}[_l] = {self.ref(a)};")
            else:
                sz = self.size_of(res)
                i = self.names.fresh("i")
                self.emit(f"for (int {i} = 0; {i} < {sz}; {i}++) {{")
                self.indent += 1
                self.lane_stmt(f"{name}[({i}) * DD_VB + _l] = {self.ref(a, i)};")
                self.indent -= 1
                self.emit("}")
            return
        total = self.size_of(res)
        # shape = tshape + (d,)*deriv; transform each deriv axis in turn:
        # dst[(o*d + j)*inner + m] = sum_k src[(o*d + k)*inner + m] * gxf[j*d+k]
        src_val: Value | None = a
        src_name = self.names.val(a)
        for pos in range(deriv):
            # deriv axes sit after the tensor axes; axis index from the right:
            inner = d ** (deriv - 1 - pos)
            blocks = total // (d * inner)
            if pos == deriv - 1:
                dst = name
            else:
                dst = self.names.fresh("gx")
                self.emit(f"dd_real {dst}[{total} * DD_VB];")
            o = self.names.fresh("o")
            j = self.names.fresh("j")
            m = self.names.fresh("m")
            self.emit(f"for (int {o} = 0; {o} < {blocks}; {o}++)")
            self.emit(f"for (int {j} = 0; {j} < {d}; {j}++)")
            self.emit(f"for (int {m} = 0; {m} < {inner}; {m}++) {{")
            self.indent += 1

            def src_ref(e, _v=src_val, _n=src_name):
                if _v is not None:
                    return self.ref(_v, e)
                return f"{_n}[({e}) * DD_VB + _l]"

            chain = " + ".join(
                f"{src_ref(f'(({o} * {d}) + {k}) * {inner} + {m}')} * "
                f"{gxf}[{j} * {d} + {k}]"
                for k in range(d)
            )
            self.lane_stmt(
                f"{dst}[((({o} * {d}) + {j}) * {inner} + {m}) * DD_VB + _l] = {chain};"
            )
            self.indent -= 1
            self.emit("}")
            src_name = dst
            src_val = None

    # -- control flow --------------------------------------------------------

    def _body_cost(self, body) -> int:
        """Blend-vs-branch weight of an IfRegion arm (the op table's costs)."""
        cost = 0
        for item in body.items:
            if isinstance(item, Instr):
                info = irops.LOW.get(item.op)  # an unknown op fails at emission
                cost += info.cost if info is not None else 1
            elif isinstance(item, IfRegion):
                cost += (
                    2
                    + self._body_cost(item.then_body)
                    + self._body_cost(item.else_body)
                    + len(item.phis)
                )
        return cost

    def _emit_region(self, region: IfRegion) -> None:
        """If-converted region: per-lane then/else masks (ANDed with the
        enclosing mask), both arms executed on all lanes — except that heavy
        arms keep a real `if (any lane)` branch — and branchless phi blends.
        """
        mt = self.names.fresh("mt")
        me = self.names.fresh("me")
        enc = self.mask_stack[-1] if self.mask_stack else None
        cexpr = self.ref(region.cond)
        self.emit(f"int {mt}[DD_VB];")
        self.emit(f"int {me}[DD_VB];")
        if enc is None:
            self.lane_stmt(f"{{ {mt}[_l] = ({cexpr}) != 0; {me}[_l] = !({cexpr}); }}")
        else:
            self.lane_stmt(
                f"{{ {mt}[_l] = {enc}[_l] && ({cexpr}); "
                f"{me}[_l] = {enc}[_l] && !({cexpr}); }}"
            )
        for mask, arm in ((mt, region.then_body), (me, region.else_body)):
            if not arm.items:
                continue
            guarded = self._body_cost(arm) >= _GUARD_MIN_COST
            if guarded:
                anyv = self.names.fresh("any")
                self.emit(f"int {anyv} = 0;")
                self.lane_stmt(f"{anyv} |= {mask}[_l];", simd=False)
                self.emit(f"if ({anyv}) {{")
                self.indent += 1
            self.mask_stack.append(mask)
            self._emit_body(arm)
            self.mask_stack.pop()
            if guarded:
                self.indent -= 1
                self.emit("}")
        for phi in region.phis:
            res = phi.result
            sz = self.size_of(res)
            tv, ev = phi.then_val, phi.else_val
            self._ew_loop(
                res,
                lambda i, _t=tv, _e=ev: (
                    f"{mt}[_l] ? {self._bcast_ref(_t, i, sz)} : "
                    f"{self._bcast_ref(_e, i, sz)}"
                ),
            )

    def _emit_body(self, body) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                if item.op == "const":
                    continue  # hoisted
                self.emit("{")
                self.indent += 1
                self._emit_instr(item)
                self.indent -= 1
                self.emit("}")
            elif isinstance(item, IfRegion):
                self._emit_region(item)
            elif isinstance(item, Phi):
                self.fail("loose Phi outside IfRegion")
            else:
                self.fail(f"unknown body item {type(item).__name__}")

    def _declare_consts(self, body) -> None:
        """Hoist constants to initialized lane-invariant function-scope
        declarations (they are pure, so hoisting out of arms is safe)."""
        for item in body.items:
            if isinstance(item, Instr) and item.op == "const":
                self._declare_const(item)
            elif isinstance(item, IfRegion):
                self._declare_consts(item.then_body)
                self._declare_consts(item.else_body)

    # -- batch body -----------------------------------------------------------

    def _emit_batch_body(self) -> None:
        """The per-batch strand update over lanes ``_k0 .. _k0 + _n``.

        Emitted once and spliced twice by ``generate`` — into the main loop
        (where ``_n`` is the constant ``DD_VB``, so every lane loop has a
        compile-time trip count) and into the tail-batch block."""
        func = self.func
        n_globals = self.plan["n_globals"]
        n_state = self.plan["n_state"]

        self.emit("int64_t _lane[DD_VB];")
        self.emit("if (idx) {")
        self.indent += 1
        self.lane_stmt("_lane[_l] = idx[_k0 + _l];", simd=False)
        self.indent -= 1
        self.emit("} else {")
        self.indent += 1
        self.lane_stmt("_lane[_l] = _k0 + _l;", simd=False)
        self.indent -= 1
        self.emit("}")

        # state parameter loads (SoA gather by lane)
        for si in range(n_state):
            p = func.params[n_globals + si]
            ty = p.ty
            name = self.names.val(p)
            if isinstance(ty, TensorTy):
                rp = self.real_ptr_index[("state", si)]
                sz = _tensor_size(ty)
                self.sizes[p.id] = sz
                if ty.shape == ():
                    self.kinds[p.id] = "scalar"
                    self.emit(f"dd_real {name}[DD_VB];")
                    self.lane_stmt(f"{name}[_l] = _rp{rp}[_lane[_l]];")
                else:
                    self.kinds[p.id] = "array"
                    self.emit(f"dd_real {name}[{sz} * DD_VB];")
                    e = self.names.fresh("e")
                    self.emit(f"for (int {e} = 0; {e} < {sz}; {e}++) {{")
                    self.indent += 1
                    self.lane_stmt(
                        f"{name}[({e}) * DD_VB + _l] = "
                        f"_rp{rp}[_lane[_l] * {sz} + {e}];"
                    )
                    self.indent -= 1
                    self.emit("}")
            elif ty == INT:
                ip = self.int_ptr_index[("state", si)]
                self.kinds[p.id] = "scalar"
                self.sizes[p.id] = 1
                self.emit(f"int64_t {name}[DD_VB];")
                self.lane_stmt(f"{name}[_l] = _ip{ip}[_lane[_l]];")
            elif ty == BOOL:
                bp = self.bool_ptr_index[("state", si)]
                self.kinds[p.id] = "scalar"
                self.sizes[p.id] = 1
                self.emit(f"int {name}[DD_VB];")
                self.lane_stmt(f"{name}[_l] = _bp{bp}[_lane[_l]] != 0;")
            else:
                self.fail(f"unsupported state type {ty!r}")

        # hoisted declarations for all instruction results, then the body
        self._declare_results(func.body)
        self._emit_body(func.body)

        # writebacks: results[:-1] are the *written* state slots in order
        # (a prefix of the slots — immutable extras at the tail are never
        # returned), results[-1] is the strand status.
        results = func.results
        n_ret = self.plan["n_ret"]
        for si in range(n_ret):
            r = results[si]
            p_ty = func.params[n_globals + si].ty
            if isinstance(p_ty, TensorTy):
                rp = self.real_ptr_index[("state", si)]
                sz = _tensor_size(p_ty)
                if p_ty.shape == ():
                    self.lane_stmt(f"_rp{rp}[_lane[_l]] = {self.ref(r)};")
                else:
                    e = self.names.fresh("e")
                    self.emit(f"for (int {e} = 0; {e} < {sz}; {e}++) {{")
                    self.indent += 1
                    self.lane_stmt(
                        f"_rp{rp}[_lane[_l] * {sz} + {e}] = {self.ref(r, e)};"
                    )
                    self.indent -= 1
                    self.emit("}")
            elif p_ty == INT:
                ip = self.int_ptr_index[("state", si)]
                self.lane_stmt(f"_ip{ip}[_lane[_l]] = {self.ref(r)};")
            elif p_ty == BOOL:
                bp = self.bool_ptr_index[("state", si)]
                self.lane_stmt(
                    f"_bp{bp}[_lane[_l]] = (unsigned char)({self.ref(r)} != 0);"
                )
        status_ip = self.int_ptr_index[("status",)]
        self.lane_stmt(f"_ip{status_ip}[_lane[_l]] = {self.ref(results[-1])};")

    # -- top-level -----------------------------------------------------------

    def generate(self) -> tuple[str, dict]:
        self._build_plan()
        func = self.func
        plan = self.plan
        n_globals = plan["n_globals"]

        out: list[str] = [_prelude(self.single, self.vb)]
        out.append(
            "static DD_NOINLINE int dd_update(\n"
            "        void **RP, int64_t **IP, unsigned char **BP,\n"
            "        const double *SC, const int64_t *IC,\n"
            "        const int64_t *idx, int64_t start, int64_t end) {"
        )
        self.lines = []
        self.indent = 1

        # pointer-table aliases (RP entries carry dd_real payloads).  The
        # binder refuses aliasing buffers (runtime/native.py), so restrict
        # is sound and unlocks vectorization of the indirect accesses.
        for i in range(len(plan["real_ptrs"])):
            self.emit(f"dd_real *restrict const _rp{i} = (dd_real *)RP[{i}];")
        for i in range(len(plan["int_ptrs"])):
            self.emit(f"int64_t *restrict const _ip{i} = IP[{i}];")
        for i in range(len(plan["bool_ptrs"])):
            self.emit(f"unsigned char *restrict const _bp{i} = BP[{i}];")

        # image metadata: SC stays double for both precisions; cast once into
        # dd_real locals so the hot loops never widen
        for img in plan["images"]:
            slot = self.images[img]
            d = slot.dim
            org_off = self.sc_index[("origin", img)]
            minv_off = self.sc_index[("minv", img)]
            gxf_off = self.sc_index[("gxf", img)]
            self.emit(f"dd_real _org_{img}[{d}];")
            self.emit(f"dd_real _minv_{img}[{d * d}];")
            self.emit(f"dd_real _gxf_{img}[{d * d}];")
            k = self.names.fresh("k")
            self.emit(
                f"for (int {k} = 0; {k} < {d}; {k}++) "
                f"_org_{img}[{k}] = (dd_real)SC[{org_off} + {k}];"
            )
            k = self.names.fresh("k")
            self.emit(f"for (int {k} = 0; {k} < {d * d}; {k}++) {{")
            self.emit(f"    _minv_{img}[{k}] = (dd_real)SC[{minv_off} + {k}];")
            self.emit(f"    _gxf_{img}[{k}] = (dd_real)SC[{gxf_off} + {k}];")
            self.emit("}")
            self.emit(
                f"const int64_t *const _sz_{img} = "
                f"IC + {self.ic_index[('sizes', img)]};"
            )
            rp = self.real_ptr_index[("image", img)]
            self.emit(f"const dd_real *const _vox_{img} = _rp{rp};")

        # globals are lane-invariant
        for gi in range(n_globals):
            p = func.params[gi]
            ty = p.ty
            name = self.names.val(p)
            self.uniform.add(p.id)
            if isinstance(ty, TensorTy) and ty.shape != ():
                rp = self.real_ptr_index[("global", gi)]
                sz = _tensor_size(ty)
                self.kinds[p.id] = "array"
                self.sizes[p.id] = sz
                self.emit(f"const dd_real *const {name} = _rp{rp};")
            elif isinstance(ty, TensorTy):
                self.kinds[p.id] = "scalar"
                self.sizes[p.id] = 1
                self.emit(
                    f"const dd_real {name} = "
                    f"(dd_real)SC[{self.sc_index[('global', gi)]}];"
                )
            elif ty == INT:
                self.kinds[p.id] = "scalar"
                self.sizes[p.id] = 1
                self.emit(
                    f"const int64_t {name} = IC[{self.ic_index[('global', gi)]}];"
                )
            elif ty == BOOL:
                self.kinds[p.id] = "scalar"
                self.sizes[p.id] = 1
                self.emit(
                    f"const int {name} = (int)IC[{self.ic_index[('global', gi)]}];"
                )
            else:
                self.fail(f"unsupported global type {ty!r}")

        # hoisted constants + zero-init marking, then capture the batch body
        # once and splice it into the main loop and the tail block
        self._declare_consts(func.body)
        self._collect_phi_operands(func.body)

        saved = self.lines
        self.lines = []
        self.indent = 2
        self._emit_batch_body()
        body_lines = self.lines
        self.lines = saved
        self.indent = 1

        self.emit("int64_t _k0;")
        self.emit("for (_k0 = start; _k0 + DD_VB <= end; _k0 += DD_VB) {")
        self.emit("    const int _n = DD_VB;")
        self.lines.extend(body_lines)
        self.emit("}")
        self.emit("if (_k0 < end) {")
        self.emit("    const int _n = (int)(end - _k0);")
        self.lines.extend(body_lines)
        self.emit("}")
        self.emit("return 0;")

        out.extend(self.lines)
        out.append("}")
        out.append(_DRIVER % self.int_ptr_index[("status",)])
        c_source = "\n".join(out)

        # per-image metadata the binder needs (dim, tshape) — picklable
        plan_images = {}
        for img in plan["images"]:
            slot = self.images[img]
            plan_images[img] = {"dim": slot.dim, "tshape": tuple(slot.shape)}
        plan = dict(plan)
        plan["image_meta"] = plan_images
        return c_source, plan


def generate_c_module(
    high: Any, single: bool = False, batch: int | None = None
) -> tuple[str, dict]:
    """Emit (c_source, plan) for a compiled program's update function.

    ``high`` is any object with ``update_func`` (a LowIR :class:`Func`),
    ``images`` (name -> ImageSlot), ``concrete_globals``, ``state_order`` and
    ``extra_state`` attributes — in practice the HighProgram held by a built
    :class:`~repro.runtime.program.Program`.  ``single=True`` emits a
    ``float`` kernel (relaxed-tolerance path); ``batch`` overrides the
    strand-batch width (default ``DEFAULT_VB_DOUBLE`` = 4 doubles /
    ``DEFAULT_VB_SINGLE`` = 8 floats; 1 gives the scalar kernel).  Raises
    :class:`~repro.errors.CodegenError` when any construct cannot be
    translated.
    """
    func = getattr(high, "update_func", None)
    if not isinstance(func, Func):
        raise CodegenError("cgen: program has no LowIR update function")
    return _Emitter(high, single=single, batch=batch).generate()
