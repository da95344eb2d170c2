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
updates them for up to ``max_steps`` super-steps, leaves the strands still
running in ``idx[0 .. *n_io)`` and writes each step's ``(active, stable,
died)`` counts to ``counts[3 * step ...]`` and its share of the call's
``CLOCK_MONOTONIC`` wall time — split over the steps by active strands — to
``seconds[step]`` (both caller-owned, at least ``max_steps`` rows).  It
returns the number of steps taken, or ``-1`` when an integer division by
zero occurs on a live lane (the caller re-raises ``RuntimeErrorD`` to match
the NumPy backend contract).

The update itself is the file-local ``dd_update``: one loop over ``DD_VB``
lane slots.  A slot takes a strand from the work-list, loads its state
once, runs the batch body step after step with the state blocks carried
across the loop's back edge, and stores the state when the strand
stabilizes, dies or spends ``max_steps``; then it takes the next strand.
A slot with no strand left shadows a running lane (its row, age and
state), so every lane computes a step the reference takes, and a shadow
stores the bit-identical value, folds the same footprint box and faults
only where the lane it copies faults.  A step in which some lane
finishes stores every lane and reloads every lane, one batch each,
whichever lanes finished; so per-step driving (``max_steps=1``), where
every lane finishes every step, runs the batch it always ran.

Unlike the PR 7 emitter (one scalar body per strand), the update loop is
*strand-batched*: strands are processed ``DD_VB`` at a time, every SSA value
becomes a small structure-of-arrays block (``dd_real v[size * DD_VB]``,
element-major with the lane index innermost, so each per-element lane loop is
a contiguous stride-1 access), and each LowIR op lowers to one or more
``#pragma omp simd`` lane loops that the C compiler turns into vector code.
Divergent control flow is if-converted: both arms of an ``IfRegion`` run on
all lanes under per-lane masks and the phis become branchless blends, except
that *heavy* arms (:func:`repro.core.ir.ops.heavy_arm`, the op table's cost
model) keep a real ``if (any-lane)`` branch so a batch that uniformly skips an
expensive probe does no work for it.

How a type is held in C is decided once (``_Emitter.rep``), and how a loop,
a lane loop, a store and a reduction are printed once (the printer section
of ``_Emitter``); the ``_op_<name>`` emitters only say what is computed per
element and lane.

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
``f``-suffixed form (the eigen helpers excepted: they compute in double, as
``rt.evals``/``evecs`` do), and all numeric literals (Horner coefficients included)
are rounded to float once at emission time and printed as exact hex float
literals.  The float kernel is validated against the float64 NumPy oracle at
a relaxed tolerance (see ``core.verify.fuzz``); it may use FMA contraction,
so ``-ffp-contract=off`` is *not* required on that path.

Alongside the C source, :func:`generate_c_module` returns a picklable *plan*
describing the buffer ABI: which state slot / image / global feeds each
pointer-table entry and each scalar-constant slot, plus ``real_dtype``
("float32"/"float64") and the batch width ``vb``.  The runtime binder
(:mod:`repro.runtime.native`) fills the tables from live arrays using only
the plan, so the same compiled artifact can be reused across runs without
re-walking the IR.

Anything the emitter cannot translate raises
:class:`~repro.errors.CodegenError`; ``Program`` catches it and falls back to
the NumPy backend.
"""

from __future__ import annotations

import math
import re
from contextlib import ExitStack, contextmanager
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from ...errors import CodegenError
from ..ir import ops as irops
from ..ir.base import Func, IfRegion, Instr, Phi, Value
from ..ty.types import BOOL, INT, TensorTy

__all__ = ["generate_c_module", "DEFAULT_VB_DOUBLE", "DEFAULT_VB_SINGLE"]

# Default strand-batch widths: 4 doubles or 8 floats fill one 256-bit
# vector per lane statement.  gcc prefers 256-bit vectors on current x86
# (512-bit widths measured slower on the headline probe), and a wider
# batch only grows the SoA scratch footprint without adding parallelism.
DEFAULT_VB_DOUBLE = 4
DEFAULT_VB_SINGLE = 8

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
_BASIC = r"""
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

"""

_NORMALIZE = r"""/* Mirrors tensors.ops.normalize: scale by the max |component| (NaN
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

"""

_EIGEN = r"""/* Symmetric 2x2 eigenvalues, descending.  m = [a b; b d] row-major. */
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

_HELPERS = _BASIC + _NORMALIZE + _EIGEN

#: ``rt.evals``/``evecs`` compute in float64 at any precision, so a
#: single-precision kernel calls a double twin of the eigen helpers and
#: of the helpers they call: the same text over ``double``, each name
#: ``_d``-suffixed
_EIGEN_DOUBLE = re.sub(
    r"\bdd_(sqrt|acos|cos|fabs)\b", r"\1",
    re.sub(r"\b(dd_(?:min|max|clamp|[gl]t_nanfirst|cross3|det3|evals[23]"
           r"|evec_raw|orth_unit|evecs[23]))\b", r"\1_d",
           _BASIC[_BASIC.index("static"):] + _EIGEN),
).replace("dd_real", "double")


# The lane slots' refill when some slot is still running or fewer than a
# batch of strands is left (``_Emitter._emit_refill`` inlines the common
# case): a finished slot takes the next strand of the work-list or, with
# none left, shadows the first running slot's row and age.  0: no slot is
# running.  Out of line, its branches stay out of the body's function.
_REFILL = """
static DD_NOINLINE int dd_refill(int64_t *row, int64_t *age, int *own, int *done,
                                 const int64_t *idx, int64_t *next, int64_t n) {
    int run = -1;
    for (int l = 0; l < DD_VB; l++) {
        if (done[l]) {
            own[l] = *next < n;
            if (own[l]) {
                row[l] = idx[(*next)++];
                age[l] = 0;
                done[l] = 0;
            }
        }
        if (run < 0 && !done[l]) run = l;
    }
    if (run < 0) return 0;
    for (int l = 0; l < DD_VB; l++) {
        if (done[l]) {
            row[l] = row[run];
            age[l] = age[run];
            done[l] = 0;
        }
    }
    return 1;
}
"""

# The one exported entry point.  ``dd_update`` adds each step's stabilized
# and died strands into ``counts``; a strand is active at every step before
# the one it left at, which rebuilds the active column.
_DRIVER = """
int64_t dd_run(void **RP, int64_t **IP, unsigned char **BP,
               const double *SC, const int64_t *IC,
               int64_t *idx, int64_t *n_io, int64_t max_steps,
               int64_t *counts, double *seconds) {
    struct timespec t0, t1;
    int64_t left = *n_io, updates = 0, step;
    double wall;
    if (left <= 0 || max_steps <= 0) return 0;
    for (step = 0; step < max_steps; step++)
        counts[3 * step + 1] = counts[3 * step + 2] = 0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    {
        const int rc = dd_update(RP, IP, BP, SC, IC, idx, left, max_steps, counts);
        if (rc) return -rc;
    }
    clock_gettime(CLOCK_MONOTONIC, &t1);
    for (step = 0; step < max_steps && left > 0; step++) {
        counts[3 * step] = left;
        updates += left;
        left -= counts[3 * step + 1] + counts[3 * step + 2];
    }
    wall = (double)(t1.tv_sec - t0.tv_sec) + 1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);
    for (int64_t i = 0; i < step; i++)
        seconds[i] = wall * (double)counts[3 * i] / (double)updates;
    *n_io = left;
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
        + (_EIGEN_DOUBLE if single else "")
        + _REFILL
    )


# ---------------------------------------------------------------------------
# Value representation and literals
# ---------------------------------------------------------------------------


class _Rep(NamedTuple):
    """How values of one IR type are held in C."""

    ctype: str  # element type: "dd_real" | "int64_t" | "int"
    # logical shape, "scalar" | "array"; a varying scalar is still a
    # DD_VB-wide C array, one slot per lane
    kind: str
    size: int  # flat element count
    # "real" | "int" | "bool": the `_TABLES` row that carries the type across
    # the buffer ABI; None for compiler-internal types, which never cross it
    table: str | None


_REAL = _Rep("dd_real", "scalar", 1, "real")
_INT = _Rep("int64_t", "scalar", 1, "int")
_BOOL = _Rep("int", "scalar", 1, "bool")


class _Table(NamedTuple):
    """Where the buffer ABI carries one class of values."""

    ptrs: str  # plan key of the per-strand pointer table
    alias: str  # C alias prefix of that table's entries
    consts: str  # plan key of the scalar-constant table (its C name, upper-cased)
    load: str  # state buffer element -> SoA slot
    store: str  # SoA slot -> state buffer element


_TABLES = {
    "real": _Table("real_ptrs", "_rp", "sc", "{}", "{}"),
    "int": _Table("int_ptrs", "_ip", "ic", "{}", "{}"),
    # bool state is one byte per strand; in the kernel it is a 0/1 int
    "bool": _Table("bool_ptrs", "_bp", "ic", "{} != 0", "(unsigned char)({} != 0)"),
}


def _c_float(x: float, single: bool = False) -> str:
    """An exact C literal for a Python float (rounded once for float)."""
    suffix = ""
    if single:
        x = float(np.float32(x))
        suffix = "f"
    if math.isnan(x):
        return "NAN"
    if math.isinf(x):
        return "INFINITY" if x > 0 else "-INFINITY"
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}{suffix}"
    return float(x).hex() + suffix


def _c_int(x: int) -> str:
    x = int(x)
    if x == -(2**63):
        return "(-9223372036854775807LL - 1)"
    return f"{x}LL"


def _off(base: int | str | None, e: int | str) -> int | str:
    """Element index ``base + e``: folded when both are Python ints, spelled
    out when either is a C expression; no ``base`` is no offset at all."""
    if base is None:
        return e
    if isinstance(e, int):
        if isinstance(base, int):
            return base + e
        if e == 0:
            return base
    return f"{base} + {e}"


def _for(var: str, n: int | str) -> str:
    """The header of every counted loop the emitter prints."""
    return f"for (int {var} = 0; {var} < {n}; {var}++)"


#: the lane loop: every batch, the last one included, is DD_VB lanes wide,
#: so every lane loop has a compile-time trip count
_LANE_FOR = _for("_l", "DD_VB")


class _Namer:
    """Stable C identifiers for SSA values and a counter for scratch names.

    Values are numbered densely in first-use order, so the translation
    unit (and the artifact it keys) depends only on the program.
    """

    def __init__(self) -> None:
        self._uid = 0
        self._vals: dict[Value, str] = {}

    def val(self, v: Value) -> str:
        name = self._vals.get(v)
        if name is None:
            name = self._vals[v] = f"v{len(self._vals)}"
        return name

    def fresh(self, stem: str) -> str:
        self._uid += 1
        return f"_{stem}{self._uid}"


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------


class _Pads(dict):
    """Indent depth -> leading whitespace, each built once."""

    def __missing__(self, depth: int) -> str:
        pad = self[depth] = "    " * depth
        return pad


_PADS = _Pads()


class _Scope:
    """What the printer's ``with`` forms return.  The opening line is out
    and the indent taken by the time the ``with`` is entered; it binds
    ``value`` (a loop's index), and leaving it gives the indent back and
    prints the line ``close`` ("" for a bare indent) — or does nothing,
    ``close`` being ``None``, for a form that took no indent."""

    __slots__ = ("em", "value", "close")

    def __init__(self, em: _Emitter, value: str | int | None, close: str | None) -> None:
        self.em, self.value, self.close = em, value, close

    def __enter__(self) -> str | int | None:
        return self.value

    def __exit__(self, *exc: object) -> None:
        if self.close is not None:
            self.em.indent -= 1
            if self.close:
                self.em.emit(self.close)


class _Emitter:
    def __init__(self, high: Any, single: bool = False) -> None:
        self.high = high
        self.func: Func = high.update_func
        self.images = dict(high.images)
        self.single = bool(single)
        self.vb = DEFAULT_VB_SINGLE if single else DEFAULT_VB_DOUBLE
        self.names = _Namer()
        self.lines: list[str] = []
        self.indent = 1
        # A *block* is an SSA value or a named scratch array; these three are
        # keyed by the Value or by the scratch name.
        # block -> flat element count of the logical value
        self.sizes: dict[Value | str, int] = {}
        # block -> "array" | "scalar" (see _Rep.kind)
        self.kinds: dict[Value | str, str] = {}
        # lane-invariant blocks (globals + hoisted constants)
        self.uniform: set[Value | str] = set()
        # values that must be zero-initialized (phi operands: their
        # defining arm may be skipped by an any-lane guard)
        self.zero_init: set[Value] = set()
        # IfRegion predication masks, innermost last (scratch int blocks)
        self.mask_stack: list[str] = []
        # the buffer tables of the plan, filled by _build_plan, and the
        # position of each entry in its table
        self.plan: dict[str, Any] = {
            "real_ptrs": [], "int_ptrs": [], "bool_ptrs": [], "sc": [], "ic": [],
        }
        self.index: dict[tuple, int] = {}
        # the two `with` targets that bind nothing new, made once
        self._braced = _Scope(self, None, "}")
        self._element0 = _Scope(self, 0, None)

    # -- plumbing -----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(_PADS[self.indent] + line)

    def fail(self, msg: str) -> None:
        raise CodegenError(f"cgen: {msg}")

    def flit(self, x: float) -> str:
        return _c_float(float(x), self.single)

    # -- representation -----------------------------------------------------

    def _image_info(self, name: str) -> tuple[int, int]:
        """(dim, tensor element count) for an image by name."""
        slot = self.images.get(name)
        if slot is None:
            self.fail(f"unknown image {name!r}")
        return slot.dim, math.prod(slot.shape)

    def rep(self, ty: Any, role: str = "") -> _Rep:
        """The C representation of IR type ``ty`` — the one place that knows
        it.  ``role`` names what a value that must cross the buffer ABI is
        ("global", "state", "const"): compiler-internal types are refused."""
        tag = ty[0] if isinstance(ty, tuple) else None
        rep = None
        if isinstance(ty, TensorTy) and ty.shape == ():
            rep = _REAL
        elif isinstance(ty, TensorTy):
            rep = _Rep("dd_real", "array", math.prod(ty.shape), "real")
        elif ty == INT:
            rep = _INT
        elif ty == BOOL:
            rep = _BOOL
        elif tag == "ivec":
            rep = _Rep("int64_t", "array", int(ty[1]), None)
        elif tag == "weights":
            rep = _Rep("dd_real", "array", int(ty[1]), None)
        elif tag == "vox":
            _, img, s = ty
            dim, tsize = self._image_info(img)
            rep = _Rep("dd_real", "array", ((2 * int(s)) ** dim) * tsize, None)
        elif tag == "part":
            _, img, s, axes = ty
            _, tsize = self._image_info(img)
            rep = _Rep("dd_real", "array", ((2 * int(s)) ** int(axes)) * tsize, None)
        if rep is None or (role and rep.table is None):
            self.fail(f"unsupported {role or 'value'} type {ty!r}")
        return rep

    def bind(self, v: Value | str, rep: _Rep | None = None, uniform: bool = False) -> _Rep:
        """Record how block ``v`` is held (a value's type decides; a scratch
        block says).  The only writer of ``kinds`` / ``sizes``."""
        if rep is None:
            rep = self.rep(v.ty)
        self.kinds[v] = rep.kind
        self.sizes[v] = rep.size
        if uniform:
            self.uniform.add(v)
        return rep

    def size_of(self, v: Value | str) -> int:
        sz = self.sizes.get(v)
        if sz is None:
            self.fail(f"block {v!r} has no recorded size")
        return sz

    def is_scalar_val(self, v: Value | str) -> bool:
        return self.kinds.get(v) == "scalar"

    def ref(self, v: Value | str, e: str | int = 0) -> str:
        """C expression for element ``e`` of block ``v`` on lane ``_l`` —
        reads and writes alike.  Varying blocks are element-major with the
        lane index innermost, so a lane loop over one element is a
        contiguous stride-1 access."""
        scratch = isinstance(v, str)
        name = v if scratch else self.names.val(v)
        if self.kinds.get(v) == "scalar":
            return name if v in self.uniform else f"{name}[_l]"
        if v in self.uniform:
            return f"{name}[{e}]"
        if not scratch and isinstance(e, int):
            return f"{name}[{e * self.vb} + _l]"
        return f"{name}[({e}) * DD_VB + _l]"

    # -- the printer ----------------------------------------------------------
    #
    # Every loop, lane loop, store and reduction of the batch body is
    # printed by the methods of this section; the op emitters below say
    # *what* is computed per element and lane and never spell a `for`.

    def indented(self) -> _Scope:
        self.indent += 1
        return _Scope(self, None, "")

    def block(self, head: str = "") -> _Scope:
        """``head { ... }`` (a bare scope without ``head``)."""
        self.emit(f"{head} {{" if head else "{")
        self.indent += 1
        return self._braced

    def loop(self, n: int, stem: str = "i", var: str | None = None,
             collapse: bool = False) -> _Scope:
        """A rolled loop of ``n`` trips; yields its index, a fresh name from
        ``stem`` unless the caller had to number ``var`` earlier.

        ``collapse`` prints the header alone: the loop shares the brace of
        the loop opened next, a perfect nest with nothing between the two
        headers."""
        v = var or self.names.fresh(stem)
        if collapse:
            self.emit(_for(v, n))
            return _Scope(self, v, None)
        self.emit(f"{_for(v, n)} {{")
        self.indent += 1
        return _Scope(self, v, "}")

    def elements(self, v: Value | str, stem: str = "i") -> _Scope:
        """The element index of block ``v``: 0 for a scalar, else the index
        of a rolled loop over its elements."""
        if self.is_scalar_val(v):
            return self._element0
        return self.loop(self.size_of(v), stem)

    def lane(self, stmt: str, simd: bool = True) -> None:
        """One lane loop ``for (_l = 0; _l < DD_VB; _l++) stmt``."""
        if simd and self.vb > 1:
            self.emit("DD_SIMD")
        self.emit(f"{_LANE_FOR} {stmt}")

    def lanes(self, simd: bool = True) -> _Scope:
        """A multi-statement lane loop, for per-lane scalar sequences."""
        if simd and self.vb > 1:
            self.emit("DD_SIMD")
        return self.block(_LANE_FOR)

    def store(self, v: Value | str, e: str | int, rhs: str, op: str = "=",
              simd: bool = True) -> None:
        """``v[e] op rhs`` on every lane: one lane loop, the address by
        :meth:`ref` like any read."""
        self.lane(f"{self.ref(v, e)} {op} {rhs};", simd)

    @staticmethod
    def chain(terms: Iterable[str]) -> str:
        """A reduction unrolled into a left-associated sum of ``terms``.

        gcc refuses to outer-vectorize a lane loop containing an inner
        serial reduction ("complicated access pattern"), but vectorizes the
        same straight-line chain trivially — and the association order is
        that of a scalar ``+=`` loop and of the NumPy backend, which the
        1e-12 oracle agreement depends on."""
        return " + ".join(terms)

    def declare(self, v: Value | str, rep: _Rep | None = None, zero: bool = False) -> _Rep:
        """Bind block ``v`` and declare its varying SoA storage."""
        rep = self.bind(v, rep)
        name = v if isinstance(v, str) else self.names.val(v)
        dims = "DD_VB" if rep.kind == "scalar" else f"{rep.size} * DD_VB"
        self.emit(f"{rep.ctype} {name}[{dims}]{' = {0}' if zero else ''};")
        return rep

    def scratch(self, stem: str, ctype: str, n: int | None = None) -> str:
        """Declare a fresh scratch block — ``n`` elements, or a per-lane
        scalar — and return its name, which ``ref``/``store`` take like a
        value (its element index is always printed symbolically)."""
        name = self.names.fresh(stem)
        self.declare(name, _Rep(ctype, "scalar" if n is None else "array", n or 1, None))
        return name

    def copy(self, dst: Value | str, src: Value | str, dst_at: int | None = None,
             src_at: int | None = None) -> None:
        """Element-for-element copy: all of ``src`` into ``dst`` from element
        ``dst_at`` on, or — given ``src_at`` — all of ``dst`` out of ``src``
        from there on."""
        with self.elements(src if src_at is None else dst) as i:
            self.store(dst, _off(dst_at, i), self.ref(src, _off(src_at, i)))

    def clean_coord(self, src: str) -> None:
        """Per-lane ``_c``: index-space coordinate ``src`` as
        fields.probe.split_position cleans it before taking the floor
        (non-finite -> 0, then clamped to +/-2^40)."""
        big = self.flit(1099511627776.0)
        self.emit(f"dd_real _c = isfinite({src}) ? {src} : 0.0;")
        self.emit(f"_c = dd_clamp(_c, -{big}, {big});")

    def clamp_to_image(self, var: str, expr: str, size: str | None = None) -> None:
        """Per-lane ``int64_t var = clip(expr, 0, _mx)`` as branchless
        selects.  ``_mx`` is the axis' last index: declared here from the C
        expression ``size`` unless the caller already has it in scope."""
        self.emit(f"int64_t {var} = {expr};")
        self.emit(f"{var} = ({var} < 0) ? 0 : {var};")
        if size is not None:
            self.emit(f"int64_t _mx = {size} - 1;")
        self.emit(f"{var} = ({var} > _mx) ? _mx : {var};")

    # -- plan construction --------------------------------------------------

    def _slot(self, table: str, key: tuple, count: int = 1) -> None:
        """Append ``count`` entries ``key`` to plan table ``table``."""
        entries = self.plan[table]
        self.index[key] = len(entries)
        entries.extend([key] * count)

    def _build_plan(self) -> None:
        high = self.high
        func = self.func
        instrs = [ins for ins in func.body.instructions() if isinstance(ins, Instr)]
        used_images = sorted({ins.attrs["image"] for ins in instrs if "image" in ins.attrs})
        for name in used_images:
            if name not in self.images:
                self.fail(f"instruction references unknown image {name!r}")

        n_globals = len(high.concrete_globals)
        n_state = len(high.state_order) + len(high.extra_state)
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

        for name in used_images:
            self._slot("real_ptrs", ("image", name))
        for gi in range(n_globals):
            rep = self.rep(func.params[gi].ty, "global")
            table = _TABLES[rep.table]
            self._slot(table.ptrs if rep.kind == "array" else table.consts, ("global", gi))
        for si in range(n_state):
            rep = self.rep(func.params[n_globals + si].ty, "state")
            self._slot(_TABLES[rep.table].ptrs, ("state", si))
        # strand status lives in the int pointer table, after the state
        self._slot("int_ptrs", ("status",))
        # footprint outputs (incremental re-execution): per gathered
        # image, (strands, dim) lo/hi index boxes.  The binder passes NULL
        # when the run does not record.
        for name in sorted({ins.attrs["image"] for ins in instrs if ins.op == "gather"}):
            for kind in ("fp_lo", "fp_hi"):
                self._slot("int_ptrs", (kind, name))
        for name in used_images:
            d = self.images[name].dim
            self._slot("sc", ("origin", name), d)
            self._slot("sc", ("minv", name), d * d)
            self._slot("sc", ("gxf", name), d * d)
            self._slot("ic", ("sizes", name), d)

        self.plan.update(
            images=used_images,
            n_globals=n_globals,
            n_state=n_state,
            n_ret=n_ret,
            real_dtype="float32" if self.single else "float64",
            vb=self.vb,
        )

    def _state_ref(self, si: int, e: str | int, row: str) -> str:
        """Element ``e`` of state slot ``si`` in the caller's strand-major
        buffer, in strand ``row`` (a C expression of lane ``_l``)."""
        rep = self.rep(self.func.params[self.plan["n_globals"] + si].ty)
        ptr = f"{_TABLES[rep.table].alias}{self.index['state', si]}"
        if rep.kind == "scalar":
            return f"{ptr}[{row}]"
        return f"{ptr}[({row}) * {rep.size} + {e}]"

    # -- declarations -------------------------------------------------------

    def _collect_phi_operands(self, body) -> None:
        """Mark every phi operand for zero-initialization: its defining arm
        may sit behind an any-lane guard that a batch skips entirely, and the
        blend must then read a defined (if irrelevant) value."""
        for item in body.items:
            if isinstance(item, IfRegion):
                for phi in item.phis:
                    self.zero_init.add(phi.then_val)
                    self.zero_init.add(phi.else_val)
                self._collect_phi_operands(item.then_body)
                self._collect_phi_operands(item.else_body)

    def _declare_results(self, body) -> None:
        """Hoist C declarations for every Instr/Phi result in the body tree.

        Constant instructions become initialized lane-invariant declarations
        elsewhere (their op handler is then a no-op); everything else is a
        varying SoA block sized ``size * DD_VB``."""
        for item in body.items:
            if isinstance(item, Instr):
                if item.op == "const":
                    continue  # hoisted to function scope by _declare_consts
                for r in item.results:
                    self.declare(r, zero=r in self.zero_init)
            elif isinstance(item, IfRegion):
                self._declare_results(item.then_body)
                self._declare_results(item.else_body)
                for phi in item.phis:
                    r = phi.result
                    self.declare(r, zero=r in self.zero_init)

    def _declare_const(self, ins: Instr) -> None:
        res = ins.result
        v = ins.attrs["value"]
        name = self.names.val(res)
        rep = self.bind(res, self.rep(res.ty, "const"), uniform=True)
        if rep.table == "bool":
            self.emit(f"const int {name} = {1 if v else 0};")
        elif rep.table == "int":
            self.emit(f"const int64_t {name} = {_c_int(v)};")
        else:
            try:
                arr = np.asarray(v, dtype=np.float64).reshape(-1)
            except (TypeError, ValueError) as exc:
                self.fail(f"const has non-numeric payload {v!r}: {exc}")
            if rep.kind == "scalar":
                self.emit(f"const dd_real {name} = {self.flit(arr[0])};")
            else:
                lits = ", ".join(self.flit(x) for x in arr)
                self.emit(f"const dd_real {name}[{rep.size}] = {{{lits}}};")

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
        with self.elements(res, "e") as e:
            self.store(res, e, body_fn(e))

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
        through a safe divisor so no lane ever traps.  No loop here is simd:
        the fault check returns from inside its lane loop."""
        a, b = ins.args
        res = ins.result
        bn = self.ref(b)
        if not self.mask_stack:
            self.lane(f"if ({bn} == 0) return 1;", simd=False)
            self.store(res, 0, f"{self.ref(a)} {cop} {bn}", simd=False)
        else:
            live = self.ref(self.mask_stack[-1])
            self.lane(f"if ({live} && {bn} == 0) return 1;", simd=False)
            with self.lanes(simd=False):
                self.emit(f"int64_t _d = ({bn} == 0) ? 1 : {bn};")
                self.emit(f"{self.ref(res)} = ({bn} == 0) ? 0 : {self.ref(a)} {cop} _d;")

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
        # the k reduction is a chain, so the lane loop stays straight-line
        # code the compiler will vectorize
        if oa == 1 and ob == 1:
            n = self.size_of(a)
            self.store(res, 0, self.chain(
                f"{self.ref(a, k)} * {self.ref(b, k)}" for k in range(n)))
        elif oa == 2 and ob == 1:
            rows, n = a.ty.shape
            with self.loop(rows) as i:
                self.store(res, i, self.chain(
                    f"{self.ref(a, f'{i} * {n} + {k}')} * {self.ref(b, k)}"
                    for k in range(n)))
        elif oa == 1 and ob == 2:
            n, cols = b.ty.shape
            with self.loop(cols, "j") as j:
                self.store(res, j, self.chain(
                    f"{self.ref(a, k)} * {self.ref(b, f'{k} * {cols} + {j}')}"
                    for k in range(n)))
        elif oa == 2 and ob == 2:
            rows, n = a.ty.shape
            cols = b.ty.shape[1]
            with self.loop(rows, collapse=True) as i, self.loop(cols, "j") as j:
                self.store(res, f"{i} * {cols} + {j}", self.chain(
                    f"{self.ref(a, f'{i} * {n} + {k}')} * "
                    f"{self.ref(b, f'{k} * {cols} + {j}')}"
                    for k in range(n)))
        else:
            self.fail(f"dot of orders ({oa}, {ob}) is not supported")

    def _op_cross(self, ins: Instr) -> None:
        a, b = ins.args
        res = ins.result
        if self.size_of(a) == 2:
            self.store(res, 0, f"{self.ref(a, 0)} * {self.ref(b, 1)} - "
                               f"{self.ref(a, 1)} * {self.ref(b, 0)}")
            return
        # inline dd_cross3 component by component (same parenthesization)
        for r, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            self.store(res, r, f"{self.ref(a, i)} * {self.ref(b, j)} - "
                               f"{self.ref(a, j)} * {self.ref(b, i)}")

    def _op_outer(self, ins: Instr) -> None:
        a, b = ins.args
        m = self.size_of(b)
        with self.loop(self.size_of(a), collapse=True) as i, self.loop(m, "j") as j:
            self.store(ins.result, f"{i} * {m} + {j}",
                       f"{self.ref(a, i)} * {self.ref(b, j)}")

    def _op_trace(self, ins: Instr) -> None:
        (a,) = ins.args
        n = a.ty.shape[0]
        self.store(ins.result, 0, self.chain(self.ref(a, i * n + i) for i in range(n)))

    def _op_transpose(self, ins: Instr) -> None:
        (a,) = ins.args
        r, c = a.ty.shape
        for i in range(r):
            for j in range(c):
                self.store(ins.result, j * r + i, self.ref(a, i * c + j))

    def _op_det(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        n = a.ty.shape[0]
        if n == 1:
            self.store(res, 0, self.ref(a, 0))
        elif n == 2:
            self.store(res, 0, f"{self.ref(a, 0)} * {self.ref(a, 3)} - "
                               f"{self.ref(a, 1)} * {self.ref(a, 2)}")
        elif n == 3:
            # inline dd_det3 with identical parenthesization
            m = [self.ref(a, i) for i in range(9)]
            self.store(
                res, 0,
                f"{m[0]} * ({m[4]} * {m[8]} - {m[5]} * {m[7]}) - "
                f"{m[1]} * ({m[3]} * {m[8]} - {m[5]} * {m[6]}) + "
                f"{m[2]} * ({m[3]} * {m[7]} - {m[4]} * {m[6]})",
            )
        else:
            self.fail(f"det of {n}x{n} matrix is not supported")

    def _op_norm(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        order = ins.attrs.get("order", a.ty.order if isinstance(a.ty, TensorTy) else 0)
        if order == 0:
            self.store(res, 0, f"dd_fabs({self.ref(a)})")
            return
        squares = self.chain(
            f"{self.ref(a, k)} * {self.ref(a, k)}" for k in range(self.size_of(a)))
        self.store(res, 0, f"dd_sqrt({squares})")

    @contextmanager
    def _lanewise(self, ins: Instr, buf: str, n_in: int,
                  ctype: str = "dd_real") -> Iterator[str]:
        """Per-lane AoS extract -> helper call -> SoA insert, for the eigen/
        normalize helpers that are intrinsically scalar per strand (an
        out-of-line call per lane, so the lane loop is not simd).

        Declares the helper's input ``buf`` and its output ``_out``, of
        element type ``ctype``; the caller fills ``buf`` and emits the call
        inside, then ``_out`` is scattered into the result.  Yields a spare
        element index."""
        res = ins.result
        e = self.names.fresh("e")
        with self.lanes(simd=False):
            self.emit(f"{ctype} {buf}[{n_in}];")
            self.emit(f"{ctype} _out[{self.size_of(res)}];")
            yield e
            self.emit(f"{_for(e, self.size_of(res))} {self.ref(res, e)} = _out[{e}];")

    def _op_normalize_v(self, ins: Instr) -> None:
        (a,) = ins.args
        n = self.size_of(a)
        with self._lanewise(ins, "_in", n) as e:
            self.emit(f"{_for(e, n)} _in[{e}] = {self.ref(a, e)};")
            self.emit(f"dd_normalize(_in, {n}, _out);")

    def _sym_helper(self, ins: Instr, stem: str) -> None:
        (a,) = ins.args
        n = a.ty.shape[0]
        if n not in (2, 3):
            self.fail(f"{stem} of {n}x{n} matrix is not supported")
        # symmetrize into _s inside the per-lane block, then call the helper;
        # single precision computes in double, as rt.evals/evecs do
        cast, suffix = ("(double)", "_d") if self.single else ("", "")
        with self._lanewise(ins, "_s", n * n,
                            "double" if self.single else "dd_real"):
            i = self.names.fresh("i")
            j = self.names.fresh("j")
            self.emit(_for(i, n))
            with self.indented():
                self.emit(
                    f"{_for(j, n)} _s[{i} * {n} + {j}] = 0.5 * "
                    f"({cast}{self.ref(a, f'{i} * {n} + {j}')} + "
                    f"{self.ref(a, f'{j} * {n} + {i}')});"
                )
            self.emit(f"dd_{stem}{n}{suffix}(_s, _out);")

    def _op_evals(self, ins: Instr) -> None:
        self._sym_helper(ins, "evals")

    def _op_evecs(self, ins: Instr) -> None:
        self._sym_helper(ins, "evecs")

    # .. construction / indexing ............................................

    def _op_tensor_cons(self, ins: Instr) -> None:
        res = ins.result
        elem_size = self.size_of(res) // len(ins.args)
        for e, arg in enumerate(ins.args):
            self.copy(res, arg, dst_at=e * elem_size)

    def _op_vec_cons(self, ins: Instr) -> None:
        for i, arg in enumerate(ins.args):
            self.store(ins.result, i, self.ref(arg))

    def _op_tensor_index(self, ins: Instr) -> None:
        (a,) = ins.args
        indices = tuple(ins.attrs["indices"])
        shape = a.ty.shape
        if len(indices) > len(shape):
            self.fail("tensor_index with more indices than axes")
        # flat offset of the selected subtensor
        off = 0
        for pos, ind in enumerate(indices):
            off = off * shape[pos] + int(ind)
        off *= math.prod(shape[len(indices):])
        self.copy(ins.result, a, src_at=off)

    def _op_identity(self, ins: Instr) -> None:
        n = int(ins.attrs["n"])
        for i in range(n):
            for j in range(n):
                self.store(ins.result, i * n + j, self.flit(1.0 if i == j else 0.0))

    # .. probing pipeline ....................................................

    def _op_to_index(self, ins: Instr) -> None:
        (pos,) = ins.args
        img = ins.attrs["image"]
        d, _ = self._image_info(img)
        for j in range(d):
            self.store(ins.result, j, self.chain(
                f"({self.ref(pos, k)} - _org_{img}[{k}]) * _minv_{img}[{j * d + k}]"
                for k in range(d)))

    def _split_position(self, ins: Instr, part: str) -> None:
        """One half of fields.probe.split_position, per axis: ``part`` of the
        cleaned index-space coordinate ``_c``."""
        (a,) = ins.args
        res = ins.result
        with self.loop(self.size_of(res)) as i, self.lanes():
            self.clean_coord(self.ref(a, i))
            self.emit(f"{self.ref(res, i)} = {part};")

    def _op_floor_i(self, ins: Instr) -> None:
        self._split_position(ins, "(int64_t)dd_floor(_c)")

    def _op_fract(self, ins: Instr) -> None:
        self._split_position(ins, "_c - dd_floor(_c)")

    def _op_gather(self, ins: Instr) -> None:
        (n,) = ins.args
        res = ins.result
        img = ins.attrs["image"]
        s = int(ins.attrs["support"])
        d, tsize = self._image_info(img)
        w = 2 * s
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
            t = self.scratch("ix", "int64_t", w)
            tables.append(t)
            with self.loop(w) as i, self.lanes():
                self.clamp_to_image(
                    "_x", f"{self.ref(n, ax)} + ({i} + {1 - s})", size=f"{szs}[{ax}]")
                self.emit(f"{self.ref(t, i)} = _x * {st_names[ax]};")
        self._record_footprint(n, img, s, d)
        # Row-major tap loops; per tap, a lane-inner SIMD offset+copy.
        # Partial offset sums are hoisted per loop level so the innermost
        # tap adds exactly one table entry.  The output element counter _q
        # advances once per emitted element.
        q = self.names.fresh("q")
        self.emit(f"int64_t {q} = 0;")
        ivars = [self.names.fresh("i") for _ in range(d)]
        taps = [self.ref(tables[ax], ivars[ax]) for ax in range(d)]
        off = taps[0]  # lane-_l ref of the hoisted offset prefix sum
        with ExitStack() as nest:
            for ax in range(d):
                nest.enter_context(self.loop(w, var=ivars[ax]))
                if 1 <= ax <= d - 2:
                    po = self.scratch("po", "int64_t")
                    self.store(po, 0, f"{off} + {taps[ax]}")
                    off = self.ref(po)
            if d > 1:
                off = f"{off} + {taps[d - 1]}"
            if tsize == 1:
                self.store(res, q, f"{vox}[{off}]")
                self.emit(f"{q}++;")
            else:
                with self.loop(tsize, "t") as t:
                    self.store(res, q, f"{vox}[({off}) + {t}]")
                    self.emit(f"{q}++;")

    def _record_footprint(self, n: Value, img: str, s: int, d: int) -> None:
        """Fold this gather's sample box into each live lane's footprint.

        The box is the tap tables' first and last entry per axis, i.e.
        ``clip(n + 1 - s)`` and ``clip(n + s)`` — what
        ``FootprintRecorder.on_gather`` records for the NumPy backend.
        Lanes predicated off by an enclosing ``if`` are skipped: the phi
        blend discards whatever they gathered.  One NULL test outside the
        lane loop keeps an unrecorded run on the tap code alone.
        """
        lo = f"_ip{self.index['fp_lo', img]}"
        hi = f"_ip{self.index['fp_hi', img]}"
        with self.block(f"if ({lo})"), self.lanes(simd=False):
            if self.mask_stack:
                self.emit(f"if (!{self.ref(self.mask_stack[-1])}) continue;")
            self.emit(f"const int64_t _r = _row[_l] * {d};")
            for ax in range(d):
                with self.block():
                    self.emit(f"const int64_t _mx = _sz_{img}[{ax}] - 1;")
                    for var, off in (("_a", 1 - s), ("_b", s)):
                        self.clamp_to_image(var, f"{self.ref(n, ax)} + ({off})")
                    self.emit(f"if (_a < {lo}[_r + {ax}]) {lo}[_r + {ax}] = _a;")
                    self.emit(f"if (_b > {hi}[_r + {ax}]) {hi}[_r + {ax}] = _b;")

    def _op_index_inside(self, ins: Instr) -> None:
        # fields.probe.index_inside (NumPy's rt.index_inside): two compares
        # per axis on the real index-space coordinate x.  floor(x) in
        # [s-1, size-1-s] is s-1 <= x < size-s for finite x, and NaN and
        # +/-inf fail both.  Exact while size - s is a dd_real (size < 2^53
        # in double, < 2^24 in float).
        (pos,) = ins.args
        img = ins.attrs["image"]
        s = int(ins.attrs["support"])
        d, _ = self._image_info(img)
        lo = self.flit(s - 1)
        self.store(ins.result, 0, " & ".join(
            f"({self.ref(pos, ax)} >= {lo}) & "
            f"({self.ref(pos, ax)} < (dd_real)(_sz_{img}[{ax}] - {s}))"
            for ax in range(d)))

    def _op_horner(self, ins: Instr) -> None:
        (f,) = ins.args
        res = ins.result
        coeffs = list(ins.attrs["coeffs"])
        if len(coeffs) == 1:
            self.store(res, 0, self.flit(coeffs[0]))
            return
        # One SIMD lane loop with a scalar register chain per lane.
        with self.lanes():
            self.emit(f"dd_real _f = {self.ref(f)};")
            self.emit(f"dd_real _h = {self.flit(coeffs[-1])};")
            for c in reversed(coeffs[:-1]):
                self.emit(f"_h = _h * _f + {self.flit(c)};")
            self.emit(f"{self.ref(res)} = _h;")

    def _op_conv_contract(self, ins: Instr) -> None:
        vox = ins.args[0]
        weights = ins.args[1:]
        res = ins.result
        d, tsize = self._image_info(ins.attrs["image"])
        if len(weights) != d:
            self.fail("conv_contract weight count does not match image dim")
        w = self.size_of(weights[0])
        # zero-init, then accumulate tap by tap (same serial order per lane
        # as the scalar emitter)
        with self.elements(res, "z") as z:
            self.store(res, z, "0.0")
        with ExitStack() as nest:
            ivars = [nest.enter_context(self.loop(w)) for _ in range(d)]
            off = self.names.fresh("o")
            expr = ivars[0]
            for ax in range(1, d):
                expr = f"({expr} * {w} + {ivars[ax]})"
            self.emit(f"int64_t {off} = (int64_t)({expr}) * {tsize};")
            wprod = " * ".join(self.ref(weights[ax], ivars[ax]) for ax in range(d))
            with self.elements(res, "t") as t:
                self.store(res, t, f"{self.ref(vox, _off(off, t))} * {wprod}", op="+=")

    def _contract_step(self, out: Value | str, src: Value | str, wv: Value) -> None:
        """One axis contraction with a per-lane register accumulator:
        out[m] = sum_a src[a * size(out) + m] * wv[a], ``a`` ascending — a
        chain, in the serial order of the scalar emitter's += loop."""
        n = self.size_of(out)
        with self.elements(out, "m") as m:
            self.store(out, m, self.chain(
                f"{self.ref(src, _off(a * n, m))} * {self.ref(wv, a)}"
                for a in range(self.size_of(wv))))

    def _op_contract_axis(self, ins: Instr) -> None:
        x, wv = ins.args
        res = ins.result
        if self.size_of(x) != self.size_of(wv) * self.size_of(res):
            self.fail("contract_axis size mismatch")
        self._contract_step(res, x, wv)

    def _op_probe_parts(self, ins: Instr) -> None:
        vox = ins.args[0]
        weights = ins.args[1:]
        d, tsize = self._image_info(ins.attrs["image"])
        w = self.size_of(weights[0]) if weights else 0
        # Prefix-memoized axis-at-a-time contraction, matching
        # runtime.ops.probe_parts: axes contract left to right and partial
        # sums are shared across results on their weight-index prefix.
        # cache: weight-index prefix -> scratch block of the partial sum
        cache: dict[tuple, str] = {}
        for res, spec in zip(ins.results, ins.attrs["specs"]):
            spec = tuple(spec)
            if len(spec) != d:
                self.fail("probe_parts spec length does not match image dim")
            cur: Value | str = vox
            for step, wi in enumerate(spec):
                prefix = spec[: step + 1]
                if step == d - 1:
                    out: Value | str = res
                elif prefix in cache:
                    cur = cache[prefix]
                    continue
                else:
                    out = cache[prefix] = self.scratch(
                        "pp", "dd_real", (w ** (d - step - 1)) * tsize)
                self._contract_step(out, cur, weights[wi])
                cur = out

    def _op_deriv_assemble(self, ins: Instr) -> None:
        parts = ins.args
        res = ins.result
        dim = int(ins.attrs["dim"])
        deriv = int(ins.attrs["deriv"])
        tlen = math.prod(tuple(ins.attrs.get("tshape", ())))
        ncomb = dim**deriv
        if len(parts) != ncomb:
            self.fail("deriv_assemble part count mismatch")
        if deriv == 0:
            self.copy(res, parts[0])
            return
        # result layout: tshape axes first, then deriv axes (runtime stacks
        # parts leading, reshapes to head+(dim,)*deriv+tshape, then moves the
        # deriv axes after tshape): out[t * ncomb + c] = parts[c][t]
        for c, p in enumerate(parts):
            if tlen == 1:
                self.store(res, c, self.ref(p))
            else:
                with self.loop(tlen, "t") as t:
                    self.store(res, f"{t} * {ncomb} + {c}", self.ref(p, t))

    def _op_grad_xform(self, ins: Instr) -> None:
        (a,) = ins.args
        res = ins.result
        img = ins.attrs["image"]
        deriv = int(ins.attrs["deriv"])
        d, _ = self._image_info(img)
        if deriv == 0:
            self.copy(res, a)
            return
        total = self.size_of(res)
        # shape = tshape + (d,)*deriv; transform each deriv axis in turn:
        # dst[(o*d + j)*inner + m] = sum_k src[(o*d + k)*inner + m] * gxf[j*d+k]
        src: Value | str = a
        for pos in range(deriv):
            # deriv axes sit after the tensor axes; axis index from the right:
            inner = d ** (deriv - 1 - pos)
            blocks = total // (d * inner)
            dst = res if pos == deriv - 1 else self.scratch("gx", "dd_real", total)
            with (self.loop(blocks, "o", collapse=True) as o,
                  self.loop(d, "j", collapse=True) as j,
                  self.loop(inner, "m") as m):
                self.store(dst, f"(({o} * {d}) + {j}) * {inner} + {m}", self.chain(
                    f"{self.ref(src, f'(({o} * {d}) + {k}) * {inner} + {m}')} * "
                    f"_gxf_{img}[{j} * {d} + {k}]"
                    for k in range(d)))
            src = dst

    # -- control flow --------------------------------------------------------

    def _emit_region(self, region: IfRegion) -> None:
        """If-converted region: per-lane then/else masks (ANDed with the
        enclosing mask), both arms executed on all lanes — except that heavy
        arms keep a real `if (any lane)` branch — and branchless phi blends.
        """
        mt = self.scratch("mt", "int")
        me = self.scratch("me", "int")
        cexpr = self.ref(region.cond)
        if not self.mask_stack:
            self.lane(f"{{ {self.ref(mt)} = ({cexpr}) != 0; {self.ref(me)} = !({cexpr}); }}")
        else:
            enc = self.ref(self.mask_stack[-1])
            self.lane(
                f"{{ {self.ref(mt)} = {enc} && ({cexpr}); "
                f"{self.ref(me)} = {enc} && !({cexpr}); }}"
            )
        for mask, arm in ((mt, region.then_body), (me, region.else_body)):
            if not arm.items:
                continue
            with ExitStack() as guard:
                if irops.heavy_arm(arm):
                    anyv = self.names.fresh("any")
                    self.emit(f"int {anyv} = 0;")
                    # an or-reduction across lanes, not a per-lane statement
                    self.lane(f"{anyv} |= {self.ref(mask)};", simd=False)
                    guard.enter_context(self.block(f"if ({anyv})"))
                self.mask_stack.append(mask)
                self._emit_body(arm)
                self.mask_stack.pop()
        for phi in region.phis:
            res = phi.result
            sz = self.size_of(res)
            tv, ev = phi.then_val, phi.else_val
            self._ew_loop(
                res,
                lambda i, _t=tv, _e=ev: (
                    f"{self.ref(mt)} ? {self._bcast_ref(_t, i, sz)} : "
                    f"{self._bcast_ref(_e, i, sz)}"
                ),
            )

    def _emit_body(self, body) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                if item.op == "const":
                    continue  # hoisted
                with self.block():
                    self._emit_instr(item)
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

    # -- lane slots -----------------------------------------------------------

    def _emit_refill(self) -> None:
        """Give every finished slot (``_done``) the next strand of the
        work-list, or, with none left, make it a shadow of a running slot;
        its state comes with the load that follows.  When every slot
        finished and a whole batch of strands is left, as on every step of
        per-step driving, the slots take the next ``DD_VB`` in one lane
        loop; otherwise ``dd_refill`` does it, and returns when the
        work-list is spent."""
        with self.block("if (_fin == DD_VB && _next + DD_VB <= n)"):
            self.lane("{ _row[_l] = idx[_next + _l]; _age[_l] = 0; "
                      "_own[_l] = 1; _done[_l] = 0; }")
            self.emit("_next += DD_VB;")
        self.emit("else if (!dd_refill(_row, _age, _own, _done, idx, &_next, n)) return 0;")

    def _emit_finish(self, status: str) -> None:
        """After a step: age every slot and mark the ones whose strand left
        or spent ``max_steps``; ``_fin`` counts them."""
        self.emit("_fin = 0;")
        with self.lanes(simd=False):
            self.emit("_age[_l]++;")
            self.emit(f"_done[_l] = ({status} != 0) | (_age[_l] == max_steps);")
            self.emit("_fin += _done[_l];")

    def _emit_tally(self, status: str) -> None:
        """Add each finished owning slot's strand to the row of the step it
        left at, or hand it back to the work-list's head if it spent
        ``max_steps`` (a shadow's strand is its owner's)."""
        with self.lanes(simd=False), self.block("if (_own[_l] && _done[_l])"):
            self.emit(f"const int64_t _s = {status};")
            self.emit("if (_s) counts[3 * (_age[_l] - 1) + _s]++;")
            self.emit("else idx[_kept++] = _row[_l];")

    def _emit_carry(self, states: list, results: list) -> None:
        """Each written state slot takes its step's result, as a store and
        the next load would leave it.  A result that is another written
        slot's value is read before any slot is overwritten."""
        written = states[:len(results)]
        moves = []
        for p, r in zip(states, results):
            if r is p:
                continue
            if r in written:
                rep = self.rep(p.ty)
                r_old = self.scratch("cy", rep.ctype, rep.size if rep.kind == "array" else None)
                self.copy(r_old, r)
                r = r_old
            moves.append((p, r))
        for p, r in moves:
            load = _TABLES[self.rep(p.ty).table].load
            with self.elements(p, "e") as e:
                self.store(p, e, load.format(self.ref(r, e)))

    def _emit_lane_loop(self) -> None:
        """``dd_update``'s one loop: refill and load the slots that
        finished, run one step of the batch body, then store every slot or
        carry the state blocks across the back edge.  It holds the only
        copy of the body, and each state slot is loaded at one site and
        stored at one site, in lane loops over all ``DD_VB`` slots."""
        func = self.func
        states = func.params[self.plan["n_globals"]:]
        results, status = func.results[:-1], func.results[-1]

        self.emit("int64_t _row[DD_VB], _age[DD_VB];")
        self.emit("int _own[DD_VB], _done[DD_VB];")
        self.emit("int64_t _next = 0, _kept = 0;")
        # every slot starts finished, with nothing to store
        self.emit("int _fin = DD_VB;")
        self.lane("_done[_l] = 1;", simd=False)
        # the state blocks live across steps
        for p in states:
            self.declare(p)
        with self.block("for (;;)"):
            # the state loads and stores are plain lane loops: a vector
            # gather or scatter through _row measured slower than scalar
            # accesses on every step of per-step driving
            with self.block("if (_fin)"):
                self._emit_refill()
                for si, p in enumerate(states):
                    load = _TABLES[self.rep(p.ty).table].load
                    with self.elements(p, "e") as e:
                        self.store(p, e, load.format(self._state_ref(si, e, "_row[_l]")),
                                   simd=False)
            # hoisted declarations for all instruction results, then the
            # body
            self._declare_results(func.body)
            self._emit_body(func.body)
            self._emit_finish(self.ref(status))
            # results[:-1] are the *written* state slots in order (a prefix
            # of the slots: immutable extras at the tail are never
            # returned), results[-1] is the strand status
            with self.block("if (_fin)"):
                self._emit_tally(self.ref(status))
                for si, r in enumerate(results):
                    store = _TABLES[self.rep(states[si].ty).table].store
                    with self.elements(states[si], "e") as e:
                        self.lane(f"{self._state_ref(si, e, '_row[_l]')} = "
                                  f"{store.format(self.ref(r, e))};", simd=False)
                self.lane(f"_ip{self.index['status',]}[_row[_l]] = {self.ref(status)};",
                          simd=False)
            with self.block("else"):
                self._emit_carry(states, results)

    # -- top-level -----------------------------------------------------------

    def generate(self) -> tuple[str, dict]:
        self._build_plan()
        func = self.func
        plan = self.plan

        out: list[str] = [_prelude(self.single, self.vb)]
        out.append(
            "static DD_NOINLINE int dd_update(\n"
            "        void **RP, int64_t **IP, unsigned char **BP,\n"
            "        const double *SC, const int64_t *IC,\n"
            "        int64_t *idx, int64_t n, int64_t max_steps, int64_t *counts) {"
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
            d = self.images[img].dim
            self.emit(f"dd_real _org_{img}[{d}];")
            self.emit(f"dd_real _minv_{img}[{d * d}];")
            self.emit(f"dd_real _gxf_{img}[{d * d}];")
            k = self.names.fresh("k")
            self.emit(
                f"{_for(k, d)} "
                f"_org_{img}[{k}] = (dd_real)SC[{self.index['origin', img]} + {k}];"
            )
            with self.loop(d * d, "k") as k:
                self.emit(f"_minv_{img}[{k}] = (dd_real)SC[{self.index['minv', img]} + {k}];")
                self.emit(f"_gxf_{img}[{k}] = (dd_real)SC[{self.index['gxf', img]} + {k}];")
            self.emit(f"const int64_t *const _sz_{img} = IC + {self.index['sizes', img]};")
            self.emit(f"const dd_real *const _vox_{img} = _rp{self.index['image', img]};")

        # globals are lane-invariant: an array is its caller-owned buffer, a
        # scalar one slot of the constant table its type selects
        for gi in range(plan["n_globals"]):
            p = func.params[gi]
            name = self.names.val(p)
            rep = self.bind(p, uniform=True)
            k = self.index["global", gi]
            if rep.kind == "array":
                self.emit(f"const dd_real *const {name} = _rp{k};")
            else:
                consts = _TABLES[rep.table].consts.upper()
                # SC is double and IC int64_t whatever the kernel's types
                cast = "" if rep.ctype == "int64_t" else f"({rep.ctype})"
                self.emit(f"const {rep.ctype} {name} = {cast}{consts}[{k}];")

        # hoisted constants + zero-init marking, then the lane loop
        self._declare_consts(func.body)
        self._collect_phi_operands(func.body)
        self._emit_lane_loop()

        out.extend(self.lines)
        out.append("}")
        out.append(_DRIVER)
        c_source = "\n".join(out)

        # per-image metadata the binder needs (dim, tshape) — picklable
        plan = dict(plan)
        plan["image_meta"] = {
            img: {"dim": self.images[img].dim, "tshape": tuple(self.images[img].shape)}
            for img in plan["images"]
        }
        return c_source, plan


def generate_c_module(high: Any, single: bool = False) -> tuple[str, dict]:
    """Emit (c_source, plan) for a compiled program's update function.

    ``high`` is any object with ``update_func`` (a LowIR :class:`Func`),
    ``images`` (name -> ImageSlot), ``concrete_globals``, ``state_order`` and
    ``extra_state`` attributes — in practice the HighProgram held by a built
    :class:`~repro.runtime.program.Program`.  ``single=True`` emits a
    ``float`` kernel (relaxed-tolerance path); the strand-batch width is
    ``DEFAULT_VB_DOUBLE`` = 4 doubles / ``DEFAULT_VB_SINGLE`` = 8 floats
    (1 gives the scalar kernel).  Raises
    :class:`~repro.errors.CodegenError` when any construct cannot be
    translated.
    """
    func = getattr(high, "update_func", None)
    if not isinstance(func, Func):
        raise CodegenError("cgen: program has no LowIR update function")
    return _Emitter(high, single=single).generate()
