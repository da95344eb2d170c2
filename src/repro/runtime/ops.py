"""Primitive operations backing the LowIR ops (the codegen target library).

Every function here implements one IR operation with NumPy semantics,
vectorized across an arbitrary leading "lane" axis (one lane per strand in
a block).  The same functions serve three callers:

* code generated by :mod:`repro.core.codegen.pygen` (imported as ``rt``);
* constant folding in :mod:`repro.core.xform.contract` (scalar operands);
* the HighIR reference interpreter.

Integer division and remainder follow C semantics (truncation toward
zero), matching the paper's C-like computational notation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.obs import clock, current
from repro.fields.probe import (
    axis_weights,
    gather_neighborhood,
    index_inside,
    probe_inside,
    split_position,
)
from repro.tensors import eigen as _eigen
from repro.tensors import ops as _tops

# -- arithmetic ---------------------------------------------------------------


def _check_zero_divisor(b, live):
    """The zero-divisor contract shared by :func:`idiv` and :func:`imod`.

    Mirrors the probe safety contract (see :mod:`repro.fields.probe`): a
    zero divisor on a *live* lane is a program fault and raises a clean
    :class:`~repro.errors.RuntimeErrorD`; on predicated-off lanes (a light
    ``if`` arm executes on every lane of its block, so a dead lane may
    divide by zero) the result is deterministically sanitized to 0 — never
    a NumPy warning, never garbage.  ``live`` is the lane predicate
    (``None`` means every lane is live, as in a heavy arm, which runs on
    its live lanes only) and the returned array is a safe divisor with the
    zero lanes replaced.
    """
    zero = b == 0
    if not np.any(zero):
        return b, None
    live_zero = zero if live is None else np.logical_and(zero, live)
    if np.any(live_zero):
        from repro.errors import RuntimeErrorD

        raise RuntimeErrorD("integer division by zero")
    return np.where(zero, np.int64(1), b), zero


def idiv(a, b, live=None):
    """C-style integer division: truncation toward zero.

    Zero divisors follow the predication contract of
    :func:`_check_zero_divisor`: raise on live lanes, yield 0 on dead
    lanes.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    b, zero = _check_zero_divisor(b, live)
    q = np.floor_divide(a, b)
    r = a - q * b
    # floor_divide rounds toward -inf; fix up when signs differ and r != 0
    adjust = (r != 0) & ((a < 0) != (b < 0))
    q = q + adjust
    if zero is not None:
        q = np.where(zero, np.int64(0), q)
    return q


def imod(a, b, live=None):
    """C-style integer remainder: ``a - idiv(a, b) * b``.

    Zero divisors follow the same contract as :func:`idiv` (dead lanes
    yield 0).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    b, zero = _check_zero_divisor(b, live)
    r = a - idiv(a, b) * b
    if zero is not None:
        r = np.where(zero, np.int64(0), r)
    return r


def _align(v, order: int, result_order: int):
    """Make a value of tensor ``order`` broadcast against tensor
    ``result_order`` results.

    The only shape that misbroadcasts naturally is a *laned* lower-order
    value — e.g. a per-strand scalar ``(N,)`` against a per-strand vector
    ``(N, 3)`` — which needs trailing singleton axes inserted after the
    lane axis.  Unbatched values broadcast from the right already.
    """
    v = np.asarray(v)
    pad = result_order - order
    if pad > 0 and v.ndim > order:  # laned value of lower order
        return v.reshape(v.shape + (1,) * pad)
    return v


def scalar_broadcast_mul(a, b, order_a: int, order_b: int):
    """``scalar * tensor`` (either order) with possibly-laned operands."""
    ro = max(order_a, order_b)
    return _align(a, order_a, ro) * _align(b, order_b, ro)


def scalar_broadcast_div(a, b, order_a: int, order_b: int):
    """``tensor / scalar`` with possibly-laned operands (see mul)."""
    ro = max(order_a, order_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _align(a, order_a, ro) / _align(b, order_b, ro)


def div0(a, b):
    """Real division with divide-by-zero warnings suppressed.

    A light ``if`` arm runs on every lane of its block, so dead lanes may
    divide by zero; their inf/NaN results are discarded by the φ selects.
    (A heavy arm runs on its live lanes only, see :func:`live`; a live
    lane's inf/NaN is the program's own result.)
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def select(cond, a, b, order: int = None):
    """Strict conditional value; lane-wise ``np.where``.

    ``order`` is the tensor order of the branch values; a laned condition
    gets that many trailing singleton axes so it selects whole tensors
    lane-wise.  When omitted it is inferred from the wider branch value.
    """
    cond = np.asarray(cond)
    a = np.asarray(a)
    b = np.asarray(b)
    if order is None:
        order = max(a.ndim, b.ndim) - cond.ndim if cond.ndim else 0
        order = max(order, 0)
    if cond.ndim > 0 and order > 0:
        cond = cond.reshape(cond.shape + (1,) * order)
    # a laned condition against unbatched branch values still broadcasts,
    # since the branches extend from the right
    return np.where(cond, a, b)


def any_lane(cond) -> bool:
    """True when any lane of a (possibly scalar) condition is set.

    Generated code wraps each predicated ``if`` arm in
    ``if rt.any_lane(cond):`` — a block whose lanes all agree (e.g. every
    ray already exited the volume) skips the dead arm entirely.  The φ
    selects drop exactly the lanes the skipped arm would have produced,
    so the guard never changes a result.  When the lanes disagree, a
    light arm runs on every lane and a heavy one on its live lanes only
    (:func:`live`), so no dead lane of a heavy arm gathers.
    """
    live = bool(np.any(cond))
    current().guard(not live)
    return live


def any_lane_not(cond) -> bool:
    """True when any lane of the condition is clear (guards else arms)."""
    live = not bool(np.all(cond))
    current().guard(not live)
    return live


# -- live-lane compaction (pygen's heavy arms) ---------------------------------
#
# When the lanes of a block disagree at a heavy ``if`` arm (the op table's
# ``heavy_arm``), generated code runs the arm on its live lanes only:
#
#     _i0t = rt.live(c) if <some lane skips the arm> else None
#     v7_i0t, v9_i0t = rt.take(_i0t, v7, v9)   # the laned values it reads
#     ...                                      # the arm, on those copies
#     rt.widen(_i0t)
#     v12 = rt.join(c, v11, v3, order, _i0t, None)   # each φ, full width
#
# ``None`` is the uniform case: every lane takes the arm, nothing is
# compacted, and the arm runs on the block as it is.


def live(cond) -> np.ndarray:
    """The lanes of a mixed block that take a heavy arm.

    While the arm runs (until :func:`widen`), this thread's gather hook
    names the strand rows of those lanes only, so a NumPy footprint holds
    exactly the live lanes' reads — what the native kernel records.
    """
    idx = np.flatnonzero(cond)
    pair = getattr(_FOOTPRINT, "pair", None)
    if pair is not None and pair[1] is not None:
        # the hook being narrowed rides along, for widen to put back
        _FOOTPRINT.pair = (pair[0], pair[1][idx], pair)
    current().guard(compacted=True)
    return idx


def widen(idx) -> None:
    """End the compacted arm that :func:`live` began (``idx`` is what it
    returned, or ``None`` when nothing was compacted)."""
    if idx is None:
        return
    pair = getattr(_FOOTPRINT, "pair", None)
    if pair is not None and pair[1] is not None:
        _FOOTPRINT.pair = pair[2]


def take(idx, *values) -> tuple:
    """Laned ``values`` at lanes ``idx`` (as they are when ``idx`` is
    ``None``)."""
    if idx is None:
        return values
    return tuple(v[idx] for v in values)


def join(cond, a, b, order: int, ia=None, ib=None):
    """The φ of a region whose arms may have run compacted.

    ``ia`` (``ib``) is the then (else) arm's lane index when ``a`` (``b``)
    was computed on those lanes only, ``None`` when it is full-width or
    uniform.  Lane for lane the result is :func:`select`'s.
    """
    if ia is None and ib is None:
        return select(cond, a, b, order)
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.shape(cond)[:1] + a.shape[a.ndim - order:],
                   np.result_type(a, b))
    if ib is None:
        out[...] = b
    elif ia is None:
        out[...] = a
    if ia is not None:
        out[ia] = a
    if ib is not None:
        out[ib] = b
    return out


def clamp(lo, hi, x):
    """Diderot's ``clamp(lo, hi, x)``."""
    return np.minimum(np.maximum(x, lo), hi)


def lerp(a, b, t, order: int = 0):
    """``lerp(a, b, t)``; ``order`` is the tensor order of ``a``/``b``."""
    t = np.asarray(t)
    a = np.asarray(a)
    if t.ndim > 0 and order > 0:  # laned scalar t against tensor operands
        t = t.reshape(t.shape + (1,) * order)
    return a + t * (np.asarray(b) - a)


def power(a, b):
    """``a ^ b`` with negative-base integer exponents handled exactly."""
    with np.errstate(invalid="ignore"):
        return np.power(a, b)


# -- small-tensor ops (delegating to the tensors substrate) -------------------


def dot_ord(u, v, order_u: int, order_v: int):
    """``u • v`` dispatched on the *semantic* tensor orders.

    Contraction of adjacent indices (paper §3.2): vector•vector,
    matrix•vector, vector•matrix, and matrix•matrix, all lane-batched.
    """
    if (order_u, order_v) == (1, 1):
        return np.sum(np.asarray(u) * np.asarray(v), axis=-1)
    if (order_u, order_v) == (2, 1):
        return np.einsum("...ij,...j->...i", u, v)
    if (order_u, order_v) == (1, 2):
        return np.einsum("...i,...ij->...j", u, v)
    if (order_u, order_v) == (2, 2):
        return np.matmul(u, v)
    raise ValueError(f"dot is not defined for orders {(order_u, order_v)}")


cross = _tops.cross
outer = _tops.outer
trace = _tops.trace
det = _tops.determinant
transpose = _tops.transpose
normalize_v = _tops.normalize


def evals(m):
    """Symmetric eigenvalues; computed in float64, returned at input dtype."""
    out = _eigen.evals(m)
    return out.astype(np.asarray(m).dtype, copy=False)


def evecs(m):
    """Symmetric eigenvectors; computed in float64, returned at input dtype."""
    out = _eigen.evecs(m)
    return out.astype(np.asarray(m).dtype, copy=False)


def norm(t, order: int):
    return _tops.norm(t, order=order)


def tensor_cons(elem_order: int, *elems):
    """``[e1, ..., en]``: stack elements along a new leading *tensor* axis.

    ``elem_order`` is the tensor order of each element; an element with
    more array axes than that carries a lane axis, in which case the stack
    goes after the lane axis and lane-less (constant) elements broadcast.
    """
    elems = [np.asarray(e) for e in elems]
    laned = any(e.ndim > elem_order for e in elems)
    if not laned:
        return np.stack(elems, axis=0)
    lane_shape = next(e.shape for e in elems if e.ndim > elem_order)
    elems = [
        e if e.ndim > elem_order else np.broadcast_to(e, lane_shape)
        for e in elems
    ]
    return np.stack(elems, axis=1)


def tensor_index(t, indices: tuple, order: int):
    """Constant tensor indexing; ``order`` is the base value's tensor order
    (used to detect and skip over a lane axis)."""
    t = np.asarray(t)
    if t.ndim > order:
        return t[(slice(None),) + tuple(indices)]
    return t[tuple(indices)]


def identity(n: int, dtype=np.float64):
    """The ``identity[n]`` literal: the n x n identity matrix."""
    return np.eye(n, dtype=dtype)


def to_real(v, dtype):
    """int → real cast for scalars and lane arrays alike."""
    if isinstance(v, np.ndarray):
        return v.astype(dtype)
    return dtype(v)


_INT64_MIN = -(1 << 63)
_INT_END = 2.0**63  # int64 holds the reals in [-_INT_END, _INT_END)


def to_int(v):
    """real → int cast, truncating toward zero (C semantics).  NaN, ±inf
    and reals outside int64's range give ``INT64_MIN``, laned or not, as
    the op's C template does (a bare C cast is undefined there)."""
    if isinstance(v, np.ndarray):
        ok = (v >= -_INT_END) & (v < _INT_END)  # False for NaN
        return np.where(ok, np.where(ok, v, 0).astype(np.int64), _INT64_MIN)
    return int(v) if -_INT_END <= v < _INT_END else _INT64_MIN


# -- probe machinery (MidIR/LowIR ops; see paper §5.3) -------------------------


def to_index(image, pos):
    """world → image-index coordinates (``M⁻¹``)."""
    return image.orientation.to_index(pos).astype(np.asarray(pos).dtype, copy=False)


def floor_i(pos_index):
    n, _ = split_position(pos_index)
    return n


def fract(pos_index):
    _, f = split_position(pos_index)
    return f


# When set (see runtime.incremental), every gather on this thread reports
# the image and index vectors it reads, and which strand rows its lanes
# are, so per-strand footprints can be accumulated.  Per thread: each
# NumPy block sets the pair on the thread that runs it (so thread workers
# record inline), seed/init/stabilize on the run's own thread, and another
# program running elsewhere in the process must not report to it.
_FOOTPRINT = threading.local()


@contextmanager
def recording(recorder, lanes=None):
    """Make ``(recorder, lanes)`` this thread's gather hook inside the
    ``with`` (``lanes``: the strand rows of the running lanes, ``None`` for
    gathers no strand owns; ``recorder=None``: no hook); the previous pair
    comes back afterwards."""
    prev = getattr(_FOOTPRINT, "pair", None)
    _FOOTPRINT.pair = None if recorder is None else (recorder, lanes)
    try:
        yield
    finally:
        _FOOTPRINT.pair = prev


def gather(image, n, support: int):
    """Neighborhood gather; returns (lanes, 2s[, 2s[, 2s]], *tensor_shape).

    Also accepts a single unbatched index vector (a probe at a constant
    position, e.g. in a state initializer that folded to a constant).
    """
    n = np.asarray(n)
    pair = getattr(_FOOTPRINT, "pair", None)
    if pair is not None:
        pair[0].on_gather(image, n, support, pair[1])
    t0 = clock()
    if n.ndim == 1:
        out = gather_neighborhood(image.data, n[None, :], support, image.dim)[0]
        lanes = 1
    else:
        out = gather_neighborhood(image.data, n, support, image.dim)
        lanes = n.shape[0]
    current().op("gather", lanes, clock() - t0)
    return out


def weights(kernel, f_axis, deriv: int):
    """Per-axis kernel weights (MidIR form; LowIR expands to Horner)."""
    return axis_weights(kernel, np.asarray(f_axis), deriv)


def horner(coeffs: tuple, f):
    """Evaluate one weight polynomial (LowIR's expanded kernel evaluation).

    Accumulates in place (``acc *= f; acc += c``) into one freshly-sized
    buffer instead of allocating a new temporary per coefficient, which is
    what the old ``acc = acc * f + c`` form did on every polynomial of
    every block of every super-step.
    """
    f = np.asarray(f)
    acc = np.empty(f.shape, dtype=f.dtype if f.dtype.kind == "f" else np.float64)
    acc.fill(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= f
        acc += c
    return acc


def vec_cons(*scalars):
    """Pack per-lane scalars into a per-lane vector (lanes, n)."""
    return np.stack([np.asarray(s) for s in scalars], axis=-1)


_CONTRACT_SPECS = {
    1: "ni...,ni->n...",
    2: "nij...,ni,nj->n...",
    3: "nijk...,ni,nj,nk->n...",
}
_CONTRACT_SPECS_FLAT = {
    1: "i...,i->...",
    2: "ij...,i,j->...",
    3: "ijk...,i,j,k->...",
}


def conv_contract(vox, *axis_weights_args):
    """Contract a gathered neighborhood with per-axis weight vectors.

    Weight vectors of shape (2s,) mark an unbatched (constant-position)
    probe; (lanes, 2s) is the batched form.
    """
    d = len(axis_weights_args)
    w0 = np.asarray(axis_weights_args[0])
    flat = w0.ndim == 1
    spec = _CONTRACT_SPECS_FLAT[d] if flat else _CONTRACT_SPECS[d]
    t0 = clock()
    out = np.einsum(spec, vox, *axis_weights_args)
    current().op("conv_contract", 1 if flat else int(w0.shape[0]),
                 clock() - t0)
    return out


# -- fused probe evaluation (probe_fuse pass; see DESIGN.md "Probe fusion") ---

_AXIS_SPEC = "na...,na->n..."
_AXIS_SPEC_FLAT = "a...,a->..."


def contract_axis(x, w):
    """Contract the leading remaining sample axis of ``x`` with weights ``w``.

    ``x`` is a gathered neighborhood (lanes, 2s, ..., *tshape) or a partial
    contraction thereof; ``w`` is (lanes, 2s) — or (2s,) for an unbatched
    constant-position probe, mirroring :func:`conv_contract`'s convention.
    """
    w = np.asarray(w)
    spec = _AXIS_SPEC_FLAT if w.ndim == 1 else _AXIS_SPEC
    t0 = clock()
    out = np.einsum(spec, x, w)
    current().op("contract_axis", 1 if w.ndim == 1 else int(w.shape[0]),
                 clock() - t0)
    return out


class _ScratchPool:
    """Per-thread reusable buffers for probe_parts intermediates.

    Buffers are keyed by (trailing shape, dtype) and handed out
    round-robin within one :func:`probe_parts` call (``begin`` resets the
    counters), so they are reused across blocks and super-steps without
    ever aliasing two *live* intermediates.  A buffer serves any leading
    (lane) extent up to the largest asked for, as a prefix view: a
    compacted heavy arm asks for a different lane count nearly every
    time.  Final results are never drawn from here: they escape into
    strand state (``Program.run`` adopts result arrays in-place), so they
    must own their memory.
    """

    def __init__(self):
        self.bufs: dict[tuple, list] = {}
        self.used: dict[tuple, int] = {}
        #: cumulative allocation/reuse tallies; the op profiler reports
        #: per-call deltas as the scratch-pool hit rate
        self.allocs = 0
        self.reused = 0

    def begin(self) -> None:
        self.used.clear()

    def get(self, shape: tuple, dtype) -> np.ndarray:
        key = (shape[1:], np.dtype(dtype).str)
        n = self.used.get(key, 0)
        lst = self.bufs.setdefault(key, [])
        if n == len(lst):
            lst.append(np.empty(shape, dtype))
            self.allocs += 1
        elif lst[n].shape[0] < shape[0]:
            lst[n] = np.empty(shape, dtype)
            self.allocs += 1
        else:
            self.reused += 1
        self.used[key] = n + 1
        return lst[n][:shape[0]]


_SCRATCH = threading.local()


def _scratch() -> _ScratchPool:
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = _ScratchPool()
    return pool


def probe_parts(specs: tuple, vox, *weights):
    """Evaluate several probe contractions through a shared partial tree.

    ``specs`` holds one tuple per result; entry ``spec[a]`` is the index
    into ``weights`` of the weight vector contracted along sample axis
    ``a``.  Axes are contracted left to right and every partial sum is
    memoized on its weight-index prefix, so derivative combos sharing a
    prefix (e.g. the six distinct Hessian components plus F and ∇F at one
    position) each pay only for the axes where they diverge — the
    d^r full contractions of the unfused pipeline become O(d·(r+1))
    incremental axis contractions.

    Intermediates land in per-thread scratch buffers reused across calls;
    finals are freshly allocated (they escape into strand state).

    Profiling (always-on, :mod:`repro.obs`): per call it records
    lanes processed, prefix-memo hits/misses (deterministic — asserted
    identical across schedulers), and the scratch pool's reuse/alloc
    tallies (per-thread, timing-class).
    """
    t0 = clock()
    vox = np.asarray(vox)
    ws = [np.asarray(w) for w in weights]
    batched = ws[0].ndim == 2
    spec_c = _AXIS_SPEC if batched else _AXIS_SPEC_FLAT
    lead = 1 if batched else 0
    pool = _scratch()
    pool.begin()
    allocs0, reused0 = pool.allocs, pool.reused
    memo_hits = memo_misses = 0
    dtype = np.result_type(vox, ws[0])
    cache: dict[tuple, np.ndarray] = {(): vox}
    results = []
    for spec in specs:
        prefix: tuple = ()
        val = vox
        last = len(spec) - 1
        for k, wi in enumerate(spec):
            nxt = prefix + (wi,)
            got = cache.get(nxt)
            if got is None:
                memo_misses += 1
                if k == last:
                    got = np.einsum(spec_c, val, ws[wi])
                else:
                    shape = val.shape[:lead] + val.shape[lead + 1:]
                    got = np.einsum(spec_c, val, ws[wi],
                                    out=pool.get(shape, dtype))
                cache[nxt] = got
            else:
                memo_hits += 1
            val = got
            prefix = nxt
        results.append(val)
    m = current()
    m.op("probe_parts", int(ws[0].shape[0]) if batched else 1, clock() - t0)
    m.inc_many({
        "op.probe_parts.memo_hits": memo_hits,
        "op.probe_parts.memo_misses": memo_misses,
        "mem.scratch.allocated": pool.allocs - allocs0,
        "mem.scratch.reused": pool.reused - reused0,
    })
    return tuple(results)


def deriv_assemble(parts, tshape: tuple, dim: int, deriv: int):
    """Assemble d^r per-combo contractions into one lane tensor.

    ``parts`` are in row-major combo order (last derivative index fastest);
    each has shape (lanes, *tshape) — or (*tshape) for an unbatched probe.
    Result: (lanes?, *tshape, d, ..., d).
    """
    parts = [np.asarray(p) for p in parts]
    laned = parts[0].ndim > len(tshape)
    lead = 1 if laned else 0
    stacked = np.stack(parts, axis=lead)  # (lanes?, d^r, *tshape)
    head = stacked.shape[:lead]
    out = stacked.reshape(head + (dim,) * deriv + tuple(tshape))
    # move the derivative axes after the tensor-shape axes
    if tshape:
        order = (
            tuple(range(lead))
            + tuple(range(lead + deriv, lead + deriv + len(tshape)))
            + tuple(range(lead, lead + deriv))
        )
        out = np.transpose(out, order)
    return np.ascontiguousarray(out)


def grad_xform(image, t, deriv: int):
    """Contract the trailing ``deriv`` axes with ``M⁻ᵀ`` (paper §5.3)."""
    if deriv == 0:
        return t
    g = image.orientation.gradient_transform_as(np.asarray(t).dtype)
    out = np.asarray(t)
    nd = out.ndim
    for pos in range(deriv):
        axis = nd - deriv + pos
        out = np.moveaxis(np.tensordot(out, g, axes=([axis], [1])), -1, axis)
    return out


def probe_high(image, kernel, pos, deriv: int):
    """Whole-probe reference op (HighIR level, used by the interpreter)."""
    from repro.fields.probe import probe_convolution

    return probe_convolution(image, kernel, pos, deriv)


def inside_high(image, support: int, pos):
    return probe_inside(image, support, pos)
