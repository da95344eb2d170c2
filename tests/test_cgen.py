"""Native C backend: golden equivalence, error paths, graceful fallback.

The NumPy backend is the differential oracle: every example program run
through ``--backend c`` under every scheduler that runs it (seq and
thread; the process pool runs NumPy only) must agree with the
sequential NumPy run to 1e-12 (in practice the agreement is exact — the
emitted C mirrors NumPy's operation order and ``-ffp-contract=off`` keeps
FMA contraction from re-rounding).  The kernel is strand-batched
(``DD_VB`` SoA lanes per iteration, the lanes of a block's last, partial
batch repeating its last strand), so equivalence is additionally pinned
at scheduler block sizes 1/64/4096 against the double-precision oracle,
block sizes that pad batches are bit-identical to one block in both
precisions, and with the batch width forced to 1, the scalar kernel
that is the vectorized emission's reference, and with probe fusion off (the
``conv_contract`` form of a probe, which no fused program emits).  Single
precision (``precision="single"``) runs natively too, checked against the
float64 NumPy run at the relaxed tolerance DESIGN.md documents (1e-5
relative).  Corrupted LowIR must surface as a clean
:class:`~repro.errors.CodegenError`, and a missing C compiler must degrade
to NumPy with a warning, never a crash.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import driver
from repro.core.codegen import cbuild, cgen
from repro.core.codegen.cgen import generate_c_module
from repro.core.driver import OptOptions, compile_file, compile_program
from repro.errors import CodegenError, InputError
from repro.fields.probe import split_position
from repro.image import Image
from repro.programs import ALL
from repro.runtime import ops as rt

requires_cc = pytest.mark.skipif(
    not cbuild.compiler_available(),
    reason="native backend needs a C compiler on PATH",
)

#: per-program kwargs keeping every example tiny enough for CI
PROGRAM_KW = {
    "vr-lite": dict(scale=0.1, volume_size=24),
    "illust-vr": dict(scale=0.1, volume_size=24),
    "ridge3d": dict(scale=0.4, volume_size=24),
    "lic2d": dict(scale=0.08),
    "isocontour": dict(scale=0.08),
}
MAX_STEPS = 40  # cap the renderers; equivalence holds step by step


def run_outputs(name, backend, scheduler="seq", workers=1, **kw):
    prog = ALL[name].make_program(**PROGRAM_KW[name])
    res = prog.run(max_steps=MAX_STEPS, backend=backend,
                   scheduler=scheduler, workers=workers, **kw)
    return res


def assert_outputs_equal(a, b):
    assert set(a.outputs) == set(b.outputs)
    for k in a.outputs:
        assert np.allclose(a.outputs[k], b.outputs[k],
                           rtol=1e-12, atol=1e-12, equal_nan=True), k
    assert a.steps == b.steps
    assert a.num_stable == b.num_stable
    assert a.num_died == b.num_died


#: the C emission variants every golden seq test also runs: the scalar
#: kernel (batch width 1), and the paper programs compiled without probe
#: fusion
PAPER = [n for n in ALL if n != "isocontour"]
SEQ_VARIANTS = (
    [pytest.param(n, None, id=n) for n in ALL]
    + [pytest.param(n, "vb1", id=f"{n}-vb1") for n in ALL]
    + [pytest.param(n, "unfused", id=f"{n}-unfused") for n in PAPER]
)


@requires_cc
class TestGoldenEquivalence:
    @pytest.mark.parametrize("name,variant", SEQ_VARIANTS)
    def test_seq(self, name, variant, monkeypatch):
        a = run_outputs(name, "numpy")
        if variant == "vb1":
            monkeypatch.setattr(cgen, "DEFAULT_VB_DOUBLE", 1)
        elif variant == "unfused":
            # make_program imports the driver's compile_program when called
            unfused = OptOptions(probe_fusion=False)
            monkeypatch.setattr(
                driver, "compile_program",
                lambda src, **kw: compile_program(src, optimize=unfused, **kw))
        prog = ALL[name].make_program(**PROGRAM_KW[name])
        emitted = {ins.op for ins in prog.high.update_func.body.instructions()}
        assert ("conv_contract" in emitted) == (variant == "unfused")
        b = prog.run(max_steps=MAX_STEPS, backend="c")
        assert_outputs_equal(a, b)

    @pytest.mark.parametrize("name", list(ALL))
    def test_thread(self, name):
        a = run_outputs(name, "numpy")
        b = run_outputs(name, "c", scheduler="thread", workers=2,
                        block_size=37)
        assert_outputs_equal(a, b)

    # Block sizes that stress the batched kernel's lane handling: 1 is the
    # all-tail degenerate case (every batch is a partial lane group), 64 is
    # a mix of full batches and tails, 4096 exceeds every example's strand
    # count so one block covers the whole population.
    @pytest.mark.parametrize("block_size", [1, 64, 4096])
    @pytest.mark.parametrize("scheduler", ["seq", "thread"])
    def test_batched_block_sizes(self, scheduler, block_size):
        a = run_outputs("ridge3d", "numpy")
        workers = 1 if scheduler == "seq" else 2
        b = run_outputs("ridge3d", "c", scheduler=scheduler,
                        workers=workers, block_size=block_size)
        assert_outputs_equal(a, b)

    # The lanes past a block's end repeat its last strand: block sizes 1
    # and 3 pad every batch, 5 pads one batch per block in double (a full
    # batch and one lane) and every batch in single, 4097 pads the last
    # batch unless the population is a multiple of DD_VB.  Each must
    # reproduce the default single block bit for bit, in both precisions,
    # run to the end: a strand stepped twice in one super-step (a padded
    # lane that copied the wrong strand) ends on the same state earlier,
    # so the per-step tallies are compared too.
    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("name", PAPER)
    def test_partial_blocks_bit_identical(self, name, precision):
        def run(**kw):
            prog = ALL[name].make_program(precision=precision, **PROGRAM_KW[name])
            res = prog.run(backend="c", **kw)
            assert res.metrics.counters["op.native_update.calls"] > 0
            tallies = [(r["active"], r["stable"], r["died"])
                       for r in res.metrics.series["steps"]]
            return {k: v.tobytes() for k, v in res.outputs.items()}, tallies

        want = run()
        for block_size in (1, 3, 5, 4097):
            for scheduler, workers in (("seq", 1), ("thread", 2)):
                got = run(block_size=block_size, scheduler=scheduler,
                          workers=workers)
                assert got == want, (block_size, scheduler)

    def test_forced_scalar_batch_matches_default(self, monkeypatch):
        # batch width 1 is the scalar kernel: its one contract is that it
        # produces bit-identical results to the batched default.
        a = run_outputs("ridge3d", "c")
        monkeypatch.setattr(cgen, "DEFAULT_VB_DOUBLE", 1)
        b = run_outputs("ridge3d", "c")
        for k in a.outputs:
            assert a.outputs[k].tobytes() == b.outputs[k].tobytes(), k
        assert_outputs_equal(a, b)


@requires_cc
class TestSinglePrecision:
    """``--single`` runs natively: float32 kernels vs the float64 oracle."""

    def _single_vs_double(self, name, capsys):
        double = run_outputs(name, "numpy")
        prog = ALL[name].make_program(precision="single", **PROGRAM_KW[name])
        single = prog.run(max_steps=MAX_STEPS, backend="c")
        assert "falling back to NumPy" not in capsys.readouterr().err
        assert set(single.outputs) == set(double.outputs)
        for k in single.outputs:
            assert single.outputs[k].dtype == np.float32, k
            assert np.allclose(single.outputs[k], double.outputs[k],
                               rtol=1e-5, atol=1e-5, equal_nan=True), k

    def test_ridge3d_single_native(self, capsys):
        self._single_vs_double("ridge3d", capsys)

    def test_lic2d_single_native(self, capsys):
        self._single_vs_double("lic2d", capsys)

    def test_single_schedulers_agree(self):
        prog = ALL["ridge3d"].make_program(precision="single",
                                           **PROGRAM_KW["ridge3d"])
        a = prog.run(max_steps=MAX_STEPS, backend="c")
        prog2 = ALL["ridge3d"].make_program(precision="single",
                                            **PROGRAM_KW["ridge3d"])
        b = prog2.run(max_steps=MAX_STEPS, backend="c", scheduler="thread",
                      workers=2, block_size=37)
        assert_outputs_equal(a, b)

    def test_single_fuzz_leg(self):
        from repro.core.verify.fuzz import fuzz

        report = fuzz(n=2, seed=3, schedulers=("seq",), shrink=False,
                      backend="c", precision="single")
        assert report.ok, report.failures[0].message

    def test_single_eigensystem_is_computed_in_double(self):
        """``rt.evals`` works in float64 at any precision, and so must the
        float kernel: else a rank-one matrix's zero eigenvalue is float
        rounding noise on the C side only (``fuzz --single`` seed 13)."""
        src = """
            strand S (int i) {
                output vec2 v = [0.1, real(i)];
                update { v = evals(outer(v, v)); stabilize; }
            }
            initially [ S(i) | i in 0 .. 11 ];
        """
        prog = compile_program(src, precision="single")
        got = prog.run(backend="c").outputs["v"]
        want = prog.run(backend="numpy").outputs["v"]
        assert np.allclose(got, want, rtol=2e-5, atol=1e-6), got - want


@requires_cc
class TestSemantics:
    def test_integer_division_by_zero(self):
        from repro.errors import RuntimeErrorD

        src = """
            strand S (int i) {
                output int x = 1;
                update { x = x / (i - 2); stabilize; }
            }
            initially [ S(i) | i in 0 .. 5 ];
        """
        prog = compile_program(src)
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            prog.run(backend="c")

    def test_truncating_int_div_matches_numpy(self):
        src = """
            strand S (int i) {
                output int q = 0;
                output int r = 0;
                update { q = (i - 3) / 2; r = (i - 3) % 2; stabilize; }
            }
            initially [ S(i) | i in 0 .. 7 ];
        """
        a = compile_program(src).run(backend="numpy")
        b = compile_program(src).run(backend="c")
        assert np.array_equal(a.outputs["q"], b.outputs["q"])
        assert np.array_equal(a.outputs["r"], b.outputs["r"])

    def test_fuzz_leg(self):
        from repro.core.verify.fuzz import fuzz

        report = fuzz(n=4, seed=7, schedulers=("seq",), shrink=False,
                      backend="c")
        assert report.ok, report.failures[0].message

    def test_native_update_metric_recorded(self):
        prog = ALL["isocontour"].make_program(**PROGRAM_KW["isocontour"])
        counters = prog.run(max_steps=5, backend="c").metrics.counters
        assert counters.get("op.native_update.calls", 0) > 0
        assert counters.get("op.native_update.seconds", 0) > 0

    def test_native_update_metric_is_exact(self):
        # one call per block per step and one lane per strand update,
        # whether the steps were looped in the kernel or in Python
        prog = ALL["isocontour"].make_program(**PROGRAM_KW["isocontour"])
        for hook in (None, lambda ev: None):
            res = prog.run(backend="c", block_size=16, on_step=hook)
            c = res.metrics.counters
            rows = res.metrics.series["steps"]
            assert c["op.native_update.calls"] == sum(r["blocks"] for r in rows)
            assert c["op.native_update.lanes"] == c["strands.updated"] \
                == sum(r["active"] for r in rows)
            assert 0 < c["op.native_update.seconds"] < res.wall_time

    def test_long_run_reenters_the_kernel(self, monkeypatch):
        # a run longer than one tally chunk goes back into dd_run and
        # still counts every step exactly once
        from repro.runtime import native

        src = """
            strand S (int i) {
                output int n = 0;
                update { n += 1; if (n >= 7 + i) stabilize; }
            }
            initially [ S(i) | i in 0 .. 5 ];
        """
        prog = compile_program(src)
        want = prog.run(backend="c")
        monkeypatch.setattr(native, "TALLY_STEPS", 4)
        got = prog.run(backend="c")
        assert got.metrics.counters["runtime.loop.kernel"] == 1
        assert got.steps == want.steps == 12
        assert np.array_equal(got.outputs["n"], np.arange(7, 13))
        assert got.metrics.series["steps"] == [
            dict(r, seconds=g["seconds"])
            for r, g in zip(want.metrics.series["steps"],
                            got.metrics.series["steps"])]
        assert [r["active"] for r in got.metrics.series["steps"]] == \
            [6] * 7 + [5, 4, 3, 2, 1]
        assert got.metrics.counters["sched.supersteps"] == 12
        # max_steps cuts a chunked run at exactly the step asked for
        for k in (1, 4, 5, 9):
            res = prog.run(backend="c", max_steps=k)
            assert res.steps == k
            assert np.array_equal(res.outputs["n"], np.minimum(k, np.arange(7, 13)))

    def test_run_range_reports_steps_and_keeps_the_index(self, bound_kernels):
        src = """
            strand S (int i) {
                output int n = 0;
                update {
                    n += 1;
                    if (i == 2 && n == 2) die;
                    if (n >= 1 + i) stabilize;
                }
            }
            initially [ S(i) | i in 0 .. 7 ];
        """
        prog = compile_program(src)
        prog.run(backend="c", max_steps=0)  # bind, run nothing
        (native, _), = bound_kernels
        idx = np.array([6, 1, 3, 2], dtype=np.int64)  # any order, any gaps
        before = idx.copy()
        counts, seconds = native.run_range(idx, max_steps=3)
        assert np.array_equal(idx, before)
        # at n == 2 strand 1 stabilizes and strand 2 dies
        assert counts.tolist() == [[4, 0, 0], [4, 1, 1], [2, 0, 0]]
        assert seconds.shape == (3,) and np.all(seconds > 0)
        # strand 6 is at n == 3 now and leaves at n == 7
        counts, _ = native.run_range(idx, 0, 1, max_steps=100)
        assert counts.tolist() == [[1, 0, 0]] * 3 + [[1, 1, 0]]
        assert native.run_range(idx, 1, 1)[0].shape == (0, 3)

    def test_invalid_backend_rejected(self):
        prog = ALL["isocontour"].make_program(**PROGRAM_KW["isocontour"])
        with pytest.raises(InputError, match="backend"):
            prog.run(backend="fortran")


# -- inside: two compares per axis --------------------------------------------

#: (support, continuity) of each kernel the ``inside`` exactness tests use
KERNELS = {"tent": (1, 0), "bspln3": (2, 2)}


def _inside_sizes(s):
    """An empty valid floor range (size 2s-1), a one-floor range (2s) and
    an ordinary one."""
    return (2 * s - 1, 2 * s, 11)


def _adversarial(size, s, dtype):
    """Coordinates where a compare of ``x`` against the bounds could part
    from the floor of ``x``: non-finite values, signed zeros, the ±2^40
    clamp of ``split_position`` and beyond, and each bound with its
    ``nextafter`` neighbours in ``dtype``."""
    real = np.dtype(dtype).type
    big = 2.0 ** 40
    xs = [np.nan, np.inf, -np.inf, 0.0, -0.0, 2 * big, -2 * big, 2.0 ** 63,
          -(2.0 ** 63), np.finfo(dtype).max, -np.finfo(dtype).max]
    for edge in (s - 2, s - 1, s, size - 1 - s, size - s, big, -big):
        v = real(edge)
        xs += [v, np.nextafter(v, real(-np.inf)), np.nextafter(v, real(np.inf))]
    return np.array(xs, dtype=dtype)


def _floor_form(image, x, s):
    """``inside`` as the floor of ``split_position`` decides it: finite, and
    the floor in :meth:`Image.index_bounds` on every axis."""
    n, _ = split_position(x)
    lo, hi = image.index_bounds(s)
    return np.all(np.isfinite(x) & (n >= lo) & (n <= hi), axis=-1)


#: ``ok`` is ``inside`` at coordinate ``xs[i]`` of a 1-D image whose world
#: and index space coincide; the arms of the select copy ``xs[i]`` exactly
INSIDE_SRC = """
input tensor[{k}] xs = [{zeros}];
image(1)[] img = load("v.nrrd");
field#{cont}(1)[] F = img ⊛ {kernel};
strand S (int i) {{
    output bool ok = false;
    update {{ ok = inside({select}, F); stabilize; }}
}}
initially [ S(i) | i in 0 .. {last} ];
"""


class TestInsideExactness:
    """``s-1 <= x < size-s`` is the floor form's ``inside`` bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_numpy_matches_floor_form(self, kernel, dtype):
        s, _ = KERNELS[kernel]
        for size in _inside_sizes(s):
            image = Image(np.zeros((size, size)), dim=2)
            xs = _adversarial(size, s, dtype)
            pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
            want = _floor_form(image, pts, s)
            assert want.any() == (size > 2 * s - 1), size
            assert rt.index_inside(image, pts, s).tolist() == want.tolist(), size

    @requires_cc
    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_native_matches_floor_form(self, kernel, precision):
        s, cont = KERNELS[kernel]
        dtype = np.float32 if precision == "single" else np.float64
        k = len(_adversarial(1, s, dtype))
        select = "0.0"
        for i in reversed(range(k)):
            select = f"(xs[{i}] if i == {i} else {select})"
        prog = compile_program(INSIDE_SRC.format(
            k=k, zeros=", ".join(["0.0"] * k), cont=cont, kernel=kernel,
            select=select, last=k - 1), precision=precision)
        for size in _inside_sizes(s):
            image = Image(np.zeros(size), dim=1)
            prog.bind_image("img", image)
            xs = _adversarial(size, s, dtype)
            prog.set_input("xs", xs)
            want = _floor_form(image, xs[:, None], s).tolist()
            for block_size in (1, 5):
                res = prog.run(backend="c", block_size=block_size)
                assert res.metrics.counters["op.native_update.calls"] > 0
                assert res.outputs["ok"].tolist() == want, (size, block_size)


# -- the emitted kernel's shape -------------------------------------------------

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples" / "programs")
    .glob("*.diderot"))


class TestKernelShape:
    """One batch body in one lane loop, each state slot loaded at one site
    and stored at one site, and an ``inside`` without a floor, in every
    example's C."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_one_batch_body(self, path, monkeypatch):
        insides = []
        emit_inside = cgen._Emitter._op_index_inside

        def spy(self, ins):
            start = len(self.lines)
            emit_inside(self, ins)
            insides.append("\n".join(self.lines[start:]))

        monkeypatch.setattr(cgen._Emitter, "_op_index_inside", spy)
        c_source, plan = generate_c_module(compile_file(str(path), cache=False).high)
        update = c_source[c_source.index(" dd_update("):c_source.index(" dd_run(")]
        assert update.count("for (;;)") == 1
        assert "_direct" not in update and "_k0" not in update
        sites = {}
        for table, alias in (("real_ptrs", "_rp"), ("int_ptrs", "_ip"),
                             ("bool_ptrs", "_bp")):
            for i, entry in enumerate(plan[table]):
                if entry[0] not in ("state", "status"):
                    continue
                ref = f"{alias}{i}["
                lhs = [line.rpartition(" = ") for line in update.splitlines()
                       if ref in line]
                sites[entry] = (sum(ref in rhs for _, _, rhs in lhs),
                                sum(ref in left for left, _, _ in lhs))
        n_ret, n_state = plan["n_ret"], plan["n_state"]
        assert sites == {("status",): (0, 1),
                         **{("state", si): (1, int(si < n_ret))
                            for si in range(n_state)}}
        assert all("dd_floor" not in text for text in insides)

    #: two state slots that trade values every step: each result is the
    #: other slot's value, so a carry that copied slot by slot would read
    #: one it had just overwritten
    SWAP = """
        strand S (int i) {
            output real a = real(i);
            output real b = -1.0;
            output bool odd = false;
            int n = 0;
            update {
                real t = a;
                a = b;
                b = t;
                odd = !odd;
                n += 1;
                if (n >= 3 + i % 4) stabilize;
            }
        }
        initially [ S(i) | i in 0 .. 9 ];
    """

    @requires_cc
    def test_carried_state_swaps(self):
        prog = compile_program(self.SWAP)
        kernel = prog.run(backend="c", block_size=3)
        stepped = prog.run(backend="c", block_size=3, on_step=lambda ev: None)
        ref = prog.run(backend="numpy")
        assert kernel.metrics.counters["runtime.loop.kernel"] == 1
        for key in ref.outputs:
            assert kernel.outputs[key].tobytes() == stepped.outputs[key].tobytes()
            assert np.array_equal(kernel.outputs[key], ref.outputs[key]), key
        assert list(kernel.outputs["odd"]) == [n % 2 == 1 for n in
                                               (3 + i % 4 for i in range(10))]


# -- footprint recording inside the kernel -----------------------------------

#: DESIGN.md "Incremental execution": the paper programs plus the
#: incremental tests' probe program, small enough to run one strand per
#: NumPy block (45 steps with a 3.0 ray step reach through the volume)
FOOTPRINT_KW = {
    "vr-lite": dict(scale=0.06, volume_size=24),
    "illust-vr": dict(scale=0.06, volume_size=24),
    "ridge3d": dict(scale=0.4, volume_size=24),
    "lic2d": dict(scale=0.03),
}


def _footprint_program(name):
    if name == "probe":
        from repro.image import Image
        from tests.test_incremental import IMG, SOURCE

        prog = compile_program(SOURCE)
        prog.bind_image("img", Image(
            np.random.default_rng(0).random((IMG, IMG)), dim=2))
        return prog
    prog = ALL[name].make_program(**FOOTPRINT_KW[name])
    if "stepSz" in prog.input_names:
        prog.set_input("stepSz", 3.0)
    return prog


def _footprint_slots(native):
    return [native._ip[i] for i, entry in enumerate(native._plan["int_ptrs"])
            if entry[0] in ("fp_lo", "fp_hi")]


@requires_cc
class TestFootprintRecording:
    @pytest.mark.parametrize("name", [*FOOTPRINT_KW, "probe"])
    def test_native_boxes_contain_live_numpy_boxes(self, name):
        # one strand per NumPy block: the uniform-branch guard then skips
        # every arm the strand does not take, so the hook sees exactly the
        # gathers of live lanes
        ref = _footprint_program(name)
        ref.run(checkpoint=True, backend="numpy", block_size=1, max_steps=45)
        prog = _footprint_program(name)
        prog.run(checkpoint=True, backend="c", max_steps=45)
        want = ref._inc.recorder.boxes
        got = prog._inc.recorder.boxes
        assert want and set(want) <= set(got)
        sizes = {nm: np.asarray(im.sizes) for nm, im in
                 prog._context().images.items()}
        for img, (lo, hi) in want.items():
            nlo, nhi = got[img]
            live = (hi >= lo).all(axis=1)
            assert live.any(), img
            # the documented ±1 dilation absorbs a floor() that lands on
            # the other side of a sample under the 1e-12 contract
            assert (nlo[live] - 1 <= lo[live]).all(), img
            assert (nhi[live] + 1 >= hi[live]).all(), img
            recorded = (nhi >= nlo).all(axis=1)
            assert (nlo[recorded] >= 0).all(), img
            assert (nhi[recorded] <= sizes[img] - 1).all(), img

    @pytest.mark.parametrize("batch", [1, None])
    def test_unrecorded_run_binds_null_and_matches(self, batch, monkeypatch,
                                                   bound_kernels):
        if batch is not None:
            monkeypatch.setattr(cgen, "DEFAULT_VB_DOUBLE", batch)
        plain = run_outputs("ridge3d", "c")
        recorded = run_outputs("ridge3d", "c", checkpoint=True)
        (unbound, no_recorder), (bound, recorder) = bound_kernels
        assert no_recorder is None and recorder is not None
        slots = _footprint_slots(unbound)
        assert slots and all(p == 0 for p in slots)  # NULL
        assert all(p != 0 for p in _footprint_slots(bound))
        for k in plain.outputs:
            assert plain.outputs[k].tobytes() == recorded.outputs[k].tobytes()


def _corrupt(high, mutate):
    """A structural copy of ``high`` with its update func mutated."""
    import copy

    func = copy.deepcopy(high.update_func)
    mutate(func)
    return SimpleNamespace(
        update_func=func,
        images=high.images,
        concrete_globals=high.concrete_globals,
        state_order=high.state_order,
        extra_state=high.extra_state,
    )


class TestCorruptedLowIR:
    """Broken LowIR raises CodegenError — never a C compile error or worse."""

    @pytest.fixture(scope="class")
    def high(self):
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { x += real(i) * 0.5; stabilize; }
            }
            initially [ S(i) | i in 0 .. 3 ];
        """
        return compile_program(src).high

    def test_unknown_op(self, high):
        def mutate(func):
            for ins in func.body.instructions():
                if ins.op == "mul":
                    ins.op = "frobnicate"
        with pytest.raises(CodegenError, match="unsupported LowIR op"):
            generate_c_module(_corrupt(high, mutate))

    def test_bad_const_payload(self, high):
        def mutate(func):
            for ins in func.body.instructions():
                if ins.op == "const":
                    ins.attrs["value"] = object()
        with pytest.raises(CodegenError):
            generate_c_module(_corrupt(high, mutate))

    def test_unknown_image_reference(self, high):
        def mutate(func):
            for ins in func.body.instructions():
                if ins.op == "mul":
                    ins.attrs["image"] = "ghost"
        with pytest.raises(CodegenError, match="unknown image"):
            generate_c_module(_corrupt(high, mutate))

    def test_result_arity_mismatch(self, high):
        def mutate(func):
            func.results = func.results + func.results
        with pytest.raises(CodegenError, match="arity"):
            generate_c_module(_corrupt(high, mutate))


class TestFallback:
    def test_missing_compiler_warns_and_matches_numpy(self, monkeypatch, capsys):
        monkeypatch.setattr(cbuild, "find_compiler", lambda: None)
        a = run_outputs("isocontour", "numpy")
        b = run_outputs("isocontour", "c")
        err = capsys.readouterr().err
        assert "falling back to NumPy" in err
        assert_outputs_equal(a, b)

    def test_single_precision_missing_compiler_falls_back(self, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(cbuild, "find_compiler", lambda: None)
        prog = ALL["isocontour"].make_program(precision="single",
                                              **PROGRAM_KW["isocontour"])
        res = prog.run(max_steps=5, backend="c")
        err = capsys.readouterr().err
        assert "falling back to NumPy" in err
        assert res.steps > 0

    def test_failed_build_is_cached_once(self, monkeypatch, capsys):
        monkeypatch.setattr(cbuild, "find_compiler", lambda: None)
        prog = ALL["isocontour"].make_program(**PROGRAM_KW["isocontour"])
        prog.run(max_steps=2, backend="c")
        assert "falling back" in capsys.readouterr().err
        res = prog.run(max_steps=2, backend="c")
        # second run reuses the cached failure without re-warning
        assert "falling back" not in capsys.readouterr().err
        # ... but still says, in its own metrics, that and where it fell back
        assert res.metrics.counters["runtime.backend.fallback.build"] == 1
        assert res.metrics.counters["runtime.loop.per_step.numpy"] == 1

    @requires_cc
    @pytest.mark.parametrize("scheduler,workers,footprint", [
        ("seq", 1, "inline.numpy"), ("thread", 2, "inline.numpy")])
    def test_refused_binding_falls_back(self, monkeypatch, capsys, scheduler,
                                        workers, footprint):
        """The kernel builds but rejects this run's arrays: the same one
        warning, counted as a bind-time fallback, and the plan re-derived
        for NumPy (driving, footprint strategy)."""
        from repro.runtime.native import NativeUpdate

        def refuse(self, *args, **kwargs):
            raise CodegenError("native backend: state slot 0 is not C-contiguous")

        want = run_outputs("isocontour", "numpy")
        monkeypatch.setattr(NativeUpdate, "__init__", refuse)
        got = run_outputs("isocontour", "c", scheduler=scheduler,
                          workers=workers, checkpoint=True)
        err = capsys.readouterr().err
        assert err.count("falling back to NumPy") == 1
        assert "not C-contiguous" in err
        c = got.metrics.counters
        assert c["runtime.backend.fallback.bind"] == 1
        assert "runtime.backend.fallback.build" not in c
        assert c["runtime.loop.per_step.numpy"] == 1
        assert c[f"runtime.footprint.{footprint}"] == 1
        assert_outputs_equal(want, got)


@requires_cc
class TestArtifactCache:
    def test_cache_reused_across_builds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { x += 1.0; stabilize; }
            }
            initially [ S(i) | i in 0 .. 3 ];
        """
        c_source, _ = generate_c_module(compile_program(src).high)
        cbuild.build(c_source)
        sos = list(tmp_path.glob("*.so"))
        assert len(sos) == 1
        inode = sos[0].stat().st_ino
        # hit: same artifact (same inode — never recompiled/republished;
        # its mtime IS refreshed, deliberately, as the LRU recency stamp),
        # and the compiler must not run again
        calls = []
        real_run = cbuild.subprocess.run
        monkeypatch.setattr(cbuild.subprocess, "run",
                            lambda *a, **kw: calls.append(a) or real_run(*a, **kw))
        cbuild.build(c_source)
        assert list(tmp_path.glob("*.so")) == sos
        assert sos[0].stat().st_ino == inode
        assert not calls

    def test_flag_change_forces_rebuild(self, tmp_path, monkeypatch):
        # Flags are part of the cache key: the same source built with a
        # different flag set must land in a new artifact, not reuse the old
        # .so (stale codegen options are a silent-miscompilation hazard).
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { x += 2.0; stabilize; }
            }
            initially [ S(i) | i in 0 .. 3 ];
        """
        c_source, _ = generate_c_module(compile_program(src).high)
        cbuild.build(c_source, flags=cbuild.flags_for(False))
        assert len(list(tmp_path.glob("*.so"))) == 1
        flipped = ["-O2" if f == "-O3" else f
                   for f in cbuild.flags_for(False)]
        cbuild.build(c_source, flags=flipped)
        assert len(list(tmp_path.glob("*.so"))) == 2
        # and the single-precision flag set differs from the double one
        cbuild.build(c_source, flags=cbuild.flags_for(True))
        assert len(list(tmp_path.glob("*.so"))) == 3
