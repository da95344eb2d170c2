"""Heavy ``if`` arms run on their live lanes only (NumPy backend).

When the lanes of a block disagree at a heavy arm
(:func:`repro.core.ir.ops.heavy_arm`, the cost model the C emitter
branches on), the generated NumPy code compacts the live lanes
(``rt.live``/``rt.take``), runs the arm on them and scatters each φ back
to full width (``rt.join``).  A dead lane of a heavy arm therefore never
gathers, and the NumPy backend's footprints and gather counts are the
live lanes' — what the native kernel records.

The programs are small vr-lite-shaped ray casts through a 10³ volume
whose rays march along z: rays ``r < 3`` or ``c > 6`` miss the volume,
the rest are inside for 12 of their 17 steps, so every block is mixed.
Each is run on seq/thread/process (bit-identical to each other at one
block size) and, with a C compiler, against the native kernel at 1e-12.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.driver import compile_program
from repro.errors import RuntimeErrorD
from repro.image import Image
from repro.runtime import ops as rt

NATIVE = cbuild.compiler_available()

#: a ray program; ``{body}`` is the part of the update that probes
RAYS = """
input real thr = 0.5;
image(3)[] img = load("v.nrrd");
field#2(3)[] F = img ⊛ bspln3;
strand Ray (int r, int c) {{
    vec3 pos = [real(r) - 1.5, real(c) + 1.25, -2.0];
    real t = 0.0;
    output real gray = 0.0;
    update {{
        pos = pos + [0.0, 0.0, 0.5];
        t = t + 0.5;
{body}
        if (t > 8.0) stabilize;
    }}
}}
initially [ Ray(r, c) | r in 0 .. 7, c in 0 .. 7 ];
"""

#: (strand, step) pairs inside the volume: 5 rows x 7 columns x 12 steps
LIVE_LANES = 5 * 7 * 12

BODIES = {
    # vr-lite's shape: a heavy arm nested in a heavy arm
    "nested": """
        if (inside(pos, F)) {
            real val = F(pos);
            if (val > thr) {
                gray += val * |∇F(pos)|;
            }
        }""",
    # the heavy arm is the else arm (the then arm is light)
    "heavy-else": """
        if (!inside(pos, F)) {
            gray -= 0.125;
        } else {
            gray += F(pos);
        }""",
    # both arms of the inner region are heavy: two compactions, one φ
    "both-heavy": """
        if (inside(pos, F)) {
            real val = F(pos);
            if (val > thr) {
                gray += |∇F(pos)|;
            } else {
                gray -= |∇F(pos)| * val;
            }
        }""",
    # the φ's else side is a uniform constant, not a laned value
    "const-phi": """
        real v = 0.0;
        if (inside(pos, F)) {
            v = F(pos);
        }
        gray += v;""",
    # a φ of a laned and a uniform value whose lanes always agree (every
    # ray has the same t): w is unlaned until t > 3, laned after, and the
    # arm takes it either way
    "maybe-laned": """
        real w = 1.0;
        if (t > 3.0) { w = real(r); }
        if (inside(pos, F)) {
            gray += w * F(pos);
        }""",
    # status changes inside a compacted arm
    "die": """
        if (inside(pos, F)) {
            if (F(pos) > thr + 0.08) die;
            gray += F(pos);
        }""",
    "stabilize": """
        if (inside(pos, F)) {
            gray += F(pos);
            if (gray > 1.5) stabilize;
        }""",
}


def _volume() -> Image:
    data = np.random.default_rng(7).random((10, 10, 10))
    return Image(data, dim=3)


def _prog(body: str):
    prog = compile_program(RAYS.format(body=body))
    prog.bind_image("img", _volume())
    return prog


NUMPY_RUNS = [("seq", 1), ("thread", 2), ("process", 2)]


class TestSemantics:
    @pytest.mark.parametrize("case", sorted(BODIES))
    def test_schedulers_bit_identical_and_native_close(self, case):
        prog = _prog(BODIES[case])
        runs = [prog.run(scheduler=s, workers=w, block_size=16, backend="numpy")
                for s, w in NUMPY_RUNS]
        assert "rt.live(" in prog.generated_source
        assert ("np.ndim(" in prog.generated_source) == (case == "maybe-laned")
        for res in runs:
            assert res.metrics.counters.get("guard.compacted", 0) > 0
            assert res.outputs["gray"].tobytes() == runs[0].outputs["gray"].tobytes()
            assert (res.num_stable, res.num_died, res.steps) == (
                runs[0].num_stable, runs[0].num_died, runs[0].steps)
        # one strand per block: every guard is uniform, nothing compacts,
        # and the lanes compute what they computed compacted
        single = prog.run(block_size=1, backend="numpy")
        assert single.metrics.counters.get("guard.compacted", 0) == 0
        np.testing.assert_allclose(single.outputs["gray"], runs[0].outputs["gray"],
                                   rtol=0, atol=1e-12)
        if NATIVE:
            got = prog.run(backend="c").outputs["gray"]
            np.testing.assert_allclose(got, runs[0].outputs["gray"],
                                       rtol=0, atol=1e-12)

    def test_die_and_stabilize_change_status_inside_the_arm(self):
        died = _prog(BODIES["die"]).run(block_size=16, backend="numpy")
        assert 0 < died.num_died < LIVE_LANES // 12
        early = set()
        _prog(BODIES["stabilize"]).run(
            block_size=16, backend="numpy",
            on_step=lambda ev: early.add(ev.step) if ev.stabilized.size else None)
        # inside rays stabilize in the arm, long before t reaches 8
        assert min(early) < 10 and max(early) == 16

    @pytest.mark.parametrize("row,raises", [(2, False), (4, True)])
    @pytest.mark.parametrize("scheduler,workers,backend", [
        *[(s, w, "numpy") for s, w in NUMPY_RUNS],
        *([("seq", 1, "c")] if NATIVE else [])])
    def test_zero_divisor_raises_on_live_lanes_only(self, row, raises,
                                                    scheduler, workers, backend):
        # ray row 2 never enters the volume (a dead lane of the compacted
        # arm); row 4 does (a live lane)
        prog = _prog(f"""
        if (inside(pos, F)) {{
            gray += F(pos) + real(100 / (r - {row}));
        }}""")
        kw = dict(scheduler=scheduler, workers=workers, block_size=16,
                  backend=backend)
        if raises:
            with pytest.raises(RuntimeErrorD, match="division by zero"):
                prog.run(**kw)
        else:
            assert np.isfinite(prog.run(**kw).outputs["gray"]).all()

    # At block size 6 a native block is a full batch of strands
    # 6b..6b+3 and the batch (6b+4, 6b+5, 6b+5, 6b+5), padded with copies
    # of its last strand.  Strand 41 (ray 5, 1) enters the volume, a live
    # lane of the arm; strand 47 (ray 5, 7) never does, a dead lane (and
    # so are its copies) beside the live strand 46 (ray 5, 6).
    @pytest.mark.parametrize("strand,raises", [(41, True), (47, False)])
    @pytest.mark.parametrize("scheduler,workers", [("seq", 1), ("thread", 2)])
    @pytest.mark.skipif(not NATIVE, reason="native backend needs a C compiler")
    def test_zero_divisor_on_the_last_lane_of_a_padded_batch(
            self, strand, raises, scheduler, workers):
        prog = _prog(f"""
        if (inside(pos, F)) {{
            gray += F(pos) + real(100 / (r * 8 + c - {strand}));
        }}""")
        kw = dict(scheduler=scheduler, workers=workers, block_size=6,
                  backend="c")
        if raises:
            with pytest.raises(RuntimeErrorD, match="division by zero"):
                prog.run(**kw)
        else:
            assert np.isfinite(prog.run(**kw).outputs["gray"]).all()

    @pytest.mark.parametrize("block_size", [1, 16, 4096])
    def test_gather_lanes_are_the_live_lanes(self, block_size):
        res = _prog(BODIES["nested"]).run(block_size=block_size, backend="numpy")
        assert res.metrics.counters["op.gather.lanes"] == LIVE_LANES

    def test_unknown_rank_input_keeps_the_arm_predicated(self):
        # the arm reads a neighborhood gathered at a position that is laned
        # or not depending on the block, and a neighborhood's unlaned rank
        # depends on the image: the arm cannot tell, so it stays predicated
        prog = _prog("""
        vec3 p = [5.0, 5.0, 5.0];
        if (t > 3.0) { p = pos; }
        real a = F(p);
        if (inside(pos, F)) {
            gray += a * |∇F(p)|;
        }""")
        assert "rt.live(" not in prog.generated_source
        got = [prog.run(scheduler=s, workers=w, block_size=16,
                        backend="numpy").outputs["gray"] for s, w in NUMPY_RUNS]
        want = got[0]
        assert all(g.tobytes() == want.tobytes() for g in got)
        np.testing.assert_allclose(prog.run(block_size=1).outputs["gray"], want,
                                   rtol=0, atol=1e-12)
        if NATIVE:
            np.testing.assert_allclose(prog.run(backend="c").outputs["gray"],
                                       want, rtol=0, atol=1e-12)

    def test_light_arm_keeps_mask_and_select(self):
        prog = compile_program("""
        strand S (int i) {
            output int q = 0;
            update {
                if (i % 2 == 0) q = i / 2;
                stabilize;
            }
        }
        initially [ S(i) | i in 0 .. 7 ];
        """)
        assert "rt.live(" not in prog.generated_source
        assert "rt.select(" in prog.generated_source
        assert prog.run(backend="numpy").outputs["q"].tolist() == [
            0, 0, 1, 0, 2, 0, 3, 0]


class TestJoin:
    def test_join_is_select_lane_for_lane(self):
        cond = np.array([True, False, True, False, False])
        a_full = np.arange(5.0) * 10
        b_full = -np.arange(5.0)
        ia, ib = np.flatnonzero(cond), np.flatnonzero(~cond)
        want = rt.select(cond, a_full, b_full, 0)
        for a, b, ka, kb in (
                (a_full[ia], b_full, ia, None),
                (a_full, b_full[ib], None, ib),
                (a_full[ia], b_full[ib], ia, ib)):
            assert rt.join(cond, a, b, 0, ka, kb).tolist() == want.tolist()
        # a uniform side broadcasts, a vector φ keeps its tensor axis
        assert rt.join(cond, a_full[ia], np.float64(7.0), 0, ia).tolist() == \
            rt.select(cond, a_full, 7.0, 0).tolist()
        vec = np.stack([a_full, b_full], axis=1)
        got = rt.join(cond, vec[ia], np.zeros(2), 1, ia)
        assert got.tolist() == rt.select(cond, vec, np.zeros(2), 1).tolist()


class TestFootprints:
    """NumPy records what the live lanes gather, like the native kernel."""

    #: x = 6..7, 5..8 after the query's one-sample dilation: the gathers
    #: of ray rows 5-7 reach it (a row reads x up to floor(r - 1.5) + 2)
    SLAB = [[6, 7], [0, 9], [0, 9]]

    def _checkpoint(self, scheduler="seq", workers=1, backend="numpy",
                    block_size=4096):
        prog = _prog(BODIES["nested"])
        prog.run(checkpoint=True, scheduler=scheduler, workers=workers,
                 backend=backend, block_size=block_size)
        patch = np.asarray(prog._context().images["img"].data)[6:8] + 0.5
        info = prog.update_input("img", patch, region=self.SLAB)
        return prog._inc.recorder.boxes["img"], prog._inc.pending_ids, info

    def _configs(self):
        configs = {"seq-numpy": {}, "seq-numpy-b1": {"block_size": 1},
                   "process-numpy": {"scheduler": "process", "workers": 2,
                                     "block_size": 16}}
        if NATIVE:
            configs["seq-c"] = {"backend": "c"}
            # every block ends in a batch padded with its last strand
            configs["seq-c-b5"] = {"backend": "c", "block_size": 5}
        return {name: self._checkpoint(**kw) for name, kw in configs.items()}

    def test_boxes_and_dirty_strands_agree_across_backends(self):
        got = self._configs()
        (lo, hi), dirty, info = got["seq-numpy-b1"]
        recorded = (hi >= lo).all(axis=1)
        # rows 0-2 and column 7 never enter the volume: nothing recorded
        assert recorded.sum() == 5 * 7
        assert info["dirty_strands"] == dirty.size == 3 * 7
        for name, ((glo, ghi), gdirty, _) in got.items():
            assert np.array_equal(glo, lo) and np.array_equal(ghi, hi), name
            assert np.array_equal(gdirty, dirty), name

    def test_rerun_dirty_strands_match_a_cold_run(self):
        prog = _prog(BODIES["nested"])
        prog.run(checkpoint=True, block_size=16, backend="numpy")
        data = np.asarray(prog._context().images["img"].data).copy()
        patch = data[6:8] + 0.5
        prog.update_input("img", patch, region=self.SLAB)
        res = prog.run_update(block_size=16, backend="numpy")
        assert res.incremental and 0 < res.dirty_strands
        data[6:8] = patch
        cold = compile_program(RAYS.format(body=BODIES["nested"]))
        cold.bind_image("img", Image(data, dim=3))
        want = cold.run(block_size=16, backend="numpy").outputs["gray"]
        assert res.outputs["gray"].tobytes() == want.tobytes()
