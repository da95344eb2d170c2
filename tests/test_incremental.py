"""Incremental re-execution: footprints, dirty regions, bit-identity.

The load-bearing contract (ISSUE acceptance): a dirty-region update run
is **bit-identical** to a cold run over the patched inputs with the same
scheduler/backend configuration — restoring clean strands from the
checkpoint and re-running only the dirty ones must never change a
single bit of the answer.  The oracle is always a freshly compiled
program run cold with the *same* backend (native and NumPy agree only
to 1e-12, so cross-backend comparison would not be a bit-identity
test).
"""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.driver import compile_program
from repro.errors import InputError
from repro.image import Image
from repro.obs import ROOT, Obs
from repro.runtime import incremental as inc

NATIVE = cbuild.compiler_available()

N = 20
IMG = 26

SOURCE = f"""
input int N = {N};
image(2)[] img = load("p.nrrd");
field#2(2)[] F = img ⊛ bspln3;

strand S (int i, int j) {{
   output real x = 0.0;
   int n = 0;
   update {{
      vec2 p = [real(i) + 2.5, real(j) + 2.5];
      if (inside(p, F)) {{ x = F(p) + 0.25 * (∇F(p))[0]; }}
      n += 1;
      if (n >= 2) stabilize;
   }}
}}
initially [ S(i, j) | i in 0 .. N-1, j in 0 .. N-1 ];
"""


def _base(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((IMG, IMG))


def _prog(data: np.ndarray):
    prog = compile_program(SOURCE)
    prog.bind_image("img", Image(data.copy(), dim=2))
    return prog


CONFIGS = [("seq", 1, "numpy"), ("thread", 2, "numpy"),
           ("process", 2, "numpy")]
if NATIVE:  # the process pool runs NumPy only
    CONFIGS += [("seq", 1, "c"), ("thread", 2, "c")]


# -- Image.patch --------------------------------------------------------------


class TestImagePatch:
    def test_full_diff_finds_bbox(self):
        img = Image(_base(), dim=2)
        new = np.array(img.data)
        new[4:7, 9:11] += 1.0
        regions = img.patch(new)
        assert [[list(map(int, lo)), list(map(int, hi))]
                for lo, hi in regions] == [[[4, 9], [6, 10]]]
        assert np.array_equal(img.data, new)

    def test_no_change_returns_empty(self):
        img = Image(_base(), dim=2)
        assert img.patch(np.array(img.data)) == []

    def test_explicit_region_subblock(self):
        img = Image(_base(), dim=2)
        block = np.zeros((3, 2))
        regions = img.patch(block, region=[[4, 6], [9, 10]])
        assert len(regions) == 1
        assert np.array_equal(img.data[4:7, 9:11], block)

    def test_explicit_region_fullsize_data(self):
        img = Image(_base(), dim=2)
        new = np.array(img.data)
        new[1:3, 1:3] = -1.0
        new[20, 20] = 99.0  # outside the region: must NOT be applied
        img.patch(new, region=[[1, 2], [1, 2]])
        assert np.array_equal(img.data[1:3, 1:3], new[1:3, 1:3])
        assert img.data[20, 20] != 99.0

    def test_region_out_of_bounds_raises(self):
        img = Image(_base(), dim=2)
        with pytest.raises(ValueError):
            img.patch(np.zeros((2, 2)), region=[[25, 26], [0, 1]])

    def test_bad_subblock_shape_raises(self):
        img = Image(_base(), dim=2)
        with pytest.raises(ValueError):
            img.patch(np.zeros((5, 5)), region=[[0, 1], [0, 1]])


# -- the dirty query ----------------------------------------------------------


def test_dirty_strands_matches_bruteforce():
    prog = _prog(_base())
    prog.run(checkpoint=True)
    fps = inc.Footprints(prog._inc.recorder)
    lo, hi = prog._inc.recorder.boxes["img"]
    d = fps.dilate

    def exact(rlo, rhi):
        return ((lo - d <= np.asarray(rhi)) &
                (hi + d >= np.asarray(rlo))).all(axis=1)

    regions = [([3, 3], [5, 5]), ([0, 0], [25, 25]), ([24, 0], [25, 25])]
    for rlo, rhi in regions:
        got = fps.dirty_strands("img", [(rlo, rhi)])
        assert np.array_equal(got, np.flatnonzero(exact(rlo, rhi)))
    # several regions: the sorted union, each strand once
    got = fps.dirty_strands("img", [regions[0], regions[2], regions[0]])
    assert np.array_equal(
        got, np.flatnonzero(exact(*regions[0]) | exact(*regions[2])))


# -- bit-identity across schedulers and backends ------------------------------


def _footprint_counters() -> dict:
    """Process-wide ``runtime.footprint.*`` counters, minus the timers."""
    return {k: v for k, v in ROOT.snapshot()["counters"].items()
            if k.startswith("runtime.footprint.")
            and not k.endswith("_seconds")}


def _counted_since(before: dict) -> dict:
    after = _footprint_counters()
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


@pytest.mark.parametrize("scheduler,workers,backend", CONFIGS)
def test_update_bit_identical_to_cold_run(scheduler, workers, backend,
                                          bound_kernels):
    base = _base()
    patched = base.copy()
    patched[3:6, 3:6] += 1.0

    before = _footprint_counters()

    prog = _prog(base)
    kw = dict(scheduler=scheduler, workers=workers, backend=backend)
    prog.run(checkpoint=True, **kw)
    info = prog.update_input("img", patched[3:6, 3:6],
                             region=[[3, 5], [3, 5]])
    assert not info["full"]
    assert 0 < info["dirty_strands"] < info["total_strands"]
    res = prog.run_update(workers=workers, scheduler=scheduler,
                          backend=backend)
    assert res.incremental
    assert res.dirty_strands == info["dirty_strands"]

    want = _prog(patched).run(**kw)
    for name in want.outputs:
        assert np.array_equal(res.outputs[name], want.outputs[name]), (
            scheduler, backend, name)

    # how the footprints were obtained (DESIGN.md's configuration table):
    # recorded by the runs themselves wherever the strand updates execute
    # in this process, on any thread; in a process pool one shadow build,
    # then a refresh of the re-run rows
    if scheduler == "process":
        assert _counted_since(before) == {
            "runtime.footprint.shadow.process": 2,
            "runtime.footprint.builds": 1,
            "runtime.footprint.refreshes": 1,
        }
    else:
        assert _counted_since(before) == {
            f"runtime.footprint.inline.{backend}": 2}
    # ... and a native checkpoint's kernel records as it runs
    assert any(rec is not None for _, rec in bound_kernels) == (backend == "c")


#: ridge3d-style particles: every step moves a strand by the image's own
#: gradient, so a patch changes where dirty strands go next — their
#: footprints after an update are not the ones the checkpoint recorded
MOVING_SOURCE = f"""
input int N = 12;
image(2)[] img = load("p.nrrd");
field#2(2)[] F = img ⊛ bspln3;

strand P (int i, int j) {{
   output vec2 pos = [real(i) * 1.5 + 4.0, real(j) * 1.5 + 4.0];
   int n = 0;
   update {{
      if (!inside(pos, F)) die;
      pos += 1.5 * ∇F(pos);
      n += 1;
      if (n >= 5) stabilize;
   }}
}}
initially [ P(i, j) | i in 0 .. N-1, j in 0 .. N-1 ];
"""


@pytest.mark.skipif(not NATIVE, reason="needs a C compiler")
@pytest.mark.parametrize("scheduler,workers", [("seq", 1), ("thread", 2)])
def test_moving_strands_native_updates_record_inline(scheduler, workers):
    def prog_over(arr):
        prog = compile_program(MOVING_SOURCE)
        prog.bind_image("img", Image(arr.copy(), dim=2))
        return prog

    kw = dict(scheduler=scheduler, workers=workers, backend="c",
              block_size=37)
    rng = np.random.default_rng(5)
    data = _base(2)
    before = _footprint_counters()
    prog = prog_over(data)
    first = prog.run(checkpoint=True, **kw)
    moved = 0
    for _ in range(3):
        i, j = (int(v) for v in rng.integers(2, IMG - 8, size=2))
        data[i:i + 6, j:j + 6] += rng.normal(scale=0.4, size=(6, 6))
        info = prog.update_input("img", data[i:i + 6, j:j + 6],
                                 region=[[i, i + 5], [j, j + 5]])
        assert 0 < info["dirty_strands"] < info["total_strands"]
        res = prog.run_update(**kw)
        want = prog_over(data).run(**kw)
        assert res.incremental
        assert np.array_equal(res.outputs["pos"], want.outputs["pos"],
                              equal_nan=True)
        moved += int((res.outputs["pos"] != first.outputs["pos"]).any())
    assert moved  # the patches did redirect strands
    # a silent fall-back to the shadow run would count a build or a refresh
    assert _counted_since(before) == {"runtime.footprint.inline.c": 4}


@pytest.mark.skipif(not NATIVE, reason="needs a C compiler")
@pytest.mark.parametrize("scheduler,workers", [("seq", 1), ("thread", 2)])
def test_checkpoint_at_max_steps_updates_identically(scheduler, workers):
    """A kernel-driven run cut short by ``max_steps`` stops on exactly
    that step; its checkpoint (state, status, footprints) is the one the
    per-step driving takes there, and updates the same way."""
    kw = dict(scheduler=scheduler, workers=workers, backend="c",
              block_size=37, max_steps=3)
    data = _base(2)
    patched = data.copy()
    patched[8:14, 8:14] += 0.3

    def updated(**hook):
        prog = compile_program(MOVING_SOURCE)
        prog.bind_image("img", Image(data.copy(), dim=2))
        first = prog.run(checkpoint=True, **kw, **hook)
        info = prog.update_input("img", patched[8:14, 8:14],
                                 region=[[8, 13], [8, 13]])
        assert 0 < info["dirty_strands"] < info["total_strands"]
        return first, info, prog.run_update(**kw, **hook)

    first_k, info_k, upd_k = updated()
    first_s, info_s, upd_s = updated(on_step=lambda ev: None)
    assert first_k.metrics.counters["runtime.loop.kernel"] == 1
    assert first_s.metrics.counters["runtime.loop.per_step.on_step"] == 1
    for a, b in ((first_k, first_s), (upd_k, upd_s)):
        assert a.steps == b.steps == 3
        # nobody has run the five steps stabilizing takes
        assert a.num_stable == b.num_stable == 0
        assert a.num_died == b.num_died
        assert np.array_equal(a.outputs["pos"], b.outputs["pos"],
                              equal_nan=True)
    assert info_k == info_s
    assert upd_k.incremental and upd_k.dirty_strands == info_k["dirty_strands"]
    cold = compile_program(MOVING_SOURCE)
    cold.bind_image("img", Image(patched.copy(), dim=2))
    want = cold.run(**kw)
    # grid outputs keep every strand's row, finished or not
    assert np.array_equal(upd_k.outputs["pos"], want.outputs["pos"],
                          equal_nan=True)


def test_gather_hook_hears_only_its_own_thread():
    import threading

    from repro.runtime import ops

    class Heard:
        def __init__(self):
            self.calls = 0

        def on_gather(self, image, n, support, lanes):
            self.calls += 1

    img = Image(_base(), dim=2)
    n = np.array([[5, 5]], dtype=np.int64)
    heard = Heard()
    with ops.recording(heard):
        other = threading.Thread(target=ops.gather, args=(img, n, 2))
        other.start()
        other.join(timeout=30)
        assert not other.is_alive() and heard.calls == 0
        ops.gather(img, n, 2)
        assert heard.calls == 1
    ops.gather(img, n, 2)  # the hook is gone with its block
    assert heard.calls == 1


def test_thread_numpy_blocks_record_like_seq():
    def boxes(scheduler, workers):
        prog = _prog(_base())
        prog.run(checkpoint=True, scheduler=scheduler, workers=workers,
                 block_size=7)
        assert prog._inc.recorder is not None  # recorded inline
        return prog._inc.recorder.boxes["img"]

    (lo, hi), (want_lo, want_hi) = boxes("thread", 8), boxes("seq", 1)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_recorder_folds_concurrent_first_gathers():
    """Eight threads' first gathers into one fresh recorder, released at
    once with a tiny switch interval: a box created twice would drop a
    thread's rows, a global fold interleaved with another its extent.
    (Large tables keep each creation slow enough for the race to show.)"""
    import sys
    import threading

    img = Image(_base(), dim=2)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rec = inc.FootprintRecorder({id(img): "img"}, total=200_000)
            go = threading.Barrier(8)

            def work(t):
                go.wait()
                rec.on_gather(img, np.full((4, 2), t + 2), 2,
                              np.arange(4 * t, 4 * t + 4))
                rec.on_gather(img, np.array([t + 2, t + 2]), 2, None)

            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            lo, hi = rec.boxes["img"]
            assert (lo[:32, 0] == np.repeat(np.arange(1, 9), 4)).all()
            glo, ghi = rec.global_boxes["img"]
            assert glo.tolist() == [1, 1] and ghi.tolist() == [11, 11]
    finally:
        sys.setswitchinterval(old)


def test_overlapping_multi_region_update():
    base = _base()
    patched = base.copy()
    patched[2:8, 2:8] += 0.5
    patched[5:12, 5:12] -= 0.25  # overlaps the first region

    prog = _prog(base)
    prog.run(checkpoint=True)
    info = prog.update_input(
        "img", patched,
        region=[[[2, 7], [2, 7]], [[5, 11], [5, 11]]])
    assert len(info["regions"]) == 2
    res = prog.run_update()
    assert res.incremental

    want = _prog(patched).run()
    assert np.array_equal(res.outputs["x"], want.outputs["x"])


#: a valid first region and an out-of-bounds second one
BAD_REGIONS = [[[2, 3], [2, 3]], [[0, 99], [0, 1]]]


def test_failed_multi_region_patch_writes_nothing():
    """A list of regions is checked whole before any sample is written:
    an update whose second region is out of bounds leaves the image, and
    so the next update, as they were."""
    base = _base()
    patched = base.copy()
    patched[2:4, 2:4] += 1.0
    prog = _prog(base)
    cold = prog.run(checkpoint=True)
    with pytest.raises(ValueError, match="outside image"):
        prog.update_input("img", patched, region=BAD_REGIONS)
    assert np.array_equal(prog._context().images["img"].data, base)
    res = prog.run_update()
    assert np.array_equal(res.outputs["x"], cold.outputs["x"])
    prog.update_input("img", patched, region=BAD_REGIONS[0])
    res = prog.run_update()
    assert res.dirty_strands > 0
    assert np.array_equal(res.outputs["x"], _prog(patched).run().outputs["x"])


def test_sequential_updates_stay_identical():
    base = _base()
    prog = _prog(base)
    prog.run(checkpoint=True)
    data = base.copy()
    rng = np.random.default_rng(11)
    for _ in range(3):
        i, j = rng.integers(0, IMG - 4, size=2)
        data[i:i + 4, j:j + 4] += rng.normal(scale=0.3, size=(4, 4))
        prog.update_input("img", data,
                          region=[[int(i), int(i) + 3],
                                  [int(j), int(j) + 3]])
        res = prog.run_update()
        want = _prog(data).run()
        assert np.array_equal(res.outputs["x"], want.outputs["x"])


# -- the in-place update: held results, failed updates, pending merges --------

SEQ_BACKENDS = ["numpy"] + (["c"] if NATIVE else [])


def _patch(prog, data: np.ndarray, i: int, j: int, delta: float) -> dict:
    """Bump the 4×4 block at ``(i, j)`` of ``data`` and hand it to
    ``prog.update_input``."""
    data[i:i + 4, j:j + 4] += delta
    return prog.update_input("img", data[i:i + 4, j:j + 4],
                             region=[[i, i + 3], [j, j + 3]])


@pytest.mark.parametrize("backend", SEQ_BACKENDS)
def test_held_results_survive_later_updates(backend):
    """An update runs in the checkpoint's own arrays and hands out copies
    of the outputs: the third update changes neither earlier result."""
    data = _base()
    prog = _prog(data)
    prog.run(checkpoint=True, backend=backend)
    held = []
    for k, (i, j) in enumerate([(2, 3), (9, 12), (4, 5)]):  # 3rd hits 1st
        _patch(prog, data, i, j, 0.5 * (k + 1))
        res = prog.run_update()
        assert res.incremental
        held.append((res, res.outputs["x"].copy(),
                     _prog(data).run(backend=backend).outputs["x"]))
    for res, seen, cold in held:
        assert np.array_equal(res.outputs["x"], seen)
        assert np.array_equal(seen, cold)


@pytest.mark.parametrize("backend", SEQ_BACKENDS)
def test_failed_update_leaves_its_strands_pending(backend):
    """An update that raises mid-run has written no clean row and keeps its
    dirty strands pending: the next update re-seeds them."""
    data = _base()
    prog = _prog(data)
    prog.run(checkpoint=True, backend=backend)
    info = _patch(prog, data, 3, 3, 1.0)
    snap = prog._inc
    dirty = snap.pending_ids.copy()
    clean = np.setdiff1d(np.arange(snap.total), dirty)
    before = [a[clean].copy() for a in (*snap.state, snap.status)]

    def fail(event):
        if event.step == 1:
            raise RuntimeError("stop at step 1")

    with pytest.raises(RuntimeError, match="stop at step 1"):
        prog.run_update(on_step=fail)
    assert np.array_equal(prog._inc.pending_ids, dirty)
    for a, b in zip((*snap.state, snap.status), before):
        assert np.array_equal(a[clean], b)

    res = prog.run_update()
    assert res.incremental and res.dirty_strands == info["dirty_strands"]
    cold = _prog(data).run(backend=backend)
    assert np.array_equal(res.outputs["x"], cold.outputs["x"])


@pytest.mark.parametrize("backend", SEQ_BACKENDS)
@pytest.mark.parametrize("second", [(4, 6), (13, 14)],
                         ids=["overlapping", "disjoint"])
def test_two_patches_before_one_update(backend, second):
    """Two ``update_input`` calls queue the union of their dirty strands;
    one update over it equals a cold run over both patches."""
    data = _base()
    prog = _prog(data)
    prog.run(checkpoint=True, backend=backend)
    counts = [_patch(prog, data, i, j, 0.75)["dirty_strands"]
              for i, j in [(2, 3), second]]
    res = prog.run_update()
    assert res.incremental
    ids = res.updated_indices
    assert np.array_equal(ids, np.unique(ids))
    if second == (13, 14):  # footprints apart: nothing counted twice
        assert ids.size == sum(counts)
    else:
        assert max(counts) < ids.size < sum(counts)
    cold = _prog(data).run(backend=backend)
    assert np.array_equal(res.outputs["x"], cold.outputs["x"])


def test_whole_image_dirty_degenerates_to_full_rerun():
    base = _base()
    patched = base + 1.0
    prog = _prog(base)
    prog.run(checkpoint=True)
    info = prog.update_input("img", patched,
                             region=[[0, IMG - 1], [0, IMG - 1]])
    res = prog.run_update()
    # every strand's footprint intersects: this is a full re-run, and
    # the result says so (incremental=False marks the degeneration)
    assert info["dirty_strands"] == info["total_strands"] or info["full"]
    assert not res.incremental
    assert res.dirty_fraction == 1.0
    want = _prog(patched).run()
    assert np.array_equal(res.outputs["x"], want.outputs["x"])


def test_empty_update_restores_snapshot():
    base = _base()
    prog = _prog(base)
    cold = prog.run(checkpoint=True)
    res = prog.run_update()  # nothing pending
    assert res.incremental and res.steps == 0
    assert res.dirty_fraction == 0.0
    assert np.array_equal(res.outputs["x"], cold.outputs["x"])


@pytest.mark.parametrize("scheduler,workers", [("seq", 1), ("process", 2)])
def test_empty_update_is_a_run_like_any_other(scheduler, workers):
    """Nothing dirty still means plan resolution, the caller's registry
    folded the usual way, and the one result assembler."""
    prog = _prog(_base())
    kw = dict(scheduler=scheduler, workers=workers)
    cold = prog.run(checkpoint=True, **kw)
    with pytest.raises(InputError, match="scheduler"):
        prog.run_update(scheduler="bogus")
    with pytest.raises(InputError, match="workers"):
        prog.run_update(workers=0)
    with Obs("session") as reg:
        res = prog.run_update(**kw)
    assert res.incremental and res.steps == 0 and res.dirty_strands == 0
    assert res.updated_indices.size == 0
    assert (res.num_strands, res.num_stable, res.num_died) == \
        (cold.num_strands, cold.num_stable, cold.num_died)
    assert np.array_equal(res.outputs["x"], cold.outputs["x"])
    assert not np.may_share_memory(res.outputs["x"], cold.outputs["x"])
    for counters in (res.metrics.counters, reg.counters):
        assert counters["runtime.incremental.updates"] == 1
        assert counters["runtime.incremental.rerun_strands"] == 0
        assert counters["run.count"] == 1 and counters["run.steps"] == 0
    assert res.metrics.gauges["run.workers"] == workers
    # ... and the checkpoint still takes a real update afterwards
    patched = _base()
    patched[3:6, 3:6] += 1.0
    prog.update_input("img", patched[3:6, 3:6], region=[[3, 5], [3, 5]])
    upd = prog.run_update(**kw)
    assert np.array_equal(upd.outputs["x"], _prog(patched).run().outputs["x"])


def test_nonimage_input_change_forces_full_rerun():
    prog = _prog(_base())
    prog.run(checkpoint=True)
    info = prog.update_input("N", 10)
    assert info["full"]
    res = prog.run_update()
    assert not res.incremental
    assert res.outputs["x"].shape == (10, 10)


def test_update_without_checkpoint_raises():
    prog = _prog(_base())
    with pytest.raises(InputError):
        prog.update_input("img", _base())
    with pytest.raises(InputError):
        prog.run_update()


@pytest.mark.skipif(not NATIVE, reason="needs a C compiler")
def test_backend_mismatch_raises():
    prog = _prog(_base())
    prog.run(checkpoint=True, backend="numpy")
    prog.update_input("img", _base(1), region=[[0, 3], [0, 3]])
    with pytest.raises(InputError):
        prog.run_update(backend="c")


def test_rebinding_image_invalidates_checkpoint():
    prog = _prog(_base())
    prog.run(checkpoint=True)
    assert prog.has_checkpoint
    prog.bind_image("img", Image(_base(5), dim=2))
    assert not prog.has_checkpoint


# -- streaming ----------------------------------------------------------------


def test_on_step_events_cold_and_update():
    base = _base()
    prog = _prog(base)
    events = []
    prog.run(checkpoint=True, on_step=events.append)
    assert [e.step for e in events] == list(range(len(events)))
    assert sum((e.status == 1).sum() for e in events) == N * N
    for e in events:
        assert set(e.outputs) == {"x"}
        assert e.outputs["x"].shape[0] == e.active.size

    patched = base.copy()
    patched[3:6, 3:6] += 1.0
    prog.update_input("img", patched[3:6, 3:6], region=[[3, 5], [3, 5]])
    upd_events = []
    res = prog.run_update(on_step=upd_events.append)
    assert res.incremental
    # update-run events only carry the re-run strands
    assert all(e.active.size <= res.dirty_strands for e in upd_events)
    assert sum((e.status == 1).sum() for e in upd_events) == \
        res.dirty_strands


def test_metrics_record_dirty_fraction():
    base = _base()
    with Obs("session") as reg:
        prog = _prog(base)
        prog.run(checkpoint=True)
        patched = base.copy()
        patched[3:6, 3:6] += 1.0
        prog.update_input("img", patched, region=[[3, 5], [3, 5]])
        res = prog.run_update()
    snap = reg.snapshot()["counters"]
    assert snap.get("runtime.incremental.checkpoints", 0) >= 2
    assert snap.get("runtime.incremental.updates", 0) == 1
    assert snap.get("runtime.incremental.rerun_strands", 0) == \
        res.dirty_strands
    assert "runtime.dirty_fraction" in reg.snapshot()["histograms"]


# -- the serving layer --------------------------------------------------------


def _write_nrrd(path: str, arr: np.ndarray) -> None:
    from repro.nrrd.writer import write_nrrd

    write_nrrd(path, arr)


def test_serve_update_route_and_streaming(tmp_path):
    from repro.serve.registry import ProgramRegistry
    from repro.serve.server import ServeApp
    from tests.http_client import request, request_stream

    base = _base()
    patched = base.copy()
    patched[3:6, 3:6] += 1.0
    _write_nrrd(str(tmp_path / "p.nrrd"), base)

    async def drive():
        app = ServeApp(ProgramRegistry())
        await app.start("127.0.0.1", 0)
        port = app.port
        s, _ = await request(port, "POST", "/programs/inc", {
            "source": SOURCE, "search_path": str(tmp_path)})
        assert s == 200
        s, full = await request(port, "POST", "/run/inc", {})
        assert s == 200
        s, events = await request_stream(port, "/run/inc",
                                          {"stream": True})
        s2, upd = await request(port, "POST", "/update/inc", {
            "image": "img", "data": patched[3:6, 3:6].tolist(),
            "region": [[3, 5], [3, 5]]})
        s3, bad = await request(port, "POST", "/update/inc", {})
        await app.close()
        return full, events, (s, s2, s3), upd, bad

    full, events, codes, upd, bad = asyncio.run(drive())
    assert codes == (200, 200, 400), (codes, bad)
    assert events[-1]["done"]
    assert events[-1]["outputs"] == full["outputs"]
    assert sum(e.get("stabilized", 0) for e in events[:-1]) == N * N
    assert upd["incremental"] and upd["partial"]
    assert 0 < upd["dirty_strands"] < upd["strands"]

    # stitch the partial rows over the cold result; must equal a fresh
    # cold run on the patched image bit-exactly
    flat = np.asarray(full["outputs"]["x"], dtype=np.float64).reshape(-1)
    flat[np.asarray(upd["updated_indices"])] = np.asarray(
        upd["outputs"]["x"], dtype=np.float64)
    want = _prog(patched).run()
    assert np.array_equal(flat.reshape(N, N), want.outputs["x"])


def test_serve_failed_update_changes_nothing(tmp_path):
    """A ``/update`` refused with 400 leaves the entry's image, and the
    updates after it, as if it had never been sent."""
    from repro.serve.registry import ProgramRegistry
    from repro.serve.server import ServeApp
    from tests.http_client import request

    base = _base()
    patched = base.copy()
    patched[2:4, 2:4] += 1.0
    _write_nrrd(str(tmp_path / "p.nrrd"), base)
    registry = ProgramRegistry()

    async def drive():
        app = ServeApp(registry)
        await app.start("127.0.0.1", 0)
        port = app.port
        await request(port, "POST", "/programs/inc", {
            "source": SOURCE, "search_path": str(tmp_path)})
        s, full = await request(port, "POST", "/run/inc", {})
        assert s == 200
        s, bad = await request(port, "POST", "/update/inc", {
            "image": "img", "data": patched.tolist(), "region": BAD_REGIONS})
        image = np.array(
            registry.get("inc").program._context().images["img"].data)
        s2, nop = await request(port, "POST", "/update/inc", {
            "image": "img", "data": base[20:22, 20:22].tolist(),
            "region": [[20, 21], [20, 21]]})
        await app.close()
        return s, bad, image, s2, full, nop

    s, bad, image, s2, full, nop = asyncio.run(drive())
    assert s == 400 and "outside image" in bad["error"]
    assert np.array_equal(image, base)
    # an update that rewrites samples unchanged: every output is the cold
    # run's over the unpatched image
    assert s2 == 200 and nop["partial"]
    flat = np.asarray(full["outputs"]["x"], dtype=np.float64).reshape(-1)
    assert np.array_equal(
        np.asarray(nop["outputs"]["x"], dtype=np.float64),
        flat[np.asarray(nop["updated_indices"])])


def test_warm_manifest(tmp_path):
    from repro.serve.registry import ProgramRegistry, warm_manifest

    _write_nrrd(str(tmp_path / "p.nrrd"), _base())
    (tmp_path / "prog.diderot").write_text(SOURCE, encoding="utf-8")
    manifest = {"programs": [
        {"name": "w1", "path": "prog.diderot", "scheduler": "seq"},
    ]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest),
                                            encoding="utf-8")
    before = ROOT.snapshot()["counters"].get("serve.registry.warmed", 0)
    reg = ProgramRegistry()
    entries = warm_manifest(reg, str(tmp_path / "manifest.json"))
    assert [e.name for e in entries] == ["w1"]
    assert "w1" in reg
    res = entries[0].run(inputs={})
    assert res.outputs["x"].shape == (N, N)
    after = ROOT.snapshot()["counters"].get("serve.registry.warmed", 0)
    assert after == before + 1


# -- fuzz hook ----------------------------------------------------------------


@pytest.mark.parametrize("backend", SEQ_BACKENDS)
def test_incremental_fuzz_moving_family(backend):
    """The moving-strand family: particles climb the gradient, so a patch
    can move what they read next; every replayed update stays
    bit-identical to a cold run, at seq and at thread."""
    from repro.core.verify import fuzz

    seed = 11
    src = fuzz.render_program(fuzz.ProgramGen(seed).program_tree(),
                              move=fuzz.motion(seed))
    cold = compile_program(src)
    cold.bind_image("img", fuzz._phantom())
    res = cold.run(max_steps=100, block_size=5)
    start = np.stack([4.0 + np.arange(fuzz.N_STRANDS) * 3.5,
                      44.0 - np.arange(fuzz.N_STRANDS) * 3.0], axis=1)
    assert (np.abs(res.outputs["pos"] - start).max(axis=1) > 1.0).sum() > 6
    for scheduler in ("seq", "thread"):
        assert fuzz.incremental_check(src, seed=seed, backend=backend,
                                      scheduler=scheduler) is None


def test_incremental_fuzz_smoke():
    from repro.core.verify.fuzz import fuzz

    report = fuzz(n=2, seed=7, schedulers=("seq",), incremental=True)
    assert report.ok, report.failures
