"""The neighborhood gather's contract: the window path returns the per-tap
gather's array.

:func:`repro.fields.probe.gather_neighborhood` copies an interior lane's
``(2s)^d`` window in one piece from a zero-copy window view and keeps the
per-tap clamped gather for lanes whose window crosses the border.  Every
case here must give the array the per-tap gather gives — same shape, same
dtype, same elements — and the incremental engine's footprint boxes, which
describe the samples a gather reads, must not move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import compile_program
from repro.fields.probe import gather_neighborhood
from repro.image import Image
from repro.runtime import incremental as inc
from repro.runtime import ops


def per_tap_gather(data, n, support, dim):
    """The reference: one clamped index per tap and axis, broadcast into a
    single fancy index."""
    offsets = np.arange(1 - support, support + 1)
    index_lists = []
    for a in range(dim):
        idx = np.clip(n[:, a, None] + offsets, 0, data.shape[a] - 1)
        shape = [idx.shape[0]] + [1] * dim
        shape[a + 1] = 2 * support
        index_lists.append(idx.reshape(shape))
    return data[tuple(index_lists)]


def _same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


SIZES = {1: (11,), 2: (9, 12), 3: (7, 8, 9)}
BIG = 1 << 40


def _lanes(rng, sizes, support):
    """Interior lanes, border lanes on every axis, far-outside lanes and
    the sanitized ±2^40 indices, shuffled together."""
    sizes = np.asarray(sizes)
    d = sizes.size
    interior = rng.integers(support - 1, sizes - support, (12, d))
    edge = rng.integers(support - 1, sizes - support, (2 * d, d))
    for a in range(d):
        edge[2 * a, a] = support - 2                  # one tap below 0
        edge[2 * a + 1, a] = sizes[a] - support       # one tap past the end
    far = np.array([[-7] * d, list(sizes + 5), [BIG] * d, [-BIG] * d])
    n = np.concatenate([interior, edge, far]).astype(np.int64)
    return n[rng.permutation(len(n))]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("tshape", [(), (2,), (3, 3)], ids=["scalar", "vec2", "mat3"])
@pytest.mark.parametrize("support", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_matches_per_tap_gather(dim, support, tshape, dtype):
    rng = np.random.default_rng(dim * 100 + support * 10 + len(tshape))
    data = rng.normal(size=SIZES[dim] + tshape).astype(dtype)
    n = _lanes(rng, SIZES[dim], support)
    _same(gather_neighborhood(data, n, support, dim), per_tap_gather(data, n, support, dim))
    # interior lanes alone, border lanes alone
    start = n + (1 - support)
    inner = ((start >= 0) & (start + 2 * support <= np.asarray(SIZES[dim]))).all(axis=1)
    assert inner.any() and not inner.all()
    for sel in (inner, ~inner):
        _same(gather_neighborhood(data, n[sel], support, dim),
              per_tap_gather(data, n[sel], support, dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_empty_batch(dim):
    data = np.arange(np.prod(SIZES[dim]) * 2, dtype=np.float64).reshape(SIZES[dim] + (2,))
    n = np.zeros((0, dim), dtype=np.int64)
    for support in (1, 2):
        got = gather_neighborhood(data, n, support, dim)
        assert got.shape == (0,) + (2 * support,) * dim + (2,)
        _same(got, per_tap_gather(data, n, support, dim))


def test_image_smaller_than_the_window():
    """An axis shorter than ``2s`` has no interior lane: every lane takes
    the per-tap path (a window view of that axis would have no start)."""
    rng = np.random.default_rng(3)
    for sizes in [(3, 12), (12, 2), (1, 1)]:
        data = rng.normal(size=sizes + (2,))
        n = np.array([[0, 0], [1, 5], [2, 11], [-4, 30], [BIG, -BIG]], dtype=np.int64)
        for support in (2, 3):
            _same(gather_neighborhood(data, n, support, 2),
                  per_tap_gather(data, n, support, 2))


def test_unbatched_index_vector():
    """``ops.gather`` also takes a single index vector (a probe at a
    constant position) and drops the lane axis."""
    rng = np.random.default_rng(4)
    img = Image(rng.normal(size=(10, 10, 3)), dim=2)
    for n in ([4, 5], [0, 9], [-3, 40]):
        got = ops.gather(img, np.array(n, dtype=np.int64), 2)
        _same(got, per_tap_gather(img.data, np.array([n]), 2, 2)[0])


def test_recorded_box_is_the_samples_read():
    """``FootprintRecorder.on_gather``'s per-lane box is the bounding box of
    the sample coordinates the gather returns, border lanes included."""
    sizes = (9, 12)
    coords = np.stack(np.meshgrid(*map(np.arange, sizes), indexing="ij"), axis=-1)
    img = Image(coords.astype(np.float64), dim=2)
    n = _lanes(np.random.default_rng(5), sizes, 2)
    rows = np.arange(len(n))
    rec = inc.FootprintRecorder({id(img): "img"}, total=len(n))
    with ops.recording(rec, rows):
        got = ops.gather(img, n, 2)
    lo, hi = rec.boxes["img"]
    read = got.reshape(len(n), -1, 2)
    assert np.array_equal(lo, read.min(axis=1)) and np.array_equal(hi, read.max(axis=1))


def test_moving_strand_footprints_unchanged(monkeypatch):
    """A moving-strand fuzz program (particles climbing the gradient) gives
    the same outputs and footprint boxes under either gather."""
    from repro.core.verify import fuzz

    seed = 11
    src = fuzz.render_program(fuzz.ProgramGen(seed).program_tree(),
                              move=fuzz.motion(seed))

    def run():
        prog = compile_program(src)
        prog.bind_image("img", fuzz._phantom())
        res = prog.run(checkpoint=True, max_steps=100, block_size=5)
        boxes = {k: tuple(a.copy() for a in v) for k, v in prog._inc.recorder.boxes.items()}
        return res, boxes

    res, boxes = run()
    monkeypatch.setattr(ops, "gather_neighborhood", per_tap_gather)
    want, want_boxes = run()
    assert res.steps == want.steps
    for name in want.outputs:
        assert np.array_equal(res.outputs[name], want.outputs[name], equal_nan=True), name
    assert boxes.keys() == want_boxes.keys() and boxes
    for name, (lo, hi) in want_boxes.items():
        assert np.array_equal(boxes[name][0], lo) and np.array_equal(boxes[name][1], hi)
