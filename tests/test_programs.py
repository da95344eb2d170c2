"""Behavioral tests of the five paper programs at small scales."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.driver import compile_program
from repro.programs import ALL, illust_vr, isocontour, lic2d, ridge3d, vr_lite
from repro.bench.loc import count_diderot


class TestAllPrograms:
    @pytest.mark.parametrize("name", list(ALL))
    def test_compiles(self, name):
        prog = compile_program(ALL[name].SOURCE)
        assert prog.generated_source

    @pytest.mark.parametrize("name", list(ALL))
    def test_single_precision_compiles_and_runs(self, name):
        scale = 0.08 if name != "ridge3d" else 0.4
        prog = ALL[name].make_program(precision="single", scale=scale,
                                      **({"volume_size": 24} if name in ("vr-lite", "illust-vr", "ridge3d") else {}))
        res = prog.run(max_steps=300)
        for out in res.outputs.values():
            assert out.dtype in (np.float32, np.int64)

    @pytest.mark.parametrize("name", list(ALL))
    def test_one_copy_of_each_source(self, name):
        """``examples/programs/<p>.diderot`` is the module's ``SOURCE``
        (the perf ledger times one on ``paper-*`` and the other on
        ``front-door``): the two may differ only in trailing newlines."""
        module = ALL[name]
        example = (Path(__file__).resolve().parents[1] / "examples" / "programs"
                   / f"{module.__name__.rpartition('.')[2]}.diderot")
        text = example.read_text(encoding="utf-8")
        assert text.rstrip("\n") == module.SOURCE.rstrip("\n")

    @pytest.mark.parametrize("name", list(ALL))
    def test_core_loc_smaller_than_total(self, name):
        total, core = count_diderot(ALL[name].SOURCE)
        assert 0 < core < total


class TestVrLite:
    def test_transparency_monotone(self):
        """Accumulated gray is bounded by full opacity."""
        prog = vr_lite.make_program(scale=0.15, volume_size=24)
        res = prog.run()
        g = res.outputs["gray"]
        assert np.all(g >= 0) and np.all(g <= 1.0 + 1e-6)

    def test_all_rays_stabilize(self):
        prog = vr_lite.make_program(scale=0.1, volume_size=24)
        res = prog.run()
        assert res.num_stable == res.num_strands  # grid programs don't die

    def test_bone_window_shows_less_than_skin_window(self):
        """Narrower/higher opacity window (bone) lights fewer pixels."""
        lo = vr_lite.make_program(scale=0.15, volume_size=32)
        lo.set_input("opacMin", 300.0)
        hi = vr_lite.make_program(scale=0.15, volume_size=32)
        hi.set_input("opacMin", 1100.0)
        lit_lo = (lo.run().outputs["gray"] > 0.01).sum()
        lit_hi = (hi.run().outputs["gray"] > 0.01).sum()
        assert lit_hi < lit_lo


class TestIllustVr:
    def test_colormap_orientation(self):
        cmap = illust_vr.curvature_colormap(17)
        # κ=(−1,−1) maps to index (0,0); κ=(1,1) to (16,16)
        lo = cmap.orientation.to_index(np.array([[-1.0, -1.0]]))
        hi = cmap.orientation.to_index(np.array([[1.0, 1.0]]))
        assert np.allclose(lo, [[0, 0]])
        assert np.allclose(hi, [[16, 16]])

    def test_rgb_in_range(self):
        prog = illust_vr.make_program(scale=0.1, volume_size=24)
        rgb = prog.run().outputs["rgb"]
        assert rgb.min() >= 0.0
        assert rgb.max() <= 2.0  # accumulated, bounded by opacity*colors

    def test_color_variation_from_curvature(self):
        """Curvature shading must produce non-gray colors somewhere."""
        prog = illust_vr.make_program(scale=0.2, volume_size=32)
        rgb = prog.run().outputs["rgb"]
        lit = rgb[rgb.sum(axis=-1) > 0.05]
        assert lit.size > 0
        channel_spread = np.abs(lit[:, 0] - lit[:, 1]).max()
        assert channel_spread > 0.01


class TestLic2d:
    def test_fixed_iteration_count(self):
        prog = lic2d.make_program(scale=0.08)
        prog.set_input("stepNum", 13)
        res = prog.run()
        assert res.steps == 13

    def test_velocity_modulation(self):
        """Output scales with |V| at the seed: the stagnation center is dark."""
        prog = lic2d.make_program(scale=0.2)
        res = prog.run()
        img = res.outputs["sum"]
        c = img.shape[0] // 2
        assert img[c, c] == pytest.approx(0.0, abs=0.05)


class TestRidge3d:
    def test_strands_die_outside_vessels(self):
        prog = ridge3d.make_program(scale=0.5, volume_size=32)
        res = prog.run()
        assert res.num_died > 0
        assert res.num_stable < res.num_strands

    def test_stable_positions_inside_volume(self):
        prog = ridge3d.make_program(scale=0.6, volume_size=32)
        pos = prog.run().outputs["pos"]
        if pos.size:
            assert np.all(np.abs(pos) <= 20.0)

    def test_strength_threshold_filters(self):
        weak = ridge3d.make_program(scale=0.5, volume_size=32)
        weak.set_input("strengthMin", 1.0)
        strong = ridge3d.make_program(scale=0.5, volume_size=32)
        strong.set_input("strengthMin", 200.0)
        n_weak = weak.run().outputs["pos"].shape[0]
        n_strong = strong.run().outputs["pos"].shape[0]
        assert n_strong <= n_weak


class TestIsocontour:
    def test_converged_points_on_isocontours(self):
        prog = isocontour.make_program(image_size=64)
        prog.set_input("resU", 32)
        prog.set_input("resV", 32)
        res = prog.run()
        pos = res.outputs["pos"]
        assert pos.shape[0] > 20  # a healthy number converge
        # each stable point must lie on one of the three isocontours
        from repro.data import portrait_phantom
        from repro.fields import convolve
        from repro.kernels import ctmr

        f = convolve(portrait_phantom(64), ctmr)
        vals = f.probe(pos)
        dist = np.min(
            np.abs(vals[:, None] - np.array([10.0, 30.0, 50.0])[None, :]), axis=1
        )
        assert np.percentile(dist, 95) < 0.1

    def test_some_strands_die(self):
        prog = isocontour.make_program(image_size=64)
        prog.set_input("resU", 32)
        prog.set_input("resV", 32)
        res = prog.run()
        assert res.num_died > 0
        assert res.num_stable + res.num_died == res.num_strands
