"""Seeded input generation: the same seed gives byte-identical inputs.

The program under test receives only what is generated here.  The seed
moves what can move without changing how much work a run does — the
camera's sub-pixel offset, the LIC noise texture and seed extent, the
ridge particle lattice, every request body, the probe program's volume and
the increments its updates apply — because
runs with different seeds are compared with each other; the phantom
volumes keep their geometry, which decides how long strands live.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import numpy as np

from repro.data import hand_phantom, lung_phantom, noise_texture, vector_field_2d
from repro.image import Image
from repro.programs.illust_vr import curvature_colormap


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


# -- the four paper programs ---------------------------------------------------

def camera(seed: int, res: int, span: float = 30.0) -> dict:
    """Ray-grid inputs for vr_lite/illust_vr: ``res``² pixels over a
    ``span``-wide viewport centred on the volume, shifted by a seeded
    sub-pixel offset."""
    pitch = span / res
    du, dv = (rng(seed, "camera").random(2) - 0.5) * pitch
    return {
        "imgResU": res, "imgResV": res,
        "cVec": [pitch, 0.0, 0.0], "rVec": [0.0, pitch, 0.0],
        "orig": [-span / 2 + du, -span / 2 + dv, 45.0],
    }


def lic_images(seed: int, size: int) -> dict[str, Image]:
    """lic2d's vector field and its seeded noise texture."""
    noise_seed = int(rng(seed, "lic.noise").integers(1, 2**31 - 1))
    return {"vectors": vector_field_2d(size), "rand": noise_texture(size, seed=noise_seed)}


def paper_images(seed: int, vols: dict[str, int]) -> dict[str, dict[str, Image]]:
    """``program -> {image global -> Image}`` at the given volume sizes."""
    hands: dict[int, Image] = {}

    def hand(size: int) -> Image:
        if size not in hands:
            hands[size] = hand_phantom(size)
        return hands[size]

    return {
        "vr_lite": {"img": hand(vols["vr_lite"])},
        "illust_vr": {"img": hand(vols["illust_vr"]), "xfer": curvature_colormap()},
        "lic2d": lic_images(seed, vols["lic2d"]),
        "ridge3d": {"img": lung_phantom(vols["ridge3d"])},
    }


def paper_inputs(seed: int, program: str, res: int, oracle: bool = False) -> dict:
    """Input globals for one paper program at grid size ``res``.

    The oracle grid narrows the ray viewport onto the hand so that a few
    rays of a tiny grid still cross the surface.
    """
    if program in ("vr_lite", "illust_vr"):
        return camera(seed, res, span=14.0 if oracle else 30.0)
    if program == "lic2d":
        extent = 0.75 + (rng(seed, "lic.extent").random() - 0.5) * 0.02
        return {"imgResU": res, "imgResV": res, "extent": float(extent)}
    if program == "ridge3d":
        ext = 12.0 + (rng(seed, "ridge.lattice").random() - 0.5) * 0.2
        return {"gridRes": res, "gridExt": float(ext)}
    raise KeyError(program)


def apply(prog, values: dict) -> None:
    """Set every input global in ``values`` on a compiled program."""
    for name, value in values.items():
        prog.set_input(name, value)


# -- front-door: serving --------------------------------------------------------

def probe_requests(seed: int, count: int, big_every: int, big_points: int) -> list[dict]:
    """``count`` /probe request bodies: one in ``big_every`` (at seeded
    positions within each group) carries ``big_points`` points, the rest 1–8."""
    r = rng(seed, "serve.requests")
    out = []
    for start in range(0, count, big_every):
        big_at = int(r.integers(0, big_every))
        for j in range(min(big_every, count - start)):
            n = big_points if j == big_at else int(r.integers(1, 9))
            points = 3.0 + r.random((n, 3)) * 24.0
            out.append({"n": n, "points": points,
                        "body": json.dumps({"points": points.tolist()}).encode()})
    return out


def arrival_schedule(pairs: int, pairs_per_s: float) -> list[float]:
    """Due time (seconds from the start) of each request: both requests of
    a pair are due at the same instant, pairs at a fixed rate."""
    return [i / pairs_per_s for i in range(pairs) for _ in (0, 1)]


def oracle_sample(seed: int, count: int, one_in: int = 50) -> list[int]:
    """Indices of the requests whose answers are checked against gage."""
    k = max(1, count // one_in)
    return sorted(int(i) for i in
                  rng(seed, "serve.oracle").choice(count, size=k, replace=False))


# -- paper-*: the checkpointed probe program ------------------------------------

def incremental_source(vol: int, grid: int, steps: int) -> str:
    """``bench_incremental``'s program: grid³ strands probing F and ∇F."""
    pitch = (vol - 9.0) / grid
    return f"""
input int N = {grid};
image(3)[] img = load("vol.nrrd");
field#2(3)[] F = img ⊛ bspln3;

strand S (int i, int j, int k) {{
   output real x = 0.0;
   int n = 0;
   update {{
      vec3 p = [real(i) * {pitch:.6f} + 4.0,
                real(j) * {pitch:.6f} + 4.0,
                real(k) * {pitch:.6f} + 4.0];
      if (inside(p, F)) {{
         vec3 g = ∇F(p);
         x = x + F(p) + 0.25 * g[0] + 0.125 * g[1] + 0.0625 * g[2];
      }}
      n += 1;
      if (n >= {steps}) stabilize;
   }}
}}
initially [ S(i, j, k) | i in 0 .. N-1, j in 0 .. N-1, k in 0 .. N-1 ];
"""


def incremental_volume(seed: int, vol: int) -> np.ndarray:
    return rng(seed, "incremental.volume").random((vol, vol, vol))


def slab(vol: int) -> tuple[int, int]:
    """``(lo, hi)``: the 5 %-of-extent slab along axis 0 that every timed
    update patches.  Its position is fixed — how many strands an update
    re-runs depends on where the slab meets the strand lattice, and runs
    with different seeds are compared with each other."""
    width = max(1, int(round(vol * 0.05)))
    lo = (vol - width) // 2
    return lo, lo + width - 1


def slab_bumps(seed: int, count: int = 256) -> list[float]:
    """Seeded increments, one per update, added to the patched samples."""
    return [float(b) for b in rng(seed, "incremental.bumps").uniform(0.1, 0.4, size=count)]


# -- digests (self-tests: same seed → same bytes) ------------------------------

def digest(workload: str, seed: int, sizes: dict) -> str:
    """SHA-256 over everything the seed generates for ``workload``."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, Image):
            feed(obj.data)
        elif isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode() + str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, bytes):
            h.update(obj)
        elif isinstance(obj, dict):
            for k in sorted(obj):
                h.update(str(k).encode())
                feed(obj[k])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    if workload.startswith("paper-"):
        key = "numpy" if workload == "paper-numpy" else "native"
        grid = sizes[key]
        feed(paper_images(seed, {p: v for p, (_, v) in grid.items()}))
        for p, (res, _) in grid.items():
            feed(paper_inputs(seed, p, res))
            feed(paper_inputs(seed, p, sizes["oracle"][p], oracle=True))
        cfg = sizes["incremental"][key]
        feed(incremental_volume(seed, cfg["vol"]))
        feed(slab(cfg["vol"]))
        feed(slab_bumps(seed))
    elif workload == "front-door":
        cfg = sizes["serve"]
        pairs = max(4, round(cfg["burst_s"] * cfg["pairs_per_s"]))
        reqs = probe_requests(seed, 2 * pairs * cfg["pool_bursts"], cfg["big_every"],
                              cfg["big_points"])
        feed([r["body"] for r in reqs])
        feed(arrival_schedule(pairs, cfg["pairs_per_s"]))
        feed(oracle_sample(seed, len(reqs)))
        feed(camera(seed, cfg["run_res"]))
        # the CLI runs a checked-in example program on its checked-in
        # volume; only the input overrides are generated
        feed(paper_inputs(seed, sizes["cli"]["program"], sizes["cli"]["res"]))
    else:
        raise KeyError(workload)
    return h.hexdigest()
