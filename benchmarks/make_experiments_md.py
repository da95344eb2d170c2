#!/usr/bin/env python
"""Render EXPERIMENTS.md from the committed reference and figure results.

    python benchmarks/make_experiments_md.py

Every time, speedup and overhead in EXPERIMENTS.md comes from one of two
places, and this script only formats them:

* ``benchmarks/reference/ledger.json`` and ``ledger-traced.json`` — the
  perf ledger's own stamped documents, written by the unmodified

      python benchmarks/ledger/run.py --repeat 5 --seed 0 --out benchmarks/reference/ledger.json
      python benchmarks/ledger/run.py --traced --seed 0 --out benchmarks/reference/ledger-traced.json

  and never edited by hand;
* ``benchmarks/results/*.json`` — what the figure, Table 1 and ablation
  scripts recorded (``pytest benchmarks/ --ignore benchmarks/ledger``).

``tests/test_bench_estate.py`` re-renders the page and compares bytes, so
the committed EXPERIMENTS.md cannot drift from its sources.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger import compare, spec  # noqa: E402

REFERENCE = HERE / "reference"
RESULTS = HERE / "results"
OUT = HERE.parent / "EXPERIMENTS.md"

#: paper Table 2, single precision, seconds: Teem, Diderot sequential, 8 threads
PAPER_TABLE2 = {
    "vr_lite": (26.77, 14.92, 2.62),
    "illust_vr": (132.85, 54.17, 8.00),
    "lic2d": (3.22, 2.02, 0.30),
    "ridge3d": (11.18, 8.40, 1.14),
}

#: how a (res, vol) pair of ``spec.SIZES`` reads for each program
SIZE_TEXT = {
    "vr_lite": "{0}² rays, {1}³ volume",
    "illust_vr": "{0}² rays, {1}³ volume",
    "lic2d": "{0}² seeds, {1}² field",
    "ridge3d": "{0}³ particles, {1}³ volume",
}


def load(path: Path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def stamp(doc: dict) -> str:
    """The conditions a ledger document was measured under, from its stamp."""
    runs = len(doc["runs"]) // len({r["workload"] for r in doc["runs"]})
    return (f"`git_sha` {doc['git_sha']}, `cpu_count` {doc['cpu_count']}, "
            f"`seed` {doc['seed']}, `cc` {doc['cc']}, Python {doc['python']}, "
            f"NumPy {doc['numpy']}, `schema` {doc['schema']}, "
            f"{runs} run{'s' if runs > 1 else ''} per workload")


def cell(s: dict, digits: int = 1) -> str:
    """Median over the runs with its quartiles."""
    return f"{s['median']:.{digits}f} [{s['q1']:.{digits}f}–{s['q3']:.{digits}f}]"


def first_run(doc: dict, workload: str) -> dict:
    return next(r for r in doc["runs"] if r["workload"] == workload)


def table2(w, rows: dict, ledger: dict, t1: list) -> None:
    paper_strands = {r["program"].replace("-", "_"): r["paper_strands"] for r in t1}
    runs = {"native": first_run(ledger, "paper-native"),
            "numpy": first_run(ledger, "paper-numpy")}
    w("## Table 2 — wall clock of the four programs")
    w("")
    w("One warm `Program.run` of each program, sequential scheduler, double")
    w("precision, on the compiled-C backend (workload `paper-native`) and on")
    w("the NumPy backend at a reduced size (`paper-numpy`), beside the paper's")
    w("Table 2 (single precision; Teem is its hand-written C baseline).  A")
    w("cell is the median over the runs of each run's fastest sample, with")
    w("the quartiles; every timed repeat is checked bit-identical to the")
    w("first and each program against `repro.baselines` on a small grid.")
    w("")
    w("| program | paper: Teem / seq / 8P (s) | paper strands "
      "| native C: size | strands × steps | `paper-native` (ms) "
      "| NumPy: size | strands × steps | `paper-numpy` (ms) |")
    w("|---|---|---|---|---|---|---|---|---|")
    for p in spec.PROGRAMS:
        teem, seq, p8 = PAPER_TABLE2[p]
        cols = [p, f"{teem:.2f} / {seq:.2f} / {p8:.2f}", f"{paper_strands[p]:,}"]
        for backend, run in runs.items():
            c = run["counts"][p]
            cols += [SIZE_TEXT[p].format(*run["sizes"][backend][p]),
                     f"{c['strands']:,} × {c['steps']}",
                     cell(rows[(run["workload"], f"{p}_ms")])]
        w("| " + " | ".join(cols) + " |")
    w("")
    w("The sizes differ by one to two orders of magnitude from the paper's")
    w("(the ledger keeps an operation under ≈ 100 ms so a 30 s run samples it")
    w("dozens of times), and the machines differ, so the columns are not")
    w("ratios of one another: the table says what this implementation costs,")
    w("measured, on both backends, for the programs the paper timed.  There")
    w("is no estimated column.  Set-up (compile, bind, first runs, first")
    w("checkpoint and update) and memory: " + "; ".join(
        f"`{wl}` `setup_s` {cell(rows[(wl, 'setup_s')], 2)} s, "
        f"`peak_rss_mb` {cell(rows[(wl, 'peak_rss_mb')], 0)} MB"
        for wl in ("paper-native", "paper-numpy")) + ".")
    w("")


def incremental(w, rows: dict, ledger: dict, layers: dict) -> None:
    w("## Incremental re-execution")
    w("")
    w("Rows `rerun_ms` and `update_5pct_ms` of the two `paper-*` workloads: a")
    w("checkpointed probe program (F and ∇F through bspln3, 6 super-steps)")
    w("takes a 5 %-of-volume slab of new samples either by `update_input` +")
    w("`run_update`, or by binding the patched volume to a second program")
    w("object and running it cold — which is also the update's oracle: every")
    w("update is checked bit-identical to it.")
    w("")
    w("| workload | strands / volume | `rerun_ms` | `update_5pct_ms` | update ÷ re-run |")
    w("|---|---|---|---|---|")
    for wl, key in (("paper-native", "native"), ("paper-numpy", "numpy")):
        size = first_run(ledger, wl)["sizes"]["incremental"][key]
        rerun, update = rows[(wl, "rerun_ms")], rows[(wl, "update_5pct_ms")]
        w(f"| `{wl}` | {size['grid']}³ / {size['vol']}³ | {cell(rerun)} | "
          f"{cell(update, 2)} | {update['median'] / rerun['median']:.2f} |")
    w("")
    w("The traced run's layer metrics (medians of one traced pass) for the same")
    w("program: the share of strands the slab dirties, the first update after a")
    w("checkpoint, the checkpointing run itself, and a whole-volume update —")
    w("set the last two against `rerun_ms` above.")
    w("")
    keys = ("dirty_fraction", "first_update_ms", "checkpoint_run_ms",
            "update_100pct_ms", "update_over_rerun")
    w("| workload | " + " | ".join(f"`{k}`" for k in keys) + " |")
    w("|---|" + "---|" * len(keys))
    for wl in ("paper-native", "paper-numpy"):
        values = [layers[wl][f"runtime.incremental.{k}"] for k in keys]
        w(f"| `{wl}` | {values[0]:.1%} | "
          + " | ".join(f"{v:.1f}" for v in values[1:4]) + f" | {values[4]:.2f} |")
    w("")


def front_door(w, rows: dict, ledger: dict, layers: dict) -> None:
    flags = first_run(ledger, "front-door")["flags"]
    metrics = spec.ROWS["front-door"] + ("setup_s", "peak_rss_mb")
    w("## Compiling, starting and serving")
    w("")
    w("Workload `front-door` — everything but the strands: in-process compile of")
    w(f"the {len(flags['compiled_programs'])} `examples/programs/*.diderot` to Python "
      "and C (`compile_ms`), the CLI")
    w("as a subprocess (`start_ms`: `--help`; `warm_ms`: a run served by the")
    w("compile cache and the native-artifact cache), and a real")
    w("`python -m repro.serve --backend c` subprocess under open-loop bursts of")
    w(f"{flags['requests_per_burst']} `/probe` requests at {flags['pairs_per_s']} "
      "request pairs per second, followed by `/run`")
    w("requests.  Every answer is checked.  Milliseconds, except `setup_s` (s)")
    w("and `peak_rss_mb`.")
    w("")
    w("| " + " | ".join(f"`{m}`" for m in metrics) + " |")
    w("|" + "---|" * len(metrics))
    fine = {"probe_p50_ms", "probe_p90_ms", "setup_s"}  # small: two decimals
    w("| " + " | ".join(cell(rows[("front-door", m)], 2 if m in fine else 1)
                        for m in metrics) + " |")
    w("")
    w("Where that goes, from the traced run (layer metrics, ms unless a count): a")
    w("cold `cc` against an artifact-cache hit, interpreter start and imports")
    w("inside `start_ms`, and the parts of a `/probe` request — the wait in the")
    w("batcher's queue (a fixed 2 ms window when the reference was measured; a")
    w("batch now runs as soon as the batcher is free), how many requests a batch")
    w("ends up with, the batch itself, HTTP and JSON — beside a lone small probe")
    w("and the refusals.")
    w("")
    digits = {"core.codegen.cbuild_ms": 0, "core.codegen.cbuild_hit_ms": 2,
              "cli.import_ms": 0, "serve.batch.wait_ms": 2,
              "serve.batch.requests_per_batch": 1, "serve.registry.run_batch_ms": 2,
              "serve.server.http_ms": 2, "serve.client.single_ms": 2,
              "serve.server.http_429": 0}
    w("| " + " | ".join(f"`{k}`" for k in digits) + " |")
    w("|" + "---|" * len(digits))
    w("| " + " | ".join(f"{layers['front-door'][k]:.{d}f}"
                        for k, d in digits.items()) + " |")
    w("")


def figure12(w, f12: dict, traced: dict, layers: dict) -> None:
    w("## Figure 12 — parallel speedup, 1–8 workers (single precision)")
    w("")
    w("**Simulated.**  Each program runs sequentially with per-block timing")
    w(f"(NumPy backend, block size {f12['block_size']}) and the block trace is replayed")
    w("through a model of the work-list scheduler (`repro.runtime.simsched`);")
    w(f"`bench_fig12_scaling.py`, `git_sha` {f12['git_sha']}.  It shows the")
    w("scheduling behaviour the paper describes, not what cores do:")
    w("")
    w("| program |" + "".join(f" {wk} |" for wk in f12["workers"]))
    w("|---|" + "---|" * len(f12["workers"]))
    for name, curve in f12["curves"].items():
        w(f"| {name} ({f12['strands'][name]:,} strands) |"
          + "".join(f" {v:.2f} |" for v in curve))
    w("")
    w("Shape checks (asserted by the script): near-linear at low worker")
    w("counts and monotone; the fewest-strands program (vr-lite) plateaus")
    w("first — the paper's 'tailing-off at eight threads ... because of lack")
    w("of work'; ridge3d is tail-limited at this scale because most particles")
    w("die in early super-steps. ✓")
    w("")
    speedups = " / ".join(
        f"{layers['paper-native'][f'runtime.scheduler.speedup.{p}']:.2f}"
        for p in spec.PROGRAMS)
    w(f"**Measured, a {traced['cpu_count']}-vCPU diagnostic — not a scaling "
      f"result.**  `runtime.scheduler.speedup.<p>` (sequential ÷ thread "
      f"scheduler with 2 workers, compiled-C backend, traced `paper-native` run "
      f"under the stamp above): {speedups} for "
      f"{' / '.join(spec.PROGRAMS)}.  vr_lite and illust_vr are two strand "
      f"blocks of unequal size, and the two vCPUs of a shared host are not "
      f"reliably two cores' worth; the number says whether the thread path "
      f"loses, nothing about eight cores.")
    w("")


def render() -> str:
    ledger = load(REFERENCE / "ledger.json")
    traced = load(REFERENCE / "ledger-traced.json")
    rows = compare.summarize(ledger)
    layers = {r["workload"]: r["layers"] for r in traced["runs"]}
    t1 = load(RESULTS / "table1.json")
    f04, f06, f08 = (load(RESULTS / f"figure{n}.json") for n in ("04", "06", "08"))
    ab_bs = load(RESULTS / "ablation_blocksize.json")
    ab_vn = load(RESULTS / "ablation_valnum.json")

    lines: list[str] = []
    w = lines.append
    w("# Experiments: paper vs. measured")
    w("")
    w("Rendered by `python benchmarks/make_experiments_md.py`; not edited by")
    w("hand (`tests/test_bench_estate.py` re-renders it and compares bytes).")
    w("Times, speedups and overheads come from two committed perf-ledger")
    w("documents, the unmodified output of `benchmarks/ledger/run.py`:")
    w("")
    w(f"* `benchmarks/reference/ledger.json` (`--repeat 5 --seed 0`): {stamp(ledger)};")
    w(f"* `benchmarks/reference/ledger-traced.json` (`--traced --seed 0`): {stamp(traced)}.")
    w("")
    w("`git_sha` is the commit that was checked out when a document was")
    w("measured, and the stamp has no dirty flag: a document committed by the")
    w("change that measured it — both of these, and the `benchmarks/results/`")
    w("files below — ran on that checkout *plus* that change's own edits (the")
    w("one that committed these touched no hot path: benchmark scripts, docs,")
    w("two error messages and a digest helper).")
    w("")
    w("Figures, line counts and ablations come from `benchmarks/results/`,")
    w("written by `pytest benchmarks/ --ignore benchmarks/ledger`.  The paper")
    w("used an 8-core Xeon X5570 and clang -O3 on CT data; here it is a shared")
    w("sandbox and synthetic phantoms (DESIGN.md \"Substitutions\"), so absolute")
    w("times are not comparable and the figure scripts assert the paper's")
    w("*qualitative shape* instead.  A change is judged on one machine:")
    w("`benchmarks/ledger/compare.py parent.json head.json` (CI job `perf-ab`).")
    w("")

    w("## Table 1 — program sizes and strand counts")
    w("")
    w("LOC counted without comments/blank lines; `total:core` where core")
    w("is the Diderot `update` method vs. the baseline's per-strand loop.")
    w("Our baseline is Python+gage (terser than the paper's C+Teem), so")
    w("the expected shape is a consistent Diderot advantage, smaller than")
    w("the paper's 3-8x vs C.")
    w("")
    w("| program | baseline (ours) | Diderot (ours) | Teem (paper) | Diderot (paper) | strands (paper) |")
    w("|---|---|---|---|---|---|")
    pair = "{0[0]}:{0[1]}".format
    for r in t1:
        w(f"| {r['program']} | {pair(r['baseline_loc'])} | "
          f"{pair(r['diderot_loc'])} | {pair(r['paper_teem_loc'])} | "
          f"{pair(r['paper_diderot_loc'])} | {r['paper_strands']:,} |")
    ratios = [r["baseline_loc"][0] / r["diderot_loc"][0] for r in t1]
    w("")
    w(f"Shape check: Diderot smaller in every row "
      f"(total-LOC ratios {', '.join(f'{x:.1f}x' for x in ratios)}; "
      f"paper's C ratios 3.3x, 3.9x, 4.9x, 8.2x). ✓")
    w("")

    table2(w, rows, ledger, t1)
    incremental(w, rows, ledger, layers)
    front_door(w, rows, ledger, layers)
    figure12(w, load(RESULTS / "figure12.json"), traced, layers)

    w("## Figures 4, 6, 8 — rendered outputs")
    w("")
    w(f"* **Figure 4** (curvature-shaded rendering): regenerated at "
      f"{f04['res']}×{f04['res']} (`results/figure04_curvature.ppm` plus "
      f"the (κ₁,κ₂) colormap). Surface coverage {f04['coverage']:.0%}, "
      f"curvature-driven hue spread {f04['hue_spread']:.2f} — the color "
      f"variation over the surface that constant shading would lack. ✓")
    w(f"* **Figure 6** (LIC): regenerated at {f06['res']}×{f06['res']} "
      f"(`results/figure06_lic.pgm`). High-passed lag-1 correlation "
      f"along streamlines {f06['tangential']:.2f} vs across "
      f"{f06['radial']:.2f} — quantifying the flow-aligned streaks. ✓")
    w(f"* **Figure 8** (isocontour particles): {f08['stable']:,} of "
      f"{f08['stable'] + f08['died']:,} strands stabilized "
      f"({f08['died']:,} died), {f08['on_contour_fraction']:.0%} of "
      f"survivors within 0.05 of an isovalue (median error "
      f"{f08['median_error']:.1e}) — the Figure 8 dots, with convergence "
      f"quantified (`results/figure08_isocontours.pgm`). ✓")
    w("")

    w("## Ablations")
    w("")
    w(f"* **§5.4 value numbering** (illust-vr update, NumPy backend; "
      f"`bench_ablation_valnum.py`, `git_sha` {ab_vn['git_sha']}, `cpu_count` "
      f"{ab_vn['cpu_count']}): MidIR "
      f"{ab_vn['mid_instrs_without_vn']} → {ab_vn['mid_instrs_with_vn']} "
      f"instructions with VN; one run each, "
      f"{ab_vn['time_without_vn']:.2f}s → {ab_vn['time_with_vn']:.2f}s "
      f"({ab_vn['time_without_vn'] / ab_vn['time_with_vn']:.2f}x). The "
      f"shared F/∇F/∇⊗∇F convolutions and the Hessian symmetry are "
      f"verified structurally in `tests/test_value_numbering.py` "
      f"(1 gather instead of 3; 6 Hessian contractions instead of 9). ✓")
    sweep = ", ".join(f"{bs}→{ab_bs['speedups_8p'][str(bs)]:.1f}x"
                      for bs in ab_bs["block_sizes"])
    w(f"* **§6.4 strand-block size** (lic2d, {ab_bs['strands']:,} "
      f"strands, *simulated* 8 workers as in Figure 12; "
      f"`bench_ablation_blocksize.py`, `git_sha` {ab_bs['git_sha']}): {sweep}. "
      f"Too-large blocks starve "
      f"the work-list (load imbalance); small blocks pay per-grab lock "
      f"overhead — the trade-off the paper describes around its 4096 "
      f"default. ✓")
    w("")
    w("## §8.3 extensions (future work in the paper, implemented here)")
    w("")
    w("Divergence (∇•) and curl (∇×) compile through the same normalization")
    w("pipeline; `examples/vector_field_ops.py` checks both against a vector")
    w("field with closed-form vorticity (∇×V = 2ω, ∇•V = 0), matching to")
    w("1e-6. The quintic `bspln5` (C⁴) kernel extends the paper's kernel set")
    w("and is property-tested alongside the built-ins.")
    w("")
    return "\n".join(lines)


def main() -> None:
    OUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
