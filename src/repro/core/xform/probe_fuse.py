"""MidIR probe fusion: shared partial contractions across derivative combos.

Probe synthesis (``to_mid``) emits one full ``conv_contract`` per derivative
multi-index: a 3-D Hessian probe contracts the same gathered ``(2s)^3``
neighborhood six times (after value numbering merges the symmetric pairs),
and co-located probes of ``F``, ``∇F``, and ``∇⊗∇F`` share the gather but
still each contract the whole neighborhood from scratch.  Separability makes
most of that work redundant: contracting the neighborhood one sample axis at
a time, the partial contractions for combos that agree on a prefix of
per-axis weights are *identical* and can be computed once.

This pass rewrites each group of ``conv_contract`` instructions that read
one gathered neighborhood into a single multi-result ``probe_parts``
instruction.  Its ``specs`` attribute lists, per result, the weight argument
used on each sample axis; the runtime evaluates all specs through a shared
prefix tree of incremental axis contractions (``rt.probe_parts``), turning
``m`` full ``(2s)^d`` contractions into at most ``d·m`` — and in practice
far fewer — cheap axis contractions.  A neighborhood contracted only once
(a lone order-0 probe) still profits from the incremental schedule when
``d ≥ 2``; it is rewritten into a chain of single-axis ``contract_axis``
instructions instead.

Weight instructions produced after the group's first member (typical for
co-located probes of different derivative orders, whose weights sit between
the earlier probe's contractions) are hoisted up to the fused instruction
when their own inputs permit; members whose weights cannot be scheduled
before an existing fused instruction start a new one, so dominance is
preserved by construction.

The pass runs after MidIR contraction + value numbering (which it relies on
for the sharing of gathers and weights between co-located probes) and is
gated by ``OptOptions.probe_fusion`` / the driver's ``--no-fuse`` flag.

Fusion is decided per group by a cost model (:func:`_fusion_profitable`)
built from the neighborhood shape: 1-D groups are never fused — the
incremental schedule *lost* to the direct path on every 1-D case it was
measured on, where there is no prefix to share and the per-axis dispatch
overhead dominates the single ``2s``-wide contraction
(``tests/test_probe_fusion.py::TestCostModel`` pins the decision and that
1-D programs compile to the unfused code) — while for ``d ≥ 2`` the
modelled axis-contraction cost of the shared prefix tree is never worse
than repeating full ``(2s)^d`` contractions, so those groups always fuse.
"""

from __future__ import annotations

from repro.core.ir.base import Body, Func, Instr, Value


def probe_fuse(func: Func) -> dict:
    """Fuse the probe contractions of ``func`` in place.

    Returns a counter dict: ``groups`` (fused ``probe_parts`` emitted),
    ``fused_contracts`` (``conv_contract`` s absorbed into them), ``chains``
    (lone contractions rewritten as ``contract_axis`` chains), ``hoisted``
    (weight instructions moved up to a fusion site), and ``rejected``
    (groups the cost model left as plain ``conv_contract`` s).
    """
    stats = {"groups": 0, "fused_contracts": 0, "chains": 0,
             "hoisted": 0, "rejected": 0}
    _fuse_body(func.body, stats)
    return stats


def _fusion_profitable(dim: int, support: int, specs: list[tuple]) -> bool:
    """Decide whether the incremental schedule beats full contractions.

    ``specs`` lists, per group member, the identity of the weight vector it
    applies on each sample axis.  Both sides are modelled as axis-by-axis
    contraction chains — contracting axis ``L`` of a partially-contracted
    neighborhood costs ``(2s)^(d-L+1)`` multiply-adds: an unfused member
    pays the whole chain ``Σ_L (2s)^(d-L+1)`` itself, while fused members
    pay once per *unique* spec prefix (partial contractions are shared
    through the prefix tree, so duplicates are free).  For ``dim == 1``
    the schedule can share nothing and its constant per-axis dispatch
    overhead loses in practice, so 1-D groups are rejected outright
    (``tests/test_probe_fusion.py::TestCostModel``).
    """
    if dim < 2:
        return False
    width = 2 * support
    chain = sum(width ** (dim - k) for k in range(dim))
    prefixes = {spec[:k] for spec in specs for k in range(1, len(spec) + 1)}
    fused = sum(width ** (dim - len(p) + 1) for p in prefixes)
    return fused <= len(specs) * chain


def _placeable(v: Value, anchor: int, pos: dict, hoist_pos: dict) -> bool:
    """True if ``v`` is (or will be) defined before item index ``anchor``.

    Values from outer scopes or parameters are absent from ``pos`` and count
    as defined at -1; hoisted weights land immediately before their own
    anchor, i.e. at ``anchor - 0.5``.
    """
    p = hoist_pos.get(v.id)
    if p is not None:
        return p - 0.5 < anchor
    return pos.get(v.id, -1) < anchor


def _fuse_body(body: Body, stats: dict) -> None:
    for item in body.items:
        if not isinstance(item, Instr):
            _fuse_body(item.then_body, stats)
            _fuse_body(item.else_body, stats)

    # Item index of every value defined at this body's top level.
    pos: dict[int, int] = {}
    for i, item in enumerate(body.items):
        if isinstance(item, Instr):
            for r in item.results:
                pos[r.id] = i
        else:
            for phi in item.phis:
                pos[phi.result.id] = i

    # Group full contractions by the gathered neighborhood they consume.
    groups: dict[int, list[tuple[int, Instr]]] = {}
    for i, item in enumerate(body.items):
        if (
            isinstance(item, Instr)
            and item.op == "conv_contract"
            and len(item.args) >= 2
            and isinstance(item.args[0].ty, tuple)
            and item.args[0].ty
            and item.args[0].ty[0] == "vox"
        ):
            groups.setdefault(item.args[0].id, []).append((i, item))
    if not groups:
        return

    hoist_pos: dict[int, int] = {}  # weight value id -> anchor it moves to
    inserts: dict[int, list[Instr]] = {}  # anchor index -> replacement items
    drop: set[int] = set()  # original indices vacated by fusion/hoisting

    for members in groups.values():
        vox0 = members[0][1].args[0]
        group_dim = len(members[0][1].args) - 1
        group_specs = [tuple(w.id for w in m.args[1:]) for _, m in members]
        if not _fusion_profitable(group_dim, vox0.ty[2], group_specs):
            stats["rejected"] += 1
            continue
        # Partition the group into subgroups whose weights can all be
        # scheduled before the subgroup's anchor (its first member's slot).
        subgroups: list[dict] = []
        for idx, instr in members:
            placed = False
            for sg in subgroups:
                need: list[Value] = []
                ok = True
                for w in instr.args[1:]:
                    if _placeable(w, sg["anchor"], pos, hoist_pos):
                        continue
                    prod = w.producer
                    if (
                        isinstance(prod, Instr)
                        and prod.op == "weights"
                        and w.id in pos
                        and all(
                            _placeable(a, sg["anchor"], pos, hoist_pos)
                            for a in prod.args
                        )
                    ):
                        need.append(w)
                    else:
                        ok = False
                        break
                if ok:
                    for w in need:
                        if w.id not in hoist_pos:
                            sg["hoists"].append(body.items[pos[w.id]])
                            drop.add(pos[w.id])
                            hoist_pos[w.id] = sg["anchor"]
                    sg["members"].append((idx, instr))
                    placed = True
                    break
            if not placed:
                subgroups.append({"anchor": idx, "members": [(idx, instr)], "hoists": []})

        for sg in subgroups:
            mlist = sg["members"]
            anchor = sg["anchor"]
            first = mlist[0][1]
            vox = first.args[0]
            image = vox.ty[1]
            support = vox.ty[2]
            dim = len(first.args) - 1

            if len(mlist) == 1:
                if dim < 2:
                    continue  # 1-D lone contraction: nothing to split
                # Rewrite as an explicit chain of single-axis contractions.
                chain: list[Instr] = []
                val = vox
                for k in range(dim):
                    axes = dim - k
                    ca = Instr(
                        "contract_axis",
                        [val, first.args[1 + k]],
                        {"image": image, "support": support, "axes": axes},
                    )
                    if k == dim - 1:
                        r = first.results[0]
                        r.producer = ca
                        ca.results.append(r)
                    else:
                        val = ca.new_result(("part", image, support, axes - 1))
                    chain.append(ca)
                inserts[anchor] = sg["hoists"] + chain
                drop.add(anchor)
                stats["chains"] += 1
            else:
                # One multi-result probe_parts over the whole subgroup.
                weights: list[Value] = []
                windex: dict[int, int] = {}
                specs: list[tuple[int, ...]] = []
                for _, m in mlist:
                    spec = []
                    for w in m.args[1:]:
                        wi = windex.get(w.id)
                        if wi is None:
                            wi = windex[w.id] = len(weights)
                            weights.append(w)
                        spec.append(wi)
                    specs.append(tuple(spec))
                pp = Instr(
                    "probe_parts",
                    [vox] + weights,
                    {
                        "image": image,
                        "support": support,
                        "dim": dim,
                        "specs": tuple(specs),
                    },
                )
                for idx, m in mlist:
                    r = m.results[0]
                    r.producer = pp
                    pp.results.append(r)
                    drop.add(idx)
                inserts[anchor] = sg["hoists"] + [pp]
                stats["groups"] += 1
                stats["fused_contracts"] += len(mlist)
            stats["hoisted"] += len(sg["hoists"])

    if not inserts:
        return
    items = []
    for i, item in enumerate(body.items):
        ins = inserts.get(i)
        if ins:
            items.extend(ins)
        if i not in drop:
            items.append(item)
    body.items = items
