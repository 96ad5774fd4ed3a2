"""Per-layer metrics: which toolkit functions are traced and what is reported.

Every timing is a self time per traced op; every count is per traced op.
"""

from __future__ import annotations

import json
import os

from meanfield_lq import cli, matrices, model, montecarlo, recursion, tree

from spans import Tracer, self_times, totals

MODULES = (model, recursion, matrices, tree, montecarlo, cli)


def _roll_nodes(result, p, init, control, t, *rest):
    return {"nodes": 2 ** (p.N + 1) - 2 ** (t + 1)}


TARGETS = (
    (model, "load", "model.load", lambda r, path: {"bytes": os.path.getsize(path)}),
    (model, "validate", "model.validate", None),
    (model, "canonical_dumps", "model.canonical_dumps", lambda r, obj: {"bytes": len(r)}),
    (recursion, "solve_symmetric", "recursion.solve_symmetric", None),
    (recursion, "solve_gdre_global", "recursion.solve_gdre_global",
     lambda r, p, *a, **k: {"cells": p.N * (p.N + 1) // 2}),
    (recursion, "convexity_margins", "recursion.convexity_margins", None),
    (matrices, "pinv", "matrices.pinv", None),
    (matrices, "psd_check", "matrices.psd_check", None),
    (matrices, "range_residual", "matrices.range_residual", None),
    (tree, "certify_equilibrium", "tree.certify_equilibrium", None),
    (tree, "stationarity_residuals", "tree.stationarity_residuals", None),
    (tree, "roll_forward", "tree.roll_forward", _roll_nodes),
    (tree, "solve_bsde", "tree.solve_bsde", None),
    (tree, "cost", "tree.cost", None),
    (tree, "variation_cost", "tree.variation_cost", None),
    (tree, "representation_check", "tree.representation_check", None),
    (tree, "difference_formula_check", "tree.difference_formula_check", None),
    (tree, "equilibrium_pair", "tree.equilibrium_pair", None),
    (montecarlo, "draw_noise", "montecarlo.draw_noise", lambda r, *a, **k: {"bytes": r.nbytes}),
    (montecarlo, "simulate", "montecarlo.simulate",
     lambda r, p, init, gains, cfg: {"path_steps": cfg.paths * (p.N - init.t)}),
)

# metric -> span whose self time it reports
SELF_TIMES = {
    "model.load_s": "model.load",
    "model.validate_s": "model.validate",
    "model.canonical_dumps_s": "model.canonical_dumps",
    "recursion.solve_symmetric_s": "recursion.solve_symmetric",
    "recursion.solve_gdre_global_self_s": "recursion.solve_gdre_global",
    "recursion.convexity_margins_s": "recursion.convexity_margins",
    "matrices.pinv_s": "matrices.pinv",
    "matrices.psd_check_s": "matrices.psd_check",
    "matrices.range_residual_s": "matrices.range_residual",
    "tree.certify_equilibrium_self_s": "tree.certify_equilibrium",
    "tree.stationarity_residuals_self_s": "tree.stationarity_residuals",
    "tree.roll_forward_s": "tree.roll_forward",
    "tree.solve_bsde_s": "tree.solve_bsde",
    "tree.cost_s": "tree.cost",
    "tree.variation_cost_s": "tree.variation_cost",
    "tree.representation_check_self_s": "tree.representation_check",
    "tree.difference_formula_check_self_s": "tree.difference_formula_check",
    "tree.equilibrium_pair_s": "tree.equilibrium_pair",
    "montecarlo.draw_noise_s": "montecarlo.draw_noise",
    "montecarlo.simulate_self_s": "montecarlo.simulate",
    "cli.self_s": "cli.main",
}

# metric -> (span, counter or "calls", unit)
COUNTS = {
    "model.bytes_written": ("model.canonical_dumps", "bytes", "B"),
    "recursion.solve_calls": ("recursion.solve_gdre_global", "calls", "count"),
    "recursion.cells": ("recursion.solve_gdre_global", "cells", "count"),
    "matrices.pinv_calls": ("matrices.pinv", "calls", "count"),
    "tree.roll_forward_calls": ("tree.roll_forward", "calls", "count"),
    "tree.cost_calls": ("tree.cost", "calls", "count"),
    "tree.nodes_rolled": ("tree.roll_forward", "nodes", "count"),
    "montecarlo.path_steps": ("montecarlo.simulate", "path_steps", "count"),
    "montecarlo.noise_bytes": ("montecarlo.draw_noise", "bytes", "B"),
}

ACCOUNTING_FLOOR = 0.01


def installed(tracer: Tracer):
    return tracer.install(TARGETS, MODULES)


def _rate(agg: dict, span: str, counter: str, scale: float) -> float:
    got = agg.get(span)
    if not got or got["total_s"] <= 0.0:
        return 0.0
    return got["counts"].get(counter, 0) / got["total_s"] / scale


def per_layer(tracer: Tracer, traced_ops: list, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced ops, and the wall-time accounting check.

    `traced_ops` holds (wall seconds, index of the op's root span, bytes
    the op wrote) per traced op.  The self times of an op's spans must add up to
    its wall time within the measured tracing overhead.
    """
    agg = totals(tracer.spans)
    ops = len(traced_ops)
    own = self_times(tracer.spans)
    bounds = [first for _, first, _ in traced_ops] + [len(tracer.spans)]
    wall = sum(w for w, _, _ in traced_ops)
    accounted = sum(sum(own[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    share = abs(wall - accounted) / wall
    accounting = {"wall_s": wall, "self_s": accounted, "unaccounted_share": share,
                  "overhead_ratio": overhead,
                  "ok": share <= max(abs(overhead), ACCOUNTING_FLOOR)}

    metrics = {}
    for name, span in SELF_TIMES.items():
        metrics[name] = {"value": agg.get(span, {}).get("self_s", 0.0) / ops, "unit": "s"}
    for name, (span, counter, unit) in COUNTS.items():
        got = agg.get(span, {"calls": 0, "counts": {}})
        value = got["calls"] if counter == "calls" else got["counts"].get(counter, 0)
        metrics[name] = {"value": value / ops, "unit": unit}
    metrics["model.read_MBps"] = {"value": _rate(agg, "model.load", "bytes", 1e6), "unit": "MB/s"}
    metrics["montecarlo.path_steps_per_s"] = {
        "value": _rate(agg, "montecarlo.simulate", "path_steps", 1.0), "unit": "1/s"}
    written = sum(b for _, _, b in traced_ops)
    metrics["cli.bytes_written"] = {"value": written / ops, "unit": "B"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics, accounting


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent] for s in tracer.spans], fh)
