"""Command-line surface: solve, verify, simulate, epsilon-sweep.

`verify` certifies each step of the gains' control from one call of
`montecarlo.deviation_forms`, which gives the closed-form forms Q_k and
the exact mean and covariance of the closed-loop state: no tree, no node
and no depth cap.  It also reports the identities between those
forms and the solver (`montecarlo.solver_identities`).

Exit codes are a stable contract: 0 = success/certified, 2 = computed but a
numerical condition is violated, 1 = usage or input error.  Every command
writes its files through `_write_outputs`: a JSON document, a CSV table if
the command has one, and a sidecar manifest.  Each file embeds the SHA-256
of the input problem file; the manifest records the full run context
(including wall time, which is why it lives in its own file and not in the
deterministic outputs).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import matrices, model, montecarlo as mc, recursion
from .errors import EpsilonNonPositive, MeanfieldLQError, NumericalBreakdown, ProblemFormatError
from .model import InitialPair, canonical_bytes

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2


def _write_outputs(args, sha: str, warnings: list, body: dict, tolerances: dict | None = None,
                   table: tuple | None = None) -> str:
    """Write a command's files and return the path of its JSON document.

    The document is ``body`` under a header: the command, the tool version,
    the input digest and the warnings.  A command with a ``table`` (column
    names, then rows of numbers) takes --out as a prefix and writes
    <out>.json and <out>.csv, whose first line is the input digest and
    whose cells print with 17 significant digits; otherwise --out is the
    document's path.  The manifest <out>.manifest.json records the input,
    the seed (the command's --seed, if it has one), ``tolerances``, the
    files written and the wall time since `main` parsed the arguments.
    """
    json_path = args.out if table is None else args.out + ".json"
    header = {"command": args.command, "tool_version": __version__, "input_sha256": sha}
    model.write_text(json_path, canonical_bytes({**header, "warnings": warnings, **body}))
    outputs = [json_path]
    if table is not None:
        head, rows = table
        lines = [f"# input_sha256={sha}", ",".join(head)]
        lines += [",".join(format(v, ".17g") for v in row) for row in rows]
        outputs.append(args.out + ".csv")
        model.write_text(outputs[-1], "\n".join(lines))
    manifest = {**header, "input": args.input, "seed": getattr(args, "seed", None),
                "tolerances": tolerances or {}, "outputs": outputs,
                "wall_time_s": time.monotonic() - args.started}
    model.write_text(args.out + ".manifest.json", canonical_bytes(manifest))
    return json_path


def _load_problem(path: str):
    """The problem of a file, its findings worded as warnings, and the
    digest of its bytes."""
    if not os.path.exists(path):
        raise ProblemFormatError(f"input file not found: {path}")
    p, findings, sha = model.load(path)
    return p, [f"{f.path}: {f.message}" for f in findings], sha


def _parse_vector(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise MeanfieldLQError(f"bad vector {text!r}: {exc}")
    if len(vals) != n:
        raise MeanfieldLQError(f"vector {text!r} has {len(vals)} entries, expected {n}")
    if not all(math.isfinite(v) for v in vals):
        raise MeanfieldLQError(f"vector {text!r} has a non-finite entry")
    return np.asarray(vals)


def _initial_pair(p, t: int, x: str | None) -> InitialPair:
    """The start of --t and --x; with no --x the state is zero."""
    if not 0 <= t < p.N:
        raise MeanfieldLQError(f"--t must be in 0..{p.N - 1}")
    return InitialPair(t, np.zeros(p.n) if x is None else _parse_vector(x, p.n))


def _load_gains(path: str, p) -> recursion.GainSchedule:
    """The "gains" object of a report file, checked like a problem file:
    N entries per field, each a finite array of its (m, n), (m, m) or (m,)
    shape."""
    try:
        with open(path, "rb") as fh:
            doc = model.parse_json(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"{path}: not valid JSON: {exc}") from exc
    gains = doc.get("gains") if isinstance(doc, dict) else None
    if not isinstance(gains, dict):
        raise ProblemFormatError(f"{path}: no \"gains\" object")
    dims = {"m": p.m, "n": p.n}
    for f in dataclasses.fields(recursion.GainSchedule):
        name, shape = f.name, tuple(dims[d] for d in f.metadata["shape"])
        entries = gains.get(name)
        if not isinstance(entries, list) or len(entries) != p.N:
            raise ProblemFormatError(f"gains.{name}: expected a list of {p.N} entries")
        for k, entry in enumerate(entries):
            a = model._block(entry, f"gains.{name}[{k}]")  # strings and booleans fail here
            if a.shape != shape or not np.isfinite(a).all():
                raise ProblemFormatError(f"gains.{name}[{k}]: expected finite numbers of shape "
                                         f"{shape}")
    return recursion.gains_from_dict(gains)


def cmd_solve(args) -> int:
    p, warnings, sha = _load_problem(args.input)
    tables, gains, report = recursion.solve_gdre_global(p)
    body = {"gains": recursion.gains_to_dict(gains), "solvability": report.to_dict()}
    if args.tables:
        body["tables"] = recursion.tables_to_dict(tables)
    out = _write_outputs(args, sha, warnings, body,
                         {"range": report.range_tolerance, "psd": "1e-9*(1+||M||_F)"})
    print(f"solve: verdict_all_pairs={report.verdict_all_pairs} -> {out}")
    return EXIT_OK if report.verdict_all_pairs else EXIT_VIOLATED


def cmd_verify(args) -> int:
    p, warnings, sha = _load_problem(args.input)
    init = _initial_pair(p, args.t, args.x)
    supplied = _load_gains(args.gains, p) if args.gains else None
    _, solved, report = recursion.solve_gdre_global(p)
    gains = solved if supplied is None else supplied

    forms, moments = mc.deviation_forms(p, gains, init)
    cert = mc.certify_forms(forms, moments)
    body = {
        "initial_pair": {"t": init.t, "x": init.x.tolist()},
        "certificate": cert.to_dict(),
        "identity_checks": mc.solver_identities(forms, gains, solved, report, init.t),
        "solvability": report.to_dict(),
    }
    out = _write_outputs(args, sha, warnings, body,
                         {"stationary": cert.tol_stationary, "convexity": cert.tol_convexity})
    print(f"verify: verdict={cert.verdict} -> {out}")
    return EXIT_OK if cert.verdict else EXIT_VIOLATED


def cmd_simulate(args) -> int:
    p, warnings, sha = _load_problem(args.input)
    init = _initial_pair(p, args.t, args.x)
    _, gains, _ = recursion.solve_gdre_global(p)
    cfg = mc.SimConfig(paths=args.paths, seed=args.seed, noise_law=args.law)
    result = mc.simulate(p, init, gains, cfg)

    body = {
        "config": {"paths": args.paths, "seed": args.seed, "noise_law": args.law,
                   "t": init.t, "x": init.x.tolist()},
        "result": result.to_dict(),
    }
    head = ["k"] + [f"mean_{i}" for i in range(p.n)]
    head += [f"cov_{i}{j}" for i in range(p.n) for j in range(p.n)]
    rows = [[r["k"], *r["mean"], *np.ravel(r["cov"])] for r in result.trajectory_moments]
    out = _write_outputs(args, sha, warnings, body, table=(head, rows))
    se = "null" if result.std_error is None else f"{result.std_error:.6g}"
    print(f"simulate: mean_cost={result.mean_cost:.6g} std_error={se} -> {out}")
    return EXIT_OK


def cmd_epsilon_sweep(args) -> int:
    p, warnings, sha = _load_problem(args.input)
    texts = args.eps.split(",")
    try:
        eps_list = [float(v) for v in texts]
    except ValueError as exc:
        raise MeanfieldLQError(f"bad --eps list {args.eps!r}: {exc}")
    for text, eps in zip(texts, eps_list):
        if not (np.isfinite(eps) and eps > 0.0):
            raise EpsilonNonPositive(f"--eps values must be finite and > 0, got {text.strip()}")

    eps_list = sorted(eps_list, reverse=True)
    (_, gains0, report0), *perturbed = recursion.solve_shifts(p, (0.0, *eps_list))
    Psi0, alpha0 = np.array(gains0.Psi), np.array(gains0.alpha)
    rows = []
    for eps, (_, g, _) in zip(eps_list, perturbed):
        Psi, alpha = np.array(g.Psi), np.array(g.alpha)
        norm = np.max(matrices.fro_each(Psi) + matrices.fro_each(alpha[..., None]))
        dist = max(np.max(np.abs(Psi - Psi0)), np.max(np.abs(alpha - alpha0)))
        rows.append({"eps": eps, "gain_norm": float(norm), "distance_to_unperturbed": float(dist)})
    dists = [r["distance_to_unperturbed"] for r in rows]
    if any(b > a for a, b in zip(dists, dists[1:])):
        warnings.append("gain distance does not decrease monotonically over the sweep")
    norms = [r["gain_norm"] for r in rows]
    if norms and norms[-1] > 10.0 * max(norms[0], 1e-30):
        warnings.append("gain norms grow sharply as eps decreases (possible unbounded family)")
    body = {
        "convexity_margins": report0.convexity_margins,
        "unperturbed_verdict_all_pairs": report0.verdict_all_pairs,
        "sweep": rows,
    }
    columns = ("eps", "gain_norm", "distance_to_unperturbed")
    out = _write_outputs(args, sha, warnings, body,
                         table=(columns, [[r[c] for c in columns] for r in rows]))
    print(f"epsilon-sweep: {len(rows)} points -> {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: its actions and groups refer to
    each other, so every parser built would be cyclic garbage."""
    ap = argparse.ArgumentParser(
        prog="meanfield-lq",
        description="Equilibrium solver and verification toolkit for mean-field LQ control",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run the backward recursions and write gains + report")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--tables", action="store_true", help="embed full solution tables (large)")
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="certify the solved control from exact moments, for any "
                                      "noise of mean 0, variance 1, independent of the past")
    v.add_argument("--input", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--t", type=int, default=0)
    v.add_argument("--x", required=True, help="comma-separated initial state, e.g. 1,1")
    v.add_argument("--gains", help="report file to take gains from (tamper check)")
    v.set_defaults(fn=cmd_verify)

    m = sub.add_parser("simulate", help="Monte Carlo cost and trajectory moments")
    m.add_argument("--input", required=True)
    m.add_argument("--out", required=True, help="output prefix (.json/.csv appended)")
    m.add_argument("--paths", type=int, default=100000)
    m.add_argument("--seed", type=int, default=42)
    m.add_argument("--law", choices=mc.NOISE_LAWS, default="rademacher")
    m.add_argument("--t", type=int, default=0)
    m.add_argument("--x", help="comma-separated initial state")
    m.set_defaults(fn=cmd_simulate)

    e = sub.add_parser("epsilon-sweep", help="perturbed-problem gain convergence table")
    e.add_argument("--input", required=True)
    e.add_argument("--out", required=True, help="output prefix (.json/.csv appended)")
    e.add_argument("--eps", required=True, help="comma-separated positive weights")
    e.set_defaults(fn=cmd_epsilon_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else 0
    args.started = time.monotonic()
    try:
        return args.fn(args)
    except NumericalBreakdown as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (MeanfieldLQError, OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
