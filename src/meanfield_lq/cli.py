"""Command-line surface: solve, verify, simulate, epsilon-sweep.

Exit codes are a stable contract: 0 = success/certified, 2 = computed but a
numerical condition is violated, 1 = usage or input error.  Every output
file embeds the SHA-256 of the input problem file; a sidecar manifest
records the full run context (including wall time, which is why it lives in
its own file and not in the deterministic outputs).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import model, montecarlo as mc, recursion, tree
from .errors import EpsilonNonPositive, MeanfieldLQError, NumericalBreakdown, ProblemFormatError
from .model import InitialPair, canonical_dumps

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")


def _write_manifest(out_path: str, command: str, input_path: str, input_sha: str,
                    seed, tolerances: dict, outputs: list, started: float) -> None:
    doc = {
        "command": command,
        "input": input_path,
        "input_sha256": input_sha,
        "seed": seed,
        "tolerances": tolerances,
        "outputs": outputs,
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _write_json(out_path + ".manifest.json", doc)


def _load_problem(path: str):
    if not os.path.exists(path):
        raise ProblemFormatError(f"input file not found: {path}")
    return model.load(path)


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


def _load_gains(path: str, p) -> recursion.GainSchedule:
    """The "gains" object of a report file, checked like a problem file:
    N entries per field, each a finite array of its (m, n), (m, m) or (m,)
    shape."""
    with open(path, "rb") as fh:
        doc = model.parse_json(fh.read())
    gains = doc.get("gains") if isinstance(doc, dict) else None
    if not isinstance(gains, dict):
        raise ProblemFormatError(f"{path}: no \"gains\" object")
    n, m = p.n, p.m
    shapes = {"W": (m, m), "Wdag": (m, m), "H": (m, n), "beta": (m,), "Psi": (m, n),
              "alpha": (m,)}
    for name, shape in shapes.items():
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
    started = time.monotonic()
    p, findings, sha = _load_problem(args.input)
    tables, gains, report = recursion.solve_gdre_global(p)
    doc = {
        "command": "solve",
        "tool_version": __version__,
        "input_sha256": sha,
        "warnings": [f"{f.path}: {f.message}" for f in findings],
        "gains": recursion.gains_to_dict(gains),
        "solvability": report.to_dict(),
    }
    if args.tables:
        doc["tables"] = recursion.tables_to_dict(tables)
    _write_json(args.out, doc)
    _write_manifest(args.out, "solve", args.input, sha, None,
                    {"range": report.range_tolerance, "psd": "1e-9*(1+||M||_F)"},
                    [args.out], started)
    print(f"solve: verdict_all_pairs={report.verdict_all_pairs} -> {args.out}")
    return EXIT_OK if report.verdict_all_pairs else EXIT_VIOLATED


def cmd_verify(args) -> int:
    started = time.monotonic()
    p, findings, sha = _load_problem(args.input)
    # certification needs exactly N levels; the depth cap applies without --force
    scen = tree.ScenarioTree(p.N, force=args.force)
    t = args.t
    if not (0 <= t < p.N):
        raise MeanfieldLQError(f"--t must be in 0..{p.N - 1}")
    x = _parse_vector(args.x, p.n)

    if args.gains:
        gains = _load_gains(args.gains, p)
        tables, _, report = recursion.solve_gdre_global(p)
    else:
        tables, gains, report = recursion.solve_gdre_global(p)

    init = InitialPair(t, x)
    _, control = tree.equilibrium_pair(p, gains, init, scen)
    cert = tree.certify_equilibrium(p, init, control, t, seed=args.seed, tree=scen,
                                    tables=tables)
    doc = {
        "command": "verify",
        "tool_version": __version__,
        "input_sha256": sha,
        "warnings": [f"{f.path}: {f.message}" for f in findings],
        "initial_pair": {"t": t, "x": x.tolist()},
        "certificate": cert.to_dict(),
        "identity_checks": cert.identity_checks,
        "solvability": report.to_dict(),
    }
    _write_json(args.out, doc)
    _write_manifest(args.out, "verify", args.input, sha, args.seed,
                    {"stationary": cert.tol_stationary, "convexity": cert.tol_convexity},
                    [args.out], started)
    print(f"verify: verdict={cert.verdict} -> {args.out}")
    return EXIT_OK if cert.verdict else EXIT_VIOLATED


def cmd_simulate(args) -> int:
    started = time.monotonic()
    p, findings, sha = _load_problem(args.input)
    t = args.t
    if not (0 <= t < p.N):
        raise MeanfieldLQError(f"--t must be in 0..{p.N - 1}")
    x = _parse_vector(args.x, p.n) if args.x else np.zeros(p.n)
    _, gains, _ = recursion.solve_gdre_global(p)
    cfg = mc.SimConfig(paths=args.paths, seed=args.seed, noise_law=args.law)
    result = mc.simulate(p, InitialPair(t, x), gains, cfg)

    json_path = args.out + ".json"
    csv_path = args.out + ".csv"
    doc = {
        "command": "simulate",
        "tool_version": __version__,
        "input_sha256": sha,
        "warnings": [f"{f.path}: {f.message}" for f in findings],
        "config": {"paths": args.paths, "seed": args.seed, "noise_law": args.law,
                   "t": t, "x": x.tolist()},
        "result": result.to_dict(),
    }
    _write_json(json_path, doc)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# input_sha256={sha}\n")
        head = ["k"] + [f"mean_{i}" for i in range(p.n)]
        head += [f"cov_{i}{j}" for i in range(p.n) for j in range(p.n)]
        fh.write(",".join(head) + "\n")
        for row in result.trajectory_moments:
            cells = [str(row["k"])]
            cells += [format(v, ".17g") for v in row["mean"]]
            cells += [format(v, ".17g") for v in np.asarray(row["cov"]).ravel()]
            fh.write(",".join(cells) + "\n")
    _write_manifest(args.out, "simulate", args.input, sha, args.seed, {},
                    [json_path, csv_path], started)
    se = "null" if result.std_error is None else f"{result.std_error:.6g}"
    print(f"simulate: mean_cost={result.mean_cost:.6g} std_error={se} -> {json_path}")
    return EXIT_OK


def cmd_epsilon_sweep(args) -> int:
    started = time.monotonic()
    p, findings, sha = _load_problem(args.input)
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

    def gain_norm(g):
        return max(
            float(np.linalg.norm(g.Psi[k]) + np.linalg.norm(g.alpha[k])) for k in range(p.N)
        )

    def gain_dist(g):
        d = 0.0
        for k in range(p.N):
            d = max(d, float(np.max(np.abs(g.Psi[k] - gains0.Psi[k]))))
            d = max(d, float(np.max(np.abs(g.alpha[k] - gains0.alpha[k]))))
        return d

    rows = [{"eps": eps, "gain_norm": gain_norm(g_eps), "distance_to_unperturbed": gain_dist(g_eps)}
            for eps, (_, g_eps, _) in zip(eps_list, perturbed)]
    warnings = [f"{f.path}: {f.message}" for f in findings]
    dists = [r["distance_to_unperturbed"] for r in rows]
    if any(b > a for a, b in zip(dists, dists[1:])):
        warnings.append("gain distance does not decrease monotonically over the sweep")
    norms = [r["gain_norm"] for r in rows]
    if norms and norms[-1] > 10.0 * max(norms[0], 1e-30):
        warnings.append("gain norms grow sharply as eps decreases (possible unbounded family)")
    doc = {
        "command": "epsilon-sweep",
        "tool_version": __version__,
        "input_sha256": sha,
        "warnings": warnings,
        "convexity_margins": report0.convexity_margins,
        "unperturbed_verdict_all_pairs": report0.verdict_all_pairs,
        "sweep": rows,
    }
    json_path = args.out + ".json"
    csv_path = args.out + ".csv"
    _write_json(json_path, doc)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# input_sha256={sha}\n")
        fh.write("eps,gain_norm,distance_to_unperturbed\n")
        for r in rows:
            fh.write(",".join(format(r[c], ".17g")
                              for c in ("eps", "gain_norm", "distance_to_unperturbed")) + "\n")
    _write_manifest(args.out, "epsilon-sweep", args.input, sha, None, {}, [json_path, csv_path],
                    started)
    print(f"epsilon-sweep: {len(rows)} points -> {json_path}")
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

    v = sub.add_parser("verify", help="certify the solved control on the exact scenario tree")
    v.add_argument("--input", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--t", type=int, default=0)
    v.add_argument("--x", required=True, help="comma-separated initial state, e.g. 1,1")
    v.add_argument("--force", action="store_true", help="override the tree depth cap")
    v.add_argument("--gains", help="report file to take gains from (tamper check)")
    v.add_argument("--seed", type=int, default=20240801,
                   help="seed of the cost-difference identity check")
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
    try:
        return args.fn(args)
    except NumericalBreakdown as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (MeanfieldLQError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
