"""Correctness gates on the toolkit's outputs, checked outside the timed region.

Each gate returns silently or raises GateFailure naming what was wrong.
"""

from __future__ import annotations

import hashlib
import math
import statistics

GAIN_FIELDS = ("W", "Wdag", "H", "beta", "Psi", "alpha")

# sweep distances must be proportional to eps: distance/eps may vary by
# at most this share across the sweep (measured spread at scale 0.3: < 1e-3)
SWEEP_RATIO_TOL = 0.02
# simulate wide: two-sided false-alarm rate of the replicate t-test
MC_ALPHA = 1e-4
REFERENCE_RTOL = 1e-9


class GateFailure(Exception):
    pass


def exit_code(rc: int, expected: int) -> None:
    if rc != expected:
        raise GateFailure(f"exit code {rc}, expected {expected}")


def solve_verdict(report: dict) -> None:
    if report["solvability"]["verdict_all_pairs"] is not True:
        raise GateFailure("solve verdict_all_pairs is not true")


def identical_gains(a: dict, b: dict, what: str) -> None:
    """Gain dicts (gains_to_dict layout) equal bit for bit."""
    for name in GAIN_FIELDS:
        if a[name] != b[name]:
            raise GateFailure(f"{what}: {name} differs")


def sweep_proportional(doc: dict) -> None:
    if doc["warnings"]:
        raise GateFailure(f"sweep warnings: {doc['warnings']}")
    ratios = [r["distance_to_unperturbed"] / r["eps"] for r in doc["sweep"]]
    lo, hi = min(ratios), max(ratios)
    if not (lo > 0.0 and hi <= lo * (1.0 + SWEEP_RATIO_TOL)):
        raise GateFailure(f"sweep distance not proportional to eps: distance/eps = {ratios}")


def certificate(doc: dict, expect: bool) -> None:
    verdict = doc["certificate"]["verdict"]
    if verdict is not expect:
        raise GateFailure(f"certificate verdict {verdict}, expected {expect}")


def mc_result(doc: dict) -> tuple[float, float]:
    """(mean_cost, std_error) of a simulate output, both finite, the error positive."""
    res = doc["result"]
    mean, se = res["mean_cost"], res["std_error"]
    if not (isinstance(mean, float) and math.isfinite(mean)):
        raise GateFailure(f"simulate mean_cost {mean} is not finite")
    if se is None or not se > 0.0:
        raise GateFailure(f"simulate std_error {se} is not positive")
    return mean, se


def mc_replicates(means: list, exact: float) -> float:
    """Student t statistic of independent replicate means against the exact
    cost; fails beyond the two-sided MC_ALPHA quantile.

    The spread of the replicates, not the reported std_error, sets the
    scale: the reported error leaves out the sampling noise of the
    cross-path means that enter the mean-field terms.
    """
    r = len(means)
    if r < 2:
        raise GateFailure(f"{r} simulate replicate(s); the test needs two")
    sd = statistics.stdev(means)
    if not sd > 0.0:
        raise GateFailure("simulate replicates with different seeds are identical")
    # imported here: scipy.stats adds ~40 MB, which must not show in peak_rss_mb
    from scipy.stats import t as student_t

    t = (statistics.fmean(means) - exact) / (sd / math.sqrt(r))
    crit = float(student_t.ppf(1.0 - MC_ALPHA / 2.0, r - 1))
    if not abs(t) <= crit:
        raise GateFailure(f"simulate replicate mean is t = {t:.2f} from the exact cost {exact} "
                          f"(limit {crit:.2f} at {r} replicates)")
    return t


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def same_bytes(first: str, again: str) -> None:
    if first != again:
        raise GateFailure("output bytes differ from the first repeat")


def reference(psi, alpha, ref: dict, what: str) -> None:
    """Psi and alpha (lists of nested lists) match a recorded reference to REFERENCE_RTOL."""
    for name, got in (("Psi", psi), ("alpha", alpha)):
        want = ref[name]
        flat_got, flat_want = _flatten(got), _flatten(want)
        if len(flat_got) != len(flat_want):
            raise GateFailure(f"{what}: {name} has {len(flat_got)} entries, reference "
                              f"{len(flat_want)}")
        scale = max(abs(v) for v in flat_want)
        worst = max(abs(a - b) for a, b in zip(flat_got, flat_want))
        if not worst <= REFERENCE_RTOL * scale:
            raise GateFailure(f"{what}: {name} differs from the reference by {worst:.3g} "
                              f"(scale {scale:.3g})")


def _flatten(x) -> list:
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flatten(item)]
    if hasattr(x, "tolist"):
        return _flatten(x.tolist())
    v = float(x)
    if not math.isfinite(v):
        raise GateFailure("non-finite gain")
    return [v]
