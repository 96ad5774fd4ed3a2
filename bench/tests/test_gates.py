"""Each correctness gate passes the toolkit's real outputs and rejects a
corrupted one: a perturbed gain, a wrong exit code, altered MC bytes."""

import copy
import json

import numpy as np
import pytest

from meanfield_lq import cli, recursion

import gates
from gates import GateFailure
from instances import make_problem, tail_gains, tail_problem
from workloads import LongHorizon, McPaths, TreeCertify


class SmallLongHorizon(LongHorizon):
    N = 12
    TAIL = 4


class SmallTreeCertify(TreeCertify):
    N = 4


class SmallMcPaths(McPaths):
    N = 5
    LONG_PATHS = 2_000
    WIDE_PATHS = 20_000


def run_cycle(wl, c=0):
    """Run one cycle's ops through the CLI and check each; returns the ops."""
    ops = wl.cycle(c)
    for op in ops:
        op.check(cli.main(op.argv))
    return ops


def test_tail_problem_reindexes_data_and_reproduces_the_gains():
    p = make_problem(np.random.default_rng(7), 2, 2, 9)
    sub = tail_problem(p, 4)
    assert sub.N == 4
    assert np.array_equal(sub.A[0, 2], p.A[5, 7])
    assert np.array_equal(sub.rho[3, 3], p.rho[8, 8])
    assert np.array_equal(sub.Gbar[1], p.Gbar[6])
    _, full, _ = recursion.solve_gdre_global(p)
    _, part, _ = recursion.solve_gdre_global(sub)
    gates.identical_gains(recursion.gains_to_dict(part),
                          recursion.gains_to_dict(tail_gains(full, 4)), "tail")
    with pytest.raises(ValueError):
        tail_problem(p, 10)


def test_long_horizon_gates_reject_a_perturbed_gain(tmp_path):
    wl = SmallLongHorizon(3, str(tmp_path))
    wl.setup()
    ops = run_cycle(wl)
    records, failures = wl.final_checks()
    assert failures == [] and records[0]["verdict"]

    tables = tmp_path / "lh0.tables.json"
    doc = json.loads(tables.read_text())
    doc["gains"]["Psi"][3][0][1] += 1e-12
    tables.write_text(json.dumps(doc))
    with pytest.raises(GateFailure, match="Psi differs"):
        ops[1].check(0)

    wl.reported["lh0"]["alpha"][-1][0] *= 1.0 + 1e-9  # breaks the tail oracle
    _, failures = wl.final_checks()
    assert len(failures) == 1 and "alpha differs" in failures[0]


def test_reference_gate_tolerance():
    psi = [[[1.0, 0.5], [0.0, -2.0]]]
    alpha = [[0.25, 1.0]]
    ref = {"Psi": copy.deepcopy(psi), "alpha": copy.deepcopy(alpha)}
    gates.reference(psi, alpha, ref, "same")
    psi[0][1][1] += 1e-12
    gates.reference(psi, alpha, ref, "within 1e-9")
    psi[0][1][1] += 1e-8
    with pytest.raises(GateFailure, match="reference"):
        gates.reference(psi, alpha, ref, "beyond 1e-9")


def test_sweep_gate():
    rows = [{"eps": e, "distance_to_unperturbed": 3.0 * e} for e in (1e-4, 1e-6, 1e-8)]
    gates.sweep_proportional({"warnings": [], "sweep": rows})
    with pytest.raises(GateFailure, match="warnings"):
        gates.sweep_proportional({"warnings": ["not monotone"], "sweep": rows})
    rows[1]["distance_to_unperturbed"] *= 1.1
    with pytest.raises(GateFailure, match="proportional"):
        gates.sweep_proportional({"warnings": [], "sweep": rows})


def test_tree_certify_gates_reject_a_wrong_exit_code(tmp_path):
    wl = SmallTreeCertify(5, str(tmp_path))
    wl.setup()
    ops = run_cycle(wl, c=1)
    assert [op.kind for op in ops] == ["verify", "verify_tampered", "verify", "verify"]
    honest, tampered = ops[0], ops[1]
    with pytest.raises(GateFailure, match="exit code 0, expected 2"):
        tampered.check(0)
    with pytest.raises(GateFailure, match="exit code 2, expected 0"):
        honest.check(2)
    # a tampered op whose certificate still says true is also rejected
    cli.main(honest.argv[:4] + tampered.argv[4:6])
    with pytest.raises(GateFailure, match="certificate verdict True, expected False"):
        tampered.check(2)


def test_mc_gates_reject_altered_bytes_and_a_biased_mean(tmp_path):
    wl = SmallMcPaths(2, str(tmp_path))
    wl.setup()
    ops = run_cycle(wl)
    run_cycle(wl, c=1)  # the repeat is byte-identical
    csv = tmp_path / "long.csv"
    csv.write_bytes(csv.read_bytes().replace(b"e", b"E", 1))
    with pytest.raises(GateFailure, match="bytes differ"):
        ops[0].check(0)

    records, failures = wl.final_checks()
    assert failures == [] and records[-1]["replicates"] == 2

    wide = json.loads((tmp_path / "wide.json").read_text())
    wide["result"]["std_error"] = None
    with pytest.raises(GateFailure, match="std_error"):
        gates.mc_result(wide)


def test_mc_replicate_test_rejects_a_biased_mean():
    means = [10.0, 10.2, 9.9, 10.1, 9.8]
    assert abs(gates.mc_replicates(means, 10.0)) < 1.0
    with pytest.raises(GateFailure, match="exact cost"):
        gates.mc_replicates(means, 12.0)
    with pytest.raises(GateFailure, match="needs two"):
        gates.mc_replicates(means[:1], 10.0)
