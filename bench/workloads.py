"""The benchmark's workloads: inputs, command cycles and correctness gates.

Every op is one `meanfield-lq` command line, run in process through
`cli.main`.  A workload generates its problem files from the seed in
`setup`, lists the ops of cycle c in `cycle(c)`, checks each op's outputs
right after it (outside the timed region) and runs instance-level gates
once in `final_checks`.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from meanfield_lq import model, recursion, tree
from meanfield_lq.model import InitialPair

import gates
from gates import GateFailure
from instances import (conditioning, make_problem, tail_gains, tail_problem, tampered_gains_doc,
                       well_conditioned)

DEFAULT_SEED = 1
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_gains.json")


@dataclass
class Op:
    kind: str
    argv: list
    outputs: list
    check: Callable[[int], None]  # exit code -> None, raises GateFailure


def _vec(x) -> str:
    return ",".join(format(float(v), ".17g") for v in x)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Workload:
    seed: int
    work: str
    problems: dict = field(default_factory=dict)  # generated instances, by file stem

    name = ""
    stream = 0  # keeps the workloads' random streams apart for one seed
    cycle_kinds = {}  # how many ops of each kind one cycle runs

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.stream, self.seed])

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def used(self) -> list[str]:
        """Instances whose outputs the ops produced (all by default)."""
        return list(self.problems)

    def check_instance(self, name: str, p, gains) -> None:
        """Workload-specific instance gate; `gains` come from a library solve."""

    def final_checks(self) -> tuple[list, list]:
        """Conditioning records and failures of the instance-level gates."""
        ref = None
        if self.seed == DEFAULT_SEED:
            ref = _read_json(REFERENCE_FILE)[self.name]
        records, failures = [], []
        for name in self.used():
            p = self.problems[name]
            try:
                record, gains = conditioning(p)
                records.append({"instance": name, **record})
                if not well_conditioned(record):
                    raise GateFailure(f"instance is not well conditioned: {record}")
                if ref is not None:
                    gates.reference(gains.Psi, gains.alpha, ref[name], name)
                self.check_instance(name, p, gains)
            except Exception as exc:  # a broken output or program fails the gate, not the run
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
        return records, failures


class LongHorizon(Workload):
    """solve, solve --tables and a 3-point epsilon-sweep at N = 80."""

    name = "long-horizon"
    stream = 1
    cycle_kinds = {"solve": 1, "solve_tables": 1, "sweep": 1}
    N = 80
    INSTANCES = 1
    TAIL = 10
    EPS = "1e-4,1e-6,1e-8"

    def setup(self):
        rng = self.rng()
        self.problems = {f"lh{j}": make_problem(rng, 2, 2, self.N) for j in range(self.INSTANCES)}
        self.x_tail = rng.uniform(-1.0, 1.0, size=2)
        self.reported = {}  # instance -> gains dict of its first solve report
        for name, p in self.problems.items():
            model.save(p, self.path(name + ".json"))

    def cycle(self, c):
        name = f"lh{c % self.INSTANCES}"
        inp = self.path(name + ".json")
        rep, tab, sweep = (self.path(name + s) for s in (".solve.json", ".tables.json", ".sweep"))

        def check_solve(rc):
            gates.exit_code(rc, 0)
            doc = _read_json(rep)
            gates.solve_verdict(doc)
            if name in self.reported:
                gates.identical_gains(doc["gains"], self.reported[name], "repeated solve")
            else:
                self.reported[name] = doc["gains"]

        def check_tables(rc):
            gates.exit_code(rc, 0)
            doc = _read_json(tab)
            gates.solve_verdict(doc)
            if name not in self.reported:
                raise GateFailure("no solve report to compare solve --tables with")
            gates.identical_gains(doc["gains"], self.reported[name], "solve --tables vs solve")

        def check_sweep(rc):
            gates.exit_code(rc, 0)
            gates.sweep_proportional(_read_json(sweep + ".json"))

        return [
            Op("solve", ["solve", "--input", inp, "--out", rep],
               [rep, rep + ".manifest.json"], check_solve),
            Op("solve_tables", ["solve", "--input", inp, "--out", tab, "--tables"],
               [tab, tab + ".manifest.json"], check_tables),
            Op("sweep", ["epsilon-sweep", "--input", inp, "--out", sweep, "--eps", self.EPS],
               [sweep + ".json", sweep + ".csv", sweep + ".manifest.json"], check_sweep),
        ]

    def used(self):
        return [name for name in self.problems if name in self.reported]

    def check_instance(self, name, p, gains):
        reported = self.reported[name]
        gates.identical_gains(recursion.gains_to_dict(gains), reported, "library vs CLI solve")
        # tail oracle: the last TAIL rows, re-solved alone, are the same bits,
        # and the reported gains certify on the exact tree of the tail problem
        sub = tail_problem(p, self.TAIL)
        _, sub_gains, _ = recursion.solve_gdre_global(sub)
        s = p.N - self.TAIL
        gates.identical_gains(recursion.gains_to_dict(sub_gains),
                              {f: reported[f][s:] for f in gates.GAIN_FIELDS}, "tail problem")
        schedule = tail_gains(recursion.gains_from_dict(reported), self.TAIL)
        init = InitialPair(0, self.x_tail)
        scen = tree.ScenarioTree(self.TAIL)
        _, control = tree.equilibrium_pair(sub, schedule, init, scen)
        cert = tree.certify_equilibrium(sub, init, control, 0, tree=scen)
        gates.certificate({"certificate": cert.to_dict()}, True)


class TreeCertify(Workload):
    """verify at N = 12; one op in four passes hand-tampered gains."""

    name = "tree-certify"
    stream = 2
    cycle_kinds = {"verify": 3, "verify_tampered": 1}
    N = 12
    INSTANCES = 4

    def setup(self):
        rng = self.rng()
        self.problems = {f"tc{j}": make_problem(rng, 2, 2, self.N) for j in range(self.INSTANCES)}
        self.xs = rng.uniform(-1.0, 1.0, size=(self.INSTANCES, 2))
        steps = rng.integers(0, self.N, size=self.INSTANCES)
        for (name, p), step in zip(self.problems.items(), steps):
            model.save(p, self.path(name + ".json"))
            _, gains, _ = recursion.solve_gdre_global(p)
            with open(self.path(name + ".tampered.json"), "w", encoding="utf-8") as fh:
                fh.write(model.canonical_dumps(tampered_gains_doc(gains, int(step))))

    def cycle(self, c):
        ops = []
        for j, name in enumerate(self.problems):
            tampered = j == c % self.INSTANCES
            out = self.path(name + ".verify.json")
            argv = ["verify", "--input", self.path(name + ".json"), "--out", out,
                    "--x=" + _vec(self.xs[j])]
            if tampered:
                argv += ["--gains", self.path(name + ".tampered.json")]

            def check(rc, out=out, tampered=tampered):
                gates.exit_code(rc, 2 if tampered else 0)
                gates.certificate(_read_json(out), not tampered)

            ops.append(Op("verify_tampered" if tampered else "verify", argv,
                          [out, out + ".manifest.json"], check))
        return ops


class McPaths(Workload):
    """simulate: N = 50 with 1e5 Rademacher paths, and the bundled example
    (N = 2) with 1e6 Gaussian paths."""

    name = "mc-paths"
    stream = 3
    cycle_kinds = {"simulate_long": 1, "simulate_wide": 1}
    N = 50
    LONG_PATHS = 100_000
    WIDE_PATHS = 1_000_000

    def setup(self):
        rng = self.rng()
        self.problems = {"mc50": make_problem(rng, 2, 2, self.N)}
        self.x_long, self.x_wide = rng.uniform(-1.0, 1.0, size=(2, 2))
        self.sim_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        self.long_digest = None
        self.exact_wide = None
        self.wide = []  # (mean_cost, std_error) per wide op
        model.save(self.problems["mc50"], self.path("mc50.json"))
        model.save(model.bundled_example(), self.path("example.json"))

    def _exact_wide_cost(self) -> float:
        if self.exact_wide is None:
            p = model.bundled_example()
            _, gains, _ = recursion.solve_gdre_global(p)
            init = InitialPair(0, self.x_wide)
            _, control = tree.equilibrium_pair(p, gains, init)
            self.exact_wide = float(tree.cost(p, init, control, 0)[0])
        return self.exact_wide

    def cycle(self, c):
        long_out, wide_out = self.path("long"), self.path("wide")
        long_files = [long_out + ".json", long_out + ".csv"]

        def check_long(rc):
            gates.exit_code(rc, 0)
            d = gates.digest(long_files)
            if self.long_digest is None:
                self.long_digest = d
            gates.same_bytes(self.long_digest, d)

        def check_wide(rc):
            gates.exit_code(rc, 0)
            self.wide.append(gates.mc_result(_read_json(wide_out + ".json")))

        return [
            Op("simulate_long",
               ["simulate", "--input", self.path("mc50.json"), "--out", long_out,
                "--paths", str(self.LONG_PATHS), "--seed", str(self.sim_seeds[0]),
                "--x=" + _vec(self.x_long)],
               long_files + [long_out + ".manifest.json"], check_long),
            Op("simulate_wide",
               ["simulate", "--input", self.path("example.json"), "--out", wide_out,
                "--paths", str(self.WIDE_PATHS), "--seed", str(self.sim_seeds[1] + c),
                "--law", "standard_gaussian", "--x=" + _vec(self.x_wide)],
               [wide_out + ".json", wide_out + ".csv", wide_out + ".manifest.json"], check_wide),
        ]

    def final_checks(self):
        """Adds the wide shape's replicate test: each cycle's wide op is an
        independent replicate (its own seed) of the exact tree cost."""
        records, failures = super().final_checks()
        means = [m for m, _ in self.wide]
        record = {"instance": "example", "replicates": len(means)}
        try:
            exact = record["exact_cost"] = self._exact_wide_cost()
            record["reported_z"] = [(m - exact) / se for m, se in self.wide]
            record["t"] = gates.mc_replicates(means, exact)
            record["replicate_sd_over_reported_se"] = (
                statistics.stdev(means) / statistics.fmean(se for _, se in self.wide))
        except Exception as exc:  # a broken output or program fails the gate, not the run
            failures.append(f"example: {type(exc).__name__}: {exc}")
        records.append(record)
        return records, failures


class Oracles(Workload):
    """TreeCertify's and McPaths' ops in one cycle.

    The two oracle layers share one workload so that the benchmark's fixed
    total time allows longer runs: on a shared host the run-to-run spread
    falls as more work is measured per run.
    """

    name = "oracles"
    cycle_kinds = {**TreeCertify.cycle_kinds, **McPaths.cycle_kinds}

    def setup(self):
        self.parts = [TreeCertify(self.seed, self.work), McPaths(self.seed, self.work)]
        for part in self.parts:
            part.setup()
        self.problems = {name: p for part in self.parts for name, p in part.problems.items()}

    def cycle(self, c):
        return [op for part in self.parts for op in part.cycle(c)]

    def final_checks(self):
        records, failures = [], []
        for part in self.parts:
            got, failed = part.final_checks()
            records += got
            failures += failed
        return records, failures


WORKLOADS = {cls.name: cls for cls in (LongHorizon, Oracles)}
