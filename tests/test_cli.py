import gc
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanfield_lq import cli, model, recursion
from meanfield_lq.model import canonical_dumps


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.json"
    model.save(model.bundled_example(), path)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestSolve:
    def test_example_solves_clean(self, example_file, tmp_path):
        out = tmp_path / "report.json"
        assert run("solve", "--input", example_file, "--out", out) == 0
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(
            -np.array(doc["gains"]["Psi"][1]),
            [[1.1320, 0.1179], [0.0254, 1.0388]], atol=1e-3,
        )
        assert doc["solvability"]["verdict_all_pairs"] is True
        # outputs reference the input digest recorded in the manifest
        import hashlib

        sha = hashlib.sha256(example_file.read_bytes()).hexdigest()
        assert doc["input_sha256"] == sha
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["input_sha256"] == sha

    def test_negative_weight_instance_exits_two(self, tmp_path):
        z = np.zeros((1, 1))
        p = model.from_time_invariant(
            1, 1, 2, A=np.ones((1, 1)), Abar=z, B=z, Bbar=z, C=z, Cbar=z,
            D=z, Dbar=z, f=np.zeros(1), d=np.zeros(1), Q=z, Qbar=z,
            R=-10.0 * np.ones((1, 1)), Rbar=z, q=np.zeros(1), rho=np.zeros(1),
            G=np.ones((1, 1)), Gbar=z, g=np.zeros(1),
        )
        path = tmp_path / "bad.json"
        model.save(p, path)
        out = tmp_path / "report.json"
        assert run("solve", "--input", path, "--out", out) == 2
        doc = json.loads(out.read_text())
        assert min(doc["solvability"]["convexity_margins"]) < -1.0

    def test_overflow_exits_two_naming_the_stage(self, tmp_path, capsys):
        z, e = np.zeros((2, 2)), np.eye(2)
        p = model.from_time_invariant(
            2, 2, 5, A=1e80 * e, Abar=z, B=e, Bbar=z, C=z, Cbar=z, D=z, Dbar=z,
            f=np.zeros(2), d=np.zeros(2), Q=e, Qbar=z, R=e, Rbar=z, q=np.zeros(2),
            rho=np.zeros(2), G=e, Gbar=z, g=np.zeros(2),
        )
        path = tmp_path / "overflow.json"
        model.save(p, path)
        assert run("solve", "--input", path, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert err == "error: numerical breakdown: stage 3: P is non-finite from row k=0\n"

    def test_digest_describes_the_bytes_parsed(self, example_file, tmp_path, monkeypatch):
        """The file is read once: a change to it after the read does not
        reach the digest of the outputs."""
        import hashlib

        original = example_file.read_bytes()
        from_json = model.from_json

        def rewrite_then_parse(data):
            example_file.write_bytes(original + b"\n")  # a writer after the read
            return from_json(data)

        monkeypatch.setattr(model, "from_json", rewrite_then_parse)
        out = tmp_path / "report.json"
        assert run("solve", "--input", example_file, "--out", out) == 0
        sha = hashlib.sha256(original).hexdigest()
        assert json.loads(out.read_text())["input_sha256"] == sha
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["input_sha256"] == sha
        assert model.load(example_file)[2] == hashlib.sha256(original + b"\n").hexdigest()

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b.replace(b'"A"', b'"\xff"', 1),
         "'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"),
        (lambda b: b.replace(b"1.3700000000000001", b"NaN", 1), "D[0][0]: non-finite entries"),
        (lambda b: b"\xef\xbb\xbf" + b,
         "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["invalid-utf8", "nan", "bom"])
    def test_refused_text_exits_one(self, example_file, tmp_path, capsys, edit, message):
        """Files the fast parser refuses end as they did with `json` alone."""
        path = tmp_path / "bad.json"
        path.write_bytes(edit(example_file.read_bytes()))
        capsys.readouterr()
        assert run("solve", "--input", path, "--out", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file_exits_one(self, tmp_path):
        assert run("solve", "--input", tmp_path / "nope.json",
                   "--out", tmp_path / "r.json") == 1

    def test_malformed_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2}")
        assert run("solve", "--input", bad, "--out", tmp_path / "r.json") == 1

    def test_declared_horizon_beyond_the_blocks_exits_one(self, tmp_path, capsys):
        doc = json.loads(model.to_json(model.bundled_example()))
        doc["N"] = 800
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert run("solve", "--input", path, "--out", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == "error: A: 3 blocks for N=800, which needs 320400\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["data"]["A"].update({"0,0": {"x": 1}}), "A[0][0]: not a numeric block"),
        (lambda d: d["data"].update({"B": [[[[1.0, 0.0]], None], 3]}), "B[1]: expected a list"),
        (lambda d: d["terminal"]["Gbar"].__setitem__(1, {"x": 1}), "Gbar[1]: not a numeric block"),
        (lambda d: d["terminal"].update({"g": 7}), "g: expected a list"),
        (lambda d: d.update({"terminal": 7}), "'terminal' must be an object"),
        (lambda d: d["data"]["A"]["0,0"].__setitem__(0, ["3.3", True]), "A[0][0]: not a numeric"),
        (lambda d: d["terminal"]["G"][0].__setitem__(1, [0.0, True]), "G[0]: not a numeric block"),
        (lambda d: d.update({"n": 2.7}), "bad dimensions: n is not an integer"),
        (lambda d: d.update({"N": True}), "bad dimensions: N is not an integer"),
    ], ids=["object-block", "dense-row", "terminal-block", "terminal-family", "terminal",
            "string-leaf", "boolean-leaf", "fractional-n", "boolean-N"])
    def test_non_numeric_block_exits_one(self, edit, message, tmp_path, capsys):
        doc = json.loads(model.to_json(model.bundled_example()))
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", "--input", bad, "--out", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1


EXAMPLE_DOC = json.loads(model.to_json(model.bundled_example()))
BAD_KEYS = ("0;1", "0,1,2", "a,b", "", "1", "0,", " ,1", "0.5,1")
NOT_NUMBERS = ("3.3", "abc", True, False, None, {"x": 1}, [], [1.0, 2.0])
NOT_INTEGERS = (2.7, -0.5, "2", True, False, None, [2], {"n": 2}, float("inf"), float("nan"))
OUT_OF_RANGE = [(t, k) for t in range(4) for k in range(4) if not 0 <= t <= k < 2]


@st.composite
def malformed_documents(draw):
    """The bundled example with one defect the reader must reject."""
    doc = json.loads(json.dumps(EXAMPLE_DOC))
    data, term = doc["data"], doc["terminal"]
    name = draw(st.sampled_from(model.FAMILY_NAMES))
    kind = draw(st.sampled_from(["key", "dense", "horizon", "terminal", "leaf", "dim"]))
    if kind == "key":
        key = draw(st.sampled_from(sorted(data[name])))
        data[name][draw(st.sampled_from(BAD_KEYS))] = data[name].pop(key)
    elif kind == "dense":
        t, k = draw(st.sampled_from(OUT_OF_RANGE))
        grid = [[None] * 4 for _ in range(4)]
        for key, block in data[name].items():
            i, j = map(int, key.split(","))
            grid[i][j] = block
        grid[t][k] = data[name]["0,0"]
        data[name] = grid
    elif kind == "horizon":
        doc["N"] = draw(st.integers(3, 10**12))
    elif kind == "terminal":
        blocks = term[draw(st.sampled_from(sorted(term)))]
        if draw(st.booleans()):
            blocks.pop(draw(st.integers(0, len(blocks) - 1)))
        else:
            blocks.append(blocks[0])
    elif kind == "leaf":
        if draw(st.booleans()):
            block = data[name][draw(st.sampled_from(sorted(data[name])))]
        else:
            block = term[draw(st.sampled_from(sorted(term)))][draw(st.integers(0, 1))]
        i = draw(st.integers(0, len(block) - 1))
        if isinstance(block[i], list):
            block, i = block[i], draw(st.integers(0, len(block[i]) - 1))
        block[i] = draw(st.sampled_from(NOT_NUMBERS))
    else:
        doc[draw(st.sampled_from(["n", "m", "N"]))] = draw(st.sampled_from(NOT_INTEGERS))
    return doc


class TestMalformedInput:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=malformed_documents())
    def test_exits_one_with_one_line(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("solve", "--input", bad, "--out", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestGarbage:
    def test_run_leaves_no_cyclic_garbage(self, example_file, tmp_path):
        argv = ("solve", "--input", example_file, "--out", tmp_path / "r.json")
        prior = gc.isenabled()
        gc.disable()
        try:
            assert run(*argv) == 0  # imports and builds what every later run reuses
            gc.collect()
            assert run(*argv) == 0
            assert gc.collect() == 0
        finally:
            if prior:
                gc.enable()


class TestVerify:
    def test_example_certifies(self, example_file, tmp_path):
        out = tmp_path / "cert.json"
        assert run("verify", "--input", example_file, "--out", out,
                   "--t", 0, "--x", "1,1") == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["verdict"] is True
        reps = doc["identity_checks"]["representation_residuals"]
        assert all(v <= 1e-8 for v in reps.values())

    def test_tampered_gain_detected(self, example_file, tmp_path):
        report = tmp_path / "report.json"
        assert run("solve", "--input", example_file, "--out", report) == 0
        doc = json.loads(report.read_text())
        doc["gains"]["Psi"][0][0][0] += 0.1
        report.write_text(canonical_dumps(doc))
        out = tmp_path / "cert.json"
        assert run("verify", "--input", example_file, "--out", out,
                   "--t", 0, "--x", "1,1", "--gains", report) == 2
        cert = json.loads(out.read_text())["certificate"]
        assert cert["verdict"] is False
        assert cert["stationary_residuals"]["0"] > 1e-3

    def test_bad_vector_exits_one(self, example_file, tmp_path):
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--t", 0, "--x", "1,2,3") == 1

    def test_sampling_knob_is_gone(self, example_file, tmp_path):
        # the certificate is exact; no option sets a number of sampled deviations
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--x", "1,1", "--deviations", "4") == 1

    @pytest.mark.parametrize("edit, field", [
        (lambda g: g["Psi"].pop(), "gains.Psi"),
        (lambda g: g["alpha"].pop(0), "gains.alpha"),
        (lambda g: g.update(Psi=None), "gains.Psi"),
        (lambda g: g["W"].__setitem__(1, None), "gains.W[1]"),
        (lambda g: g["H"].__setitem__(0, [[1.0, 2.0]]), "gains.H[0]"),
        (lambda g: g["beta"].__setitem__(1, [1.0, 2.0, 3.0]), "gains.beta[1]"),
        (lambda g: g["Psi"][1][0].__setitem__(1, float("nan")), "gains.Psi[1]"),
        (lambda g: g["alpha"][0].__setitem__(0, float("inf")), "gains.alpha[0]"),
        (lambda g: g["Wdag"][0][1].__setitem__(0, "x"), "gains.Wdag[0]"),
        (lambda g: g["alpha"][1].__setitem__(1, True), "gains.alpha[1]"),
        (lambda g: g.pop("beta"), "gains.beta"),
    ])
    def test_malformed_gains_exit_one_naming_the_field(self, example_file, tmp_path, capsys,
                                                       edit, field):
        report = tmp_path / "report.json"
        assert run("solve", "--input", example_file, "--out", report) == 0
        doc = json.loads(report.read_text())
        edit(doc["gains"])
        report.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity
        capsys.readouterr()
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--x", "1,1", "--gains", report) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1, err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("doc", [[], {"gains": []}, {"solvability": {}}])
    def test_report_without_gains_object_exits_one(self, example_file, tmp_path, capsys, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--x", "1,1", "--gains", report) == 1
        err = capsys.readouterr().err
        assert "no \"gains\" object" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("x, message", [
        ("1e308,1e308", "the closed-loop state is not finite at step 0"),
        ("1e160,1e160", "the restarted cost or certificate is not finite at step 0"),
    ])
    def test_overflowing_tree_exits_two(self, example_file, tmp_path, capsys, x, message):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                       "--x", x) == 2
        err = capsys.readouterr().err
        assert err == f"error: numerical breakdown: {message}\n"
        assert "Traceback" not in err
        assert not (tmp_path / "c.json").exists()

    def test_horizon_over_cap_needs_force(self, tmp_path, rng):
        from conftest import make_problem

        p = make_problem(rng, 1, 1, 15)
        path = tmp_path / "deep.json"
        model.save(p, path)
        assert run("verify", "--input", path, "--out", tmp_path / "c.json",
                   "--t", 0, "--x", "1") == 1


class TestSimulate:
    def test_deterministic_outputs(self, example_file, tmp_path):
        a = tmp_path / "sim_a"
        b = tmp_path / "sim_b"
        for out in (a, b):
            assert run("simulate", "--input", example_file, "--out", out,
                       "--paths", 4000, "--seed", 42, "--x", "1,1") == 0
        assert (tmp_path / "sim_a.csv").read_bytes() == (tmp_path / "sim_b.csv").read_bytes()
        ja = json.loads((tmp_path / "sim_a.json").read_text())
        jb = json.loads((tmp_path / "sim_b.json").read_text())
        assert ja["result"]["mean_cost"] == jb["result"]["mean_cost"]

    def test_single_path_null_std_error(self, example_file, tmp_path):
        out = tmp_path / "one"
        assert run("simulate", "--input", example_file, "--out", out,
                   "--paths", 1, "--seed", 7, "--x", "1,1") == 0
        doc = json.loads((tmp_path / "one.json").read_text())
        assert doc["result"]["std_error"] is None

    def test_csv_references_input_digest(self, example_file, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--input", example_file, "--out", out,
                   "--paths", 100, "--seed", 1, "--x", "1,1") == 0
        first = (tmp_path / "sim.csv").read_text().splitlines()[0]
        import hashlib

        sha = hashlib.sha256(example_file.read_bytes()).hexdigest()
        assert first == f"# input_sha256={sha}"

    @pytest.mark.parametrize("x, message", [
        ("1e308,1e308", "the exact mean or cost is not finite at step 0"),
        ("1e100,1e100", "the spread of the per-path costs is not finite"),
    ])
    def test_overflowing_rollout_exits_two(self, example_file, tmp_path, capsys, x, message):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert run("simulate", "--input", example_file, "--out", tmp_path / "s",
                       "--paths", 1000, "--x", x) == 2
        assert capsys.readouterr().err == f"error: numerical breakdown: {message}\n"
        assert not (tmp_path / "s.json").exists()

    def test_bad_paths_exits_one(self, example_file, tmp_path):
        assert run("simulate", "--input", example_file, "--out", tmp_path / "s",
                   "--paths", 0, "--seed", 1, "--x", "1,1") == 1


class TestNonFiniteInitialState:
    """A non-finite --x is bad input: exit 1 with one line, before any solve."""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("x", ["nan,1", "inf,1", "1,-inf", "1,1e400"])
    def test_exits_one_before_solving(self, example_file, tmp_path, capsys, monkeypatch,
                                      command, x):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the input was checked")

        monkeypatch.setattr(recursion, "solve_gdre_global", no_solve)
        capsys.readouterr()
        assert run(command, "--input", example_file, "--out", tmp_path / "o",
                   "--x", x) == 1
        err = capsys.readouterr().err
        assert err == f"error: vector {x!r} has a non-finite entry\n"
        assert os.listdir(tmp_path) == ["example.json"]


class TestEpsilonSweep:
    def test_example_sweep_monotone(self, example_file, tmp_path):
        out = tmp_path / "sweep"
        assert run("epsilon-sweep", "--input", example_file, "--out", out,
                   "--eps", "1e-2,1e-4,1e-6") == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        dists = [row["distance_to_unperturbed"] for row in doc["sweep"]]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] <= 1e-4
        assert not any("monotonically" in w for w in doc["warnings"])

    def test_zero_epsilon_rejected(self, example_file, tmp_path):
        assert run("epsilon-sweep", "--input", example_file, "--out", tmp_path / "s",
                   "--eps", "0") == 1

    def test_singular_weight_instance_emits_table(self, tmp_path, rng):
        from conftest import make_problem

        p = make_problem(rng, 2, 2, 2, convex=True)
        for t, k in p.pairs():
            col_b = rng.normal(size=(2, 1))
            col_d = rng.normal(size=(2, 1))
            p.B[t, k] = np.hstack([col_b, col_b])
            p.Bbar[t, k] = np.zeros((2, 2))
            p.D[t, k] = np.hstack([col_d, col_d])
            p.Dbar[t, k] = np.zeros((2, 2))
            p.R[t, k] = 0.8 * np.ones((2, 2))
            p.Rbar[t, k] = np.zeros((2, 2))
            p.rho[t, k] = 0.3 * np.ones(2)
        path = tmp_path / "singular.json"
        model.save(p, path)
        out = tmp_path / "sweep"
        assert run("epsilon-sweep", "--input", path, "--out", out,
                   "--eps", "1e-1,1e-3") == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        for row in doc["sweep"]:
            assert np.isfinite(row["gain_norm"])
            assert np.isfinite(row["distance_to_unperturbed"])


    @pytest.mark.parametrize("eps", ["inf", "-inf", "1e400", "nan", "1e-4,nan"])
    def test_non_finite_eps_is_bad_input(self, example_file, tmp_path, capsys, eps):
        assert run("epsilon-sweep", "--input", example_file, "--out", tmp_path / "s",
                   f"--eps={eps}") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: --eps values must be finite and > 0, got ")
        assert not (tmp_path / "s.json").exists()

    def test_rows_equal_separate_solves(self, example_file, tmp_path):
        from conftest import make_problem

        path = tmp_path / "rand.json"
        model.save(make_problem(np.random.default_rng(5), 2, 3, 9, convex=False), path)
        for inp in (example_file, path):
            p, _, _ = model.load(inp)
            out = tmp_path / "sweep"
            assert run("epsilon-sweep", "--input", inp, "--out", out,
                       "--eps", "1e-6,0.5,1e-2") == 0
            doc = json.loads((tmp_path / "sweep.json").read_text())
            csv = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
            _, g0, rep0 = recursion.solve_gdre_global(p)
            assert doc["convexity_margins"] == rep0.convexity_margins
            assert doc["unperturbed_verdict_all_pairs"] == rep0.verdict_all_pairs
            for eps, row, line in zip((0.5, 1e-2, 1e-6), doc["sweep"], csv, strict=True):
                g, _ = recursion.solve_epsilon(p, eps)
                norm = max(float(np.linalg.norm(g.Psi[k]) + np.linalg.norm(g.alpha[k]))
                           for k in range(p.N))
                dist = max(max(float(np.max(np.abs(g.Psi[k] - g0.Psi[k]))),
                               float(np.max(np.abs(g.alpha[k] - g0.alpha[k]))))
                           for k in range(p.N))
                assert row == {"eps": eps, "gain_norm": norm, "distance_to_unperturbed": dist}
                assert line == ",".join(format(v, ".17g") for v in (eps, norm, dist))

    def test_member_breakdown_names_its_eps(self, tmp_path, capsys):
        from conftest import overflowing_member_problem

        path = tmp_path / "w0.json"
        model.save(overflowing_member_problem(), path)
        assert run("epsilon-sweep", "--input", path, "--out", tmp_path / "s",
                   "--eps", "1e-2,1e-310") == 2
        err = capsys.readouterr().err
        assert err == ("error: numerical breakdown: stage 2: T is non-finite from row k=0 "
                       "(eps=1e-310)\n")


class TestUsage:
    def test_unknown_command_exits_one(self):
        assert run("frobnicate") == 1

    def test_import_leaves_out_scipy_special(self):
        # only the Gaussian noise law needs it, and it dominates import time
        code = "import sys, meanfield_lq.cli; print('scipy.special' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
