import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanfield_lq import __version__, cli, model, montecarlo as mc, recursion, tree
from meanfield_lq.errors import ProblemFormatError
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
         "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"),
        (lambda b: b"\xff" + b,
         "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (lambda b: b.replace(b"1.37", b"NaN", 1), "D[0][0]: non-finite entries"),
        (lambda b: b"\xef\xbb\xbf" + b,
         "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["invalid-utf8", "leading-0xff", "nan", "bom"])
    def test_refused_text_exits_one(self, example_file, tmp_path, capsys, edit, message):
        """Files the fast parser refuses end as they did with `json` alone,
        except that bytes that are not UTF-8 are worded as invalid JSON."""
        path = tmp_path / "bad.json"
        path.write_bytes(edit(example_file.read_bytes()))
        capsys.readouterr()
        assert run("solve", "--input", path, "--out", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tables_document(self, tmp_path):
        """The tables are Family objects keyed "k,l" in sorted string order
        (N = 11 puts "0,10" before "0,2"), whose blocks read back bit for
        bit; the gains are those of a plain solve."""
        from conftest import make_problem

        p = make_problem(np.random.default_rng(7), 2, 3, 11)
        path = tmp_path / "p.json"
        model.save(p, path)
        assert run("solve", "--input", path, "--out", tmp_path / "t.json", "--tables") == 0
        assert run("solve", "--input", path, "--out", tmp_path / "r.json") == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        plain = json.loads((tmp_path / "r.json").read_text())
        assert doc["gains"] == plain["gains"]
        assert doc["solvability"] == plain["solvability"]
        tables, _, _ = recursion.solve_gdre_global(model.load(path)[0])
        names = ("P", "Pcal", "T", "Tcal", "pi")
        assert set(doc["tables"]) == {"N", *names} and doc["tables"]["N"] == p.N
        keys = sorted(f"{k},{l}" for k in range(p.N) for l in range(k, p.N + 1))
        for name in names:
            table = doc["tables"][name]
            assert list(table) == keys
            for key, block in table.items():
                k, l = map(int, key.split(","))
                want = getattr(tables, name)[k, l]
                got = np.array(block, dtype=float)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, key)

    def test_out_path_not_utf8(self, example_file, tmp_path):
        """The path lands in the manifest as a string with a lone surrogate,
        which the writer escapes."""
        out = str(tmp_path / os.fsdecode(b"r\xff.json"))
        assert run("solve", "--input", example_file, "--out", out) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["outputs"] == [out]
        assert json.loads(Path(out).read_text())["command"] == "solve"

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


class TestDeepDimension:
    """A dimension given as a deeply nested list is named by its JSON type,
    not quoted: a quote would be one huge line, or overflow the encoder."""

    @staticmethod
    def write(example_file, path, key, depth):
        doc = json.loads(example_file.read_text())
        doc[key] = "@"
        path.write_text(json.dumps(doc).replace('"@"', "[" * depth + "2" + "]" * depth))

    @pytest.mark.parametrize("depth", [500, 3000])
    @pytest.mark.parametrize("key", ["N", "n", "m"])
    def test_exits_one_with_one_short_line(self, key, depth, example_file, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        self.write(example_file, bad, key, depth)
        capsys.readouterr()
        assert run("solve", "--input", bad, "--out", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err == f"error: bad dimensions: {key} is not an integer (a JSON array)\n"

    def test_long_string_is_cut(self, example_file, tmp_path, capsys):
        doc = json.loads(example_file.read_text())
        doc["N"] = "9" * 5000
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("solve", "--input", bad, "--out", tmp_path / "r.json") == 1
        quote = '"' + "9" * 35 + '..."'
        assert capsys.readouterr().err == f"error: bad dimensions: N is not an integer ({quote})\n"

    def test_module_entry_point_prints_no_traceback(self, example_file, tmp_path):
        bad = tmp_path / "deep.json"
        self.write(example_file, bad, "N", 3000)
        done = subprocess.run(
            [sys.executable, "-m", "meanfield_lq.cli", "solve", "--input", str(bad),
             "--out", str(tmp_path / "r.json")], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=60)
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1 and len(done.stderr) < 100, done.stderr
        assert "Traceback" not in done.stderr


class TestWriteJson:
    """A problem file is written by `model.save`, which builds the whole text
    before it opens the file; the commands' files are covered in
    TestOutputContract."""

    @staticmethod
    def unserialisable():
        p = model.bundled_example()
        p.A.stack[0, 1, 1, 0] = float("nan")
        return p

    def test_unserialisable_document_creates_no_file(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(ProblemFormatError):
            model.save(self.unserialisable(), out)
        assert not out.exists()

    def test_unserialisable_document_keeps_the_old_bytes(self, tmp_path):
        out = tmp_path / "out.json"
        model.save(model.bundled_example(), out)
        before = out.read_bytes()
        with pytest.raises(ProblemFormatError):
            model.save(self.unserialisable(), out)
        assert out.read_bytes() == before


COMMANDS = {
    "solve": ("r.json",),
    "verify": ("c.json", "--x", "1,1"),
    "simulate": ("s", "--paths", 100, "--x", "1,1"),
    "epsilon-sweep": ("e", "--eps", "1e-2,1e-4"),
}


class TestOutputContract:
    """Every command writes its files through one helper: a JSON document
    with the same header, CSV tables that start with the input digest, and
    a manifest that lists exactly the files written."""

    @staticmethod
    def run_command(command, example_file, out_dir):
        out, *rest = COMMANDS[command]
        return run(command, "--input", example_file, "--out", out_dir / out, *rest)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_header_manifest_and_csv(self, command, example_file, tmp_path):
        import hashlib

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert self.run_command(command, example_file, out_dir) == 0
        sha = hashlib.sha256(example_file.read_bytes()).hexdigest()
        [manifest_path] = out_dir.glob("*.manifest.json")
        manifest = json.loads(manifest_path.read_text())
        outputs = manifest["outputs"]
        assert sorted(out_dir.iterdir()) == sorted(map(Path, outputs + [str(manifest_path)]))
        doc = json.loads(Path(outputs[0]).read_text())
        assert {key: doc[key] for key in ("command", "tool_version", "input_sha256")} == {
            "command": command, "tool_version": __version__, "input_sha256": sha}
        assert doc["warnings"] == []
        assert manifest["input_sha256"] == sha and manifest["command"] == command
        csvs = [path for path in outputs if path.endswith(".csv")]
        assert len(csvs) == (command in ("simulate", "epsilon-sweep"))
        for path in csvs:
            assert Path(path).read_text().splitlines()[0] == f"# input_sha256={sha}"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unserialisable_document_keeps_the_old_bytes(self, command, example_file, tmp_path,
                                                         monkeypatch, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert self.run_command(command, example_file, out_dir) == 0
        before = {path: path.read_bytes() for path in out_dir.iterdir()}
        monkeypatch.setattr(cli, "__version__", float("nan"))  # in every header
        capsys.readouterr()
        assert self.run_command(command, example_file, out_dir) == 1
        assert capsys.readouterr().err == "error: cannot serialise non-finite float\n"
        assert {path: path.read_bytes() for path in out_dir.iterdir()} == before


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
        # the moment forms against the solver: M_k = M2[k], Gamma_k = W_k Psi_k
        # + H_k and gamma_k = W_k alpha_k + beta_k, per step
        checks = doc["identity_checks"]
        assert set(checks) == {"M2_residuals", "WPsi_H_residuals", "Walpha_beta_residuals"}
        scale = np.max(np.abs(doc["solvability"]["M2"]))
        for residuals in checks.values():
            assert residuals.keys() == {"0", "1"}
            assert all(v <= 1e-12 * scale for v in residuals.values()), residuals
        # the cost-difference check draws from a fixed seed, recorded nowhere
        assert "seed" not in doc and "seed" not in doc["certificate"]
        assert json.loads((tmp_path / "cert.json.manifest.json").read_text())["seed"] is None

    def test_rolls_the_closed_loop_once_and_restarts_nothing(self, example_file, tmp_path,
                                                              monkeypatch):
        # the certificate reads the closed-form moment forms at the realised
        # nodes: no tree restart, and one closed-loop rollout
        def refuse(*args, **kwargs):
            raise AssertionError("verify restarted the tree")

        calls = []
        closed_loop = tree._closed_loop

        def counted(*args, **kwargs):
            calls.append(args)
            return closed_loop(*args, **kwargs)

        monkeypatch.setattr(tree, "_roll", refuse)
        monkeypatch.setattr(tree, "_adjoint", refuse)
        monkeypatch.setattr(tree, "_closed_loop", counted)
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--x", "1,1") == 0
        assert len(calls) == 1

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
        # the certificate is exact; no option sets a number of sampled
        # deviations or the direction of the cost-difference check
        for knob in (("--deviations", "4"), ("--seed", "1")):
            assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                       "--x", "1,1", *knob) == 1
        assert not (tmp_path / "c.json").exists()

    def test_gains_file_not_json_exits_one(self, example_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{nope")
        capsys.readouterr()
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--x", "1,1", "--gains", report) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: not valid JSON: ") and err.count("\n") == 1, err
        assert not (tmp_path / "c.json").exists()

    def test_gains_file_not_utf8_exits_one(self, example_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_bytes(b"\xff{}")
        capsys.readouterr()
        assert run("verify", "--input", example_file, "--out", tmp_path / "c.json",
                   "--x", "1,1", "--gains", report) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {report}: not valid JSON: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n"), err
        assert not (tmp_path / "c.json").exists()

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

    def test_horizon_over_cap_exits_one(self, tmp_path, rng, capsys):
        from conftest import make_problem

        N = tree.MAX_DEPTH + 1
        p = make_problem(rng, 1, 1, N)
        path = tmp_path / "deep.json"
        model.save(p, path)
        assert run("verify", "--input", path, "--out", tmp_path / "c.json",
                   "--t", 0, "--x", "1") == 1
        assert capsys.readouterr().err == (f"error: tree depth {N} exceeds the cap "
                                           f"{tree.MAX_DEPTH}\n")
        assert not (tmp_path / "c.json").exists()
        # no option lifts the cap
        assert run("verify", "--input", path, "--out", tmp_path / "c.json",
                   "--t", 0, "--x", "1", "--force") == 1
        assert not (tmp_path / "c.json").exists()


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

    def test_seed_beyond_64_bits(self, example_file, tmp_path):
        out = tmp_path / "s"
        assert run("simulate", "--input", example_file, "--out", out, "--x", "1,1",
                   "--paths", 10, "--seed", 2**70) == 0
        assert json.loads((tmp_path / "s.json").read_text())["config"]["seed"] == 2**70
        assert json.loads((tmp_path / "s.manifest.json").read_text())["seed"] == 2**70

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

    def test_paths_beyond_memory_exit_one(self, example_file, tmp_path, capsys, monkeypatch):
        # as numpy refuses np.empty(10**12), without asking for the memory
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(mc, "_rollout", refuse)
        capsys.readouterr()
        assert run("simulate", "--input", example_file, "--out", tmp_path / "s",
                   "--paths", 10**12, "--x", "1,1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["example.json"]


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


class TestCostOverflow:
    """Costs past the float range exit 2 with one line naming the quantity,
    and no numpy warning escapes."""

    @pytest.mark.parametrize("names, factor, x, message", [
        (("C", "Cbar", "D", "Dbar", "d"), 1e10, "1e140,1e140",
         "the mean of the per-path costs is not finite"),
        (("Q", "Qbar", "R", "Rbar", "q", "rho"), 1e5, "1e150,1e150",
         "the mean of the per-path costs is not finite"),
        ((), 1.0, "1e152,1e152", "a per-path cost or second moment is not finite"),
    ], ids=["noise-blocks", "weights", "path-cost"])
    def test_exits_two_with_one_line(self, tmp_path, capsys, names, factor, x, message):
        p = model.bundled_example()
        for name in names:
            fam = getattr(p, name)
            for key in list(fam):
                fam[key] = factor * fam[key]
        path = tmp_path / "scaled.json"
        model.save(p, path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--input", path, "--out", tmp_path / "s", "--paths", 1000,
                       "--x", x) == 2
        assert capsys.readouterr().err == f"error: numerical breakdown: {message}\n"
        assert os.listdir(tmp_path) == ["scaled.json"]


class TestReaderErrors:
    """Documents the reader refuses by their shape: exit 1 with one line
    that names the defect."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [d], "the document must be an object"),
        (lambda d: {**d, "data": 7}, "'data' must be an object"),
        (lambda d: {**d, "terminal": {"G": d["terminal"]["G"], "Gbar": d["terminal"]["Gbar"]}},
         "missing terminal key 'g'"),
        (lambda d: {**d, "data": {**d["data"], "A": 7}}, "A: expected object or list"),
        (lambda d: {**d, "data": {**d["data"], "A": {}}},
         "A[0][0]: missing block; A[0][1]: missing block; A[1][1]: missing block"),
        (lambda d: {**d, "n": 0}, "dims: bad dimensions n=0 m=2 N=2"),
    ], ids=["array", "data", "terminal-g", "family", "empty-family", "dims"])
    def test_exits_one_naming_the_defect(self, edit, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(json.dumps(EXAMPLE_DOC)))))
        capsys.readouterr()
        assert run("solve", "--input", bad, "--out", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["bad.json"]


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
        for eps in ("0", "-1e-3"):
            assert run("epsilon-sweep", "--input", example_file, "--out", tmp_path / "s",
                       f"--eps={eps}") == 1

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

    def test_zero_weight_instance_raises_both_warnings(self, tmp_path):
        """W = 0, so alpha = -rho/eps: the distance and the norm grow tenfold
        at each step down in eps."""
        from conftest import zero_weight_problem

        path = tmp_path / "w0.json"
        model.save(zero_weight_problem(rho=1.0), path)
        assert run("epsilon-sweep", "--input", path, "--out", tmp_path / "s",
                   "--eps", "1e-1,1e-2,1e-3") == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["warnings"] == [
            "gain distance does not decrease monotonically over the sweep",
            "gain norms grow sharply as eps decreases (possible unbounded family)"]

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
                _, g, _ = recursion.solve_shifts(p, (eps,))[0]
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


class TestBadArguments:
    """Arguments that parse but do not fit the problem are bad input: exit 1
    with one stderr line, no traceback and no file written."""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--x", "1,abc"), "error: bad vector '1,abc': "),
        (("simulate", "--x", "1,abc"), "error: bad vector '1,abc': "),
        (("verify", "--x", "1,1", "--t", 2), "error: --t must be in 0..1"),
        (("verify", "--x", "1,1", "--t", -1), "error: --t must be in 0..1"),
        (("simulate", "--x", "1,1", "--t", 2), "error: --t must be in 0..1"),
        (("epsilon-sweep", "--eps", "1e-2,abc"), "error: bad --eps list '1e-2,abc': "),
    ], ids=["verify-x", "simulate-x", "verify-t", "verify-negative-t", "simulate-t", "eps"])
    def test_exits_one(self, example_file, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        command, *rest = argv
        capsys.readouterr()
        assert run(command, "--input", example_file, "--out", out_dir / "o", *rest) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message) and "Traceback" not in err
        assert list(out_dir.iterdir()) == []


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
