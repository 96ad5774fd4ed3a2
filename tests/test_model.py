import copy
import gc
import json
import struct
import time
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from meanfield_lq import cli, model, recursion
from meanfield_lq.errors import DimensionMismatch, ProblemFormatError
from meanfield_lq.model import Family

import ingest_reference
from conftest import from_no_meanfield, make_problem


def _missing(doc):
    del doc["data"]["B"]["1,2"]


def _wrong_shape(doc):
    doc["data"]["A"]["0,3"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def _nan(doc):
    doc["data"]["C"]["2,2"][0][1] = float("nan")


def _null(doc):
    doc["data"]["rho"]["1,1"][0] = None


def _asymmetry_1e13(doc):
    doc["data"]["Q"]["0,1"][0][1] += 1e-13


def _asymmetry_1e3(doc):
    doc["data"]["R"]["1,3"][1][0] += 1e-3


def _gross_asymmetry(doc):
    doc["data"]["Qbar"]["0,0"][0][1] += 5.0


def _out_of_range(doc):
    doc["data"]["f"]["3,1"] = [0.0, 0.0]
    doc["data"]["Rbar"]["0,4"] = [[0.0, 0.0], [0.0, 0.0]]


def _dense(doc):
    for name, fam in doc["data"].items():
        grid = [[None] * 4 for _ in range(4)]
        for key, block in fam.items():
            t, k = (int(v) for v in key.split(","))
            grid[t][k] = block
        doc["data"][name] = grid


def _terminal_asymmetry(doc):
    doc["terminal"]["G"][2][0][1] += 1e-3


def _terminal_wrong_shape(doc):
    doc["terminal"]["g"][3] = [1.0, 2.0, 3.0]


def _terminal_gross_asymmetry(doc):
    Gbar = doc["terminal"]["Gbar"][1]
    Gbar[0][1] = Gbar[1][0] + 5.0


# defect -> findings as (severity, path, message), or the ProblemFormatError text
DEFECTS = (
    (_missing, "B[1][2]: missing block"),
    (_wrong_shape, "A[0][3]: shape (2, 3), expected (2, 2)"),
    (_nan, "C[2][2]: non-finite entries"),
    (_null, "rho[1][1]: non-finite entries"),
    (_asymmetry_1e13, []),
    (_asymmetry_1e3, [("warning", "R[1][3]", "symmetrised (defect 0.001)")]),
    (_gross_asymmetry, "Qbar[0][0]: asymmetric (defect 5)"),
    (_out_of_range, "Rbar[0][4]: index out of range; f[3][1]: index out of range"),
    (_dense, []),
    (_terminal_asymmetry, [("warning", "G[2]", "symmetrised (defect 0.001)")]),
    (_terminal_wrong_shape, "g[3]: shape (3,), expected (2,)"),
    (_terminal_gross_asymmetry, "Gbar[1]: asymmetric (defect 5)"),
)


class TestExampleFixture:
    def test_known_blocks(self, example):
        np.testing.assert_allclose(example.A[0, 0], [[3.3, 0.41], [-1.3, 1.9]])
        np.testing.assert_allclose(example.G[1], [[2.0, -0.3], [-0.3, 3.0]])

    def test_validates_clean(self, example):
        assert model.validate(example) == []

    def test_dimensions(self, example):
        assert (example.n, example.m, example.N) == (2, 2, 2)
        assert set(example.A) == {(0, 0), (0, 1), (1, 1)}


class TestValidate:
    def test_small_asymmetry_is_warning_and_fixed(self):
        p = model.bundled_example()
        p.Q[0, 0] = p.Q[0, 0].copy()
        p.Q[0, 0][0, 1] += 1e-3
        findings = model.validate(p)
        assert [f.severity for f in findings] == ["warning"]
        assert "Q[0][0]" in findings[0].path
        assert np.max(np.abs(p.Q[0, 0] - p.Q[0, 0].T)) == 0.0

    def test_missing_block_is_error(self):
        p = model.bundled_example()
        del p.B[0, 1]
        findings = model.validate(p)
        assert [f.severity for f in findings] == ["error"]
        assert findings[0].path == "B[0][1]"

    def test_gross_asymmetry_is_error(self):
        p = model.bundled_example()
        p.Q[0, 0] = p.Q[0, 0].copy()
        p.Q[0, 0][0, 1] += 5.0
        findings = model.validate(p)
        assert any(f.severity == "error" for f in findings)

    def test_non_finite_is_error(self):
        p = model.bundled_example()
        p.A[0, 0] = p.A[0, 0].copy()
        p.A[0, 0][1, 1] = np.inf
        findings = model.validate(p)
        assert [f.severity for f in findings] == ["error"]


class TestStacks:
    """`model.stacks` is the one source of the arrays every kernel reads."""

    def test_matches_the_blocks(self, rng):
        for n, m, N in ((2, 2, 3), (1, 3, 5), (3, 1, 4), (2, 2, 1)):
            p = make_problem(rng, n, m, N, convex=False)
            s = model.stacks(p)
            for t, k in p.pairs():
                for name in model.FAMILY_NAMES:
                    assert np.array_equal(getattr(s, name)[t, k], getattr(p, name)[t, k])
                for name in ("A", "B", "C", "D", "Q", "R"):
                    want = getattr(p, name)[t, k] + getattr(p, name + "bar")[t, k]
                    assert getattr(s, "c" + name)[t, k].tobytes() == want.tobytes(), name
            for t in range(N):
                assert np.array_equal(s.G[t], p.G[t])
                assert np.array_equal(s.Gbar[t], p.Gbar[t])
                assert np.array_equal(s.g[t], p.g[t])
                assert s.cG[t].tobytes() == (p.G[t] + p.Gbar[t]).tobytes()
            assert s.cA.shape == (N, N, n, n) and s.cR.shape == (N, N, m, m)
            assert s.G.shape == (N, n, n) and s.g.shape == (N, n)

    def test_missing_or_stray_block_raises(self):
        missing = model.bundled_example()
        del missing.B[0, 1]
        stray = model.bundled_example()
        stray.rho[1, 0] = np.zeros(2)
        misshapen = model.bundled_example()
        misshapen.Q[1, 1] = np.zeros((3, 3))
        for p in (missing, stray, misshapen):
            with pytest.raises(KeyError):
                model.stacks(p)

    def test_cli_maps_the_key_error_to_exit_1(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "p.json"
        model.save(model.bundled_example(), path)
        p = model.bundled_example()
        del p.B[0, 1]
        monkeypatch.setattr(model, "load", lambda _: (p, [], "0" * 64))
        assert cli.main(["solve", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == "error: (0, 1)\n"


class TestTimeInvariant:
    def test_scalar_broadcast(self):
        one = np.ones((1, 1))
        vec = np.ones(1)
        p = model.from_time_invariant(
            1, 1, 2, A=one, Abar=one, B=one, Bbar=one, C=one, Cbar=one,
            D=one, Dbar=one, f=vec, d=vec, Q=one, Qbar=one, R=one, Rbar=one,
            q=vec, rho=vec, G=one, Gbar=one, g=vec,
        )
        for key in ((0, 0), (0, 1), (1, 1)):
            assert p.A[key][0, 0] == 1.0
        assert model.validate(p) == []

    def test_per_step_sequences(self, rng):
        N = 3
        blocks = {
            name: [rng.normal(size=(2, 2)) for _ in range(N)]
            for name in ("A", "Abar", "B", "Bbar", "C", "Cbar", "D", "Dbar")
        }
        for name in ("Q", "Qbar", "R", "Rbar"):
            blocks[name] = [np.eye(2) for _ in range(N)]
        for name in ("f", "d", "q", "rho"):
            blocks[name] = [rng.normal(size=2) for _ in range(N)]
        p = model.from_time_invariant(2, 2, N, **blocks, G=np.eye(2),
                                      Gbar=np.zeros((2, 2)), g=np.zeros(2))
        assert model.validate(p) == []
        for t in range(N):
            for k in range(t, N):
                assert np.array_equal(p.A[t, k], blocks["A"][k])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            model.from_time_invariant(
                2, 1, 2, A=np.eye(3), Abar=np.eye(2), B=np.ones((2, 1)),
                Bbar=np.ones((2, 1)), C=np.eye(2), Cbar=np.eye(2),
                D=np.ones((2, 1)), Dbar=np.ones((2, 1)), f=np.zeros(2),
                d=np.zeros(2), Q=np.eye(2), Qbar=np.eye(2), R=np.eye(1),
                Rbar=np.eye(1), q=np.zeros(2), rho=np.zeros(1),
                G=np.eye(2), Gbar=np.eye(2), g=np.zeros(2),
            )


    def test_every_datum_form_rebuilds_the_example(self, example):
        """Mappings keyed by (t, k) and per-t terminal lists rebuild the
        instance exactly; one block and per-k sequences fill every t."""
        data = {name: getattr(example, name) for name in model.FAMILY_NAMES}
        p = model.from_time_invariant(2, 2, 2, **data, G=example.G, Gbar=example.Gbar,
                                      g=example.g)
        assert model.to_json(p) == model.to_json(example)
        data["A"] = [example.A[0, 0], example.A[1, 1]]  # per k
        data["f"] = example.f[0, 1]  # one block
        p = model.from_time_invariant(2, 2, 2, **data, G=example.G[0], Gbar=example.Gbar,
                                      g=example.g)
        assert [p.A[key].tolist() for key in p.pairs()] == [
            example.A[0, 0].tolist(), example.A[1, 1].tolist(), example.A[1, 1].tolist()]
        assert all(np.array_equal(p.f[key], example.f[0, 1]) for key in p.pairs())
        assert all(np.array_equal(g, example.G[0]) for g in p.G)

    @pytest.mark.parametrize("edit", [
        lambda d: d["A"].pop((0, 1)),
        lambda d: d["A"].__setitem__((0, 1), np.eye(3)),
        lambda d: d.update(f=np.zeros(3)),
        lambda d: d.update(Q=[np.eye(2)] * 3),
        lambda d: d.update(G=np.zeros((3, 2, 2))),
    ], ids=["missing-key", "mapping-block", "one-block", "sequence-length", "terminal"])
    def test_bad_shape_is_dimension_mismatch(self, example, edit):
        data = {name: dict(getattr(example, name).items()) for name in model.FAMILY_NAMES}
        data.update(G=example.G, Gbar=example.Gbar, g=example.g)
        edit(data)
        with pytest.raises(DimensionMismatch):
            model.from_time_invariant(2, 2, 2, **data)

    def test_missing_or_unknown_name_is_type_error(self, example):
        data = {name: getattr(example, name) for name in model.FAMILY_NAMES}
        data.update(G=example.G, Gbar=example.Gbar, g=example.g)
        with pytest.raises(TypeError, match="'rho'"):
            model.from_time_invariant(2, 2, 2, **{k: v for k, v in data.items() if k != "rho"})
        with pytest.raises(TypeError, match="'Z'"):
            model.from_time_invariant(2, 2, 2, **data, Z=example.A)
        with pytest.raises(TypeError):
            strip_bars(example, Abar=example.Abar)


def strip_bars(p, **extra):
    """Rebuild an instance keeping only the unbarred blocks."""
    return from_no_meanfield(
        p.n, p.m, p.N, A=p.A, B=p.B, C=p.C, D=p.D, f=p.f, d=p.d,
        Q=p.Q, R=p.R, q=p.q, rho=p.rho, G=p.G, g=p.g, **extra,
    )


class TestNoMeanfield:
    def test_bars_are_zero(self, example):
        p = strip_bars(example)
        for t, k in p.pairs():
            assert not p.Abar[t, k].any()
            assert not p.Rbar[t, k].any()
        for t in range(p.N):
            assert not p.Gbar[t].any()
        assert model.validate(p) == []

    def test_per_step_sequence_and_one_terminal_block(self, example):
        p = from_no_meanfield(
            2, 2, 2, A=[example.A[0, 0], example.A[1, 1]], B=example.B, C=example.C,
            D=example.D, f=example.f, d=example.d, Q=example.Q, R=example.R, q=example.q,
            rho=example.rho, G=example.G[1], g=example.g)
        assert np.array_equal(p.A[0, 1], example.A[1, 1])
        assert all(np.array_equal(g, example.G[1]) for g in p.G)
        assert not np.any(p.Gbar) and model.validate(p) == []

    def test_gains_differ_from_full_example(self, example):
        _, full, _ = recursion.solve_gdre_global(example)
        _, bare, _ = recursion.solve_gdre_global(strip_bars(example))
        diff = max(
            np.max(np.abs(full.Psi[k] - bare.Psi[k])) for k in range(example.N)
        )
        assert diff > 0.01


class TestJson:
    def test_round_trip_bytes(self, example):
        text = model.to_json(example)
        parsed, findings = model.from_json(text)
        assert findings == []
        assert model.to_json(parsed) == text

    def test_round_trip_random(self, rng):
        p = make_problem(rng, 3, 2, 4)
        text = model.to_json(p)
        parsed, _ = model.from_json(text)
        assert model.to_json(parsed) == text
        for t, k in p.pairs():
            assert np.array_equal(parsed.A[t, k], p.A[t, k])

    def test_dense_layout_with_nulls(self, example):
        import json

        doc = json.loads(model.to_json(example))
        for name in model.FAMILY_NAMES:
            fam = doc["data"][name]
            dense = [[None] * example.N for _ in range(example.N)]
            for key, block in fam.items():
                t, k = (int(v) for v in key.split(","))
                dense[t][k] = block
            doc["data"][name] = dense
        parsed, findings = model.from_json(json.dumps(doc))
        assert findings == []
        assert np.array_equal(parsed.B[0, 1], example.B[0, 1])

    def test_missing_family_rejected(self, example):
        import json

        doc = json.loads(model.to_json(example))
        del doc["data"]["Q"]
        with pytest.raises(ProblemFormatError):
            model.from_json(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ProblemFormatError):
            model.from_json("{nope")

    def test_defect_findings(self):
        """Each defect on an N = 4 file gives the findings (or the error)
        recorded before the stacked fast paths of from_json and validate."""
        text = model.to_json(make_problem(np.random.default_rng(4), 2, 2, 4))
        for defect, expected in DEFECTS:
            doc = json.loads(text)
            defect(doc)
            if isinstance(expected, str):
                with pytest.raises(ProblemFormatError) as err:
                    model.from_json(json.dumps(doc))
                assert str(err.value) == expected, defect.__name__
                continue
            parsed, findings = model.from_json(json.dumps(doc))
            assert [(f.severity, f.path, f.message) for f in findings] == expected, defect.__name__
            for name in ("Q", "R"):
                for tk, block in getattr(parsed, name).items():
                    assert np.array_equal(block, block.T), (name, tk)
            G2 = parsed.G[2]
            assert np.array_equal(G2, G2.T)

    def test_symmetrisation_repairs_in_place(self):
        doc = json.loads(model.to_json(make_problem(np.random.default_rng(4), 2, 2, 4)))
        bad = np.array(doc["data"]["R"]["1,3"])
        bad[1, 0] += 1e-3
        doc["data"]["R"]["1,3"] = bad.tolist()
        parsed, _ = model.from_json(json.dumps(doc))
        assert np.array_equal(parsed.R[1, 3], 0.5 * (bad + bad.T))

    def test_missing_block_rejected(self, example):
        import json

        doc = json.loads(model.to_json(example))
        del doc["data"]["B"]["0,1"]
        with pytest.raises(ProblemFormatError):
            model.from_json(json.dumps(doc))


def _outcome(reader, text):
    """What a reader makes of a file, bit for bit: the error text, or every
    family's stack, mask and stray blocks, the terminal lists and the findings."""
    try:
        p, findings = reader(text)
    except ProblemFormatError as exc:
        return str(exc)
    families = {}
    for name in model.FAMILY_NAMES:
        fam = getattr(p, name)
        families[name] = (None if fam.stack is None else (fam.stack.tobytes(), fam.mask.tobytes()),
                          {key: (v.shape, v.tobytes()) for key, v in fam.extra.items()})
    terminal = {key: [(np.asarray(v).shape, np.asarray(v).tobytes()) for v in getattr(p, key)]
                for key in ("G", "Gbar", "g")}
    return (p.n, p.m, p.N), families, terminal, findings


# ints (above 2**53 too, which round), -0.0, subnormals and the largest finite floats
EDGE_LEAVES = (0, -7, 2**53 + 1, -(2**64) - 3, 2**1000 + 1, -0.0, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1)
leaf_values = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
               | st.sampled_from(EDGE_LEAVES))
SYMMETRIC = {name for name, (_, sym) in model.MATRIX_FAMILIES.items() if sym} | {"G", "Gbar"}


@st.composite
def problem_documents(draw):
    """A valid problem document: dict or dense layout, keys in any order,
    symmetric weights; with ``comment`` set, a top-level string holding
    "true" sends every block down the block-by-block path."""
    n, m, N = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    shapes = model.ProblemData(n, m, 1)

    def blocks(name, count, shape):
        size = count * int(np.prod(shape))
        flat = draw(st.lists(leaf_values, min_size=size, max_size=size))
        out = np.array(flat, dtype=object).reshape(count, *shape)
        if name in SYMMETRIC:
            for i in range(shape[0]):
                for j in range(i):
                    out[:, i, j] = out[:, j, i]
        return out.tolist()

    keys = [(t, k) for t in range(N) for k in range(t, N)]
    dense = draw(st.booleans())
    data = {}
    for name in model.FAMILY_NAMES:
        values = blocks(name, len(keys), shapes.shape_of(name))
        if dense:
            grid = [[None] * N for _ in range(N)]
            for (t, k), block in zip(keys, values):
                grid[t][k] = block
            data[name] = grid
        else:
            order = draw(st.permutations(range(len(keys))))
            data[name] = {f"{keys[i][0]},{keys[i][1]}": values[i] for i in order}
    terminal = {"G": blocks("G", N, (n, n)), "Gbar": blocks("Gbar", N, (n, n)),
                "g": blocks("g", N, (n,))}
    doc = {"n": n, "m": m, "N": N, "data": data, "terminal": terminal}
    if draw(st.booleans()):
        doc["comment"] = "true"
    return doc


class TestIngestReference:
    @settings(max_examples=150, deadline=None)
    @given(problem_documents())
    def test_valid_documents_read_as_the_reference(self, doc):
        text = json.dumps(doc)
        expected = _outcome(ingest_reference.from_json, text)
        assert not isinstance(expected, str), expected
        assert _outcome(model.from_json, text) == expected

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d["data"]["A"]["0,1"][1].__setitem__(0, None), "A[0][1]"),
        (lambda d: d["data"]["f"]["1,1"].__setitem__(1, None), "f[1][1]"),
        (lambda d: d["terminal"]["G"][1][0].__setitem__(1, None), "G[1]"),
    ])
    def test_null_leaf_is_non_finite(self, edit, path):
        doc = json.loads(model.to_json(model.bundled_example()))
        edit(doc)
        text = json.dumps(doc)
        assert _outcome(model.from_json, text) == f"{path}: non-finite entries"
        assert _outcome(ingest_reference.from_json, text) == f"{path}: non-finite entries"

    def test_overflowing_integer_is_not_numeric(self):
        doc = json.loads(model.to_json(model.bundled_example()))
        doc["data"]["B"]["1,1"][0][1] = 10**400
        text = json.dumps(doc)
        expected = "B[1][1]: not a numeric block (int too large to convert to float)"
        assert _outcome(model.from_json, text) == expected
        assert _outcome(ingest_reference.from_json, text) == expected

    @settings(max_examples=100, deadline=None)
    @given(problem_documents())
    def test_bytes_read_as_their_text(self, doc):
        text = json.dumps(doc)
        assert _outcome(model.from_json, text.encode()) == _outcome(model.from_json, text)


def _file_outcome(reader, path):
    """What a reader makes of a file read as text, as `model.load` read
    files before it read bytes; a text decoding error is worded as invalid
    JSON, as the reader words it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"not valid JSON: {exc}"
    return _outcome(reader, text)


def _decoded_outcome(read):
    """`_outcome` of a read from bytes, with a text decoding error as its message."""
    try:
        result = read()
    except UnicodeDecodeError as exc:
        return f"UnicodeDecodeError: {exc}"
    except ProblemFormatError as exc:
        return str(exc)
    return _outcome(lambda _: result, None)


def _load_outcome(path):
    return _decoded_outcome(lambda: model.load(path)[:2])


def _example_text(edit=None):
    doc = json.loads(model.to_json(model.bundled_example()))
    if edit is not None:
        edit(doc)
    return json.dumps(doc)


# documents that orjson refuses and `json` reads or words in its own way;
# each is text or raw file bytes
REFUSED = {
    "nan-leaf": _example_text(lambda d: d["data"]["A"]["0,1"][1].__setitem__(0, float("nan"))),
    "infinity-leaf": _example_text(lambda d: d["data"]["f"]["1,1"].__setitem__(1, float("inf"))),
    "minus-infinity-leaf": _example_text(
        lambda d: d["terminal"]["G"][1][0].__setitem__(1, float("-inf"))),
    "1e400-leaf": _example_text(
        lambda d: d["data"]["rho"]["0,0"].__setitem__(0, 1234.5)).replace("1234.5", "1e400"),
    "10**400-leaf": _example_text(lambda d: d["data"]["B"]["1,1"][0].__setitem__(1, 10**400)),
    "surrogate-in-family-key": _example_text(
        lambda d: d["data"]["Q"].__setitem__("0,\ud800", d["data"]["Q"].pop("0,0"))),
    "surrogate-in-extra-key": _example_text(lambda d: d.update({"note \ud800": 1})),
    "bom": b"\xef\xbb\xbf" + _example_text().encode(),
    "invalid-utf8-in-key": _example_text(lambda d: d.update(note=1)).encode().replace(
        b"note", b"no\xfft"),
    "invalid-utf8-outside-strings": _example_text().encode() + b" \x80",
    "invalid-utf8-first-byte": b"\xff" + _example_text().encode(),
    "overlong-utf8": _example_text(lambda d: d.update(note=1)).encode().replace(
        b"note", b"\xc0\xafnote"),
    "empty-file": b"",
    "crlf-nan-then-malformed": _example_text(
        lambda d: d["data"]["A"]["0,1"][1].__setitem__(0, float("nan"))
    ).replace(", ", ",\r\n").replace(": ", ":\r")[:-40],
}


class TestRefusedDocuments:
    """A document orjson refuses goes to `json`, with the outcome of the
    reader that used `json` alone: the same message or the same bits."""

    @pytest.mark.parametrize("name", REFUSED)
    def test_read_as_the_reference(self, name, tmp_path):
        data = REFUSED[name]
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(data)
        if isinstance(data, str):
            assert _outcome(model.from_json, data) == _outcome(ingest_reference.from_json, data)
            data = data.encode("utf-8", "surrogatepass")
        path = tmp_path / "refused.json"
        path.write_bytes(data)
        expected = _file_outcome(ingest_reference.from_json, path)
        assert _load_outcome(path) == expected
        assert _decoded_outcome(lambda: model.from_json(data)) == expected

    def test_expected_outcomes(self, tmp_path):
        """The refusal cases reach the outcomes they were written for."""
        outcomes = {}
        for name, data in REFUSED.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(data if isinstance(data, bytes) else
                             data.encode("utf-8", "surrogatepass"))
            outcomes[name] = _load_outcome(path)
        assert outcomes["nan-leaf"] == "A[0][1]: non-finite entries"
        assert outcomes["infinity-leaf"] == "f[1][1]: non-finite entries"
        assert outcomes["minus-infinity-leaf"] == "G[1]: non-finite entries"
        assert outcomes["1e400-leaf"] == "rho[0][0]: non-finite entries"
        assert outcomes["10**400-leaf"] == (
            "B[1][1]: not a numeric block (int too large to convert to float)")
        assert outcomes["surrogate-in-family-key"] == "Q: bad index key '0,\\ud800'"
        assert not isinstance(outcomes["surrogate-in-extra-key"], str)
        assert outcomes["bom"].startswith("not valid JSON: Unexpected UTF-8 BOM")
        for name in ("invalid-utf8-in-key", "invalid-utf8-outside-strings", "overlong-utf8"):
            assert outcomes[name].startswith("not valid JSON: 'utf-8' codec can't decode")
        assert outcomes["invalid-utf8-first-byte"] == (
            "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte")
        assert outcomes["empty-file"] == "not valid JSON: Expecting value: line 1 column 1 (char 0)"
        assert outcomes["crlf-nan-then-malformed"].startswith("not valid JSON: ")

    def test_integer_dimension_beyond_64_bits_keeps_its_digits(self, monkeypatch):
        """orjson reads such an integer as its nearest float; the reader
        rereads the document with `json`, so the message quotes every digit."""
        text = _example_text(lambda d: d.update(N=10**20 + 1))
        expected = f"A: 3 blocks for N={10**20 + 1}, which needs {(10**20 + 1) * (10**20 + 2) // 2}"
        assert _outcome(model.from_json, text) == expected
        monkeypatch.setattr(model, "parse_json", json.loads)
        assert _outcome(model.from_json, text) == expected


class TestParseFastPath:
    def test_valid_documents_never_reach_json(self, monkeypatch, tmp_path):
        text = model.to_json(make_problem(np.random.default_rng(3), 2, 2, 5))
        path = tmp_path / "p.json"
        path.write_text(text)
        expected = _outcome(model.from_json, text)

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called on a valid document")

        monkeypatch.setattr(json, "loads", refuse)
        assert _outcome(model.from_json, text) == expected
        assert _outcome(model.from_json, text.encode()) == expected
        assert _load_outcome(path) == expected

    def test_numbers_parse_as_pythons_float(self):
        """Random doubles at 16 to 20 digits, subnormals, decimals beside the
        midpoint of two neighbouring doubles, and integers up to 2**1023
        parse to the float `json` (that is, `float()`) gives, bit for bit."""
        rng = np.random.default_rng(11)
        values = rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)
        tokens = [f"{v:.{digits}g}" for v in values for digits in (16, 17, 18, 20)]
        tokens += [repr(float(v)) for v in rng.random(200) * 2.0**-1022]  # subnormals
        with localcontext() as ctx:
            ctx.prec = 1000  # exact: a double has at most 767 significant digits
            for v in values[:200]:
                mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
                step = abs(mid) * Decimal("1e-40")
                tokens += [str(mid), str(mid - step), str(mid + step)]
        tokens += [str((int(a) << int(b)) + int(c)) for a, b, c in
                   zip(rng.integers(1, 2**62, 200), rng.integers(0, 960, 200),
                       rng.integers(0, 2**62, 200))]
        tokens += [str(2**1023), str(2**1024 - 2**970 - 1), str(2**64 + 1), "-0", "-0.0"]
        text = "[" + ",".join(tokens) + "]"
        expected = [struct.pack("<d", float(v)) for v in json.loads(text)]
        assert [struct.pack("<d", float(v)) for v in model.parse_json(text)] == expected


# values the schema refuses and np.asarray or int() would convert, and their message
NOT_NUMBERS = (
    (lambda d: d["data"]["A"]["0,0"].__setitem__(0, ["3.3", True]),
     'A[0][0]: not a numeric block (entry "3.3")'),
    (lambda d: d["data"]["A"]["0,0"].__setitem__(0, [3.3, True]),
     "A[0][0]: not a numeric block (entry true)"),
    (lambda d: d["data"]["rho"].__setitem__("1,1", "12"), 'rho[1][1]: not a numeric block (entry "12")'),
    (lambda d: d["terminal"]["Gbar"][1].__setitem__(1, ["-0.2", 1.0]),
     'Gbar[1]: not a numeric block (entry "-0.2")'),
    (lambda d: d["terminal"]["g"].__setitem__(0, [False, 7.8]),
     "g[0]: not a numeric block (entry false)"),
    (lambda d: d.update(n=2.7), "bad dimensions: n is not an integer (2.7)"),
    (lambda d: d.update(N="2"), 'bad dimensions: N is not an integer ("2")'),
    (lambda d: d.update(N=True), "bad dimensions: N is not an integer (true)"),
)


class TestNotNumbers:
    @pytest.mark.parametrize("edit, message", NOT_NUMBERS, ids=[
        "string-leaf", "boolean-leaf", "string-block", "terminal-string-leaf",
        "terminal-boolean-leaf", "fractional-n", "string-N", "boolean-N"])
    def test_rejected_naming_the_entry(self, edit, message):
        doc = json.loads(model.to_json(model.bundled_example()))
        edit(doc)
        with pytest.raises(ProblemFormatError) as err:
            model.from_json(json.dumps(doc))
        assert str(err.value) == message

    def test_integral_float_dimension_accepted(self):
        doc = json.loads(model.to_json(model.bundled_example()))
        doc["N"] = 2.0
        parsed, findings = model.from_json(json.dumps(doc))
        assert parsed.N == 2 and type(parsed.N) is int and findings == []


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text", ["example", "{nope", '{"n": true}'], ids=["ok", "json", "dims"])
    def test_collector_state_restored(self, enabled, text):
        if text == "example":
            text = model.to_json(model.bundled_example())
        prior = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            try:
                model.from_json(text)
            except ProblemFormatError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if prior else gc.disable)()

    def test_collector_paused_while_the_parse_tree_lives(self, monkeypatch):
        seen = []
        validate = model.validate

        def spy(p):
            seen.append(gc.isenabled())
            return validate(p)

        monkeypatch.setattr(model, "validate", spy)
        assert gc.isenabled()
        model.from_json(model.to_json(model.bundled_example()))
        assert seen == [False] and gc.isenabled()


class TestDeclaredHorizon:
    def test_declared_n_beyond_the_blocks_rejected_at_once(self):
        """A file whose N asks for far more blocks than it holds is rejected
        by one counting line, before any (N, N) storage is allocated."""
        doc = json.loads(model.to_json(model.bundled_example()))
        doc["N"] = 10**6
        start = time.perf_counter()
        with pytest.raises(ProblemFormatError) as err:
            model.from_json(json.dumps(doc))
        assert time.perf_counter() - start < 0.5
        assert str(err.value) == "A: 3 blocks for N=1000000, which needs 500000500000"


class TestFamily:
    def test_mapping_over_one_stack(self):
        fam = Family(3, 3, (2,))
        assert len(fam) == 0 and fam.stack is None and fam.get((0, 0)) is None
        fam[1, 2] = [1.0, 2.0]
        fam[0, 0] = np.array([3.0, 4.0])
        fam[2, 1] = [5.0, 6.0]  # below the diagonal: kept aside for validate
        fam[0, 1] = [7.0]  # wrong shape: kept aside as well
        assert list(fam) == [(0, 0), (1, 2), (2, 1), (0, 1)]
        assert len(fam) == 4 and (1, 2) in fam and (1, 1) not in fam
        view = fam[1, 2]
        view[0] = -1.0
        assert fam.stack[1, 2, 0] == -1.0
        fam[0, 1] = [8.0, 9.0]  # now it fits
        assert fam.extra.keys() == {(2, 1)}
        del fam[0, 0]
        assert (0, 0) not in fam and not fam.stack[0, 0].any()
        with pytest.raises(KeyError):
            fam.stacked()
        dup = copy.deepcopy(fam)
        dup[1, 2] = [0.0, 0.0]
        assert fam[1, 2][1] == 2.0

    def test_problem_families_read_as_stacks(self, example):
        stack = example.A.stacked()
        assert stack.shape == (2, 2, 2, 2)
        assert np.array_equal(stack[0, 1], example.A[0, 1])
        assert not stack[1, 0].any()


def _as_lists(doc):
    """The same document with every ndarray leaf and Family as plain lists."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, Family):
        return {f"{t},{k}": v.tolist() for (t, k), v in doc.items()}
    if isinstance(doc, dict):
        return {key: _as_lists(v) for key, v in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(v) for v in doc]
    return doc


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 123456789.125)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
float_arrays = arrays(st.sampled_from([np.float64, np.float32]),
                      array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                      elements=st.floats(allow_nan=False, allow_infinity=False, width=32)
                      | st.sampled_from((-0.0, 1e-45, 3.4028234663852886e38)))
f64_arrays = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                    elements=finite)


@st.composite
def families(draw):
    rows = draw(st.integers(0, 4))
    fam = Family(rows, rows + draw(st.integers(0, 1)), draw(array_shapes(min_dims=1, max_dims=2,
                                                                          min_side=0, max_side=2)))
    keys = [(t, k) for t in range(fam.rows) for k in range(t, fam.cols)]
    for key in draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []:
        fam[key] = draw(arrays(np.float64, fam.shape, elements=finite))
    return fam


leaves = (f64_arrays | float_arrays | families() | finite | st.integers() | st.booleans()
          | st.none() | st.text(max_size=3))
documents = st.recursive(leaves, lambda kids: st.lists(kids, max_size=3)
                         | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)


class TestCanonicalWriter:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    @example(np.array(-0.0))
    @example(np.zeros((0,)))
    @example(np.zeros((2, 0, 3)))
    @example({"a": [np.array(EDGE_FLOATS), {"b": np.array([[5e-324, -0.0]])}]})
    def test_array_leaves_write_as_their_lists(self, doc):
        assert model.canonical_dumps(doc) == model.canonical_dumps(_as_lists(doc))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, bad):
        for doc in (np.array([1.0, bad]), {"x": [np.array(bad)]}):
            with pytest.raises(ProblemFormatError, match="non-finite"):
                model.canonical_dumps(doc)
        fam = Family(2, 2, (1,))
        fam[0, 1] = [bad]
        with pytest.raises(ProblemFormatError, match="non-finite"):
            model.canonical_dumps(fam)

    def test_large_integers_print_exactly(self):
        big = np.array([2**53 + 1, -(2**62) - 3], dtype=np.int64)
        assert model.canonical_dumps(big) == "[9007199254740993,-4611686018427387907]"
        assert model.canonical_dumps(np.array([True, False])) == "[true,false]"

    def test_floats_are_spelled_shortest(self):
        """Each float is the shortest decimal that parses back to it."""
        doc = {"c": 3.0, "a": 1.37, "b": 1e-8, "d": np.array([1.37, 1e-8, 3.0, 1e16])}
        assert model.canonical_dumps(doc) == '{"a":1.37,"b":1e-8,"c":3.0,"d":[1.37,1e-8,3.0,1e16]}'
        fam = Family(2, 3, (1,))
        fam[0, 2], fam[0, 1] = [0.1], [np.float32(0.998046875)]
        assert model.canonical_dumps(fam) == '{"0,1":[0.998046875],"0,2":[0.1]}'

    @pytest.mark.parametrize("doc, value", [
        ({"seed": 2**70, "x": [1.37, np.float32(0.5)]}, {"seed": 2**70, "x": [1.37, 0.5]}),
        ({"x": np.array([1e-8]), "path": "r\udcff.json"}, {"path": "r\udcff.json", "x": [1e-8]}),
        ({10: {"b": 1, "a": 2}, 2: None}, {"2": None, "10": {"a": 2, "b": 1}}),
    ], ids=["integer-beyond-64-bits", "lone-surrogate", "non-string-keys"])
    def test_documents_orjson_refuses(self, doc, value):
        """Written by `json`, keys sorted, with their values kept."""
        parsed = json.loads(model.canonical_dumps(doc))
        assert json.dumps(parsed) == json.dumps(value)  # same order at every level

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float32("-inf")])
    def test_non_finite_float_rejected_before_a_file_opens(self, bad, tmp_path, monkeypatch):
        """A float leaf that orjson would write as null is refused."""
        for doc in ({"x": [1.0, bad]}, [{"y": (bad,)}], np.array([1.0, bad], dtype=object)):
            with pytest.raises(ProblemFormatError, match="non-finite"):
                model.canonical_dumps(doc)
        p = model.bundled_example()
        p.g[1] = np.array([bad, 1.0])

        def no_open(*args, **kwargs):
            raise AssertionError("opened a file")

        monkeypatch.setattr("builtins.open", no_open)
        with pytest.raises(ProblemFormatError, match="non-finite"):
            model.save(p, tmp_path / "p.json")

    @pytest.mark.parametrize("leaf, name", [
        (object(), "object"), ({1, 2}, "set"), (1j, "complex"), (np.array([1j]), "complex"),
    ])
    def test_unknown_type_rejected(self, leaf, name):
        for doc in ({"a": [leaf]}, {"a": leaf, "b": 2**70}):  # the second is `json`'s
            with pytest.raises(ProblemFormatError, match=f"^cannot serialise {name}$"):
                model.canonical_dumps(doc)

    def test_tables_write_as_keyed_lists(self, rng):
        tables, gains, _ = recursion.solve_gdre_global(make_problem(rng, 2, 3, 12))
        doc = recursion.tables_to_dict(tables)
        assert model.canonical_dumps(doc) == model.canonical_dumps(_as_lists(doc))
        assert isinstance(recursion.gains_to_dict(gains)["Psi"], list)
