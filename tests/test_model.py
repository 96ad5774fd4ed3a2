import json

import numpy as np
import pytest

from meanfield_lq import model, recursion
from meanfield_lq.errors import DimensionMismatch, ProblemFormatError
from meanfield_lq.model import InitialPair

from conftest import make_problem


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


class TestCalligraphicView:
    def test_sums_are_exact(self, rng):
        p = make_problem(rng, 2, 2, 3)
        cal = p.cal
        for t, k in p.pairs():
            assert np.array_equal(cal.A(t, k), p.A[t, k] + p.Abar[t, k])
            assert np.array_equal(cal.R(t, k), p.R[t, k] + p.Rbar[t, k])
        for t in range(p.N):
            assert np.array_equal(cal.G(t), p.G[t] + p.Gbar[t])


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


def strip_bars(p):
    """Rebuild an instance keeping only the unbarred blocks."""
    return model.from_no_meanfield(
        p.n, p.m, p.N, A=p.A, B=p.B, C=p.C, D=p.D, f=p.f, d=p.d,
        Q=p.Q, R=p.R, q=p.q, rho=p.rho, G=p.G, g=p.g,
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

    def test_gains_differ_from_full_example(self, example):
        _, full, _ = recursion.solve_gdre_global(example)
        _, bare, _ = recursion.solve_gdre_global(strip_bars(example))
        diff = max(
            np.max(np.abs(full.Psi[k] - bare.Psi[k])) for k in range(example.N)
        )
        assert diff > 0.01


class TestInitialPair:
    def test_deterministic_vector_tiles(self):
        pair = InitialPair(2, np.array([1.0, 2.0]))
        vals = pair.node_values(2)
        assert vals.shape == (4, 2)
        assert np.array_equal(vals, np.tile([1.0, 2.0], (4, 1)))

    def test_node_family_passthrough(self):
        fam = np.arange(8.0).reshape(4, 2)
        pair = InitialPair(2, fam)
        assert np.array_equal(pair.node_values(2), fam)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            InitialPair(0, np.array([1.0, 2.0, 3.0])).node_values(2)


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
