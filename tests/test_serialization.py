import json

import numpy as np
import pytest

from mvortho.errors import SchemaError
from mvortho.evaluation import to_canonical
from mvortho.indexing import MultiIndexSet
from mvortho.measures import torus_measure
from mvortho.recurrence import RecurrenceData
from mvortho.serialization import (load_recurrence, recurrence_from_json,
                                   recurrence_to_json, save_recurrence,
                                   write_cc_csv, write_christoffel_csv,
                                   write_condition_csv,
                                   write_log_error_csv, write_matrix_csv)
from mvortho.stieltjes import stieltjes_recurrence
from mvortho.tensor_product import tensor_recurrence
from mvortho.univariate import jacobi_recurrence

import reference


def oracle(d=2, n_max=5):
    iset = MultiIndexSet.build(d, n_max)
    unis = [jacobi_recurrence(n_max, 0.4 * i, 1.1 + i) for i in range(d)]
    return to_canonical(tensor_recurrence(unis, iset, n_max))


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        rec = oracle()
        path = tmp_path / "rec.json"
        save_recurrence(rec, path)
        back = load_recurrence(path)
        assert back.d == rec.d and back.max_degree == rec.max_degree
        for n in range(1, rec.max_degree + 1):
            for i in range(rec.d):
                assert np.array_equal(back.A[n][i], rec.A[n][i])
                assert np.array_equal(back.B[n][i], rec.B[n][i])
            assert np.array_equal(back.lam[n], rec.lam[n])

    def test_double_round_trip_is_stable_text(self):
        rec = oracle()
        once = recurrence_to_json(rec)
        twice = recurrence_to_json(recurrence_from_json(once))
        assert once == twice

    def test_declares_conventions(self):
        doc = json.loads(recurrence_to_json(oracle()))
        assert doc["format_version"] == 1
        assert doc["ordering"] == "graded-lex"
        assert doc["lambda_order"] == "non-increasing"
        assert doc["d"] == 2 and doc["N"] == 5

    def test_non_canonical_allowed(self):
        iset = MultiIndexSet.build(2, 3)
        unis = [jacobi_recurrence(3, 0.0, 0.0)] * 2
        raw = tensor_recurrence(unis, iset, 3)
        back = recurrence_from_json(recurrence_to_json(raw))
        assert back.lam is None


def assert_same_arrays(back, rec):
    assert back.d == rec.d and back.max_degree == rec.max_degree
    for n in range(1, rec.max_degree + 1):
        for i in range(rec.d):
            assert np.array_equal(back.A[n][i], rec.A[n][i], equal_nan=True)
            assert np.array_equal(back.B[n][i], rec.B[n][i], equal_nan=True)
        if rec.lam is not None:
            assert np.array_equal(back.lam[n], rec.lam[n], equal_nan=True)
    assert (back.lam is None) == (rec.lam is None)


def with_non_finite(rec):
    out = rec.copy()
    out.A[1][0][0, 0] = np.nan
    out.B[2][1][0, -1] = np.inf
    out.B[3][0][1, 0] = -np.inf
    out.lam[2][0] = np.nan
    return out


def univariate():
    # d = 1: every block is 1 x 1.
    uni = jacobi_recurrence(4, 0.5, 1.5)
    rec = RecurrenceData.start(1)
    rec.max_degree = 3
    rec.A += [[np.array([[uni.a[n - 1]]])] for n in range(1, 4)]
    rec.B += [[np.array([[uni.b[n]]])] for n in range(1, 4)]
    rec.lam = [None] + [np.array([uni.b[n] ** 2]) for n in range(1, 4)]
    return rec


def degree_zero():
    rec = RecurrenceData.start(2)
    rec.lam = [None]
    return rec


class TestByteIdentity:
    """The writer reproduces the indented ``json`` encoder byte for byte."""

    @pytest.mark.parametrize("make,loads", [
        (lambda: stieltjes_recurrence(torus_measure(7, 25, 25), 5)[0], True),
        (lambda: tensor_recurrence([jacobi_recurrence(3, 0.0, 0.0)] * 2,
                                   MultiIndexSet.build(2, 3), 3), True),
        (lambda: with_non_finite(oracle()), False),
        (degree_zero, True),
        (univariate, True),
    ], ids=["tor", "lam-none", "non-finite", "degree-zero", "one-by-one"])
    def test_matches_indented_encoder(self, make, loads):
        # Non-finite entries are written as the encoder spells them, but
        # the loader refuses them.
        rec = make()
        text = recurrence_to_json(rec)
        assert text == reference.recurrence_to_json(rec)
        if loads:
            assert_same_arrays(recurrence_from_json(text), rec)
        else:
            with pytest.raises(SchemaError, match="non-finite entry in A "
                               "at degree 1"):
                recurrence_from_json(text)


class TestSchemaValidation:
    def test_dimension_mismatch_rejected(self):
        doc = json.loads(recurrence_to_json(oracle()))
        doc["d"] = 3
        with pytest.raises(SchemaError):
            recurrence_from_json(json.dumps(doc))

    def test_degree_mismatch_rejected(self):
        doc = json.loads(recurrence_to_json(oracle()))
        doc["N"] = 7
        with pytest.raises(SchemaError):
            recurrence_from_json(json.dumps(doc))

    def test_matrix_shape_mismatch_rejected(self):
        doc = json.loads(recurrence_to_json(oracle()))
        doc["B"][2][0] = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(SchemaError):
            recurrence_from_json(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = json.loads(recurrence_to_json(oracle()))
        del doc["ordering"]
        with pytest.raises(SchemaError):
            recurrence_from_json(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            recurrence_from_json("not json at all")

    @pytest.mark.parametrize("key,n,value", [("lambda", 2, np.nan),
                                             ("A", 3, np.inf),
                                             ("B", 1, -np.inf)])
    def test_non_finite_rejected(self, tmp_path, key, n, value):
        # Loaded, such a file would make evaluate return NaN silently.
        rec = oracle()
        arrays = {"A": rec.A[n], "B": rec.B[n], "lambda": [rec.lam[n]]}[key]
        arrays[-1].flat[-1] = value
        path = tmp_path / "rec.json"
        save_recurrence(rec, path)
        with pytest.raises(SchemaError, match=f"non-finite entry in {key} "
                           f"at degree {n}"):
            load_recurrence(path)


class TestCsvEmitters:
    def test_log_error_square_and_inf_literals(self, tmp_path):
        err = np.array([[0.0, 1e-3], [1e-3, 1.0]])
        path = tmp_path / "e.csv"
        write_log_error_csv(path, err)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 2 and all(len(r.split(",")) == 2 for r in rows)
        assert "-inf" in rows[0]
        for token in rows[1].split(","):
            float(token)  # parses as a float, including inf literals

    def test_condition_bytes(self, tmp_path):
        path = tmp_path / "cond.csv"
        write_condition_csv(path, np.array([1.0, 387.32944843320411, np.inf]))
        assert path.read_text() == ("degree,cond\n0,1\n"
                                    "1,387.32944843320411\n2,inf\n")

    @pytest.mark.parametrize("rows,text", [
        ([], ""),
        ([(0, 0, 1, 2.5e-16, 0.0, 0.0), (3, 1, 2, 1 / 3, np.inf, 1e-300)],
         "0,0,1,2.5000000000000002e-16,0,0\n"
         "3,1,2,0.33333333333333331,inf,1e-300\n")])
    def test_cc_bytes(self, tmp_path, rows, text):
        # d = 1 has no coordinate pairs: the header alone.
        path = tmp_path / "cc.csv"
        write_cc_csv(path, rows)
        assert path.read_text() == ("degree,coord_i,coord_j,res1,res2,res3\n"
                                    + text)

    def test_condition_rows(self, tmp_path):
        path = tmp_path / "cond.csv"
        write_condition_csv(path, [1.0, 10.0, np.inf])
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "degree,cond"
        assert len(rows) == 4
        assert rows[3].split(",")[1] == "inf"


class TestMatrixCsv:
    TINY = np.nextafter(0.0, 1.0)
    MATRIX = np.array([[np.inf, -np.inf, np.nan, -0.0],
                       [TINY, -3 * TINY, 2.2250738585072014e-308 / 3, 1 / 3],
                       [1e300, -1.5, 0.0, 12345678901234567.0]])

    @pytest.mark.parametrize("header", [None, "x1,x2,kernel,christoffel"])
    def test_bytes_match_savetxt(self, tmp_path, header):
        write_matrix_csv(tmp_path / "got.csv", self.MATRIX, header=header)
        np.savetxt(tmp_path / "want.csv", self.MATRIX, fmt="%.17g",
                   delimiter=",", header=header or "", comments="")
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_christoffel_columns(self, tmp_path):
        write_christoffel_csv(tmp_path / "got.csv", self.MATRIX[:, :2],
                              self.MATRIX[:, 2], self.MATRIX[:, 3])
        np.savetxt(tmp_path / "want.csv", self.MATRIX, fmt="%.17g",
                   delimiter=",", header="x1,x2,kernel,christoffel",
                   comments="")
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())
