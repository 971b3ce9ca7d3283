"""JSON round-trip for recurrence data and CSV emitters for plot data.

The JSON layout is diff-friendly: matrices as row-major nested lists,
degrees 1..N, with the ordering conventions declared up front.  Floats
serialize via Python's shortest round-trip repr, so load(dump(x))
reproduces x bit for bit; the loader rejects NaN and infinite entries.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SchemaError
from .recurrence import RecurrenceData

FORMAT_VERSION = 1
ORDERING = "graded-lex"
LAMBDA_ORDER = "non-increasing"


def recurrence_to_json(rec: RecurrenceData) -> str:
    """The text ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"``
    gives for the document of nested lists, built around float spellings
    that the C encoder writes in one call per matrix (the indented
    encoder formats every float in Python)."""
    degrees = range(1, rec.max_degree + 1)

    def per_degree(mats):
        return _bracket([_bracket([_json_array(mat, 3) for mat in mats[n]], 2)
                         for n in degrees], 1)

    fields = {
        "format_version": json.dumps(FORMAT_VERSION),
        "d": json.dumps(rec.d),
        "N": json.dumps(rec.max_degree),
        "ordering": json.dumps(ORDERING),
        "lambda_order": json.dumps(LAMBDA_ORDER),
        "A": per_degree(rec.A),
        "B": per_degree(rec.B),
        "lambda": "null" if rec.lam is None
        else _bracket([_json_array(rec.lam[n], 2) for n in degrees], 1),
    }
    body = ",\n".join(f" {json.dumps(key)}: {fields[key]}"
                      for key in sorted(fields))
    return "{\n" + body + "\n}\n"


def _bracket(items: list, level: int) -> str:
    """A JSON list of already spelled ``items`` whose opening bracket sits
    at nesting ``level``, laid out as ``json.dumps(..., indent=1)``."""
    if not items:
        return "[]"
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * level + "]"


def _json_array(arr: np.ndarray, level: int) -> str:
    """``arr.tolist()`` as ``_bracket`` lays it out at ``level``; the
    float spellings (repr, NaN, Infinity, -Infinity) come from one
    ``json.dumps`` call."""
    words = json.dumps(arr.ravel().tolist())[1:-1].split(", ") if arr.size else []

    def nest(words, shape, level):
        if len(shape) == 1:
            return _bracket(words, level)
        step = len(words) // shape[0] if shape[0] else 0
        return _bracket([nest(words[k * step:(k + 1) * step], shape[1:],
                              level + 1) for k in range(shape[0])], level)

    return nest(words, arr.shape, level)


def save_recurrence(rec: RecurrenceData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(recurrence_to_json(rec))


def recurrence_from_json(text: str) -> RecurrenceData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    for key in ("format_version", "d", "N", "ordering", "lambda_order", "A", "B"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"unsupported format version {doc['format_version']}")
    d, n_max = doc["d"], doc["N"]
    if not (isinstance(d, int) and d >= 1 and isinstance(n_max, int) and n_max >= 0):
        raise SchemaError("d and N must be a positive and nonnegative integer")
    if len(doc["A"]) != n_max or len(doc["B"]) != n_max:
        raise SchemaError(f"expected {n_max} degrees of matrices, got "
                          f"{len(doc['A'])}/{len(doc['B'])}")
    rec = RecurrenceData.start(d)
    rec.max_degree = n_max
    rec.A += [[np.array(m, dtype=float) for m in row] for row in doc["A"]]
    rec.B += [[np.array(m, dtype=float) for m in row] for row in doc["B"]]
    if doc.get("lambda") is not None:
        rec.lam = [None] + [np.array(v, dtype=float) for v in doc["lambda"]]
    try:
        rec.validate_shapes()
    except ValueError as exc:
        raise SchemaError(f"declared dimensions do not match stored matrices: {exc}") from exc
    if rec.lam is not None:
        for n in range(1, n_max + 1):
            if rec.lam[n].shape != (rec.r(n),):
                raise SchemaError(f"lambda[{n}] has wrong length")
    for key, values in (("A", rec.A), ("B", rec.B), ("lambda", rec.lam or [])):
        for n in range(1, len(values)):
            if not all(np.isfinite(v).all() for v in values[n]):
                raise SchemaError(f"non-finite entry in {key} at degree {n}")
    return rec


def load_recurrence(path) -> RecurrenceData:
    with open(path, encoding="utf-8") as fh:
        return recurrence_from_json(fh.read())


def write_matrix_csv(path, matrix, header: str | None = None) -> None:
    """Plain rectangular CSV of ``%.17g`` floats (inf/-inf/nan literals),
    after a ``header`` line when one is given: the bytes of
    ``np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=header,
    comments="")``.  Each row is spelled by one ``%`` over its Python
    floats (``tolist``) and written as it is formed, so no more than one
    row's text is held."""
    mat = np.atleast_2d(matrix)
    line = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in mat:
            fh.write(line % tuple(row.tolist()))


def write_log_error_csv(path, error_matrix) -> None:
    """log10 of entry magnitudes of the Gram error matrix (zero -> -inf)."""
    with np.errstate(divide="ignore"):
        write_matrix_csv(path, np.log10(np.abs(error_matrix)))


def write_condition_csv(path, cond_values) -> None:
    """One ``degree,cond`` row per degree, from 0."""
    cond = np.asarray(cond_values, dtype=float)
    write_matrix_csv(path, np.column_stack([np.arange(cond.size), cond]),
                     header="degree,cond")


def write_cc_csv(path, cc_rows) -> None:
    """One row per ``commuting_residuals`` tuple; the header alone when
    there are none (d = 1)."""
    write_matrix_csv(path, np.array(cc_rows, dtype=float).reshape(-1, 6),
                     header="degree,coord_i,coord_j,res1,res2,res3")


def write_christoffel_csv(path, points, kernel, christoffel_vals) -> None:
    pts = np.asarray(points)
    header = ",".join([f"x{k + 1}" for k in range(pts.shape[1])]
                      + ["kernel", "christoffel"])
    write_matrix_csv(path, np.column_stack([pts, kernel, christoffel_vals]),
                     header=header)
