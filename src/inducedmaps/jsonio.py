"""JSON file formats for matrices and ensembles.

A matrix file is ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with
entries row-major; an ensemble file is ``{"dimA": d, "dimE": f, "terms":
[{"p": w, "rhoA": <matrix>, "rhoE": <matrix>}, ...]}``.  Floats are
emitted in shortest round-trip decimal form, so write-then-read is
bit-exact for every finite double.
"""

import json
import os
from itertools import chain

import numpy as np

from .errors import SizeError, ValidationError
from .linalg import MAX_TENSOR_ROWS, as_matrix
from .states import MAX_TERMS, EnsembleTerm, SeparableEnsemble

# Ceiling on the size of a JSON input, in bytes (a pipe's is counted in
# characters, which are bytes for the ASCII that save_json writes).  It
# holds a 512x512 matrix as save_json writes it (16.3 MiB), and bounds the
# parse, which holds several times the text.
MAX_JSON_BYTES = 32 * 2**20


def complex_to_json(z) -> list[float]:
    """One complex scalar as a ``[re, im]`` pair."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(m) -> dict:
    """Matrix payload with row-major ``[re, im]`` entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"matrix payloads are 2-D, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
    }


def _json_int(obj: dict, key: str) -> int:
    """A field that must be a JSON integer (``bool`` is not one)."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"field {key!r} must be a JSON integer, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    """A JSON number (``int`` or ``float``, not ``bool`` or ``str``) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{what} is out of range for a double: {exc}") from exc


def matrix_from_json(obj) -> np.ndarray:
    """Parse and validate a matrix payload into a complex array.

    A side above ``MAX_TENSOR_ROWS`` raises :class:`SizeError` before the
    data is read or any array is allocated.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"matrix payload must be an object, got {type(obj).__name__}")
    try:
        rows, cols, data = _json_int(obj, "rows"), _json_int(obj, "cols"), obj["data"]
    except KeyError as exc:
        raise ValidationError(f"matrix payload missing field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if max(rows, cols) > MAX_TENSOR_ROWS:
        raise SizeError(
            f"matrix dimensions {rows}x{cols} exceed the ceiling {MAX_TENSOR_ROWS}"
        )
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValidationError(
            f"matrix data length {len(data) if isinstance(data, list) else 'n/a'} "
            f"does not equal rows*cols = {rows * cols}"
        )
    # Pairs of plain JSON numbers are converted in one call; anything else
    # (or a number out of range) goes through the loop below, which names
    # the first bad entry.
    if (
        set(map(type, data)) <= {list, tuple}
        and set(map(len, data)) == {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        try:
            parts = np.array(data, dtype=float)
        except OverflowError:
            pass
        else:
            return as_matrix(parts.view(complex).reshape(rows, cols))
    flat = np.empty(rows * cols, dtype=complex)
    for idx, pair in enumerate(data):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError(f"entry {idx} is not an [re, im] pair: {pair!r}")
        what = f"entry {idx}"
        flat[idx] = complex(_json_number(pair[0], what), _json_number(pair[1], what))
    return as_matrix(flat.reshape(rows, cols))


def ensemble_to_json(e: SeparableEnsemble) -> dict:
    """Ensemble payload mirroring the in-memory invariants."""
    return {
        "dimA": int(e.dim_a),
        "dimE": int(e.dim_e),
        "terms": [
            {
                "p": float(t.p),
                "rhoA": matrix_to_json(t.rho_a),
                "rhoE": matrix_to_json(t.rho_e),
            }
            for t in e.terms
        ],
    }


def ensemble_from_json(obj) -> SeparableEnsemble:
    """Parse an ensemble payload; construction re-validates every invariant.
    More than ``MAX_TERMS`` terms raise SizeError before any term is read."""
    if not isinstance(obj, dict):
        raise ValidationError(f"ensemble payload must be an object, got {type(obj).__name__}")
    try:
        dim_a, dim_e = _json_int(obj, "dimA"), _json_int(obj, "dimE")
        raw_terms = obj["terms"]
    except KeyError as exc:
        raise ValidationError(f"ensemble payload missing field: {exc}") from exc
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValidationError("ensemble payload needs a non-empty terms list")
    if len(raw_terms) > MAX_TERMS:
        raise SizeError(f"ensemble has {len(raw_terms)} terms, above the ceiling {MAX_TERMS}")
    terms = []
    for idx, t in enumerate(raw_terms):
        try:
            p = _json_number(t["p"], f"term {idx} weight")
            rho_a = matrix_from_json(t["rhoA"])
            rho_e = matrix_from_json(t["rhoE"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"term {idx} missing or malformed field: {exc}") from exc
        terms.append(EnsembleTerm(p, rho_a, rho_e))
    return SeparableEnsemble(dim_a, dim_e, tuple(terms))


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    """Parse a JSON file of at most ``MAX_JSON_BYTES``, else raise SizeError.

    A regular file above the ceiling is refused by its size, unread.  An
    input whose size reads 0, such as a pipe, is read at most one
    character past the ceiling, so it is never held whole either.  Text
    that is not UTF-8 or not JSON raises ValidationError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        # read(n) reserves n bytes up front, so only an input of unknown
        # size is read with the cap.
        try:
            if size > MAX_JSON_BYTES:
                text = ""
            elif size:
                text = fh.read()
            else:
                text = fh.read(MAX_JSON_BYTES + 1)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if max(size, len(text)) > MAX_JSON_BYTES:
        raise SizeError(f"{path}: JSON input exceeds the ceiling of {MAX_JSON_BYTES} bytes")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def save_matrix(path, m) -> None:
    save_json(path, matrix_to_json(m))


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(load_json(path))


def save_ensemble(path, e: SeparableEnsemble) -> None:
    save_json(path, ensemble_to_json(e))


def load_ensemble(path) -> SeparableEnsemble:
    return ensemble_from_json(load_json(path))


def load_state(path):
    """Load either file kind: ensembles carry a ``terms`` key, matrices don't.

    Returns ``("ensemble", SeparableEnsemble)`` or ``("matrix", ndarray)``.
    """
    obj = load_json(path)
    if isinstance(obj, dict) and "terms" in obj:
        return "ensemble", ensemble_from_json(obj)
    return "matrix", matrix_from_json(obj)
