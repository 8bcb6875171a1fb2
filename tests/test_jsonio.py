"""JSON wire formats: bit-exact round trips and validation."""

import json
import os

import numpy as np
import pytest

import inducedmaps.jsonio as jsonio

from inducedmaps import SeparableEnsemble, SizeError, ValidationError
from inducedmaps.jsonio import (
    complex_to_json,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    load_json,
    load_matrix,
    load_state,
    matrix_from_json,
    matrix_to_json,
    save_ensemble,
    save_json,
    save_matrix,
)
from inducedmaps.linalg import MAX_TENSOR_ROWS
from inducedmaps.states import MAX_TERMS
from inducedmaps.presets import four_block_ensemble

AWKWARD = np.array(
    [
        [0.1 + 0.2j, 1.0 / 3.0, -0.0 + 0.0j],
        [5e-324 + 1e308j, np.pi - 2j, 1e-17 + 0.3j],
    ],
    dtype=complex,
)


def test_complex_to_json_splits_parts():
    assert complex_to_json(1.5 - 2.25j) == [1.5, -2.25]


def test_matrix_payload_round_trip_is_bit_exact():
    payload = matrix_to_json(AWKWARD)
    assert payload["rows"] == 2 and payload["cols"] == 3
    assert len(payload["data"]) == 6
    # through an actual JSON text serialization, not just the dict
    back = matrix_from_json(json.loads(json.dumps(payload)))
    assert back.tobytes() == AWKWARD.tobytes()


def test_matrix_file_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, AWKWARD)
    assert load_matrix(path).tobytes() == AWKWARD.tobytes()


def test_save_json_emits_sorted_stable_text(tmp_path):
    path = tmp_path / "payload.json"
    save_json(path, {"b": 1, "a": [2, 3]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [2, 3]}


def test_matrix_payload_validation_errors():
    good = matrix_to_json(np.eye(2))
    for broken in (
        "not a dict",
        {},
        {**good, "rows": 0},
        {**good, "data": good["data"][:-1]},
        {**good, "data": good["data"][:-1] + [[1.0]]},
        {**good, "data": good["data"][:-1] + ["x"]},
        {"rows": 2.9, "cols": True, "data": [[1, 0], [0, 0]]},
        {**good, "rows": "2"},
        {**good, "cols": 2.0},
        {**good, "rows": True, "cols": 4},
        {**good, "data": good["data"][:-1] + [[True, False]]},
        {**good, "data": good["data"][:-1] + [["1e-3", 0]]},
        {**good, "data": good["data"][:-1] + [[None, 0]]},
        {**good, "data": good["data"][:-1] + [[10**400, 0]]},
    ):
        with pytest.raises(ValidationError):
            matrix_from_json(broken)


def large_matrix(rng, side=64):
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    m.reshape(-1)[: AWKWARD.size] = AWKWARD.reshape(-1)
    return m


def test_large_matrix_payload_matches_the_per_entry_form_bit_for_bit():
    m = large_matrix(np.random.default_rng(21))
    payload = matrix_to_json(m)
    per_entry = {**payload, "data": [complex_to_json(z) for z in m.reshape(-1)]}
    # the text tells -0.0 from 0.0, which list equality does not
    assert json.dumps(payload) == json.dumps(per_entry)
    assert matrix_from_json(json.loads(json.dumps(payload))).tobytes() == m.tobytes()
    # integers, tuples and huge integers convert as float() does
    ints = [(k, -k) for k in range(4095)] + [[2**64 + 1, 10**308]]
    want = np.array([complex(float(a), float(b)) for a, b in ints]).reshape(64, 64)
    got = matrix_from_json({"rows": 64, "cols": 64, "data": ints})
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "last",
    [
        [1.0],
        [1.0, 0.0, 0.0],
        "x",
        [True, False],
        [1.0, True],
        ["1e-3", 0],
        [None, 0],
        [10**400, 0],
        [0, 10**400],
    ],
)
def test_large_matrix_payload_names_its_bad_last_entry(last):
    payload = matrix_to_json(large_matrix(np.random.default_rng(22)))
    payload["data"][-1] = last
    with pytest.raises(ValidationError, match="^entry 4095 "):
        matrix_from_json(payload)
    payload["data"][-1] = [float("nan"), 0.0]
    with pytest.raises(ValidationError, match="non-finite"):
        matrix_from_json(payload)


def test_matrix_payload_rejects_non_finite_entries():
    with pytest.raises(ValidationError):
        matrix_from_json(
            {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
        )
    with pytest.raises(ValidationError):
        matrix_from_json(
            {"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]}
        )


@pytest.mark.parametrize(
    "rows, cols", [(MAX_TENSOR_ROWS + 1, 1), (1, MAX_TENSOR_ROWS + 1), (10**12, 10**12)]
)
def test_matrix_payload_rejects_oversized_dimensions_before_reading_data(rows, cols):
    # The data is empty, so a length check would also fail, as a
    # ValidationError; the size ceiling must be checked first.
    with pytest.raises(SizeError, match="ceiling"):
        matrix_from_json({"rows": rows, "cols": cols, "data": []})


def test_ensemble_round_trip_preserves_terms(tmp_path):
    e = four_block_ensemble(0.37)
    payload = ensemble_to_json(e)
    back = ensemble_from_json(json.loads(json.dumps(payload)))
    assert back.dim_a == e.dim_a and back.dim_e == e.dim_e
    assert len(back.terms) == len(e.terms)
    for orig, loaded in zip(e.terms, back.terms):
        assert loaded.p == orig.p
        assert loaded.rho_a.tobytes() == orig.rho_a.tobytes()
        assert loaded.rho_e.tobytes() == orig.rho_e.tobytes()
    path = tmp_path / "e.json"
    save_ensemble(path, e)
    assert isinstance(load_ensemble(path), SeparableEnsemble)


def test_ensemble_payload_validation_errors():
    good = ensemble_to_json(four_block_ensemble())
    for broken in (
        [],
        {},
        {**good, "terms": []},
        {**good, "terms": [{"p": 1.0}]},
        {**good, "dimA": 4.0},
        {**good, "dimE": "2"},
        {**good, "dimA": True},
        {**good, "terms": [{**t, "p": str(t["p"])} for t in good["terms"]]},
        {**good, "terms": [{**good["terms"][0], "p": True}]},
    ):
        with pytest.raises(ValidationError):
            ensemble_from_json(broken)
    # weights re-validated on reconstruction
    bad_weights = json.loads(json.dumps(good))
    bad_weights["terms"][0]["p"] = 0.9
    with pytest.raises(ValidationError):
        ensemble_from_json(bad_weights)


def test_ensemble_payload_rejects_too_many_terms_before_reading_them():
    # The terms are empty objects, which would raise ValidationError; the
    # term ceiling must be checked first.
    payload = {"dimA": 1, "dimE": 1, "terms": [{}] * (MAX_TERMS + 1)}
    with pytest.raises(SizeError, match="above the ceiling"):
        ensemble_from_json(payload)


def test_load_state_distinguishes_payload_kinds(tmp_path):
    epath = tmp_path / "ensemble.json"
    mpath = tmp_path / "matrix.json"
    save_ensemble(epath, four_block_ensemble())
    save_matrix(mpath, np.eye(2) / 2.0)
    kind, state = load_state(epath)
    assert kind == "ensemble" and isinstance(state, SeparableEnsemble)
    kind, state = load_state(mpath)
    assert kind == "matrix" and isinstance(state, np.ndarray)


def test_load_json_rejects_malformed_text(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_json(path)


def test_load_json_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ValidationError, match="UTF-8"):
        load_json(path)


@pytest.mark.parametrize("extra", [0, 1, 40_000])
def test_load_json_caps_what_it_reads_from_a_pipe(monkeypatch, extra):
    # a pipe reports size 0, so only the capped read can refuse it; the
    # text fits in the pipe's buffer, so nothing blocks
    monkeypatch.setattr(jsonio, "MAX_JSON_BYTES", 64)
    text = "[" + " " * (62 + extra) + "]"
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        path = f"/dev/fd/{r}"
        if extra:
            with pytest.raises(SizeError, match="ceiling"):
                load_json(path)
            if extra > 1000:
                # it stopped reading near the ceiling: the pipe was not drained
                assert len(os.read(r, len(text))) > extra // 2
        else:
            assert load_json(path) == []
    finally:
        os.close(r)


def test_load_json_takes_a_file_at_the_ceiling(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonio, "MAX_JSON_BYTES", 64)
    path = tmp_path / "edge.json"
    path.write_text("[" + " " * 62 + "]")
    assert load_json(path) == []
    path.write_text("[" + " " * 63 + "]")
    with pytest.raises(SizeError, match="ceiling"):
        load_json(path)
