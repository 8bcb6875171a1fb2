"""Command-line contract: exit codes, JSON reports, file outputs."""

import dataclasses
import inspect
import json
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import inducedmaps.cli as cli
import inducedmaps.discord as discord
import inducedmaps.states as states
from inducedmaps import (
    CLASS_CANDIDATE,
    CLASS_NON_POSITIVE,
    NO_VIOLATION_FOUND,
    CandidateReport,
    EnsembleTerm,
    PositivityProbe,
    SearchConfig,
    SeparableEnsemble,
    check_condition,
    haar_unitary,
    has_vqd,
    is_cp,
    probe_positivity,
)
from inducedmaps.cli import (
    EXIT_CONDITION_FAILS,
    EXIT_DIMENSION,
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from inducedmaps.jsonio import (
    MAX_JSON_BYTES,
    load_matrix,
    matrix_from_json,
    save_ensemble,
    save_matrix,
)
from inducedmaps.linalg import MAX_TENSOR_ROWS
from inducedmaps.presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
)

README = Path(__file__).resolve().parents[1] / "README.md"
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)
RHO_E_1 = np.diag([0.7, 0.3]).astype(complex)
RHO_E_2 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)


def reject_constant(token):
    raise ValueError(f"stdout is not strict JSON: {token}")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out
    payload = json.loads(out, parse_constant=reject_constant) if out.strip() else None
    return code, payload, captured.err


def write_ensemble(tmp_path, name, e):
    path = tmp_path / name
    save_ensemble(path, e)
    return str(path)


def overlapping_ensemble():
    return SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, ZERO, RHO_E_1), EnsembleTerm(0.5, PLUS, RHO_E_2))
    )


def cancelling_overlapping_ensemble():
    return SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(0.25, PLUS, RHO_E_1),
            EnsembleTerm(0.25, MINUS, RHO_E_1),
            EnsembleTerm(0.5, ZERO, RHO_E_2),
        ),
    )


def cancelling_masked_product():
    """``|a><a| / 3 + 2 |b><b| / 3`` with ``a ∝ (1, 1, 1)`` and
    ``b ∝ (1, 2, -1)``: the (0, 2) coherences cancel, leaving a product
    whose system factor has a zero entry inside its only block."""
    a = np.full(3, 1 / np.sqrt(3), dtype=complex)
    b = np.array([1, 2, -1], dtype=complex) / np.sqrt(6)
    terms = (EnsembleTerm(w, np.outer(v, v.conj()), RHO_E_1) for w, v in ((1 / 3, a), (2 / 3, b)))
    return SeparableEnsemble(3, 2, tuple(terms))


def cancelling_orthogonal_ensemble():
    return SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, PLUS, RHO_E_1), EnsembleTerm(0.5, MINUS, RHO_E_1))
    )


def command_files(tmp_path, command):
    """Input files that let ``command`` reach its flags' checks."""
    files = [write_ensemble(tmp_path, "e.json", four_block_ensemble())]
    if command == "induce":
        unitary, inp = tmp_path / "u.json", tmp_path / "in.json"
        save_matrix(unitary, np.eye(8, dtype=complex))
        save_matrix(inp, np.eye(4, dtype=complex) / 4.0)
        files += [str(unitary), str(inp)]
    return files


def fake_candidate():
    """A hand-built candidate record; its probe's floor keeps the -inf default."""
    return CandidateReport(
        unitary=np.eye(8, dtype=complex),
        choi_min_eig=-2e-6,
        shift_norm=0.0,
        positivity=PositivityProbe(NO_VIOLATION_FOUND, -3e-7, None),
        classification=CLASS_CANDIDATE,
        trial=3,
    )


def test_check_reports_holding_condition(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    code, payload, _ = run(capsys, ["check", path])
    assert code == EXIT_OK
    assert payload["sl_class"] == "SL"
    assert payload["condition"]["holds"] is True
    assert payload["condition"]["routes"] == ["RESCALED_PSD", "BLOCK_PROJECTOR"]
    assert payload["vqd"]["status"] == "VQD"
    assert payload["config"]["tol"] == 1e-9
    assert payload["config"]["seed"] == 0


def test_check_reports_failed_condition(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", overlapping_ensemble())
    code, payload, _ = run(capsys, ["check", path])
    assert code == EXIT_CONDITION_FAILS
    assert payload["condition"]["holds"] is False
    assert payload["condition"]["witnesses"]


def test_check_decides_blocked_rescaling_by_the_rescaled_state(tmp_path, capsys):
    # blocked rescaling is no verdict of its own: the rescaled state decides,
    # holding on this block-diagonal state and failing on a masked product
    path = write_ensemble(tmp_path, "e.json", cancelling_overlapping_ensemble())
    code, payload, _ = run(capsys, ["check", path])
    assert code == EXIT_OK
    assert payload["condition"]["routes"] == ["BLOCK_PROJECTOR"]
    assert payload["condition"]["rescaled_blocked"] == "CANCELLATION"
    path = write_ensemble(tmp_path, "e.json", cancelling_masked_product())
    code, payload, _ = run(capsys, ["check", path])
    assert code == EXIT_CONDITION_FAILS
    assert payload["condition"]["rescaled_blocked"] == "CANCELLATION"
    assert payload["condition"]["block_projector"] is False


def test_check_cancellation_with_orthogonal_supports_still_holds(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", cancelling_orthogonal_ensemble())
    code, payload, _ = run(capsys, ["check", path])
    assert code == EXIT_OK
    assert payload["condition"]["routes"] == ["BLOCK_PROJECTOR"]
    assert payload["condition"]["rescaled_blocked"] == "CANCELLATION"


@pytest.mark.parametrize("flag", ["--support-cutoff", "--ortho-tol"])
def test_check_takes_no_support_flags(tmp_path, capsys, flag):
    # the condition takes one tolerance: the support cutoff and the overlap
    # tolerance went with the support projectors
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    code, payload, err = run(capsys, ["check", path, flag, "1e-9"])
    assert (code, payload) == (EXIT_USAGE, None)
    assert flag in err


def test_induce_reports_reference_output(tmp_path, capsys):
    state = tmp_path / "bell.json"
    unitary = tmp_path / "u.json"
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    choi = tmp_path / "choi.json"
    save_matrix(state, bell_density())
    save_matrix(unitary, cnot())
    save_matrix(inp, np.diag([1.0, 0.0]).astype(complex))
    code, payload, _ = run(
        capsys,
        [
            "induce",
            str(state),
            str(unitary),
            str(inp),
            "--dim-a",
            "2",
            "--out",
            str(out),
            "--choi",
            str(choi),
        ],
    )
    assert code == EXIT_OK
    assert payload["sl_class"] == "NON_SL"
    assert payload["cp_status"] == "NOT_CP_AFFINE"
    assert payload["classification"] == CLASS_NON_POSITIVE
    assert payload["positivity"]["status"] == "VIOLATED"
    assert abs(payload["output_min_eig"] - (1.0 - np.sqrt(5.0)) / 4.0) < 1e-10
    target = 0.5 * np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.abs(matrix_from_json(payload["output"]) - target).max() < 1e-12
    assert np.abs(load_matrix(out) - target).max() < 1e-12
    assert load_matrix(choi).shape == (4, 4)
    assert payload["config"]["dim_a"] == 2


def test_induce_accepts_ensemble_states(tmp_path, capsys):
    state = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    unitary = tmp_path / "u.json"
    inp = tmp_path / "in.json"
    save_matrix(unitary, np.eye(8, dtype=complex))
    save_matrix(inp, np.eye(4, dtype=complex) / 4.0)
    code, payload, _ = run(capsys, ["induce", state, str(unitary), str(inp)])
    assert code == EXIT_OK
    assert payload["sl_class"] == "SL"
    assert payload["cp_status"] == "CP"
    assert abs(payload["output_trace"] - 1.0) < 1e-10


def test_induce_reports_choi_floor_of_cp_product_source(tmp_path, capsys):
    rng = np.random.default_rng(3)
    paths = [tmp_path / name for name in ("rho.json", "u.json", "in.json")]
    rho = np.kron(random_density(2, rng), random_density(3, rng))
    for path, matrix in zip(paths, [rho, haar_unitary(6, rng), random_density(2, rng)]):
        save_matrix(path, matrix)
    code, payload, _ = run(capsys, ["induce", *map(str, paths), "--dim-a", "2"])
    assert code == EXIT_OK
    assert payload["cp_status"] == "CP"
    probe = payload["positivity"]
    assert probe["status"] == NO_VIOLATION_FOUND
    assert probe["floor"] >= -payload["config"]["witness_tol"]
    assert probe["min_eig"] >= probe["floor"]
    assert probe["witness"] is None


@pytest.mark.parametrize("kind", ["matrix", "ensemble"])
def test_induce_validates_its_state_once(tmp_path, capsys, monkeypatch, kind):
    names = []
    real = states.validate_density_matrix

    def recorded(rho, name="rho"):
        names.append(name)
        return real(rho, name)

    monkeypatch.setattr(states, "validate_density_matrix", recorded)
    monkeypatch.setattr(cli, "validate_density_matrix", recorded)
    unitary, inp = tmp_path / "u.json", tmp_path / "in.json"
    if kind == "matrix":
        state = tmp_path / "bell.json"
        save_matrix(state, bell_density())
        argv = ["induce", str(state), str(unitary), str(inp), "--dim-a", "2"]
        save_matrix(unitary, cnot())
        save_matrix(inp, np.diag([1.0, 0.0]).astype(complex))
    else:
        state = write_ensemble(tmp_path, "e.json", four_block_ensemble())
        argv = ["induce", state, str(unitary), str(inp)]
        save_matrix(unitary, haar_unitary(8, 3))
        save_matrix(inp, np.eye(4, dtype=complex) / 4.0)
    code, _, _ = run(capsys, argv)
    assert code == EXIT_OK
    # the state once, then the input; loading the ensemble validates its
    # terms, not the assembled state
    state_name = "state" if kind == "matrix" else "rho_ae"
    assert [n for n in names if n in ("state", "rho_ae", "input")] == [state_name, "input"]


def test_induce_requires_dim_a_for_matrix_states(tmp_path, capsys):
    state = tmp_path / "bell.json"
    unitary = tmp_path / "u.json"
    inp = tmp_path / "in.json"
    save_matrix(state, bell_density())
    save_matrix(unitary, cnot())
    save_matrix(inp, np.diag([1.0, 0.0]).astype(complex))
    code, payload, err = run(capsys, ["induce", str(state), str(unitary), str(inp)])
    assert code == EXIT_USAGE
    assert "--dim-a" in err


def test_induce_exit_dimension_on_mismatched_unitary(tmp_path, capsys):
    state = tmp_path / "bell.json"
    unitary = tmp_path / "u.json"
    inp = tmp_path / "in.json"
    save_matrix(state, bell_density())
    save_matrix(unitary, np.eye(2, dtype=complex))
    save_matrix(inp, np.diag([1.0, 0.0]).astype(complex))
    code, _, err = run(
        capsys, ["induce", str(state), str(unitary), str(inp), "--dim-a", "2"]
    )
    assert code == EXIT_DIMENSION
    assert err


def test_induce_exit_dimension_on_an_input_of_the_wrong_dimension(tmp_path, capsys):
    paths = [tmp_path / name for name in ("bell.json", "u.json", "in.json")]
    for path, matrix in zip(paths, [bell_density(), cnot(), np.eye(3) / 3.0]):
        save_matrix(path, matrix)
    code, payload, err = run(capsys, ["induce", *map(str, paths), "--dim-a", "2"])
    assert (code, payload) == (EXIT_DIMENSION, None)
    assert err == "error: input shape (3, 3), expected (2, 2)\n"


@pytest.mark.parametrize(
    "inp", [np.diag([1.0, 0.0]), np.eye(3) / 3.0], ids=["valid-input", "wrong-dim-input"]
)
def test_induce_checks_the_unitary_before_the_input(tmp_path, capsys, inp):
    paths = [tmp_path / name for name in ("bell.json", "u.json", "in.json")]
    for path, matrix in zip(paths, [bell_density(), 2.0 * cnot(), inp]):
        save_matrix(path, matrix)
    code, payload, err = run(capsys, ["induce", *map(str, paths), "--dim-a", "2"])
    assert code == EXIT_USAGE
    assert payload is None
    assert "not unitary" in err


def test_induce_exit_dimension_on_indivisible_split(tmp_path, capsys):
    state = tmp_path / "bell.json"
    unitary = tmp_path / "u.json"
    inp = tmp_path / "in.json"
    save_matrix(state, bell_density())
    save_matrix(unitary, cnot())
    save_matrix(inp, np.diag([1.0, 0.0]).astype(complex))
    code, _, _ = run(
        capsys, ["induce", str(state), str(unitary), str(inp), "--dim-a", "3"]
    )
    assert code == EXIT_DIMENSION


def test_discord_exit_dimension_on_oversized_matrix_file(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rows": MAX_TENSOR_ROWS + 1, "cols": 1, "data": []}))
    code, payload, err = run(capsys, ["discord", str(path), "--dim-a", "2"])
    assert code == EXIT_DIMENSION
    assert payload is None
    assert "ceiling" in err


def test_discord_exit_dimension_on_an_oversized_file_without_parsing_it(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    with open(path, "wb") as fh:
        fh.truncate(MAX_JSON_BYTES + 1)
    tracemalloc.start()
    try:
        code, payload, err = run(capsys, ["discord", str(path), "--dim-a", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_DIMENSION
    assert payload is None
    assert "ceiling" in err
    # refused by its size: nothing near the file's size was read or parsed
    assert peak < MAX_JSON_BYTES // 100


@pytest.mark.parametrize("command", ["check", "hunt"])
def test_ensemble_commands_exit_dimension_above_the_term_ceiling(tmp_path, capsys, command):
    n = states.MAX_TERMS + 1
    one = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}
    path = tmp_path / "many.json"
    terms = [{"p": 1 / n, "rhoA": one, "rhoE": one}] * n
    path.write_text(json.dumps({"dimA": 1, "dimE": 1, "terms": terms}))
    code, payload, err = run(capsys, [command, str(path)])
    assert code == EXIT_DIMENSION
    assert payload is None
    assert f"{n} terms, above the ceiling" in err


def test_induce_diagonalises_the_choi_matrix_once(tmp_path, capsys, monkeypatch):
    # a 2x3 source: its 6x6 state check is not Choi-shaped (4x4)
    rng = np.random.default_rng(3)
    paths = [tmp_path / name for name in ("rho.json", "u.json", "in.json")]
    rho = np.kron(random_density(2, rng), random_density(3, rng))
    for path, matrix in zip(paths, [rho, haar_unitary(6, rng), random_density(2, rng)]):
        save_matrix(path, matrix)
    shapes = []

    def counted(a, *args, _real=np.linalg.eigvalsh, **kwargs):
        shapes.append(np.shape(a))
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, _, _ = run(capsys, ["induce", *map(str, paths), "--dim-a", "2"])
    assert code == EXIT_OK
    assert [s for s in shapes if s[-2:] == (4, 4)] == [(1, 4, 4)]


def test_discord_exit_ok_on_discord_free_ensembles(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    code, payload, _ = run(capsys, ["discord", path])
    assert code == EXIT_OK
    assert payload["status"] == "VQD"
    assert payload["basis"] is not None
    assert payload["config"]["dim_a"] == 4


@pytest.mark.parametrize("command", ["discord", "induce"])
def test_ensemble_states_reject_a_conflicting_dim_a(tmp_path, capsys, command):
    argv = [command, write_ensemble(tmp_path, "e.json", overlapping_ensemble())]
    if command == "induce":
        for name, matrix in (("u.json", cnot()), ("in.json", ZERO)):
            save_matrix(tmp_path / name, matrix)
            argv.append(str(tmp_path / name))
    code, payload, err = run(capsys, [*argv, "--dim-a", "3"])
    assert (code, payload) == (EXIT_DIMENSION, None)
    assert err == "error: --dim-a 3 does not match the ensemble's dimA 2\n"
    # the file's own dimA reads as no flag at all
    assert run(capsys, [*argv, "--dim-a", "2"]) == run(capsys, argv)


def test_discord_reports_an_overflowing_deviation_on_one_stderr_line(tmp_path, capsys):
    # finite entries whose m - m† overflows: the error line, no numpy warning
    path = tmp_path / "huge.json"
    save_matrix(path, np.array([[1e308, -1e308], [1e308, 1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run(capsys, ["discord", str(path), "--dim-a", "1"])
    assert (code, payload) == (EXIT_USAGE, None)
    assert err == "error: state deviates from Hermitian by inf, above 1.000e-09\n"


def recorded_validations(monkeypatch):
    """Names of every validate_density_matrix call, in order."""
    names = []
    real = states.validate_density_matrix

    def recorded(rho, name="rho"):
        names.append(name)
        return real(rho, name)

    for module in (states, discord, cli):
        monkeypatch.setattr(module, "validate_density_matrix", recorded)
    return names


@pytest.mark.parametrize("kind", ["matrix", "ensemble"])
def test_discord_validates_its_state_once(tmp_path, capsys, monkeypatch, kind):
    if kind == "matrix":
        path = tmp_path / "rho.json"
        save_matrix(path, np.kron(random_density(2, 4), random_density(3, 5)))
        argv = ["discord", str(path), "--dim-a", "2"]
    else:
        argv = ["discord", write_ensemble(tmp_path, "e.json", four_block_ensemble())]
    names = recorded_validations(monkeypatch)
    code, _, _ = run(capsys, argv)
    assert code == EXIT_OK
    # loading an ensemble validates its terms, not the assembled state
    state_name = "state" if kind == "matrix" else "rho_ae"
    assert [n for n in names if n in ("state", "rho_ae")] == [state_name]


def test_check_validates_the_ensemble_state_once(tmp_path, capsys, monkeypatch):
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    names = recorded_validations(monkeypatch)
    code, _, _ = run(capsys, ["check", path])
    assert code == EXIT_OK
    assert [n for n in names if n in ("state", "rho_ae")] == ["rho_ae"]


def test_discord_exit_condition_fails_on_entangled_states(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_matrix(path, bell_density())
    code, payload, _ = run(capsys, ["discord", str(path), "--dim-a", "2"])
    assert code == EXIT_CONDITION_FAILS
    assert payload["status"] == "NONZERO"


def test_discord_exit_ok_on_near_gap_classical_quantum_state(tmp_path, capsys):
    # weights 0.5 ± 1e-8 in a Haar basis B and a 5e-10 coherence between
    # B's vectors: pinching in B stays within tolerance, though the
    # marginal's eigenbasis is turned away from B
    b = haar_unitary(2, 3)
    taus = [ZERO, np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)]
    rho = sum(
        w * np.kron(np.outer(b[:, k], b[:, k].conj()), tau)
        for k, (w, tau) in enumerate(zip([0.5 + 1e-8, 0.5 - 1e-8], taus))
    )
    coherence = np.outer(b[:, 0], b[:, 1].conj())
    rho = rho + 5e-10 * np.kron(coherence + coherence.conj().T, np.eye(2) / 2.0)
    path = tmp_path / "near_gap.json"
    save_matrix(path, rho)
    code, payload, _ = run(capsys, ["discord", str(path), "--dim-a", "2"])
    assert code == EXIT_OK
    assert payload["status"] == "VQD"
    assert payload["residual"] <= 1e-9


def test_discord_exit_indeterminate_on_weak_coherence(tmp_path, capsys):
    eps = 1e-5
    rho = eps * bell_density() + (1.0 - eps) * np.eye(4, dtype=complex) / 4.0
    path = tmp_path / "weak.json"
    save_matrix(path, rho)
    code, payload, _ = run(capsys, ["discord", str(path), "--dim-a", "2"])
    assert code == EXIT_INDETERMINATE
    assert payload["status"] == "INDETERMINATE"


def test_hunt_reports_theorem_precondition(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", overlapping_ensemble())
    code, payload, _ = run(capsys, ["hunt", path, "--trials", "2", "--budget", "20"])
    assert code == EXIT_CONDITION_FAILS
    assert payload["error"]["code"] == "PRECONDITION_THEOREM"
    assert payload["config"]["trials"] == 2


def test_hunt_reports_vqd_precondition(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    code, payload, _ = run(capsys, ["hunt", path, "--trials", "2", "--budget", "20"])
    assert code == EXIT_CONDITION_FAILS
    assert payload["error"]["code"] == "PRECONDITION_VQD"
    assert "vanishing discord" in payload["error"]["message"]


def test_zero_tolerance_gates_accept_rounding_in_the_rescaled_matrices(tmp_path, capsys):
    # The rescaled matrices of this source deviate from Hermitian by
    # rounding (1.6e-33), which a gate at tol = 0 without the Hermiticity
    # floor rejected with exit code 64; its rescaled state's smallest
    # eigenvalue is rounding too (-2.2e-16), under the same floor.
    e = random_coherent_block_ensemble(np.random.default_rng(0))
    path = write_ensemble(tmp_path, "e.json", e)
    code, payload, err = run(capsys, ["check", path, "--tol", "0"])
    assert (code, err) == (EXIT_OK, "")
    assert payload["condition"]["routes"] == ["RESCALED_PSD", "BLOCK_PROJECTOR"]
    assert payload["condition"]["witnesses"] == []
    code, payload, err = run(capsys, ["hunt", path, "--condition-tol", "0"])
    assert (code, err) == (EXIT_CONDITION_FAILS, "")
    assert payload["error"]["code"] == "PRECONDITION_VQD"


def default_of(function, name):
    return inspect.signature(function).parameters[name].default


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    hunt = vars(parser.parse_args(["hunt", "e.json"]))
    assert {name: hunt[name] for name in dataclasses.asdict(SearchConfig())} == (
        dataclasses.asdict(SearchConfig())
    )
    check = parser.parse_args(["check", "e.json"])
    assert check.tol == default_of(check_condition, "tol")
    assert check.vqd_tol == default_of(has_vqd, "tol")
    induce = parser.parse_args(["induce", "s.json", "u.json", "i.json"])
    assert induce.cp_tol == default_of(is_cp, "tol")
    assert (induce.budget, induce.witness_tol) == (
        default_of(probe_positivity, "budget"),
        default_of(probe_positivity, "tol"),
    )
    assert parser.parse_args(["discord", "s.json"]).tol == default_of(has_vqd, "tol")


def test_hunt_reports_candidates_when_search_runs(tmp_path, capsys, monkeypatch):
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    monkeypatch.setattr(cli, "hunt", lambda e, cfg: (fake_candidate(),))
    code, payload, _ = run(capsys, ["hunt", path, "--trials", "10"])
    assert code == EXIT_OK
    assert payload["count"] == 1
    candidate = payload["candidates"][0]
    assert candidate["trial"] == 3
    assert candidate["classification"] == CLASS_CANDIDATE
    assert candidate["choi_min_eig"] == -2e-6
    assert candidate["positivity"]["witness"] is None
    # the hand-built probe's floor is -inf, which strict JSON spells null
    assert candidate["positivity"]["floor"] is None
    assert matrix_from_json(candidate["unitary"]).shape == (8, 8)
    assert payload["config"]["family"] == "HAAR"


def test_hunt_usage_error_on_bad_config(tmp_path, capsys):
    path = write_ensemble(tmp_path, "e.json", four_block_ensemble())
    code, _, err = run(capsys, ["hunt", path, "--trials", "0"])
    assert code == EXIT_USAGE
    assert "trials" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--params", "1", "2", "3"], "no other family takes them"),
        (["--family", "GENERATOR", "--params", *["nan"] * 16], "params must be finite"),
        (["--family", "GENERATOR", "--params", *["1e308"] * 16], "magnitude at most 2**52"),
    ],
    ids=["haar", "non-finite", "overflowing"],
)
def test_hunt_rejects_params_it_cannot_use(tmp_path, capsys, flags, message):
    # the overlapping ensemble passes the condition at --condition-tol 1 and
    # carries discord, so only the config stands between it and the search
    path = write_ensemble(tmp_path, "e.json", overlapping_ensemble())
    argv = ["hunt", path, "--condition-tol", "1", "--trials", "1", "--budget", "5", *flags]
    code, payload, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert payload is None
    assert message in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("check", "--tol"),
        ("check", "--vqd-tol"),
        ("induce", "--cp-tol"),
        ("induce", "--witness-tol"),
        ("discord", "--tol"),
        ("hunt", "--cp-tol"),
        ("hunt", "--witness-tol"),
        ("hunt", "--condition-tol"),
        ("hunt", "--vqd-tol"),
        ("hunt", "--candidate-threshold"),
    ],
)
def test_tolerance_flags_reject_negative_and_non_finite_values(
    tmp_path, capsys, command, flag, value
):
    files = command_files(tmp_path, command)
    code, payload, err = run(capsys, [command, *files, flag, value])
    assert code == EXIT_USAGE
    assert payload is None
    assert flag in err and "finite number >= 0" in err


@pytest.mark.parametrize("command", ["check", "induce", "discord", "hunt"])
def test_seed_flags_reject_negative_values(tmp_path, capsys, command):
    files = command_files(tmp_path, command)
    code, payload, err = run(capsys, [command, *files, "--seed", "-1"])
    assert code == EXIT_USAGE
    assert payload is None
    assert "--seed" in err and ">= 0" in err


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("induce", "--budget", "0", "budget must be >= 1, got 0"),
        ("induce", "--budget", "x", "invalid int value: 'x'"),
        ("induce", "--seed", "-1", "seed must be >= 0, got -1"),
        ("hunt", "--budget", "0", "budget must be >= 1, got 0"),
        ("hunt", "--budget", "x", "invalid int value: 'x'"),
        ("check", "--tol", "x", "invalid float value: 'x'"),
        ("hunt", "--trials", "0", "trials must be >= 1, got 0"),
        ("discord", "--dim-a", "-2", "dim_a must be >= 1, got -2"),
        ("induce", "--dim-a", "0", "dim_a must be >= 1, got 0"),
        (
            "hunt --family GENERATOR",
            "--params",
            "nan",
            "params must be finite numbers of magnitude at most 2**52, got nan",
        ),
        ("repro example-4xf", "--p1", "1.0", "p1 must lie strictly between 0 and 1, got 1.0"),
    ],
)
def test_flag_errors_name_the_flag(tmp_path, capsys, command, flag, value, message):
    # A bad flag is refused while parsing, before any file is read, so no
    # input file exists; repro takes a fixture name instead.
    name, *extra = command.split()
    missing = str(tmp_path / "missing.json")
    files = {"repro": [], "induce": [missing] * 3}.get(name, [missing])
    code, payload, err = run(capsys, [name, *files, *extra, flag, value])
    assert code == EXIT_USAGE
    assert payload is None
    assert f"argument {flag}: {message}" in err


MATRIX = {"rows": None, "cols": None, "data": None}
SEARCH_CONFIG = dict.fromkeys(
    [
        "family",
        "params",
        "trials",
        "positivity_budget",
        "seed",
        "cp_tol",
        "witness_tol",
        "condition_tol",
        "vqd_tol",
        "candidate_threshold",
    ]
)


def key_tree(value):
    """Nested key sets of a JSON value: objects map each key to its own
    tree, lists holding objects list their trees, anything else is None."""
    if isinstance(value, dict):
        return {k: key_tree(v) for k, v in value.items()}
    if isinstance(value, list) and any(isinstance(v, dict) for v in value):
        return [key_tree(v) for v in value]
    return None


def check_argv(tmp_path, monkeypatch):
    return ["check", write_ensemble(tmp_path, "e.json", four_block_ensemble())]


def induce_argv(tmp_path, monkeypatch):
    paths = [tmp_path / name for name in ("bell.json", "u.json", "in.json")]
    for path, matrix in zip(paths, [bell_density(), cnot(), ZERO]):
        save_matrix(path, matrix)
    return ["induce", *map(str, paths), "--dim-a", "2"]


def discord_argv(tmp_path, monkeypatch):
    return ["discord", write_ensemble(tmp_path, "e.json", four_block_ensemble())]


def hunt_precondition_argv(tmp_path, monkeypatch):
    path = write_ensemble(tmp_path, "e.json", overlapping_ensemble())
    return ["hunt", path, "--trials", "2", "--budget", "20"]


def hunt_candidates_argv(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "hunt", lambda e, cfg: (fake_candidate(),))
    return ["hunt", write_ensemble(tmp_path, "e.json", four_block_ensemble())]


REPORT_KEYS = {
    "check": (
        check_argv,
        {
            "sl_class": None,
            "condition": dict.fromkeys(
                [
                    "holds",
                    "route",
                    "routes",
                    "rescaled_psd",
                    "rescaled_blocked",
                    "block_projector",
                    "witnesses",
                ]
            ),
            "vqd": {"status": None, "residual": None, "basis": MATRIX},
            "config": dict.fromkeys(["tol", "vqd_tol", "seed"]),
        },
    ),
    "induce": (
        induce_argv,
        {
            "sl_class": None,
            "output": MATRIX,
            "output_min_eig": None,
            "output_trace": None,
            "choi_min_eig": None,
            "shift_norm": None,
            "cp_status": None,
            "positivity": {"status": None, "min_eig": None, "floor": None, "witness": MATRIX},
            "classification": None,
            "config": dict.fromkeys(
                ["dim_a", "dim_e", "budget", "seed", "cp_tol", "witness_tol"]
            ),
        },
    ),
    "discord": (
        discord_argv,
        {
            "status": None,
            "residual": None,
            "basis": MATRIX,
            "config": dict.fromkeys(["dim_a", "dim_e", "tol", "seed"]),
        },
    ),
    "hunt-precondition": (
        hunt_precondition_argv,
        {"error": {"code": None, "message": None}, "config": SEARCH_CONFIG},
    ),
    "hunt-candidates": (
        hunt_candidates_argv,
        {
            "count": None,
            "candidates": [
                {
                    "trial": None,
                    "choi_min_eig": None,
                    "shift_norm": None,
                    "classification": None,
                    "positivity": dict.fromkeys(["status", "min_eig", "floor", "witness"]),
                    "unitary": MATRIX,
                }
            ],
            "config": SEARCH_CONFIG,
        },
    ),
    "repro-example-4xf": (
        lambda tmp_path, monkeypatch: ["repro", "example-4xf"],
        {
            "name": None,
            "rescaled": [MATRIX, MATRIX],
            "expected_block_values": None,
            "entry_deviation": None,
            "min_eigs": None,
            "checks": {"block_entries_match": None, "all_psd": None},
            "status": None,
            "config": {"p1": None},
        },
    ),
    "repro-bell-cnot": (
        lambda tmp_path, monkeypatch: ["repro", "bell-cnot"],
        {
            "name": None,
            "output": MATRIX,
            "entry_deviation": None,
            "min_eig": None,
            "expected_min_eig": None,
            "checks": {"output_matches": None, "min_eig_matches": None},
            "status": None,
            "config": {},
        },
    ),
}


@pytest.mark.parametrize("report", list(REPORT_KEYS))
def test_reports_have_exactly_their_keys_at_every_level(tmp_path, capsys, monkeypatch, report):
    make_argv, expected = REPORT_KEYS[report]
    _, payload, _ = run(capsys, make_argv(tmp_path, monkeypatch))
    assert key_tree(payload) == expected


def test_repro_flat_blocks_passes(tmp_path, capsys):
    code, payload, _ = run(capsys, ["repro", "example-4xf"])
    assert code == EXIT_OK
    assert payload["status"] == "PASS"
    assert payload["checks"]["block_entries_match"] is True
    assert payload["expected_block_values"] == [2.0, 2.0]


def test_repro_flat_blocks_accepts_other_weights(capsys):
    code, payload, _ = run(capsys, ["repro", "example-4xf", "--p1", "0.25"])
    assert code == EXIT_OK
    assert payload["expected_block_values"] == [4.0, 4.0 / 3.0]


def test_repro_flat_blocks_rejects_boundary_weights(capsys):
    code, _, err = run(capsys, ["repro", "example-4xf", "--p1", "1.0"])
    assert code == EXIT_USAGE
    assert "--p1" in err


def test_repro_bell_output_passes(capsys):
    code, payload, _ = run(capsys, ["repro", "bell-cnot"])
    assert code == EXIT_OK
    assert payload["status"] == "PASS"
    assert payload["checks"]["output_matches"] is True
    assert payload["checks"]["min_eig_matches"] is True


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == EXIT_USAGE
    assert err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == EXIT_USAGE


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == EXIT_USAGE
    assert err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, ["check", str(path)])
    assert code == EXIT_USAGE


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "inducedmaps", "repro", "bell-cnot"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "PASS"


def test_readme_command_lines_parse():
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("inducedmaps ")]
    assert lines
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
