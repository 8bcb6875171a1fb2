"""Command-line front end.

Subcommands cover the full pipeline: ``check`` evaluates the
block-support condition and the discord verdict of an ensemble file,
``induce`` builds and applies the map of a state/unitary pair, ``discord``
runs the vanishing-discord test alone, ``hunt`` searches unitaries for
positive-but-not-CP candidates, and ``repro`` regenerates the two built-in
reference fixtures and asserts their pinned values.

Every report is JSON on stdout with the effective configuration echoed
under ``"config"``; a library record in a report prints as its fields
(:func:`_plain`).  Exit codes are a stable contract: 0 success (or
condition/VQD holds), 2 condition fails (including search precondition
rejections and failed repro assertions), 3 indeterminate (``discord``
only), 64 usage, I/O, or validation errors, 65 dimension mismatches.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .discord import NONZERO, VQD, discord_verdict
from .errors import (
    PreconditionTheoremError,
    PreconditionVqdError,
    ShapeError,
    ValidationError,
)
from .jsonio import load_ensemble, load_matrix, load_state, matrix_to_json, save_matrix
from .linalg import (
    DEFAULT_TOL,
    MAX_TENSOR_ROWS,
    check_count,
    check_hermitian,
    check_seed,
    check_tolerance,
    hermitian_eigen,
)
from .maps import DEFAULT_BUDGET, MAX_BUDGET, choi_matrix, induce, probe_stack
from .presets import bell_density, check_weight, cnot, four_block_ensemble
from .search import (
    GENERATOR,
    HAAR,
    MAX_TRIALS,
    SearchConfig,
    check_param,
    classification_label,
    hunt,
)
from .states import (
    check_condition,
    classify_sl,
    decompose_blocks,
    rescaled_matrices,
    split_blocks,
    validate_density_matrix,
)

EXIT_OK = 0
EXIT_CONDITION_FAILS = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64
EXIT_DIMENSION = 65

# Error code reported for each search precondition rejection.
_PRECONDITION_CODES = {
    PreconditionTheoremError: "PRECONDITION_THEOREM",
    PreconditionVqdError: "PRECONDITION_VQD",
}


class _UsageError(Exception):
    """Raised in place of argparse's SystemExit so main() can map it to 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _flag(parse, check):
    """argparse type for a flag that ``parse`` reads and the library's
    ``check`` admits; argparse names the flag when either one fails."""

    def convert(text: str):
        value = parse(text)
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    # argparse reports a ValueError from parse as "invalid <name> value".
    convert.__name__ = parse.__name__
    return convert


def _plain(value):
    """Strict-JSON report values: records as ``{field: value}``, arrays as
    matrix payloads, NaN and ±inf as null."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # getattr, not dataclasses.asdict: asdict deep-copies every array.
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return matrix_to_json(value)
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return [_plain(z.real), _plain(z.imag)]
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _print_report(payload: dict) -> None:
    print(json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False))


def _state_with_dims(path, dim_a_flag):
    """Load a state file as ``(rho, dim_a, dim_e)`` with ``rho`` validated once.

    A matrix is validated as ``state`` and needs --dim-a to fix the tensor
    split; an ensemble's assembled state is validated as ``rho_ae``, and a
    --dim-a other than its ``dimA`` raises ShapeError.
    """
    kind, state = load_state(path)
    if kind == "ensemble":
        if dim_a_flag not in (None, state.dim_a):
            raise ShapeError(
                f"--dim-a {dim_a_flag} does not match the ensemble's dimA {state.dim_a}"
            )
        return validate_density_matrix(state.state, name="rho_ae"), state.dim_a, state.dim_e
    rho = validate_density_matrix(state, name="state")
    n = rho.shape[0]
    if dim_a_flag is None:
        raise ValidationError("matrix state files need --dim-a to fix the system dimension")
    if n % dim_a_flag != 0:
        raise ShapeError(f"state dimension {n} does not split as {dim_a_flag} x E")
    return rho, dim_a_flag, n // dim_a_flag


def _cmd_check(args) -> int:
    e = load_ensemble(args.ensemble)
    report = check_condition(e, tol=args.tol)
    # check_condition validated e.state when it read e.decomposition.
    verdict = discord_verdict(e.state, e.dim_a, e.dim_e, args.vqd_tol)
    condition = _plain(report)
    _print_report(
        {
            "sl_class": condition.pop("sl_class"),
            "condition": condition,
            "vqd": verdict,
            "config": {
                "tol": args.tol,
                "vqd_tol": args.vqd_tol,
                "seed": args.seed,
            },
        }
    )
    return EXIT_OK if report.holds else EXIT_CONDITION_FAILS


def _cmd_induce(args) -> int:
    rho, dim_a, dim_e = _state_with_dims(args.state, args.dim_a)
    d = split_blocks(rho, dim_a, dim_e)
    m = induce(d, load_matrix(args.unitary))
    out = m.apply(validate_density_matrix(load_matrix(args.input), name="input"))
    (verdict,), (probe,) = probe_stack(
        m.images[None], m.shift[None], args.cp_tol, [args.seed], args.budget, args.witness_tol
    )
    out_eigs = hermitian_eigen(out).eigenvalues
    if args.out:
        save_matrix(args.out, out)
    if args.choi:
        save_matrix(args.choi, choi_matrix(m))
    _print_report(
        {
            "sl_class": classify_sl(d),
            "output": out,
            "output_min_eig": float(out_eigs[0]),
            "output_trace": float(np.trace(out).real),
            "choi_min_eig": verdict.choi_min_eig,
            "shift_norm": verdict.shift_norm,
            "cp_status": verdict.status,
            "positivity": probe,
            "classification": classification_label(verdict, probe),
            "config": {
                "dim_a": dim_a,
                "dim_e": dim_e,
                "budget": args.budget,
                "seed": args.seed,
                "cp_tol": args.cp_tol,
                "witness_tol": args.witness_tol,
            },
        }
    )
    return EXIT_OK


def _cmd_discord(args) -> int:
    rho, dim_a, dim_e = _state_with_dims(args.state, args.dim_a)
    verdict = discord_verdict(rho, dim_a, dim_e, args.tol)
    config = {"dim_a": dim_a, "dim_e": dim_e, "tol": args.tol, "seed": args.seed}
    _print_report({**_plain(verdict), "config": config})
    if verdict.status == VQD:
        return EXIT_OK
    if verdict.status == NONZERO:
        return EXIT_CONDITION_FAILS
    return EXIT_INDETERMINATE


def _cmd_hunt(args) -> int:
    # Only the family/params pairing is left to refuse: argparse checks
    # each flag alone.
    try:
        cfg = SearchConfig(
            **{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchConfig)}
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    e = load_ensemble(args.ensemble)
    try:
        candidates = hunt(e, cfg)
    except tuple(_PRECONDITION_CODES) as exc:
        _print_report(
            {
                "error": {"code": _PRECONDITION_CODES[type(exc)], "message": str(exc)},
                "config": cfg,
            }
        )
        return EXIT_CONDITION_FAILS
    _print_report({"count": len(candidates), "candidates": candidates, "config": cfg})
    return EXIT_OK


def _repro_four_block(p1: float) -> tuple[dict, dict]:
    rescaled = rescaled_matrices(four_block_ensemble(p1)).matrices
    target = np.zeros((2, 4, 4), dtype=complex)
    target[0, :2, :2] = 1.0 / p1
    target[1, 2:, 2:] = 1.0 / (1.0 - p1)
    entry_dev = float(np.abs(rescaled - target).max())
    min_eigs = np.linalg.eigh(check_hermitian(rescaled, 1e-12, "rescaled matrix"))[0][:, 0]
    checks = {
        "block_entries_match": entry_dev <= 1e-12,
        "all_psd": bool((min_eigs >= -1e-12).all()),
    }
    report = {
        "rescaled": list(rescaled),
        "expected_block_values": [1.0 / p1, 1.0 / (1.0 - p1)],
        "entry_deviation": entry_dev,
        "min_eigs": min_eigs,
        "config": {"p1": p1},
    }
    return report, checks


def _repro_bell_cnot() -> tuple[dict, dict]:
    d = decompose_blocks(bell_density(), 2, 2)
    m = induce(d, cnot())
    rho_prime = np.diag([1.0, 0.0]).astype(complex)
    out = m.apply(rho_prime)
    target = 0.5 * np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
    entry_dev = float(np.abs(out - target).max())
    min_eig = float(hermitian_eigen(out).eigenvalues[0])
    expected_eig = (1.0 - np.sqrt(5.0)) / 4.0
    checks = {
        "output_matches": entry_dev <= 1e-12,
        "min_eig_matches": abs(min_eig - expected_eig) <= 1e-10,
    }
    report = {
        "output": out,
        "entry_deviation": entry_dev,
        "min_eig": min_eig,
        "expected_min_eig": expected_eig,
        "config": {},
    }
    return report, checks


def _cmd_repro(args) -> int:
    if args.name == "example-4xf":
        report, checks = _repro_four_block(args.p1)
    else:
        report, checks = _repro_bell_cnot()
    status = "PASS" if all(checks.values()) else "FAIL"
    _print_report({"name": args.name, **report, "checks": checks, "status": status})
    return EXIT_OK if status == "PASS" else EXIT_CONDITION_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="inducedmaps",
        description=(
            "Induced dynamical maps of open systems: block decompositions, "
            "positivity checks, and unitary searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tolerance = _flag(float, check_tolerance)
    seed = _flag(int, check_seed)
    budget = _flag(int, lambda n: check_count(n, "budget", MAX_BUDGET))
    dim_a = _flag(int, lambda n: check_count(n, "dim_a", MAX_TENSOR_ROWS))
    trials = _flag(int, lambda n: check_count(n, "trials", MAX_TRIALS))

    pc = sub.add_parser("check", help="evaluate the block-support condition")
    pc.add_argument("ensemble", help="ensemble JSON file")
    pc.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    pc.add_argument("--vqd-tol", type=tolerance, default=DEFAULT_TOL)
    pc.add_argument("--seed", type=seed, default=0, help="echoed; the verdicts take no seed")
    pc.set_defaults(func=_cmd_check)

    pi = sub.add_parser("induce", help="induce a map and apply it to an input")
    pi.add_argument("state", help="ensemble or matrix JSON file")
    pi.add_argument("unitary", help="joint unitary matrix JSON file")
    pi.add_argument("input", help="system input density matrix JSON file")
    pi.add_argument("--dim-a", type=dim_a, default=None, help="system dimension for matrix states")
    pi.add_argument("--out", default=None, help="write the output matrix here")
    pi.add_argument("--choi", default=None, help="write the Choi matrix here")
    pi.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    pi.add_argument("--seed", type=seed, default=0)
    pi.add_argument("--cp-tol", type=tolerance, default=DEFAULT_TOL)
    pi.add_argument("--witness-tol", type=tolerance, default=DEFAULT_TOL)
    pi.set_defaults(func=_cmd_induce)

    pd = sub.add_parser("discord", help="vanishing-discord verdict for a state")
    pd.add_argument("state", help="ensemble or matrix JSON file")
    pd.add_argument("--dim-a", type=dim_a, default=None, help="system dimension for matrix states")
    pd.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    pd.add_argument("--seed", type=seed, default=0, help="echoed; the verdict takes no seed")
    pd.set_defaults(func=_cmd_discord)

    ph = sub.add_parser("hunt", help="search unitaries for positive-not-CP candidates")
    ph.add_argument("ensemble", help="ensemble JSON file")
    ph.add_argument("--family", choices=[HAAR, GENERATOR])
    ph.add_argument("--params", type=_flag(float, check_param), nargs="+",
                    help="generator parameters (length dim**2) for the GENERATOR family")
    ph.add_argument("--trials", type=trials)
    ph.add_argument("--budget", dest="positivity_budget", metavar="BUDGET", type=budget)
    ph.add_argument("--seed", type=seed)
    ph.add_argument("--cp-tol", type=tolerance)
    ph.add_argument("--witness-tol", type=tolerance)
    ph.add_argument("--condition-tol", type=tolerance)
    ph.add_argument("--vqd-tol", type=tolerance)
    ph.add_argument("--candidate-threshold", type=tolerance)
    # Every flag defaults to its SearchConfig field.
    ph.set_defaults(func=_cmd_hunt, **dataclasses.asdict(SearchConfig()))

    pr = sub.add_parser("repro", help="regenerate a reference fixture and assert its values")
    pr.add_argument("name", choices=["example-4xf", "bell-cnot"])
    pr.add_argument("--p1", type=_flag(float, check_weight), default=0.5,
                    help="first weight for example-4xf")
    pr.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ShapeError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION if isinstance(exc, ShapeError) else EXIT_USAGE
