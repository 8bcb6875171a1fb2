"""The benchmark's workloads: seeded inputs, one op, and its output checks.

Each workload is built from a seed (that is its set-up: input generation),
runs op ``i`` with :meth:`op` and checks the result with :meth:`check`,
which returns an :class:`Outcome`.  Checks are invariants rather than
digests, so a change to the package's random streams does not fail them.
Package functions are always called through their module
(``search.scan``), so that a tracer that rebinds module attributes sees
every call.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inducedmaps import cli, discord, jsonio, maps, presets, search, states
from inducedmaps.errors import PreconditionTheoremError, PreconditionVqdError

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

# Package defaults that the checks compare against.
WITNESS_TOL = search.SearchConfig().witness_tol
CP_TOL = search.SearchConfig().cp_tol
DENSITY_TOL = 1e-9
KRAUS_TOL = 1e-9


@dataclass
class Outcome:
    """What one checked op contributes to the run's totals."""

    violations: list = field(default_factory=list)
    trials: int = 0
    witnesses: int = 0
    # Reported violation depth over the exact one, per violating map.
    depths: list = field(default_factory=list)


def density_problems(rho, tol=DENSITY_TOL):
    """Ways in which ``rho`` fails to be a density matrix, checked with numpy."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return [f"witness has shape {rho.shape}"]
    problems = []
    if np.abs(rho - rho.conj().T).max() > tol:
        problems.append("witness is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        problems.append(f"witness trace {np.trace(rho):.3g}")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] < -tol:
        problems.append("witness is not positive semidefinite")
    return problems


def witness_problems(m, witness, tol=WITNESS_TOL):
    """A NON_POSITIVE witness must be a density matrix whose output has an
    eigenvalue below ``-tol``."""
    if witness is None:
        return ["violation reported without a witness"]
    problems = density_problems(witness)
    out = m.apply(witness)
    lam = float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])
    if not lam < -tol:
        problems.append(f"witness output min eigenvalue {lam:.3e} is not below {-tol:.0e}")
    return problems


def output_min_eigs(m, rhos):
    """Smallest output eigenvalue of ``m`` on each input of a stack."""
    out = np.einsum("nkl,klab->nab", rhos, m.images) + m.shift
    return np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2)[:, 0]


def bloch_states(r):
    """Pure qubit states with Bloch vectors ``r`` (unit rows)."""
    x, y, z = r.T
    rho = np.empty((len(r), 2, 2), dtype=complex)
    rho[:, 0, 0] = (1 + z) / 2
    rho[:, 1, 1] = (1 - z) / 2
    rho[:, 0, 1] = (x - 1j * y) / 2
    rho[:, 1, 0] = (x + 1j * y) / 2
    return rho


def qubit_min_eig(m, points=4000, rounds=6, local=400):
    """Most negative output eigenvalue of a map on qubit inputs.

    The smallest eigenvalue of an affine map's output is concave in the
    input, so its minimum over density matrices lies on a pure state.  The
    Bloch sphere is searched on a Fibonacci grid and then in shrinking caps
    around the best point; the result is within about 1e-6 of the minimum.
    """
    i = np.arange(points) + 0.5
    z = 1 - 2 * i / points
    phi = np.pi * (1 + 5**0.5) * i
    rho_xy = np.sqrt(1 - z * z)
    r = np.stack([rho_xy * np.cos(phi), rho_xy * np.sin(phi), z], axis=1)
    lam = output_min_eigs(m, bloch_states(r))
    best, value = r[lam.argmin()], float(lam.min())
    radius = 2 * np.sqrt(4 * np.pi / points)
    rng = np.random.default_rng(0)
    for _ in range(rounds):
        cand = best + radius * rng.normal(size=(local, 3))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        lam = output_min_eigs(m, bloch_states(cand))
        if lam.min() < value:
            best, value = cand[lam.argmin()], float(lam.min())
        radius /= 3
    return value


def op_seed(seed, i):
    """Per-op seed: distinct for every (seed, op) pair."""
    return seed * 2**32 + i


class Scan:
    """``search.scan`` calls alternating between the Bell fixture at 2x2 and
    seeded coherent-block sources at 4x2, a few trials each."""

    name = "scan"
    TRIALS = 4
    POOL = 16

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.bell = states.decompose_blocks(presets.bell_density(), 2, 2)
        self.coherent = [presets.random_coherent_block_ensemble(rng) for _ in range(self.POOL)]
        self.coherent_blocks = [
            states.decompose_blocks(states.assemble(e), e.dim_a, e.dim_e) for e in self.coherent
        ]

    def warm_up(self):
        for i in range(2):
            self.check(i, self.op(i))

    def op(self, i):
        if i % 2 == 0:
            source = self.bell
        else:
            source = self.coherent[(i // 2) % self.POOL]
        cfg = search.SearchConfig(trials=self.TRIALS, seed=op_seed(self.seed, i))
        return search.scan(source, cfg)

    def check(self, i, reports):
        bell = i % 2 == 0
        d = self.bell if bell else self.coherent_blocks[(i // 2) % self.POOL]
        o = Outcome(trials=len(reports))
        if len(reports) != self.TRIALS:
            o.violations.append(f"{len(reports)} reports for {self.TRIALS} trials")
        for r in reports:
            m = maps.induce(d, r.unitary)
            if r.classification == search.CLASS_NON_POSITIVE:
                o.witnesses += 1
                o.violations += witness_problems(m, r.positivity.witness)
                if not bell:
                    # The block-support condition holds for these sources,
                    # and it implies that every induced map is positive.
                    o.violations.append("condition-passing source lost positivity")
            if bell:
                exact = qubit_min_eig(m)
                if exact < -WITNESS_TOL:
                    o.depths.append(r.positivity.min_eig / exact)
        return o


# Certify sources, in rotation order.  The aligned kinds are discord-free in
# the computational basis, which the block decomposition shares, so every
# induced map is CP.
ALIGNED = {"aligned-2x2": (2, 2), "aligned-3x2": (3, 2), "aligned-8x4": (8, 4)}
CERTIFY_KINDS = (*ALIGNED, "haar-4x4", "four-block", "coherent", "discordant")


@dataclass
class Source:
    kind: str
    ensemble: states.SeparableEnsemble
    unitaries: list
    rho_in: np.ndarray


def discordant_mixture(rng, dim_a=3, dim_e=2, terms=3):
    """Separable mixture of random full-rank products; it carries discord."""
    p = rng.uniform(0.5, 1.5, size=terms)
    p /= p.sum()
    return states.SeparableEnsemble(
        dim_a,
        dim_e,
        tuple(
            states.EnsembleTerm(float(w), presets.random_density(dim_a, rng), presets.random_density(dim_e, rng))
            for w in p
        ),
    )


def certify_source(kind, rng, unitaries):
    if kind in ALIGNED:
        e = presets.random_vqd_ensemble(*ALIGNED[kind], rng)
    elif kind == "haar-4x4":
        e = presets.random_vqd_ensemble(4, 4, rng, haar_basis=True)
    elif kind == "four-block":
        e = presets.four_block_ensemble(0.5)
    elif kind == "coherent":
        e = presets.random_coherent_block_ensemble(rng)
    else:
        e = discordant_mixture(rng)
    n = e.dim_a * e.dim_e
    us = [search.haar_unitary(n, rng) for _ in range(unitaries)]
    return Source(kind, e, us, presets.random_density(e.dim_a, rng))


@dataclass
class CertifyResult:
    condition: object
    vqd: object
    gate: str
    maps: list


class Certify:
    """One source through the condition, discord and hunt gates, then
    ``induce`` + ``is_cp`` (+ ``kraus_from_choi`` when CP) for a fixed set
    of Haar unitaries."""

    name = "certify"
    UNITARIES = 6
    PER_KIND = 3

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.pool = [
            certify_source(kind, rng, self.UNITARIES)
            for _ in range(self.PER_KIND)
            for kind in CERTIFY_KINDS
        ]
        # trials=1 bounds the search if a source ever passed both gates.
        self.hunt_cfg = search.SearchConfig(trials=1, seed=seed)

    def warm_up(self):
        for i in range(len(CERTIFY_KINDS)):
            self.check(i, self.op(i))

    def op(self, i):
        src = self.pool[i % len(self.pool)]
        e = src.ensemble
        condition = states.check_condition(e)
        vqd = discord.has_vqd(states.assemble(e), e.dim_a, e.dim_e)
        try:
            search.hunt(e, self.hunt_cfg)
            gate = "passed"
        except PreconditionTheoremError:
            gate = "theorem"
        except PreconditionVqdError:
            gate = "vqd"
        d = states.decompose_blocks(states.assemble(e), e.dim_a, e.dim_e)
        results = []
        for u in src.unitaries:
            m = maps.induce(d, u)
            verdict = maps.is_cp(m)
            kraus = None
            if verdict.status == maps.CP:
                kraus = maps.kraus_from_choi(maps.choi_matrix(m))
            results.append((m, verdict, kraus))
        return CertifyResult(condition, vqd, gate, results)

    def check(self, i, res):
        src = self.pool[i % len(self.pool)]
        o = Outcome(trials=len(res.maps))
        if res.condition.holds and res.vqd.status != discord.VQD:
            o.violations.append(f"{src.kind}: condition holds but discord verdict is {res.vqd.status}")
        if not res.condition.holds:
            expected = "theorem"
        elif res.vqd.status == discord.VQD:
            expected = "vqd"
        else:
            expected = "passed"
        if res.gate != expected:
            o.violations.append(f"{src.kind}: hunt gate {res.gate}, expected {expected}")
        for m, verdict, kraus in res.maps:
            if src.kind in ALIGNED and verdict.status != maps.CP:
                o.violations.append(f"{src.kind}: aligned discord-free source gave {verdict.status}")
            if verdict.choi_min_eig < -CP_TOL:
                o.witnesses += 1
                exact = np.linalg.eigvalsh(maps.choi_matrix(m))[0]
                o.depths.append(verdict.choi_min_eig / exact)
            if kraus is not None:
                rho = src.rho_in
                via_kraus = sum(k @ rho @ k.conj().T for k in kraus)
                dev = float(np.abs(via_kraus - m.apply(rho)).max())
                if dev > KRAUS_TOL:
                    o.violations.append(f"{src.kind}: Kraus form deviates by {dev:.3e}")
        return o


# Top-level keys of each CLI report.
REPORT_KEYS = {
    "repro-bell": {"name", "output", "entry_deviation", "min_eig", "expected_min_eig", "checks", "status", "config"},
    "repro-4xf": {"name", "rescaled", "expected_block_values", "entry_deviation", "min_eigs", "checks", "status", "config"},
    "check": {"sl_class", "condition", "vqd", "config"},
    "discord": {"status", "residual", "basis", "config"},
    "induce": {
        "sl_class", "output", "output_min_eig", "output_trace", "choi_min_eig",
        "shift_norm", "cp_status", "positivity", "classification", "config",
    },
    "hunt-vqd": {"error", "config"},
    "hunt-theorem": {"error", "config"},
}
CLI_KINDS = tuple(REPORT_KEYS)
CLI_UNITARIES = 4


def matrix_from_payload(obj):
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def local_cnot(rng):
    """``(V ⊗ W) CNOT`` with Haar ``V`` and ``W``: a seeded unitary whose
    Bell-state map has the same most negative output eigenvalue as CNOT,
    because local unitaries after the joint step only rotate the output."""
    v = search.haar_unitary(2, rng)
    w = search.haar_unitary(2, rng)
    return np.kron(v, w) @ presets.cnot()


@dataclass
class CliCall:
    kind: str
    argv: list
    exit_code: int
    inputs: list


class CliOneshot:
    """Sequential ``python -m inducedmaps`` subprocesses, one at a time,
    rotating over the subcommands; input files are written at set-up."""

    name = "cli-oneshot"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.dir = OUT_DIR / f"cli-inputs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        path = lambda name: str(self.dir / name)  # noqa: E731

        self.bell = states.decompose_blocks(presets.bell_density(), 2, 2)
        jsonio.save_matrix(path("bell.json"), presets.bell_density())
        self.unitaries = [local_cnot(rng) for _ in range(CLI_UNITARIES)]
        for j, u in enumerate(self.unitaries):
            jsonio.save_matrix(path(f"u{j}.json"), u)
        jsonio.save_matrix(path("input.json"), presets.random_density(2, rng))
        jsonio.save_ensemble(path("coherent.json"), presets.random_coherent_block_ensemble(rng))
        jsonio.save_ensemble(path("discordant.json"), discordant_mixture(rng))
        big = presets.random_vqd_ensemble(8, 8, rng)
        jsonio.save_matrix(path("big.json"), states.assemble(big))
        p1 = float(rng.uniform(0.1, 0.9))

        induce = [
            CliCall(
                "induce",
                ["induce", path("bell.json"), path(f"u{j}.json"), path("input.json"), "--dim-a", "2",
                 "--out", path("out.json"), "--choi", path("choi.json")],
                0,
                [path("bell.json"), path(f"u{j}.json"), path("input.json")],
            )
            for j in range(CLI_UNITARIES)
        ]
        self.calls = {
            "repro-bell": CliCall("repro-bell", ["repro", "bell-cnot"], 0, []),
            "repro-4xf": CliCall("repro-4xf", ["repro", "example-4xf", "--p1", repr(p1)], 0, []),
            "check": CliCall("check", ["check", path("coherent.json")], 0, [path("coherent.json")]),
            "discord": CliCall("discord", ["discord", path("big.json"), "--dim-a", "8"], 0, [path("big.json")]),
            "hunt-vqd": CliCall("hunt-vqd", ["hunt", path("coherent.json")], 2, [path("coherent.json")]),
            "hunt-theorem": CliCall("hunt-theorem", ["hunt", path("discordant.json")], 2, [path("discordant.json")]),
        }
        self.induce = induce
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def close(self):
        for p in self.dir.iterdir():
            p.unlink()
        self.dir.rmdir()

    def call(self, i):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        if kind == "induce":
            return self.induce[(i // len(CLI_KINDS)) % CLI_UNITARIES]
        return self.calls[kind]

    def bytes_read(self, i):
        return sum(os.path.getsize(p) for p in self.call(i).inputs)

    def warm_up(self):
        self.check(0, self.op(0))

    def op(self, i):
        """One CLI process; returns ``(exit code, stdout)``."""
        proc = subprocess.run(
            [sys.executable, "-m", "inducedmaps", *self.call(i).argv],
            env=self.env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def op_in_process(self, i):
        """The same call through ``cli.main`` in this process."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(self.call(i).argv)
        return code, out.getvalue()

    def check(self, i, result):
        call = self.call(i)
        code, stdout = result
        o = Outcome()
        if code != call.exit_code:
            o.violations.append(f"{call.kind}: exit code {code}, expected {call.exit_code}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            o.violations.append(f"{call.kind}: stdout is not JSON")
            return o
        if not isinstance(report, dict) or set(report) != REPORT_KEYS[call.kind]:
            o.violations.append(f"{call.kind}: report keys {sorted(report) if isinstance(report, dict) else report!r}")
            return o
        if call.kind.startswith("repro") and report["status"] != "PASS":
            o.violations.append(f"{call.kind}: status {report['status']}")
        elif call.kind == "check":
            if not report["condition"]["holds"] or report["vqd"]["status"] != discord.VQD:
                o.violations.append("check: condition-passing source not certified VQD")
        elif call.kind == "discord" and report["status"] != discord.VQD:
            o.violations.append(f"discord: status {report['status']}")
        elif call.kind == "hunt-vqd" and report["error"]["code"] != "PRECONDITION_VQD":
            o.violations.append(f"hunt-vqd: error {report['error']['code']}")
        elif call.kind == "hunt-theorem" and report["error"]["code"] != "PRECONDITION_THEOREM":
            o.violations.append(f"hunt-theorem: error {report['error']['code']}")
        elif call.kind == "induce":
            o.trials = 1
            self._check_induce(i, report, o)
        return o

    def _check_induce(self, i, report, o):
        with open(self.dir / "out.json", encoding="utf-8") as fh:
            if json.load(fh) != report["output"]:
                o.violations.append("induce: --out file differs from the reported output")
        probe = report["positivity"]
        m = maps.induce(self.bell, self.unitaries[(i // len(CLI_KINDS)) % CLI_UNITARIES])
        o.depths.append(probe["min_eig"] / qubit_min_eig(m))
        if probe["status"] != maps.VIOLATED:
            o.violations.append(f"induce: Bell map probe gave {probe['status']}")
        else:
            o.witnesses = 1
            o.violations += witness_problems(m, matrix_from_payload(probe["witness"]))


WORKLOADS = {w.name: w for w in (Scan, Certify, CliOneshot)}
