"""The benchmark's workloads: what each one runs, why it was chosen, the
inputs it generates from the workload seed, and the checks its outputs must
pass.

Every command is a ``twostage`` CLI call.  The program receives only the
generated files and flags; the workload seed is passed as ``--seed``.

Simulated numbers are checked for internal consistency and for byte identity
within one benchmark run (same seed, any thread count), never against bytes
frozen at one commit: a change to the draw layer is allowed to change every
simulated number once.  Byte identity holds only for one numpy version
(NEP 19), so results from different numpy versions are not comparable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SIM_METHODS = ("nofilter", "minp", "chisq2", "prod-0.8", "prod-0.9", "prod-1.0")
SIM_HEADER = "method,empirical_fwer,fwer_se,power,power_se,mean_F"
MSE_HEADER = "n,ratio,mc_se,k_at_n,filter_freq"
MSE_GRID_CELLS = 5  # the CLI's default n grid: 10^2 .. 10^6
SIM_M = 200  # hypotheses per replication at the CLI defaults

# `classify` is seed-free; this is its exact output line at the commit that
# defined the benchmark.
CLASSIFY_LINE = (
    '{"L_region": "one", "K": 0.0, "efficiency_class": "much_more", '
    '"A_diagnostics": {"A": 0.0, "mean_term": 0.0, "sd_term": 0.0}}'
)

# Known coefficients of the generated `fit` data.  The check compares the
# CLI's estimates with a numpy.linalg.lstsq oracle on the same data, not with
# these values.
FIT_GAMMA = 0.4
FIT_BETA = 0.25
FIT_D = 3
FIT_REL_TOL = 1e-9

Check = Callable[[str, "bytes | None"], list]


@dataclass(frozen=True)
class Size:
    """Problem size.  FULL passes no size flags, so commands run at their defaults."""

    name: str
    reps: int  # simulate / fwer-bound replications
    fit_rows: int
    sim_flags: tuple[str, ...] = ()
    bound_flags: tuple[str, ...] = ()
    mse_flags: tuple[str, ...] = ()


FULL = Size("full", reps=500, fit_rows=20_000)
TINY = Size(
    "tiny",
    reps=5,
    fit_rows=200,
    sim_flags=("--reps", "5"),
    bound_flags=("--reps", "5", "--p0-reps", "1000"),
    mse_flags=("--reps", "100"),
)


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, the file it writes, and its output check."""

    args: tuple[str, ...]
    check: Check
    output: Path | None = None
    takes_threads: bool = False

    def argv(self, threads: int) -> list[str]:
        extra = ["--threads", str(threads)] if self.takes_threads else []
        return [*self.args, *extra]


@dataclass(frozen=True)
class Plan:
    """A workload made concrete for one seed, size and work directory."""

    commands: tuple[Command, ...]
    hypotheses: int = 0  # reps x m per pass, for hyp_per_s; 0 where it is not defined


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, Size], Plan]


# ---------------------------------------------------------------- checks


def _guarded(check: Check) -> Check:
    """Turn a parse error on malformed program output into a reported problem."""

    def guarded(stdout: str, data: bytes | None) -> list:
        try:
            return check(stdout, data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {type(exc).__name__}: {exc}"]

    guarded.__name__ = check.__name__
    return guarded


def _csv_report(data: bytes | None, header: str) -> tuple[dict, list]:
    if data is None:
        raise ValueError("the command wrote no report file")
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
    meta = dict(ln[1:].strip().split("=", 1) for ln in lines if ln.startswith("#"))
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != header:
        raise ValueError(f"header is not {header!r}")
    return meta, [ln.split(",") for ln in body[1:]]


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


@_guarded
def check_simulate(stdout: str, data: bytes | None) -> list:
    meta, rows = _csv_report(data, SIM_HEADER)
    problems = []
    ids = tuple(r[0] for r in rows)
    if ids != SIM_METHODS:
        problems.append(f"method ids {ids} are not {SIM_METHODS}")
    for r in rows:
        fwer, power, mean_f = float(r[1]), float(r[3]), float(r[5])
        if not 0.0 <= fwer <= 1.0:
            problems.append(f"{r[0]}: empirical_fwer {fwer} outside [0, 1]")
        if not 0.0 <= power <= 1.0:
            problems.append(f"{r[0]}: power {power} outside [0, 1]")
        if r[0] == "nofilter" and mean_f != float(meta["m"]):
            problems.append(f"nofilter mean_F {mean_f} != m {meta['m']}")
    return problems


@_guarded
def check_fwer_bound(stdout: str, data: bytes | None) -> list:
    payload = _strict_json(stdout.splitlines()[0])
    problems = []
    p0, bound = payload["p0"], payload["survivor_bound"]
    if not (isinstance(p0, (int, float)) and 0.0 < p0 <= 1.0):
        problems.append(f"p0 {p0!r} outside (0, 1]")
    if not (isinstance(bound, (int, float)) and bound >= 0.0):
        problems.append(f"survivor_bound {bound!r} is negative")
    return problems


@_guarded
def check_classify(stdout: str, data: bytes | None) -> list:
    line = stdout.strip()
    return [] if line == CLASSIFY_LINE else [f"classify printed {line!r}"]


def _fit_check(oracle: tuple[float, float]) -> Check:
    @_guarded
    def check_fit(stdout: str, data: bytes | None) -> list:
        payload = _strict_json(stdout.strip())
        problems = []
        for key, want in zip(("gamma_hat", "beta_hat"), oracle):
            got = float(payload[key])
            if abs(got - want) > FIT_REL_TOL * abs(want):
                problems.append(f"{key} {got!r} differs from lstsq oracle {want!r}")
        return problems

    return check_fit


@_guarded
def check_mse_ratio(stdout: str, data: bytes | None) -> list:
    _, rows = _csv_report(data, MSE_HEADER)
    problems = []
    if len(rows) != MSE_GRID_CELLS:
        problems.append(f"{len(rows)} grid cells, expected {MSE_GRID_CELLS}")
    for r in rows:
        ratio, k_at_n, freq = float(r[1]), float(r[3]), float(r[4])
        if abs(k_at_n - 4.0 / 3.0) > 1e-12:
            problems.append(f"n={r[0]}: k_at_n {k_at_n!r} != 4/3")
        if not 0.0 <= freq <= 1.0:
            problems.append(f"n={r[0]}: filter_freq {freq} outside [0, 1]")
        if not math.isfinite(ratio):
            problems.append(f"n={r[0]}: ratio {ratio} is not finite")
    return problems


# ---------------------------------------------------------------- inputs


def write_fit_input(path: Path, seed: int, rows: int) -> tuple[float, float]:
    """Write the mediation data file and return the lstsq oracle (gamma_hat, beta_hat).

    Values are written with 17 significant digits, so the file parses back
    to exactly the arrays the oracle is computed from.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, FIT_D))
    a = rng.standard_normal(rows)
    m = 0.5 + x @ np.array([0.3, -0.2, 0.1]) + FIT_GAMMA * a + rng.standard_normal(rows)
    y = -0.25 + x @ np.array([0.2, 0.1, -0.3]) + 0.15 * a + FIT_BETA * m + rng.standard_normal(rows)
    table = np.column_stack([x, a, m, y])
    header = ",".join([f"x{j + 1}" for j in range(FIT_D)] + ["a", "m", "y"])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
    ones = np.ones((rows, 1))
    design_m = np.hstack([ones, x, a[:, None]])
    design_y = np.hstack([ones, x, a[:, None], m[:, None]])
    gamma_hat = np.linalg.lstsq(design_m, m, rcond=None)[0][-1]
    beta_hat = np.linalg.lstsq(design_y, y, rcond=None)[0][-1]
    return float(gamma_hat), float(beta_hat)


# ---------------------------------------------------------------- workloads


def _prepare_sim(seed: int, work: Path, size: Size) -> Plan:
    out = work / "simulate-config2.csv"
    cmd = Command(
        ("simulate", "--scenario", "config2", "--methods", "all", "--seed", str(seed), *size.sim_flags, "--out", str(out)),
        check_simulate,
        output=out,
        takes_threads=True,
    )
    return Plan((cmd,), hypotheses=size.reps * SIM_M)


def _prepare_bound(seed: int, work: Path, size: Size) -> Plan:
    cmd = Command(
        ("fwer-bound", "--scenario", "hierarchical", "--rule", "prod-0.9", "--seed", str(seed), *size.bound_flags),
        check_fwer_bound,
    )
    return Plan((cmd,), hypotheses=size.reps * SIM_M)


def _prepare_quick(seed: int, work: Path, size: Size) -> Plan:
    data = work / "fit-input.csv"
    oracle = write_fit_input(data, seed, size.fit_rows)
    out = work / "mse-ratio-k-4over3.csv"
    commands = (
        Command(("classify", "--gamma", "n^-0.6", "--beta", "n^-0.6", "--c", "1", "--delta", "0.8"), check_classify),
        Command(("fit", str(data)), _fit_check(oracle)),
        Command(
            ("mse-ratio", "--preset", "k-4over3", "--seed", str(seed), *size.mse_flags, "--out", str(out)),
            check_mse_ratio,
            output=out,
        ),
    )
    return Plan(commands)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-config2",
            # The draw loop in `simulate` and stream construction in `dist` are
            # about 90% of compute; the six methods exercise every filtration
            # rule and the threshold-and-tally step 3,000 times per pass.  The
            # run at --threads nproc is the GIL-contended path and doubles as
            # a byte-identity check against --threads 1.
            "simulate config2 at defaults, all six methods: the draw and stream layers dominate; threads 1 vs nproc",
            _prepare_sim,
        ),
        Workload(
            "bound-hier",
            # Multinomial rows and per-replication hyperprior means make up to
            # five draws per stream instead of two; one method leaves the filter
            # layer idle; it runs the second copy of the replication loop
            # (conditional_rejection_stats, with np.add.at row tallies) and a
            # vectorized 100k-draw p0 estimate, so a kernel merge that speeds
            # up only one copy of the loop shows here.
            "fwer-bound on the hierarchical scenario: multinomial draws and the second replication loop",
            _prepare_bound,
        ),
        Workload(
            "quick-cmds",
            # Interpreter start and import are about 80% of each call, and the
            # draw layer does almost nothing: a draw-layer change should leave
            # it unchanged, and trimming imports should move it most.  It is
            # the only workload that runs `ingest` and `asymptotics`.
            "classify, fit on a generated 20k-row file, mse-ratio: start-up and import dominate",
            _prepare_quick,
        ),
    )
}
