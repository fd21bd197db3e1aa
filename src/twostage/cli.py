"""Command-line front end.

Subcommands: ``simulate`` (multiple-testing study), ``mse-ratio`` (shrinkage
MSE-ratio experiment), ``classify`` (regime classification of a sequence),
``fit`` (estimate pair from a data file), ``fwer-bound`` (filtration-aware
adjustment factor and the survivor-count FWER bound).

Exit codes are a stable contract: 0 ok, 2 configuration problem, 3 I/O
failure, 4 domain inconsistency, 5 numerical failure.  ``--seed`` pins all
randomness; when absent the TWOSTAGE_SEED environment variable is honored,
and otherwise a fresh seed is drawn and printed so the run can be replayed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from typing import Sequence

import numpy as np

from .asymptotics import (
    DEFAULT_N_GRID,
    MSE_RATIO_PRESETS,
    ParamSequence,
    PowerSequence,
    classify_product_regime,
    mse_ratio_experiment,
)
from .dist import RandomStream
from .estimators import joint_pvalue, product_stat, sobel_stat
from .exceptions import (
    ConfigError,
    DegenerateInputError,
    InconsistentRegimeError,
    SingularDesignError,
)
from .ingest import ols_mediation_fit, read_observations
from .procedure import (
    BonferroniOverUnfiltered,
    ChiSquarePValue,
    FiltrationAware,
    FiltrationRule,
    MinPValue,
    NoFilter,
    ProductThreshold,
    filtration_prob_at_theta0,
    fwer_bound_from_survivors,
)
from .report import nan_to_none, write_mse_ratio_report, write_simulation_report
from .simulate import (
    Assignment,
    BUILTIN_SCENARIOS,
    Method,
    MixtureRow,
    NormalMeanPrior,
    ScenarioMixture,
    Truth,
    builtin_scenario,
    conditional_rejection_stats,
    run_experiment,
    standard_methods,
)
from .svgplot import Series, line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DOMAIN = 4
EXIT_NUMERIC = 5

# Auxiliary randomness (e.g. the p0 estimate) lives on stream indices far
# above the per-replication lanes r used by experiments.
_AUX_STREAM_BASE = 2**48


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _int_at_least(value, minimum: int, where: str) -> int:
    """``value`` as an int >= ``minimum``, from an int or its decimal text.

    ``--seed``, config keys and TWOSTAGE_SEED share this check, so a seed is
    accepted or refused alike wherever it comes from; JSON floats and
    booleans are refused rather than truncated.
    """
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def _finite(value, where: str):
    """``value`` unchanged if it is a JSON number within float range; else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


def _setting(args, cfg: dict, key: str, default=None):
    """The flag's value, else the config's, else ``default``: a count >= 1 or a finite number."""
    value = getattr(args, key, None)
    value = cfg.get(key, default) if value is None else value
    if value is None:
        return None
    if key in ("m", "reps", "n", "threads", "p0_reps"):
        return _int_at_least(value, 1, key)
    return _finite(value, key)


def _seed_value(text: str) -> int:
    try:
        return _int_at_least(text, 0, "seed")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_seed(seed) -> int:
    if seed is not None:
        return _int_at_least(seed, 0, "seed")
    env = os.environ.get("TWOSTAGE_SEED")
    if env is not None:
        return _int_at_least(env, 0, "TWOSTAGE_SEED")
    drawn = secrets.randbits(63)
    print(f"seed: {drawn} (drawn; pass --seed {drawn} to reproduce)")
    return drawn


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _load_config(path: str | None, allowed: set[str], where: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _check_keys(cfg, allowed, where)
    return cfg


def _parse_sequence(spec, where: str, allow_prior: bool = False):
    if isinstance(spec, str):
        try:
            return PowerSequence.parse(spec)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if isinstance(spec, dict):
        if "normal" in spec:
            if not allow_prior:
                raise ConfigError(f"{where}: hyperprior coordinates are only allowed in scenario rows")
            _check_keys(spec, {"normal"}, where)
            body = spec["normal"]
            _check_keys(body, {"mean", "variance"}, f"{where}.normal")
            return NormalMeanPrior(
                mean=_parse_sequence(body["mean"], f"{where}.normal.mean"),
                variance=_parse_sequence(body["variance"], f"{where}.normal.variance"),
            )
        _check_keys(spec, {"offset", "terms"}, where)
        try:
            return PowerSequence(
                float(spec.get("offset", 0.0)),
                tuple((float(c), float(e)) for c, e in spec.get("terms", ())),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: expected a sequence string or object, got {type(spec).__name__}")


def _standard_method(method_id: str, where: str, what: str) -> Method:
    for method in standard_methods():
        if method.method_id == method_id:
            return method
    ids = [m.method_id for m in standard_methods()]
    raise ConfigError(f"{where}: unknown {what} id {method_id!r}; standard ids: {ids}")


def _parse_rule(spec, where: str) -> FiltrationRule:
    if isinstance(spec, str):
        return _standard_method(spec, where, "rule").rule
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: rule must be a standard id or an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "nofilter":
            _check_keys(spec, {"kind"}, where)
            return NoFilter()
        if kind in ("minp", "chisq2"):
            _check_keys(spec, {"kind", "threshold"}, where)
            return (MinPValue if kind == "minp" else ChiSquarePValue)(float(spec["threshold"]))
        if kind == "product":
            _check_keys(spec, {"kind", "c", "delta"}, where)
            return ProductThreshold(float(spec["c"]), float(spec["delta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown rule kind {kind!r}")


def _parse_adjustment(spec, where: str):
    if spec is None or isinstance(spec, dict) and spec.get("kind") == "bonferroni":
        return BonferroniOverUnfiltered()
    if isinstance(spec, dict) and spec.get("kind") == "filtration_aware":
        _check_keys(spec, {"kind", "p0"}, where)
        try:
            return FiltrationAware(float(spec["p0"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: adjustment must be bonferroni or filtration_aware")


def _parse_methods(spec, where: str) -> tuple[Method, ...]:
    if spec is None or spec == "all":
        return standard_methods()
    if isinstance(spec, str):
        spec = [s.strip() for s in spec.split(",") if s.strip()]
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where}: methods must be 'all' or a nonempty list")
    methods = []
    for i, item in enumerate(spec):
        item_where = f"{where}[{i}]"
        if isinstance(item, str):
            methods.append(_standard_method(item, item_where, "method"))
        elif isinstance(item, dict):
            _check_keys(item, {"rule", "adjustment", "id"}, item_where)
            rule = _parse_rule(item.get("rule"), f"{item_where}.rule")
            adjustment = _parse_adjustment(item.get("adjustment"), f"{item_where}.adjustment")
            methods.append(Method(rule, adjustment, id=item.get("id")))
        else:
            raise ConfigError(f"{item_where}: expected method id or object")
    return tuple(methods)


def _parse_scenario(spec, overrides: dict, where: str) -> ScenarioMixture:
    if isinstance(spec, str):
        try:
            return builtin_scenario(spec, **{k: v for k, v in overrides.items() if v is not None})
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: scenario must be a builtin name or an object")
    _check_keys(spec, {"name", "rows", "m", "reps", "n", "sigma", "alpha", "assignment"}, where)
    if "rows" not in spec:
        raise ConfigError(f"{where}: inline scenario needs 'rows'")
    rows = []
    for i, row in enumerate(spec["rows"]):
        row_where = f"{where}.rows[{i}]"
        _check_keys(row, {"gamma", "beta", "proportion", "truth"}, row_where)
        try:
            truth = Truth(row["truth"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{row_where}: truth must be one of {[t.value for t in Truth]}") from exc
        rows.append(
            MixtureRow(
                gamma=_parse_sequence(row.get("gamma", "0"), f"{row_where}.gamma", allow_prior=True),
                beta=_parse_sequence(row.get("beta", "0"), f"{row_where}.beta", allow_prior=True),
                proportion=float(_finite(row.get("proportion", 0.0), f"{row_where}.proportion")),
                truth=truth,
            )
        )
    defaults = {"m": 200, "reps": 500, "n": 200, "sigma": 1.0, "alpha": 0.05}
    params = {key: _setting(None, spec, key, default) for key, default in defaults.items()}
    params["sigma"], params["alpha"] = float(params["sigma"]), float(params["alpha"])
    params.update((key, value) for key, value in overrides.items() if key in defaults and value is not None)
    try:
        assignment = Assignment(spec.get("assignment", "deterministic"))
        return ScenarioMixture(str(spec.get("name", "inline")), tuple(rows), assignment=assignment, **params)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _scenario_overrides(args, cfg: dict) -> dict:
    """m, reps, n, sigma, alpha and pi from the flags, else the config; None where neither sets one."""
    overrides = {key: _setting(args, cfg, key) for key in ("m", "reps", "n", "sigma", "alpha")}
    pi = cfg.get("pi")
    if pi is not None and not isinstance(pi, list):
        raise ConfigError(f"pi must be a list of numbers, got {pi!r}")
    overrides["pi"] = None if pi is None else tuple(_finite(p, "pi") for p in pi)
    return overrides


def _parse_n_grid(text: str) -> list[int]:
    try:
        grid = [int(v) for v in text.replace(" ", "").split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--n-grid: {exc}") from exc
    if not grid:
        raise ConfigError("--n-grid must list at least one sample size")
    return grid


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    cfg = _load_config(
        args.config,
        {"scenario", "methods", "seed", "reps", "m", "n", "sigma", "alpha", "pi", "threads", "out", "format", "svg"},
        "simulate config",
    )
    overrides = _scenario_overrides(args, cfg)
    scenario_spec = args.scenario if args.scenario is not None else cfg.get("scenario")
    if scenario_spec is None:
        raise ConfigError("simulate needs --scenario or a config file naming one")
    scenario = _parse_scenario(scenario_spec, overrides, "scenario")

    methods = _parse_methods(args.methods if args.methods is not None else cfg.get("methods"), "methods")
    seed = _resolve_seed(args.seed if args.seed is not None else cfg.get("seed"))
    threads = _setting(args, cfg, "threads", 1)
    fmt = args.format or cfg.get("format", "csv")
    out = args.out or cfg.get("out") or f"simulate-{scenario.name}.{fmt}"

    report = run_experiment(scenario, methods, seed, threads=threads)
    write_simulation_report(report, out, fmt)
    print(f"wrote {out} ({len(report.methods)} methods, seed {seed}, reps {scenario.reps})")
    for res in report.methods:
        power = "n/a" if math.isnan(res.power) else f"{res.power:.4f}"
        print(
            f"  {res.method_id:12s} fwer={res.empirical_fwer:.4f} (se {res.fwer_se:.4f})  "
            f"power={power}  mean_F={res.mean_F:.1f}"
        )

    svg = args.svg or cfg.get("svg")
    if svg:
        idx = list(range(1, len(report.methods) + 1))
        line_plot(
            svg,
            [
                Series("FWER", idx, [m.empirical_fwer for m in report.methods], [m.fwer_se for m in report.methods]),
                Series("power", idx, [np.nan_to_num(m.power) for m in report.methods], [np.nan_to_num(m.power_se) for m in report.methods]),
            ],
            x_label="method index: " + " ".join(f"{i}={m.method_id}" for i, m in zip(idx, report.methods)),
            y_label="probability",
            title=f"{scenario.name}: empirical FWER and power",
        )
        print(f"wrote {svg}")
    return EXIT_OK


# ---------------------------------------------------------------- mse-ratio


def _cmd_mse_ratio(args) -> int:
    cfg = _load_config(
        args.config,
        {"preset", "gamma", "beta", "c", "delta", "n_grid", "reps", "seed", "out", "format", "svg"},
        "mse-ratio config",
    )
    preset_name = args.preset or cfg.get("preset")
    if preset_name is not None:
        if preset_name not in MSE_RATIO_PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {sorted(MSE_RATIO_PRESETS)}"
            )
        preset = MSE_RATIO_PRESETS[preset_name]
        seq = ParamSequence(preset.gamma, preset.beta)
        c, delta = preset.c, preset.delta
    else:
        gamma = args.gamma or cfg.get("gamma")
        beta = args.beta or cfg.get("beta")
        c, delta = _setting(args, cfg, "c"), _setting(args, cfg, "delta")
        if gamma is None or beta is None or c is None or delta is None:
            raise ConfigError("mse-ratio needs --preset or all of --gamma/--beta/--c/--delta")
        seq = ParamSequence(_parse_sequence(gamma, "gamma"), _parse_sequence(beta, "beta"))
        c, delta = float(c), float(delta)

    n_grid = (
        _parse_n_grid(args.n_grid)
        if args.n_grid is not None
        else cfg.get("n_grid", [10**2, 10**3, 10**4, 10**5, 10**6])
    )
    reps = _setting(args, cfg, "reps", 10_000)
    seed = _resolve_seed(args.seed if args.seed is not None else cfg.get("seed"))
    fmt = args.format or cfg.get("format", "csv")
    out = args.out or cfg.get("out") or f"mse-ratio-{preset_name or 'custom'}.{fmt}"

    try:
        points = mse_ratio_experiment(seq, c, delta, n_grid, reps, RandomStream(seed, 0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    meta = {
        "gamma": str(seq.gamma),
        "beta": str(seq.beta),
        "c": c,
        "delta": delta,
        "reps": reps,
        "seed": seed,
    }
    if preset_name:
        meta["preset"] = preset_name
    write_mse_ratio_report(points, meta, out, fmt)
    print(f"wrote {out} ({len(points)} sample sizes, seed {seed})")
    for p in points:
        print(
            f"  n={p.n:>9d} ratio={p.ratio:.4f} (se {p.mc_se:.4f})  K_n={p.k_at_n:.4f}  "
            f"filtered={p.filter_freq:.3f}"
        )

    svg = args.svg or cfg.get("svg")
    if svg:
        line_plot(
            svg,
            [Series("MSE ratio", [p.n for p in points], [p.ratio for p in points], [p.mc_se for p in points])],
            x_label="n",
            y_label="MSE(shrunk) / MSE(plain)",
            title=f"gamma={seq.gamma}, beta={seq.beta}, c={c:g}, delta={delta:g}",
            log_x=True,
        )
        print(f"wrote {svg}")
    return EXIT_OK


# ---------------------------------------------------------------- classify


def _cmd_classify(args) -> int:
    seq = ParamSequence(_parse_sequence(args.gamma, "--gamma"), _parse_sequence(args.beta, "--beta"))
    n_grid = _parse_n_grid(args.n_grid) if args.n_grid else list(DEFAULT_N_GRID)
    result = classify_product_regime(seq, args.c, args.delta, n_grid)
    diagnostics = {"A": result.a_value, "mean_term": result.a_mean_term, "sd_term": result.a_sd_term}
    print(
        _json_line(
            {
                "L_region": result.L_region.value,
                "K": nan_to_none(result.K_value),
                "efficiency_class": result.efficiency_class.value,
                "A_diagnostics": {key: nan_to_none(value) for key, value in diagnostics.items()},
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------- fit


def _cmd_fit(args) -> int:
    table = read_observations(args.data, delimiter=args.delimiter)
    pair = ols_mediation_fit(table)
    try:
        sobel = sobel_stat(pair)
    except DegenerateInputError:
        sobel = None
    # sobel_z divides by the fitted standard errors (sigma / sqrt(n)), giving
    # the usual z-form of the normalized product statistic.
    print(
        _json_line(
            {
                "gamma_hat": pair.gamma_hat,
                "beta_hat": pair.beta_hat,
                "sigma_gamma": pair.sigma_gamma,
                "sigma_beta": pair.sigma_beta,
                "n": pair.n,
                "product": product_stat(pair),
                "sobel": sobel,
                "sobel_z": None if sobel is None else math.sqrt(pair.n) * sobel,
                "joint_pvalue": joint_pvalue(pair),
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------- fwer-bound


def _cmd_fwer_bound(args) -> int:
    cfg = _load_config(
        args.config,
        {"scenario", "rule", "reps", "m", "n", "sigma", "alpha", "p0_reps", "seed", "out"},
        "fwer-bound config",
    )
    scenario_spec = args.scenario if args.scenario is not None else cfg.get("scenario")
    if scenario_spec is None:
        raise ConfigError("fwer-bound needs --scenario or a config file naming one")
    scenario = _parse_scenario(scenario_spec, _scenario_overrides(args, cfg), "scenario")
    rule_spec = args.rule if args.rule is not None else cfg.get("rule")
    if rule_spec is None:
        raise ConfigError("fwer-bound needs --rule or a config file naming one")
    if isinstance(rule_spec, str) and rule_spec.lstrip().startswith("{"):
        rule_spec = json.loads(rule_spec)
    rule = _parse_rule(rule_spec, "rule")
    p0_reps = _setting(args, cfg, "p0_reps", 100_000)
    seed = _resolve_seed(args.seed if args.seed is not None else cfg.get("seed"))

    p0, p0_se = filtration_prob_at_theta0(
        rule,
        scenario.sigma,
        scenario.sigma,
        scenario.n,
        p0_reps,
        RandomStream(seed, _AUX_STREAM_BASE),
    )
    stats = conditional_rejection_stats(scenario, Method(rule), seed)
    bound = fwer_bound_from_survivors(stats.q_max, stats.F_samples)
    payload = {
        "rule": rule.label,
        "scenario": scenario.name,
        "p0": p0,
        "p0_se": p0_se,
        "adjusted_threshold_factor": p0,
        "q_max": stats.q_max,
        "survivor_bound": bound,
        "simulated_fwer": stats.fwer,
        "fwer_se": stats.fwer_se,
        "mean_F": float(np.mean(stats.F_samples)),
        "seed": seed,
    }
    print(_json_line(payload))
    out = args.out or cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Two-stage filtration tests and shrinkage estimators for composite nulls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_threads: bool = False) -> None:
        p.add_argument("--seed", type=_seed_value, help="master seed (default: TWOSTAGE_SEED or drawn)")
        p.add_argument("--out", help="output path")
        if with_threads:
            p.add_argument(
                "--threads",
                type=_positive_int,
                help="accepted and checked, but the engine runs in one thread; "
                "reports are identical for any value (default 1)",
            )

    p_sim = sub.add_parser("simulate", help="run a multiple-testing scenario")
    p_sim.add_argument("--config", help="JSON config file")
    p_sim.add_argument("--scenario", help=f"builtin scenario name: {', '.join(BUILTIN_SCENARIOS)}")
    p_sim.add_argument("--methods", help="'all' or comma-separated method ids")
    p_sim.add_argument("--reps", type=_positive_int, help="replications")
    p_sim.add_argument("--m", type=_positive_int, help="hypotheses per replication")
    p_sim.add_argument("--n", type=_positive_int, help="sample size the sequences are evaluated at")
    p_sim.add_argument("--sigma", type=float, help="per-observation scale")
    p_sim.add_argument("--alpha", type=float, help="FWER level")
    p_sim.add_argument("--format", choices=("csv", "json"), help="report format (default csv)")
    p_sim.add_argument("--svg", help="also write an SVG chart to this path")
    common(p_sim, with_threads=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_mse = sub.add_parser("mse-ratio", help="MSE-ratio experiment along a parameter sequence")
    p_mse.add_argument("--config", help="JSON config file")
    p_mse.add_argument("--preset", help=f"named preset: {', '.join(sorted(MSE_RATIO_PRESETS))}")
    p_mse.add_argument("--gamma", help="gamma sequence, e.g. '2n^-0.5'")
    p_mse.add_argument("--beta", help="beta sequence")
    p_mse.add_argument("--c", type=float, help="filtration constant c")
    p_mse.add_argument("--delta", type=float, help="filtration exponent delta")
    p_mse.add_argument("--n-grid", help="comma-separated sample sizes")
    p_mse.add_argument("--reps", type=_positive_int, help="replications per sample size")
    p_mse.add_argument("--format", choices=("csv", "json"), help="report format (default csv)")
    p_mse.add_argument("--svg", help="write a log-x ratio plot with error band")
    common(p_mse)
    p_mse.set_defaults(func=_cmd_mse_ratio)

    p_cls = sub.add_parser("classify", help="classify the filtration regime of a sequence")
    p_cls.add_argument("--gamma", required=True, help="gamma sequence, e.g. 'n^-0.6'")
    p_cls.add_argument("--beta", required=True, help="beta sequence")
    p_cls.add_argument("--c", type=float, required=True)
    p_cls.add_argument("--delta", type=float, required=True)
    p_cls.add_argument("--n-grid", help="comma-separated sample sizes")
    p_cls.set_defaults(func=_cmd_classify)

    p_fit = sub.add_parser("fit", help="estimate pair from a tabular data file")
    p_fit.add_argument("data", help="delimited file with columns a, m, y and optional x1..xd")
    p_fit.add_argument("--delimiter", help="field delimiter (default: sniffed)")
    p_fit.set_defaults(func=_cmd_fit)

    p_fb = sub.add_parser("fwer-bound", help="filtration-aware factor and survivor-count FWER bound")
    p_fb.add_argument("--config", help="JSON config file")
    p_fb.add_argument("--scenario", help="builtin scenario name")
    p_fb.add_argument("--rule", help="method id (e.g. prod-0.9) or inline JSON rule")
    p_fb.add_argument("--reps", type=_positive_int, help="replications")
    p_fb.add_argument("--m", type=_positive_int)
    p_fb.add_argument("--n", type=_positive_int)
    p_fb.add_argument("--p0-reps", type=_positive_int, help="draws for the p0 estimate")
    common(p_fb)
    p_fb.set_defaults(func=_cmd_fwer_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconsistentRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (SingularDesignError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError and DataFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
