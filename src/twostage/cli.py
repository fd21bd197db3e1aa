"""Command-line front end.

Subcommands: ``simulate`` (multiple-testing study), ``mse-ratio`` (exact
shrinkage MSE-ratio along a sequence), ``classify`` (regime classification
of a sequence), ``fit`` (estimate pair from a data file), ``fwer-bound``
(a rule's p0, and its exact FWER and survivor-count FWER bound on a
scenario).

Exit codes are a stable contract: 0 ok, 2 configuration problem, 3 I/O
failure, 5 numerical failure; 4 is retired, not reassigned.  ``--seed`` pins
all randomness; when absent the TWOSTAGE_SEED environment variable is
honored, and otherwise a fresh seed is drawn.  ``simulate``, the one command
that draws, prints the seed it ran with in its ``wrote`` line and report, so
any run can be replayed.  ``mse-ratio`` and ``fwer-bound`` draw nothing: they
check ``--seed`` and ``--reps`` and ignore them.

Each handler imports the library code it runs when it is called, so a call
loads only its own subcommand's modules (``fit`` never loads the simulation
engine, nor ``numpy.random``), and importing this module, ``--help``, a
usage error, ``classify``, ``mse-ratio`` and ``fwer-bound`` load no numpy at
all.  ``main`` runs numpy's BLAS in one thread unless OPENBLAS_NUM_THREADS
is set: the program's BLAS work is one small QR and a few matrix-vector
products, and each extra OpenBLAS worker only spins.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .exceptions import ConfigError, DegenerateInputError, SingularDesignError

if TYPE_CHECKING:
    from .rules import FiltrationRule, Method
    from .scenario import ScenarioMixture

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 5

def _int_at_least(value, minimum: int, where: str, maximum: float = math.inf) -> int:
    """``value`` as an int >= ``minimum`` (and <= ``maximum``), from an int or its decimal text.

    Flags, config keys and TWOSTAGE_SEED share this check, so a count or a
    seed is accepted or refused alike wherever it comes from; JSON floats and
    booleans are refused rather than truncated.
    """
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        shown = maximum if isinstance(maximum, int) else f"{maximum:g}"
        raise ConfigError(f"{where} must be at most {shown}, got a {len(str(value))}-digit integer")
    return value


def _finite(value, where: str) -> float:
    """``value`` as a float if it is a JSON number within float range; else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _string(value, where: str, choices: tuple[str, ...] = ()) -> str:
    if not isinstance(value, str) or choices and value not in choices:
        raise ConfigError(f"{where} must be {' or '.join(choices) or 'a string'}, got {value!r}")
    return value


class _Kind(NamedTuple):
    """``check(value, where)`` returns the value or raises ConfigError; flags go via ``flag``."""

    check: Callable[[object, str], object]
    flag: Callable[[str], object] = str


def _list_of(item: _Kind, what: str) -> _Kind:
    """Comma text, or a JSON list, of ``item`` values."""
    def check(value, where: str) -> tuple:
        items = value
        try:
            if isinstance(value, str):
                items = [item.flag(v) for v in value.replace(" ", "").split(",") if v]
            if isinstance(items, list):
                return tuple(item.check(v, where) for v in items)
        except ValueError:
            pass
        raise ConfigError(f"{where} must be comma text or a list of {what}, got {value!r}")
    return _Kind(check)


def _array_of(item: _Kind, size: int | None = None) -> _Kind:
    """A JSON list (of ``size`` entries, if given) of ``item`` values, each checked at ``where[i]``."""
    def check(value, where: str) -> tuple:
        if not isinstance(value, list) or size is not None and len(value) != size:
            raise ConfigError(f"{where} must be a list{f' of {size}' if size else ''}, got {value!r}")
        return tuple(item.check(v, f"{where}[{i}]") for i, v in enumerate(value))
    return _Kind(check)


def _name(value, where: str, also: str = "") -> str:
    """A label that a CSV report's cell or metadata line holds, and reads back, as it is, with none of ``also``."""
    text = _string(value, where)
    plain = text.splitlines() == [text] and "," not in text and text.strip() == text and not text.startswith("#")
    if not plain or set(text) & set(also):
        shown = f", leading # or any of {also}" if also else " or leading #"
        raise ConfigError(f"{where} must be one line of text with no comma, outer space{shown}, got {value!r}")
    return text


def _json_text(text: str):
    """A structured flag's text: JSON when it opens with { or [, else the text itself."""
    return json.loads(text) if text.lstrip().startswith(("{", "[")) else text


# Counts size numpy arrays, so they must fit numpy's index type (np.intp, whose
# largest value is sys.maxsize); a sample size enters the formulas as a float,
# so it must fit a float.
_COUNT = _Kind(lambda value, where: _int_at_least(value, 1, where, sys.maxsize))
_SAMPLE_SIZE = _Kind(lambda value, where: _int_at_least(value, 1, where, sys.float_info.max))
# Philox takes a 64-bit key, so a larger seed would replay a smaller one's stream.
_SEED = _Kind(lambda value, where: _int_at_least(value, 0, where, 2**64 - 1))
_NUMBER = _Kind(_finite, float)
_STRING = _Kind(_string)
_FORMAT = _Kind(lambda value, where: _string(value, where, ("csv", "json")))
_SAMPLE_SIZES = _list_of(_SAMPLE_SIZE, "integers from 1 to the largest float")
_NUMBERS = _list_of(_NUMBER, "finite numbers")
_NAME = _Kind(_name)
# simulate writes simulate-<scenario name>.csv in the working directory when given no --out.
_FILE_NAME = _Kind(lambda value, where: _name(value, where, "/\\"))
# A name or a JSON spec, parsed by the handler that knows its shape (scenario, methods, ...).
_SPEC = _Kind(lambda value, where: value, _json_text)


class _Field(NamedTuple):
    """One setting: the config key ``name`` and the flag ``--name`` (or a positional argument)."""

    name: str
    kind: _Kind
    help: str
    default: object = None
    required: bool = False
    positional: bool = False

    def parse_flag(self, text: str):
        try:
            return self.kind.check(self.kind.flag(text), self.name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None


def _check_keys(obj, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _load_config(path: str | None, table: Sequence[_Field], where: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _check_keys(cfg, {field.name for field in table} - {"config"}, where)
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict, table: Sequence[_Field]) -> dict:
    """Flag, else config (null is absent), else default (called if callable); config is checked."""
    settings = {}
    for field in table:
        value = cfg.get(field.name)
        if value is not None:
            value = field.kind.check(value, field.name)
        if getattr(args, field.name) is not None:
            value = getattr(args, field.name)
        if value is None and field.required:
            raise ConfigError(f"{args.command} needs a {field.name} setting")
        if value is None:
            value = field.default() if callable(field.default) else field.default
        settings[field.name] = value
    return settings


def _default_seed() -> int:
    """The seed when no flag or config sets one: TWOSTAGE_SEED, else a drawn one, which each command prints."""
    env = os.environ.get("TWOSTAGE_SEED")
    if env is not None:
        return _SEED.check(env, "TWOSTAGE_SEED")
    import secrets

    return secrets.randbits(63)


def _object(spec, fields: Sequence[_Field] | dict, where: str) -> dict:
    """A nested JSON object checked against ``fields``, as a dict of every field's value.

    Unknown keys are refused, null is absent, an absent key takes its default,
    and each value goes through its field's kind at the dotted path
    ``where.name``.  For a kind table, kind -> (class path, fields), the
    object's ``kind`` picks the fields.
    """
    if isinstance(fields, dict):
        if not isinstance(spec, dict) or spec.get("kind") is None:
            raise ConfigError(f"{where} must be an object with a kind of {' or '.join(fields)}, got {spec!r}")
        _, own = fields[_string(spec["kind"], f"{where}.kind", tuple(fields))]
        fields = (_Field("kind", _STRING, "the kind"), *own)
    _check_keys(spec, {field.name for field in fields}, where)
    values = {}
    for field in fields:
        value = field.default if spec.get(field.name) is None else spec[field.name]
        if value is None and field.required:
            raise ConfigError(f"{where} needs a {field.name}")
        values[field.name] = None if value is None else field.kind.check(value, f"{where}.{field.name}")
    return values


def _lib(path: str):
    """``module.name`` (or ``module.name.attribute``) in this package, imported when asked for."""
    module, *names = path.split(".")
    return functools.reduce(getattr, names, importlib.import_module(f"{__package__}.{module}"))


def _make(path: str, where: str, *args, **kwargs):
    """Call ``_lib(path)``, and report its ValueError at ``where``."""
    try:
        return _lib(path)(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _built(path: str, fields: Sequence[_Field]) -> _Kind:
    """A JSON object checked against ``fields``, then passed to ``path`` as keywords."""
    return _Kind(lambda value, where: _make(path, where, **_object(value, fields, where)))


def _member(path: str) -> _Kind:
    """The value of a member of the Enum at ``path``."""
    def check(value, where: str):
        enum = _lib(path)
        return enum(_string(value, where, tuple(member.value for member in enum)))
    return _Kind(check)


def _sequence(value, where: str):
    """A sequence: text such as '1+3n^-0.5', or an object of an offset and [coefficient, exponent] terms."""
    if isinstance(value, str):
        return _make("sequence.PowerSequence.parse", where, value)
    return _make("sequence.PowerSequence", where, **_object(value, _TERMS, where))


def _coordinate(value, where: str):
    """A scenario row's coordinate: a sequence, or a hyperprior {"normal": {"mean": ..., "variance": ...}}."""
    if isinstance(value, dict) and "normal" in value:
        return _object(value, _HYPERPRIOR, where)["normal"]
    return _sequence(value, where)


def _standard_method(method_id: str, where: str, what: str) -> Method:
    from .rules import standard_methods

    methods = {method.method_id: method for method in standard_methods()}
    if method_id not in methods:
        raise ConfigError(f"{where}: unknown {what} id {method_id!r}; standard ids: {list(methods)}")
    return methods[method_id]


def _rule(value, where: str) -> FiltrationRule:
    """A rule: a standard method id, or a {"kind": ...} object."""
    if isinstance(value, str):
        return _standard_method(value, where, "rule").rule
    values = _object(value, _RULES, where)
    return _make(_RULES[values.pop("kind")][0], where, **values)


# The nested objects of a config.  A kind table maps each kind to its class and fields.
_SEQUENCE = _Kind(_sequence)
_TERMS = (_Field("offset", _NUMBER, "constant", 0.0), _Field("terms", _array_of(_array_of(_NUMBER, 2)), "pairs", []))
_PRIOR = (_Field("mean", _SEQUENCE, "mean", required=True), _Field("variance", _SEQUENCE, "variance", required=True))
_HYPERPRIOR = (_Field("normal", _built("scenario.NormalMeanPrior", _PRIOR), "normal hyperprior", required=True),)
_ROW = (
    _Field("gamma", _Kind(_coordinate), "gamma coordinate", "0"),
    _Field("beta", _Kind(_coordinate), "beta coordinate", "0"),
    _Field("proportion", _NUMBER, "mixture weight", 0.0),
)
# An inline scenario; its sizes come from the top-level settings alone.
_SCENARIO = (
    _Field("name", _FILE_NAME, "report name", "inline"),
    _Field("rows", _array_of(_built("scenario.MixtureRow", _ROW)), "mixture rows", required=True),
    _Field("assignment", _member("scenario.Assignment"), "row assignment", "deterministic"),
)
_THRESHOLD = (_Field("threshold", _NUMBER, "p-value threshold", required=True),)
_RULES = {
    "nofilter": ("rules.NoFilter", ()),
    "minp": ("rules.MinPValue", _THRESHOLD),
    "chisq2": ("rules.ChiSquarePValue", _THRESHOLD),
    "product": ("rules.ProductThreshold", (
        _Field("c", _NUMBER, "constant", required=True), _Field("delta", _NUMBER, "exponent", required=True))),
}
_ADJUSTMENTS = {
    "bonferroni": ("rules.BonferroniOverUnfiltered", ()),
    "filtration_aware": ("rules.FiltrationAware", (_Field("p0", _NUMBER, "default: the rule's exact p0"),)),
}
_METHOD = (
    _Field("rule", _Kind(_rule), "standard id or rule object", required=True),
    _Field("adjustment", _Kind(lambda value, where: _object(value, _ADJUSTMENTS, where)), "", {"kind": "bonferroni"}),
    _Field("id", _NAME, "report label"),
)


def _parse_methods(spec, where: str, scenario: ScenarioMixture) -> tuple[Method, ...]:
    from .rules import Method, standard_methods, survival_prob_at_theta0

    if spec is None or spec == "all":
        return standard_methods()
    if isinstance(spec, str):
        spec = [s.strip() for s in spec.split(",") if s.strip()]
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where}: methods must be 'all' or a nonempty list")
    methods = []
    for i, item in enumerate(spec):
        at = f"{where}[{i}]"
        if isinstance(item, str):
            methods.append(_standard_method(item, at, "method"))
            continue
        item = _object(item, _METHOD, at)
        rule, adjustment = item["rule"], item["adjustment"]
        if adjustment.get("p0", 1.0) is None:  # filtration_aware without a p0 takes the rule's exact p0
            adjustment["p0"] = survival_prob_at_theta0(rule, scenario.sigma, scenario.sigma, scenario.n)
            if adjustment["p0"] == 0.0:
                raise ConfigError(f"{at}.adjustment: the exact p0 of {rule.label} at n = {scenario.n} underflows to 0")
        adjustment = _make(_ADJUSTMENTS[adjustment.pop("kind")][0], f"{at}.adjustment", **adjustment)
        methods.append(Method(rule, adjustment, id=item["id"]))
    return tuple(methods)


def _parse_scenario(spec, settings: dict, where: str) -> ScenarioMixture:
    """A builtin scenario by name, or an inline one; the sizes (and simulate's pi) come from ``settings``."""
    sizes = {f.name: settings[f.name] for f in _SIZES if settings[f.name] is not None}
    if settings.get("pi") is not None:
        if spec != "hierarchical":
            raise ConfigError("pi applies only to the hierarchical scenario")
        sizes["pi"] = settings["pi"]
    if isinstance(spec, str):
        return _make("scenario.builtin_scenario", where, spec, **sizes)
    return _make("scenario.ScenarioMixture", where, **_object(spec, _SCENARIO, where), **sizes)


@contextmanager
def _memory_for(setting: str, value: int):
    """Report arrays that the count ``setting`` made too large as a ConfigError naming it."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"{setting} = {value} needs more memory than is available ({exc})") from None


def _nan_to_zero(value: float) -> float:
    return 0.0 if math.isnan(value) else value


# ---------------------------------------------------------------- settings

_CONFIG = _Field("config", _STRING, "JSON config file; flags override its keys")
_SIZES = (
    _Field("reps", _COUNT, "replications"),
    _Field("m", _COUNT, "hypotheses per replication"),
    _Field("n", _SAMPLE_SIZE, "sample size the sequences are evaluated at"),
    _Field("sigma", _NUMBER, "per-observation scale"),
    _Field("alpha", _NUMBER, "FWER level"),
)
_FORMAT_FIELD = _Field("format", _FORMAT, "report format: csv or json (default csv)", "csv")
_SEED_FIELD = _Field("seed", _SEED, "master seed (default: TWOSTAGE_SEED or drawn)", _default_seed)
_OUT = _Field("out", _STRING, "output path")
_SCENARIO_SPEC = _Field("scenario", _SPEC, "builtin scenario: {scenarios}; or inline JSON", required=True)
_SCENARIO_RUN = (_CONFIG, _SCENARIO_SPEC, *_SIZES, _SEED_FIELD, _OUT)

_SIMULATE = (
    *_SCENARIO_RUN,
    _Field("pi", _NUMBERS, "hierarchical scenario's row weights, e.g. 0.65,0.30,0.05"),
    _Field("methods", _SPEC, "'all' (default), comma-separated method ids, or a JSON list"),
    _FORMAT_FIELD,
    _Field("svg", _STRING, "also write an SVG chart to this path"),
    _Field("threads", _COUNT, "checked, but ignored: the engine runs in one thread"),
)

_FWER_BOUND = (
    _CONFIG,
    _SCENARIO_SPEC,
    _Field("reps", _COUNT, "checked, but ignored: the values are exact"),
    *(field for field in _SIZES if field.name != "reps"),
    _Field("seed", _SEED, "checked, but ignored: the values are exact"),
    _OUT,
    _Field("rule", _SPEC, "method id (e.g. prod-0.9) or inline JSON rule", required=True),
    _Field("p0_reps", _COUNT, "checked, but ignored: p0 is exact"),
)

_MSE_RATIO = (
    _CONFIG,
    _Field("preset", _STRING, "named preset: {presets}"),
    _Field("gamma", _SPEC, "gamma sequence, e.g. '2n^-0.5'"),
    _Field("beta", _SPEC, "beta sequence"),
    _Field("c", _NUMBER, "filtration constant c"),
    _Field("delta", _NUMBER, "filtration exponent delta"),
    _Field("n_grid", _SAMPLE_SIZES, "comma-separated sample sizes", (10**2, 10**3, 10**4, 10**5, 10**6)),
    _Field("reps", _COUNT, "checked, but ignored: the ratio is exact"),
    _FORMAT_FIELD,
    _Field("svg", _STRING, "write a log-x ratio plot"),
    _Field("seed", _SEED, "checked, but ignored: the ratio is exact"),
    _OUT,
)

_CLASSIFY = (
    _Field("gamma", _SPEC, "gamma sequence, e.g. 'n^-0.6'", required=True),
    _Field("beta", _SPEC, "beta sequence", required=True),
    _Field("c", _NUMBER, "filtration constant c", required=True),
    _Field("delta", _NUMBER, "filtration exponent delta", required=True),
)

_FIT = (
    _Field("data", _STRING, "delimited file: columns a, m, y, optional x1..xd", positional=True),
    _Field("delimiter", _STRING, "field delimiter (default: sniffed)"),
)


# ---------------------------------------------------------------- simulate


def _cmd_simulate(s: dict) -> int:
    from .report import write_simulation_report
    from .simulate import run_experiment

    scenario = _parse_scenario(s["scenario"], s, "scenario")
    methods = _parse_methods(s["methods"], "methods", scenario)
    out = s["out"] or f"simulate-{scenario.name}.{s['format']}"

    with _memory_for("m", scenario.m):
        report = run_experiment(scenario, methods, s["seed"])
    write_simulation_report(report, out, s["format"])
    print(f"wrote {out} ({len(report.methods)} methods, seed {s['seed']}, reps {scenario.reps})")
    for res in report.methods:
        power = "n/a" if math.isnan(res.power) else f"{res.power:.4f}"
        print(
            f"  {res.method_id:12s} fwer={res.empirical_fwer:.4f} (se {res.fwer_se:.4f})  "
            f"power={power}  mean_F={res.mean_F:.1f}"
        )

    if s["svg"]:
        from .svgplot import Series, line_plot

        idx = list(range(1, len(report.methods) + 1))
        line_plot(
            s["svg"],
            [
                Series("FWER", idx, [m.empirical_fwer for m in report.methods], [m.fwer_se for m in report.methods]),
                Series("power", idx, [_nan_to_zero(m.power) for m in report.methods], [_nan_to_zero(m.power_se) for m in report.methods]),
            ],
            x_label="method index: " + " ".join(f"{i}={m.method_id}" for i, m in zip(idx, report.methods)),
            y_label="probability",
            title=f"{scenario.name}: empirical FWER and power",
        )
        print(f"wrote {s['svg']}")
    return EXIT_OK


# ---------------------------------------------------------------- mse-ratio


def _cmd_mse_ratio(s: dict) -> int:
    from .asymptotics import MSE_RATIO_PRESETS, ParamSequence, mse_ratio_exact
    from .report import write_mse_ratio_report

    preset_name = s["preset"]
    custom = [key for key in ("gamma", "beta", "c", "delta") if s[key] is not None]
    if preset_name and preset_name not in MSE_RATIO_PRESETS:
        raise ConfigError(f"unknown preset {preset_name!r}; available: {sorted(MSE_RATIO_PRESETS)}")
    if preset_name and custom:
        raise ConfigError(f"preset {preset_name!r} fixes gamma, beta, c and delta; drop {custom}")
    if preset_name:
        preset = MSE_RATIO_PRESETS[preset_name]
        seq = ParamSequence(preset.gamma, preset.beta)
        c, delta = preset.c, preset.delta
    else:
        if len(custom) < 4:
            raise ConfigError("mse-ratio needs --preset or all of --gamma/--beta/--c/--delta")
        seq = ParamSequence(_sequence(s["gamma"], "gamma"), _sequence(s["beta"], "beta"))
        c, delta = s["c"], s["delta"]
    out = s["out"] or f"mse-ratio-{preset_name or 'custom'}.{s['format']}"

    try:
        points = mse_ratio_exact(seq, c, delta, s["n_grid"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    meta = {"gamma": str(seq.gamma), "beta": str(seq.beta), "c": c, "delta": delta}
    if preset_name:
        meta["preset"] = preset_name
    write_mse_ratio_report(points, meta, out, s["format"])
    print(f"wrote {out} ({len(points)} sample sizes)")
    for p in points:
        print(f"  n={p.n:>9d} ratio={p.ratio:.6f}  K_n={p.k_at_n:.4f}  filtered={p.filter_freq:.6f}")

    if s["svg"]:
        from .svgplot import Series, line_plot

        line_plot(
            s["svg"],
            [Series("MSE ratio", [p.n for p in points], [p.ratio for p in points], [p.mc_se for p in points])],
            x_label="n",
            y_label="MSE(shrunk) / MSE(plain)",
            title=f"gamma={seq.gamma}, beta={seq.beta}, c={c:g}, delta={delta:g}",
            log_x=True,
        )
        print(f"wrote {s['svg']}")
    return EXIT_OK


# ---------------------------------------------------------------- classify


def _cmd_classify(s: dict) -> int:
    from .asymptotics import ParamSequence, classify_product_regime
    from .jsonsafe import strict

    seq = ParamSequence(_sequence(s["gamma"], "gamma"), _sequence(s["beta"], "beta"))
    result = classify_product_regime(seq, s["c"], s["delta"])
    diagnostics = {"A": result.a_value, "mean_term": result.a_mean_term, "sd_term": result.a_sd_term}
    payload = {
        "L_region": result.L_region.value,
        "K": result.K_value,
        "efficiency_class": result.efficiency_class.value,
        "A_diagnostics": diagnostics,
    }
    print(json.dumps(strict(payload)))
    return EXIT_OK


# ---------------------------------------------------------------- fit


def _cmd_fit(s: dict) -> int:
    from .estimators import joint_pvalue, product_stat, sobel_stat
    from .ingest import ols_mediation_fit, read_observations

    table = read_observations(s["data"], delimiter=s["delimiter"])
    pair = ols_mediation_fit(table)
    try:
        sobel = sobel_stat(pair)
    except DegenerateInputError:
        sobel = None
    # sobel_z divides by the fitted standard errors (sigma / sqrt(n)), giving
    # the usual z-form of the normalized product statistic.
    payload = {
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
    print(json.dumps(payload))
    return EXIT_OK


# ---------------------------------------------------------------- fwer-bound


def _cmd_fwer_bound(s: dict) -> int:
    from .exact import exact_fwer_bound
    from .rules import survival_prob_at_theta0

    scenario = _parse_scenario(s["scenario"], s, "scenario")
    rule = _rule(s["rule"], "rule")

    p0 = survival_prob_at_theta0(rule, scenario.sigma, scenario.sigma, scenario.n)
    with _memory_for("m", scenario.m):
        exact = exact_fwer_bound(scenario, rule)
    payload = {
        "rule": rule.label,
        "scenario": scenario.name,
        "p0": p0,
        "q_max": exact.q_max,
        "survivor_bound": exact.survivor_bound,
        "fwer": exact.fwer,
        "mean_F": exact.mean_F,
    }
    # The file comes first, so a run that cannot write it prints no result.
    if s["out"]:
        from .report import write_json

        write_json(payload, s["out"])
    print(json.dumps(payload))
    if s["out"]:
        print(f"wrote {s['out']}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

_COMMANDS = {
    "simulate": (_cmd_simulate, "run a multiple-testing scenario", _SIMULATE),
    "mse-ratio": (_cmd_mse_ratio, "exact MSE-ratio along a parameter sequence", _MSE_RATIO),
    "classify": (_cmd_classify, "classify the filtration regime of a sequence", _CLASSIFY),
    "fit": (_cmd_fit, "estimate pair from a tabular data file", _FIT),
    "fwer-bound": (
        _cmd_fwer_bound, "p0, exact FWER and survivor-count FWER bound of a rule", _FWER_BOUND
    ),
}


class _HelpFormatter(argparse.HelpFormatter):
    """Fills ``{scenarios}`` and ``{presets}`` in a flag's help only when help is printed.

    So only ``--help`` loads the modules that define those names.
    """

    def _get_help_string(self, action):
        text = super()._get_help_string(action)
        if "{scenarios}" in text or "{presets}" in text:
            from .asymptotics import MSE_RATIO_PRESETS
            from .scenario import BUILTIN_SCENARIOS

            names = {"scenarios": BUILTIN_SCENARIOS, "presets": sorted(MSE_RATIO_PRESETS)}
            text = text.format(**{key: ", ".join(value) for key, value in names.items()})
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Two-stage filtration tests and shrinkage estimators for composite nulls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, table) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        for field in table:
            flag = field.name if field.positional else "--" + field.name.replace("_", "-")
            p.add_argument(flag, type=field.parse_flag, help=field.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code; argparse exits 2 on a usage error.

    When numpy is not yet loaded, OPENBLAS_NUM_THREADS defaults to 1 first (a
    value already set is kept); a process that has loaded numpy keeps its BLAS.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    run, _, table = _COMMANDS[args.command]
    try:
        cfg = _load_config(getattr(args, "config", None), table, f"{args.command} config")
        return run(_resolve(args, cfg, table))
    except (ValueError, FloatingPointError, OSError) as exc:  # ValueError: ConfigError and DataFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SingularDesignError, FloatingPointError)):
            return EXIT_NUMERIC
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
