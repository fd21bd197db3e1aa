"""Benchmark of the twostage CLI, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sim-config2 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --selfcheck

``--trace 0`` measures the end-to-end metrics.  It is a closed loop with one
caller: every CLI call runs in a fresh subprocess (interpreter start and
import included) and waits for the one before it.  Set-up time is the median
wall time of three fresh ``import twostage.cli`` runs.  A pass runs the
workload's commands once at ``--threads 1`` and, for commands that take the
flag (only ``simulate``), once more at ``--threads <nproc>``; a command
without the flag has one command line, so its one call gives both ``wall_s``
and ``wall_mt_s``.  Passes repeat while one more still fits in ``--seconds``.
Timings are medians over passes.

``--trace 1`` runs the same commands in-process through
``twostage.cli.main``, alternating untraced and traced passes, and reports
per-layer spans (see tracing.py) and counts.  The import breakdown comes from
``python -X importtime``.

Every call's output is checked (workloads.py).  A non-zero exit, a traceback
or a failed check counts as a failed invocation.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; quartiles, sample counts and the environment record go to the lines
above it and to ``.bench_work/<workload>/result-trace<N>.json``.  Results are
comparable only between runs with the same numpy version (NEP 19).

``--selfcheck`` runs every workload, checker and the traced run at a tiny
size and prints no numbers; it exits non-zero if the harness is broken.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import SPAN_NAMES, Instrumentation, Tracer, parse_importtime
from workloads import FULL, TINY, WORKLOADS, Command, Plan, Size

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# A run ends within 180 s even if the program hangs: a child is killed after
# CHILD_TIMEOUT_S, or sooner once the measurement has used RUN_BUDGET_S; an
# in-process call is interrupted the same way.
CHILD_TIMEOUT_S = 60
RUN_BUDGET_S = 150
SETUP_REPS = 3
IMPORTTIME_REPS = 3
IMPORT_CODE = "import twostage.cli"
# What the `twostage` console script runs.
ENTRY_CODE = "import sys; from twostage.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_mt_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    f"{span}.{field}": unit
    for span in SPAN_NAMES
    for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
}
PER_LAYER.update(
    {
        "dist.hyp_per_stream": "ratio",
        "simulate.hyp_drawn": "count",
        "procedure.survivor_frac": "ratio",
        "cli.import_s": "s",
        "cli.import_scipy_stats_s": "s",
        "trace.overhead_s": "s",
        "trace.absent_targets": "count",
    }
)


class HarnessError(RuntimeError):
    """The benchmark itself is broken or cannot run here; no number is reported."""


# ---------------------------------------------------------------- results


def stat(values, unit: str) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def exact(value, unit: str, n: int = 1) -> dict:
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": n}


def exit_problems(rc: int, stderr: str) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


class Outcome:
    """Checked invocations of one run: counts, problems and first outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: dict[int, tuple] = {}

    def judge(self, index: int, cmd: Command, rc: int, stdout: str, stderr: str, data) -> None:
        problems = exit_problems(rc, stderr) + cmd.check(stdout, data)
        if (stdout, data) != self.refs.setdefault(index, (stdout, data)):
            problems.append("output bytes differ from the first call with the same seed")
        self.count(cmd.args[0], problems)

    def count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


# ---------------------------------------------------------------- subprocesses


@dataclass
class ChildRun:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TWOSTAGE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], work: Path, env: dict, deadline: float) -> ChildRun:
    """Run one child to completion; wall time includes interpreter start."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        timeout = child_timeout(deadline)
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=env)
        status, usage = _wait4(proc.pid, timeout)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        rc=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _wait4(pid: int, timeout: float):
    """os.wait4 (which keeps the child's rusage), killing the child on timeout."""

    def kill(signum, frame):
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    with alarm(timeout, kill):
        _, status, usage = os.wait4(pid, 0)
    return status, usage


@contextmanager
def alarm(timeout: float, handler):
    """Call handler if the block runs longer than timeout seconds."""
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_timeout(deadline: float) -> float:
    return max(1.0, min(CHILD_TIMEOUT_S, deadline - perf_counter()))


def run_command(cmd: Command, threads: int, work: Path, env: dict, deadline: float) -> tuple[ChildRun, bytes | None]:
    if cmd.output is not None:
        cmd.output.unlink(missing_ok=True)
    run = run_child([sys.executable, "-c", ENTRY_CODE, *cmd.argv(threads)], work, env, deadline)
    return run, _read_output(cmd)


def _read_output(cmd: Command) -> bytes | None:
    if cmd.output is None or not cmd.output.is_file():
        return None
    return cmd.output.read_bytes()


# ---------------------------------------------------------------- end to end


def measure_e2e(plan: Plan, seconds: float, nproc: int, setup_reps: int, work: Path, outcome: Outcome) -> dict:
    env = child_env()
    deadline = perf_counter() + RUN_BUDGET_S
    setup = []
    for _ in range(setup_reps):
        run = run_child([sys.executable, "-c", IMPORT_CODE], work, env, deadline)
        outcome.count("import", exit_problems(run.rc, run.stderr))
        setup.append(run.wall)

    samples = defaultdict(list)
    start = perf_counter()
    while True:
        single = [run_command(cmd, 1, work, env, deadline) for cmd in plan.commands]
        # A command that takes no --threads has the same command line at
        # nproc threads, so its threads-1 call serves both.
        multi = [
            run_command(cmd, nproc, work, env, deadline) if cmd.takes_threads else single[i]
            for i, cmd in enumerate(plan.commands)
        ]
        for i, cmd in enumerate(plan.commands):
            for run, data in (single[i], multi[i]) if cmd.takes_threads else (single[i],):
                outcome.judge(i, cmd, run.rc, run.stdout, run.stderr, data)
        wall = sum(run.wall for run, _ in single)
        samples["wall_s"].append(wall)
        samples["wall_mt_s"].append(sum(run.wall for run, _ in multi))
        samples["cpu_s"].append(sum(run.cpu for run, _ in single))
        samples["cpu_mt_s"].append(sum(run.cpu for run, _ in multi))
        samples["peak_rss_mb"].append(max(run.rss_mb for run, _ in single))
        if plan.hypotheses:
            samples["hyp_per_s"].append(plan.hypotheses / wall)
        if not another_pass(start, len(samples["wall_s"]), seconds):
            break

    metrics = {"setup_s": stat(setup, "s")}
    for name, unit in END_TO_END.items():
        if name != "setup_s":
            metrics[name] = stat(samples[name], unit)
    # hyp_per_s is a fixed multiple of 1/wall_s, so it is reported but not gated.
    info = {"cpu_mt_s": stat(samples["cpu_mt_s"], "s")}
    if plan.hypotheses:
        info["hyp_per_s"] = stat(samples["hyp_per_s"], "1/s")
    return {"metrics": metrics, "info": info, "samples": {"setup_s": setup, **samples}}


def another_pass(start: float, passes: int, seconds: float) -> bool:
    """Whether a pass as long as the average so far still ends within the window."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes <= seconds


# ---------------------------------------------------------------- traced


def import_program():
    """Import twostage.cli from this checkout's src/ into the benchmark process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twostage.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "twostage").resolve():
        raise HarnessError(f"imported {cli.__file__}, not the checkout's src/twostage")
    return cli


class CallTimeout(Exception):
    """An in-process call ran past its time limit (not an OSError, which the CLI would catch)."""


def _time_out(signum, frame):
    raise CallTimeout("the command ran past its time limit")


def inprocess_pass(cli, plan: Plan, outcome: Outcome, deadline: float) -> float:
    """Run the workload's commands through cli.main at --threads 1; return wall seconds."""
    wall = 0.0
    for i, cmd in enumerate(plan.commands):
        if cmd.output is not None:
            cmd.output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                with alarm(child_timeout(deadline), _time_out):
                    rc = cli.main(cmd.argv(1))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the program crashed: keep the traceback and count the failure
                traceback.print_exc()
                rc = 1
        wall += perf_counter() - start
        outcome.judge(i, cmd, rc, out.getvalue(), err.getvalue(), _read_output(cmd))
    return wall


def measure_traced(plan: Plan, seconds: float, importtime_reps: int, work: Path, outcome: Outcome) -> dict:
    cli = import_program()  # also fills the bytecode cache before -X importtime
    inst = Instrumentation()
    env = child_env()
    deadline = perf_counter() + RUN_BUDGET_S
    import_s, scipy_s = [], []
    for _ in range(importtime_reps):
        run = run_child([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], work, env, deadline)
        outcome.count("importtime", exit_problems(run.rc, run.stderr))
        cumulative = parse_importtime(run.stderr)
        if "twostage.cli" not in cumulative:
            raise HarnessError("python -X importtime reported no twostage.cli import")
        import_s.append(cumulative["twostage.cli"])
        scipy_s.append(cumulative.get("scipy.stats", 0.0))

    untraced, traced, summaries = [], [], []
    first = None
    start = perf_counter()
    while True:
        untraced.append(inprocess_pass(cli, plan, outcome, deadline))
        tracer = Tracer()
        with inst.install(tracer):
            traced.append(inprocess_pass(cli, plan, outcome, deadline))
        summary = tracer.summary()
        if first is None:
            first = tracer
        elif _counts_of(summary) != _counts_of(summaries[0]):
            outcome.count("trace", ["span counts differ between traced passes"])
        summaries.append(summary)
        if not another_pass(start, len(summaries), seconds):
            break
    first.write(work / "spans.jsonl")

    n = len(summaries)
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = exact(summaries[0]["spans"][span]["calls"], "count", n)
        for field in ("total_s", "self_s"):
            metrics[f"{span}.{field}"] = stat([s["spans"][span][field] for s in summaries], "s")
    for name, value in summaries[0]["counts"].items():
        metrics[name] = exact(value, PER_LAYER[name], n)
    metrics["cli.import_s"] = stat(import_s, "s")
    metrics["cli.import_scipy_stats_s"] = stat(scipy_s, "s")
    metrics["trace.overhead_s"] = exact(statistics.median(traced) - statistics.median(untraced), "s", n)
    metrics["trace.absent_targets"] = exact(len(inst.absent), "count")
    info = {
        "absent": inst.absent,
        "inprocess_untraced_s": stat(untraced, "s"),
        "inprocess_traced_s": stat(traced, "s"),
    }
    samples = {"cli.import_s": import_s, "inprocess_untraced_s": untraced, "inprocess_traced_s": traced}
    return {"metrics": metrics, "info": info, "samples": samples}


def _counts_of(summary: dict) -> tuple:
    return tuple(v["calls"] for v in summary["spans"].values()) + tuple(summary["counts"].values())


# ---------------------------------------------------------------- environment


def nproc() -> int:
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True, check=False).stdout.strip()
        if out.isdigit():
            return int(out)
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, threads_mt: int) -> dict:
    cli = import_program()
    numpy = sys.modules["numpy"]
    scipy = sys.modules.get("scipy")
    try:
        bitgen = type(sys.modules["twostage.dist"].RandomStream(0).generator.bit_generator).__name__
    except (KeyError, AttributeError, TypeError):
        bitgen = "unknown"
    return {
        "nproc": threads_mt,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": getattr(scipy, "__version__", "not imported"),
        "bit_generator": bitgen,
        "commit": git_commit(),
        "seed": seed,
        "threads_mt": threads_mt,
        "program": str(Path(cli.__file__).parent.relative_to(ROOT)),
    }


# ---------------------------------------------------------------- runs


def run_workload(name: str, seed: int, seconds: float, trace: int, size: Size = FULL, reps: int | None = None) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads_mt = nproc()
    env = environment(seed, threads_mt)
    start = perf_counter()
    plan = workload.prepare(seed, work, size)
    inputs_s = perf_counter() - start
    argvs = [cmd.argv(1) for cmd in plan.commands]
    (work / "inputs.json").write_text(json.dumps({"seed": seed, "size": size.name, "argv": argvs}, indent=2) + "\n")
    outcome = Outcome()
    if trace:
        result = measure_traced(plan, seconds, reps or IMPORTTIME_REPS, work, outcome)
    else:
        result = measure_e2e(plan, seconds, threads_mt, reps or SETUP_REPS, work, outcome)
    result.update(
        workload=name,
        why=workload.why,
        trace=trace,
        size=size.name,
        env=env,
        inputs_s=inputs_s,
        attempted=outcome.attempted,
        failed=outcome.failed,
        fail_frac=outcome.failed / outcome.attempted,
        problems=outcome.problems,
        refs=outcome.refs,
        plan=plan,
    )
    saved = {k: v for k, v in result.items() if k not in ("refs", "plan")}
    (work / f"result-trace{trace}.json").write_text(json.dumps(saved, indent=2) + "\n")
    return result


def validate(result: dict) -> None:
    """Raise HarnessError unless the metrics are exactly the declared, finite set."""
    declared = END_TO_END if result["trace"] == 0 else PER_LAYER
    metrics = result["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        raise HarnessError(f"metrics {sorted(metrics)} do not match the declared set")
    for key, m in metrics.items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise HarnessError(f"metric {key} has value {value!r}")
        if result["trace"] == 0 and value <= 0:
            raise HarnessError(f"end-to-end metric {key} is {value}, expected > 0")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        section = spec["end_to_end"] if result["trace"] == 0 else spec["per_layer"]
        if {m["name"]: m["unit"] for m in section} != declared:
            raise HarnessError("BENCHMARK.json declares other metrics than the benchmark reports")


def print_result(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']} (seed {env['seed']}, trace {result['trace']}, size {result['size']}): {result['why']}")
    print("env: " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    for name, m in result["info"].items():
        if isinstance(m, dict):
            print(f"  [{name}] {m['value']:.6g} {m['unit']}  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
        else:
            print(f"  [{name}] {m}")
    print(f"  fail_frac {result['fail_frac']:.6g}  ({result['failed']} of {result['attempted']} invocations failed)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def final_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": metrics,
        }
    )


def selfcheck() -> list[str]:
    """Run every workload, checker and the traced run at a tiny size; return harness problems."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=0, trace=trace, size=TINY, reps=1)
            label = f"{name} trace={trace}"
            before = len(problems)
            try:
                validate(result)
            except HarnessError as exc:
                problems.append(f"{label}: {exc}")
            problems += [f"{label}: {p}" for p in result["problems"]]
            if trace:
                calls = result["metrics"]["cli.main.calls"]["value"]
                if calls != len(result["plan"].commands):
                    problems.append(f"{label}: cli.main traced {calls} calls per pass")
            else:
                # Each checker must reject a truncated copy of a good output.
                for i, cmd in enumerate(result["plan"].commands):
                    stdout, data = result["refs"][i]
                    bad = (stdout, data[: len(data) // 2]) if data is not None else (stdout[: len(stdout) // 2], None)
                    if not cmd.check(*bad):
                        problems.append(f"{label}: {cmd.check.__name__} accepted a truncated output")
            print(f"selfcheck: {label} {'ok' if len(problems) == before else 'FAILED'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; passed to the program as --seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced in-process run, per-layer metrics")
    parser.add_argument("--selfcheck", action="store_true", help="tiny-size run of every path; prints no numbers")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "twostage" / "cli.py").is_file():
        print(f"error: no src/twostage/cli.py under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            problems = selfcheck()
            for problem in problems:
                print(f"selfcheck FAILED {problem}", file=sys.stderr)
            print("selfcheck: " + ("failed" if problems else "ok"))
            return 1 if problems else 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            validate(result)
            print_result(result)
            results.append(result)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(final_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
