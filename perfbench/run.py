"""tabuq benchmark: times the real CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N]

With --trace 0 the CLI runs in a child process under perfbench/timed_cli.py,
closed loop (the next run starts when the previous one has exited), until
--seconds are used up, with the set-up probes in between, and the
end-to-end metrics are reported as medians over those runs. With
--trace 1 the CLI runs once untraced and once under perfbench/tracer.py,
and the per-layer metrics are reported. Every run's outputs are checked.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. --all runs every workload both ways and prints every
metric.

Work files go to .perfbench/ at the root of the checkout. Results that must
repeat exactly (the results.csv bytes, and the traced counts) are kept in
.perfbench/repeats.json, keyed by source digest, workload and seed, and a
later run of the same key must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# At least this many untraced CLI runs per invocation, so that each metric is a median.
MIN_RUNS = 3
# Set-up probes per invocation, run in groups before each of the first
# MIN_RUNS CLI runs so that they sample the same stretch of time.
SETUP_REPEATS = 12
# One invocation must end within 180 s; children still running after this are killed.
RUN_LIMIT_S = 170.0
COUNT_UNITS = ("count", "B")
# One BLAS thread per child. A second OpenBLAS thread gave no shorter wall
# time on two cores, doubled the CPU time, and made the runs depend on what
# else the host ran.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_outputs  # noqa: E402


@dataclass
class Child:
    """One finished child process and what its outputs showed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    failures: list[str] = field(default_factory=list)
    timing: dict | None = None  # timed_cli.py's report, for a run that passed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv: list[str], cwd: Path, log: Path, deadline: float) -> Child:
    """Run argv to completion, or kill it at the deadline; wall time from
    outside, CPU and peak RSS from wait4."""
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    failures = [] if proc.returncode == 0 else [f"exit code {proc.returncode}; see {log}"]
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
                 failures=failures)


def cli_args(config: Path, out: Path) -> list[str]:
    return ["--config", str(config), "--out", str(out), "--quiet"]


def cli_argv(config: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "tabuq", *cli_args(config, out)]


def results_digest(out: Path) -> str:
    return hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


def source_digest() -> str:
    """Digest of the program and benchmark sources, naming the commit under test."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def recall(key: str, value):
    """The value an earlier run in this checkout stored under key; value itself,
    stored for later runs, if there was none."""
    store = WORK / "repeats.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key not in known:
        known[key] = value
        store.write_text(json.dumps(known, indent=1) + "\n")
    return known[key]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_threads_env": {k: child_env()[k] for k in THREAD_VARS},
        "not_used": "CPU pinning, frequency control and cache dropping",
    }


def median_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "samples": values}


def end_to_end(workload, config: Path, run_dir: Path, seconds: float, deadline: float):
    """Closed loop of timed CLI runs until the time budget is spent, with the
    set-up probes in groups before the first MIN_RUNS of them."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(config)]
    # An untimed probe first compiles the package's bytecode in a fresh checkout.
    setups = [run_child(probe, run_dir, run_dir / "setup_warm.log", deadline)]
    batch, hidden, steps = workload.reference
    reference = [str(batch), ",".join(map(str, hidden)), str(steps)]
    children: list[Child] = []
    start = perf_counter()
    while True:
        if len(setups) <= SETUP_REPEATS:
            setups += [run_child(probe, run_dir, run_dir / f"setup{len(setups) + i}.log", deadline)
                       for i in range(SETUP_REPEATS // MIN_RUNS)]
        out = run_dir / f"out{len(children)}"
        report = out.with_suffix(".json")
        argv = [sys.executable, str(HERE / "timed_cli.py"), str(report), *reference, "--",
                *cli_args(config, out)]
        child = run_child(argv, run_dir, out.with_suffix(".log"), deadline)
        children.append(child)
        if not child.failures:
            child.failures = check_outputs(workload, out)
        if not child.failures:
            child.timing = json.loads(report.read_text())
        # Stop when another run of the same length would overrun the budget.
        if len(children) >= MIN_RUNS and perf_counter() - start + child.wall_s > seconds:
            break
    timed = [c.timing for c in children if c.timing]
    metrics = {}
    if timed:
        metrics = {
            "wall_rel": median_metric([t["cli_s"] / statistics.mean(t["reference_s"])
                                       for t in timed], "ratio"),
            "setup_s": median_metric([s.wall_s for s in setups[1:]], "s"),
            "peak_rss_mb": median_metric([c.peak_rss_mb for c in children], "MB"),
            # Printed for reading, not in BENCHMARK.json: the raw times the
            # ratio is made of. With one BLAS thread, CPU time equals wall time.
            "wall_s": median_metric([t["cli_s"] for t in timed], "s"),
            "cpu_s": median_metric([t["cli_cpu_s"] for t in timed], "s"),
            "reference_s": median_metric([statistics.mean(t["reference_s"]) for t in timed],
                                         "s"),
        }
    return metrics, children, [f for s in setups for f in s.failures]


def per_layer(workload, config: Path, run_dir: Path, units: dict, key: str,
              deadline: float):
    """One untraced and one traced CLI run; per-layer metrics from the trace.

    Counts must repeat exactly, so they are compared with those of any
    earlier traced run of the same commit and seed in this checkout.
    """
    untraced = run_child(cli_argv(config, run_dir / "out0"), run_dir, run_dir / "out0.log",
                         deadline)
    out = run_dir / "out1"
    argv = [sys.executable, str(HERE / "tracer.py"), "--run-id", key,
            "--spans", str(run_dir / "spans.csv"), "--metrics", str(run_dir / "trace.json"),
            "--", *cli_args(config, out)]
    traced = run_child(argv, run_dir, run_dir / "out1.log", deadline)
    children = [untraced, traced]
    for i, child in enumerate(children):
        if not child.failures:
            child.failures = check_outputs(workload, run_dir / f"out{i}")
    if traced.exit_code != 0:
        return {}, children, []
    trace = json.loads((run_dir / "trace.json").read_text())
    for missing in trace["missing"]:
        print(f"warning: {missing} does not exist, so it was not traced", file=sys.stderr)
    values = trace["metrics"]
    values["cli.write_outputs.bytes"] = sum(p.stat().st_size for p in out.iterdir())
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    problems = [f"per-layer metric {name} was not measured" for name in units if name not in values]
    metrics = {name: {"value": values[name], "unit": unit, "n": 1}
               for name, unit in units.items() if name in values}
    counts = {name: values[name] for name, unit in units.items()
              if unit in COUNT_UNITS and name in values}
    earlier = recall(f"{key}:counts", counts)
    traced.failures += [f"{name} is {counts[name]}, an earlier traced run counted {earlier.get(name)}"
                        for name in counts if earlier.get(name) != counts[name]]
    print("self time by span, top 12:")
    for name, self_s in sorted(trace["self_s"].items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:48s} {self_s:>16.6g} s        calls={trace['calls'][name]}")
    return metrics, children, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    print(f"== workload {name}, seed {seed}, trace {int(trace)}")
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    config = workload.write_inputs(run_dir, seed)
    key = f"{source_digest()[:16]}:{name}:{seed}"
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics, children, problems = per_layer(workload, config, run_dir, units, key,
                                                deadline)
    else:
        metrics, children, problems = end_to_end(workload, config, run_dir, seconds,
                                                 deadline)
    # results.csv must be byte-identical across every run of one commit and
    # seed, traced or not, in this invocation and in earlier ones.
    good = [(c, results_digest(run_dir / f"out{i}")) for i, c in enumerate(children)
            if not c.failures]
    if good:
        reference = recall(f"{key}:results.csv", good[0][1])
        for child, digest in good:
            if digest != reference:
                child.failures.append("results.csv differs from an earlier run of this seed")
    env["loadavg_after"] = os.getloadavg()

    failed = sum(1 for c in children if c.failures)
    for c in children:
        for failure in c.failures:
            print(f"FAILED: {failure}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"{len(children)} runs, {failed} failed, failed_share {failed / len(children):.3f}")
    print(f"environment: {json.dumps(env)}")
    declared = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    for metric, m in metrics.items():
        note = "" if metric in declared else "  (for reading; not in BENCHMARK.json)"
        print(f"  {metric:48s} {m['value']:>16.6g} {m['unit']:<8s} n={m['n']}{note}")
    result = {"correct": failed == 0 and not problems, "attempted": len(children),
              "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in metrics.items() if k in declared}}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "samples": {k: m["samples"] for k, m in metrics.items() if "samples" in m},
         "environment": env}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "tabuq" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} has no tabuq sources (src/tabuq) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    if not args.all:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), bench)
        print(json.dumps(result))
        return 0
    results = [run_workload(w["name"], args.seed, seconds, trace, bench)
               for w in bench["workloads"] for trace in (False, True)]
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
