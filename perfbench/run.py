"""fsocdma benchmark: end-to-end and per-layer metrics of the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2 --seed 24601 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Every job runs `fsocdma.cli.main` in a fresh interpreter, one at a time,
with `--threads 1`, because every CLI user pays the cold caches of a new
process.  The outputs are checked (see workloads.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`.  A fuller record (context,
samples, median and quartiles per metric) goes to perfbench/out/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Job, check_table, jobs_for, load_reference, table_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 24601
DEADLINE_S = 170.0  # a run must end within 180 s; stop starting work after this
SETUP_PROBES = 5  # import-only interpreters per run, on top of one per job
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class SetupError(RuntimeError):
    """The program cannot be imported here: no result is printed."""


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's stamp compares with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(spec: dict, deadline: float) -> tuple[dict | None, str]:
    """Run child.py with one job spec; returns (result or None, error text)."""
    env = dict(os.environ, **CHILD_ENV)
    start = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"unreadable child output: {lines[-1][:200]!r}"
    result["setup_s"] = result["ready"] - start
    return result, proc.stderr


@dataclass
class JobResult:
    wall_s: float
    peak_rss_mb: float
    slots: int
    layers: dict = field(default_factory=dict)


@dataclass
class Run:
    """State of one benchmark run: counts, digests and samples."""

    reference: dict
    deadline: float
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # job key -> table -> sha256
    runs_per_key: dict = field(default_factory=dict)
    setup_samples: list = field(default_factory=list)
    absent: set = field(default_factory=set)
    out_of_time: bool = False
    work_counter: int = 0

    def execute(self, job: Job, trace: bool) -> JobResult | None:
        self.work_counter += 1
        outdir = OUT / "work" / str(self.work_counter)
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        calls = [[a.replace("{out}", str(outdir)) for a in c.argv] for c in job.calls]
        result, err = _spawn({"calls": calls, "trace": int(trace)}, self.deadline)
        self.runs_per_key[job.key] = self.runs_per_key.get(job.key, 0) + 1
        points = [sum(table_points(t, self.reference) for t in c.tables) for c in job.calls]
        self.attempted += sum(points)
        if result is None:
            self.failed += sum(points)
            self.messages.append(f"{job.key}: {err}")
            self.out_of_time = err == "timed out"
            shutil.rmtree(outdir, ignore_errors=True)
            return None

        slots = 0
        output_bytes = 0
        digests = self.digests.setdefault(job.key, {})
        for call, code, n_points in zip(job.calls, result["codes"], points):
            if code != 0:
                self.failed += n_points
                self.messages.append(f"{job.key}: exit {code} from {' '.join(call.argv[:4])}")
                continue
            for table in call.tables:
                path = outdir / f"{table}.csv"
                n = table_points(table, self.reference)
                if not path.is_file():
                    self.failed += n
                    self.messages.append(f"{job.key}: {table}.csv not written")
                    continue
                data = path.read_bytes()
                output_bytes += len(data)
                failed, table_slots, msgs = check_table(
                    table, data.decode(errors="replace"), self.reference, call)
                digest = hashlib.sha256(data).hexdigest()
                if digests.setdefault(table, digest) != digest:
                    failed = n
                    msgs.append(f"{table}.csv bytes differ between repetitions")
                self.failed += failed
                slots += table_slots
                self.messages.extend(f"{job.key}: {m}" for m in msgs)
        shutil.rmtree(outdir, ignore_errors=True)
        if err.strip():
            self.messages.append(f"{job.key} stderr: {err.strip()[-500:]}")

        self.setup_samples.append(result["setup_s"])
        self.absent.update(result.get("absent", ()))
        layers = dict(result.get("layers", {}), **{"cli.output_bytes": output_bytes})
        return JobResult(result["wall_s"], result["peak_rss_mb"], slots, layers)

    def passes(self, jobs: list[Job], modes: tuple[bool, ...], until: float) -> dict:
        """Run rounds of one pass per trace mode, alternating the modes, while
        the next round is predicted to end by `until`.

        At least one round; returns the complete passes of each mode.
        """
        done = {mode: [] for mode in modes}
        while not self.out_of_time:
            started = _clock()
            for mode in modes:
                results = []
                for job in jobs:
                    results.append(self.execute(job, mode))
                    if self.out_of_time:
                        return done
                if None not in results:
                    done[mode].append(results)
            now = _clock()
            if now + (now - started) > until:
                break
        return done


def _stats(values: list[float]) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _probe(run: Run) -> dict:
    """Import-only interpreters: set-up samples and the library versions."""
    versions = None
    for _ in range(SETUP_PROBES):
        result, err = _spawn({"probe": True}, run.deadline)
        if result is None:
            raise SetupError(f"cannot import fsocdma.cli: {err}")
        run.setup_samples.append(result["setup_s"])
        versions = result["versions"]
    return versions


def _sum_layers(results: list[JobResult]) -> dict:
    total: dict = {}
    for r in results:
        for k, v in r.layers.items():
            total[k] = total.get(k, 0) + v
    return total


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, reference: dict | None = None) -> dict:
    """One benchmark run; returns the result line and the full record."""
    start = _clock()
    run = Run(reference=reference or load_reference(), deadline=start + DEADLINE_S)
    versions = _probe(run)
    jobs = jobs_for(workload, seed, tiny)

    done = run.passes(jobs, (False, True) if trace else (False,), start + seconds)
    plain, traced = done[False], done.get(True, [])
    if run.runs_per_key and max(run.runs_per_key.values()) < 2 and plain and not run.out_of_time:
        # no job ran twice: repeat the cheapest so byte identity is checked
        run.execute(min(zip(plain[0], jobs), key=lambda rj: rj[0].wall_s)[1], False)
    if not plain:
        raise SetupError("no complete pass of the workload: " + "; ".join(run.messages[-3:]))

    walls = [sum(r.wall_s for r in p) for p in plain]
    slots = [sum(r.slots for r in p) for p in plain]
    stats = {
        "wall_s": _stats(walls),
        "setup_s": _stats(run.setup_samples),
        "peak_rss_mb": _stats([r.peak_rss_mb for p in plain for r in p]),
        "slots_per_s": _stats([s / w for s, w in zip(slots, walls)]),
        "slots": _stats(slots),
    }
    if traced:
        per_pass = [_sum_layers(p) for p in traced]
        for name in per_pass[0]:
            stats[name] = _stats([p[name] for p in per_pass])
        for p in per_pass:
            s = p["montecarlo.slots"]
            p["montecarlo.useful_slot_share"] = 1.0 - p["montecarlo.infeasible_slots"] / s if s else 0.0
        stats["montecarlo.useful_slot_share"] = _stats(
            [p["montecarlo.useful_slot_share"] for p in per_pass])
        traced_walls = [sum(r.wall_s for r in p) for p in traced]
        stats["traced_wall_s"] = _stats(traced_walls)
        stats["trace.overhead_s"] = {
            "median": statistics.median(traced_walls) - statistics.median(walls),
            "n": len(traced_walls)}
        stats["montecarlo.slots_per_s"] = stats["slots_per_s"]

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in load_benchmark()[section]:
        if m["name"] in stats:  # a missing one is a benchmark bug the smoke test reports
            metrics[m["name"]] = {"value": stats[m["name"]]["median"], "unit": m["unit"]}
    line = {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "context": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "versions": versions,
            "git_commit": _git_commit(),
            "jobs_per_pass": len(jobs),
            "passes": len(plain),
            "traced_passes": len(traced),
            "setup_probes": SETUP_PROBES,
            "run_s": _clock() - start,
        },
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted,
        "absent": sorted(run.absent),
        "messages": run.messages,
        "metrics": stats,
    }
    return {"line": line, "record": record}


def _print_summary(record: dict, trace: bool) -> None:
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(slots_per_s="1/s", slots="count")
    ctx = record["context"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={ctx['passes']}+{ctx['traced_passes']} jobs/pass={ctx['jobs_per_pass']} "
          f"nproc={ctx['nproc']} cpu={ctx['cpu_model']!r} versions={ctx['versions']} "
          f"commit={ctx['git_commit']}")
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if not trace:
        names += ["slots_per_s", "slots"]
    for name in filter(record["metrics"].__contains__, names):
        s = record["metrics"][name]
        q = f"  q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"  {name:34s} {s['median']:14.6g} {units[name]:6s} n={s['n']}{q}")
    print(f"  {'failed_share':34s} {record['failed_share']:14.6g} share  "
          f"({record['failed']} of {record['attempted']} operations)")
    if record["absent"]:
        print(f"  absent: {', '.join(record['absent'])}")
    for m in record["messages"][:20]:
        print(f"  ! {m}")


def _save(record: dict) -> Path:
    path = OUT / "results" / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(load_benchmark()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fsocdma" / "cli.py").is_file():
        print(f"error: no fsocdma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            out = measure(name, args.seed, args.seconds, bool(args.trace))
            _print_summary(out["record"], bool(args.trace))
            print(f"  record: {_save(out['record']).relative_to(ROOT)}")
            lines[name] = out["line"]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
