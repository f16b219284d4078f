"""Benchmark workloads and the checks applied to their CSV outputs.

A workload is a list of jobs derived from the benchmark seed.  A job is
one fresh interpreter that makes one or more `fsocdma` CLI calls; each
call writes CSV tables whose rows are the operations the benchmark
counts (one sweep point per row, one `sensing roc` export per ROC file).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Bits per slot at the default durations, which every workload keeps:
# (slot 1 ms - sensing 0.1 ms) / bit 10 us.
BITS_PER_SLOT = 90

# fig2 stops on error events, so its slot count swings with the random
# stream (about 16% relative spread from seed to seed, because the errors
# of one slot share a fading draw).  Each fig2 pass therefore runs this
# many seeds, derived from the benchmark seed, to average that out.
FIG2_SEEDS = 6
SEED_STRIDE = 1 << 32

# kfixed: the event target is out of reach, so every point stops at the cap.
# 21600 bits = 30 stop-rule batches of 8 slots = 240 slots per point, about
# 2.5 s per pass, so a 30 s run takes some ten samples.
KFIXED_CAP = 21_600
UNREACHABLE_EVENTS = 10**9

# Tiny caps for the smoke test: one batch of 8 slots per point.
TINY_CAP = 720

# Relative tolerance on values that depend on no random stream.
ANALYTIC_RTOL = 1e-9

FIG2_TABLES = ("fig2_k4", "fig2_k8")
FIG3_TABLES = ("fig3_snr10", "fig3_snr20")


def _sets(**values) -> tuple[str, ...]:
    out: tuple[str, ...] = ()
    for key, value in values.items():
        out += ("--set", f"run.{key}={value}")
    return out


TINY_SETS = _sets(trials_min=TINY_CAP, max_trials=TINY_CAP)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]  # CLI arguments; "{out}" is replaced by the job's output dir
    tables: tuple[str, ...]  # output files (without .csv), each named after its reference
    simulated: bool = False
    fixed_work: bool = False  # every simulated point must stop exactly at the cap


@dataclass(frozen=True)
class Job:
    key: str  # runs of jobs with equal keys must write identical bytes
    calls: tuple[Call, ...]


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _fig2_jobs(seed: int, tiny: bool) -> list[Job]:
    jobs = []
    for j in range(FIG2_SEEDS):
        cli_seed = seed + j * SEED_STRIDE
        argv = ("ber", "--figure", "fig2", "--seed", str(cli_seed), "--threads", "1",
                "--out", "{out}/fig2.csv") + (TINY_SETS if tiny else ())
        jobs.append(Job(f"fig2-{cli_seed}", (Call(argv, FIG2_TABLES, simulated=True),)))
    return jobs


def _kfixed_jobs(seed: int, tiny: bool) -> list[Job]:
    sets = _sets(target_error_events=UNREACHABLE_EVENTS, max_trials=KFIXED_CAP)
    argv = ("ber", "--figure", "fig3", "--seed", str(seed), "--threads", "1",
            "--out", "{out}/fig3.csv") + sets + (TINY_SETS if tiny else ())
    call = Call(argv, FIG3_TABLES, simulated=True, fixed_work=True)
    return [Job(f"kfixed-{seed}", (call,))]


def _closed_form_jobs(seed: int, tiny: bool) -> list[Job]:
    common = ("--seed", str(seed), "--threads", "1")
    calls = (
        Call(("ber", "--mode", "analytic", "--figure", "fig2", *common,
              "--out", "{out}/fig2.csv"), FIG2_TABLES),
        Call(("ber", "--mode", "analytic", "--figure", "fig3", *common,
              "--out", "{out}/fig3.csv"), FIG3_TABLES),
        Call(("ber", "--mode", "analytic", "--set", "params.n_subcarriers=48", *common,
              "--out", "{out}/n48.csv"), ("n48",)),
        Call(("ber", "--mode", "analytic", "--set", "params.n_subcarriers=64", *common,
              "--out", "{out}/n64.csv"), ("n64",)),
        Call(("sensing", "roc", "--seed", str(seed), "--out", "{out}/roc.csv"), ("roc",)),
    )
    return [Job(f"closed_form-{seed}", calls)]


WORKLOADS = {
    "fig2": _fig2_jobs,
    "kfixed": _kfixed_jobs,
    "closed_form": _closed_form_jobs,
}


def jobs_for(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    return WORKLOADS[workload](seed, tiny)


# ---------------------------------------------------------------------------
# checks


def table_points(name: str, reference: dict) -> int:
    """Operations a table stands for: one per sweep row, one per ROC export."""
    return 1 if name == "roc" else len(reference[name])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ANALYTIC_RTOL * max(abs(a), abs(b))


def _parse_csv(text: str):
    """(resolved `set` keys from the header, column names, data rows)."""
    conf = {}
    lines = []
    for ln in text.splitlines():
        if ln.startswith("# set ") and "=" in ln:
            key, _, value = ln[len("# set "):].partition("=")
            conf[key] = value
        elif ln and not ln.startswith("#"):
            lines.append(ln.split(","))
    if not lines:
        return conf, [], []
    return conf, lines[0], lines[1:]


def _check_simulated(row: dict, conf: dict, fixed_work: bool) -> str | None:
    trials_min = int(conf["run.trials_min"])
    events = int(conf["run.target_error_events"])
    cap = int(conf["run.max_trials"])
    ber = float(row["ber_sim"])
    trials = int(row["trials"])
    errors = int(row["errors"])
    if not 0.0 <= ber <= 0.5:
        return f"ber_sim {ber} outside [0, 0.5]"
    if trials < trials_min:
        return f"trials {trials} < trials_min {trials_min}"
    if errors < events and trials < cap:
        return f"stopped by neither events nor cap (trials {trials}, errors {errors})"
    if fixed_work and trials != cap:
        return f"trials {trials} != cap {cap}"
    return None


def check_table(name: str, text: str, reference: dict, call: Call):
    """Check one CSV table against the reference and the stop rule in its header.

    Returns (failed points, simulated slots, messages).
    """
    conf, header, rows = _parse_csv(text)
    if name == "roc":
        want = reference["roc"]
        try:
            ok = len(rows) == len(want) and all(
                len(got) == 3 and all(_close(float(g), w) for g, w in zip(got, exp))
                for got, exp in zip(rows, want)
            )
        except ValueError:
            ok = False
        return (0 if ok else 1), 0, ([] if ok else ["roc: values differ from the reference"])

    want = reference[name]
    by_key = {row[0]: dict(zip(header, row)) for row in rows if row}
    failed = 0
    slots = 0
    messages = []
    for key, analytic in want.items():
        row = by_key.get(key)
        try:
            if row is None:
                problem = "missing row"
            elif not _close(float(row["ber_analytic"]), analytic):
                problem = f"ber_analytic {row['ber_analytic']} != reference {analytic!r}"
            elif call.simulated:
                slots += int(row["trials"]) // BITS_PER_SLOT
                problem = _check_simulated(row, conf, call.fixed_work)
            else:
                problem = None
        except (KeyError, ValueError) as exc:
            problem = f"unreadable row ({exc!r})"
        if problem is not None:
            failed += 1
            messages.append(f"{name} row {key}: {problem}")
    if len(by_key) != len(want):  # extra rows: count the table as one failure
        messages.append(f"{name}: {len(by_key)} rows, expected {len(want)}")
        failed = max(failed, 1)
    return failed, slots, messages
