"""Write the outputs of the byte-check commands into one directory.

    python scripts/write_outputs.py DIR

Each command runs in a fresh interpreter through `fsocdma.cli.main`, with
this checkout's `src` first on the path and DIR as its working directory,
so every output name is relative and two trees compare with one
`diff -r DIR_A DIR_B`.  A command's stdout goes to `<name>.stdout` and a
nonempty stderr to `<name>.stderr`; the files each command writes keep
the names the CLI gives them.  Only `fsocdma` and the standard library
are imported, and nothing touches the network.

Exits 1 if any command exits nonzero (its output is kept).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The kfixed benchmark call: every point stops at a 240-slot cap.
KFIXED = ("--set", "run.target_error_events=1000000000", "--set", "run.max_trials=21600")

COMMANDS = {  # name: CLI arguments
    "ber": ("ber", "--out", "ber.csv"),
    "ber_analytic": ("ber", "--mode", "analytic", "--out", "ber_analytic.csv"),
    "fig2": ("ber", "--figure", "fig2", "--out", "fig2.csv"),
    "fig3_threads1": ("ber", "--figure", "fig3", "--threads", "1", "--out", "fig3_t1.csv"),
    "fig3_threads2": ("ber", "--figure", "fig3", "--threads", "2", "--out", "fig3_t2.csv"),
    "fig3_trace": ("ber", "--figure", "fig3", "--trace", "fig3_trace.csv",
                   "--out", "fig3_traced.csv"),
    "kfixed": ("ber", "--figure", "fig3", "--seed", "24601", "--threads", "1", *KFIXED,
               "--out", "kfixed.csv"),
    "n48": ("ber", "--mode", "analytic", "--set", "params.n_subcarriers=48", "--out", "n48.csv"),
    "n64": ("ber", "--mode", "analytic", "--set", "params.n_subcarriers=64", "--out", "n64.csv"),
    "n1100": ("ber", "--mode", "analytic", "--set", "params.n_subcarriers=1100",
              "--out", "n1100.csv"),
    "fixed_n16": ("ber", "--set", "codes.policy=fixed", "--set", "params.n_subcarriers=16",
                  "--out", "fixed_n16.csv"),
    # the trace's variance terms under the fixed policy
    "fixed_trace": ("ber", "--set", "codes.policy=fixed", "--set", "params.n_subcarriers=16",
                    "--trace", "fixed_trace.csv", "--out", "fixed_traced.csv"),
    # the fixed policy reaches the worker processes inside the params
    "fixed_fig3": ("ber", "--figure", "fig3", "--set", "codes.policy=fixed", "--threads", "2",
                   "--out", "fixed_fig3.csv"),
    "roc": ("sensing", "roc", "--out", "roc.csv"),
    "roc_validate": ("sensing", "roc", "--validate", "--out", "roc_validate.csv"),
    "selftest": ("selftest",),
}

CHILD = "import sys\nfrom fsocdma.cli import main\nsys.exit(main(sys.argv[1:]))"


def run(name: str, argv: tuple[str, ...], out: Path, env: dict) -> int:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    (out / f"{name}.stdout").write_text(proc.stdout)
    if proc.stderr:
        (out / f"{name}.stderr").write_text(proc.stderr)
    print(f"{name}: exit {proc.returncode} in {time.perf_counter() - start:.2f} s")
    return proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/write_outputs.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    codes = [run(name, args, out, env) for name, args in COMMANDS.items()]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
