"""Command-line front end: codes, sensing roc, ber, selftest.

Configuration is a flat key=value file plus repeatable --set overrides;
unknown keys are hard errors.  Every CSV produced by `sensing roc` and
`ber` starts with a comment block echoing the resolved configuration and
a rerun line, so any output file can be reproduced byte for byte from
its own header.  Matrix exports from `codes` use the bare matrix format
(n=<order> first line) and are a pure function of the order.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .ber_analysis import average_pe, average_pe_enumerated
from .montecarlo import (
    STREAM_VERSION,
    RunConfig,
    ber_csv,
    config_digest,
    derive_sensing,
    grid_jobs,
    run_points,
    sha256_hex,
    trace_csv,
)
from .orthocodes import (
    ORDER_LIMIT,
    SUPPORTED_PRIMES,
    build,
    compose,
    format_matrix,
    prime_base,
    supported_orders,
    verify,
)
from .phylink import SystemParams
from .sensing import (
    DetectorConfig,
    OccupancyModel,
    decision_rates,
    pd_rayleigh,
    pfa,
    solve_threshold,
)


class ConfigError(ValueError):
    """Unknown key, or a value that cannot be parsed or used, in the configuration."""


DEFAULTS: dict[str, object] = {
    "params.n_subcarriers": 32,
    "params.n_users": 4,
    "params.pr_h1": 0.2,
    "params.inr_db": 0.0,
    "params.bits_per_slot": 90,
    "detector.samples": 320,
    "detector.mean_snr_db": 2.3,
    "run.target_pd": 0.95,
    "run.snr_grid_db": (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    "run.trials_min": 2_000,
    "run.target_error_events": 100,
    "run.max_trials": 5_000_000,
    "run.master_seed": 24601,
    "codes.policy": "rechoose",
    "roc.points": 50,
    "roc.zeta_max": 0.0,  # 0 = automatic (threshold where pfa ~ 1e-8)
    "roc.validate_trials": 1_000_000,
}

_VALUE_CHECKS = {  # key: (accepts the parsed value, what the value must be)
    "params.inr_db": (lambda v: -math.inf <= v <= 3000.0, "must be at most 3000 (dB)"),
    "detector.samples": (lambda v: v >= 2, "must be at least 2"),
    "run.master_seed": (lambda v: 0 <= v < 1 << 64, "must lie in [0, 2^64)"),
    "roc.points": (lambda v: v >= 2, "must be at least 2, the two ends of the grid"),
    "roc.zeta_max": (lambda v: 0.0 <= v < math.inf, "must be finite and >= 0 (0 = automatic)"),
    "roc.validate_trials": (lambda v: v >= 1, "must be at least 1"),
}


def _parse_value(key: str, text: str):
    default = DEFAULTS[key]
    text = text.strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            return tuple(float(tok) for tok in text.split(",") if tok.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key}: {text!r}") from exc


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolve_config(config_path: str | None, sets: list[str], seed: int | None) -> dict:
    """Merge defaults, config file and --set overrides into one mapping."""
    conf = dict(DEFAULTS)

    def apply(key: str, raw: str, origin: str):
        key = key.strip()
        if key not in conf:
            raise ConfigError(f"unknown configuration key {key!r} ({origin})")
        conf[key] = _parse_value(key, raw)

    if config_path:
        for lineno, line in enumerate(Path(config_path).read_text().splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{config_path}:{lineno}: expected key=value")
            key, _, raw = stripped.partition("=")
            apply(key, raw, f"{config_path}:{lineno}")
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply(key, raw, "--set")
    if seed is not None:
        conf["run.master_seed"] = seed
    for key, (accepts, requirement) in _VALUE_CHECKS.items():
        if not accepts(conf[key]):
            raise ConfigError(f"{key}={_format_value(conf[key])} {requirement}")
    return conf


def build_system_params(conf: dict, n_users: int | None = None) -> SystemParams:
    """Link parameters at the default noise PSD; every sweep point keeps the INR."""
    return SystemParams(
        n_subcarriers=conf["params.n_subcarriers"],
        n_users=n_users if n_users is not None else conf["params.n_users"],
        pr_h1=conf["params.pr_h1"],
        interference_power=SystemParams.noise_psd * 10.0 ** (conf["params.inr_db"] / 10.0),
        bits_per_slot=conf["params.bits_per_slot"],
    )


def build_detector(conf: dict) -> DetectorConfig:
    """Detector from config.  detector.samples is the sensing time, u = tau W
    samples; detector.mean_snr_db is the per-sample sensing SNR, accumulated
    over the u samples (quasi-static channel over the sensing window)."""
    snr_db = conf["detector.mean_snr_db"] + 10.0 * math.log10(conf["detector.samples"])
    return DetectorConfig(samples=conf["detector.samples"], mean_snr_db=snr_db)


def build_run_config(conf: dict, n_users: int | None = None, snr_grid=None) -> RunConfig:
    return RunConfig(
        params=build_system_params(conf, n_users),
        detector=build_detector(conf),
        target_pd=conf["run.target_pd"],
        snr_grid_db=tuple(snr_grid) if snr_grid is not None else conf["run.snr_grid_db"],
        trials_min=conf["run.trials_min"],
        target_error_events=conf["run.target_error_events"],
        max_trials=conf["run.max_trials"],
        master_seed=conf["run.master_seed"],
        code_policy=conf["codes.policy"],
    )


def config_comments(conf: dict, rerun: str, derived: tuple[str, ...] = ()) -> tuple[str, ...]:
    lines = [f"fsocdma {__version__}", f"rerun: {rerun}"]
    lines.extend(f"set {k}={_format_value(conf[k])}" for k in sorted(conf))
    lines.extend(f"derived {d}" for d in derived)
    return tuple(lines)


def _ber_comments(conf: dict, rerun: str, derived: tuple[str, ...] = ()) -> tuple[str, ...]:
    """config_comments plus the stream version every ber output depends on."""
    head, *rest = config_comments(conf, rerun, derived)
    return (head, f"stream_version={STREAM_VERSION}", *rest)


def fig3_point_index(snr_row: int, k: int) -> int:
    """Stream index of the fig3 point at SNR row snr_row with k users.

    k never exceeds ORDER_LIMIT, so no two (row, k) pairs share an index.
    """
    return snr_row * ORDER_LIMIT + k


def _check_outputs(config: str | None, outputs: list[tuple[str, str | None]]) -> None:
    """Fail before any work unless every (option, path) output, None for stdout, is writable.

    A path fails if its directory is missing, if it is a directory, or if it is the same
    file as the --config file or an earlier output of the run: its write would replace it.
    """
    seen = {Path(config).resolve(): f"--config {config}"} if config else {}
    for option, path in outputs:
        if path is None:
            continue
        target = Path(path)
        if not target.parent.is_dir():
            raise ValueError(f"output directory {str(target.parent)!r} of {path!r} does not exist")
        if target.is_dir():
            raise ValueError(f"{option} {path} is a directory")
        target = target.resolve()
        if target in seen:
            raise ValueError(f"{option} {path} is the same file as {seen[target]}")
        seen[target] = f"{option} {path}"


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_codes(args) -> int:
    _check_outputs(None, [("--out", args.out)])
    code = build(args.n)  # main reports a rejected order
    report = verify(code.entries)
    _write_output(args.out, format_matrix(code))
    if args.out is not None:
        print(f"wrote order-{code.n} matrix to {args.out}")
    print(f"gram_diag: {' '.join(str(int(v)) for v in code.gram_diag)}")
    print(f"orthogonal: {'true' if report.is_orthogonal else 'false'}")
    print(f"all_nonzero: {'true' if report.all_nonzero else 'false'}")
    return 0 if (report.is_orthogonal and report.all_nonzero) else 1


def cmd_sensing_roc(args) -> int:
    conf = resolve_config(args.config, args.set, args.seed)
    _check_outputs(args.config, [("--out", args.out)])
    detector = build_detector(conf)
    zeta_max = conf["roc.zeta_max"]
    if zeta_max == 0.0:
        zeta_max = solve_threshold(detector, 1e-8, "for_pfa")
    grid = np.linspace(0.0, zeta_max, conf["roc.points"])

    rerun = "fsocdma sensing roc" + (" --validate" if args.validate else "")
    derived = (f"detector.effective_snr_db={detector.mean_snr_db!r}",)
    lines = [f"# {c}" for c in config_comments(conf, rerun, derived)]
    lines.append("zeta,pfa,pd")
    for zeta in grid.tolist():
        lines.append(f"{zeta:.10e},{pfa(detector, zeta):.10e},{pd_rayleigh(detector, zeta):.10e}")
    _write_output(args.out, "\n".join(lines) + "\n")

    if args.validate:
        trials, worst = conf["roc.validate_trials"], 0.0
        rng = np.random.default_rng(conf["run.master_seed"])
        # thresholds where a rate can miss its closed form, each checked
        # against the rate it was solved for
        for kind, targets in (("pfa", (0.5, 0.1, 0.01)), ("pd", (0.5, 0.9, 0.99))):
            zetas = tuple(solve_threshold(detector, t, f"for_{kind}") for t in targets)
            rates = decision_rates(detector, kind == "pd", zetas, trials, rng)
            closed_form = pd_rayleigh if kind == "pd" else pfa
            for zeta, emp in zip(zetas, rates):
                closed = closed_form(detector, zeta)
                dev = abs(emp - closed) / math.sqrt(closed * (1 - closed) / trials)
                worst = max(worst, dev)
                print(f"validate zeta={zeta:.4g} {kind}: closed={closed:.6f} "
                      f"empirical={emp:.6f} deviation={dev:.2f} stderr")
        print(f"validate: max deviation {worst:.2f} stderr over {trials} trials")
        if worst > 3.0:
            print("validate: FAILED (deviation above 3 stderr)", file=sys.stderr)
            return 1
    return 0


def _derived_sensing_comments(rc: RunConfig) -> tuple[str, ...]:
    d = derive_sensing(rc)
    return (
        f"detector.threshold={d.threshold!r}",
        f"sensing.pd_local={d.pd_local!r}",
        f"sensing.pfa_local={d.pfa_local!r}",
        f"sensing.fused_qd={d.qd!r}",
        f"sensing.fused_qfa={d.qfa!r}",
        f"occupancy.p_zero={d.model.p_zero!r}",
        f"occupancy.p_mis={d.model.p_mis!r}",
    )


def _out_path(stem: str, suffix: str) -> str:
    p = Path(stem)
    if p.suffix == ".csv":
        return str(p.with_name(f"{p.stem}{suffix}.csv"))
    return f"{stem}{suffix}.csv"


def _curve_output(
    conf: dict, rc: RunConfig, path: str, rerun: str, derived: tuple[str, ...] = ()
) -> tuple:
    comments = _ber_comments(conf, rerun, derived + _derived_sensing_comments(rc))
    return path, "snr_db", comments, config_digest(rc), [(job[1], job) for job in grid_jobs(rc)]


_FIG2_USERS = (4, 8)
_FIG3_SNRS_DB = (10.0, 20.0)


def _ber_paths(figure: str | None, out: str | None) -> list[str]:
    """The CSV paths of one ber run, one per curve, in output order."""
    if figure == "fig2":
        return [_out_path(out or "fig2", f"_k{k}") for k in _FIG2_USERS]
    if figure == "fig3":
        return [_out_path(out or "fig3", f"_snr{snr:g}") for snr in _FIG3_SNRS_DB]
    return [out or "ber.csv"]


def _ber_outputs(conf: dict, figure: str | None, out: str | None, rerun: str) -> list:
    """The files of one ber run: (path, key column, comments, digest, keyed jobs) each.

    A keyed job pairs a row's value in the key column with the point job
    behind the row.
    """
    paths = _ber_paths(figure, out)
    if figure == "fig2":
        outputs = []
        for k, path in zip(_FIG2_USERS, paths):
            rc = build_run_config(conf, n_users=k)
            outputs.append(_curve_output(conf, rc, path, rerun, (f"params.n_users={k}",)))
        return outputs
    if figure == "fig3":
        by_snr = {
            snr: [(k, (build_run_config(conf, n_users=k, snr_grid=(snr,)), snr,
                       fig3_point_index(si, k)))
                  for k in range(1, 9)]
            for si, snr in enumerate(_FIG3_SNRS_DB)
        }
        digests = [config_digest(job[0]) for keyed in by_snr.values() for _, job in keyed]
        bundle = sha256_hex("\n".join(digests))
        return [
            (path, "k_users", _ber_comments(conf, rerun, (f"fig3.snr_db={snr!r}",)), bundle, keyed)
            for path, (snr, keyed) in zip(paths, by_snr.items())
        ]
    return [_curve_output(conf, build_run_config(conf), paths[0], rerun)]


def cmd_ber(args) -> int:
    conf = resolve_config(args.config, args.set, args.seed)
    mode = args.mode
    if args.trace and mode == "analytic":
        print("error: --trace needs simulated points; --mode analytic has none", file=sys.stderr)
        return 1
    outs = [("--out", path) for path in _ber_paths(args.figure, args.out)]
    _check_outputs(args.config, outs + [("--trace", args.trace)])

    rerun = f"fsocdma ber --mode {mode}" + (f" --figure {args.figure}" if args.figure else "")

    outputs = _ber_outputs(conf, args.figure, args.out, rerun)
    jobs = [job for *_, keyed in outputs for _, job in keyed]
    points = run_points(jobs, simulate=(mode != "analytic"), workers=args.threads)
    if args.trace:
        rows = [(job[0], point) for job, point in zip(jobs, points)]
        _write_output(args.trace, trace_csv(rows, _ber_comments(conf, rerun)))
        print(f"wrote trace {args.trace}")
    points = iter(points)
    for path, key, comments, digest, keyed in outputs:
        rows = [(value, next(points)) for value, _ in keyed]
        _write_output(path, ber_csv(rows, digest, comments, key))
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_codes() -> str:
    # re-read and re-verify the prime table, past the bases the library cached
    bases = {p: prime_base.__wrapped__(p) for p in SUPPORTED_PRIMES}
    for n in supported_orders(32):
        code = build(n)
        report = verify(code.entries)
        if not (report.is_orthogonal and report.all_nonzero):
            raise AssertionError(f"order-{n} matrix failed verification")
        if not np.array_equal(np.diagonal(report.gram), code.gram_diag):
            raise AssertionError(f"order-{n} Gram diagonal is wrong")
    for pa, a in bases.items():
        for pb, b in bases.items():
            got = verify(compose(a, b).entries).gram
            want = np.kron(verify(a.entries).gram, verify(b.entries).gram)
            if not np.array_equal(got, want):
                raise AssertionError(f"Gram composition law failed for ({pa},{pb})")
    return f"verified orders {supported_orders(32)} and {len(bases)**2} composition pairs"


def _poisson_partial_sum(terms: int, x: float) -> float:
    """exp(-x) * sum_{p<terms} x^p / p!, summed from its log-space terms.

    The false-alarm probability as a plain Poisson sum, a reference
    independent of the series and continued fraction in `sensing`.
    """
    if x == 0.0:
        return 1.0
    logs = [p * math.log(x) - math.lgamma(p + 1) for p in range(terms)]
    peak = max(logs)
    return math.exp(peak - x + math.log(math.fsum(math.exp(t - peak) for t in logs)))


def _selftest_sensing(seed: int) -> str:
    detectors = {samples: DetectorConfig(samples, 2.3) for samples in (2, 5, 320)}
    for samples, detector in detectors.items():
        for zeta in (0.0, 0.5 * samples, 2.0 * samples, 4.0 * samples):
            closed = pfa(detector, zeta)
            ref = _poisson_partial_sum(samples, zeta / 2.0)
            if abs(closed - ref) > 1e-12 * ref:
                raise AssertionError(f"pfa mismatch at samples={samples} zeta={zeta}")
            pd = pd_rayleigh(detector, zeta)
            if not (-1e-12 <= pd <= 1 + 1e-12) or pd + 1e-12 < closed:
                raise AssertionError(f"pd out of range at samples={samples} zeta={zeta}")
    detector = detectors[5]
    for target in (0.1, 0.5, 0.9):
        for mode, closed_form in (("for_pfa", pfa), ("for_pd", pd_rayleigh)):
            achieved = closed_form(detector, solve_threshold(detector, target, mode))
            if abs(achieved - target) > 1e-8:
                raise AssertionError(f"threshold round-trip failed ({mode}, {target})")
    rng, trials = np.random.default_rng(seed), 20_000
    for occupied, closed_form in ((False, pfa), (True, pd_rayleigh)):
        closed = closed_form(detector, 10.0)
        (emp,) = decision_rates(detector, occupied, (10.0,), trials, rng)
        if abs(emp - closed) > 3.5 * math.sqrt(closed * (1 - closed) / trials):
            raise AssertionError(f"sampled rate {emp:.4f} deviates from {closed:.4f}")
    return "closed forms, round-trips and sampled rates agree"


def _selftest_ber_average() -> str:
    model = OccupancyModel.from_fused(0.2, qd=0.95, qfa=0.05)
    for n, policy, k in itertools.product((4, 6), ("rechoose", "fixed"), (1, 2)):
        params = SystemParams(n_subcarriers=n, n_users=k, pr_h1=0.2)
        fast = average_pe(params, model, policy)
        slow = average_pe_enumerated(params, model, policy)
        if abs(fast - slow) > 1e-12:
            raise AssertionError(
                f"averaged error probability mismatch (N={n}, policy={policy}, K={k}): "
                f"{fast!r} vs {slow!r}"
            )
    return ("binomial-mixture average (rechoose) and chip-class sum (fixed) equal "
            "exhaustive enumeration at N=4 and at N=6 (two chip classes)")


def cmd_selftest(args) -> int:
    conf = resolve_config(args.config, args.set, args.seed)
    _check_outputs(args.config, [("--out", args.out)])
    seed = conf["run.master_seed"]
    groups = (
        ("codes", _selftest_codes),
        ("sensing", lambda: _selftest_sensing(seed)),
        ("ber_average", _selftest_ber_average),
    )
    lines = []
    failed = False
    for name, fn in groups:
        try:
            detail = fn()
            lines.append(f"PASS {name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failed = True
            lines.append(f"FAIL {name}: {exc}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_common(parser):
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output path")


@lru_cache(maxsize=1)  # parse_args leaves the parser as it was
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsocdma",
        description="Fragmented-spectrum OFDM-CDMA cognitive-radio toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_codes = sub.add_parser("codes", help="build and export a spreading-code matrix")
    p_codes.add_argument("n", type=int, help="matrix order")
    p_codes.add_argument("--out", default=None, help="output path")
    p_codes.set_defaults(func=cmd_codes)

    p_sensing = sub.add_parser("sensing", help="spectrum-sensing utilities")
    sensing_sub = p_sensing.add_subparsers(dest="sensing_command", required=True)
    p_roc = sensing_sub.add_parser("roc", help="export the detector ROC over a threshold grid")
    p_roc.add_argument("--validate", action="store_true",
                       help="cross-check the closed forms with draws of the energy statistic")
    _add_common(p_roc)
    p_roc.set_defaults(func=cmd_sensing_roc)

    p_ber = sub.add_parser("ber", help="analytic and simulated BER curves")
    p_ber.add_argument("--mode", choices=("analytic", "both"), default="both",
                       help="closed form only, or closed form and simulation")
    p_ber.add_argument("--figure", choices=("fig2", "fig3"), default=None,
                       help="preset sweeps (SNR sweep for K=4,8; K sweep at two SNRs)")
    p_ber.add_argument("--trace", default=None,
                       help="write a CSV of one row per simulated point: counts, stop "
                            "reason, and the variance of each decision-variable part")
    p_ber.add_argument("--threads", type=_worker_count, default=1,
                       help="worker processes for the points (never changes results)")
    _add_common(p_ber)
    p_ber.set_defaults(func=cmd_ber)

    p_self = sub.add_parser("selftest", help="run the fast invariant suite")
    _add_common(p_self)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a configuration the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
