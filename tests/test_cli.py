import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsocdma
from fsocdma import cli
from fsocdma import montecarlo as mc
from fsocdma import orthocodes as oc
from oracles import parse_matrix


def run_cli(args):
    return cli.main(args)


class TestCodes:
    def test_walsh8_export(self, tmp_path, capsys):
        out = tmp_path / "c8.txt"
        assert run_cli(["codes", "8", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "n=8"
        assert np.array_equal(parse_matrix(text), oc.build(2**3).entries)
        printed = capsys.readouterr().out
        assert "orthogonal: true" in printed
        assert "gram_diag: 8 8 8 8 8 8 8 8" in printed

    def test_multilevel_order_six(self, tmp_path, capsys):
        out = tmp_path / "c6.txt"
        assert run_cli(["codes", "6", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "gram_diag: 18 18 18 18 18 18" in printed
        assert "orthogonal: true" in printed

    def test_unsupported_order_names_factor(self, tmp_path, capsys):
        assert run_cli(["codes", "22"]) == 1
        err = capsys.readouterr().err
        assert "11" in err


class TestSensingRoc:
    def test_grid_shape_and_monotonicity(self, tmp_path):
        out = tmp_path / "roc.csv"
        assert run_cli([
            "sensing", "roc",
            "--set", "detector.samples=5",
            "--set", "roc.points=50",
            "--out", str(out),
        ]) == 0
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "zeta,pfa,pd"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        assert data.shape == (50, 3)
        assert data[0][1] == 1.0 and data[0][2] == 1.0  # zeta = 0
        assert np.all(np.diff(data[:, 1]) < 0)  # pfa strictly decreasing

    def test_validate_mode(self, tmp_path, capsys):
        out = tmp_path / "roc.csv"
        rc = run_cli([
            "sensing", "roc", "--validate",
            "--set", "detector.samples=5",
            # per-sample SNR: accumulated over the 5 samples it is about 2.3 dB
            "--set", "detector.mean_snr_db=-4.69",
            "--set", "roc.validate_trials=50000",
            "--seed", "11",
            "--out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "max deviation" in printed

    @pytest.mark.parametrize(
        "item",
        ["roc.validate_trials=0", "roc.points=-1", "roc.points=0", "roc.zeta_max=-5.0"],
        ids=["validate-trials-zero", "points-negative", "points-zero", "zeta-max-negative"],
    )
    def test_bad_roc_value_fails_before_any_output(self, tmp_path, capsys, item):
        out = tmp_path / "roc.csv"
        assert run_cli(["sensing", "roc", "--validate", "--set", item, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert item in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


class TestBer:
    FAST = [
        "--set", "run.snr_grid_db=5,10",
        "--set", "run.trials_min=500",
        "--set", "run.target_error_events=20",
    ]

    def test_deterministic_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["ber", "--seed", "5", "--out", str(a)] + self.FAST) == 0
        assert run_cli(["ber", "--seed", "5", "--out", str(b)] + self.FAST) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        figure_caps = ["--set", "run.max_trials=9000"]
        inputs = {
            "plain": self.FAST,
            "fig2": ["--figure", "fig2"] + self.FAST,
            "fig2-analytic": ["--figure", "fig2", "--mode", "analytic"] + self.FAST,
            "fig3": ["--figure", "fig3"] + self.FAST + figure_caps,
            "fig3-analytic": ["--figure", "fig3", "--mode", "analytic"] + self.FAST,
        }
        for name, args in inputs.items():
            files = {}
            for threads in (1, 2, 4):
                out = tmp_path / name / f"t{threads}"
                out.mkdir(parents=True)
                argv = ["ber", "--seed", "5", "--threads", str(threads),
                        "--out", str(out / "r.csv")] + args
                assert run_cli(argv) == 0
                files[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
            assert files[1], name
            assert files[2] == files[1], name
            assert files[4] == files[1], name

    def test_rerun_from_header_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["ber", "--seed", "9", "--out", str(a)] + self.FAST)
        sets = []
        for line in a.read_text().splitlines():
            if line.startswith("# set "):
                sets += ["--set", line[len("# set "):]]
        assert run_cli(["ber", "--out", str(b)] + sets) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_batch_in_header(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run_cli(["ber", "--out", str(out), "--seed", "9"] + self.FAST) == 0
        text = out.read_text()
        # the batch size is fixed, so no header line sets it
        assert "batch_slots" not in text
        assert "# stream_version=4\n" in text

    def test_analytic_mode_schema(self, tmp_path):
        out = tmp_path / "ana.csv"
        run_cli(["ber", "--mode", "analytic", "--out", str(out),
                 "--set", "run.snr_grid_db=0,10,20"])
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "snr_db,ber_analytic"
        assert len(rows) == 4

    def test_single_user_analytic_matches_library(self, tmp_path):
        out = tmp_path / "k1.csv"
        run_cli(["ber", "--mode", "analytic", "--out", str(out),
                 "--set", "params.n_users=1", "--set", "run.snr_grid_db=10"])
        row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
        got = float(row.split(",")[1])
        conf = cli.resolve_config(None, ["params.n_users=1", "run.snr_grid_db=10"], None)
        rc = cli.build_run_config(conf)
        from fsocdma.montecarlo import analytic_point

        assert got == pytest.approx(analytic_point(rc, 10.0).ber_analytic, rel=1e-9)

    def test_fig2_two_files(self, tmp_path):
        stem = tmp_path / "f2"
        rc = run_cli(["ber", "--figure", "fig2", "--seed", "3", "--out", str(stem)]
                     + self.FAST)
        assert rc == 0
        k4 = (tmp_path / "f2_k4.csv").read_text()
        k8 = (tmp_path / "f2_k8.csv").read_text()
        assert "snr_db,ber_analytic,ber_sim" in k4 and "snr_db,ber_analytic,ber_sim" in k8
        assert "# set params.n_users=4" in k4  # echoed resolved config
        assert "# derived params.n_users=8" in k8

    def test_trace_output(self, tmp_path):
        out, trace = tmp_path / "o.csv", tmp_path / "t.csv"
        rc = run_cli(["ber", "--out", str(out), "--trace", str(trace),
                      "--set", "run.snr_grid_db=5",
                      "--set", "run.trials_min=100",
                      "--set", "run.target_error_events=5"])
        assert rc == 0
        lines = [ln for ln in trace.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "slot,n_busy_true,n_est_busy,n_misdetected,R,R_s,R_MAI,R_GI,R_n,bit,decided"
        assert len(lines) > 90

    def test_trace_leaves_the_csv_bytes(self, tmp_path):
        # the trace splits the noise with normals of its own stream, so the
        # simulated point, and its CSV, are the untraced run's
        plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
        args = ["ber", "--set", "run.snr_grid_db=10", "--set", "run.trials_min=2000",
                "--set", "run.target_error_events=20", "--seed", "11"]
        assert run_cli(args + ["--out", str(plain)]) == 0
        assert run_cli(args + ["--out", str(traced), "--trace", str(tmp_path / "t.csv")]) == 0
        assert traced.read_bytes() == plain.read_bytes()
        rows = [ln for ln in plain.read_text().splitlines() if not ln.startswith("#")]
        assert int(rows[1].split(",")[5]) >= 20

    def test_group_size_leaves_the_kfixed_bytes(self, tmp_path, monkeypatch):
        # a point runs its batches one array pass per group; with one batch
        # a group, the benchmark's capped fig3 call writes the same bytes
        from fsocdma import montecarlo as mc

        args = ["ber", "--figure", "fig3", "--seed", "24601", "--threads", "1",
                "--set", "run.target_error_events=1000000000",
                "--set", "run.max_trials=21600"]
        written = []
        for budget in (mc._GROUP_SLOTS, 1):
            monkeypatch.setattr(mc, "_GROUP_SLOTS", budget)
            out = tmp_path / f"budget{budget}" / "fig3.csv"
            out.parent.mkdir()
            assert run_cli(args + ["--out", str(out)]) == 0
            written.append([(out.parent / f"fig3_snr{s}.csv").read_bytes() for s in (10, 20)])
        assert written[0] == written[1]
        assert b",21600," in written[0][0]

    def test_ber_headers_carry_stream_version(self, tmp_path):
        from fsocdma.montecarlo import STREAM_VERSION

        line = f"# stream_version={STREAM_VERSION}"
        sim, ana, trace = tmp_path / "s.csv", tmp_path / "a.csv", tmp_path / "t.csv"
        assert run_cli(["ber", "--out", str(sim), "--trace", str(trace),
                        "--set", "run.snr_grid_db=5",
                        "--set", "run.trials_min=100",
                        "--set", "run.target_error_events=5"]) == 0
        assert run_cli(["ber", "--mode", "analytic", "--figure", "fig3",
                        "--out", str(ana)]) == 0
        for path in (sim, trace, tmp_path / "a_snr10.csv", tmp_path / "a_snr20.csv"):
            assert line in path.read_text().splitlines()

    def test_fig3_point_indices_never_collide(self):
        indices = {
            cli.fig3_point_index(row, k)
            for row in (0, 1)
            for k in range(1, oc.ORDER_LIMIT + 1)
        }
        assert len(indices) == 2 * oc.ORDER_LIMIT
        assert max(indices) < 2**32

    def test_trace_needs_single_point(self, tmp_path, capsys):
        rc = run_cli(["ber", "--trace", str(tmp_path / "t.csv"),
                      "--set", "run.snr_grid_db=5,10"])
        assert rc == 1


class TestParser:
    def _header(self, path):
        return [ln for ln in path.read_text().splitlines() if ln.startswith("# set ")]

    def test_one_parser_per_process_carries_no_state(self, tmp_path):
        # the second call reuses the parser and still writes only its own --set
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["ber", "--mode", "analytic", "--set", "run.snr_grid_db=10"]
        assert run_cli(common + ["--set", "params.n_users=2", "--out", str(a)]) == 0
        misses = cli.make_parser.cache_info().misses
        assert run_cli(common + ["--set", "params.pr_h1=0.3", "--out", str(b)]) == 0
        assert cli.make_parser.cache_info().misses == misses
        head_a, head_b = self._header(a), self._header(b)
        assert "# set params.n_users=2" in head_a and "# set params.pr_h1=0.2" in head_a
        assert "# set params.n_users=4" in head_b and "# set params.pr_h1=0.3" in head_b

    @pytest.mark.parametrize("args", [["--help"], ["ber", "--help"], ["sensing", "roc", "--help"]])
    def test_help_text_is_a_fresh_parsers(self, args, capsys):
        # after another call has used the shared parser, --help prints what a
        # newly built parser prints
        assert run_cli(["ber", "--mode", "analytic", "--set", "run.snr_grid_db=10",
                        "--out", os.devnull]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.make_parser.__wrapped__().parse_args(args)
        want = capsys.readouterr().out
        assert want.startswith("usage: fsocdma")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli(args)
            assert exc.value.code == 0
            assert capsys.readouterr().out == want


class TestConfigHandling:
    def test_unknown_key_rejected(self, capsys):
        # energy_per_bit, noise_psd and interference_power are not keys: every
        # point sets the noise to 1/SNR in units of E_b and keeps the
        # interference-to-noise ratio, params.inr_db; the batch size is fixed
        # and the sensing SNR is always per sample
        for item in ("params.bogus=1", "params.energy_per_bit=2", "run.batch_slots=8",
                     "detector.accumulate_snr=false", "params.noise_psd=0.1",
                     "params.interference_power=0.1"):
            assert run_cli(["ber", "--set", item]) == 2
            err = capsys.readouterr().err
            assert "unknown configuration key" in err
            assert repr(item.partition("=")[0]) in err

    def test_bad_value_rejected(self, capsys):
        assert run_cli(["ber", "--set", "params.n_users=four"]) == 2

    def test_file_then_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\nparams.n_users = 2\nrun.snr_grid_db = 10\n")
        conf = cli.resolve_config(str(cfg), ["params.n_users=3"], 17)
        assert conf["params.n_users"] == 3
        assert conf["run.snr_grid_db"] == (10.0,)
        assert conf["run.master_seed"] == 17

    def test_unknown_key_in_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense.key=1\n")
        with pytest.raises(cli.ConfigError):
            cli.resolve_config(str(cfg), [], None)

    @pytest.mark.parametrize(
        "sets,key",
        [
            (["codes.policy=bogus"], "codes.policy"),
            (["codes.policy=fixed", "params.n_subcarriers=11"], "params.n_subcarriers"),
            (["codes.policy=fixed", f"params.n_subcarriers={2 * oc.ORDER_LIMIT}"],
             "params.n_subcarriers"),
            # 12 chip classes: a closed-form grid of 1.8e12 cells
            (["codes.policy=fixed", "params.n_subcarriers=45"], "params.n_subcarriers"),
        ],
        ids=["unknown-policy", "fixed-unsupported-factor", "fixed-above-order-limit",
             "fixed-grid-too-large"],
    )
    def test_bad_code_family_fails_before_any_output(self, tmp_path, capsys, sets, key):
        for mode in ("analytic", "both"):
            out = tmp_path / f"{mode}.csv"
            args = ["ber", "--mode", mode, "--out", str(out)]
            for item in sets:
                args += ["--set", item]
            assert run_cli(args) == 1
            err = capsys.readouterr().err
            assert key in err
            assert "codes.policy" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "sets,key",
        [
            (["run.target_pd=1.0"], "run.target_pd"),
            (["run.target_pd=0"], "run.target_pd"),
            (["detector.mean_snr_db=nan"], "detector.mean_snr_db"),
            (["detector.mean_snr_db=-inf"], "detector.mean_snr_db"),
        ],
        ids=["target-pd-one", "target-pd-zero", "snr-nan", "snr-minus-inf"],
    )
    def test_bad_sensing_config_fails_before_any_output(self, tmp_path, capsys, sets, key):
        commands = [["ber", "--mode", "analytic"], ["ber", "--mode", "both"]]
        if key.startswith("detector."):
            commands.append(["sensing", "roc"])
        for i, command in enumerate(commands):
            args = command + ["--out", str(tmp_path / f"{i}.csv")]
            for item in sets:
                args += ["--set", item]
            assert run_cli(args) == 1
            assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "item,wording",
        [
            ("params.n_users=0", "need at least one subcarrier and one user"),
            ("run.target_error_events=0", "trials_min and target_error_events must be >= 1"),
            ("params.pr_h1=2.0", "pr_h1 must lie in [0, 1]"),
            ("params.bit_duration=-1e-05", "need at least one bit interval after sensing"),
        ],
        ids=["n-users-zero", "target-events-zero", "pr-h1-two", "bit-duration-negative"],
    )
    def test_bad_link_or_run_value_names_its_key(self, tmp_path, capsys, item, wording):
        for mode in ("analytic", "both"):
            out = tmp_path / f"{mode}.csv"
            assert run_cli(["ber", "--mode", mode, "--set", item, "--out", str(out)]) == 1
            assert f"{item}: {wording}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args,work",
        [
            (["ber", "--figure", "fig2", "--out", "{missing}/x.csv"], "run_points"),
            (["ber", "--set", "run.snr_grid_db=5", "--out", "{tmp}/o.csv",
              "--trace", "{missing}/t.csv"], "run_points"),
            (["sensing", "roc", "--out", "{missing}/roc.csv"], "solve_threshold"),
            (["codes", "8", "--out", "{missing}/c8.txt"], "build"),
            (["selftest", "--out", "{missing}/self.txt"], "_selftest_codes"),
        ],
        ids=["ber-fig2", "ber-trace", "sensing-roc", "codes", "selftest"],
    )
    def test_missing_out_dir_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, args, work
    ):
        def forbidden(*_args, **_kwargs):
            raise AssertionError(f"{work} ran although the output directory is missing")

        monkeypatch.setattr(cli, work, forbidden)
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing, tmp=tmp_path) for a in args]
        assert run_cli(argv) == 1
        assert str(missing) in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["ber", "--figure", "fig2"],
            ["ber", "--mode", "analytic", "--set", "run.snr_grid_db=10"],
        ],
        ids=["figure", "analytic"],
    )
    def test_trace_without_a_simulated_point_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, args
    ):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("a sweep point ran although --trace cannot be written")

        for work in ("run_points", "derive_sensing"):
            monkeypatch.setattr(cli, work, forbidden)
        argv = args + ["--out", str(tmp_path / "o.csv"), "--trace", str(tmp_path / "t.csv")]
        assert run_cli(argv) == 1
        assert "--trace" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["codes", "8", "--seed", "1"],
            ["codes", "8", "--threads", "2"],
            ["codes", "8", "--set", "params.n_users=2"],
            ["codes", "8", "--config", "exp.cfg"],
            ["sensing", "roc", "--threads", "2"],
            ["selftest", "--threads", "2"],
        ],
        ids=["codes-seed", "codes-threads", "codes-set", "codes-config", "roc-threads",
             "selftest-threads"],
    )
    def test_options_a_command_ignores_are_rejected(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,item",
        [
            (["--set", "params.inr_db=nan"], "params.inr_db=nan"),
            (["--set", "params.inr_db=4000"], "params.inr_db=4000.0"),
            (["--seed", "-1"], "run.master_seed=-1"),
            (["--seed", str(2**64)], f"run.master_seed={2**64}"),
            (["--set", "run.master_seed=-1"], "run.master_seed=-1"),
        ],
        ids=["inr-db-nan", "inr-db-overflow", "seed-negative", "seed-two-to-64",
             "seed-set-negative"],
    )
    def test_bad_value_fails_at_parse_naming_its_key(self, tmp_path, capsys, args, item):
        # a seed outside the 64-bit Philox key would alias another seed's streams
        commands = (["ber", "--set", "run.snr_grid_db=10"], ["sensing", "roc", "--validate"],
                    ["selftest"])
        for i, command in enumerate(commands):
            assert run_cli(command + args + ["--out", str(tmp_path / f"{i}.csv")]) == 2
            captured = capsys.readouterr()
            assert item in captured.err
            assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--mode", "analytic", "--threads", threads])
        assert exc.value.code == 2
        assert "argument --threads: must be at least 1" in capsys.readouterr().err

    def test_value_formatting_round_trip(self):
        for key, value in cli.DEFAULTS.items():
            text = cli._format_value(value)
            assert cli._parse_value(key, text) == value


# Tiny caps for the key-coverage runs: one SNR point of at most three 48-slot
# batches, a five-point ROC and 200 validation draws.
BASE_SETS = {
    "run.snr_grid_db": "5",
    "run.trials_min": "90",
    "run.target_error_events": "10",
    "run.max_trials": "12960",
    "roc.points": "5",
    "roc.validate_trials": "200",
}
# For every key, a valid value other than its BASE_SETS or default one.
OTHER_VALUES = {
    "params.n_subcarriers": "16",
    "params.n_users": "2",
    "params.pr_h1": "0.5",
    "params.inr_db": "3",
    "params.bit_duration": "2e-05",
    "params.slot_duration": "0.002",
    "params.sensing_duration": "0.0002",
    "detector.samples": "160",
    "detector.mean_snr_db": "-10",
    "run.target_pd": "0.9",
    "run.snr_grid_db": "10",
    "run.trials_min": "12960",
    "run.target_error_events": "1000",
    "run.max_trials": "90",
    "run.master_seed": "1",
    "codes.policy": "fixed",
    "roc.points": "7",
    "roc.zeta_max": "1000",
    "roc.validate_trials": "300",
}


def _observable(out_dir, sets):
    """What a configuration shows besides its `# set` lines: the data rows and
    `# derived` lines of a simulated ber run and of `sensing roc --validate`,
    and the validation printout."""
    argv = [item for key, value in sets.items() for item in ("--set", f"{key}={value}")]
    ber, roc = out_dir / "ber.csv", out_dir / "roc.csv"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cli(["ber", "--out", str(ber)] + argv) == 0
        run_cli(["sensing", "roc", "--validate", "--out", str(roc)] + argv)  # 1 past 3 se
    shown = [ln for path in (ber, roc) for ln in path.read_text().splitlines()
             if not ln.startswith("#") or ln.startswith("# derived ")]
    return shown + [ln for ln in printed.getvalue().splitlines() if ln.startswith("validate")]


# Keys that share a unit, and one move of that unit: a factor, or a dB offset.
# The stop rule counts bits in 48-slot batches of 4320 bits, so the bits
# factor takes run.trials_min (90) past the first batch.
UNIT_MOVES = {
    "s": (("params.bit_duration", "params.slot_duration", "params.sensing_duration"),
          lambda v: v * 2),
    "dB": (("detector.mean_snr_db", "run.snr_grid_db", "params.inr_db"), lambda v: v + 3),
    "bits": (("run.trials_min", "run.max_trials"), lambda v: v * 100),
}


class TestKeyCoverage:
    """Every configuration key moves an output, so does every pair of keys
    that share a unit moved together, and the README lists them all."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        return _observable(tmp_path_factory.mktemp("base"), BASE_SETS)

    @pytest.mark.parametrize("key", sorted(cli.DEFAULTS))
    def test_no_key_is_inert(self, tmp_path, base, key):
        other = _observable(tmp_path, {**BASE_SETS, key: OTHER_VALUES[key]})
        assert other != base, f"{key}={OTHER_VALUES[key]} changed no output"

    @pytest.mark.parametrize(
        "unit,pair",
        [(unit, pair) for unit, (keys, _) in UNIT_MOVES.items()
         for pair in itertools.combinations(keys, 2)],
        ids=lambda x: x if isinstance(x, str) else "+".join(x),
    )
    def test_no_same_unit_pair_is_one_setting(self, tmp_path, base, unit, pair):
        # two keys that only reach the outputs through their ratio (or dB
        # difference) are one degree of freedom in two settings
        move = UNIT_MOVES[unit][1]
        moved = {}
        for key in pair:
            value = cli._parse_value(key, BASE_SETS[key]) if key in BASE_SETS else cli.DEFAULTS[key]
            value = tuple(map(move, value)) if isinstance(value, tuple) else move(value)
            moved[key] = cli._format_value(value)
        other = _observable(tmp_path, {**BASE_SETS, **moved})
        assert other != base, f"{moved} changed no output"

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Main configuration keys (defaults)", 1)[1]
        block = block.split("```", 2)[1]
        pairs = [token.partition("=") for token in block.split()]
        assert all(sep == "=" for _, sep, _ in pairs), block
        keys = [key for key, _, _ in pairs]
        assert sorted(keys) == sorted(cli.DEFAULTS)
        for key, _, value in pairs:
            assert cli._parse_value(key, value) == cli.DEFAULTS[key], key


class TestSelftest:
    def test_passes_and_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(["selftest", "--out", str(a)]) == 0
        assert run_cli(["selftest", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = a.read_text()
        for group in ("codes", "sensing", "ber_average"):
            assert f"PASS {group}" in report
        assert "FAIL" not in report

    def test_corrupted_prime_table_detected(self, monkeypatch, capsys):
        # break orthogonality of the order-5 base; the codes group must fail
        bad = tuple(tuple(row) for row in np.eye(5, dtype=int) + 1)
        monkeypatch.setitem(oc._PRIME_BASES, 5, bad)
        assert run_cli(["selftest"]) == 1
        report = capsys.readouterr().out
        assert "FAIL codes" in report
        assert "PASS sensing" in report


def fresh_python(code: str, *args) -> str:
    """Standard output of code run in a new interpreter that imports this fsocdma."""
    src = str(Path(fsocdma.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_import_loads_no_scipy():
    # a fresh interpreter, so no other test's imports count
    code = (
        "import sys, fsocdma.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code).strip() == "[]"


def test_serial_ber_loads_no_process_pool(tmp_path):
    # a fresh interpreter; the pool's modules would be paid by every serial run
    code = (
        "import sys, fsocdma.cli\n"
        "argv = ['ber', '--threads', '1', '--out', sys.argv[1],\n"
        "        '--set', 'run.snr_grid_db=5,10', '--set', 'run.trials_min=500',\n"
        "        '--set', 'run.target_error_events=20']\n"
        "assert fsocdma.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    assert fresh_python(code, tmp_path / "ber.csv").strip().splitlines()[-1] == "[]"


# numpy.random imports secrets, hmac and with them OpenSSL's _hashlib
RANDOM_STACK = ("numpy.random", "hashlib", "_hashlib")


def random_stack_after(calls: list) -> list:
    """The RANDOM_STACK modules a fresh interpreter holds after the CLI calls."""
    code = (
        "import json, sys, fsocdma.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert fsocdma.cli.main(argv) == 0\n"
        f"print(json.dumps([m for m in {RANDOM_STACK!r} if m in sys.modules]))"
    )
    return json.loads(fresh_python(code, json.dumps(calls)).splitlines()[-1])


def test_closed_form_runs_load_no_random_stack(tmp_path):
    # the closed form draws nothing, so it pays for no random stack
    calls = [
        ["ber", "--mode", "analytic", "--out", str(tmp_path / "ber.csv")],
        ["sensing", "roc", "--out", str(tmp_path / "roc.csv")],
        ["codes", "8", "--out", str(tmp_path / "c8.txt")],
    ]
    assert random_stack_after(calls) == []


def test_simulated_point_loads_numpy_random(tmp_path):
    calls = [["ber", "--set", "run.snr_grid_db=10", "--set", "run.trials_min=90",
              "--set", "run.max_trials=90", "--out", str(tmp_path / "ber.csv")]]
    assert "numpy.random" in random_stack_after(calls)


def ber_digests() -> list:
    """The digest of every file of the plain, fig2 and fig3 ber runs."""
    conf = cli.resolve_config(None, [], None)
    return [out[3] for figure in (None, "fig2", "fig3")
            for out in cli._ber_outputs(conf, figure, None, "rerun")]


def test_digests_equal_hashlib(monkeypatch):
    # config_digest and the fig3 bundle through CPython's built-in SHA-256
    # are hashlib's digests of the same text
    got = ber_digests()
    monkeypatch.setattr(mc, "_sha256", hashlib.sha256)
    assert ber_digests() == got


def test_digests_fall_back_to_hashlib():
    # where neither built-in module exists, hashlib gives the same digests
    code = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from fsocdma import cli, montecarlo\n"
        "conf = cli.resolve_config(None, [], None)\n"
        "digests = [out[3] for figure in (None, 'fig2', 'fig3')\n"
        "           for out in cli._ber_outputs(conf, figure, None, 'rerun')]\n"
        "import hashlib\n"
        "print(json.dumps([montecarlo._sha256 is hashlib.sha256, digests]))"
    )
    fell_back, digests = json.loads(fresh_python(code).splitlines()[-1])
    assert fell_back
    assert digests == ber_digests()


def test_import_leaves_caches_empty():
    # a table filled at import would be paid by every run's set-up time
    code = (
        "import json, sys, fsocdma.cli\n"
        "sizes = {f'{name}.{attr}': fn.cache_info().currsize\n"
        "         for name, mod in list(sys.modules.items()) if name.split('.')[0] == 'fsocdma'\n"
        "         for attr, fn in vars(mod).items() if hasattr(fn, 'cache_info')}\n"
        "print(json.dumps(sizes))"
    )
    sizes = json.loads(fresh_python(code))
    assert "fsocdma.orthocodes.rows" in sizes
    assert "fsocdma.ber_analysis._hit_distribution" in sizes
    assert "fsocdma.ber_analysis._rechoose_table" in sizes
    assert {name: n for name, n in sizes.items() if n} == {}
