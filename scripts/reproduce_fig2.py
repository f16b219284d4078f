#!/usr/bin/env python3
"""BER versus SNR for 4 and 8 users: analytic curves with Monte Carlo overlay.

Writes fig2_k4.csv and fig2_k8.csv next to this script (or to --outdir) and
prints a compact table.  Equivalent CLI: fsocdma ber --figure fig2.
"""

import argparse
import math
from pathlib import Path

from fsocdma.montecarlo import RunConfig, curve_csv, sweep
from fsocdma.phylink import SystemParams
from fsocdma.sensing import DetectorConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=24601)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--events", type=int, default=100, help="error events per point")
    args = ap.parse_args()

    detector = DetectorConfig(samples=320, threshold=0.0,
                              mean_snr_db=2.3 + 10 * math.log10(320))
    for k in (4, 8):
        cfg = RunConfig(
            params=SystemParams(n_subcarriers=32, n_users=k, pr_h1=0.2,
                                noise_psd=0.1, interference_power=0.1),
            detector=detector,
            snr_grid_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
            target_error_events=args.events,
            master_seed=args.seed,
        )
        curve = sweep(cfg, threads=args.threads)
        path = Path(args.outdir) / f"fig2_k{k}.csv"
        path.write_text(curve_csv(curve, comments=(f"reproduce_fig2 K={k} seed={args.seed}",)))
        print(f"K={k}  ({curve.elapsed:.1f}s)  ->  {path}")
        for p in curve.points:
            print(f"  {p.snr_db:5.1f} dB  analytic {p.ber_analytic:.3e}"
                  f"  simulated {p.ber_simulated:.3e} +- {p.ci_halfwidth:.1e}"
                  f"  ({p.errors} errors / {p.trials} bits)")


if __name__ == "__main__":
    main()
