#!/usr/bin/env python3
"""BER versus number of users at two fixed SNRs.

Writes fig3_snr10.csv and fig3_snr20.csv and prints a compact table.
Equivalent CLI: fsocdma ber --figure fig3.
"""

import argparse
import math
from pathlib import Path

from fsocdma.cli import fig3_point_index
from fsocdma.montecarlo import RunConfig, estimate_ber
from fsocdma.phylink import SystemParams
from fsocdma.sensing import DetectorConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=24601)
    ap.add_argument("--events", type=int, default=400, help="error events per point")
    ap.add_argument("--max-users", type=int, default=8)
    args = ap.parse_args()

    detector = DetectorConfig(samples=320, threshold=0.0,
                              mean_snr_db=2.3 + 10 * math.log10(320))
    for si, snr in enumerate((10.0, 20.0)):
        rows = []
        for k in range(1, args.max_users + 1):
            cfg = RunConfig(
                params=SystemParams(n_subcarriers=32, n_users=k, pr_h1=0.2,
                                    noise_psd=0.1, interference_power=0.1),
                detector=detector,
                snr_grid_db=(snr,),
                target_error_events=args.events,
                trials_min=50_000,
                master_seed=args.seed,
            )
            rows.append((k, estimate_ber(cfg, snr, point_index=fig3_point_index(si, k))))
        path = Path(args.outdir) / f"fig3_snr{snr:g}.csv"
        lines = [f"# reproduce_fig3 snr={snr:g} seed={args.seed}",
                 "k_users,ber_analytic,ber_sim,ci_halfwidth,trials,errors"]
        print(f"snr {snr:g} dB  ->  {path}")
        for k, p in rows:
            lines.append(f"{k},{p.ber_analytic:.10e},{p.ber_simulated:.10e},"
                         f"{p.ci_halfwidth:.10e},{p.trials},{p.errors}")
            print(f"  K={k}  analytic {p.ber_analytic:.3e}"
                  f"  simulated {p.ber_simulated:.3e} +- {p.ci_halfwidth:.1e}")
        path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
