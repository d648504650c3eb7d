#!/usr/bin/env python3
"""Regenerate the two comparison datasets as CSV tables: average achievable
rate versus the power budget (relay at the midpoint) and versus the relay
position (30 dBm budget), for all five allocation policies."""

import argparse
from pathlib import Path

from swipt_relay.baselines import PolicyId
from swipt_relay.model import default_config
from swipt_relay.montecarlo import SweepSpec, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="directory for the CSV files")
    parser.add_argument("--trials", type=int, default=2000, help="Monte-Carlo trials per point")
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = default_config()
    policies = tuple(PolicyId)

    jobs = {
        "rate_vs_power.csv": SweepSpec(
            variable="p_max_dbm",
            values=tuple(float(dbm) for dbm in range(10, 41, 5)),
            trials=args.trials,
            seed=args.seed,
            policies=policies,
        ),
        "rate_vs_position.csv": SweepSpec(
            variable="relay_position",
            values=tuple(round(0.1 * k, 1) for k in range(1, 10)),
            trials=args.trials,
            seed=args.seed,
            policies=policies,
        ),
    }
    for name, spec in jobs.items():
        path = out_dir / name
        print(
            f"[sweep] {spec.variable}: {len(spec.values)} points x {spec.trials} trials "
            f"x {len(spec.policies)} policies -> {path}"
        )
        path.write_text(sweep(cfg, spec).to_csv())
    print("done")


if __name__ == "__main__":
    main()
