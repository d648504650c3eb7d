"""Regenerate the pinned reference outputs under ``reference/``.

Each of a workload's first ``pool_size`` operations is run once and its
output written as the reference the benchmark checks against, in
``reference/<workload>.npz``: ``config`` (the workload config as JSON) and
``outputs`` (one row per operation). Re-pin only in a change that alters the
simulator's outputs on purpose, and say so in CHANGES.md.

    python3 perfbench/pin.py [WORKLOAD ...]     # default: every workload
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from swipt_relay import model  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    (HERE / "reference").mkdir(exist_ok=True)
    for name in sys.argv[1:] or WORKLOADS:
        workload = WORKLOADS[name]
        cfg = workload.config()
        outputs = np.array([workload.record(workload.run(cfg, j)) for j in range(workload.pool_size)])
        path = HERE / "reference" / f"{name}.npz"
        np.savez_compressed(path, config=json.dumps(model.config_to_dict(cfg)), outputs=outputs)
        print(f"{name}: {len(outputs)} operations -> {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
