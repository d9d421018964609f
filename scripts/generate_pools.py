#!/usr/bin/env python3
"""Write the synthetic empirical probability pools used by the default grid.

The pools stand in for per-subject risks from fitted clinical models, at
incidences 7% and 26.3%. The output is checked in under configs/pools/, where
configs/full_grid.json reads it; tests/test_engine.py checks that those files
still equal brierlab.presets.synthetic_pools(DEFAULT_SEED, 5000) bit for bit.
"""

import argparse
from pathlib import Path

from brierlab.dgm import write_pool_file
from brierlab.presets import DEFAULT_SEED, synthetic_pools


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "configs" / "pools"),
        help="output directory (default: configs/pools next to this repo's configs)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--size", type=int, default=5000)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pool in synthetic_pools(args.seed, args.size):
        path = out_dir / f"{pool.label}.txt"
        write_pool_file(
            pool,
            path,
            comment=(
                "synthetic stand-in pool (logistic-style linear predictor), "
                f"generated by scripts/generate_pools.py --seed {args.seed} --size {args.size}"
            ),
        )
        print(f"wrote {path} (size={pool.size}, incidence={pool.nominal_incidence:.6f})")


if __name__ == "__main__":
    main()
