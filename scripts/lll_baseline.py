#!/usr/bin/env python3
"""Success-rate and resample-count baseline for the Moser-Tardos
bipartite packer on random regular-ish covers.

Instances: |A| = |B| vertices per side, `degree` random perfect
matchings unioned into the bipartite graph, uniform random full slot
matchings per edge.  One JSON summary line at the end.

    python scripts/lll_baseline.py --side 40 --degree 8 --k 9 --runs 100
"""

import argparse
import json
import statistics
import sys

from listpack.core import validate_packing
from listpack.generators import gen_random_bipartite_cover
from listpack.probabilistic import pack_bipartite_lll


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, default=40)
    ap.add_argument("--degree", type=int, default=8)
    ap.add_argument("--k", type=int, default=9)
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    successes = 0
    resample_counts = []
    for run in range(args.runs):
        cover = gen_random_bipartite_cover(
            args.side, args.degree, args.k, args.seed_base + run
        )
        resamples = []
        packing = pack_bipartite_lll(
            cover, seed=run, on_resample=lambda _v: resamples.append(1)
        )
        if packing is not None:
            if validate_packing(cover, packing) is not None:
                print(f"run {run}: INVALID PACKING", file=sys.stderr)
                return 1
            successes += 1
            resample_counts.append(len(resamples))

    print(
        json.dumps(
            {
                "side": args.side,
                "degree": args.degree,
                "k": args.k,
                "runs": args.runs,
                "successes": successes,
                "success_rate": successes / args.runs,
                "mean_resamples": (
                    statistics.mean(resample_counts) if resample_counts else None
                ),
                "max_resamples": max(resample_counts, default=None),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
