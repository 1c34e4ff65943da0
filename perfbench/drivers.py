"""Library-driver step: list the optimal subsets of Z/mZ for one fold count.

Runs the public ``zm_optimal_subsets`` the way a user script would and
writes the subset masks as JSON::

    python3 perfbench/drivers.py --modulus 11 --folds 2 --out optimal.json
"""

from __future__ import annotations

import argparse
import json
import sys

from sumcollapse.finite_ring import zm_optimal_subsets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modulus", type=int, required=True)
    parser.add_argument("--folds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    subsets = zm_optimal_subsets(args.modulus, args.folds)
    with open(args.out, "w") as fh:
        json.dump(
            {"modulus": args.modulus, "folds": args.folds, "masks": [s.mask for s in subsets]},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
