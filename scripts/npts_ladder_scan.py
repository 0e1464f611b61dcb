#!/usr/bin/env python3
"""Scan the quadrature error of Gaussian descriptor packets on the npts ladder.

For each seeded random descriptor (random direction, |kappa| log-uniform in
[1e-2, 1e2], sigma/|kappa| log-uniform in [1e-3, 0.6], redrawn until its
6.5 sigma box is clear of k = 0) the script prints the estimated error of the
origin's density pass, the largest relative error of the norm, <k_i> and
<|k|> against the unclipped Gaussian's closed forms, at 24, 32 and 48 nodes
per axis, and the rung ``from_descriptor`` chooses. A packet whose box
reaches k = 0 follows as a reference; it keeps 48 nodes.

Exits 1 if any narrow case misses the target at 32 nodes.

Usage: python scripts/npts_ladder_scan.py [--cases 46] [--seed 0]
"""

import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from photonamp.amplitudes import (
    BOX_HALFWIDTH_SIGMAS,
    QUADRATURE_TARGET,
    _gaussian_error,
    from_descriptor,
    gaussian_wavepacket,
)

RUNGS = (24, 32, 48)


def narrow_descriptors(rng, count):
    """``count`` descriptors whose box is clear of k = 0."""
    while count:
        direction = rng.normal(size=3)
        kappa = 10.0 ** rng.uniform(-2.0, 2.0) * direction / np.linalg.norm(direction)
        sigma = 10.0 ** rng.uniform(-3.0, np.log10(0.6)) * np.linalg.norm(kappa)
        if np.all(np.abs(kappa) <= BOX_HALFWIDTH_SIGMAS * sigma):
            continue
        count -= 1
        yield {"units": "eV", "kappa": kappa.tolist(), "sigma_k": float(sigma), "helicity": 1}


def scan(descriptor):
    """(e at each rung, the rung ``from_descriptor`` chooses)."""
    kappa, sigma = descriptor["kappa"], descriptor["sigma_k"]
    errors = [_gaussian_error(gaussian_wavepacket(kappa, sigma, 1, npts=n), kappa, sigma)
              for n in RUNGS]
    return errors, from_descriptor(descriptor).quad.npts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=46)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = " ".join(f"{'e at ' + str(n):>10}" for n in RUNGS)
    print(f"{'|kappa|':>9} {'sigma/|kappa|':>13} {header} {'rung':>4}   target {QUADRATURE_TARGET:.0e}")
    missed, worst = 0, 0.0
    for descriptor in narrow_descriptors(np.random.default_rng(args.seed), args.cases):
        errors, chosen = scan(descriptor)
        m = float(np.linalg.norm(descriptor["kappa"]))
        print(f"{m:9.3g} {descriptor['sigma_k'] / m:13.3g} "
              + " ".join(f"{e:10.2e}" for e in errors) + f" {chosen:4d}")
        missed += errors[1] > QUADRATURE_TARGET
        worst = max(worst, errors[1])
    cusp = {"units": "eV", "kappa": [0.0, 0.0, 1.0], "sigma_k": 0.5, "helicity": 1}
    errors, chosen = scan(cusp)
    print(f"{1.0:9.3g} {0.5:13.3g} " + " ".join(f"{e:10.2e}" for e in errors)
          + f" {chosen:4d}   box reaches k = 0")
    print(f"{args.cases} narrow cases: worst e at 32 nodes {worst:.2e}, {missed} above the target")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
