#!/usr/bin/env python3
"""Scan the quadrature error of Gaussian descriptor packets on the npts ladder.

For each seeded random descriptor (random direction, |kappa| log-uniform in
[1e-2, 1e2], sigma/|kappa| log-uniform in [1e-3, 0.6], redrawn until its
6.5 sigma box is clear of k = 0) the script prints the estimated error of the
origin's density pass, the largest relative error of the norm, <k_i> and
<|k|> against the unclipped Gaussian's closed forms, at 24, 32 and 48 nodes
per axis, and the rung ``from_descriptor`` chooses. A packet whose box
reaches k = 0 follows as a reference; it keeps 48 nodes.

At each rung it also compares a Gaussian origin's integrals, summed from
one-axis sums, with the slab pass over every node on the same origin: the
gap is the largest of |norm difference| / norm and |<k^mu> difference| / <|k|>.
A last line gives the largest gap at each rung over all cases.

Exits 1 if any narrow case misses the target at 32 nodes, or if any gap is
above 1e-13.

Usage: python scripts/npts_ladder_scan.py [--cases 46] [--seed 0]
"""

import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from photonamp.amplitudes import (
    BOX_HALFWIDTH_SIGMAS,
    QUADRATURE_TARGET,
    _carried_integrals,
    _gaussian_error,
    from_descriptor,
    gaussian_wavepacket,
)

RUNGS = (24, 32, 48)
GAP_LIMIT = 1e-13


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


def gap(psi):
    """Largest relative gap between the origin's one-axis sums and its slab pass."""
    norm, momentum = psi._integrals[:2]
    ref_norm, ref_momentum = _carried_integrals(psi)[:2]
    return max(abs(norm - ref_norm) / ref_norm,
               float(np.max(np.abs(momentum - ref_momentum))) / ref_momentum[0])


def scan(descriptor):
    """(e at each rung, the gap at each rung, the rung ``from_descriptor`` chooses)."""
    kappa, sigma = descriptor["kappa"], descriptor["sigma_k"]
    origins = [gaussian_wavepacket(kappa, sigma, 1, npts=n) for n in RUNGS]
    errors = [_gaussian_error(psi, kappa, sigma) for psi in origins]
    return errors, [gap(psi) for psi in origins], from_descriptor(descriptor).quad.npts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=46)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = " ".join(f"{'e at ' + str(n):>10}" for n in RUNGS)
    print(f"{'|kappa|':>9} {'sigma/|kappa|':>13} {header} {'rung':>4} {'gap':>9}"
          f"   target {QUADRATURE_TARGET:.0e}")
    missed, worst, gaps = 0, 0.0, np.zeros(len(RUNGS))
    for descriptor in narrow_descriptors(np.random.default_rng(args.seed), args.cases):
        errors, case_gaps, chosen = scan(descriptor)
        m = float(np.linalg.norm(descriptor["kappa"]))
        print(f"{m:9.3g} {descriptor['sigma_k'] / m:13.3g} "
              + " ".join(f"{e:10.2e}" for e in errors) + f" {chosen:4d} {max(case_gaps):9.2e}")
        missed += errors[1] > QUADRATURE_TARGET
        worst = max(worst, errors[1])
        gaps = np.maximum(gaps, case_gaps)
    cusp = {"units": "eV", "kappa": [0.0, 0.0, 1.0], "sigma_k": 0.5, "helicity": 1}
    errors, case_gaps, chosen = scan(cusp)
    gaps = np.maximum(gaps, case_gaps)
    print(f"{1.0:9.3g} {0.5:13.3g} " + " ".join(f"{e:10.2e}" for e in errors)
          + f" {chosen:4d} {max(case_gaps):9.2e}   box reaches k = 0")
    print(f"{args.cases} narrow cases: worst e at 32 nodes {worst:.2e}, {missed} above the target")
    print("one-axis sums against the slab pass, largest gap: "
          + ", ".join(f"{g:.2e} at {n}" for g, n in zip(gaps, RUNGS)) + f" (limit {GAP_LIMIT:.0e})")
    return 1 if missed or np.any(gaps > GAP_LIMIT) else 0


if __name__ == "__main__":
    sys.exit(main())
