#!/usr/bin/env python3
"""Scan the accuracy of the narrowband field closed form against full quadrature.

For each relative bandwidth sigma_k/kappa the script fills a spatial grid with
the exact momentum-integral fields of a +z circular Gaussian packet, compares
with the closed form, and prints the relative L2 difference. The difference
should scale linearly with the bandwidth (slope near 1.1).

Usage: python scripts/narrowband_accuracy.py [--ratios 0.03,0.01,0.003] [--n 64]
"""

import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

from photonamp.amplitudes import gaussian_wavepacket
from photonamp.fields import (
    NarrowbandSpec,
    SpatialGrid,
    field_expectation_grid,
    narrowband_grid,
    relative_l2,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratios", default="0.03,0.01,0.003")
    parser.add_argument("--n", type=int, default=64, help="spatial grid points per axis")
    parser.add_argument("--extent", type=float, default=3.7, help="half-extent in sigma_x")
    args = parser.parse_args()

    kappa = 1.0
    print(f"{'sigma_k/kappa':>14} {'rel L2 diff':>12} {'diff/ratio':>11}")
    for ratio in [float(r) for r in args.ratios.split(",")]:
        sigma = ratio * kappa
        psi = gaussian_wavepacket([0, 0, kappa], sigma, 1)
        spec = NarrowbandSpec(kappa, sigma)
        grid = SpatialGrid.centered(args.extent * spec.sigma_x, args.n)
        rel = relative_l2(field_expectation_grid(psi, grid, 0.0), narrowband_grid(spec, grid, 0.0))
        print(f"{ratio:14.4f} {rel:12.5f} {rel / ratio:11.3f}")


if __name__ == "__main__":
    main()
