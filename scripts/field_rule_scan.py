#!/usr/bin/env python3
"""Scan the pointwise field error against the phase range R that sizes the field rule.

The packet is the Gaussian kappa = (0, 0, 1), sigma = 0.05. For each distance
D and time t the points are the packet centre z = t and points along z up to
D from it, plus one point D/2 off the axis. Each row prints R as
``fields._field_rule`` bounds it, the error of the pointwise field at 32, 40
and 48 nodes per axis against a 128-node sum, relative to max|F| over the
points, and the npts a sized packet (``gaussian_wavepacket`` without npts)
takes there, with a ``!`` where it warns. The 128-node reference is summed by
three tensor contractions per point, so it holds no (points, nodes) array.

Two grid rows follow: the fields-csv map (kappa 3.3, sigma/kappa 0.08, 66^3 at
extent 4, centred on the packet) at t = 0 and t = 20. Its corner is 19.5 rad
per axis but 33.8 rad along the diagonal, and it reads like a point at 19.5:
R is a per-axis rate, because the rule is a product of one-axis rules.

Exits 1 if a case at or under ``FIELD_SIZING_LIMIT`` reads above 5e-14 at 32
nodes, or a case within the warning limit of 32, 40 or 48 nodes reads above
1e-9 there.

Usage: python scripts/field_rule_scan.py
"""

import math
import sys
import warnings

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from photonamp import fields
from photonamp.amplitudes import QUADRATURE_TARGET, QuadratureDomainWarning, gaussian_wavepacket

KAPPA, SIGMA = (0.0, 0.0, 1.0), 0.05
NODES, REFERENCE = (32, 40, 48), 128
SIZING_TOLERANCE = 5e-14
CASES = [(d, 0.0) for d in (1.5, 5, 6, 7, 10, 15, 20, 30, 40, 60, 80, 90, 110)] + [
    (d, t) for t in (50, 100, 200, 400, 600, 1000) for d in (1.5, 40)]


def points(d, t, m=9):
    """m points along z within d of the centre z = t, and one d/2 off the axis, at time t."""
    x = np.zeros((m + 1, 4))
    x[:, 0] = t
    x[:, 3] = t
    x[:m, 3] += np.linspace(-d, d, m)
    x[m, 1] = d / 2
    return x


def contracted(psi, x):
    """The positive-frequency sums of ``fields._sum_over_nodes``, one contraction per axis."""
    box, omega, C = fields._node_coefficients(psi)
    n, axes = box.npts, box.axes()
    out = []
    for t, *y in x:
        c = (C * np.exp(-1j * omega * t)[:, None]).reshape(n, n, n, -1)
        for i in (2, 1, 0):
            c = np.tensordot(c, np.exp(1j * axes[i] * y[i]), axes=([i], [0]))
        out.append(c)
    return np.array(out)


def error(got, reference):
    """max |F - F_ref| / max |F_ref|: F holds 2 Re and 2 Im of each one-helicity sum."""
    parts = lambda z: np.stack([z.real, z.imag])  # noqa: E731
    return float(np.max(np.abs(parts(got - reference))) / np.max(np.abs(parts(reference))))


def sized_rule(psi, x):
    """(R, npts, warns) of a sized packet's pointwise call at x."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureDomainWarning)
        npts, phase_range = fields._field_rule(psi, psi._element.origin_point(x))
    return float(phase_range.max()), int(npts.max()), bool(caught)


def limit(n):
    return fields.PHASE_RADIANS_PER_NODE * (n - fields.PHASE_NODE_OFFSET)


def main():
    warnings.simplefilter("ignore", QuadratureDomainWarning)  # the pinned rules past their limit
    reference = gaussian_wavepacket(KAPPA, SIGMA, 1, npts=REFERENCE)
    pinned = {n: gaussian_wavepacket(KAPPA, SIGMA, 1, npts=n) for n in NODES}
    sized = gaussian_wavepacket(KAPPA, SIGMA, 1)
    print(f"kappa {KAPPA}, sigma {SIGMA}; error against a {REFERENCE}-node sum, relative to max|F|")
    print(f"sizing limit {fields.FIELD_SIZING_LIMIT} rad at {SIZING_TOLERANCE:.0e}; warning limits "
          + ", ".join(f"{n}: {limit(n):.1f}" for n in NODES) + f" rad at {QUADRATURE_TARGET:.0e}")
    print(f"{'D':>5} {'t':>6} {'R':>7} " + " ".join(f"{n:>8}" for n in NODES) + "  sized")
    bad = []
    for d, t in CASES:
        x = points(d, t)
        ref = contracted(reference, x)
        errors = [error(fields._sum_over_nodes(pinned[n], x), ref) for n in NODES]
        phase_range, npts, warns = sized_rule(sized, x)
        print(f"{d:5g} {t:6g} {phase_range:7.2f} " + " ".join(f"{e:8.1e}" for e in errors)
              + f"  {npts}{'!' if warns else ''}")
        if phase_range <= fields.FIELD_SIZING_LIMIT and errors[0] > SIZING_TOLERANCE:
            bad.append((d, t, 32, "sizing"))
        bad += [(d, t, n, "warning") for n, e in zip(NODES, errors)
                if phase_range <= limit(n) and e > QUADRATURE_TARGET]

    sigma = 0.08 * 3.3
    packet = {n: gaussian_wavepacket([0.0, 0.0, 3.3], sigma, 1, npts=n) for n in (*NODES, REFERENCE)}
    spatial = fields.FIELD_BOX_SCALE * 6.5 * sigma * 4.0 * 0.5 / sigma  # L times the half-extent
    print(f"fields-csv grid: {spatial:.1f} rad per axis at the corner, "
          f"{math.sqrt(3.0) * spatial:.1f} along its diagonal")
    for t in (0.0, 20.0):
        grid = fields.SpatialGrid.centered(4.0 * 0.5 / sigma, 66, center=(0.0, 0.0, t))
        fills = {n: fields.positive_frequency_grid(psi, grid, t)[0] for n, psi in packet.items()}
        ref = fills.pop(REFERENCE)
        *_, phase_range = fields._grid_sums(packet[48], grid, t)
        print(f"{'grid':>5} {t:6g} {phase_range:7.2f} "
              + " ".join(f"{error(fill, ref):8.1e}" for fill in fills.values()))
    for d, t, n, kind in bad:
        print(f"D={d:g} t={t:g} misses the {kind} tolerance at {n} nodes")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
