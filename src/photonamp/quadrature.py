"""Tensor-product Gauss-Legendre boxes for momentum-space integrals."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True, eq=False)
class BoxQuadrature:
    """Gauss-Legendre product rule on the box center +- halfwidth, npts per axis."""

    center: np.ndarray
    halfwidth: np.ndarray
    npts: int

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        halfwidth = np.broadcast_to(
            np.asarray(self.halfwidth, dtype=float), (3,)
        ).copy()
        if np.any(halfwidth <= 0.0):
            raise ValueError("box halfwidths must be positive")
        if self.npts < 2:
            raise ValueError("need at least 2 quadrature points per axis")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "halfwidth", halfwidth)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, _ = _leggauss(self.npts)
        return tuple(self.center[i] + self.halfwidth[i] * x for i in range(3))

    def axis_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _, w = _leggauss(self.npts)
        return tuple(self.halfwidth[i] * w for i in range(3))

    def points(self) -> np.ndarray:
        """All nodes, shape (npts**3, 3), in meshgrid 'ij' flatten order.

        The array is the transpose of a (3, npts**3) buffer: a column-major
        view whose x, y and z columns are each contiguous.
        """
        n = self.npts
        x, y, z = self.axes()
        columns = np.empty((3, n, n, n))
        columns[0], columns[1], columns[2] = x[:, None, None], y[:, None], z
        return columns.reshape(3, -1).T

    def weights(self) -> np.ndarray:
        wx, wy, wz = self.axis_weights()
        return (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).reshape(-1)

    def boundary_mask(self) -> np.ndarray:
        """Marks nodes with an extreme index on any axis (outermost shell)."""
        idx = np.arange(self.npts)
        edge = (idx == 0) | (idx == self.npts - 1)
        ex, ey, ez = np.meshgrid(edge, edge, edge, indexing="ij")
        return (ex | ey | ez).reshape(-1)

    def same_box(self, other: "BoxQuadrature") -> bool:
        return (
            self.npts == other.npts
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.halfwidth, other.halfwidth)
        )


def union_box(a: BoxQuadrature, b: BoxQuadrature) -> BoxQuadrature:
    """Smallest axis-aligned box containing both quadrature boxes, at the finer npts."""
    lo = np.minimum(a.center - a.halfwidth, b.center - b.halfwidth)
    hi = np.maximum(a.center + a.halfwidth, b.center + b.halfwidth)
    return BoxQuadrature(0.5 * (lo + hi), 0.5 * (hi - lo), max(a.npts, b.npts))


#: Relative margin added to a mapped box, since the image of a box under a
#: nonlinear map need not be one.
BOX_PAD = 0.02


def mapped_box(box: BoxQuadrature, point_map) -> BoxQuadrature:
    """Bounding box of the image of ``box`` under ``point_map``, padded by ``BOX_PAD``.

    The map is sampled on the 3x3x3 lattice of corners, edge midpoints and
    centers.
    """
    ticks = [np.array([c - h, c, c + h]) for c, h in zip(box.center, box.halfwidth)]
    grids = np.meshgrid(*ticks, indexing="ij")
    lattice = np.stack([g.reshape(-1) for g in grids], axis=-1)
    image = np.asarray(point_map(lattice), dtype=float)
    lo, hi = image.min(axis=0), image.max(axis=0)
    halfwidth = 0.5 * (hi - lo) * (1.0 + BOX_PAD)
    return BoxQuadrature(0.5 * (lo + hi), halfwidth, box.npts)
