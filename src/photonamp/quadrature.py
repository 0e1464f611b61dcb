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


#: Nodes per block of ``BoxQuadrature.slabs``: two planes of a 48^3 box. The
#: block's (3, N) nodes, and each per-node array an origin's density pass makes
#: once (|q|, the density, w and w times it), stay below glibc's 128 KiB mmap
#: threshold. It also sets the block of the field node build
#: (``fields._node_coefficients``), whose complex temporaries are twice that.
_SLAB_NODES = 4608


@dataclass(frozen=True, eq=False)
class BoxQuadrature:
    """Gauss-Legendre product rule on the box center +- halfwidth, npts per axis."""

    center: np.ndarray
    halfwidth: np.ndarray
    npts: int
    sized: bool = False  # npts was sized to its accuracy, so the field rule sizes its own

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

    def slabs(self):
        """(k, w, shell) for consecutive blocks of x-planes, in the order of ``points()``.

        ``k`` holds the block's nodes, an (m npts^2, 3) column-major view laid
        out as in ``points``; ``w`` their weights, the rows of ``weights()``;
        ``shell`` marks the nodes of the outermost shell (an extreme index on
        any axis). A block holds as many planes as fit in ``_SLAB_NODES``
        nodes, at least one, so a sum over the slabs never allocates an array
        the size of the box.
        """
        n = self.npts
        (x, y, z), (wx, wy, wz) = self.axes(), self.axis_weights()
        edge = np.zeros(n, dtype=bool)
        edge[[0, -1]] = True
        # once per box: the x-y weights, keeping (wx wy) wz, and an inner plane's shell
        wxy, face = wx[:, None] * wy, edge[:, None] | edge
        step = max(1, _SLAB_NODES // (n * n))
        for start in range(0, n, step):
            planes = slice(start, start + step)
            columns = np.empty((3, x[planes].size, n, n))
            columns[0], columns[1], columns[2] = x[planes, None, None], y[:, None], z
            w = wxy[planes, :, None] * wz
            shell = edge[planes, None, None] | face
            yield columns.reshape(3, -1).T, w.reshape(-1), shell.reshape(-1)

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
