"""Command-line front end.

Subcommands
-----------
verify     run a seeded property suite, JSON report to stdout
wigner     little-group angle/phase for one rotation or boost at one momentum
transform  apply symmetry operations to a wavepacket descriptor (JSON file)
fields     sample E/B on a grid (CSV) and report conservation integrals (JSON)
localize   packet width in micrometers from photon energy and relative bandwidth

Exit codes: 0 success, 1 numerical failure, 2 usage/parse error. A number
that is not finite, an energy or relative width that is not positive, a
negative ``verify --seed``, fewer than 2 points per axis (``fields --n``,
``transform --npts``), a ``localize --sigma-ratio`` outside (0, 0.1), a
``wigner --beta`` with |beta| >= 1, a zero ``wigner --axis`` and a malformed
``transform --op`` or descriptor (not a JSON object, "ops" not a list, an op
not an object or of unknown type, a missing field, a list of the wrong count or
nested, a bool or a string for a number, a helicity other than +-1, a zero
rotation axis or a boost with |beta| >= 1) are usage errors.
Output is strict JSON: a result that is not finite is a numerical failure.
``verify`` checks each property at its own fixed tolerance, with no override.
Angles are radians; energies cross the boundary in eV (natural units inside).
JSON output carries ``"schema": 1`` and, unless ``--no-timestamp`` is given, a
``generated_at`` field (excluded so reports can be compared byte for byte).

``main(argv)`` may be called any number of times in one process: it builds
the argument parser on its first call, not at import, and reuses it.

``transform`` reports ``npts``, chosen by ``from_descriptor`` unless given, and
``quadrature_error``, its estimate against the Gaussian's closed forms. ``fields
--mode narrowband`` reports ``narrowband_expected_error`` and warns above 0.01;
``--mode exact`` reports the field rule's ``field_npts`` and ``phase_range``.

The ``fields`` CSV has the header ``x,y,z,Ex,Ey,Ez,Bx,By,Bz`` and one line per
grid node, z fastest, ending in ``\r\n``. Each value is the shortest ``repr``
of its float, so it parses back to the identical float64; the text is
computed in bulk by :mod:`photonamp._floattext`, byte for byte what ``repr``
prints. ``--units ev-um`` scales the coordinates only; E and B stay in
natural units.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from functools import cache, partial, wraps
from pathlib import Path

import numpy as np

from ._floattext import WIDTH, repr_cells
from .amplitudes import (
    _gaussian_error,
    expectation_momentum,
    from_descriptor,
    gaussian_wavepacket,
    norm_squared,
    op_from_json,
    replay,
)
from .fields import (
    HBARC_EV_UM,
    NarrowbandSpec,
    NarrowbandValidityWarning,
    SpatialGrid,
    UnderResolvedGridError,
    energy_momentum_integrals,
    field_expectation_grid,
    localization_scale,
    narrowband_grid,
)
from .lorentz import AxisAngle, boost_matrix, rotation_matrix
from .verify import SUITE_NAMES, run_suite
from .wigner import wigner_boost, wigner_rotation


def _emit(payload: dict, args) -> None:
    """Write ``payload`` as strict JSON, or raise ValueError (exit 1) if a value is not finite."""
    if not args.no_timestamp:
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("a result is not a finite number") from None
    sys.stdout.write(text + "\n")


def _parse_vec(text: str, n: int) -> list[float]:
    parts = [_finite(p) for p in text.split(",")]
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} comma-separated numbers")
    return parts


def _int_at_least(low: int, message: str):
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(message)
        return n

    return parse


def _accepted_by(parse, check):
    """``parse(text)``, refused as a usage error where ``check`` raises ValueError on it.

    The bound stays with the library function that enforces it.
    """

    @wraps(parse)
    def accepted(text: str):
        value = parse(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return accepted


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _op(text: str):
    """One ``--op``: a JSON object that ``op_from_json`` accepts.

    A rotation's axis and a boost's velocity must pass the single call that
    bounds them, as ``wigner --axis`` and ``--beta`` do: a nonzero axis, |beta| < 1.
    """
    try:
        op = op_from_json(json.loads(text))
        if op.kind == "rotate":
            AxisAngle(np.array(op.params["axis"]), op.params["angle"])
        elif op.kind == "boost":
            boost_matrix(np.array(op.params["beta"]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed op {text!r}: {exc}") from None
    return op


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, trials=args.trials, seed=args.seed)
    _emit(report.to_dict(include_time=not args.no_timestamp), args)
    return 0 if report.passed else 1


def _cmd_wigner(args) -> int:
    omega = args.omega_ev
    k = omega * np.array(
        [
            1.0,
            math.sin(args.theta) * math.cos(args.phi),
            math.sin(args.theta) * math.sin(args.phi),
            math.cos(args.theta),
        ]
    )
    if args.kind == "rotation":
        if args.axis is None or args.angle is None:
            print("rotation needs --axis and --angle", file=sys.stderr)
            return 2
        data = wigner_rotation(rotation_matrix(AxisAngle(np.array(args.axis), args.angle)), k)
    else:
        if args.beta is None:
            print("boost needs --beta", file=sys.stderr)
            return 2
        data = wigner_boost(boost_matrix(np.array(args.beta)), k)
    phase = data.phase(1)
    _emit(
        {
            "schema": 1,
            "kind": args.kind,
            "w": data.w,
            "phase_re": phase.real,
            "phase_im": phase.imag,
            "alpha": list(data.alpha),
        },
        args,
    )
    return 0


def _cmd_transform(args) -> int:
    try:
        descriptor = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read descriptor: {exc}", file=sys.stderr)
        return 2
    try:
        psi = from_descriptor(descriptor, npts=args.npts)
    except ValueError as exc:
        print(f"malformed descriptor: {exc}", file=sys.stderr)
        return 2

    def summary(amp):
        p = expectation_momentum(amp)
        return {"norm_squared": norm_squared(amp), "momentum": list(p)}

    before = summary(psi)
    psi = replay(psi, args.op)
    after = summary(psi)

    ops = descriptor.get("ops", []) + [op.to_json() for op in args.op]
    flips = sum(1 for op in psi.record if op.kind == "parity")
    _emit(
        {
            "schema": 1,
            "descriptor": dict(descriptor, ops=ops),
            "helicity": int(descriptor["helicity"]) * (-1) ** flips,
            "before": before,
            "after": after,
            "npts": psi.quad.npts,
            "quadrature_error": _gaussian_error(psi, descriptor["kappa"], descriptor["sigma_k"]),
        },
        args,
    )
    return 0


def _write_fields_csv(path, grid, ftg, scale: float) -> None:
    """One line per grid node, z fastest; every value is its shortest ``repr``.

    The text comes from :func:`photonamp._floattext.repr_cells` in bulk: the
    coordinate cells once per axis, the E/B cells one x-slab at a time, in
    chunks of (y, z) rows of about 4096 values. Each chunk's padded cells
    are joined by one mask-select, so the text of the whole grid, or of a
    whole slab, is never held.
    """
    (xt, xl), (yt, yl), (zt, zl) = (repr_cells(axis * scale) for axis in grid.axes())
    step = max(1, 4096 // (6 * zl.size))
    text = np.empty((step, zl.size, 9, WIDTH), dtype=np.uint8)
    length = np.empty((step, zl.size, 9), dtype=np.uint8)
    text[:, :, 2], length[:, :, 2] = zt, zl
    position = np.arange(WIDTH, dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write(b"x,y,z,Ex,Ey,Ez,Bx,By,Bz\r\n")
        for ix in range(xl.size):
            text[:, :, 0], length[:, :, 0] = xt[ix], xl[ix]
            for iy in range(0, yl.size, step):
                rows = slice(iy, iy + step)
                chunk = yl[rows].size
                t, n = text[:chunk], length[:chunk]
                t[:, :, 1], n[:, :, 1] = yt[rows, None], yl[rows, None]
                t[:, :, 3:], n[:, :, 3:] = repr_cells(
                    np.concatenate((ftg.E[ix, rows], ftg.B[ix, rows]), axis=-1), line_end=True
                )
                handle.write(t[position < n[..., None]])


#: Relative L2 error of the narrowband map per unit sigma/kappa at t = 0 (the law
#: ``test_narrowband_error_law`` pins), and the expected error above which it warns.
NARROWBAND_ERROR_PER_RATIO = 1.117
NARROWBAND_TOLERANCE = 0.01


def _cmd_fields(args) -> int:
    kappa = args.kappa_ev
    sigma = args.sigma_ratio * kappa
    expected_error = NARROWBAND_ERROR_PER_RATIO * args.sigma_ratio
    if args.mode == "narrowband" and expected_error > NARROWBAND_TOLERANCE:
        warnings.warn(f"the narrowband map is expected {expected_error:.2g} off in relative L2, "
                      f"above {NARROWBAND_TOLERANCE}; use --mode exact", NarrowbandValidityWarning)
    spec = NarrowbandSpec(kappa, sigma)
    # the packet moves along +z at the speed of light; keep it on the grid
    grid = SpatialGrid.centered(
        args.extent * spec.sigma_x, args.n, center=(0.0, 0.0, args.time)
    )
    try:
        if args.mode == "narrowband":
            ftg = narrowband_grid(spec, grid, args.time)
        else:
            psi = gaussian_wavepacket([0.0, 0.0, kappa], sigma, 1)
            ftg = field_expectation_grid(psi, grid, args.time)
        totals = energy_momentum_integrals(ftg)
    except UnderResolvedGridError as exc:
        print(f"grid too coarse: {exc}", file=sys.stderr)
        return 1

    try:
        _write_fields_csv(args.out, grid, ftg, HBARC_EV_UM if args.units == "ev-um" else 1.0)
    except OSError as exc:
        print(f"cannot write CSV: {exc}", file=sys.stderr)
        return 2
    _emit(
        {
            "schema": 1,
            "mode": args.mode,
            "kappa_ev": kappa,
            "sigma_ratio": args.sigma_ratio,
            "sigma_x_natural": spec.sigma_x,
            "grid": {
                "n": args.n,
                "extent_sigmas": args.extent,
                "spacing": float(grid.spacing[0]),
            },
            "time": args.time,
            "units": args.units,
            "energy": totals[0],
            "momentum": list(totals[1:]),
            "energy_over_kappa": totals[0] / kappa,
            "csv": str(args.out),
            **({"narrowband_expected_error": expected_error} if args.mode == "narrowband" else
               {"field_npts": ftg.field_npts, "phase_range": ftg.phase_range}),
        },
        args,
    )
    return 0


def _cmd_localize(args) -> int:
    _emit(
        {
            "schema": 1,
            "kappa_ev": args.kappa_ev,
            "sigma_ratio": args.sigma_ratio,
            "sigma_x_um": localization_scale(args.kappa_ev, args.sigma_ratio),
        },
        args,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonamp",
        description="Photon helicity-amplitude and field-expectation toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit volatile fields so JSON output is byte-reproducible",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a property-verification suite", parents=[common])
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    p.add_argument("--trials", type=_int_at_least(1, "at least 1 trial is needed"), default=1000)
    p.add_argument("--seed", type=_int_at_least(0, "the seed must be non-negative"), default=7)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("wigner", help="little-group angle for one transformation", parents=[common])
    p.add_argument("--kind", required=True, choices=("rotation", "boost"))
    vec3 = partial(_parse_vec, n=3)
    vec3.__name__ = "3-vector"  # argparse's name for it: "invalid 3-vector value"
    p.add_argument("--axis", type=_accepted_by(vec3, lambda v: AxisAngle(np.array(v), 0.0)),
                   help="rotation axis x,y,z, nonzero")
    p.add_argument("--angle", type=_finite, help="rotation angle (radians)")
    p.add_argument("--beta", type=_accepted_by(vec3, lambda v: boost_matrix(np.array(v))),
                   help="boost velocity x,y,z, with |beta| < 1")
    p.add_argument("--omega-ev", type=_positive, required=True, help="photon energy (eV)")
    p.add_argument("--theta", type=_finite, required=True, help="momentum polar angle")
    p.add_argument("--phi", type=_finite, required=True, help="momentum azimuth")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("transform", help="apply operations to a wavepacket descriptor", parents=[common])
    p.add_argument("input", help="wavepacket descriptor JSON file")
    p.add_argument(
        "--op",
        type=_op,
        action="append",
        default=[],
        help='operation as JSON, e.g. \'{"type":"boost","beta":[0,0,0.5]}\' (repeatable)',
    )
    p.add_argument("--npts", type=_int_at_least(2, "need at least 2 quadrature points per axis"),
                   help="quadrature points per axis (>= 2); chosen from the accuracy by default")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("fields", help="sample E/B on a grid and integrate", parents=[common])
    p.add_argument("--kappa-ev", type=_positive, required=True)
    p.add_argument("--sigma-ratio", type=_positive, required=True)
    p.add_argument("--n", type=_int_at_least(2, "a grid needs at least 2 points per axis"),
                   required=True, help="grid points per axis (>= 2)")
    p.add_argument(
        "--extent", type=_positive, default=6.0, help="half-extent in units of sigma_x"
    )
    p.add_argument("--time", type=_finite, default=0.0)
    p.add_argument("--mode", default="narrowband", choices=("exact", "narrowband"))
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--units", default="natural", choices=("natural", "ev-um"))
    p.set_defaults(func=_cmd_fields)

    p = sub.add_parser("localize", help="packet width in micrometers", parents=[common])
    p.add_argument("--kappa-ev", type=_positive, required=True)
    p.add_argument("--sigma-ratio", type=_accepted_by(float, lambda r: localization_scale(1.0, r)),
                   required=True, help="relative bandwidth, in (0, 0.1)")
    p.set_defaults(func=_cmd_localize)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: built on ``main``'s first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # entering resets the once-per-location registry, so every call warns;
        # the caller's filters still apply
        with warnings.catch_warnings():
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
