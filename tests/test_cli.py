import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from photonamp import cli, verify
from photonamp.amplitudes import (QuadratureDomainWarning, expectation_momentum, gaussian_wavepacket,
                                  norm_squared, replay)
from photonamp.cli import _write_fields_csv, main
from photonamp.fields import (
    HBARC_EV_UM,
    FieldTensorGrid,
    NarrowbandSpec,
    NarrowbandValidityWarning,
    SpatialGrid,
    field_expectation_grid,
    narrowband_grid,
)
from test_amplitudes import README_OPS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_localize_blue_photon(capsys):
    code, payload = run_cli(
        capsys, "localize", "--kappa-ev", "3.3", "--sigma-ratio", "0.01", "--no-timestamp"
    )
    assert code == 0
    assert payload["schema"] == 1
    assert payload["sigma_x_um"] == pytest.approx(2.99, abs=5e-3)


def test_localize_scaling(capsys):
    _, a = run_cli(capsys, "localize", "--kappa-ev", "3.3", "--sigma-ratio", "0.02", "--no-timestamp")
    _, b = run_cli(capsys, "localize", "--kappa-ev", "6.6", "--sigma-ratio", "0.01", "--no-timestamp")
    assert a["sigma_x_um"] == pytest.approx(1.4949, abs=5e-4)
    assert b["sigma_x_um"] == pytest.approx(a["sigma_x_um"], rel=1e-12)


def test_wigner_rotation_identity(capsys):
    code, payload = run_cli(
        capsys, "wigner", "--kind", "rotation", "--axis", "0,0,1", "--angle", "0",
        "--omega-ev", "2.0", "--theta", "1.0", "--phi", "0.3", "--no-timestamp",
    )
    assert code == 0
    assert payload["w"] == pytest.approx(0.0)
    assert payload["phase_re"] == pytest.approx(1.0)


def test_wigner_z_rotation_passes_through(capsys):
    code, payload = run_cli(
        capsys, "wigner", "--kind", "rotation", "--axis", "0,0,1", "--angle", "0.5",
        "--omega-ev", "2.0", "--theta", "1.0", "--phi", "0.3", "--no-timestamp",
    )
    assert code == 0
    assert payload["w"] == pytest.approx(0.5, abs=1e-12)
    assert payload["phase_im"] == pytest.approx(-math.sin(0.5), abs=1e-12)


def test_wigner_z_boost_trivial_angle(capsys):
    code, payload = run_cli(
        capsys, "wigner", "--kind", "boost", "--beta", "0,0,0.6",
        "--omega-ev", "1.0", "--theta", "0.8", "--phi", "1.0", "--no-timestamp",
    )
    assert code == 0
    assert payload["w"] == pytest.approx(0.0, abs=1e-10)
    assert payload["alpha"] != [0.0, 0.0]


def test_wigner_missing_parameters(capsys):
    code = main(
        ["wigner", "--kind", "rotation", "--omega-ev", "1.0", "--theta", "1.0", "--phi", "0.0"]
    )
    assert code == 2
    code = main(["wigner", "--kind", "boost", "--omega-ev", "1.0", "--theta", "1.0", "--phi", "0.0"])
    assert code == 2
    assert "boost needs --beta" in capsys.readouterr().err


MISSING = object()  # an override that drops its key


def descriptor_file(tmp_path, **overrides):
    descriptor = {
        "units": "eV",
        "kappa": [0.0, 0.0, 1.0],
        "sigma_k": 0.05,
        "helicity": 1,
        "ops": [],
    }
    descriptor.update(overrides)
    descriptor = {key: value for key, value in descriptor.items() if value is not MISSING}
    path = tmp_path / "packet.json"
    path.write_text(json.dumps(descriptor))
    return path


def test_transform_no_ops(tmp_path, capsys):
    path = descriptor_file(tmp_path)
    code, payload = run_cli(capsys, "transform", str(path), "--no-timestamp")
    assert code == 0
    assert payload["before"]["norm_squared"] == pytest.approx(1.0, abs=1e-9)
    assert payload["after"] == payload["before"]
    assert payload["helicity"] == 1


def test_transform_boost_reports_mapped_momentum(tmp_path, capsys):
    path = descriptor_file(tmp_path)
    code, payload = run_cli(
        capsys, "transform", str(path),
        "--op", '{"type":"boost","beta":[0,0,0.5]}', "--no-timestamp",
    )
    assert code == 0
    assert payload["after"]["norm_squared"] == pytest.approx(1.0, abs=1e-6)
    before = np.array(payload["before"]["momentum"])
    after = np.array(payload["after"]["momentum"])
    gamma = 1 / math.sqrt(1 - 0.25)
    assert after[3] == pytest.approx(gamma * (before[3] + 0.5 * before[0]), rel=1e-6)
    assert payload["descriptor"]["ops"] == [{"type": "boost", "beta": [0.0, 0.0, 0.5]}]


def test_transform_parity_flips_helicity(tmp_path, capsys):
    path = descriptor_file(tmp_path)
    code, payload = run_cli(
        capsys, "transform", str(path), "--op", '{"type":"parity"}', "--no-timestamp"
    )
    assert code == 0
    assert payload["helicity"] == -1
    after = np.array(payload["after"]["momentum"])
    assert after[3] == pytest.approx(-1.0, abs=1e-6)


def test_transform_chooses_npts_and_reports_its_error(tmp_path, capsys):
    path = descriptor_file(tmp_path, ops=[op.to_json() for op in README_OPS[:2]])
    code, payload = run_cli(capsys, "transform", str(path), "--no-timestamp")
    assert code == 0
    assert payload["npts"] == 32
    assert 0.0 < payload["quadrature_error"] <= 1e-9


@pytest.mark.parametrize("npts", [48, 24])
def test_transform_explicit_npts_keeps_the_bits_of_that_rule(tmp_path, capsys, npts):
    path = descriptor_file(tmp_path, ops=[op.to_json() for op in README_OPS[:2]])
    argv = ["transform", str(path), "--npts", str(npts), "--no-timestamp"]
    for op in README_OPS[2:]:
        argv += ["--op", json.dumps(op.to_json())]
    code, payload = run_cli(capsys, *argv)
    assert code == 0
    before = replay(gaussian_wavepacket([0.0, 0.0, 1.0], 0.05, 1, npts=npts), README_OPS[:2])
    after = replay(before, README_OPS[2:])
    for amp, summary in ((before, payload["before"]), (after, payload["after"])):
        assert summary["norm_squared"] == norm_squared(amp, warn=False)
        assert summary["momentum"] == list(expectation_momentum(amp, warn=False))
    assert payload["npts"] == npts
    # 24 nodes read the norm about 1.05e-9 off, just over the ladder's target
    assert (payload["quadrature_error"] <= 1e-9) == (npts == 48)


def test_transform_malformed_descriptor(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["transform", str(path)]) == 2


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a descriptor must be a JSON object, not [1, 2]"),
    ('{"units": "eV", "kappa": [0, 0, 1], "sigma_k": 0.05, "helicity": 1, "ops": ["boost"]}',
     "an op must be a JSON object, not 'boost'"),
], ids=["descriptor-list", "op-string"])
def test_transform_refuses_a_descriptor_that_is_not_an_object(tmp_path, capsys, text, message):
    # both used to end in an AttributeError traceback and exit 1
    path = tmp_path / "packet.json"
    path.write_text(text)
    assert main(["transform", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed descriptor: {message}\n"


def test_transform_missing_units(tmp_path, capsys):
    path = tmp_path / "packet.json"
    path.write_text(json.dumps({"kappa": [0, 0, 1], "sigma_k": 0.05, "helicity": 1}))
    assert main(["transform", str(path)]) == 2


def test_fields_narrowband_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "fields.csv"
    kappa, ratio = 3.3, 0.08
    sigma_x = 0.5 / (ratio * kappa)
    extent = 4.0
    n_required = math.ceil(2 * extent * sigma_x / ((2 * math.pi / kappa) / 8)) + 1
    code, payload = run_cli(
        capsys, "fields", "--kappa-ev", str(kappa), "--sigma-ratio", str(ratio),
        "--n", str(n_required), "--extent", str(extent), "--mode", "narrowband",
        "--out", str(out), "--no-timestamp",
    )
    assert code == 0
    assert payload["energy_over_kappa"] == pytest.approx(1.0, abs=0.01)
    assert np.array(payload["momentum"])[2] == pytest.approx(kappa, rel=0.01)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,Ex,Ey,Ez,Bx,By,Bz"
    assert len(lines) == 1 + n_required**3
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 9


@pytest.mark.parametrize("ratio, loud", [(0.08, True), (0.005, False)])
def test_fields_narrowband_reports_and_warns_its_expected_error(tmp_path, capsys, ratio, loud):
    argv = ["fields", "--kappa-ev", "3.3", "--sigma-ratio", str(ratio), "--n", "27",
            "--extent", "0.1", "--out", str(tmp_path / "fields.csv"), "--no-timestamp"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, payload = run_cli(capsys, *argv)
    assert code == 0
    assert payload["narrowband_expected_error"] == 1.117 * ratio
    messages = [str(w.message) for w in caught if w.category is NarrowbandValidityWarning]
    assert len(messages) == loud
    assert all("--mode exact" in m for m in messages)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NarrowbandValidityWarning)
        code, payload = run_cli(capsys, *argv[:-1], "--mode", "exact", "--no-timestamp")
    assert code == 0
    assert "narrowband_expected_error" not in payload


@pytest.mark.parametrize("flags, count", [([], 2), (["-W", "ignore"], 0)], ids=["default", "ignored"])
def test_every_in_process_call_warns_under_the_callers_filters(tmp_path, flags, count):
    # Python shows a warning once per code location; each main call starts afresh
    script = (
        "import sys\n"
        "from photonamp.cli import main\n"
        "argv = ['fields', '--mode', 'narrowband', '--kappa-ev', '3.3', '--sigma-ratio', '0.08',\n"
        "        '--n', '27', '--extent', '0.1', '--out', sys.argv[1], '--no-timestamp']\n"
        "sys.exit(main(argv) or main(argv))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, *flags, "-c", script, str(tmp_path / "map.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("NarrowbandValidityWarning") == count


def test_fields_exact_mode_agrees_with_narrowband_summary(tmp_path, capsys):
    kappa, ratio = 3.3, 0.08
    sigma_x = 0.5 / (ratio * kappa)
    extent = 4.0
    n = math.ceil(2 * extent * sigma_x / ((2 * math.pi / kappa) / 8)) + 2
    summaries = {}
    for mode in ("narrowband", "exact"):
        out = tmp_path / f"{mode}.csv"
        code, payload = run_cli(
            capsys, "fields", "--kappa-ev", str(kappa), "--sigma-ratio", str(ratio),
            "--n", str(n), "--extent", str(extent), "--mode", mode,
            "--out", str(out), "--no-timestamp",
        )
        assert code == 0
        summaries[mode] = payload
    diff = abs(summaries["exact"]["energy"] - summaries["narrowband"]["energy"])
    assert diff / kappa <= 2 * ratio


def test_fields_grid_follows_the_packet_in_time(tmp_path, capsys):
    # the packet travels along +z, so a grid left at the origin loses it
    energies = {}
    for time in (0.0, 10.0):
        code, payload = run_cli(
            capsys, "fields", "--kappa-ev", "3.3", "--sigma-ratio", "0.08",
            "--mode", "exact", "--time", str(time), "--n", "66", "--extent", "4",
            "--out", str(tmp_path / f"t{time}.csv"), "--no-timestamp",
        )
        assert code == 0
        energies[time] = payload["energy_over_kappa"]
    assert energies[10.0] == pytest.approx(energies[0.0], abs=1e-2)


def test_fields_under_resolved_exits_one(tmp_path, capsys):
    out = tmp_path / "fields.csv"
    code = main(
        ["fields", "--kappa-ev", "3.3", "--sigma-ratio", "0.01", "--n", "16",
         "--extent", "4", "--out", str(out)]
    )
    assert code == 1
    assert "n >=" in capsys.readouterr().err


def reference_fields_csv(path, grid, ftg, scale):
    """The per-cell ``csv.writer`` loop the CLI's writer must match byte for byte."""
    gx, gy, gz = grid.axes()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "z", "Ex", "Ey", "Ez", "Bx", "By", "Bz"])
        for ix in range(grid.npts):
            for iy in range(grid.npts):
                for iz in range(grid.npts):
                    writer.writerow(
                        [
                            repr(float(gx[ix] * scale)),
                            repr(float(gy[iy] * scale)),
                            repr(float(gz[iz] * scale)),
                            *[repr(float(v)) for v in ftg.E[ix, iy, iz]],
                            *[repr(float(v)) for v in ftg.B[ix, iy, iz]],
                        ]
                    )


@pytest.mark.parametrize("units", ["natural", "ev-um"])
@pytest.mark.parametrize("mode", ["exact", "narrowband"])
def test_fields_csv_bytes_match_the_per_cell_writer(tmp_path, capsys, mode, units):
    kappa, ratio, extent, n = 3.3, 0.08, 1.5, 26
    out = tmp_path / "fields.csv"
    code, _ = run_cli(
        capsys, "fields", "--kappa-ev", str(kappa), "--sigma-ratio", str(ratio),
        "--n", str(n), "--extent", str(extent), "--mode", mode, "--units", units,
        "--out", str(out), "--no-timestamp",
    )
    assert code == 0

    spec = NarrowbandSpec(kappa, ratio * kappa)
    grid = SpatialGrid.centered(extent * spec.sigma_x, n)
    if mode == "narrowband":
        ftg = narrowband_grid(spec, grid, 0.0)
    else:
        psi = gaussian_wavepacket([0.0, 0.0, kappa], spec.sigma_k, 1)
        ftg = field_expectation_grid(psi, grid, 0.0)
    scale = HBARC_EV_UM if units == "ev-um" else 1.0
    reference = tmp_path / "reference.csv"
    reference_fields_csv(reference, grid, ftg, scale)
    assert out.read_bytes() == reference.read_bytes()

    table = np.loadtxt(out, delimiter=",", skiprows=1)
    coords = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
    assert np.array_equal(table[:, :3], coords * scale)
    assert np.array_equal(table[:, 3:6], ftg.E.reshape(-1, 3))
    assert np.array_equal(table[:, 6:], ftg.B.reshape(-1, 3))


def test_fields_csv_writer_matches_the_per_cell_writer_on_special_values(tmp_path):
    rng = np.random.default_rng(15)
    grid = SpatialGrid.centered(1.3, 7, center=(0.0, 0.2, -0.1))
    E, B = (rng.standard_normal(grid.shape + (3,)) * 10.0 ** rng.integers(-30, 30, grid.shape + (3,))
            for _ in range(2))
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e-320, 1e16, 1e-5]
    E.reshape(-1)[: len(specials)] = specials
    B.reshape(-1)[-len(specials):] = specials
    ftg = FieldTensorGrid(grid, 0.0, E, B)
    for scale in (1.0, HBARC_EV_UM):
        out, reference = tmp_path / "fields.csv", tmp_path / "reference.csv"
        _write_fields_csv(out, grid, ftg, scale)
        reference_fields_csv(reference, grid, ftg, scale)
        assert out.read_bytes() == reference.read_bytes()


def test_fields_csv_writer_holds_no_text_of_the_whole_grid(tmp_path):
    # the benchmark's grid: 66^3 nodes, about 55 MB of CSV
    spec = NarrowbandSpec(3.3, 0.08 * 3.3)
    grid = SpatialGrid.centered(4 * spec.sigma_x, 66)
    ftg = field_expectation_grid(gaussian_wavepacket([0.0, 0.0, 3.3], spec.sigma_k, 1), grid, 0.0)
    tracemalloc.start()
    try:
        _write_fields_csv(tmp_path / "fields.csv", grid, ftg, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "fields.csv").stat().st_size > 50e6
    assert peak < 4e6


def test_fields_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "fields.csv"
    code = main(
        ["fields", "--kappa-ev", "3.3", "--sigma-ratio", "0.08", "--n", "26",
         "--extent", "1.5", "--out", str(out)]
    )
    assert code == 2
    assert "cannot write CSV" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--n", "1"], ["--n", "0"], ["--n", "-3"],
                                 ["--extent", "0"], ["--extent", "-1"],
                                 ["--kappa-ev", "0"], ["--sigma-ratio", "0"]])
def test_fields_bad_grid_size_is_a_usage_error(tmp_path, capsys, bad):
    argv = ["fields", "--kappa-ev", "3.3", "--sigma-ratio", "0.08", "--n", "26",
            "--out", str(tmp_path / "fields.csv"), *bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    assert excinfo.value.code == 2
    assert not (tmp_path / "fields.csv").exists()


def test_verify_suite_report(capsys):
    code, payload = run_cli(
        capsys, "verify", "--suite", "little-group", "--trials", "200",
        "--seed", "7", "--no-timestamp",
    )
    assert code == 0
    assert payload["passed"] is True
    names = {p["name"] for p in payload["properties"]}
    assert "group_addition_law" in names
    assert all(p["max_residual"] <= p["tol"] for p in payload["properties"])


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "wigner", "--trials", "50", "--seed", "3", "--no-timestamp"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_verify_unknown_suite_usage_error(capsys):
    # verify's tolerances are fixed: there is no option that overrides them
    for bad in (["--suite", "bogus"], ["--tol", "1e300"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", *bad])
        assert excinfo.value.code == 2
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus")


WIGNER_BOOST = ["wigner", "--kind", "boost", "--beta", "0,0,0.6", "--theta", "1", "--phi", "0"]
WIGNER_ROTATION = ["wigner", "--kind", "rotation", "--angle", "0.5", "--omega-ev", "2",
                   "--theta", "1", "--phi", "0"]
FIELDS = ["fields", "--kappa-ev", "3.3", "--sigma-ratio", "0.08", "--n", "4", "--out", "CSV"]


@pytest.mark.parametrize("argv, bad", [
    (WIGNER_BOOST, ["--omega-ev", "0"]),
    (WIGNER_BOOST, ["--omega-ev", "-2"]),
    (["localize", "--sigma-ratio", "0.01"], ["--kappa-ev", "0"]),
    (["localize", "--kappa-ev", "3.3"], ["--sigma-ratio", "-0.01"]),
    (["transform", "PACKET"], ["--npts", "1"]),
    (["localize", "--kappa-ev", "3.3"], ["--sigma-ratio", "0.2"]),
    (WIGNER_BOOST, ["--beta", "0,0,1.5"]),
    (WIGNER_ROTATION, ["--axis", "0,0,0"]),
    (WIGNER_ROTATION, ["--axis", "1,2"]),
    (["localize", "--sigma-ratio", "0.01"], ["--kappa-ev", "inf"]),
    (FIELDS, ["--time", "nan"]),
    (FIELDS, ["--extent", "inf"]),
    (WIGNER_ROTATION + ["--axis", "0,0,1"], ["--theta", "nan"]),
    (WIGNER_ROTATION + ["--axis", "0,0,1"], ["--phi", "inf"]),
    (WIGNER_ROTATION + ["--axis", "0,0,1"], ["--angle", "inf"]),
    (WIGNER_BOOST, ["--omega-ev", "inf"]),
    (["verify", "--suite", "little-group", "--trials", "1"], ["--seed", "-1"]),
    (["transform", "PACKET"], ["--op", '{"type":"rotate","axis":[0,0,1],"angle":Infinity}']),
    (["transform", "PACKET"], ["--op", '{"type":"translate","a":[NaN,0,0,0]}']),
    (["transform", "PACKET"], ["--op", '{"type":"boost","beta":[0,0,-Infinity]}']),
    (["transform", "PACKET"], ["--op", '{"type":"rotate","axis":[0,1,0],"angle":"0.5"}']),
    (["transform", "PACKET"], ["--op", '{"type":"translate","a":[true,0,0,0]}']),
    (["transform", "PACKET"], ["--op", '{"type":"rotate","axis":[0,0,0],"angle":1}']),
    (["transform", "PACKET"], ["--op", '{"type":"boost","beta":[0,0,1.5]}']),
    (WIGNER_ROTATION, ["--axis", "inf,0,0"]),
    (WIGNER_BOOST, ["--beta", "nan,0,0"]),
    (["transform", "PACKET"], ["--op", '{"type":"translate","a":[1,0,0]}']),
    (["transform", "PACKET"], ["--op", '{"type":"translate","a":[1,0,0,0,0]}']),
    (["transform", "PACKET"], ["--op", '{"type":"translate"}']),
    (["transform", "PACKET"], ["--op", '{"type":"boost","beta":[0,0.5]}']),
    (["transform", "PACKET"], ["--op", '{"type":"boost","beta":[0,0,0.5,0]}']),
    (["transform", "PACKET"], ["--op", '{"type":"rotate","axis":[[0,1,0]],"angle":1}']),
    (["transform", "PACKET"], ["--op", '{"type":["rotate"],"axis":[0,1,0],"angle":1}']),
    (WIGNER_ROTATION, ["--axis", "abc,0,0"]),
    (WIGNER_BOOST, ["--beta", "0,x,0.5"]),
], ids=["wigner-omega-0", "wigner-omega-negative", "localize-kappa-0",
        "localize-sigma-negative", "transform-npts-1", "localize-sigma-above-0.1",
        "wigner-superluminal-beta", "wigner-zero-axis", "wigner-axis-of-two", "localize-kappa-inf",
        "fields-time-nan", "fields-extent-inf", "wigner-theta-nan", "wigner-phi-inf",
        "wigner-angle-inf", "wigner-omega-inf", "verify-seed-negative",
        "transform-op-angle-inf", "transform-op-translate-nan", "transform-op-beta-inf",
        "transform-op-angle-string", "transform-op-translate-bool", "transform-op-zero-axis",
        "transform-op-superluminal-beta", "wigner-axis-inf", "wigner-beta-nan",
        "transform-op-translate-of-3", "transform-op-translate-of-5", "transform-op-translate-missing",
        "transform-op-beta-of-2", "transform-op-beta-of-4", "transform-op-axis-nested",
        "transform-op-type-list", "wigner-axis-not-numbers", "wigner-beta-not-numbers"])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv, bad):
    argv = [str(descriptor_file(tmp_path)) if a == "PACKET" else a for a in argv]
    argv = [str(tmp_path / "fields.csv") if a == "CSV" else a for a in argv]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, *bad])
    assert excinfo.value.code == 2
    assert f"argument {bad[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"kappa": [0.0, float("nan"), 1.0]},
    {"sigma_k": float("inf")},
    {"ops": [{"type": "rotate", "axis": [0, 1, 0], "angle": float("nan")}]},
], ids=["kappa-nan", "sigma-inf", "op-angle-nan"])
def test_transform_refuses_a_descriptor_that_is_not_finite(tmp_path, capsys, overrides):
    # json writes these as NaN and Infinity, which json.loads reads back
    assert main(["transform", str(descriptor_file(tmp_path, **overrides))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed descriptor" in captured.err


@pytest.mark.parametrize("overrides, field", [
    ({"helicity": 1.5}, "helicity"),
    ({"helicity": True}, "helicity"),
    ({"helicity": "1"}, "helicity"),
    ({"sigma_k": "0.05"}, "sigma_k"),
    ({"kappa": ["0", False, 1]}, "kappa"),
    ({"ops": [{"type": "rotate", "axis": [0, 1, 0], "angle": "0.5"}]}, "rotation angle"),
    ({"ops": [{"type": "translate", "a": [True, 0, 0, 0]}]}, "translation"),
    ({"ops": [{"type": "translate", "a": [1, 0, 0]}]}, "translation"),
    ({"ops": [{"type": "translate", "a": [1, 0, 0, 0, 0]}]}, "translation"),
    ({"ops": [{"type": "translate"}]}, "translation"),
    ({"ops": [{"type": "boost", "beta": [0, 0.5]}]}, "boost velocity"),
    ({"ops": [{"type": "boost", "beta": [0, 0, 0.5, 0]}]}, "boost velocity"),
    ({"ops": [{"type": "rotate", "axis": [[0, 1, 0]], "angle": 1}]}, "rotation axis"),
    ({"ops": 5}, "ops"),
    ({"ops": {"type": "boost", "beta": [0, 0, 0.5]}}, "ops"),
    ({"kappa": 5}, "kappa"),
    ({"kappa": [0, 1]}, "kappa"),
    ({"kappa": MISSING}, "kappa"),
    ({"ops": [{"type": ["rotate"], "axis": [0, 1, 0], "angle": 1}]}, "transformation type"),
    ({"sigma_k": 10**400}, "sigma_k"),
], ids=["helicity-1.5", "helicity-true", "helicity-string", "sigma-string",
        "kappa-string-and-bool", "op-angle-string", "op-translate-bool", "op-translate-of-3",
        "op-translate-of-5", "op-translate-missing", "op-beta-of-2", "op-beta-of-4",
        "op-axis-nested", "ops-number", "ops-object", "kappa-number", "kappa-of-2",
        "kappa-missing", "op-type-list", "sigma-int-beyond-float"])
def test_transform_refuses_a_descriptor_value_that_is_not_a_number(tmp_path, capsys, overrides, field):
    # each of these used to be read as a number and exit 0, or exit 1 or 2 with
    # the text of a numpy or Python internal error
    assert main(["transform", str(descriptor_file(tmp_path, **overrides))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed descriptor" in captured.err
    assert field in captured.err


@pytest.mark.parametrize("argv", [WIGNER_ROTATION + ["--axis", "abc,0,0"],
                                  WIGNER_BOOST[:3] + ["--beta", "0,x,0.5"] + WIGNER_BOOST[5:]],
                         ids=["axis", "beta"])
def test_a_vector_that_is_not_numbers_names_a_3_vector(capsys, argv):
    # argparse named the parser's inner function: "invalid accepted value"
    with pytest.raises(SystemExit):
        main(argv + ["--omega-ev", "2"] * (argv[2] == "boost"))
    assert "invalid 3-vector value: " in capsys.readouterr().err


def test_fields_exact_reports_its_field_rule_and_warns_past_its_limit(tmp_path, capsys):
    # the fields-csv settings: 19.5 rad per axis at t = 0; at t = 200 the spread's
    # chirp adds 2.008 * 200 / 2 rad, where the 48-node map is 0.94 off
    argv = ["fields", "--mode", "exact", "--kappa-ev", "3.3", "--sigma-ratio", "0.08", "--n", "66",
            "--extent", "4", "--out", str(tmp_path / "map.csv"), "--no-timestamp"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureDomainWarning)
        code, payload = run_cli(capsys, *argv)
    assert code == 0
    assert (payload["field_npts"], payload["phase_range"]) == (48, 19.5)
    with pytest.warns(QuadratureDomainWarning, match=r"field phase range 220 rad is past the "
                                                     r"48-node limit 43\.2; about 147 nodes"):
        code, payload = run_cli(capsys, *argv, "--time", "200")
    assert code == 0 and payload["field_npts"] == 48
    assert payload["phase_range"] == pytest.approx(19.5 + 200 * (1.5 * 6.5 * 0.264) ** 2 / 6.6)


def test_a_result_that_overflows_is_a_numerical_failure(capsys):
    # 0.5 / (0.01 * 1e-320) overflows: strict JSON has no Infinity to print
    assert main(["localize", "--kappa-ev", "1e-320", "--sigma-ratio", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a finite number" in captured.err


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_refuses_fewer_than_one_trial(capsys, trials):
    # zero trials would check nothing and still report every property passed
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "little-group", "--trials", str(trials)])
    assert excinfo.value.code == 2
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify.run_suite("little-group", trials=trials)


def test_verify_all_suites_pass_end_to_end(capsys):
    # low trial count: wiring check across every suite, not a precision run
    code, payload = run_cli(
        capsys, "verify", "--suite", "all", "--trials", "1", "--seed", "11", "--no-timestamp"
    )
    assert code == 0
    assert payload["passed"] is True
    prefixes = {p["name"].split("/")[0] for p in payload["properties"]}
    assert prefixes == {"little-group", "wigner", "amplitudes", "polarization", "fields"}


def test_verify_reports_wall_time_per_suite(capsys):
    argv = ["verify", "--suite", "all", "--trials", "1", "--seed", "11"]
    code, payload = run_cli(capsys, *argv)
    assert code == 0
    assert set(payload["suite_wall_time_s"]) == set(verify.SUITE_NAMES)
    assert all(t >= 0.0 for t in payload["suite_wall_time_s"].values())
    assert sum(payload["suite_wall_time_s"].values()) <= payload["wall_time_s"]
    # reproducible output carries no timing at all
    code, payload = run_cli(capsys, *argv, "--no-timestamp")
    assert set(payload) == {"schema", "suite", "trials", "seed", "passed", "properties"}


def test_verify_blocks_cover_every_trial(monkeypatch):
    # 20 trials in blocks of 7: every trial is checked once, in 7 + 7 + 6
    rows = []
    closed = verify.wigner_phase_rotation_closed

    def counted(r, k):
        rows.append(len(k))
        return closed(r, k)

    monkeypatch.setattr(verify, "TRIAL_BLOCK", 7)
    monkeypatch.setattr(verify, "wigner_phase_rotation_closed", counted)
    report = verify.run_suite("wigner", trials=20, seed=3)
    assert report.passed
    assert rows == [7, 7, 6]


def test_verify_suite_trials_depend_only_on_the_seed():
    # each suite draws from its own stream, so it sees the same trials alone and in "all"
    alone = verify.run_suite("amplitudes", trials=500, seed=7)
    together = verify.run_suite("all", trials=500, seed=7)
    inside = {
        p.name.split("/", 1)[1]: p.max_residual
        for p in together.properties
        if p.name.startswith("amplitudes/")
    }
    assert inside == {p.name: p.max_residual for p in alone.properties}


def test_main_reuses_one_parser_and_prints_what_a_fresh_process_prints(
    tmp_path, capsys, monkeypatch
):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    packet = str(descriptor_file(tmp_path, ops=[README_OPS[0].to_json()]))
    csv_path = tmp_path / "fields.csv"
    extra = [arg for op in README_OPS[1:4] for arg in ("--op", json.dumps(op.to_json()))]
    sequence = [
        ["transform", packet, *extra, "--no-timestamp"],
        ["transform", packet, "--no-timestamp"],
        ["transform", packet, "--npts", "1"],
        ["wigner", "--kind", "boost", "--beta", "0.3,-0.2,0.6", "--omega-ev", "2.0",
         "--theta", "1.0", "--phi", "0.3", "--no-timestamp"],
        ["localize", "--kappa-ev", "3.3", "--sigma-ratio", "0.01", "--no-timestamp"],
        ["verify", "--suite", "little-group", "--trials", "20", "--no-timestamp"],
        ["fields", "--mode", "exact", "--kappa-ev", "3.3", "--sigma-ratio", "0.005", "--n", "27",
         "--extent", "0.1", "--out", str(csv_path), "--no-timestamp"],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        csv_bytes = csv_path.read_bytes() if argv[0] == "fields" else None
        in_process.append((code, captured.out.encode(), captured.err, csv_bytes))
    assert len(built) == 1
    # the second transform's descriptor holds only its own ops, not the first call's
    first, second = (json.loads(out) for _, out, _, _ in in_process[:2])
    assert len(first["descriptor"]["ops"]) == 4
    assert second["descriptor"]["ops"] == [README_OPS[0].to_json()]
    assert in_process[2][0] == 2 and "argument --npts" in in_process[2][2]

    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for argv, (code, out, err, csv_bytes) in zip(sequence, in_process):
        done = subprocess.run([sys.executable, "-m", "photonamp.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert done.returncode == code, argv
        assert done.stdout == out, argv
        if code == 2:
            assert done.stderr.decode() == err
        if csv_bytes is not None:
            assert csv_path.read_bytes() == csv_bytes


def test_the_parser_is_not_built_at_import():
    script = "import photonamp.cli as cli; print(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
