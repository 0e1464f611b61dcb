import numpy as np
import pytest

from photonamp._floattext import WIDTH, repr_cells


def joined(values, line_end=False):
    """The cells of ``repr_cells`` joined, as one CSV writer would see them."""
    text, length = repr_cells(values, line_end=line_end)
    return text[np.arange(WIDTH) < length[..., None]].tobytes()


def expected(values):
    return "".join(repr(v) + "," for v in np.asarray(values, dtype=np.float64).ravel().tolist()).encode()


def with_both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((values, -values))


def test_random_bit_patterns_over_all_finite_doubles():
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, size=200_000, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    assert (np.abs(values) < np.finfo(float).tiny).sum() > 0  # subnormals included
    assert joined(values) == expected(values)


def test_subnormals():
    rng = np.random.default_rng(7)
    bits = rng.integers(1, 2**52, size=20_000, dtype=np.uint64)
    values = with_both_signs(bits.view(np.float64))
    assert joined(values) == expected(values)


def test_special_and_extreme_values():
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
              np.finfo(float).tiny, -np.finfo(float).tiny, np.finfo(float).max,
              -np.finfo(float).max]
    assert joined(values) == b"0.0,-0.0,nan,nan,inf,-inf,5e-324,-5e-324," + expected(values[8:])


def test_powers_of_two_and_ten():
    values = with_both_signs([2.0**k for k in range(-1074, 1024, 7)]
                             + [float(f"1e{k}") for k in range(-323, 309)])
    assert joined(values) == expected(values)


@pytest.mark.parametrize("center", [1e-4, 1e-5, 1e15, 1e16])
def test_neighbours_of_the_notation_switch_points(center):
    down = up = center
    values = [center]
    for _ in range(64):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        values += [down, up]
    values = with_both_signs(values)
    assert joined(values) == expected(values)


@pytest.mark.parametrize("ndigits", range(1, 18))
def test_values_with_each_count_of_significant_digits(ndigits):
    rng = np.random.default_rng(ndigits)
    mantissas = rng.integers(10 ** (ndigits - 1), 10**ndigits, size=400)
    exponents = rng.integers(-330, 310, size=mantissas.size)
    values = with_both_signs([float(f"{m}e{e}") for m, e in zip(mantissas, exponents)])
    assert joined(values) == expected(values)


def test_line_end_closes_the_last_cell_of_each_row():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((5, 3, 6)) * 10.0 ** rng.integers(-8, 8, size=(5, 3, 6))
    lines = b"".join(",".join(map(repr, row)).encode() + b"\r\n" for row in rows.reshape(-1, 6).tolist())
    assert joined(rows, line_end=True) == lines
    text, length = repr_cells(rows, line_end=True)
    assert text.shape == rows.shape + (WIDTH,) and text.dtype == np.uint8
    assert length.shape == rows.shape


def test_other_float_dtypes_print_as_their_float64_value():
    values = np.array([0.1, 1 / 3, 1e-7, 3e38], dtype=np.float32)
    assert joined(values) == expected(values.astype(np.float64))
