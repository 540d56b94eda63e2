"""The CSV writer's %.17g text against format(x, ".17g") on adversarial doubles.

The writer takes exact digits from a double-double product wherever it can
decide them, and format() everywhere else.  These cells aim at the places
where that can go wrong: random bit patterns, powers of ten and their
neighbours (a carry to 10^17, a log10 one off), short dyadic values m * 2^e
whose 18th significant digit is an exact tie, subnormals, signed zeros,
infinities and nan, and the edges of fixed notation and of the exact digits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from collide1d.cli import CSV_HEADER, ResultTable

COLUMNS = ("t", "p_e", "re_coh", "im_coh", "entropy_bits", "norm", "photon_flux",
           "io_residual")


def neighbours(center: float, count: int) -> list:
    """center and its `count` nearest doubles on either side."""
    cells, below, above = [center], center, center
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        cells += [below, above]
    return cells


def is_tie(x: float) -> bool:
    """Whether |x| lies exactly halfway between two 17-digit decimals."""
    exact = abs(Fraction(x))
    k = math.floor(math.log10(abs(x)))
    k += (exact >= 10 ** (k + 1)) - (exact < Fraction(10) ** k)
    return (exact * Fraction(10) ** (16 - k)).denominator == 2


def adversarial_cells() -> dict:
    """Named sets of cells, each with its negatives."""
    rng = np.random.default_rng(17)
    # odd m * 2^-q = m * 5^q / 10^q, whose last digit is a 5: where m * 5^q
    # first reaches 1e17 (18 digits) the 17-digit text is a tie; half the
    # cells stop one power of 5 short
    odd = (rng.integers(1, 2**20, 12000) | 1).astype(float)
    q = np.ceil((17 - np.log10(odd)) / np.log10(5)) - rng.integers(0, 2, 12000)
    sets = {
        "bit patterns": rng.integers(0, 2**64, 60000, dtype=np.uint64).view(np.float64),
        # every binary exponent of the exact-digit range, with a random mantissa
        "spread": rng.uniform(1, 2, 60000) * 2.0 ** rng.integers(-840, 840, 60000),
        "powers of ten": [cell for k in range(-300, 301)
                          for cell in neighbours(float(f"1e{k}"), 1)],
        "dyadic": np.ldexp(odd, -q.astype(int)),
        "subnormal": rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64),
        "edges": [cell for center in (2.0**53, 1e16, 1e17, 1e-4, 1e-5, 1e-250, 1e250, 5e-324,
                                      2.2250738585072014e-308, 1.7976931348623157e308)
                  for cell in neighbours(center, 200)],
        "special": [0.0, math.inf, math.nan],
    }
    return {name: np.concatenate([cells, np.negative(cells)]) for name, cells in sets.items()}


def assert_written_as_format(cells, path):
    """Write cells as an 8-column table, between a zero row at either end, the flux
    one row short at the end and the io residual at the start; every field must
    read format(x, ".17g"), but those two edge cells must be empty."""
    width = len(COLUMNS)
    cells = np.concatenate([np.zeros(width), cells, np.zeros(-len(cells) % width + width)])
    rows = cells.reshape(-1, width)
    columns = {name: rows[:, j] for j, name in enumerate(COLUMNS)}
    columns["photon_flux"], columns["io_residual"] = rows[:-1, -2], rows[1:, -1]
    ResultTable(**columns).write_csv(str(path))
    written = path.read_text().splitlines()
    assert written[0] == CSV_HEADER and len(written) == len(rows) + 1
    expected = [format(value, ".17g") for value in cells.tolist()]
    expected[width - 1] = expected[-2] = ""
    wrong = [(value, text) for value, text, want in zip(cells.tolist(),
                                                        ",".join(written[1:]).split(","),
                                                        expected)
             if text != want]
    assert not wrong, \
        f"{len(wrong)} cells differ from format(x, '.17g'), first (value, text): {wrong[:5]}"


def test_cells_match_format(tmp_path):
    sets = adversarial_cells()
    assert sum(map(is_tie, sets["dyadic"].tolist())) >= 10000  # exact ties are in the set
    cells = np.concatenate(list(sets.values()))
    assert len(cells) >= 10**5
    assert_written_as_format(cells, tmp_path / "adversarial.csv")


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_text_does_not_depend_on_the_last_bits_of_log10(direction, tmp_path, monkeypatch):
    # a log10 a few ulps off moves some decimal exponents by one: those cells
    # must still be written right, by the digits or by format()
    log10 = np.log10

    def off(x):
        return np.nextafter(np.nextafter(log10(x), direction), direction)
    monkeypatch.setattr(np, "log10", off)
    sets = adversarial_cells()
    cells = np.concatenate([sets["powers of ten"], sets["edges"], sets["spread"][:20000]])
    assert_written_as_format(cells, tmp_path / "log10.csv")
