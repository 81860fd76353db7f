import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fbrate import ChannelParams, ErRequest, er_auto, quadrature_sweep
from fbrate._extended import mixture_series
from fbrate.crosscheck import GRID_A, GRID_SNR_DB, db_to_linear
from fbrate.specfun import nested_trapezoid

from conftest import fig1_params, u_family


#: Bits of the nested double-exponential rule, as ``float.hex``: the
#: quadrature's (values, errors, levels) on two sweeps, the U families
#: that reach the seeds, and the gamma-mixture series on two grid shapes.
#: Regenerate with ``PYTHONPATH=src python tests/test_nested_rule.py
#: [entry ...]`` only when a change is meant to move them: the named
#: entries, or every entry if none is named.
RULE_BITS = Path(__file__).with_name("nested_rule_bits.json")
ENTRIES = ("fig1_a2", "grid_block", "u_family", "series_block")

#: (A, z, n) of U families that take terms from the seeds.
SEEDED_FAMILIES = ((5.0, 0.004, 40), (60.0, 1e-4, 61), (2.0 + 1e-9, 0.99, 1))

#: Validate-grid shapes whose closed form hands points to the series: at
#: A = 5 the first reads its U terms from the seeds at 30 dB and from the
#: forward run at 20 dB, the second from the forward run at both.
SERIES_SHAPES = (ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1),
                 ChannelParams(mu=6.0, m=2.0, kappa=2.0, eta=0.1, rho2=1.0))


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _sweep_bits(shape, gamma_bars, a_exponent) -> dict:
    values, errors, levels = quadrature_sweep(shape, gamma_bars, a_exponent, 1e-8)
    return {"values": _hex(values), "errors": _hex(errors), "levels": levels.tolist()}


def rule_bits() -> dict:
    """Today's bits of every golden in ``RULE_BITS``."""
    # the fig-1 41-point row, with the SNRs `fbrate er --snr-db -10:30:1` forms
    fig1 = [db_to_linear(-10.0 + 1.0 * k) for k in range(41)]
    shape = ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1)
    block = [(db_to_linear(db), a) for db in GRID_SNR_DB for a in GRID_A]
    families = {}
    for a, z, n in SEEDED_FAMILIES:
        family = u_family(a, z, n)
        families[f"{a!r},{z!r},{n}"] = {"values": _hex(family.values),
                                        "bounds": _hex(family.bounds),
                                        "branches": list(family.branches)}
    return {"command": "PYTHONPATH=src python tests/test_nested_rule.py [entry ...]",
            "fig1_a2": _sweep_bits(fig1_params(), fig1, 2.0),
            "grid_block": _sweep_bits(shape, *zip(*block)),
            "u_family": families,
            "series_block": _series_bits(block)}


def _series_bits(block) -> dict:
    """(value, bound) and length of the series on each point the closed form hands it."""
    bits = {}
    for shape in SERIES_SHAPES:
        for gamma_bar, a in block:
            params = replace(shape, gamma_bar=gamma_bar)
            result = er_auto(ErRequest(params=params, a_exponent=a, method="closed_form"))
            if result.series is not None:
                value, bound, n_terms = mixture_series(params, a)
                bits[f"{shape.shape!r},{gamma_bar!r},{a!r}"] = [*_hex((value, bound)), n_terms]
    return bits


def _gaussians(widths):
    """Rows w e^-(w u)^2, each integrating to sqrt(pi) over the line."""
    def integrand(rows, u):
        w = np.asarray(widths)[rows, None]
        return w * np.exp(-(w * u) ** 2)
    return integrand


def _settle(total, prev):
    diff = np.abs(total - prev) / total
    return diff, diff <= 1e-14


class TestNestedTrapezoid:
    def test_rows_get_the_sums_they_get_alone(self):
        lo, hi = [-7.0, -4.0, -5.0], [7.0, 4.0, 6.0]
        widths = [1.0, 4.0, 2.0]
        together = nested_trapezoid(_gaussians(widths), lo, hi, 10, _settle)
        for r in range(3):
            alone = nested_trapezoid(_gaussians(widths[r:r + 1]), lo[r:r + 1], hi[r:r + 1],
                                     10, _settle)
            assert [x[r] for x in together] == [x[0] for x in alone]
        sums, errors, levels = together
        assert sums == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0.0)
        assert np.all(errors <= 1e-14)
        assert levels[1] > levels[0]  # the narrow row needs a finer step

    def test_unsettled_rows_stop_at_the_last_level(self):
        sums, errors, levels = nested_trapezoid(
            _gaussians([1.0, 2.0]), [-7.0, -7.0], [7.0, 7.0], 3,
            lambda total, prev: (np.abs(total - prev), np.zeros(total.size, dtype=bool)))
        assert levels.tolist() == [3, 3]
        assert sums == pytest.approx(math.sqrt(math.pi), rel=1e-15, abs=0.0)
        assert np.all(errors < 1e-15)

    def test_a_non_finite_sum_stops_the_rule(self):
        def integrand(rows, u):
            f = np.exp(-u ** 2) * np.ones((rows.size, 1))
            f[rows == 1] = np.nan
            return f
        sums, errors, levels = nested_trapezoid(integrand, [-7.0, -7.0], [7.0, 7.0], 10,
                                                _settle)
        assert levels.tolist() == [1, 1]
        assert errors.tolist() == [math.inf, math.inf]
        assert math.isnan(sums[1])


@pytest.fixture(scope="module")
def bits():
    return rule_bits(), json.loads(RULE_BITS.read_text())


@pytest.mark.parametrize("key", ENTRIES)
def test_rule_bits_are_frozen(bits, key):
    current, stored = bits
    assert current[key] == stored[key]


if __name__ == "__main__":
    names = sys.argv[1:]
    if not set(names) <= set(ENTRIES):
        sys.exit(f"unknown entries {sorted(set(names) - set(ENTRIES))}; choose from {ENTRIES}")
    current = rule_bits()
    stored = json.loads(RULE_BITS.read_text()) if names else {}
    stored.update({key: current[key] for key in ("command", *(names or ENTRIES))})
    RULE_BITS.write_text(json.dumps(stored, indent=1) + "\n")
