"""The numpy mode scan of a SingularTerm against the Python loops it replaced.

`SingularTerm` builds its mode map `coefficients` with numpy masks at
construction, keeping each coefficient above `RESOLUTION` * norm, and
`active_modes` reads the map.  The reference loops below are per-coefficient
scans with the same bar; the scan must give the same modes, the same
coefficients and the same dict order, because every downstream sum (moments,
right-hand sides, dual solves, table patches) runs in that order.  Against
the loops at the cutoffs the routes used before the map (1e-14 for moments
and dual solves, 1e-12 for table lookups) the map keeps their order and
values and differs only by coefficients between the two bars.
"""
from __future__ import annotations

import numpy as np
import pytest

from ctquad import cli
from ctquad.quad_core import RESOLUTION, SingularTerm

from helpers import torus_plane_expansion


def coefficient_norm(term: SingularTerm) -> float:
    return max(float(np.max(np.abs(term.a))), float(np.max(np.abs(term.b))), 1e-300)


def active_modes_loop(term: SingularTerm) -> list[int]:
    norm = coefficient_norm(term)
    out = [0]
    for j in range(1, len(term.a)):
        if max(abs(term.a[j]), abs(term.b[j])) > RESOLUTION * norm:
            out.append(j)
    return out


def term_coefficients_loop(term: SingularTerm, cutoff: float = RESOLUTION
                           ) -> dict[tuple[str, int], float]:
    norm = coefficient_norm(term)
    out: dict[tuple[str, int], float] = {("c", 0): float(term.a[0])}
    for m in range(1, len(term.a)):
        if abs(term.a[m]) > cutoff * norm:
            out[("c", m)] = float(term.a[m])
        if abs(term.b[m]) > cutoff * norm:
            out[("s", m)] = float(term.b[m])
    return out


TERMS = {
    "phi0": lambda: SingularTerm.from_callable(0, cli.angular_phi0),
    "phi1": lambda: SingularTerm.from_callable(1, cli.angular_phi1),
    "phi2": lambda: SingularTerm.from_callable(2, cli.angular_phi2),
    "phi3": lambda: SingularTerm.from_callable(0, cli.angular_phi3),
    "poisson": lambda: SingularTerm.from_callable(
        1, lambda psi: 1.0 / (1.3 + np.cos(psi))),
    "exact_zeros": lambda: SingularTerm.from_coefficients(
        0, 0.0, a=[0.0, 0.5, 0.0, 0.0, -1.25], b=[0.25, 0.0, 0.0, 0.0, 0.0, 2.0]),
    "torus_sl": lambda: torus_plane_expansion().s0_term("SL"),
}


@pytest.fixture(scope="module", params=sorted(TERMS))
def term(request):
    return TERMS[request.param]()


def test_active_modes_match_loop(term):
    assert term.active_modes() == active_modes_loop(term)


@pytest.mark.parametrize("cutoff", [1e-14, 1e-12])
def test_term_coefficients_match_loop_in_order(term, cutoff):
    got = list(term.coefficients.items())
    assert got == list(term_coefficients_loop(term).items())
    assert all(type(m) is int for (_, m), _ in got)
    # the loop at a former route cutoff: the list at the higher of the two
    # bars is the other one with the coefficients at or under that bar taken
    # out, order and values kept
    old = list(term_coefficients_loop(term, cutoff).items())
    bar = max(cutoff, RESOLUTION) * coefficient_norm(term)
    longer, shorter = (old, got) if cutoff < RESOLUTION else (got, old)
    assert [(key, c) for key, c in longer
            if key == ("c", 0) or abs(c) > bar] == shorter


def test_poisson_kernel_term_has_41_active_modes():
    assert len(TERMS["poisson"]().active_modes()) == 41


def test_rounding_noise_is_not_a_mode():
    # the FFT of 512 samples of cos 100 psi leaves rounding in every other
    # coefficient; none of it reaches RESOLUTION * norm, so phi's series
    # stops at mode 100
    psi = 2.0 * np.pi * np.arange(512) / 512
    term = SingularTerm(0, np.cos(100 * psi))
    assert term.active_modes() == [0, 100]
    assert list(term.coefficients) == [("c", 0), ("c", 100)]


def test_exact_zero_coefficients_are_not_active():
    assert TERMS["exact_zeros"]().active_modes() == [0, 1, 2, 5, 6]


def test_coefficient_arrays_are_read_only(term):
    with pytest.raises(ValueError):
        term.a[1] = 1.0
    with pytest.raises(ValueError):
        term.b[1] = 1.0
    with pytest.raises(TypeError):
        term.coefficients[("c", 1)] = 1.0

