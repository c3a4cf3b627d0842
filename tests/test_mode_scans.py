"""The numpy mode scans of a SingularTerm against the Python loops they replaced.

`SingularTerm.active_modes` and `weights._term_coefficients` pick the Fourier
modes that matter with numpy masks.  The reference loops below are the
per-coefficient scans they replaced; the scans must give the same modes, the
same coefficients and the same dict order, because every downstream sum
(moments, right-hand sides, table patches) runs in that order.
"""
from __future__ import annotations

import numpy as np
import pytest

from ctquad import cli
from ctquad.quad_core import SingularTerm
from ctquad.weights import _term_coefficients

from helpers import torus_plane_expansion


def active_modes_loop(term: SingularTerm, cutoff: float = 1e-15) -> list[int]:
    norm = max(float(np.max(np.abs(term.a))), float(np.max(np.abs(term.b))), 1e-300)
    out = [0]
    for j in range(1, len(term.a)):
        if abs(term.a[j]) + abs(term.b[j]) > cutoff * norm:
            out.append(j)
    return out


def term_coefficients_loop(term: SingularTerm, cutoff: float
                           ) -> dict[tuple[str, int], float]:
    norm = max(float(np.max(np.abs(term.a))), float(np.max(np.abs(term.b))), 1e-300)
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
    got = _term_coefficients(term, cutoff)
    want = term_coefficients_loop(term, cutoff)
    assert list(got.items()) == list(want.items())
    assert all(type(m) is int for _, m in got)


def test_poisson_kernel_term_has_47_active_modes():
    assert len(TERMS["poisson"]().active_modes()) == 47


def test_exact_zero_coefficients_are_not_active():
    assert TERMS["exact_zeros"]().active_modes() == [0, 1, 2, 5, 6]


def test_coefficient_arrays_are_read_only(term):
    with pytest.raises(ValueError):
        term.a[1] = 1.0
    with pytest.raises(ValueError):
        term.b[1] = 1.0

