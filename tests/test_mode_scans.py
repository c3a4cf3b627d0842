"""The numpy mode scan of a SingularTerm against the Python loops it replaced.

`SingularTerm` builds its mode map `coefficients` with numpy masks at
construction, keeping each coefficient above `RESOLUTION` * norm, and keeps
nothing else of phi's spectrum.  The reference loops below are
per-coefficient scans with the same bar over `quad_core._spectrum` of the
samples the term was built from; the scan must give the same modes, the same
coefficients and the same dict order, because every downstream sum (moments,
right-hand sides, dual solves, table patches) runs in that order.  Against
the loops at the cutoffs the routes used before the map (1e-14 for moments
and dual solves, 1e-12 for table lookups) the map keeps their order and
values and differs only by coefficients between the two bars.
"""
from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from ctquad import cli, quad_core
from ctquad.quad_core import RESOLUTION, SingularTerm, _spectrum

from helpers import active_modes, torus_plane_expansion


def coefficient_norm(a: np.ndarray, b: np.ndarray) -> float:
    return max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)


def active_modes_loop(a: np.ndarray, b: np.ndarray) -> list[int]:
    norm = coefficient_norm(a, b)
    out = [0]
    for j in range(1, len(a)):
        if max(abs(a[j]), abs(b[j])) > RESOLUTION * norm:
            out.append(j)
    return out


def term_coefficients_loop(a: np.ndarray, b: np.ndarray,
                           cutoff: float = RESOLUTION
                           ) -> dict[tuple[str, int], float]:
    norm = coefficient_norm(a, b)
    out: dict[tuple[str, int], float] = {("c", 0): float(a[0])}
    for m in range(1, len(a)):
        if abs(a[m]) > cutoff * norm:
            out[("c", m)] = float(a[m])
        if abs(b[m]) > cutoff * norm:
            out[("s", m)] = float(b[m])
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
    "torus_sl": lambda: torus_plane_expansion().s0_term("SL")[0],
}


@pytest.fixture(scope="module", params=sorted(TERMS))
def term(request):
    """The term, and the cos/sin coefficients a, b of the samples it was
    built from (the last sample set transformed, the one that resolved
    phi; `from_callable` transforms its samples itself, so the set is
    recorded at `_spectrum`; a batch of one plane's is one row)."""
    accepted = []

    def recording(samples):
        accepted.append(np.array(samples, dtype=float))
        return _spectrum(samples)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quad_core, "_spectrum", recording)
        made = TERMS[request.param]()
    return made, *_spectrum(accepted[-1].reshape(-1))[:2]


def test_active_modes_match_loop(term):
    term, a, b = term
    assert active_modes(term) == active_modes_loop(a, b)


@pytest.mark.parametrize("cutoff", [1e-14, 1e-12])
def test_term_coefficients_match_loop_in_order(term, cutoff):
    term, a, b = term
    got = list(term.coefficients.items())
    assert got == list(term_coefficients_loop(a, b).items())
    assert all(type(m) is int for (_, m), _ in got)
    # the loop at a former route cutoff: the list at the higher of the two
    # bars is the other one with the coefficients at or under that bar taken
    # out, order and values kept
    old = list(term_coefficients_loop(a, b, cutoff).items())
    bar = max(cutoff, RESOLUTION) * coefficient_norm(a, b)
    longer, shorter = (old, got) if cutoff < RESOLUTION else (got, old)
    assert [(key, c) for key, c in longer
            if key == ("c", 0) or abs(c) > bar] == shorter


def test_poisson_kernel_term_has_41_active_modes():
    assert len(active_modes(TERMS["poisson"]())) == 41


def test_rounding_noise_is_not_a_mode():
    # the FFT of 512 samples of cos 100 psi leaves rounding in every other
    # coefficient; none of it reaches RESOLUTION * norm, so the map holds
    # mode 100 alone
    psi = 2.0 * np.pi * np.arange(512) / 512
    term = SingularTerm(0, np.cos(100 * psi))
    assert active_modes(term) == [0, 100]
    assert list(term.coefficients) == [("c", 0), ("c", 100)]


def test_phi_sums_the_map_alone():
    # phi sums the map's two coefficients, not the rounding the map drops.
    # The reference is cos(100 theta) of each double theta at 40 digits:
    # np.cos(100 * theta) rounds its argument and is itself off by up to
    # 5.1e-14 here.  The recurrence to mode 100 misses by 8.3e-15; summing
    # every nonzero coefficient up to mode 100 as well missed by 5.4e-14
    psi = 2.0 * np.pi * np.arange(512) / 512
    term = SingularTerm(0, np.cos(100 * psi))
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 1000)
    with mp.workdps(40):
        exact = np.array([float(mp.cos(100 * mp.mpf(t))) for t in theta])
    assert np.max(np.abs(term.phi(theta) - exact)) <= 2e-14


def test_exact_zero_coefficients_are_not_active():
    assert active_modes(TERMS["exact_zeros"]()) == [0, 1, 2, 5, 6]


def test_coefficient_arrays_are_read_only(term):
    # the mode map is the only copy of phi a term keeps, and it is read-only
    term = term[0]
    assert not any(hasattr(term, name)
                   for name in ("a", "b", "norm", "active_modes"))
    with pytest.raises(TypeError):
        term.coefficients[("c", 1)] = 1.0

