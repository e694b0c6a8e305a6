"""Reference-spectrum checks against closed forms and mpmath."""

import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import hpeig
from hpeig import spectra


def test_bessel_against_mpmath_grid():
    # independent 30-digit evaluator as oracle across quarter orders and range
    for nu in (k / 4.0 for k in range(-2, 21)):
        for x in [1e-3, *np.linspace(0.1, 59.9, 73), 60.0]:
            got = spectra.bessel_j(nu, float(x))
            with mpmath.workdps(30):
                want = float(mpmath.besselj(nu, x))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (nu, x)


def test_bessel_against_scipy_grid():
    # bessel_j is scipy.special.jv behind its validation: across orders and
    # range the validation must pass every in-domain value through unchanged
    for nu in (0.0, 0.25, 0.5, 0.75, 1.0, 1.75, 2.75, 5.0):
        for x in np.linspace(0.1, 59.9, 73):
            got = spectra.bessel_j(nu, float(x))
            want = scipy.special.jv(nu, x)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_bessel_half_order_closed_forms():
    for x in np.linspace(0.1, 40.0, 57):
        x = float(x)
        amp = math.sqrt(2.0 / (math.pi * x))
        assert spectra.bessel_j(0.5, x) == pytest.approx(amp * math.sin(x), abs=1e-14, rel=1e-12)
        want = amp * (math.sin(x) / x - math.cos(x))
        assert spectra.bessel_j(1.5, x) == pytest.approx(want, abs=1e-14, rel=1e-12)


def test_bessel_value_and_edge_cases():
    assert spectra.bessel_j(0.5, 1.0) == pytest.approx(0.6713967071418031, rel=1e-13)
    assert spectra.bessel_j(0.0, 0.0) == 1.0
    assert spectra.bessel_j(2.0, 0.0) == 0.0
    assert spectra.bessel_j(0.0, 60.0) == pytest.approx(scipy.special.j0(60.0), rel=1e-11)
    for nu in (-0.75, math.nan, math.inf):
        with pytest.raises(ValueError, match="order"):
            spectra.bessel_j(nu, 1.0)
    with pytest.raises(ValueError):
        spectra.bessel_j(0.0, 61.0)
    with pytest.raises(ValueError):
        spectra.bessel_j(0.0, -0.1)


def test_bessel_negative_order_at_zero_rejected():
    # J_nu(0) is 1 only for nu = 0; for -1/2 <= nu < 0 it is unbounded
    for nu in (-0.5, -0.25, -1e-12):
        with pytest.raises(ValueError, match="unbounded"):
            spectra.bessel_j(nu, 0.0)
    assert spectra.bessel_j(-0.5, 1e-8) > 7e3
    assert spectra.bessel_j(0.0, 0.0) == 1.0


def test_bessel_roots_integer_orders():
    for nu in (0, 1):
        want = scipy.special.jn_zeros(nu, 10)
        for m in range(1, 11):
            assert spectra.bessel_root(float(nu), m) == pytest.approx(want[m - 1], abs=1e-12)
    assert spectra.bessel_root(0.0, 1) == pytest.approx(2.404825557695773, abs=1e-12)


def test_bessel_roots_half_order_are_multiples_of_pi():
    for m in range(1, 11):
        assert spectra.bessel_root(0.5, m) == pytest.approx(m * math.pi, abs=1e-12)


def test_bessel_roots_fractional_orders_against_mpmath():
    # independent root finder on the independent evaluator
    for nu in (0.25, 0.75, 1.25, 2.75, 5.0):
        want = float(mpmath.besseljzero(mpmath.mpf(nu), 1))
        assert spectra.bessel_root(nu, 1) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        spectra.bessel_root(5.5, 1)
    with pytest.raises(ValueError):
        spectra.bessel_root(1.0, 11)
    with pytest.raises(ValueError, match="integer"):
        spectra.bessel_root(1.0, 2.5)


def mpmath_zero(nu, m):
    """m-th positive zero of J_nu from mpmath's own finder and evaluator."""
    if nu >= 0:
        return float(mpmath.besseljzero(mpmath.mpf(nu), m))
    # besseljzero takes nu >= 0; for -1 < nu < 0 the zeros of J_nu
    # interlace with those of J_{nu+1} (DLMF 10.21.3)
    lo = float(mpmath.besseljzero(mpmath.mpf(nu + 1), m - 1)) if m > 1 else 0.5
    hi = float(mpmath.besseljzero(mpmath.mpf(nu + 1), m))
    with mpmath.workdps(30):
        return float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), (lo, hi),
                                     solver="anderson"))


@settings(max_examples=12)
@given(k=st.integers(-2, 20), m=st.integers(1, 10))
def test_bessel_roots_match_mpmath_zeros(k, m):
    assert spectra.bessel_root(k / 4.0, m) == pytest.approx(mpmath_zero(k / 4.0, m), rel=1e-14)


def test_slit_disk_roots_against_mpmath():
    # mpmath's own zero finder on its own Bessel evaluation
    for k in range(1, 9):
        nu = (2 * k - 1) / 4.0
        for m in range(1, 5):
            want = float(mpmath.besseljzero(mpmath.mpf(nu), m))
            assert spectra.bessel_root(nu, m) == pytest.approx(want, rel=1e-13)


def test_slit_disk_table_reproduced():
    got = spectra.slit_disk_values(6)
    for value, pinned in zip(got, spectra.SLIT_DISK_TABLE):
        assert value == pytest.approx(float(pinned), rel=1e-11)
    # first five are leading roots of successive quarter orders, the sixth
    # is the second root of the lowest order overtaking the next family
    assert got[5] == pytest.approx(spectra.bessel_root(0.25, 2) ** 2, rel=1e-13)
    with pytest.raises(ValueError):
        spectra.slit_disk_values(9)


def test_slit_circle_second_is_pi_squared():
    assert math.pi**2 == pytest.approx(float(spectra.SLIT_CIRCLE_SECOND), rel=1e-15)
    z = spectra.bessel_root(0.5, 1)
    assert z * z == pytest.approx(math.pi**2, rel=1e-12)


def test_closed_form_families():
    assert spectra.square_dirichlet(1, 1) == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert spectra.square_neumann(0, 0) == 0.0
    assert spectra.triangle_dirichlet(1, 1) == pytest.approx(16 * math.pi**2 / 3, rel=1e-15)
    with pytest.raises(ValueError):
        spectra.square_dirichlet(0, 1)
    with pytest.raises(ValueError):
        spectra.square_neumann(-1, 0)
    with pytest.raises(ValueError):
        spectra.triangle_dirichlet(1, 0)


def test_registry_keys_and_flat_expansion():
    keys = ["square_dirichlet", "square_neumann", "triangle", "triangle_hole",
            "reaction_kappa10", "reaction_kappa100", "diffusion_a10",
            "diffusion_a100", "slit_square", "slit_disk", "slit_circle_second"]
    for key in keys:
        ref = spectra.registry(key)
        vals, accs = ref.flat()
        assert len(vals) == len(accs) >= 1
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    vals, accs = spectra.registry("square_dirichlet").flat(4)
    assert vals == pytest.approx([2 * math.pi**2, 5 * math.pi**2,
                                  5 * math.pi**2, 8 * math.pi**2])
    vals, _ = spectra.registry("triangle_hole").flat()
    assert vals[1] == vals[2]
    with pytest.raises(KeyError):
        spectra.registry("annulus")
    with pytest.raises(ValueError):
        spectra.registry("diffusion_a10").flat(4)


def test_slit_square_exact_modes_match_published_pins():
    # modes 1 and 3 are the closed forms 2 pi^2 + 1 and 5 pi^2 + 1; the
    # 9-decimal values they replace must agree within their stated 1e-8
    entries = spectra.registry("slit_square").entries
    for (value, mult, acc, source), k, pin in zip(
            entries[::2], (2, 5), (20.739208802, 50.348022005)):
        assert (mult, acc, source) == (1, 1e-14, "exact")
        assert value == pytest.approx(k * math.pi**2 + 1.0, rel=1e-15)
        assert abs(value - pin) / pin <= 1e-8
    assert [e[3] for e in entries[1::2]] == ["published", "published"]


def test_verify_references_all_pass_and_fast():
    t0 = time.perf_counter()
    checks = spectra.verify_references()
    elapsed = time.perf_counter() - t0
    assert len(checks) >= 12
    for c in checks:
        assert c["ok"], c
    assert elapsed < 5.0


def test_import_leaves_mpmath_and_scipy_optimize_unloaded():
    # mpmath is a test-only oracle, and scipy.optimize is slow to import
    code = ("import sys, hpeig; print(sorted(m for m in ('mpmath', "
            "'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hpeig.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
