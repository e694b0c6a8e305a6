"""Reference eigenvalues for the benchmark problems.

Sources are one of three kinds: closed forms (square, equilateral
triangle, slit-square modes 1 and 3, slit disk via Bessel roots),
published values (slit-square modes 2 and 4, reaction and diffusion
problems, triangle with hole), and cross-checks where both exist.

Bessel functions are scipy.special.jv and jvp (Amos, ACM TOMS 12, 1986),
within about 1e-14 max(1, |J|) of 30-digit values for x <= 60.  Roots
come from safeguarded Newton steps on them, a few ulps from 30-digit
zeros; scipy.optimize is avoided because importing it is slow.
"""

import functools
import math
import numbers
from dataclasses import dataclass

from scipy.special import jv, jvp


def bessel_j(nu, x):
    """First-kind Bessel function J_nu(x) for finite nu >= -1/2, 0 <= x <= 60.

    x = 0 with nu < 0 raises ValueError, since J_nu is unbounded there.
    """
    if not -0.5 <= nu < math.inf:
        raise ValueError("order must be finite and >= -1/2")
    if not 0.0 <= x <= 60.0:
        raise ValueError("argument outside validated range [0, 60]")
    if x == 0 and nu < 0:
        raise ValueError("J_nu(0) is unbounded for nu < 0")
    return float(jv(nu, x))


@functools.lru_cache(maxsize=None)
def _roots(nu):
    """Positive roots of J_nu below 60 in increasing order.

    For nu >= -1/2 the first root lies above 1.5 and consecutive roots
    are more than 3 apart, so a sign scan with unit step from x = 1
    brackets each root alone.  Each iterate in a bracket first shrinks
    it by its sign, then takes the Newton step J/J', or bisects if that
    step leaves the closed bracket; a step below 1e-14 z ends the
    iteration.  The closed test matters: an iterate that lands on the
    root becomes a bracket end, and its tiny next step must not bisect.
    """
    roots = []
    for x in range(1, 60):
        a, b = float(x), float(x + 1)
        j_a = jv(nu, a)
        if j_a * jv(nu, b) >= 0:
            continue
        z = (a + b) / 2
        for _ in range(100):
            j = jv(nu, z)
            a, b = (z, b) if (j > 0) == (j_a > 0) else (a, z)
            step = j / jvp(nu, z)
            if not a <= z - step <= b:
                step = z - (a + b) / 2
            z -= step
            if abs(step) <= 1e-14 * z:
                break
        else:
            raise RuntimeError(f"no convergence to the root of J_{nu} in ({x}, {x + 1})")
        roots.append(z)
    return tuple(roots)


def bessel_root(nu, m):
    """m-th positive root of J_nu, for nu in [-1/2, 5], integer m in 1..10.

    Every order has more than ten roots below 60; each order is scanned
    once and cached.
    """
    if not -0.5 <= nu <= 5.0:
        raise ValueError("order outside [-1/2, 5]")
    if not isinstance(m, numbers.Integral) or not 1 <= m <= 10:
        raise ValueError("root index must be an integer in 1..10")
    return _roots(nu)[m - 1]


def square_dirichlet(i, j):
    """Eigenvalue pi^2 (i^2 + j^2) of the Dirichlet Laplacian on (0,1)^2."""
    if i < 1 or j < 1:
        raise ValueError("indices start at 1")
    return math.pi**2 * (i * i + j * j)


def square_neumann(i, j):
    """Eigenvalue pi^2 (i^2 + j^2), i, j >= 0, Neumann Laplacian on (0,1)^2."""
    if i < 0 or j < 0:
        raise ValueError("indices start at 0")
    return math.pi**2 * (i * i + j * j)


def triangle_dirichlet(m, n):
    """Eigenvalue of the Dirichlet Laplacian on the unit equilateral triangle."""
    if m < 1 or n < 1:
        raise ValueError("indices start at 1")
    return 16.0 * math.pi**2 / 9.0 * (m * m + m * n + n * n)


@dataclass
class ReferenceSpectrum:
    """Ascending reference eigenvalues with multiplicity and trust level.

    entries: list of (value, multiplicity, relative accuracy, provenance)
    with provenance one of "exact", "published".
    """
    name: str
    entries: list

    def flat(self, m=None):
        """Per-mode (values, accuracies) arrays, multiplicities expanded."""
        vals, accs = [], []
        for value, mult, acc, _ in self.entries:
            vals.extend([value] * mult)
            accs.extend([acc] * mult)
        if m is not None:
            if m > len(vals):
                raise ValueError(f"only {len(vals)} reference values for {self.name}")
            vals, accs = vals[:m], accs[:m]
        return vals, accs


# slit disk with one Dirichlet and one Neumann slit side: eigenvalues are
# sorted squared roots of the J_{(2k-1)/4} family; published to 30 digits
SLIT_DISK_TABLE = (
    "7.73333653346596686390263803337",
    "12.1871394680951290047505723560",
    "17.3507761313694859586686502730",
    "23.1993865387331719385298116070",
    "29.7145342842106938075714690649",
    "34.8825215790904790430911907100",
)

SLIT_CIRCLE_SECOND = "9.869604401089358619"


def slit_disk_values(count):
    """Lowest eigenvalues of the slit disk: sorted j_{(2k-1)/4, m}^2.

    The enumeration window (k <= 8, m <= 4) is complete for the first 8
    values: the first omitted candidates square to well above the 8th.
    """
    if count > 8:
        raise ValueError("enumeration window supports at most 8 values")
    fam = [bessel_root((2 * k - 1) / 4.0, m) ** 2
           for k in range(1, 9) for m in range(1, 5)]
    return sorted(fam)[:count]


def _exact(vals_mults):
    return [(v, k, 1e-14, "exact") for v, k in vals_mults]


@functools.lru_cache(maxsize=None)
def registry(name):
    """Reference spectrum for a benchmark key; raises on unknown names."""
    table = {
        "square_dirichlet": _exact(
            [(square_dirichlet(1, 1), 1), (square_dirichlet(1, 2), 2),
             (square_dirichlet(2, 2), 1), (square_dirichlet(1, 3), 2)]),
        "square_neumann": _exact(
            [(0.0, 1), (square_neumann(0, 1), 2),
             (square_neumann(1, 1), 1), (square_neumann(0, 2), 2)]),
        "triangle": _exact(
            [(triangle_dirichlet(1, 1), 1), (triangle_dirichlet(1, 2), 2),
             (triangle_dirichlet(2, 2), 1), (triangle_dirichlet(1, 3), 2)]),
        "triangle_hole": [(40.4650426, 1, 1e-6, "published"),
                          (43.4868466, 2, 1e-6, "published")],
        "reaction_kappa10": [(4.150242455, 1, 1e-8, "published"),
                             (10.706070962, 1, 1e-8, "published"),
                             (18.779725462, 1, 1e-8, "published"),
                             (25.150325247, 1, 1e-8, "published")],
        "reaction_kappa100": [(13.210576406, 1, 1e-8, "published"),
                              (13.990033964, 1, 1e-8, "published"),
                              (60.294151672, 1, 1e-8, "published"),
                              (64.840268299, 1, 1e-8, "published")],
        "diffusion_a10": [(64.226529416, 1, 1e-8, "published"),
                          (75.028156269, 1, 1e-8, "published"),
                          (141.161506328, 1, 1e-8, "published")],
        "diffusion_a100": [(77.800981966, 1, 1e-8, "published"),
                           (78.564198245, 1, 1e-8, "published"),
                           (193.916538067, 1, 1e-8, "published")],
        # sin(i pi x) sin(j pi y) with odd j is Neumann on the slit y = 1/2
        "slit_square": [(square_dirichlet(1, 1) + 1.0, 1, 1e-14, "exact"),
                        (34.485320, 1, 1e-5, "published"),
                        (square_dirichlet(2, 1) + 1.0, 1, 1e-14, "exact"),
                        (67.581165196, 1, 1e-8, "published")],
        "slit_disk": [(float(v), 1, 1e-13, "published") for v in SLIT_DISK_TABLE],
        "slit_circle_second": [(float(SLIT_CIRCLE_SECOND), 1, 1e-15, "published")],
    }
    if name not in table:
        raise KeyError(f"no reference spectrum named {name!r}")
    return ReferenceSpectrum(name, table[name])


def verify_references():
    """Cross-check every reference value that is independently computable.

    Returns a list of dicts with keys name, got, want, tol, ok.
    """
    checks = []

    def add(name, got, want, tol):
        rel = abs(got - want) / max(abs(want), 1e-300)
        checks.append({"name": name, "got": got, "want": want,
                       "tol": tol, "ok": rel <= tol})

    disk = slit_disk_values(len(SLIT_DISK_TABLE))
    for k, pinned in enumerate(SLIT_DISK_TABLE, start=1):
        add(f"slit_disk_k{k}", disk[k - 1], float(pinned), 1e-11)

    add("slit_circle_second_pi2", math.pi**2, float(SLIT_CIRCLE_SECOND), 1e-15)
    add("bessel_half_first_root", bessel_root(0.5, 1), math.pi, 1e-12)
    j0_at_zero = bessel_j(0.0, 2.404825557695773)
    checks.append({"name": "bessel_j0_zero", "got": j0_at_zero, "want": 0.0,
                   "tol": 1e-12, "ok": abs(j0_at_zero) < 1e-12})
    add("bessel_half_value", bessel_j(0.5, 1.0), 0.6713967071418031, 1e-13)

    # scipy's J_{1/2} and J_{3/2} vs their closed forms on a grid
    worst = 0.0
    for i in range(1, 41):
        x = i * 1.0
        closed = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        closed32 = math.sqrt(2 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        for got, want in ((bessel_j(0.5, x), closed), (bessel_j(1.5, x), closed32)):
            if abs(want) > 1e-8:
                worst = max(worst, abs(got - want) / abs(want))
    checks.append({"name": "bessel_half_orders_closed_form", "got": worst,
                   "want": 0.0, "tol": 1e-12, "ok": worst <= 1e-12})

    add("square_first", registry("square_dirichlet").flat(1)[0][0],
        2 * math.pi**2, 1e-14)
    add("triangle_first", registry("triangle").flat(1)[0][0],
        16 * math.pi**2 / 3, 1e-14)
    tri = sorted(triangle_dirichlet(m, n) for m in range(1, 11) for n in range(1, 11))[:6]
    want, _ = registry("triangle").flat(6)
    enum_err = max(abs(a - b) / b for a, b in zip(tri, want))
    checks.append({"name": "triangle_enumeration", "got": enum_err, "want": 0.0,
                   "tol": 1e-14, "ok": enum_err <= 1e-14})
    sq = sorted(square_dirichlet(i, j) for i in range(1, 11) for j in range(1, 11))[:6]
    want, _ = registry("square_dirichlet").flat(6)
    enum_err = max(abs(a - b) / b for a, b in zip(sq, want))
    checks.append({"name": "square_enumeration", "got": enum_err, "want": 0.0,
                   "tol": 1e-14, "ok": enum_err <= 1e-14})
    return checks
