"""Reference eigenvalues for the benchmark problems.

Sources are one of three kinds: closed forms (square, equilateral
triangle, slit disk via Bessel roots), high-accuracy published values
(slit square, reaction and diffusion problems, triangle with hole), and
cross-checks between the two where both exist.

Bessel functions of fractional order come from the ascending series
J_nu(x) = x^nu P(x^2), P(t) = sum_s c_s t^s (DLMF 10.2.2).  Its terms
near x = 60 grow to about 1e23 before cancelling down to order one, so
the table of c_s is built once per order in 50-digit precision, one
Horner pass in t gives P and P', hence J_nu' = x^(nu-1) (nu P + 2 t P')
for Newton's method on the roots, and results are rounded once.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import mpmath as mp
import numpy as np

_DPS = 50
_MP = mp.MPContext()  # private 50-digit context: no precision state shared
_MP.dps = _DPS


@functools.lru_cache(maxsize=None)
def _coefficients(nu):
    """c_s = (-1)^s / (2^nu 4^s s! Gamma(s + nu + 1)) and log10 |c_s / c_0|, x <= 60."""
    nu = _MP.mpf(nu)
    c, lg = [1 / (2**nu * _MP.gamma(nu + 1))], [0.0]
    # past s = 30 the terms at x = 60 decrease; stop below the 50-digit floor
    while len(c) <= 30 or lg[-1] + (len(c) - 1) * math.log10(3600.0) >= -_DPS:
        s = len(c)
        c.append(-c[-1] / (4 * s * (s + nu)))
        lg.append(lg[-1] - math.log10(4 * s * float(s + nu)))
    return c, np.array(lg)


def _series(nu, x):
    """(P, P') at t = x^2, 0 < x <= 60, to the first term past s = x/2 below 1e-50 c_0."""
    c, lg = _coefficients(nu)
    s = np.arange(lg.size)
    n = int(np.argmax((lg + s * (2 * math.log10(x)) < -_DPS) & (2 * s >= float(x))))
    t = _MP.mpf(x) ** 2
    p, dp = c[n - 1], 0
    for ck in reversed(c[:n - 1]):
        dp = dp * t + p
        p = p * t + ck
    return p, dp


def bessel_j(nu, x):
    """First-kind Bessel function J_nu(x) for nu >= -1/2, 0 <= x <= 60.

    Ascending series summed in extended precision; relative accuracy
    well below 1e-13 across the validated range.
    """
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    if not 0.0 <= x <= 60.0:
        raise ValueError("argument outside validated range [0, 60]")
    if x == 0:
        return 0.0 if nu > 0 else 1.0
    return float(_MP.mpf(x) ** nu * _series(nu, x)[0])


def _scan_roots(nu):
    """Positive roots of J_nu below 60 in increasing order, found lazily.

    For nu >= -1/2 the first root lies above 1.5 and consecutive roots
    are more than 3 apart, so a sign scan with unit step from x = 1
    brackets each root alone.  Each iterate in a bracket first shrinks
    it by its sign, then takes the Newton step J/J' = z P / (nu P +
    2 z^2 P'), or bisects if that step leaves the bracket.  A step below
    1e-20, above the 1e-26 series noise at x = 60, ends the iteration.
    """
    x, p_prev = 1, _series(nu, 1)[0]
    while x < 60:
        p_next = _series(nu, x + 1)[0]
        if p_prev * p_next < 0:
            a, b = _MP.mpf(x), _MP.mpf(x + 1)
            z = (a + b) / 2
            for _ in range(100):
                p, dp = _series(nu, z)
                a, b = (z, b) if (p > 0) == (p_prev > 0) else (a, z)
                step = z * p / (nu * p + 2 * z * z * dp)
                if not a < z - step < b:
                    step = z - (a + b) / 2
                z -= step
                if abs(step) < 1e-20:
                    break
            else:
                raise RuntimeError(f"no convergence to the root of J_{nu} in ({x}, {x + 1})")
            yield float(z)
        x, p_prev = x + 1, p_next


_ROOTS = {}  # order -> (roots found so far, generator of the rest)


def bessel_root(nu, m):
    """m-th positive root of J_nu, for nu in [-1/2, 5], integer m in 1..10.

    Each order is scanned once; its roots are cached as they are found.
    """
    if not -0.5 <= nu <= 5.0:
        raise ValueError("order outside [-1/2, 5]")
    if not isinstance(m, numbers.Integral) or not 1 <= m <= 10:
        raise ValueError("root index must be an integer in 1..10")
    roots, rest = _ROOTS.setdefault(nu, ([], _scan_roots(nu)))
    while len(roots) < m:
        root = next(rest, None)
        if root is None:
            raise ValueError(f"fewer than {m} roots of J_{nu} below 60")
        roots.append(root)
    return roots[m - 1]


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
        "slit_square": [(20.739208802, 1, 1e-8, "published"),
                        (34.485320, 1, 1e-5, "published"),
                        (50.348022005, 1, 1e-8, "published"),
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

    # series vs closed forms on a grid
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
