"""Reference eigenvalues for the benchmark problems.

Sources are one of three kinds: closed forms (square, equilateral
triangle, slit disk via Bessel roots), high-accuracy published values
(slit square, reaction and diffusion problems, triangle with hole), and
cross-checks between the two where both exist.

Bessel functions of fractional order are evaluated by the ascending
series.  In double precision the alternating terms near x = 60 grow to
about 1e23 before cancelling down to order one, so the series is summed
in 50-digit working precision and rounded once at the end.
"""

import functools
import math
from dataclasses import dataclass

import mpmath as mp

_DPS = 50


def bessel_j(nu, x):
    """First-kind Bessel function J_nu(x) for nu >= -1/2, 0 <= x <= 60.

    Ascending series summed in extended precision; relative accuracy
    well below 1e-13 across the validated range.
    """
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    if not 0.0 <= x <= 60.0:
        raise ValueError("argument outside validated range [0, 60]")
    return float(_bessel_mp(mp.mpf(nu), mp.mpf(x)))


def _bessel_mp(nu, x):
    with mp.workdps(_DPS):
        if x == 0:
            return mp.mpf(0) if nu > 0 else mp.mpf(1)
        half = x / 2
        term = half**nu / mp.gamma(nu + 1)
        total = term
        s = 0
        while True:
            s += 1
            term *= -(half * half) / (s * (s + nu))
            total += term
            if abs(term) < mp.mpf("1e-40") * max(abs(total), mp.mpf("1e-30")) and 2 * s > x:
                return total
            if s > 400:
                raise RuntimeError("Bessel series failed to terminate")


def _scan_roots(nu):
    """Positive roots of J_nu below 60 in increasing order, found lazily.

    For nu >= -1/2 the first root lies above 1.5 and consecutive roots
    are more than 3 apart, so a sign scan with unit step from x = 1
    brackets each root alone.  Each bracket is refined with the Illinois
    variant of regula falsi on the same 50-digit series.
    """
    nu_mp = mp.mpf(nu)
    f = lambda x: _bessel_mp(nu_mp, x)
    x, f_prev = 1, f(mp.mpf(1))
    while x < 60:
        f_next = f(mp.mpf(x + 1))
        if f_prev * f_next < 0:
            with mp.workdps(_DPS):  # not held across the yield
                root = mp.findroot(f, (mp.mpf(x), mp.mpf(x + 1)),
                                   solver="illinois", tol=1e-20)
            yield float(root)
        x, f_prev = x + 1, f_next


_ROOTS = {}  # order -> (roots found so far, generator of the rest)


def bessel_root(nu, m):
    """m-th positive root of J_nu, for nu in [-1/2, 5], m <= 10.

    Each order is scanned once; its roots are cached as they are found.
    """
    if not -0.5 <= nu <= 5.0:
        raise ValueError("order outside [-1/2, 5]")
    if not 1 <= m <= 10:
        raise ValueError("root index must be in 1..10")
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


def _sorted_family(gen, count):
    vals = sorted(gen)
    return vals[:count]


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
    return _sorted_family(fam, count)


def _exact(vals_mults):
    return [(v, k, 1e-14, "exact") for v, k in vals_mults]


@functools.lru_cache(maxsize=None)
def registry(name):
    """Reference spectrum for a benchmark key; raises on unknown names."""
    table = {
        "square_dirichlet": ReferenceSpectrum(
            "square_dirichlet",
            _exact([(square_dirichlet(1, 1), 1), (square_dirichlet(1, 2), 2),
                    (square_dirichlet(2, 2), 1), (square_dirichlet(1, 3), 2)])),
        "square_neumann": ReferenceSpectrum(
            "square_neumann",
            _exact([(0.0, 1), (square_neumann(0, 1), 2),
                    (square_neumann(1, 1), 1), (square_neumann(0, 2), 2)])),
        "triangle": ReferenceSpectrum(
            "triangle",
            _exact([(triangle_dirichlet(1, 1), 1), (triangle_dirichlet(1, 2), 2),
                    (triangle_dirichlet(2, 2), 1), (triangle_dirichlet(1, 3), 2)])),
        "triangle_hole": ReferenceSpectrum(
            "triangle_hole",
            [(40.4650426, 1, 1e-6, "published"),
             (43.4868466, 2, 1e-6, "published")]),
        "reaction_kappa10": ReferenceSpectrum(
            "reaction_kappa10",
            [(4.150242455, 1, 1e-8, "published"),
             (10.706070962, 1, 1e-8, "published"),
             (18.779725462, 1, 1e-8, "published"),
             (25.150325247, 1, 1e-8, "published")]),
        "reaction_kappa100": ReferenceSpectrum(
            "reaction_kappa100",
            [(13.210576406, 1, 1e-8, "published"),
             (13.990033964, 1, 1e-8, "published"),
             (60.294151672, 1, 1e-8, "published"),
             (64.840268299, 1, 1e-8, "published")]),
        "diffusion_a10": ReferenceSpectrum(
            "diffusion_a10",
            [(64.226529416, 1, 1e-8, "published"),
             (75.028156269, 1, 1e-8, "published"),
             (141.161506328, 1, 1e-8, "published")]),
        "diffusion_a100": ReferenceSpectrum(
            "diffusion_a100",
            [(77.800981966, 1, 1e-8, "published"),
             (78.564198245, 1, 1e-8, "published"),
             (193.916538067, 1, 1e-8, "published")]),
        "slit_square": ReferenceSpectrum(
            "slit_square",
            [(20.739208802, 1, 1e-8, "published"),
             (34.485320, 1, 1e-5, "published"),
             (50.348022005, 1, 1e-8, "published"),
             (67.581165196, 1, 1e-8, "published")]),
        "slit_disk": ReferenceSpectrum(
            "slit_disk",
            [(float(v), 1, 1e-13, "published") for v in SLIT_DISK_TABLE]),
        "slit_circle_second": ReferenceSpectrum(
            "slit_circle_second",
            [(float(SLIT_CIRCLE_SECOND), 1, 1e-15, "published")]),
    }
    if name not in table:
        raise KeyError(f"no reference spectrum named {name!r}")
    return table[name]


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
    tri = _sorted_family(
        (triangle_dirichlet(m, n) for m in range(1, 11) for n in range(1, 11)), 6)
    want, _ = registry("triangle").flat(6)
    enum_err = max(abs(a - b) / b for a, b in zip(tri, want))
    checks.append({"name": "triangle_enumeration", "got": enum_err, "want": 0.0,
                   "tol": 1e-14, "ok": enum_err <= 1e-14})
    sq = _sorted_family(
        (square_dirichlet(i, j) for i in range(1, 11) for j in range(1, 11)), 6)
    want, _ = registry("square_dirichlet").flat(6)
    enum_err = max(abs(a - b) / b for a, b in zip(sq, want))
    checks.append({"name": "square_enumeration", "got": enum_err, "want": 0.0,
                   "tol": 1e-14, "ok": enum_err <= 1e-14})
    return checks
