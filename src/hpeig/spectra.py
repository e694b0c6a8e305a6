"""Reference eigenvalues for the benchmark problems.

Sources are closed forms (square, equilateral triangle, slit-square
modes 1 and 3) and published values (slit-square modes 2 and 4, reaction
and diffusion problems, triangle with hole); verify_references
cross-checks them where both exist.

The slit disk is not a benchmark problem: its lowest eigenvalues,
squared roots of quarter-order Bessel functions, check the root finder
against 30-digit published values.  Roots come from safeguarded Newton
steps on scipy.special.jv and jvp (Amos, ACM TOMS 12, 1986), taken on
every bracket of every requested order as one array; each element does
the operations of a lone scalar iteration, so the roots are the same
bit for bit.  The tests hold them within 1e-14 relative of mpmath's
zeros.  scipy.optimize is avoided because importing it is slow.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import jv, jvp


_ROOTS = {}  # order -> its first ten positive roots


def _fill(nus):
    """Cache the first ten positive roots of J_nu for each order in nus.

    For nu >= -1/2 the first root lies above 1.5 and consecutive roots
    are more than 3 apart, so the first ten sign changes of J_nu on
    x = 1..60 bracket one root each.  In every bracket at once, each on
    its own, an iterate shrinks the bracket by its sign, then takes the
    Newton step J/J', or bisects if the step leaves the closed bracket
    (an iterate on the root becomes a bracket end, and its tiny next step
    must not bisect), until a step is below 1e-14 z.
    """
    nus = np.array([nu for nu in dict.fromkeys(nus) if nu not in _ROOTS], float)
    j_x = jv(nus[:, None], np.arange(1.0, 61.0))
    change = j_x[:, :-1] * j_x[:, 1:] < 0
    row, col = np.nonzero(change & (np.cumsum(change, axis=1) <= 10))
    nu, j_a, a, b = nus[row], j_x[row, col], col + 1.0, col + 2.0
    z, todo, out = (a + b) / 2, np.arange(row.size), np.empty(row.size)
    for _ in range(100):
        j = jv(nu, z)
        a, b = np.where((j > 0) == (j_a > 0), (z, b), (a, z))
        step = j / jvp(nu, z)
        step = np.where((a <= z - step) & (z - step <= b), step, z - (a + b) / 2)
        z = z - step
        done = np.abs(step) <= 1e-14 * z
        out[todo[done]] = z[done]
        nu, j_a, a, b, z, todo = (v[~done] for v in (nu, j_a, a, b, z, todo))
        if not todo.size:
            break
    else:
        raise RuntimeError(f"no convergence to a root of J_{nu[0]} in ({a[0]}, {b[0]})")
    _ROOTS.update(zip(nus.tolist(), out.reshape(-1, 10)))


def bessel_root(nu, m):
    """m-th positive root of J_nu, for nu in [-1/2, 5], integer m in 1..10.

    Every order has more than ten roots below 60; each order is scanned
    once and cached.
    """
    if not -0.5 <= nu <= 5.0:
        raise ValueError("order outside [-1/2, 5]")
    if not isinstance(m, numbers.Integral) or not 1 <= m <= 10:
        raise ValueError("root index must be an integer in 1..10")
    if nu not in _ROOTS:
        _fill([nu])
    return _ROOTS[nu][m - 1]


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
        """Per-mode (values, accuracies) arrays, multiplicities expanded;
        the lowest m of them for an integer m in 1..len."""
        vals, accs = [], []
        for value, mult, acc, _ in self.entries:
            vals.extend([value] * mult)
            accs.extend([acc] * mult)
        if m is not None:
            if not isinstance(m, numbers.Integral) or not 1 <= m <= len(vals):
                raise ValueError(f"{self.name}: m must be an integer in 1..{len(vals)}")
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


def slit_disk_values(count):
    """Lowest eigenvalues of the slit disk: sorted j_{(2k-1)/4, m}^2.

    The enumeration window (k <= 8, m <= 4) is complete for the first 8
    values: the first omitted candidates square to well above the 8th.
    """
    if not isinstance(count, numbers.Integral) or not 1 <= count <= 8:
        raise ValueError("count must be an integer in 1..8, the enumeration window")
    orders = [(2 * k - 1) / 4.0 for k in range(1, 9)]
    _fill(orders)
    fam = [bessel_root(nu, m) ** 2 for nu in orders for m in range(1, 5)]
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
        rel = abs(got - want) / (abs(want) or 1.0)  # absolute at want 0
        checks.append({"name": name, "got": got, "want": want,
                       "tol": tol, "ok": rel <= tol})

    disk = slit_disk_values(len(SLIT_DISK_TABLE))
    for k, pinned in enumerate(SLIT_DISK_TABLE, start=1):
        add(f"slit_disk_k{k}", disk[k - 1], float(pinned), 1e-11)

    add("bessel_half_first_root", bessel_root(0.5, 1), math.pi, 1e-12)
    add("square_first", registry("square_dirichlet").flat(1)[0][0],
        2 * math.pi**2, 1e-14)
    add("triangle_first", registry("triangle").flat(1)[0][0],
        16 * math.pi**2 / 3, 1e-14)
    for name, key, family in (("triangle", "triangle", triangle_dirichlet),
                              ("square", "square_dirichlet", square_dirichlet)):
        got = sorted(family(i, j) for i in range(1, 11) for j in range(1, 11))[:6]
        want, _ = registry(key).flat(6)
        add(f"{name}_enumeration",
            max(abs(a - b) / b for a, b in zip(got, want)), 0.0, 1e-14)
    return checks
