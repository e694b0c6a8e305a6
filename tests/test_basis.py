import numpy as np
import numpy.polynomial.legendre as npleg

from hpeig.basis import (
    EDGE_VERTICES,
    GRAD_LAMBDA,
    dubiner,
    dubiner_degrees,
    edge_mode_indices,
    kernel_table,
    layout,
    legendre_table,
    n_local,
    tri_shapes,
)
from hpeig.quadrature import triangle_rule

from helpers import edge_shapes


def interior_points(n, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.dirichlet(np.ones(3), size=n)
    return b[:, 1:]


# The hand-derived tri_shapes that the product rule replaced, kept as the
# reference for values, gradients and Hessians.
def _sym2(u, v):
    """Packed u (x) v + v (x) u with component order (xx, xy, yy)."""
    return np.array([2.0 * u[0] * v[0], u[0] * v[1] + u[1] * v[0], 2.0 * u[1] * v[1]])


def _outer2(u):
    """Packed u (x) u."""
    return np.array([u[0] * u[0], u[0] * u[1], u[1] * u[1]])


def _sym2_pointwise(dq, u):
    """Packed dq (x) u + u (x) dq for pointwise dq (n, 2), constant u."""
    return np.stack(
        [
            2.0 * dq[:, 0] * u[0],
            dq[:, 0] * u[1] + dq[:, 1] * u[0],
            2.0 * dq[:, 1] * u[1],
        ],
        axis=1,
    )


def reference_tri_shapes(p, pts, nderiv=1):
    """The vertex, edge and bubble branches differentiated by hand."""
    pts = np.asarray(pts, dtype=float)
    npts = pts.shape[0]
    nloc = n_local(p)
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])

    val = np.zeros((npts, nloc))
    out = {"val": val}
    if nderiv >= 1:
        grad = np.zeros((npts, nloc, 2))
        out["grad"] = grad
    if nderiv >= 2:
        hess = np.zeros((npts, nloc, 3))
        out["hess"] = hess

    for i in range(3):
        val[:, i] = lam[i]
        if nderiv >= 1:
            grad[:, i] = GRAD_LAMBDA[i]

    if p >= 2:
        idx = edge_mode_indices(p)
        for l, (a, b) in enumerate(EDGE_VERTICES):
            u = lam[b] - lam[a]
            psi = kernel_table(u, p - 2, nderiv=nderiv)
            q = lam[a] * lam[b]
            du = GRAD_LAMBDA[b] - GRAD_LAMBDA[a]
            dq = np.outer(lam[b], GRAD_LAMBDA[a]) + np.outer(lam[a], GRAD_LAMBDA[b])
            hq = _sym2(GRAD_LAMBDA[a], GRAD_LAMBDA[b])
            for k in range(2, p + 1):
                j = k - 2
                li = idx[l, j]
                val[:, li] = q * psi[0, j]
                if nderiv >= 1:
                    grad[:, li] = dq * psi[0, j][:, None] + np.outer(q * psi[1, j], du)
                if nderiv >= 2:
                    hess[:, li] = (
                        np.outer(psi[0, j], hq)
                        + _sym2_pointwise(dq, du) * psi[1, j][:, None]
                        + np.outer(q * psi[2, j], _outer2(du))
                    )

    if p >= 3:
        u01 = lam[1] - lam[0]
        v2 = 2.0 * lam[2] - 1.0
        du = GRAD_LAMBDA[1] - GRAD_LAMBDA[0]
        dv = 2.0 * GRAD_LAMBDA[2]
        Pu = legendre_table(u01, p - 3, nderiv=nderiv)
        Pv = legendre_table(v2, p - 3, nderiv=nderiv)
        w = lam[0] * lam[1] * lam[2]
        dw = (
            np.outer(lam[1] * lam[2], GRAD_LAMBDA[0])
            + np.outer(lam[0] * lam[2], GRAD_LAMBDA[1])
            + np.outer(lam[0] * lam[1], GRAD_LAMBDA[2])
        )
        hw = (
            np.outer(lam[2], _sym2(GRAD_LAMBDA[0], GRAD_LAMBDA[1]))
            + np.outer(lam[1], _sym2(GRAD_LAMBDA[0], GRAD_LAMBDA[2]))
            + np.outer(lam[0], _sym2(GRAD_LAMBDA[1], GRAD_LAMBDA[2]))
        )
        pos = {m: i for i, m in enumerate(layout(p))}
        for i_deg in range(p - 2):
            for j_deg in range(p - 2 - i_deg):
                li = pos[("b", i_deg, j_deg)]
                g, h = Pu[0, i_deg], Pv[0, j_deg]
                val[:, li] = w * g * h
                if nderiv >= 1:
                    gp, hp = Pu[1, i_deg], Pv[1, j_deg]
                    grad[:, li] = (
                        dw * (g * h)[:, None]
                        + np.outer(w * gp * h, du)
                        + np.outer(w * g * hp, dv)
                    )
                if nderiv >= 2:
                    gpp, hpp = Pu[2, i_deg], Pv[2, j_deg]
                    hess[:, li] = (
                        hw * (g * h)[:, None]
                        + _sym2_pointwise(dw, du) * (gp * h)[:, None]
                        + _sym2_pointwise(dw, dv) * (g * hp)[:, None]
                        + np.outer(w * gpp * h, _outer2(du))
                        + np.outer(w * gp * hp, _sym2(du, dv))
                        + np.outer(w * g * hpp, _outer2(dv))
                    )

    return out


def test_product_rule_matches_hand_derived_reference():
    t = np.linspace(0, 1, 9)
    on_edges = np.vstack([np.column_stack([t, 0 * t]), np.column_stack([0 * t, t]),
                          np.column_stack([1 - t, t])])
    pts = np.vstack([interior_points(40, seed=5), on_edges])
    for p in range(1, 13):
        for nderiv in range(3):
            got, want = tri_shapes(p, pts, nderiv), reference_tri_shapes(p, pts, nderiv)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].shape == want[key].shape
                scale = np.abs(want[key]).max()
                assert np.max(np.abs(got[key] - want[key])) <= 1e-13 * scale


def test_legendre_table_against_numpy():
    x = np.linspace(-1, 1, 17)
    T = legendre_table(x, 9, nderiv=3)
    for m in range(10):
        c = np.zeros(m + 1)
        c[m] = 1.0
        series = npleg.Legendre(c)
        for d in range(4):
            want = series.deriv(d)(x) if d else series(x)
            assert np.allclose(T[d, m], want, atol=1e-11)


def test_kernel_matches_integrated_legendre():
    # independent construction: L_k = sqrt((2k-1)/2) * int_{-1}^x P_{k-1}
    s = np.linspace(-1, 1, 31)
    K = kernel_table(s, 8)[0]
    for k in range(2, 10):
        c = np.zeros(k)
        c[k - 1] = 1.0
        antider = npleg.Legendre(c).integ(lbnd=-1)
        Lk = np.sqrt((2 * k - 1) / 2.0) * antider(s)
        got = 0.25 * (1 - s * s) * K[k - 2]
        assert np.allclose(got, Lk, atol=1e-12)


def test_layout_counts_and_prefix():
    for p in range(1, 11):
        assert len(layout(p)) == n_local(p)
        assert layout(p) == layout(p + 1)[: n_local(p)]


def test_prefix_embedding_of_values():
    pts = interior_points(40)
    for p in (2, 4, 6):
        lo = tri_shapes(p, pts, nderiv=2)
        hi = tri_shapes(p + 2, pts, nderiv=2)
        n = n_local(p)
        assert np.allclose(lo["val"], hi["val"][:, :n], atol=1e-13)
        assert np.allclose(lo["grad"], hi["grad"][:, :n], atol=1e-12)
        assert np.allclose(lo["hess"], hi["hess"][:, :n], atol=1e-11)


def test_vertex_modes_partition_of_unity():
    pts = interior_points(25)
    sh = tri_shapes(1, pts)
    assert np.allclose(sh["val"].sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(sh["grad"].sum(axis=1), 0.0, atol=1e-14)


def test_edge_traces():
    # edge modes vanish on the two other edges and reproduce the 1d trace
    p = 6
    t = np.linspace(0, 1, 13)[1:-1]
    ref_edges = {
        0: np.column_stack([1 - t, t]),      # from vertex 1 to vertex 2
        1: np.column_stack([0 * t, 1 - t]),  # from vertex 2 to vertex 0
        2: np.column_stack([t, 0 * t]),      # from vertex 0 to vertex 1
    }
    idx = edge_mode_indices(p)
    trace = edge_shapes(p, t)
    for l in range(3):
        vals = tri_shapes(p, ref_edges[l], nderiv=0)["val"]
        for k in range(2, p + 1):
            own = vals[:, idx[l, k - 2]]
            assert np.allclose(own, trace[:, k], atol=1e-12)
            for lo in range(3):
                if lo != l:
                    other = tri_shapes(p, ref_edges[lo], nderiv=0)["val"]
                    assert np.max(np.abs(other[:, idx[l, k - 2]])) < 1e-13
    # bubbles vanish on all edges
    for l in range(3):
        vals = tri_shapes(p, ref_edges[l], nderiv=0)["val"]
        for i, mode in enumerate(layout(p)):
            if mode[0] == "b":
                assert np.max(np.abs(vals[:, i])) < 1e-13


def test_edge_mode_parity():
    # swapping the edge endpoints multiplies mode k by (-1)^k
    p = 7
    t = np.linspace(0.05, 0.95, 9)
    idx = edge_mode_indices(p)
    fwd = tri_shapes(p, np.column_stack([t, 0 * t]), nderiv=0)["val"]
    rev = tri_shapes(p, np.column_stack([1 - t, 0 * t]), nderiv=0)["val"]
    for k in range(2, p + 1):
        sign = (-1.0) ** k
        assert np.allclose(fwd[:, idx[2, k - 2]], sign * rev[:, idx[2, k - 2]], atol=1e-12)


def test_gradient_finite_difference():
    pts = interior_points(30, seed=3) * 0.9 + 0.03
    h = 1e-6
    for p in (4, 7):
        sh = tri_shapes(p, pts, nderiv=1)
        for axis in range(2):
            dp = np.zeros(2)
            dp[axis] = h
            vp = tri_shapes(p, pts + dp, nderiv=0)["val"]
            vm = tri_shapes(p, pts - dp, nderiv=0)["val"]
            fd = (vp - vm) / (2 * h)
            assert np.max(np.abs(fd - sh["grad"][:, :, axis])) < 1e-6


def test_hessian_finite_difference():
    pts = interior_points(30, seed=4) * 0.9 + 0.03
    h = 1e-6
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    for p in (4, 6):
        sh = tri_shapes(p, pts, nderiv=2)
        for axis in range(2):
            dp = np.zeros(2)
            dp[axis] = h
            gp = tri_shapes(p, pts + dp, nderiv=1)["grad"]
            gm = tri_shapes(p, pts - dp, nderiv=1)["grad"]
            fd = (gp - gm) / (2 * h)
            for other in range(2):
                want = sh["hess"][:, :, comp[(axis, other)]]
                assert np.max(np.abs(fd[:, :, other] - want)) < 1e-6


def test_basis_spans_full_polynomial_space():
    # Gram matrix at exact quadrature must be well conditioned enough to
    # certify linear independence, hence dim P_p functions
    for p in (3, 5, 8):
        pts, w = triangle_rule(2 * p)
        V = tri_shapes(p, pts, nderiv=0)["val"]
        G = (V * w[:, None]).T @ V
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > 1e-12
        assert V.shape[1] == (p + 1) * (p + 2) // 2


def test_dubiner_orthonormal():
    for p in (3, 6, 9):
        pts, w = triangle_rule(2 * p + 2)
        D = dubiner(p, pts)
        G = (D * w[:, None]).T @ D
        assert np.allclose(G, np.eye(D.shape[1]), atol=1e-11)


def test_dubiner_degree_blocks():
    # a polynomial of total degree q has no component in blocks above q
    p = 7
    pts, w = triangle_rule(2 * p + 2)
    D = dubiner(p, pts)
    deg = dubiner_degrees(p)
    x, y = pts[:, 0], pts[:, 1]
    f = 2.0 + x * y - 3.0 * y**3 + 0.5 * x**2 * y
    coef = D.T @ (w * f)
    assert np.max(np.abs(coef[deg > 3])) < 1e-12
    assert np.max(np.abs(coef[deg == 3])) > 1e-3
