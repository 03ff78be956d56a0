import ast
import functools
import logging
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gelshoot import delaycore as dc
from gelshoot import fixedpoint as fp
from gelshoot import greens as gr
from gelshoot.errors import DomainError, StepBudgetError, TruncationWarning

# independent partial sums of the alternating series, written out by hand
Q1_ORACLE = (math.exp(-1.0) - 4.0 * math.exp(-2.0)
             + (16.0 / 3.0) * math.exp(-4.0)
             - (64.0 / 21.0) * math.exp(-8.0)
             + (256.0 / 315.0) * math.exp(-16.0))
C0_ORACLE = (1.0 - 1.0 + 1.0 / 3.0 - 1.0 / 21.0 + 1.0 / 315.0
             - 1.0 / 9765.0 + 1.0 / 615195.0 - 1.0 / 78129765.0)


class TestQ:
    def test_value_at_one(self):
        assert gr.q_eval(1.0) == pytest.approx(Q1_ORACLE, abs=1e-9)
        assert gr.q_eval(1.0) == pytest.approx(-0.0768006, abs=1e-6)

    def test_leading_term_dominates_far_out(self):
        lhs = math.exp(10.0) * gr.q_eval(10.0)
        assert lhs == pytest.approx(1.0 - 4.0 * math.exp(-10.0), abs=1e-12)

    def test_origin_value_nearly_cancels(self):
        assert abs(gr.q_eval(0.0, N=9)) < 1e-5
        assert abs(gr.q_eval(0.0)) < 1e-12   # full sum is zero to roundoff

    def test_alternating_tail_bounds_truncation(self):
        # the first omitted term bounds the remainder, up to roundoff of
        # the partial sums themselves
        xs = np.linspace(0.0, 5.0, 21)
        ref = gr.q_eval(xs, N=19)
        for N in range(2, 10):
            part = gr.q_eval(xs, N=N)
            bounds = np.array([gr.q_tail_bound(float(x), N) for x in xs])
            assert np.all(np.abs(part - ref)
                          <= bounds * (1.0 + 1e-6) + 1e-15)

    def test_decay_bound(self):
        xs = np.linspace(0.0, 20.0, 400)
        assert np.all(np.abs(gr.q_eval(xs)) <= 1.0000001 * np.exp(-xs))

    def test_domain(self):
        with pytest.raises(DomainError):
            gr.q_eval(-0.5)
        with pytest.raises(DomainError):
            gr.q_eval(1.0, N=0)

    def test_nan_xi_refused(self):
        # NaN passes a test xi < 0; Q and its tail bound were NaN for it
        for xi in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError):
                gr.q_eval(xi)
        with pytest.raises(DomainError):
            gr.q_tail_bound(math.nan)


def c0_mpmath():
    """1 + sum_n (-1)^n / prod_{j<=n} (2^j - 1) to 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        total, prod = mpmath.mpf(1), mpmath.mpf(1)
        for n in range(1, 40):  # the term at n = 40 is below 1e-240
            prod *= 2 ** n - 1
            total += mpmath.mpf(-1) ** n / prod
        return total


class TestC0:
    def test_series_value(self):
        ref = c0_mpmath()
        assert abs(gr.c0_moment() - ref) <= 1e-15 * ref
        assert gr.c0_moment() == pytest.approx(C0_ORACLE, abs=1e-9)

    def test_first_two_terms_cancel(self):
        # the n = 0 and n = 1 contributions are 1 and -1 exactly
        assert 1.0 - 4.0 / 4.0 == 0.0

    def test_quadrature_route_agrees(self):
        # Gauss panels on octaves: 2.4e-17 relative where quad gave 1.9e-16
        ref = c0_mpmath()
        assert abs(gr.c0_moment_quad() - ref) <= 1e-15 * ref

    def test_eta_derivative_series(self):
        # hand-summed first terms: 1/2 - 4/3 + 16/15 - 64/189 + ...
        partial = 0.5 - 4.0 / 3.0 + 16.0 / 15.0 - 64.0 / 189.0 \
            + 256.0 / (17.0 * 315.0) - 1024.0 / (33.0 * 9765.0)
        next_term = 4096.0 / (65.0 * 615195.0)
        assert abs(gr.eta_derivative_moment() - partial) < 1.01 * next_term
        assert gr.eta_derivative_moment() == pytest.approx(-0.0605621,
                                                           abs=1e-6)


def reference_q_coefficients(n_max):
    """The coefficient loop of q_coefficients, frozen."""
    a = np.empty(n_max + 1)
    a[0] = 1.0
    prod = 1.0
    for n in range(1, n_max + 1):
        prod *= 2.0 ** n - 1.0
        a[n] = 4.0 ** n / prod
    return a


def reference_q_eval(xi, N):
    """q_eval as it summed before the one shared sum, frozen."""
    xi_arr = np.asarray(xi, dtype=float)
    a = reference_q_coefficients(max(N, 2))
    n = np.arange(min(N, len(a) - 1) + 1)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    terms = signs * a[n] * np.exp(-np.outer(xi_arr.ravel(), 2.0 ** n))
    out = terms.sum(axis=1).reshape(xi_arr.shape)
    return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out


def reference_q_tail_bound(xi, N):
    a = reference_q_coefficients(max(N + 1, 2))
    n = min(N + 1, len(a) - 1)
    return float(a[n] * math.exp(-(2.0 ** n) * xi))


def reference_exq_eval(xi):
    xi_arr = np.asarray(xi, dtype=float)
    a = reference_q_coefficients(20)
    n = np.arange(len(a))
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    expo = np.outer(xi_arr.ravel(), 1.0 - 2.0 ** n)
    out = (signs * a[n] * np.exp(expo)).sum(axis=1).reshape(xi_arr.shape)
    return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out


def reference_c0_moment():
    total = 1.0
    prod = 1.0
    term = 1.0
    n = 1
    while abs(term) > 1e-18 and n < 40:
        prod *= 2.0 ** n - 1.0
        term = (-1.0) ** n / prod
        total += term
        n += 1
    return total


def reference_eta_derivative_moment():
    total = 0.5
    prod = 1.0
    for n in range(1, 40):
        prod *= 2.0 ** n - 1.0
        total += (-1.0) ** n * 4.0 ** n / ((1.0 + 2.0 ** n) * prod)
    return total


XS = np.concatenate([np.linspace(0.0, 30.0, 301), [1e-300, 1e-8, 700.0]])


class TestOneQTable:
    """The Q functions read one coefficient table and share one sum, byte
    for byte the loops each of them ran before."""

    @pytest.mark.parametrize("N", range(1, 21))
    def test_q_and_its_tail_bound(self, N):
        assert same_bytes(gr.q_eval(XS, N), reference_q_eval(XS, N))
        for x in XS.tolist():
            q, tail = gr.q_eval(x, N), gr.q_tail_bound(x, N)
            assert type(q) is float and type(tail) is float
            assert same_bytes(q, reference_q_eval(x, N))
            assert same_bytes(tail, reference_q_tail_bound(x, N))

    def test_exq_on_the_gauss_points_of_the_default_grid(self):
        g = fp.default_grid().g
        assert same_bytes(gr.exq_eval(g), reference_exq_eval(g))
        assert same_bytes(gr.exq_eval(XS), reference_exq_eval(XS))
        for x in XS.tolist():
            v = gr.exq_eval(x)
            assert type(v) is float and same_bytes(v, reference_exq_eval(x))

    def test_moments(self):
        # repr, so an equal numpy float would show here as in bench digests
        c0, d_eta = gr.c0_moment(), gr.eta_derivative_moment()
        assert type(c0) is float and type(d_eta) is float
        assert repr(c0) == repr(reference_c0_moment())
        assert repr(d_eta) == repr(reference_eta_derivative_moment())

    def test_only_the_table_forms_the_product(self):
        # a factor 2^j - 1 appears only in q_coefficients, no weight is a
        # product over pole differences, and numpy.polynomial is loaded only
        # for the contour quadrature's Gauss-Legendre rule, built once
        found, np_attrs = set(), {}

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.BinOp) \
                        and isinstance(child.op, ast.Sub) \
                        and isinstance(child.left, ast.BinOp) \
                        and isinstance(child.left.op, ast.Pow) \
                        and ast.unparse(child.left.left) in ("2", "2.0") \
                        and ast.unparse(child.right) in ("1", "1.0"):
                    found.add(scope)
                if isinstance(child, ast.Attribute) \
                        and isinstance(child.value, ast.Name) \
                        and child.value.id == "np":
                    np_attrs.setdefault(child.attr, set()).add(scope)
                visit(child, scope)

        visit(ast.parse(Path(gr.__file__).read_text()), "greens")
        assert found == {"q_coefficients"}
        assert "delete" not in np_attrs and "prod" not in np_attrs
        assert np_attrs["polynomial"] == {"_gauss_legendre_8"}

    def test_residue_weights_from_the_table(self):
        # c_n w against 60-digit partial fractions: 2.4e-16 relative at
        # worst for n <= 24
        for n in range(25):
            c_n = gr.term_coefficient(n)
            _, ref = residue_weights_mpmath(n, 60)
            cw = c_n * gr._residue_weights(n)
            for got, w in zip(cw.tolist(), ref):
                assert abs(got - c_n * w) <= 1e-15 * abs(c_n * w), n
        # two high-precision routes to Gtilde that share no weights
        for x, xi in [(2.0, 1.0), (5.0, 0.3), (40.0, 1e-4),
                      (1.0 + 1e-12, 1.0), (80.0, 1e-3)]:
            ref = gtilde_mpmath(x, xi)
            assert gtilde_steps_mpmath(x, xi) == pytest.approx(ref,
                                                               rel=1e-15)
        # at (80, 1e-3), where gtilde_exact returns 397.19
        assert ref == pytest.approx(-79.38035176207164, rel=1e-15)


class TestOnePanelRule:
    """One helper, gauss_panels, maps a Gauss rule onto panels for the
    fixed-point grid (3 points), the contour quadrature and the c0 moment
    (8 points each)."""

    @pytest.mark.parametrize("rule", [(fp._GL3_X, fp._GL3_W),
                                      gr._gauss_legendre_8()],
                             ids=["GL3", "GL8"])
    def test_rule_is_exact_on_polynomials(self, rule):
        edges = np.array([0.0, 0.25, 1.0, 1.5, 3.0])
        t, w = gr.gauss_panels(edges, *rule)
        assert t.shape == w.shape == (4 * len(rule[0]),)
        assert np.all(np.diff(t) > 0.0)
        for k in range(2 * len(rule[0])):  # degree 2m - 1 is exact
            assert np.sum(w * t ** k) == pytest.approx(
                3.0 ** (k + 1) / (k + 1), rel=1e-14)

    def test_gl3_literals_are_leggauss_to_one_ulp(self):
        # leggauss(3) gives the 5/9 weights one ulp high, which would move
        # K; the grid keeps the literals
        x, w = np.polynomial.legendre.leggauss(3)
        assert same_bytes(x, fp._GL3_X)
        assert np.all(np.abs(w - fp._GL3_W) <= np.spacing(fp._GL3_W))
        g, gw = gr.gauss_panels(fp.default_grid().x, fp._GL3_X, fp._GL3_W)
        assert same_bytes(g, fp.default_grid().g)
        assert same_bytes(gw, fp.default_grid().gw)

    def test_only_gauss_panels_maps_panels(self):
        # 0.5 (e[1:] +- e[:-1]), a panel's centre or half width, is formed
        # in gauss_panels alone
        found = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}")
                    continue
                if isinstance(child, ast.BinOp) \
                        and isinstance(child.op, (ast.Add, ast.Sub)) \
                        and {ast.unparse(side.slice) for side in
                             (child.left, child.right)
                             if isinstance(side, ast.Subscript)} \
                        == {"1:", ":-1"}:
                    found.add(scope)
                visit(child, scope)

        for path in sorted(Path(gr.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem)
        assert found == {"greens.gauss_panels"}


class TestOdeRoute:
    def test_pure_growth_before_the_fold(self):
        for x, xi in [(1.5, 1.0), (1.99, 1.0), (3.5, 2.0)]:
            assert gr.g_by_ode(x, xi) == pytest.approx(math.exp(x - xi),
                                                       rel=1e-8)

    def test_unit_jump_at_the_source(self):
        assert gr.g_by_ode(1.0, 1.0) == 1.0

    def test_unit_jump_within_the_end_tolerance(self):
        # a span the integrator cannot resolve keeps the jump value
        assert gr.g_by_ode(1.0 + 1e-13, 1.0) == 1.0

    def test_zero_before_the_source(self):
        assert gr.g_by_ode(0.5, 1.0) == 0.0

    def test_source_must_be_positive(self):
        with pytest.raises(DomainError):
            gr.g_by_ode(1.0, 0.0)

    def test_step_budget_bounds_a_run_without_series_start(self,
                                                           monkeypatch):
        # about 2e5 steps at tol 1e-14 from the jump at xi = 1 to x = 2; a
        # stop condition that never holds keeps the run from being refused
        # up front, so it spends the budget in the loop
        monkeypatch.setattr(dc, "MAX_STEPS", 1000)
        with pytest.raises(StepBudgetError) as info:
            dc.integrate(dc.linear_g_equation(),
                         dc.FunctionHistory(lambda s: 0.0, -math.inf, 1.0),
                         (1.0, 2.0), tol=1e-14, u0=1.0,
                         stop_condition=lambda t, u: False)
        err = info.value
        traj = err.trajectory
        assert 1.0 < err.location == traj.ts[-1] < 2.0
        assert len(traj.ts) - 1 + traj.n_rejected + traj.n_fallback == 1000
        assert str(err).startswith(
            f"linear-G run: step budget spent at t = {err.location:.6g} of 2 "
            f"({len(traj.ts) - 1} accepted, {traj.n_rejected} rejected")

    def test_run_over_its_step_floor_is_refused_up_front(self,
                                                         monkeypatch):
        # the order cap alone needs (2 - 1)/c - 1 = 1.58e5 steps at tol
        # 1e-14, c = 0.02 (1e-4)^0.9
        monkeypatch.setattr(dc, "MAX_STEPS", 1000)
        with pytest.raises(StepBudgetError) as info:
            gr.g_by_ode(2.0, 1.0, tol=1e-14)
        err = info.value
        assert err.trajectory is None and err.location == 1.0
        c = dc.H_REF * (1e-14 / dc.TOL_REF) ** dc.ORDER_EXP
        assert str(err) == (
            "linear-G run: refused before the first step, as the step-size "
            f"cap needs at least {(2.0 - 1.0) / c - 1.0:.4g} accepted steps "
            "from t = 1 to 2, over the step budget of 1000")

    def test_run_under_its_step_floor_is_not_refused(self, monkeypatch):
        # at tol 1e-10 the floor is 49 steps, and the run makes 160 attempts
        monkeypatch.setattr(dc, "MAX_STEPS", 60)
        with pytest.raises(StepBudgetError) as info:
            gr.g_by_ode(2.0, 1.0, tol=1e-10)
        assert info.value.trajectory is not None


class TestResidueRoute:
    def test_identity_below_the_fold(self):
        # all contour terms close rightward there; the sum telescopes to
        # G = e^(x-xi) exactly
        for x, xi in [(1.5, 1.0), (1.2, 1.0), (3.0, 2.0)]:
            assert gr.g_decomposition(x, xi) == pytest.approx(
                math.exp(x - xi), rel=1e-14)

    def test_n1_term_closed_forms(self):
        for x, xi in [(1.5, 1.0), (1.2, 1.0), (1.9, 1.0)]:
            term = gr.term_coefficient(1) * gr.contour_term_residues(
                1, x - 2.0 * xi)
            assert term == pytest.approx(4.0 * math.exp(x - 2.0 * xi),
                                         abs=1e-8)
        for x, xi in [(2.5, 1.0), (5.0, 1.0)]:
            term = gr.term_coefficient(1) * gr.contour_term_residues(
                1, x - 2.0 * xi)
            assert term == pytest.approx(4.0 * math.exp(0.5 * x - xi),
                                         abs=1e-8)

    def test_weights_sum_to_zero(self):
        for n in range(1, 8):
            w = gr._residue_weights(n)
            assert np.sum(w) == pytest.approx(0.0, abs=1e-8 * np.max(
                np.abs(w)))

    def test_value_at_source_edge(self):
        # G(xi+, xi) = 1 forces Gtilde(1+, 1) = 1 - e Q(1)
        val = gr.gtilde_exact(1.0 + 1e-12, 1.0)
        assert same_bytes(val, reference_gtilde(1.0 + 1e-12, 1.0))
        oracle = 1.0 - math.e * gr.q_eval(1.0)
        assert val == pytest.approx(oracle, rel=1e-9)
        assert val == pytest.approx(1.208766, abs=1e-5)


@functools.lru_cache(maxsize=None)
def residue_weights_mpmath(n, dps):
    """The poles 2^-j and partial-fraction weights of the n-th term."""
    import mpmath as mp
    with mp.workdps(dps):
        c = [mp.mpf(2) ** -j for j in range(n + 1)]
        return c, [1 / mp.fprod(c[j] - c[k] for k in range(n + 1) if k != j)
                   for j in range(n + 1)]


def gtilde_mpmath(x, xi, dps=60, terms=40, scale=None):
    """The residue sum for Gtilde, term by term in mpmath: the n-th term is
    (-1)^n 2^(2n) / 2^(n(n+1)/2) times the contour integral's residues.
    With scale = gw it returns the kernel entry e^(xi - x) Gtilde gw."""
    import mpmath as mp
    with mp.workdps(dps):
        x, xi = mp.mpf(x), mp.mpf(xi)
        total = mp.mpf(0)
        for n in range(1, terms + 1):
            c, w = residue_weights_mpmath(n, dps)
            a = x - 2 ** n * xi
            res = -w[0] * mp.exp(a) if a < 0 else \
                mp.fsum(w[j] * mp.exp(a * c[j]) for j in range(1, n + 1))
            total += (-1) ** n * mp.mpf(4) ** n \
                / mp.mpf(2) ** (n * (n + 1) // 2) * res
        if scale is not None:
            total *= mp.exp(xi - x) * mp.mpf(scale)
        return float(total)


def gtilde_steps_mpmath(x, xi, dps=80):
    """Gtilde by the method of steps, from the partial sums Q_m of Q's
    series and alpha_i = 2^i / prod_{j<=i} (1 - 2^-j):

        Gtilde = -e^x (Q - Q_nu)(xi) + sum_{i=1..nu} alpha_i e^(x/2^i)
                 Q_(nu-i)(xi),    nu = floor(log2(x/xi)),

    which uses no partial-fraction weight."""
    import mpmath as mp
    with mp.workdps(dps):
        x, xi = mp.mpf(x), mp.mpf(xi)
        nu = 0
        while 2 ** (nu + 1) * xi <= x:
            nu += 1
        terms, a = [], mp.mpf(1)
        for n in range(nu + 80):
            if n:
                a *= mp.mpf(4) / (2 ** n - 1)
            terms.append((-1) ** n * a * mp.exp(-(2 ** n) * xi))

        def q_partial(m):
            return mp.fsum(terms[:m + 1])

        total, alpha = -mp.exp(x) * mp.fsum(terms[nu + 1:]), mp.mpf(1)
        for i in range(1, nu + 1):
            alpha *= 2 / (1 - mp.mpf(2) ** -i)
            total += alpha * mp.exp(x / 2 ** i) * q_partial(nu - i)
        return float(total)


class TestResidueRouteAccuracy:
    # on the fixed-point kernel's domain, xi < x <= 40; the partial sums of
    # Q that the residue terms add up cancel most at x = 40 and small xi
    # (5.0e-8 there; the unfactored exponentials gave 7.35e-7 at
    # xi = 1e-3)
    @pytest.mark.parametrize("x", [0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0])
    def test_against_mpmath(self, x):
        xis = [1e-4, 1e-3, 1e-2, 0.1, 0.45 * x]
        ref = np.array([gtilde_mpmath(x, xi) for xi in xis])
        bound = 2e-7 * np.maximum(1.0, np.abs(ref))
        scalar = np.array([gr.gtilde_exact(x, xi) for xi in xis])
        x_col, xi_row = np.array([[x]]), np.array([xis])
        block = gr.gtilde_exact(x_col, xi_row)[0]
        assert same_bytes(block, reference_gtilde(x_col, xi_row)[0])
        assert np.all(np.abs(scalar - ref) <= bound)
        assert np.all(np.abs(block - ref) <= bound)


@functools.lru_cache(maxsize=None)
def frozen_residue_weights(n):
    """The partial-fraction weights as they were once computed, from the
    pole differences one by one."""
    c = 2.0 ** (-np.arange(n + 1.0))
    w = np.empty(n + 1)
    for j in range(n + 1):
        w[j] = 1.0 / np.prod(c[j] - np.delete(c, j))
    return w


def reference_residue_term(n, a, ex, exi, outer=False):
    """The n-th contour integral with both branches everywhere: the left
    branch by einsum, or on a column of x against a row of xi (outer) by
    one matrix product with the frozen weights, as the kernel fill once
    took it."""
    w = frozen_residue_weights(n) if outer else gr._residue_weights(n)
    u, v = ex[..., 1:n + 1] * w[1:], exi[..., n - 1::-1]
    left = u[:, 0] @ v[0].T if outer else np.einsum("...j,...j->...", u, v)
    return np.where(a < 0.0, -w[0] * ex[..., 0] * exi[..., n], left)


def reference_gtilde(x, xi, outer=False):
    """gtilde_exact's term loop with a new array for every pass."""
    x_arr = np.asarray(x, dtype=float)
    xi_arr = np.asarray(xi, dtype=float)
    ex, exi = gr._residue_factors(x_arr, xi_arr)
    total = np.zeros(np.broadcast_shapes(x_arr.shape, xi_arr.shape))
    for n in range(1, 25):
        a = x_arr - 2.0 ** n * xi_arr
        coef = gr.term_coefficient(n)
        if abs(coef) * math.exp(float(np.max(a, initial=-np.inf))) \
                < 1e-18 * (1.0 + float(np.max(np.abs(total)))) and n > 2:
            break
        total = total + coef * reference_residue_term(n, a, ex, exi, outer)
    return float(total) if total.ndim == 0 else total


def frozen_kernel(grid):
    """The volume kernel as FixedPointGrid filled it before each entry took
    its own residue branches: every 100-row block through the whole term
    loop, each left branch one product of the block's x against its g."""
    K = np.zeros_like(grid.K)
    for r0 in range(0, len(grid.x), 100):
        r1 = min(r0 + 100, len(grid.x))
        xb, gb = grid.x[r0:r1, None], grid.g[None, :3 * (r1 - 1)]
        Kb = K[r0:r1, :gb.size]
        Kb[...] = np.exp(np.minimum(gb - xb, 0.0)) \
            * reference_gtilde(xb, gb, outer=True) * grid.gw[:gb.size]
        Kb[np.arange(gb.size) // 3 >= np.arange(r0, r1)[:, None]] = 0.0
    return K


def same_bytes(new, ref):
    return np.asarray(new).tobytes() == np.asarray(ref).tobytes() \
        and np.shape(new) == np.shape(ref)


class TestResidueBufferBitwise:
    """gtilde_exact reorders no arithmetic: byte for byte the loop above."""

    def test_scalar_pairs_and_the_same_pairs_as_arrays(self):
        rng = np.random.default_rng(24)
        x, xi = rng.uniform(0.0, 40.0, 300), rng.uniform(0.0, 20.0, 300)
        scalars = [gr.gtilde_exact(a, b) for a, b in zip(x, xi)]
        assert all(isinstance(v, float) for v in scalars)
        assert same_bytes(scalars,
                          [reference_gtilde(a, b) for a, b in zip(x, xi)])
        assert same_bytes(gr.gtilde_exact(x, xi), reference_gtilde(x, xi))

    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_column_against_row(self, order):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 40.0, (40, 1))
        xi = rng.uniform(0.0, 30.0, (1, 300))
        if order == "sorted":
            x, xi = np.sort(x, axis=0), np.sort(xi, axis=1)
        assert same_bytes(gr.gtilde_exact(x, xi), reference_gtilde(x, xi))

    def test_a_zero_on_the_edges_of_the_band(self):
        # 2^n xi equal to min x and to max x: a = 0 takes the left branch
        x = np.array([[0.5], [1.0], [2.0], [4.0]])
        xi = np.array([[0.125, 0.25, 0.5, 1.0, 2.0, 4.0]])
        assert same_bytes(gr.gtilde_exact(x, xi), reference_gtilde(x, xi))

    def test_vector_x_against_scalar_xi(self):
        xs = 1.0 + np.linspace(0.05, 10.0, 120)
        assert same_bytes(gr.gtilde_exact(xs, 1.0), reference_gtilde(xs, 1.0))

    def test_terms_logged_per_block(self, caplog):
        # the kernel fill takes gtilde_exact's truncation on each block,
        # where gtilde_exact is byte for byte the loop above
        grid = fp.default_grid()
        with caplog.at_level(logging.DEBUG, logger="gelshoot"):
            fp.FixedPointGrid()
            for r0 in range(0, len(grid.x), 100):
                r1 = min(r0 + 100, len(grid.x))
                xb, gb = grid.x[r0:r1, None], grid.g[None, :3 * (r1 - 1)]
                assert same_bytes(gr.gtilde_exact(xb, gb),
                                  reference_gtilde(xb, gb)), r0
        msgs = [r.getMessage() for r in caplog.records]
        [built] = [m for m in msgs if m.startswith("kernel built")]
        assert built.endswith(" with (12, 12, 12, 14) residue terms")
        terms = [int(m.split()[1]) for m in msgs
                 if m.startswith("gtilde_exact:")]
        assert tuple(terms) == fp.KERNEL_TERMS == (12, 12, 12, 14)


@pytest.fixture(scope="module")
def kernels():
    """The default grid, its K and the frozen fill's K."""
    grid = fp.default_grid()
    return grid, grid.K, frozen_kernel(grid)


class TestKernelFill:
    """K from each entry's own residue branches, against the frozen fill
    and against mpmath."""

    def test_kernel_and_volume_against_the_frozen_fill(self, kernels):
        # measured: 3.0e-16 absolute, 3.0e-13 of the row's max|K|, and
        # volume within 6.0e-15 of max|volume|
        grid, K, ref = kernels
        assert np.array_equal(K == 0.0, ref == 0.0)
        diff = np.abs(K - ref)
        assert np.max(diff) <= 1e-15
        assert np.all(diff <= 2e-12 * np.max(np.abs(ref), axis=1)[:, None])
        for eps, eta in [(0.01, 0.01), (0.02, 0.005), (-0.01, 0.03),
                         (0.000205, 0.0009765625)]:
            st = fp.picard_solve(eps, eta)
            Rg = grid.r_terms(st.W, st.dW, grid.at_g, eps, eta)
            vol = grid.volume(Rg)
            assert np.max(np.abs(vol - ref @ Rg)) \
                <= 1e-13 * np.max(np.abs(vol))

    def test_sampled_entries_against_mpmath(self, kernels):
        # 300 kept entries at random and the 60 where the two fills differ
        # most; the frozen fill is off by 2.3e-16 and 1.4e-13 of the row's
        # max|K| on them, this one by 1.5e-16 and 1.6e-13
        grid, K, ref = kernels
        kept = np.argwhere(np.arange(len(grid.g))[None, :] // 3
                           < np.arange(len(grid.x))[:, None])
        rng = np.random.default_rng(30)
        picks = kept[rng.choice(len(kept), 300, replace=False)].tolist()
        worst = np.argsort(np.abs(K - ref), axis=None)[-60:]
        picks += np.column_stack(np.unravel_index(worst, K.shape)).tolist()
        row_max = np.max(np.abs(K), axis=1)
        for j, m in picks:
            exact = gtilde_mpmath(grid.x[j], grid.g[m], terms=30,
                                  scale=grid.gw[m])
            err = abs(K[j, m] - exact)
            assert err <= 1e-15 and err <= 1e-12 * row_max[j], (j, m)


class TestQuadratureRoute:
    BIG = gr.GreensEval(T_max=1e6, tail_target=1e-9)

    def test_three_route_agreement(self):
        for x, xi in [(2.0, 1.0), (3.0, 1.0), (5.0, 2.0)]:
            ode = gr.g_by_ode(x, xi, tol=1e-11)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                quad_route = math.exp(x) * gr.q_eval(xi) \
                    + gr.gtilde_quadrature(x, xi, self.BIG)
            assert abs(quad_route - ode) / abs(ode) < 1e-4

    def test_n1_quadrature_matches_closed_form(self):
        for x, xi in [(1.5, 1.0), (1.8, 1.0), (3.0, 2.0)]:
            val, tail = gr.contour_term_quadrature(1, x, xi, self.BIG)
            term = gr.term_coefficient(1) * val
            assert term == pytest.approx(4.0 * math.exp(x - 2.0 * xi),
                                         abs=1e-7)

    def test_truncation_warning_at_small_t_max(self):
        cfg = gr.GreensEval(T_max=200.0)
        with pytest.warns(TruncationWarning):
            gr.gtilde_quadrature(2.0, 1.0, cfg)

    @pytest.mark.parametrize("kw", [
        {"T_max": 0.0}, {"T_max": -5.0}, {"T_max": math.nan},
        {"T_max": math.inf}, {"T_max": 0.5}, {"tail_target": 0.0},
        {"tail_target": -1e-8}, {"tail_target": math.nan}],
        ids=lambda kw: "=".join(map(str, *kw.items())))
    def test_truncation_range_constrained(self, kw):
        with pytest.raises(DomainError):
            gr.GreensEval(**kw)


class TestBoundsAudit:
    def test_fitted_constants(self):
        rep = gr.bounds_audit()
        assert rep["c0_q"] < 1.01
        assert math.isfinite(rep["c0_q_lipschitz"])
        assert rep["rate_ok"]
        assert rep["gtilde_rate_fit"] <= rep["gtilde_rate_allowed"] + 0.01


class TestConvolutionProperty:
    def test_source_representation_solves_the_equation(self):
        # smooth compactly supported source on (0, 1)
        def s(u):
            u = np.asarray(u, dtype=float)
            out = np.zeros_like(u)
            inside = (u > 0.0) & (u < 1.0)
            ui = u[inside]
            out[inside] = np.exp(-1.0 / (ui * (1.0 - ui)))
            return out

        # phi(x) = int_0^x G(x, u) s(u) du by fine panel quadrature on the
        # residue route
        def phi(x):
            u = np.linspace(1e-9, min(x, 1.0), 4001)
            vals = gr.g_decomposition(np.full_like(u, x), u) * s(u)
            return np.trapezoid(vals, u)

        for x in (0.6, 1.3, 2.7):
            h = 1e-4
            dphi = (phi(x - 2 * h) - 8 * phi(x - h) + 8 * phi(x + h)
                    - phi(x + 2 * h)) / (12 * h)
            resid = dphi - phi(x) + 2.0 * phi(x / 2.0) - float(s(x))
            assert abs(resid) < 1e-5
