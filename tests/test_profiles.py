import ast
import inspect
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gelshoot
from gelshoot import asymptotics as asy
from gelshoot import profiles
from gelshoot import shooting as sh
from gelshoot import stability as stab
from gelshoot.delaycore import SeriesHistory
from gelshoot.errors import DomainError, NoSignChangeError, \
    SeriesOverflowError
from gelshoot.profiles import (GAMMA_MAX, LN2, PowerSeries,
                               explicit_solution_residual, local_series,
                               make_params, pantograph_series, series_eval,
                               series_switchover)
from gelshoot.profiles import (_quadratic_delay_series, bisect, bisect_root,
                               horner)


class TestMakeParams:
    def test_b_equal_b0_degenerate_point(self):
        p = make_params(2.0, 2.0)
        assert p.b0 == 2.0
        assert p.sigma == 1.0
        assert p.theta == 2.0
        assert p.phi_inf == 1.0

    def test_derived_exponents(self):
        p = make_params(2.0, 4.0)
        assert p.sigma == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert p.q == pytest.approx(2.0 ** -0.25, abs=1e-15)

    def test_phi_inf_gamma3(self):
        # 1 / (2^2 - 1), independent of b
        for b in (0.7, 1.0, 5.0):
            assert make_params(3.0, b).phi_inf == pytest.approx(1.0 / 3.0)

    def test_a_b_relation(self):
        p = make_params(2.7, 1.9)
        assert 1.0 / (1.0 + p.gamma - p.a) == pytest.approx(p.b, rel=1e-15)

    def test_delay_identity(self):
        for b in (0.3, 1.0, 2.5, 17.0):
            p = make_params(2.0, b)
            assert abs(p.d * p.b - LN2) <= 4.0 * math.ulp(LN2)
            assert 0.0 < p.q < 1.0
            assert p.eps_delay == pytest.approx(1.0 - p.q)

    def test_sigma_ordering(self):
        gamma = 2.5
        b0 = 2.0 / (gamma - 1.0)
        assert make_params(gamma, b0).sigma == pytest.approx(1.0, abs=1e-14)
        assert make_params(gamma, 1.5 * b0).sigma > 1.0
        assert make_params(gamma, 0.8 * b0).sigma < 1.0

    @pytest.mark.parametrize("gamma,b", [(1.0, 1.0), (0.5, 2.0),
                                         (2.0, 0.0), (2.0, -1.0)])
    def test_domain_errors(self, gamma, b):
        with pytest.raises(DomainError):
            make_params(gamma, b)

    def test_gamma_max_is_the_overflow_edge(self):
        assert math.isfinite(2.0 ** GAMMA_MAX)
        above = math.nextafter(GAMMA_MAX, math.inf)
        with pytest.raises(OverflowError):
            2.0 ** above
        p = make_params(GAMMA_MAX, 2.0)
        assert math.isfinite(p.theta) and p.phi_inf > 0.0
        with pytest.raises(DomainError, match="GAMMA_MAX"):
            make_params(above, 2.0)
        with pytest.raises(DomainError, match="GAMMA_MAX"):
            make_params(math.inf, 2.0)


class TestLocalSeries:
    def test_collapses_at_b0(self):
        s = local_series(make_params(2.0, 2.0), 10)
        assert s.coefficients[0] == 1.0
        assert np.max(np.abs(s.coefficients[1:])) == 0.0

    def test_hand_evaluated_recursion(self):
        # independent arithmetic: sigma = sqrt2, q = 2^(-1/4)
        sigma = math.sqrt(2.0)
        q = 2.0 ** -0.25
        a1 = 1.0 - sigma
        a2 = 0.5 * (1.0 - sigma * q) * (2.0 * a1)
        s = local_series(make_params(2.0, 4.0), 2)
        assert s.coefficients[1] == pytest.approx(a1, rel=1e-15)
        assert s.coefficients[2] == pytest.approx(a2, rel=1e-15)
        assert s.coefficients[1] == pytest.approx(-0.4142136, abs=1e-7)
        assert s.coefficients[2] == pytest.approx(0.0783722, abs=1e-7)

    @pytest.mark.parametrize("gamma,b", [(2.0, 3.0), (2.0, 10.0),
                                         (3.0, 1.5), (5.0, 0.7)])
    def test_first_coefficient_negative_above_b0(self, gamma, b):
        p = make_params(gamma, b)
        assert b > p.b0
        s = local_series(p, 3)
        assert s.coefficients[1] == pytest.approx(-(p.sigma - 1.0))
        assert s.coefficients[1] < 0.0

    @pytest.mark.parametrize("gamma,b", [(2.0, 4.0), (3.0, 2.0),
                                         (2.0, 2.3), (13.0, 1.0)])
    def test_geometric_coefficient_bound(self, gamma, b):
        p = make_params(gamma, b)
        s = local_series(p, 40)
        c = max(abs(p.sigma - 1.0), 1.0)
        n = np.arange(41)
        assert np.all(np.abs(s.coefficients) <= c ** n * (1.0 + 1e-12))
        assert s.validity_radius_estimate == pytest.approx(1.0 / c)

    def test_overflow_is_typed(self, recwarn):
        with pytest.raises(SeriesOverflowError) as info:
            local_series(make_params(30.0, 3.0), 40)
        assert 1 < info.value.order <= 40
        assert "gamma=30, b=3" in str(info.value)
        assert not [w for w in recwarn if w.category is RuntimeWarning]


class TestSeriesEval:
    def test_constant_series(self):
        s = local_series(make_params(2.0, 2.0), 10)
        assert series_eval(s, 0.5) == 1.0

    def test_frozen_quadratic(self):
        s = PowerSeries(np.array([1.0, -0.4142136, 0.0783722]), 1.0)
        # 1 - 0.04142136 + 0.000783722
        assert series_eval(s, 0.1) == pytest.approx(0.959362362, abs=1e-9)

    def test_at_origin_gives_a0(self):
        s = PowerSeries(np.array([0.73, 4.0, -2.0]), 1.0)
        assert series_eval(s, 0.0) == 0.73

    def test_vector_eval_matches_scalar(self):
        s = local_series(make_params(2.0, 4.0), 20)
        ys = np.linspace(0.0, 0.4, 7)
        assert SeriesHistory(s, 0.4).eval_many(ys) == pytest.approx(
            [series_eval(s, y) for y in ys], rel=1e-15)

    def test_switchover_respects_tolerance(self):
        s = local_series(make_params(2.0, 4.0), 40)
        y0 = series_switchover(s)
        assert abs(s.coefficients[-1]) * y0 ** s.order < 1e-14


class TestBisectRoot:
    def test_ends_on_adjacent_doubles(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        root = bisect_root(f, 0.0, 2.0)
        # root is the end with the smaller |f| of the two adjacent doubles
        # between which f changes sign
        lo = root if f(root) < 0.0 else math.nextafter(root, -math.inf)
        hi = math.nextafter(lo, math.inf)
        assert f(lo) < 0.0 <= f(hi)
        assert abs(f(root)) == min(abs(f(lo)), abs(f(hi)))
        assert len(calls) < 64

    @pytest.mark.parametrize("offset, left", [(0.3e-16, False),
                                              (0.8e-16, True)])
    def test_returns_the_end_with_smaller_residual(self, offset, left):
        # f changes sign between 1 - 2^-53 (f = offset - 2^-53) and 1
        # (f = offset)
        root = bisect_root(lambda x: (x - 1.0) + offset, 0.0, 2.0)
        assert root == (math.nextafter(1.0, 0.0) if left else 1.0)

    def test_exact_zero_stops_at_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.75

        assert bisect_root(f, 0.0, 0.75) == 0.75
        assert calls == [0.0, 0.75]
        assert bisect_root(lambda x: x - 0.5, 0.0, 2.0) == 0.5

    def test_takes_no_tolerance(self):
        assert list(inspect.signature(bisect_root).parameters) == [
            "f", "lo", "hi"]

    def test_no_bracket_is_typed(self):
        with pytest.raises(NoSignChangeError):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)
        with pytest.raises(NoSignChangeError):
            bisect_root(lambda x: math.nan, 0.0, 1.0)


class TestBisect:
    def test_stops_at_width(self):
        # a sign side halves, so it stops at the first bracket under width;
        # the secant point of x - 1/3 is its root, so a curved f shows the
        # width stop of secant steps
        lo, f_lo, hi, f_hi = bisect(lambda x: -1.0 if x < 1.0 / 3.0 else 1.0,
                                    0.0, 1.0, 1e-3)
        assert hi - lo <= 1e-3 < 2.0 * (hi - lo)
        assert f_lo == -1.0 and f_hi == 1.0 and lo < 1.0 / 3.0 <= hi
        lo, f_lo, hi, f_hi = bisect(lambda x: x * x - 0.1, 0.0, 1.0, 1e-3)
        assert hi - lo <= 1e-3
        assert f_lo == lo * lo - 0.1 < 0.0 <= f_hi == hi * hi - 0.1

    def test_exact_zero_stops_at_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        # the secant point of the two ends is the root
        assert bisect(f, 0.0, 2.0, 1e-9) == (0.0, -0.5, 0.5, 0.0)
        assert calls == [0.0, 2.0, 0.5]

    @pytest.mark.parametrize("width", [0.0, -1.0, 1e-300])
    def test_ends_on_adjacent_doubles(self, width):
        lo, f_lo, hi, f_hi = bisect(lambda x: x * x - 2.0, 0.0, 2.0, width)
        assert hi == math.nextafter(lo, math.inf)
        assert f_lo < 0.0 < f_hi

    def test_signs_not_values_drive_it(self):
        step = bisect(lambda x: -1.0 if x * x < 2.0 else 1.0, 1.0, 2.0, 0.0)
        root = bisect(lambda x: x * x - 2.0, 1.0, 2.0, 0.0)
        assert (step[0], step[2]) == (root[0], root[2])

    @pytest.mark.parametrize("f", [lambda x: x + 1.0, lambda x: x - 2.0,
                                   lambda x: 1.0 - x, lambda x: math.nan])
    def test_bad_ends_are_typed(self, f):
        with pytest.raises(NoSignChangeError):
            bisect(f, 0.0, 1.0, 0.0)


def reference_bisect(f, lo, hi, width):
    """profiles.bisect as the halving loop it was before its secant
    steps."""
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo < 0.0 <= f_hi:
        raise NoSignChangeError(lo, f_lo, hi, f_hi)
    while f_hi != 0.0 and hi - lo > width:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, f_lo, hi, f_hi


def _sign_side(r0, r1):
    """-1 below r0, 0 on [r0, r1), 1 from r1: a classifier's side."""
    return lambda x: -1.0 if x < r0 else (0.0 if x < r1 else 1.0)


def _g_t_star(eta):
    return lambda t: t - asy._q(t) - (2.0 * eta - 1.0)


def _g_alpha(b):
    return lambda al: b * al / (2.0 * -math.expm1(-al * LN2)) - 1.0


def _a_root_of(f, x) -> bool:
    """f is 0 at x, or changes sign between x and a neighbouring double."""
    below = [f(y) < 0.0 for y in (math.nextafter(x, -math.inf), x,
                                  math.nextafter(x, math.inf))]
    return f(x) == 0.0 or below[0] != below[1] or below[1] != below[2]


def _band(f, x, reach=400):
    """The doubles within reach ulps of x, from the first to the last where
    the sign of the computed f (-1, 0 or 1) changes."""
    xs = [x]
    for _ in range(reach):
        xs = [math.nextafter(xs[0], -math.inf)] + xs + [
            math.nextafter(xs[-1], math.inf)]
    signs = [(f(y) > 0.0) - (f(y) < 0.0) for y in xs]
    ends = [i for i in range(len(xs) - 1) if signs[i] != signs[i + 1]]
    return xs[ends[0]:ends[-1] + 2]


ROOTS = [(asy.t_star, _g_t_star, 0.6), (asy.t_star, _g_t_star, 1.0),
         (asy.t_star, _g_t_star, 5.0), (asy.alpha_root, _g_alpha, 0.8),
         (asy.alpha_root, _g_alpha, 1.2)]


class TestSecantSteps:
    @pytest.mark.parametrize("width", [0.0, 1e-3, 1e-9])
    def test_sign_sides_keep_the_halving_brackets(self, width):
        rng = random.Random(26)
        for _ in range(700):
            if rng.random() < 0.5:
                lo = rng.uniform(-5.0, 5.0)
                hi = lo + 10.0 ** rng.uniform(-6.0, 2.0)
            else:  # hi/lo from 1 to 1e4
                lo = 10.0 ** rng.uniform(-3.0, 1.0)
                hi = lo * 10.0 ** rng.uniform(0.0, 4.0)
            r0 = rng.uniform(lo, hi)
            r1 = r0 + (hi - lo) * rng.choice([0.0, 1e-12, 1e-4, 0.1])
            f = _sign_side(r0, r1)
            if not f(lo) < 0.0 <= f(hi):
                continue
            assert bisect(f, lo, hi, width) == reference_bisect(
                f, lo, hi, width), (lo, hi, r0, r1)

    @pytest.mark.parametrize("gamma, ends", [
        (2.0, (2.243112396700094, 2.243637045505062)),
        (10.0, (1.001638089597294, 1.0025433086973554))])
    def test_classifier_bracket_is_pinned(self, gamma, ends):
        # the ends bracket_bbar returned when bisect only halved
        br = sh.bracket_bbar(gamma)
        assert (br.b_lo, br.b_hi) == ends

    def test_winding_transition_is_pinned(self):
        assert stab.b_star_by_winding(2.0) == 2.5374636072475107

    @pytest.mark.parametrize("root, g, arg", ROOTS)
    def test_smooth_roots_in_few_evaluations(self, root, g, arg,
                                             monkeypatch):
        # the halving loop took 53-57 evaluations for t* and 51-52 for
        # alpha at these points
        calls = []

        def counting(f, *args):
            return bisect(lambda x: calls.append(x) or f(x), *args)

        monkeypatch.setattr(profiles, "bisect", counting)
        x = root(arg)
        assert len(calls) <= 15
        assert _a_root_of(g(arg), x)

    @pytest.mark.parametrize("root, g, arg", ROOTS)
    def test_root_as_halving_found_it_or_in_its_band(self, root, g, arg,
                                                     monkeypatch):
        # where the computed f changes sign once and is 0 at one double at
        # most, the root is the halving loop's; elsewhere (t*(1): 0 at two
        # doubles; alpha(0.8): at four; alpha(1.2): five sign changes) both
        # lie in the band where f changes sign or is 0
        x = root(arg)
        monkeypatch.setattr(profiles, "bisect", reference_bisect)
        halved = root(arg)
        band = _band(g(arg), halved)
        if [(g(arg)(y) > 0.0) - (g(arg)(y) < 0.0) for y in band] in (
                [-1, 1], [-1, 0, 1]):
            assert x == halved
        assert band[0] <= x <= band[-1] and band[0] <= halved <= band[-1]

    def test_a_crawling_secant_is_halved(self):
        # secant steps close in on the fifth-order root of (x - 0.3)^5 from
        # one side, by a factor 4/5 a step, without moving the far end:
        # the bracket must halve over every four evaluations
        calls = []
        lo, f_lo, hi, f_hi = bisect(
            lambda x: calls.append(x) or (x - 0.3) ** 5, 0.0, 1.0, 0.0)
        widths, a, b = [1.0], 0.0, 1.0
        for x in calls[2:]:
            a, b = (x, b) if (x - 0.3) ** 5 < 0.0 else (a, x)
            widths.append(b - a)
        assert (a, b) == (lo, hi)
        assert all(w <= 0.5 * w_before
                   for w, w_before in zip(widths[4:], widths))
        # 0.3 lies in [2^-2, 2^-1), where doubles are 2^-54 apart
        assert hi - lo == 2.0 ** -54 or f_hi == 0.0
        assert len(calls) <= 2 + 4 * 54

    def test_start_leaves_the_ends_unevaluated(self):
        calls = []
        lo, f_lo, hi, f_hi = bisect(lambda x: calls.append(x) or x - 0.25,
                                    0.0, 1.0, 0.0, (0.3, 1.0, 1e-12))
        # a Newton step of the true slope from 0.3 reaches 0.25 at once
        assert calls == [0.3, 0.25] and f_hi == 0.0
        assert f_lo is None and lo == 0.0

    def test_start_checks_the_ends_when_a_step_leaves_them(self):
        calls = []
        with pytest.raises(NoSignChangeError):
            bisect(lambda x: calls.append(x) or -1.0, 0.0, 1.0, 0.0,
                   (0.5, 1.0, 0.0))
        # 0.5 + 1 lies off [0.5, 1]: only the unevaluated hi is checked
        assert calls == [0.5, 1.0]


# the spellings of a bracket's midpoint, as ast.unparse writes them
MIDPOINTS = {"0.5 * (lo + hi)", "0.5 * (hi + lo)", "(lo + hi) * 0.5",
             "(lo + hi) / 2", "(lo + hi) / 2.0", "0.5 * lo + 0.5 * hi",
             "0.5 * hi + 0.5 * lo"}


def _is_midpoint(node) -> bool:
    # an index midpoint (a + b) // 2 halves an integer bracket of any names
    if not isinstance(node, ast.BinOp):
        return False
    return ast.unparse(node) in MIDPOINTS or (
        isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and ast.unparse(node.right) == "2")


def _halving_loops() -> set:
    """Qualified names of the scopes under src/gelshoot that take the
    midpoint of a lo/hi pair inside a for or while loop.  A midpoint outside
    a loop (the value returned from a finished bracket) halves nothing."""
    found = set()

    def visit(node, scope, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}", False)
                continue
            if in_loop and _is_midpoint(child):
                found.add(scope)
            visit(child, scope,
                  in_loop or isinstance(child, (ast.For, ast.While)))

    for path in sorted(Path(gelshoot.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    return found


class TestOneHalvingLoop:
    def test_only_bisect_halves_a_bracket(self):
        # bisect is the one bracketing loop: its secant steps serve the eps
        # root (eps_of_eta and bbar_of_gamma), t* and alpha, and its
        # halving the classifier and winding brackets; the series
        # switchover's index search is the stdlib bisect_left
        assert _halving_loops() == {"profiles.bisect"}

    @pytest.mark.parametrize("text, found", [
        ("0.5*(lo+hi)", True), ("0.5 * lo + 0.5 * hi", True),
        ("(lo + hi) / 2", True), ("0.5 * (x + y)", False),
        ("0.5 * (self.x[1:] + self.x[:-1])", False),
        ("(lo + bad) // 2", True), ("(n + 1) // 3", False)])
    def test_the_scan_sees_the_midpoint(self, text, found):
        node = ast.parse(text, mode="eval").body
        assert _is_midpoint(node) == found


class TestPantographSeries:
    def test_exponential_at_critical_parameters(self):
        # p = 1/2, eta = 0 gives the coefficients of e^(-y)
        s = pantograph_series(0.5, 0.0, 12)
        for n in range(13):
            assert s.coefficients[n] == pytest.approx(
                (-1.0) ** n / math.factorial(n), rel=1e-12)

    def test_overflow_is_typed(self, recwarn):
        # a1 = eta - 1 ~ 1e200, so a2 ~ a1^2 leaves the double range
        with pytest.raises(SeriesOverflowError) as info:
            pantograph_series(0.5, 1e200, 12)
        assert info.value.order == 2
        assert "p=0.5, eta=1e+200" in str(info.value)
        assert not [w for w in recwarn if w.category is RuntimeWarning]


def mp_series(c0, c1, r, N):
    """The recursion of _quadratic_delay_series in 50-digit arithmetic
    from the same doubles, and the scale (|c0| + |c1| r^n)/(n+1)
    sum_k |a_k a_n-k| of each a_n+1."""
    with mp.workdps(50):
        c0, c1, r = mp.mpf(c0), mp.mpf(c1), mp.mpf(r)
        a, scales = [mp.mpf(1)], []
        for n in range(N):
            terms = [a[k] * a[n - k] for k in range(n + 1)]
            a.append((c0 - c1 * r ** n) / (n + 1) * mp.fsum(terms))
            scales.append((abs(c0) + abs(c1) * r ** n) / (n + 1)
                          * mp.fsum(abs(t) for t in terms))
        return a, scales


class TestSeriesOracle:
    # the order in which a convolution is summed is not part of the
    # contract, only the error against its terms: a relative bound alone
    # fails where a coefficient nearly cancels, as a_2 does at b = 3
    @staticmethod
    def check(a, c0, c1, r):
        ref, scales = mp_series(c0, c1, r, len(a) - 1)
        for n, scale in enumerate(scales):
            assert abs(a[n + 1] - ref[n + 1]) <= 1e-13 * scale, n + 1

    @pytest.mark.parametrize("gamma,b", [(2.0, 3.0), (2.0, 10.0),
                                         (2.0, 1000.0), (2.0, 2.3),
                                         (1.2, 12.0), (3.0, 1.5),
                                         (5.0, 0.7), (13.0, 1.0)])
    def test_local_series(self, gamma, b):
        p = make_params(gamma, b)
        self.check(local_series(p, 40).coefficients, 1.0, p.sigma, p.q)

    @pytest.mark.parametrize("p,eta", [(0.5, 0.0), (0.75, 0.3),
                                       (0.9, 2.0)])
    def test_pantograph_series(self, p, eta):
        self.check(pantograph_series(p, eta, 40).coefficients, eta, 1.0, p)


class TestExplicitResiduals:
    GRID = np.geomspace(0.1, 10.0, 300)

    def test_power_law_at_b0(self):
        assert explicit_solution_residual(
            make_params(2.0, 2.0), "Phi0", self.GRID) < 1e-12

    @pytest.mark.parametrize("b", [2.5, 5.0, 10.0])
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_constant_solution_any_b(self, gamma, b):
        assert explicit_solution_residual(
            make_params(gamma, b), "PhiInf", self.GRID) < 1e-12

    def test_h_form_of_the_constant(self):
        assert explicit_solution_residual(
            make_params(2.0, 5.0), "HInf", self.GRID) < 1e-12

    def test_residual_stable_under_grid_refinement(self):
        p = make_params(2.0, 3.0)  # Phi0 is not a solution here
        coarse = explicit_solution_residual(p, "Phi0",
                                            np.geomspace(0.1, 10.0, 100))
        fine = explicit_solution_residual(p, "Phi0",
                                          np.geomspace(0.1, 10.0, 800))
        assert coarse > 1e-3  # genuinely nonzero residual
        assert fine <= 1.2 * coarse + 1e-14

    def test_bad_grid_rejected(self):
        p = make_params(2.0, 3.0)
        with pytest.raises(DomainError):
            explicit_solution_residual(p, "Phi0", np.array([-1.0, 2.0]))
        with pytest.raises(DomainError):
            explicit_solution_residual(p, "Phi0", np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            explicit_solution_residual(p, "nope", self.GRID)
        with pytest.raises(DomainError):
            explicit_solution_residual(p, "Phi0", np.ones((2, 2)))

    @pytest.mark.parametrize("gamma,which,grid", [
        (5.0, "Phi0", [1.0, 1e200]),     # x^2 overflows
        (2.0, "HInf", [1e-300, 1.0])])   # y^2 underflows to 0
    def test_closed_form_past_the_doubles_is_nan(self, gamma, which, grid):
        # the residual numpy's arrays gave, not an OverflowError or a
        # ZeroDivisionError from the float forms
        assert math.isnan(explicit_solution_residual(
            make_params(gamma, 0.5), which, grid))


# property tests: fixed example sequences, no per-example deadline
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


class TestProperties:
    @PROPERTY
    @given(c0=st.floats(0.1, 3.0), c1=st.floats(0.1, 3.0),
           r=st.floats(0.05, 0.95), N=st.integers(20, 60))
    def test_series_solves_its_equation(self, c0, c1, r, N):
        # |a_n| <= C^n with C = sup_n |c0 - c1 r^n| <= max(|c0 - c1|, c0)
        a = _quadratic_delay_series(c0, c1, r, N, "property test")
        radius = 1.0 / max(abs(c0 - c1), c0, 1.0)
        y = np.linspace(0.0, series_switchover(
            PowerSeries(a, validity_radius_estimate=radius)), 50)
        u, u_r = horner(a, y), horner(a, r * y)
        du = horner(np.arange(1, N + 1) * a[1:], y)
        scale = np.abs(du) + c0 * u * u + c1 * u_r * u_r
        assert np.all(np.abs(du - c0 * u * u + c1 * u_r * u_r)
                      <= 1e-12 * scale)

    @PROPERTY
    @given(log_radius=st.floats(-12.0, 3.0), growth=st.floats(0.1, 10.0),
           N=st.integers(2, 40), bounded=st.booleans())
    def test_switchover_bisection_finds_the_scan_point(
            self, log_radius, growth, N, bounded):
        # the last grid point whose three top terms pass, found by scanning
        # all 400; a radius below 1e-8 turns the grid downward
        radius = 10.0 ** log_radius if bounded else math.inf
        c = growth / min(radius, 1.0)
        a = [c ** n if n * math.log10(c) < 300.0 else 1e300
             for n in range(N + 1)]
        s = PowerSeries(tuple(a), validity_radius_estimate=radius)
        grid = list(map(profiles.log_grid(
            1e-8, 0.95 * (radius if bounded else 1.0), 400), range(400)))
        ok = [y for y in grid
              if a[N] * y ** N + a[N - 1] * y ** (N - 1)
              + a[N - 2] * y ** (N - 2) < 1e-14]
        assert series_switchover(s) == (ok[-1] if ok else grid[0])

    @PROPERTY
    @given(lo=st.floats(1e-9, 1e3), ratio=st.floats(1e-6, 1e8),
           n=st.integers(2, 500))
    def test_log_grid_matches_numpy(self, lo, ratio, n):
        y = list(map(profiles.log_grid(lo, lo * ratio, n), range(n)))
        ref = np.geomspace(lo, lo * ratio, n)
        assert (y[0], y[-1]) == (ref[0], ref[-1]) and len(y) == n
        assert np.allclose(y, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 4000])
    @pytest.mark.parametrize("lo, hi", [
        (-4.0, 4.0), (0.3, 7.7), (5.0, 3.0), (-2.0, 0.0), (2.0, 2.0),
        (0.0, 5e-324)])  # a step that underflows to 0
    def test_lin_grid_is_numpy_linspace(self, lo, hi, n):
        # the one grid of parse_grid, stability_empirical and curve_samples
        got = profiles.lin_grid(lo, hi, n)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.linspace(lo, hi, n).tobytes()

    @PROPERTY
    @given(lo=st.floats(-1e300, 1e300), hi=st.floats(-1e300, 1e300),
           n=st.integers(1, 300))
    def test_lin_grid_matches_numpy_bit_for_bit(self, lo, hi, n):
        assert np.array(profiles.lin_grid(lo, hi, n)).tobytes() \
            == np.linspace(lo, hi, n).tobytes()
