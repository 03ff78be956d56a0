import cmath
import logging
import math
import random
import time

import numpy as np
import pytest

from gelshoot import stability as st
from gelshoot.errors import DomainError, OriginOnCurveError, \
    SampleBudgetError, WindingCountError
from gelshoot.profiles import GAMMA_MAX, make_params

B_STAR_2 = 2.5374403762870340        # frozen high-precision evaluation
B_STAR_LIMIT = 3.0 * math.sqrt(3.0) * math.log(2.0) / math.pi


class TestBStar:
    def test_gamma_two(self):
        assert st.b_star(2.0) == pytest.approx(B_STAR_2, rel=1e-14)

    def test_large_gamma_limit(self):
        assert st.b_star(30.0) == pytest.approx(B_STAR_LIMIT, abs=1e-3)

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_exceeds_b0_everywhere(self, gamma):
        assert st.b_star(gamma) > 2.0 / (gamma - 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            st.b_star(1.0)

    def test_finite_up_to_gamma_max(self):
        assert math.isfinite(st.b_star(GAMMA_MAX))
        with pytest.raises(DomainError, match="GAMMA_MAX"):
            st.b_star(math.nextafter(GAMMA_MAX, math.inf))

    def test_finite_from_the_second_double_above_one(self):
        # at 1 + 2^-52, 0.5 + 2^-gamma rounds to 1 and acos to 0: once a
        # ZeroDivisionError
        gamma = math.nextafter(1.0, 2.0)
        with pytest.raises(DomainError, match=repr(gamma)):
            st.b_star(gamma)
        assert math.isfinite(st.b_star(math.nextafter(gamma, 2.0)))


class TestPRatio:
    def test_matches_b_star_over_b0(self):
        rho = 1.0 - 2.0 ** -1.0       # gamma = 2
        assert st.p_ratio(rho) == pytest.approx(st.b_star(2.0) / 2.0,
                                                rel=1e-13)

    def test_tends_to_one_from_above(self):
        assert st.p_ratio(1e-6) == pytest.approx(1.0, abs=1e-3)
        assert st.p_ratio(1e-6) > 1.0

    def test_above_one_on_the_interval(self):
        for rho in np.linspace(0.01, 0.99, 50):
            assert st.p_ratio(float(rho)) > 1.0

    def test_domain(self):
        for rho in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                st.p_ratio(rho)


def crossing_count(gamma, b):
    # closed form: the pairs of roots that crossed the imaginary axis as dt
    # grew, #{k >= 0 : dt > (arccos st + 2 pi k) / sqrt(1 - st^2)}; the
    # package itself counts by the argument principle only
    cp = st.CharProblem.from_params(make_params(gamma, b))
    s, q = cp.sigma_tilde, math.sqrt(1.0 - cp.sigma_tilde ** 2)
    k = 0
    while cp.d_tilde > (math.acos(s) + 2.0 * math.pi * k) / q:
        k += 1
    return k


class TestWinding:
    def test_stable_side_no_turns(self):
        p = make_params(2.0, 3.0)
        cp = st.CharProblem.from_params(p)
        assert cp.d_tilde == pytest.approx(4.0 * math.log(2.0) / 3.0,
                                           rel=1e-14)
        assert cp.d_tilde < cp.d_star
        assert st.winding_number(p).winding == 0

    def test_first_unstable_pair(self):
        p = make_params(2.0, 2.3)
        cp = st.CharProblem.from_params(p)
        assert cp.d_tilde == pytest.approx(1.2055, abs=1e-4)
        assert cp.d_tilde > cp.d_star
        w = st.winding_number(p)
        assert w.winding == 1
        assert w.root_count == 2

    def test_turn_count_increases_deep_in_instability(self):
        winds = [st.winding_number(make_params(2.0, b)).winding
                 for b in (2.3, 0.25, 0.1)]
        assert winds == sorted(winds)
        assert winds[-1] > winds[0]

    def test_invariant_under_refinement(self, monkeypatch):
        # a larger half-disk is sampled afresh and must hold the same roots
        cases = [(2.0, 2.3), (2.0, 0.1), (1.2, 0.05), (3.0, 1e6)]
        counts = [st.winding_number(make_params(gamma, b)).winding
                  for gamma, b in cases]
        assert counts == [crossing_count(gamma, b) for gamma, b in cases]
        monkeypatch.setattr(st, "DISK_RADIUS", 8.0)
        assert counts == [st.winding_number(make_params(gamma, b)).winding
                          for gamma, b in cases]

    def test_sigma_tilde_range(self):
        for gamma in (1.2, 2.0, 6.0):
            cp = st.CharProblem.from_params(make_params(gamma, 3.0))
            assert 0.5 < cp.sigma_tilde < 1.0

    def test_boundary_behaviour(self):
        bs = st.b_star(2.0)
        try:
            st.winding_number(make_params(2.0, bs))
            boundary_resolved = True
        except OriginOnCurveError:
            boundary_resolved = False
        if boundary_resolved:
            # transition must happen within +-1e-4 of the closed form
            assert st.winding_number(make_params(2.0, bs + 1e-4)).winding \
                == 0
            assert st.winding_number(make_params(2.0, bs - 1e-4)).winding \
                == 1

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("k", range(3, 16))
    def test_near_boundary_counts_right_or_declines(self, k, side):
        # within about 1e-8 of b_star the samples step over the pass near
        # the origin: the count must be declined there, never wrong (it
        # used to read 0 at b_star - 1e-9); from 1e-6 out it must resolve
        b = st.b_star(2.0) + side * 10.0 ** -k
        try:
            w = st.winding_number(make_params(2.0, b))
        except OriginOnCurveError:
            assert k > 6
            return
        assert w.winding == (1 if side < 0.0 else 0)

    @pytest.mark.parametrize("turns", [0.5, 1.0, -2.0])
    def test_bad_count_is_a_numerical_error(self, monkeypatch, turns):
        monkeypatch.setattr(st, "_unwrapped_angle_sum",
                            lambda z: 2.0 * math.pi * turns)
        with pytest.raises(WindingCountError):
            st.winding_number(make_params(2.0, 2.3))

    def test_bisection_matches_closed_form(self):
        assert st.b_star_by_winding(2.0, 1e-4) == pytest.approx(
            st.b_star(2.0), abs=1e-3)

    def test_bisection_stops_at_adjacent_doubles(self, monkeypatch):
        # a tol_b below the spacing of doubles used to bisect forever; an
        # exact step at b_star stands in for the winding count, which stops
        # resolving roots this close to the boundary
        ref = st.b_star(2.0)
        calls = []

        def step(params):
            calls.append(params.b)
            w = int(params.b < ref)
            return st.WindingResult(winding=w, root_count=2 * w,
                                    curve=np.empty(0), min_distance=1.0)

        monkeypatch.setattr(st, "winding_number", step)
        b = st.b_star_by_winding(2.0, tol_b=1e-300)
        assert abs(b - ref) <= 2.0 * np.spacing(ref)
        assert len(calls) < 60


def oracle_grid(n, seed):
    # gamma uniform on [1.02, 40], b log-uniform on [0.02, 3000]
    rng = random.Random(seed)
    return [(rng.uniform(1.02, 40.0),
             math.exp(rng.uniform(math.log(0.02), math.log(3000.0))))
            for _ in range(n)]


class TestCertifiedCount:
    def test_matches_the_crossing_count(self):
        for gamma, b in oracle_grid(240, 19):
            w = st.winding_number(make_params(gamma, b))
            assert w.winding == crossing_count(gamma, b), (gamma, b)

    def test_any_half_disk_that_holds_the_roots_counts(self, monkeypatch):
        # the unstable roots have |lam| <= 1 + st = 1.75 at gamma = 2
        monkeypatch.setattr(st, "DISK_RADIUS", 2.0)
        assert st.winding_number(make_params(2.0, 2.3)).winding == 1

    @pytest.mark.parametrize("gamma,b,pairs", [(1.2, 0.02, 31),
                                               (1.2, 0.05, 13),
                                               (2.0, 1e-3, 292)])
    def test_many_loops_resolve(self, gamma, b, pairs):
        # a fixed sampling once declined these: at (1.2, 0.02) its
        # chord-sag resolution was 1.2e-2, and the curve passes within
        # 4.6e-4 of the origin
        w = st.winding_number(make_params(gamma, b))
        assert w.winding == pairs == crossing_count(gamma, b)
        assert w.root_count == 2 * pairs

    @pytest.mark.parametrize("gamma,b", [(2.0, 1e-300), (2.0, 1e-12),
                                         (1.0000001, 0.02)])
    def test_sample_budget_refuses_before_sampling(self, gamma, b):
        start = time.perf_counter()
        with pytest.raises(SampleBudgetError, match="sample budget 250000"):
            st.winding_number(make_params(gamma, b))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("gamma,b,pairs", [(2.0, 1e-4, 2919),
                                               (2.0, 9.8e-5, 2979)])
    def test_walks_under_the_budget_count(self, gamma, b, pairs):
        # an up-front prediction 13-18% above the walk once refused these:
        # at b = 1e-4 it predicted 277,000 samples, and the walk takes
        # 242,326 against the budget of 250,000
        w = st.winding_number(make_params(gamma, b))
        assert w.winding == pairs == crossing_count(gamma, b)

    @pytest.mark.parametrize("gamma,b", [(2.0, 9e-5), (30.0, 4e-5)])
    def test_walk_that_spends_the_budget_is_refused(self, gamma, b):
        # the axis floor lets these sample; the arc spends what is left
        start = time.perf_counter()
        with pytest.raises(SampleBudgetError,
                           match="the arc walk spends the sample budget "
                                 r"250000 at 0\.[0-9]{3} of its range"):
            st.winding_number(make_params(gamma, b))
        assert time.perf_counter() - start < 1.0

    def test_largest_count_within_budget_ends_fast(self):
        # d_tilde = 1.5e4: about 0.24M samples against the budget's 0.25M
        start = time.perf_counter()
        w = st.winding_number(make_params(2.0, 1.85e-4))
        assert time.perf_counter() - start < 1.0
        assert w.winding == crossing_count(2.0, 1.85e-4)

    @pytest.mark.parametrize("gamma,b", [(2.05, 5.15), (3.58, 150.0),
                                         (2.04, 2.1)])
    def test_samples_follow_the_geometry(self, gamma, b):
        # the fixed sampling took about 40,000 samples at these map points
        p = make_params(gamma, b)
        cp = st.CharProblem.from_params(p)
        w = st.winding_number(p)
        assert len(w.curve) <= 200
        assert (w.curve[0], w.curve[-1]) == tuple(
            st._axis_image(cp.sigma_tilde, cp.d_tilde, t)
            for t in (-st.DISK_RADIUS, st.DISK_RADIUS))

    def test_logs_one_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gelshoot.stability")
        w = st.winding_number(make_params(2.0, 2.3))
        [msg] = [r.getMessage() for r in caplog.records
                 if r.name == "gelshoot.stability"]
        assert msg.startswith(f"winding: {len(w.curve)} axis and ")
        assert " arc samples, " in msg
        assert msg.endswith(f"closest sampled |F| = {w.min_distance:.3e}")

    @pytest.mark.parametrize("gamma,b", [(2.0, 2.3), (2.0, 1e-3),
                                         (1.2, 0.02), (3.58, 150.0),
                                         (2.0, B_STAR_2 * (1.0 + 1e-6))])
    def test_every_piece_is_certified(self, gamma, b, monkeypatch):
        # the walk's own samples: each piece of both parts lies in a disk
        # about an end that excludes 0, from end to end of its range
        walks, walk = [], st._certified

        def spy(f, lo, hi, speed, budget):
            s, z = walk(f, lo, hi, speed, budget)
            assert len(s) <= budget
            walks.append((lo, hi, speed, s, z))
            return s, z

        monkeypatch.setattr(st, "_certified", spy)
        w = st.winding_number(make_params(gamma, b))
        assert len(walks) == 2 and w.curve == tuple(walks[0][4])
        for lo, hi, speed, s, z in walks:
            assert (s[0], s[-1]) == (lo, hi) and len(s) == len(z)
            for k in range(len(s) - 1):
                assert s[k] < s[k + 1]
                assert speed * (s[k + 1] - s[k]) < max(abs(z[k]),
                                                       abs(z[k + 1]))

    def test_fewer_samples_than_halving(self):
        # the halving rounds took 122,455 axis samples here
        w = st.winding_number(make_params(2.0, 1.3e-4))
        assert w.winding == 2246 == crossing_count(2.0, 1.3e-4)
        assert len(w.curve) < 122_455


def reference_certified(f, n, lo, hi, speed):
    # the sampler winding_number had before its walk: n uniform pieces,
    # then rounds that halve every failing piece, on numpy arrays
    s = np.linspace(lo, hi, n)
    z = f(s)
    while True:
        a = np.abs(z)
        k = np.flatnonzero(speed * np.diff(s) >= np.maximum(a[:-1], a[1:]))
        if k.size == 0:
            return z
        if min(a[k].min(), a[k + 1].min()) < st.ORIGIN_FLOOR:
            raise OriginOnCurveError("near the origin")
        mid = 0.5 * (s[k] + s[k + 1])
        s, z = np.insert(s, k + 1, mid), np.insert(z, k + 1, f(mid))


def reference_count(params):
    # (winding, root_count) by reference_certified on the same half-disk
    cp = st.CharProblem.from_params(params)
    s, dt, R = cp.sigma_tilde, cp.d_tilde, st.DISK_RADIUS

    def arc(phi):
        lam = R * np.exp(1j * phi)
        return np.exp(-dt * lam) + lam - s

    z1 = reference_certified(
        lambda t: (-s + np.cos(dt * t)) + 1j * (t - np.sin(dt * t)),
        65, -R, R, 1.0 + dt)
    n_arc = math.pi * R * (1.0 + dt) / (R - 1.0 - s) + 2.0
    z2 = reference_certified(arc, int(n_arc), -math.pi / 2.0,
                             math.pi / 2.0, R * (1.0 + dt))
    ang = np.diff(np.angle(np.concatenate([z1[::-1], z2])))
    count = round(float(np.sum((ang + math.pi) % (2.0 * math.pi) - math.pi))
                  / (2.0 * math.pi))
    return count // 2, count


def walk_grid(n, seed):
    # gamma uniform on [1.02, 40]; d_tilde log-uniform on [1e-3, 1e3] for
    # two thirds of the points, b within 1e-6..1e-3 relative of b_star on
    # either side for the rest
    rng = random.Random(seed)
    out = []
    for i in range(n):
        gamma = rng.uniform(1.02, 40.0)
        if i % 3:
            th = 2.0 ** (gamma - 1.0)
            dt = 10.0 ** rng.uniform(-3.0, 3.0)
            out.append((gamma, 2.0 * th / (th - 1.0) * math.log(2.0) / dt))
        else:
            rel = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -3.0)
            out.append((gamma, st.b_star(gamma) * (1.0 + rel)))
    return out


class TestWalkAgainstHalving:
    def test_same_counts_as_the_halving_sampler(self):
        for gamma, b in walk_grid(240, 27):
            p = make_params(gamma, b)
            w = st.winding_number(p)
            assert (w.winding, w.root_count) == reference_count(p), (gamma, b)


def reference_b_star_by_winding(gamma, tol_b):
    # the halving loop b_star_by_winding had before it shared
    # profiles.bisect
    ref = st.b_star(gamma)
    lo, hi = 0.6 * ref, 1.6 * ref
    if st.winding_number(make_params(gamma, lo)).winding == 0 or \
            st.winding_number(make_params(gamma, hi)).winding != 0:
        raise DomainError("bisection endpoints do not straddle the boundary")
    while hi - lo > tol_b:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        try:
            w = st.winding_number(make_params(gamma, mid)).winding
        except OriginOnCurveError:
            return mid
        if w == 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestBisectionBitwiseAgainstReference:
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    @pytest.mark.parametrize("tol_b", [1e-2, 1e-4, 1e-6])
    def test_winding_counts(self, gamma, tol_b):
        assert st.b_star_by_winding(gamma, tol_b).hex() == \
            reference_b_star_by_winding(gamma, tol_b).hex()

    @pytest.mark.parametrize("band", [0.0, 1e-9, 1e-3])
    def test_origin_on_curve_ends_the_search(self, band, monkeypatch):
        # a stub count: winding 1 below b_star, 0 above, and the curve
        # through the origin within band of b_star
        ref, calls = st.b_star(2.0), []

        def stub(params):
            calls.append(params.b)
            if abs(params.b - ref) <= band * ref:
                raise OriginOnCurveError("on the curve")
            w = int(params.b < ref)
            return st.WindingResult(winding=w, root_count=2 * w,
                                    curve=np.empty(0), min_distance=1.0)

        monkeypatch.setattr(st, "winding_number", stub)
        new = st.b_star_by_winding(2.0, 1e-12)
        new_calls, calls[:] = list(calls), []
        assert new.hex() == reference_b_star_by_winding(2.0, 1e-12).hex()
        assert new_calls == calls

    def test_ends_that_do_not_straddle_are_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(st, "winding_number", lambda params:
                            st.WindingResult(winding=0, root_count=0,
                                             curve=np.empty(0),
                                             min_distance=1.0))
        with pytest.raises(DomainError, match="do not straddle"):
            st.b_star_by_winding(2.0)


class TestEquivalence:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0, 5.0])
    def test_winding_iff_below_b_star(self, gamma):
        bs = st.b_star(gamma)
        grid = np.concatenate([
            np.geomspace(bs / 3.0, 0.9 * bs, 4),
            np.geomspace(1.15 * bs, 8.0 * bs, 4)])
        for b in grid:
            w = st.winding_number(make_params(gamma, float(b))).winding
            assert (w == 0) == (b > bs)


class TestEmpiricalStability:
    def test_decay_above_the_boundary(self):
        rep = st.stability_empirical(make_params(2.0, 3.0),
                                     lambda z: 0.05 * math.cos(z))
        assert rep.decayed
        assert rep.final_deviation < 1e-6

    def test_sustained_oscillation_below(self):
        rep = st.stability_empirical(make_params(2.0, 2.3),
                                     lambda z: 0.05 * math.cos(z))
        assert not rep.decayed
        assert rep.final_deviation > 1e-3

    def test_zero_perturbation_is_exactly_stationary(self):
        rep = st.stability_empirical(make_params(2.0, 3.0), lambda z: 0.0)
        assert rep.sup_deviation == 0.0

    def test_large_perturbation_rejected(self):
        with pytest.raises(DomainError):
            st.stability_empirical(make_params(2.0, 3.0),
                                   lambda z: 0.2 * math.cos(z))


def frozen_numpy_probe(params, perturbation):
    """The probe as it was on numpy arrays, before it ran on floats."""
    from gelshoot import delaycore as dc
    pinf, d = params.phi_inf, params.d
    zs = np.linspace(-d, 0.0, 64)
    sup0 = float(np.max(np.abs([perturbation(z) for z in zs])))
    if sup0 > 0.1 * pinf + 1e-15:
        raise DomainError("perturbation exceeds a tenth of the constant")
    escape = max(100.0 * sup0, 2.0 * pinf)
    hist = dc.FunctionHistory(lambda z: pinf + perturbation(z), -d, 0.0)
    traj = dc.integrate(dc.phi_equation(params), hist,
                        (0.0, st.DECAY_HORIZON), tol=1e-9,
                        stop_condition=lambda z, u: abs(u - pinf) > escape)
    dev = np.abs(traj.nodes()[1] - pinf)
    final = float(dev[-1])
    return st.DecayReport(
        decayed=traj.event_t is None and final < 1e-6 * max(1.0, pinf),
        final_deviation=final, sup_deviation=float(np.max(dev)))


class TestFloatProbe:
    @pytest.mark.parametrize("gamma,ratio,amp", [
        (2.0, 0.6, 0.05), (2.0, 0.9, 0.015), (2.0, 1.2, 0.05),
        (3.5, 0.7, 0.08), (1.5, 2.5, 0.03)])
    def test_same_bytes_as_the_numpy_probe(self, gamma, ratio, amp):
        # the 64 points of the amplitude check are numpy.linspace's, and
        # they set the escape level 100 sup|perturbation| when it exceeds
        # 2 phi_inf: the points each probe asks for are compared too (at
        # gamma = 1.5 63 (d/63) - d is 6.9e-18, not linspace's last 0)
        params = make_params(gamma, ratio * st.b_star(gamma))
        scale = amp * params.phi_inf
        runs = []
        for probe in (st.stability_empirical, frozen_numpy_probe):
            asked = []

            def perturbation(z):
                asked.append(float(z).hex())
                return scale * math.cos(z)

            rep = probe(params, perturbation)
            runs.append((rep.decayed, rep.final_deviation.hex(),
                         rep.sup_deviation.hex(), asked))
        assert runs[0] == runs[1]
        assert len(runs[0][3]) > 64 and runs[0][3][63] == (0.0).hex()


class TestScanExport:
    def test_rows_carry_thresholds(self):
        rows = st.stability_scan(2.0, [2.3, 3.0])
        assert rows[0]["winding"] == 1 and rows[1]["winding"] == 0
        for r in rows:
            assert r["d_star"] == pytest.approx(1.0926714764, abs=1e-8)

    def test_curve_samples_shape(self):
        z = st.curve_samples(make_params(2.0, 2.3))
        assert len(z) == 4000
        assert all(type(v) is complex and cmath.isfinite(v) for v in z)

    def test_curve_samples_span_the_counted_window(self):
        # |t| <= DISK_RADIUS, the axis part the winding count reads: at
        # b = 1e6 the old window |t| <= 6/d~ = 2.2e6 kept no sample there
        z = st.curve_samples(make_params(2.0, 1e6))
        assert np.count_nonzero(np.abs(z) < 4.0) >= 1000
