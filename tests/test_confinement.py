"""The confinement engine against the known lengths, images, and patterns."""

import itertools
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp2fp import (
    ConfinementStatus,
    DP2Map,
    FpProj,
    QRTMap,
    QRTParams,
    SingularLift,
    agr_scan,
    build_dp2_params,
    confine,
    degree_limit,
    dp2_fp_pattern,
    reduce_proj,
    sample_images,
    verify_confinement_samples,
)
from dp2fp.confinement import MAX_SCAN_STEPS, fits_fractional_linear
from dp2fp.errors import DivisionByZeroError
from dp2fp.mapexpr import CustomMap
from dp2fp.padic import PLUS_INFINITY

TAU5 = dict(p=5, a=-8, delta=2, z0=2)


def proj(p, r):
    return FpProj(p, r)


INF5 = FpProj.infinity(5)


def confine_at(params, s, n, y0):
    """dP-II confinement at x = s from time step n, with companion y0."""
    return confine(DP2Map(params),
                   SingularLift(s=Fraction(s), y0=Fraction(y0), n0=n))


class TestQRTFamily:
    def test_gamma2_single_zero_confines_in_three(self):
        fam = QRTMap(QRTParams(p=5, gamma=2, a=1))
        rep = confine(fam, SingularLift(s=Fraction(0), y0=Fraction(1)))
        assert rep.status is ConfinementStatus.CONFINED
        assert rep.m == 3
        assert rep.image == (proj(5, 1), proj(5, 0))   # (1/(a^2 y), 0)
        assert rep.x_trace[:2] == [INF5, proj(5, 0)]

    @pytest.mark.parametrize("p,a", [(5, 1), (5, 2), (7, 3)])
    def test_gamma2_single_zero_image_formula(self, p, a):
        fam = QRTMap(QRTParams(p=p, gamma=2, a=a))
        for y0 in range(1, p):
            rep = confine(fam, SingularLift(s=Fraction(0), y0=Fraction(y0)))
            assert rep.m == 3
            expected_x = reduce_proj(Fraction(1, a * a * y0), p)
            assert rep.image == (expected_x, proj(p, 0))

    def test_gamma2_double_zero_confines_in_eight(self):
        fam = QRTMap(QRTParams(p=5, gamma=2, a=1))
        rep = confine(fam, SingularLift(s=Fraction(0), y0=Fraction(0),
                                        perturb_y=True))
        assert rep.status is ConfinementStatus.CONFINED
        assert rep.m == 8
        assert rep.image == (proj(5, 0), proj(5, 0))

    def test_gamma3_not_confined_with_deepening_poles(self):
        fam = QRTMap(QRTParams(p=5, gamma=3, a=1))
        rep = confine(fam, SingularLift(s=Fraction(0), y0=Fraction(1)))
        assert rep.status is ConfinementStatus.DEGREE_OVERFLOW
        assert rep.truncated
        poles = [o for o in rep.pole_orders
                 if o is not PLUS_INFINITY and o < 0]
        assert len(poles) >= 2
        assert all(b < a for a, b in zip(poles, poles[1:]))

    def test_sampling_agreement(self):
        fam = QRTMap(QRTParams(p=5, gamma=2, a=2))
        lift = SingularLift(s=Fraction(0), y0=Fraction(3))
        rep = confine(fam, lift)
        assert verify_confinement_samples(fam, lift, rep)

    def test_sample_lifts_come_in_order(self):
        fam = QRTMap(QRTParams(p=5, gamma=2, a=2))
        lift = SingularLift(s=Fraction(0), y0=Fraction(3))
        samples = itertools.islice(sample_images(fam, lift, 3), 12)
        keys = [ck for ck, _ in samples]
        assert keys == [(c, k) for c in (1, 2, 3, 4) for k in (1, 2, 3)]


class TestDP2Cases:
    def test_case_two_matches_closed_form(self):
        params = build_dp2_params(**TAU5)
        rep = confine_at(params, +1, 4, 3)
        assert rep.status is ConfinementStatus.CONFINED
        assert rep.m == 3
        assert rep.image == (proj(5, 2), proj(5, 4))
        assert rep.x_trace == [INF5, proj(5, 4), proj(5, 2)]

    def test_case_one_single_step(self):
        params = build_dp2_params(**TAU5)
        # alpha_3 = 0 exactly
        rep = confine_at(params, +1, 3, 2)
        assert rep.m == 1
        expected = reduce_proj(params.beta(3) / 2 - 2, 5)
        assert rep.image == (expected, proj(5, 1))

    def test_case_three_five_steps(self):
        params = build_dp2_params(5, 4, 2, 2)
        beta_zero = next(i for i in range(5) if params.beta(i) == 0)
        n = (beta_zero - 2) % 5
        assert params.alpha(n) != 0
        rep = confine_at(params, +1, n, 3)
        assert rep.m == 5
        a, d = Fraction(4), Fraction(2)
        expected = reduce_proj(-(a * d - (a - d) * 3) / (a + d), 5)
        assert rep.image == (expected, proj(5, 1))
        assert rep.x_trace[:4] == [INF5, proj(5, 4), INF5, proj(5, 1)]

    def test_case_four_seven_steps(self):
        params = build_dp2_params(5, -2, 2, 2)
        rep = confine_at(params, +1, 1, 3)
        assert rep.m == 7
        assert rep.image == (reduce_proj(Fraction(1 + 2 * 3, 2), 5), proj(5, 4))
        assert rep.x_trace[:6] == [INF5, proj(5, 4), INF5, proj(5, 1),
                                   INF5, proj(5, 4)]

    def test_mirrored_cases(self):
        params = build_dp2_params(**TAU5)
        p = 5
        # case 5 at x = -1: beta_n != 0, alpha_{n+2} != 0
        n = 0
        assert params.beta(n) == 0   # beta_0 = 0: that's case 1', try n=2
        n = 2
        assert params.beta(n) != 0 and params.alpha(n + 2) != 0
        rep = confine_at(params, -1, n, 3)
        assert rep.m == 3
        a, d = params.a, params.delta
        expected = reduce_proj(
            (a * (-2 + d) - 2 * d * params.alpha(n + 1)
             + 2 * params.beta(n) * 3) / (2 * params.alpha(n + 2)), p)
        assert rep.image == (expected, proj(p, 1))
        assert rep.x_trace[:2] == [FpProj.infinity(p), proj(p, 1)]

    def test_mirrored_case_one(self):
        params = build_dp2_params(**TAU5)
        rep = confine_at(params, -1, 0, 3)   # beta_0 = 0 exactly
        assert rep.m == 1
        expected = reduce_proj(params.alpha(0) / 2 - 3, 5)
        assert rep.image == (expected, proj(5, 4))

    def test_mirrored_case_seven(self):
        params = build_dp2_params(5, 2, 2, 2)     # a = delta
        alpha_zero = next(i for i in range(5) if params.alpha(i) == 0)
        n = (alpha_zero - 2) % 5
        assert params.beta(n) != 0
        rep = confine_at(params, -1, n, 3)
        assert rep.m == 7
        assert rep.image == (reduce_proj(Fraction(2 * 3 - 1, 2), 5), proj(5, 1))

    def test_minimality_of_confinement_length(self):
        # every intermediate step has a pole or reduces into {1, p-1}
        params = build_dp2_params(**TAU5)
        for n, y0 in ((4, 3), (1, 2)):
            rep = confine_at(params, +1, n, y0)
            if rep.m == 1:
                continue
            for j in range(rep.m - 1):
                x_ord = rep.pole_orders[j]
                x_proj = rep.x_trace[j]
                assert (x_ord is not PLUS_INFINITY and x_ord < 0) or \
                    x_proj.is_infinity or x_proj.residue in (1, params.p - 1)

    def test_sampling_agreement_across_cases(self):
        params = build_dp2_params(5, -2, 2, 2)
        fam = DP2Map(params)
        for n in range(5):
            for y0 in range(5):
                lift = SingularLift(s=Fraction(1), y0=Fraction(y0), n0=n)
                rep = confine(fam, lift)
                assert rep.status is ConfinementStatus.CONFINED
                assert verify_confinement_samples(fam, lift, rep)


class TestPathologicalRegime:
    """p divides a + delta while a != -delta exactly: outside the uniform
    case table.  The engine still resolves each point but the image can
    depend on the lift, which the sampling check must flag."""

    def test_lengths_depend_on_companion_residue(self):
        params = build_dp2_params(3, -8, 2, 2)   # a + delta = -6 = 0 mod 3
        lengths = {y0: confine_at(params, +1, 2, y0).m for y0 in range(3)}
        assert lengths == {0: 7, 1: 5, 2: 7}

    def test_scan_flags_ambiguity(self):
        res = agr_scan(DP2Map(build_dp2_params(3, -8, 2, 2)))
        assert res.ambiguous
        assert not res.has_agr
        flagged = [r for r in res.records if r.sampling_ok is False]
        assert flagged
        assert not any(r.report.certified for r in flagged)

    def test_p_divides_a_is_certified(self):
        # a = 0 mod p puts both exact zeros at one index, so no exact
        # coefficient lift can honor both (their sum must equal a != 0).
        # The image is lift-independent all the same: the certificate
        # proves it, and the one sample lift whose orbit over Q hits a
        # singularity exactly is undefined there, not a disagreement.
        params = build_dp2_params(3, 6, 4, -5)
        i_alpha = next(i for i in range(3) if params.alpha(i) == 0)
        i_beta = next(i for i in range(3) if params.beta(i) == 0)
        assert i_alpha == i_beta
        fam = DP2Map(params)
        res = agr_scan(fam)
        assert not res.ambiguous
        assert res.has_agr
        rec = next(r for r in res.records
                   if (r.point, r.y_residue, r.n) == ("-1", 1, 0))
        assert rec.report.m == 5
        assert rec.report.image == (proj(3, 2), proj(3, 2))
        assert rec.report.certified and rec.sampling_ok

        samples = dict(itertools.islice(sample_images(fam, rec.lift, 5), 9))
        assert samples.pop((2, 1)) is None
        assert list(samples.values()) == [rec.report.image] * 8
        runner = fam.window_map(rec.lift)
        x, y = rec.lift.s + 2 * 3, rec.lift.y0
        with pytest.raises(DivisionByZeroError):
            for n in range(5):
                x, y = runner.step(x, y, n)
        # the witness path replaces the singular lift instead of failing
        assert verify_confinement_samples(fam, rec.lift, rec.report)

        # the perturbation engine and the seven-case pattern still agree
        # on the record's emitted values
        emitted = dp2_fp_pattern(params)(rec.y_residue, 2, rec.n)
        assert list(emitted) == [v.residue for v in rec.report.x_trace]


class TestScan:
    def test_qrt_gamma2_scan_has_agr(self):
        res = agr_scan(QRTMap(QRTParams(p=5, gamma=2, a=1)))
        assert res.all_confined and res.closed_form_ok and not res.ambiguous
        assert res.has_agr
        by_key = {(r.point, r.y_residue): r.report for r in res.records}
        assert by_key[("0", 0)].m == 8
        assert all(by_key[("0", y)].m == 3 for y in range(1, 5))

    def test_qrt_gamma3_scan_not_confined(self):
        res = agr_scan(QRTMap(QRTParams(p=5, gamma=3, a=1)))
        assert not res.all_confined
        assert not res.has_agr
        assert all(r.report.status is ConfinementStatus.DEGREE_OVERFLOW
                   and r.report.truncated for r in res.records)

    def test_dp2_scan_clean_set(self):
        res = agr_scan(DP2Map(build_dp2_params(5, 4, 2, 2)))
        assert res.has_agr
        assert {r.report.m for r in res.records} <= {1, 3, 5, 7}

    def test_scan_prime_guard(self):
        with pytest.raises(ValueError):
            agr_scan(QRTMap(QRTParams(p=103, gamma=2, a=1)))

    def test_hietarinta_viallet_overflow_is_a_budget_hit(self):
        # HV confines, but the default degree bound fires in the
        # intermediate x + 1/x^2 at step 4, after two poles.
        fam = CustomMap("x + 1/x^2 - y", "x", 5)
        res = agr_scan(fam)
        assert not res.has_agr
        assert all(r.report.status is ConfinementStatus.DEGREE_OVERFLOW
                   and r.report.truncated for r in res.records)
        with degree_limit(None):
            res = agr_scan(fam)
        assert res.has_agr
        assert len(res.records) == 5
        for r in res.records:
            assert r.report.status is ConfinementStatus.CONFINED
            assert r.report.m == 4
            assert r.report.image == (proj(5, r.y_residue), proj(5, 0))


class TestWindowReuse:
    """A DP2Map builds each anchored window map once, for the first run
    from its (singular value, n0), and every later run and sample orbit
    from that window reuses it."""

    def test_a_scan_builds_each_window_once(self, monkeypatch):
        from dp2fp import maps
        built = []
        build = maps.dp2_window_map

        def counted(params, singular_value, n0):
            built.append((singular_value, n0))
            return build(params, singular_value, n0)

        monkeypatch.setattr(maps, "dp2_window_map", counted)
        p = 13
        fam = DP2Map(build_dp2_params(p, 5, 3, 2))
        res = agr_scan(fam)
        assert len(res.records) == 2 * p * p
        assert sorted(built) == sorted(
            {(s, n) for s in (1, -1) for n in range(p)})
        for rec in res.records[:3]:
            next(sample_images(fam, rec.lift, rec.report.m))
            assert verify_confinement_samples(fam, rec.lift, rec.report)
        assert len(built) == 2 * p

    def test_maps_with_different_params_keep_their_own_windows(self):
        fam = DP2Map(build_dp2_params(7, 1, 3, 2))
        other = DP2Map(build_dp2_params(7, 2, 3, 2))
        lift = SingularLift(s=Fraction(1), y0=Fraction(4), n0=3)
        window = fam.window_map(lift)
        assert fam.window_map(SingularLift(s=Fraction(1), y0=Fraction(0),
                                           n0=3)) is window
        assert other.window_map(lift) is not window
        assert other.window_map(lift).params is other.params
        assert window.params is fam.params
        assert confine(other, lift).image == confine(
            DP2Map(other.params), lift).image

    @pytest.mark.parametrize("p,a,delta,z0,refused", [
        (7, -3, 3, 2, False), (3, -8, 2, 2, True)])
    def test_samples_through_shared_windows_match_the_certificate(
            self, p, a, delta, z0, refused):
        fam = DP2Map(build_dp2_params(p, a, delta, z0))
        res = agr_scan(fam)
        seen = 0
        for rec in res.records:
            rep = rec.report
            assert rep.status is ConfinementStatus.CONFINED
            images = [image for _, image in itertools.islice(
                sample_images(fam, rec.lift, rep.m), 9) if image is not None]
            if rep.certified:
                assert set(images) == {rep.image}
            else:
                seen += 1
                assert len(set(images)) >= 2
        assert bool(seen) == refused


class TestFractionalLinearFit:
    def test_affine_family(self):
        p = 7
        samples = [(y, FpProj(p, (3 * y + 2) % p)) for y in range(p)]
        assert fits_fractional_linear(samples, p)

    def test_reciprocal_family_with_pole(self):
        p = 7
        samples = [(y, FpProj(p, pow(y, -1, p)) if y else FpProj.infinity(p))
                   for y in range(p)]
        assert fits_fractional_linear(samples, p)

    def test_constant_family(self):
        p = 5
        samples = [(y, FpProj(p, 2)) for y in range(p)]
        assert fits_fractional_linear(samples, p)

    def test_quadratic_is_rejected(self):
        p = 7
        samples = [(y, FpProj(p, (y * y) % p)) for y in range(p)]
        assert not fits_fractional_linear(samples, p)

    def test_repeated_residues_are_refused(self):
        with pytest.raises(ValueError, match="distinct residues"):
            fits_fractional_linear([(1, proj(5, 2)), (6, proj(5, 3))], 5)
        with pytest.raises(ValueError, match="distinct residues"):
            fits_fractional_linear([(2, INF5), (2, INF5)], 5)

    @pytest.mark.parametrize("p", [3, 5])
    def test_agrees_with_brute_force_on_every_sample_list(self, p):
        values = _values(p)
        for k in range(p + 1):
            for ys in itertools.combinations(range(p), k):
                for vs in itertools.product(values, repeat=k):
                    samples = list(zip(ys, vs))
                    assert fits_fractional_linear(samples, p) == \
                        _brute_force_fits(samples, p), samples

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force_at_p7_and_p11(self, data):
        p = data.draw(st.sampled_from((7, 11)))
        values = _values(p)
        mode = data.draw(st.sampled_from(("map", "one value off", "random")))
        if mode == "random":
            ys = data.draw(st.lists(st.integers(0, p - 1), unique=True))
            samples = [(y, data.draw(st.sampled_from(values))) for y in ys]
        else:
            # a restriction of some map, so that fits are common
            graph = dict(data.draw(st.sampled_from(_graphs(p))))
            ys = data.draw(st.lists(st.sampled_from(sorted(graph)),
                                    unique=True))
            samples = [(y, graph[y]) for y in ys]
            if samples and mode == "one value off":
                i = data.draw(st.integers(0, len(samples) - 1))
                samples[i] = (samples[i][0], data.draw(st.sampled_from(values)))
        assert fits_fractional_linear(samples, p) == \
            _brute_force_fits(samples, p)


def _values(p):
    return [FpProj(p, r) for r in range(p)] + [FpProj.infinity(p)]


@cache
def _graphs(p):
    """Graph of y -> (a*y + b)/(c*y + d) for every nonzero (a, b, c, d) in
    F_p^4, as pairs (y, value) over the residues where the map is defined:
    not num = den = 0.  An infinite value has den = 0 and num != 0."""
    graphs = {}
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if not (a or b or c or d):
            continue
        graph = []
        for y in range(p):
            num, den = (a * y + b) % p, (c * y + d) % p
            if den:
                graph.append((y, FpProj(p, num * pow(den, -1, p))))
            elif num:
                graph.append((y, FpProj.infinity(p)))
        graphs[frozenset(graph)] = None
    return list(graphs)


def _brute_force_fits(samples, p):
    """Whether the samples are the restriction of one map's graph."""
    wanted = frozenset(samples)
    return any(wanted <= graph for graph in _graphs(p))


def test_random_clean_parameter_sets_confine_everywhere():
    """Randomized integer parameters (pathological a +/- delta residues
    skipped) must confine at every singular point with verified sampling."""
    import random

    rng = random.Random(99)
    tried = 0
    while tried < 12:
        p = rng.choice((3, 5, 7))
        a = rng.randint(-12, 12)
        d = rng.choice((2, 4, 6))
        z0 = rng.randint(-6, 6)
        if d % p == 0 or a % p == 0:
            continue
        plus, minus = a + d, a - d
        if (plus % p == 0 and plus != 0) or (minus % p == 0 and minus != 0):
            continue
        params = build_dp2_params(p, a, d, z0)
        res = agr_scan(DP2Map(params))
        assert res.all_confined, (p, a, d, z0)
        assert not res.ambiguous, (p, a, d, z0)
        assert {r.report.m for r in res.records} <= {1, 3, 5, 7}
        tried += 1


def test_confinement_at_negative_time_steps():
    params = build_dp2_params(5, 4, 2, 2)
    for n in (-7, -3, -1):
        for s in (1, -1):
            rep = confine_at(params, s, n, 2)
            assert rep.status is ConfinementStatus.CONFINED
            assert rep.m in (1, 3, 5, 7)
            fam = DP2Map(params)
            lift = SingularLift(s=Fraction(s), y0=Fraction(2), n0=n)
            assert verify_confinement_samples(fam, lift, rep)


def test_confine_rejects_bad_arguments():
    params = build_dp2_params(**TAU5)
    with pytest.raises(ValueError):
        confine(DP2Map(params), SingularLift(Fraction(1), Fraction(0)), 0)
    with pytest.raises(ValueError):
        agr_scan(DP2Map(params), max_steps=MAX_SCAN_STEPS + 1)


def test_true_singularity_propagates():
    # A custom-style family whose denominator does not involve the
    # perturbed coordinate raises instead of pretending to confine.
    fam = CustomMap("(x+1)/(y-y)", "x", 5)
    with pytest.raises(DivisionByZeroError):
        confine(fam, SingularLift(s=Fraction(0), y0=Fraction(0)))
