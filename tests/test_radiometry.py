import numpy as np
import pytest

import oracles
from irmap import radiometry
from irmap.errors import BelowFloorError, IllConditionedError, ParameterError
from irmap.radiometry import (
    CalibrationProfile,
    RadianceModel,
    background_counts,
    fit_emissivity,
    fit_window_transmission,
    forward_counts,
    invert_counts,
    invert_counts_array,
    profile_from_text,
    profile_to_text,
)
from dataclasses import replace


class TestForward:
    def test_unity_collapses_to_band_radiance(self, profile):
        prof = replace(profile, window_transmission=1.0)
        t = 400.0
        assert forward_counts(t, 1.0, prof) == pytest.approx(
            prof.model.signal(t), rel=1e-12
        )

    def test_isothermal_enclosure(self, profile):
        t = profile.reflected_temperature_c
        s = profile.model.signal(t)
        for eps in (0.21, 0.63, 1.0):
            assert forward_counts(t, eps, profile) == pytest.approx(s, rel=1e-12)

    def test_monotone_in_temperature(self, profile):
        c1 = forward_counts(100.0, 0.63, profile)
        c2 = forward_counts(300.0, 0.63, profile)
        c3 = forward_counts(500.0, 0.63, profile)
        assert c1 < c2 < c3

    def test_strictly_increasing_on_fine_grid(self, profile):
        t = np.arange(-20.0, 2001.0, 1.0)
        for eps in (0.21, 0.63, 1.0):
            for tau in (0.75, 1.0):
                prof = replace(profile, window_transmission=tau)
                c = np.array([forward_counts(float(v), eps, prof) for v in t])
                assert (np.diff(c) > 0).all()

    def test_bad_emissivity_rejected(self, profile):
        with pytest.raises(ParameterError):
            forward_counts(100.0, 0.0, profile)
        with pytest.raises(ParameterError):
            forward_counts(100.0, 1.5, profile)

    @pytest.mark.parametrize("eps", [np.nan, np.array([0.63, np.nan])], ids=["scalar", "array"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda e, p: forward_counts(100.0, e, p),
            lambda e, p: invert_counts(5000.0, e, p),
            lambda e, p: invert_counts_array(5000.0, e, p),
        ],
        ids=["forward_counts", "invert_counts", "invert_counts_array"],
    )
    def test_nan_emissivity_rejected(self, profile, call, eps):
        with pytest.raises(ParameterError, match="emissivity"):
            call(eps, profile)


class TestInvert:
    def test_round_trip_spot_values(self, profile):
        for t in (25.0, 80.0, 300.0, 500.0, 660.0, 2000.0):
            for eps in (0.21, 0.63, 1.0):
                for tau in (0.75, 1.0):
                    prof = replace(profile, window_transmission=tau)
                    c = forward_counts(t, eps, prof)
                    assert invert_counts(c, eps, prof) == pytest.approx(t, abs=0.01)

    def test_unity_identity(self, profile):
        prof = replace(profile, window_transmission=1.0)
        c = prof.model.signal(100.0)
        assert invert_counts(c, 1.0, prof) == pytest.approx(100.0, abs=0.01)

    def test_lower_emissivity_reads_hotter(self, profile):
        c = forward_counts(400.0, 0.63, profile)
        assert invert_counts(c, 0.21, profile) > invert_counts(c, 0.63, profile)

    def test_below_floor_raises(self, profile):
        with pytest.raises(BelowFloorError):
            invert_counts(0.0, 0.63, profile)

    @pytest.mark.parametrize("eps", [0.21, 0.63, 1.0])
    def test_scalar_is_the_array_inversion(self, profile, eps):
        """At the floor and on both sides of it, the scalar wrapper returns the
        array value or raises the per-sample reference's BelowFloorError."""
        floor = float(background_counts(eps, profile))
        above = [np.nextafter(floor, np.inf), floor + 1e-3, floor + 1.0, 2.0 * floor, 6e4]
        below = [floor, np.nextafter(floor, -np.inf), floor - 1.0, 0.0]
        for c in above:
            t, ok = invert_counts_array(c, eps, profile)
            assert ok and invert_counts(c, eps, profile) == float(t)
            assert invert_counts(c, eps, profile) == oracles.invert_counts(c, eps, profile)
        for c in below:
            assert not invert_counts_array(c, eps, profile)[1]
            with pytest.raises(BelowFloorError) as got:
                invert_counts(c, eps, profile)
            with pytest.raises(BelowFloorError) as want:
                oracles.invert_counts(c, eps, profile)
            assert str(got.value) == str(want.value)
            assert str(got.value) == f"counts {c:.3f} at or below background floor {floor:.3f}"


def _same(got, want):
    """Equal type, shape and bytes (a scalar stays a scalar)."""
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(got) == np.shape(want)


PROFILES = [
    CalibrationProfile(),
    CalibrationProfile(window_transmission=1.0, reflected_temperature_c=-40.0),
    CalibrationProfile(0.9, 0.05, 0.7, 120.0, RadianceModel(a_um=4.2, b_um_k=35.0, c_counts=9000.0)),
]


class TestOneExpressionOracles:
    """The in-place radiance model and count conversion, and the cached
    reflected signal, give the one-expression results byte for byte."""

    @pytest.mark.parametrize("prof", PROFILES)
    def test_arrays_and_scalars(self, prof, rng):
        t32 = rng.uniform(-200.0, 2500.0, (16, 9, 7)).astype(np.float32)
        t64 = rng.uniform(-200.0, 2500.0, (5, 7))
        two = np.where(rng.random(t32.shape) < 0.5, prof.emissivity_printed, prof.emissivity_powder)
        eps_any = rng.uniform(1e-3, 1.0, (5, 7))
        cases = [
            (t32, two),  # a render block
            (t32, 0.63),
            (t64, eps_any),
            (t64[0], eps_any),  # the temperatures broadcast up
            (450.0, eps_any),
            (450.0, 0.21),
            (np.float32(97.5), np.float64(1.0)),
            ([25.0, 300.0], 0.63),
            (np.array(1200.0), 0.63),
        ]
        for t, eps in cases:
            _same(prof.model.signal(t), oracles.signal(prof.model, t))
            _same(radiometry.background_counts(eps, prof), oracles.background_counts(eps, prof))
            counts = forward_counts(t, eps, prof)
            _same(counts, oracles.forward_counts(t, eps, prof))
            s_obj = oracles.signal(prof.model, t)
            _same(prof.model.temperature(s_obj), oracles.temperature(prof.model, s_obj))
            noisy = counts + rng.normal(0.0, 50.0, np.shape(counts))  # some below the floor
            for c in (counts, noisy):
                (got, ok), (want, ok_want) = invert_counts_array(c, eps, prof), oracles.invert_counts_array(c, eps, prof)
                _same(got, want)
                _same(ok, ok_want)

    def test_errors(self, profile):
        for eps in (0.0, -0.5, 1.5, np.nan, np.array([0.5, np.nan]), np.zeros((2, 2))):
            for f in (forward_counts, invert_counts_array):
                with pytest.raises(ParameterError, match="emissivity"):
                    f(300.0, eps, profile)
        with pytest.raises(ParameterError, match="absolute zero"):
            profile.model.signal(np.array([20.0, -273.15]))
        with pytest.raises(ParameterError, match="absolute zero"):
            profile.model.signal(-300.0)
        with pytest.raises(ParameterError, match="positive"):
            profile.model.temperature(np.array([1.0, 0.0]))


class TestFits:
    def make_samples(self, eps, profile, temps=None):
        temps = temps if temps is not None else np.linspace(25.0, 500.0, 9)
        return [(forward_counts(float(t), eps, profile), float(t)) for t in temps]

    def test_noiseless_recovery(self, profile):
        for true_eps in (0.1, 0.21, 0.5, 0.63, 1.0):
            fit, resid = fit_emissivity(self.make_samples(true_eps, profile), profile)
            assert fit == pytest.approx(true_eps, abs=0.005)

    def test_boundary_no_overshoot(self, profile):
        fit, _ = fit_emissivity(self.make_samples(1.0, profile), profile)
        assert fit <= 1.0

    def test_flat_objective_ill_conditioned(self, profile):
        samples = [(forward_counts(300.0, 0.63, profile), 300.0)] * 4
        with pytest.raises(IllConditionedError):
            fit_emissivity(samples, profile)

    def test_small_span_rejected(self, profile):
        samples = self.make_samples(0.63, profile, temps=[300.0, 350.0])
        with pytest.raises(ParameterError):
            fit_emissivity(samples, profile)

    def test_window_noiseless_recovery(self, profile):
        bare = replace(profile, window_transmission=1.0)
        eps = profile.emissivity_powder
        temps = np.linspace(25.0, 300.0, 7)
        pairs = [
            (forward_counts(t, eps, profile), forward_counts(t, eps, bare), t)
            for t in temps
        ]
        assert fit_window_transmission(pairs, profile) == pytest.approx(0.75, abs=0.005)

    def test_window_unity(self, profile):
        bare = replace(profile, window_transmission=1.0)
        eps = profile.emissivity_powder
        temps = np.linspace(25.0, 300.0, 7)
        c = [forward_counts(t, eps, bare) for t in temps]
        pairs = list(zip(c, c, temps))
        assert fit_window_transmission(pairs, bare) == pytest.approx(1.0, abs=0.005)


class TestFitsMatchLoopOracle:
    """The array objectives give exactly the fits of `oracles`' per-sample loop."""

    def test_criterion_03_draws(self, profile):
        # criterion 03's Monte Carlo draws (one array draw per set gives the
        # same stream as its per-sample draws); draws 0 and 25 of each
        # surface are fitted both ways
        rng = np.random.default_rng(301)
        noisy_temps = np.linspace(25.0, 500.0, 150)
        for true_eps in (0.63, 0.21):
            for k in range(50):
                noise = rng.normal(0.0, 25.0, len(noisy_temps))
                if k % 25 == 0:
                    c = forward_counts(noisy_temps + noise, true_eps, profile)
                    noisy = list(zip(c.tolist(), noisy_temps.tolist()))
                    got = fit_emissivity(noisy, profile)
                    assert got == oracles.fit_emissivity(noisy, profile)

    def test_window_pairs(self, profile):
        bare = replace(profile, window_transmission=1.0)
        eps = profile.emissivity_powder
        for temps in (np.linspace(25.0, 325.0, 4), np.linspace(25.0, 300.0, 7)):
            pairs = [
                (forward_counts(float(t), eps, profile), forward_counts(float(t), eps, bare), float(t))
                for t in temps
            ]
            got = fit_window_transmission(pairs, profile)
            assert got == oracles.fit_window_transmission(pairs, profile)
        cold = [(forward_counts(-20.0, eps, profile), 0.0, -20.0)] + pairs
        for fit in (fit_window_transmission, oracles.fit_window_transmission):
            with pytest.raises(ParameterError, match="glass-free"):
                fit(cold, profile)

    def test_low_emissivity_with_below_floor_samples(self, profile, monkeypatch):
        """Samples colder than the surroundings fall below the floor at some of
        the emissivities the search visits, so those steps cost 1e12 each."""
        rng = np.random.default_rng(7)
        temps = np.linspace(-60.0, 480.0, 40)
        samples = [
            (forward_counts(float(t + rng.normal(0.0, 5.0)), 0.02, profile), float(t))
            for t in temps
        ]
        want = oracles.fit_emissivity(samples, profile)
        below = []

        def spy(counts, eps, prof):
            t, valid = invert_counts_array(counts, eps, prof)
            below.append(int((~valid).sum()))
            return t, valid

        monkeypatch.setattr(radiometry, "invert_counts_array", spy)
        assert fit_emissivity(samples, profile) == want
        assert max(below) > 0 and below[-1] == 0

    def test_samples_colder_than_the_surroundings(self, profile):
        """Every sample is below the floor at the lower emissivities, so only
        the 1e12 cost keeps the search off them."""
        temps = np.linspace(-150.0, -40.0, 12)
        samples = [(forward_counts(float(t), 0.3, profile), float(t)) for t in temps]
        counts = np.array([c for c, _ in samples])
        assert not invert_counts_array(counts, 0.2, profile)[1].any()
        got = fit_emissivity(samples, profile)
        assert got == oracles.fit_emissivity(samples, profile)
        assert got[0] == pytest.approx(0.3, abs=1e-3)

    def test_below_floor_at_the_fit_names_the_sample(self, profile):
        samples = [(forward_counts(t, 0.63, profile), t) for t in (100.0, 300.0)]
        samples.append((0.0, 500.0))
        with pytest.raises(BelowFloorError, match=r"^sample 3 \(counts 0\.000, reference 500 degC\)"):
            fit_emissivity(samples, profile)


class TestConvertFrame:
    def test_uniform_unity_frame(self, profile):
        counts = forward_counts(80.0, 1.0, profile)
        frame = np.full((8, 8), counts)
        values, valid = invert_counts_array(frame, 1.0, profile)
        assert np.allclose(values, 80.0, atol=0.01)
        assert valid.all()

    def test_asprinted_reads_hotter(self, profile):
        counts = forward_counts(300.0, 0.63, profile)
        frame = np.full((4, 8), counts)
        eps = np.full((4, 8), profile.emissivity_powder)
        eps[:, 4:] = profile.emissivity_printed
        values, _ = invert_counts_array(frame, eps, profile)
        assert (values[:, 4:] > values[:, :4]).all()

    def test_all_below_floor_flagged(self, profile):
        frame = np.zeros((4, 4))
        _, valid = invert_counts_array(frame, profile.emissivity_powder, profile)
        assert not valid.any()

    def test_pixel_local_permutation(self, profile, rng):
        frame = rng.uniform(3000, 20000, size=(6, 6))
        eps = profile.emissivity_powder
        perm = rng.permutation(36)
        out1 = invert_counts_array(frame, eps, profile)[0].ravel()[perm]
        out2 = invert_counts_array(frame.ravel()[perm].reshape(6, 6), eps, profile)[0].ravel()
        assert np.allclose(out1, out2)


class TestArrayInvert:
    def test_matches_scalar(self, profile, rng):
        frame = rng.uniform(3000, 30000, size=(5, 5))
        vals, ok = invert_counts_array(frame, 0.63, profile)
        assert ok.all()
        for (i, j), c in np.ndenumerate(frame):
            assert vals[i, j] == pytest.approx(invert_counts(float(c), 0.63, profile))


class TestProfileConfig:
    def test_round_trip(self, profile):
        prof = replace(
            profile,
            emissivity_printed=0.3,
            model=RadianceModel(a_um=10.0, b_um_k=5.0, c_counts=50000.0),
        )
        text = profile_to_text(prof)
        back = profile_from_text(text)
        assert back == prof
