import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionbands.config import BandParams, alpha_from_decay
from motionbands.errors import InvalidParameterError, RejectedInputError
from motionbands.filters import BandOutputs, CascadeFilter, _ema
from motionbands.isochron import IsochronalStore
from motionbands.motion import MotionFrame

from inputs import zero_frame


def _frame(density, t=0):
    d = np.atleast_2d(np.asarray(density, dtype=float))
    hist = np.zeros(d.shape + (8,))
    return MotionFrame(density=d, dir_hist=hist, timestamp_ms=t)


def _rand_frame(rng, gw, gh, t=0, scale=1.0):
    return MotionFrame(
        density=rng.uniform(0, scale, (gh, gw)),
        dir_hist=rng.uniform(0, scale, (gh, gw, 8)),
        timestamp_ms=t,
    )


class TestAlphaFromDecay:
    def test_twenty_second_inplace_constant(self):
        # Direct evaluation oracle: 0.1 ** (1/20)
        assert alpha_from_decay(1, 20) == pytest.approx(0.1 ** (1 / 20))
        assert alpha_from_decay(1, 20) == pytest.approx(0.891251, abs=1e-6)

    def test_single_sample_gives_point_one(self):
        assert alpha_from_decay(1, 1) == pytest.approx(0.1)

    def test_ten_sample_isochronal_constant(self):
        assert alpha_from_decay(1, 10) == pytest.approx(0.1 ** 0.1)
        assert alpha_from_decay(1, 10) == pytest.approx(0.794328, abs=1e-6)

    def test_thirty_minute_noise_constant_at_30fps(self):
        assert alpha_from_decay(30, 1800) == pytest.approx(0.1 ** (1 / 54000))
        assert alpha_from_decay(30, 1800) == pytest.approx(0.99995735, abs=1e-7)

    def test_invalid_inputs(self):
        # A NaN span would give a NaN alpha, and an infinite one an alpha
        # of 1.0: a filter that never moves.
        nan, inf = math.nan, math.inf
        for r, t in [(0, 1), (-1, 1), (1, 0), (1, -5), (nan, 1), (inf, 1), (1, nan), (1, inf)]:
            with pytest.raises(InvalidParameterError):
                alpha_from_decay(r, t)

    @pytest.mark.parametrize("rate,duration", [(1, 10), (1, 20), (30, 1800), (1, 10.0)])
    def test_decay_law(self, rate, duration):
        # Impulse then zeros: after rate*duration samples the response is
        # 10% of the initial value.
        alpha = alpha_from_decay(rate, duration)
        n = int(round(rate * duration))
        value = 1.0
        for _ in range(n):
            value = alpha * value  # zero input
        assert value == pytest.approx(0.1, abs=1e-9)

    def test_decay_spec_carries_alpha(self):
        # BandParams derives each stage's alpha from its rate and span.
        p = BandParams(t_s1_s=20.0, shortterm_rate=1.0)
        assert p.alpha_s1 == alpha_from_decay(1, 20)
        assert p.alpha_l1 == alpha_from_decay(p.frame_rate, p.t_l1_s)
        for alpha in (p.alpha_l1, p.alpha_s1):
            assert 0 < alpha < 1


def _ema_of(state, x, alpha):
    """The filters' in-place EMA applied to copies of ``state`` and ``x``."""
    lp = np.array(state, dtype=float)
    _ema(lp, np.array(x, dtype=float), alpha, np.empty_like(lp))
    return lp


class TestEmaStep:
    def test_alpha_zero_passes_input(self):
        out = _ema_of(np.full((2, 3), 5.0), np.full((2, 3), 1.0), 0.0)
        np.testing.assert_array_equal(out, np.full((2, 3), 1.0))

    def test_alpha_one_holds_state(self):
        out = _ema_of(np.full((2, 3), 5.0), np.full((2, 3), 1.0), 1.0)
        np.testing.assert_array_equal(out, np.full((2, 3), 5.0))

    def test_ten_percent_decay_after_ten_steps(self):
        alpha = alpha_from_decay(1, 10)
        state = np.full((1, 1), 10.0)
        for _ in range(10):
            state = _ema_of(state, np.zeros((1, 1)), alpha)
        assert state[0, 0] == pytest.approx(1.0, abs=1e-9)

    @given(
        alpha=st.floats(0, 1),
        s=st.floats(0, 100),
        x=st.floats(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_convex_combination(self, alpha, s, x):
        out = float(_ema_of([[s]], [[x]], alpha)[0, 0])
        assert min(s, x) - 1e-9 <= out <= max(s, x) + 1e-9
        assert out == pytest.approx(alpha * s + (1 - alpha) * x)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_linearity_in_input(self, scale):
        alpha = 0.7
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 4, 20)
        a = b = np.zeros((1, 1))
        for x in xs:
            a = _ema_of(a, [[x]], alpha)
            b = _ema_of(b, [[x * scale]], alpha)
        assert b[0, 0] == pytest.approx(a[0, 0] * scale, rel=1e-12)


# Frame rate 1 with a 10 s noise-removal span: alpha_l1 = alpha_from_decay(1, 10).
_ONE_FPS_PARAMS = BandParams(
    t_l1_s=10.0, t_s1_s=5.0, t_s2_s=1.0, frame_rate=1.0, shortterm_rate=1.0
)


class TestHighpassStep:
    """The noise-free band is the high-pass ``max(0, x - lowpass(x))``."""

    def test_alpha_zero_gives_zero_output(self):
        rng = np.random.default_rng(2)
        lp = np.full((1, 1), 3.0)
        for x in rng.uniform(0, 10, 10):
            lp = _ema_of(lp, [[x]], 0.0)
            assert x - lp[0, 0] == 0.0

    def test_constant_input_decays_to_zero(self):
        f = CascadeFilter(1, 1, _ONE_FPS_PARAMS)  # n = 10
        c = 7.0
        out = None
        for i in range(5 * 10):
            out = f.step(_frame([[c]], t=i * 1000))
        assert out.m_l1.density[0, 0] < 1e-3 * c

    def test_impulse_response_matches_recursion_oracle(self):
        # Independent oracle: scalar recursion of lp' = a*lp + (1-a)*x,
        # hp = x - lp', in plain Python floats.
        alpha = _ONE_FPS_PARAMS.alpha_l1
        assert alpha == pytest.approx(0.794328, abs=1e-6)
        v = 3.0
        xs = [v, 0.0, 0.0, 0.0, 0.0]
        lp = 0.0
        expected = []
        for x in xs:
            lp = alpha * lp + (1 - alpha) * x
            expected.append(max(0.0, x - lp))

        f = CascadeFilter(1, 1, _ONE_FPS_PARAMS)
        got = [f.step(_frame([[x]], t=i * 1000)).m_l1.density[0, 0] for i, x in enumerate(xs)]
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # First response to an impulse from rest is alpha * v.
        assert got[0] == pytest.approx(alpha * v)


class TestBandParams:
    def test_defaults_are_consistent(self):
        p = BandParams()
        assert p.stride == 30
        assert p.fir_window == 1
        assert p.alpha_s1 == pytest.approx(0.891251, abs=1e-6)
        assert p.alpha_l1 == pytest.approx(0.1 ** (1 / 54000))
        # The isochronal stage, one sample per day, lives in the store.
        assert IsochronalStore("c", 1, 1, p.t_l2_days).alpha_l2 == pytest.approx(0.1 ** 0.1)

    def test_band_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            BandParams(t_s1_s=1.0, t_s2_s=2.0)
        with pytest.raises(InvalidParameterError):
            BandParams(t_l1_s=10.0, t_s1_s=20.0)
        with pytest.raises(InvalidParameterError):
            BandParams(frame_rate=7.0, shortterm_rate=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["t_l1_s", "t_l2_days", "t_s1_s", "t_s2_s", "frame_rate", "shortterm_rate"]
    )
    def test_non_finite_values_rejected(self, name, bad):
        # NaN fails no comparison in the ordering checks, so each value is
        # checked for finiteness on its own.
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            BandParams(**{name: bad})


class TestCascade:
    def _params(self):
        return BandParams(t_l1_s=60.0, t_s1_s=20.0, t_s2_s=1.0, frame_rate=5.0, shortterm_rate=1.0)

    def test_zero_stream_stays_zero(self):
        params = self._params()
        f = CascadeFilter(3, 2, params)
        for i in range(50):
            out = f.step(zero_frame(3, 2, i * 200))
            assert np.all(out.m_l1.density == 0)
            assert np.all(out.m_s1.density == 0)
            assert np.all(out.m_s2.density == 0)

    def test_constant_stream_converges_to_zero_bands(self):
        # Steady-state oracle: a constant input is stationary motion noise;
        # the noise-removal high-pass drives every band to zero.
        params = self._params()
        f = CascadeFilter(1, 1, params)
        c = 4.0
        out = None
        n = int(5 * params.t_l1_s * params.frame_rate)
        for i in range(n):
            out = f.step(_frame([[c]], t=i * 200))
        assert out.m_l1.density[0, 0] < 1e-4 * c
        assert out.m_s1.density[0, 0] < 1e-3 * c
        assert out.m_s2.density[0, 0] < 1e-3 * c

    def test_grid_mismatch_rejected(self):
        f = CascadeFilter(3, 2, self._params())
        with pytest.raises(RejectedInputError):
            f.step(zero_frame(2, 3))

    def test_short_term_bands_carried_between_ticks(self):
        params = self._params()  # stride 5
        f = CascadeFilter(1, 1, params)
        outs = [f.step(_frame([[1.0]], t=i * 200)) for i in range(10)]
        # Ticks 0..3 precede the first short-term update.
        for o in outs[:4]:
            assert o.m_s1.density[0, 0] == 0.0
        assert outs[4].m_s1.density[0, 0] > 0.0
        for o in outs[5:9]:
            assert o.m_s1.density[0, 0] == outs[4].m_s1.density[0, 0]
        assert outs[9].m_s1.density[0, 0] != outs[4].m_s1.density[0, 0]

    def test_band_partition_before_clamp(self):
        # At short-term ticks, m_s1 + band-pass input = mean m_l1 exactly.
        params = self._params()
        rng = np.random.default_rng(3)
        f = CascadeFilter(2, 2, params)
        acc = []
        for i in range(40):
            frame = _rand_frame(rng, 2, 2, t=i * 200)
            out = f.step(frame)
            acc.append(out.m_l1.density.copy())
            if (i + 1) % params.stride == 0:
                st_mean = np.mean(acc, axis=0)
                hp = st_mean - out.m_s1.density
                np.testing.assert_allclose(
                    out.m_s1.density + hp, st_mean, atol=1e-12
                )
                acc = []

    def test_density_only_frames_filter_like_frames_with_bins(self):
        rng = np.random.default_rng(13)
        params = self._params()
        with_bins, without = CascadeFilter(4, 3, params), CascadeFilter(4, 3, params)
        for i in range(3 * params.stride):
            frame = _rand_frame(rng, 4, 3, t=i * 200)
            bare = MotionFrame(frame.density, np.zeros((3, 4, 0)), frame.timestamp_ms)
            _assert_bands_equal(with_bins.step(frame), without.step(bare))


class TestCascadeVsReference:
    @pytest.mark.parametrize("seed", [42, 7, 99])
    def test_equivalence_on_random_streams(self, seed):
        params = BandParams(
            t_l1_s=120.0, t_s1_s=20.0, t_s2_s=2.0, frame_rate=10.0, shortterm_rate=2.0
        )
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        cas = CascadeFilter(4, 3, params)
        ref = _FiveFilterReference(4, 3, params)
        worst = 0.0
        for i in range(1000):
            fa = _rand_frame(rng_a, 4, 3, t=i * 100)
            fb = _rand_frame(rng_b, 4, 3, t=i * 100)
            oa = cas.step(fa)
            ob = ref.step(fb)
            for a, b in ((oa.m_l1, ob.m_l1), (oa.m_s1, ob.m_s1), (oa.m_s2, ob.m_s2)):
                worst = max(worst, float(np.abs(a.density - b.density).max()))
        assert worst <= 1e-9


class TestStreamProperties:
    @given(scale=st.sampled_from([0.5, 2.0, 10.0]), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_linearity_of_bands_on_nonnegative_streams(self, scale, seed):
        # Monotone-ramp input never trips the clamp, so scaling the input
        # scales every band.
        params = BandParams(t_l1_s=30.0, t_s1_s=5.0, t_s2_s=1.0, frame_rate=2.0, shortterm_rate=1.0)
        a = CascadeFilter(1, 1, params)
        b = CascadeFilter(1, 1, params)
        rng = np.random.default_rng(seed)
        x = 0.0
        for i in range(30):
            x += float(rng.uniform(0, 1))
            oa = a.step(_frame([[x]], t=i * 500))
            ob = b.step(_frame([[x * scale]], t=i * 500))
            assert ob.m_l1.density[0, 0] == pytest.approx(oa.m_l1.density[0, 0] * scale, rel=1e-9)
            assert ob.m_s1.density[0, 0] == pytest.approx(oa.m_s1.density[0, 0] * scale, rel=1e-9)
            assert ob.m_s2.density[0, 0] == pytest.approx(oa.m_s2.density[0, 0] * scale, rel=1e-9)

    def test_outputs_finite_for_large_dense_streams(self):
        params = BandParams(t_l1_s=30.0, t_s1_s=5.0, t_s2_s=1.0, frame_rate=1.0, shortterm_rate=1.0)
        f = CascadeFilter(1, 1, params)
        out = None
        for i in range(20000):
            out = f.step(_frame([[65504.0]], t=i * 1000))  # the largest density accepted
        for band in (out.m_l1, out.m_s1, out.m_s2):
            assert np.all(np.isfinite(band.density))
            assert np.all(np.isfinite(band.dir_hist))

    def test_outputs_are_read_only_snapshots(self):
        f = CascadeFilter(1, 1, BandParams(frame_rate=1.0, shortterm_rate=1.0))
        out = f.step(_frame([[1.0]]))
        with pytest.raises(ValueError):
            out.m_s1.density[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Oracle: the cascade tick as it was before its state was updated in place,
# on a packed (gh, gw, 9) tensor with a deque FIR.
# ---------------------------------------------------------------------------

def _reference_stack(frame):
    return np.concatenate([frame.density[..., None], frame.dir_hist], axis=2)


def _reference_unstack(arr, timestamp_ms):
    density = arr[..., 0].copy()
    hist = arr[..., 1:].copy()
    density.flags.writeable = False
    hist.flags.writeable = False
    return MotionFrame(density=density, dir_hist=hist, timestamp_ms=timestamp_ms)


def _reference_init(grid_w, grid_h, params):
    shape = (grid_h, grid_w, 9)
    return SimpleNamespace(
        params=params,
        lp_l1=np.zeros(shape),
        lp_s1=np.zeros(shape),
        fir=deque(maxlen=params.fir_window),
        acc=np.zeros(shape),
        acc_n=0,
        tick=0,
        m_s1=np.zeros(shape),
        m_s2=np.zeros(shape),
        shape=shape,
    )


def _reference_step(s, frame):
    x = _reference_stack(frame)
    a1 = s.params.alpha_l1
    s.lp_l1 = a1 * s.lp_l1 + (1.0 - a1) * x
    m_l1 = np.maximum(0.0, x - s.lp_l1)
    s.acc += m_l1
    s.acc_n += 1
    s.tick += 1
    if s.tick % s.params.stride == 0:
        st_input = s.acc / s.acc_n
        as1 = s.params.alpha_s1
        s.lp_s1 = as1 * s.lp_s1 + (1.0 - as1) * st_input
        s.m_s1 = s.lp_s1
        s.fir.append(st_input - s.lp_s1)
        s.m_s2 = np.maximum(0.0, np.mean(np.stack(s.fir), axis=0))
        s.acc = np.zeros(s.shape)
        s.acc_n = 0
    t = frame.timestamp_ms
    return BandOutputs(
        m_l1=_reference_unstack(m_l1, t),
        m_s1=_reference_unstack(s.m_s1, t),
        m_s2=_reference_unstack(s.m_s2, t),
    )


class _FiveFilterReference:
    """The non-cascaded band extraction: the band-pass high side runs its
    own low-pass on a third short-term state frame instead of reusing the
    in-place one, five filter applications per fully updated tick (with
    the isochronal stage downstream) against the cascade's four. Its
    bands are density-only frames, like the cascade's."""

    def __init__(self, grid_w, grid_h, params):
        shape = (grid_h, grid_w)
        self.params = params
        self.lp_l1 = np.zeros(shape)
        self.lp_s1 = np.zeros(shape)
        self.lp_bp = np.zeros(shape)
        self.acc = np.zeros(shape)
        self.acc_n = 0
        self.fir = deque(maxlen=params.fir_window)
        self.m_s1 = self.m_s2 = np.zeros(shape)

    def step(self, frame):
        x = frame.density
        a1, as1 = self.params.alpha_l1, self.params.alpha_s1
        self.lp_l1 = a1 * self.lp_l1 + (1.0 - a1) * x
        m_l1 = np.maximum(0.0, x - self.lp_l1)
        self.acc = self.acc + m_l1
        self.acc_n += 1
        if self.acc_n == self.params.stride:
            st_input = self.acc / self.acc_n
            self.lp_s1 = as1 * self.lp_s1 + (1.0 - as1) * st_input
            self.lp_bp = as1 * self.lp_bp + (1.0 - as1) * st_input
            self.fir.append(st_input - self.lp_bp)
            self.m_s1 = self.lp_s1
            self.m_s2 = np.maximum(0.0, np.mean(np.stack(self.fir), axis=0))
            self.acc = np.zeros_like(self.acc)
            self.acc_n = 0
        t = frame.timestamp_ms
        no_bins = np.zeros(x.shape + (0,))
        return BandOutputs(
            *(MotionFrame(b.copy(), no_bins, t) for b in (m_l1, self.m_s1, self.m_s2))
        )


def _assert_bands_equal(got, want):
    """Equal densities; ``got`` carries no bins. The oracle also filters
    the bins, which nothing downstream reads."""
    assert got.timestamp_ms == want.timestamp_ms
    for a, b in ((got.m_l1, want.m_l1), (got.m_s1, want.m_s1), (got.m_s2, want.m_s2)):
        np.testing.assert_array_equal(a.density, b.density)
        assert a.dir_hist.shape == a.density.shape + (0,)


@st.composite
def _band_params(draw):
    # Power-of-two rates keep stride and window exact in floating point.
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
    stride = draw(st.integers(1, 30))
    window = draw(st.integers(1, 6))
    t_s2 = window / rate
    t_s1 = t_s2 * draw(st.floats(1.5, 20.0))
    t_l1 = t_s1 * draw(st.floats(1.5, 50.0))
    params = BandParams(
        t_l1_s=t_l1, t_s1_s=t_s1, t_s2_s=t_s2, frame_rate=stride * rate, shortterm_rate=rate
    )
    assert (params.stride, params.fir_window) == (stride, window)
    return params


def _stream_frame(kind, rng, gw, gh, t):
    shape = (gh, gw)
    if kind == "zero":
        return zero_frame(gw, gh, t)
    if kind == "constant":
        return MotionFrame(np.full(shape, 0.37), np.full(shape + (8,), 0.11), t)
    if kind == "large":
        return _rand_frame(rng, gw, gh, t, scale=65504.0)  # up to the largest density accepted
    frame = _rand_frame(rng, gw, gh, t)
    # Exact zeros on about half the blocks, as on a real sparse scene.
    frame.density[rng.random(shape) < 0.5] = 0.0
    frame.dir_hist[rng.random(shape + (8,)) < 0.5] = 0.0
    return frame


class TestCascadeVsOracle:
    """The in-place cascade against the packed-tensor tick it replaced.

    Every window length rounds the same way as the oracle, because the
    FIR ring is summed oldest first like the mean over the stacked deque.
    """

    @given(
        params=_band_params(),
        gw=st.integers(1, 12),
        gh=st.integers(1, 9),
        kind=st.sampled_from(["zero", "constant", "large", "random"]),
        extra=st.integers(0, 29),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bands_bit_identical(self, params, gw, gh, kind, extra, seed):
        rng = np.random.default_rng(seed)
        f = CascadeFilter(gw, gh, params)
        ref = _reference_init(gw, gh, params)
        n = params.stride * (params.fir_window + 3) + extra % params.stride
        for i in range(n):
            frame = _stream_frame(kind, rng, gw, gh, t=i * 100)
            _assert_bands_equal(f.step(frame), _reference_step(ref, frame))

    def test_default_params_bit_identical(self):
        params = BandParams()
        rng = np.random.default_rng(5)
        f = CascadeFilter(40, 30, params)
        ref = _reference_init(40, 30, params)
        for i in range(4 * params.stride):
            frame = _stream_frame("random", rng, 40, 30, t=i * 33)
            _assert_bands_equal(f.step(frame), _reference_step(ref, frame))

    def test_reference_filter_bit_identical(self):
        # The non-cascaded variant runs the same low-pass twice, so its
        # bands round exactly as the cascade's do.
        params = BandParams(
            t_l1_s=120.0, t_s1_s=20.0, t_s2_s=3.0, frame_rate=4.0, shortterm_rate=1.0
        )
        rng = np.random.default_rng(8)
        f = _FiveFilterReference(3, 2, params)
        ref = _reference_init(3, 2, params)
        for i in range(60):
            frame = _stream_frame("random", rng, 3, 2, t=i * 250)
            _assert_bands_equal(f.step(frame), _reference_step(ref, frame))


_FIVE_FPS_PARAMS = BandParams(
    t_l1_s=60.0, t_s1_s=10.0, t_s2_s=2.0, frame_rate=5.0, shortterm_rate=1.0
)


def _band_arrays(out):
    return [band.density for band in (out.m_l1, out.m_s1, out.m_s2)]


class TestBandSnapshots:
    def test_bands_unchanged_and_read_only_after_three_more_short_term_ticks(self):
        params = _FIVE_FPS_PARAMS  # a short-term tick every 5 frames
        rng = np.random.default_rng(4)
        f = CascadeFilter(4, 3, params)
        kept = []
        for i in range(2 * params.stride + 2):
            out = f.step(_rand_frame(rng, 4, 3, t=i * 200))
            arrays = _band_arrays(out)
            kept.append((arrays, [a.copy() for a in arrays]))
        for i in range(3 * params.stride):
            f.step(_rand_frame(rng, 4, 3, t=(i + 20) * 200))
        for arrays, copies in kept:
            for a, c in zip(arrays, copies):
                assert not a.flags.writeable
                np.testing.assert_array_equal(a, c)
                with pytest.raises(ValueError):
                    a[...] = 1.0

    def test_short_term_bands_shared_between_short_term_ticks(self):
        rng = np.random.default_rng(6)
        f = CascadeFilter(2, 2, _FIVE_FPS_PARAMS)
        outs = [f.step(_rand_frame(rng, 2, 2, t=i * 200)) for i in range(10)]
        # Ticks 4 and 9 are short-term ticks; 5..8 carry tick 4's bands.
        for o in outs[5:9]:
            assert o.m_s1.density is outs[4].m_s1.density
            assert o.m_s2.density is outs[4].m_s2.density
        assert outs[9].m_s1.density is not outs[4].m_s1.density


class TestRejectedFrames:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    @pytest.mark.parametrize("channel", ["density", "dir_hist"])
    def test_bad_frame_leaves_state_unchanged(self, bad, channel):
        # One bad frame among 100 clean ones: the bands equal those of the
        # clean stream alone.
        rng = np.random.default_rng(12)
        clean = [_rand_frame(rng, 4, 3, t=i * 200) for i in range(100)]
        poisoned = MotionFrame(clean[50].density.copy(), clean[50].dir_hist.copy(), clean[50].timestamp_ms)
        getattr(poisoned, channel)[(1, 2) if channel == "density" else (1, 2, 5)] = bad
        f = CascadeFilter(4, 3, _FIVE_FPS_PARAMS)
        g = CascadeFilter(4, 3, _FIVE_FPS_PARAMS)
        for i, frame in enumerate(clean):
            if i == 50:
                with pytest.raises(RejectedInputError):
                    f.step(poisoned)
            _assert_bands_equal(f.step(frame), g.step(frame))

    def test_zero_and_negative_zero_accepted(self):
        f = CascadeFilter(2, 1, _FIVE_FPS_PARAMS)
        out = f.step(_frame([[0.0, -0.0]]))
        assert np.all(out.m_l1.density == 0.0)
        # -0.0 fails the input check's one-reduction fast pass and is
        # accepted by the exact check behind it, in the bins too.
        out = f.step(MotionFrame(np.full((1, 2), -0.0), np.full((1, 2, 8), -0.0), 200))
        assert np.all(out.m_l1.density == 0.0)
