import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import i0e, i1e

from wptsim import engine, sync
from wptsim.channel import dbm_to_watt
from wptsim.chirp import (
    ChirpParams,
    awgn_power,
    block_mean,
    fluctuation_bin_hz,
    fluctuation_rate,
    generate_sweep,
)
from wptsim.sync import (
    ENVELOPE_DECIMATE,
    FINE_WINDOW_SYMBOLS,
    FineSyncEnvelope,
    SyncError,
    SyncResult,
    _coarse_residuals,
    _fine_walk,
    coarse_sync,
    fine_sync_envelope,
    fine_sync_pad,
    fine_sync_table_bytes,
    rician_moments,
    run_sync,
)

# A small, fast parameter set: 5 kHz band, 12.8 ms symbol, 640 samples.
FAST = ChirpParams(bandwidth_hz=5e3, symbol_time_s=0.0128, sample_rate_hz=50e3)
# The README scenario's chirp, and the 1 ms, 512 kHz, 10 kHz chirp of the
# readme_fast golden scenario.
README_CHIRP = ChirpParams()
README_FAST_CHIRP = ChirpParams(bandwidth_hz=10e3, symbol_time_s=1e-3, sample_rate_hz=512e3)


def _noise_power_at(floor_dbm: float, params: ChirpParams) -> float:
    """Sample-domain noise power of a floor given in the chirp band, as the
    engine computes it."""
    return dbm_to_watt(floor_dbm) * params.sample_rate_hz / params.bandwidth_hz


def _rate_by_samples(rx: FineSyncEnvelope, offset: int, noise_power: float, rng) -> float:
    """One fine round built sample by sample: the superposed sweeps plus
    white noise at the sample rate, then the decimated envelope's rate."""
    mixed = rx.samples(offset)
    if noise_power > 0:
        mixed = mixed + awgn_power(mixed.size, noise_power, rng)
    env = np.abs(mixed)
    return fluctuation_rate(block_mean(env, ENVELOPE_DECIMATE), rx.envelope_rate_hz)


def _fine_sync_by_samples(true_offsets, params, rng, noise_power=0.0,
                          residual_jitter=100) -> SyncResult:
    """The oracle: :func:`run_sync` with every fine round built sample by
    sample, as fine sync ran before it drew whole blocks."""
    residuals = _coarse_residuals([int(o) for o in true_offsets], params, rng,
                                  noise_power, residual_jitter)
    rx = FineSyncEnvelope(params, fine_sync_pad(residual_jitter))
    stop_hz = fluctuation_bin_hz(rx.window, params.sample_rate_hz)
    rel = [r - residuals[0] for r in residuals]
    rounds_per_period, transcript = [], []
    for i in range(1, len(rel)):
        rel[i], rounds = _fine_walk(
            i, rel[i], lambda offsets: [_rate_by_samples(rx, offsets[0], noise_power, rng)],
            stop_hz, rx.pad, transcript)
        rounds_per_period.append(rounds)
    return SyncResult(rel, rounds_per_period, transcript)


def test_coarse_sync_recovers_offset():
    ref = generate_sweep(FAST, 1)
    off = 217
    cap = np.zeros(3 * FAST.n_samples, dtype=np.complex128)
    cap[off : off + FAST.n_samples] = ref
    assert coarse_sync(cap, ref) == off


def test_coarse_sync_rejects_pure_noise():
    rng = np.random.default_rng(0)
    ref = generate_sweep(FAST, 1)
    noise = rng.standard_normal(3 * FAST.n_samples) * 0.1
    with pytest.raises(SyncError):
        coarse_sync(noise.astype(complex), ref)


def _scripted_walk(rates, offset=5, stop_hz=1.0, pad=50):
    """(final offset, rounds, transcript) of a walk that reads ``rates`` in
    turn, one per block, whatever its offset."""
    rates = iter(rates)
    transcript = []
    offset, rounds = _fine_walk(2, offset, lambda offsets: [next(rates)], stop_hz, pad,
                                transcript)
    return offset, rounds, transcript


def test_walk_stops_below_one_bin():
    assert _scripted_walk([1.0], stop_hz=5.0) == (5, 1, [(2, 1, 5, 1.0, "stop")])


def test_walk_turns_around_when_rate_grows():
    # The first step subtracts one sample; a rate that grew turns the walk.
    assert _scripted_walk([100.0, 150.0, 0.5]) == (5, 3, [
        (2, 1, 5, 100.0, "sub"), (2, 2, 4, 150.0, "add"), (2, 3, 5, 0.5, "stop")])


def test_walk_keeps_direction_when_rate_drops():
    assert _scripted_walk([100.0, 60.0, 0.5]) == (3, 3, [
        (2, 1, 5, 100.0, "sub"), (2, 2, 4, 60.0, "sub"), (2, 3, 3, 0.5, "stop")])


def test_walk_that_never_stops_uses_its_round_budget():
    offset, rounds, transcript = _scripted_walk([10.0] * 20, offset=-5)
    assert rounds == len(transcript) == abs(-5) + 8
    assert [row[2] for row in transcript] == list(range(-5, -18, -1))
    assert offset == -18


def test_walk_outside_the_pad_raises():
    with pytest.raises(SyncError, match="fine sync walked outside the modeled window"):
        _scripted_walk([10.0] * 20, offset=3, pad=4)


def _misleading_walk(seed: int, offset: int, cap: int):
    """(result or error, transcript, blocks) of a walk whose rate at round r
    and offset o is 20 |o| Hz plus noise of 25 Hz std, a function of (seed,
    r, o) alone, so that it turns, stops and steps off its path by chance;
    each block reads at most ``cap`` rates."""
    transcript, blocks = [], [0]

    def rate(r, o):
        noise = np.random.default_rng([seed, r, o + 1000]).normal(0.0, 25.0)
        return max(0.0, 20.0 * abs(o) + noise)

    def rates_at(offsets):
        blocks[0] += 1
        first = len(transcript)
        return [rate(first + j, o) for j, o in enumerate(offsets[:cap])]

    try:
        out = _fine_walk(1, offset, rates_at, 15.0, 12, transcript)
    except SyncError as exc:
        out = str(exc)
    return out, transcript, blocks[0]


def test_block_walk_equals_one_round_at_a_time_when_rates_mislead_it():
    blocks, walks = {}, 0
    for seed in range(60):
        for offset in (-9, -3, 0, 4, 12):
            walks += 1
            ref = _misleading_walk(seed, offset, 1)
            for cap in (2, 3, 8, 1000):
                out, transcript, n = _misleading_walk(seed, offset, cap)
                assert (out, transcript) == ref[:2], (seed, offset, cap)
                blocks[cap] = blocks.get(cap, 0) + n
    # Uncapped, a walk that stays on its path takes one block; these walks
    # took more, as noise led them off their paths.
    assert walks < blocks[1000] < blocks[8] <= blocks[3] <= blocks[2], (walks, blocks)


def test_run_sync_zeroes_residuals():
    rng = np.random.default_rng(3)
    offsets = rng.integers(0, 1200, 6)
    res = run_sync(offsets, FAST, rng, residual_jitter=20)
    assert all(abs(r) <= 1 for r in res.residual_offsets)
    assert res.residual_offsets[0] == 0


def test_run_sync_round_budget():
    rng = np.random.default_rng(4)
    offsets = rng.integers(0, 1200, 6)
    res = run_sync(offsets, FAST, rng, residual_jitter=20)
    start = {p: off for p, rnd, off, _, _ in reversed(res.transcript) if rnd == 1}
    for period, rounds in enumerate(res.rounds_per_period, start=1):
        assert rounds <= abs(start[period]) + 3


def test_run_sync_rejects_out_of_window_offset():
    rng = np.random.default_rng(0)
    with pytest.raises(SyncError):
        run_sync([10 * FAST.n_samples], FAST, rng, residual_jitter=100)


def test_run_sync_single_slave_is_trivial():
    rng = np.random.default_rng(0)
    res = run_sync([100], FAST, rng, residual_jitter=100)
    assert res.residual_offsets == [0]
    assert res.rounds_per_period == []


def test_run_sync_empty_raises():
    with pytest.raises(SyncError):
        run_sync([], FAST, np.random.default_rng(0), residual_jitter=100)


def test_run_sync_rejects_bad_noise_power():
    # NaN used to run a noise-free sync; SyncError would read as a sync
    # failure, so a bad argument is a ValueError.
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError) as exc:
            run_sync([100, 200], FAST, np.random.default_rng(0), noise_power=bad,
                     residual_jitter=100)
        assert not isinstance(exc.value, SyncError)
        assert "noise_power" in str(exc.value)


def test_noise_free_fine_sync_equals_sample_oracle():
    # Without noise the per-offset envelope is the oracle's, rates included.
    offsets = np.random.default_rng(5).integers(0, 501, 6)
    res = run_sync(offsets, README_FAST_CHIRP, np.random.default_rng(5), residual_jitter=20)
    ref = _fine_sync_by_samples(offsets, README_FAST_CHIRP, np.random.default_rng(5),
                                residual_jitter=20)
    assert res.transcript == ref.transcript
    assert res.residual_offsets == ref.residual_offsets
    assert res.rounds_per_period == ref.rounds_per_period


@pytest.mark.parametrize("seed", [0, 1])
def test_fine_sync_at_minus_70_dbm_makes_the_oracles_decisions(seed):
    """README chirp at the default -70 dBm floor: residuals, rounds and every
    command and offset match the sample-level oracle.  Rates are not
    compared; a noise draw can move one by a bin without changing a command."""
    offsets = np.random.default_rng(seed).integers(0, 8001, 4)
    noise = _noise_power_at(-70.0, README_CHIRP)
    res = run_sync(offsets, README_CHIRP, np.random.default_rng(seed), noise_power=noise,
                   residual_jitter=20)
    ref = _fine_sync_by_samples(offsets, README_CHIRP, np.random.default_rng(seed),
                                noise_power=noise, residual_jitter=20)
    assert res.residual_offsets == ref.residual_offsets
    assert res.rounds_per_period == ref.rounds_per_period
    assert [(p, n, off, cmd) for p, n, off, _, cmd in res.transcript] == \
        [(p, n, off, cmd) for p, n, off, _, cmd in ref.transcript]


# P(stop) of one fine round at offset r, with noise strong enough to change
# decisions: the readme_fast chirp, window 64 symbols.
_STOP_DRAWS = 400
_STOP_CASES = [(p, r) for p in (4.0, 16.0, 32.0) for r in (1, 3, 8)]
_STOP_PAD = fine_sync_pad(20)


def _two_proportion_z(k1: int, k2: int, n: int) -> float:
    pooled = (k1 + k2) / (2 * n)
    if pooled in (0.0, 1.0):
        return 0.0
    return abs(k1 - k2) / n / math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)


def _stops(rates, rx: FineSyncEnvelope) -> int:
    stop_hz = fluctuation_bin_hz(rx.window, README_FAST_CHIRP.sample_rate_hz)
    return sum(rate < stop_hz for rate in rates)


@pytest.fixture(scope="module")
def oracle_stops():
    out = {}
    for power, r in _STOP_CASES:
        rx = FineSyncEnvelope(README_FAST_CHIRP, _STOP_PAD, power)
        rng = np.random.default_rng([1, int(power), r])
        out[power, r] = _stops((_rate_by_samples(rx, r, power, rng)
                                for _ in range(_STOP_DRAWS)), rx)
    return out


def _block_model_z(oracle_stops, envelope_draw) -> list:
    """z of each case's P(stop), block model against oracle."""
    zs = []
    for power, r in _STOP_CASES:
        rx = FineSyncEnvelope(README_FAST_CHIRP, _STOP_PAD, power)
        rng = np.random.default_rng([2, int(power), r])
        k = _stops((fluctuation_rate(envelope_draw(rx, r, rng), rx.envelope_rate_hz)
                    for _ in range(_STOP_DRAWS)), rx)
        zs.append(_two_proportion_z(k, oracle_stops[power, r], _STOP_DRAWS))
    return zs


def test_block_noise_model_matches_sample_oracle(oracle_stops):
    # The cases span P(stop) from 0 through intermediate values to 1.
    assert {0, _STOP_DRAWS} <= set(oracle_stops.values())
    assert any(0 < k < _STOP_DRAWS for k in oracle_stops.values())
    zs = _block_model_z(oracle_stops, lambda rx, r, rng: rx.draw(
        [r], rng.standard_normal((1, rx.n_blocks)))[0])
    assert max(zs) < 3.3, zs


def test_first_order_block_model_fails_the_oracle(oracle_stops):
    """Block noise around the noise-free envelope, without the Rician bias of
    the mean: the test above must catch it."""
    def first_order(rx, r, rng):
        _, std = rx.blocks(r)
        clean = block_mean(np.abs(rx.samples(r)), ENVELOPE_DECIMATE)
        return clean + std * rng.standard_normal(std.size)

    assert max(_block_model_z(oracle_stops, first_order)) >= 3.3


def _scipy_mean(a, sigma):
    t = 0.25 * a * a
    return sigma * math.sqrt(0.5 * math.pi) * ((1.0 + 2.0 * t) * i0e(t) + 2.0 * t * i1e(t))


_RATIOS = np.concatenate([[0.0, 5e-324, 1e-310, 1e-200, 1e-8],
                          np.geomspace(1e-3, 1e8, 300),
                          # both sides of the power-series seam and of the
                          # three-term far sum
                          np.linspace(10.5, 11.5, 21), np.linspace(1990.0, 2010.0, 21)])


@pytest.mark.parametrize("sigma", [0.7, 5.06e-5])
def test_rician_mean_matches_scipy_bessel(sigma):
    mean, _ = rician_moments(_RATIOS * sigma, sigma)
    np.testing.assert_allclose(mean, _scipy_mean(_RATIOS, sigma), rtol=1e-12, atol=0)


def test_rician_variance_matches_high_precision():
    # nu^2 + 2 sigma^2 - mean^2 cancels in double precision, so the
    # reference is evaluated with 60 digits.
    sigma = 0.7
    _, var = rician_moments(_RATIOS * sigma, sigma)
    with mpmath.workdps(60):
        for a, v in zip(_RATIOS, var):
            a = mpmath.mpf(float(a))
            t = a * a / 4
            f = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-t) * (
                (1 + 2 * t) * mpmath.besseli(0, t) + 2 * t * mpmath.besseli(1, t))
            ref = sigma ** 2 * (a * a + 2 - f * f)
            assert abs(float(v / ref) - 1.0) < 1e-12, (float(a), v, float(ref))


@pytest.mark.parametrize("ratio", [0.0, 0.5, 2.0, 10.0, 3000.0])
def test_rician_moments_match_monte_carlo(ratio):
    rng = np.random.default_rng(11)
    sigma, n = 1.3, 400_000
    nu = ratio * sigma
    samples = np.abs(nu + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    mean, var = rician_moments(np.array([nu]), sigma)
    assert abs(samples.mean() - mean[0]) < 5.0 * math.sqrt(var[0] / n)
    # The sample variance's std is about var * sqrt(2 / n) for these shapes.
    assert abs(samples.var() - var[0]) < 5.0 * var[0] * math.sqrt(2.0 / n)


def _per_round_sync(true_offsets, params, rng, noise_power, residual_jitter) -> SyncResult:
    """:func:`run_sync` as it ran one round at a time: each round reads its
    offset's table row, draws one normal per block and takes one envelope's
    beat rate."""
    residuals = sync._coarse_residuals([int(o) for o in true_offsets], params, rng,
                                       noise_power, residual_jitter)
    rx = fine_sync_envelope(params, fine_sync_pad(residual_jitter), noise_power)
    stop_hz = fluctuation_bin_hz(rx.window, params.sample_rate_hz)

    def rate_at(offsets):
        mean, std = rx.blocks(offsets[0])
        env = mean if std is None else mean + std * rng.standard_normal(mean.size)
        return [fluctuation_rate(env, rx.envelope_rate_hz)]

    rel = [r - residuals[0] for r in residuals]
    rounds_per_period, transcript = [], []
    for i in range(1, len(rel)):
        rel[i], rounds = _fine_walk(i, rel[i], rate_at, stop_hz, rx.pad, transcript)
        rounds_per_period.append(rounds)
    return SyncResult(rel, rounds_per_period, transcript)


class _RowCountingGenerator:
    """A generator that counts the normal rows drawn as (rows, blocks)
    arrays, which only fine sync draws."""

    def __init__(self, rng):
        self._rng = rng
        self.rows = 0

    def standard_normal(self, size=None):
        if isinstance(size, tuple) and len(size) == 2:
            self.rows += size[0]
        return self._rng.standard_normal(size)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


@pytest.mark.newest_python
@pytest.mark.parametrize("jitter", [0, 20, 60])
@pytest.mark.parametrize("noise_power, noisy_coarse", [
    (0.0, True), (_noise_power_at(-70.0, README_FAST_CHIRP), True), (4.0, True),
    (16.0, False)], ids=["noise_off", "minus_70_dbm", "power_4", "fine_only_power_16"])
def test_block_walk_writes_the_per_round_sync_result(noise_power, noisy_coarse, jitter,
                                                     monkeypatch):
    """Blocks capped at 1, 3, 8 and 16 rounds, and the whole path uncapped,
    give the per-round walk's residuals, rounds and transcript bit for bit,
    and leave fewer rows of normals unread per run than a block has (none
    without noise).

    At power 4.0 coarse sync fails seeds 8 and 10.  At power 16 it would
    fail them all, so there coarse sync runs noise-free; the fine walk's
    noise then decides stops short of 0 and steps off the path, and a block
    drops the rates after them."""
    if not noisy_coarse:
        coarse = sync._coarse_residuals
        monkeypatch.setattr(sync, "_coarse_residuals",
                            lambda offsets, params, rng, noise_power, jitter:
                            coarse(offsets, params, rng, 0.0, jitter))
    fine_sync_envelope.cache_clear()
    n_blocks = README_FAST_CHIRP.n_samples * FINE_WINDOW_SYMBOLS // ENVELOPE_DECIMATE
    # No path is longer than a walk's budget, at most pad + 8 rounds.
    whole_path = fine_sync_pad(jitter) + 8
    rates = [0]                     # beat rates computed, read or dropped
    real_rate = sync.fluctuation_rate

    def counting_rate(env, sample_rate_hz):
        out = real_rate(env, sample_rate_hz)
        rates[0] += len(out)
        return out

    monkeypatch.setattr(sync, "fluctuation_rate", counting_rate)
    dropped = {}
    for seed in range(12):
        offsets = np.random.default_rng(seed).integers(0, 501, 6)
        try:
            ref = _per_round_sync(offsets, README_FAST_CHIRP, np.random.default_rng(seed),
                                  noise_power, jitter)
        except SyncError as exc:
            ref = str(exc)
        for cap in (1, 3, 8, 16, whole_path):
            monkeypatch.setattr(sync, "FINE_BLOCK_POINTS", cap * n_blocks)
            rng = _RowCountingGenerator(np.random.default_rng(seed))
            rates[0] = 0
            try:
                res = run_sync(offsets, README_FAST_CHIRP, rng, noise_power=noise_power,
                               residual_jitter=jitter)
            except SyncError as exc:
                assert str(exc) == ref
                continue
            assert res == ref, (seed, cap)
            rounds = sum(res.rounds_per_period)
            unread = rng.rows - (rounds if noise_power else 0)
            assert 0 <= unread <= cap - 1, (seed, cap, unread)
            dropped[cap] = dropped.get(cap, 0) + rates[0] - rounds
    # Blocks of more than one round drop the rates after a stop or where the
    # walk left the path; the next rounds read those rates' normals.
    assert dropped[1] == 0, dropped
    if not noisy_coarse and jitter:
        assert all(dropped[cap] > 0 for cap in (3, 8, 16, whole_path)), dropped


def test_fine_sync_makes_one_rate_call_per_walk_at_minus_70_dbm(monkeypatch):
    """On the readme_fast chirp at -70 dBm, with 24 slaves and the engine's
    offsets, noise never leads a walk off its path: each of the 23 walks
    reads all its rates from one block, one fluctuation_rate call."""
    calls = [0]
    real_rate = sync.fluctuation_rate

    def counting_rate(env, sample_rate_hz):
        calls[0] += 1
        return real_rate(env, sample_rate_hz)

    monkeypatch.setattr(sync, "fluctuation_rate", counting_rate)
    noise = _noise_power_at(-70.0, README_FAST_CHIRP)
    for seed in range(10):
        rng = engine._stream(seed, "sync")
        offsets = rng.integers(0, 501, 24)
        calls[0] = 0
        res = run_sync(offsets, README_FAST_CHIRP, rng, noise_power=noise, residual_jitter=20)
        assert calls[0] == len(res.rounds_per_period) == 23, seed
        assert sum(res.rounds_per_period) > 23, seed


def test_run_sync_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma on its first call, about 2 MB of resident
    # memory; coarse and fine sync take their medians with chirp.median.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sync.__file__)))
    code = """
import sys
import numpy as np
from wptsim.chirp import ChirpParams
from wptsim.sync import run_sync
params = ChirpParams(bandwidth_hz=10e3, symbol_time_s=1e-3, sample_rate_hz=512e3)
res = run_sync([10, 250, 480], params, np.random.default_rng(0),
               noise_power=5.12e-9, residual_jitter=20)
assert sum(res.rounds_per_period) > 0
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False"]


# The fine-sync table is shared by every run_sync call of a process with the
# same chirp, jitter and noise power.

@pytest.mark.parametrize("noise_power", [0.0, 1e-3])
def test_table_arrays_are_read_only(noise_power):
    rx = FineSyncEnvelope(README_FAST_CHIRP, fine_sync_pad(20), noise_power)
    for arr in rx.blocks(3):
        if arr is None:
            continue
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # A drawn envelope is the caller's own; writing it leaves the table be.
    normals = np.random.default_rng(0).standard_normal((2, rx.n_blocks))
    env = rx.draw([3, 2], normals if rx.noisy else None)
    mean, std = rx.blocks(3)
    expect = mean if std is None else mean + std * normals[0]
    np.testing.assert_array_equal(env[0], expect)
    env += 1.0
    np.testing.assert_array_equal(rx.blocks(3)[0], mean)
    assert rx.noisy == (noise_power > 0.0)


def _built_offsets(rx: FineSyncEnvelope) -> set:
    return {row - rx.pad for row, built in enumerate(rx._built) if built}


@pytest.mark.parametrize("floor_dbm", [None, -70.0, 20.0])
def test_table_rows_built_in_steps_are_the_whole_windows_rows(floor_dbm):
    """A README-chirp row is built in four steps; its bytes are those of the
    whole window's moments.  The beat's nulls put some samples of the -70 dBm
    rows in the power-series region of rician_moments, whose loop runs until
    the slowest sample of its call converges; at +20 dBm every sample is
    there."""
    noise = 0.0 if floor_dbm is None else _noise_power_at(floor_dbm, README_CHIRP)
    rx = FineSyncEnvelope(README_CHIRP, fine_sync_pad(2), noise)
    assert rx.window == 4 * sync._BUILD_SAMPLES
    for offset in (-20, -3, 0, 1, 7):
        nu = np.abs(rx.samples(offset))
        if noise:
            mean, var = rician_moments(nu, rx._sigma)
            whole = [block_mean(mean, ENVELOPE_DECIMATE),
                     np.sqrt(block_mean(var, ENVELOPE_DECIMATE) / ENVELOPE_DECIMATE)]
        else:
            whole = [block_mean(nu, ENVELOPE_DECIMATE), None]
        for got, expect in zip(rx.blocks(offset), whole):
            assert (got is None and expect is None) or got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("params", [FAST, README_FAST_CHIRP, README_CHIRP])
@pytest.mark.parametrize("jitter", [0, 20, 60])
def test_table_bytes_are_the_envelopes_allocation(params, jitter):
    # The size that Scenario caps is what the envelope allocates, unfilled.
    for noise, arrays in ((0.0, 1), (1e-3, 2)):
        rx = FineSyncEnvelope(params, fine_sync_pad(jitter), noise)
        held = rx._mean.nbytes + (0 if rx._std is None else rx._std.nbytes)
        assert fine_sync_table_bytes(params, jitter, noise > 0.0) == held
        assert held == arrays * rx._mean.nbytes


def _sync_runs(seeds, noise_power, jitter=20) -> dict:
    """seed -> SyncResult, or the message of the SyncError it raised."""
    out = {}
    for seed in seeds:
        offsets = np.random.default_rng(seed).integers(0, 501, 6)
        try:
            out[seed] = run_sync(offsets, README_FAST_CHIRP, np.random.default_rng(seed),
                                 noise_power=noise_power, residual_jitter=jitter)
        except SyncError as exc:
            out[seed] = str(exc)
    return out


@pytest.mark.parametrize("noise_power", [0.0, _noise_power_at(-70.0, README_FAST_CHIRP), 4.0])
def test_run_sync_is_the_same_with_a_cold_warm_or_reversed_table(noise_power):
    # At power 4.0 coarse sync fails seeds 8 and 10.
    seeds = list(range(12))
    cold = {}
    for seed in seeds:
        fine_sync_envelope.cache_clear()
        cold.update(_sync_runs([seed], noise_power))
    fine_sync_envelope.cache_clear()
    warm = _sync_runs(seeds, noise_power)
    fine_sync_envelope.cache_clear()
    reverse = _sync_runs(seeds[::-1], noise_power)
    assert any(isinstance(r, SyncResult) and r.transcript for r in cold.values())
    assert warm == cold
    assert reverse == cold


def test_run_sync_reads_the_shared_table():
    noise = _noise_power_at(-70.0, README_FAST_CHIRP)
    fine_sync_envelope.cache_clear()
    res = _sync_runs([4], noise)[4]
    rx = fine_sync_envelope(README_FAST_CHIRP, fine_sync_pad(20), noise)
    assert fine_sync_envelope.cache_info().hits == 1
    assert {off for _, _, off, _, _ in res.transcript} == _built_offsets(rx)


def test_each_sync_setting_gets_its_own_table():
    key = (README_FAST_CHIRP, fine_sync_pad(20), 1e-3)
    fine_sync_envelope.cache_clear()
    rx = fine_sync_envelope(*key)
    assert fine_sync_envelope(*key) is rx
    others = [(FAST,) + key[1:],                              # chirp
              key[:1] + (fine_sync_pad(60),) + key[2:],       # jitter
              key[:2] + (2e-3,)]                              # noise power
    for other in others:
        got = fine_sync_envelope(*other)
        assert got is not rx
        assert (got.window, got.pad, got._sigma) == (
            other[0].n_samples * FINE_WINDOW_SYMBOLS, other[1], math.sqrt(other[2] / 2.0))
    assert fine_sync_envelope.cache_info().currsize == 1


def test_table_never_holds_more_than_the_modeled_offsets():
    jitter = 3
    pad = fine_sync_pad(jitter)
    fine_sync_envelope.cache_clear()
    _sync_runs(range(20), 4.0, jitter)
    rx = fine_sync_envelope(README_FAST_CHIRP, pad, 4.0)
    assert 0 < len(_built_offsets(rx)) <= 2 * pad + 1
    for offset in range(-pad, pad + 1):
        rx.blocks(offset)
    for offset in (-pad - 1, pad + 1, 10 * pad):
        with pytest.raises(ValueError, match="outside"):
            rx.blocks(offset)
    assert sorted(_built_offsets(rx)) == list(range(-pad, pad + 1))
