import numpy as np
import pytest

from hcustom import autograd as ag
from hcustom.audio_net import (GROUP, AlignedAudio, AudioInjectConfig,
                               AudioInjector, AudioTrack, align_audio,
                               inject_audio_t)
from hcustom.errors import DimensionMismatchError, FrameCountError
from hcustom.nn import ParamStore

rng = np.random.default_rng(5)
C_A = 6


def track(fa):
    return AudioTrack(rng.normal(size=(fa, 4, C_A)))


def build_injector(c=8, width=12, heads=2, lambda_a=1.0, dtype=np.float64):
    store = ParamStore(dtype=dtype)
    cfg = AudioInjectConfig(lambda_a=lambda_a, width=width, heads=heads)
    return AudioInjector(store, np.random.default_rng(2), c, C_A, cfg)


def brute_force_align(audio, f):
    """Index-loop oracle for the pad-and-regroup mapping."""
    fa, _, ca = audio.shape
    padded = np.zeros(((f + 1) * 4, 4, ca), dtype=audio.dtype)
    padded[(f + 1) * 4 - fa:] = audio
    out = np.zeros((f + 1, 16, ca), dtype=audio.dtype)
    for g in range(f + 1):
        for a in range(4):
            for b in range(4):
                out[g, 4 * a + b] = padded[4 * g + a, b]
    return out


def test_align_shapes_from_formula():
    assert align_audio(track(9), 3).data.shape == (4, 16, C_A)
    assert align_audio(track(4), 2).data.shape == (3, 16, C_A)


def test_align_matches_brute_force_oracle():
    for fa in range(1, 65):
        a = track(fa)
        f = fa // GROUP + 1
        np.testing.assert_array_equal(align_audio(a, f).data,
                                      brute_force_align(a.data, f))


def test_align_strict_mismatch():
    with pytest.raises(FrameCountError):
        align_audio(track(9), 5)


def test_lambda_zero_is_exact_identity():
    inj = build_injector(lambda_a=0.0)
    tokens = rng.normal(size=(3 * 4, 8))
    aligned = AlignedAudio(rng.normal(size=(3, 16, C_A)))
    out = inject_audio_t(ag.Tensor(tokens), aligned, inj, wh=4).data
    np.testing.assert_array_equal(out, tokens)


def test_shape_mismatch_rejected():
    inj = build_injector()
    aligned = AlignedAudio(rng.normal(size=(3, 16, C_A)))
    with pytest.raises(DimensionMismatchError):
        inject_audio_t(ag.Tensor(rng.normal(size=(10, 8))), aligned, inj, wh=4)


def test_zeroed_audio_frame_removes_only_that_update():
    inj = build_injector()
    tokens = rng.normal(size=(3 * 4, 8))
    audio = rng.normal(size=(3, 16, C_A))
    base = inject_audio_t(ag.Tensor(tokens), AlignedAudio(audio), inj, wh=4).data
    base = base.reshape(3, 4, 8)
    zeroed = audio.copy()
    zeroed[1] = 0.0
    out = inject_audio_t(ag.Tensor(tokens), AlignedAudio(zeroed), inj, wh=4).data
    out = out.reshape(3, 4, 8)
    framed = tokens.reshape(3, 4, 8)
    np.testing.assert_array_equal(out[1], framed[1])  # zero value proj bias
    np.testing.assert_array_equal(out[0], base[0])
    np.testing.assert_array_equal(out[2], base[2])


def test_per_frame_isolation_exact():
    inj = build_injector()
    tokens = rng.normal(size=(4 * 6, 8))
    audio = rng.normal(size=(4, 16, C_A))
    base = inject_audio_t(ag.Tensor(tokens), AlignedAudio(audio), inj, wh=6).data
    base = base.reshape(4, 6, 8)
    for g in range(4):
        bumped = audio.copy()
        bumped[g] += rng.normal(size=(16, C_A))
        out = inject_audio_t(ag.Tensor(tokens), AlignedAudio(bumped), inj, wh=6).data
        out = out.reshape(4, 6, 8)
        for other in range(4):
            if other != g:
                np.testing.assert_array_equal(out[other], base[other])


def test_frame_permutation_equivariance():
    inj = build_injector()
    tokens = rng.normal(size=(4 * 5, 8)).reshape(4, 5, 8)
    audio = rng.normal(size=(4, 16, C_A))
    perm = np.array([2, 0, 3, 1])
    base = inject_audio_t(ag.Tensor(tokens.reshape(-1, 8)), AlignedAudio(audio),
                          inj, wh=5).data
    permuted = inject_audio_t(ag.Tensor(tokens[perm].reshape(-1, 8)),
                              AlignedAudio(audio[perm]), inj, wh=5).data
    np.testing.assert_allclose(permuted.reshape(4, 5, 8),
                               base.reshape(4, 5, 8)[perm], atol=1e-12)


def test_rearrange_roundtrip_exact():
    tokens = rng.normal(size=(5 * 7, 8))
    t = ag.Tensor(tokens)
    back = ag.reshape(ag.reshape(t, (5, 7, 8)), (35, 8))
    np.testing.assert_array_equal(back.data, tokens)


def test_injector_gradients_flow():
    inj = build_injector()
    tokens = ag.Tensor(rng.normal(size=(3 * 4, 8)), requires_grad=True)
    aligned = AlignedAudio(rng.normal(size=(3, 16, C_A)))
    out = inject_audio_t(tokens, aligned, inj, wh=4)
    ag.sum_(ag.mul(out, out)).backward()
    assert tokens.grad is not None
    for name, p in inj.store.items():
        assert p.grad is not None, name


def test_config_validation():
    with pytest.raises(ValueError):
        AudioInjectConfig(lambda_a=-1.0)
    with pytest.raises(ValueError):
        AudioInjectConfig(width=10, heads=4)
