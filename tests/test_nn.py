"""Layers, losses, optimizer, gradient checking, serialization."""

import struct

import numpy as np
import pytest
from scipy.special import expit

from hsgppt.nn import (
    Adam,
    BilinearDiscriminator,
    GradCheckEntry,
    GradCheckReport,
    LinearLayer,
    Param,
    bce_pair_loss,
    finite_diff_check,
    glorot,
    pack_arrays,
    sigmoid,
    softmax_cross_entropy,
    softmax_over_filters,
    softmax_over_filters_vjp,
    unpack_arrays,
)


def central_diff(f, arr, eps=1e-6):
    """Independent finite-difference gradient of scalar f over arr in place."""
    g = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f()
        flat[i] = keep - eps
        down = f()
        flat[i] = keep
        g.reshape(-1)[i] = (up - down) / (2 * eps)
    return g


def test_sigmoid_matches_expit_oracle():
    x = np.linspace(-30, 30, 601)
    assert np.max(np.abs(sigmoid(x) - expit(x))) < 1e-14
    # tails must not overflow
    assert sigmoid(np.array([-1e6, 1e6])).tolist() == [0.0, 1.0]


def test_glorot_bounds_and_shape():
    rng = np.random.default_rng(0)
    w = glorot(rng, 300, 100)
    limit = np.sqrt(6.0 / 400.0)
    assert w.shape == (300, 100)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.5 * limit / np.sqrt(3)  # actually spread out, not degenerate
    assert glorot(rng, 4, 4, shape=(2, 3)).shape == (2, 3)


def test_linear_identity_is_affine():
    rng = np.random.default_rng(1)
    layer = LinearLayer(3, 2, rng, activation="identity")
    x = rng.standard_normal((5, 3))
    out, _ = layer.apply(x)
    assert np.allclose(out, x @ layer.weight.value + layer.bias.value, atol=0)


def test_prelu_hand_case():
    rng = np.random.default_rng(2)
    layer = LinearLayer(1, 1, rng, activation="prelu")
    layer.weight.value[:] = 1.0
    layer.bias.value[:] = 0.0
    out, _ = layer.apply(np.array([[-2.0], [3.0]]))
    assert out.tolist() == [[-0.5], [3.0]]  # slope 0.25 on the negative side


def test_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        LinearLayer(2, 2, np.random.default_rng(0), activation="relu6")


def test_linear_vjp_matches_independent_finite_difference():
    rng = np.random.default_rng(3)
    layer = LinearLayer(4, 3, rng)
    x = rng.standard_normal((6, 4))
    d = rng.standard_normal((6, 3))

    def scalar_loss():
        out, _ = layer.apply(x)
        return float((out * d).sum())

    layer.weight.zero_grad()
    layer.bias.zero_grad()
    layer.alpha.zero_grad()
    out, vjp = layer.apply(x)
    dx = vjp(d)
    assert np.allclose(layer.weight.grad, central_diff(scalar_loss, layer.weight.value), atol=1e-6)
    assert np.allclose(layer.bias.grad, central_diff(scalar_loss, layer.bias.value), atol=1e-6)
    assert np.allclose(layer.alpha.grad, central_diff(scalar_loss, layer.alpha.value), atol=1e-6)
    assert np.allclose(dx, central_diff(scalar_loss, x), atol=1e-6)


def test_linear_vjp_project_flag_consistency():
    rng = np.random.default_rng(4)
    layer = LinearLayer(4, 3, rng)
    x = rng.standard_normal((5, 4))
    d = rng.standard_normal((5, 3))
    _, vjp = layer.apply(x)
    dx = vjp(d)
    ds = vjp(d, project=False)
    assert np.allclose(ds @ layer.weight.value.T, dx, atol=0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_prelu_vjp_bit_exact_with_signed_zeros():
    rng = np.random.default_rng(8)
    layer = LinearLayer(4, 6, rng)
    layer.alpha.value[...] = 0.3
    a = 0.3
    d = rng.standard_normal((7, 6))
    d[0, :3] = [0.0, -0.0, -0.0]
    # the activation alone, on pre-activations with zeros of both signs
    s = rng.standard_normal((7, 6))
    s[1, :4] = [0.0, -0.0, -1e-300, 1e-300]
    _, act_vjp = layer.activate(s)
    want = np.where(s < 0, a * d, d)
    assert same_bits(act_vjp(d), want)
    assert same_bits(act_vjp(d, s < 0), want)
    # the full layer: zero input rows give pre-activations equal to the bias
    x = rng.standard_normal((7, 4))
    x[2] = 0.0
    x[3] = -0.0
    layer.bias.value[:2] = [0.0, -1e-300]
    _, vjp = layer.apply(x)
    s = x @ layer.weight.value + layer.bias.value
    assert np.any(s == 0.0)
    neg = s < 0
    ds = vjp(d, project=False)
    assert same_bits(ds, np.where(s < 0, a * d, d))
    assert same_bits(layer.alpha.grad, np.sum(d[neg] * s[neg]))
    # project=False returns ds and leaves the grads project=True would leave
    grads = [p.grad.copy() for p in layer.params()]
    for p in layer.params():
        p.zero_grad()
    assert same_bits(vjp(d), ds @ layer.weight.value.T)
    for p, want in zip(layer.params(), grads):
        assert same_bits(p.grad, want), p.name


@pytest.mark.parametrize("case", ["mixed", "all_negative", "no_negative"])
def test_prelu_slope_gradient_bit_exact(case):
    rng = np.random.default_rng(12)
    layer = LinearLayer(5, 9, rng)
    x = rng.standard_normal((11, 5))
    x[0] = 0.0
    x[1] = -0.0
    shift = {"mixed": 0.0, "all_negative": -50.0, "no_negative": 50.0}[case]
    layer.bias.value[...] = shift
    layer.bias.value[:3] = [0.0, -0.0, -1e-300] if case == "mixed" else shift
    # a transposed (column-major) upstream gradient with zeros of both signs
    d = np.asfortranarray(rng.standard_normal((11, 9)))
    d[2, :3] = [0.0, -0.0, -0.0]
    _, vjp = layer.apply(x)
    s = x @ layer.weight.value + layer.bias.value
    neg = s < 0
    assert {"mixed": 0 < neg.sum() < neg.size, "all_negative": neg.all(), "no_negative": not neg.any()}[case]
    vjp(d)
    # the boolean compaction it replaces, as the oracle
    assert same_bits(layer.alpha.grad, np.sum((d * s)[neg]))


def test_softmax_over_filters_columns():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, 5)) * 10
    a = softmax_over_filters(w)
    assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(a > 0)
    # zeros give the exactly uniform mix
    assert np.array_equal(softmax_over_filters(np.zeros((4, 2))), np.full((4, 2), 0.25))


def test_softmax_vjp_matches_finite_difference():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((3, 4))
    da = rng.standard_normal((3, 4))

    def loss():
        return float((softmax_over_filters(w) * da).sum())

    got = softmax_over_filters_vjp(softmax_over_filters(w), da)
    assert np.allclose(got, central_diff(loss, w), atol=1e-7)


def bilinear_score(z, weight, s) -> float:
    """Oracle: sigma(z^T W s) for single vectors."""
    return float(expit(np.ravel(z) @ (weight @ np.ravel(s))))


def test_discriminator_scores_match_bilinear_oracle():
    rng = np.random.default_rng(9)
    disc = BilinearDiscriminator(4, rng)
    z = rng.standard_normal((6, 4))
    s = rng.standard_normal(4)
    scores, _ = disc.apply(z, s)
    for i in range(6):
        assert scores[i] == pytest.approx(bilinear_score(z[i], disc.weight.value, s), abs=1e-14)


def test_discriminator_vjp_matches_finite_difference():
    rng = np.random.default_rng(10)
    disc = BilinearDiscriminator(3, rng)
    z = rng.standard_normal((5, 3))
    s = rng.standard_normal(3)
    dpre = rng.standard_normal(5)

    def scalar_loss():
        # loss defined on the PRE-sigmoid values, matching the vjp contract
        zz = np.asarray(z)
        pre = zz @ (disc.weight.value @ s)
        return float(pre @ dpre)

    disc.weight.zero_grad()
    _, vjp = disc.apply(z, s)
    ws, ds = vjp(dpre)
    assert np.allclose(disc.weight.grad, central_diff(scalar_loss, disc.weight.value), atol=1e-6)
    # dz is the rank-one outer(dpre, ws), formed by the caller
    assert np.allclose(np.outer(dpre, ws), central_diff(scalar_loss, z), atol=1e-6)
    assert np.allclose(ds, central_diff(scalar_loss, s), atol=1e-6)


def test_bce_pair_loss_hand_values():
    assert bce_pair_loss([0.5, 0.5], [0.5, 0.5]) == pytest.approx(2 * np.log(2), rel=1e-12)
    # perfect scores cost ~0 thanks to clamping, never inf
    assert bce_pair_loss([1.0], [0.0]) < 1e-11
    assert np.isfinite(bce_pair_loss([0.0], [1.0]))
    # -(log .9 + log .6)/1 for one pair
    want = -(np.log(0.9) + np.log(0.6))
    assert bce_pair_loss([0.9], [0.4]) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="differ"):
        bce_pair_loss([0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="no score"):
        bce_pair_loss([], [])


def test_softmax_cross_entropy_uniform_and_grad():
    logits = np.zeros((4, 3))
    loss, dl = softmax_cross_entropy(logits, [0, 1, 2, 0], [0, 1, 2])
    assert loss == pytest.approx(np.log(3), rel=1e-12)
    assert np.all(dl[3] == 0)  # outside the mask

    rng = np.random.default_rng(11)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    mask = [0, 2, 4]

    def loss_fn():
        return softmax_cross_entropy(logits, labels, mask)[0]

    _, dl = softmax_cross_entropy(logits, labels, mask)
    assert np.allclose(dl, central_diff(loss_fn, logits), atol=1e-7)
    with pytest.raises(ValueError, match="empty"):
        softmax_cross_entropy(logits, labels, [])


def test_adam_step_against_hand_computation():
    p = Param(np.array([1.0, -2.0]), "p")
    opt = Adam([p], lr=0.1)
    g1 = np.array([0.5, -1.0])
    p.grad += g1
    opt.step()
    m = 0.1 * g1
    v = 0.001 * g1 * g1
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    want = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.value, want, atol=1e-15)
    assert not p.grad.any()  # zeroed after the step

    g2 = np.array([-0.25, 0.75])
    p.grad += g2
    opt.step()
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2 * g2
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    want = want - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.value, want, atol=1e-15)


def test_adam_converges_on_quadratic():
    p = Param(np.array([5.0]), "p")
    opt = Adam([p], lr=0.3)
    for _ in range(400):
        p.grad += 2 * (p.value - 1.5)
        opt.step()
    assert abs(float(p.value[0]) - 1.5) < 1e-3


def test_finite_diff_check_on_known_gradient():
    rng = np.random.default_rng(12)
    a = Param(rng.standard_normal(6), "a")
    target = rng.standard_normal(6)

    def loss_fn():
        a.zero_grad()
        r = a.value - target
        a.grad += 2 * r
        return float(r @ r)

    rep = finite_diff_check(loss_fn, [a], seed=0)
    assert rep.max_rel_error < 1e-7
    assert rep.passed(tol=1e-4)
    assert rep.entries[0].name == "a" and rep.entries[0].checked == 6


def test_finite_diff_check_catches_wrong_gradient():
    a = Param(np.array([1.0, 2.0]), "a")

    def loss_fn():
        a.zero_grad()
        a.grad += 3 * a.value  # wrong: true gradient is 2 a
        return float(a.value @ a.value)

    rep = finite_diff_check(loss_fn, [a], seed=0)
    assert not rep.passed(tol=1e-4)


def test_finite_diff_check_subsamples_large_params():
    big = Param(np.zeros(500), "big")

    def loss_fn():
        big.zero_grad()
        big.grad += np.ones(500)
        return float(big.value.sum())

    rep = finite_diff_check(loss_fn, [big], max_coords=50, seed=1)
    assert rep.entries[0].checked == 50


def test_pack_unpack_round_trip():
    magic = b"HSGTEST\x00"
    arrays = [("w", np.arange(6.0).reshape(2, 3)), ("b", np.array([1.5]))]
    blob = pack_arrays(magic, [7, -3], arrays, meta_floats=(0.25, 2.0))
    ints, floats, out = unpack_arrays(blob, magic)
    assert ints == [7, -3] and floats == [0.25, 2.0]
    assert out[0][0] == "w" and np.array_equal(out[0][1], arrays[0][1])
    assert out[1][0] == "b" and np.array_equal(out[1][1], arrays[1][1])
    # byte stability
    assert pack_arrays(magic, [7, -3], arrays, meta_floats=(0.25, 2.0)) == blob
    with pytest.raises(ValueError, match="magic"):
        unpack_arrays(blob, b"OTHERMAG")
    with pytest.raises(ValueError, match="8 bytes"):
        pack_arrays(b"short", [], [])


def test_unpack_rejects_every_truncation_and_trailing_bytes():
    magic = b"HSGTEST\x00"
    arrays = [("w", np.arange(6.0).reshape(2, 3)), ("scalar", np.asarray(2.5))]
    blob = pack_arrays(magic, [7, -3], arrays, meta_floats=(0.25,))
    for cut in range(len(blob)):
        with pytest.raises(ValueError, match="magic" if cut < 8 else "truncated"):
            unpack_arrays(blob[:cut], magic)
    with pytest.raises(ValueError, match="1 trailing bytes"):
        unpack_arrays(blob + b"\0", magic)
    # an array header claiming more data than the blob holds
    blob = pack_arrays(magic, [], [("w", np.zeros(1))])
    dim = len(blob) - 16  # the one dim, followed by one float64
    blob = blob[:dim] + struct.pack("<Q", 2**62) + blob[dim + 8 :]
    with pytest.raises(ValueError, match="truncated"):
        unpack_arrays(blob, magic)


def test_gradcheck_report_types():
    rep = GradCheckReport(
        entries=[GradCheckEntry(name="x", max_rel_error=2e-4, checked=3)],
        max_rel_error=2e-4,
    )
    assert not rep.passed(1e-4) and rep.passed(1e-3)
