from types import SimpleNamespace

import numpy as np
import pytest

from hybridris.nets import Adam, DenseNet, soft_update
from hybridris.numerics import make_rng
from oracles import (fd_param_gradients, naive_dense_forward,
                     reference_backward)


def test_identity_layer_passes_through():
    net = DenseNet([3, 3], make_rng(0))
    net.params[0][...] = np.eye(3)
    net.params[1][...] = 0.0
    x = np.array([0.5, -1.0, 2.0])
    assert np.allclose(net.forward(x)[0], x)


def test_zero_weights_output_bias():
    net = DenseNet([4, 2], make_rng(1))
    net.params[0][...] = 0.0
    net.params[1][...] = np.array([3.0, -1.5])
    out = net.forward(np.ones((5, 4)))
    assert np.allclose(out, [3.0, -1.5])


def test_forward_matches_scalar_loop():
    rng = make_rng(2)
    net = DenseNet([4, 8, 2], rng)
    x = rng.standard_normal(4)
    expected = naive_dense_forward(net.sizes, net.params, x)
    assert np.max(np.abs(net.forward(x)[0] - expected)) < 1e-12


def test_params_are_views_into_one_flat_buffer():
    net = DenseNet([4, 8, 3], make_rng(10))
    start = 0
    for p in net.params:
        assert np.shares_memory(p, net.flat)
        assert p.ravel().ctypes.data == net.flat[start:].ctypes.data
        start += p.size
    assert start == net.flat.size
    net.params[0][0, 0] = 42.0
    assert net.flat[0] == 42.0
    clone = net.copy()
    assert not np.shares_memory(clone.flat, net.flat)
    assert not any(np.shares_memory(c, p)
                   for c in clone.params for p in net.params)


def test_forward_shape_check():
    net = DenseNet([4, 2], make_rng(3))
    with pytest.raises(ValueError):
        net.forward(np.ones(5))


def test_linear_regression_gradient_closed_form():
    # single linear unit, squared loss on one sample
    net = DenseNet([1, 1], make_rng(4))
    w = float(net.params[0][0, 0])
    b = float(net.params[1][0])
    x, y = 1.7, -0.4
    pred, cache = net.forward_cache(np.array([[x]]))
    grad = net.backward(cache, 2.0 * (pred - y))
    grads = net.views(grad)
    residual = w * x + b - y
    assert grads[0][0, 0] == pytest.approx(2.0 * residual * x, rel=1e-12)
    assert grads[1][0] == pytest.approx(2.0 * residual, rel=1e-12)


@pytest.mark.parametrize("sizes", [[5, 8, 3], [4, 8, 8, 2], [3, 16, 1]])
def test_backward_matches_central_differences(sizes):
    rng = make_rng(5)
    net = DenseNet(sizes, rng)
    x = rng.standard_normal((4, sizes[0]))
    gout = rng.standard_normal((4, sizes[-1]))
    _, cache = net.forward_cache(x)
    grads = net.views(net.backward(cache, gout, wrt="params"))
    fd = fd_param_gradients(net, x, gout, h=1e-5)
    worst = 0.0
    for (pi, i), est in fd.items():
        got = grads[pi].ravel()[i]
        worst = max(worst, abs(got - est) / max(abs(got), abs(est), 1e-8))
    assert worst <= 1e-4


# a critic-sized net with a batch, so BLAS takes the paths the agents use
@pytest.mark.parametrize("sizes,batch", [([5, 8, 3], 4),
                                         ([68, 128, 128, 1], 16)])
def test_stacked_net_equals_single_nets(sizes, batch):
    stacked = DenseNet(sizes, make_rng(11), members=2)
    rng = make_rng(11)
    singles = [DenseNet(sizes, rng), DenseNet(sizes, rng)]
    assert np.array_equal(stacked.flat,
                          np.concatenate([n.flat for n in singles]))
    x = make_rng(12).standard_normal((batch, sizes[0]))
    gout = make_rng(13).standard_normal((2, batch, sizes[-1]))
    out, cache = stacked.forward_cache(x)
    grad = stacked.backward(cache, gout)
    gx = stacked.backward(cache, gout, wrt="input")
    for e, net in enumerate(singles):
        out_e, cache_e = net.forward_cache(x)
        grad_e = net.backward(cache_e, gout[e])
        gx_e = net.backward(cache_e, gout[e], wrt="input")
        assert np.array_equal(out[e], out_e)
        assert np.array_equal(grad.reshape(2, -1)[e], grad_e)
        assert np.array_equal(gx[e], gx_e)
        member = stacked.member(e)
        assert np.shares_memory(member.flat, stacked.flat)
        assert np.array_equal(member.forward(x), out_e)


@pytest.mark.parametrize("sizes", [[5, 8, 3], [3, 16, 1]])
def test_stacked_backward_matches_central_differences(sizes):
    # a stacked weight view is not contiguous, so the differences run over
    # the flat buffer, which the gradient is laid out like
    rng = make_rng(5)
    net = DenseNet(sizes, rng, members=2)
    x = rng.standard_normal((4, sizes[0]))
    gout = rng.standard_normal((2, 4, sizes[-1]))
    _, cache = net.forward_cache(x)
    grad = net.backward(cache, gout, wrt="params")
    fd = fd_param_gradients(
        SimpleNamespace(params=[net.flat], forward=net.forward), x, gout,
        h=1e-5)
    worst = max(abs(grad[i] - est) / max(abs(grad[i]), abs(est), 1e-8)
                for (_, i), est in fd.items())
    assert worst <= 1e-4


def test_backward_input_gradient_matches_differences():
    rng = make_rng(6)
    net = DenseNet([5, 8, 3], rng)
    x = rng.standard_normal((2, 5))
    gout = rng.standard_normal((2, 3))
    _, cache = net.forward_cache(x)
    gx = net.backward(cache, gout, wrt="input")
    h = 1e-5
    for i in range(x.size):
        orig = x.ravel()[i]
        x.ravel()[i] = orig + h
        lp = float(np.sum(net.forward(x) * gout))
        x.ravel()[i] = orig - h
        lm = float(np.sum(net.forward(x) * gout))
        x.ravel()[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gx.ravel()[i]) <= 1e-4 * max(abs(fd), 1e-3)


def test_zero_loss_gradient_gives_zero_param_gradients():
    rng = make_rng(7)
    net = DenseNet([3, 6, 2], rng)
    _, cache = net.forward_cache(rng.standard_normal((3, 3)))
    assert np.all(net.backward(cache, np.zeros((3, 2))) == 0)
    assert np.all(net.backward(cache, np.zeros((3, 2)), wrt="input") == 0)


# a toy net, the default critic (DDPG's one member, SAC's and TD3's two)
# and the default SAC policy, each with the batch the agents train on
@pytest.mark.parametrize("sizes,members,batch", [
    ([5, 8, 3], None, 4), ([5, 8, 3], 2, 4), ([68, 128, 128, 1], 1, 16),
    ([68, 128, 128, 1], 2, 16), ([56, 128, 128, 24], None, 16)])
def test_backward_equals_reference_pass(sizes, members, batch):
    net = DenseNet(sizes, make_rng(14), members=members)
    lead = () if members is None else (members,)
    x = make_rng(15).standard_normal((batch, sizes[0]))
    gout = make_rng(16).standard_normal(lead + (batch, sizes[-1]))
    _, cache = net.forward_cache(x)
    grads = net.views(net.backward(cache, gout, wrt="params"))
    gx = net.backward(cache, gout, wrt="input")
    assert gx.shape == lead + (batch, sizes[0])
    for e in range(members or 1):
        pick = (lambda a: a) if members is None else (lambda a: a[e])
        ref_grads, ref_gx = reference_backward(
            [pick(p) for p in net.params], x, pick(gout))
        for got, ref in zip(grads, ref_grads):
            assert np.array_equal(pick(got), ref)
        assert np.array_equal(pick(gx), ref_gx)


def test_backward_refuses_unknown_wrt():
    net = DenseNet([3, 2], make_rng(17))
    _, cache = net.forward_cache(np.ones((1, 3)))
    with pytest.raises(ValueError, match="wrt"):
        net.backward(cache, np.ones((1, 2)), wrt="both")


def test_soft_update_extremes():
    rng = make_rng(8)
    src = DenseNet([3, 4, 2], rng)
    tgt = src.copy()
    for p in src.params:
        p += 1.0
    frozen = [p.copy() for p in tgt.params]
    soft_update(tgt, src, 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(tgt.params, frozen))
    soft_update(tgt, src, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(tgt.params, src.params))


def test_soft_update_interpolates():
    rng = make_rng(9)
    src = DenseNet([2, 2], rng)
    tgt = src.copy()
    for p in src.params:
        p += 2.0
    before = [p.copy() for p in tgt.params]
    soft_update(tgt, src, 0.25)
    for p, b, s in zip(tgt.params, before, src.params):
        assert np.allclose(p, 0.75 * b + 0.25 * s)


def test_adam_minimizes_quadratic():
    p = np.array([10.0])
    opt = Adam(p, lr=0.1)
    for _ in range(500):
        opt.step(p, 2.0 * (p - 3.0))
    assert p[0] == pytest.approx(3.0, abs=1e-3)


def test_adam_matches_reference_formula():
    # one step of the canonical update from zero moments
    p = np.array([1.0, -2.0])
    g = np.array([0.3, -0.7])
    opt = Adam(p.copy(), lr=1e-2)
    q = p.copy()
    opt.step(q, g.copy())
    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = p - 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(q, expected, atol=1e-12)
