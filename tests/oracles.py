"""Independent scalar-loop reference implementations used as test oracles.

Everything here is deliberately naive and never calls into the package
code it checks. Most references are explicit scalar loops; the dense-net
reverse pass uses whole 2-D matrix products in the textbook order, so that
the gradients it gives can be compared bit for bit. The channel samplers
draw one link at a time, the reference stream for the package's draws of
whole channel blocks.
"""

import numpy as np


def sample_cn01(rng, size=None):
    """Unit-power circularly-symmetric complex Gaussian samples.

    Real and imaginary parts are independent Gaussians with variance 1/2,
    so E[|z|^2] = 1 and |z| is Rayleigh distributed. All real parts are
    drawn first, then all imaginary parts.
    """
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_cascaded(rng, kappa, size=None):
    """One link drawn on its own: the product of ``kappa`` independent
    ``sample_cn01`` factors, the reference stream for the package's
    block-wise channel draws.

    E[|xi|^2] = 1 for every kappa; the tails get heavier as kappa grows
    (var(|xi|^2) = 2^kappa - 1).
    """
    if kappa < 1:
        raise ValueError("cascade level must be >= 1")
    shape = (kappa,) if size is None else (kappa,) + tuple(np.atleast_1d(size))
    factors = sample_cn01(rng, shape)
    out = np.prod(factors, axis=0)
    return complex(out) if size is None else out


def naive_frobenius_sq(g):
    total = 0.0
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            total += abs(g[i, j]) ** 2
    return total


def naive_column_gains(H_p):
    gains = []
    for w in range(H_p.shape[1]):
        acc = 0.0
        for a in range(H_p.shape[0]):
            acc += abs(H_p[a, w]) ** 2
        gains.append(acc)
    return gains


def naive_beta(eps, beta_min, exponent, offset):
    shaped = ((np.sin(eps - offset) + 1.0) / 2.0) ** exponent
    return (1.0 - beta_min) * shaped + beta_min


def naive_passive_rates(h_b_list, refl_diag, H_s, G, sigma_sq):
    """Per-user SINR and rates via scalar loops over the passive model."""
    B = len(h_b_list)
    A = H_s.shape[1]
    R = H_s.shape[0]
    sinrs = []
    for b in range(B):
        # effective row: h_b^T * diag(refl) * H_s
        eff = np.zeros(A, dtype=complex)
        for a in range(A):
            acc = 0.0 + 0.0j
            for r in range(R):
                acc += h_b_list[b][r, 0] * refl_diag[r] * H_s[r, a]
            eff[a] = acc
        v = np.zeros(B, dtype=complex)
        for j in range(B):
            acc = 0.0 + 0.0j
            for a in range(A):
                acc += eff[a] * G[a, j]
            v[j] = acc
        signal = abs(v[b]) ** 2
        interf = 0.0
        for j in range(B):
            if j != b:
                interf += abs(v[j]) ** 2
        sinrs.append(signal / (interf + sigma_sq))
    rates = [np.log2(1.0 + lam) for lam in sinrs]
    return sinrs, rates, sum(rates)


def naive_active_sinr(h_b_list, refl_diag, H_s, G, sigma_a_sq,
                      amp_noise_var, b, amp_mask=None):
    R = H_s.shape[0]
    A = H_s.shape[1]
    B = G.shape[1]
    hrow = np.zeros(R, dtype=complex)
    for r in range(R):
        hrow[r] = h_b_list[b][r, 0] * refl_diag[r]
    eff = np.zeros(A, dtype=complex)
    for a in range(A):
        for r in range(R):
            eff[a] += hrow[r] * H_s[r, a]
    v = np.zeros(B, dtype=complex)
    for j in range(B):
        for a in range(A):
            v[j] += eff[a] * G[a, j]
    signal = abs(v[b]) ** 2
    interf = sum(abs(v[j]) ** 2 for j in range(B) if j != b)
    amp = 0.0
    for r in range(R):
        if amp_mask is None or amp_mask[r]:
            amp += abs(hrow[r]) ** 2
    return signal / (interf + amp_noise_var * amp + sigma_a_sq)


def naive_dense_forward(sizes, params, x):
    """Scalar-loop forward through a tanh-hidden, linear-output net."""
    h = list(x)
    n_layers = len(sizes) - 1
    for layer in range(n_layers):
        W = params[2 * layer]
        b = params[2 * layer + 1]
        out = []
        for i in range(sizes[layer + 1]):
            acc = b[i]
            for j in range(sizes[layer]):
                acc += W[i, j] * h[j]
            out.append(acc)
        if layer < n_layers - 1:
            out = [np.tanh(v) for v in out]
        h = out
    return np.array(h)


def reference_backward(params, x, gout):
    """Full reverse pass of sum(gout * net(x)) through a tanh-hidden,
    linear-output net with ``params = [W0, b0, W1, b1, ...]``, W of shape
    (out, in), for a (batch, in) input.

    Returns ``(grads, grad_input)``: ``grads`` lists the gradient of every
    array of ``params`` in the same order, and ``grad_input`` is
    (batch, in).
    """
    n_layers = len(params) // 2
    acts = [np.asarray(x, dtype=float)]
    for layer in range(n_layers):
        z = acts[-1] @ params[2 * layer].T + params[2 * layer + 1]
        acts.append(np.tanh(z) if layer < n_layers - 1 else z)
    grads = [None] * len(params)
    delta = np.asarray(gout, dtype=float)
    for layer in reversed(range(n_layers)):
        grads[2 * layer] = delta.T @ acts[layer]
        grads[2 * layer + 1] = delta.sum(axis=0)
        delta = delta @ params[2 * layer]
        if layer > 0:
            delta = delta * (1.0 - acts[layer] ** 2)
    return grads, delta


def fd_param_gradients(net, x, gout, h=1e-5, indices=None):
    """Central-difference gradients of sum(gout * net(x)) w.r.t. params.

    ``indices`` optionally restricts the check to (param_idx, flat_idx)
    pairs; returns a dict mapping those pairs to the estimate.
    """
    def loss():
        return float(np.sum(net.forward(x) * gout))

    out = {}
    for pi, p in enumerate(net.params):
        flat = p.ravel()
        idxs = (range(flat.size) if indices is None
                else [i for q, i in indices if q == pi])
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            out[(pi, i)] = (lp - lm) / (2.0 * h)
    return out
