"""Minimal dense-network engine: forward, exact reverse-mode gradients, and
an Adam optimizer.

Networks are fully-connected with tanh hidden activations and a linear
output layer, with all parameters in one flat float64 buffer. A backward
pass returns one gradient, whichever its caller reads: the parameter
gradient, laid out like that buffer, which an optimizer step takes, or the
gradient with respect to the input, which the actor-critic updates need to
push value gradients through action inputs.
"""

import numpy as np


class DenseNet:
    """Feed-forward net over ``sizes = [in, hidden..., out]``.

    Weights are Glorot-uniform initialized from the provided generator;
    biases start at zero. All parameters live in the flat buffer
    ``self.flat``; ``self.params`` holds views into it as
    ``[W0, b0, W1, b1, ...]`` with ``W`` of shape (out, in).
    With ``members=E`` it stacks E independent nets on a leading axis:
    ``W`` is (E, out, in), ``b`` is (E, out), and member e owns the
    contiguous slice ``flat.reshape(E, -1)[e]``.
    """

    def __init__(self, sizes, rng: np.random.Generator, members=None):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self._bind(sizes, members, np.zeros(
            (members or 1) * sum((n_in + 1) * n_out
                                 for n_in, n_out in zip(sizes, sizes[1:]))))
        # member by member, so a stacked net draws what E single nets
        # built in turn would draw
        for net in ([self] if members is None
                    else [self.member(e) for e in range(members)]):
            for W in net.params[::2]:
                limit = np.sqrt(6.0 / sum(W.shape))
                W[...] = rng.uniform(-limit, limit, W.shape)

    def _bind(self, sizes, members, flat) -> "DenseNet":
        self.sizes = list(sizes)
        self.members = members
        self.flat = flat
        self.params = self.views(flat)
        return self

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def views(self, buf: np.ndarray) -> list:
        """``[W0, b0, W1, b1, ...]`` as views into ``buf``, a buffer laid
        out like ``self.flat``."""
        lead = () if self.members is None else (self.members,)
        rows = buf.reshape(lead + (-1,))
        out, start = [], 0
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            mid, end = start + n_in * n_out, start + (n_in + 1) * n_out
            out += [rows[..., start:mid].reshape(lead + (n_out, n_in)),
                    rows[..., mid:end]]
            start = end
        return out

    def member(self, e: int) -> "DenseNet":
        """Plain net over member ``e``'s parameters (shared, not copied)."""
        return DenseNet.__new__(DenseNet)._bind(
            self.sizes, None, self.flat.reshape(self.members, -1)[e])

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping the per-layer activations for backward.

        ``x`` is (batch, in); a 1-D input is treated as a single row. A
        stacked net broadcasts it over its members: output (E, batch, out).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[-1]}, expected {self.sizes[0]}")
        acts = [x]
        h = x
        for i in range(self.n_layers):
            W, b = self.params[2 * i], self.params[2 * i + 1]
            h = h @ W.swapaxes(-1, -2) + b[..., None, :]
            if i < self.n_layers - 1:
                h = np.tanh(h)
            acts.append(h)
        return h, acts

    def backward(self, acts, grad_out: np.ndarray, wrt: str = "params"):
        """Exact gradient of sum(grad_out * output) w.r.t. params or input.

        ``acts`` is the cache from :meth:`forward_cache`; ``grad_out`` is
        shaped like the output. ``wrt="params"`` returns the parameter
        gradient laid out like ``self.flat`` (``self.views(grad)`` splits it
        per layer); ``wrt="input"`` returns the input gradient, shaped like
        the output with width in. Only the products that the requested
        gradient needs are computed.
        """
        if wrt not in ("params", "input"):
            raise ValueError(f"wrt must be 'params' or 'input', not {wrt!r}")
        delta = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if wrt == "params":
            grad = np.empty_like(self.flat)
            grads = self.views(grad)
        for i in range(self.n_layers - 1, -1, -1):
            if wrt == "params":
                np.matmul(delta.swapaxes(-1, -2), acts[i], out=grads[2 * i])
                np.sum(delta, axis=-2, out=grads[2 * i + 1])
                if i == 0:
                    return grad
            delta = delta @ self.params[2 * i]
            if i > 0:
                delta *= 1.0 - acts[i] ** 2
        return delta

    def copy(self) -> "DenseNet":
        return DenseNet.__new__(DenseNet)._bind(
            self.sizes, self.members, self.flat.copy())


def soft_update(target: DenseNet, source: DenseNet, tau: float):
    """Polyak averaging: target <- tau * source + (1 - tau) * target."""
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat


class Adam:
    """Per-parameter adaptive moment estimation over one float64 array.

    Updates p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),
    computed with the bias corrections folded into the step size to avoid
    per-parameter temporaries.
    """

    def __init__(self, p, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(p)
        self.v = np.zeros_like(p)
        self._scratch = np.empty_like(p)

    def step(self, p, g):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        step_size = self.lr * np.sqrt(bc2) / bc1
        eps_hat = self.eps * np.sqrt(bc2)
        m, v, s = self.m, self.v, self._scratch
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= step_size
        p -= s

    def get_state(self) -> dict:
        return {"t": self.t, "m": self.m.copy(), "v": self.v.copy()}

    def set_state(self, st: dict):
        self.t = int(st["t"])
        self.m[...] = st["m"]
        self.v[...] = st["v"]
