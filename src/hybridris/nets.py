"""Minimal dense-network engine: forward, exact reverse-mode gradients, and
an Adam optimizer.

Networks are fully-connected with tanh hidden activations and a linear
output layer, with all parameters in one flat float64 buffer. A backward
pass returns one gradient, whichever its caller reads: the parameter
gradient, laid out like that buffer, which an optimizer step takes, or the
gradient with respect to the input, which the actor-critic updates need to
push value gradients through action inputs.
"""

import math

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
        # where each layer's W and b sit in a row of a buffer laid out like
        # flat (one row per member), worked out once
        lead = () if members is None else (members,)
        self._rows = lead + (-1,)
        self._slices, start = [], 0
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            mid, end = start + n_in * n_out, start + (n_in + 1) * n_out
            self._slices.append((np.s_[..., start:mid], lead + (n_out, n_in),
                                 np.s_[..., mid:end]))
            start = end
        self.params = self.views(flat)
        # the parameters only change in place, so these views stay bound:
        # W for backward, and (W^T, b as a row) per layer for forward
        self._weights = self.params[::2]
        *self._hidden, self._out = [(W.mT, b[..., None, :]) for W, b
                                    in zip(self._weights, self.params[1::2])]
        return self

    def views(self, buf: np.ndarray) -> list:
        """``[W0, b0, W1, b1, ...]`` as views into ``buf``, a buffer laid
        out like ``self.flat``."""
        rows = buf.reshape(self._rows)
        out = []
        for w, shape, b in self._slices:
            out += [rows[w].reshape(shape), rows[b]]
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
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[-1]}, expected {self.sizes[0]}")
        acts = [x]
        h = x
        for WT, b in self._hidden:
            h = h @ WT
            h += b
            np.tanh(h, out=h)
            acts.append(h)
        WT, b = self._out
        h = h @ WT
        h += b
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
        delta = np.asarray(grad_out, dtype=float)
        if delta.ndim == 1:
            delta = delta[None, :]
        Ws = self._weights
        if wrt == "input":
            for i in range(len(Ws) - 1, 0, -1):
                delta = delta @ Ws[i]
                a = acts[i]
                delta *= 1.0 - a * a
            return delta @ Ws[0]
        grad = np.empty(self.flat.shape)
        rows = grad.reshape(self._rows)
        for i in range(len(Ws) - 1, -1, -1):
            w_slice, w_shape, b_slice = self._slices[i]
            np.matmul(delta.mT, acts[i], out=rows[w_slice].reshape(w_shape))
            np.add.reduce(delta, axis=-2, out=rows[b_slice])
            if i:
                delta = delta @ Ws[i]
                a = acts[i]
                delta *= 1.0 - a * a
        return grad

    def copy(self) -> "DenseNet":
        return DenseNet.__new__(DenseNet)._bind(
            self.sizes, self.members, self.flat.copy())


def soft_update(target: DenseNet, source: DenseNet, tau: float):
    """Polyak averaging: target <- tau * source + (1 - tau) * target."""
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Per-parameter adaptive moment estimation over one float64 array.

    Updates p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),
    with b1, b2 and eps the module's ADAM_ constants, computed with the
    bias corrections folded into the step size to avoid per-parameter
    temporaries.
    """

    def __init__(self, p, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(p)
        self.v = np.zeros_like(p)
        self._scratch = np.empty_like(p)

    def _advance(self):
        """Counts one more step and returns its step size and eps, the
        bias corrections folded in."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        root_bc2 = math.sqrt(1.0 - ADAM_BETA2 ** self.t)
        return self.lr * root_bc2 / bc1, ADAM_EPS * root_bc2

    def step(self, p, g):
        step_size, eps_hat = self._advance()
        m, v, s = self.m, self.v, self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= step_size
        p -= s

    def step_one(self, p, g: float):
        """``step`` on a one-element ``p`` with gradient ``g``, in Python
        floats: each operation of ``step``, in its order, so the same bits
        without a ufunc call per operation."""
        step_size, eps_hat = self._advance()
        m = float(self.m[0]) * ADAM_BETA1 + g * (1.0 - ADAM_BETA1)
        v = float(self.v[0]) * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2)
        self.m[0], self.v[0] = m, v
        p[0] = float(p[0]) - m / (math.sqrt(v) + eps_hat) * step_size

    def get_state(self) -> dict:
        return {"t": self.t, "m": self.m.copy(), "v": self.v.copy()}

    def set_state(self, st: dict):
        self.t = int(st["t"])
        self.m[...] = st["m"]
        self.v[...] = st["v"]
