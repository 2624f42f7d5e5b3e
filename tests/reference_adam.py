"""Per-parameter reference version of ``training.Adam``.

This is the loop that the flat-buffer Adam replaced: moments in dicts keyed
by parameter path, one update per tensor.  Tests check the flat version
against it bit for bit.
"""

import numpy as np

from fairmoe.training import ADAM_EPS, BETA1, BETA2


class ReferenceAdam:
    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {p: np.zeros_like(t.data) for p, t in params.items()}
        self.v = {p: np.zeros_like(t.data) for p, t in params.items()}

    def step(self):
        self.t += 1
        for p, tensor in self.params.items():
            g = tensor.grad
            self.m[p] = BETA1 * self.m[p] + (1 - BETA1) * g
            self.v[p] = BETA2 * self.v[p] + (1 - BETA2) * g * g
            mh = self.m[p] / (1 - BETA1 ** self.t)
            vh = self.v[p] / (1 - BETA2 ** self.t)
            tensor.data -= self.lr * mh / (np.sqrt(vh) + ADAM_EPS)
