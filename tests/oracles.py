"""The references the gradient and bitwise tests compare against: central
differences of a loss, and minibatch SGD as a loop over the 2-D public
functions `mlp_backward` and `sgd_step`."""

import numpy as np

from hdus.numeric import mlp_backward, sgd_step


def central_differences(model, loss, h=1e-5) -> np.ndarray:
    """d loss / d params of `model`, one central difference per parameter.
    `model` is never written; `loss` is called on a probe copy."""
    theta = model.params
    probe = model.copy()
    fd = np.empty_like(theta)
    for i in range(theta.size):
        probe.params[i] = theta[i] + h
        up = loss(probe)
        probe.params[i] = theta[i] - h
        fd[i] = (up - loss(probe)) / (2 * h)
        probe.params[i] = theta[i]
    return fd


def sgd_2d(model, features, targets, temperature, epochs, lr, batch_size, rng):
    """Minibatch SGD of one model, in place, toward the probability rows
    `targets` at `temperature`: each epoch draws a permutation of the rows
    from `rng` and takes one step per minibatch of it, the last one partial;
    no step at lr = 0. Returns `model`."""
    n = features.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = mlp_backward(model, features[idx], targets[idx], temperature)
            if lr > 0:
                sgd_step(model, grads, lr)
    return model
