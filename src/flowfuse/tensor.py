"""The array result of the library's entry points.

codec.encode returns a latent as a Tensor and flow.euler_sample a trajectory
of them: a float64 C-order numpy array in `data`, with its shape and size.
`data` is writable and belongs to the caller.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A float64 C-order array, `data`."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64, order="C")

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size


def as_array(x) -> np.ndarray:
    """The array of a Tensor, or an array-like as a float64 C-order array."""
    if isinstance(x, Tensor):
        return x.data
    return Tensor(x).data
