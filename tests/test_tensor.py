import numpy as np

from flowfuse.tensor import Tensor, as_array


def test_shape_and_dtype_metadata():
    t = Tensor(np.arange(6).reshape(2, 3).T)
    assert t.shape == (3, 2)
    assert t.size == 6
    assert t.data.dtype == np.float64 and t.data.flags.c_contiguous
    assert as_array([1, 2]).dtype == np.float64
    assert as_array(t) is t.data


def test_element_count_matches_extents():
    t = Tensor(np.zeros((3, 4, 5)))
    assert t.size == 3 * 4 * 5
