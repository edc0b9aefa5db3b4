import sys

import pytest

from qcantor import cantor


@pytest.fixture(scope="session")
def tree_k2_d3():
    """Depth-3 harmonic K=2 tree with realized centers (64 leaves)."""
    tree = cantor.build_tree(cantor.harmonic_schedule(2.0, 3), 3, seed=11)
    tree.realize(seed=11)
    return tree


@pytest.fixture(scope="session")
def real_k2_d3(tree_k2_d3):
    return tree_k2_d3.realize(seed=11)


@pytest.fixture()
def default_int_digits():
    """The interpreter's default limit on int-to-str digits, 4300, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
