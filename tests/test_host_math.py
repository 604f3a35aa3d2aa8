"""The host's floating-point primitives, frozen bit for bit.

Every golden digest rests on math's and numpy's sin, cos, atan2 and hypot:
the arcs, the goal law, the promise disks and the trigger scan's kernel.
These are the bits they give on a host where every golden digest holds
(x86-64 Linux, glibc 2.36, Python 3.11.7, numpy 2.4.6). When a golden test
fails on another host, the primitives that fail here name what moved; when
none does, the code did. numpy is called on arrays, as the scan calls it.
"""

import math

import numpy as np
import pytest

ANGLES = [
    0.0, -0.0, 1e-9, 5.960464477539063e-08, 0.001, 0.1, 0.5, 0.7853981633974483, 1.0,
    1.5707963267948966, 2.5, 3.141592653589793, -3.0, 6.283185307179586, 10.0, -47.3, 1000.0, 1e6,
]
# (a, b) for atan2(a, b) and hypot(a, b). The last four are inputs where
# np.hypot and math.hypot differ in the last bit.
PAIRS = [
    (0.0, 1.0), (1.0, 0.0), (-0.0, -1.0), (3.0, 4.0), (1e-9, 2.0), (-2.5, 0.75), (0.3, -0.4),
    (-3.2267983323956306, -5.130984688040989), (-5.698844407238129, -6.070770630715517),
    (-5.84364665753192, -3.640848056999106), (-5.973184656810158, -2.6993188050713606),
]

SIN = [
    "0x0.0p+0", "-0x0.0p+0", "0x1.12e0be826d695p-30", "0x1.ffffffffffffbp-25",
    "0x1.0624da5218a62p-10", "0x1.98eaecb8bcb2cp-4", "0x1.eaee8744b05f0p-2",
    "0x1.6a09e667f3bccp-1", "0x1.aed548f090ceep-1", "0x1.0000000000000p+0",
    "0x1.326af0dcfcab1p-1", "0x1.1a62633145c07p-53", "-0x1.210386db6d55bp-3",
    "-0x1.1a62633145c07p-52", "-0x1.1689ef5f34f52p-1", "0x1.66cfec5c3118dp-3",
    "0x1.a75cc150a206bp-1", "-0x1.6664b2568d867p-2",
]
COS = [
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.ffffffffffff0p-1", "0x1.ffffef390876cp-1", "0x1.fd712f9a817c1p-1",
    "0x1.c1528065b7d50p-1", "0x1.6a09e667f3bcdp-1", "0x1.14a280fb5068cp-1",
    "0x1.1a62633145c07p-54", "-0x1.9a2f7ef858b7dp-1", "-0x1.0000000000000p+0",
    "-0x1.fae04be85e5d2p-1", "0x1.0000000000000p+0", "-0x1.ad9ac890c6b1fp-1",
    "-0x1.f814a9734addap-1", "0x1.1ff026793f1bbp-1", "0x1.df9df9906d32cp-1",
]
ATAN2 = [
    "0x0.0p+0", "0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+1", "0x1.4978fa3269ee1p-1",
    "0x1.12e0be826d695p-31", "-0x1.4782cbabc8157p+0", "0x1.3fc176b7a8560p+1",
    "-0x1.4a44254f60e5cp+1", "-0x1.31a2ec54d9a35p+1", "-0x1.1061e6e2f1764p+1",
    "-0x1.fec7ac448f7d7p+0",
]
MATH_HYPOT = [
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.4000000000000p+2", "0x1.0000000000000p+1", "0x1.4e16fdacff937p+1",
    "0x1.0000000000000p-1", "0x1.83ec2b1f23e6fp+2", "0x1.0a72ecbfc247bp+3",
    "0x1.b8a4bd43747cfp+2", "0x1.a381a91eea50ap+2",
]
NP_HYPOT = [
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.4000000000000p+2", "0x1.0000000000000p+1", "0x1.4e16fdacff937p+1",
    "0x1.0000000000000p-1", "0x1.83ec2b1f23e70p+2", "0x1.0a72ecbfc247cp+3",
    "0x1.b8a4bd43747d0p+2", "0x1.a381a91eea509p+2",
]


def _pairs():
    return np.array([a for a, _ in PAIRS]), np.array([b for _, b in PAIRS])


PRIMITIVES = {
    "math.sin": (lambda: [math.sin(v) for v in ANGLES], SIN),
    "math.cos": (lambda: [math.cos(v) for v in ANGLES], COS),
    "math.atan2": (lambda: [math.atan2(a, b) for a, b in PAIRS], ATAN2),
    "math.hypot": (lambda: [math.hypot(a, b) for a, b in PAIRS], MATH_HYPOT),
    "np.sin": (lambda: np.sin(np.array(ANGLES)).tolist(), SIN),
    "np.cos": (lambda: np.cos(np.array(ANGLES)).tolist(), COS),
    "np.hypot": (lambda: np.hypot(*_pairs()).tolist(), NP_HYPOT),
}


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_bits_are_frozen(name):
    compute, frozen = PRIMITIVES[name]
    assert [float.hex(v) for v in compute()] == frozen


def test_the_hypot_inputs_include_where_numpy_and_math_differ():
    assert [a == b for a, b in zip(MATH_HYPOT, NP_HYPOT)] == [True] * 7 + [False] * 4
