"""``brent_increasing`` evaluates the same points and returns the same root.

Every case records ``float.hex`` of each point the solver evaluates, in
order, and of the root it returns, or the exception it raises.  The traces
cover galloping up and down past 1e+-300 (with an overflow of ``g`` above
the seed), geometric bisection of the galloped bracket, secant, inverse
quadratic and both bisection fallbacks of Brent's step (a stalled step and
a rejected interpolation), an exact zero at the seed and at a gallop step,
and an ``OverflowError``, a +inf and a NaN met by a Brent step rather than
by the bracket search.  One ``g`` is -inf below a point, met at the seed,
in the gallop and in the bisection, and one is the structured DE gap of the
``triangle`` example with ``ratio:1`` production, searched from its
closed-form start.  A change that keeps these traces keeps every solve's
output bit for bit.
"""

import math

import pytest

from conflictnet import RatioProduction, brent_increasing


def _overflow_above(limit):
    def g(x):
        if x > limit:
            raise OverflowError("forced")
        return x
    return g


def _overflow_between(lo, hi):
    def g(x):
        if lo < x < hi:
            raise OverflowError("forced")
        return x
    return g


def _triangle_ratio_de_gap():
    # mu - sum_k d_k h_inv(t_k / C'(mu)) with C'(mu) = mu (quadratic cost),
    # d = (2, 1) and t = (1.25, 16.0) at the triangle's prizes (5, 72).
    h_inv = RatioProduction(1.0).h_inv

    def gap(mu):
        acc = 0.0
        for d, t in ((2, 1.25), (1, 16.0)):
            acc += d * h_inv(t / mu)
        return mu - acc
    return gap


# The closed-form start of that gap's root search.
_TRIANGLE_RATIO_START = float.fromhex("0x1.276d14b93ccbbp+1")

# name: (g, target, keyword arguments)
CASES = {
    "gallop-up-past-1e300": (lambda x: x + math.sqrt(x), 1e306, {}),
    "gallop-down-past-1e-300": (lambda x: x * (1.0 + x), 1e-305, {}),
    "gallop-down-to-subnormal": (lambda x: x, 1e-320, {}),
    # x**3 raises OverflowError from 2**511 up.
    "gallop-overflow-above-seed": (lambda x: x**3, 1e300, {}),
    "no-upper-bracket": (math.atan, 2.0, {}),
    "iqi-cubic": (lambda x: x**3, 11.0, {}),
    # Flat at the root: stalled steps bisect, and so do rejected
    # inverse quadratic steps.
    "flat-cubic-fallbacks": (lambda x: 1.0 + (x - 1.0) ** 3, 1.0 + 1e-9, {}),
    "zero-at-seed": (lambda x: 2.0 * x, 2.0, {}),
    "zero-at-gallop-step": (lambda x: x, 2.0, {}),
    "loose-tolerance": (lambda x: x**3, 11.0, {"rel_tol": 1e-3}),
    # Brent's steps meet g's overflow at 3.49995, above the seed.
    "overflow-in-brent-step": (_overflow_above(3.0), 2.9999, {}),
    "inf-in-brent-step": (lambda x: math.inf if x > 3.0 else x, 2.9999, {}),
    # The first Brent step lands on 3.2; the bracket search never does.
    "nan-in-brent-step": (lambda x: math.nan if 3.0 < x < 3.5 else x, 3.2, {}),
    "overflow-below-seed-in-brent-step": (_overflow_between(3.0, 3.5), 3.2, {"seed": 10.0}),
    "neg-inf-below-a-point": (lambda x: -math.inf if x < 3.0 else x, 3.2, {}),
    "triangle-ratio-de-gap": (_triangle_ratio_de_gap(), 0.0, {"seed": _TRIANGLE_RATIO_START}),
}

# name: (the points evaluated, in order; the root, or the exception raised)
EXPECTED = {
    "gallop-up-past-1e300": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000000p+7", "0x1.0000000000000p+15", "0x1.0000000000000p+31",
         "0x1.0000000000000p+63", "0x1.0000000000000p+127", "0x1.0000000000000p+255",
         "0x1.0000000000000p+511", "0x1.0000000000000p+1023", "0x1.0000000000001p+767",
         "0x1.0000000000001p+895", "0x1.0000000000001p+959", "0x1.0000000000001p+991",
         "0x1.0000000000001p+1007", "0x1.0000000000001p+1015", "0x1.0000000000001p+1019",
         "0x1.0000000000001p+1017", "0x1.0000000000001p+1016", "0x1.6c8e5ca239029p+1016"],
        "0x1.6c8e5ca239029p+1016",
    ),
    "gallop-down-past-1e-300": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-3",
         "0x1.0000000000000p-7", "0x1.0000000000000p-15", "0x1.0000000000000p-31",
         "0x1.0000000000000p-63", "0x1.0000000000000p-127", "0x1.0000000000000p-255",
         "0x1.0000000000000p-511", "0x0.8000000000000p-1022", "0x1.0000000000001p-767",
         "0x1.0000000000001p-895", "0x1.0000000000001p-959", "0x1.0000000000001p-991",
         "0x1.0000000000001p-1007", "0x1.0000000000001p-1015", "0x1.0000000000001p-1011",
         "0x1.0000000000001p-1013", "0x1.0000000000001p-1014", "0x1.c16c5c5253575p-1014"],
        "0x1.c16c5c5253575p-1014",
    ),
    "gallop-down-to-subnormal": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-3",
         "0x1.0000000000000p-7", "0x1.0000000000000p-15", "0x1.0000000000000p-31",
         "0x1.0000000000000p-63", "0x1.0000000000000p-127", "0x1.0000000000000p-255",
         "0x1.0000000000000p-511", "0x0.8000000000000p-1022", "0x0.0000000000001p-1022",
         "0x0.0000002d413cdp-1022", "0x0.0000000001ae9p-1022", "0x0.0000000000053p-1022",
         "0x0.00000000002f4p-1022", "0x0.00000000008eap-1022", "0x0.0000000000521p-1022",
         "0x0.00000000007e8p-1022"],
        "0x0.00000000007e8p-1022",
    ),
    "gallop-overflow-above-seed": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000000p+7", "0x1.0000000000000p+15", "0x1.0000000000000p+31",
         "0x1.0000000000000p+63", "0x1.0000000000000p+127", "0x1.0000000000000p+255",
         "0x1.0000000000000p+511", "0x1.0000000000001p+383", "0x1.0000000000001p+319",
         "0x1.0000000000001p+351", "0x1.0000000000001p+335", "0x1.0000000000001p+327",
         "0x1.0000000000001p+331", "0x1.0000000000001p+333", "0x1.0000000000001p+332",
         "0x1.1209aeedb7e84p+332", "0x1.266c0a59fd359p+332", "0x1.247c2583a05a4p+332",
         "0x1.249aa1c40f662p+332", "0x1.249ad25959a2ep+332", "0x1.249ad2591accap+332"],
        "0x1.249ad25959a2ep+332",
    ),
    "no-upper-bracket": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000000p+7", "0x1.0000000000000p+15", "0x1.0000000000000p+31",
         "0x1.0000000000000p+63", "0x1.0000000000000p+127", "0x1.0000000000000p+255",
         "0x1.0000000000000p+511", "0x1.0000000000000p+1023", "0x1.fffffffffffffp+1023"],
        "BracketFailure: no upper bracket for target 2.0: g < target up to "
        "1.7976931348623157e+308",
    ),
    "iqi-cubic": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000001p+2", "0x1.6a09e667f3bcdp+1", "0x1.15bf783a6e5f0p+1",
         "0x1.1cf1c99a0f2a2p+1", "0x1.1ca9a407f6f38p+1", "0x1.1cab60bff1dd0p+1",
         "0x1.1cab612df9a4ap+1", "0x1.1cab612dbc82ap+1"],
        "0x1.1cab612df9a4ap+1",
    ),
    "flat-cubic-fallbacks": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.000000044b830p+0",
         "0x1.8000000225c18p+0", "0x1.00000015798f0p+0", "0x1.4000000bcfa84p+0",
         "0x1.0000005a31bedp+0", "0x1.2000003300b38p+0", "0x1.0000016d12786p+0",
         "0x1.100000d00995fp+0", "0x1.000005b894a6bp+0", "0x1.080003444f1e5p+0",
         "0x1.000016e68655bp+0", "0x1.04000d156aba0p+0", "0x1.00005b9b6b72dp+0",
         "0x1.020034586b166p+0", "0x1.00016e12dc2c4p+0", "0x1.0100d135a3a15p+0",
         "0x1.0005ac812a5a3p+0", "0x1.00833edb66fdcp+0", "0x1.00154c9b6b90bp+0",
         "0x1.004c45bb69474p+0", "0x1.0037b986733d5p+0", "0x1.003ff4d859c61p+0",
         "0x1.004199f28ba7ep+0", "0x1.004188ce92d16p+0", "0x1.004189375fc9bp+0"],
        "0x1.004189375fc9bp+0",
    ),
    "zero-at-seed": (
        ["0x1.0000000000000p+0"],
        "0x1.0000000000000p+0",
    ),
    "zero-at-gallop-step": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1"],
        "0x1.0000000000000p+1",
    ),
    "loose-tolerance": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000001p+2", "0x1.6a09e667f3bcdp+1", "0x1.15bf783a6e5f0p+1",
         "0x1.1cf1c99a0f2a2p+1", "0x1.1ca9a407f6f38p+1"],
        "0x1.1ca9a407f6f38p+1",
    ),
    "overflow-in-brent-step": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000001p+2", "0x1.6a09e667f3bcdp+1", "0x1.6a09e668417c4p+1",
         "0x1.7ffcb919cffdep+1", "0x1.bffe5c8ce7ff0p+1", "0x1.7ffcb91a22740p+1",
         "0x1.7ffcb923a29c7p+1"],
        "0x1.7ffcb923a29c7p+1",
    ),
    "inf-in-brent-step": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000001p+2", "0x1.6a09e667f3bcdp+1", "0x1.6a09e668417c4p+1",
         "0x1.7ffcb919cffdep+1", "0x1.bffe5c8ce7ff0p+1", "0x1.7ffcb91a22740p+1",
         "0x1.7ffcb923a29c7p+1"],
        "0x1.7ffcb923a29c7p+1",
    ),
    "nan-in-brent-step": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000001p+2", "0x1.6a09e667f3bcdp+1", "0x1.999999999999ap+1"],
        "NonFiniteEvaluation: function returned NaN at x=3.2",
    ),
    "overflow-below-seed-in-brent-step": (
        ["0x1.4000000000000p+3", "0x1.4000000000000p+2", "0x1.4000000000000p+0",
         "0x1.4000000000001p+1", "0x1.999999999999ap+1"],
        "OverflowError: forced",
    ),
    "neg-inf-below-a-point": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
         "0x1.0000000000001p+2", "0x1.6a09e667f3bcdp+1", "0x1.ffffffff920c6p+1",
         "0x1.b504f333c2e4ap+1", "0x1.999999999999ap+1"],
        "0x1.999999999999ap+1",
    ),
    "triangle-ratio-de-gap": (
        ["0x1.276d14b93ccbbp+1", "0x1.276d14b93ccbbp+2", "0x1.6016464d363b0p+1",
         "0x1.57f7232d45322p+1", "0x1.57923a23d5fdcp+1", "0x1.579233e1d9522p+1",
         "0x1.579233e18f89fp+1"],
        "0x1.579233e1d9522p+1",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_brent_evaluates_the_recorded_points_and_returns_the_recorded_root(name):
    g, target, kwargs = CASES[name]
    seen = []

    def recording(x):
        seen.append(x)
        return g(x)

    try:
        outcome = brent_increasing(recording, target, **kwargs).hex()
    except Exception as exc:  # the recorded outcome names the exception
        outcome = f"{type(exc).__name__}: {exc}"
    assert ([x.hex() for x in seen], outcome) == EXPECTED[name]


def test_every_case_has_a_recorded_trace():
    assert sorted(CASES) == sorted(EXPECTED)
