"""Metamorphic scale tests: the solvers must not care about the units of A.

Multiplying by a power of two is exact while every value stays a normal
float, so each sum and product formed on A * 2^k is the one formed on A,
times a power of two.  A decision, iterate or verdict that changes with k
is a tolerance that does not scale with A.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmcut
from bmcut import FactorPoint, bcm, certify, escape, manifold

POWERS = st.integers(-300, 300)
# the escape constants cube eps/|A|_1, which does not change with k
BCM2_POWERS = st.integers(-500, 500)


def scaled(instance, k):
    return bmcut.preprocess(instance.dense() * 2.0**k)


def all_equal(n, r):
    start = np.zeros((n, r))
    start[:, 0] = 1.0
    return FactorPoint(start)


@functools.cache
def bcm_run(rule, k):
    cfg = bcm.SolverConfig(rule=rule, max_epochs=20, seed=0)
    return bcm.run(scaled(bmcut.gen_gaussian(12, 3), k), cfg, r=3)


@functools.cache
def bcm2_run(k):
    # the all-equal start is stationary: the run begins with escape steps
    cfg = bcm.SolverConfig(rule="greedy", seed=1)
    esc = escape.EscapeConfig(epsilon=0.01 * 2.0**k, seed=2)
    return escape.run_bcm2(scaled(bmcut.gen_gaussian(20, 3), k), cfg, esc,
                           initial=all_equal(20, 4))


@settings(max_examples=40, deadline=None)
@given(k=POWERS)
@example(k=-300)
@example(k=300)
def test_bcm_iterates_identical(k):
    for rule in bcm.RULES:
        point, trace = bcm_run(rule, k)
        ref_point, ref = bcm_run(rule, 0)
        assert point.sigma.tobytes() == ref_point.sigma.tobytes()
        assert trace.status == ref.status
        assert ([rec.f_raw * 2.0**-k for rec in trace.records]
                == [rec.f_raw for rec in ref.records])


@settings(max_examples=40, deadline=None)
@given(k=BCM2_POWERS)
@example(k=-40)    # the breakdown floor 1e-12 max(1, |A|_1) stopped here
@example(k=-360)   # eps^3 underflowed: threshold 0 and 323 records, not 60
@example(k=-300)
@example(k=300)
@example(k=-500)
@example(k=500)
def test_bcm2_verdict_identical(k):
    # Lanczos hands the tridiagonal solver T in units of a power of two near
    # |A|_1, the same numbers at every k, so the iterates are bit-identical
    # while the metric's terms stay normal floats; near k = -500 they are
    # subnormal, and the iterates agree to rounding only
    point, trace = bcm2_run(k)
    ref_point, ref = bcm2_run(0)
    if k >= -400:
        assert point.sigma.tobytes() == ref_point.sigma.tobytes()
    assert ref.header["escape_steps"] >= 2
    assert trace.status == ref.status
    assert trace.header["escape_steps"] == ref.header["escape_steps"]
    assert len(trace.records) == len(ref.records)
    threshold = trace.header["threshold"] * 2.0**(-2 * k)
    assert abs(threshold - ref.header["threshold"]) <= 1e-12 * threshold
    f = trace.final().f_raw * 2.0**-k
    assert abs(f - ref.final().f_raw) <= 1e-12 * abs(ref.final().f_raw)


@settings(max_examples=25, deadline=None)
@given(k=POWERS)
@example(k=-300)
@example(k=300)
def test_lanczos_basis_identical(k):
    # the basis vectors are images divided by their norms: free of scale
    base = bmcut.gen_gaussian(20, 3)
    point = all_equal(20, 4)
    got = []
    for inst in (scaled(base, 0), scaled(base, k)):
        cache = bcm.init_cache(inst, point)
        got.append(escape.lanczos_leading(inst, point, cache, 40,
                                          np.random.default_rng(2)))
    ref, res = got
    assert res.iterations == ref.iterations
    assert res.exhausted == ref.exhausted
    assert res.tri.basis.tobytes() == ref.tri.basis.tobytes()
    assert np.array_equal(res.tri.alpha * 2.0**-k, ref.tri.alpha)
    assert np.array_equal(res.tri.beta * 2.0**-k, ref.tri.beta)


@settings(max_examples=25, deadline=None)
@given(k=POWERS)
@example(k=-300)
@example(k=300)
def test_certificate_and_rounding_scale(k):
    base = bmcut.gen_gaussian(20, 5)
    point = manifold.random_point(20, 4, np.random.default_rng(7))
    out = []
    for inst in (scaled(base, 0), scaled(base, k)):
        cert = certify.dual_upper_bound(inst, point,
                                        bcm.init_cache(inst, point))
        cut = certify.round_cut(inst, point, 100, np.random.default_rng(3))
        out.append((cert.upper_bound, cut))
    (ref_bound, ref_cut), (bound, cut) = out
    assert abs(bound * 2.0**-k - ref_bound) <= 1e-12 * abs(ref_bound)
    assert np.array_equal(cut.signs, ref_cut.signs)
    assert cut.value * 2.0**-k == ref_cut.value


@functools.cache
def complete_slack(k):
    inst = scaled(bmcut.gen_gaussian(240, 6), k)
    point = manifold.random_point(240, 22, np.random.default_rng(8))
    return certify.dual_upper_bound(inst, point,
                                    bcm.init_cache(inst, point)).slack


@settings(max_examples=5, deadline=None)
@given(k=POWERS)
@example(k=-300)
@example(k=300)
def test_complete_slack_scales_exactly_above_dense_limit(k):
    # a complete instance takes LAPACK at n = 240, the dense workload's
    # size, on A - Lambda over its power-of-two unit: the same numbers at
    # every k
    assert complete_slack(k) == complete_slack(0) * 2.0**k


@functools.cache
def lanczos_slack(k):
    inst = scaled(bmcut.gen_erdos_renyi(250, 750, -1, 6), k)
    point = manifold.random_point(250, 5, np.random.default_rng(8))
    cert = certify.dual_upper_bound(inst, point, bcm.init_cache(inst, point))
    return cert.slack, cert.iterations


@settings(max_examples=5, deadline=None)
@given(k=POWERS)
@example(k=-300)
@example(k=300)
def test_lanczos_slack_scales_exactly(k):
    # an incomplete instance takes the recurrence on A - Lambda over its
    # power-of-two unit: the same steps at every k
    slack, steps = lanczos_slack(0)
    assert lanczos_slack(k) == (slack * 2.0**k, steps)
