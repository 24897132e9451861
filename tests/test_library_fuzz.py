"""Seeded fuzz loop over the library's public callables.

Each case calls one of the callables in ``segrls.__all__`` (not the exception
classes, nor the NamedTuple records ``Sample``, ``ForecastBand`` and
``UpdateTemplate``, which check nothing), ``estimator.information_matrix``,
``reference.accumulation_experiment``, or an estimator's ``step``, ``run``
and ``forecast``.  Its arguments are drawn by a ``random.Random`` seeded
with SEED and the case's name, from floats, negatives, zero, nan and inf,
numpy integers, wrong shapes, wrong batch widths and batches of no series
(B = 0); ``init``, ``step``, ``run``, ``compare_trajectory``,
``direct_weighted_ls`` and ``SyntheticSpec`` also get values that are not
real numbers (strings, bytes, complex numbers, objects), and
``direct_weighted_ls`` an array value among floats, which they must refuse.
``direct_weighted_ls`` also gets samples with an index missing or two
swapped: it must refuse a window that holds them, and solve any other as the
consecutive samples'.  The parsers ``parse_stockholm`` and
``parse_csv`` get short texts, some with a byte-order mark or a refused
line, and odd value columns; ``to_indexed`` gets span bounds that are not
dates and odd gap policies.  A case
must return a result of the documented shape, or raise a ``SegrlsError`` or
one of the library's own ValueErrors about a shape, an index range or a
value that is not a real number (``DOCUMENTED``).
A TypeError, an IndexError, any other exception or a result of the wrong
shape fails the test, and the message holds the call, so a failure replays
from it.
"""

import datetime
import math
import random
import re

import numpy as np
import pytest

import segrls
from segrls import (
    ExponentialProfile,
    HarmonicModel,
    RlsEstimator,
    Sample,
    SegmentedProfile,
    SegrlsError,
    SyntheticSpec,
    compare_trajectory,
    direct_weighted_ls,
    make_harmonic_model,
    monte_carlo_bias,
    regressor_matrix,
    synth_generate,
    update_template,
    weights,
)
from segrls.estimator import information_matrix
from segrls.ingest import GAP_POLICIES, Records, parse_csv, parse_stockholm, to_indexed
from segrls.reference import accumulation_experiment

SEED = 16
MODEL = make_harmonic_model(40.0, 2)  # n = 7
THETA = np.array([2.0, 4.0, -1.0, 0.5, 0.3, -0.2, 0.1])
PROFILES = {
    "segmented": SegmentedProfile(beta=0.85, lam=0.97, m=30, p=1, w=50),
    "exponential": ExponentialProfile(0.97, 50),
    "infinite": ExponentialProfile(0.97),
}
SPEC = SyntheticSpec(MODEL, THETA, 1.0, 3, 90)

# the library's ValueErrors: a value array of the wrong shape or of values
# that are not real numbers, or an index outside the range its other
# arguments allow
DOCUMENTED = [
    r"values must be a \(count,\) or \(count, B\) array, got shape ",
    r"values must be real numbers, got dtype ",
    r"initialization needs exactly w=\d+ samples, got \d+$",
    r"expected (one value|\d+ values) at index \d+, got shape ",
    r"index -?\d+ outside the sample range( \d+\.\.\d+|: no samples)$",
    r"expected index \d+ in the window of index \d+, got (index \d+|no sample)$",
    r"init_count is required for the unbounded profile$",
    r"the bias estimate needs a windowed profile, not the unbounded one$",
    r"need at least one step beyond the initial window$",
    r"index k=-?\d+ must lie in \(\d+, \d+\]$",
    r"gap_policy must be one of ",
]

NAN, INF = math.nan, math.inf
# every count stays small enough that a defect cannot exhaust memory
COUNTS = [0, 1, 2, 3, 5, 7, -1, -3, 2.5, 10.5, 5.0, NAN, INF, -INF,
          np.int64(4), np.int32(2), np.int64(-1)]
REALS = [0.0, -1.0, 1e-9, 0.5, 0.9, 0.97, 1.0, 1.5, 40.0, NAN, INF, -INF,
         np.float32(0.9), np.int64(1), 3]
VALUE_SHAPES = [(), (0,), (1,), (5,), (20,), (49,), (50,), (60,),
                (50, 0), (50, 1), (50, 2), (50, 3), (20, 0), (20, 3), (60, 3), (50, 3, 1)]


def values_of(rng, shapes):
    """A normal value array of a shape drawn from ``shapes``, a non-finite entry in one of four."""
    shape = rng.choice(shapes)
    values = np.array([rng.gauss(0.0, 2.0) for _ in range(int(np.prod(shape)))]).reshape(shape)
    if values.size and rng.random() < 0.25:
        values.flat[rng.randrange(values.size)] = rng.choice([NAN, INF, -INF])
    return values


def non_real(rng, values):
    """(values, False), or in one draw of four (the same numbers as strings, bytes,
    complex numbers or objects, True)."""
    if rng.random() < 0.25:
        return np.asarray(values).astype(rng.choice([str, bytes, complex, object])), True
    return values, False


def batch(values):
    """The batch shape, () or (B,), that a (count[, B]) value array starts."""
    return np.shape(values)[1:]


def expect(label, call, check):
    """Run ``call``; its result must pass ``check``, or it must raise as documented."""
    try:
        result = call()
    except SegrlsError:
        return False
    except ValueError as err:
        if not any(re.match(text, str(err)) for text in DOCUMENTED):
            pytest.fail(f"{label}: undocumented ValueError: {err}")
        return False
    except Exception as err:  # any other exception fails the case
        pytest.fail(f"{label}: {type(err).__name__}: {err}")
    try:
        check(result)
    except AssertionError as err:
        pytest.fail(f"{label}: wrong result: {err}")
    return True


# ----------------------------------------------------------------------
# one case per callable; each returns (label, call, check)


def case_model(rng):
    period, harmonics = rng.choice(REALS + [365.25, 8.0]), rng.choice(COUNTS)
    build = rng.choice([make_harmonic_model, HarmonicModel])

    def check(model):
        assert model.dim == 2 * (harmonics + 1) + 1
        assert model.frequencies.shape == (harmonics + 1,)

    return f"{build.__name__}({period!r}, {harmonics!r})", lambda: build(period, harmonics), check


def case_exponential(rng):
    lam, w = rng.choice(REALS), rng.choice(COUNTS + [None, 50])

    def check(profile):
        assert update_template(profile).rank == (1 if w is None else 2)

    return f"ExponentialProfile({lam!r}, {w!r})", lambda: ExponentialProfile(lam, w), check


def case_segmented(rng):
    # the draws lean on one valid profile, or hardly any would be built
    beta, lam = rng.choice(REALS + [0.85] * 15), rng.choice(REALS + [0.97] * 15)
    m, p = rng.choice(COUNTS + [30] * 17), rng.choice(COUNTS + [1, 2] * 8)
    w = rng.choice(COUNTS + [50] * 17)

    def check(profile):
        template = update_template(profile)
        assert len(template.lags) == len(template.scales) == len(template.signs) == p + 3

    return (f"SegmentedProfile({beta!r}, {lam!r}, {m!r}, {p!r}, {w!r})",
            lambda: SegmentedProfile(beta, lam, m, p, w), check)


def case_weights(rng):
    name, count = rng.choice(sorted(PROFILES)), rng.choice(COUNTS + [60])

    def check(f):
        assert f.shape == (count,)

    return f"weights({name}, {count!r})", lambda: weights(PROFILES[name], count), check


def case_regressor_matrix(rng):
    indices = np.array(rng.choice([[], [1, 2, 3], [-4, 0, 4], [2.5, -0.5], [[1, 2], [3, 4]],
                                   [NAN], [INF], [3, -INF], 7, np.int64(9)]))

    def check(rows):
        assert rows.shape == (indices.size, MODEL.dim)

    return f"regressor_matrix(MODEL, {indices!r})", lambda: regressor_matrix(MODEL, indices), check


def case_information_matrix(rng):
    name = rng.choice(sorted(PROFILES))
    k, count = rng.choice(COUNTS + [80, -5]), rng.choice(COUNTS + [30])

    def check(a):
        assert a.shape == (MODEL.dim, MODEL.dim)

    return (f"information_matrix({name}, MODEL, {k!r}, {count!r})",
            lambda: information_matrix(PROFILES[name], MODEL, k, count), check)


def case_synth(rng):
    theta = values_of(rng, [(7,), (7,), (6,), (), (7, 1), (2, 7)]) + THETA[0]
    sigma, seed, length = rng.choice(REALS), rng.choice(COUNTS), rng.choice(COUNTS + [40])
    theta, refused = non_real(rng, theta)

    def check(values):
        assert not refused, f"accepted {theta.dtype} theta_star"
        assert values.shape == (length,)

    return (f"synth_generate(SyntheticSpec(MODEL, {theta!r}, {sigma!r}, {seed!r}, {length!r}))",
            lambda: synth_generate(SyntheticSpec(MODEL, theta, sigma, seed, length)), check)


def case_init(rng):
    name, values = rng.choice(sorted(PROFILES)), values_of(rng, VALUE_SHAPES)
    loading = rng.choice([0.0, 0.0, 1e-9, -1.0, NAN, INF, np.float32(0.0), np.int64(0)])
    values, refused = non_real(rng, values)

    def check(est):
        assert not refused, f"accepted {values.dtype} values"
        assert est.theta.shape == (MODEL.dim, *batch(values))
        assert est.gamma.shape == (MODEL.dim, MODEL.dim)
        assert est.k == len(values)

    return (f"RlsEstimator.init({name}, MODEL, <{values.dtype} shape {values.shape}>, "
            f"diagonal_loading={loading!r})",
            lambda: RlsEstimator.init(PROFILES[name], MODEL, values, diagonal_loading=loading),
            check)


def started(rng):
    """(label, estimator) initialized on a clean window, scalar or a batch of 3 or 0."""
    name, width = rng.choice(sorted(PROFILES)), rng.choice([(), (3,), (0,)])
    values = np.array([rng.gauss(0.0, 2.0) for _ in range(50 * (width or (1,))[0])])
    est = RlsEstimator.init(PROFILES[name], MODEL, values.reshape(50, *width))
    return f"{name} estimator of batch shape {width}", est


def case_step(rng):
    label, est = started(rng)
    k = est.k
    index = rng.choice([k + 1, k + 1, k + 1, k + 2, k, k + 1.0, k + 1.5, np.int64(k + 1), NAN, -1])
    # half the values are arrays of the estimator's batch shape, so batch steps
    # (B = 3 and B = 0) return too
    if rng.random() < 0.5:
        value = values_of(rng, [batch(est.theta)])
    else:
        value = rng.choice(REALS + [values_of(rng, [(), (0,), (1,), (2,), (3,), (3, 1), (4,)])])
    value, refused = non_real(rng, value)
    if refused and rng.random() < 0.5:
        value = rng.choice(["2.5", b"2.5", 2.5 + 1j, np.str_("2.5")])
    theta = est.theta.copy()

    def call():
        try:
            return est.step((index, value))
        except (SegrlsError, ValueError):
            assert est.k == k and np.array_equal(est.theta, theta), "a failed step changed k or theta"
            raise

    def check(result):
        assert not refused, f"accepted {value!r}"
        assert result is None and est.k == k + 1
        assert est.theta.shape == theta.shape

    return f"{label}: step(({index!r}, {value!r}))", call, check


def case_run(rng):
    label, est = started(rng)
    values = values_of(rng, [(), (0,), (5,), (5, 0), (5, 1), (5, 2), (5, 3), (5, 3, 1)])
    cond_every = rng.choice([0, 0, 1, 2, -1, 2.5, NAN, np.int64(3)])
    values, refused = non_real(rng, values)
    shape = batch(est.theta)

    def check(result):
        assert not refused, f"accepted {values.dtype} values"
        yhat, yhat1, cond = result
        assert yhat.shape == yhat1.shape == (len(values) + 1, *shape)
        assert len(cond) == len(values) + 1

    return (f"{label}: run(<{values.dtype} shape {values.shape}>, {cond_every!r})",
            lambda: est.run(values, cond_every), check)


def case_forecast(rng):
    label, est = started(rng)
    horizon = rng.choice(COUNTS + [30])
    shape = batch(est.theta)

    def check(band):
        assert band.mean.shape == band.lower.shape == band.upper.shape == (horizon, *shape)
        assert np.shape(band.sigma) == shape

    return f"{label}: forecast({horizon!r})", lambda: est.forecast(horizon), check


def case_direct(rng):
    name = rng.choice(sorted(PROFILES))
    values = values_of(rng, [(0,), (60,), (60,), (60,), (60, 3)])
    values, refused = non_real(rng, values)
    # the entries of a 1-D object array are Python floats, which a sample may hold;
    # the rows of a (60, 3) array are not one number each
    refused = (refused and not (values.dtype == object and values.ndim == 1)) or values.ndim == 2
    samples = [Sample(k, y) for k, y in enumerate(values, start=1)]
    consecutive = list(samples)
    # most draws take a k the samples allow (n <= k <= 60), so that the solve runs
    k = (rng.randint(MODEL.dim, 60) if rng.random() < 0.7
         else rng.choice(COUNTS + [55, 60, 60, 61]))
    moved = False
    if values.ndim == 1 and type(k) is int and 1 <= k <= len(samples) and not refused:
        draw = rng.random()
        if draw < 0.2:
            # sample k's value as a string among floats, as in Sample(k, '2.5')
            samples[k - 1] = Sample(k, str(samples[k - 1].y))
            refused = True
        elif draw < 0.4:
            # sample k's value an array among floats
            samples[k - 1] = Sample(k, rng.choice([np.ones(3), np.ones(1), np.ones((1, 1))]))
            refused = True
        elif draw < 0.7:
            # an index missing after the first, or two neighbours swapped: a window
            # that holds either is refused, one that does not is the consecutive solve
            i = rng.randrange(1, len(samples))
            if draw < 0.55:
                del samples[i]
            else:
                samples[i - 1], samples[i] = samples[i], samples[i - 1]
            moved = True

    def check(result):
        assert not refused, "accepted a value that is not one real number"
        a, theta = result
        assert a.shape == (MODEL.dim, MODEL.dim)
        assert theta.shape == (MODEL.dim,)
        if moved:
            want = direct_weighted_ls(PROFILES[name], MODEL, consecutive, k)
            assert all(np.array_equal(got, w, equal_nan=True) for got, w in zip(result, want)), \
                "solved a window of misplaced samples"

    return (f"direct_weighted_ls({name}, MODEL, <{values.shape} samples, "
            f"{'moved' if moved else 'consecutive'}>, {k!r})",
            lambda: direct_weighted_ls(PROFILES[name], MODEL, samples, k), check)


def case_trajectory(rng):
    name, values = rng.choice(sorted(PROFILES)), values_of(rng, [(), (50,), (60,), (60,), (60, 3)])
    init_count = rng.choice(COUNTS + [None, 20, 20, 60])
    values, refused = non_real(rng, values)

    def check(report):
        assert not refused, f"accepted {values.dtype} values"
        window = PROFILES[name].w or init_count
        assert len(values) - window >= 1, "reported a trajectory of no steps"
        assert report.theta_dev_max >= 0.0 and report.gamma_dev_max >= 0.0

    return (f"compare_trajectory({name}, MODEL, <{values.dtype} shape {values.shape}>, "
            f"init_count={init_count!r})",
            lambda: compare_trajectory(PROFILES[name], MODEL, values, init_count=init_count), check)


def case_bias(rng):
    name = rng.choice(sorted(PROFILES))
    trials = rng.choice([100, 100, np.int64(100), 100.5, 99, -1, NAN])
    k = rng.choice([60, 60, 51, 50, 91, 60.5, np.int64(60), NAN])

    def check(report):
        assert report.bias.shape == report.standard_error.shape == (MODEL.dim,)

    return (f"monte_carlo_bias({name}, SPEC, {trials!r}, {k!r})",
            lambda: monte_carlo_bias(PROFILES[name], SPEC, trials, k), check)


def case_accumulation(rng):
    n = rng.choice([1, 3, 3, 0, 2.5, np.int64(3), NAN])
    steps = rng.choice([1, 2, 4, 0, -1, 2.5, np.int32(2)])
    cond, trials = rng.choice([1.0, 10.0, 1e4, 0.5]), rng.choice([1, 2, 0, 2.5, np.int64(2)])

    def check(report):
        assert type(report.median_batch) is float and type(report.median_chain) is float
        assert 0 <= report.singular_incidents <= trials

    return (f"accumulation_experiment({n!r}, {steps!r}, {cond!r}, {trials!r})",
            lambda: accumulation_experiment(n, steps, cond, trials), check)


def series_text(rng, fmt):
    """(text, days, values) of up to four consecutive days in one layout.

    The observatory lines hold each value in column 3 and its negative in
    column 4.  The text may open with a byte-order mark and hold a comment;
    days is None when a data line is refused.
    """
    first = datetime.date(2000, 1, 1) + datetime.timedelta(days=rng.randrange(366))
    days = [first + datetime.timedelta(days=i) for i in range(rng.randint(0, 4))]
    values = [round(rng.gauss(0.0, 5.0), 2) for _ in days]
    if fmt == "csv":
        lines = ["date,value"] + [f"{d.isoformat()},{v}" for d, v in zip(days, values)]
    else:
        lines = [f"{d.year} {d.month} {d.day} {v} {-v}" for d, v in zip(days, values)]
    if days and rng.random() < 0.15:
        lines[-1] = rng.choice(["x", lines[-1] + ",", "2000 2 30 1 1", "nan"])
        days = None
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), "# note")
    mark = "\ufeff" if rng.random() < 0.3 else ""
    return mark + "\n".join(lines) + rng.choice(["\n", "", "\r\n"]), days, values


def parsing(label, parse, text, days, values, *args):
    """(label, call, check) of ``parse(text, *args)``: it must give the records of
    ``days`` with ``values``, or refuse when ``days`` is None."""

    def call():
        try:
            return parse(text, *args)
        except SegrlsError:
            assert days is None, "refused a text of valid lines"
            raise

    def check(records):
        assert days is not None, "accepted a refused line or value column"
        assert isinstance(records, Records)
        assert records.dates.tolist() == days
        assert records.values.tolist() == values

    return label, call, check


def case_parse_stockholm(rng):
    text, days, values = series_text(rng, "stockholm")
    column = rng.choice([3, 3, 3, 4, 4, 5, 2, -1, 2**63 - 1, 2**63, 10**23, 3.0, 4.5, "3",
                         None, True, np.int64(4), np.uint64(3), np.int64(2**63 - 1)])
    # column 3 holds the values, 4 their negatives, and no line holds a later one
    if type(column) not in (int, np.int64, np.uint64) or column < 3:
        days = None
    elif column == 4:
        values = [-v for v in values]
    elif column > 4:
        days = days and None
    return parsing(f"parse_stockholm({text!r}, {column!r})", parse_stockholm, text, days,
                   values, column)


def case_parse_csv(rng):
    text, days, values = series_text(rng, "csv")
    return parsing(f"parse_csv({text!r})", parse_csv, text, days, values)


def case_to_indexed(rng):
    # ten days from 2000-01-01, the fifth missing in half the draws
    days = [datetime.date(2000, 1, d) for d in range(1, 11) if d != 5 or rng.random() < 0.5]
    records = Records(np.array(days, dtype="datetime64[D]"), np.arange(len(days), dtype=float))
    bounds = [None, None, None, None, datetime.date(2000, 1, 3), datetime.date(2000, 1, 8),
              datetime.date(1999, 12, 31), datetime.date(2000, 1, 11)]
    odd_bounds = ["2000-01-01", 730120, 0, datetime.datetime(2000, 1, 1),
                  np.datetime64("2000-01-02")]
    start, end = (rng.choice(bounds if rng.random() < 0.8 else odd_bounds) for _ in range(2))
    policy = rng.choice(GAP_POLICIES if rng.random() < 0.8 else
                        ["Fail", "", None, 3, ["fail"], np.array(["fail", "previous"])])

    def check(series):
        assert policy in GAP_POLICIES
        origin, last = start or days[0], end or days[-1]
        assert type(origin) is datetime.date and type(last) is datetime.date
        assert series.origin == origin
        assert series.values.shape == ((last - origin).days + 1,)
        assert set(series.filled) <= {datetime.date(2000, 1, 5)} - set(days)

    return (f"to_indexed(<{len(days)} records>, {start!r}, {end!r}, {policy!r})",
            lambda: to_indexed(records, start, end, policy), check)


# (case, number of draws): the Monte-Carlo bias runs 100 trials a call
CASES = [
    (case_model, 60), (case_exponential, 60), (case_segmented, 80), (case_weights, 40),
    (case_regressor_matrix, 20), (case_information_matrix, 60), (case_synth, 60),
    (case_init, 80), (case_step, 120), (case_run, 60), (case_forecast, 40),
    (case_direct, 80), (case_trajectory, 30), (case_bias, 10), (case_accumulation, 30),
    (case_parse_stockholm, 80), (case_parse_csv, 40), (case_to_indexed, 80),
]
# the least number of draws that must return, where it is more than one (SEED 16
# gives 8 for direct_weighted_ls)
LEAST_RETURNED = {"case_direct": 5}


def test_cases_cover_the_public_callables():
    covered = {"RlsEstimator", "ExponentialProfile", "SegmentedProfile", "HarmonicModel",
               "SyntheticSpec", "compare_trajectory", "direct_weighted_ls",
               "make_harmonic_model", "monte_carlo_bias", "regressor_matrix",
               "synth_generate", "update_template", "weights"}
    records = {"Sample", "ForecastBand", "UpdateTemplate"}
    callables = {name for name in segrls.__all__
                 if callable(getattr(segrls, name))
                 and not (isinstance(getattr(segrls, name), type)
                          and issubclass(getattr(segrls, name), Exception))}
    assert callables - records == covered


@pytest.mark.parametrize("case, draws", CASES, ids=[case.__name__[5:] for case, _ in CASES])
def test_every_call_returns_its_shape_or_raises_as_documented(case, draws):
    rng = random.Random(f"{SEED}-{case.__name__}")
    returned = 0
    for _ in range(draws):
        label, call, check = case(rng)
        returned += expect(label, call, check)
    # some draws return, so the shape checks are not vacuous
    assert returned >= LEAST_RETURNED.get(case.__name__, 1)
