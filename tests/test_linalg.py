import inspect
import math
import warnings

import numpy as np
import pytest

from segrls import linalg
from segrls.errors import NotPositiveDefiniteError, SingularUpdateError
from segrls.profile import ExponentialProfile, update_template
from segrls.verify import fig2_profile

HILBERT4_INVERSE = np.array(
    [
        [16, -120, 240, -140],
        [-120, 1200, -2700, 1680],
        [240, -2700, 6480, -4200],
        [-140, 1680, -4200, 2800],
    ],
    dtype=float,
)


def random_spd(rng, n, ridge=None):
    g = rng.standard_normal((n, n))
    return g @ g.T + (n if ridge is None else ridge) * np.eye(n)


class TestBatchInverseUpdate:
    def test_single_addition(self):
        got = linalg.batch_inverse_update(np.eye(2), np.array([[1.0], [0.0]]), [1.0])
        assert np.allclose(got, np.diag([0.5, 1.0]), atol=1e-15)

    def test_add_then_remove_same_column(self):
        rng = np.random.default_rng(3)
        b_inv = np.linalg.inv(random_spd(rng, 6))
        x = rng.standard_normal(6)
        got = linalg.batch_inverse_update(b_inv, np.column_stack([x, x]), [1.0, -1.0])
        assert np.linalg.norm(got - b_inv) <= 1e-12 * np.linalg.norm(b_inv)

    def test_matches_direct_inverse_random_trials(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(3, 30))
            r = int(rng.integers(1, 9))
            b = random_spd(rng, n)
            cols = rng.standard_normal((n, r))
            signs = rng.choice([-1.0, 1.0], size=r)
            a = b + (cols * signs) @ cols.T
            if np.linalg.cond(a) > 1e8:
                continue
            got = linalg.batch_inverse_update(np.linalg.inv(b), cols, signs)
            ref = np.linalg.inv(a)
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(5)
        b_inv = np.linalg.inv(random_spd(rng, 8))
        got = linalg.batch_inverse_update(b_inv, rng.standard_normal((8, 3)),
                                          [1.0, -1.0, 1.0])
        assert np.array_equal(got, got.T)

    def test_rank_collapse_detected(self):
        # removing the only mass along e1 from identity: U = -1 + 1 = 0
        with pytest.raises(SingularUpdateError):
            linalg.batch_inverse_update(np.eye(3), np.array([[1.0], [0.0], [0.0]]),
                                        [-1.0])

    @pytest.mark.parametrize("delta,singular", [(1e-14, True), (1e-10, False)])
    def test_near_singular_capacitance(self, delta, singular):
        # remove sqrt(1-delta) e1 and add e2: U = diag(-delta, 2), cond 2/delta
        q = np.array([[math.sqrt(1.0 - delta), 0.0], [0.0, 1.0], [0.0, 0.0]])
        if singular:
            with pytest.raises(SingularUpdateError):
                linalg.batch_inverse_update(np.eye(3), q, [-1.0, 1.0])
        else:
            got = linalg.batch_inverse_update(np.eye(3), q, [-1.0, 1.0])
            assert got[0, 0] == pytest.approx(1.0 / delta, rel=1e-5)

    def test_nan_capacitance_estimate_raises(self):
        b_inv = np.eye(3)
        b_inv[1, 1] = math.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(SingularUpdateError, match="estimate nan"):
                linalg.batch_inverse_update(b_inv, np.ones((3, 1)), [1.0])

    def test_signature_validated(self):
        with pytest.raises(ValueError):
            linalg.batch_inverse_update(np.eye(2), np.ones((2, 1)), [0.5])

    def test_takes_the_matrix_the_columns_and_the_signature_only(self):
        # theta' is the core's: the estimator calls it with theta and y
        params = inspect.signature(linalg.batch_inverse_update).parameters
        assert list(params) == ["b_inv", "q", "signs"]
        with pytest.raises(TypeError):
            linalg.batch_inverse_update(np.eye(2), np.ones((2, 1)), [1.0], np.ones(2), [1.0])

    @pytest.mark.parametrize("width", [(), (2,)], ids=["scalar", "batch2"])
    def test_theta_and_y_of_fitting_shapes_are_taken(self, width):
        q, signs = np.eye(5)[:, :3], [1.0, 1.0, 1.0]
        theta, y = np.ones((5, *width)), np.full((3, *width), 3.0)
        gamma, got = linalg._woodbury(np.eye(5), q, np.diag(signs), theta, y)
        # A = diag(2, 2, 2, 1, 1), b = theta + Q y = (4, 4, 4, 1, 1)
        want = np.ones((5, *width))
        want[:3] = 2.0
        assert np.array_equal(got, want)
        assert np.array_equal(gamma, np.diag([0.5, 0.5, 0.5, 1.0, 1.0]))
        # the public update takes lists, and gives the core's gain
        public = linalg.batch_inverse_update(np.eye(5).tolist(), q.tolist(), signs)
        assert np.array_equal(public, gamma)


class TestChainShermanMorrison:
    def test_single_column_equals_batch(self):
        rng = np.random.default_rng(7)
        b_inv = np.linalg.inv(random_spd(rng, 5))
        x = rng.standard_normal((5, 1))
        got_chain = linalg.chain_sherman_morrison(b_inv, x, [1.0])
        got_batch = linalg.batch_inverse_update(b_inv, x, [1.0])
        assert np.linalg.norm(got_chain - got_batch) <= 1e-14 * np.linalg.norm(got_batch)

    def test_add_remove_pair_returns_input(self):
        rng = np.random.default_rng(9)
        b_inv = np.linalg.inv(random_spd(rng, 6))
        x = rng.standard_normal(6)
        got = linalg.chain_sherman_morrison(b_inv, np.column_stack([x, x]), [1, -1])
        assert np.linalg.norm(got - b_inv) <= 1e-12 * np.linalg.norm(b_inv)

    def test_intermediate_singularity_raises(self):
        # removing a unit direction from the identity: denominator 1 - 1 = 0
        with pytest.raises(SingularUpdateError,
                           match=r"^rank-one denominator 0\.000e\+00 below tolerance at column 0$"):
            linalg.chain_sherman_morrison(
                np.eye(3), np.array([[1.0], [0.0], [0.0]]), [-1.0]
            )

    @pytest.mark.parametrize(
        "bad, den, cond",
        [(math.nan, "nan", "nan"), (math.inf, "nan", "nan"), (-math.inf, "nan", "nan"),
         (1e200, "-inf", "inf")],
        ids=["nan", "inf", "minus-inf", "overflow"],
    )
    def test_non_finite_denominator_raises_where_the_batch_update_does(self, bad, den, cond):
        # the second column carries the bad entry; the first is a plain addition
        q = np.array([[1.0, 0.5], [0.0, bad], [0.0, 0.25]])
        with np.errstate(all="ignore"):
            with pytest.raises(SingularUpdateError) as err:
                linalg.chain_sherman_morrison(np.eye(3), q, [1.0, -1.0])
            with pytest.raises(SingularUpdateError, match=f"estimate {cond} above"):
                linalg.batch_inverse_update(np.eye(3), q, [1.0, -1.0])
        assert str(err.value) == f"rank-one denominator {den} below tolerance at column 1"


class TestSameBits:
    """symmetrize and the update core give the bits of the expressions they replaced."""

    @pytest.mark.parametrize(
        "shape, view",
        [((35, 35), ...), ((70, 71), np.s_[::2, 1::2]), ((6, 35, 35), ...)],
        ids=["matrix", "strided-view", "stack"],
    )
    def test_symmetrize_is_the_sum_form(self, shape, view):
        a = np.random.default_rng(19).standard_normal(shape)[view]
        before = a.copy()
        got = linalg.symmetrize(a)
        assert np.array_equal(got, (a + a.swapaxes(-1, -2)) * 0.5)
        assert np.array_equal(got, got.swapaxes(-1, -2))
        assert np.array_equal(a, before)

    @staticmethod
    def matmul_update(b_inv, q, signs, theta, y):
        """The update with @ products and (G + G^T) * 0.5, as the core once read."""
        v = b_inv @ q
        u_inv = np.linalg.inv(q.T @ v + np.diag(signs))
        gamma = b_inv - v @ (u_inv @ v.T)
        return (gamma + gamma.T) * 0.5, theta + v @ (u_inv @ (y - q.T @ theta))

    @pytest.mark.parametrize("width", [(), (3,)], ids=["scalar", "batch3"])
    @pytest.mark.parametrize("layout", ["step-view", "contiguous"])
    def test_update_with_theta_is_the_matmul_form_on_fig2_operands(self, width, layout):
        rng = np.random.default_rng(23)
        signs = np.array(update_template(fig2_profile()).signs, dtype=float)   # r = 4
        n, r = 35, len(signs)
        for _ in range(20):
            b_inv = linalg.spd_inverse(random_spd(rng, n)) / 0.99
            # the step passes its (r, n) block of correction columns transposed
            q = rng.standard_normal((r, n)).T
            if layout == "contiguous":
                q = np.ascontiguousarray(q)
            theta, y = rng.standard_normal((n, *width)), rng.standard_normal((r, *width))
            gamma, theta_new = linalg._woodbury(b_inv, q, np.diag(signs), theta, y)
            want_gamma, want_theta = self.matmul_update(b_inv, q, signs, theta, y)
            assert np.array_equal(gamma, want_gamma)
            assert np.array_equal(theta_new, want_theta)

    @staticmethod
    def six_reduction_cond(u_inv, w):
        """The capacitance estimate as the core once read: one norm per matrix."""
        return (np.maximum.reduce(np.add.reduce(np.abs(u_inv)))
                * (1.0 + np.maximum.reduce(np.add.reduce(np.abs(w)))))

    @staticmethod
    def pair(u_inv, w):
        pair = np.empty((2, *u_inv.shape))
        pair[0], pair[1] = u_inv, w
        return pair

    def fig2_capacitance(self, rng, r):
        """(U^{-1}, W) of one update on Fig-2-sized operands: n = 35, r columns."""
        b_inv = linalg.spd_inverse(random_spd(rng, 35)) / 0.99
        q = rng.standard_normal((r, 35)).T
        w = q.T @ b_inv @ q
        return np.linalg.inv(w + np.diag(rng.choice([-1.0, 1.0], size=r))), w

    @pytest.mark.parametrize("bad, want", [(math.nan, "nan"), (math.inf, "inf"),
                                           (-math.inf, "inf")])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_cond_estimate_meets_a_non_finite_entry_at_any_position(self, r, bad, want):
        u_inv, w = self.fig2_capacitance(np.random.default_rng(31), r)
        for which in range(2):
            for i in range(r * r):
                pair = self.pair(u_inv, w)
                pair[which].flat[i] = bad
                # the bounded guard computes the estimate, and so raises with its text
                assert repr(linalg._capacitance_guard(pair)) == want, (which, i)

    def test_singular_update_messages_are_unchanged(self):
        # U = -1 + 1 = 0: the inverse itself fails
        with pytest.raises(SingularUpdateError) as err:
            linalg.batch_inverse_update(np.eye(3), np.array([[1.0], [0.0], [0.0]]), [-1.0])
        assert str(err.value) == "capacitance matrix is singular"
        # U = diag(-1e-14, 2): inverted, then refused by the estimate
        q = np.array([[math.sqrt(1.0 - 1e-14), 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularUpdateError) as err:
            linalg.batch_inverse_update(np.eye(3), q, [-1.0, 1.0])
        w = q.T @ q
        cond = self.six_reduction_cond(np.linalg.inv(w + np.diag([-1.0, 1.0])), w)
        assert str(err.value) == f"capacitance condition estimate {cond:.3e} above 1e+12"
        # the text the six-reduction core printed for this update
        assert str(err.value) == "capacitance condition estimate 2.002e+14 above 1e+12"

    @staticmethod
    def inverse_core(b_inv, q, d, theta, y):
        """The core as it read for every rank: numpy.linalg.inv and the two 1-norms."""
        v = np.dot(b_inv, q)
        w = np.dot(q.T, v)
        try:
            u_inv = np.linalg.inv(w + d)
        except np.linalg.LinAlgError:
            raise SingularUpdateError("capacitance matrix is singular") from None
        u_norm, w_norm = (np.maximum.reduce(np.add.reduce(np.abs(m))).item() for m in (u_inv, w))
        cond = u_norm * (1.0 + w_norm)
        if not cond <= 1e12:
            raise SingularUpdateError(f"capacitance condition estimate {cond:.3e} above 1e+12")
        gamma = b_inv - np.dot(v, np.dot(u_inv, v.T))
        return (gamma + gamma.T) * 0.5, theta + np.dot(v, np.dot(u_inv, y - np.dot(q.T, theta)))

    @staticmethod
    def outcome(update, *args):
        """The bytes of (gamma, theta'), or the SingularUpdateError text; then the warnings."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                gamma, theta = update(*args)
                result = gamma.tobytes(), theta.tobytes()
            except SingularUpdateError as err:
                result = str(err)
        return result, [f"{w.category.__name__}: {w.message}" for w in caught]

    @staticmethod
    def rank_one_capacitance(w, d, width):
        """Core arguments whose W is ``w`` and D is ``d``: B^{-1} = [[w]], Q = [[1]]."""
        y = np.linspace(-1.5, 2.0, num=math.prod(width)).reshape(1, *width)
        return np.array([[w]]), np.ones((1, 1)), np.array([[d]]), np.full((1, *width), 0.25), y

    @pytest.mark.parametrize("width", [(), (3,)], ids=["scalar", "batch3"])
    def test_rank_one_core_is_the_inverse_form_over_the_double_range(self, width):
        rng = np.random.default_rng(41)
        tiny, huge = 5e-324, float(np.finfo(float).max)
        ws = [tiny, -tiny, 2.2e-308 / 3, huge, -huge, 1e-300, 1e300, 0.5, -0.5, 1.0, -1.0]
        ws += (rng.choice([-1.0, 1.0], size=2000)
               * 10.0 ** rng.uniform(-323, 308, size=2000)).tolist()
        checked, returned = 0, 0
        for w in ws:
            # D = -0.0 makes U = W exactly; the others cancel W or dominate it
            for d in (-0.0, 1.0, -1.0, -w, -w * (1.0 + 2.0 ** -52), -w * (1.0 - 2.0 ** -52)):
                args = self.rank_one_capacitance(w, d, width)
                got = self.outcome(linalg._woodbury, *args)
                assert got == self.outcome(self.inverse_core, *args), (w, d)
                checked += 1
                returned += type(got[0]) is tuple
        # both outcomes are common: a result, and a refusal by the estimate
        assert returned > checked // 10 and checked - returned > checked // 10

    @pytest.mark.parametrize("width", [(), (3,)], ids=["scalar", "batch3"])
    def test_rank_one_core_is_the_inverse_form_on_infinite_profile_operands(self, width):
        rng = np.random.default_rng(43)
        signs = update_template(ExponentialProfile(0.99)).signs
        d = np.diag(np.array(signs, dtype=float))                   # r = 1
        for _ in range(100):
            b_inv = linalg.spd_inverse(random_spd(rng, 35)) / 0.99
            q = rng.standard_normal((1, 35)).T
            theta, y = rng.standard_normal((35, *width)), rng.standard_normal((1, *width))
            want = self.outcome(self.inverse_core, b_inv, q, d, theta, y)
            assert type(want[0]) is tuple and not want[1]
            assert self.outcome(linalg._woodbury, b_inv, q, d, theta, y) == want

    @pytest.mark.parametrize(
        "w, d, want",
        [(0.0, -0.0, "capacitance matrix is singular"),
         (-0.0, -0.0, "capacitance matrix is singular"),
         (1.0, -1.0, "capacitance matrix is singular"),
         (math.nan, 1.0, "capacitance condition estimate nan above 1e+12"),
         (math.inf, 1.0, "capacitance condition estimate nan above 1e+12"),
         (-math.inf, 1.0, "capacitance condition estimate nan above 1e+12"),
         (5e-324, -0.0, "capacitance condition estimate inf above 1e+12")],
        ids=["zero", "minus-zero", "cancelled", "nan", "inf", "minus-inf", "subnormal"],
    )
    def test_rank_one_refusals_keep_their_text(self, w, d, want):
        # raised before any product that could warn: neither form warns
        args = self.rank_one_capacitance(w, d, ())
        assert self.outcome(self.inverse_core, *args) == (want, [])
        assert self.outcome(linalg._woodbury, *args) == (want, [])

    @pytest.mark.parametrize("width", [(), (3,)], ids=["scalar", "batch3"])
    def test_update_leaves_its_arguments_alone(self, width):
        rng = np.random.default_rng(37)
        signs = np.array(update_template(fig2_profile()).signs, dtype=float)
        b_inv = linalg.spd_inverse(random_spd(rng, 35)) / 0.99
        q = rng.standard_normal((len(signs), 35)).T
        theta, y = rng.standard_normal((35, *width)), rng.standard_normal((len(signs), *width))
        before = [a.copy() for a in (b_inv, q, signs, theta, y)]
        linalg._woodbury(b_inv, q, np.diag(signs), theta, y)
        linalg.batch_inverse_update(b_inv, q, signs)
        for got, want in zip((b_inv, q, signs, theta, y), before):
            assert np.array_equal(got, want)

    # The guard: the exact capacitance estimate only where the bound r m (1 + r m)
    # does not clear half the limit; outcomes and texts are the exact check's.

    @staticmethod
    def add_and_remove(rng, n, r, a):
        """Core arguments that add and remove one column x with x^T B^{-1} x = a, B^{-1} SPD.

        U holds the block [[1 + a, a], [a, a - 1]] of determinant -1, so the
        estimate is about 4 a^2 for r = 2, more with the other columns.
        """
        b_inv = random_spd(rng, n) / n
        q = rng.standard_normal((n, r))
        x = q[:, 0]
        q[:, 0] = q[:, 1] = x * math.sqrt(a / (x @ b_inv @ x))
        signs = rng.choice([-1.0, 1.0], size=r)
        signs[:2] = 1.0, -1.0
        return b_inv, q, np.diag(signs), rng.standard_normal(n), rng.standard_normal(r)

    def guard_draw(self, rng):
        """One draw of the differential: n 3-11, r 2-5, some near the limit or not finite."""
        n, r = int(rng.integers(3, 12)), int(rng.integers(2, 6))
        kind = rng.integers(8)
        if kind < 3:
            # the same column added and removed: estimates around the 1e12 limit
            args = list(self.add_and_remove(rng, n, r, 10.0 ** rng.uniform(5.2, 6.4)))
        else:
            scale = 10.0 ** rng.uniform(-3, 3, size=2)
            b_inv = random_spd(rng, n) * (scale[0] / n)
            q = rng.standard_normal((n, r)) * scale[1]
            if kind < 5:
                # a near-cancelling pair: the second column a hair off the first
                q[:, 1] = q[:, 0] * (1.0 + 10.0 ** rng.uniform(-16, -4))
                signs = np.concatenate([[1.0, -1.0], rng.choice([-1.0, 1.0], size=r - 2)])
            else:
                signs = rng.choice([-1.0, 1.0], size=r)
            args = [b_inv, q, np.diag(signs), rng.standard_normal(n), rng.standard_normal(r)]
        if rng.random() < 0.1:
            # one nan or infinite entry of B^{-1} or Q
            which = args[int(rng.integers(2))]
            which.flat[int(rng.integers(which.size))] = rng.choice([math.nan, math.inf, -math.inf])
        return args

    def test_bounded_guard_is_the_exact_check_over_20000_draws(self):
        rng = np.random.default_rng(47)
        tally = {"returned": 0, "singular": 0, "estimate": 0}
        for _ in range(20000):
            args = self.guard_draw(rng)
            want = self.outcome(self.inverse_core, *args)
            assert self.outcome(linalg._woodbury, *args) == want
            if type(want[0]) is tuple:
                tally["returned"] += 1
            else:
                tally["singular" if want[0].endswith("singular") else "estimate"] += 1
        assert tally["returned"] > 12000 and tally["estimate"] > 4000, tally
        assert tally["singular"] > 0, tally

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_bounded_guard_near_the_limit(self, r):
        rng = np.random.default_rng(53 + r)
        refused, passed = 0, 0
        while min(refused, passed) < 60:
            args = self.add_and_remove(rng, 6, r, 10.0 ** rng.uniform(5.2, 5.9))
            b_inv, q, d = args[:3]
            w = q.T.dot(b_inv.dot(q))
            exact = self.six_reduction_cond(np.linalg.inv(w + d), w)
            if not 0.5e12 < exact < 2e12:
                continue
            want = self.outcome(self.inverse_core, *args)
            assert self.outcome(linalg._woodbury, *args) == want
            refused += exact > 1e12
            passed += exact <= 1e12
            assert (type(want[0]) is tuple) == (exact <= 1e12)

    def test_the_estimate_is_skipped_only_below_the_limit(self):
        rng = np.random.default_rng(61)
        skipped = 0
        for _ in range(4000):
            r = int(rng.integers(2, 6))
            # entries near +-m in random signs, or all negative but one small positive
            pair = 10.0 ** rng.uniform(4.5, 6.5) * rng.uniform(0.9, 1.0, size=(2, r, r))
            if rng.random() < 0.5:
                pair *= rng.choice([-1.0, 1.0], size=pair.shape)
            else:
                pair *= -1.0
                pair.flat[int(rng.integers(pair.size))] = 0.1
            got, exact = linalg._capacitance_guard(pair), self.six_reduction_cond(*pair)
            assert type(got) is float
            # a result other than the estimate is the bound, which stands in below the limit
            if got != exact:
                skipped += 1
                assert got < 0.5e12 and exact <= 1e12
        assert 400 < skipped < 3600


@pytest.mark.parametrize(
    "update", [linalg.batch_inverse_update, linalg.chain_sherman_morrison],
    ids=["batch", "chain"],
)
@pytest.mark.parametrize(
    "q, signs, message",
    [
        (np.ones((2, 2)), [1.0], "one signature entry is required per column"),
        (np.ones((2, 1)), [2.0], r"signature entries must be \+1 or -1"),
        (np.ones((3, 1)), [1.0], "column dimension does not match the matrix order"),
        (np.ones((2, 0)), [], "at least one correction column is required"),
    ],
    ids=["signs-short", "sign-two", "rows-mismatch", "no-columns"],
)
def test_both_updates_refuse_the_same_arguments(update, q, signs, message):
    with pytest.raises(ValueError, match=message):
        update(np.eye(2), q, signs)


class TestSpdInverse:
    def test_diagonal(self):
        assert np.allclose(
            linalg.spd_inverse(np.diag([4.0, 9.0])), np.diag([0.25, 1.0 / 9.0]),
            atol=1e-15,
        )

    def test_identity(self):
        assert np.allclose(linalg.spd_inverse(np.eye(7)), np.eye(7), atol=1e-15)

    def test_hilbert_4x4_closed_form(self):
        hilbert = np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])
        got = linalg.spd_inverse(hilbert)
        assert np.max(np.abs(got - HILBERT4_INVERSE) / np.abs(HILBERT4_INVERSE)) <= 1e-6

    def test_inverse_identity_residual(self):
        rng = np.random.default_rng(23)
        a = random_spd(rng, 20)
        got = linalg.spd_inverse(a)
        assert np.max(np.abs(a @ got - np.eye(20))) <= 1e-8

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.spd_inverse(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            linalg.spd_inverse(np.ones((3, 3)))  # rank one


class TestEigenvalues:
    def test_condition_trivial_cases(self):
        assert linalg.condition_number(np.eye(5)) == 1.0
        assert linalg.condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)
        assert linalg.condition_number(np.diag([1.0, 1e-12])) == pytest.approx(
            1e12, rel=1e-9
        )

    def test_singular_matrix_reports_infinity(self):
        assert linalg.condition_number(np.zeros((4, 4))) == math.inf
        assert linalg.condition_number(np.diag([1.0, 0.0])) == math.inf

    def test_jacobi_against_bisection_oracle(self):
        # condition_number on indefinite matrices against the extreme
        # root magnitudes of the characteristic polynomial
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            a = (a + a.T) / 2
            roots = np.abs(characteristic_roots_by_bisection(a))
            oracle = np.max(roots) / np.min(roots)
            assert linalg.condition_number(a) == pytest.approx(oracle, rel=1e-8)


# ----------------------------------------------------------------------
# independent eigenvalue oracle: characteristic polynomial by the
# Faddeev-LeVerrier trace recursion, roots isolated on a sign-change grid
# and polished by bisection


def characteristic_polynomial(a):
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs  # det(xI - A), highest power first


def characteristic_roots_by_bisection(a, grid_points=20001, iterations=200):
    coeffs = characteristic_polynomial(a)
    bound = float(np.max(np.sum(np.abs(a), axis=1))) + 1e-9  # Gershgorin
    grid = np.linspace(-bound, bound, grid_points)
    values = np.polyval(coeffs, grid)
    roots = []
    for left, right, f_left, f_right in zip(grid, grid[1:], values, values[1:]):
        if f_left == 0.0:
            roots.append(left)
            continue
        if f_left * f_right >= 0.0:
            continue
        lo, hi, f_lo = left, right, f_left
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            f_mid = np.polyval(coeffs, mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    assert len(roots) == a.shape[0], "bisection oracle must isolate every eigenvalue"
    return np.array(roots)
