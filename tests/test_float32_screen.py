"""The float32 screens of the offline build against the float64 code they
replace. The k'-NN block (``knn.exact._topk_block``) and the hard-bin
forward (``MLP.predict_bin``) must return the float64 results bit for bit,
on the inputs where float32 decides least: exact duplicates and ties, logits
tied to the last float64 bit, data at 2^±400 and subnormal, d = 1 and 128.
The bounds behind the screens are checked on their own: the k'-NN margin
against its derivation and exact arithmetic, the cut's rounding, and the
logit bound against the measured float32 error."""
from fractions import Fraction

import numpy as np
import pytest

from repro.knn.exact import (
    KNN_BLOCK,
    _margin,
    _row_cut,
    _screen_cut,
    _screen_margin,
    diff_distances,
    knn_matrix_numpy,
    rank_rows,
    screen,
    sq_norms,
    topk_neighbors,
)
from repro.nn.model import MLP, mlp_partitioner
from tests.conftest import float64_bins, near_ties

U32, ETA32 = Fraction(1, 2**24), Fraction(1, 2**150)


# -- k'-NN ------------------------------------------------------------------
def float64_topk_block(q, data, norms, k, lo=None):
    """The float64 block the screen replaced: scores, row cut and
    ``shortlist_scores``' margin in float64, survivors ranked by the
    difference form."""
    score = (-2.0 * q) @ data.T
    score += norms
    cut = _row_cut(score, k + (lo is not None)) + _margin(norms.max(), q)[:, None]
    rows, cols = np.divmod(np.flatnonzero(score <= cut), len(data))
    if lo is not None:
        other = cols != rows + lo
        rows, cols = rows[other], cols[other]
    return rank_rows(rows, diff_distances(data[cols], q[rows]), cols, len(q), k)


def float64_knn_matrix(data, k):
    norms = sq_norms(data)
    return np.concatenate([float64_topk_block(data[lo:lo + KNN_BLOCK], data, norms, k, lo)[0]
                           for lo in range(0, len(data), KNN_BLOCK)])


def float64_topk(queries, data, k):
    norms = sq_norms(data)
    parts = [float64_topk_block(queries[lo:lo + KNN_BLOCK], data, norms, k)
             for lo in range(0, len(queries), KNN_BLOCK)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def knn_case(name, duplicates, copies):
    """(data, queries) of one hard case for the screen."""
    rng = np.random.default_rng(31)
    base = rng.normal(size=(600, 8))
    mixed = base.copy()
    mixed[:, ::2] = np.ldexp(mixed[:, ::2], -1060)
    return {
        "duplicates": duplicates,
        "copies": copies,
        "scaled up 2^400": (np.ldexp(base, 400), np.ldexp(base[:40] + 1e-3, 400)),
        "scaled down 2^-400": (np.ldexp(base, -400), np.ldexp(base[:40] + 1e-3, -400)),
        "subnormal": (np.ldexp(base, -1050), np.ldexp(base[:40] + 1e-3, -1050)),
        "half subnormal": (mixed, mixed[:40] + 1e-3),
        "d=1": (rng.normal(size=(700, 1)), rng.normal(size=(40, 1))),
        "d=128": (rng.normal(size=(600, 128)), rng.normal(size=(40, 128))),
    }[name]


KNN_CASES = ["duplicates", "copies", "scaled up 2^400", "scaled down 2^-400", "subnormal",
             "half subnormal", "d=1", "d=128"]


class TestKnnScreen:
    @pytest.mark.parametrize("case", KNN_CASES)
    def test_matrix_equals_float64(self, case, duplicates, copies):
        data, _ = knn_case(case, duplicates, copies)
        np.testing.assert_array_equal(knn_matrix_numpy(data, 10), float64_knn_matrix(data, 10))

    @pytest.mark.parametrize("case", KNN_CASES)
    def test_topk_equals_float64(self, case, duplicates, copies):
        data, queries = knn_case(case, duplicates, copies)
        idx, dist = topk_neighbors(queries, data, 10)
        want_idx, want_dist = float64_topk(queries, data, 10)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)

    @pytest.mark.parametrize("scale", [-400, 0, 400])
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_score_error_within_step_one(self, scale, d):
        """|S − A| ≤ e = γ_(d+11)R² + 8dη for every (row, query) pair, with S
        the float32 score and A = ‖X‖² − 2X·Q in exact rational arithmetic of
        the scaled float64 points."""
        rng = np.random.default_rng(d)
        rows = np.ldexp(rng.normal(size=(12, d)) + 3.0, scale)
        queries = np.ldexp(rng.normal(size=(4, d)) + 3.0, scale)
        scr = screen(rows, queries)
        q32 = np.ldexp(queries, -scr.exp).astype(np.float32)
        score = (np.float32(-2.0) * q32) @ scr.x.T + scr.norms
        gamma = (d + 11) * U32 / (1 - (d + 11) * U32)
        for q, srow in zip(np.ldexp(queries, -scr.exp), score):
            for x, s in zip(np.ldexp(rows, -scr.exp), srow):
                exact = sum(Fraction(v) * Fraction(v) - 2 * Fraction(v) * Fraction(w)
                            for v, w in zip(x, q))
                r = np.linalg.norm(x) + np.linalg.norm(q)
                assert abs(Fraction(float(s)) - exact) <= gamma * Fraction(r * r) + 8 * d * ETA32

    @pytest.mark.parametrize("d", [1, 8, 128])
    @pytest.mark.parametrize("exp", [-600, 0, 400])
    def test_margin_covers_step_three(self, d, exp):
        """The margin is at least what step 3 asks of an answer row, two
        score errors and the difference form's slack, 2γ_(d+13)R² + 24dη +
        9d·2⁻²ᵉ·2⁻¹⁰⁷⁵ with R = max ‖X‖ + ‖Q‖, for a spread of norms."""
        top = 0.7 * d
        q_sq = np.array([0.0, 1e-30, 0.3, 0.7 * d])
        got = _screen_margin(top, q_sq, d, exp)
        gamma = (d + 13) * U32 / (1 - (d + 13) * U32)
        for e, qs in zip(got, q_sq):
            r = Fraction(np.sqrt(top)) + Fraction(np.sqrt(qs))
            need = 2 * gamma * r * r + 24 * d * ETA32 + 9 * d * Fraction(2) ** (-2 * exp - 1075)
            assert Fraction(float(e)) >= need

    def test_cut_rounds_up(self):
        """The float32 cut is at or above the real τ + E, also where rounding
        to nearest would fall below it, and at most two float32 steps above."""
        tau = np.array([1.0, -0.75, 3.0, 0.0, 0.0], dtype=np.float32)
        margin = np.array([0.25, 0.1, 0.75, 1e-3, 0.3]) * np.abs(np.spacing(tau)).astype(np.float64)
        cut = _screen_cut(tau, margin)
        assert cut.dtype == np.float32
        for c, t, e in zip(cut, tau, margin):
            exact = Fraction(float(t)) + Fraction(float(e))
            two_below = np.nextafter(np.nextafter(c, np.float32(-np.inf)), np.float32(-np.inf))
            assert Fraction(float(two_below)) < exact <= Fraction(float(c))


# -- hard bins ----------------------------------------------------------------
def screened_model(d: int, n_hidden: int, seed: int = 0) -> MLP:
    """An MLP (32 hidden, 16 bins) whose BatchNorms have running stats from
    train-mode passes and whose gamma, beta and biases are non-trivial."""
    rng = np.random.default_rng(seed)
    model = mlp_partitioner(d, 16, hidden=32, n_hidden=n_hidden, dropout=0.0, seed=seed)
    for _ in range(3):
        model.forward(rng.normal(2.0, 3.0, size=(64, d)), train=True)
    for a in model.gamma + model.beta + model.b:
        a[...] = rng.normal(size=a.shape)
    model._affine = None
    return model


def bin_rows(model: MLP, d: int) -> np.ndarray:
    """Random rows, near-tie rows, rows scaled by 2^±400, subnormal rows and
    a zero row."""
    rng = np.random.default_rng(d)
    x = rng.normal(2.0, 3.0, size=(300, d))
    return np.concatenate([x, near_ties(model, x), np.ldexp(x[:20], 400), np.ldexp(x[:20], -400),
                           np.ldexp(x[:20], -1060), np.zeros((1, d))])


MODELS = [(d, n_hidden) for d in (1, 8, 128) for n_hidden in (0, 1, 2)]


class TestBinScreen:
    @pytest.mark.parametrize("d, n_hidden", MODELS)
    def test_equals_float64_argmax(self, d, n_hidden):
        model = screened_model(d, n_hidden)
        x = bin_rows(model, d)
        np.testing.assert_array_equal(model.predict_bin(x), float64_bins(model, x))

    @pytest.mark.parametrize("d, n_hidden", MODELS)
    def test_near_ties_fall_back(self, d, n_hidden):
        """Each bisection pair has two float64 bins and rounds to one
        float32 row, so the screen cannot certify both ends; both get their
        float64 bin."""
        model = screened_model(d, n_hidden)
        x = near_ties(model, np.random.default_rng(d).normal(2.0, 3.0, size=(300, d)))
        want = float64_bins(model, x)
        assert len(x) and (want[::2] != want[1::2]).all()
        np.testing.assert_array_equal(model.predict_bin(x), want)

    @pytest.mark.parametrize("d, n_hidden", MODELS)
    def test_one_row_bins_equal_batch_bins(self, d, n_hidden):
        """A row's bin does not depend on its batch: one-row calls, whose
        float32 forward is a gemv, give each row its bin in the whole batch,
        near-tie rows included."""
        model = screened_model(d, n_hidden)
        x = bin_rows(model, d)
        batch = model.predict_bin(x)
        np.testing.assert_array_equal([model.predict_bin(x[i:i + 1])[0] for i in range(len(x))],
                                      batch)

    @pytest.mark.parametrize("d, n_hidden", MODELS)
    def test_bound_covers_float32_error(self, d, n_hidden):
        """|logit32 − logit64| ≤ B(x) = c0‖x‖ + c1 for every logit of every
        row within reach, and the reach keeps float32 finite."""
        model = screened_model(d, n_hidden)
        twin, c0, c1, reach = model.screen()
        x = bin_rows(model, d)
        x = x[np.linalg.norm(x, axis=1) <= reach]
        z64 = model.logits(x)[0]
        z32 = twin.logits(x.astype(np.float32))[0].astype(np.float64)
        assert np.isfinite(z32).all()
        bound = c0 * np.linalg.norm(x, axis=1) + c1
        assert (np.abs(z32 - z64).max(axis=1) <= bound).all()

    def test_screen_runs_in_the_traced_forward(self, monkeypatch):
        """The float32 screen and the float64 fallback both run through
        ``MLP.forward(x, train=False)``, the eval forward a tracer wraps, and
        the fallback scores only the uncertified rows, at least two."""
        model = screened_model(8, 1)
        x = bin_rows(model, 8)
        calls = []
        forward = MLP.forward

        def spy(self, rows, train=True):
            calls.append((rows.dtype, len(rows)))
            return forward(self, rows, train)

        monkeypatch.setattr(MLP, "forward", spy)
        model.predict_bin(x)
        assert calls[0] == (np.float32, len(x))
        assert [c[0] for c in calls[1:]] == [np.float64] and 2 <= calls[1][1] < len(x) // 4
