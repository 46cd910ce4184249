"""Histogram reweighting and homophily-stratified train/val/test splits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homshift import (
    EXCLUDED,
    TEST,
    TRAIN,
    VAL,
    HomophilyHistogram,
    SplitAssignment,
    bin_index,
    concentrate,
    invert,
    load_split,
    save_split,
    save_split_diagnostics,
    split_diagnostics,
    stratified_split,
)
from homshift.splits import _train_scale, largest_remainder

from conftest import reference_save_split


@pytest.fixture(scope="module")
def beta_ratios():
    return np.random.default_rng(5).beta(10.0, 3.0, size=10_000)


# ----------------------------------------------------------- reweighting


def test_concentrate_gamma_one_is_identity():
    h = HomophilyHistogram(3, np.array([0.2, 0.3, 0.5]))
    assert np.allclose(concentrate(h, 1.0).mass, h.mass, atol=1e-15)


def test_concentrate_gamma_zero_flattens_but_keeps_zeros():
    h = HomophilyHistogram(3, np.array([0.8, 0.2, 0.0]))
    assert np.allclose(concentrate(h, 0.0).mass, [0.5, 0.5, 0.0], atol=1e-15)


def test_concentrate_hand_values():
    h = HomophilyHistogram(2, np.array([0.8, 0.2]))
    assert np.allclose(concentrate(h, 3.0).mass, [64 / 65, 1 / 65], atol=1e-12)
    h2 = HomophilyHistogram(3, np.array([0.5, 0.25, 0.25]))
    assert np.allclose(concentrate(h2, 2.0).mass, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_concentrate_rejects_negative_gamma():
    h = HomophilyHistogram(2, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        concentrate(h, -0.5)


def test_concentrate_keeps_a_sole_full_bin_at_infinite_gamma():
    h = HomophilyHistogram(3, np.array([0.0, 1.0, 0.0]))
    assert concentrate(h, float("inf")).mass.tolist() == [0.0, 1.0, 0.0]


def test_invert_uniform_is_fixed_point():
    h = HomophilyHistogram(4, np.full(4, 0.25))
    assert np.allclose(invert(h).mass, h.mass, atol=1e-15)


def test_invert_hand_values_and_zeros():
    h = HomophilyHistogram(3, np.array([0.2, 0.3, 0.5]))
    assert np.allclose(invert(h).mass, [15 / 31, 10 / 31, 6 / 31], atol=1e-12)
    hz = HomophilyHistogram(3, np.array([0.5, 0.0, 0.5]))
    assert np.allclose(invert(hz).mass, [0.5, 0.0, 0.5], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8))
def test_invert_is_involution(weights):
    mass = np.asarray(weights) / np.sum(weights)
    h = HomophilyHistogram(mass.size, mass)
    assert np.allclose(invert(invert(h)).mass, h.mass, atol=1e-12)


# ------------------------------------------------------ apportionment


def _uncapped_largest_remainder_oracle(quotas, total):
    """The generator's goal apportioner before it was merged into
    splits.largest_remainder; kept verbatim as the reference."""
    quotas = np.asarray(quotas, dtype=np.float64)
    floors = np.floor(quotas + 1e-9).astype(np.int64)
    floors = np.maximum(floors, 0)
    rem = int(total - floors.sum())
    fracs = quotas - floors
    order = np.lexsort((np.arange(quotas.size), -fracs))
    k = 0
    while rem > 0:
        floors[order[k % quotas.size]] += 1
        rem -= 1
        k += 1
    k = quotas.size - 1
    while rem < 0:
        idx = order[k % quotas.size]
        if floors[idx] > 0:
            floors[idx] -= 1
            rem += 1
        k -= 1
    return floors


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=300))
def test_largest_remainder_uncapped_matches_oracle(quotas, total):
    got = largest_remainder(quotas, total)
    assert got.sum() == total
    assert np.array_equal(got, _uncapped_largest_remainder_oracle(quotas, total))


def _capped_largest_remainder_oracle(quotas, caps, total):
    """The split apportioner before caps became optional; the reference."""
    floors = np.floor(quotas + 1e-9).astype(np.int64)
    floors = np.clip(floors, 0, caps)
    rem = int(total - floors.sum())
    fracs = quotas - floors
    order = np.lexsort((np.arange(quotas.size), -fracs))
    if rem > 0:
        for idx in list(order) * 2:
            if rem == 0:
                break
            if floors[idx] < caps[idx]:
                floors[idx] += 1
                rem -= 1
    elif rem < 0:
        for idx in list(order[::-1]) * 2:
            if rem == 0:
                break
            if floors[idx] > 0:
                floors[idx] -= 1
                rem += 1
    if rem != 0:
        raise ValueError("infeasible")
    return floors


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                          st.floats(min_value=0.0, max_value=1.0)), min_size=1, max_size=12),
       st.floats(min_value=0.0, max_value=1.0))
def test_largest_remainder_capped_matches_oracle(bins, share):
    # the split's use: quota_b <= cap_b = n_b, total = round(sum of quotas)
    caps = np.array([n for n, _ in bins], dtype=np.int64)
    quotas = caps * np.array([w for _, w in bins]) * share
    total = int(round(quotas.sum()))
    expected = _capped_largest_remainder_oracle(quotas, caps, total)
    assert np.array_equal(largest_remainder(quotas, total, caps=caps), expected)


def test_largest_remainder_hand_values():
    # fractions .6, .3, .6 -> the tie at .6 goes to the lower index
    assert largest_remainder([1.6, 2.3, 0.6], 5).tolist() == [2, 2, 1]
    # capped: the largest fraction is already at its cap, so the unit moves on
    assert largest_remainder([1.9, 1.5, 1.2], 4, caps=[1, 2, 2]).tolist() == [1, 2, 1]
    with pytest.raises(ValueError, match="within the caps"):
        largest_remainder([1.0, 1.0], 5, caps=[2, 2])


# ------------------------------------------------------- split structure


def test_split_partitions_and_sizes(beta_ratios):
    ratios = beta_ratios.copy()
    ratios[:100] = np.nan
    a = stratified_split(ratios, 1.0, 10, seed=9)

    assert a.tags.shape == ratios.shape
    assert set(np.unique(a.tags)) <= {TRAIN, VAL, TEST, EXCLUDED}
    assert np.array_equal(a.mask(EXCLUDED), np.isnan(ratios))

    valid = int((~np.isnan(ratios)).sum())
    pool = int(a.mask(TRAIN).sum() + a.mask(VAL).sum())
    assert pool == round(0.8 * valid)
    assert int(a.mask(VAL).sum()) == round(0.2 * pool)
    assert int(a.mask(TEST).sum()) == valid - pool


def test_split_gamma_zero_is_flat(beta_ratios):
    a = stratified_split(beta_ratios, 0.0, 10, seed=2)
    assert a.emd_train_test < 0.01

    n_b = np.bincount(bin_index(beta_ratios, 10), minlength=10)
    for count, share in zip(n_b, a.per_bin_train_share):
        if count >= 50:
            # integer quotas keep each populated bin within a node or two of 0.8
            assert abs(share - 0.8) <= 2.0 / count
        if count == 0:
            assert share == 0.0


def test_split_deterministic(beta_ratios):
    ratios = beta_ratios.copy()
    ratios[::97] = np.nan
    a = stratified_split(ratios, 2.0, 10, seed=7)
    b = stratified_split(ratios, 2.0, 10, seed=7)
    assert np.array_equal(a.tags, b.tags)
    assert a.emd_train_test == b.emd_train_test
    assert np.array_equal(a.per_bin_train_share, b.per_bin_train_share)


def test_split_two_bin_disjointness_grows_with_gamma():
    # 20/80 mass over two bins: the concentrated weight lands entirely on
    # each bin's own share, so train/test separation rises with gamma
    ratios = np.concatenate([np.full(2000, 0.1), np.full(8000, 0.9)])
    emds = [stratified_split(ratios, g, 2, seed=4).emd_train_test
            for g in (0.0, 1.0, 2.0, 3.0)]
    assert emds[0] == pytest.approx(0.0, abs=1e-12)
    assert all(lo < hi for lo, hi in zip(emds, emds[1:]))


def test_split_gamma_shifts_more_than_flat(beta_ratios):
    flat = stratified_split(beta_ratios, 0.0, 10, seed=2).emd_train_test
    skew = stratified_split(beta_ratios, 3.0, 10, seed=2).emd_train_test
    assert skew > flat


def _train_weights(ratios, gamma, bin_count):
    """Per-bin counts and train weights, as stratified_split derives them."""
    n_b = np.bincount(bin_index(ratios, bin_count), minlength=bin_count)
    pg = concentrate(HomophilyHistogram(bin_count, n_b / n_b.sum()), gamma).mass
    pg_bar = invert(HomophilyHistogram(bin_count, pg)).mass
    denom = pg + pg_bar
    return n_b, np.divide(pg, denom, out=np.zeros_like(pg), where=denom > 0)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0, 20.0, 60.0, 170.0])
def test_split_train_scale_meets_the_target_at_any_gamma(beta_ratios, gamma):
    """At gamma 20 and up the smallest weight is below 1e-60, which a fixed
    number of halvings over [0, 1 / min w] cannot resolve."""
    n_b, w = _train_weights(beta_ratios, gamma, 10)
    target = 0.8 * n_b.sum()
    c = _train_scale(n_b, w, target)
    quotas = n_b * np.minimum(1.0, c * w)
    assert abs(quotas.sum() - target) <= 1e-9 * target

    split = stratified_split(beta_ratios, gamma, 10, seed=3)
    pool = split.per_bin_train_share * n_b
    assert np.all(np.abs(pool - quotas) < 1.0 + 1e-9)
    # a bin with a larger weight never gets a smaller share, up to one unit
    # of rounding in each bin
    for a in range(10):
        for b in range(10):
            if n_b[a] and n_b[b] and w[a] > w[b]:
                assert (split.per_bin_train_share[a] + 1 / n_b[a]
                        >= split.per_bin_train_share[b] - 1 / n_b[b])


def test_split_train_scale_closed_form_segments():
    # two saturating bins with weights 1 and 0.5 and one with weight 0.1:
    # f(c) = 10 * min(1, c) + 10 * min(1, c / 2) + 100 * min(1, c / 10)
    n_b, w = np.array([10, 10, 100, 0]), np.array([1.0, 0.5, 0.1, 0.0])
    for target, c in [(5.0, 0.2), (25.0, 1.0), (32.5, 1.5), (70.0, 5.0), (120.0, 10.0)]:
        assert _train_scale(n_b, w, target) == pytest.approx(c, rel=1e-12)


def test_split_input_validation(beta_ratios):
    with pytest.raises(ValueError, match="nonempty"):
        stratified_split(np.array([]), 1.0, 10, seed=0)
    with pytest.raises(ValueError, match="defined ratio"):
        stratified_split(np.full(50, np.nan), 1.0, 10, seed=0)
    with pytest.raises(ValueError, match="train_frac"):
        stratified_split(beta_ratios, 1.0, 10, seed=0, train_frac=1.0)
    with pytest.raises(ValueError, match="val_frac"):
        stratified_split(beta_ratios, 1.0, 10, seed=0, val_frac=-0.1)
    # val_frac of the round(train_frac * n)-node training pool rounds up to all of it
    for n, train_frac, val_frac in [(100, 0.5, 0.999), (20, 0.1, 0.8)]:
        with pytest.raises(ValueError, match=f"val_frac {val_frac} moves all .* no training node"):
            stratified_split(np.random.default_rng(0).random(n), 0.0, 10, 0,
                             train_frac=train_frac, val_frac=val_frac)


@pytest.mark.parametrize("gamma, fragment", [(float("nan"), "got nan"),
                                             (float("inf"), "gamma inf is too large"),
                                             (1e6, "gamma 1000000.0 is too large")])
def test_split_names_a_gamma_it_cannot_use(beta_ratios, gamma, fragment):
    with pytest.raises(ValueError, match=fragment):
        stratified_split(beta_ratios, gamma, 10, seed=0)


# ------------------------------------------------------------ round trip


@given(st.lists(st.integers(0, 3), max_size=60))
@settings(max_examples=60, deadline=None)
def test_save_split_matches_row_writer(tmp_path_factory, tags):
    a = SplitAssignment(np.array(tags, dtype=np.int8), 0.0, 1, None, 0.0, np.zeros(1))
    root = tmp_path_factory.mktemp("write")
    save_split(a, root / "bulk.csv")
    reference_save_split(a, root / "rows.csv")
    assert (root / "bulk.csv").read_bytes() == (root / "rows.csv").read_bytes()


def test_split_save_load_roundtrip(tmp_path, beta_ratios):
    ratios = beta_ratios.copy()
    ratios[:10] = np.nan
    a = stratified_split(ratios, 1.5, 10, seed=11)
    path = tmp_path / "split.csv"
    save_split(a, path)
    assert np.array_equal(load_split(path), a.tags)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "node_id,split"
    assert lines[1] == "0,excluded"
    assert len(lines) == ratios.size + 1


def test_load_split_rejects_malformed(tmp_path):
    cases = [
        ("node,tag\n0,train\n", 1, "node_id,split"),
        ("node_id,split\n0,train\n2,test\n", 3, "consecutive"),
        ("node_id,split\n0,sideways\n", 2, "unknown split tag"),
        ("node_id,split\n0,train\n\n1 test\n", 4, "expected '<integer node id>,<tag>'"),
        ("node_id,split\n0,train,val\n", 2, "expected '<integer node id>,<tag>'"),
        ("node_id,split\nzero,train\n", 2, "expected '<integer node id>,<tag>'"),
    ]
    for i, (text, lineno, fragment) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_split(path)
        assert str(info.value).startswith(f"{path}: line {lineno}: ")
        assert fragment in str(info.value)


def test_split_diagnostics_refuse_a_non_finite_gamma_before_writing(tmp_path):
    # a sole full bin is kept whole even at gamma=inf, so the split is made
    a = stratified_split(np.full(20, 0.5), math.inf, 10, 0)
    assert a.gamma == math.inf
    path = tmp_path / "diag.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        save_split_diagnostics(a, path)
    assert not path.exists()


def test_split_diagnostics_payload(tmp_path, beta_ratios):
    a = stratified_split(beta_ratios, 2.0, 10, seed=3)
    diag = split_diagnostics(a)
    assert diag["gamma"] == 2.0
    assert diag["emd_train_test"] == a.emd_train_test
    assert diag["per_bin_train_share"] == [float(s) for s in a.per_bin_train_share]

    path = tmp_path / "diag.json"
    save_split_diagnostics(a, path)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == diag
    assert text.index('"emd_train_test"') < text.index('"gamma"')
