"""Largest-remainder apportionment and homophily-stratified train/val/test splits."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homshift import (
    EXCLUDED,
    TEST,
    TRAIN,
    VAL,
    SplitAssignment,
    bin_index,
    load_split,
    local_homophily_all,
    save_split,
    save_split_diagnostics,
    split_diagnostics,
    stratified_split,
)
from homshift.splits import largest_remainder

from conftest import reference_largest_remainder, reference_save_split


@pytest.fixture(scope="module")
def beta_ratios():
    return np.random.default_rng(5).beta(10.0, 3.0, size=10_000)


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


def _outcome(apportion, *args):
    """An apportioner's result as a list, or its ValueError's message."""
    try:
        return apportion(*args).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=30.0),
                          st.integers(min_value=0, max_value=25)), min_size=1, max_size=10),
       st.booleans(), st.integers(min_value=0, max_value=300))
def test_largest_remainder_matches_the_index_loop(cells, capped, total):
    """One array step per pass gives the loop's floors, or its error, with or
    without caps and whether units are handed out or taken back."""
    quotas = [q for q, _ in cells]
    caps = [c for _, c in cells] if capped else None
    assert (_outcome(largest_remainder, quotas, total, caps)
            == _outcome(reference_largest_remainder, quotas, total, caps))


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
    assert np.array_equal(a.tags == EXCLUDED, np.isnan(ratios))

    valid = int((~np.isnan(ratios)).sum())
    pool = int((a.tags == TRAIN).sum() + (a.tags == VAL).sum())
    assert pool == round(0.8 * valid)
    assert int((a.tags == VAL).sum()) == round(0.2 * pool)
    assert int((a.tags == TEST).sum()) == valid - pool


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
    # 20/80 mass over two bins: the extreme pool is the 8000-node bin alone,
    # so bin 0's pool quota is 1600 * (1 - x) and the EMD is exactly x / 2
    ratios = np.concatenate([np.full(2000, 0.1), np.full(8000, 0.9)])
    gammas = (0.0, 1.0, 2.0, 3.0)
    emds = [stratified_split(ratios, g, 2, seed=4).emd_train_test for g in gammas]
    assert emds == pytest.approx([(1 - 2.0 ** -g) / 2 for g in gammas], abs=1e-12)
    assert emds[0] == pytest.approx(0.0, abs=1e-12)
    assert all(lo < hi for lo, hi in zip(emds, emds[1:]))


def test_split_gamma_shifts_more_than_flat(beta_ratios):
    flat = stratified_split(beta_ratios, 0.0, 10, seed=2).emd_train_test
    skew = stratified_split(beta_ratios, 3.0, 10, seed=2).emd_train_test
    assert skew > flat


def _extreme_pool(n_b, target):
    """Fill bins whole in descending count order, ties to the lower index,
    the last one partly, until `target` nodes are in the pool."""
    pool = np.zeros(n_b.size)
    left = target
    for b in sorted(range(n_b.size), key=lambda b: (-n_b[b], b)):
        pool[b] = min(n_b[b], left)
        left -= pool[b]
    return pool


SHIFT_GAMMAS = (0.0, 0.5, 1.0, 2.0, 3.0, 10.0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(math.nan)),
                min_size=2, max_size=300),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([0.3, 0.5, 0.8]))
def test_split_pool_moves_linearly_toward_the_extreme_pool(ratios, bin_count, train_frac):
    ratios = np.array(ratios)
    valid = ~np.isnan(ratios)
    n, pool = int(valid.sum()), int(round(train_frac * valid.sum()))
    assume(0 < pool < n)
    n_b = np.bincount(bin_index(ratios[valid], bin_count), minlength=bin_count)
    extreme = _extreme_pool(n_b, train_frac * n)

    emds = []
    for gamma in SHIFT_GAMMAS:
        a = stratified_split(ratios, gamma, bin_count, seed=1, train_frac=train_frac)
        in_pool = (a.tags == TRAIN) | (a.tags == VAL)
        counts = np.bincount(bin_index(ratios[in_pool], bin_count), minlength=bin_count)
        assert counts.sum() == pool
        assert np.all(counts <= n_b)
        x = 1 - 2.0 ** -gamma
        quotas = (1 - x) * train_frac * n_b + x * extreme
        assert np.all(np.abs(counts - quotas) <= 1 + 1e-9)
        emds.append(a.emd_train_test)

    # EMD = N / (B * P * T) * sum_k |C_k - (P / N) * N_k| over the cumulative
    # pool counts C_k and bin counts N_k. Unrounded, each term is x times its
    # extreme split's term. Rounding moves C_k by under min(k + 1, B - k)
    # nodes, and P / N in place of train_frac moves a term by half a node
    scale = n / (bin_count * pool * (n - pool))
    slack = scale * sum(min(k + 1, bin_count - k) + 0.5 for k in range(bin_count)) + 1e-12
    cum_n = np.cumsum(n_b)
    linear = scale * np.abs(np.cumsum(extreme) - train_frac * cum_n).sum()
    for gamma, got in zip(SHIFT_GAMMAS, emds):
        assert abs(got - (1 - 2.0 ** -gamma) * linear) <= slack
    assert all(hi >= lo - 2 * slack for lo, hi in zip(emds, emds[1:]))


def test_split_gamma_zero_csv_is_pinned(tmp_path, beta_ratios):
    ratios = beta_ratios.copy()
    ratios[::97] = np.nan
    path = tmp_path / "split.csv"
    save_split(stratified_split(ratios, 0.0, 10, seed=7), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "079ffd90dbf7fa9c6be7540af70f9bc245e2b180edf17972b9e64b0cc77a5d84")


def test_split_gamma_zero_diagnostics_are_pinned(tmp_path, beta_ratios):
    ratios = beta_ratios.copy()
    ratios[::97] = np.nan
    path = tmp_path / "diag.json"
    save_split_diagnostics(stratified_split(ratios, 0.0, 10, seed=7), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "c087352911e962973ee3f13b984c8f7a2172a21659bf6e4fabaf3b3cfc46c36f")


def test_split_gamma_zero_on_the_sbm_fixture_is_pinned(tmp_path, sbm_pair):
    a = stratified_split(local_homophily_all(*sbm_pair), 0.0, 10, seed=3)
    save_split(a, tmp_path / "split.csv")
    save_split_diagnostics(a, tmp_path / "diag.json")
    assert (hashlib.sha256((tmp_path / "split.csv").read_bytes()).hexdigest()
            == "f1a29a9a9373097cae77207d3ff1e60fe138cfc337cae044e62b11ced41c5832")
    assert (hashlib.sha256((tmp_path / "diag.json").read_bytes()).hexdigest()
            == "4e36545a51e421742ed16058a0705f49b236945e9774ed383e894379786e1b0b")


# bin counts [3, 5, 5, 0, 2] over five bins; the pool holds round(0.8 * 15) = 12
HAND_RATIOS = np.repeat([0.1, 0.3, 0.5, 0.9], [3, 5, 5, 2])


def test_split_extreme_pool_hand_values():
    # bins 1 and 2 tie at 5 and fill first, lower index first; bin 0 takes
    # the last 2 units partly; bin 4 and the empty bin 3 take none
    a = stratified_split(HAND_RATIOS, math.inf, 5, seed=0)
    assert np.rint(a.per_bin_train_share * [3, 5, 5, 0, 2]).tolist() == [2, 5, 5, 0, 0]


def test_split_gamma_one_is_halfway_hand_values():
    # x = 1/2: quotas [2.2, 4.5, 4.5, 0, 0.8] floor to 10; the two leftover
    # units go to bin 4 (0.8) and, of the tied halves, to the lower bin 1
    a = stratified_split(HAND_RATIOS, 1.0, 5, seed=0)
    assert np.rint(a.per_bin_train_share * [3, 5, 5, 0, 2]).tolist() == [2, 5, 4, 0, 1]


@pytest.mark.parametrize("train_frac, val_frac", [(0.8, 0.2), (0.5, 0.1)])
def test_split_sizes_do_not_depend_on_gamma(beta_ratios, train_frac, val_frac):
    sizes = set()
    for gamma in SHIFT_GAMMAS:
        a = stratified_split(beta_ratios, gamma, 10, seed=6,
                             train_frac=train_frac, val_frac=val_frac)
        sizes.add(tuple(int((a.tags == tag).sum()) for tag in (TRAIN, VAL, TEST)))
    pool = round(train_frac * beta_ratios.size)
    val = round(val_frac * pool)
    assert sizes == {(pool - val, val, beta_ratios.size - pool)}


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


@pytest.mark.parametrize("gamma, fragment", [(float("nan"), "got nan"), (-0.5, "got -0.5")])
def test_split_names_a_gamma_it_cannot_use(beta_ratios, gamma, fragment):
    with pytest.raises(ValueError, match=f"gamma must be non-negative, {fragment}"):
        stratified_split(beta_ratios, gamma, 10, seed=0)


@pytest.mark.parametrize("gamma", [float("inf"), 1e6])
def test_split_at_a_huge_gamma_is_the_extreme_split(beta_ratios, gamma):
    # 2**-gamma is 0 in floating point, so x = 1
    n_b = np.bincount(bin_index(beta_ratios, 10), minlength=10)
    a = stratified_split(beta_ratios, gamma, 10, seed=0)
    assert np.allclose(a.per_bin_train_share * n_b, _extreme_pool(n_b, 8000.0), atol=1e-9)


# ------------------------------------------------------------ round trip


@given(st.lists(st.integers(0, 3), max_size=60))
@settings(max_examples=60, deadline=None)
def test_save_split_matches_row_writer(tmp_path_factory, tags):
    a = SplitAssignment(np.array(tags, dtype=np.int8), 0.0, 0.0, np.zeros(1))
    root = tmp_path_factory.mktemp("write")
    save_split(a, root / "bulk.csv")
    reference_save_split(a, root / "rows.csv")
    assert (root / "bulk.csv").read_bytes() == (root / "rows.csv").read_bytes()


def test_split_assignment_keeps_its_own_arrays():
    tags, share = np.array([0, 2, 3, 1], dtype=np.int8), np.array([0.5, 0.0])
    a = SplitAssignment(tags, 0.0, 0.0, share)
    assert a.tags is not tags and a.per_bin_train_share is not share
    tags[0], share[0] = 2, 1.0
    assert tags.flags.writeable and share.flags.writeable
    assert a.tags.tolist() == [0, 2, 3, 1] and a.per_bin_train_share.tolist() == [0.5, 0.0]
    assert not a.tags.flags.writeable and not a.per_bin_train_share.flags.writeable
    assert a.tags.dtype == np.int8 and a.per_bin_train_share.dtype == np.float64


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
    # gamma=inf is the extreme split, so the split is made
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
