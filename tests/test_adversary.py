import itertools

import numpy as np
import pytest
from scipy.stats import chi2
from hypothesis import given, settings, strategies as st

import inexact.adversary as adversary
from inexact.adversary import (
    FullSymmetricGroup,
    GeneratedGroup,
    IdentityGroup,
    amgm_bound,
    average_pattern_probabilities,
    build_group,
    marginal_flip_probability,
    sample_energy_assignments,
)
from inexact.allocators import uniform_allocation
from inexact.bits import ResourceLimitError
from inexact.noise import energy_vector, flip_probability, pattern_probabilities

from conftest import brute_pattern_probabilities, brute_pattern_probability


def test_identity_group_basics():
    g = IdentityGroup(5)
    assert g.order() == 1
    assert g.elements().tolist() == [[0, 1, 2, 3, 4]]
    assert np.array_equal(g.sample(3, rng=1),
                          np.tile(np.arange(5), (3, 1)))


def test_symmetric_group_enumeration():
    g = FullSymmetricGroup(3)
    elements = g.elements()
    assert len(elements) == 6
    assert len({tuple(e) for e in elements}) == 6
    with pytest.raises(ResourceLimitError):
        FullSymmetricGroup(10).elements()
    # enumerated once per group, in itertools order, and shared read-only
    g = FullSymmetricGroup(5)
    first = g.elements()
    assert g.elements() is first and not first.flags.writeable
    assert first.tolist() == [list(p) for p in itertools.permutations(range(5))]
    with pytest.raises(ValueError):
        first[0, 0] = 1


def test_symmetric_sampling_is_uniform():
    g = FullSymmetricGroup(3)
    draws = g.sample(600_000, rng=5)
    keys = draws @ np.array([9, 3, 1])
    _, counts = np.unique(keys, return_counts=True)
    assert len(counts) == 6
    assert np.all(np.abs(counts / 600_000 - 1 / 6) < 0.003)


def test_generated_cycle_group():
    g = GeneratedGroup(3, [(1, 2, 0)])
    assert g.order() == 3
    rotations = {tuple(e) for e in g.elements()}
    assert rotations == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    draws = g.sample(90_000, rng=11)
    keys = draws @ np.array([9, 3, 1])
    _, counts = np.unique(keys, return_counts=True)
    assert len(counts) == 3
    assert np.all(np.abs(counts / 90_000 - 1 / 3) < 0.01)


def test_generated_transposition_group():
    g = GeneratedGroup(2, [(1, 0)])
    assert g.order() == 2
    assert GeneratedGroup(2, [np.array([1, 0])]).order() == 2  # numpy ints are integers


@pytest.mark.parametrize("generator", [(1.7, 0.2), (1.0, 0.0), ("1", "0"), (1, 0.5)])
def test_generated_group_refuses_non_integral_entries(generator):
    # an entry must be an integer, not something int() would truncate to one
    with pytest.raises(TypeError):
        GeneratedGroup(2, [generator])


def test_generated_group_closure_properties():
    for g in (GeneratedGroup(4, [(1, 2, 3, 0)]),
              GeneratedGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
              GeneratedGroup(3, [(1, 2, 0), (1, 0, 2)])):
        elements = {tuple(e) for e in g.elements()}
        assert tuple(range(g.n)) in elements
        for a in elements:
            inverse = tuple(np.argsort(a))
            assert inverse in elements
            for b in elements:
                composed = tuple(a[b[j]] for j in range(g.n))
                assert composed in elements


def test_generated_group_order_guard(monkeypatch):
    monkeypatch.setattr(adversary, "GENERATED_ORDER_LIMIT", 10)
    with pytest.raises(ResourceLimitError):
        GeneratedGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])  # all of S_4, order 24


def test_build_group_dispatch():
    assert isinstance(build_group("identity", 3), IdentityGroup)
    assert isinstance(build_group("symmetric", 3), FullSymmetricGroup)
    assert build_group("generated", 3, [(1, 2, 0)]).order() == 3
    with pytest.raises(ValueError):
        build_group("generated", 3)
    with pytest.raises(ValueError):
        build_group("dihedral", 3)
    for kind in ("identity", "symmetric"):
        with pytest.raises(ValueError, match=f"{kind} groups take no generators"):
            build_group(kind, 3, [(1, 0, 2)])


def test_marginal_flip_probability_examples():
    ev = energy_vector([1.0, 3.0])
    m = marginal_flip_probability(FullSymmetricGroup(2), ev)
    assert np.allclose(m, [0.3125, 0.3125], atol=0)

    uniform = energy_vector([2.0, 2.0, 2.0])
    for g in (IdentityGroup(3), FullSymmetricGroup(3), GeneratedGroup(3, [(1, 2, 0)])):
        assert np.allclose(marginal_flip_probability(g, uniform), 0.25, atol=0)

    assert marginal_flip_probability(IdentityGroup(2), ev)[0] == 0.5


def test_amgm_bound_examples():
    assert amgm_bound(energy_vector([1.0, 1.0])) == 0.5
    assert amgm_bound(energy_vector([0.0, 0.0])) == 1.0
    assert amgm_bound(energy_vector([3.0] * 5)) == 0.125  # budget n(n+1)/2 at n=5


def test_blindfolding_floor_battery():
    rng = np.random.default_rng(42)
    for n in range(2, 11):
        g = FullSymmetricGroup(n)
        for _ in range(100):
            ev = energy_vector(rng.random(n) * 4.0)
            marginal = marginal_flip_probability(g, ev)[0]
            assert marginal >= amgm_bound(ev) - 1e-12
        uniform = energy_vector(np.full(n, 1.7))
        assert marginal_flip_probability(g, uniform)[0] == pytest.approx(
            amgm_bound(uniform), abs=1e-12)
        lopsided = energy_vector(np.full(n, 1.7) + np.eye(n)[0] * 0.5)
        assert marginal_flip_probability(g, lopsided)[0] > amgm_bound(lopsided) + 1e-12


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_symmetric_marginal_is_position_independent(n, data):
    entries = data.draw(st.lists(st.floats(0, 6, allow_nan=False),
                                 min_size=n, max_size=n))
    m = marginal_flip_probability(FullSymmetricGroup(n), energy_vector(entries))
    assert np.ptp(m) == 0.0
    assert m[0] == pytest.approx(float(np.mean(flip_probability(np.array(entries)))),
                                 abs=1e-15)


def test_marginal_of_generated_group_averages_orbit():
    ev = energy_vector([1.0, 2.0, 4.0])
    g = GeneratedGroup(3, [(1, 2, 0)])
    expected = np.mean([flip_probability(ev.entries[np.array(s)]) for s in g.elements()],
                       axis=0)
    assert np.allclose(marginal_flip_probability(g, ev), expected, atol=1e-15)


def test_identity_average_patterns_reduce_to_the_channel():
    ev = energy_vector([0.3, 1.1, 2.6])
    avg = average_pattern_probabilities(IdentityGroup(3), ev)
    assert np.allclose(avg, pattern_probabilities(ev), atol=0)
    for d in range(8):
        assert avg[d] == pytest.approx(brute_pattern_probability(ev.entries, d),
                                       abs=1e-15)


@given(st.integers(2, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_symmetric_average_patterns_match_enumeration(n, data):
    entries = data.draw(st.lists(st.floats(0, 5, allow_nan=False),
                                 min_size=n, max_size=n))
    ev = energy_vector(entries)
    g = FullSymmetricGroup(n)
    closed = average_pattern_probabilities(g, ev)
    brute = np.zeros(1 << n)
    for sigma in g.elements():
        for d in range(1 << n):
            brute[d] += brute_pattern_probability(ev.entries[np.asarray(sigma)], d)
    brute /= g.order()
    assert np.allclose(closed, brute, atol=1e-13)
    assert abs(closed.sum() - 1.0) < 1e-12


def test_generated_average_patterns_match_enumeration():
    ev = energy_vector([0.5, 1.5, 3.0])
    g = GeneratedGroup(3, [(1, 2, 0)])
    avg = average_pattern_probabilities(g, ev)
    brute = np.zeros(8)
    for sigma in g.elements():
        for d in range(8):
            brute[d] += brute_pattern_probability(ev.entries[np.asarray(sigma)], d)
    brute /= 3
    assert np.allclose(avg, brute, atol=1e-15)


def _cycle(n: int) -> tuple:
    return tuple((j + 1) % n for j in range(n))


def _swap(n: int, a: int, b: int) -> tuple:
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return tuple(perm)


@pytest.mark.parametrize("n, generators", [
    (3, [_cycle(3)]),
    (5, [_swap(5, 0, 4)]),
    (4, [_swap(4, 0, 1), _cycle(4)]),       # all of S_4, 24 elements
    (9, [_cycle(9)]),                       # past the 8-bit table
    (12, [_swap(12, 2, 11), _swap(12, 0, 5)]),
    (16, [_cycle(16)]),                     # 16 elements, several batches
])
def test_generated_average_is_the_per_element_loop(n, generators):
    # batched rows of q[elements], summed in element order, bit for bit
    g = GeneratedGroup(n, generators)
    rng = np.random.default_rng(n)
    entries = rng.random(n) * 4.0
    entries[rng.integers(n)] = 0.0
    ev = energy_vector(entries)
    total = np.zeros(1 << n)
    for sigma in g.elements():
        total += brute_pattern_probabilities(energy_vector(ev.entries[sigma]))
    assert np.array_equal(average_pattern_probabilities(g, ev), total / g.order())


def test_uniform_vector_is_group_invariant():
    ev = energy_vector([1.5] * 4)
    reference = average_pattern_probabilities(IdentityGroup(4), ev)
    for g in (FullSymmetricGroup(4), GeneratedGroup(4, [(1, 2, 3, 0)])):
        assert np.allclose(average_pattern_probabilities(g, ev), reference, atol=1e-14)


def test_sample_energy_assignments():
    ev = energy_vector([1.0, 2.0, 4.0])
    rows = sample_energy_assignments(FullSymmetricGroup(3), ev, 2000, rng=3)
    assert rows.shape == (2000, 3)
    assert np.allclose(np.sort(rows, axis=1), np.array([1.0, 2.0, 4.0]))
    again = sample_energy_assignments(FullSymmetricGroup(3), ev, 2000, rng=3)
    assert np.array_equal(rows, again)
    with pytest.raises(ValueError):
        sample_energy_assignments(FullSymmetricGroup(4), ev, 5, rng=0)


def test_symmetric_flip_patterns_follow_the_exact_law():
    # e = 0 flips its bit always, so pattern 0 has probability 0 and 31
    # cells remain; seeded, so the statistic is fixed
    ev = energy_vector([0.0, 0.4, 1.3, 2.0, 3.7])
    g = FullSymmetricGroup(5)
    draws = 400_000
    expected = average_pattern_probabilities(g, ev) * draws
    patterns = g.sample_patterns(flip_probability(ev), draws, np.random.default_rng(21))
    observed = np.bincount(patterns, minlength=32)
    assert observed.size == 32 and observed.sum() == draws
    live = expected > 0
    assert live.sum() == 31 and observed[~live].sum() == 0
    stat = (((observed - expected) ** 2)[live] / expected[live]).sum()
    assert chi2.sf(stat, live.sum() - 1) > 1e-3


@pytest.mark.parametrize("entries", [
    [0.0, 1.0, 0.0, 2.0, 0.5],        # q = 1: counts 0 and 1 have weight 0
    [1100.0, 1.0, 0.0, 1100.0, 0.5],  # q = 0 twice: counts 4 and 5 too
    # n = 14, the unranking low width: the gather alone
    [0.0] + [0.05] * 13,              # q = 1: count 0 excluded, count 14 drawn
    [1100.0] + [4.0] * 13,            # q = 0: count 0 drawn, count 14 excluded
    [0.0, 1100.0] + [0.5] * 12,       # both: counts 0 and 14 excluded
    # n = 16, above it: a walk over the two high bits, then the gather
    [0.0] + [0.05] * 15,
    [1100.0] + [4.0] * 15,
    [0.0, 1100.0] + [0.5] * 14,
])
def test_symmetric_sampler_never_draws_impossible_patterns(entries):
    ev = energy_vector(entries)
    n = ev.n
    g = FullSymmetricGroup(n)
    possible = average_pattern_probabilities(g, ev) > 0
    assert not possible.all()
    patterns = g.sample_patterns(flip_probability(ev), 200_000, np.random.default_rng(4))
    assert possible[patterns].all()
    # the extreme counts are drawn exactly when they can be
    assert (patterns == 0).any() == possible[0]
    assert (patterns == (1 << n) - 1).any() == possible[-1]


def _guide_cases():
    """(name, q) flip vectors whose count laws stress the guide."""
    flat = flip_probability(uniform_allocation(20 * 21 / 4, 20))
    return [
        # q of exactly 0 and 1: counts 0, 1 and 6 have weight 0
        ("zero-weight", np.array([0.0, 1.0, 0.3, 0.0, 0.7, 0.5])),
        # every breakpoint 1/4, 3/4 on a bucket edge
        ("edge", np.array([0.5, 0.5])),
        # the breakpoints of counts 0, 1 and 2 inside the top bucket
        ("top-bucket", np.full(20, 1e-5)),
        # the flat vector sampled mobs draws its blindfolded side from
        ("flat", flat),
        ("mixed", np.exp2(-np.linspace(0.0, 9.0, 17))),
    ]


@pytest.mark.parametrize("name, q", _guide_cases(), ids=[c[0] for c in _guide_cases()])
def test_guided_counts_are_the_searched_counts(name, q):
    cdf, first, split = guide = adversary._count_guide(q)
    buckets = adversary._GUIDE_BUCKETS
    weights = adversary._mismatch_count_weights(q)
    if name == "zero-weight":
        assert (weights == 0.0).sum() == 3
    if name == "top-bucket":
        inside = cdf[cdf < 1.0]
        assert inside.size == 3 and (inside >= 1.0 - 1.0 / buckets).all()
    # a breakpoint on a bucket edge starts its bucket: none is split
    on_edges = name == "edge"
    assert ((cdf * buckets) % 1.0 == 0.0).all() == on_edges
    assert split.any() != on_edges and not split.all()
    # every breakpoint, a step each side of it, every bucket edge and a
    # step below it, the ends of [0, 1), then seeded uniforms
    top = np.nextafter(1.0, 0.0)
    edges = np.arange(buckets) / buckets
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), edges,
                        np.nextafter(edges, 0.0), [0.0, top],
                        np.random.default_rng(3).random(200_000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    want = np.searchsorted(cdf, u, side="right")
    got = adversary._guided_counts(guide, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # a count of weight 0 is never drawn
    assert (weights[got] > 0.0).all()


@pytest.mark.parametrize("group", [
    IdentityGroup(13),
    FullSymmetricGroup(12),
    FullSymmetricGroup(16),
    GeneratedGroup(13, [[(j + 1) % 13 for j in range(13)]]),
], ids=["identity-13", "symmetric-12", "symmetric-16", "rotations-13"])
def test_draws_do_not_depend_on_the_chunk(monkeypatch, group):
    # the rng calls take the whole batch; only the arithmetic after them is
    # chunked, so a chunk of 7 trials draws the same patterns as the default
    count = 3 * adversary._DRAW_CHUNK + 5
    q = np.exp2(-np.resize([0.0, 0.4, 1.3, 2.0, 3.7, 0.9], group.n))
    default = group.sample_patterns(q, count, np.random.default_rng(9))
    monkeypatch.setattr(adversary, "_DRAW_CHUNK", 7)
    small = group.sample_patterns(q, count, np.random.default_rng(9))
    assert np.array_equal(small, default)


def _chi_square_p_value(group, ev):
    """The chi-square p-value of 400,000 seeded draws of group's sampler
    against the exact law; the possible cells expecting fewer than 5 draws
    are pooled into one.  Seeded, so the statistic is fixed."""
    draws = 400_000
    expected = average_pattern_probabilities(group, ev) * draws
    patterns = group.sample_patterns(flip_probability(ev), draws, np.random.default_rng(21))
    observed = np.bincount(patterns, minlength=expected.size)
    assert observed.size == expected.size and observed.sum() == draws
    assert observed[expected == 0].sum() == 0
    big = expected >= 5
    pooled = (expected > 0) & ~big
    assert big.sum() >= expected.size // 8
    observed = np.append(observed[big], observed[pooled].sum())
    expected = np.append(expected[big], expected[pooled].sum())
    live = expected > 0  # the pooled cell is empty when no possible cell is small
    stat = (((observed - expected) ** 2)[live] / expected[live]).sum()
    return chi2.sf(stat, live.sum() - 1)


LAW_ENTRIES = [
    [0.0, 0.4, 1.3, 2.0, 3.7],
    # n = 13: a block of 8 bits and a short one of 5
    [0.0, 0.4, 1.3, 2.0, 0.7, 0.1, 1.6, 0.9, 0.3, 1.1, 0.0, 2.2, 0.5],
]

# per width: a bit of energy 0 (q = 1) and bits of energy 1100 (q = 0)
IMPOSSIBLE_ENTRIES = [
    [0.0, 1.0, 1100.0, 2.0, 0.5],
    # n = 13: an impossible bit in each block, the last bit of the short one
    [1100.0, 0.3, 0.0, 1.0, 2.0, 0.5, 1.5, 0.7, 0.0, 1.2, 0.4, 0.9, 1100.0],
]


@pytest.mark.parametrize("entries", LAW_ENTRIES)
def test_identity_flip_patterns_follow_the_exact_law(entries):
    ev = energy_vector(entries)
    assert _chi_square_p_value(IdentityGroup(ev.n), ev) > 1e-3


def _never_draws_impossible_patterns(group, ev):
    possible = average_pattern_probabilities(group, ev) > 0
    assert not possible.all()
    patterns = group.sample_patterns(flip_probability(ev), 200_000, np.random.default_rng(4))
    assert possible[patterns].all()
    # every pattern the law allows at n = 5 is drawn
    if ev.n == 5:
        assert np.unique(patterns).size == possible.sum()


@pytest.mark.parametrize("entries", IMPOSSIBLE_ENTRIES)
def test_identity_sampler_never_draws_impossible_patterns(entries):
    ev = energy_vector(entries)
    _never_draws_impossible_patterns(IdentityGroup(ev.n), ev)


def _rotations(n):
    return GeneratedGroup(n, [[(j + 1) % n for j in range(n)]])


# the rotation groups need 5 * 2**5 and 13 * (2**8 + 2**5) table entries,
# within the cap; a cap of 0 puts them on the coin path
@pytest.mark.parametrize("coins", [False, True], ids=["tables", "coins"])
@pytest.mark.parametrize("entries", LAW_ENTRIES)
def test_generated_flip_patterns_follow_the_exact_law(monkeypatch, entries, coins):
    if coins:
        monkeypatch.setattr(adversary, "ALIAS_ENTRIES_LIMIT", 0)
    ev = energy_vector(entries)
    assert _chi_square_p_value(_rotations(ev.n), ev) > 1e-3


@pytest.mark.parametrize("coins", [False, True], ids=["tables", "coins"])
@pytest.mark.parametrize("entries", IMPOSSIBLE_ENTRIES)
def test_generated_sampler_never_draws_impossible_patterns(monkeypatch, entries, coins):
    if coins:
        monkeypatch.setattr(adversary, "ALIAS_ENTRIES_LIMIT", 0)
    ev = energy_vector(entries)
    _never_draws_impossible_patterns(_rotations(ev.n), ev)


@pytest.mark.parametrize("width", [1, 3, 8])
def test_alias_tables_carry_their_block_laws(width):
    # slot k keeps prob[k] of its 2**-width share and hands the rest to alias[k]
    rng = np.random.default_rng(width)
    for q in [rng.random(width), np.exp2(-rng.uniform(0.0, 12.0, width)),
              np.r_[1.0, np.zeros(width - 1)], np.full(width, 0.5)]:
        law = adversary._flip_patterns(q)
        prob, alias = adversary._alias_table(law)
        assert prob.shape == alias.shape == law.shape
        assert ((prob >= 0.0) & (prob <= 1.0)).all()
        carried = prob / law.size
        np.add.at(carried, alias, (1.0 - prob) / law.size)
        assert np.abs(carried - law).max() <= 1e-15
        # an impossible pattern keeps no part of its slot and is no alias
        assert (prob[law == 0.0] == 0.0).all()
        assert (law[alias[prob < 1.0]] > 0.0).all()


def test_dimension_mismatch_is_rejected():
    with pytest.raises(ValueError):
        marginal_flip_probability(FullSymmetricGroup(3), energy_vector([1.0, 2.0]))
    with pytest.raises(ValueError):
        average_pattern_probabilities(IdentityGroup(3), energy_vector([1.0]))
