import hashlib
import random
from fractions import Fraction

import pytest

from dpcache.oracle import (
    ReferenceCache,
    ReferenceMultiCache,
    exhaustive_check,
    has_metric_tie,
)


def replay(cache, keys):
    return [cache.fetch(key) for key in keys]


def random_trace(seed, length, universe):
    rng = random.Random(seed)
    return [rng.randint(1, universe) for _ in range(length)]


class TestReferencePolicies:
    def test_full_lru_example(self):
        cache = ReferenceCache.full("lru", 2)
        assert replay(cache, [1, 2, 1, 3])[-1] == (False, 2)

    def test_kway_placement_contention(self):
        cache = ReferenceCache("lru", k=2, d=2)
        # keys 1 and 3 share set 1; key 2 lives alone in set 0
        replay(cache, [1, 3, 2])
        assert cache.sets[1].keys() >= {1, 3}
        assert list(cache.sets[0]) == [2]

    def test_full_lfu_recency_tiebreak(self):
        cache = ReferenceCache.full("lfu", 2)
        assert replay(cache, [1, 1, 2, 3])[-1] == (False, 2)
        assert cache.tie_seen is False  # freq 1 vs freq 2: unique minimum

    def test_lfu_tie_latches(self):
        cache = ReferenceCache.full("lfu", 2)
        replay(cache, [1, 2, 3])
        assert cache.tie_seen is True

    def test_fifo_ignores_hits(self):
        cache = ReferenceCache.full("fifo", 2)
        assert replay(cache, [1, 2, 1, 3]) == [
            (False, None), (False, None), (True, None), (False, 1)]

    def test_hyperbolic_exact_priorities(self):
        cache = ReferenceCache.full("hyperbolic", 2)
        results = replay(cache, [1, 1, 1, 2, 3])
        # at the eviction p(1) = 3/4 and p(2) = 1/1: key 1 goes
        assert results[-1] == (False, 1)
        assert Fraction(3, 4) < Fraction(1, 1)

    def test_hyperbolic_tie_latches(self):
        cache = ReferenceCache.full("hyperbolic", 2)
        # at the next fetch (tick 6): p(8) = 1/(6-4) = 2/(6-2) = p(9)
        cache.seq = 5
        cache.sets[0] = {8: [1, 4], 9: [2, 2]}
        cache.fetch(10)
        assert cache.tie_seen is True

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_full_equals_kway_capacity_by_one_set(self, policy):
        full = ReferenceCache.full(policy, 6)
        kway = ReferenceCache(policy, k=6, d=1)
        keys = random_trace(21, 2500, universe=25)
        assert replay(full, keys) == replay(kway, keys)

    def test_lru_inclusion_property(self):
        # classic stack property: every hit at capacity C is a hit at C' > C
        keys = random_trace(31, 4000, universe=60)
        streams = {}
        for capacity in [4, 8, 16, 32]:
            cache = ReferenceCache.full("lru", capacity)
            streams[capacity] = [cache.fetch(key)[0] for key in keys]
        for small, big in [(4, 8), (8, 16), (16, 32)]:
            assert all(not a or b for a, b in zip(streams[small], streams[big]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ReferenceCache("lru", 2, 1).fetch(0)
        with pytest.raises(ValueError):
            ReferenceCache("mru", 2, 1)

    def test_hyperbolic_victim_matches_fraction_minimum(self):
        # the cross-multiplied scan must pick the same victim as a Fraction
        # ranking with first-inserted tie-break
        rng = random.Random(77)
        for _ in range(200):
            now = rng.randint(10, 60)
            cache = ReferenceCache.full("hyperbolic", 5)
            cache.seq = now
            state = {}
            for key in range(1, 6):
                state[key] = [rng.randint(1, 9), rng.randint(1, now - 1)]
            cache.sets[0] = dict(state)
            got = cache.victim(0)
            ranked = min(state, key=lambda x: Fraction(state[x][0], now - state[x][1]))
            assert Fraction(state[got][0], now - state[got][1]) == \
                Fraction(state[ranked][0], now - state[ranked][1])


class TestReferenceMulti:
    def test_batch_halving(self):
        # capacity 2: the epoch is 16 x 2 = 32 accesses
        cache = ReferenceMultiCache("fifo", "lru", 1, 1, 1, 1, key_universe=50)
        assert cache.aging_window == 32
        for _ in range(31):
            cache.fetch(7)
        assert cache.counters[7] == 31
        cache.fetch(7)  # 32nd access triggers the halve-all
        assert cache.counters[7] == 16

    def test_live_keys_disjoint_regions(self):
        cache = ReferenceMultiCache("fifo", "lru", 2, 2, 2, 2, key_universe=60)
        for key in random_trace(17, 2000, 59):
            cache.fetch(key)
            assert not cache.window.live_keys() & cache.main.live_keys()


class TestExhaustiveCheck:
    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    def test_exact_policies_never_diverge(self, policy):
        report = exhaustive_check(policy, k=2, d=1, alphabet_size=3, max_len=6)
        assert report.divergent_sequences == 0
        assert report.passed
        assert report.sequences_checked == sum(3**j for j in range(1, 7))

    @pytest.mark.parametrize("policy", ["lfu", "hyperbolic"])
    def test_approximate_policies_diverge_only_on_ties(self, policy):
        report = exhaustive_check(policy, k=2, d=1, alphabet_size=3, max_len=6)
        assert report.untagged_divergences == 0
        assert report.passed

    def test_divergence_reporting_fields(self):
        report = exhaustive_check("lfu", k=2, d=1, alphabet_size=4, max_len=6)
        if report.divergent_sequences:
            assert report.first_divergence is not None
            assert "engine set" in report.first_divergence_dump
        assert "lfu" in report.summary()

    def test_enumeration_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_check("lru", alphabet_size=50, max_len=8)

    def test_classifier_flags_plain_tie(self):
        # three cold keys into a 2-way set: eviction among equal counts
        assert has_metric_tie("lfu", 2, 1, (1, 2, 3))


POLICIES = ["fifo", "lru", "lfu", "hyperbolic"]
GOLDEN_GEOMETRIES = [(1, 1), (2, 1), (4, 4), (8, 16)]
GOLDEN_KEYS = random_trace(4242, 5000, universe=60)
GOLDEN_MULTI = dict(k_w=2, d_w=2, k_m=4, d_m=4, key_universe=61)


def stream_digest(cache, keys):
    """sha256 of the (hit, evicted) stream, one ``hit:evicted;`` record per event."""
    digest = hashlib.sha256()
    for key in keys:
        hit, evicted = cache.fetch(key)
        digest.update(f"{int(hit)}:{evicted or 0};".encode())
    return digest.hexdigest()


def golden_single(policy, k, d):
    cache = ReferenceCache(policy, k, d)
    return stream_digest(cache, GOLDEN_KEYS), cache.tie_seen


def golden_multi(window_policy, main_policy, use_filter):
    cache = ReferenceMultiCache(window_policy, main_policy, use_filter=use_filter,
                                **GOLDEN_MULTI)
    return (stream_digest(cache, GOLDEN_KEYS),
            cache.window.tie_seen, cache.main.tie_seen)


# Digests of the reference streams as the per-policy classes must keep them.
# (8, 16) never fills a set over 60 keys, so it pins cold misses only.
GOLDEN_SINGLE = {
    ("fifo", 1, 1): ("f1fb6b079e6c81b9e240bc5e585fcc34b4701f7ed51d436c116e14134af25b2d", False),
    ("fifo", 2, 1): ("72a57d46d094d44b51e5ae1b412ba2d380b034ecd4473234bb5873e2c6f0b869", False),
    ("fifo", 4, 4): ("0ca0af0899b5250a9b9f6ef79f97de77be96a69748b57f4539285f1a1f961d70", False),
    ("fifo", 8, 16): ("31a0017f54721b92eff26e8d1812a51aeb82af2c28f0119fe7f60765385a5211", False),
    ("lru", 1, 1): ("f1fb6b079e6c81b9e240bc5e585fcc34b4701f7ed51d436c116e14134af25b2d", False),
    ("lru", 2, 1): ("74ebeba6bc8ddeda4d6e4ba5e50a5a94fc12e07fc425415955e23c76d6a8241f", False),
    ("lru", 4, 4): ("b4ee2e8af0ecce7452df4cb511720b51604cd363a2529157f4092ce0f2fe7077", False),
    ("lru", 8, 16): ("31a0017f54721b92eff26e8d1812a51aeb82af2c28f0119fe7f60765385a5211", False),
    ("lfu", 1, 1): ("f1fb6b079e6c81b9e240bc5e585fcc34b4701f7ed51d436c116e14134af25b2d", False),
    ("lfu", 2, 1): ("a21c543142b7a72eb67e236931986a8b5030dd5fad1310ee3affc324f60cd58b", True),
    ("lfu", 4, 4): ("e21e8307349ce5e7cab9718db90ef564a0d96a5591fee2b6b428a48fa0f5c19f", True),
    ("lfu", 8, 16): ("31a0017f54721b92eff26e8d1812a51aeb82af2c28f0119fe7f60765385a5211", False),
    ("hyperbolic", 1, 1): ("f1fb6b079e6c81b9e240bc5e585fcc34b4701f7ed51d436c116e14134af25b2d", False),
    ("hyperbolic", 2, 1): ("8ac7c1ed4724c0c6e495d42e6de7335d50ffafc00b0dc32bc5c27a697126491c", False),
    ("hyperbolic", 4, 4): ("99cc651404140685015a7ed3df904a0f2f9d28aa5a04164c54a6a09299d2706e", True),
    ("hyperbolic", 8, 16): ("31a0017f54721b92eff26e8d1812a51aeb82af2c28f0119fe7f60765385a5211", False),
}
GOLDEN_PAIRS = {
    ("fifo", "fifo", True): ("41e85286721ae256a18cb71567986d2baa7d9259101d686b72e7a9c5d72e1341", False, False),
    ("fifo", "fifo", False): ("d6bb21ff4ead294d9f82a5650a3e22b6cab5a0b10df8ddb9d649296ebd930047", False, False),
    ("fifo", "lru", True): ("84b074a4c8ad4040adcf1f9013603b10ca2898a6a3478bf5e9b54e43aaf562ad", False, False),
    ("fifo", "lru", False): ("1b7dee8f7eca23ae2ef5b6be6c6c1ed9d3a61a747a0fc1f3af5432f98d410774", False, False),
    ("fifo", "lfu", True): ("c6f19254f3a00b29250ccaf06c66b08a81bcadbd2fb0b793f92cfd79272f6383", False, True),
    ("fifo", "lfu", False): ("d81c48b5356b39947005e7947a140ca4bde8ac76601728a5f4629ec7e780bdeb", False, True),
    ("fifo", "hyperbolic", True): ("0ae303381375309c9e37877726911cdd7895c842ae370dee66eaa50960a12382", False, True),
    ("fifo", "hyperbolic", False): ("21b1e0b94407a5d9cee10860aca6b04ce09c1c0ed54fcc782e6e4f64b2fa7b5f", False, True),
    ("lru", "fifo", True): ("b0e6b0057247cd3c1edd13f2884514c0b32945de24c5359385b83b8d253494f9", False, False),
    ("lru", "fifo", False): ("178f08961d7f416aa65b58bebea15447667ca7e95f28ed1cc58d998780ed12b0", False, False),
    ("lru", "lru", True): ("70f9837bd9a0470cf144b44e0f5d29dd4576639aa5ef1286ae6639405b123e1b", False, False),
    ("lru", "lru", False): ("51c150d76ea81f904bd493bd4dcb6fc966f96975601ebd4f13f615966de44829", False, False),
    ("lru", "lfu", True): ("8a0d716f158c2db082f92ce05b10c10ae35e4bf7b64e71cf792c1680d73049fd", False, True),
    ("lru", "lfu", False): ("fb7ccc60750206bfd40547091de709a785bf40eb5dedbbebb765947fd0c2a5c6", False, True),
    ("lru", "hyperbolic", True): ("3326fcd78a606fce75c7df40d7cbc263db654c1433baf0c5b613276063a813cf", False, True),
    ("lru", "hyperbolic", False): ("63142de4a792943f6807776c6a230668b2535cfb037f3dafe72480bdcfb48d35", False, True),
    ("lfu", "fifo", True): ("d68c39ac5ebed67dfe737b48f8bfcea34d392338b4ba28d3cb1f49c696b99455", True, False),
    ("lfu", "fifo", False): ("03f6bc67ca16a62fa9c641368b448c4107c6a75510161cacac64f51e1076f84a", True, False),
    ("lfu", "lru", True): ("178eec5dd3984bc84b5a6ec3073bc7ee451ad94b84745bdceb8125645417d629", True, False),
    ("lfu", "lru", False): ("11fa1b0d0a493b9bc62dfb4f5d3948718fb8148713fc43995bf9590897a7dbf2", True, False),
    ("lfu", "lfu", True): ("db13ee4301ea8768f9a505711ab592b4e473a976f16a27eb8493251b048aafa8", True, True),
    ("lfu", "lfu", False): ("33ee6bd5f37037915414a590c4c4fba868b235d46c36c79abb00f6176c7f2b4a", True, True),
    ("lfu", "hyperbolic", True): ("32c51c366465f8ace2f89b8c29b98ba073c7de4194eb9c69eace43bf6ba64462", True, True),
    ("lfu", "hyperbolic", False): ("f16bf3ffa181729b0bdfb0805bc4dd4cd7637985e5bb8ec93bcab4301c9fbc94", True, True),
    ("hyperbolic", "fifo", True): ("df730251bb92bc327221d20efd7817744d815d285c4dac334614d6dcca808786", True, False),
    ("hyperbolic", "fifo", False): ("c55f126eaecd4fbcd02ed3b80f54b56b0d741089a53a223a308dabd7eb9cf9a5", True, False),
    ("hyperbolic", "lru", True): ("f036ca674a24883751e128942d14ce22277bbadc3b90c9d5101cab8a6ac98b11", True, False),
    ("hyperbolic", "lru", False): ("8bc7e1bb9049cd4cb8c0ba99ce4c0afdca614f14d7e8d01371f16973cddfa6da", True, False),
    ("hyperbolic", "lfu", True): ("5deb2138f34a322b7346fd1eab02f53b49baa9c708fe2c40379fa9022150fc6c", True, True),
    ("hyperbolic", "lfu", False): ("13ab692b70a418bf13797c3fe2dbbcc34d2fbb22b9dc65bc705f1cb83bea9b03", True, True),
    ("hyperbolic", "hyperbolic", True): ("89212c1ae50523f2a2f4b285c57b4d0cf352ff0f6407890d6aa7ee37699e35ba", True, True),
    ("hyperbolic", "hyperbolic", False): ("48db93771d3dc87d524b57a5e408fe00b96e0d778ca8ec653cc7dbef47475ed4", True, True),
}


class TestGolden:
    @pytest.mark.parametrize("policy, k, d", sorted(GOLDEN_SINGLE))
    def test_single_region_stream(self, policy, k, d):
        assert golden_single(policy, k, d) == GOLDEN_SINGLE[policy, k, d]

    @pytest.mark.parametrize("window, main, use_filter", sorted(GOLDEN_PAIRS))
    def test_two_region_stream(self, window, main, use_filter):
        assert golden_multi(window, main, use_filter) == GOLDEN_PAIRS[window, main, use_filter]

    def test_golden_covers_every_pairing(self):
        assert len(GOLDEN_SINGLE) == len(POLICIES) * len(GOLDEN_GEOMETRIES)
        assert len(GOLDEN_PAIRS) == 2 * len(POLICIES) ** 2


class TestPerPolicyClasses:
    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    @pytest.mark.parametrize("k, d", GOLDEN_GEOMETRIES)
    def test_fast_fetch_equals_hook_path(self, policy, k, d):
        cache = ReferenceCache(policy, k, d)
        twin = ReferenceCache(policy, k, d)
        assert type(cache).fetch is not ReferenceCache.fetch
        for key in GOLDEN_KEYS:
            assert cache.fetch(key) == ReferenceCache.fetch(twin, key)
            assert [list(s) for s in cache.sets] == [list(s) for s in twin.sets]
        assert cache.seq == twin.seq

    @pytest.mark.parametrize("policy", POLICIES)
    def test_clone_keeps_class_and_is_independent(self, policy):
        cache = ReferenceCache(policy, 3, 2)
        replay(cache, GOLDEN_KEYS[:200])
        other = cache.clone()
        assert type(other) is type(cache)
        assert type(other) is not ReferenceCache
        assert (other.policy, other.k, other.d) == (policy, 3, 2)
        assert (other.seq, other.tie_seen) == (cache.seq, cache.tie_seen)
        # repr shows every set's order and every LFU/hyperbolic record
        snapshot = repr(cache.sets)
        assert repr(other.sets) == snapshot
        tail = GOLDEN_KEYS[200:600]
        assert replay(other, tail) == replay(cache.clone(), tail)
        assert (repr(cache.sets), cache.seq) == (snapshot, 200)

    def test_unknown_policy_still_rejected(self):
        with pytest.raises(ValueError, match="unknown reference policy"):
            ReferenceCache("mru", 2, 1)
        with pytest.raises(ValueError, match="unknown reference policy"):
            ReferenceCache.full("arc", 4)
        assert ReferenceCache("LRU", 2, 1).policy == "lru"
