import hashlib
import random
import time
from fractions import Fraction

import pytest

from dpcache import oracle
from dpcache.core import LayoutConfig
from dpcache.multiregion import RegionSpec
from dpcache.oracle import (
    ReferenceCache,
    ReferenceMultiCache,
    exhaustive_check,
    has_metric_tie,
)
from dpcache.policies import make_engine
from dpcache.traces import ZipfSpec, generate_zipf


def replay(cache, keys):
    return [cache.fetch(key) for key in keys]


def random_trace(seed, length, universe):
    rng = random.Random(seed)
    return [rng.randint(1, universe) for _ in range(length)]


def load_records(cache, h, records):
    """Install ``{key: (freq, tick)}`` records as set ``h`` of a hyperbolic reference.

    The set's frequency buckets of ``(tick, key)`` pairs are rebuilt to index
    them, as the cache's own hooks would have left them; a reachable set never
    repeats a tick, so neither may a fixture.
    """
    assert len({t for f, t in records.values()}) == len(records), "a tick is repeated"
    buckets = {}
    for key, (f, t) in records.items():
        buckets.setdefault(f, []).append((t, key))
    cache.sets[h] = dict(records)
    cache.buckets[h] = {f: sorted(entries) for f, entries in buckets.items()}


class TestReferencePolicies:
    def test_full_lru_example(self):
        cache = ReferenceCache("lru", k=2, d=1)
        assert replay(cache, [1, 2, 1, 3])[-1] == (False, 2)

    def test_kway_placement_contention(self):
        cache = ReferenceCache("lru", k=2, d=2)
        # keys 1 and 3 share set 1; key 2 lives alone in set 0
        replay(cache, [1, 3, 2])
        assert cache.sets[1].keys() >= {1, 3}
        assert list(cache.sets[0]) == [2]

    def test_full_lfu_recency_tiebreak(self):
        cache = ReferenceCache("lfu", k=2, d=1)
        assert replay(cache, [1, 1, 2, 3])[-1] == (False, 2)
        assert cache.tie_seen is False  # freq 1 vs freq 2: unique minimum

    def test_lfu_tie_latches(self):
        cache = ReferenceCache("lfu", k=2, d=1)
        replay(cache, [1, 2, 3])
        assert cache.tie_seen is True

    def test_fifo_ignores_hits(self):
        cache = ReferenceCache("fifo", k=2, d=1)
        assert replay(cache, [1, 2, 1, 3]) == [
            (False, None), (False, None), (True, None), (False, 1)]

    def test_hyperbolic_exact_priorities(self):
        cache = ReferenceCache("hyperbolic", k=2, d=1)
        results = replay(cache, [1, 1, 1, 2, 3])
        # at the eviction p(1) = 3/4 and p(2) = 1/1: key 1 goes
        assert results[-1] == (False, 1)
        assert Fraction(3, 4) < Fraction(1, 1)

    def test_hyperbolic_tie_latches(self):
        cache = ReferenceCache("hyperbolic", k=2, d=1)
        # at the next fetch (tick 6): p(8) = 1/(6-4) = 2/(6-2) = p(9)
        cache.seq = 5
        load_records(cache, 0, {8: (1, 4), 9: (2, 2)})
        cache.fetch(10)
        assert cache.tie_seen is True

    def test_hyperbolic_tie_beaten_by_a_smaller_priority_is_no_tie(self):
        # at tick 10: p(1) = 1/2 = 2/4 = p(2) tie, but p(3) = 1/10 is smaller
        cache = ReferenceCache("hyperbolic", k=3, d=1)
        cache.seq = 9
        load_records(cache, 0, {1: (1, 8), 2: (2, 6), 3: (1, 0)})
        assert cache.fetch(4) == (False, 3)
        assert cache.tie_seen is False

    def test_hyperbolic_tie_of_bucket_heads_beaten_by_a_later_head_is_no_tie(self):
        # at tick 10 each key leads its own bucket: p(1) = 1/2 = 2/4 = p(2)
        # tie, and only then is p(3) = 3/10 met
        cache = ReferenceCache("hyperbolic", k=3, d=1)
        cache.seq = 9
        load_records(cache, 0, {1: (1, 8), 2: (2, 6), 3: (3, 0)})
        assert list(cache.buckets[0]) == [1, 2, 3]
        assert cache.fetch(4) == (False, 3)
        assert cache.tie_seen is False

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_full_equals_kway_capacity_by_one_set(self, policy):
        # keys that all land in set 0 of a 7-set cache see one fully
        # associative set of 6 ways
        full = ReferenceCache(policy, k=6, d=1)
        kway = ReferenceCache(policy, k=6, d=7)
        keys = random_trace(21, 2500, universe=25)
        one_set = [(hit, evicted and evicted // 7) for hit, evicted in
                   replay(kway, [7 * key for key in keys])]
        assert replay(full, keys) == one_set

    def test_lru_inclusion_property(self):
        # classic stack property: every hit at capacity C is a hit at C' > C
        keys = random_trace(31, 4000, universe=60)
        streams = {}
        for capacity in [4, 8, 16, 32]:
            cache = ReferenceCache("lru", k=capacity, d=1)
            streams[capacity] = [cache.fetch(key)[0] for key in keys]
        for small, big in [(4, 8), (8, 16), (16, 32)]:
            assert all(not a or b for a, b in zip(streams[small], streams[big]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ReferenceCache("lru", 2, 1).fetch(0)
        with pytest.raises(ValueError):
            ReferenceCache("mru", 2, 1)

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    @pytest.mark.parametrize("key", [0, -1])
    def test_a_bad_key_changes_no_state(self, policy, key):
        # a bad key raises before the clock step and before any write to its set
        cache = ReferenceCache(policy, 2, 1)
        replay(cache, [1, 2, 1, 3])
        before = repr(vars(cache))  # sets, clock, buckets and tie latch alike
        with pytest.raises(ValueError, match="^keys must be >= 1$"):
            cache.fetch(key)
        assert repr(vars(cache)) == before

    def test_hyperbolic_victim_matches_fraction_minimum(self):
        # the cross-multiplied bucket heads must pick the same victim as a
        # Fraction ranking whose ties go to the smallest tick, the first inserted
        rng = random.Random(77)
        for _ in range(200):
            now = rng.randint(10, 60)
            cache = ReferenceCache("hyperbolic", k=5, d=1)
            cache.seq = now
            ticks = rng.sample(range(1, now), 5)
            state = {key: (rng.randint(1, 9), tick) for key, tick in zip(range(1, 6), ticks)}
            load_records(cache, 0, state)
            got = cache.victim(0)
            ranked = min(state, key=lambda x: Fraction(state[x][0], now - state[x][1]))
            assert Fraction(state[got][0], now - state[got][1]) == \
                Fraction(state[ranked][0], now - state[ranked][1])
            first = min(state, key=lambda x: (Fraction(state[x][0], now - state[x][1]),
                                              state[x][1]))
            assert got == first


class TestReferenceAdmit:
    """``admit`` is the reference's miss path, refused as the two-region cache refuses."""

    POLICIES = ["fifo", "lru", "lfu", "hyperbolic"]

    def full_set(self, policy):
        cache = ReferenceCache(policy, k=3, d=1)
        replay(cache, [1, 2, 3, 1, 3])
        return cache

    @pytest.mark.parametrize("policy", POLICIES)
    def test_refusal_leaves_the_set_and_its_order(self, policy):
        cache = self.full_set(policy)
        before = repr(cache.sets[0])  # keys in order, with their records
        victim = cache.victim(0)
        asked = []

        def refuse(candidate, incumbent):
            asked.append((candidate, incumbent))
            return True

        assert cache.admit(0, 9, refuse) == 9
        assert asked == [(9, victim)]
        assert repr(cache.sets[0]) == before

    @pytest.mark.parametrize("policy", POLICIES)
    def test_acceptance_is_the_fetch_miss(self, policy):
        cache = self.full_set(policy)
        twin = cache.clone()
        expected = twin.fetch(9)[1]
        assert expected is not None
        assert cache.admit(0, 9, lambda candidate, incumbent: False) == expected
        assert list(cache.sets[0]) == list(twin.sets[0])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_set_with_room_asks_nothing(self, policy):
        cache = ReferenceCache(policy, k=3, d=1)

        def refuse(candidate, incumbent):
            raise AssertionError("the set has room")

        assert cache.admit(0, 4, refuse) is None
        assert list(cache.sets[0]) == [4]


class TestReferenceMulti:
    def test_batch_halving(self):
        # capacity 2: the epoch is 16 x 2 = 32 accesses
        cache = ReferenceMultiCache(RegionSpec("fifo", 1, 1), RegionSpec("lru", 1, 1), 50)
        assert cache.filter.aging_window == 32
        for _ in range(31):
            cache.fetch(7)
        assert cache.filter.counters[7] == 31
        cache.fetch(7)  # 32nd access triggers the halve-all
        assert cache.filter.counters[7] == 16

    def test_filterless_reference_has_no_filter(self):
        cache = ReferenceMultiCache(RegionSpec("fifo", 1, 1), RegionSpec("lru", 1, 1), 50, "none")
        assert cache.filter is None

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_a_key_outside_the_universe_changes_no_state(self, use_filter):
        cache = ReferenceMultiCache(RegionSpec("lru", 1, 1), RegionSpec("lfu", 2, 1), 9,
                                    "tinylfu" if use_filter else "none")
        replay(cache, [1, 2, 1, 3, 4])

        def state():
            counters = None if cache.filter is None else cache.filter.counters.tolist()
            return repr((vars(cache.window), vars(cache.main), counters))

        before = state()
        for key in (0, 9):
            with pytest.raises(ValueError, match=rf"^key {key} outside universe \[1, 9\)$"):
                cache.fetch(key)
        assert state() == before

    def test_live_keys_disjoint_regions(self):
        cache = ReferenceMultiCache(RegionSpec("fifo", 2, 2), RegionSpec("lru", 2, 2), 60)
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

    def test_sequences_checked_counts_the_subtrees_it_skips(self):
        # 4 + 16 + ... + 4**7 = 21,844 sequences, divergent subtrees included
        report = exhaustive_check("lfu", k=2, d=1, alphabet_size=4, max_len=7)
        assert report.sequences_checked == 21_844
        assert "21844 sequences, 9936 divergent, 0 unexplained" in report.summary()

    def test_unexplained_divergences_count_whole_subtrees(self, monkeypatch):
        # with no tie ever found, every divergent sequence is unexplained
        monkeypatch.setattr(oracle, "has_metric_tie", lambda *args: False)
        report = exhaustive_check("lfu", k=2, d=1, alphabet_size=4, max_len=7)
        assert report.untagged_divergences == report.divergent_sequences == 9_936

    @pytest.mark.parametrize("policy", ["lru", "LRU", "Lru"])
    def test_an_exact_policy_is_held_exact_in_any_case(self, policy, monkeypatch):
        # an LFU engine behind the name lru diverges from the LRU reference; a
        # tie explains each divergence, but an exact policy may not have any
        def lfu_engine(policy, k, d, integer_factor):
            return make_engine("lfu", LayoutConfig(key_bits=16, value_bits=16, scn_bits=32,
                                                   k=k, d=d))

        monkeypatch.setattr(oracle, "_fresh_engine", lfu_engine)
        report = exhaustive_check(policy, k=2, d=1, alphabet_size=3, max_len=5)
        assert report.divergent_sequences == 84
        assert not report.passed

    def test_divergence_reporting_fields(self):
        report = exhaustive_check("lfu", k=2, d=1, alphabet_size=4, max_len=6)
        if report.divergent_sequences:
            assert report.first_divergence is not None
            assert "engine set" in report.first_divergence_dump
        assert "lfu" in report.summary()

    def test_enumeration_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_check("lru", alphabet_size=50, max_len=8)

    @pytest.mark.parametrize("alphabet_size, max_len", [(3, 100_000), (1, 10**9)])
    def test_huge_enumeration_is_refused_at_once(self, alphabet_size, max_len):
        # the size is summed only until it passes the limit: a full sum of
        # 3**100000 or of 10**9 ones runs for minutes
        start = time.perf_counter()
        too_large = "^enumeration of more than 5000000 sequences is too large$"
        with pytest.raises(ValueError, match=too_large):
            exhaustive_check("lru", alphabet_size=alphabet_size, max_len=max_len)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("alphabet_size, max_len", [(0, 6), (-3, 6), (3, 0)])
    def test_empty_enumeration_rejected(self, alphabet_size, max_len):
        with pytest.raises(ValueError, match="^alphabet_size and max_len must be >= 1$"):
            exhaustive_check("lru", alphabet_size=alphabet_size, max_len=max_len)

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
    g = GOLDEN_MULTI
    cache = ReferenceMultiCache(RegionSpec(window_policy, g["k_w"], g["d_w"]),
                                RegionSpec(main_policy, g["k_m"], g["d_m"]),
                                g["key_universe"], "tinylfu" if use_filter else "none")
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


# Sets wider than 4 ways that fill and evict: 400 Zipf(0.8) keys over at
# most 64 ways per set.  Each pair runs with the filter, window (4, 4) and
# main (16, 4).
WIDE_KEYS = generate_zipf(ZipfSpec(N=400, s=0.8, length=20_000, seed=4343)).keys.tolist()
WIDE_SINGLE = {
    ("fifo", 64, 1): ("23e52b015fd75fc8fa63bdba57fabb1919693879d4d299b27f3d37c866342860", False),
    ("fifo", 16, 4): ("ee79ba05c2c1c1e5fde20d9ebe589a5bf9b3728e074087c9507edc6dc58b9ba2", False),
    ("lru", 64, 1): ("bb6dff5482f4ad370bbb2972f1f3ca40309fab0248755ae071fa1138411112ea", False),
    ("lru", 16, 4): ("68f8ecdd498db3c007342de71948f4d688f8dd214944e00e81a9ff1c0340c9aa", False),
    ("lfu", 64, 1): ("4d3fb7af3b30857cfff3d9982237431e34b5212c4039c437997883e62c1aa500", True),
    ("lfu", 16, 4): ("a0fe53e6f2a95f87ddce20e2de8d267e16a15a7bf6c4634290e648ae51e84195", True),
    ("hyperbolic", 64, 1): ("f66f7b118126f867f73aeaabb6ac05ecc781622fc68dccfacae1b8212d2ac25d", True),
    ("hyperbolic", 16, 4): ("3daeb5aed4cbd437eec63046fef154ff8a49fdb3fdf1448a4e047ba85d3a1740", True),
}
WIDE_PAIRS = {
    ("lru", "lfu"): ("df3edae50347e8e242357ae3575960d6fe661a4bdcc88790d5be530ae2e684a2", False, True),
    ("fifo", "hyperbolic"): ("185fd1fcbf9fe57bd76dce172f64c1063ddcff3e47e4db46c86e5e0d37daebcf", False, True),
}

# The fully associative reference LRU at the benchmark's smallest and largest
# capacities, on 10^5 Zipf(10^6, 0.99) events: every set fills and evicts on
# most misses, which is where the oracle's eviction path runs.
FULL_LRU_KEYS = generate_zipf(ZipfSpec(N=10**6, s=0.99, length=10**5, seed=1)).keys.tolist()
FULL_LRU = {
    128: "9d28fb39336f69a1ed25a6df4f381bb5d98373f21d0e80c2652adcd1302bf00e",
    2048: "5072cae5f8d4c98eb7d5d322a76f9837ffcf89ff2c1fe3a924016d78d0a2686c",
}
# The fully associative reference LFU at capacity 2048 on the same events,
# captured from the scan that named the least (freq, last access) record on
# every eviction; the frequency buckets must give the same stream and ties.
FULL_LFU_2048 = ("f42e24b9e759fdcd0e9df9fd289d336c0b4fbec4332b537de422809c4f72bc81", True)
# The fully associative reference hyperbolic cache at capacity 2048 on the same
# events, captured from the scan that compared every record's exact priority
# on every eviction; comparing one bucket head per frequency must agree.
FULL_HYPERBOLIC_2048 = ("d8bd0e3c8c4fcf45b9d2933197ef0394e76568ebac3414a44f83f2e1f7730c73", True)


class TestGolden:
    @pytest.mark.parametrize("policy, k, d", sorted(GOLDEN_SINGLE))
    def test_single_region_stream(self, policy, k, d):
        assert golden_single(policy, k, d) == GOLDEN_SINGLE[policy, k, d]

    @pytest.mark.parametrize("window, main, use_filter", sorted(GOLDEN_PAIRS))
    def test_two_region_stream(self, window, main, use_filter):
        assert golden_multi(window, main, use_filter) == GOLDEN_PAIRS[window, main, use_filter]

    @pytest.mark.parametrize("policy, k, d", sorted(WIDE_SINGLE))
    def test_wide_set_stream(self, policy, k, d):
        cache = ReferenceCache(policy, k, d)
        assert (stream_digest(cache, WIDE_KEYS), cache.tie_seen) == WIDE_SINGLE[policy, k, d]

    @pytest.mark.parametrize("k", sorted(FULL_LRU))
    def test_full_associative_lru_stream(self, k):
        cache = ReferenceCache("lru", k, 1)
        assert (stream_digest(cache, FULL_LRU_KEYS), cache.tie_seen) == (FULL_LRU[k], False)

    def test_full_associative_lfu_stream(self):
        cache = ReferenceCache("lfu", 2048, 1)
        assert (stream_digest(cache, FULL_LRU_KEYS), cache.tie_seen) == FULL_LFU_2048

    def test_full_associative_hyperbolic_stream(self):
        cache = ReferenceCache("hyperbolic", 2048, 1)
        assert (stream_digest(cache, FULL_LRU_KEYS), cache.tie_seen) == FULL_HYPERBOLIC_2048

    @pytest.mark.parametrize("window, main", sorted(WIDE_PAIRS))
    def test_wide_set_filtered_pair(self, window, main):
        cache = ReferenceMultiCache(RegionSpec(window, 4, 4), RegionSpec(main, 16, 4), 401)
        assert ((stream_digest(cache, WIDE_KEYS), cache.window.tie_seen, cache.main.tie_seen)
                == WIDE_PAIRS[window, main])

    @pytest.mark.parametrize("window, main", sorted(WIDE_PAIRS))
    def test_one_main_scan_per_admission_contest(self, window, main, monkeypatch):
        # with an ordered window, only the main region's victim reads are
        # counted; a fetch evicts exactly when its window victim contends
        # for a full main set, admitted or denied
        cache = ReferenceMultiCache(RegionSpec(window, 4, 4), RegionSpec(main, 16, 4), 401)
        read = type(cache.main).victim
        scans = []

        def counted(self, h):
            named = read(self, h)
            if named is not None:
                scans.append(len(self.sets[h]))
            return named

        monkeypatch.setattr(type(cache.main), "victim", counted)
        evictions = sum(cache.fetch(key)[1] is not None for key in WIDE_KEYS)
        assert evictions > 5000
        assert scans == [16] * evictions

    def test_golden_covers_every_pairing(self):
        assert len(GOLDEN_SINGLE) == len(POLICIES) * len(GOLDEN_GEOMETRIES)
        assert len(GOLDEN_PAIRS) == 2 * len(POLICIES) ** 2


class TestPerPolicyClasses:
    # LRU is the one policy that serves fetch in its own body; FIFO runs the
    # base fetch over the hooks.
    @pytest.mark.parametrize("policy", ["lru"])
    @pytest.mark.parametrize("k, d", GOLDEN_GEOMETRIES)
    def test_fast_fetch_equals_hook_path(self, policy, k, d):
        cache = ReferenceCache(policy, k, d)
        twin = ReferenceCache(policy, k, d)
        assert type(cache).fetch is not ReferenceCache.fetch
        for key in GOLDEN_KEYS:
            assert cache.fetch(key) == ReferenceCache.fetch(twin, key)
            assert [list(s) for s in cache.sets] == [list(s) for s in twin.sets]
        # the order lives in the sets: neither path keeps a clock
        assert not hasattr(cache, "seq") and not hasattr(twin, "seq")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_clone_keeps_class_and_is_independent(self, policy):
        cache = ReferenceCache(policy, 3, 2)
        replay(cache, GOLDEN_KEYS[:200])
        other = cache.clone()
        assert type(other) is type(cache)
        assert type(other) is not ReferenceCache
        assert (other.policy, other.k, other.d) == (policy, 3, 2)
        # only hyperbolic reads a fetch clock; the order of FIFO, LRU and LFU
        # lives in their sets and buckets
        clock = 200 if policy == "hyperbolic" else None
        assert vars(other).get("seq") == vars(cache).get("seq") == clock
        assert other.tie_seen == cache.tie_seen
        # repr shows every set's order, every LFU count and hyperbolic record
        snapshot = repr(cache.sets)
        assert repr(other.sets) == snapshot
        tail = GOLDEN_KEYS[200:600]
        assert replay(other, tail) == replay(cache.clone(), tail)
        assert (repr(cache.sets), vars(cache).get("seq")) == (snapshot, clock)

    def test_unknown_policy_still_rejected(self):
        with pytest.raises(ValueError, match="unknown reference policy"):
            ReferenceCache("mru", 2, 1)
        with pytest.raises(ValueError, match="unknown reference policy"):
            ReferenceCache("arc", k=4, d=1)
        assert ReferenceCache("LRU", 2, 1).policy == "lru"


def bucket_order(cache, h):
    """Set ``h``'s keys as the LFU buckets list them, lowest frequency first."""
    buckets = cache.buckets[h]
    return [key for f in sorted(buckets) for key in buckets[f]]


@pytest.mark.parametrize("policy", ["lfu", "hyperbolic"])
def test_replaying_a_clone_leaves_the_buckets(policy):
    # the original's sets, buckets, lowest counts and clock stay as they were
    # after every fetch of the clone: LFU's lowest counts rise and fall back,
    # so a shared list could read as before once the replay ends
    cache = ReferenceCache(policy, 4, 2)
    replay(cache, GOLDEN_KEYS[:300])
    before = repr(vars(cache))
    other = cache.clone()
    assert repr(vars(other)) == before
    for key in GOLDEN_KEYS[300:900]:
        other.fetch(key)
        assert repr(vars(cache)) == before
    assert repr(vars(other)) != before


def lfu_scan_victim(s, last):
    """The LFU victim by a scan of set ``s``'s counts and ``last``, each key's
    last access, and whether its count is shared: the least count, the least
    recently used on ties."""
    victim = min(s, key=lambda key: (s[key], last[key]))
    return victim, sum(f == s[victim] for f in s.values()) > 1


class TestLfuBuckets:
    """The reference LFU's frequency buckets against its counts and a last-access
    clock kept by the test."""

    @pytest.mark.parametrize("k, d", [(1, 1), (2, 1), (4, 4), (64, 8)])
    def test_buckets_list_keys_in_record_order(self, k, d):
        cache = ReferenceCache("lfu", k, d)
        rng = random.Random(k * 1000 + d)
        last = {}  # key -> index of its last fetch
        # half the events hit a live key, half draw from four times the
        # capacity: frequencies spread, sets evict, and lowest buckets empty
        evictions = lows_above_one = ties = 0
        for now in range(4000):
            live = sorted(cache.live_keys())
            key = rng.choice(live) if live and rng.random() < 0.5 else rng.randint(1, 4 * k * d)
            h = key % d
            expected = None
            if key not in cache.sets[h] and len(cache.sets[h]) == k:
                expected, tied = lfu_scan_victim(cache.sets[h], last)
                ties += tied
                cache.tie_seen = False  # so the latch shows this eviction's verdict
            assert cache.fetch(key)[1] == expected
            last[key] = now
            if expected is not None:
                evictions += 1
                assert cache.tie_seen == tied
            lows_above_one += cache.low[h] > 1
            for h, s in enumerate(cache.sets):
                buckets = cache.buckets[h]
                assert bucket_order(cache, h) == sorted(s, key=lambda key: (s[key], last[key]))
                assert all(s[member] == f for f, bucket in buckets.items() for member in bucket)
                assert all(buckets.values()), "an empty bucket was kept"
                if s:
                    assert cache.low[h] == min(buckets)
        # the sets evicted, and a touch emptied the lowest bucket
        assert evictions > 500 and lows_above_one > 10
        # some evictions met a shared count; a two-way set's survivor is hit
        # often enough to outcount each newcomer, so there the counts never tie
        assert ties > 0 or k <= 2

    def test_a_refused_admission_leaves_the_buckets(self):
        cache = ReferenceMultiCache(RegionSpec("lru", 4, 4), RegionSpec("lfu", 16, 4), 401)
        rejects = cache._rejects
        verdicts = []

        def recorded(candidate, incumbent):
            verdicts.append(rejects(candidate, incumbent))
            return verdicts[-1]

        cache._rejects = recorded
        main = cache.main
        refusals = 0
        for key in WIDE_KEYS:
            before = repr((main.sets, main.buckets, main.low))
            verdicts.clear()
            cache.fetch(key)
            if verdicts == [True]:
                refusals += 1
                assert repr((main.sets, main.buckets, main.low)) == before
        assert refusals > 1000


def hyperbolic_scan_victim(cache, h):
    """The hyperbolic victim by a scan of set ``h``'s records, and whether its
    exact priority is shared: the least n/(now - t), the smallest tick on ties."""
    now, s = cache.seq, cache.sets[h]
    rank = {key: Fraction(n, now - t) for key, (n, t) in s.items()}
    low = min(rank.values())
    victim = min((key for key in s if rank[key] == low), key=lambda key: s[key][1])
    return victim, sum(p == low for p in rank.values()) > 1


def hyperbolic_state(cache):
    return repr((cache.sets, cache.buckets))


class TestHyperbolicBuckets:
    """The reference hyperbolic cache's buckets against its ``(freq, tick)`` records."""

    @pytest.mark.parametrize("k, d", [(1, 1), (2, 1), (4, 4), (64, 8)])
    def test_buckets_index_every_record(self, k, d):
        cache = ReferenceCache("hyperbolic", k, d)
        rng = random.Random(k * 1000 + d)
        # half the events hit a live key, half draw from four times the
        # capacity: frequencies spread, sets evict, and buckets empty
        evictions = ties = 0
        for _ in range(4000):
            live = sorted(cache.live_keys())
            key = rng.choice(live) if live and rng.random() < 0.5 else rng.randint(1, 4 * k * d)
            h = key % d
            expected = None
            if key not in cache.sets[h] and len(cache.sets[h]) == k:
                cache.seq += 1  # the scan reads the clock the fetch will read
                expected, tied = hyperbolic_scan_victim(cache, h)
                cache.seq -= 1
                ties += tied
                cache.tie_seen = False  # so the latch shows this eviction's verdict
            assert cache.fetch(key)[1] == expected
            if expected is not None:
                evictions += 1
                assert cache.tie_seen == tied
            for h, s in enumerate(cache.sets):
                buckets = cache.buckets[h]
                assert all(s[key] == (f, t) for f, entries in buckets.items() for t, key in entries)
                # every key of the set sits in exactly one bucket, once
                assert sorted(key for entries in buckets.values() for t, key in entries) == sorted(s)
                assert all(entries == sorted(entries) for entries in buckets.values())
                assert all(buckets.values()), "an empty bucket was kept"
        # the sets evicted, and some evictions met a shared minimum
        assert evictions > 500
        assert ties > 0 or k == 1

    def test_a_refused_admission_leaves_the_buckets(self):
        cache = ReferenceMultiCache(RegionSpec("lru", 4, 4), RegionSpec("hyperbolic", 16, 4), 401)
        rejects = cache._rejects
        verdicts = []

        def recorded(candidate, incumbent):
            verdicts.append(rejects(candidate, incumbent))
            return verdicts[-1]

        cache._rejects = recorded
        main = cache.main
        refusals = 0
        for key in WIDE_KEYS:
            before = hyperbolic_state(main)
            verdicts.clear()
            cache.fetch(key)
            if verdicts == [True]:
                refusals += 1
                assert hyperbolic_state(main) == before
        assert refusals > 1000
