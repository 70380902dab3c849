"""sha256 pins of the restricted engines' (hit, evicted key) streams.

LFU and hyperbolic have no exact oracle, so these digests are what holds their
single-region and two-region streams in place across refactors.  Every policy
replays one skewed trace at a wide (32-bit) and two narrow SCN widths; at the
narrow widths the LRU clock rescales, LFU counts saturate and the hyperbolic
tick halves and its frequencies saturate (``test_narrow_widths_fire_maintenance``
checks that they do).  The two-region cache is pinned for all 16 window x main
pairings, with and without the admission filter.  Every single-region case also
pins its final set contents and maintenance clock, which hold the fold's
way-by-way arrangement that a stream alone does not show.
"""

import hashlib
import random

import pytest

from checked import checked
from dpcache.core import LayoutConfig
from dpcache.multiregion import MultiRegionCache, RegionSpec
from dpcache.policies import make_engine

POLICIES = ["fifo", "lru", "lfu", "hyperbolic"]
GEOMETRIES = [(1, 1), (2, 1), (4, 4), (8, 2)]
SCN_WIDTHS = [32, 6, 4]
MULTI_SCN_WIDTHS = [32, 6]
UNIVERSE = 61


def skewed_keys(seed, length, universe):
    """Keys in [1, universe) with density falling off as u**3 towards the top."""
    rng = random.Random(seed)
    return [1 + int((universe - 1) * rng.random() ** 3) for _ in range(length)]


KEYS = skewed_keys(2718, 3000, UNIVERSE)


def stream_digest(cache, keys):
    """sha256 of the (hit, evicted key) stream, one ``hit:key;`` record per event."""
    digest = hashlib.sha256()
    for key in keys:
        hit, evicted = cache.fetch(key)
        digest.update(f"{int(hit)}:{evicted or 0};".encode())
    return digest.hexdigest()


def state_digest(engine):
    """sha256 of every set's ways in way order, one ``key,value,scn;`` record per way.

    The value is the key truncated to the value width, as a switch would hold it.
    """
    mask = (1 << engine.layout.value_bits) - 1
    digest = hashlib.sha256()
    for ways in engine.dump():
        digest.update("".join(f"{key},{key & mask},{scn};" for key, scn in ways).encode() + b"|")
    return digest.hexdigest()


def engine_clock(engine):
    """The LRU clock or the hyperbolic tick; None for FIFO and LFU."""
    return getattr(engine, "clock", getattr(engine, "tick", None))


def single_engine(policy, scn_bits, k, d):
    return checked(make_engine(policy, LayoutConfig(key_bits=8, value_bits=8, scn_bits=scn_bits,
                                                    k=k, d=d)))


def multi_cache(window, main, use_filter, scn_bits):
    return checked(MultiRegionCache(RegionSpec(window, 2, 2), RegionSpec(main, 4, 4), UNIVERSE,
                                    "tinylfu" if use_filter else "none", scn_bits=scn_bits))


SINGLE_PINS = {
    ("fifo", 32, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("fifo", 32, 2, 1): "595b8987d7cf0c315a6afdd025d72116767e4ba6d74d255be4e2a84239a24395",
    ("fifo", 32, 4, 4): "33eb71cb891b1e8464f3feda0b44cb68a0fd3df146f58d67525191dc483ab28b",
    ("fifo", 32, 8, 2): "0fae959eed96d764454d2fd3e453185fd05e8855245b42be711b863fc1cc8985",
    ("fifo", 6, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("fifo", 6, 2, 1): "595b8987d7cf0c315a6afdd025d72116767e4ba6d74d255be4e2a84239a24395",
    ("fifo", 6, 4, 4): "33eb71cb891b1e8464f3feda0b44cb68a0fd3df146f58d67525191dc483ab28b",
    ("fifo", 6, 8, 2): "0fae959eed96d764454d2fd3e453185fd05e8855245b42be711b863fc1cc8985",
    ("fifo", 4, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("fifo", 4, 2, 1): "595b8987d7cf0c315a6afdd025d72116767e4ba6d74d255be4e2a84239a24395",
    ("fifo", 4, 4, 4): "33eb71cb891b1e8464f3feda0b44cb68a0fd3df146f58d67525191dc483ab28b",
    ("fifo", 4, 8, 2): "0fae959eed96d764454d2fd3e453185fd05e8855245b42be711b863fc1cc8985",
    ("lru", 32, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("lru", 32, 2, 1): "a3214ffb6648c01913e5c6c0ee25d855c209baef6f4611986d2b9095adab03df",
    ("lru", 32, 4, 4): "f2bfec1f3558bd7e0a8f4922e62e9a134356f5472d55e5e95d11d4bd475d2567",
    ("lru", 32, 8, 2): "280f19df5f56a5d59beceebc93670837b111c84eeb7c5e49cb9b64008bb30720",
    ("lru", 6, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("lru", 6, 2, 1): "a3214ffb6648c01913e5c6c0ee25d855c209baef6f4611986d2b9095adab03df",
    ("lru", 6, 4, 4): "f2bfec1f3558bd7e0a8f4922e62e9a134356f5472d55e5e95d11d4bd475d2567",
    ("lru", 6, 8, 2): "280f19df5f56a5d59beceebc93670837b111c84eeb7c5e49cb9b64008bb30720",
    ("lru", 4, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("lru", 4, 2, 1): "a3214ffb6648c01913e5c6c0ee25d855c209baef6f4611986d2b9095adab03df",
    ("lru", 4, 4, 4): "f2bfec1f3558bd7e0a8f4922e62e9a134356f5472d55e5e95d11d4bd475d2567",
    ("lru", 4, 8, 2): "280f19df5f56a5d59beceebc93670837b111c84eeb7c5e49cb9b64008bb30720",
    ("lfu", 32, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("lfu", 32, 2, 1): "d8cf46262e91492be35daadf6b69640ea497a17e5e0ee1f3a5c6569fedd123ee",
    ("lfu", 32, 4, 4): "6ab65777f4885886cd59e06b02b93c3254844e89f009625b01017d1c4a1f4376",
    ("lfu", 32, 8, 2): "8e9a2480fbf9ac60eaadb9dd0073e11419663a2d346b037a54d34e051c422e3d",
    ("lfu", 6, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("lfu", 6, 2, 1): "d8cf46262e91492be35daadf6b69640ea497a17e5e0ee1f3a5c6569fedd123ee",
    ("lfu", 6, 4, 4): "6ab65777f4885886cd59e06b02b93c3254844e89f009625b01017d1c4a1f4376",
    ("lfu", 6, 8, 2): "8e9a2480fbf9ac60eaadb9dd0073e11419663a2d346b037a54d34e051c422e3d",
    ("lfu", 4, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("lfu", 4, 2, 1): "d8cf46262e91492be35daadf6b69640ea497a17e5e0ee1f3a5c6569fedd123ee",
    ("lfu", 4, 4, 4): "6ab65777f4885886cd59e06b02b93c3254844e89f009625b01017d1c4a1f4376",
    ("lfu", 4, 8, 2): "8e9a2480fbf9ac60eaadb9dd0073e11419663a2d346b037a54d34e051c422e3d",
    ("hyperbolic", 32, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("hyperbolic", 32, 2, 1): "f5146a014cbebe2ad4a98be34e59dcb0fc386c95f247abae56f6d0abb002d87f",
    ("hyperbolic", 32, 4, 4): "d6c9435e1927a2fe36f7773eb03ca7d62d3f9583f7ff62e1f6955cac3e0253ec",
    ("hyperbolic", 32, 8, 2): "09e99cff69f36af37a35cf49bcebd011fdefb58144cfbe4ed4b61beb9e19f5df",
    ("hyperbolic", 6, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("hyperbolic", 6, 2, 1): "3c4eac47a4957019d78b1a2df107871178963c3f12024818510b33909d60bfea",
    ("hyperbolic", 6, 4, 4): "ff536565bfe58c14b254935a7f7c45eea7e5344c064a459e41b5415a9e4ed701",
    ("hyperbolic", 6, 8, 2): "7d746ce084b346b8e5aba53bdea3c0c2df14b8861f1e85602b3bcf2c63b42254",
    ("hyperbolic", 4, 1, 1): "c52552d3483b446ad8d50f0a692450e3a9f3ca444182889ee1d28cad508e2bce",
    ("hyperbolic", 4, 2, 1): "39b5e2fb6ade3de88a4486d0261873506d1bfc67b2579d8d41215e5e8b059e28",
    ("hyperbolic", 4, 4, 4): "f9f394804d269595ec7cc3bb0dfa677fef3a7800b81fcf8fd224ca0bcb4987ef",
    ("hyperbolic", 4, 8, 2): "e53434b79b7c32e3e844698ede6db59ea49eb60b8b2d5fb483e66b33a56fe874",
}

# (sha256 of the final dump(), final clock or tick) after replaying KEYS,
# captured before the fold and the clocks were last rewritten
SINGLE_STATE_PINS = {
    ("fifo", 4, 1, 1): ("88671e04c7eeffcd699c67cec09abe52074f6bcd0b7d78391674535d2c215df5", None),
    ("fifo", 4, 2, 1): ("06c19f5dbe3cc68b2fe78a92e37cd979b3e0c4bfaf944c7ab124c5762c974248", None),
    ("fifo", 4, 4, 4): ("0e6451c37d8c582fd58d52d50d13f510fb0aefa527a599645f6f8c793f23854f", None),
    ("fifo", 4, 8, 2): ("2c107380de9715787f8854ab46ec1557a7aa9c20a2732e85eaf82f5ea7c091dc", None),
    ("fifo", 6, 1, 1): ("88671e04c7eeffcd699c67cec09abe52074f6bcd0b7d78391674535d2c215df5", None),
    ("fifo", 6, 2, 1): ("06c19f5dbe3cc68b2fe78a92e37cd979b3e0c4bfaf944c7ab124c5762c974248", None),
    ("fifo", 6, 4, 4): ("0e6451c37d8c582fd58d52d50d13f510fb0aefa527a599645f6f8c793f23854f", None),
    ("fifo", 6, 8, 2): ("2c107380de9715787f8854ab46ec1557a7aa9c20a2732e85eaf82f5ea7c091dc", None),
    ("fifo", 32, 1, 1): ("88671e04c7eeffcd699c67cec09abe52074f6bcd0b7d78391674535d2c215df5", None),
    ("fifo", 32, 2, 1): ("06c19f5dbe3cc68b2fe78a92e37cd979b3e0c4bfaf944c7ab124c5762c974248", None),
    ("fifo", 32, 4, 4): ("0e6451c37d8c582fd58d52d50d13f510fb0aefa527a599645f6f8c793f23854f", None),
    ("fifo", 32, 8, 2): ("2c107380de9715787f8854ab46ec1557a7aa9c20a2732e85eaf82f5ea7c091dc", None),
    ("hyperbolic", 4, 1, 1): ("164c58375aa08bd1db7f7f856c6edbf4d9cdc6e796236d8a8f859c3a57877028", 2),
    ("hyperbolic", 4, 2, 1): ("11fcd2d40b79dba62c042db35984484ee8e08de4b75dbaf03cb22c8f4a59b732", 2),
    ("hyperbolic", 4, 4, 4): ("54b59eb87352606e72d13550172281a8134562f96075bd37ff4c738a2979f735", 2),
    ("hyperbolic", 4, 8, 2): ("1a30ca24aeff3962a9d78ece14b68e941029b365f76f57f3222f595f7338b96e", 2),
    ("hyperbolic", 6, 1, 1): ("65feae2e121f10ea7e9bbcd17216922aafe2975b2d5d70cfc8d09349bc7c61bf", 4),
    ("hyperbolic", 6, 2, 1): ("f80ad325a1bb65f51435b9823bffc767b65de9daafdd80532738b6ad130a8e4f", 4),
    ("hyperbolic", 6, 4, 4): ("d77b3d19a3223970dcfdf87ac0204075d92fab7cae055575212ce6439fc71950", 4),
    ("hyperbolic", 6, 8, 2): ("81d62b676264685154c04381b2e1c687e0408c2a7581180631a7d43b9c2cd229", 4),
    ("hyperbolic", 32, 1, 1): ("ccd19a4576bd367e35e9ba5a8526716baa6ea5e257b8b2708db93e3294270b9c", 1976),
    ("hyperbolic", 32, 2, 1): ("dcd73a29be304480f9322f1ca38a87ded02f62748e84e7bbbdf3aa15303af4bc", 1976),
    ("hyperbolic", 32, 4, 4): ("a0f5981c8ec448923367199d94e95b06dd79248116225601bc8686b8762be0ce", 1976),
    ("hyperbolic", 32, 8, 2): ("7ddc3350a5a0879e36efc6cc0b3d2cd0a28c37fe32f7a030c236be153e9c1c01", 1976),
    ("lfu", 4, 1, 1): ("40d9c8e654976521dfbacce6bc0640ff1bc924563dbda64fac847d5a9caf8fda", None),
    ("lfu", 4, 2, 1): ("80c76b58a12156ee6adf12d2f89c24f82e7323124b2427c18cf8966ff244ee66", None),
    ("lfu", 4, 4, 4): ("bc98a1b736548d8e2b93b38efa3051dd0fb4b2e2e3d2bbf3b197e8fb7a0208f8", None),
    ("lfu", 4, 8, 2): ("b6759faf6bf69acf06cf9849c4dcff82b4e14620d3648e49ee6a0fd38ee9c163", None),
    ("lfu", 6, 1, 1): ("40d9c8e654976521dfbacce6bc0640ff1bc924563dbda64fac847d5a9caf8fda", None),
    ("lfu", 6, 2, 1): ("80c76b58a12156ee6adf12d2f89c24f82e7323124b2427c18cf8966ff244ee66", None),
    ("lfu", 6, 4, 4): ("1f5f7b0911ba97a9b4684451fb5c4c83c2abf51c964c85fb457780e9bc3f517d", None),
    ("lfu", 6, 8, 2): ("7cba0882e5b6da310fda0480b61e0a8fb23d79f1f562ed1df27959bf88d2a2cf", None),
    ("lfu", 32, 1, 1): ("40d9c8e654976521dfbacce6bc0640ff1bc924563dbda64fac847d5a9caf8fda", None),
    ("lfu", 32, 2, 1): ("80c76b58a12156ee6adf12d2f89c24f82e7323124b2427c18cf8966ff244ee66", None),
    ("lfu", 32, 4, 4): ("5626aae1a3a3591e9bc2ab1363f9a6211052a784a09c0f79f468bc3e0dbbe288", None),
    ("lfu", 32, 8, 2): ("31426dde1f7e0ef65df63605c9744c7a810c823b1fe6ed3fb5a12daf66d9e184", None),
    ("lru", 4, 1, 1): ("6926c44ea877e493278de776f5091a40c9d9bbaeb4e56bd88fda74990f7411da", 10),
    ("lru", 4, 2, 1): ("9cfb38684f918ccc10f3f3d7fd6b708aa54c353e9f9e0764d2f857868e318d48", 12),
    ("lru", 4, 4, 4): ("260955cc20e8442b89c393e027ff91f885281606e3faef973ac64ab63a59295c", 9),
    ("lru", 4, 8, 2): ("54efce6a1f2a32f2ae1208011fe233818eee87192eb42f8ca8e5e08f0d025b6d", 11),
    ("lru", 6, 1, 1): ("1ed5b3cadd0cf67952f2e5cbb3f6c02bcf5bb8c4d6b5e98309755fcb0e6c0aec", 11),
    ("lru", 6, 2, 1): ("a98500dcffb1bb025736d33bab6f5d99bc56ba59f19b56f21a892309d326c284", 60),
    ("lru", 6, 4, 4): ("bcf15d7fca88a063b7be52560c544d5853cab5604810e1ce8f75a118b83df81b", 42),
    ("lru", 6, 8, 2): ("db0104dfe23c031eb4feeb3efc32271af1fee2570d7926db88a87f6bb78660c8", 30),
    ("lru", 32, 1, 1): ("8f55f054f81d1620886ae34ee3bde641ad08bfffa910841c7bfa502d9c0a198c", 3000),
    ("lru", 32, 2, 1): ("5556510c04f588da3454bec3b0d4c472a16195a45a4beb65eabbbd603a14a81e", 3000),
    ("lru", 32, 4, 4): ("3a72aaefd56b74d4254a216aa4341595b9d607fc37b2dc422822d55e048cdc42", 3000),
    ("lru", 32, 8, 2): ("e3618329c01436e451db8a4711b1b3e856ad1492a99c9ce8e3d1b0fe28073af6", 3000),
}

MULTI_PINS = {
    ("fifo", "fifo", True, 32): "fe3a5e23316802f5154357fc5428f716e1f77f4d9db9683828aabc9cc32b50e7",
    ("fifo", "fifo", True, 6): "fe3a5e23316802f5154357fc5428f716e1f77f4d9db9683828aabc9cc32b50e7",
    ("fifo", "fifo", False, 32): "2e9731432a71205215731302aabb182d42db4fe407b7a8bcff08a2908e334f9f",
    ("fifo", "fifo", False, 6): "2e9731432a71205215731302aabb182d42db4fe407b7a8bcff08a2908e334f9f",
    ("fifo", "lru", True, 32): "0c1c9d3d27d4ee92f90034f3bdb4fea5869b4d21fe3d44c164fe420f91f1be3c",
    ("fifo", "lru", True, 6): "0c1c9d3d27d4ee92f90034f3bdb4fea5869b4d21fe3d44c164fe420f91f1be3c",
    ("fifo", "lru", False, 32): "05b418a512836ee2dc20dd1cffba7861f284d6adc962cda0db58fe2e0a5a7de6",
    ("fifo", "lru", False, 6): "05b418a512836ee2dc20dd1cffba7861f284d6adc962cda0db58fe2e0a5a7de6",
    ("fifo", "lfu", True, 32): "813b856bbb1fc35cedfde9dd439d90da6e72a764e09dbf767cd85e6b2cebde1a",
    ("fifo", "lfu", True, 6): "813b856bbb1fc35cedfde9dd439d90da6e72a764e09dbf767cd85e6b2cebde1a",
    ("fifo", "lfu", False, 32): "e3b54fbebdd064e4a9a12deb036160662a0838c80af1ce455563e75adece6586",
    ("fifo", "lfu", False, 6): "e3b54fbebdd064e4a9a12deb036160662a0838c80af1ce455563e75adece6586",
    ("fifo", "hyperbolic", True, 32): "2652e49a41b31c2897ac905c2b099c74337fd867162321bb8c84655c0796c7e7",
    ("fifo", "hyperbolic", True, 6): "22fe70946bea01f07561f734ed6bfed3b07601b259f3e9757a7b568428d5ac3c",
    ("fifo", "hyperbolic", False, 32): "936d5214c83cad2a09771fb62157a4995611192debfff5ecbffee2bf8985db88",
    ("fifo", "hyperbolic", False, 6): "395ef59f17a48d4d550697422e11274fa1dfb335dfa708ee2fc306f9326e90a6",
    ("lru", "fifo", True, 32): "328fdf8d4e577c6bb0d933638617bdbd1c321fc0f7908ecfae3659918e3c9ac4",
    ("lru", "fifo", True, 6): "328fdf8d4e577c6bb0d933638617bdbd1c321fc0f7908ecfae3659918e3c9ac4",
    ("lru", "fifo", False, 32): "edfa011f5dae68e03da23c6fa590802cef0dab9ad026981e89f5fc0d446e7001",
    ("lru", "fifo", False, 6): "edfa011f5dae68e03da23c6fa590802cef0dab9ad026981e89f5fc0d446e7001",
    ("lru", "lru", True, 32): "d6da77eb9f0a3e76d5ebf95b832c448aa67757587b61c10a969a075020b4d1bc",
    ("lru", "lru", True, 6): "d6da77eb9f0a3e76d5ebf95b832c448aa67757587b61c10a969a075020b4d1bc",
    ("lru", "lru", False, 32): "ba7e74afedaf68809c66612894d8d065b6e75e1ac5d9cd26243ed0f46eb9e52a",
    ("lru", "lru", False, 6): "ba7e74afedaf68809c66612894d8d065b6e75e1ac5d9cd26243ed0f46eb9e52a",
    ("lru", "lfu", True, 32): "e92b1e7a95adb45fc12ef4e9a15d4f0d28393f398a3e589c170a7039b9db65cd",
    ("lru", "lfu", True, 6): "e92b1e7a95adb45fc12ef4e9a15d4f0d28393f398a3e589c170a7039b9db65cd",
    ("lru", "lfu", False, 32): "d31fdb8e2e1b0cb9bcf1ade1ee91904bb963ad753569112e007ef955eb3a200c",
    ("lru", "lfu", False, 6): "d31fdb8e2e1b0cb9bcf1ade1ee91904bb963ad753569112e007ef955eb3a200c",
    ("lru", "hyperbolic", True, 32): "7a696113b04fe4b8430ab46ed53903aba6b212a015f4dbd333271c55fa7a6abd",
    ("lru", "hyperbolic", True, 6): "da5dfb9839a5904443551ed2a1f166a5541c8ebbf53e6a29d50b9084ad7a8b59",
    ("lru", "hyperbolic", False, 32): "022c0b41150023aa3397659e8ff87cbe05826bd53f3f47c11a98532f1de70377",
    ("lru", "hyperbolic", False, 6): "6cd6d0c681b512d51af224b47e60df13c194dfad55ad2eec619984f370ca9e7c",
    ("lfu", "fifo", True, 32): "cedef161e542c917a2a4ea0f6d828b2648ad77d2721a4b5d6480c898a8ced788",
    ("lfu", "fifo", True, 6): "cedef161e542c917a2a4ea0f6d828b2648ad77d2721a4b5d6480c898a8ced788",
    ("lfu", "fifo", False, 32): "45f5c292818bdb7da9180b5de57d1e65f7318f7c03aff4626262f612fdb587d1",
    ("lfu", "fifo", False, 6): "45f5c292818bdb7da9180b5de57d1e65f7318f7c03aff4626262f612fdb587d1",
    ("lfu", "lru", True, 32): "47a7c85451c461a487512cc65ea48dbea3b04f50fa7950bec1f39d3d0e907b31",
    ("lfu", "lru", True, 6): "47a7c85451c461a487512cc65ea48dbea3b04f50fa7950bec1f39d3d0e907b31",
    ("lfu", "lru", False, 32): "ae24b1be0757950e508971a8e08df9229f9181f7919cee2bab077d2b32cc3b53",
    ("lfu", "lru", False, 6): "ae24b1be0757950e508971a8e08df9229f9181f7919cee2bab077d2b32cc3b53",
    ("lfu", "lfu", True, 32): "79846a313bfce76b2fd3bd23c955caf1137c64636aca0f13a712def3ede64b9c",
    ("lfu", "lfu", True, 6): "79846a313bfce76b2fd3bd23c955caf1137c64636aca0f13a712def3ede64b9c",
    ("lfu", "lfu", False, 32): "f5270bc71f13987bac9733eb4a32e515ba380a7bd206c77888aeea48dc8acc35",
    ("lfu", "lfu", False, 6): "f5270bc71f13987bac9733eb4a32e515ba380a7bd206c77888aeea48dc8acc35",
    ("lfu", "hyperbolic", True, 32): "44e804eba62a0ece86dc81055c1e97fba56056fa8c0f553d31c527f2bf531355",
    ("lfu", "hyperbolic", True, 6): "a9cc98896ade7ca526477c52805cdc37d462c93eb259f21b32e9591db0f3140f",
    ("lfu", "hyperbolic", False, 32): "398ae061e62b4ac3eda364dceea2586d653384db327f0b1124c9750d1d6d606d",
    ("lfu", "hyperbolic", False, 6): "ecdb47dd189076890824ba175ba4b5ec3b2ea9e66e11ac1f72bd6c92296e956b",
    ("hyperbolic", "fifo", True, 32): "66f1f009f1ac205f40455c56b71e9fdd60e9ed10813d83ecd0c58a5ee00c593d",
    ("hyperbolic", "fifo", True, 6): "21eeb1471d423a8c797d32118b3e562c7c1fa8a0067cff8c273f5bcf72432294",
    ("hyperbolic", "fifo", False, 32): "2a29327f882828aebc67b378e61726116a4e2a8e3b15bffa49f94709360b0e41",
    ("hyperbolic", "fifo", False, 6): "c2313dea492e9a438f104a4c41b2e995cd5f1b4f0f67febfb80bdd323671e620",
    ("hyperbolic", "lru", True, 32): "f426ee787b3914c4bf60267f34f39081dc0836a429dc11a5139c6a32812165c1",
    ("hyperbolic", "lru", True, 6): "3a37edc60e45f9c6e20281955fbd8d9a6f532d009c60b316e626ec2963bd8a80",
    ("hyperbolic", "lru", False, 32): "7eae9d3930c7c9a9b58832605b2e3761d2206a29892f7ad9dd52da3af0062dde",
    ("hyperbolic", "lru", False, 6): "8560a0276badc32f33550a2a71632f36a4a69f656596c77f8afb4f77ae197ee4",
    ("hyperbolic", "lfu", True, 32): "907a56564b59ef012af086dc1c2c5229743ec2e0c4329468fdf6c854dbb2f392",
    ("hyperbolic", "lfu", True, 6): "d01593df438526397eb85744501eb87fd6186663391bd1c4d68755b56ab98ddd",
    ("hyperbolic", "lfu", False, 32): "62d62ce570de05c1c8f26ac618ed83362c93084233c02204a7d930535b8877f0",
    ("hyperbolic", "lfu", False, 6): "b0cd9b0d07c27580dfd6d71bc15521fb222ff6b2a354971aba2a56da3463dc8b",
    ("hyperbolic", "hyperbolic", True, 32): "b9d0b1a9e50528c3aea2088f8f6983adeab89693480477c15e727961f06f5ea6",
    ("hyperbolic", "hyperbolic", True, 6): "ad8e02322c60b7712777bc333fc562f9ed92686cd25f0b5599f49958742162b8",
    ("hyperbolic", "hyperbolic", False, 32): "8d6ee68006f82bf240c30a143e89e7861840f1ca03639497c215ed20a522b6b9",
    ("hyperbolic", "hyperbolic", False, 6): "b6d5b778161f8cddc7bec52db2b722a32f5c3b2e816b5783060e3a2025967942",
}


@pytest.mark.parametrize("policy, scn_bits, k, d", sorted(SINGLE_PINS))
def test_single_region_stream(policy, scn_bits, k, d):
    assert stream_digest(single_engine(policy, scn_bits, k, d), KEYS) == \
        SINGLE_PINS[policy, scn_bits, k, d]


@pytest.mark.parametrize("policy, scn_bits, k, d", sorted(SINGLE_STATE_PINS))
def test_single_region_final_state(policy, scn_bits, k, d):
    engine = single_engine(policy, scn_bits, k, d)
    for key in KEYS:
        engine.fetch(key)
    assert (state_digest(engine), engine_clock(engine)) == SINGLE_STATE_PINS[policy, scn_bits, k, d]


@pytest.mark.parametrize("window, main, use_filter, scn_bits", sorted(MULTI_PINS))
def test_two_region_stream(window, main, use_filter, scn_bits):
    assert stream_digest(multi_cache(window, main, use_filter, scn_bits), KEYS) == \
        MULTI_PINS[window, main, use_filter, scn_bits]


def test_pins_cover_every_case():
    assert len(SINGLE_PINS) == len(POLICIES) * len(GEOMETRIES) * len(SCN_WIDTHS)
    assert len(MULTI_PINS) == 2 * len(POLICIES) ** 2 * len(MULTI_SCN_WIDTHS)
    assert SINGLE_STATE_PINS.keys() == SINGLE_PINS.keys()


@pytest.mark.parametrize("policy", POLICIES)
def test_narrow_widths_fire_maintenance(policy):
    """At 4-bit SCNs the pinned streams run the rare paths: a clock restart
    for the LRU rescale and the hyperbolic halving, counted as the benchmark
    tracer counts a sweep, whenever the LRU clock or hyperbolic tick falls,
    and a hit that writes its SCN back unchanged for FIFO and for a saturated
    LFU or hyperbolic frequency."""
    engine = single_engine(policy, 4, 4, 4)
    store = engine.store
    sweeps = 0
    clock = engine_clock(engine)
    for key in KEYS:
        engine.fetch(key)
        sweeps += clock is not None and engine_clock(engine) < clock
        clock = engine_clock(engine)
    assert (sweeps > 10) == (policy in ("lru", "hyperbolic"))
    # an LRU hit writes the clock, which is above every stored SCN
    assert (store.unchanged_writes > 10) == (policy != "lru")
