#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using silicon::serve::memo_cache;

TEST(MemoCache, MissThenHit) {
    memo_cache cache{8, 1};
    EXPECT_EQ(cache.get("k"), nullptr);
    cache.put("k", "v");
    const auto hit = cache.get("k");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, "v");

    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(MemoCache, EvictsLeastRecentlyUsed) {
    memo_cache cache{2, 1};
    cache.put("a", "1");
    cache.put("b", "2");
    ASSERT_NE(cache.get("a"), nullptr);  // "a" is now most recent
    cache.put("c", "3");                 // evicts "b"

    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);

    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(MemoCache, PutRefreshesExistingKey) {
    memo_cache cache{2, 1};
    cache.put("a", "1");
    cache.put("b", "2");
    cache.put("a", "updated");  // refresh, not insert: no eviction
    cache.put("c", "3");        // evicts "b" (LRU after the refresh)

    EXPECT_EQ(cache.get("b"), nullptr);
    const auto a = cache.get("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, "updated");
    EXPECT_EQ(cache.snapshot().evictions, 1u);
}

TEST(MemoCache, HitSurvivesEviction) {
    memo_cache cache{1, 1};
    cache.put("a", "payload");
    const std::shared_ptr<const std::string> held = cache.get("a");
    cache.put("b", "evicts a");
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_EQ(*held, "payload");  // shared_ptr keeps the value alive
}

TEST(MemoCache, ZeroCapacityDisables) {
    memo_cache cache{0};
    cache.put("k", "v");
    EXPECT_EQ(cache.get("k"), nullptr);
    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.capacity, 0u);
}

TEST(MemoCache, ClearDropsEntriesKeepsCounters) {
    memo_cache cache{8, 2};
    cache.put("a", "1");
    cache.put("b", "2");
    (void)cache.get("a");
    cache.clear();
    EXPECT_EQ(cache.get("a"), nullptr);
    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(MemoCache, ShardsClampedToCapacity) {
    memo_cache cache{2, 16};
    EXPECT_EQ(cache.snapshot().shards, 2u);
    // With many shards the entry budget still holds overall.
    memo_cache wide{64, 16};
    EXPECT_EQ(wide.snapshot().shards, 16u);
    EXPECT_EQ(wide.snapshot().capacity, 64u);
}

TEST(MemoCache, ManyInsertsRespectBudget) {
    constexpr std::size_t capacity = 32;
    memo_cache cache{capacity, 4};
    for (int i = 0; i < 1000; ++i) {
        cache.put("key" + std::to_string(i), std::to_string(i));
    }
    const memo_cache::stats s = cache.snapshot();
    // Per-shard rounding may allow up to shards-1 extra entries.
    EXPECT_LE(s.entries, capacity + s.shards - 1);
    EXPECT_GE(s.evictions, 1000u - (capacity + s.shards - 1));
}

// ---------------------------------------------------------------------------
// Values and handle lifetime at the edges
// ---------------------------------------------------------------------------

TEST(MemoCache, EmptyValueIsAHitNotAMiss) {
    memo_cache cache{4, 1};
    cache.put("k", "");
    const auto hit = cache.get("k");
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->empty());
    EXPECT_EQ(cache.snapshot().hits, 1u);
}

TEST(MemoCache, MebibyteValuesRoundTripAndEvict) {
    memo_cache cache{2, 1};
    const std::string big_a(std::size_t{1} << 20, 'a');
    std::string big_b(std::size_t{1} << 20, 'b');
    big_b.back() = 'z';
    cache.put("a", big_a);
    cache.put("b", big_b);
    const auto a = cache.get("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, big_a);
    const auto b = cache.get("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*b, big_b);
    (void)cache.get("a");                                    // "b" is LRU
    cache.put("c", std::string(std::size_t{1} << 20, 'c'));  // evicts "b"
    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_EQ(*a, big_a);
    EXPECT_EQ(*b, big_b);
    EXPECT_EQ(cache.snapshot().evictions, 1u);
}

TEST(MemoCache, HeldHitSurvivesEvictionShedAndClear) {
    memo_cache cache{4, 2};
    const std::string payload(300, 'p');
    cache.put("evicted", payload);
    const auto by_eviction = cache.get("evicted");
    for (int i = 0; i < 64; ++i) {
        cache.put("filler" + std::to_string(i), std::string(200, 'f'));
    }
    ASSERT_EQ(cache.get_if_present("evicted"), nullptr);

    cache.put("shed", payload);
    const auto by_shed = cache.get("shed");
    const std::size_t resident = cache.snapshot().entries;
    EXPECT_EQ(cache.shed_shards(cache.shard_count()), resident);
    ASSERT_EQ(cache.get_if_present("shed"), nullptr);

    cache.put("cleared", payload);
    const auto by_clear = cache.get("cleared");
    const auto snap = cache.shard_snapshot(cache.shard_of("cleared"));
    cache.clear();
    ASSERT_EQ(cache.get_if_present("cleared"), nullptr);

    ASSERT_NE(by_eviction, nullptr);
    ASSERT_NE(by_shed, nullptr);
    ASSERT_NE(by_clear, nullptr);
    EXPECT_EQ(*by_eviction, payload);
    EXPECT_EQ(*by_shed, payload);
    EXPECT_EQ(*by_clear, payload);
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap.back().first, "cleared");
    EXPECT_EQ(*snap.back().second, payload);  // snapshot handles too
}

TEST(MemoCache, RefreshLeavesHeldValueIntact) {
    memo_cache cache{4, 1};
    cache.put("k", "old");
    const auto before = cache.get("k");
    cache.put("k", "new");
    ASSERT_NE(before, nullptr);
    EXPECT_EQ(*before, "old");  // a refresh never mutates a published value
    EXPECT_EQ(*cache.get("k"), "new");
    EXPECT_EQ(cache.snapshot().entries, 1u);
}

// ---------------------------------------------------------------------------
// Differential test against a reference LRU model
// ---------------------------------------------------------------------------

/// The documented contract, written the obvious way: shards =
/// min(max(requested, 1), capacity), each an independent LRU of
/// ceil(capacity / shards) entries (a std::list, MRU at the front,
/// plus a map); the cache decides only which shard a key lives in.
class reference_lru {
public:
    reference_lru(std::size_t capacity, std::size_t requested_shards)
        : shards_{std::min(std::max<std::size_t>(requested_shards, 1),
                           capacity)},
          per_shard_{(capacity + shards_ - 1) / shards_},
          lru_(shards_),
          index_(shards_) {}

    /// get (count_miss) or get_if_present (!count_miss).
    const std::string* get(std::size_t shard, const std::string& key,
                           bool count_miss) {
        const auto it = index_[shard].find(key);
        if (it == index_[shard].end()) {
            misses_ += count_miss ? 1 : 0;
            return nullptr;
        }
        ++hits_;
        lru_[shard].splice(lru_[shard].begin(), lru_[shard], it->second);
        return &it->second->second;
    }

    void put(std::size_t shard, const std::string& key, std::string value) {
        auto& list = lru_[shard];
        auto& index = index_[shard];
        if (const auto it = index.find(key); it != index.end()) {
            it->second->second = std::move(value);
            list.splice(list.begin(), list, it->second);
            return;
        }
        if (list.size() >= per_shard_) {
            index.erase(list.back().first);
            list.pop_back();
            ++evictions_;
        }
        list.emplace_front(key, std::move(value));
        index.emplace(key, list.begin());
    }

    std::size_t shed(std::size_t count) {
        std::size_t dropped = 0;
        for (std::size_t i = 0; i < std::min(count, shards_); ++i) {
            dropped += lru_[i].size();
            lru_[i].clear();
            index_[i].clear();
        }
        evictions_ += dropped;
        return dropped;
    }

    void clear() {
        for (std::size_t i = 0; i < shards_; ++i) {
            lru_[i].clear();
            index_[i].clear();
        }
    }

    /// Shard `i` from least to most recently used.
    std::vector<std::pair<std::string, std::string>> order(
        std::size_t i) const {
        return {lru_[i].rbegin(), lru_[i].rend()};
    }

    void expect_stats_match(const memo_cache::stats& s) const {
        ASSERT_EQ(s.shards, shards_);
        EXPECT_EQ(s.hits, hits_);
        EXPECT_EQ(s.misses, misses_);
        EXPECT_EQ(s.evictions, evictions_);
        std::size_t entries = 0;
        for (std::size_t i = 0; i < shards_; ++i) {
            EXPECT_EQ(s.shard_entries[i], lru_[i].size()) << "shard " << i;
            entries += lru_[i].size();
        }
        EXPECT_EQ(s.entries, entries);
    }

    [[nodiscard]] std::size_t shards() const { return shards_; }

private:
    using list_type = std::list<std::pair<std::string, std::string>>;
    std::size_t shards_;
    std::size_t per_shard_;
    std::vector<list_type> lru_;
    std::vector<std::map<std::string, list_type::iterator>> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

void expect_orders_match(const memo_cache& cache, const reference_lru& ref,
                         std::uint64_t op) {
    for (std::size_t i = 0; i < ref.shards(); ++i) {
        const auto got = cache.shard_snapshot(i);
        const auto want = ref.order(i);
        ASSERT_EQ(got.size(), want.size()) << "shard " << i << " op " << op;
        for (std::size_t j = 0; j < got.size(); ++j) {
            ASSERT_EQ(got[j].first, want[j].first)
                << "shard " << i << " pos " << j << " op " << op;
            ASSERT_EQ(*got[j].second, want[j].second)
                << "shard " << i << " pos " << j << " op " << op;
        }
    }
}

TEST(MemoCacheDifferential, MatchesReferenceLruExactly) {
    // 12 geometries x 16,384 seeded operations = 196,608 operations.
    constexpr std::uint64_t kOpsPerGeometry = 16384;
    std::uint64_t seed = 0x5eed;
    for (const std::size_t capacity : {1, 2, 7, 64}) {
        for (const std::size_t shards : {1, 3, 16}) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         " shards " + std::to_string(shards));
            memo_cache cache{capacity, shards};
            reference_lru ref{capacity, shards};
            ASSERT_EQ(cache.shard_count(), ref.shards());
            std::mt19937_64 rng{++seed};
            // Keys: ~2.5x the budget so hits, misses and evictions all
            // happen; lengths cross the small-string boundary, and the
            // empty key is one of them.
            std::vector<std::string> keys{""};
            for (std::size_t k = 1; k < capacity * 5 / 2 + 3; ++k) {
                keys.push_back("key-" + std::to_string(k) +
                               std::string(k % 3 == 0 ? 120 : k % 7, 'x'));
            }
            for (std::uint64_t op = 0; op < kOpsPerGeometry; ++op) {
                const std::string& key = keys[rng() % keys.size()];
                const std::size_t shard = cache.shard_of(key);
                ASSERT_LT(shard, ref.shards());
                const unsigned roll = static_cast<unsigned>(rng() % 1000);
                if (roll < 550) {
                    const bool count_miss = roll < 350;
                    const auto got = count_miss ? cache.get(key)
                                                : cache.get_if_present(key);
                    const std::string* want = ref.get(shard, key, count_miss);
                    ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
                    if (got != nullptr) {
                        ASSERT_EQ(*got, *want) << "op " << op;
                    }
                } else if (roll < 990) {
                    // Value bytes depend on the op, so a refresh really
                    // changes them; every 16th value is empty.
                    std::string value =
                        op % 16 == 0
                            ? std::string{}
                            : "v" + std::to_string(op) +
                                  std::string(rng() % 40, 'y');
                    cache.put(key, value);
                    ref.put(shard, key, std::move(value));
                } else if (roll < 996) {
                    const std::size_t count = rng() % (ref.shards() + 2);
                    ASSERT_EQ(cache.shed_shards(count), ref.shed(count))
                        << "op " << op;
                } else {
                    cache.clear();
                    ref.clear();
                }
                ref.expect_stats_match(cache.snapshot());
                if (op % 61 == 0) {
                    expect_orders_match(cache, ref, op);
                }
                if (HasFatalFailure() || HasNonfatalFailure()) {
                    FAIL() << "diverged at op " << op;
                }
            }
            expect_orders_match(cache, ref, kOpsPerGeometry);
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrency stress (meaningful under the TSan and ASan builds)
// ---------------------------------------------------------------------------

/// A key's one and only value, so any hit is checkable.
std::string stress_value(const std::string& key) {
    return key + std::string(48 + key.size() % 64, '#');
}

TEST(MemoCacheStress, ConcurrentReadersKeepHandlesAcrossEvictions) {
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 20000;
    memo_cache cache{64, 4};
    std::atomic<std::uint64_t> bad_bytes{0};
    std::atomic<std::uint64_t> hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::mt19937_64 rng{static_cast<std::uint64_t>(t) + 1};
            // Handles kept alive across other threads' evictions, with
            // the bytes they must still show when read back.
            std::vector<std::pair<std::shared_ptr<const std::string>,
                                  std::string>>
                held(16);
            std::uint64_t local_hits = 0;
            for (int op = 0; op < kOpsPerThread; ++op) {
                const std::string key = "k" + std::to_string(rng() % 200);
                const unsigned roll = static_cast<unsigned>(rng() % 100);
                if (roll < 45) {
                    auto hit = roll % 2 == 0 ? cache.get(key)
                                             : cache.get_if_present(key);
                    if (hit != nullptr) {
                        ++local_hits;
                        if (*hit != stress_value(key)) {
                            bad_bytes.fetch_add(1);
                        }
                        held[rng() % held.size()] = {std::move(hit), key};
                    }
                } else if (roll < 90) {
                    cache.put(key, stress_value(key));
                } else if (roll < 93) {
                    cache.shed_shards(1 + rng() % 4);
                } else {
                    for (const auto& [k, v] :
                         cache.shard_snapshot(rng() % cache.shard_count())) {
                        if (*v != stress_value(k)) {
                            bad_bytes.fetch_add(1);
                        }
                    }
                }
                // Read a held handle back: its entry may be long gone
                // from the cache, its bytes may not be.
                const auto& [handle, k] = held[rng() % held.size()];
                if (handle != nullptr && *handle != stress_value(k)) {
                    bad_bytes.fetch_add(1);
                }
            }
            hits.fetch_add(local_hits);
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(bad_bytes.load(), 0u);
    EXPECT_GT(hits.load(), 0u);
    const memo_cache::stats s = cache.snapshot();
    EXPECT_LE(s.entries, 64u);
    EXPECT_EQ(s.hits, hits.load());
}

}  // namespace
