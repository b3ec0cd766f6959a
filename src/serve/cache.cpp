#include "serve/cache.hpp"

#include <cstring>
#include <functional>
#include <mutex>
#include <new>
#include <utility>

namespace silicon::serve {

namespace {

/// One cached key/value pair.  It lives inside the control block of its
/// owning shared_ptr, with the key bytes appended after that block (see
/// trailing_allocator), so an entry is exactly one heap allocation.
struct entry {
    entry* prev = nullptr;  ///< toward the MRU end (null at the head)
    entry* next = nullptr;  ///< toward the LRU end (null at the tail)
    std::uint64_t hash;
    const char* key_data = nullptr;  ///< the block's trailing bytes
    std::size_t key_size = 0;
    std::string value;  ///< never mutated once published

    entry(std::uint64_t h, std::string v) : hash{h}, value{std::move(v)} {}

    [[nodiscard]] std::string_view key() const noexcept {
        return {key_data, key_size};
    }
};

/// Allocator that appends `extra` raw bytes to the object it allocates
/// and reports their address through `tail`.  std::allocate_shared
/// rebinds it to its control-block type and allocates exactly one of
/// those, so the key bytes land in the same block as the entry.
template <class T>
struct trailing_allocator {
    using value_type = T;

    std::size_t extra;
    char** tail;

    trailing_allocator(std::size_t e, char** t) noexcept : extra{e}, tail{t} {}
    template <class U>
    trailing_allocator(const trailing_allocator<U>& other) noexcept
        : extra{other.extra}, tail{other.tail} {}

    T* allocate(std::size_t n) {
        const std::size_t head = n * sizeof(T);
        char* p = static_cast<char*>(::operator new(head + extra));
        *tail = p + head;
        return reinterpret_cast<T*>(p);
    }
    void deallocate(T* p, std::size_t n) noexcept {
        ::operator delete(p, n * sizeof(T) + extra);
    }

    template <class U>
    bool operator==(const trailing_allocator<U>& other) const noexcept {
        return extra == other.extra;
    }
};

/// One index slot.  The slot's pointer is the cache's own reference to
/// the entry; an empty slot has no owner.
struct slot {
    std::uint64_t hash = 0;
    std::shared_ptr<entry> owner;
};

constexpr std::size_t npos = static_cast<std::size_t>(-1);
constexpr std::size_t min_slots = 16;

std::uint64_t hash_of(std::string_view key) noexcept {
    return std::hash<std::string_view>{}(key);
}

/// The high 32 hash bits scaled onto [0, shard_count): independent of
/// the low bits that pick the home slot inside the shard.
std::size_t shard_index(std::uint64_t h, std::size_t shard_count) noexcept {
    return static_cast<std::size_t>(((h >> 32) * shard_count) >> 32);
}

}  // namespace

struct alignas(64) memo_cache::shard {
    mutable std::mutex mutex;
    std::unique_ptr<slot[]> slots;  ///< power-of-two count, or none
    std::size_t mask = 0;           ///< slot count - 1
    std::size_t size = 0;
    entry* mru = nullptr;
    entry* lru = nullptr;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /// Slot holding `key`, or npos.  Key bytes are read only when the
    /// stored hash matches.
    [[nodiscard]] std::size_t find(std::uint64_t h,
                                   std::string_view key) const noexcept {
        if (!slots) {
            return npos;
        }
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const slot& s = slots[i];
            if (!s.owner) {
                return npos;
            }
            if (s.hash == h && s.owner->key() == key) {
                return i;
            }
        }
    }

    /// Slot holding the resident entry `e` (pointer compare only).
    [[nodiscard]] std::size_t locate(const entry* e) const noexcept {
        for (std::size_t i = e->hash & mask;; i = (i + 1) & mask) {
            if (slots[i].owner.get() == e) {
                return i;
            }
        }
    }

    /// Empty slot `i` by backward shift (no tombstones) and hand back
    /// the reference it held.
    std::shared_ptr<entry> erase_slot(std::size_t i) noexcept {
        std::shared_ptr<entry> out = std::move(slots[i].owner);
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask; slots[j].owner;
             j = (j + 1) & mask) {
            // Slot j may fill the hole iff the hole lies on its probe
            // path, i.e. is no closer to j than j's home slot.
            const std::size_t home = slots[j].hash & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
        }
        --size;
        return out;
    }

    /// Place a key known to be absent; grows the table first when the
    /// insertion would push the load factor past 3/4.
    void insert(std::uint64_t h, std::shared_ptr<entry> e) {
        if (!slots || (size + 1) * 4 > (mask + 1) * 3) {
            rehash(slots ? (mask + 1) * 2 : min_slots);
        }
        std::size_t i = h & mask;
        while (slots[i].owner) {
            i = (i + 1) & mask;
        }
        slots[i].hash = h;
        slots[i].owner = std::move(e);
        ++size;
    }

    void rehash(std::size_t count) {
        std::unique_ptr<slot[]> old = std::move(slots);
        const std::size_t old_count = old ? mask + 1 : 0;
        slots = std::make_unique<slot[]>(count);
        mask = count - 1;
        for (std::size_t j = 0; j < old_count; ++j) {
            if (old[j].owner) {
                std::size_t i = old[j].hash & mask;
                while (slots[i].owner) {
                    i = (i + 1) & mask;
                }
                slots[i] = std::move(old[j]);
            }
        }
    }

    void link_front(entry* e) noexcept {
        e->prev = nullptr;
        e->next = mru;
        (mru != nullptr ? mru->prev : lru) = e;
        mru = e;
    }

    void unlink(entry* e) noexcept {
        (e->prev != nullptr ? e->prev->next : mru) = e->next;
        (e->next != nullptr ? e->next->prev : lru) = e->prev;
    }

    /// A hit: count it, promote to MRU, hand out an aliasing handle to
    /// the value.  Null on a miss (not counted here).
    std::shared_ptr<const std::string> hit(std::uint64_t h,
                                           std::string_view key) {
        const std::size_t i = find(h, key);
        if (i == npos) {
            return nullptr;
        }
        ++hits;
        const std::shared_ptr<entry>& owner = slots[i].owner;
        if (owner.get() != mru) {
            unlink(owner.get());
            link_front(owner.get());
        }
        return {owner, &owner->value};
    }

    /// Detach every entry; the caller destroys the returned table
    /// outside the lock.  Handles readers hold stay valid.
    std::unique_ptr<slot[]> release() noexcept {
        size = 0;
        mask = 0;
        mru = nullptr;
        lru = nullptr;
        return std::move(slots);
    }
};

memo_cache::memo_cache(std::size_t capacity, std::size_t shards)
    : capacity_{capacity} {
    if (capacity_ == 0) {
        return;
    }
    shard_count_ = shards == 0 ? 1 : shards;
    if (shard_count_ > capacity_) {
        shard_count_ = capacity_;
    }
    per_shard_capacity_ = (capacity_ + shard_count_ - 1) / shard_count_;
    shards_ = std::make_unique<shard[]>(shard_count_);
}

memo_cache::~memo_cache() = default;

std::size_t memo_cache::shard_of(std::string_view key) const noexcept {
    return shard_index(hash_of(key), shard_count_);
}

std::shared_ptr<const std::string> memo_cache::get(std::string_view key) {
    if (!shards_) {
        disabled_misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    const std::uint64_t h = hash_of(key);
    shard& s = shards_[shard_index(h, shard_count_)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto found = s.hit(h, key);
    if (found == nullptr) {
        ++s.misses;
    }
    return found;
}

std::shared_ptr<const std::string> memo_cache::get_if_present(
    std::string_view key) {
    if (!shards_) {
        return nullptr;
    }
    const std::uint64_t h = hash_of(key);
    shard& s = shards_[shard_index(h, shard_count_)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.hit(h, key);
}

void memo_cache::put(std::string_view key, std::string value) {
    if (!shards_) {
        return;
    }
    const std::uint64_t h = hash_of(key);
    shard& s = shards_[shard_index(h, shard_count_)];

    // Build the whole entry before taking the lock: one allocation.
    char* tail = nullptr;
    auto fresh = std::allocate_shared<entry>(
        trailing_allocator<entry>{key.size(), &tail}, h, std::move(value));
    if (!key.empty()) {
        std::memcpy(tail, key.data(), key.size());
    }
    fresh->key_data = tail;
    fresh->key_size = key.size();
    entry* e = fresh.get();

    // Declared before the lock so a displaced entry is destroyed (when
    // no reader holds it) after the lock is released.
    std::shared_ptr<entry> displaced;
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (const std::size_t i = s.find(h, key); i != npos) {
        // Refresh: the new block takes the old one's slot and goes to
        // MRU; readers of the old value keep the old block.
        s.unlink(s.slots[i].owner.get());
        displaced = std::exchange(s.slots[i].owner, std::move(fresh));
        s.link_front(e);
        return;
    }
    if (s.size >= per_shard_capacity_) {
        entry* victim = s.lru;
        s.unlink(victim);
        displaced = s.erase_slot(s.locate(victim));
        ++s.evictions;
    }
    s.insert(h, std::move(fresh));
    s.link_front(e);
}

std::size_t memo_cache::shed_shards(std::size_t count) {
    if (count > shard_count_) {
        count = shard_count_;
    }
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < count; ++i) {
        shard& s = shards_[i];
        std::unique_ptr<slot[]> table;  // freed after the lock drops
        const std::lock_guard<std::mutex> lock(s.mutex);
        dropped += s.size;
        s.evictions += s.size;
        table = s.release();
    }
    return dropped;
}

void memo_cache::clear() {
    for (std::size_t i = 0; i < shard_count_; ++i) {
        shard& s = shards_[i];
        std::unique_ptr<slot[]> table;  // freed after the lock drops
        const std::lock_guard<std::mutex> lock(s.mutex);
        table = s.release();
    }
}

std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
memo_cache::shard_snapshot(std::size_t index) const {
    std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
        out;
    if (index >= shard_count_) {
        return out;
    }
    const shard& s = shards_[index];
    const std::lock_guard<std::mutex> lock(s.mutex);
    out.reserve(s.size);
    for (const entry* e = s.lru; e != nullptr; e = e->prev) {
        const std::shared_ptr<entry>& owner = s.slots[s.locate(e)].owner;
        out.emplace_back(std::string{e->key()},
                         std::shared_ptr<const std::string>{owner,
                                                            &owner->value});
    }
    return out;
}

memo_cache::stats memo_cache::snapshot() const {
    stats out;
    out.capacity = capacity_;
    out.shards = shard_count_;
    out.misses = disabled_misses_.load(std::memory_order_relaxed);
    out.shard_entries.reserve(shard_count_);
    for (std::size_t i = 0; i < shard_count_; ++i) {
        const shard& s = shards_[i];
        const std::lock_guard<std::mutex> lock(s.mutex);
        out.hits += s.hits;
        out.misses += s.misses;
        out.evictions += s.evictions;
        out.entries += s.size;
        out.shard_entries.push_back(s.size);
    }
    return out;
}

}  // namespace silicon::serve
