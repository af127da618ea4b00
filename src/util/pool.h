/**
 * @file
 * Chunked object pool: slab-allocates storage for T in fixed-size
 * chunks and recycles destroyed objects through an intrusive free
 * list, so steady-state create/destroy churn (prefix-tree block nodes
 * under LRU eviction, queue nodes under preemption re-entry) costs a
 * pointer pop instead of a malloc.
 *
 * Determinism note: the pool changes only *where* objects live, never
 * what they contain or in which order the owning data structure visits
 * them — every container built on it orders by content or history
 * (token blocks, release stamps, arrival times, ids), never by
 * address — so pooled and heap-allocated runs are bit-identical. Not
 * thread-safe; one pool per owning structure, same as the structures
 * themselves.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace specontext {
namespace util {

/** Lifetime counters of one pool (self-bench material). */
struct PoolStats
{
    int64_t constructed = 0; ///< create() calls
    int64_t destroyed = 0;   ///< destroy() calls
    int64_t reused = 0;      ///< create() served from the free list
    int64_t chunks = 0;      ///< slabs obtained from the system
};

/** Slab pool with an intrusive free list; objects of exactly T. */
template <typename T, size_t ChunkObjects = 256>
class Pool
{
    static_assert(ChunkObjects > 0, "Pool: empty chunk");

  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Placement-construct a T; storage comes from the free list when
     *  possible, else from the current slab (a new slab is started
     *  when it is full). */
    template <typename... Args>
    T *create(Args &&...args)
    {
        void *slot;
        if (free_) {
            FreeSlot *head = free_;
            free_ = head->next;
            slot = head;
            ++stats_.reused;
        } else {
            if (next_in_chunk_ == ChunkObjects) {
                chunks_.push_back(
                    std::make_unique<Storage[]>(ChunkObjects));
                next_in_chunk_ = 0;
                ++stats_.chunks;
            }
            slot = &chunks_.back()[next_in_chunk_++];
        }
        ++stats_.constructed;
        return ::new (slot) T(std::forward<Args>(args)...);
    }

    /** Destroy a pool-created T and recycle its slot. Null is a no-op. */
    void destroy(T *obj)
    {
        if (!obj)
            return;
        obj->~T();
        auto *slot = reinterpret_cast<FreeSlot *>(obj);
        slot->next = free_;
        free_ = slot;
        ++stats_.destroyed;
    }

    /** Live objects (created minus destroyed). */
    int64_t liveObjects() const
    {
        return stats_.constructed - stats_.destroyed;
    }

    const PoolStats &stats() const { return stats_; }

  private:
    struct FreeSlot
    {
        FreeSlot *next;
    };
    using Storage =
        typename std::aligned_storage<sizeof(T) < sizeof(FreeSlot)
                                          ? sizeof(FreeSlot)
                                          : sizeof(T),
                                      alignof(T) < alignof(FreeSlot)
                                          ? alignof(FreeSlot)
                                          : alignof(T)>::type;

    std::vector<std::unique_ptr<Storage[]>> chunks_;
    size_t next_in_chunk_ = ChunkObjects; ///< current slab cursor
    FreeSlot *free_ = nullptr;
    PoolStats stats_;
};

} // namespace util
} // namespace specontext
