/**
 * @file
 * Shared-prefix KV cache model: a per-replica radix tree over token-id
 * sequences with block-granular nodes, reference counts and LRU
 * eviction under a byte budget — the memory-side model behind
 * prefix-affinity routing (serving::RouterPolicy::PrefixAffinity).
 *
 * Production traffic is dominated by requests that share long prompt
 * prefixes (system prompts, few-shot templates, multi-turn history).
 * A replica that still holds the KV blocks of a previously served
 * prefix can skip prefill for the matched tokens entirely; what it
 * pays instead is HBM residency for the cached blocks, which competes
 * with live KV headroom. This tree models exactly that trade:
 *
 *  - Nodes are page-size-aligned token blocks (vLLM-style): only
 *    complete blocks are cached, so a match is always block-aligned
 *    and maps one-to-one onto paged KV storage.
 *  - match(tokens) returns the longest cached block-aligned prefix
 *    and the HBM bytes it occupies; it never mutates the tree.
 *  - insert(tokens) pins (refcounts) the cached prefix path and
 *    extends it with the remaining full blocks while the byte budget
 *    lasts, returning a handle the caller releases at retirement.
 *    Pinned nodes are never evicted — they are the KV of an in-flight
 *    request and freeing them would fabricate memory.
 *  - release(handle) unpins the path and stamps it with a logical
 *    LRU timestamp; unreferenced leaves are then evictable,
 *    bottom-up, least-recently-released first. Evictable leaves sit
 *    in an indexed min-heap keyed by that stamp, so admission,
 *    release and each eviction cost O(log n) in the cached blocks,
 *    never a scan of the tree.
 *  - setBudget() re-clamps the budget (the serving layer shrinks it
 *    to the HBM headroom left by live KV reservations, priced through
 *    sim::MemoryModel); shrinking evicts unreferenced subtrees
 *    immediately. Budget 0 disables the cache entirely.
 *
 * Everything is deterministic: LRU stamps come from a logical counter
 * and no two evictable leaves ever share one (see evictOne()), so the
 * victim never depends on how children are stored — they are kept
 * unordered — and identical operation sequences give identical trees,
 * matches and evictions.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/pool.h"

namespace specontext {
namespace kv {

/**
 * Observability hooks of one tree (all optional): eviction events go
 * to `trace` stamped with `*clock` (the owning replica's simulated
 * time — the tree itself has no clock) and the lifetime
 * evicted-token counter publishes into `counters` under
 * `replica<replica>.prefix_evicted_tokens`. Pointers are non-owning
 * and must outlive the tree.
 */
struct PrefixTreeObserver
{
    obs::Trace *trace = nullptr;
    obs::CounterRegistry *counters = nullptr;
    int32_t replica = -1;
    const double *clock = nullptr;
};

/** Construction knobs of one replica's prefix cache. */
struct PrefixTreeConfig
{
    /** Tokens per cached block; matches are aligned to this. */
    int64_t page_size = 16;
    /** HBM bytes one cached token occupies (KV across all layers). */
    int64_t bytes_per_token = 0;
    /** Byte budget for cached blocks; 0 disables the cache. */
    int64_t budget_bytes = 0;
    /** Route node storage through the slab pool (default). Off = one
     *  new/delete per block — the allocator-backed reference the
     *  pooled mode is parity-tested against. The pool changes only
     *  where nodes live, never any simulated quantity. */
    bool pooled = true;
};

/** Outcome of one longest-prefix lookup. */
struct PrefixMatch
{
    int64_t hit_tokens = 0;     ///< cached block-aligned prefix length
    int64_t reserved_bytes = 0; ///< hit_tokens * bytes_per_token
};

/**
 * Pin on an inserted prefix path; obtained from insert(), returned to
 * release(). A default-constructed handle is a no-op to release.
 */
class PrefixHandle
{
  public:
    PrefixHandle() = default;

    /** A move clears the source, so releasing a moved-from handle is
     *  a no-op. Copies are still allowed (the benchmark's prefix-tree
     *  replay, specbench/src/fleet.cc, copy-assigns one), but a copy
     *  is a second live handle on the same pin: release only one. */
    PrefixHandle(const PrefixHandle &) = default;
    PrefixHandle &operator=(const PrefixHandle &) = default;
    PrefixHandle(PrefixHandle &&other) noexcept { *this = std::move(other); }
    PrefixHandle &operator=(PrefixHandle &&other) noexcept
    {
        if (this == &other)
            return *this;
        node_ = other.node_;
        pinned_tokens_ = other.pinned_tokens_;
        other.node_ = nullptr;
        other.pinned_tokens_ = 0;
        return *this;
    }

    /** Tokens of the path this handle pins (block-aligned). */
    int64_t pinnedTokens() const { return pinned_tokens_; }

  private:
    friend class PrefixTree;
    void *node_ = nullptr; ///< deepest pinned node
    int64_t pinned_tokens_ = 0;
};

/**
 * Outcome of one combined match-and-pin traversal — the fused form of
 * the admission sequence that used to take three separate tree walks
 * (new-block estimate, post-resize hit lookup, insert).
 */
struct MatchAndPinResult
{
    /** Cached prefix found *before* the resize callback ran — the
     *  "new-block estimate" of the legacy three-walk admission path
     *  (estimate.hit_tokens tokens of the prompt are already
     *  resident, so only the remaining full blocks are new). */
    PrefixMatch estimate;
    /** Cached prefix actually pinned, re-read after the callback (a
     *  budget shrink inside it may have evicted part of the
     *  estimate); equals `estimate` when no callback evicted. */
    PrefixMatch match;
    /** Pin on the full inserted path (match + newly created blocks);
     *  must be release()d exactly once. */
    PrefixHandle handle;
};

/** Radix tree of cached prompt-prefix KV blocks. */
class PrefixTree
{
  public:
    /**
     * @throws std::invalid_argument on non-positive page_size, a
     * negative budget, or an enabled cache (budget > 0) with
     * non-positive bytes_per_token.
     */
    explicit PrefixTree(PrefixTreeConfig cfg);
    ~PrefixTree();

    PrefixTree(const PrefixTree &) = delete;
    PrefixTree &operator=(const PrefixTree &) = delete;

    const PrefixTreeConfig &config() const { return cfg_; }

    /** False when the budget is 0 — every operation is then a no-op. */
    bool enabled() const { return cfg_.budget_bytes > 0; }

    /** Attach observability hooks (see PrefixTreeObserver); resolves
     *  counter slots once. Call before the first insert/eviction. */
    void setObserver(const PrefixTreeObserver &observer);

    /** Longest cached block-aligned prefix of `tokens`. Read-only. */
    PrefixMatch match(const std::vector<int32_t> &tokens) const;

    /**
     * Pin the cached prefix of `tokens` and insert its remaining full
     * blocks while the budget lasts (evicting unreferenced LRU leaves
     * to make room; pinned nodes are never evicted, so the path may
     * stop short of the full prompt when the budget is exhausted).
     * The returned handle must be release()d exactly once.
     */
    PrefixHandle insert(const std::vector<int32_t> &tokens);

    /**
     * Combined admission traversal: match the cached prefix of
     * `tokens`, hand the pre-resize match to `resize` (the serving
     * layer re-clamps the budget there, which may evict), then pin the
     * surviving prefix and extend it with the remaining full blocks —
     * insert() semantics — all in one walk. Bit-for-bit equivalent to
     * the legacy three-walk sequence match() -> resize -> match() ->
     * insert(): the matched node path is remembered across the
     * callback and re-walked from the root only when the callback
     * actually evicted (so held nodes can never dangle).
     * With the cache disabled after the callback, nothing is pinned
     * and the returned handle is a no-op to release.
     */
    MatchAndPinResult matchAndPin(
        const std::vector<int32_t> &tokens,
        const std::function<void(const PrefixMatch &estimate)> &resize =
            nullptr);

    /** Unpin a handle's path and stamp it least-recently-used; the
     *  budget is re-enforced afterwards. Safe on a default-constructed
     *  handle; the handle is cleared (double release is a no-op). */
    void release(PrefixHandle &handle);

    /**
     * Re-clamp the byte budget (>= 0) and evict unreferenced LRU
     * subtrees down to it. Pinned bytes can keep residency above a
     * shrunken budget until their handles are released; insertions
     * never start new blocks past the budget.
     */
    void setBudget(int64_t budget_bytes);

    // ---- Accounting --------------------------------------------------

    /** Bytes of cached KV currently resident. */
    int64_t bytes() const { return resident_tokens_ * cfg_.bytes_per_token; }

    /** Tokens of cached KV currently resident. */
    int64_t residentTokens() const { return resident_tokens_; }

    /** Tokens of resident blocks pinned by at least one live handle —
     *  the prompt KV of in-flight requests. Callers that already book
     *  that KV elsewhere (admission reservations) can add
     *  pinnedBytes() to the budget so one physical copy is not
     *  charged twice. */
    int64_t pinnedTokens() const { return pinned_tokens_; }

    /** pinnedTokens() priced in bytes. */
    int64_t pinnedBytes() const
    {
        return pinned_tokens_ * cfg_.bytes_per_token;
    }

    /** Cached blocks (tree nodes, root excluded). */
    int64_t nodeCount() const { return node_count_; }

    /** Tokens evicted over the tree's lifetime. */
    int64_t evictedTokens() const { return evicted_tokens_; }

    /** Tokens inserted (new blocks created) over the tree's lifetime. */
    int64_t insertedTokens() const { return inserted_tokens_; }

    /** Node-pool lifetime counters: block churn under LRU eviction is
     *  served from the pool's free list instead of the allocator. */
    const util::PoolStats &poolStats() const;

  private:
    struct Node;

    PrefixTreeConfig cfg_;
    /** All nodes (root included) live in the pool; eviction recycles
     *  their slots, so steady-state block churn reuses node storage
     *  instead of going to the allocator. */
    std::unique_ptr<util::Pool<Node>> pool_;
    Node *root_ = nullptr;
    int64_t resident_tokens_ = 0;
    int64_t pinned_tokens_ = 0;
    int64_t node_count_ = 0;
    int64_t evicted_tokens_ = 0;
    int64_t inserted_tokens_ = 0;
    uint64_t lru_clock_ = 0; ///< logical time, bumped on release
    /** Bumped on every eviction; matchAndPin() uses it to detect that
     *  a node path held across the resize callback may have become
     *  stale and must be re-walked. */
    uint64_t eviction_epoch_ = 0;
    /** Binary min-heap on Node::last_use of the evictable nodes; a
     *  node is here exactly when it is non-root, unpinned
     *  (refcount 0) and childless. Node::heap_pos is its index. */
    std::vector<Node *> heap_;
    PrefixTreeObserver observer_;
    obs::CounterRegistry::Handle evicted_counter_ = 0;

    /** Node storage, honoring cfg_.pooled: slab pool or new/delete. */
    Node *newNode();
    void freeNode(Node *n);

    /** Walk the cached block-aligned prefix of `tokens`; returns the
     *  deepest matched node (root_ when nothing matched) and, when
     *  `path` is given, appends the matched nodes (root excluded). */
    Node *walkMatch(const std::vector<int32_t> &tokens,
                    std::vector<Node *> *path) const;

    /** Evict unreferenced LRU leaves until bytes() <= budget. */
    void enforceBudget();

    /** Evict the least-recently-released unreferenced leaf; false when
     *  nothing is evictable. */
    bool evictOne();

    // Indexed-heap maintenance (heap_ / Node::heap_pos).
    void heapPush(Node *n);
    void heapErase(Node *n);
    void heapSiftUp(size_t i);
    void heapSiftDown(size_t i);
};

} // namespace kv
} // namespace specontext
