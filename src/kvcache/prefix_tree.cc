#include "kvcache/prefix_tree.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace specontext {
namespace kv {

/**
 * One cached block: its own token ids, an unordered child list (a
 * lookup scans it on the first token and confirms with memcmp), and
 * its slot in the evictable-leaf heap.
 */
struct PrefixTree::Node
{
    struct Child
    {
        int32_t first; ///< child->tokens[0], kept here for the scan
        Node *node;
    };

    Node *parent = nullptr;
    /** Raw pointers: node lifetime is owned by the tree's Pool, so
     *  eviction recycles slots instead of freeing them. Siblings
     *  always hold distinct blocks. */
    std::vector<Child> children;
    std::vector<int32_t> tokens; ///< this block's page_size token ids
    int64_t refcount = 0;     ///< in-flight requests pinning this block
    uint64_t last_use = 0;    ///< lru_clock_ at the last release
    int64_t depth_tokens = 0; ///< tokens from root through this block
    int64_t heap_pos = -1;    ///< index in heap_; -1 when not evictable
};

PrefixTree::PrefixTree(PrefixTreeConfig cfg) : cfg_(cfg)
{
    if (cfg_.page_size <= 0)
        throw std::invalid_argument("PrefixTree: non-positive page_size");
    if (cfg_.budget_bytes < 0)
        throw std::invalid_argument("PrefixTree: negative budget");
    if (cfg_.budget_bytes > 0 && cfg_.bytes_per_token <= 0)
        throw std::invalid_argument(
            "PrefixTree: enabled cache needs positive bytes_per_token");
    pool_ = std::make_unique<util::Pool<Node>>();
    root_ = newNode();
}

PrefixTree::~PrefixTree()
{
    // Iterative, to keep deep chains off the call stack.
    std::vector<Node *> stack = {root_};
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        for (const Node::Child &c : n->children)
            stack.push_back(c.node);
        freeNode(n);
    }
}

PrefixTree::Node *
PrefixTree::newNode()
{
    return cfg_.pooled ? pool_->create() : new Node();
}

void
PrefixTree::freeNode(Node *n)
{
    if (cfg_.pooled)
        pool_->destroy(n);
    else
        delete n;
}

const util::PoolStats &
PrefixTree::poolStats() const
{
    return pool_->stats();
}

void
PrefixTree::setObserver(const PrefixTreeObserver &observer)
{
    observer_ = observer;
    if (observer_.counters) {
        evicted_counter_ = observer_.counters->counter(
            "replica" + std::to_string(observer_.replica) +
            ".prefix_evicted_tokens");
    }
}

PrefixTree::Node *
PrefixTree::walkMatch(const std::vector<int32_t> &tokens,
                      std::vector<Node *> *path) const
{
    Node *node = root_;
    const int64_t full_blocks =
        static_cast<int64_t>(tokens.size()) / cfg_.page_size;
    const size_t id_bytes =
        static_cast<size_t>(cfg_.page_size) * sizeof(int32_t);
    for (int64_t b = 0; b < full_blocks; ++b) {
        const int32_t *block = tokens.data() + b * cfg_.page_size;
        Node *next = nullptr;
        for (const Node::Child &c : node->children) {
            if (c.first == block[0] &&
                std::memcmp(c.node->tokens.data(), block, id_bytes) == 0) {
                next = c.node;
                break;
            }
        }
        if (!next)
            break;
        node = next;
        if (path)
            path->push_back(node);
    }
    return node;
}

PrefixMatch
PrefixTree::match(const std::vector<int32_t> &tokens) const
{
    PrefixMatch m;
    if (!enabled())
        return m;
    m.hit_tokens = walkMatch(tokens, nullptr)->depth_tokens;
    m.reserved_bytes = m.hit_tokens * cfg_.bytes_per_token;
    return m;
}

PrefixHandle
PrefixTree::insert(const std::vector<int32_t> &tokens)
{
    return matchAndPin(tokens).handle;
}

MatchAndPinResult
PrefixTree::matchAndPin(
    const std::vector<int32_t> &tokens,
    const std::function<void(const PrefixMatch &estimate)> &resize)
{
    MatchAndPinResult out;

    // Walk 1 (fused): the pre-resize cached prefix, remembered as the
    // node path so the post-callback phases need no second descent.
    // A path holds at most one node per full block: reserve it once
    // rather than regrowing it block by block.
    std::vector<Node *> path;
    path.reserve(tokens.size() / static_cast<size_t>(cfg_.page_size));
    bool walked = false;
    if (enabled()) {
        walkMatch(tokens, &path);
        walked = true;
        out.estimate.hit_tokens =
            path.empty() ? 0 : path.back()->depth_tokens;
        out.estimate.reserved_bytes =
            out.estimate.hit_tokens * cfg_.bytes_per_token;
    }

    const uint64_t epoch = eviction_epoch_;
    if (resize)
        resize(out.estimate);
    if (!enabled())
        return out; // budget (still) 0 after the callback: no-op pin

    // Walk 2 (usually skipped): the held path is stale only when the
    // callback evicted — or when the cache was disabled at entry so
    // walk 1 never ran (the callback may just have revived it).
    if (!walked || eviction_epoch_ != epoch) {
        path.clear();
        walkMatch(tokens, &path);
    }
    out.match.hit_tokens = path.empty() ? 0 : path.back()->depth_tokens;
    out.match.reserved_bytes =
        out.match.hit_tokens * cfg_.bytes_per_token;

    // Pin the matched prefix (top-down, insert()'s accounting), then
    // extend it with the remaining full blocks while the budget lasts.
    for (Node *n : path) {
        if (n->refcount == 0)
            pinned_tokens_ += cfg_.page_size;
        ++n->refcount;
        if (n->heap_pos >= 0)
            heapErase(n); // pinned: no longer evictable
    }
    Node *node = path.empty() ? root_ : path.back();
    const int64_t matched_blocks =
        static_cast<int64_t>(path.size());
    const int64_t full_blocks =
        static_cast<int64_t>(tokens.size()) / cfg_.page_size;
    const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
    for (int64_t b = matched_blocks; b < full_blocks; ++b) {
        // New block: make room first. Nodes on the pinned path
        // (including everything this walk already pinned) have
        // refcount > 0 and are eviction-proof.
        while (bytes() + block_bytes > cfg_.budget_bytes) {
            if (!evictOne())
                break;
        }
        if (bytes() + block_bytes > cfg_.budget_bytes)
            break; // budget exhausted; pin what we have
        // `node` is pinned (or the root), so never in the heap; the
        // new child is pinned below, so it does not enter it either.
        const auto begin = tokens.begin() + b * cfg_.page_size;
        Node *child = newNode();
        child->parent = node;
        child->depth_tokens = node->depth_tokens + cfg_.page_size;
        child->tokens.assign(begin, begin + cfg_.page_size);
        node->children.push_back({child->tokens[0], child});
        node = child;
        resident_tokens_ += cfg_.page_size;
        inserted_tokens_ += cfg_.page_size;
        ++node_count_;
        pinned_tokens_ += cfg_.page_size; // fresh block: refcount 0 -> 1
        ++node->refcount;
    }
    if (node != root_) {
        out.handle.node_ = node;
        out.handle.pinned_tokens_ = node->depth_tokens;
    }
    return out;
}

void
PrefixTree::release(PrefixHandle &handle)
{
    Node *node = static_cast<Node *>(handle.node_);
    handle.node_ = nullptr;
    handle.pinned_tokens_ = 0;
    if (!node)
        return;
    // One stamp per release keeps whole paths ordered: deeper nodes
    // share the stamp, and leaves are evicted before their parents
    // regardless. Every node on the path was pinned, so none is in
    // the heap while its stamp changes.
    const uint64_t stamp = ++lru_clock_;
    Node *const deepest = node;
    for (; node != root_; node = node->parent) {
        if (node->refcount <= 0)
            throw std::logic_error("PrefixTree: release without pin");
        --node->refcount;
        if (node->refcount == 0)
            pinned_tokens_ -= cfg_.page_size;
        node->last_use = stamp;
    }
    // Only the deepest node can have become evictable: each ancestor
    // still has a child on the released path.
    if (deepest->refcount == 0 && deepest->children.empty())
        heapPush(deepest);
    enforceBudget();
}

void
PrefixTree::setBudget(int64_t budget_bytes)
{
    if (budget_bytes < 0)
        throw std::invalid_argument("PrefixTree: negative budget");
    if (budget_bytes > 0 && cfg_.bytes_per_token <= 0)
        throw std::invalid_argument(
            "PrefixTree: enabled cache needs positive bytes_per_token");
    cfg_.budget_bytes = budget_bytes;
    enforceBudget();
}

bool
PrefixTree::evictOne()
{
    // The victim is the unreferenced leaf with the oldest release
    // stamp: the heap minimum. No two heap members share a stamp —
    // the nodes stamped s all lie on the one path released with s,
    // minus anything restamped or evicted since, which leaves a
    // chain with at most one leaf — so the minimum is unique and the
    // choice depends neither on child order nor on a tie-break.
    if (heap_.empty())
        return false;
    Node *victim = heap_.front();
    heapErase(victim);
    Node *parent = victim->parent;
    std::vector<Node::Child> &siblings = parent->children;
    for (size_t i = 0; i < siblings.size(); ++i) {
        if (siblings[i].node == victim) {
            siblings[i] = siblings.back();
            siblings.pop_back();
            break;
        }
    }
    freeNode(victim);
    resident_tokens_ -= cfg_.page_size;
    evicted_tokens_ += cfg_.page_size;
    --node_count_;
    ++eviction_epoch_;
    if (observer_.counters)
        observer_.counters->add(evicted_counter_, cfg_.page_size);
    OBS_EVENT(observer_.trace, obs::EventType::PrefixEvict,
              observer_.clock ? *observer_.clock : 0.0,
              observer_.replica, -1, cfg_.page_size, resident_tokens_);
    // The parent may just have become an unpinned leaf.
    if (parent != root_ && parent->refcount == 0 &&
        parent->children.empty())
        heapPush(parent);
    return true;
}

void
PrefixTree::heapPush(Node *n)
{
    n->heap_pos = static_cast<int64_t>(heap_.size());
    heap_.push_back(n);
    heapSiftUp(heap_.size() - 1);
}

void
PrefixTree::heapErase(Node *n)
{
    const size_t i = static_cast<size_t>(n->heap_pos);
    n->heap_pos = -1;
    Node *last = heap_.back();
    heap_.pop_back();
    if (last == n)
        return;
    heap_[i] = last;
    last->heap_pos = static_cast<int64_t>(i);
    heapSiftUp(i);
    heapSiftDown(static_cast<size_t>(last->heap_pos));
}

void
PrefixTree::heapSiftUp(size_t i)
{
    Node *n = heap_[i];
    while (i > 0) {
        const size_t up = (i - 1) / 2;
        if (heap_[up]->last_use < n->last_use)
            break;
        heap_[i] = heap_[up];
        heap_[i]->heap_pos = static_cast<int64_t>(i);
        i = up;
    }
    heap_[i] = n;
    n->heap_pos = static_cast<int64_t>(i);
}

void
PrefixTree::heapSiftDown(size_t i)
{
    Node *n = heap_[i];
    const size_t size = heap_.size();
    for (size_t down = 2 * i + 1; down < size; down = 2 * i + 1) {
        if (down + 1 < size &&
            heap_[down + 1]->last_use < heap_[down]->last_use)
            ++down;
        if (n->last_use < heap_[down]->last_use)
            break;
        heap_[i] = heap_[down];
        heap_[i]->heap_pos = static_cast<int64_t>(i);
        i = down;
    }
    heap_[i] = n;
    n->heap_pos = static_cast<int64_t>(i);
}

void
PrefixTree::enforceBudget()
{
    while (bytes() > cfg_.budget_bytes) {
        if (!evictOne())
            break; // everything left is pinned
    }
}

} // namespace kv
} // namespace specontext
