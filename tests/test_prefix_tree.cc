/**
 * @file
 * Tests of the shared-prefix KV cache radix tree: block-aligned
 * match/insert/release, refcount-protected eviction, LRU ordering,
 * and byte-budget enforcement (including the budget-0 disabled mode
 * and shrink-under-pressure via setBudget), plus a seeded differential
 * test against a naive scan-based reference model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "kvcache/prefix_tree.h"

namespace specontext {
namespace {

using kv::PrefixHandle;
using kv::PrefixMatch;
using kv::PrefixTree;
using kv::PrefixTreeConfig;

constexpr int64_t kPage = 4;
constexpr int64_t kBytesPerToken = 10;
constexpr int64_t kBlockBytes = kPage * kBytesPerToken;

PrefixTreeConfig
cfgWith(int64_t budget_blocks)
{
    PrefixTreeConfig c;
    c.page_size = kPage;
    c.bytes_per_token = kBytesPerToken;
    c.budget_bytes = budget_blocks * kBlockBytes;
    return c;
}

/** n tokens starting at `base` (distinct sequences per base). */
std::vector<int32_t>
seq(int32_t base, int64_t n)
{
    std::vector<int32_t> out;
    out.reserve(n);
    for (int64_t i = 0; i < n; ++i)
        out.push_back(base + static_cast<int32_t>(i));
    return out;
}

// ------------------------------------------------------ match/insert

TEST(PrefixTree, EmptyTreeMatchesNothing)
{
    PrefixTree tree(cfgWith(8));
    const PrefixMatch m = tree.match(seq(0, 10));
    EXPECT_EQ(m.hit_tokens, 0);
    EXPECT_EQ(m.reserved_bytes, 0);
    EXPECT_EQ(tree.bytes(), 0);
    EXPECT_EQ(tree.nodeCount(), 0);
}

TEST(PrefixTree, InsertThenMatchIsBlockAligned)
{
    PrefixTree tree(cfgWith(8));
    // 10 tokens at page 4 -> only 2 full blocks (8 tokens) cached.
    PrefixHandle h = tree.insert(seq(0, 10));
    EXPECT_EQ(h.pinnedTokens(), 8);
    EXPECT_EQ(tree.residentTokens(), 8);
    EXPECT_EQ(tree.nodeCount(), 2);
    EXPECT_EQ(tree.insertedTokens(), 8);

    const PrefixMatch full = tree.match(seq(0, 10));
    EXPECT_EQ(full.hit_tokens, 8);
    EXPECT_EQ(full.reserved_bytes, 8 * kBytesPerToken);
    // A shorter probe sharing the first block only.
    std::vector<int32_t> diverges = seq(0, 10);
    diverges[5] = 999; // inside block 1
    EXPECT_EQ(tree.match(diverges).hit_tokens, 4);
    // Probe shorter than one block can never match.
    EXPECT_EQ(tree.match(seq(0, 3)).hit_tokens, 0);
    tree.release(h);
}

TEST(PrefixTree, DivergingSuffixesShareThePrefixPath)
{
    PrefixTree tree(cfgWith(16));
    std::vector<int32_t> a = seq(0, 12);
    std::vector<int32_t> b = seq(0, 12);
    b[8] = 777; // diverge in block 2
    PrefixHandle ha = tree.insert(a);
    PrefixHandle hb = tree.insert(b);
    // Blocks: a = {0,1,2}, b reuses {0,1} and adds its own third.
    EXPECT_EQ(tree.nodeCount(), 4);
    EXPECT_EQ(tree.residentTokens(), 16);
    EXPECT_EQ(tree.match(a).hit_tokens, 12);
    EXPECT_EQ(tree.match(b).hit_tokens, 12);
    tree.release(ha);
    tree.release(hb);
}

TEST(PrefixTree, DisabledTreeIsANoOp)
{
    PrefixTree tree(cfgWith(0));
    EXPECT_FALSE(tree.enabled());
    PrefixHandle h = tree.insert(seq(0, 16));
    EXPECT_EQ(h.pinnedTokens(), 0);
    EXPECT_EQ(tree.bytes(), 0);
    EXPECT_EQ(tree.match(seq(0, 16)).hit_tokens, 0);
    tree.release(h); // harmless
}

// --------------------------------------------------- refcount/release

TEST(PrefixTree, ReleaseIsIdempotentAndDefaultHandleIsSafe)
{
    PrefixTree tree(cfgWith(8));
    PrefixHandle none;
    tree.release(none); // default handle: no-op

    PrefixHandle h = tree.insert(seq(0, 8));
    tree.release(h);
    EXPECT_EQ(h.pinnedTokens(), 0);
    tree.release(h); // cleared handle: no-op, not a double unpin
    EXPECT_EQ(tree.residentTokens(), 8);
}

TEST(PrefixTree, RefcountProtectsPinnedPathsFromEviction)
{
    PrefixTree tree(cfgWith(2)); // room for exactly 2 blocks
    PrefixHandle ha = tree.insert(seq(0, 8));
    EXPECT_EQ(ha.pinnedTokens(), 8);

    // B wants 2 different blocks; A's are pinned, so nothing can be
    // evicted and B's insertion is truncated to nothing.
    PrefixHandle hb = tree.insert(seq(1000, 8));
    EXPECT_EQ(hb.pinnedTokens(), 0);
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 8);
    EXPECT_EQ(tree.match(seq(1000, 8)).hit_tokens, 0);
    tree.release(hb);

    // Once A is released its blocks are evictable and B fits.
    tree.release(ha);
    PrefixHandle hb2 = tree.insert(seq(1000, 8));
    EXPECT_EQ(hb2.pinnedTokens(), 8);
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 0); // A evicted
    EXPECT_EQ(tree.evictedTokens(), 8);
    tree.release(hb2);
}

TEST(PrefixTree, EvictionIsLeastRecentlyReleasedFirst)
{
    PrefixTree tree(cfgWith(2));
    PrefixHandle ha = tree.insert(seq(0, 4));
    PrefixHandle hb = tree.insert(seq(1000, 4));
    tree.release(ha); // A released first...
    tree.release(hb);
    // ...but re-pinning A refreshes its stamp, so B is now the LRU.
    PrefixHandle ha2 = tree.insert(seq(0, 4));
    tree.release(ha2);

    PrefixHandle hc = tree.insert(seq(2000, 4));
    EXPECT_EQ(hc.pinnedTokens(), 4);
    EXPECT_EQ(tree.match(seq(0, 4)).hit_tokens, 4);    // A survives
    EXPECT_EQ(tree.match(seq(1000, 4)).hit_tokens, 0); // B evicted
    tree.release(hc);
}

TEST(PrefixTree, PinnedTokensTrackLiveHandles)
{
    PrefixTree tree(cfgWith(16));
    EXPECT_EQ(tree.pinnedTokens(), 0);
    PrefixHandle ha = tree.insert(seq(0, 8)); // 2 blocks
    EXPECT_EQ(tree.pinnedTokens(), 8);
    PrefixHandle hb = tree.insert(seq(0, 8)); // same path, repinned
    EXPECT_EQ(tree.pinnedTokens(), 8);        // counted once
    PrefixHandle hc = tree.insert(seq(0, 12)); // extends by 1 block
    EXPECT_EQ(tree.pinnedTokens(), 12);
    tree.release(ha);
    EXPECT_EQ(tree.pinnedTokens(), 12); // still pinned by hb/hc
    tree.release(hb);
    tree.release(hc);
    EXPECT_EQ(tree.pinnedTokens(), 0);
    EXPECT_EQ(tree.pinnedBytes(), 0);
    EXPECT_EQ(tree.residentTokens(), 12); // resident but idle
}

// ------------------------------------------------------------ budget

TEST(PrefixTree, BudgetBoundsResidencyAndTruncatesInsertions)
{
    PrefixTree tree(cfgWith(3));
    PrefixHandle h = tree.insert(seq(0, 40)); // wants 10 blocks
    EXPECT_EQ(h.pinnedTokens(), 12);          // got 3
    EXPECT_LE(tree.bytes(), tree.config().budget_bytes);
    EXPECT_EQ(tree.match(seq(0, 40)).hit_tokens, 12);
    tree.release(h);
    EXPECT_LE(tree.bytes(), tree.config().budget_bytes);
}

TEST(PrefixTree, SetBudgetShrinkEvictsUnreferencedSubtrees)
{
    PrefixTree tree(cfgWith(8));
    PrefixHandle h = tree.insert(seq(0, 32)); // 8 blocks resident
    tree.release(h);
    EXPECT_EQ(tree.residentTokens(), 32);

    tree.setBudget(2 * kBlockBytes);
    EXPECT_EQ(tree.residentTokens(), 8);
    EXPECT_LE(tree.bytes(), 2 * kBlockBytes);
    // Leaves go first, so the surviving blocks are the prefix head —
    // the path is still matchable end to end.
    EXPECT_EQ(tree.match(seq(0, 32)).hit_tokens, 8);

    tree.setBudget(0);
    EXPECT_EQ(tree.residentTokens(), 0);
    EXPECT_FALSE(tree.enabled());
}

TEST(PrefixTree, PinnedBytesMayExceedAShrunkenBudgetUntilRelease)
{
    PrefixTree tree(cfgWith(4));
    PrefixHandle h = tree.insert(seq(0, 16)); // 4 blocks, all pinned
    tree.setBudget(kBlockBytes);              // shrink below residency
    EXPECT_EQ(tree.residentTokens(), 16);     // pinned: nothing evicted
    tree.release(h);                          // now the budget binds
    EXPECT_LE(tree.bytes(), kBlockBytes);
}

// -------------------------------------------------------- validation

TEST(PrefixTree, ConstructorValidatesConfig)
{
    PrefixTreeConfig bad_page = cfgWith(4);
    bad_page.page_size = 0;
    EXPECT_THROW(PrefixTree{bad_page}, std::invalid_argument);

    PrefixTreeConfig bad_budget = cfgWith(4);
    bad_budget.budget_bytes = -1;
    EXPECT_THROW(PrefixTree{bad_budget}, std::invalid_argument);

    PrefixTreeConfig bad_bytes = cfgWith(4);
    bad_bytes.bytes_per_token = 0;
    EXPECT_THROW(PrefixTree{bad_bytes}, std::invalid_argument);
    // ...but bytes_per_token 0 is fine for a disabled cache.
    bad_bytes.budget_bytes = 0;
    EXPECT_NO_THROW(PrefixTree{bad_bytes});

    PrefixTree tree(cfgWith(4));
    EXPECT_THROW(tree.setBudget(-1), std::invalid_argument);
}

// -------------------------------------------------- matchAndPin

/** Drive `combined` through matchAndPin and `legacy` through the
 *  three-walk sequence it fuses (match -> resize -> match -> insert),
 *  applying `new_budget_blocks` inside the resize step of both, and
 *  assert every observable agrees. Returns the two handles. */
std::pair<PrefixHandle, PrefixHandle>
admitBothWays(PrefixTree &combined, PrefixTree &legacy,
              const std::vector<int32_t> &tokens,
              int64_t new_budget_blocks)
{
    // Legacy: walk 1 (estimate), resize, walk 2 (hit), walk 3 (insert).
    const PrefixMatch legacy_estimate = legacy.match(tokens);
    legacy.setBudget(new_budget_blocks * kBlockBytes);
    const PrefixMatch legacy_hit = legacy.match(tokens);
    PrefixHandle legacy_handle = legacy.insert(tokens);

    kv::MatchAndPinResult fused = combined.matchAndPin(
        tokens, [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, legacy_estimate.hit_tokens);
            combined.setBudget(new_budget_blocks * kBlockBytes);
        });
    EXPECT_EQ(fused.estimate.hit_tokens, legacy_estimate.hit_tokens);
    EXPECT_EQ(fused.match.hit_tokens, legacy_hit.hit_tokens);
    EXPECT_EQ(fused.handle.pinnedTokens(),
              legacy_handle.pinnedTokens());
    EXPECT_EQ(combined.bytes(), legacy.bytes());
    EXPECT_EQ(combined.pinnedTokens(), legacy.pinnedTokens());
    EXPECT_EQ(combined.nodeCount(), legacy.nodeCount());
    EXPECT_EQ(combined.insertedTokens(), legacy.insertedTokens());
    EXPECT_EQ(combined.evictedTokens(), legacy.evictedTokens());
    return {std::move(fused.handle), std::move(legacy_handle)};
}

TEST(PrefixTree, MatchAndPinMatchesThreeWalkPath)
{
    // Parity pin: a sequence of admissions (shared prefixes, budget
    // shrinks and regrowth inside the resize callback, releases
    // between) must leave the fused and the three-walk trees in
    // bit-identical states at every step.
    PrefixTree combined(cfgWith(8)), legacy(cfgWith(8));

    auto [c1, l1] = admitBothWays(combined, legacy, seq(0, 12), 8);
    // Same family, longer prompt: hits the cached path.
    auto [c2, l2] = admitBothWays(combined, legacy, seq(0, 20), 8);
    combined.release(c1);
    legacy.release(l1);
    // Budget shrink inside the callback evicts released blocks in
    // both paths (the estimate / post-resize match divergence case).
    auto [c3, l3] = admitBothWays(combined, legacy, seq(100, 16), 2);
    combined.release(c2);
    legacy.release(l2);
    combined.release(c3);
    legacy.release(l3);
    EXPECT_EQ(combined.bytes(), legacy.bytes());
    EXPECT_EQ(combined.evictedTokens(), legacy.evictedTokens());
    // Regrow and re-admit the first family: identical matches again.
    auto [c4, l4] = admitBothWays(combined, legacy, seq(0, 20), 8);
    combined.release(c4);
    legacy.release(l4);
}

TEST(PrefixTree, MatchAndPinResizeEvictionShrinksTheMatch)
{
    // When the resize callback's budget shrink evicts part of the
    // estimated prefix, the pinned match must reflect the post-shrink
    // tree — the exact semantics of the legacy three-walk sequence.
    PrefixTree tree(cfgWith(8));
    PrefixHandle warm = tree.insert(seq(0, 32)); // 8 blocks resident
    tree.release(warm);                          // all evictable

    kv::MatchAndPinResult res = tree.matchAndPin(
        seq(0, 32), [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, 32);
            tree.setBudget(2 * kBlockBytes); // evicts 6 of 8 blocks
        });
    EXPECT_EQ(res.estimate.hit_tokens, 32);
    EXPECT_EQ(res.match.hit_tokens, 2 * kPage);
    // The pin covers only what the post-shrink budget retains.
    EXPECT_EQ(res.handle.pinnedTokens(), 2 * kPage);
    tree.release(res.handle);
}

TEST(PrefixTree, MatchAndPinWithoutResizeEqualsInsert)
{
    PrefixTree a(cfgWith(4)), b(cfgWith(4));
    PrefixHandle ha = a.insert(seq(0, 16));
    kv::MatchAndPinResult rb = b.matchAndPin(seq(0, 16));
    EXPECT_EQ(rb.estimate.hit_tokens, 0);
    EXPECT_EQ(rb.match.hit_tokens, 0);
    EXPECT_EQ(ha.pinnedTokens(), rb.handle.pinnedTokens());
    EXPECT_EQ(a.bytes(), b.bytes());
    a.release(ha);
    b.release(rb.handle);
}

TEST(PrefixTree, MatchAndPinOnDisabledTreeIsANoOp)
{
    PrefixTree tree(cfgWith(0));
    bool resized = false;
    kv::MatchAndPinResult res =
        tree.matchAndPin(seq(0, 16), [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, 0);
            resized = true;
        });
    EXPECT_TRUE(resized); // the callback still runs (budget revival)
    EXPECT_EQ(res.match.hit_tokens, 0);
    EXPECT_EQ(res.handle.pinnedTokens(), 0);
    EXPECT_EQ(tree.bytes(), 0);
    tree.release(res.handle); // default-constructed path: safe no-op
}

// ------------------------------------------- differential vs. naive

/**
 * Reference model: the tree's semantics with the simplest possible
 * machinery — children in a std::map keyed by block content, and each
 * eviction a full-tree scan for the unreferenced leaf with the oldest
 * release stamp. The real tree must agree with it on every
 * observable after every operation.
 */
class NaivePrefixTree
{
  public:
    struct Node
    {
        Node *parent = nullptr;
        std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
        int64_t refcount = 0;
        uint64_t last_use = 0;
        int64_t depth_tokens = 0;
    };

    explicit NaivePrefixTree(int64_t budget_bytes) : budget_(budget_bytes)
    {
    }

    int64_t match(const std::vector<int32_t> &tokens) const
    {
        if (budget_ == 0)
            return 0;
        return walk(tokens).back()->depth_tokens;
    }

    /** matchAndPin(): the estimate and post-resize hit through
     *  `estimate`/`hit`; returns the deepest pinned node or null. */
    Node *matchAndPin(const std::vector<int32_t> &tokens,
                      const std::function<void()> &resize,
                      int64_t &estimate, int64_t &hit)
    {
        estimate = match(tokens);
        if (resize)
            resize();
        hit = match(tokens);
        if (budget_ == 0)
            return nullptr;
        std::vector<Node *> path = walk(tokens);
        for (size_t i = 1; i < path.size(); ++i) {
            if (path[i]->refcount++ == 0)
                pinned_ += kPage;
        }
        Node *node = path.back();
        const int64_t full_blocks =
            static_cast<int64_t>(tokens.size()) / kPage;
        for (int64_t b = static_cast<int64_t>(path.size()) - 1;
             b < full_blocks; ++b) {
            while (bytes() + kBlockBytes > budget_ && evictOne()) {
            }
            if (bytes() + kBlockBytes > budget_)
                break;
            std::vector<int32_t> block(tokens.begin() + b * kPage,
                                       tokens.begin() + (b + 1) * kPage);
            auto child = std::make_unique<Node>();
            child->parent = node;
            child->depth_tokens = node->depth_tokens + kPage;
            child->refcount = 1;
            node = (node->children[block] = std::move(child)).get();
            resident_ += kPage;
            inserted_ += kPage;
            pinned_ += kPage;
            ++nodes_;
        }
        return node == &root_ ? nullptr : node;
    }

    void release(Node *node)
    {
        const uint64_t stamp = ++clock_;
        for (; node && node != &root_; node = node->parent) {
            if (--node->refcount == 0)
                pinned_ -= kPage;
            node->last_use = stamp;
        }
        enforce();
    }

    void setBudget(int64_t budget_bytes)
    {
        budget_ = budget_bytes;
        enforce();
    }

    int64_t bytes() const { return resident_ * kBytesPerToken; }
    int64_t pinnedTokens() const { return pinned_; }
    int64_t nodeCount() const { return nodes_; }
    int64_t evictedTokens() const { return evicted_; }
    int64_t insertedTokens() const { return inserted_; }

  private:
    Node root_;
    int64_t budget_;
    int64_t resident_ = 0, pinned_ = 0, nodes_ = 0;
    int64_t evicted_ = 0, inserted_ = 0;
    uint64_t clock_ = 0;

    /** Root followed by every matched node. */
    std::vector<Node *> walk(const std::vector<int32_t> &tokens) const
    {
        std::vector<Node *> path = {const_cast<Node *>(&root_)};
        const int64_t full_blocks =
            static_cast<int64_t>(tokens.size()) / kPage;
        for (int64_t b = 0; b < full_blocks; ++b) {
            const auto it = path.back()->children.find(
                std::vector<int32_t>(tokens.begin() + b * kPage,
                                     tokens.begin() + (b + 1) * kPage));
            if (it == path.back()->children.end())
                break;
            path.push_back(it->second.get());
        }
        return path;
    }

    void enforce()
    {
        while (bytes() > budget_ && evictOne()) {
        }
    }

    bool evictOne()
    {
        Node *victim = nullptr;
        std::vector<Node *> stack = {&root_};
        while (!stack.empty()) {
            Node *n = stack.back();
            stack.pop_back();
            for (auto &kv_pair : n->children)
                stack.push_back(kv_pair.second.get());
            if (n == &root_ || n->refcount > 0 || !n->children.empty())
                continue;
            if (!victim || n->last_use < victim->last_use)
                victim = n;
        }
        if (!victim)
            return false;
        auto &siblings = victim->parent->children;
        for (auto it = siblings.begin(); it != siblings.end(); ++it) {
            if (it->second.get() == victim) {
                siblings.erase(it);
                break;
            }
        }
        resident_ -= kPage;
        evicted_ += kPage;
        --nodes_;
        return true;
    }
};

/** Prompt catalog for the differential run: 300 siblings under one
 *  shared head block (pairs share their first token and differ
 *  later, so the first-token shortcut must fall through to the full
 *  compare), chain prefixes up to 520 blocks, and short unrelated
 *  prompts. Lengths are not always block-aligned. */
std::vector<std::vector<int32_t>>
differentialCatalog()
{
    std::vector<std::vector<int32_t>> out;
    for (int32_t v = 0; v < 300; ++v) {
        std::vector<int32_t> p = {7, 7, 7, 7};             // head block
        p.insert(p.end(), {100 + v / 2, v, 1, 2});         // sibling
        for (int64_t extra = 0; extra < 1 + v % 7; ++extra)
            p.push_back(5000 + v);
        out.push_back(std::move(p));
    }
    const std::vector<int32_t> chain = seq(1 << 20, 520 * kPage + 3);
    for (int64_t blocks : {1, 64, 200, 511, 512, 520}) {
        out.emplace_back(chain.begin(), chain.begin() + blocks * kPage);
    }
    out.push_back(chain);
    for (int32_t f = 0; f < 40; ++f)
        out.push_back(seq(1 << 24 | f << 8, 3 + f % 13));
    return out;
}

TEST(PrefixTree, HeapEvictionMatchesNaiveScanUnderRandomOps)
{
    const std::vector<std::vector<int32_t>> catalog = differentialCatalog();
    constexpr size_t kSiblings = 300, kChains = 7, kFullChain = 306;
    const auto randomBudget = [](std::mt19937_64 &rng) -> int64_t {
        const uint64_t r = rng() % 20;
        if (r == 0)
            return 0; // disabled
        if (r < 6)
            return static_cast<int64_t>(1 + rng() % 32) * kBlockBytes;
        if (r < 14)
            return static_cast<int64_t>(32 + rng() % 300) * kBlockBytes;
        return static_cast<int64_t>(520 + rng() % 900) * kBlockBytes;
    };

    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        // Room for every sibling and the whole chain at once.
        const int64_t initial = 1400 * kBlockBytes;
        PrefixTreeConfig cfg = cfgWith(0);
        cfg.budget_bytes = initial;
        PrefixTree tree(cfg);
        NaivePrefixTree ref(initial);
        std::vector<std::pair<PrefixHandle, NaivePrefixTree::Node *>> live;
        std::vector<size_t> used;
        std::vector<bool> seen(catalog.size(), false);
        int64_t max_siblings = 0, max_chain = 0;

        const auto expectSame = [&](int step) {
            SCOPED_TRACE(step);
            int64_t siblings = 0;
            for (size_t i : used) {
                if (i >= kSiblings && i < kSiblings + kChains)
                    continue; // a chain prompt: checked below
                const int64_t hit = tree.match(catalog[i]).hit_tokens;
                ASSERT_EQ(hit, ref.match(catalog[i]));
                if (i < kSiblings && hit >= 2 * kPage)
                    ++siblings;
            }
            max_siblings = std::max(max_siblings, siblings);
            // Every chain prompt is a block-aligned prefix of the full
            // chain, so the full chain's match decides all of theirs.
            const int64_t chain = tree.match(catalog[kFullChain]).hit_tokens;
            ASSERT_EQ(chain, ref.match(catalog[kFullChain]));
            max_chain = std::max(max_chain, chain);
            ASSERT_EQ(tree.bytes(), ref.bytes());
            ASSERT_EQ(tree.pinnedTokens(), ref.pinnedTokens());
            ASSERT_EQ(tree.nodeCount(), ref.nodeCount());
            ASSERT_EQ(tree.evictedTokens(), ref.evictedTokens());
            ASSERT_EQ(tree.insertedTokens(), ref.insertedTokens());
        };
        const auto admit = [&](size_t idx, bool resize, int64_t budget) {
            if (!seen[idx]) {
                seen[idx] = true;
                used.push_back(idx);
            }
            const std::vector<int32_t> &p = catalog[idx];
            int64_t ref_estimate = 0, ref_hit = 0;
            NaivePrefixTree::Node *ref_node = ref.matchAndPin(
                p,
                resize ? std::function<void()>([&] { ref.setBudget(budget); })
                       : nullptr,
                ref_estimate, ref_hit);
            kv::MatchAndPinResult res = tree.matchAndPin(
                p, resize ? std::function<void(const PrefixMatch &)>(
                                [&](const PrefixMatch &) {
                                    tree.setBudget(budget);
                                })
                          : nullptr);
            EXPECT_EQ(res.estimate.hit_tokens, ref_estimate);
            EXPECT_EQ(res.match.hit_tokens, ref_hit);
            EXPECT_EQ(res.handle.pinnedTokens(),
                      ref_node ? ref_node->depth_tokens : 0);
            live.emplace_back(std::move(res.handle), ref_node);
        };
        const auto releaseRandom = [&] {
            const size_t i = rng() % live.size();
            tree.release(live[i].first);
            ref.release(live[i].second);
            live[i] = std::move(live.back());
            live.pop_back();
        };

        // Warm-up: every sibling and the full chain, shuffled, with a
        // few pins live at a time — fills one node with 300 children.
        std::vector<size_t> order(kSiblings);
        for (size_t i = 0; i < kSiblings; ++i)
            order[i] = i;
        order.push_back(kFullChain);
        std::shuffle(order.begin(), order.end(), rng);
        int step = 0;
        for (size_t idx : order) {
            admit(idx, false, 0);
            if (live.size() > 8)
                releaseRandom();
            expectSame(step++);
        }

        // Random phase: admissions (half with a resize callback that
        // shrinks or regrows the budget), releases in random order,
        // and direct budget changes.
        for (int i = 0; i < 600; ++i, ++step) {
            const uint64_t op = rng() % 10;
            if (op < 5) {
                const uint64_t kind = rng() % 10;
                const size_t idx =
                    kind < 6   ? rng() % kSiblings
                    : kind < 8 ? kSiblings + rng() % kChains
                               : kSiblings + kChains +
                                     rng() % (catalog.size() - kSiblings -
                                              kChains);
                const bool resize = rng() % 2 == 0;
                admit(idx, resize, randomBudget(rng));
            } else if (op < 9 && !live.empty()) {
                releaseRandom();
            } else {
                const int64_t budget = randomBudget(rng);
                tree.setBudget(budget);
                ref.setBudget(budget);
            }
            expectSame(step);
        }
        while (!live.empty()) {
            releaseRandom();
            expectSame(step++);
        }
        EXPECT_EQ(tree.pinnedTokens(), 0);
        EXPECT_GT(tree.evictedTokens(), 0);
        // Coverage: >= 256 siblings under one node, a >= 512-block chain.
        EXPECT_GE(max_siblings, 256);
        EXPECT_GE(max_chain, 512 * kPage);
    }
}

TEST(PrefixTree, MovingAHandleClearsTheSource)
{
    PrefixTree tree(cfgWith(8));
    PrefixHandle a = tree.insert(seq(0, 8));
    PrefixHandle b = std::move(a);
    EXPECT_EQ(a.pinnedTokens(), 0);
    EXPECT_EQ(b.pinnedTokens(), 8);
    tree.release(a); // moved-from: no-op, the pin is still held
    EXPECT_EQ(tree.pinnedTokens(), 8);
    PrefixHandle c;
    c = std::move(b);
    EXPECT_EQ(b.pinnedTokens(), 0);
    tree.release(c);
    EXPECT_EQ(tree.pinnedTokens(), 0);
}

} // namespace
} // namespace specontext
