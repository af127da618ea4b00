/**
 * @file
 * Tests of the SpeContext lightweight retrieval head (paper Section 4):
 * pruning ratios, head-level vs batch-level mapping, and the Fig. 5
 * mapping rules for MHA/GQA/MQA/MLA.
 */
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "model/distiller.h"
#include "retrieval/retrieval_head.h"
#include "tensor/rng.h"

namespace specontext {
namespace {

using model::AttentionKind;
using retrieval::RetrievalHead;
using retrieval::RetrievalHeadOptions;
using retrieval::RetrievalLevel;

struct HeadFixture
{
    model::ModelConfig cfg;
    model::Transformer teacher;
    model::Transformer dlm;

    explicit HeadFixture(AttentionKind kind)
        : cfg(model::tinyConfig(kind)),
          teacher(model::Transformer::randomInit(cfg, 17)),
          dlm(model::distill(teacher))
    {
    }

    std::vector<int32_t>
    tokens(int64_t n, uint64_t seed = 3) const
    {
        Rng rng(seed);
        std::vector<int32_t> out(n);
        for (auto &t : out)
            t = static_cast<int32_t>(2 + rng.uniformInt(cfg.vocab - 2));
        return out;
    }
};

TEST(RetrievalHead, RequiresSingleLayerDlm)
{
    HeadFixture f(AttentionKind::GQA);
    EXPECT_THROW(RetrievalHead(f.teacher, {64}), std::invalid_argument);
    EXPECT_NO_THROW(RetrievalHead(f.dlm, {64}));
}

TEST(RetrievalHead, RejectsNonPositiveBudget)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHeadOptions o;
    o.budget = 0;
    EXPECT_THROW(RetrievalHead(f.dlm, o), std::invalid_argument);
}

TEST(RetrievalHead, ObserveGrowsKCache)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHead head(f.dlm, {16});
    head.observe(f.tokens(10));
    EXPECT_EQ(head.cachedTokens(), 10);
    head.reset();
    EXPECT_EQ(head.cachedTokens(), 0);
}

TEST(RetrievalHead, PrunedParametersOver90PercentSmaller)
{
    // Fig. 5(a): the head keeps only norm + QK projections — >90 %
    // parameter reduction vs the full DLM.
    HeadFixture f(AttentionKind::GQA);
    RetrievalHead head(f.dlm, {16});
    EXPECT_LT(head.prunedParameterCount(),
              head.dlmParameterCount() / 10);
}

class HeadAllKinds : public ::testing::TestWithParam<AttentionKind>
{
};

TEST_P(HeadAllKinds, SelectionHeadCountMatchesMapping)
{
    HeadFixture f(GetParam());
    RetrievalHead head(f.dlm, {8});
    head.observe(f.tokens(32));
    auto sel = head.step(5);

    // Fig. 5(b)-(e): per KV head for MHA/GQA/MQA, per query head for
    // MLA (the c cache is shared but gathered per head).
    const int64_t expect = GetParam() == AttentionKind::MLA
                               ? f.cfg.q_heads
                               : f.cfg.kv_heads;
    EXPECT_EQ(static_cast<int64_t>(sel.per_head.size()), expect);
}

TEST_P(HeadAllKinds, BudgetRespectedAndSorted)
{
    HeadFixture f(GetParam());
    const int64_t budget = 12;
    RetrievalHead head(f.dlm, {budget});
    head.observe(f.tokens(64));
    auto sel = head.step(5);
    for (const auto &h : sel.per_head) {
        EXPECT_LE(static_cast<int64_t>(h.size()), budget);
        EXPECT_TRUE(std::is_sorted(h.begin(), h.end()));
        for (int64_t p : h) {
            EXPECT_GE(p, 0);
            EXPECT_LT(p, 65);
        }
    }
}

TEST_P(HeadAllKinds, BudgetLargerThanContextSelectsAll)
{
    HeadFixture f(GetParam());
    RetrievalHead head(f.dlm, {4096});
    head.observe(f.tokens(20));
    auto sel = head.step(5);
    for (const auto &h : sel.per_head)
        EXPECT_EQ(h.size(), 21u); // 20 observed + the step token
}

TEST_P(HeadAllKinds, AttentionWeightsRowsSumToOne)
{
    HeadFixture f(GetParam());
    RetrievalHead head(f.dlm, {8});
    head.observe(f.tokens(24));
    head.step(5);
    const Tensor &w = head.lastAttentionWeights();
    ASSERT_EQ(w.dim(0), f.cfg.q_heads);
    for (int64_t h = 0; h < w.dim(0); ++h) {
        float sum = 0.0f;
        for (int64_t p = 0; p < w.dim(1); ++p)
            sum += w.at(h, p);
        EXPECT_NEAR(sum, 1.0f, 1e-4);
    }
}

TEST_P(HeadAllKinds, RejectsBadTokenWithoutTouchingCache)
{
    HeadFixture f(GetParam());
    RetrievalHead head(f.dlm, {8}), clean(f.dlm, {8});
    const std::vector<int32_t> prompt = f.tokens(6);
    head.observe(prompt);
    clean.observe(prompt);
    const int32_t vocab = static_cast<int32_t>(f.cfg.vocab);
    for (int32_t bad : {-1, std::numeric_limits<int32_t>::min(), vocab,
                        vocab + 100000}) {
        EXPECT_THROW(head.observe(bad), std::out_of_range) << bad;
        EXPECT_THROW(head.observe(std::vector<int32_t>{5, 6, bad}),
                     std::out_of_range)
            << bad;
        EXPECT_THROW(head.step(bad), std::out_of_range) << bad;
        EXPECT_EQ(head.cachedTokens(), 6) << bad;
    }
    // The head goes on exactly as one that never saw a bad id.
    EXPECT_EQ(head.step(5).per_head, clean.step(5).per_head);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, HeadAllKinds,
    ::testing::Values(AttentionKind::MHA, AttentionKind::GQA,
                      AttentionKind::MQA, AttentionKind::MLA),
    [](const ::testing::TestParamInfo<AttentionKind> &info) {
        return model::attentionKindName(info.param);
    });

TEST(RetrievalHead, BatchLevelSharesOneList)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHead head(f.dlm, {8, RetrievalLevel::BatchLevel, 0});
    head.observe(f.tokens(48));
    auto sel = head.step(5);
    ASSERT_EQ(static_cast<int64_t>(sel.per_head.size()), f.cfg.kv_heads);
    for (size_t h = 1; h < sel.per_head.size(); ++h)
        EXPECT_EQ(sel.per_head[h], sel.per_head[0]);
}

TEST(RetrievalHead, HeadLevelListsDiffer)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHead head(f.dlm, {8, RetrievalLevel::HeadLevel, 0});
    head.observe(f.tokens(96));
    auto sel = head.step(5);
    // With 96 candidates and budget 8, distinct heads should pick at
    // least partially different tokens.
    EXPECT_NE(sel.per_head[0], sel.per_head[1]);
}

TEST(RetrievalHead, RecentWindowAlwaysIncluded)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHeadOptions o;
    o.budget = 8;
    o.recent_window = 4;
    RetrievalHead head(f.dlm, o);
    head.observe(f.tokens(40));
    auto sel = head.step(5);
    for (const auto &h : sel.per_head) {
        for (int64_t p = 37; p <= 40; ++p)
            EXPECT_TRUE(std::binary_search(h.begin(), h.end(), p));
    }
}

TEST(RetrievalHead, MqaSingleListForAllQueryHeads)
{
    HeadFixture f(AttentionKind::MQA);
    RetrievalHead head(f.dlm, {8});
    head.observe(f.tokens(32));
    auto sel = head.step(5);
    EXPECT_EQ(sel.per_head.size(), 1u); // one KV head
}

TEST(RetrievalHead, ScoreFlopsGrowWithContext)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHead head(f.dlm, {8});
    head.observe(f.tokens(16));
    head.step(5);
    const double flops_small = head.scoreFlops();
    head.reset();
    head.observe(f.tokens(64));
    head.step(5);
    EXPECT_GT(head.scoreFlops(), flops_small);
}

TEST(RetrievalHead, DeterministicSelections)
{
    HeadFixture f(AttentionKind::GQA);
    RetrievalHead h1(f.dlm, {8}), h2(f.dlm, {8});
    auto toks = f.tokens(40);
    h1.observe(toks);
    h2.observe(toks);
    EXPECT_EQ(h1.step(9).per_head, h2.step(9).per_head);
}

} // namespace
} // namespace specontext
