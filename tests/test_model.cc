/**
 * @file
 * Tests of the transformer substrate, parameterized over the four
 * attention mechanisms the retrieval head supports (MHA/GQA/MQA/MLA).
 */
#include <cstring>

#include <gtest/gtest.h>

#include "kvcache/kv_cache.h"
#include "model/config.h"
#include "model/tokenizer.h"
#include "model/transformer.h"
#include "tensor/rng.h"

namespace specontext {
namespace {

using model::AttentionKind;

std::vector<int32_t>
randomPrompt(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> p(n);
    for (auto &t : p)
        t = static_cast<int32_t>(2 + rng.uniformInt(vocab - 2));
    return p;
}

TEST(ModelConfig, ValidatePasses)
{
    for (auto k : {AttentionKind::MHA, AttentionKind::GQA,
                   AttentionKind::MQA, AttentionKind::MLA}) {
        EXPECT_NO_THROW(model::tinyConfig(k).validate());
    }
}

TEST(ModelConfig, ValidateCatchesBadGqa)
{
    auto c = model::tinyConfig(AttentionKind::GQA);
    c.kv_heads = 3; // 4 % 3 != 0
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ModelConfig, ValidateCatchesOddHeadDim)
{
    auto c = model::tinyConfig(AttentionKind::MHA);
    c.head_dim = 15;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ModelConfig, GroupsComputed)
{
    EXPECT_EQ(model::tinyConfig(AttentionKind::GQA).groups(), 2);
    EXPECT_EQ(model::tinyConfig(AttentionKind::MQA).groups(), 4);
    EXPECT_EQ(model::tinyConfig(AttentionKind::MHA).groups(), 1);
}

TEST(ModelConfig, GeometryPresetsMatchPublicSizes)
{
    // Llama3.1-8B has ~8.0B parameters; we accept 5 % slack because the
    // preset omits biases and norm minutiae.
    const auto l8 = model::llama31_8bGeometry();
    EXPECT_NEAR(static_cast<double>(l8.parameterCount()), 8.0e9, 0.4e9);

    const auto q8 = model::qwen3_8bGeometry();
    EXPECT_NEAR(static_cast<double>(q8.parameterCount()), 8.2e9, 0.5e9);

    // Llama3.2-1B ties embeddings: ~1.24B.
    const auto l1 = model::reasoningLlama32_1bGeometry();
    EXPECT_NEAR(static_cast<double>(l1.parameterCount()), 1.24e9, 0.3e9);
}

TEST(ModelConfig, KvBytesPerTokenLlama8b)
{
    // 32 layers * 8 kv heads * 128 dim * 2 (K+V) * 2 bytes = 128 KiB.
    EXPECT_EQ(model::llama31_8bGeometry().kvBytesPerToken(), 131072);
}

TEST(ModelConfig, PrunedHeadIsSmall)
{
    // ~0.03B params (~60 MB FP16) for the 8B geometry (§7.4) — and
    // >90 % smaller than the ~0.5B full DLM.
    const auto base = model::llama31_8bGeometry();
    const int64_t pruned = model::prunedRetrievalHeadParams(base);
    EXPECT_NEAR(static_cast<double>(pruned), 0.021e9, 0.01e9);
    const auto dlm = model::dlmGeometryFor(base);
    EXPECT_GT(dlm.parameterCount(), 10 * pruned);
}

class TransformerAllKinds
    : public ::testing::TestWithParam<AttentionKind>
{
  protected:
    model::ModelConfig cfg_ = model::tinyConfig(GetParam());
    model::Transformer llm_ = model::Transformer::randomInit(cfg_, 42);
};

TEST_P(TransformerAllKinds, PrefillFillsCacheAndReturnsLogits)
{
    kv::KVCacheSet cache(cfg_);
    auto prompt = randomPrompt(16, cfg_.vocab, 1);
    Tensor logits = llm_.prefill(prompt, cache);
    EXPECT_EQ(cache.sequenceLength(), 16);
    EXPECT_EQ(logits.numel(), cfg_.vocab);
}

TEST_P(TransformerAllKinds, DecodeAppendsOneToken)
{
    kv::KVCacheSet cache(cfg_);
    llm_.prefill(randomPrompt(8, cfg_.vocab, 2), cache);
    llm_.decodeStep(5, cache);
    EXPECT_EQ(cache.sequenceLength(), 9);
}

TEST_P(TransformerAllKinds, DeterministicAcrossRuns)
{
    auto prompt = randomPrompt(12, cfg_.vocab, 3);
    kv::KVCacheSet c1(cfg_), c2(cfg_);
    Tensor l1 = llm_.prefill(prompt, c1);
    Tensor l2 = llm_.prefill(prompt, c2);
    for (int64_t i = 0; i < l1.numel(); ++i)
        EXPECT_EQ(l1.data()[i], l2.data()[i]);
}

TEST_P(TransformerAllKinds, FullSelectionMatchesNoSelector)
{
    // A selector that lists every position must reproduce full
    // attention bit-for-bit (mathematical equivalence check).
    auto prompt = randomPrompt(10, cfg_.vocab, 4);
    kv::KVCacheSet c1(cfg_), c2(cfg_);
    llm_.prefill(prompt, c1);
    llm_.prefill(prompt, c2);

    Tensor full = llm_.decodeStep(7, c1);

    const int64_t heads = cfg_.attention == AttentionKind::MLA
                              ? cfg_.q_heads
                              : cfg_.kv_heads;
    model::LayerSelector everything =
        [&](int64_t, const Tensor &) {
            model::LayerSelection sel;
            std::vector<int64_t> all;
            for (int64_t p = 0; p < 10; ++p)
                all.push_back(p);
            sel.per_head.assign(heads, all);
            return sel;
        };
    Tensor sparse = llm_.decodeStep(7, c2, &everything);
    for (int64_t i = 0; i < full.numel(); ++i)
        EXPECT_NEAR(full.data()[i], sparse.data()[i], 1e-4);
}

TEST_P(TransformerAllKinds, SparseSelectionChangesOutput)
{
    auto prompt = randomPrompt(32, cfg_.vocab, 5);
    kv::KVCacheSet c1(cfg_), c2(cfg_);
    llm_.prefill(prompt, c1);
    llm_.prefill(prompt, c2);
    Tensor full = llm_.decodeStep(7, c1);

    const int64_t heads = cfg_.attention == AttentionKind::MLA
                              ? cfg_.q_heads
                              : cfg_.kv_heads;
    model::LayerSelector tiny = [&](int64_t, const Tensor &) {
        model::LayerSelection sel;
        sel.per_head.assign(heads, {0, 1}); // only two old tokens
        return sel;
    };
    Tensor sparse = llm_.decodeStep(7, c2, &tiny);
    double diff = 0.0;
    for (int64_t i = 0; i < full.numel(); ++i)
        diff += std::abs(full.data()[i] - sparse.data()[i]);
    EXPECT_GT(diff, 1e-3);
}

TEST_P(TransformerAllKinds, TraceRecordsAttentionRows)
{
    kv::KVCacheSet cache(cfg_);
    llm_.prefill(randomPrompt(6, cfg_.vocab, 6), cache);
    model::StepTrace trace;
    trace.record_attention = true;
    llm_.decodeStep(3, cache, nullptr, &trace);
    ASSERT_EQ(static_cast<int64_t>(trace.attention.size()), cfg_.layers);
    EXPECT_EQ(trace.attention[0].dim(0), cfg_.q_heads);
    EXPECT_EQ(trace.attention[0].dim(1), 7); // 6 prompt + self

    // Each head's probabilities sum to 1.
    for (int64_t h = 0; h < cfg_.q_heads; ++h) {
        float sum = 0.0f;
        for (int64_t p = 0; p < 7; ++p)
            sum += trace.attention[0].at(h, p);
        EXPECT_NEAR(sum, 1.0f, 1e-4);
    }
}

/** memcmp of two float buffers, for bitwise parity checks. */
bool
sameBits(const float *a, const float *b, int64_t n)
{
    return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

/** Every cached K/V (or MLA latent) float of a and b is bit-equal. */
void
expectSameCache(const kv::KVCacheSet &a, const kv::KVCacheSet &b)
{
    ASSERT_EQ(a.sequenceLength(), b.sequenceLength());
    for (int64_t l = 0; l < a.layers(); ++l) {
        const kv::LayerKVCache &la = a.layer(l);
        const kv::LayerKVCache &lb = b.layer(l);
        for (int64_t p = 0; p < la.size(); ++p) {
            if (la.latentMode()) {
                EXPECT_TRUE(sameBits(la.latentAt(p), lb.latentAt(p),
                                     la.latentDim()))
                    << "layer " << l << " pos " << p;
                continue;
            }
            for (int64_t h = 0; h < la.kvHeads(); ++h) {
                EXPECT_TRUE(sameBits(la.keyAt(p, h), lb.keyAt(p, h),
                                     la.headDim()))
                    << "K layer " << l << " pos " << p << " head " << h;
                EXPECT_TRUE(sameBits(la.valueAt(p, h), lb.valueAt(p, h),
                                     la.headDim()))
                    << "V layer " << l << " pos " << p << " head " << h;
            }
        }
    }
}

/** The token-at-a-time reference: one decodeStep per prompt token. */
Tensor
prefillByDecodeSteps(const model::Transformer &llm,
                     const std::vector<int32_t> &tokens,
                     kv::KVCacheSet &cache)
{
    Tensor logits;
    for (int32_t t : tokens)
        logits = llm.decodeStep(t, cache);
    return logits;
}

void
expectPrefillMatchesDecodeSteps(const model::Transformer &llm,
                                const std::vector<int32_t> &prompt)
{
    kv::KVCacheSet chunked(llm.config()), stepped(llm.config());
    const Tensor a = llm.prefill(prompt, chunked);
    const Tensor b = prefillByDecodeSteps(llm, prompt, stepped);
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_TRUE(sameBits(a.data(), b.data(), a.numel()))
        << "logits differ at prompt length " << prompt.size();
    expectSameCache(chunked, stepped);
}

TEST_P(TransformerAllKinds, PrefillMatchesTokenAtATimeBitwise)
{
    // Lengths around the chunk edge: one token, a chunk minus one, one
    // chunk, a chunk plus one, and several chunks with a ragged tail.
    for (int64_t len : {1, 63, 64, 65, 197})
        expectPrefillMatchesDecodeSteps(
            llm_, randomPrompt(len, cfg_.vocab, 100 + len));
}

TEST_P(TransformerAllKinds, PrefillContinuesACacheBitwise)
{
    // prefill, two decode steps, then prefill again on the same cache.
    const auto first = randomPrompt(70, cfg_.vocab, 7);
    const auto second = randomPrompt(66, cfg_.vocab, 8);
    kv::KVCacheSet chunked(cfg_), stepped(cfg_);
    llm_.prefill(first, chunked);
    prefillByDecodeSteps(llm_, first, stepped);
    for (int32_t t : {9, 11}) {
        const Tensor a = llm_.decodeStep(t, chunked);
        const Tensor b = llm_.decodeStep(t, stepped);
        EXPECT_TRUE(sameBits(a.data(), b.data(), a.numel()));
    }
    const Tensor a = llm_.prefill(second, chunked);
    const Tensor b = prefillByDecodeSteps(llm_, second, stepped);
    EXPECT_TRUE(sameBits(a.data(), b.data(), a.numel()));
    EXPECT_EQ(chunked.sequenceLength(), 70 + 2 + 66);
    expectSameCache(chunked, stepped);
}

TEST_P(TransformerAllKinds, PrefillRejectsBadTokenWithoutTouchingCache)
{
    kv::KVCacheSet cache(cfg_);
    llm_.prefill({5, 6}, cache);
    const int32_t vocab = static_cast<int32_t>(cfg_.vocab);
    for (int32_t bad : {-1, vocab, vocab + 7}) {
        EXPECT_THROW(llm_.prefill({5, 6, 7, bad}, cache), std::out_of_range)
            << "id " << bad;
        EXPECT_EQ(cache.sequenceLength(), 2) << "id " << bad;
        for (int64_t l = 0; l < cache.layers(); ++l)
            EXPECT_EQ(cache.layer(l).size(), 2);
    }
}

TEST_P(TransformerAllKinds, RejectsOutOfVocabToken)
{
    kv::KVCacheSet cache(cfg_);
    EXPECT_THROW(llm_.decodeStep(static_cast<int32_t>(cfg_.vocab),
                                 cache),
                 std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TransformerAllKinds,
    ::testing::Values(AttentionKind::MHA, AttentionKind::GQA,
                      AttentionKind::MQA, AttentionKind::MLA),
    [](const ::testing::TestParamInfo<AttentionKind> &info) {
        return model::attentionKindName(info.param);
    });

TEST(TransformerBench, PrefillMatchesTokenAtATimeBitwiseAt512)
{
    // The live-reasoning benchmark's shape: benchConfig(GQA), 512 tokens.
    const auto cfg = model::benchConfig(AttentionKind::GQA);
    const auto llm = model::Transformer::randomInit(cfg, 7);
    expectPrefillMatchesDecodeSteps(llm, randomPrompt(512, cfg.vocab, 9));
}

TEST(Tokenizer, StableWordIds)
{
    model::ToyTokenizer tok(256);
    EXPECT_EQ(tok.wordId("ocean"), tok.wordId("ocean"));
    EXPECT_NE(tok.wordId("ocean"), tok.wordId("pacific"));
}

TEST(Tokenizer, EncodeSplitsOnWhitespace)
{
    model::ToyTokenizer tok(256);
    auto ids = tok.encode("what is the largest ocean");
    EXPECT_EQ(ids.size(), 5u);
    EXPECT_EQ(tok.tokenName(ids[4]), "ocean");
}

TEST(Tokenizer, ReservedSpecials)
{
    model::ToyTokenizer tok(256);
    EXPECT_EQ(tok.tokenName(model::ToyTokenizer::kBos), "<bos>");
    auto ids = tok.encode("a b c d e f g h");
    for (int32_t id : ids)
        EXPECT_GE(id, 2);
}

TEST(Weights, RetrievalAffinityCouplesQk)
{
    // With affinity 1 and GQA, a query head's columns equal its KV
    // head's key columns.
    auto cfg = model::tinyConfig(AttentionKind::GQA);
    model::InitOptions io;
    io.retrieval_affinity = 1.0f;
    auto w = model::ModelWeights::random(cfg, 11, io);
    const auto &l = w.layers[0];
    for (int64_t r = 0; r < cfg.hidden; ++r)
        EXPECT_FLOAT_EQ(l.wq.at(r, 0), l.wk.at(r, 0));
}

TEST(Weights, ZeroAffinityLeavesQkIndependent)
{
    auto cfg = model::tinyConfig(AttentionKind::GQA);
    model::InitOptions io;
    io.retrieval_affinity = 0.0f;
    auto w = model::ModelWeights::random(cfg, 11, io);
    const auto &l = w.layers[0];
    double diff = 0.0;
    for (int64_t r = 0; r < cfg.hidden; ++r)
        diff += std::abs(l.wq.at(r, 0) - l.wk.at(r, 0));
    EXPECT_GT(diff, 0.1);
}

} // namespace
} // namespace specontext
