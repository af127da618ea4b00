/**
 * @file
 * Wall-clock micro-benchmarks (google-benchmark) of the primitives the
 * live engine actually executes: GEMV/GEMM projections, attention
 * scores, softmax, RoPE, Top-K, elastic set difference, prefill, one
 * decode step and one retrieval head step. These measure this
 * repository's real CPU kernels, not the simulated GPU.
 */
#include <benchmark/benchmark.h>

#include "core/elastic_loader.h"
#include "kvcache/kv_cache.h"
#include "model/distiller.h"
#include "model/transformer.h"
#include "retrieval/retrieval_head.h"
#include "tensor/ops.h"
#include "tensor/topk.h"

using namespace specontext;

namespace {

void
BM_Vecmat(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    Tensor x = Tensor::randn({n}, rng);
    Tensor w = Tensor::randn({n, n}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::vecmat(x, w));
    state.SetComplexityN(n);
}
BENCHMARK(BM_Vecmat)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void
BM_Matmul(benchmark::State &state)
{
    // One 64-token prefill chunk through a projection of
    // benchConfig(GQA): (64 x k) times (k x n).
    const int64_t k = state.range(0), n = state.range(1);
    Rng rng(11);
    Tensor a = Tensor::randn({64, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::matmul(a, b));
    state.SetItemsProcessed(state.iterations() * 64 * k * n);
}
BENCHMARK(BM_Matmul)
    ->Args({128, 64})
    ->Args({128, 128})
    ->Args({128, 256})
    ->Args({256, 128});

void
BM_ScaledScores(benchmark::State &state)
{
    // One query head of the retrieval head against n cached keys:
    // head_dim 16, keys of the four KV heads interleaved (stride 64).
    const int64_t dim = 16, stride = 64, n = state.range(0);
    Rng rng(12);
    Tensor q = Tensor::randn({dim}, rng);
    Tensor keys = Tensor::randn({n * stride}, rng);
    std::vector<float> out(n);
    for (auto _ : state) {
        ops::scaledScores(q.data(), keys.data(), dim, stride, n, 0.25f,
                          out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScaledScores)->Arg(1024)->Arg(2560);

void
BM_Softmax(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(2);
    std::vector<float> v(n);
    for (auto &x : v)
        x = rng.gaussian();
    for (auto _ : state) {
        auto copy = v;
        ops::softmaxInPlace(copy.data(), n);
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_Softmax)->Arg(1024)->Arg(16384)->Arg(131072);

void
BM_Rope(benchmark::State &state)
{
    Rng rng(3);
    Tensor qk = Tensor::randn({8, 128}, rng);
    int64_t pos = 0;
    for (auto _ : state)
        ops::applyRope(qk, ++pos);
}
BENCHMARK(BM_Rope);

void
BM_TopK(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(4);
    std::vector<float> scores(n);
    for (auto &x : scores)
        x = static_cast<float>(rng.uniform());
    for (auto _ : state)
        benchmark::DoNotOptimize(topkIndices(scores, n / 16));
}
BENCHMARK(BM_TopK)->Arg(4096)->Arg(32768)->Arg(131072);

void
BM_ElasticDiff(benchmark::State &state)
{
    const int64_t budget = state.range(0);
    Rng rng(5);
    std::vector<float> s1(budget * 4), s2(budget * 4);
    for (auto &x : s1)
        x = static_cast<float>(rng.uniform());
    s2 = s1;
    for (int i = 0; i < budget / 4; ++i)
        s2[rng.uniformInt(s2.size())] += 1.0f;
    const auto a = topkIndices(s1, budget);
    const auto b = topkIndices(s2, budget);
    for (auto _ : state)
        benchmark::DoNotOptimize(sortedDifference(a, b));
}
BENCHMARK(BM_ElasticDiff)->Arg(512)->Arg(2048)->Arg(8192);

void
BM_DecodeStepFull(benchmark::State &state)
{
    const auto cfg = model::tinyConfig(model::AttentionKind::GQA);
    const auto llm = model::Transformer::randomInit(cfg, 6);
    kv::KVCacheSet cache(cfg);
    Rng rng(7);
    std::vector<int32_t> prompt;
    for (int i = 0; i < state.range(0); ++i)
        prompt.push_back(
            static_cast<int32_t>(2 + rng.uniformInt(cfg.vocab - 2)));
    llm.prefill(prompt, cache);
    const int64_t base = cache.sequenceLength();
    for (auto _ : state) {
        benchmark::DoNotOptimize(llm.decodeStep(5, cache));
        // Roll back so every iteration measures the same KV length.
        cache.truncate(base);
    }
}
BENCHMARK(BM_DecodeStepFull)->Arg(128)->Arg(512);

void
BM_Prefill(benchmark::State &state)
{
    // The live-reasoning model: chunked, layer-major prefill of a
    // prompt into an empty cache.
    const auto cfg = model::benchConfig(model::AttentionKind::GQA);
    const auto llm = model::Transformer::randomInit(cfg, 7);
    kv::KVCacheSet cache(cfg);
    Rng rng(10);
    std::vector<int32_t> prompt;
    for (int i = 0; i < state.range(0); ++i)
        prompt.push_back(
            static_cast<int32_t>(2 + rng.uniformInt(cfg.vocab - 2)));
    for (auto _ : state) {
        cache.clear();
        benchmark::DoNotOptimize(llm.prefill(prompt, cache));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Prefill)->Arg(128)->Arg(512)->Arg(2048)->Unit(
    benchmark::kMillisecond);

void
BM_RetrievalHeadStep(benchmark::State &state)
{
    const auto cfg = model::tinyConfig(model::AttentionKind::GQA);
    const auto llm = model::Transformer::randomInit(cfg, 8);
    const auto dlm = model::distill(llm);
    retrieval::RetrievalHead head(dlm, {64});
    Rng rng(9);
    for (int i = 0; i < state.range(0); ++i)
        head.observe(
            static_cast<int32_t>(2 + rng.uniformInt(cfg.vocab - 2)));
    for (auto _ : state)
        benchmark::DoNotOptimize(head.step(5));
}
BENCHMARK(BM_RetrievalHeadStep)->Arg(256)->Arg(1024)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
