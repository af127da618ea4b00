/**
 * @file
 * Figure 8: accuracy on the four LongBench-style tasks (2WikiMQA,
 * TriviaQA, HotpotQA, PassageCount) vs KV budget, for Quest,
 * ClusterKV, ShadowKV and SpeContext, with the full-attention line.
 *
 * Budgets are scaled to the live model's context by the same ratios
 * the paper uses against its 8B models (512/1024/2048/4096 of ~16K).
 */
#include "bench/bench_util.h"
#include "retrieval/cluster_kv.h"
#include "retrieval/quest.h"
#include "retrieval/shadow_kv.h"
#include "workload/tasks.h"

using namespace specontext;

namespace {

double
scoreOf(bench::LiveStack &stack, const workload::QATask &task,
        const core::Reference &ref, const std::string &system,
        int64_t budget)
{
    if (system == "Quest") {
        retrieval::QuestRetriever r(budget, 16);
        return workload::scoreTask(task,
                                   stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "ClusterKV") {
        retrieval::ClusterKVRetriever r(budget, 16, 4);
        return workload::scoreTask(task,
                                   stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "ShadowKV") {
        retrieval::ShadowKVRetriever r(budget);
        return workload::scoreTask(task,
                                   stack.engine.runWithRetriever(ref, r))
            .score;
    }
    retrieval::RetrievalHead head(stack.dlm, {budget});
    return workload::scoreTask(
               task, stack.engine.runWithSpeContext(ref, head))
        .score;
}

} // namespace

int
main()
{
    bench::LiveStack stack;
    const int64_t ctx = 384; // live-scale stand-in for 16K
    workload::TaskGenerator gen(stack.cfg.vocab, 808);
    auto tasks = gen.all(ctx);
    // Paper budgets 512..4096 against 16K contexts of 32-layer trained
    // models. The 4-layer synthetic model reaches the same
    // accuracy-curve *phases* (degraded -> recovering -> converged to
    // full attention) at larger relative budgets, so the live budgets
    // are placed across that range; the mapping is documented in
    // README, "Synthetic model vs the paper", and is identical for
    // every system.
    const std::vector<std::pair<int64_t, int64_t>> budgets = {
        {512, ctx / 8}, {1024, ctx / 5}, {2048, ctx / 3},
        {4096, ctx / 2}};
    const char *systems[] = {"Quest", "ClusterKV", "ShadowKV",
                             "SpeContext"};

    for (auto &task : tasks) {
        task.answer_steps = 16;
        bench::section("Fig 8: " + task.name +
                       " (full attention = 100.0)");
        const auto ref = workload::taskReference(stack.engine, task);
        std::printf("%-12s", "budget");
        for (const char *s : systems)
            std::printf(" %12s", s);
        std::printf("\n");
        for (const auto &[paper_budget, live_budget] : budgets) {
            std::printf("%-12ld", paper_budget);
            for (const char *s : systems) {
                std::printf(" %12.1f",
                            scoreOf(stack, task, ref, s, live_budget));
            }
            std::printf("\n");
        }
    }
    std::printf("\n(paper shape: ours slightly below ClusterKV at the "
                "smallest budget, matching/above baselines and near "
                "full attention from ~1k up)\n");
    return 0;
}
