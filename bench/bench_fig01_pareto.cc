/**
 * @file
 * Figure 1(a)(b): Pareto frontiers of normalized accuracy vs
 * normalized throughput for KV-selection systems in the long-context
 * input and long-context reasoning scenarios.
 *
 * Accuracy comes from live runs of the tiny stack (score vs full
 * attention); throughput from the analytical simulator at the paper's
 * scale (8B geometry, 4 requests, 16K). Both axes are normalized to
 * full attention, matching the paper's plot.
 *
 * The system list is SystemRegistry::names() — every registered system
 * with a live accuracy path (including the H2O and StreamingLLM
 * permanent-eviction baselines) lands on the frontier; systems without
 * a liveScore() branch are listed with a visible "no live accuracy
 * path" note. Writes machine-readable curves to BENCH_pareto.json
 * (override with argv[1]).
 */
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/timing_engine.h"
#include "retrieval/cluster_kv.h"
#include "retrieval/h2o.h"
#include "retrieval/quest.h"
#include "retrieval/shadow_kv.h"
#include "retrieval/streaming_llm.h"
#include "workload/tasks.h"

using namespace specontext;

namespace {

struct Point
{
    std::string scenario;
    std::string system;
    int64_t budget;
    double norm_acc;
    double norm_tput;
};

std::vector<Point> g_points;

/** Live tiny-stack accuracy of `system` at `budget`; negative when the
 *  system has no live accuracy path. */
double
liveScore(bench::LiveStack &stack, const workload::QATask &task,
          const core::Reference &ref, const std::string &system,
          int64_t budget)
{
    if (system == "Quest") {
        retrieval::QuestRetriever r(budget, 16);
        return workload::scoreTask(
                   task, stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "ClusterKV") {
        retrieval::ClusterKVRetriever r(budget, 16, 4);
        return workload::scoreTask(
                   task, stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "ShadowKV") {
        retrieval::ShadowKVRetriever r(budget);
        return workload::scoreTask(
                   task, stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "H2O") {
        retrieval::H2ORetriever r(budget);
        return workload::scoreTask(
                   task, stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "StreamingLLM") {
        retrieval::StreamingLLMRetriever r(budget);
        return workload::scoreTask(
                   task, stack.engine.runWithRetriever(ref, r))
            .score;
    }
    if (system == "SpeContext") {
        retrieval::RetrievalHead head(stack.dlm, {budget});
        return workload::scoreTask(
                   task, stack.engine.runWithSpeContext(ref, head))
            .score;
    }
    return -1.0;
}

double
simThroughput(const std::string &system, bool reasoning, int64_t budget)
{
    core::TimingEngine te;
    core::SystemOptions opts;
    opts.budget = budget;
    core::TimingConfig tc;
    tc.llm = model::geometryPreset("Llama3.1-8B");
    tc.hw = sim::HardwareSpec::cloudA800();
    tc.system = core::SystemRegistry::create(system, opts);
    // Fig. 1's setting: 4 requests, 16K total length — capped at what
    // the system can simulate (Quest/ClusterKV are single-request).
    tc.batch = std::min<int64_t>(4, tc.system->maxSimulatedBatch());
    tc.prompt_len = reasoning ? 2048 : 14336;
    tc.gen_len = reasoning ? 14336 : 2048;
    const auto r = te.simulate(tc);
    // Per-request throughput so single-request systems are comparable.
    return r.oom ? 0.0 : r.throughput / static_cast<double>(tc.batch);
}

void
scenario(bool reasoning)
{
    bench::section(reasoning
                       ? "Fig 1(b): long-context reasoning Pareto"
                       : "Fig 1(a): long-context input Pareto");

    bench::LiveStack stack;
    workload::TaskGenerator gen(stack.cfg.vocab, 101);
    // Input scenario: long document, short answer. Reasoning: short
    // instruction, long generation.
    auto task = reasoning ? gen.hotpotQa(64) : gen.hotpotQa(288);
    task.answer_steps = reasoning ? 48 : 16;
    const auto ref = workload::taskReference(stack.engine, task);
    const char *scen = reasoning ? "reasoning" : "input";

    const double full_acc = 100.0;
    const double full_tp =
        simThroughput("FullAttn(FlashInfer)", reasoning, 2048);

    std::printf("%-12s %8s %10s %10s   (normalized to FlashInfer full "
                "attention)\n",
                "system", "budget", "norm-acc", "norm-tput");
    std::printf("%-12s %8s %10.3f %10.3f\n", "FullAttn", "-", 1.0, 1.0);
    g_points.push_back({scen, "FullAttn(FlashInfer)", -1, 1.0, 1.0});

    // Budgets 1024/2048 in the paper. A 4-layer synthetic model needs
    // a larger relative budget than a trained 32-layer 8B model for
    // the same fidelity, so the live budgets are chosen where the
    // tiny model's accuracy/budget curve has the same character as
    // the paper's (README, "Synthetic model vs the paper"): roughly
    // 1/4 and 1/2 of the live context for the input scenario, and
    // budgets around the total sequence for the reasoning scenario
    // (where the paper's 1024/2048 budgets also exceed the ~100-token
    // prompt).
    const int64_t live_ctx = static_cast<int64_t>(task.prompt.size()) +
                             task.answer_steps;
    const std::vector<std::pair<int64_t, int64_t>> budget_map =
        reasoning ? std::vector<std::pair<int64_t, int64_t>>{
                        {1024, live_ctx / 2}, {2048, live_ctx}}
                  : std::vector<std::pair<int64_t, int64_t>>{
                        {1024, live_ctx / 4}, {2048, live_ctx / 2}};
    for (const std::string &name : core::SystemRegistry::names()) {
        // Full-attention variants are the normalization anchor, not
        // Pareto curves.
        if (name.rfind("FullAttn", 0) == 0)
            continue;
        for (const auto &[paper_budget, live_budget] : budget_map) {
            const double acc =
                liveScore(stack, task, ref, name, live_budget);
            if (acc < 0.0) {
                // Registered but not wired into liveScore() above —
                // say so instead of silently shrinking the frontier.
                std::printf("%-12s %8ld %10s %10s   (no live accuracy "
                            "path; add it to liveScore())\n",
                            name.c_str(), paper_budget, "-", "-");
                break;
            }
            const double tp =
                simThroughput(name, reasoning, paper_budget);
            std::printf("%-12s %8ld %10.3f %10.3f\n", name.c_str(),
                        paper_budget, acc / full_acc, tp / full_tp);
            g_points.push_back(
                {scen, name, paper_budget, acc / full_acc, tp / full_tp});
        }
    }
}

void
writeJson(const std::string &path)
{
    std::vector<std::string> rows;
    rows.reserve(g_points.size());
    for (const Point &p : g_points) {
        obs::JsonRow row;
        row.str("scenario", p.scenario)
            .str("system", p.system)
            .num("budget", p.budget)
            .num("norm_acc", p.norm_acc, "%.4f")
            .num("norm_tput", p.norm_tput, "%.4f");
        rows.push_back(row.render());
    }
    bench::writeBenchJson(path, "fig01_pareto", "cloudA800", rows);
}

} // namespace

int
main(int argc, char **argv)
{
    scenario(false);
    scenario(true);
    std::printf("\nExpected shape (paper Fig. 1): in (a) sparse systems "
                "cluster near full-attention accuracy with >1 "
                "normalized throughput;\nin (b) baselines drop below "
                "1.0 throughput (retrieval overhead + retained KV) "
                "while SpeContext stays top-right.\nPermanent-eviction "
                "systems (H2O, StreamingLLM) sit far right (no "
                "retrieval, bounded KV) but lower (irreversible "
                "eviction).\n");
    writeJson(argc > 1 ? argv[1] : "BENCH_pareto.json");
    return 0;
}
