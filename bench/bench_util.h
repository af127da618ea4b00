/**
 * @file
 * Shared helpers for the experiment-reproduction benches: a fixed live
 * stack (tiny LLM + DLM), prompt builders, and table printing.
 *
 * Every bench regenerates one table or figure of the paper; the rows
 * and series printed here are compared against the paper in the
 * README section "Synthetic model vs the paper".
 */
#pragma once

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/live_engine.h"
#include "model/distiller.h"
#include "obs/json.h"
#include "retrieval/retrieval_head.h"
#include "tensor/rng.h"

namespace specontext {
namespace bench {

/** The live model stack shared by accuracy benches. */
struct LiveStack
{
    model::ModelConfig cfg;
    model::Transformer llm;
    model::Transformer dlm;
    core::LiveEngine engine;

    explicit LiveStack(uint64_t seed = 42,
                       model::AttentionKind kind =
                           model::AttentionKind::GQA)
        : cfg(model::tinyConfig(kind)),
          llm(model::Transformer::randomInit(cfg, seed)),
          dlm(model::distill(llm)), engine(llm)
    {
    }
};

/** Locally coherent random prompt (see workload/tasks.cc rationale). */
inline std::vector<int32_t>
coherentPrompt(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> out;
    out.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
        if (!out.empty() && rng.uniform() < 0.5) {
            const uint64_t back =
                rng.uniformInt(std::min<uint64_t>(8, out.size()));
            out.push_back(out[out.size() - 1 - back]);
        } else {
            out.push_back(
                static_cast<int32_t>(2 + rng.uniformInt(vocab - 2)));
        }
    }
    return out;
}

inline double
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

/** Print a named section header. */
inline void
section(const std::string &title)
{
    std::printf("\n===== %s =====\n", title.c_str());
}

/**
 * Write a bench artifact as {"bench": ..., "hardware": ..., "rows":
 * [...]} — the shared writer of BENCH_*.json. Each entry of `rows` is
 * one complete JSON object (no trailing comma); build rows with
 * obs::JsonRow (and obs::jsonNumberArray for array fields) so key
 * escaping and the `": "` / `", "` formatting contract live in one
 * place.
 */
inline void
writeBenchJson(const std::string &path, const std::string &bench,
               const std::string &hardware,
               const std::vector<std::string> &rows)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::printf("cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"hardware\": \"%s\",\n"
                 "  \"rows\": [\n",
                 bench.c_str(), hardware.c_str());
    for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f, "    %s%s\n", rows[i].c_str(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace bench
} // namespace specontext
