/**
 * @file
 * The specbench program: runs one workload and prints its metrics.
 *
 *   specbench --workload <diurnal-fleet|agentic-prefix|live-reasoning>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>] [--smoke]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics. A readable table comes first; the last line of standard
 * output is one JSON object {correct, attempted, failed, metrics}.
 * A failed output check sets "correct": false and the exit code to 1.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <map>
#include <string>

#include "report.h"

using namespace specbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, in print order; each workload reports all. */
const MetricDef kEndToEnd[] = {
    {"host_tok_s", "tok/s"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},      {"ttft_p50_s", "s"},
    {"ttft_p99_s", "s"},        {"tpot_p50_ms", "ms"},
    {"tpot_p99_ms", "ms"},      {"slo_attainment", "ratio"},
    {"served_tok_s", "tok/s"},  {"quality_top1", "ratio"},
};

/** Every per-layer metric, by src/ module. A layer a workload does not
 *  execute reads 0 there (n/a in the table). */
const MetricDef kPerLayer[] = {
    {"workload.gen_s", "s"},
    {"core.decode_eval_calls", "count"},
    {"core.decode_eval_s", "s"},
    {"core.decode_eval_ns_per_round", "ns"},
    {"core.prefill_eval_calls", "count"},
    {"core.prefill_eval_s", "s"},
    {"core.admit_eval_calls", "count"},
    {"core.admit_eval_s", "s"},
    {"core.loader_update_us", "us"},
    {"core.loader_reuse_ratio", "ratio"},
    {"core.loader_tokens_loaded", "tokens"},
    {"serving.run_s", "s"},
    {"serving.self_s", "s"},
    {"serving.host_ns_per_round", "ns"},
    {"serving.decode_rounds", "count"},
    {"serving.mean_batch", "requests"},
    {"serving.queue_delay_p99_s", "s"},
    {"serving.router_spills", "count"},
    {"serving.placement_skew", "ratio"},
    {"serving.preemptions", "count"},
    {"serving.rejected", "count"},
    {"kvcache.match_pin_us", "us"},
    {"kvcache.release_us", "us"},
    {"kvcache.evictions", "count"},
    {"kvcache.hit_ratio", "ratio"},
    {"kvcache.inserted_tokens", "tokens"},
    {"kvcache.evicted_tokens", "tokens"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.events", "count"},
    {"obs.ring_wrapped", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"model.prefill_s", "s"},
    {"model.decode_sparse_ms", "ms"},
    {"model.decode_full_ms", "ms"},
    {"model.sparse_speedup", "ratio"},
    {"model.kv_bytes_per_step", "B"},
    {"retrieval.observe_s", "s"},
    {"retrieval.head_step_ms", "ms"},
    {"tensor.topk_us", "us"},
    {"tensor.softmax_us", "us"},
    {"tensor.vecmat_us", "us"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "specbench: %s\nusage: specbench --workload "
                 "<diurnal-fleet|agentic-prefix|live-reasoning> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>] [--smoke]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                o.trace = std::stoi(v) != 0;
            } else if (a == "--spans") {
                o.span_path = v;
            } else {
                usage(("unknown flag " + a).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0) || !std::isfinite(o.seconds))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    Outcome out;
    try {
        if (o.workload == "diurnal-fleet")
            out = runDiurnalFleet(o);
        else if (o.workload == "agentic-prefix")
            out = runAgenticPrefix(o);
        else if (o.workload == "live-reasoning")
            out = runLiveReasoning(o);
        else
            usage(("unknown workload " + o.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "specbench: %s failed: %s\n",
                     o.workload.c_str(), e.what());
        return 1;
    }

    std::map<std::string, double> got;
    for (const Metric &m : out.metrics)
        got[m.name] = m.value;

    std::printf("workload %s  seed %llu  trace %d  host %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, hostLine().c_str());
    const MetricDef *defs = o.trace ? kPerLayer : kEndToEnd;
    const size_t n = o.trace ? sizeof(kPerLayer) / sizeof(MetricDef)
                             : sizeof(kEndToEnd) / sizeof(MetricDef);
    std::string json;
    for (size_t i = 0; i < n; ++i) {
        const auto it = got.find(defs[i].name);
        double v = it == got.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            out.check(false, std::string(defs[i].name) + " is finite");
            v = 0.0;
        }
        if (it == got.end())
            std::printf("  %-32s %18s %s\n", defs[i].name, "n/a",
                        defs[i].unit);
        else
            std::printf("  %-32s %18.6g %s\n", defs[i].name, v,
                        defs[i].unit);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, v, defs[i].unit);
        json += buf;
    }
    if (!o.trace) // reported as attempted/failed in the JSON line
        std::printf("  %-32s %18.6g ratio\n", "fail_ratio",
                    static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted));
    std::printf("  sent %lld  succeeded %lld  failed %lld\n",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.succeeded),
                static_cast<long long>(out.failed));
    for (const std::string &note : out.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                out.correct ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), json.c_str());
    return out.correct ? 0 : 1;
}
