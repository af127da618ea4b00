/**
 * @file
 * Simulator self-benchmark: how fast does the simulator itself run,
 * and does the fast path change a single simulated result?
 *
 * One 16-replica fleet (A800 8B SpeContext, LeastKvLoad routing)
 * serves diurnal traces (mean 8 req/s, 4:1 peak:trough) at two
 * scales — the base sweep (default 100k requests) and a 10x
 * million-request sweep — in two engine modes:
 *
 *   legacy — skip-ahead off: one scheduling round per event-loop
 *            iteration, the pre-fast-path execution model;
 *   fast   — skip-ahead on: each fired replica runs its whole
 *            pure-decode window in one step() call, and era dispatch
 *            walks every eligible pure-decode lane through its window
 *            per booking scan.
 *
 * Every simulated output (placements, iteration count, makespan,
 * latency summary, replica-seconds) is asserted bitwise identical
 * across both modes at each scale before any rate is reported — a
 * fast result that differs from the slow one is a wrong result, so
 * the bench fails instead of printing it.
 *
 * Reported per mode: wall seconds, simulated-seconds per wall-second
 * (the headline), decode iterations simulated per wall-second, heap
 * allocations per request (operator new interposed in this TU), and
 * speedup vs legacy. Writes BENCH_simperf.json, whose "hardware"
 * field records the host's online CPU count.
 *
 * Regression gates (exit 1):
 *  - any bitwise mismatch against legacy at either scale;
 *  - fast mode below the optional sim-s/wall-s floor (argv[3]);
 *  - per-mode allocations/request above hard ceilings (large runs
 *    only — short traces are dominated by fixed setup costs).
 *
 * argv: [1] output json (default BENCH_simperf.json)
 *       [2] num_requests for the base sweep (default 100000); the
 *           big sweep always runs 10x this
 *       [3] optional floor on the base-sweep fast mode's
 *           simulated-seconds per wall-second; exits 1 below it (CI
 *           regression gate).
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.h"
#include "serving/cluster.h"
#include "workload/trace.h"

// ---- Allocation counter (this TU defines the global operators) ------
static std::atomic<int64_t> g_allocs{0};

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace specontext;

namespace {

/** Request count below which gated runs are too short for stable
 *  allocation ratios. */
constexpr int64_t kGateMinRequests = 20000;

/** Hard per-mode ceilings on allocations per request, ~2x the
 *  measured steady state (legacy ~850, fast ~4) so routine noise
 *  never trips them but a reintroduced per-iteration or per-request
 *  allocation does. */
double
allocCeiling(const std::string &mode)
{
    return mode == "legacy" ? 1800.0 : 12.0;
}

serving::ReplicaConfig
cloudReplica()
{
    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = 2048;
    rc.timing.system = core::SystemRegistry::create("SpeContext", opts);
    rc.max_batch = 8;
    return rc;
}

struct ModeRow
{
    std::string mode;
    int64_t requests = 0;
    double wall_s = 0.0;
    double sim_s = 0.0;
    int64_t iterations = 0;
    int64_t allocs = 0;
    serving::ClusterResult result;
};

ModeRow
runMode(const core::TimingEngine &engine, const std::string &mode,
        bool skip_ahead, const std::vector<serving::Request> &trace)
{
    serving::ClusterConfig cc;
    for (int i = 0; i < 16; ++i)
        cc.replicas.push_back(cloudReplica());
    cc.router.policy = serving::RouterPolicy::LeastKvLoad;
    // Legacy mode turns the whole fast path off — one-round-per-event
    // stepping AND per-iteration cost-model re-derivation, the pre-PR
    // execution profile this bench reports speedups against.
    cc.fast_path.skip_ahead = skip_ahead;
    cc.fast_path.cache_decode_costs = skip_ahead;
    const serving::Cluster cluster(engine, cc);

    ModeRow row;
    row.mode = mode;
    row.requests = static_cast<int64_t>(trace.size());
    const int64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    row.result = cluster.run(trace);
    const auto t1 = std::chrono::steady_clock::now();
    row.allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    row.wall_s =
        std::chrono::duration<double>(t1 - t0).count();
    row.sim_s = row.result.fleet.makespan_seconds;
    row.iterations = row.result.fleet.iterations;
    std::printf("  %-8s: wall %7.2f s, sim %10.1f s, "
                "%12.0f sim-s/wall-s\n",
                mode.c_str(), row.wall_s, row.sim_s,
                row.wall_s > 0.0 ? row.sim_s / row.wall_s : 0.0);
    return row;
}

/** Exit loudly on the first simulated output that differs — a faster
 *  wrong answer must never make it into a report. */
int g_mismatches = 0;

void
check(bool same, const char *what, const std::string &mode)
{
    if (same)
        return;
    std::printf("MISMATCH: %s differs between legacy and %s\n", what,
                mode.c_str());
    ++g_mismatches;
}

void
compareToLegacy(const ModeRow &legacy, const ModeRow &other)
{
    const serving::ClusterResult &a = legacy.result;
    const serving::ClusterResult &b = other.result;
    check(a.fleet.makespan_seconds == b.fleet.makespan_seconds,
          "makespan", other.mode);
    check(a.fleet.iterations == b.fleet.iterations, "iterations",
          other.mode);
    check(a.replica_seconds == b.replica_seconds, "replica_seconds",
          other.mode);
    check(a.placements.size() == b.placements.size(),
          "placement count", other.mode);
    for (size_t i = 0;
         i < a.placements.size() && i < b.placements.size(); ++i) {
        if (a.placements[i].request_id != b.placements[i].request_id ||
            a.placements[i].replica != b.placements[i].replica) {
            check(false, "placements", other.mode);
            break;
        }
    }
    const serving::ServingSummary sa = a.summary();
    const serving::ServingSummary sb = b.summary();
    check(sa.completed == sb.completed, "completed", other.mode);
    check(sa.total_generated_tokens == sb.total_generated_tokens,
          "generated tokens", other.mode);
    check(sa.ttft_mean == sb.ttft_mean, "ttft_mean", other.mode);
    check(sa.ttft_p99 == sb.ttft_p99, "ttft_p99", other.mode);
    check(sa.e2e_mean == sb.e2e_mean, "e2e_mean", other.mode);
    check(sa.e2e_p99 == sb.e2e_p99, "e2e_p99", other.mode);
    check(sa.tpot_mean == sb.tpot_mean, "tpot_mean", other.mode);
    check(sa.queue_delay_mean == sb.queue_delay_mean,
          "queue_delay_mean", other.mode);
    check(sa.throughput_tokens_per_s == sb.throughput_tokens_per_s,
          "throughput", other.mode);
}

double
rate(const ModeRow &m)
{
    return m.wall_s > 0.0 ? m.sim_s / m.wall_s : 0.0;
}

std::vector<serving::Request>
diurnal(int64_t num_requests)
{
    // Mean 8 req/s across a 16-replica fleet: the peak (~12.8 req/s)
    // keeps most lanes decoding, the trough (~3.2) leaves long
    // pure-decode windows — the regime million-request sweeps live in.
    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = num_requests;
    dc.base.arrival_rate_per_s = 8.0;
    dc.base.seed = 17;
    return workload::diurnalTrace(dc);
}

void
jsonRow(std::vector<std::string> &json, const ModeRow &m,
        const ModeRow &legacy)
{
    const double events_per_s =
        m.wall_s > 0.0
            ? static_cast<double>(m.iterations) / m.wall_s
            : 0.0;
    const double allocs_per_req =
        m.requests > 0 ? static_cast<double>(m.allocs) /
                             static_cast<double>(m.requests)
                       : 0.0;
    obs::JsonRow row;
    row.str("mode", m.mode)
        .num("requests", m.requests)
        .num("completed", m.result.completed())
        .num("sim_seconds", m.sim_s, "%.3f")
        .num("wall_seconds", m.wall_s, "%.3f")
        .num("sim_s_per_wall_s", rate(m), "%.1f")
        .num("decode_iterations", m.iterations)
        .num("iterations_per_wall_s", events_per_s, "%.0f")
        .num("allocs_total", m.allocs)
        .num("allocs_per_request", allocs_per_req, "%.2f")
        .num("speedup_vs_legacy",
             m.wall_s > 0.0 ? legacy.wall_s / m.wall_s : 0.0, "%.2f")
        .num("bitwise_identical_to_legacy", int64_t{1});
    json.push_back(row.render());
}

/** Allocation regression gate (large runs only). */
int
checkAllocs(const ModeRow &m)
{
    if (m.requests < kGateMinRequests)
        return 0;
    const double per_req = static_cast<double>(m.allocs) /
                           static_cast<double>(m.requests);
    if (per_req <= allocCeiling(m.mode))
        return 0;
    std::printf("FAIL: %s mode allocates %.2f/request "
                "(ceiling %.0f)\n",
                m.mode.c_str(), per_req, allocCeiling(m.mode));
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_simperf.json";
    const int64_t num_requests =
        argc > 2 ? std::atoll(argv[2]) : 100000;
    const double floor_sim_per_wall =
        argc > 3 ? std::atof(argv[3]) : 0.0;
    core::TimingEngine engine;

    bench::section("Simulator fast path: simulated seconds per "
                   "wall-clock second");

    // ---- Base sweep --------------------------------------------------
    std::printf("  fleet: 16x cloudA800 8B SpeContext, LeastKvLoad; "
                "trace: %lld diurnal requests\n",
                static_cast<long long>(num_requests));
    const auto trace = diurnal(num_requests);
    const ModeRow legacy = runMode(engine, "legacy", false, trace);
    const ModeRow fast = runMode(engine, "fast", true, trace);
    compareToLegacy(legacy, fast);

    // ---- Big sweep: 10x the base trace (a million requests at the
    // default), the scale-out row the headline quotes. ---------------
    const int64_t big_requests = num_requests * 10;
    std::printf("\n  big sweep: %lld diurnal requests\n",
                static_cast<long long>(big_requests));
    const auto big_trace = diurnal(big_requests);
    const ModeRow big_legacy =
        runMode(engine, "legacy", false, big_trace);
    const ModeRow big_fast = runMode(engine, "fast", true, big_trace);
    compareToLegacy(big_legacy, big_fast);

    if (g_mismatches > 0) {
        std::printf("FAIL: fast path changed simulated results\n");
        return 1;
    }
    std::printf("  all simulated outputs bitwise identical across "
                "modes at both scales\n");

    std::vector<std::string> json;
    jsonRow(json, legacy, legacy);
    jsonRow(json, fast, legacy);
    jsonRow(json, big_legacy, big_legacy);
    jsonRow(json, big_fast, big_legacy);
    // Wall-clock rates are host-specific: record the core count.
    const std::string host =
        "host-cpu, " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        " online CPUs";
    bench::writeBenchJson(out_path, "simperf", host, json);

    int failures = 0;
    for (const ModeRow *m : {&legacy, &fast, &big_legacy, &big_fast})
        failures += checkAllocs(*m);

    std::printf("\nspeedup vs legacy: fast %.2fx; big sweep: fast %.0f "
                "sim-s/wall-s\n",
                fast.wall_s > 0.0 ? legacy.wall_s / fast.wall_s : 0.0,
                rate(big_fast));
    if (floor_sim_per_wall > 0.0 && rate(fast) < floor_sim_per_wall) {
        std::printf("FAIL: fast mode below floor (%.1f < %.1f "
                    "sim-s/wall-s)\n",
                    rate(fast), floor_sim_per_wall);
        ++failures;
    }
    return failures > 0 ? 1 : 0;
}
