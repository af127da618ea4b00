/**
 * @file
 * Tests of the simulator fast path: the SimFastPath knobs (skip-ahead
 * decode stepping, cached decode evaluators, parallel replica lanes)
 * must never change a single simulated quantity — only how fast the
 * simulator derives it. Every parity test here compares full
 * ClusterResults with exact ==, not tolerances: a fast path that is
 * "close" is wrong.
 *
 * Also pinned here because the fast path leans on them:
 *  - DecodeEvaluator bulk windows (beginWindow + k nextRoundSeconds ==
 *    k seconds() calls on elementwise-grown KV, bit for bit);
 *  - MemoryModel::allResidentMaxTokens() as the exact integer
 *    inversion of the all-layers-resident fit test;
 *  - AdmissionController::sameAdmissionShape(), the router's
 *    one-verdict-per-homogeneous-fleet memo;
 *  - sim::EventClock::fireLane() round accounting and elastic lane
 *    add/retire under skip-ahead;
 *  - util::ThreadPool fork-join semantics;
 *  - ServingMetrics summary-cache invalidation on merge-into-nonempty
 *    (regression: a polled collector must never serve pre-merge
 *    percentiles) and Streaming-mode digest parity.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/timing_engine.h"
#include "obs/obs.h"
#include "serving/admission.h"
#include "serving/cluster.h"
#include "serving/metrics.h"
#include "sim/event_clock.h"
#include "sim/memory_model.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using serving::AdmissionController;
using serving::Cluster;
using serving::ClusterConfig;
using serving::ClusterResult;
using serving::ReplicaConfig;
using serving::Request;
using serving::RequestRecord;
using serving::RouterPolicy;
using serving::SchedulerMode;
using serving::ServingMetrics;
using serving::ServingSummary;
using serving::SummaryMode;

// ------------------------------------------------------------ helpers

ReplicaConfig
speReplica(int64_t budget = 2048)
{
    ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = budget;
    rc.timing.system = core::SystemRegistry::create("SpeContext", opts);
    rc.max_batch = 8;
    return rc;
}

/** Full-attention replica under Optimistic scheduling with offload
 *  forbidden: admission binds on HBM and long generations force
 *  KV-pressure preemptions (the bench_preemption recipe). */
ReplicaConfig
preemptReplica()
{
    ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.allow_full_attention_offload = false;
    opts.prefix_reload_gbps = 200.0;
    rc.timing.system =
        core::SystemRegistry::create("FullAttn(FlashAttn)", opts);
    rc.max_batch = 64;
    rc.prefix_cache.budget_bytes = 8LL << 30;
    rc.prefix_cache.page_size = 16;
    rc.scheduler_mode = SchedulerMode::Optimistic;
    return rc;
}

std::vector<Request>
diurnal(int64_t n, uint64_t seed, double rate = 2.0)
{
    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = n;
    dc.base.arrival_rate_per_s = rate;
    dc.base.seed = seed;
    dc.prompt_lo = 256;
    dc.prompt_hi = 2048;
    dc.gen_lo = 64;
    dc.gen_hi = 512;
    return workload::diurnalTrace(dc);
}

/** Overloaded long-generation multi-turn trace — bursts arrive faster
 *  than bookings retire, so Optimistic replicas preempt. */
std::vector<Request>
preemptTrace(uint64_t seed)
{
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = 12;
    mt.base.arrival_rate_per_s = 0.8;
    mt.base.seed = seed;
    mt.turns = 4;
    mt.think_time_mean_s = 15.0;
    mt.first_prompt_lo = 2048;
    mt.first_prompt_hi = 8192;
    mt.followup_lo = 64;
    mt.followup_hi = 256;
    mt.gen_lo = 4096;
    mt.gen_hi = 16384;
    return workload::multiTurnTrace(mt);
}

/** Exact comparison of every simulated quantity two runs expose.
 *  Doubles compare with == on purpose: the fast path promises bit
 *  identity, not closeness. */
void
expectSameSimulation(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.fleet.makespan_seconds, b.fleet.makespan_seconds);
    EXPECT_EQ(a.fleet.iterations, b.fleet.iterations);
    EXPECT_EQ(a.fleet.peak_in_flight, b.fleet.peak_in_flight);
    EXPECT_EQ(a.fleet.rejected.size(), b.fleet.rejected.size());
    EXPECT_EQ(a.replica_seconds, b.replica_seconds);
    EXPECT_EQ(a.fleet.preempt.preemptions, b.fleet.preempt.preemptions);
    EXPECT_EQ(a.fleet.preempt.restores, b.fleet.preempt.restores);
    EXPECT_EQ(a.fleet.preempt.recompute_tokens,
              b.fleet.preempt.recompute_tokens);

    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (size_t i = 0; i < a.placements.size(); ++i) {
        EXPECT_EQ(a.placements[i].request_id,
                  b.placements[i].request_id);
        EXPECT_EQ(a.placements[i].replica, b.placements[i].replica);
    }

    ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
    for (size_t i = 0; i < a.scale_events.size(); ++i) {
        EXPECT_EQ(a.scale_events[i].t_seconds,
                  b.scale_events[i].t_seconds);
        EXPECT_EQ(a.scale_events[i].action, b.scale_events[i].action);
        EXPECT_EQ(a.scale_events[i].replica, b.scale_events[i].replica);
    }

    // Per-request records, not just aggregates: a compensating pair of
    // per-request errors must not pass.
    const auto &ra = a.fleet.metrics.records();
    const auto &rb = b.fleet.metrics.records();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_EQ(ra[i].replica, rb[i].replica);
        EXPECT_EQ(ra[i].admit_seconds, rb[i].admit_seconds);
        EXPECT_EQ(ra[i].first_token_seconds, rb[i].first_token_seconds);
        EXPECT_EQ(ra[i].finish_seconds, rb[i].finish_seconds);
        EXPECT_EQ(ra[i].preemptions, rb[i].preemptions);
        EXPECT_EQ(ra[i].recompute_tokens, rb[i].recompute_tokens);
    }

    const ServingSummary sa = a.summary();
    const ServingSummary sb = b.summary();
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.total_generated_tokens, sb.total_generated_tokens);
    EXPECT_EQ(sa.ttft_mean, sb.ttft_mean);
    EXPECT_EQ(sa.ttft_p99, sb.ttft_p99);
    EXPECT_EQ(sa.e2e_mean, sb.e2e_mean);
    EXPECT_EQ(sa.e2e_p99, sb.e2e_p99);
    EXPECT_EQ(sa.tpot_mean, sb.tpot_mean);
    EXPECT_EQ(sa.queue_delay_mean, sb.queue_delay_mean);
    EXPECT_EQ(sa.throughput_tokens_per_s, sb.throughput_tokens_per_s);
}

ClusterResult
runFleet(const core::TimingEngine &engine, ClusterConfig cfg,
         const std::vector<Request> &trace, bool skip_ahead,
         bool cache_costs, size_t threads = 1, size_t shards = 0)
{
    cfg.fast_path.skip_ahead = skip_ahead;
    cfg.fast_path.cache_decode_costs = cache_costs;
    cfg.fast_path.threads = threads;
    cfg.fast_path.shards = shards;
    return Cluster(engine, cfg).run(trace);
}

// ----------------------------------------- skip-ahead cluster parity

TEST(SimFast, SkipAheadParityReserveFleet)
{
    core::TimingEngine engine;
    for (uint64_t seed : {7u, 23u}) {
        const auto trace = diurnal(96, seed);
        ClusterConfig cc;
        cc.replicas = {speReplica(), speReplica(), speReplica()};
        cc.router.policy = RouterPolicy::LeastKvLoad;
        const ClusterResult slow =
            runFleet(engine, cc, trace, false, false);
        const ClusterResult fast =
            runFleet(engine, cc, trace, true, true);
        ASSERT_GT(slow.completed(), 0);
        expectSameSimulation(slow, fast);
    }
}

TEST(SimFast, SkipAheadParityPreemptionHeavyOptimistic)
{
    // Randomized preemption-heavy property: across seeds, an
    // Optimistic fleet at firm overload (so preempt/restore re-entry
    // interleaves with decode windows) must be bit-identical with
    // skip-ahead on and off. The engine may only skip within
    // pure-decode runs; this pins that it never skips *across* a
    // preemption boundary.
    core::TimingEngine engine;
    int64_t preemptions_seen = 0;
    for (uint64_t seed : {3u, 11u, 29u}) {
        const auto trace = preemptTrace(seed);
        ClusterConfig cc;
        cc.replicas = {preemptReplica(), preemptReplica()};
        cc.router.policy = RouterPolicy::JoinShortestQueue;
        const ClusterResult slow =
            runFleet(engine, cc, trace, false, false);
        const ClusterResult fast =
            runFleet(engine, cc, trace, true, true);
        ASSERT_GT(slow.completed(), 0);
        preemptions_seen += slow.fleet.preempt.preemptions;
        expectSameSimulation(slow, fast);
    }
    // The property is vacuous if no seed ever preempted.
    EXPECT_GT(preemptions_seen, 0);
}

TEST(SimFast, EvaluatorCacheAloneIsBitIdentical)
{
    // cache_decode_costs isolated from skip_ahead: the cached
    // evaluator must reproduce the re-derive-per-iteration costs
    // exactly even when every round still goes through the event loop.
    core::TimingEngine engine;
    const auto trace = diurnal(64, 5);
    ClusterConfig cc;
    cc.replicas = {speReplica(), speReplica()};
    cc.router.policy = RouterPolicy::RoundRobin;
    const ClusterResult plain = runFleet(engine, cc, trace, false, false);
    const ClusterResult cached = runFleet(engine, cc, trace, false, true);
    expectSameSimulation(plain, cached);
}

TEST(SimFast, ParallelLanesBitIdentical)
{
    core::TimingEngine engine;
    const auto trace = diurnal(128, 13, 4.0);
    ClusterConfig cc;
    for (int i = 0; i < 4; ++i)
        cc.replicas.push_back(speReplica());
    cc.router.policy = RouterPolicy::LeastKvLoad;
    const ClusterResult one = runFleet(engine, cc, trace, true, true, 1);
    const ClusterResult four =
        runFleet(engine, cc, trace, true, true, 4);
    ASSERT_GT(one.completed(), 0);
    expectSameSimulation(one, four);
}

TEST(SimFast, ShardCountInvarianceBitIdentical)
{
    // Era stepping partitions eligible lanes into shards; the shard
    // count is a pure execution-layout knob. Any shard count — with or
    // without worker threads behind it — must reproduce the serial
    // fast path bit for bit.
    core::TimingEngine engine;
    const auto trace = diurnal(160, 41, 4.0);
    ClusterConfig cc;
    for (int i = 0; i < 6; ++i)
        cc.replicas.push_back(speReplica());
    cc.router.policy = RouterPolicy::LeastKvLoad;
    const ClusterResult serial = runFleet(engine, cc, trace, true, true);
    ASSERT_GT(serial.completed(), 0);
    for (size_t shards : {1u, 2u, 4u}) {
        const ClusterResult sharded =
            runFleet(engine, cc, trace, true, true, /*threads=*/1,
                     shards);
        expectSameSimulation(serial, sharded);
        const ClusterResult threaded =
            runFleet(engine, cc, trace, true, true, /*threads=*/2,
                     shards);
        expectSameSimulation(serial, threaded);
    }
}

TEST(SimFast, PooledAndHeapPrefixTreeBitIdentical)
{
    // The prefix tree's slab pool changes only where nodes live.
    // A cache-heavy preemption workload (insertions, evictions, pin
    // churn) must be bit-identical with the pool replaced by plain
    // new/delete.
    core::TimingEngine engine;
    const auto trace = preemptTrace(11);
    ClusterConfig cc;
    cc.replicas = {preemptReplica(), preemptReplica()};
    cc.router.policy = RouterPolicy::PrefixAffinity;
    ClusterConfig heap_cfg = cc;
    for (auto &rc : heap_cfg.replicas)
        rc.prefix_cache.pooled = false;
    const ClusterResult pooled = runFleet(engine, cc, trace, true, true);
    const ClusterResult heap =
        runFleet(engine, heap_cfg, trace, true, true);
    ASSERT_GT(pooled.completed(), 0);
    // The cache did real work, so the pool was actually exercised:
    // insertions, and evictions through the heap and the pool's
    // recycle path.
    EXPECT_GT(pooled.fleet.prefix.inserted_tokens, 0);
    EXPECT_GT(pooled.fleet.prefix.evicted_tokens, 0);
    expectSameSimulation(pooled, heap);
}

TEST(SimFast, ObservedRunMatchesUnobservedSimulation)
{
    // Attaching trace + counters serializes parallel dispatch — era
    // stepping (threads AND shards requested) falls back to the
    // sequential engine so per-round event emission and counter
    // updates stay single-threaded — but simulated quantities must
    // not move, and the decode-iteration counter must agree with the
    // unobserved iteration count.
    core::TimingEngine engine;
    const auto trace = diurnal(64, 19);
    ClusterConfig cc;
    cc.replicas = {speReplica(), speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    const ClusterResult plain = runFleet(engine, cc, trace, true, true);

    obs::Trace ring{obs::TraceConfig{1 << 18}};
    obs::CounterRegistry counters;
    ClusterConfig oc = cc;
    oc.obs.trace = &ring;
    oc.obs.counters = &counters;
    const ClusterResult observed = runFleet(
        engine, oc, trace, true, true, /*threads=*/4, /*shards=*/4);
    expectSameSimulation(plain, observed);

    int64_t decode_iters = 0;
    for (const auto &c : counters.snapshot()) {
        if (c.name.find("decode_iterations") != std::string::npos)
            decode_iters += c.value;
    }
    EXPECT_EQ(decode_iters, plain.fleet.iterations);
}

// --------------------------------------------- elastic lanes mid-skip

/** Scale to 3 replicas early, back down to 1 later — forces
 *  EventClock addLane() and retireLane() while skip-ahead windows are
 *  running on the surviving lanes. */
class PulseController : public serving::FleetController
{
  public:
    int control(const serving::FleetState &s) override
    {
        const size_t attached = s.live + s.warming;
        if (s.now_seconds < 40.0)
            return static_cast<int>(3 - std::min<size_t>(3, attached));
        return -static_cast<int>(
            std::min<size_t>(attached - 1, attached));
    }
};

TEST(SimFast, ElasticLaneAddRetireParityUnderSkipAhead)
{
    core::TimingEngine engine;
    const auto trace = diurnal(96, 31);
    ClusterConfig cc;
    cc.replicas = {speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    cc.elastic.min_replicas = 1;
    cc.elastic.max_replicas = 3;
    cc.elastic.control_period_seconds = 5.0;

    PulseController slow_ctl, fast_ctl;
    ClusterConfig slow_cfg = cc;
    slow_cfg.elastic.controller = &slow_ctl;
    ClusterConfig fast_cfg = cc;
    fast_cfg.elastic.controller = &fast_ctl;

    const ClusterResult slow =
        runFleet(engine, slow_cfg, trace, false, false);
    const ClusterResult fast =
        runFleet(engine, fast_cfg, trace, true, true);
    // The elastic machinery actually fired: lanes were added and
    // retired mid-run, not just booked.
    ASSERT_FALSE(slow.scale_events.empty());
    bool attached = false, retired = false;
    for (const auto &ev : slow.scale_events) {
        attached |= ev.action == serving::ScaleAction::Attach;
        retired |= ev.action == serving::ScaleAction::Retire;
    }
    EXPECT_TRUE(attached);
    EXPECT_TRUE(retired);
    expectSameSimulation(slow, fast);
}

TEST(SimFast, EraSteppingElasticControlTickParity)
{
    // Elastic control ticks are router-barrier events: they must land
    // *between* eras, never inside one, or a scale decision would see
    // lane state from the future. Pin bit parity of an elastic fleet
    // under era stepping (threads + shards) against the plain engine,
    // and require that scale events actually fired mid-run.
    core::TimingEngine engine;
    const auto trace = diurnal(96, 31);
    ClusterConfig cc;
    cc.replicas = {speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    cc.elastic.min_replicas = 1;
    cc.elastic.max_replicas = 3;
    cc.elastic.control_period_seconds = 5.0;

    PulseController slow_ctl, era_ctl;
    ClusterConfig slow_cfg = cc;
    slow_cfg.elastic.controller = &slow_ctl;
    ClusterConfig era_cfg = cc;
    era_cfg.elastic.controller = &era_ctl;

    const ClusterResult slow =
        runFleet(engine, slow_cfg, trace, false, false);
    const ClusterResult era = runFleet(engine, era_cfg, trace, true,
                                       true, /*threads=*/4,
                                       /*shards=*/2);
    ASSERT_FALSE(slow.scale_events.empty());
    expectSameSimulation(slow, era);
}

// ------------------------------------------------- EventClock fast ops

TEST(EventClockFast, FireLaneMatchesFire)
{
    // fireLane(earliestLane()) must be observationally identical to
    // fire(): same winner, same subsequent bookings accepted.
    sim::EventClock a(4), b(4);
    obs::CounterRegistry ca, cb;
    a.attachObservability({nullptr, &ca, nullptr});
    b.attachObservability({nullptr, &cb, nullptr});

    const double books[][4] = {
        {5.0, 3.0, 9.0, 3.0},
        {1.0, 2.0, 0.5, 7.0},
        {4.0, 4.0, 4.0, 4.0},
    };
    for (const auto &round : books) {
        for (size_t i = 0; i < 4; ++i) {
            a.set(i, round[i]);
            b.set(i, round[i]);
        }
        const size_t via_fire = a.fire();
        const size_t picked = b.earliestLane();
        b.fireLane(picked);
        EXPECT_EQ(via_fire, picked);
    }
    // Round accounting went through the same counters either way.
    EXPECT_EQ(ca.snapshot().size(), cb.snapshot().size());
    const auto sa = ca.snapshot();
    const auto sb = cb.snapshot();
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].name, sb[i].name);
        EXPECT_EQ(sa[i].value, sb[i].value);
    }
}

TEST(EventClockFast, AddAndRetireLanesKeepFireLaneSound)
{
    sim::EventClock c(2);
    c.set(0, 10.0);
    c.set(1, 4.0);
    const size_t added = c.addLane();
    EXPECT_EQ(added, 2u);
    c.set(added, 1.0);
    EXPECT_EQ(c.earliestLane(), added);
    c.fireLane(added);
    c.retireLane(added);
    EXPECT_TRUE(c.laneRetired(added));
    EXPECT_THROW(c.set(added, 2.0), std::logic_error);
    // Retired lane keeps its slot; the scan falls back to lane 1.
    EXPECT_EQ(c.earliestLane(), 1u);
    c.fireLane(1);
    EXPECT_EQ(c.liveLanes(), 2u);
}

// ------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SingleThreadRunsInline)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    int ran = 0;
    pool.submit([&] { ++ran; });
    // Inline execution: done before wait() is even called.
    EXPECT_EQ(ran, 1);
    pool.wait();
}

TEST(ThreadPoolTest, WaitIsABarrierAcrossRepeatedBatches)
{
    util::ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int batch = 0; batch < 50; ++batch) {
        const int n = 1 + batch % 7;
        for (int i = 0; i < n; ++i)
            pool.submit([&] { done.fetch_add(1); });
        pool.wait();
        // Everything submitted so far has finished at each barrier.
        int expect = 0;
        for (int k = 0; k <= batch; ++k)
            expect += 1 + k % 7;
        EXPECT_EQ(done.load(), expect);
    }
}

TEST(ThreadPoolTest, RunShardsInlineWithoutWorkers)
{
    // No workers -> shards run inline, ascending, on the caller.
    util::ThreadPool pool(1);
    std::vector<size_t> order;
    struct Ctx
    {
        std::vector<size_t> *order;
    } ctx{&order};
    pool.runShards(5, +[](void *c, size_t s) {
        static_cast<Ctx *>(c)->order->push_back(s);
    }, &ctx);
    ASSERT_EQ(order.size(), 5u);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, RunShardsCoversEveryShardExactlyOnce)
{
    util::ThreadPool pool(3);
    constexpr size_t kShards = 17;
    std::atomic<int> hits[kShards] = {};
    struct Ctx
    {
        std::atomic<int> *hits;
    } ctx{hits};
    // Repeated generations through the same pool: each dispatch is a
    // full fork-join, so counts advance in lockstep.
    for (int round = 1; round <= 8; ++round) {
        pool.runShards(kShards, +[](void *c, size_t s) {
            static_cast<Ctx *>(c)->hits[s].fetch_add(1);
        }, &ctx);
        for (size_t s = 0; s < kShards; ++s)
            EXPECT_EQ(hits[s].load(), round) << "shard " << s;
    }
}

TEST(ThreadPoolTest, RunShardsFewerShardsThanWorkers)
{
    util::ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.runShards(2, +[](void *c, size_t) {
        static_cast<std::atomic<int> *>(c)->fetch_add(1);
    }, &total);
    EXPECT_EQ(total.load(), 2);
    // Zero shards is a no-op join, not a hang.
    pool.runShards(0, +[](void *c, size_t) {
        static_cast<std::atomic<int> *>(c)->fetch_add(1);
    }, &total);
    EXPECT_EQ(total.load(), 2);
}

// ------------------------------------------- DecodeEvaluator windows

core::TimingConfig
timingFor(const char *system, int64_t budget = 2048)
{
    core::TimingConfig cfg;
    cfg.llm = model::deepseekDistillLlama8bGeometry();
    cfg.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = budget;
    cfg.system = core::SystemRegistry::create(system, opts);
    return cfg;
}

TEST(DecodeWindow, MatchesRepeatedSecondsBitForBit)
{
    // beginWindow(kv) + k nextRoundSeconds() == k seconds() calls on
    // kv, kv+1, ..., kv+(k-1), exactly. The KV mix is chosen so the
    // window crosses both interesting lines mid-run: short contexts
    // pass the attention budget (attended-token growth stops) and the
    // batch eventually spills past the all-resident fit limit.
    core::TimingEngine engine;
    for (const char *system :
         {"SpeContext", "FullAttn(FlashAttn)", "H2O"}) {
        const core::TimingConfig cfg = timingFor(system, 512);
        auto window = engine.makeDecodeEvaluator(cfg);
        auto oracle = engine.makeDecodeEvaluator(cfg);
        std::vector<int64_t> kv = {100, 500, 505, 2048, 9000, 40000};
        window->beginWindow(kv);
        for (int round = 0; round < 64; ++round) {
            const double got = window->nextRoundSeconds();
            const double want = oracle->seconds(kv);
            ASSERT_EQ(got, want)
                << system << " diverged at round " << round;
            for (int64_t &s : kv)
                ++s;
        }
        // Re-beginning resets cleanly (the batch changed shape).
        std::vector<int64_t> kv2 = {1, 511, 512, 513};
        window->beginWindow(kv2);
        for (int round = 0; round < 8; ++round) {
            ASSERT_EQ(window->nextRoundSeconds(), oracle->seconds(kv2));
            for (int64_t &s : kv2)
                ++s;
        }
    }
}

TEST(DecodeWindow, EmptyBatchWindowIsZero)
{
    core::TimingEngine engine;
    auto ev = engine.makeDecodeEvaluator(timingFor("SpeContext"));
    ev->beginWindow({});
    EXPECT_EQ(ev->nextRoundSeconds(), 0.0);
    EXPECT_EQ(ev->nextRoundSeconds(), 0.0);
}

// ----------------------------------------- all-resident fit shortcut

TEST(MemoryModelFast, AllResidentMaxTokensIsTheExactThreshold)
{
    // s <= allResidentMaxTokens() iff maxGpuLayers(s) == layers, with
    // equality tight on both sides of the boundary. Pairings where the
    // weights fit:
    struct Case
    {
        sim::HardwareSpec hw;
        model::ModelConfig llm;
    };
    const Case cases[] = {
        {sim::HardwareSpec::cloudA800(),
         model::deepseekDistillLlama8bGeometry()},
        {sim::HardwareSpec::edge4060(),
         model::reasoningLlama32_1bGeometry()},
    };
    for (const Case &c : cases) {
        core::TimingConfig cfg = timingFor("SpeContext");
        cfg.hw = c.hw;
        cfg.llm = c.llm;
        const sim::MemoryModel mm(
            core::TimingEngine::memoryInputsFor(cfg, 1));
        const int64_t limit = mm.allResidentMaxTokens();
        ASSERT_GT(limit, 0);
        EXPECT_EQ(mm.maxGpuLayers(limit), cfg.llm.layers);
        EXPECT_LT(mm.maxGpuLayers(limit + 1), cfg.llm.layers);
        EXPECT_EQ(mm.maxGpuLayers(1), cfg.llm.layers);
    }

    // 8B weights alone overflow the 4060: the sentinel is -1, matching
    // maxGpuLayers never reaching the full-resident count.
    core::TimingConfig big = timingFor("SpeContext");
    big.hw = sim::HardwareSpec::edge4060();
    const sim::MemoryModel overflow(
        core::TimingEngine::memoryInputsFor(big, 1));
    EXPECT_EQ(overflow.allResidentMaxTokens(), -1);
    EXPECT_LT(overflow.maxGpuLayers(1), big.llm.layers);
}

// --------------------------------------------- admission-shape memo

TEST(AdmissionShape, EqualConfigsFromDistinctInstancesMatch)
{
    // Fleets build one SystemModel instance per replica; the router's
    // memo must still recognize them as the same admission shape.
    core::TimingConfig a = timingFor("SpeContext", 2048);
    core::TimingConfig b = timingFor("SpeContext", 2048);
    ASSERT_NE(a.system.get(), b.system.get());
    const AdmissionController ca(a), cb(b);
    EXPECT_TRUE(ca.sameAdmissionShape(cb));
    EXPECT_TRUE(cb.sameAdmissionShape(ca));
    EXPECT_TRUE(ca.sameAdmissionShape(ca));
}

TEST(AdmissionShape, AnyDecisionRelevantDifferenceBreaksTheMatch)
{
    const core::TimingConfig base = timingFor("SpeContext", 2048);
    const AdmissionController cbase(base);

    const AdmissionController cbudget(timingFor("SpeContext", 4096));
    EXPECT_FALSE(cbase.sameAdmissionShape(cbudget));

    const AdmissionController csystem(timingFor("H2O", 2048));
    EXPECT_FALSE(cbase.sameAdmissionShape(csystem));

    core::TimingConfig hw = base;
    hw.hw = sim::HardwareSpec::edge4060();
    EXPECT_FALSE(cbase.sameAdmissionShape(AdmissionController(hw)));

    core::TimingConfig llm = base;
    llm.llm = model::reasoningLlama32_1bGeometry();
    EXPECT_FALSE(cbase.sameAdmissionShape(AdmissionController(llm)));
}

// --------------------------------- ServingMetrics cache + streaming

Request
finished(int64_t id, double arrival, double admit, double first,
         double finish, int64_t gen = 4)
{
    Request r;
    r.id = id;
    r.prompt_len = 16;
    r.gen_len = gen;
    r.arrival_seconds = arrival;
    r.admit_seconds = admit;
    r.first_token_seconds = first;
    r.finish_seconds = finish;
    r.state = serving::RequestState::Finished;
    return r;
}

TEST(ServingMetricsCache, MergeIntoNonEmptyInvalidatesEveryScope)
{
    // Regression: summarize()/summarizeReplica() memoize their sorted
    // percentile series. Priming the memo on a non-empty collector and
    // then merge()-ing another collector in must invalidate the fleet
    // scope AND every per-replica scope — stale memos would keep
    // reporting pre-merge percentiles forever.
    ServingMetrics a;
    for (int i = 0; i < 8; ++i)
        a.record(finished(i, 0.0, 0.1, 1.0 + i, 10.0 + i), i % 2);
    // Prime the fleet memo and both replica memos.
    const ServingSummary before = a.summarize(100.0);
    (void)a.summarizeReplica(0, 100.0);
    (void)a.summarizeReplica(1, 100.0);

    ServingMetrics b;
    for (int i = 8; i < 16; ++i)
        b.record(finished(i, 0.0, 0.2, 100.0 + i, 200.0 + i), i % 2);
    a.merge(b);

    // Oracle: a fresh collector fed the concatenation, no memo to go
    // stale.
    ServingMetrics fresh;
    for (const RequestRecord &r : a.records()) {
        Request rr = finished(r.id, r.arrival_seconds, r.admit_seconds,
                              r.first_token_seconds, r.finish_seconds,
                              r.gen_len);
        fresh.record(rr, r.replica);
    }

    const ServingSummary merged = a.summarize(100.0);
    const ServingSummary oracle = fresh.summarize(100.0);
    EXPECT_EQ(merged.completed, oracle.completed);
    EXPECT_EQ(merged.ttft_p50, oracle.ttft_p50);
    EXPECT_EQ(merged.ttft_p99, oracle.ttft_p99);
    EXPECT_EQ(merged.e2e_p50, oracle.e2e_p50);
    EXPECT_EQ(merged.e2e_p99, oracle.e2e_p99);
    // The merge visibly moved the tail (the B records are much slower),
    // so a stale memo could not have passed the checks above.
    EXPECT_GT(merged.ttft_p99, before.ttft_p99);

    for (int64_t rep : {0, 1}) {
        const ServingSummary mr = a.summarizeReplica(rep, 100.0);
        const ServingSummary fr = fresh.summarizeReplica(rep, 100.0);
        EXPECT_EQ(mr.completed, fr.completed);
        EXPECT_EQ(mr.ttft_p99, fr.ttft_p99);
        EXPECT_EQ(mr.e2e_p99, fr.e2e_p99);
    }
}

TEST(ServingMetricsStreaming, DigestMeansExactPercentilesBounded)
{
    // Streaming mode: means bit-identical to Exact on an un-merged
    // collector; histogram percentiles within the documented ~2%
    // bucket width.
    ServingMetrics exact, streaming;
    streaming.setSummaryMode(SummaryMode::Streaming);
    for (int i = 0; i < 200; ++i) {
        const double first = 0.5 + 0.01 * i;
        const double finish = first + 2.0 + 0.05 * i;
        const Request r = finished(i, 0.0, 0.1, first, finish, 8);
        exact.record(r, i % 3);
        streaming.record(r, i % 3);
    }
    const ServingSummary se = exact.summarize(50.0);
    const ServingSummary ss = streaming.summarize(50.0);
    EXPECT_EQ(ss.completed, se.completed);
    EXPECT_EQ(ss.ttft_mean, se.ttft_mean);
    EXPECT_EQ(ss.e2e_mean, se.e2e_mean);
    EXPECT_EQ(ss.tpot_mean, se.tpot_mean);
    EXPECT_EQ(ss.queue_delay_mean, se.queue_delay_mean);
    EXPECT_EQ(ss.throughput_tokens_per_s, se.throughput_tokens_per_s);
    EXPECT_NEAR(ss.ttft_p99, se.ttft_p99, 0.02 * se.ttft_p99);
    EXPECT_NEAR(ss.e2e_p50, se.e2e_p50, 0.02 * se.e2e_p50);
    EXPECT_NEAR(ss.e2e_p99, se.e2e_p99, 0.02 * se.e2e_p99);
}

} // namespace
} // namespace specontext
