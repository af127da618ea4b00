/**
 * @file
 * The two simulator workloads: open-loop traces served by
 * serving::Cluster::run on a fixed fleet.
 *
 *  - diurnal-fleet: the bench_simperf sweep (16x A800 SpeContext,
 *    LeastKvLoad, Reserve, no prefix cache) — decode-window bound;
 *    the control for kvcache and admission changes.
 *  - agentic-prefix: 2x A800 SpeContext, Optimistic, 8 GiB prefix
 *    cache, PrefixAffinity, over agentic tool-call sessions — prefix
 *    tree bound (inserts and LRU evictions beside matches).
 *
 * The timed pass (--trace 0) sets up repeatedly, runs one untimed
 * warm-up, then repeats the same trace until --seconds elapse, each
 * repetition on the next CPU in turn, and reports the fastest
 * repetition's host rate; simulated metrics come
 * from the warm-up result, which every timed repetition must equal bit
 * for bit.
 * agentic-prefix times repetitions of its first 100 sessions (its
 * simulated metrics need all 400 to hold still across seeds).
 * The traced pass (--trace 1) interleaves untraced, span-traced and
 * obs-attached runs of the repetition trace, and replays each
 * replica's prompt stream through kv::PrefixTree.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

#include "kvcache/prefix_tree.h"
#include "obs/obs.h"
#include "probe.h"
#include "report.h"
#include "serving/cluster.h"
#include "workload/trace.h"

namespace specbench {

using namespace specontext;

namespace {

/** One simulator workload: its trace generator and its fleet shape. */
struct FleetSpec
{
    /** Trace for `seed`; `reps` asks for the trace the host-time
     *  repetitions replay, which may be a shorter prefix of it. */
    std::function<std::vector<serving::Request>(uint64_t seed, bool smoke,
                                                bool reps)>
        trace;
    /** True when the repetition trace is shorter than the full one. */
    bool short_reps = false;
    std::function<serving::ClusterConfig()> fleet;
};

serving::ReplicaConfig
a800SpeContext(int64_t max_batch)
{
    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = 2048;
    rc.timing.system = core::SystemRegistry::create("SpeContext", opts);
    rc.max_batch = max_batch;
    return rc;
}

FleetSpec
diurnalSpec()
{
    FleetSpec s;
    s.trace = [](uint64_t seed, bool smoke, bool) {
        workload::DiurnalTraceConfig dc;
        dc.base.num_requests = smoke ? 2000 : 20000;
        dc.base.arrival_rate_per_s = 8.0;
        dc.base.seed = seed;
        return workload::diurnalTrace(dc);
    };
    s.fleet = [] {
        serving::ClusterConfig cc;
        for (int i = 0; i < 16; ++i)
            cc.replicas.push_back(a800SpeContext(8));
        cc.router.policy = serving::RouterPolicy::LeastKvLoad;
        return cc;
    };
    return s;
}

FleetSpec
agenticSpec()
{
    FleetSpec s;
    // 400 sessions for steady simulated tails; the host-time repetitions
    // replay the first 100 (the generator's sessions do not depend on
    // how many follow), so a run fits ~20 of them.
    s.trace = [](uint64_t seed, bool smoke, bool reps) {
        workload::AgenticLoopTraceConfig al;
        al.steps = 12;
        al.base.num_requests = smoke ? (reps ? 6 : 12) : (reps ? 100 : 400);
        al.base.arrival_rate_per_s = 0.3;
        al.base.seed = seed;
        return workload::agenticLoopTrace(al);
    };
    s.fleet = [] {
        serving::ClusterConfig cc;
        for (int i = 0; i < 2; ++i) {
            serving::ReplicaConfig rc = a800SpeContext(64);
            rc.scheduler_mode = serving::SchedulerMode::Optimistic;
            rc.prefix_cache.budget_bytes = 8LL << 30;
            rc.prefix_cache.page_size = 16;
            cc.replicas.push_back(rc);
        }
        cc.router.policy = serving::RouterPolicy::PrefixAffinity;
        return cc;
    };
    s.short_reps = true;
    return s;
}

/** FNV-1a over every simulated output of a run: records, placements,
 *  rejections, clocks and cache/preemption counters. */
class Digest
{
  public:
    template <typename T> void add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b)
            h_ = (h_ ^ c) * 1099511628211ull;
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

uint64_t
digest(const serving::ClusterResult &r)
{
    Digest d;
    d.add(r.fleet.makespan_seconds);
    d.add(r.fleet.iterations);
    d.add(r.replica_seconds);
    for (const serving::RequestRecord &x : r.fleet.metrics.records()) {
        d.add(x.id);
        d.add(x.replica);
        d.add(x.gen_len);
        d.add(x.admit_seconds);
        d.add(x.first_token_seconds);
        d.add(x.finish_seconds);
        d.add(x.preemptions);
    }
    for (const serving::Placement &p : r.placements) {
        d.add(p.request_id);
        d.add(p.replica);
    }
    for (const serving::Request &x : r.fleet.rejected)
        d.add(x.id);
    const serving::PrefixCacheStats &c = r.fleet.prefix;
    for (int64_t v : {c.lookups, c.hit_requests, c.hit_tokens,
                      c.inserted_tokens, c.evicted_tokens,
                      r.fleet.preempt.preemptions,
                      r.fleet.preempt.recompute_tokens})
        d.add(v);
    return d.value();
}

int64_t
generatedTokens(const serving::ClusterResult &r)
{
    int64_t n = 0;
    for (const serving::RequestRecord &x : r.fleet.metrics.records())
        n += x.gen_len;
    return n;
}

/** Request accounting (added to `out`) and output checks of one run. */
void
checkOutputs(const std::vector<serving::Request> &trace,
             const serving::ClusterResult &r, Outcome &out)
{
    std::map<int64_t, int64_t> requested;
    for (const serving::Request &x : trace)
        requested[x.id] = x.gen_len;
    const int64_t completed = r.completed();
    const int64_t rejected = static_cast<int64_t>(r.fleet.rejected.size());
    out.attempted += static_cast<int64_t>(trace.size());
    out.succeeded += completed;
    out.failed += rejected;
    out.check(completed + rejected == static_cast<int64_t>(trace.size()),
              "sent == completed + rejected");
    int64_t want = 0;
    for (const serving::RequestRecord &x : r.fleet.metrics.records()) {
        auto it = requested.find(x.id);
        out.check(it != requested.end(), "completed id is in the trace");
        if (it != requested.end())
            want += it->second;
    }
    out.check(generatedTokens(r) == want,
              "sum generated == sum requested output of completed");
}

/** Replay each replica's prompt stream, in the run's own admit/finish
 *  order, through PrefixTree::matchAndPin / release. */
struct ReplayStats
{
    double match_pin_us = 0.0;
    double release_us = 0.0;
    int64_t evictions = 0;
};

ReplayStats
replayPrefixTrees(const std::vector<serving::Request> &trace,
                  const serving::ClusterConfig &cc,
                  const serving::ClusterResult &r)
{
    std::map<int64_t, const serving::Request *> by_id;
    for (const serving::Request &x : trace)
        by_id[x.id] = &x;
    struct Ev
    {
        double t;
        int kind; // 0 = finish (release), 1 = admit (match and pin)
        int64_t id;
    };
    ReplayStats st;
    double pin_s = 0.0, release_s = 0.0;
    int64_t pins = 0, releases = 0;
    for (size_t rep = 0; rep < cc.replicas.size(); ++rep) {
        const serving::ReplicaConfig &rc = cc.replicas[rep];
        if (rc.prefix_cache.budget_bytes <= 0)
            continue;
        std::vector<Ev> evs;
        for (const serving::RequestRecord &x : r.fleet.metrics.records()) {
            if (x.replica != static_cast<int64_t>(rep))
                continue;
            evs.push_back({x.admit_seconds, 1, x.id});
            evs.push_back({x.finish_seconds, 0, x.id});
        }
        std::sort(evs.begin(), evs.end(), [](const Ev &a, const Ev &b) {
            return a.t != b.t ? a.t < b.t
                              : a.kind != b.kind ? a.kind < b.kind
                                                 : a.id < b.id;
        });
        kv::PrefixTreeConfig tc;
        tc.page_size = rc.prefix_cache.page_size;
        tc.bytes_per_token = core::kvBytesPerTokenPerLayer(rc.timing.llm) *
                             rc.timing.llm.layers;
        tc.budget_bytes = rc.prefix_cache.budget_bytes;
        kv::PrefixTree tree(tc);
        std::map<int64_t, kv::PrefixHandle> pinned;
        for (const Ev &e : evs) {
            if (e.kind == 1) {
                const double t0 = nowSeconds();
                kv::MatchAndPinResult m =
                    tree.matchAndPin(by_id[e.id]->prompt_tokens);
                pin_s += nowSeconds() - t0;
                ++pins;
                pinned[e.id] = m.handle;
            } else {
                auto it = pinned.find(e.id);
                const double t0 = nowSeconds();
                tree.release(it->second);
                release_s += nowSeconds() - t0;
                ++releases;
                pinned.erase(it);
            }
        }
        st.evictions += tree.evictedTokens() / tc.page_size;
    }
    st.match_pin_us = pins ? pin_s * 1e6 / pins : 0.0;
    st.release_us = releases ? release_s * 1e6 / releases : 0.0;
    return st;
}

/** Wrap every replica's system in a span-timing ProbeSystem. */
serving::ClusterConfig
probed(serving::ClusterConfig cc, Spans &spans)
{
    for (serving::ReplicaConfig &rc : cc.replicas)
        rc.timing.system =
            std::make_shared<ProbeSystem>(rc.timing.system, spans);
    return cc;
}

void
addSimMetrics(const std::vector<serving::Request> &trace,
              const serving::ClusterResult &r, Outcome &out)
{
    std::vector<double> ttft, tpot;
    int64_t within_slo = 0;
    for (const serving::RequestRecord &x : r.fleet.metrics.records()) {
        ttft.push_back(x.ttft());
        tpot.push_back(x.tpot());
        if (x.ttft() <= 1.0 && x.tpot() <= 0.025)
            ++within_slo;
    }
    out.add("ttft_p50_s", percentile(ttft, 50));
    out.add("ttft_p99_s", percentile(ttft, 99));
    out.add("tpot_p50_ms", percentile(tpot, 50) * 1e3);
    out.add("tpot_p99_ms", percentile(tpot, 99) * 1e3);
    out.add("slo_attainment", static_cast<double>(within_slo) /
                                  static_cast<double>(trace.size()));
    out.add("served_tok_s", static_cast<double>(generatedTokens(r)) /
                                r.fleet.makespan_seconds);
}

Outcome
timedPass(const FleetSpec &spec, const Options &o)
{
    Outcome out;
    const core::TimingEngine engine;

    // Set-up: trace generation + fleet construction. Every timed
    // repetition sets its inputs up afresh, so the set-ups sample the
    // same stretch of host time as the repetitions; setup_s is their
    // median.
    std::vector<double> setup;
    std::vector<serving::Request> trace, reps_trace;
    std::unique_ptr<serving::Cluster> cluster;
    auto setUp = [&] {
        trace = {}; // tear the previous set-up down untimed
        reps_trace = {};
        cluster.reset();
        const double t0 = nowSeconds();
        trace = spec.trace(o.seed, o.smoke, false);
        if (spec.short_reps)
            reps_trace = spec.trace(o.seed, o.smoke, true);
        cluster = std::make_unique<serving::Cluster>(engine, spec.fleet());
        setup.push_back(nowSeconds() - t0);
    };
    setUp();

    // The full trace's simulated outcome; it is also the warm-up when
    // the repetitions replay the full trace.
    const serving::ClusterResult ref = cluster->run(trace);
    checkOutputs(trace, ref, out);
    uint64_t reps_digest = digest(ref);
    double tokens = static_cast<double>(generatedTokens(ref));
    if (spec.short_reps) {
        const serving::ClusterResult warm = cluster->run(reps_trace);
        checkOutputs(reps_trace, warm, out);
        reps_digest = digest(warm);
        tokens = static_cast<double>(generatedTokens(warm));
    }
    const std::vector<serving::Request> &timed =
        spec.short_reps ? reps_trace : trace;

    // Each repetition (and its set-up) runs on the next CPU in turn.
    std::vector<double> rates;
    CpuRotor rotor;
    const double start = nowSeconds();
    const size_t min_reps = o.smoke ? 2 : 3;
    while (rates.size() < min_reps || nowSeconds() - start < o.seconds) {
        rotor.next();
        setUp();
        const double t0 = nowSeconds();
        const serving::ClusterResult r = cluster->run(timed);
        const double wall = nowSeconds() - t0;
        rates.push_back(tokens / wall);
        out.check(digest(r) == reps_digest,
                  "timed repetition equals the warm-up bit for bit");
    }

    // The fastest repetition: the one least disturbed by co-tenant
    // load, which on shared hosts switches each vCPU between speeds.
    out.add("host_tok_s", *std::max_element(rates.begin(), rates.end()));
    out.add("setup_s", median(setup));
    out.add("peak_rss_mb", peakRssMb());
    addSimMetrics(trace, ref, out);
    out.add("quality_top1", qualityTop1(o.smoke));
    out.notes.push_back("timed repetitions: " +
                        std::to_string(rates.size()) + " over " +
                        std::to_string(rotor.size()) + " CPUs, set-ups: " +
                        std::to_string(setup.size()));
    return out;
}

Outcome
tracedPass(const FleetSpec &spec, const Options &o)
{
    Outcome out;
    const core::TimingEngine engine;

    std::vector<double> gen_s;
    std::vector<serving::Request> trace;
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowSeconds();
        trace = spec.trace(o.seed, o.smoke, true);
        gen_s.push_back(nowSeconds() - t0);
    }
    const serving::ClusterConfig cc = spec.fleet();
    const serving::Cluster plain(engine, cc);
    const serving::ClusterResult ref = plain.run(trace); // warm-up
    const uint64_t ref_digest = digest(ref);
    checkOutputs(trace, ref, out);
    const double rounds = static_cast<double>(ref.fleet.iterations);

    // Interleave untraced / span-traced / obs-attached repetitions so
    // the overhead ratios compare runs made under the same host state.
    std::map<std::string, std::vector<double>> per_rep;
    int64_t events = 0, wrapped = 0, spills = 0;
    const int reps = o.smoke ? 1 : 3;
    std::unique_ptr<Spans> spans;
    for (int rep = 0; rep < reps; ++rep) {
        double t0 = nowSeconds();
        out.check(digest(plain.run(trace)) == ref_digest,
                  "untraced repetition equals the warm-up");
        const double untraced = nowSeconds() - t0;

        spans = std::make_unique<Spans>();
        const int run_layer = spans->layer("serving.run");
        const serving::Cluster traced(engine, probed(cc, *spans));
        uint64_t traced_digest = 0;
        {
            Spans::Scope span(*spans, run_layer);
            traced_digest = digest(traced.run(trace));
        }
        out.check(traced_digest == ref_digest,
                  "traced pass equals the untraced pass bit for bit");
        const int dec = spans->layer("core.decode_eval");
        const int pre = spans->layer("core.prefill_eval");
        const int adm = spans->layer("core.admit_eval");

        obs::Trace ring;
        obs::CounterRegistry counters;
        obs::TimeseriesSampler sampler(&counters, {10.0, 1 << 16});
        serving::ClusterConfig occ = cc;
        occ.obs = {&ring, &counters, &sampler};
        const serving::Cluster observed(engine, occ);
        t0 = nowSeconds();
        const serving::ClusterResult obs_result = observed.run(trace);
        const double observed_wall = nowSeconds() - t0;
        out.check(digest(obs_result) == ref_digest,
                  "obs pass equals the untraced pass bit for bit");
        events = static_cast<int64_t>(ring.emitted());
        wrapped = static_cast<int64_t>(ring.dropped());
        spills = counters.valueOf("router.affinity_spills");

        const double run_s = spans->seconds(run_layer);
        const double decode_s = spans->seconds(dec);
        auto &m = per_rep;
        m["serving.run_s"].push_back(run_s);
        m["serving.self_s"].push_back(spans->selfSeconds(run_layer));
        m["serving.host_ns_per_round"].push_back(untraced * 1e9 / rounds);
        m["core.decode_eval_s"].push_back(decode_s);
        m["core.decode_eval_ns_per_round"].push_back(decode_s * 1e9 /
                                                     rounds);
        m["core.prefill_eval_s"].push_back(spans->seconds(pre));
        m["core.admit_eval_s"].push_back(spans->seconds(adm));
        m["trace.overhead_ratio"].push_back(run_s / untraced);
        m["obs.overhead_ratio"].push_back(observed_wall / untraced);
        m["core.decode_eval_calls"].push_back(
            static_cast<double>(spans->calls(dec)));
        m["core.prefill_eval_calls"].push_back(
            static_cast<double>(spans->calls(pre)));
        m["core.admit_eval_calls"].push_back(
            static_cast<double>(spans->calls(adm)));
    }
    if (!o.span_path.empty() && !spans->write(o.span_path))
        out.notes.push_back("could not write " + o.span_path);

    out.add("workload.gen_s", median(gen_s));
    for (const auto &kv : per_rep)
        out.add(kv.first, median(kv.second));

    std::vector<double> queue;
    for (const serving::RequestRecord &x : ref.fleet.metrics.records())
        queue.push_back(x.queueDelay());
    std::vector<int64_t> placed(cc.replicas.size(), 0);
    for (const serving::Placement &p : ref.placements)
        ++placed[static_cast<size_t>(p.replica)];
    const double mean_placed =
        static_cast<double>(ref.placements.size()) /
        static_cast<double>(placed.size());
    out.add("serving.decode_rounds", rounds);
    out.add("serving.mean_batch",
            static_cast<double>(generatedTokens(ref)) / rounds);
    out.add("serving.queue_delay_p99_s", percentile(queue, 99));
    out.add("serving.router_spills", static_cast<double>(spills));
    out.add("serving.placement_skew",
            static_cast<double>(
                *std::max_element(placed.begin(), placed.end())) /
                mean_placed);
    out.add("serving.preemptions",
            static_cast<double>(ref.fleet.preempt.preemptions));
    out.add("serving.rejected",
            static_cast<double>(ref.fleet.rejected.size()));

    std::vector<double> pin_us, release_us;
    int64_t evictions = 0;
    for (int rep = 0; rep < reps; ++rep) {
        const ReplayStats st = replayPrefixTrees(trace, cc, ref);
        pin_us.push_back(st.match_pin_us);
        release_us.push_back(st.release_us);
        evictions = st.evictions;
    }
    out.add("kvcache.match_pin_us", median(pin_us));
    out.add("kvcache.release_us", median(release_us));
    out.add("kvcache.evictions", static_cast<double>(evictions));
    out.add("kvcache.hit_ratio", ref.fleet.prefix.hitRate());
    out.add("kvcache.inserted_tokens",
            static_cast<double>(ref.fleet.prefix.inserted_tokens));
    out.add("kvcache.evicted_tokens",
            static_cast<double>(ref.fleet.prefix.evicted_tokens));
    out.add("obs.events", static_cast<double>(events));
    out.add("obs.ring_wrapped", static_cast<double>(wrapped));
    return out;
}

Outcome
runFleet(const FleetSpec &spec, const Options &o)
{
    return o.trace ? tracedPass(spec, o) : timedPass(spec, o);
}

} // namespace

Outcome
runDiurnalFleet(const Options &o)
{
    return runFleet(diurnalSpec(), o);
}

Outcome
runAgenticPrefix(const Options &o)
{
    return runFleet(agenticSpec(), o);
}

} // namespace specbench
