/**
 * @file
 * Simulator fast-path knobs shared by serving::Server and
 * serving::Cluster. Both defaults are chosen so that flipping nothing
 * is already fast AND bit-exact:
 *
 *  - skip_ahead (default on) lets a replica execute runs of
 *    pure-decode rounds inside one ReplicaEngine::step() call instead
 *    of returning to the event loop per token. The driver bounds each
 *    run by the next boundary it owns (unrouted arrival, control
 *    tick, sampler cadence crossing), and the engine stops on its own
 *    at any internal boundary (admission work, preemption re-entry,
 *    drain) — so every simulated quantity is bit-identical to
 *    one-round-per-step execution; tests/test_simfast.cc pins it.
 *    Turning it off restores the literal one-event-at-a-time loop
 *    (the pre-fast-path baseline bench_simperf measures against).
 *
 *  - cache_decode_costs (default on) gives every replica lane a
 *    core::DecodeEvaluator: the decode-cost model's pure per-config
 *    derivations (cost-model construction, memory-model geometry,
 *    validation) are built once per (replica, batch size) instead of
 *    on every simulated decode iteration. The evaluator runs the same
 *    arithmetic on the same values, so every simulated duration is
 *    bit-identical; turning it off restores the literal
 *    re-derive-per-iteration pre-fast-path cost profile.
 *
 *  - skip_ahead also turns on *era dispatch* in Cluster::run: when
 *    every lane with an event below the router barrier is an
 *    independently advancing pure-decode lane, one booking scan steps
 *    ALL of them through their bulk windows, inline and in lane
 *    order — amortizing the per-event fleet scan over the whole era —
 *    instead of firing one lane per scan. Pure-decode rounds touch
 *    only their own engine and every lane stops at the same barrier
 *    the lane-at-a-time loop would impose, so results are
 *    bit-identical. Eras run only with observability off: an attached
 *    trace ring records events in lane-at-a-time order, which an era
 *    would reorder across lanes (tests/test_simfast.cc pins the
 *    observed fallback, counters included).
 */
#pragma once

namespace specontext {
namespace serving {

/** Engine-speed knobs; simulated results never depend on them. */
struct SimFastPath
{
    /** Bulk pure-decode stepping between external boundaries (and,
     *  in Cluster, era dispatch while unobserved). */
    bool skip_ahead = true;
    /** Cached per-lane decode-cost evaluator (bit-identical). */
    bool cache_decode_costs = true;
};

} // namespace serving
} // namespace specontext
