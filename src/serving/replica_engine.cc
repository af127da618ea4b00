#include "serving/replica_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace specontext {
namespace serving {

void
PrefixCacheStats::merge(const PrefixCacheStats &other)
{
    lookups += other.lookups;
    hit_requests += other.hit_requests;
    hit_tokens += other.hit_tokens;
    prompt_tokens += other.prompt_tokens;
    inserted_tokens += other.inserted_tokens;
    evicted_tokens += other.evicted_tokens;
    resident_bytes += other.resident_bytes;
    resident_tokens += other.resident_tokens;
}

namespace {

/** KV bytes one token occupies across all layers of this geometry. */
int64_t
kvBytesPerToken(const core::TimingConfig &timing)
{
    return core::kvBytesPerTokenPerLayer(timing.llm) * timing.llm.layers;
}

/** HBM left next to the LLM weights; negative when they alone
 *  oversubscribe the device. Shared by kvCapacityBytes() (the least-KV
 *  router's normalizer) and the construction-time cache budget clamp.
 *  Note the *runtime* budget sync prices weights more precisely
 *  through sim::MemoryModel::modelBytes() (which adds the retrieval
 *  head / DLM), so the working budget can sit below the configured
 *  cap even on an otherwise idle replica. */
int64_t
rawKvCapacityBytes(const ReplicaConfig &cfg)
{
    return cfg.timing.hw.gpu_mem_bytes -
           core::weightFootprintBytes(cfg.timing.llm);
}

/** Tree config of a replica: the configured budget clamped to the HBM
 *  left next to the weights (a cache larger than the device is
 *  meaningless). */
kv::PrefixTreeConfig
prefixTreeConfigFor(const ReplicaConfig &cfg)
{
    kv::PrefixTreeConfig tc;
    tc.page_size = cfg.prefix_cache.page_size;
    tc.pooled = cfg.prefix_cache.pooled;
    tc.bytes_per_token = kvBytesPerToken(cfg.timing);
    tc.budget_bytes = std::max<int64_t>(
        0, std::min(cfg.prefix_cache.budget_bytes,
                    std::max<int64_t>(rawKvCapacityBytes(cfg), 0)));
    return tc;
}

/** Scheduler knobs of a replica config. */
SchedulerConfig
schedulerConfigFor(const ReplicaConfig &cfg)
{
    SchedulerConfig sc;
    sc.mode = cfg.scheduler_mode;
    sc.victim_policy = cfg.victim_policy;
    sc.queue_policy = cfg.queue_policy;
    sc.max_batch = cfg.max_batch;
    return sc;
}

} // namespace

ReplicaEngine::ReplicaEngine(const core::TimingEngine &engine,
                             ReplicaConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)),
      scheduler_(cfg_.timing, schedulerConfigFor(cfg_)),
      prefix_tree_(prefixTreeConfigFor(cfg_))
{
    if (cfg_.max_batch <= 0)
        throw std::invalid_argument(
            "ReplicaEngine: non-positive max_batch");
    if (cfg_.prefix_cache.budget_bytes < 0)
        throw std::invalid_argument(
            "ReplicaEngine: negative prefix-cache budget");
    configured_prefix_budget_ = prefix_tree_.config().budget_bytes;
    kv_bytes_per_token_ = kvBytesPerToken(cfg_.timing);
    kv_capacity_bytes_ = std::max<int64_t>(rawKvCapacityBytes(cfg_), 1);
    model_bytes_ = scheduler_.admission().memoryModel().modelBytes();
    if (cfg_.name.empty()) {
        cfg_.name = "replica" + std::to_string(cfg_.id) + "(" +
                    cfg_.timing.hw.name + "/" +
                    cfg_.timing.system->name() + ")";
    }
    trace_ = cfg_.obs.trace;
    counters_ = cfg_.obs.counters;
    if (counters_) {
        const std::string p = "replica" + std::to_string(cfg_.id) + ".";
        slots_.enqueued_requests =
            counters_->counter(p + "enqueued_requests");
        slots_.admitted_requests =
            counters_->counter(p + "admitted_requests");
        slots_.admitted_prefill_tokens =
            counters_->counter(p + "admitted_prefill_tokens");
        slots_.prefix_hit_tokens =
            counters_->counter(p + "prefix_hit_tokens");
        slots_.preemptions = counters_->counter(p + "preemptions");
        slots_.preempted_tokens =
            counters_->counter(p + "preempted_tokens");
        slots_.restores = counters_->counter(p + "restores");
        slots_.recompute_tokens =
            counters_->counter(p + "recompute_tokens");
        slots_.completed_requests =
            counters_->counter(p + "completed_requests");
        slots_.rejected_requests =
            counters_->counter(p + "rejected_requests");
        slots_.generated_tokens =
            counters_->counter(p + "generated_tokens");
        slots_.decode_iterations =
            counters_->counter(p + "decode_iterations");
        slots_.queue_depth = counters_->gauge(p + "queue_depth");
        slots_.in_flight = counters_->gauge(p + "in_flight");
        slots_.live_kv_bytes = counters_->gauge(p + "live_kv_bytes");
        slots_.prefix_resident_bytes =
            counters_->gauge(p + "prefix_resident_bytes");
        slots_.prefix_pinned_bytes =
            counters_->gauge(p + "prefix_pinned_bytes");
    }
    scheduler_.attachObservability(cfg_.obs, cfg_.id);
    kv::PrefixTreeObserver tree_obs;
    tree_obs.trace = trace_;
    tree_obs.counters = counters_;
    tree_obs.replica = static_cast<int32_t>(cfg_.id);
    tree_obs.clock = &now_;
    prefix_tree_.setObserver(tree_obs);
}

void
ReplicaEngine::setDecodeCostCache(bool on)
{
    flushWindow();
    decode_eval_ =
        on ? engine_.makeDecodeEvaluator(cfg_.timing) : nullptr;
    prefill_eval_ =
        on ? engine_.makePrefillEvaluator(cfg_.timing) : nullptr;
    win_live_ = false;
}

void
ReplicaEngine::publishGauges()
{
    if (!counters_)
        return;
    counters_->set(slots_.queue_depth, waiting());
    counters_->set(slots_.in_flight,
                   static_cast<int64_t>(active_.size()));
    counters_->set(slots_.live_kv_bytes,
                   liveKvTokens() * kv_bytes_per_token_);
    counters_->set(slots_.prefix_resident_bytes, prefix_tree_.bytes());
    counters_->set(slots_.prefix_pinned_bytes,
                   prefix_tree_.pinnedBytes());
}

int64_t
ReplicaEngine::reservedKvTokens() const
{
    // active_'s share is a running total (see active_final_tokens_):
    // scanning Request objects per router probe was a measurable
    // share of fleet-scale runs.
    int64_t tokens = active_final_tokens_;
    for (size_t i = static_cast<size_t>(pending_next_);
         i < pending_.size(); ++i)
        tokens += pending_[i].finalLen();
    // The queue does not expose iteration; the Scheduler mirrors its
    // content via running totals maintained on enqueue/pop instead of
    // scanning.
    return tokens + scheduler_.queuedFinalKvTokens();
}

void
ReplicaEngine::flushWindow()
{
    if (win_defer_rounds_ == 0)
        return;
    // Deferral only happens on retirement-free windows, so the batch
    // membership (and the mirror's size) is exactly what the eager
    // pass would have kept: apply the uniform growth in place.
    const int64_t d = win_defer_rounds_;
    win_defer_rounds_ = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
        active_[i].generated += d;
        kv_scratch_[i] = active_[i].kvLen();
    }
}

int64_t
ReplicaEngine::liveKvTokens() const
{
    // kvLen() = prompt_len + generated, and `generated` lags every
    // active request by win_defer_rounds_ while a window is deferred
    // — add the lag back (integer-exact, and mutation-free so router
    // probes stay safe against parallel-lane stepping).
    int64_t tokens =
        static_cast<int64_t>(active_.size()) * win_defer_rounds_;
    for (const Request &r : active_)
        tokens += r.kvLen();
    for (size_t i = static_cast<size_t>(pending_next_);
         i < pending_.size(); ++i)
        tokens += pending_[i].kvLen();
    return tokens + scheduler_.queuedLiveKvTokens();
}

int64_t
ReplicaEngine::kvCapacityBytes() const
{
    return kv_capacity_bytes_;
}

double
ReplicaEngine::kvLoadFraction(int64_t extra_final_len_tokens) const
{
    const double bytes =
        static_cast<double>(reservedKvTokens() + extra_final_len_tokens) *
        static_cast<double>(kv_bytes_per_token_);
    return bytes / static_cast<double>(kv_capacity_bytes_);
}

double
ReplicaEngine::routingLoadFraction(const Request &r) const
{
    if (!optimistic())
        return kvLoadFraction(r.finalLen());
    // Optimistic replicas hold (and admit against) live contexts, not
    // booked reservations — price the router's signal the same way.
    const double bytes =
        static_cast<double>(liveKvTokens() + r.kvLen()) *
        static_cast<double>(kv_bytes_per_token_);
    return bytes / static_cast<double>(kv_capacity_bytes_);
}

int64_t
ReplicaEngine::prefixHitTokens(const Request &r) const
{
    // The *tree's* enabled() is the right gate here (not the
    // configured budget): while live-KV pressure has the working
    // budget clamped to 0 the tree is empty, and match() on it is a
    // correct miss.
    if (!prefix_tree_.enabled() || r.prompt_tokens.empty())
        return 0;
    const int64_t hit = prefix_tree_.match(r.prompt_tokens).hit_tokens;
    // Prefill must still compute at least the last prompt token — the
    // decode loop needs its logits (vLLM caps full-prompt hits the
    // same way).
    return std::min(hit, r.prompt_len - 1);
}

void
ReplicaEngine::syncPrefixBudget(int64_t extra_reserved_tokens,
                                int64_t extra_budget_tokens)
{
    // Cached prefixes compete with live KV for HBM headroom: the
    // tree's working budget is whatever Eq. 6's weight term and the
    // outstanding KV leave free, capped by the configured budget.
    // Reserve mode prices the outstanding KV at its booked
    // final-length reservations, Optimistic at the live contexts its
    // preemptive discipline actually holds. `extra_reserved_tokens`
    // carries the request being admitted right now (already popped
    // from the queue, not yet in active_). Live KV always wins — a
    // growing batch shrinks the cache, never the other way around —
    // and a squeeze to 0 is transient: the next sync with headroom
    // restores the budget.
    const int64_t outstanding_tokens =
        optimistic() ? liveKvTokens() : reservedKvTokens();
    const int64_t reserved_bytes =
        (outstanding_tokens + extra_reserved_tokens) *
        kv_bytes_per_token_;
    const int64_t headroom =
        cfg_.timing.hw.gpu_mem_bytes - model_bytes_ - reserved_bytes;
    // Pinned blocks are in-flight prompts' KV — one physical copy,
    // already paid for inside reserved_bytes via those requests'
    // reservations — so they ride on top of the budget: the clamp
    // bounds only the *idle* (unpinned, evictable) cache.
    // `extra_budget_tokens` extends the same courtesy to the blocks
    // the candidate's own prompt is about to insert-and-pin (also
    // inside extra_reserved_tokens), so they do not displace idle
    // cache the physical accounting would let stay.
    const int64_t idle_budget = std::max<int64_t>(
        0, std::min(configured_prefix_budget_,
                    std::max<int64_t>(headroom, 0)));
    prefix_tree_.setBudget(
        idle_budget + prefix_tree_.pinnedBytes() +
        extra_budget_tokens * kv_bytes_per_token_);
#if SPECONTEXT_OBS_ENABLED
    // The trace records the *idle* clamp (the evictable-cache cap) and
    // only when it changes — every admission re-clamps, but only
    // pressure transitions are interesting.
    if (trace_ && idle_budget != last_clamp_emitted_) {
        trace_->emit(obs::EventType::KvClamp, now_,
                     static_cast<int32_t>(cfg_.id), -1, idle_budget,
                     configured_prefix_budget_);
        last_clamp_emitted_ = idle_budget;
    }
#endif
}

int64_t
ReplicaEngine::admitThroughPrefixCache(Request &r)
{
    // Gate on the *configured* budget: the tree's working budget may
    // be squeezed to 0 right now, but the resize callback below must
    // still run so the cache revives once the pressure passes. It
    // runs for token-less admissions too — their reservations squeeze
    // the cache just the same.
    if (!prefixCacheEnabled())
        return 0;
    // The admission candidate's outstanding KV: its final-length
    // reservation in Reserve mode, its live (restore) context in
    // Optimistic mode — mirroring what each discipline admits on.
    const int64_t candidate_tokens =
        optimistic() ? r.kvLen() : r.finalLen();
    // Budget allowance for the blocks the candidate's prompt will
    // *newly* insert (full blocks minus what the tree already holds):
    // created below and pinned immediately, they are covered by the
    // reservation this same call books via extra_reserved_tokens.
    // Already-resident blocks cost the extension nothing (and the
    // pinned ones are inside pinnedBytes() already), so granting them
    // too would credit one physical copy twice. Capped at the
    // configured budget — the cache never indexes more of one prompt
    // than it could ever retain, so a pathological prompt cannot
    // balloon the tree only to be mass-evicted.
    const int64_t prompt_block_tokens =
        static_cast<int64_t>(r.prompt_tokens.size()) /
        cfg_.prefix_cache.page_size * cfg_.prefix_cache.page_size;
    const auto resizeToHeadroom = [&](const kv::PrefixMatch &estimate) {
        const int64_t new_block_tokens =
            prompt_block_tokens - estimate.hit_tokens;
        syncPrefixBudget(
            candidate_tokens,
            std::min(new_block_tokens,
                     configured_prefix_budget_ /
                         kv_bytes_per_token_));
    };
    if (r.prompt_tokens.empty()) {
        resizeToHeadroom(kv::PrefixMatch{});
        return 0;
    }
    // One combined traversal: match, resize (the callback above),
    // pin + insert — the fused form of the legacy three-walk
    // admission sequence.
    const int64_t inserted_before = prefix_tree_.insertedTokens();
    kv::MatchAndPinResult pin =
        prefix_tree_.matchAndPin(r.prompt_tokens, resizeToHeadroom);
    // Prefill must still compute at least the last token of the
    // restored context: for a fresh request that caps the hit at
    // prompt_len - 1 (the decode loop needs the last prompt token's
    // logits); a restore recomputes its generated suffix anyway, so
    // the full prompt may ride the cache.
    const int64_t hit =
        std::min(pin.match.hit_tokens, r.kvLen() - 1);
    ++result_.prefix.lookups;
    result_.prefix.prompt_tokens += r.prompt_len;
    if (hit > 0) {
        ++result_.prefix.hit_requests;
        result_.prefix.hit_tokens += hit;
    }
#if SPECONTEXT_OBS_ENABLED
    if (trace_) {
        if (hit > 0)
            trace_->emit(obs::EventType::PrefixHit, now_,
                         static_cast<int32_t>(cfg_.id), r.id, hit,
                         r.prompt_len);
        const int64_t inserted =
            prefix_tree_.insertedTokens() - inserted_before;
        if (inserted > 0)
            trace_->emit(obs::EventType::PrefixInsert, now_,
                         static_cast<int32_t>(cfg_.id), r.id, inserted,
                         prefix_tree_.residentTokens());
    }
#else
    (void)inserted_before;
#endif
    // Keep the whole prompt path (hit + newly inserted suffix blocks)
    // pinned until retirement or preemption so future same-prefix
    // admissions hit it and eviction cannot pull KV out from under an
    // in-flight request. Pins are keyed by a per-admission slot, not
    // the request id — duplicate ids in a degenerate trace must not
    // cross-release each other's live pins.
    r.prefix_pin_slot = next_pin_slot_++;
    prefix_pins_.emplace_back(r.prefix_pin_slot, std::move(pin.handle));
    r.cached_prompt_len = hit;
    return hit;
}

void
ReplicaEngine::snapshotPrefixStats()
{
    result_.prefix.inserted_tokens = prefix_tree_.insertedTokens();
    result_.prefix.evicted_tokens = prefix_tree_.evictedTokens();
    result_.prefix.resident_bytes = prefix_tree_.bytes();
    result_.prefix.resident_tokens = prefix_tree_.residentTokens();
}

void
ReplicaEngine::deliver(Request r)
{
    if (r.arrival_seconds < last_delivered_arrival_)
        throw std::invalid_argument(
            "ReplicaEngine: deliveries must be in arrival order");
    if (!r.prompt_tokens.empty() &&
        static_cast<int64_t>(r.prompt_tokens.size()) != r.prompt_len)
        throw std::invalid_argument(
            "ReplicaEngine: prompt_tokens size disagrees with "
            "prompt_len");
    // Sanitize engine-owned bookkeeping: a replayed/copied Request may
    // carry a stale pin slot or hit count from a previous run, and
    // retirement trusts prefix_pin_slot to name a pin THIS engine
    // took.
    r.prefix_pin_slot = -1;
    r.cached_prompt_len = 0;
    last_delivered_arrival_ = r.arrival_seconds;
    pending_.push_back(std::move(r));
}

void
ReplicaEngine::ingestPending(double t)
{
    while (pending_next_ < static_cast<int64_t>(pending_.size()) &&
           pending_[pending_next_].arrival_seconds <= t) {
        Request &q = pending_[pending_next_];
        OBS_EVENT(trace_, obs::EventType::Enqueue, q.arrival_seconds,
                  static_cast<int32_t>(cfg_.id), q.id, q.prompt_len,
                  q.gen_len);
        if (counters_)
            counters_->add(slots_.enqueued_requests, 1);
        scheduler_.enqueue(std::move(q));
        ++pending_next_;
    }
    if (pending_next_ == static_cast<int64_t>(pending_.size())) {
        pending_.clear();
        pending_next_ = 0;
    }
}

double
ReplicaEngine::nextEventSeconds() const
{
    if (!active_.empty() || !scheduler_.queueEmpty())
        return now_;
    if (pending_next_ < static_cast<int64_t>(pending_.size()))
        return std::max(now_,
                        pending_[pending_next_].arrival_seconds);
    return std::numeric_limits<double>::infinity();
}

bool
ReplicaEngine::idle() const
{
    return active_.empty() && scheduler_.queueEmpty() &&
           pending_next_ >= static_cast<int64_t>(pending_.size());
}

void
ReplicaEngine::releasePinSlot(int64_t slot)
{
    for (size_t i = prefix_pins_.size(); i-- > 0;) {
        if (prefix_pins_[i].first == slot) {
            prefix_tree_.release(prefix_pins_[i].second);
            prefix_pins_[i] = std::move(prefix_pins_.back());
            prefix_pins_.pop_back();
            return;
        }
    }
}

void
ReplicaEngine::preemptVictim()
{
    flushWindow(); // victim choice and accounting read live lengths
    const size_t v = scheduler_.selectVictim(active_);
    active_final_tokens_ -= active_[v].finalLen();
    Request r = std::move(active_[v]);
    active_.erase(active_.begin() +
                  static_cast<std::vector<Request>::difference_type>(v));
    // The batch shrank: any cached decode-fit prediction is void,
    // and so is the open decode window.
    opt_fit_rounds_ = -1;
    win_live_ = false;
    // The victim's prefix pin goes back to the LRU pool: its prompt
    // blocks stay resident while the budget lasts, which is exactly
    // what makes its restore cheap.
    if (r.prefix_pin_slot >= 0) {
        releasePinSlot(r.prefix_pin_slot);
        r.prefix_pin_slot = -1;
    }
    ++r.preemptions;
    ++result_.preempt.preemptions;
    r.state = RequestState::Preempted;
    OBS_EVENT(trace_, obs::EventType::Preempt, now_,
              static_cast<int32_t>(cfg_.id), r.id, r.generated,
              r.preemptions);
    if (counters_) {
        counters_->add(slots_.preemptions, 1);
        counters_->add(slots_.preempted_tokens, r.kvLen());
    }
    // Releasing KV is free in simulated time; the cost lands at the
    // restore, which re-prefills the whole live context (minus
    // whatever prefix the cache still holds).
    scheduler_.enqueue(std::move(r));
}

void
ReplicaEngine::step(const IngestFn &ingest, double horizon)
{
    const double event = nextEventSeconds();
    if (!std::isfinite(event))
        throw std::logic_error("ReplicaEngine: step on an idle replica");
    now_ = std::max(now_, event);

    auto ingestUpTo = [&](double t) {
        if (ingest)
            ingest(t); // the router delivers arrivals <= t
        ingestPending(t);
    };
    ingestUpTo(now_);

    // Admit while the Scheduler's discipline accepts the policy's
    // candidate. A denial with other requests in flight just means
    // "wait for retirements"; a denial on an idle replica means the
    // request can never fit here. Admission reads live per-request
    // state (the resident scan, optimistic fitsCurrent), so any
    // deferred window rounds apply first.
    if (!scheduler_.queueEmpty())
        flushWindow();
    while (!scheduler_.queueEmpty() &&
           scheduler_.hasBatchSlot(active_)) {
        const AdmissionDecision d =
            scheduler_.admit(active_, scheduler_.peek());
        if (!d.admit) {
            if (active_.empty()) {
                Request r = scheduler_.pop();
                r.state = RequestState::Rejected;
                OBS_EVENT(trace_, obs::EventType::Reject, now_,
                          static_cast<int32_t>(cfg_.id), r.id,
                          r.prompt_len, r.gen_len);
                if (counters_)
                    counters_->add(slots_.rejected_requests, 1);
                // Rejection records are read for ids/shapes only;
                // keeping kilobytes of token ids per rejection would
                // bloat fleet-wide roll-ups for nothing.
                r.prompt_tokens.clear();
                r.prompt_tokens.shrink_to_fit();
                result_.rejected.push_back(std::move(r));
                continue;
            }
            break;
        }
        Request r = scheduler_.pop();
        // A restore is any re-admission after a preemption — including
        // a victim evicted before its first decode step (generated
        // still 0), whose re-prefilled prompt is pure churn.
        const bool restore = r.preemptions > 0;
        if (r.admit_seconds < 0.0)
            r.admit_seconds = now_;
        r.last_admit_seconds = now_;
        r.state = RequestState::Decoding;
        // Prefix-cache consultation: tokens matched in the tree skip
        // prefill (they are KV the replica already holds); only the
        // uncached suffix is charged, attending over the cached
        // prefix as extra resident KV. With the cache disabled this
        // is a no-op and the arithmetic below is unchanged.
        const int64_t cached = admitThroughPrefixCache(r);
        if (restore) {
            // A preempted request restores by recomputing its whole
            // live context through prefill; the generated suffix is
            // the decode work thrown away and done again.
            ++result_.preempt.restores;
            result_.preempt.recompute_tokens += r.generated;
            r.recompute_tokens += r.generated;
            OBS_EVENT(trace_, obs::EventType::Restore, now_,
                      static_cast<int32_t>(cfg_.id), r.id, r.generated,
                      cached);
        } else {
            OBS_EVENT(trace_, obs::EventType::Admit, now_,
                      static_cast<int32_t>(cfg_.id), r.id, cached,
                      r.kvLen());
        }
        if (counters_) {
            counters_->add(slots_.admitted_requests, 1);
            counters_->add(slots_.admitted_prefill_tokens,
                           r.kvLen() - cached);
            counters_->add(slots_.prefix_hit_tokens, cached);
            if (restore) {
                counters_->add(slots_.restores, 1);
                counters_->add(slots_.recompute_tokens, r.generated);
            }
        }
        // Prefill iteration for the joining request; in-flight
        // requests stall for its duration (prefill-prioritized
        // scheduling), and arrivals during it still enqueue. A
        // restore prefills prompt + generated (its current context),
        // which for a fresh request is just the prompt.
        int64_t resident = 0;
        for (const Request &q : active_)
            resident += q.kvLen();
        const int64_t prefill_tokens = r.kvLen() - cached;
        OBS_EVENT(trace_, obs::EventType::PrefillStart, now_,
                  static_cast<int32_t>(cfg_.id), r.id, prefill_tokens,
                  static_cast<int64_t>(active_.size()));
        now_ += prefill_eval_
                    ? prefill_eval_->seconds(
                          prefill_tokens,
                          static_cast<int64_t>(active_.size()),
                          resident + cached)
                    : engine_.requestPrefillSeconds(
                          cfg_.timing, prefill_tokens,
                          static_cast<int64_t>(active_.size()),
                          resident + cached);
        if (restore)
            result_.preempt.restore_prefill_tokens += prefill_tokens;
        // Cache hits are not entirely free when the reload knob is
        // set: matched KV blocks stream back into the compute working
        // set at prefix_reload_gbps (0 = free, the bit-pinned
        // default).
        const double reload_gbps =
            cfg_.timing.system->options().prefix_reload_gbps;
        if (cached > 0 && reload_gbps > 0.0) {
            now_ += static_cast<double>(cached *
                                        kv_bytes_per_token_) /
                    (reload_gbps * 1e9);
        }
        OBS_EVENT(trace_, obs::EventType::PrefillEnd, now_,
                  static_cast<int32_t>(cfg_.id), r.id, prefill_tokens,
                  static_cast<int64_t>(active_.size()) + 1);
        active_final_tokens_ += r.finalLen();
        active_.push_back(std::move(r));
        // The batch grew: any cached decode-fit prediction is void,
        // and so is the open decode window.
        opt_fit_rounds_ = -1;
        win_live_ = false;
        ingestUpTo(now_);
    }
    result_.peak_in_flight =
        std::max(result_.peak_in_flight,
                 static_cast<int64_t>(active_.size()));

    if (active_.empty()) {
        if (!scheduler_.queueEmpty())
            throw std::logic_error(
                "ReplicaEngine: idle with admissible work queued");
        result_.makespan_seconds = now_;
        publishGauges();
        return; // round spent rejecting; next event is a future arrival
    }

    // Reserve mode's nextDecodeTokenFits is unconditionally true
    // (final-length reservations already cover growth), so the
    // KV-pressure check is hoisted out of the round loop entirely.
    const bool optimistic_preempt = optimistic();
    // kv_scratch_ mirrors active_'s kvLen()s for the decode call; the
    // advance-and-retire pass below maintains it in place, so only
    // rounds entered with a stale mirror (fresh step, or a preemption
    // changed the batch) pay the rebuild scan.
    // A window left open by the previous step() guarantees the batch
    // (and therefore the mirror refreshed by its reconciliation) is
    // untouched since, so the rebuild scan is skipped.
    bool kv_ready = win_live_;
    for (;;) {
        // Optimistic KV pressure: every in-flight context grows one
        // token this iteration; while that would oversubscribe the
        // memory model's headroom, evict victims (policy-ordered,
        // deterministic) until the survivors fit. The feasibleAlone()
        // admission gate guarantees a lone request always fits through
        // its final length, so the loop cannot strand the batch — the
        // > 1 guard is a belt-and-suspenders backstop against a
        // non-monotone system model.
        if (optimistic_preempt)
            flushWindow(); // the pressure check reads live lengths
        while (optimistic_preempt && active_.size() > 1 &&
               !scheduler_.nextDecodeTokenFits(active_)) {
            preemptVictim();
            kv_ready = false;
        }

        // One decode iteration advances every in-flight request by one
        // token — the continuous-batching core, no wave barrier.
        if (!kv_ready) {
            kv_scratch_.clear();
            for (const Request &r : active_)
                kv_scratch_.push_back(r.kvLen());
            kv_ready = true;
        }

        // Bulk decode window eligibility. In Reserve mode nothing
        // inside the round loop can change the batch except
        // retirement, and the earliest retirement round is known up
        // front (the smallest remaining generation length), so every
        // round before it can run without per-request work. Optimistic
        // mode additionally needs a preemption-free horizon:
        // decodeFitRounds() proves the next opt_fit_rounds_ pressure
        // checks pass with the batch as-is, so the window is capped
        // there and the *genuine* check re-runs at the predicted first
        // failure — the identical floating-point compare the per-round
        // loop would have made, so victims are evicted on exactly the
        // same round. (opt_fit_rounds_ caches the proof across calls;
        // any admission, retirement or preemption voids it.)
        int64_t k_retire = 0;
        if (decode_eval_) {
            if (win_live_) {
                // Continued window: the previous reconciliation
                // already discounted the rounds run, no rescan.
                k_retire = win_k_retire_;
            } else {
                k_retire = std::numeric_limits<int64_t>::max();
                for (const Request &r : active_)
                    k_retire =
                        std::min(k_retire, r.gen_len - r.generated);
            }
        }
        int64_t bulk_k = k_retire;
        if (decode_eval_ && optimistic_preempt) {
            if (opt_fit_rounds_ <= 0)
                opt_fit_rounds_ =
                    scheduler_.decodeFitRounds(active_, bulk_k);
            bulk_k = std::min(bulk_k, opt_fit_rounds_);
        }
        if (bulk_k >= 1) {
            // Bulk decode window: the evaluator advances the reduced
            // KV integers incrementally, and one reconciliation pass
            // afterwards applies the window's worth of per-request
            // effects. Every round's seconds, every timestamp and
            // every trace event is bit-identical to the single-round
            // loop's.
            const bool was_live = win_live_;
            if (!was_live)
                decode_eval_->beginWindow(kv_scratch_);
            const int64_t R = static_cast<int64_t>(active_.size());
            const int64_t k = bulk_k;
            // Entered with queued work (admission denied this step)
            // the single-round loop breaks after one round; match it.
            const bool queue_empty = scheduler_.queueEmpty();
            const double t_pending =
                pending_next_ < static_cast<int64_t>(pending_.size())
                    ? pending_[pending_next_].arrival_seconds
                    : std::numeric_limits<double>::infinity();
#if SPECONTEXT_OBS_ENABLED
            int64_t kv_sum0 = 0;
            if (trace_)
                for (int64_t kv : kv_scratch_)
                    kv_sum0 += kv;
#endif
            double first_now = now_;
            int64_t rounds = 0;
#if SPECONTEXT_OBS_ENABLED
            if (trace_) {
                // Traced run: per-round loop so every round's
                // DecodeStep event carries its own timestamp.
                for (;;) {
                    now_ += decode_eval_->nextRoundSeconds();
                    ++rounds;
                    if (rounds == 1)
                        first_now = now_;
                    // Round j prices lengths grown j-1 tokens past the
                    // window base — the same sum the rebuild loop
                    // reads.
                    trace_->emit(obs::EventType::DecodeStep, now_,
                                 static_cast<int32_t>(cfg_.id), -1, R,
                                 kv_sum0 + (rounds - 1) * R);
                    if (rounds >= k || !queue_empty ||
                        !(now_ < horizon) || t_pending <= now_)
                        break;
                }
            } else
#endif
            {
                // A non-empty queue breaks the loop after one round
                // regardless of k; fold that into the round cap so the
                // fused loop needs no queue check.
                now_ = decode_eval_->runWindow(queue_empty ? k : 1,
                                               now_, horizon, t_pending,
                                               rounds, first_now);
            }
            result_.iterations += rounds;
            if (counters_) {
                counters_->add(slots_.decode_iterations, rounds);
                counters_->add(slots_.generated_tokens, rounds * R);
            }
            if (!trace_ && rounds < k_retire) {
                // Deferred reconciliation: the window stopped short of
                // the retirement bound, so no request finished and the
                // only per-request effects are the uniform
                // +rounds-per-request growth — bookkeeping the readers
                // between flushes can compensate for arithmetically
                // (see win_defer_rounds_). TTFT is the one write that
                // cannot wait: every unstamped request joined via
                // admission, which closed the window, so the first
                // fresh window after a batch change stamps them all at
                // its own first round — exactly the instant the eager
                // pass would have used.
                if (!was_live)
                    for (Request &r : active_)
                        if (r.first_token_seconds < 0.0)
                            r.first_token_seconds = first_now;
                win_defer_rounds_ += rounds;
                win_live_ = true;
                win_k_retire_ = k_retire - rounds;
                if (optimistic_preempt)
                    opt_fit_rounds_ -= rounds;
                if (!(now_ < horizon) || !scheduler_.queueEmpty() ||
                    (pending_next_ <
                         static_cast<int64_t>(pending_.size()) &&
                     pending_[pending_next_].arrival_seconds <= now_))
                    break;
                continue;
            }
            // Reconciliation: the window's ++generated / TTFT stamps /
            // KV growth in one pass. Retirement is only reachable on
            // the final planned round (rounds == k), and a retiring
            // request finishes at the current (post-window) instant —
            // exactly where the per-round loop would retire it. Any
            // rounds a prior deferred window banked apply here too.
            const int64_t grow = win_defer_rounds_ + rounds;
            win_defer_rounds_ = 0;
            size_t keep = 0;
            for (size_t i = 0; i < active_.size(); ++i) {
                Request &r = active_[i];
                r.generated += grow;
                if (r.first_token_seconds < 0.0)
                    r.first_token_seconds = first_now;
                if (!r.done()) {
                    const int64_t next_kv = r.kvLen();
                    if (keep != i)
                        active_[keep] = std::move(r);
                    kv_scratch_[keep] = next_kv;
                    ++keep;
                    continue;
                }
                r.finish_seconds = now_;
                r.state = RequestState::Finished;
                active_final_tokens_ -= r.finalLen();
                if (r.prefix_pin_slot >= 0)
                    releasePinSlot(r.prefix_pin_slot);
                result_.metrics.record(r, cfg_.id);
                OBS_EVENT(trace_, obs::EventType::Complete, now_,
                          static_cast<int32_t>(cfg_.id), r.id,
                          r.gen_len, r.preemptions);
                if (counters_)
                    counters_->add(slots_.completed_requests, 1);
            }
            active_.resize(keep);
            kv_scratch_.resize(keep);
            // kv_ready stays true: the pass above refreshed the mirror.
            // An unchanged batch keeps the evaluator's window (and the
            // fit proof, one round spent per round run) open across
            // steps; retirement voids both — indices no longer line
            // up, recompute when next needed.
            win_live_ = keep == static_cast<size_t>(R);
            win_k_retire_ = k_retire - rounds;
            if (optimistic_preempt)
                opt_fit_rounds_ = keep == static_cast<size_t>(R)
                                      ? opt_fit_rounds_ - rounds
                                      : -1;
            if (!(now_ < horizon) || active_.empty() ||
                !scheduler_.queueEmpty() ||
                (pending_next_ < static_cast<int64_t>(pending_.size()) &&
                 pending_[pending_next_].arrival_seconds <= now_))
                break;
            continue;
        }

        now_ += decode_eval_
                    ? decode_eval_->seconds(kv_scratch_)
                    : engine_.decodeIterationSeconds(cfg_.timing,
                                                     kv_scratch_);
        ++result_.iterations;
#if SPECONTEXT_OBS_ENABLED
        if (trace_) {
            int64_t kv_sum = 0;
            for (int64_t k : kv_scratch_)
                kv_sum += k;
            trace_->emit(obs::EventType::DecodeStep, now_,
                         static_cast<int32_t>(cfg_.id), -1,
                         static_cast<int64_t>(kv_scratch_.size()),
                         kv_sum);
        }
#endif
        if (counters_) {
            counters_->add(slots_.decode_iterations, 1);
            counters_->add(slots_.generated_tokens,
                           static_cast<int64_t>(active_.size()));
        }
        // Advance and retire in one pass (stable compaction — no
        // per-element erase): every in-flight request gains its token
        // and, on its first, its TTFT stamp; finished requests retire
        // in place. Freed reservations re-offer headroom to the queue
        // next round, and released prefix pins leave cached blocks
        // LRU-evictable but resident for future same-prefix
        // admissions while the budget lasts.
        size_t keep = 0;
        for (size_t i = 0; i < active_.size(); ++i) {
            Request &r = active_[i];
            ++r.generated;
            if (r.first_token_seconds < 0.0)
                r.first_token_seconds = now_;
            if (!r.done()) {
                const int64_t next_kv = r.kvLen();
                if (keep != i)
                    active_[keep] = std::move(r);
                kv_scratch_[keep] = next_kv;
                ++keep;
                continue;
            }
            r.finish_seconds = now_;
            r.state = RequestState::Finished;
            active_final_tokens_ -= r.finalLen();
            if (r.prefix_pin_slot >= 0)
                releasePinSlot(r.prefix_pin_slot);
            result_.metrics.record(r, cfg_.id);
            OBS_EVENT(trace_, obs::EventType::Complete, now_,
                      static_cast<int32_t>(cfg_.id), r.id, r.gen_len,
                      r.preemptions);
            if (counters_)
                counters_->add(slots_.completed_requests, 1);
        }
        active_.resize(keep);
        kv_scratch_.resize(keep);
        kv_ready = true; // the pass above refreshed it for next round
        // This round ran without a proven fit window (single-request
        // pressure fallback, or no cached evaluator); the contexts
        // grew outside any window, so stale predictions are void.
        win_live_ = false;
        if (optimistic_preempt)
            opt_fit_rounds_ = -1;

        // Skip-ahead: keep executing pure-decode rounds inside this
        // call while nothing external can observe or perturb the
        // replica. The single-round loop would come straight back here
        // — its round head would ingest nothing (no pending delivery
        // has arrived), admit nothing (empty queue) and jump the clock
        // nowhere (active work keeps nextEventSeconds() == now) — so
        // running the next round now, with the identical preempt/
        // decode/retire arithmetic above, is bit-exact. Stop at the
        // caller's horizon (the next arrival / control tick / sampler
        // crossing it owns), on drain, or when the next round needs
        // admission (queued work, or a pending delivery whose arrival
        // the clock just passed — including a preemption victim this
        // round re-enqueued).
        if (!(now_ < horizon) || active_.empty() ||
            !scheduler_.queueEmpty() ||
            (pending_next_ < static_cast<int64_t>(pending_.size()) &&
             pending_[pending_next_].arrival_seconds <= now_))
            break;
    }
    if (prefixCacheEnabled())
        snapshotPrefixStats();
    result_.makespan_seconds = now_;
    publishGauges();
}

} // namespace serving
} // namespace specontext
