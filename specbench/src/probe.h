/**
 * @file
 * Benchmark-side instrumentation: an in-memory span recorder and a
 * forwarding core::SystemModel decorator whose evaluators time every
 * call. Nothing here is compiled into the library — the layer split is
 * measured from outside, around calls into each layer's public API.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system_model.h"

namespace specbench {

/**
 * Nested wall-clock spans, aggregated per layer. A layer's self time is
 * its spans' duration minus the time covered by spans opened inside
 * them. The first `sample_cap` spans are also kept verbatim (with their
 * parent and request id) and can be written out at exit.
 */
class Spans
{
  public:
    explicit Spans(size_t sample_cap = 4096) : sample_cap_(sample_cap) {}

    /** Id of the layer `name`, registering it on first use. */
    int layer(const std::string &name);

    void begin(int layer, int64_t request = -1);
    void end();

    int64_t calls(int layer) const { return totals_[layer].calls; }
    double seconds(int layer) const { return totals_[layer].total_ns * 1e-9; }
    double selfSeconds(int layer) const
    {
        return (totals_[layer].total_ns - totals_[layer].child_ns) * 1e-9;
    }

    /** Write per-layer totals and the span sample as JSON. */
    bool write(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Spans &s, int layer, int64_t request = -1) : s_(s)
        {
            s_.begin(layer, request);
        }
        ~Scope() { s_.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &s_;
    };

  private:
    struct Total
    {
        std::string name;
        int64_t calls = 0;
        int64_t total_ns = 0;
        int64_t child_ns = 0;
    };
    struct Open
    {
        int layer;
        int64_t start_ns;
        int64_t child_ns;
        int64_t sample; ///< index into sample_, -1 when not sampled
    };
    struct Record
    {
        int layer;
        int64_t request;
        int64_t parent; ///< sample index of the enclosing span, or -1
        int64_t start_ns;
        int64_t end_ns;
    };

    size_t sample_cap_;
    std::vector<Total> totals_;
    std::vector<Open> stack_;
    std::vector<Record> sample_;
};

/**
 * Forwarding SystemModel: every query goes to `inner` (with the bound
 * config re-pointed at it, so the inner evaluators are exactly the
 * ones an unwrapped fleet builds), and the decode, prefill and
 * admission evaluators it hands out time each call as a span of layer
 * core.decode_eval / core.prefill_eval / core.admit_eval. Simulated
 * results are bit-identical to the wrapped system's.
 */
class ProbeSystem : public specontext::core::SystemModel
{
  public:
    ProbeSystem(std::shared_ptr<const specontext::core::SystemModel> inner,
                Spans &spans);

    const char *name() const override { return inner_->name(); }
    specontext::sim::KernelBackend backend() const override;
    specontext::core::DataflowKind dataflow() const override;
    bool supportsContinuousBatching() const override;
    int64_t maxSimulatedBatch() const override;
    specontext::core::TimingResult
    simulate(const specontext::core::TimingConfig &cfg) const override;
    double requestPrefillSeconds(const specontext::core::TimingConfig &cfg,
                                 int64_t prompt_len,
                                 int64_t in_flight_requests,
                                 int64_t resident_kv_tokens) const override;
    double decodeIterationSeconds(
        const specontext::core::TimingConfig &cfg,
        const std::vector<int64_t> &kv_lens) const override;
    std::unique_ptr<specontext::core::DecodeEvaluator> makeDecodeEvaluator(
        const specontext::core::TimingConfig &cfg) const override;
    std::unique_ptr<specontext::core::AdmissionEvaluator>
    makeAdmissionEvaluator(
        const specontext::core::TimingConfig &cfg) const override;
    std::unique_ptr<specontext::core::PrefillEvaluator> makePrefillEvaluator(
        const specontext::core::TimingConfig &cfg) const override;
    int64_t hbmFootprintBytes(const specontext::core::TimingConfig &cfg,
                              int64_t requests, int64_t s) const override;
    int64_t dramFootprintBytes(const specontext::core::TimingConfig &cfg,
                               int64_t requests, int64_t s) const override;
    specontext::core::AdmissionDecision
    admit(const specontext::core::TimingConfig &cfg,
          const std::vector<int64_t> &in_flight_final_lens,
          int64_t candidate_prompt_len,
          int64_t candidate_final_len) const override;
    specontext::core::AdmissionDecision
    fitsCurrent(const specontext::core::TimingConfig &cfg,
                const std::vector<int64_t> &kv_lens) const override;

  private:
    specontext::core::TimingConfig
    toInner(const specontext::core::TimingConfig &cfg) const;

    std::shared_ptr<const specontext::core::SystemModel> inner_;
    Spans &spans_;
    int decode_, prefill_, admit_;
};

} // namespace specbench
