#include "probe.h"

#include <chrono>
#include <cstdio>

namespace specbench {

using namespace specontext;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class TimedDecode : public core::DecodeEvaluator
{
  public:
    TimedDecode(std::unique_ptr<core::DecodeEvaluator> inner, Spans &s,
                int layer)
        : inner_(std::move(inner)), s_(s), layer_(layer)
    {
    }

    double seconds(const std::vector<int64_t> &kv_lens) override
    {
        Spans::Scope span(s_, layer_);
        return inner_->seconds(kv_lens);
    }
    void beginWindow(const std::vector<int64_t> &kv_lens) override
    {
        Spans::Scope span(s_, layer_);
        inner_->beginWindow(kv_lens);
    }
    double nextRoundSeconds() override
    {
        Spans::Scope span(s_, layer_);
        return inner_->nextRoundSeconds();
    }
    double runWindow(int64_t max_rounds, double now, double horizon,
                     double t_pending, int64_t &rounds,
                     double &first_now) override
    {
        Spans::Scope span(s_, layer_);
        return inner_->runWindow(max_rounds, now, horizon, t_pending,
                                 rounds, first_now);
    }
    double minRoundSeconds() const override
    {
        return inner_->minRoundSeconds();
    }

  private:
    std::unique_ptr<core::DecodeEvaluator> inner_;
    Spans &s_;
    int layer_;
};

class TimedPrefill : public core::PrefillEvaluator
{
  public:
    TimedPrefill(std::unique_ptr<core::PrefillEvaluator> inner, Spans &s,
                 int layer)
        : inner_(std::move(inner)), s_(s), layer_(layer)
    {
    }

    double seconds(int64_t prompt_len, int64_t in_flight_requests,
                   int64_t resident_kv_tokens) override
    {
        Spans::Scope span(s_, layer_);
        return inner_->seconds(prompt_len, in_flight_requests,
                               resident_kv_tokens);
    }

  private:
    std::unique_ptr<core::PrefillEvaluator> inner_;
    Spans &s_;
    int layer_;
};

class TimedAdmission : public core::AdmissionEvaluator
{
  public:
    TimedAdmission(std::unique_ptr<core::AdmissionEvaluator> inner,
                   Spans &s, int layer)
        : inner_(std::move(inner)), s_(s), layer_(layer)
    {
    }

    core::AdmissionDecision
    admit(const std::vector<int64_t> &in_flight_final_lens,
          int64_t candidate_prompt_len,
          int64_t candidate_final_len) override
    {
        Spans::Scope span(s_, layer_);
        return inner_->admit(in_flight_final_lens, candidate_prompt_len,
                             candidate_final_len);
    }
    core::AdmissionDecision
    fitsCurrent(const std::vector<int64_t> &kv_lens) override
    {
        Spans::Scope span(s_, layer_);
        return inner_->fitsCurrent(kv_lens);
    }

  private:
    std::unique_ptr<core::AdmissionEvaluator> inner_;
    Spans &s_;
    int layer_;
};

} // namespace

// ---- Spans ------------------------------------------------------------

int
Spans::layer(const std::string &name)
{
    for (size_t i = 0; i < totals_.size(); ++i)
        if (totals_[i].name == name)
            return static_cast<int>(i);
    totals_.push_back({name, 0, 0, 0});
    return static_cast<int>(totals_.size() - 1);
}

void
Spans::begin(int layer, int64_t request)
{
    int64_t sample = -1;
    const int64_t t = nowNs();
    if (sample_.size() < sample_cap_) {
        sample = static_cast<int64_t>(sample_.size());
        const int64_t parent = stack_.empty() ? -1 : stack_.back().sample;
        sample_.push_back({layer, request, parent, t, t});
    }
    stack_.push_back({layer, t, 0, sample});
}

void
Spans::end()
{
    const int64_t t = nowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t dur = t - open.start_ns;
    Total &tot = totals_[open.layer];
    ++tot.calls;
    tot.total_ns += dur;
    tot.child_ns += open.child_ns;
    if (!stack_.empty())
        stack_.back().child_ns += dur;
    if (open.sample >= 0)
        sample_[open.sample].end_ns = t;
}

bool
Spans::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"layers\": [");
    for (size_t i = 0; i < totals_.size(); ++i)
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"calls\": %lld, "
                     "\"total_s\": %.9f, \"self_s\": %.9f}",
                     i ? ", " : "", totals_[i].name.c_str(),
                     static_cast<long long>(totals_[i].calls),
                     totals_[i].total_ns * 1e-9,
                     (totals_[i].total_ns - totals_[i].child_ns) * 1e-9);
    std::fprintf(f, "],\n \"spans\": [");
    const int64_t t0 = sample_.empty() ? 0 : sample_.front().start_ns;
    for (size_t i = 0; i < sample_.size(); ++i) {
        const Record &r = sample_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"layer\": \"%s\", "
                     "\"request\": %lld, \"parent\": %lld, "
                     "\"start_ns\": %lld, \"end_ns\": %lld}",
                     i ? "," : "", i, totals_[r.layer].name.c_str(),
                     static_cast<long long>(r.request),
                     static_cast<long long>(r.parent),
                     static_cast<long long>(r.start_ns - t0),
                     static_cast<long long>(r.end_ns - t0));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---- ProbeSystem ---------------------------------------------------------

ProbeSystem::ProbeSystem(std::shared_ptr<const core::SystemModel> inner,
                         Spans &spans)
    : core::SystemModel(inner->options()), inner_(std::move(inner)),
      spans_(spans), decode_(spans.layer("core.decode_eval")),
      prefill_(spans.layer("core.prefill_eval")),
      admit_(spans.layer("core.admit_eval"))
{
}

core::TimingConfig
ProbeSystem::toInner(const core::TimingConfig &cfg) const
{
    core::TimingConfig c = cfg;
    c.system = inner_;
    return c;
}

sim::KernelBackend
ProbeSystem::backend() const
{
    return inner_->backend();
}

core::DataflowKind
ProbeSystem::dataflow() const
{
    return inner_->dataflow();
}

bool
ProbeSystem::supportsContinuousBatching() const
{
    return inner_->supportsContinuousBatching();
}

int64_t
ProbeSystem::maxSimulatedBatch() const
{
    return inner_->maxSimulatedBatch();
}

core::TimingResult
ProbeSystem::simulate(const core::TimingConfig &cfg) const
{
    return inner_->simulate(toInner(cfg));
}

double
ProbeSystem::requestPrefillSeconds(const core::TimingConfig &cfg,
                                   int64_t prompt_len,
                                   int64_t in_flight_requests,
                                   int64_t resident_kv_tokens) const
{
    return inner_->requestPrefillSeconds(toInner(cfg), prompt_len,
                                         in_flight_requests,
                                         resident_kv_tokens);
}

double
ProbeSystem::decodeIterationSeconds(const core::TimingConfig &cfg,
                                    const std::vector<int64_t> &kv_lens) const
{
    return inner_->decodeIterationSeconds(toInner(cfg), kv_lens);
}

std::unique_ptr<core::DecodeEvaluator>
ProbeSystem::makeDecodeEvaluator(const core::TimingConfig &cfg) const
{
    return std::make_unique<TimedDecode>(
        inner_->makeDecodeEvaluator(toInner(cfg)), spans_, decode_);
}

std::unique_ptr<core::AdmissionEvaluator>
ProbeSystem::makeAdmissionEvaluator(const core::TimingConfig &cfg) const
{
    return std::make_unique<TimedAdmission>(
        inner_->makeAdmissionEvaluator(toInner(cfg)), spans_, admit_);
}

std::unique_ptr<core::PrefillEvaluator>
ProbeSystem::makePrefillEvaluator(const core::TimingConfig &cfg) const
{
    return std::make_unique<TimedPrefill>(
        inner_->makePrefillEvaluator(toInner(cfg)), spans_, prefill_);
}

int64_t
ProbeSystem::hbmFootprintBytes(const core::TimingConfig &cfg,
                               int64_t requests, int64_t s) const
{
    return inner_->hbmFootprintBytes(toInner(cfg), requests, s);
}

int64_t
ProbeSystem::dramFootprintBytes(const core::TimingConfig &cfg,
                                int64_t requests, int64_t s) const
{
    return inner_->dramFootprintBytes(toInner(cfg), requests, s);
}

core::AdmissionDecision
ProbeSystem::admit(const core::TimingConfig &cfg,
                   const std::vector<int64_t> &in_flight_final_lens,
                   int64_t candidate_prompt_len,
                   int64_t candidate_final_len) const
{
    return inner_->admit(toInner(cfg), in_flight_final_lens,
                         candidate_prompt_len, candidate_final_len);
}

core::AdmissionDecision
ProbeSystem::fitsCurrent(const core::TimingConfig &cfg,
                         const std::vector<int64_t> &kv_lens) const
{
    return inner_->fitsCurrent(toInner(cfg), kv_lens);
}

} // namespace specbench
