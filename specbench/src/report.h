/**
 * @file
 * Shared vocabulary of the specbench program: command-line options,
 * the outcome one run reports, and the small statistics and clock
 * helpers every workload uses.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace specbench {

/** Parsed command line (see main.cc for the flags). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunken inputs and repetitions, for the benchmark's own tests. */
    bool smoke = false;
    /** Where the traced run writes its bounded span sample. */
    std::string span_path;
};

/** One named metric; its unit comes from the table in main.cc. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** What one run reports: correctness, request accounting, metrics. */
struct Outcome
{
    bool correct = true;
    int64_t attempted = 0; ///< requests (fleets) or sessions (live) sent
    int64_t succeeded = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra human-readable lines (host, spread, check details). */
    std::vector<std::string> notes;

    void add(const std::string &name, double value)
    {
        metrics.push_back({name, value});
    }

    /** Record a correctness check; a failed check fails the run. */
    void check(bool ok, const std::string &what);
};

/** Seconds on the monotonic clock since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of a non-empty sample (mean of the middle pair when even). */
double median(std::vector<double> v);

/** Nearest-rank percentile (p in (0, 100]) of a non-empty sample. */
double percentile(std::vector<double> v, double p);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** "nproc=<n> cpu=<model>" for every wall-clock report. */
std::string hostLine();

/**
 * Moves the calling thread round the CPUs it may run on, one step per
 * next() call, and restores its CPU mask on destruction.
 *
 * On a shared host each vCPU slows down on its own, for seconds at a
 * time, when a co-tenant loads the physical core behind it. Timed
 * repetitions that visit every vCPU in turn give a best-of estimator
 * a fast sample in every run unless all vCPUs are loaded at once.
 * The thread stays single: only where it runs changes.
 */
class CpuRotor
{
  public:
    CpuRotor();
    ~CpuRotor();
    CpuRotor(const CpuRotor &) = delete;
    CpuRotor &operator=(const CpuRotor &) = delete;

    /** Pin the thread to the next CPU of the original mask. */
    void next();
    /** CPUs visited in turn (0 when the mask could not be read). */
    size_t size() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    size_t at_ = 0;
};

/**
 * Teacher-forced top-1 agreement of SpeContext against full attention
 * on a fixed segment (fixed model, prompt and length — independent of
 * the workload seed, so it repeats exactly). Every workload reports it:
 * the simulated fleets price this algorithm and the live workload runs
 * it, so each throughput figure travels with the accuracy it keeps.
 */
double qualityTop1(bool smoke);

/** The three workloads; each fills an Outcome for options `o`. */
Outcome runDiurnalFleet(const Options &o);
Outcome runAgenticPrefix(const Options &o);
Outcome runLiveReasoning(const Options &o);

} // namespace specbench
