#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace specbench {

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of an empty sample");
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostLine()
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
           " cpu=" + cpu;
}

CpuRotor::CpuRotor()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &mask))
                cpus_.push_back(c);
}

CpuRotor::~CpuRotor()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int c : cpus_)
        CPU_SET(c, &mask);
    sched_setaffinity(0, sizeof mask, &mask);
}

void
CpuRotor::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus_[at_], &mask);
    at_ = (at_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof mask, &mask);
}

} // namespace specbench
