/**
 * @file
 * The benchmark's workloads. Each runs its set-up several times, then
 * one timed window (or, traced, an untimed-trace half and a traced
 * half), checks every output, and reports its metrics.
 */

#ifndef PERFBENCH_SUITES_HH
#define PERFBENCH_SUITES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracing.hh"

namespace perfbench {

/** What the command line asked for. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double processStartUs = 0.0; ///< steady clock at process start
    SpanRecorder *spans = nullptr; ///< non-null only when tracing
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** End-to-end metrics (untraced run). */
    std::vector<Metric> endToEnd;
    /** The workload's numbers under its own names. */
    std::vector<Metric> named;
    /** Per-layer values by name (traced run); absent means 0. */
    std::map<std::string, double> perLayer;
};

/** Workload names in a fixed order. */
const std::vector<std::string> &workloadNames();

/** Every per-layer metric name with its unit, in report order. */
std::vector<Metric> perLayerCatalogue();

/** Run one workload; fatal on an unknown name. */
Outcome runWorkload(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_SUITES_HH
