/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit ID] [--source-digest HEX] [--trace-out PATH]
 *
 * Runs one workload (see suites.hh and README.md), checks its outputs
 * and prints, as the last stdout line, one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. The line before it
 * records the seed, the host and build fingerprint and the workload's
 * metrics under their own names.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/parallel.hh"
#include "suites.hh"

using namespace perfbench;

namespace {

/** The CPU brand string from CPUID, or "unknown". */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const size_t first = s.find_first_not_of(' ');
        const size_t last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** All digits of a double; a non-finite value prints as the largest one. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = v < 0 ? -1.7976931348623157e308 : 1.7976931348623157e308;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", " : "") + jsonString(metrics[i].name) +
             ": {\"value\": " + jsonNumber(metrics[i].value) +
             ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return s + "}";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--commit ID] [--source-digest HEX] "
                 "[--trace-out PATH]\nworkloads:",
                 msg);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseUnsigned(const char *s, unsigned long long *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    cfg.processStartUs = nowUs();
    std::string commit = "unknown", digest = "unknown", trace_out;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        unsigned long long n = 0;
        if (flag == "--workload") {
            cfg.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(val, &n))
                usage("--seed takes a non-negative integer");
            cfg.seed = n;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(val, &n) || n < 1 || n > 3600)
                usage("--seconds takes an integer from 1 to 3600");
            cfg.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace takes 0 or 1");
            cfg.trace = val[0] == '1';
            have_trace = true;
        } else if (flag == "--commit") {
            commit = val;
        } else if (flag == "--source-digest") {
            digest = val;
        } else if (flag == "--trace-out") {
            trace_out = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == cfg.workload;
    if (!known)
        usage(("unknown workload " + cfg.workload).c_str());

    SpanRecorder spans;
    if (cfg.trace)
        cfg.spans = &spans;
    const Outcome o = runWorkload(cfg);

    std::string trace_file;
    if (cfg.trace && !trace_out.empty()) {
        if (!spans.writeChrome(trace_out)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }
        trace_file = trace_out;
    }

    // The record: seed, fingerprint, the workload's numbers under its
    // own names, and the per-layer values this workload measured.
    const std::vector<Metric> catalogue = perLayerCatalogue();
    std::vector<Metric> extra = o.named;
    for (const Metric &m : catalogue) {
        const auto it = o.perLayer.find(m.name);
        if (it != o.perLayer.end())
            extra.push_back({m.name, it->second, m.unit});
    }
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"fingerprint\": {\"nproc\": %u, \"cpu\": %s, \"build_type\": %s, "
        "\"native\": %d, \"threads\": %d, \"commit\": %s, "
        "\"source_digest\": %s}, \"trace_file\": %s, \"spans\": %zu, "
        "\"named\": %s}\n",
        jsonString(cfg.workload).c_str(),
        static_cast<unsigned long long>(cfg.seed),
        jsonNumber(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
        std::thread::hardware_concurrency(), jsonString(cpuModel()).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(), PERFBENCH_NATIVE,
        mmbench::core::numThreads(), jsonString(commit).c_str(),
        jsonString(digest).c_str(), jsonString(trace_file).c_str(),
        spans.size(), metricsJson(extra).c_str());

    std::vector<Metric> report;
    if (cfg.trace) {
        for (Metric m : catalogue) {
            const auto it = o.perLayer.find(m.name);
            m.value = it == o.perLayer.end() ? 0.0 : it->second;
            report.push_back(m);
        }
    } else {
        report = o.endToEnd;
    }
    const bool correct = o.failed == 0 && o.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(o.attempted),
                static_cast<long long>(o.failed), metricsJson(report).c_str());
    return 0;
}
