#include "tracing.hh"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<int> nextTid{0};
std::atomic<uint64_t> nextGeneration{1};

int
threadIndex()
{
    thread_local const int tid = nextTid.fetch_add(1);
    return tid;
}

/** JSON string body: span names are ASCII, but escape defensively. */
void
writeEscaped(std::FILE *f, const std::string &s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::fprintf(f, "\\%c", c);
        else if (static_cast<unsigned char>(c) < 0x20)
            std::fprintf(f, "\\u%04x", c);
        else
            std::fputc(c, f);
    }
}

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
SpanRecorder::add(std::string name, double start_us, double end_us,
                  int64_t parent, int64_t request)
{
    Span s;
    s.name = std::move(name);
    s.startUs = start_us;
    s.endUs = end_us;
    s.parent = parent;
    s.request = request;
    s.tid = threadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanRecorder::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().startUs;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "{\"name\":\"");
        writeEscaped(f, s.name);
        std::fprintf(f,
                     "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                     "\"request\":%lld}}%s\n",
                     s.tid, s.startUs - origin, s.endUs - s.startUs,
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

void
ClassTotals::add(const ClassTotals &o)
{
    for (size_t c = 0; c < kNumClasses; ++c) {
        fwdUs[c] += o.fwdUs[c];
        bwdUs[c] += o.bwdUs[c];
        calls[c] += o.calls[c];
        flops[c] += o.flops[c];
        bytes[c] += o.bytes[c];
    }
}

void
KernelClassSink::begin()
{
    lastUs_ = nowUs();
}

void
KernelClassSink::onKernel(const mmbench::trace::KernelEvent &ev)
{
    const double t = nowUs();
    const size_t c = static_cast<size_t>(ev.kclass);
    (backward_ ? totals_.bwdUs : totals_.fwdUs)[c] += t - lastUs_;
    lastUs_ = t;
    ++totals_.calls[c];
    totals_.flops[c] += static_cast<double>(ev.flops);
    totals_.bytes[c] +=
        static_cast<double>(ev.bytesRead) + static_cast<double>(ev.bytesWritten);
}

SinkSet::SinkSet() : generation_(nextGeneration.fetch_add(1)) {}

KernelClassSink &
SinkSet::local()
{
    // Keyed by generation, not address: a later set may reuse this
    // one's address after it is destroyed.
    thread_local uint64_t cachedGeneration = 0;
    thread_local KernelClassSink *cached = nullptr;
    if (cachedGeneration != generation_) {
        std::lock_guard<std::mutex> lock(mu_);
        sinks_.push_back(std::make_unique<KernelClassSink>());
        cached = sinks_.back().get();
        cachedGeneration = generation_;
    }
    return *cached;
}

ClassTotals
SinkSet::total() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ClassTotals sum;
    for (const auto &s : sinks_)
        sum.add(s->totals());
    return sum;
}

} // namespace perfbench
