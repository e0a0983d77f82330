/**
 * @file
 * The benchmark's own tracing: a span recorder and a per-thread
 * kernel-class sink. Both live outside the library, so the untraced
 * runs execute exactly the code a library user runs.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/sink.hh"

namespace perfbench {

/** Microseconds on the steady clock. */
double nowUs();

/** One recorded interval. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int64_t id = 0;
    int64_t parent = -1;  ///< -1 for a root span
    int64_t request = -1; ///< serve request id, -1 outside serving
    int tid = 0;          ///< small per-thread index (trace lane)
};

/**
 * In-memory span store, written once as Chrome trace-event JSON.
 * Spans are recorded after the interval ends, parents before their
 * children, so a child can name its parent's id. Thread-safe.
 */
class SpanRecorder
{
  public:
    /** Record one span; returns its id. */
    int64_t add(std::string name, double start_us, double end_us,
                int64_t parent = -1, int64_t request = -1);

    /** Write every span as a trace-event JSON file. */
    bool writeChrome(const std::string &path) const;

    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

constexpr size_t kNumClasses =
    static_cast<size_t>(mmbench::trace::KernelClass::NumClasses);

/** Per-kernel-class totals. */
struct ClassTotals
{
    std::array<double, kNumClasses> fwdUs{};  ///< outside backward()
    std::array<double, kNumClasses> bwdUs{};  ///< inside backward()
    std::array<uint64_t, kNumClasses> calls{};
    std::array<double, kNumClasses> flops{};
    std::array<double, kNumClasses> bytes{};  ///< computed from sizes

    void add(const ClassTotals &o);
};

/**
 * Charges wall time to kernel classes. Kernels emit their event after
 * they compute, so the time since the previous kernel event on this
 * thread (or since begin()) is charged to the emitting kernel's class.
 */
class KernelClassSink : public mmbench::trace::Sink
{
  public:
    /** Start of a timed operation: nothing before it is charged. */
    void begin();
    /** Charge the following kernels to the backward columns. */
    void setBackward(bool on) { backward_ = on; }

    void onKernel(const mmbench::trace::KernelEvent &ev) override;
    void onRuntime(const mmbench::trace::RuntimeEvent &) override {}
    void onAlloc(const mmbench::trace::AllocEvent &) override {}

    const ClassTotals &totals() const { return totals_; }

  private:
    double lastUs_ = 0.0;
    bool backward_ = false;
    ClassTotals totals_;
};

/**
 * One KernelClassSink per calling thread, for the serve slots. Sinks
 * are handed out under a lock on first use by each thread; after that
 * a thread touches only its own sink.
 */
class SinkSet
{
  public:
    SinkSet();
    SinkSet(const SinkSet &) = delete;
    SinkSet &operator=(const SinkSet &) = delete;

    /** The calling thread's sink in this set. */
    KernelClassSink &local();
    /** Sum over every thread's sink; call when no thread is running. */
    ClassTotals total() const;

  private:
    uint64_t generation_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<KernelClassSink>> sinks_; ///< by mu_
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
