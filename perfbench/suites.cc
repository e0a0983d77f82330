#include "suites.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>

#include "autograd/optim.hh"
#include "autograd/var.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "models/registry.hh"
#include "pipeline/scheduler.hh"
#include "pipeline/serve.hh"
#include "tensor/pool.hh"

namespace perfbench {

using namespace mmbench;
using models::MultiModalWorkload;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;
constexpr int64_t kBatch = 8;
/** Distinct input batches per app in the offline suite. */
constexpr int kOfflineBatches = 2;
/** Training geometry: scale 1.0 makes one transfuser step 1.6 s. */
constexpr float kTrainScale = 0.5f;
/**
 * Steps per training cycle. Every cycle starts from freshly built
 * models and optimizers, so each step's loss is a pure function of
 * (app, cycle position) and can be checked bit for bit against a
 * one-thread replay of a single cycle.
 */
constexpr int kTrainCycle = 3;
constexpr float kTrainLr = 0.01f;
/**
 * Offered load of the serve workload: about half the static engine's
 * capacity on a quiet 4-core host. Queueing shows, but CPU steal from
 * other tenants cannot tip the stream into a backlog.
 */
constexpr double kServeRateRps = 80.0;
/**
 * Distinct sampled transfuser inputs; request i serves input i modulo
 * this. Sampling is single-threaded and about 2 ms per input, and its
 * speed on a shared host changes by a third from one process to the
 * next; with 64 inputs it made set-up time the least steady figure.
 * A forward's cost does not depend on its input's values.
 */
constexpr int kServeInputs = 16;
const char *const kServeApp = "transfuser";
/**
 * The percentile of each app's operation times that the closed loops
 * gate on. Other tenants of a shared host slow the whole machine in
 * spells of seconds to minutes, by up to 3x at the median, and a median
 * moves with the share of a run such spells cover. The fifth
 * percentile reads the cost on a quiet host and rises least when a
 * spell covers the run. A change that slows every operation moves it
 * as much as it moves the median.
 */
constexpr double kGatePercentile = 5.0;

const char *const kClassNames[kNumClasses] = {
    "conv", "bnorm", "elewise", "pooling", "relu", "gemm", "reduce", "other"};
/** Stages the graph.* metrics report, in report order. */
const trace::Stage kStages[] = {trace::Stage::Preprocess,
                                trace::Stage::Encoder, trace::Stage::Fusion,
                                trace::Stage::Head};
constexpr size_t kNumStages = 4;

using StageUs = std::array<double, kNumStages>;

/** Percentile with linear interpolation between closest ranks. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    // Unserved requests are +inf; keep inf - inf out of the blend.
    if (frac == 0.0 || std::isinf(v[lo]))
        return v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += std::log(x);
    return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

/** Geometric mean over apps of each app's p-th percentile latency. */
double
geomeanOfPercentiles(const std::vector<std::vector<double>> &per_app,
                     double p)
{
    std::vector<double> each;
    for (const auto &lat : per_app)
        each.push_back(percentile(lat, p));
    return geomean(each);
}

/**
 * Time of one round, a round being one operation of every app, with
 * each app at its p-th percentile latency. Closed-loop throughput is a
 * round's samples over this time; see kGatePercentile.
 */
double
roundAtPercentileUs(const std::vector<std::vector<double>> &per_app,
                    double p)
{
    double us = 0.0;
    for (const auto &lat : per_app)
        us += percentile(lat, p);
    return us;
}

bool
sameBits(const tensor::Tensor &a, const tensor::Tensor &b)
{
    return a.defined() && b.defined() && a.shape() == b.shape() &&
           a.dtype() == b.dtype() &&
           std::memcmp(a.rawData(), b.rawData(), a.bytes()) == 0;
}

/** A tensor's shape and bytes, held outside the storage arena. */
struct HostCopy
{
    tensor::Shape shape;
    std::vector<char> bytes;

    HostCopy() = default;
    explicit HostCopy(const tensor::Tensor &t)
        : shape(t.shape()),
          bytes(static_cast<const char *>(t.rawData()),
                static_cast<const char *>(t.rawData()) + t.bytes())
    {
    }

    bool sameBits(const tensor::Tensor &t) const
    {
        return t.defined() && t.shape() == shape && t.bytes() == bytes.size() &&
               std::memcmp(t.rawData(), bytes.data(), bytes.size()) == 0;
    }
};

/** Records spans when tracing; every call is a no-op otherwise. */
class Spans
{
  public:
    explicit Spans(SpanRecorder *rec) : rec_(rec) {}

    int64_t add(const std::string &name, double start_us, double end_us,
                int64_t parent = -1, int64_t request = -1) const
    {
        return rec_ ? rec_->add(name, start_us, end_us, parent, request)
                    : -1;
    }

    /** Spans of the graph nodes of one run, under `parent`. */
    void nodes(const pipeline::StageGraph &graph, const pipeline::GraphRun &run,
               int64_t parent, int64_t request = -1) const
    {
        if (!rec_)
            return;
        for (size_t i = 0; i < run.nodes.size(); ++i) {
            if (run.nodes[i].endUs > 0.0)
                rec_->add(graph.node(i).name, run.nodes[i].startUs,
                          run.nodes[i].endUs, parent, request);
        }
    }

  private:
    SpanRecorder *rec_;
};

/** Node time of one graph run, summed per reported stage. */
void
addStageTimes(const pipeline::StageGraph &graph,
              const pipeline::GraphRun &run, StageUs *out)
{
    for (size_t i = 0; i < run.nodes.size(); ++i) {
        for (size_t s = 0; s < kNumStages; ++s) {
            if (graph.node(i).stage == kStages[s])
                (*out)[s] += run.nodes[i].hostUs();
        }
    }
}

/**
 * Arena counters over one timed window. peak_mb is the arena's
 * high-water during the window above the bytes live when it opened,
 * so the inputs sampled in set-up do not count.
 */
class PoolWindow
{
  public:
    PoolWindow() : pool_(tensor::MemoryPool::instance())
    {
        pool_.resetPeak();
        start_ = pool_.stats();
    }

    double peakMiB() const
    {
        return static_cast<double>(pool_.stats().peakBytes -
                                   start_.bytesInUse) /
               (1024.0 * 1024.0);
    }

    tensor::PoolStats delta() const
    {
        const tensor::PoolStats now = pool_.stats();
        tensor::PoolStats d;
        d.requests = now.requests - start_.requests;
        d.poolHits = now.poolHits - start_.poolHits;
        d.freshAllocs = now.freshAllocs - start_.freshAllocs;
        return d;
    }

  private:
    tensor::MemoryPool &pool_;
    tensor::PoolStats start_;
};

/** What every timed phase reports besides its own numbers. */
struct PhaseCommon
{
    int64_t attempted = 0;
    int64_t failed = 0;
    double wallUs = 0.0;
    double ops = 0.0; ///< rounds (closed loops) or requests (serve)
    double peakMiB = 0.0;
    tensor::PoolStats pool;
    ClassTotals classes;
    StageUs stageUs{};
};

/** Per-layer metrics shared by all workloads, normalised per op. */
void
addCommonLayers(const PhaseCommon &p, std::map<std::string, double> *out)
{
    const double ops = std::max(1.0, p.ops);
    for (size_t c = 0; c < kNumClasses; ++c) {
        const std::string k = std::string("tensor.") + kClassNames[c];
        (*out)[k + ".ms"] = p.classes.fwdUs[c] / 1e3 / ops;
        (*out)[k + ".bwd_ms"] = p.classes.bwdUs[c] / 1e3 / ops;
        (*out)[k + ".calls"] = static_cast<double>(p.classes.calls[c]) / ops;
        (*out)[k + ".gflop"] = p.classes.flops[c] / 1e9 / ops;
        (*out)[k + ".gb"] = p.classes.bytes[c] / 1e9 / ops;
    }
    for (size_t s = 0; s < kNumStages; ++s)
        (*out)[std::string("graph.") + trace::stageName(kStages[s]) + "_ms"] =
            p.stageUs[s] / 1e3 / ops;
    (*out)["pool.requests"] = static_cast<double>(p.pool.requests) / ops;
    (*out)["pool.fresh_allocs"] =
        static_cast<double>(p.pool.freshAllocs) / ops;
    (*out)["pool.hit_ratio"] = p.pool.reuseRatio();
}

/**
 * Run `build` kSetupReps times, keeping the last state. The first
 * repetition is timed from process start, so it also carries process
 * and thread-pool start-up and a cold arena; it is recorded as
 * setup.first_s. The later ones rebuild everything with the arena's
 * free lists filled and its pages faulted in, so setup_s, their
 * median, is the set-up work itself rather than a cold process start.
 */
template <class State, class Build>
std::unique_ptr<State>
setUp(const RunConfig &cfg, Build build, double *setup_s, Outcome *o)
{
    std::vector<double> secs, build_ms, sample_ms;
    std::unique_ptr<State> state;
    const Spans spans(cfg.spans);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        state.reset();
        const double t0 = rep == 0 ? cfg.processStartUs : nowUs();
        state = build();
        const double t1 = nowUs();
        spans.add("setup", t0, t1);
        secs.push_back((t1 - t0) / 1e6);
        build_ms.push_back(state->buildUs / 1e3);
        sample_ms.push_back(state->sampleUs / 1e3);
    }
    *setup_s = median(secs);
    o->named.push_back({"setup.first_s", secs.front(), "s"});
    o->perLayer["models.build_ms"] = median(build_ms);
    o->perLayer["data.sample_ms"] = median(sample_ms);
    return state;
}

uint64_t
appSeed(uint64_t seed, size_t app)
{
    return seed * 1000003ULL + app;
}

std::unique_ptr<MultiModalWorkload>
buildModel(const std::string &app, float scale, const Spans &spans,
           double *build_us)
{
    const double t0 = nowUs();
    auto model =
        models::WorkloadRegistry::instance().createDefault(app, scale);
    const double t1 = nowUs();
    spans.add("models.build:" + app, t0, t1);
    *build_us += t1 - t0;
    return model;
}

std::vector<data::Batch>
sampleBatches(MultiModalWorkload &model, uint64_t seed, int count,
              int64_t batch, const Spans &spans, double *sample_us)
{
    const double t0 = nowUs();
    data::SyntheticTask task = model.makeTask(seed);
    std::vector<data::Batch> out;
    out.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        out.push_back(task.sample(batch));
    const double t1 = nowUs();
    spans.add("data.sample:" + model.info().name, t0, t1);
    *sample_us += t1 - t0;
    return out;
}

void
addEndToEnd(Outcome *o, double setup_s, double peak_mib, double sps,
            double latency_us)
{
    o->endToEnd = {{"setup_s", setup_s, "s"},
                   {"peak_mb", peak_mib, "MiB"},
                   {"sps", sps, "1/s"},
                   {"latency_ms", latency_us / 1e3, "ms"}};
}

// ------------------------------------------------------------ offline

struct OfflineApp
{
    std::string name;
    std::unique_ptr<MultiModalWorkload> model;
    std::vector<data::Batch> batches;
    std::vector<tensor::Tensor> reference; ///< 1-thread output per batch
};

struct OfflineState
{
    std::vector<OfflineApp> apps;
    double buildUs = 0.0;
    double sampleUs = 0.0;
};

std::unique_ptr<OfflineState>
offlineSetUp(const RunConfig &cfg)
{
    const Spans spans(cfg.spans);
    auto st = std::make_unique<OfflineState>();
    const auto names = models::WorkloadRegistry::instance().names();
    for (size_t a = 0; a < names.size(); ++a) {
        OfflineApp app;
        app.name = names[a];
        app.model = buildModel(app.name, 1.0f, spans, &st->buildUs);
        app.model->train(false);
        app.batches = sampleBatches(*app.model, appSeed(cfg.seed, a),
                                    kOfflineBatches, kBatch, spans,
                                    &st->sampleUs);
        st->apps.push_back(std::move(app));
    }
    autograd::NoGradGuard no_grad;
    const pipeline::ScheduleOptions opts;
    const double w0 = nowUs();
    for (OfflineApp &app : st->apps) {
        for (const data::Batch &b : app.batches)
            app.model->forwardGraph(b, opts);
    }
    spans.add("warmup", w0, nowUs());
    return st;
}

/** The 1-thread outputs every timed forward must match bit for bit. */
void
offlineReferences(OfflineState &st)
{
    autograd::NoGradGuard no_grad;
    core::ScopedNumThreads one(1);
    const pipeline::ScheduleOptions opts;
    for (OfflineApp &app : st.apps) {
        for (const data::Batch &b : app.batches)
            app.reference.push_back(app.model->forwardGraph(b, opts).value());
    }
}

struct OfflinePhase
{
    PhaseCommon common;
    std::vector<std::vector<double>> latUs; ///< per app
    int64_t samples = 0;
};

OfflinePhase
offlinePhase(OfflineState &st, double seconds, bool traced,
             const Spans &spans)
{
    OfflinePhase ph;
    ph.latUs.resize(st.apps.size());
    autograd::NoGradGuard no_grad;
    const pipeline::ScheduleOptions opts;
    KernelClassSink sink;
    std::unique_ptr<trace::ScopedSink> scoped;
    if (traced)
        scoped = std::make_unique<trace::ScopedSink>(sink);

    PoolWindow window;
    const double start = nowUs();
    int rounds = 0;
    // Whole rounds only, so every app runs the same number of times.
    while (nowUs() - start < seconds * 1e6) {
        const size_t b = static_cast<size_t>(rounds) % kOfflineBatches;
        for (size_t a = 0; a < st.apps.size(); ++a) {
            OfflineApp &app = st.apps[a];
            pipeline::GraphRun run;
            sink.begin();
            const double t0 = nowUs();
            autograd::Var out = app.model->forwardGraph(app.batches[b], opts,
                                                        traced ? &run : nullptr);
            const double t1 = nowUs();
            ph.latUs[a].push_back(t1 - t0);
            ++ph.common.attempted;
            if (!sameBits(out.value(), app.reference[b]))
                ++ph.common.failed;
            if (traced) {
                const pipeline::StageGraph &g = app.model->stageGraph();
                addStageTimes(g, run, &ph.common.stageUs);
                spans.nodes(g, run, spans.add("offline:" + app.name, t0, t1));
            }
            ph.samples += app.batches[b].size;
        }
        ++rounds;
    }
    ph.common.wallUs = nowUs() - start;
    ph.common.ops = rounds;
    ph.common.peakMiB = window.peakMiB();
    ph.common.pool = window.delta();
    ph.common.classes = sink.totals();
    return ph;
}

Outcome
runOffline(const RunConfig &cfg)
{
    Outcome o;
    double setup_s = 0.0;
    auto st = setUp<OfflineState>(cfg, [&] { return offlineSetUp(cfg); },
                                  &setup_s, &o);
    offlineReferences(*st);
    const Spans spans(cfg.spans);
    auto account = [&](const OfflinePhase &ph) {
        o.attempted += ph.common.attempted;
        o.failed += ph.common.failed;
    };
    if (!cfg.trace) {
        const OfflinePhase ph = offlinePhase(*st, cfg.seconds, false, spans);
        account(ph);
        const double per_round =
            static_cast<double>(ph.samples) / ph.common.ops * 1e6;
        const double sps =
            per_round / roundAtPercentileUs(ph.latUs, kGatePercentile);
        const double lat = geomeanOfPercentiles(ph.latUs, kGatePercentile);
        addEndToEnd(&o, setup_s, ph.common.peakMiB, sps, lat);
        o.named.insert(o.named.end(), {{"offline.sps", sps, "1/s"},
                   {"offline.geomean_ms", lat / 1e3, "ms"},
                   {"offline.median_sps",
                    per_round / roundAtPercentileUs(ph.latUs, 50.0), "1/s"},
                   {"offline.geomean_p50_ms",
                    geomeanOfPercentiles(ph.latUs, 50.0) / 1e3, "ms"},
                   {"offline.window_sps",
                    static_cast<double>(ph.samples) * 1e6 / ph.common.wallUs,
                    "1/s"}});
        return o;
    }
    const OfflinePhase bare = offlinePhase(*st, cfg.seconds / 2, false, spans);
    const OfflinePhase traced = offlinePhase(*st, cfg.seconds / 2, true, spans);
    account(bare);
    account(traced);
    addCommonLayers(traced.common, &o.perLayer);
    for (size_t a = 0; a < st->apps.size(); ++a)
        o.perLayer["offline." + st->apps[a].name + ".p50_ms"] =
            median(traced.latUs[a]) / 1e3;
    const double bare_round = bare.common.wallUs / bare.common.ops;
    const double traced_round = traced.common.wallUs / traced.common.ops;
    o.perLayer["trace.overhead_share"] =
        (traced_round - bare_round) / bare_round;
    o.named.push_back({"offline.round_ms", traced_round / 1e3, "ms"});
    return o;
}

// -------------------------------------------------------------- train

struct TrainApp
{
    std::string name;
    std::unique_ptr<MultiModalWorkload> model;
    std::unique_ptr<autograd::Adam> opt;
    std::vector<data::Batch> batches; ///< one per cycle position
};

struct TrainState
{
    std::vector<TrainApp> apps;
    double buildUs = 0.0;
    double sampleUs = 0.0;
};

/** Fresh weights and optimizer state: the start of a cycle. */
void
restart(TrainApp &app, const Spans &spans, double *build_us)
{
    app.opt.reset();
    app.model.reset();
    app.model = buildModel(app.name, kTrainScale, spans, build_us);
    app.model->train(true);
    app.opt = std::make_unique<autograd::Adam>(app.model->parameters(),
                                               kTrainLr);
}

/** Clock marks of one training step. */
struct StepTimes
{
    double zeroUs = 0.0;     ///< zeroGrad starts
    double forwardUs = 0.0;  ///< forward plus loss starts
    double backwardUs = 0.0; ///< backward starts
    double stepUs = 0.0;     ///< Adam step starts
    double endUs = 0.0;

    double forward() const { return backwardUs - forwardUs; }
    double backward() const { return stepUs - backwardUs; }
    double optim() const { return (forwardUs - zeroUs) + (endUs - stepUs); }
    double total() const { return endUs - zeroUs; }
};

/** One Adam step; returns the loss. */
float
trainStep(TrainApp &app, const data::Batch &batch, KernelClassSink *sink,
          StepTimes *t, pipeline::GraphRun *run)
{
    const pipeline::ScheduleOptions opts;
    if (sink)
        sink->begin();
    t->zeroUs = nowUs();
    app.opt->zeroGrad();
    t->forwardUs = nowUs();
    autograd::Var loss = app.model->loss(
        app.model->forwardGraph(batch, opts, run), batch.targets);
    t->backwardUs = nowUs();
    if (sink)
        sink->setBackward(true);
    autograd::backward(loss);
    if (sink)
        sink->setBackward(false);
    t->stepUs = nowUs();
    app.opt->step();
    t->endUs = nowUs();
    return loss.value().item();
}

std::unique_ptr<TrainState>
trainSetUp(const RunConfig &cfg)
{
    const Spans spans(cfg.spans);
    auto st = std::make_unique<TrainState>();
    const auto names = models::WorkloadRegistry::instance().names();
    for (size_t a = 0; a < names.size(); ++a) {
        TrainApp app;
        app.name = names[a];
        restart(app, spans, &st->buildUs);
        app.batches = sampleBatches(*app.model, appSeed(cfg.seed, a),
                                    kTrainCycle, kBatch, spans,
                                    &st->sampleUs);
        st->apps.push_back(std::move(app));
    }
    const double w0 = nowUs();
    for (TrainApp &app : st->apps) {
        StepTimes t;
        trainStep(app, app.batches[0], nullptr, &t, nullptr);
    }
    spans.add("warmup", w0, nowUs());
    return st;
}

struct TrainPhase
{
    PhaseCommon common;
    std::vector<std::vector<double>> stepUs; ///< per app
    std::vector<std::vector<float>> losses;  ///< per app, per round
    double forwardUs = 0.0; ///< summed over the phase
    double backwardUs = 0.0;
    double optimUs = 0.0;
    double stepTotalUs = 0.0;
    int64_t samples = 0;
};

TrainPhase
trainPhase(TrainState &st, double seconds, bool traced, const Spans &spans)
{
    TrainPhase ph;
    ph.stepUs.resize(st.apps.size());
    ph.losses.resize(st.apps.size());
    KernelClassSink sink;
    std::unique_ptr<trace::ScopedSink> scoped;
    if (traced)
        scoped = std::make_unique<trace::ScopedSink>(sink);

    PoolWindow window;
    double rebuild_us = 0.0;
    const double start = nowUs();
    int rounds = 0;
    // Whole cycles only: every loss then has a cycle position.
    while (rounds % kTrainCycle != 0 || nowUs() - start < seconds * 1e6) {
        const size_t pos = static_cast<size_t>(rounds % kTrainCycle);
        for (size_t a = 0; a < st.apps.size(); ++a) {
            TrainApp &app = st.apps[a];
            if (pos == 0)
                restart(app, spans, &rebuild_us);
            pipeline::GraphRun run;
            StepTimes t;
            const float loss = trainStep(app, app.batches[pos],
                                         traced ? &sink : nullptr, &t,
                                         traced ? &run : nullptr);
            ph.stepUs[a].push_back(t.total());
            ph.stepTotalUs += t.total();
            ph.forwardUs += t.forward();
            ph.backwardUs += t.backward();
            ph.optimUs += t.optim();
            ph.losses[a].push_back(loss);
            ++ph.common.attempted;
            if (!std::isfinite(loss))
                ++ph.common.failed;
            if (traced) {
                const pipeline::StageGraph &g = app.model->stageGraph();
                addStageTimes(g, run, &ph.common.stageUs);
                const int64_t step =
                    spans.add("train:" + app.name, t.zeroUs, t.endUs);
                spans.add("optim.zero_grad", t.zeroUs, t.forwardUs, step);
                const int64_t fwd = spans.add("forward+loss", t.forwardUs,
                                              t.backwardUs, step);
                spans.nodes(g, run, fwd);
                spans.add("backward", t.backwardUs, t.stepUs, step);
                spans.add("optim.step", t.stepUs, t.endUs, step);
            }
            ph.samples += app.batches[pos].size;
        }
        ++rounds;
    }
    ph.common.wallUs = nowUs() - start;
    ph.common.ops = rounds;
    ph.common.peakMiB = window.peakMiB();
    ph.common.pool = window.delta();
    ph.common.classes = sink.totals();
    return ph;
}

/**
 * Replays one cycle per app on one thread and counts the timed steps
 * whose loss differs from the replay in any bit.
 */
int64_t
trainMismatches(TrainState &st, const TrainPhase &ph)
{
    core::ScopedNumThreads one(1);
    const Spans none(nullptr);
    int64_t bad = 0;
    for (size_t a = 0; a < st.apps.size(); ++a) {
        TrainApp &app = st.apps[a];
        double unused = 0.0;
        restart(app, none, &unused);
        std::vector<float> ref;
        for (int k = 0; k < kTrainCycle; ++k) {
            StepTimes t;
            ref.push_back(trainStep(app, app.batches[static_cast<size_t>(k)],
                                    nullptr, &t, nullptr));
        }
        for (size_t r = 0; r < ph.losses[a].size(); ++r) {
            const float want = ref[r % kTrainCycle];
            if (std::memcmp(&want, &ph.losses[a][r], sizeof(float)) != 0)
                ++bad;
        }
    }
    return bad;
}

Outcome
runTrain(const RunConfig &cfg)
{
    Outcome o;
    double setup_s = 0.0;
    auto st = setUp<TrainState>(cfg, [&] { return trainSetUp(cfg); },
                                &setup_s, &o);
    const Spans spans(cfg.spans);
    auto account = [&](const TrainPhase &ph) {
        o.attempted += ph.common.attempted;
        // A step fails once, whether its loss is non-finite, differs
        // from the replay, or both.
        o.failed += std::max(ph.common.failed, trainMismatches(*st, ph));
    };
    if (!cfg.trace) {
        const TrainPhase ph = trainPhase(*st, cfg.seconds, false, spans);
        account(ph);
        const double per_round =
            static_cast<double>(ph.samples) / ph.common.ops * 1e6;
        const double sps =
            per_round / roundAtPercentileUs(ph.stepUs, kGatePercentile);
        const double lat = geomeanOfPercentiles(ph.stepUs, kGatePercentile);
        addEndToEnd(&o, setup_s, ph.common.peakMiB, sps, lat);
        o.named.insert(o.named.end(), {{"train.sps", sps, "1/s"},
                   {"train.step_geomean_ms", lat / 1e3, "ms"},
                   {"train.median_sps",
                    per_round / roundAtPercentileUs(ph.stepUs, 50.0), "1/s"},
                   {"train.step_geomean_p50_ms",
                    geomeanOfPercentiles(ph.stepUs, 50.0) / 1e3, "ms"},
                   {"train.window_sps",
                    static_cast<double>(ph.samples) * 1e6 / ph.common.wallUs,
                    "1/s"}});
        return o;
    }
    const TrainPhase bare = trainPhase(*st, cfg.seconds / 2, false, spans);
    const TrainPhase traced = trainPhase(*st, cfg.seconds / 2, true, spans);
    account(bare);
    account(traced);
    addCommonLayers(traced.common, &o.perLayer);
    const double rounds = std::max(1.0, traced.common.ops);
    for (size_t a = 0; a < st->apps.size(); ++a)
        o.perLayer["train." + st->apps[a].name + ".step_p50_ms"] =
            median(traced.stepUs[a]) / 1e3;
    o.perLayer["train.forward_ms"] = traced.forwardUs / 1e3 / rounds;
    o.perLayer["train.backward_ms"] = traced.backwardUs / 1e3 / rounds;
    o.perLayer["train.optim_ms"] = traced.optimUs / 1e3 / rounds;
    const double bare_step = bare.stepTotalUs / bare.common.ops;
    const double traced_step = traced.stepTotalUs / traced.common.ops;
    o.perLayer["trace.overhead_share"] = (traced_step - bare_step) / bare_step;
    return o;
}

// -------------------------------------------------------------- serve

struct ServeState
{
    std::unique_ptr<MultiModalWorkload> model;
    /** kServeInputs single-sample batches; see input(). */
    std::vector<data::Batch> inputs;
    double buildUs = 0.0;
    double sampleUs = 0.0;

    const data::Batch &input(int request) const
    {
        return inputs[static_cast<size_t>(request) % inputs.size()];
    }
};

/**
 * One served request, kept for the output check. The output is copied
 * out of the arena so that the records kept through the window do not
 * count toward its peak.
 */
struct CallRecord
{
    int request = 0;
    HostCopy output;
    double startUs = 0.0;
    double endUs = 0.0;
    bool failed = false;
};

struct ServePhase
{
    PhaseCommon common;
    pipeline::ServeLoopResult stream;
    std::vector<CallRecord> calls;
    int inflight = 0;
};

/**
 * The default engine: static batcher at max batch 1, one slot per pool
 * thread, so every service call carries exactly one request.
 */
pipeline::ServeLoopOptions
serveOptions(uint64_t seed, pipeline::ArrivalKind arrival)
{
    pipeline::ServeLoopOptions loop;
    loop.arrival = arrival;
    loop.rateRps = kServeRateRps;
    loop.seed = seed;
    loop.inflight = core::numThreads();
    return loop;
}

/**
 * One serve stream. The service function is the runner's fault-free
 * serve body for a single-request call: per-request arena scope, no
 * grad, then one sequential forwardGraph.
 */
ServePhase
servePhase(ServeState &st, int requests, const pipeline::ServeLoopOptions &loop,
           bool traced, const Spans &spans)
{
    ServePhase ph;
    ph.inflight = loop.inflight;
    std::mutex mu; // guards ph.calls and ph.common.stageUs
    SinkSet sinks;
    const pipeline::ScheduleOptions opts;
    const pipeline::StageGraph &graph = st.model->stageGraph();

    PoolWindow window;
    ph.stream = pipeline::runServeLoop(
        requests, loop,
        [&](const pipeline::ServiceCall &call) -> pipeline::ServiceResult {
            CallRecord rec;
            rec.request = call.first;
            KernelClassSink *ks = traced ? &sinks.local() : nullptr;
            std::unique_ptr<trace::ScopedSink> scoped;
            if (ks) {
                scoped = std::make_unique<trace::ScopedSink>(*ks);
                ks->begin();
            }
            pipeline::GraphRun run;
            rec.startUs = nowUs();
            try {
                tensor::RequestArenaScope arena;
                autograd::NoGradGuard no_grad;
                rec.output = HostCopy(
                    st.model
                        ->forwardGraph(st.input(call.first), opts,
                                       traced ? &run : nullptr)
                        .value());
            } catch (const std::exception &e) {
                warn("request %d failed: %s", call.first, e.what());
                rec.failed = true;
            }
            rec.endUs = nowUs();
            pipeline::ServiceResult sr;
            sr.failed = rec.failed;
            if (traced)
                spans.nodes(graph, run,
                            spans.add("serve.call", rec.startUs, rec.endUs,
                                      -1, call.first),
                            call.first);
            std::lock_guard<std::mutex> lock(mu);
            if (traced)
                addStageTimes(graph, run, &ph.common.stageUs);
            ph.calls.push_back(std::move(rec));
            return sr;
        });
    ph.common.wallUs = ph.stream.wallUs;
    ph.common.ops = requests;
    ph.common.peakMiB = window.peakMiB();
    ph.common.pool = window.delta();
    ph.common.classes = sinks.total();
    return ph;
}

/**
 * Marks the calls whose output differs in any bit from an untimed
 * sequential forwardGraph of the same input. The reference forwards
 * run in parallel, one per pool thread.
 */
void
checkServeOutputs(ServeState &st, std::vector<CallRecord> *calls)
{
    const pipeline::ScheduleOptions opts;
    std::vector<tensor::Tensor> ref(st.inputs.size());
    core::parallelFor(0, static_cast<int64_t>(ref.size()), 1,
                      [&](int64_t begin, int64_t end) {
                          autograd::NoGradGuard no_grad;
                          for (int64_t i = begin; i < end; ++i)
                              ref[static_cast<size_t>(i)] =
                                  st.model
                                      ->forwardGraph(
                                          st.inputs[static_cast<size_t>(i)],
                                          opts)
                                      .value();
                      });
    for (CallRecord &rec : *calls) {
        const size_t k = static_cast<size_t>(rec.request) % ref.size();
        if (!rec.failed && !rec.output.sameBits(ref[k]))
            rec.failed = true;
    }
}

std::unique_ptr<ServeState>
serveSetUp(const RunConfig &cfg, int requests)
{
    const Spans spans(cfg.spans);
    auto st = std::make_unique<ServeState>();
    st->model = buildModel(kServeApp, 1.0f, spans, &st->buildUs);
    st->model->train(false);
    st->inputs = sampleBatches(*st->model, cfg.seed,
                               std::min(requests, kServeInputs), 1, spans,
                               &st->sampleUs);
    // Graph and memory plans are built lazily and single-threaded by
    // contract: prime them before concurrent requests race for them.
    st->model->memoryPlan(pipeline::SchedPolicy::Sequential);
    // Warm every slot thread's arena shard with a short closed-loop
    // burst through the same engine.
    const double w0 = nowUs();
    const pipeline::ServeLoopOptions warm =
        serveOptions(cfg.seed, pipeline::ArrivalKind::Closed);
    servePhase(*st, std::min(requests, 4 * warm.inflight), warm, false,
               Spans(nullptr));
    spans.add("warmup", w0, nowUs());
    return st;
}

Outcome
runServe(const RunConfig &cfg)
{
    Outcome o;
    const int total =
        std::max(1, static_cast<int>(std::lround(kServeRateRps * cfg.seconds)));
    // Traced runs serve two half-length streams, bare then traced.
    const int per_phase = cfg.trace ? std::max(1, total / 2) : total;
    double setup_s = 0.0;
    auto st = setUp<ServeState>(
        cfg, [&] { return serveSetUp(cfg, per_phase); }, &setup_s, &o);
    const Spans spans(cfg.spans);
    const pipeline::ServeLoopOptions loop =
        serveOptions(cfg.seed, pipeline::ArrivalKind::Poisson);

    auto run_phase = [&](bool traced) {
        ServePhase ph = servePhase(*st, per_phase, loop, traced, spans);
        checkServeOutputs(*st, &ph.calls);
        // A request fails if it was not served in full, or if its
        // output was wrong.
        std::vector<char> bad(static_cast<size_t>(per_phase), 0);
        for (size_t i = 0; i < ph.stream.outcomes.size(); ++i)
            bad[i] = ph.stream.outcomes[i] != pipeline::RequestOutcome::Ok;
        for (const CallRecord &rec : ph.calls)
            bad[static_cast<size_t>(rec.request)] |= rec.failed ? 1 : 0;
        ph.common.attempted = per_phase;
        ph.common.failed = std::count(bad.begin(), bad.end(), 1);
        o.attempted += ph.common.attempted;
        o.failed += ph.common.failed;
        return ph;
    };
    // Latency from scheduled arrival to completion; a request that was
    // not served enters the percentiles as infinitely late.
    auto latency = [](const ServePhase &ph) {
        std::vector<double> lat;
        for (size_t i = 0; i < ph.stream.requests.size(); ++i)
            lat.push_back(ph.stream.outcomes[i] == pipeline::RequestOutcome::Ok
                              ? ph.stream.requests[i].latencyUs()
                              : std::numeric_limits<double>::infinity());
        return lat;
    };
    auto service_us = [](const ServePhase &ph) {
        std::vector<double> s;
        for (const CallRecord &rec : ph.calls)
            s.push_back(rec.endUs - rec.startUs);
        return s;
    };

    if (!cfg.trace) {
        const ServePhase ph = run_phase(false);
        const std::vector<double> lat = latency(ph);
        const double p50 = percentile(lat, 50.0);
        const double rps = static_cast<double>(ph.stream.ok) * 1e6 /
                           ph.stream.wallUs;
        addEndToEnd(&o, setup_s, ph.common.peakMiB, rps, p50);
        o.named.insert(o.named.end(), {{"serve.p50_ms", p50 / 1e3, "ms"},
                   {"serve.p99_ms", percentile(lat, 99.0) / 1e3, "ms"},
                   {"serve.achieved_rps", rps, "1/s"}});
        return o;
    }
    const ServePhase bare = run_phase(false);
    const ServePhase traced = run_phase(true);
    addCommonLayers(traced.common, &o.perLayer);
    std::vector<double> queue;
    for (const pipeline::RequestTiming &t : traced.stream.requests)
        queue.push_back(t.queueUs());
    const std::vector<double> service = service_us(traced);
    double busy = 0.0;
    for (const double s : service)
        busy += s;
    o.perLayer["serve.queue_p50_ms"] = percentile(queue, 50.0) / 1e3;
    o.perLayer["serve.queue_p99_ms"] = percentile(queue, 99.0) / 1e3;
    o.perLayer["serve.service_p50_ms"] = percentile(service, 50.0) / 1e3;
    o.perLayer["serve.service_p99_ms"] = percentile(service, 99.0) / 1e3;
    o.perLayer["serve.slot_busy_share"] =
        busy / (traced.stream.wallUs * traced.inflight);
    double bare_busy = 0.0;
    for (const double s : service_us(bare))
        bare_busy += s;
    o.perLayer["trace.overhead_share"] = (busy - bare_busy) / bare_busy;
    return o;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "offline-suite", "train-suite", "serve-transfuser"};
    return names;
}

std::vector<Metric>
perLayerCatalogue()
{
    std::vector<Metric> m = {{"models.build_ms", 0, "ms"},
                             {"data.sample_ms", 0, "ms"}};
    const auto apps = models::WorkloadRegistry::instance().names();
    for (const std::string &a : apps)
        m.push_back({"offline." + a + ".p50_ms", 0, "ms"});
    for (const std::string &a : apps)
        m.push_back({"train." + a + ".step_p50_ms", 0, "ms"});
    for (const trace::Stage s : kStages)
        m.push_back({std::string("graph.") + trace::stageName(s) + "_ms", 0,
                     "ms"});
    for (const char *suffix : {".ms", ".calls", ".gflop", ".gb", ".bwd_ms"}) {
        const std::string unit = std::string(suffix) == ".calls"  ? "count"
                                 : std::string(suffix) == ".gflop" ? "GFLOP"
                                 : std::string(suffix) == ".gb"    ? "GB"
                                                                   : "ms";
        for (const char *c : kClassNames)
            m.push_back({std::string("tensor.") + c + suffix, 0, unit});
    }
    for (const char *n : {"train.forward_ms", "train.backward_ms",
                          "train.optim_ms"})
        m.push_back({n, 0, "ms"});
    m.push_back({"pool.requests", 0, "count"});
    m.push_back({"pool.fresh_allocs", 0, "count"});
    m.push_back({"pool.hit_ratio", 0, "ratio"});
    for (const char *n : {"serve.queue_p50_ms", "serve.queue_p99_ms",
                          "serve.service_p50_ms", "serve.service_p99_ms"})
        m.push_back({n, 0, "ms"});
    m.push_back({"serve.slot_busy_share", 0, "ratio"});
    m.push_back({"trace.overhead_share", 0, "ratio"});
    return m;
}

Outcome
runWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "offline-suite")
        return runOffline(cfg);
    if (cfg.workload == "train-suite")
        return runTrain(cfg);
    if (cfg.workload == "serve-transfuser")
        return runServe(cfg);
    MM_FATAL("unknown workload '%s'", cfg.workload.c_str());
}

} // namespace perfbench
