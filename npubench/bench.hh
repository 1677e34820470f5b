/**
 * @file
 * Shared pieces of the npubench host-time benchmark: command-line
 * options, the result report (job accounting + metrics), an in-memory
 * span log written as Chrome trace-event JSON, and small statistics
 * helpers. Each workload lives in its own source file and only calls
 * the simulator's public API.
 */

#ifndef NPUBENCH_BENCH_HH
#define NPUBENCH_BENCH_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/golden.hh"
#include "analysis/sweep_checkpoint.hh"
#include "sim/multi_core_system.hh"

namespace npubench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";       //!< checkout root (holds tests/golden)
    std::string outDir = ".";     //!< trace file and scratch directories
    std::string goldenDir() const { return root + "/tests/golden"; }
};

/**
 * Spans recorded by the benchmark around its calls into the simulator.
 * Kept in memory and written once at exit; a disabled log records
 * nothing, so untraced runs pay one branch per span.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kNoSpan = ~std::size_t{0};

    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }
    /** A paused log records nothing until resumed (untraced passes). */
    void setPaused(bool paused) { paused_ = paused; }
    std::size_t open(const char *name);
    void close(std::size_t id);

    std::size_t size() const { return spans_.size(); }

    /**
     * Per span name: self time (duration minus the part its child spans
     * cover), summed and divided by the number of root spans it ran
     * under — seconds per traced pass, or per set-up.
     */
    std::map<std::string, double> selfSecondsPerRoot() const;

    /** Chrome trace-event JSON ("X" events; Perfetto opens it). */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Record
    {
        const char *name;
        std::size_t parent;
        double start;
        double end;
    };

    bool enabled_;
    bool paused_ = false;
    Clock::time_point origin_;
    std::vector<Record> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span: open on construction, close on scope exit. */
class Span
{
  public:
    Span(SpanLog &log, const char *name) : log_(log), id_(log.open(name)) {}
    ~Span() { log_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &log_;
    std::size_t id_;
};

/**
 * Run the host-speed calibration kernel once (calibrate.cc); returns its
 * host seconds.
 */
double calibrationSeconds();

/** Factor that turns a timing taken next to @p calibration_seconds into
 *  seconds on the reference host at its typical speed. */
double hostScale(double calibration_seconds);

/** Calibration samples of one run, and the scale each one implies. */
class Calibrator
{
  public:
    double sample()
    {
        seconds_.push_back(calibrationSeconds());
        return hostScale(seconds_.back());
    }
    const std::vector<double> &seconds() const { return seconds_; }

  private:
    std::vector<double> seconds_;
};

/**
 * Host seconds of each job of a workload in each timed pass, kept
 * apart by whether spans were recorded during the pass. A traced run
 * alternates untraced and traced passes so that the difference of the
 * two is the tracing overhead.
 */
class PassTimes
{
  public:
    explicit PassTimes(std::size_t jobs)
        : scaled_{Jobs(jobs), Jobs(jobs)}, raw_{Jobs(jobs), Jobs(jobs)}
    {
    }

    /** @p scale is hostScale() of the calibration next to the job. */
    void add(std::size_t job, double seconds, double scale, bool traced)
    {
        scaled_[traced][job].push_back(seconds * scale);
        raw_[traced][job].push_back(seconds);
    }

    /**
     * One pass's host time: each job's median over the passes with
     * this tracing state, summed, so a slow phase of the host during
     * one pass does not decide the figure. Scaled to the reference
     * host unless @p raw.
     */
    double wall(bool traced, bool raw = false) const;

  private:
    using Jobs = std::vector<std::vector<double>>;
    Jobs scaled_[2];
    Jobs raw_[2];
};

/** Pass @p pass of a traced run records spans on every other pass. */
inline bool
tracedPass(const Options &options, int pass)
{
    return options.trace && pass % 2 == 1;
}

/** Progress line on stderr for one timed pass. */
void logPass(const Options &options, int pass, double seconds, bool traced);

struct Metric
{
    double value = 0;
    std::string unit;
};

/** Job accounting plus the metrics one invocation reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    /** Count one job; a false @p ok counts it failed and logs @p what. */
    void job(bool ok, const std::string &what);

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

double median(std::vector<double> values);

/**
 * Host seconds of one set-up: @p setup runs at least five times and for
 * at least 0.2 s, and the median is reported, so neither cold first-touch
 * costs nor one scheduler hiccup decide setup_s. Repetitions run in
 * batches of at least 50 ms between two calibrations, and each is scaled
 * by its batch's. The caller keeps the last repetition's products.
 */
template <typename F>
double
medianSetupSeconds(Calibrator &calibrator, F &&setup)
{
    std::vector<double> scaled;
    double before = calibrator.sample();
    const auto start = Clock::now();
    while (scaled.size() < 5 || secondsSince(start) < 0.2) {
        std::vector<double> batch;
        const auto batch_start = Clock::now();
        while (batch.empty() || secondsSince(batch_start) < 0.05) {
            const auto t0 = Clock::now();
            setup();
            batch.push_back(secondsSince(t0));
        }
        const double after = calibrator.sample();
        for (double seconds : batch)
            scaled.push_back(seconds * std::sqrt(before * after));
        before = after;
    }
    return median(scaled);
}

/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/** Peak RSS of this process and of its waited-for children, in MiB. */
double peakRssMb();

/**
 * The golden case as a co-run config, with fidelity, DRAM backend and
 * check level pinned so process-wide defaults cannot leak into a job.
 */
mnpu::SystemConfig pinnedConfig(const mnpu::GoldenCase &golden,
                                mnpu::FidelityKind fidelity);

/**
 * The committed fast-path error metric: |fast - exact| / exact over
 * global and every core's local cycles (the envelope's definition).
 */
double fastDeviation(const mnpu::SimResult &fast,
                     const mnpu::SweepCheckpointRecord &exact);

/** One committed golden case, ready to co-run. */
struct GoldenJob
{
    const mnpu::GoldenCase *golden = nullptr;
    std::vector<mnpu::CoreBinding> bindings; //!< traces shared across cases
    mnpu::SweepCheckpointRecord exact;       //!< committed exact outcome
    double bound = 0;                        //!< fast twin's envelope bound
};

/** The committed golden inputs every workload checks against. */
struct Goldens
{
    std::vector<GoldenJob> cases;
    std::uint64_t tiles = 0;
    std::uint64_t traceBytes = 0;
    double traceGenSeconds = 0;
};

/**
 * Parse every golden fixture and the fidelity envelope, and build the
 * golden models' traces (the "trace_gen" span). Part of every
 * workload's set-up: each one reports fast_err_max from these cases.
 */
Goldens loadGoldens(const Options &options, SpanLog &spans);

/**
 * Run every golden case's fast-fidelity twin, check each against its
 * envelope bound and report `fast_err_max` against the committed exact
 * cycles. Untimed; used by the workloads that have no exact co-run.
 */
void reportFastErrorProbe(const Goldens &goldens, Report &report);

/** Sum of SimResult telemetry counters over the given jobs. */
struct SimTotals
{
    std::uint64_t loopIterations = 0;
    std::uint64_t globalCycles = 0;
    std::uint64_t localCycles = 0;
    double peUtilizationSum = 0;
    std::uint64_t cores = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    std::uint64_t walkBytes = 0;
    std::uint64_t trafficBytes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    double energyPj = 0;
    std::map<std::string, std::uint64_t> fabric; //!< fabric.* counters

    void add(const mnpu::SimResult &result);
    /** Emit the core/mmu/dram/fabric per-layer metrics. */
    void report(Report &report) const;
};

/** Workload entry points (one source file each). */
void runCorunExact(const Options &options, SpanLog &spans, Report &report);
void runSweepFastFull(const Options &options, SpanLog &spans,
                      Report &report);
void runServingGpt2(const Options &options, SpanLog &spans, Report &report);

/**
 * Traced-run component replays over the corun_exact traces: the page
 * stream through Tlb + PageTableModel and the 64-B request stream
 * through the hbm2 and pcm memory backends.
 */
void runComponentReplays(
    const std::vector<std::vector<std::shared_ptr<const mnpu::TraceGenerator>>>
        &mixes,
    SpanLog &spans, Report &report);

} // namespace npubench

#endif // NPUBENCH_BENCH_HH
