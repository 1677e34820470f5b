/**
 * @file
 * sweep_fast_full: the full-scale 36-mix dual grid at all four sharing
 * levels (144 jobs, the grid of `bench_fig04_dual_perf --full --fidelity
 * fast`) through SweepRunner with one process-isolated worker and a
 * JSONL checkpoint. Fast fidelity replaces the cycle loop by closed
 * form, so host time goes to the fast translate/transfer paths and to
 * the campaign harness: a fork per job, result IPC, checkpoint appends.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "analysis/experiment.hh"
#include "analysis/mixes.hh"
#include "analysis/sweep_runner.hh"
#include "bench.hh"
#include "common/fidelity.hh"
#include "sw/arch_config.hh"
#include "workloads/models.hh"

namespace npubench
{

using namespace mnpu;

namespace
{

/** A fresh mkdtemp directory under the output dir, removed on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
    {
        std::string pattern = parent + "/npubench-sweep-XXXXXX";
        if (mkdtemp(pattern.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed under " + parent);
        path_ = pattern;
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<SweepJob>
gridJobs()
{
    std::vector<SweepJob> jobs;
    const auto &names = modelNames();
    const auto mixes =
        enumerateMultisets(static_cast<std::uint32_t>(names.size()), 2);
    for (SharingLevel level :
         {SharingLevel::Static, SharingLevel::ShareD, SharingLevel::ShareDW,
          SharingLevel::ShareDWT}) {
        for (const auto &mix : mixes) {
            SweepJob job;
            job.config.level = level;
            for (std::uint32_t model : mix)
                job.models.push_back(names[model]);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

struct Setup
{
    Goldens goldens;
    std::unique_ptr<ExperimentContext> context;
    std::uint64_t tiles = 0;
    std::uint64_t traceBytes = 0;
    double traceGenSeconds = 0;
    double idealSeconds = 0;
};

/**
 * Golden inputs, then the context, full-scale traces and Ideal pre-warm
 * SweepRunner needs.
 */
Setup
buildSetup(const Options &options, SpanLog &spans)
{
    Span span(spans, "setup");
    Setup setup;
    setup.goldens = loadGoldens(options, spans);
    setup.tiles = setup.goldens.tiles;
    setup.traceBytes = setup.goldens.traceBytes;
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.backend = MemBackendKind::Dram;
    setup.context = std::make_unique<ExperimentContext>(
        ArchConfig::cloudNpu(), mem, ModelScale::Full);
    {
        Span trace_span(spans, "trace_gen");
        const auto start = Clock::now();
        for (const std::string &model : modelNames()) {
            auto trace = setup.context->trace(model);
            setup.tiles += trace->tiles().size();
            setup.traceBytes += trace->totalTrafficBytes();
        }
        setup.traceGenSeconds =
            setup.goldens.traceGenSeconds + secondsSince(start);
    }
    {
        Span ideal_span(spans, "ideal_prewarm");
        const auto start = Clock::now();
        for (const std::string &model : modelNames())
            setup.context->idealCycles(model, 2);
        setup.idealSeconds = secondsSince(start);
    }
    return setup;
}

SweepOptions
campaignOptions(const std::string &checkpoint, IsolationMode isolation)
{
    SweepOptions options;
    options.keepGoing = true;
    options.checkpointPath = checkpoint;
    options.isolation = isolation;
    return options;
}

} // namespace

void
runSweepFastFull(const Options &options, SpanLog &spans, Report &report)
{
    // What `--fidelity fast` sets: the Ideal baselines run fast too.
    setFidelityDefault(FidelityKind::Fast);
    const std::vector<SweepJob> jobs = gridJobs();
    ScratchDir scratch(options.outDir);

    Calibrator calibrator;
    Setup setup;
    std::vector<double> trace_gen_seconds, ideal_seconds;
    const double setup_seconds = medianSetupSeconds(calibrator, [&] {
        setup = buildSetup(options, spans);
        trace_gen_seconds.push_back(setup.traceGenSeconds);
        ideal_seconds.push_back(setup.idealSeconds);
    });

    // One "job" per grid job plus one for the harness (fork, IPC,
    // checkpoint appends: the campaign's time outside the jobs).
    const std::size_t harness = jobs.size();
    PassTimes wall(jobs.size() + 1);
    std::vector<double> job_seconds, harness_seconds;
    std::string checkpoint;
    int passes = 0;
    const auto start = Clock::now();
    while (passes < (options.trace ? 2 : 1) ||
           secondsSince(start) < options.seconds) {
        const bool traced = tracedPass(options, passes);
        spans.setPaused(!traced);
        Span pass_span(spans, "workload");
        checkpoint = scratch.path() + "/campaign-" +
                     std::to_string(passes) + ".jsonl";
        double before = 0;
        {
            Span calibrate(spans, "calibrate");
            before = calibrator.sample();
        }
        SweepRunner runner(1);
        const auto t0 = Clock::now();
        std::vector<SweepRecord> records;
        {
            Span sweep_span(spans, "sweep");
            records = runner.run(
                *setup.context, jobs,
                campaignOptions(checkpoint, IsolationMode::Process));
        }
        const double campaign_seconds = secondsSince(t0);
        logPass(options, passes, campaign_seconds, traced);
        double scale = 0;
        {
            Span calibrate(spans, "calibrate");
            scale = std::sqrt(before * calibrator.sample());
        }

        double in_jobs = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            report.job(records[i].status == SweepStatus::Ok,
                       "grid job " + std::to_string(i) + " ended " +
                           toString(records[i].status) + ": " +
                           records[i].error);
            wall.add(i, records[i].wallSeconds, scale, traced);
            in_jobs += records[i].wallSeconds;
            job_seconds.push_back(records[i].wallSeconds);
        }
        wall.add(harness, campaign_seconds - in_jobs, scale, traced);
        const SweepStats &stats = runner.lastStats();
        harness_seconds.push_back(stats.wallSeconds - stats.jobSecondsSum);
        ++passes;
    }
    spans.setPaused(false);

    // The written checkpoint must restore the whole grid.
    {
        SweepRunner runner(1);
        SweepOptions resume = campaignOptions(checkpoint,
                                              IsolationMode::Process);
        resume.resume = true;
        runner.run(*setup.context, jobs, resume);
        const SweepStats &stats = runner.lastStats();
        report.job(stats.executed == 0 && stats.skipped == jobs.size(),
                   "resume of the grid checkpoint executed " +
                       std::to_string(stats.executed) + " jobs");
    }

    report.set("wall_s", wall.wall(false), "s");
    report.set("setup_s", setup_seconds, "s");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    reportFastErrorProbe(setup.goldens, report);
    report.set("bench.wall_raw_s", wall.wall(false, true), "s");
    report.set("bench.calibration_s", median(calibrator.seconds()), "s");
    if (!options.trace)
        return;

    report.set("trace.overhead_s", wall.wall(true) - wall.wall(false), "s");
    report.set("bench.passes", passes, "count");
    report.set("sw.trace_gen_s", median(trace_gen_seconds), "s");
    report.set("sw.tiles", static_cast<double>(setup.tiles), "count");
    report.set("sw.trace_bytes", static_cast<double>(setup.traceBytes),
               "bytes");
    report.set("sweep.jobs", static_cast<double>(job_seconds.size()),
               "count");
    report.set("sweep.job_p50_s", percentile(job_seconds, 50), "s");
    report.set("sweep.job_p90_s", percentile(job_seconds, 90), "s");
    report.set("sweep.harness_s", median(harness_seconds), "s");
    report.set("sweep.ideal_s", median(ideal_seconds), "s");
    report.set("sweep.checkpoint_bytes",
               static_cast<double>(std::filesystem::file_size(checkpoint)),
               "bytes");

    // Same grid in thread mode: what process isolation costs. Its
    // records also carry the loop counts the checkpoint wire format
    // that process mode returns results in does not.
    {
        Span thread_span(spans, "sweep.thread_mode");
        const double before = calibrator.sample();
        SweepRunner runner(1);
        const auto t0 = Clock::now();
        const auto records = runner.run(
            *setup.context, jobs,
            campaignOptions(scratch.path() + "/thread.jsonl",
                            IsolationMode::Thread));
        const double thread_seconds =
            secondsSince(t0) * std::sqrt(before * calibrator.sample());
        SimTotals totals;
        for (const SweepRecord &record : records) {
            report.job(record.status == SweepStatus::Ok,
                       "thread-mode grid job failed: " + record.error);
            totals.add(record.outcome.raw);
        }
        totals.report(report);
        report.set("sweep.isolation_overhead_s",
                   wall.wall(false) - thread_seconds, "s");
    }
}

} // namespace npubench
