/**
 * @file
 * Shared plumbing for the figure-regeneration benches: option parsing,
 * context construction, the dual/quad sharing-level sweeps reused by
 * several figures, and table printing.
 *
 * Every bench accepts the flags of benchFlags(): scale and sampling
 * (--full, --all, --sample N, --quiet), failure containment and
 * recovery (--keep-going, --job-timeout, --auto-budget, --resume; see
 * README "Failure handling"), isolation and scale-out (--isolate,
 * --worker-*, --shard; DESIGN.md §11), in-flight snapshots
 * (--snapshot-dir, --snapshot-every; DESIGN.md §12), the run settings
 * (--check, --fidelity, --mem-backend, --jobs; README
 * "Settings") and observability (--trace-out, --metrics-out,
 * --obs-level; DESIGN.md §9). --inject and the observability outputs
 * attach to the first job only; a multi-job sweep warns and names the
 * jobs whose exports are dropped.
 *
 * Signals: the first SIGINT/SIGTERM cancels the sweep cooperatively
 * (in-flight mixes stop at their next watchdog check, the checkpoint
 * stays resumable, the bench exits 130); a second force-exits.
 */

#ifndef MNPU_BENCH_BENCH_COMMON_HH
#define MNPU_BENCH_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/metrics.hh"
#include "analysis/mixes.hh"
#include "analysis/sweep_runner.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/stop_signal.hh"
#include "common/thread_pool.hh"
#include "sim/cli.hh"
#include "sim/multi_core_system.hh"
#include "workloads/models.hh"

namespace mnpu::bench
{

/** Bench flags: the shared run flags (RunFlags) plus the sweep ones. */
struct BenchOptions : RunFlags
{
    bool full = false;
    bool all = false;
    std::uint32_t sample = 48;
    bool quiet = false;
    bool keepGoing = false;     //!< contain per-mix failures
    double autoBudget = 0;      //!< adaptive budget multiplier (0=off)
    std::string resumePath;     //!< JSONL checkpoint to append/resume
    std::uint64_t workerMemoryBytes = 0; //!< --worker-mem (process mode)
    std::uint32_t workerCpuSeconds = 0;  //!< --worker-cpu (process mode)
    std::uint32_t workerRetries = 2;     //!< --worker-retries
    std::uint32_t shardIndex = 0;        //!< --shard I/N
    std::uint32_t shardCount = 0;        //!< 0 = not sharded
    std::string snapshotDir;             //!< --snapshot-dir

    /** The sweep-level containment options these flags map to. */
    SweepOptions sweepOptions() const
    {
        SweepOptions options;
        options.keepGoing = keepGoing;
        options.jobTimeoutSeconds = jobTimeout;
        options.budgetMultiplier = autoBudget;
        options.checkpointPath = resumePath;
        options.resume = !resumePath.empty();
        // Isolation stays unset here: --isolate lands in the process
        // default, so MNPU_ISOLATE and the built-in thread fallback
        // resolve inside the runner.
        options.workerMemoryBytes = workerMemoryBytes;
        options.workerCpuSeconds = workerCpuSeconds;
        options.workerRetries = workerRetries;
        options.shardIndex = shardIndex;
        options.shardCount = shardCount;
        options.snapshotDir = snapshotDir;
        options.snapshotEveryCycles = snapshot.everyCycles;
        options.snapshotEverySeconds = snapshot.everySeconds;
        options.stopToken = stopSignalToken();
        return options;
    }

    ModelScale scale() const
    {
        return full ? ModelScale::Full : ModelScale::Mini;
    }
    ArchConfig archConfig() const
    {
        return full ? ArchConfig::cloudNpu() : ArchConfig::miniNpu();
    }
};

/** Every bench's flag table, writing into @p options. */
inline std::vector<Flag>
benchFlags(BenchOptions &options)
{
    std::vector<Flag> flags = {
        Flag{"--full", "", "published model sizes + Table 2 cloud NPU",
             [&options](const std::string &) { options.full = true; }},
        Flag{"--all", "", "no mix sampling",
             [&options](const std::string &) { options.all = true; }},
        Flag{"--sample", "N", "sampled mix count (0 = all)",
             [&options](const std::string &value) {
                 options.sample = parseCount(value, /*allow_zero=*/true);
             }},
        Flag{"--quiet", "", "no progress on stderr",
             [&options](const std::string &) {
                 options.quiet = true;
                 setQuiet(true);
             }},
        Flag{"--keep-going", "", "record a failing mix and go on",
             [&options](const std::string &) { options.keepGoing = true; }},
        Flag{"--auto-budget", "K", "per-mix budget: K x median wall clock",
             [&options](const std::string &value) {
                 options.autoBudget = parsePositiveReal(value);
             }},
        Flag{"--resume", "FILE", "JSONL checkpoint to append and resume",
             [&options](const std::string &value) {
                 options.resumePath = value;
             }},
        settingFlag("--isolate", isolationSetting(),
                    "process = crash-proof forked workers"),
        Flag{"--worker-mem", "SZ", "RLIMIT_AS per worker, e.g. 2G",
             [&options](const std::string &value) {
                 options.workerMemoryBytes = ConfigFile::parseSize(value);
             }},
        Flag{"--worker-cpu", "S", "RLIMIT_CPU per worker (0 = none)",
             [&options](const std::string &value) {
                 options.workerCpuSeconds = parseCount(value, true);
             }},
        Flag{"--worker-retries", "N", "crash retries before quarantine",
             [&options](const std::string &value) {
                 options.workerRetries = parseCount(value, true);
             }},
        Flag{"--shard", "I/N", "run shard I of N (0 <= I < N, N >= 2)",
             [&options](const std::string &value) {
                 const auto slash = value.find('/');
                 if (slash == std::string::npos)
                     fatal("malformed shard '", value, "' (expected I/N)");
                 options.shardIndex =
                     parseCount(value.substr(0, slash), true);
                 options.shardCount = parseCount(value.substr(slash + 1));
                 if (options.shardCount < 2 ||
                     options.shardIndex >= options.shardCount)
                     fatal("shard '", value,
                           "' needs 0 <= I < N and N >= 2");
             }},
        Flag{"--snapshot-dir", "DIR", "in-flight snapshots as DIR/<key>.snap",
             [&options](const std::string &value) {
                 options.snapshotDir = value;
             }},
    };
    for (Flag &flag : runFlags(options))
        flags.push_back(std::move(flag));
    return flags;
}

inline BenchOptions
parseOptions(int argc, char **argv)
{
    // Benches are long-running campaigns: make ^C cancel gracefully
    // (checkpoint stays resumable; see runJobs) instead of killing
    // mid-record.
    installStopSignalHandlers();
    BenchOptions options;
    const std::vector<Flag> flags = benchFlags(options);
    try {
        if (parseFlags(argc, argv, 1, flags) != argc) {
            std::fprintf(stderr, "usage: %s [flags]\n%s", argv[0],
                         flagUsage("flags:", flags).c_str());
            std::exit(2);
        }
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        std::exit(2);
    }
    // MNPU_TRACE / MNPU_METRICS fill the paths the flags left unset;
    // resolved here (process entry), never inside the sweep, so
    // parallel jobs can't race on one output file.
    options.obs = observabilityFromEnv(options.obs);
    return options;
}

inline void
progress(const BenchOptions &options, const char *format, ...)
{
    if (options.quiet)
        return;
    va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fputc('\n', stderr);
}

/** Deterministically pick up to @p count indices spread over [0, n). */
inline std::vector<std::size_t>
sampleIndices(std::size_t n, std::size_t count)
{
    std::vector<std::size_t> picked;
    if (count == 0 || count >= n) {
        picked.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            picked[i] = i;
        return picked;
    }
    picked.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        picked.push_back(i * n / count);
    return picked;
}

/** The four contended sharing levels, Static first. */
inline const std::vector<SharingLevel> &
sharingLevels()
{
    static const std::vector<SharingLevel> levels = {
        SharingLevel::Static, SharingLevel::ShareD, SharingLevel::ShareDW,
        SharingLevel::ShareDWT};
    return levels;
}

/** Model names of a mix's indices. */
inline std::vector<std::string>
mixModels(const std::vector<std::uint32_t> &mix)
{
    std::vector<std::string> models;
    models.reserve(mix.size());
    for (auto model_index : mix)
        models.push_back(modelNames()[model_index]);
    return models;
}

/** Progress callback printing every 16th completed run. */
inline std::function<void(std::size_t, std::size_t)>
progressEvery16(const BenchOptions &options)
{
    return [&options](std::size_t done, std::size_t total) {
        if (done % 16 == 0 || done == total)
            progress(options, "  ... %zu / %zu runs", done, total);
    };
}

/** Report the runner's wall-clock / throughput line on stderr. */
inline void
reportSweepStats(const BenchOptions &options, const SweepRunner &runner)
{
    progress(options, "  sweep: %s", runner.lastStats().summary().c_str());
}

/**
 * Run @p sweep_jobs through a SweepRunner sized by --jobs, with
 * progress and a timing summary, returning outcomes in input order.
 * With --keep-going a failed mix is reported on stderr and its
 * outcome's metrics are NaN, so aggregates over it read NaN instead
 * of silently excluding it (partial sweeps are visible, not hidden).
 */
inline std::vector<MixOutcome>
runJobs(ExperimentContext &context, std::vector<SweepJob> sweep_jobs,
        const BenchOptions &options)
{
    // An integrity drill (--inject) perturbs exactly one job — the
    // first — so a --keep-going sweep demonstrates containment while
    // every other mix stays clean.
    if (options.injectPlan.site != FaultSite::None &&
        !sweep_jobs.empty()) {
        warn("injecting ", toString(options.injectPlan.site),
             " into job 0 of ", sweep_jobs.size());
        sweep_jobs.front().config.faultPlan = options.injectPlan;
    }
    // Observability outputs go to exactly one job — the first — for
    // the same reason as --inject: one file, one writer, and the rest
    // of the sweep is unperturbed (observers are passive anyway). The
    // one-time warning names every job whose export is dropped, so a
    // sweep user looking for a missing mix's trace finds the answer in
    // the log instead of a silently absent file (we deliberately do
    // NOT fan the path out per job: a 330-mix sweep would spray
    // hundreds of trace files nobody asked for).
    if (options.obs.anyEnabled() && !sweep_jobs.empty()) {
        sweep_jobs.front().config.obs = options.obs;
        if (sweep_jobs.size() > 1) {
            std::string dropped;
            const std::size_t cap = 8;
            for (std::size_t i = 1; i < sweep_jobs.size() && i <= cap;
                 ++i) {
                if (i > 1)
                    dropped += ", ";
                dropped += "job " + std::to_string(i);
                std::string label;
                for (const auto &model : sweep_jobs[i].models) {
                    if (!label.empty())
                        label += "+";
                    label += model;
                }
                if (!label.empty())
                    dropped += " (" + label + ")";
            }
            if (sweep_jobs.size() - 1 > cap)
                dropped += ", ... " +
                           std::to_string(sweep_jobs.size() - 1 - cap) +
                           " more";
            warn("observability outputs (",
                 options.obs.traceEnabled() ? options.obs.traceOutPath
                                            : options.obs.metricsOutPath,
                 ") attached to job 0 only; no exports for ", dropped);
        }
    }
    SweepRunner runner;
    auto records = runner.run(context, sweep_jobs,
                              options.sweepOptions(),
                              progressEvery16(options));
    reportSweepStats(options, runner);
    if (stopSignalRaised()) {
        // Graceful interruption: completed mixes are already in the
        // checkpoint, so a later --resume continues from here. The
        // distinct exit code lets campaign scripts tell "interrupted,
        // resumable" from a real failure.
        warn("sweep interrupted; checkpoint is resumable (exit ",
             kInterruptedExitCode, ")");
        std::exit(kInterruptedExitCode);
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].status == SweepStatus::Failed ||
            records[i].status == SweepStatus::TimedOut ||
            records[i].status == SweepStatus::Crashed) {
            warn("mix ", i, " (",
                 records[i].outcome.models.empty()
                     ? std::string("?")
                     : records[i].outcome.models[0],
                 "+...) ", toString(records[i].status), ": ",
                 records[i].error);
        }
    }
    std::vector<MixOutcome> outcomes;
    outcomes.reserve(records.size());
    for (auto &record : records)
        outcomes.push_back(std::move(record.outcome));
    return outcomes;
}

/** Results of a full k-core mix sweep across sharing levels. */
struct SweepResult
{
    // mixes[i] = model indices of mix i; outcomes[level][i].
    std::vector<std::vector<std::uint32_t>> mixes;
    std::map<SharingLevel, std::vector<MixOutcome>> outcomes;
};

/**
 * Run every (sampled) size-@p k mix of the 8 models at each sharing
 * level, fanned out over --jobs workers (page size overrides
 * etc. go through the context's mem instead).
 */
inline SweepResult
runMixSweep(ExperimentContext &context, std::uint32_t k,
            const BenchOptions &options,
            const std::vector<SharingLevel> &levels = sharingLevels())
{
    const auto &names = modelNames();
    auto mixes = enumerateMultisets(
        static_cast<std::uint32_t>(names.size()), k);
    std::vector<std::vector<std::uint32_t>> chosen;
    for (std::size_t index :
         sampleIndices(mixes.size(), options.all ? 0 : options.sample)) {
        chosen.push_back(mixes[index]);
    }

    std::vector<SweepJob> sweep_jobs;
    sweep_jobs.reserve(chosen.size() * levels.size());
    for (SharingLevel level : levels) {
        for (const auto &mix : chosen) {
            SweepJob job;
            job.config.level = level;
            job.models = mixModels(mix);
            sweep_jobs.push_back(std::move(job));
        }
    }
    auto outcomes = runJobs(context, std::move(sweep_jobs), options);

    SweepResult result;
    result.mixes = chosen;
    std::size_t cursor = 0;
    for (SharingLevel level : levels) {
        auto &level_outcomes = result.outcomes[level];
        level_outcomes.reserve(chosen.size());
        for (std::size_t i = 0; i < chosen.size(); ++i)
            level_outcomes.push_back(std::move(outcomes[cursor++]));
    }
    return result;
}

/** Mix label like "alex+yt". */
inline std::string
mixLabel(const std::vector<std::uint32_t> &mix)
{
    std::string label;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        if (i)
            label += "+";
        label += modelNames()[mix[i]];
    }
    return label;
}

inline void
printHeader(const char *title, const BenchOptions &options)
{
    std::printf("=== %s ===\n", title);
    std::printf("scale: %s models, %s\n",
                options.full ? "full" : "mini",
                options.full ? "cloud NPU (Table 2)" : "mini NPU profile");
}

} // namespace mnpu::bench

#endif // MNPU_BENCH_BENCH_COMMON_HH
