/**
 * @file
 * Parallel mix-sweep runner with per-job fault containment. The
 * paper's evaluation is embarrassingly parallel — every workload mix
 * is an independent MultiCoreSystem::run() — so SweepRunner fans a
 * list of SweepJobs out over a ThreadPool and returns the outcomes in
 * deterministic input order regardless of which worker finished first.
 *
 * Fault isolation: a single pathological mix (bad config, deadlock,
 * cycle-budget blowout, livelock) must not take down a multi-hour
 * campaign. With SweepOptions::keepGoing each job's failure is
 * recorded in its SweepRecord (status + message) and every other mix
 * still completes bit-identically to a clean run. A per-job watchdog
 * budget — explicit (jobTimeoutSeconds, or the config's own
 * maxGlobalCycles) or adaptive (budgetMultiplier x the median wall
 * clock of completed jobs) — times a livelocked mix out cooperatively.
 *
 * One job lifecycle serves both isolation modes, which differ only in
 * where an attempt runs (a pool thread, or a forked ProcessPool
 * child): one attempt step builds the RunBudget, runs the mix and maps
 * its error to a status; one escalation rule gives an adaptive
 * wall-clock timeout on attempt 1 a single retry at double the budget
 * (a cycle-budget timeout is final); one settle step checkpoints the
 * verdict (never a cancellation) and counts the job done; one
 * fail-fast pass surfaces the first failure in input order.
 *
 * Crash safety: with SweepOptions::checkpointPath every completed job
 * is appended to a JSONL checkpoint (single write + flush per record),
 * and with resume=true jobs whose config+models key is already
 * checkpointed ok come back as status Skipped with their metrics —
 * derived figures and raw telemetry counters alike — restored
 * bit-identically, so a killed sweep re-executes only the unfinished
 * jobs and benches that aggregate raw counters print the same numbers
 * either way. loadSweepCheckpoint() leaves out ok records of a
 * pre-telemetry checkpoint format (with a warning), so their jobs are
 * re-executed, never restored incompletely.
 *
 * Determinism: each job builds its own MultiCoreSystem from the
 * context's immutable cached traces, so per-mix metrics are
 * bit-identical to a serial run (tests/test_sweep_runner.cc asserts
 * this). The only shared mutable state is the context's once-computed
 * trace/Ideal caches; runner.run() pre-warms them so the parallel
 * phase is read-only.
 *
 * Timing: every record carries the wall-clock seconds of its own run,
 * and lastStats() reports the end-to-end wall clock plus aggregate
 * throughput and per-status counts, which makes both the parallel
 * speedup and a partial sweep's health directly observable in the
 * bench output.
 */

#ifndef MNPU_ANALYSIS_SWEEP_RUNNER_HH
#define MNPU_ANALYSIS_SWEEP_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/process_pool.hh"
#include "analysis/sweep_checkpoint.hh"
#include "common/thread_pool.hh"
#include "sim/system_config.hh"

namespace mnpu
{

/** One independent unit of a sweep: a model mix co-run under a config. */
struct SweepJob
{
    SystemConfig config;
    std::vector<std::string> models;
};

/**
 * Stable identity of a job for checkpoint/resume: an FNV-1a hash over
 * the canonical serialization of everything that shapes the simulated
 * outcome — the job's SystemConfig and model list plus the context's
 * effective configuration (@p arch including dataflow, @p mem with
 * the full DRAM timing including row policy, and the model @p scale).
 * Two jobs collide only if they would simulate the same thing, so
 * sweeps over different contexts can safely share one checkpoint
 * file.
 */
std::string sweepJobKey(const SweepJob &job, const ArchConfig &arch,
                        const NpuMemConfig &mem, ModelScale scale);

/**
 * Deterministic shard assignment for distributed campaigns: the
 * 16-hex sweep key parsed as a uint64, modulo @p shardCount. Every
 * host computes the same partition from the job list alone — no
 * coordinator — so N hosts running `--shard i/N` against private
 * checkpoint files cover each job exactly once, and a
 * merge_checkpoints union of the shards resumes as one campaign.
 */
std::uint32_t shardOfSweepKey(const std::string &key,
                              std::uint32_t shardCount);

/** Outcome of one job plus its own wall-clock cost and status. */
struct SweepRecord
{
    MixOutcome outcome;
    double wallSeconds = 0;
    SweepStatus status = SweepStatus::Ok;
    std::string error;          //!< failure message, empty when ok
    std::uint32_t attempts = 1; //!< > 1 when an escalated retry ran
};

/**
 * Flatten one job outcome into its checkpoint form (the full v2
 * telemetry snapshot). Shared by the sweep checkpoint writer and the
 * golden-trace fixtures, which are exactly these records with the
 * wall clock zeroed.
 */
SweepCheckpointRecord checkpointRecordOf(const std::string &key,
                                         const SweepRecord &record);

/** Failure-containment and recovery knobs for one run(). */
struct SweepOptions
{
    /**
     * Contain per-job failures: record status + message and keep
     * going. When false (the default), every record is still filled
     * in, but the first failing job's exception (in input order) is
     * rethrown after the sweep drains.
     */
    bool keepGoing = false;

    /** Explicit per-job wall-clock budget in seconds (0 = none). A
     * per-job cycle cap is SystemConfig::maxGlobalCycles. */
    double jobTimeoutSeconds = 0;

    /**
     * Adaptive watchdog: once >= 3 jobs completed, each remaining job
     * gets a wall budget of budgetMultiplier x the median completed
     * wall clock (floored at 0.25 s). A wall-clock timeout gets one
     * retry at double the budget before it is recorded as permanent;
     * a cycle-budget timeout is final at once. 0 disables. Ignored
     * when jobTimeoutSeconds is set (explicit budgets are hard and
     * not retried).
     */
    double budgetMultiplier = 0;

    /**
     * JSONL checkpoint file: every executed job is appended on
     * completion (ok or not). Empty disables checkpointing.
     */
    std::string checkpointPath;

    /**
     * Skip jobs already checkpointed ok in checkpointPath; their
     * records come back as status Skipped with metrics restored from
     * the checkpoint. Previously failed/timed-out jobs re-execute.
     */
    bool resume = false;

    /**
     * External cooperative stop: raising the token cancels in-flight
     * simulations at their next watchdog check and marks jobs that
     * did not complete as Skipped ("cancelled"); they are not
     * checkpointed, so a later resume re-runs them. In process mode
     * the supervisor additionally forwards SIGTERM to live workers.
     */
    const std::atomic<bool> *stopToken = nullptr;

    /**
     * Worker isolation: Thread (default) fans jobs out over in-process
     * threads; Process forks one single-job worker per attempt so a
     * crash (SIGSEGV, abort, rlimit kill, hard livelock) quarantines
     * that job as SweepStatus::Crashed instead of killing the
     * campaign. Unset resolves via isolationSetting() (--isolate
     * / MNPU_ISOLATE / Thread). Thread- and process-mode runs of a
     * healthy sweep are bit-identical.
     */
    std::optional<IsolationMode> isolation;

    /** Crash retries per job before quarantine (process mode). */
    std::uint32_t workerRetries = 2;

    /** First crash-retry backoff; doubles per crash, capped at 2 s. */
    double workerBackoffSeconds = 0.05;

    /** RLIMIT_AS per worker in bytes (0 = unlimited; ignored under
     * sanitizer builds and in thread mode). */
    std::uint64_t workerMemoryBytes = 0;

    /** RLIMIT_CPU per worker in seconds (0 = unlimited). */
    std::uint32_t workerCpuSeconds = 0;

    /**
     * Deterministic campaign sharding: with shardCount > 1, only jobs
     * whose shardOfSweepKey(key, shardCount) == shardIndex execute;
     * the rest come back as Skipped ("sharded out"), never
     * checkpointed. Each shard should write its own checkpoint file;
     * merge_checkpoints unions them for a final --resume.
     */
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 0; //!< 0 or 1 = no sharding

    /**
     * Durable in-flight snapshots (DESIGN.md §12): when non-empty,
     * each job writes its snapshot to `<snapshotDir>/<key>.snap` on
     * the cadence below, and a retried or resumed job restores from
     * its latest valid snapshot instead of restarting from cycle
     * zero (bit-identically — snapshot writes are passive, so the
     * cadence is excluded from sweepJobKey). A corrupt or stale
     * snapshot is rejected by checksum/version and the job falls back
     * to a from-scratch run. Snapshots are removed when their job
     * completes, so they never outlive the checkpoint record.
     */
    std::string snapshotDir;
    Cycle snapshotEveryCycles = 0;   //!< 0 = no cycle cadence
    double snapshotEverySeconds = 0; //!< 0 = no wall cadence
};

/** Aggregate timing + outcome counts of the last SweepRunner::run(). */
struct SweepStats
{
    std::size_t workers = 0;
    std::size_t runs = 0;      //!< total records (executed + skipped)
    std::size_t executed = 0;  //!< attempted: ok+failed+timedOut+crashed
    double wallSeconds = 0;    //!< end-to-end, including pre-warm
    double jobSecondsSum = 0;  //!< sum of per-job wall clocks
    double runsPerSecond = 0;  //!< executed / wallSeconds (restored
                               //!< jobs don't inflate throughput)

    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timedOut = 0;
    std::size_t skipped = 0; //!< restored, cancelled, or sharded out
    std::size_t retried = 0; //!< jobs that needed more than one attempt
    std::size_t crashed = 0; //!< quarantined after worker crashes

    /** Total hard worker deaths observed (including ones that a retry
     * later recovered) and the total backoff slept between retries —
     * both zero in thread mode. */
    std::size_t workerCrashes = 0;
    double workerBackoffSeconds = 0;

    /**
     * Aggregate telemetry over every record that carries data (ok +
     * restored): sums of the per-mix snapshots, so a campaign's total
     * simulated work is visible without re-walking the records.
     */
    std::uint64_t totalGlobalCycles = 0;
    std::uint64_t totalTrafficBytes = 0;
    std::uint64_t totalWalkBytes = 0;
    std::uint64_t totalTlbMisses = 0;
    std::uint64_t totalWalks = 0;
    double totalDramEnergyPj = 0;

    /** One-line human-readable summary. */
    std::string summary() const;

    /** One-line aggregate-telemetry summary (sums over ok+restored). */
    std::string telemetrySummary() const;
};

class SweepRunner
{
  public:
    /** @param jobs worker count; 0 means jobsSetting(). */
    explicit SweepRunner(std::size_t jobs = 0);

    std::size_t workers() const { return pool_.jobs(); }

    /**
     * Run all @p jobs against @p context; records come back in input
     * order. @p progress (optional) is invoked under a lock as
     * progress(done, total) each time a job completes (jobs restored
     * from a checkpoint count as already done).
     */
    std::vector<SweepRecord>
    run(ExperimentContext &context, const std::vector<SweepJob> &jobs,
        const SweepOptions &options,
        const std::function<void(std::size_t, std::size_t)> &progress =
            nullptr);

    /** Back-compat overload: default options (fail-fast, no budget). */
    std::vector<SweepRecord>
    run(ExperimentContext &context, const std::vector<SweepJob> &jobs,
        const std::function<void(std::size_t, std::size_t)> &progress =
            nullptr)
    {
        return run(context, jobs, SweepOptions{}, progress);
    }

    /**
     * Generic deterministic-order parallel map: results[i] = fn(i).
     * For sweep shapes that don't fit SweepJob (per-point contexts,
     * Ideal-only sweeps, ...). R must be default-constructible.
     */
    template <typename R>
    std::vector<R> map(std::size_t count,
                       const std::function<R(std::size_t)> &fn)
    {
        std::vector<R> results(count);
        pool_.parallelFor(count, [&](std::size_t index) {
            results[index] = fn(index);
        });
        return results;
    }

    const SweepStats &lastStats() const { return stats_; }

  private:
    ThreadPool pool_;
    SweepStats stats_;
};

} // namespace mnpu

#endif // MNPU_ANALYSIS_SWEEP_RUNNER_HH
