#include "analysis/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "common/errors.hh"
#include "common/logging.hh"

namespace mnpu
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/** FNV-1a 64-bit over an incrementally fed canonical serialization. */
class JobHasher
{
  public:
    void feed(const std::string &text)
    {
        for (char c : text)
            mix(static_cast<unsigned char>(c));
        mix(0x1f); // field separator so "ab"+"c" != "a"+"bc"
    }

    template <typename T>
    void feedInt(T value)
    {
        feed(std::to_string(value));
    }

    void feedDouble(double value)
    {
        // 17 significant digits round-trip any double exactly;
        // std::to_string's fixed 6 decimals would alias close values.
        std::ostringstream stream;
        stream.precision(17);
        stream << value;
        feed(stream.str());
    }

    template <typename T>
    void feedVector(const std::optional<std::vector<T>> &values)
    {
        if (!values) {
            feed("-");
            return;
        }
        for (T value : *values)
            feedInt(value);
        feed(";");
    }

    std::string hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        std::uint64_t value = hash_;
        for (int i = 15; i >= 0; --i) {
            out[static_cast<std::size_t>(i)] = digits[value & 0xf];
            value >>= 4;
        }
        return out;
    }

  private:
    void mix(unsigned char byte)
    {
        hash_ ^= byte;
        hash_ *= 0x100000001b3ULL;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** A failed job's outcome: models kept, metrics poisoned with NaN so
 * downstream aggregation yields NaN instead of crashing or lying. */
MixOutcome
failedOutcome(const std::vector<std::string> &models)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    MixOutcome outcome;
    outcome.models = models;
    outcome.speedups.assign(models.size(), nan);
    outcome.slowdowns.assign(models.size(), nan);
    outcome.geomeanSpeedup = nan;
    outcome.fairnessValue = nan;
    return outcome;
}

/**
 * Fail-fast surfacing of a failure that happened in a worker process:
 * the original exception died with the worker, so rebuild the typed
 * SimulationError from the record's "<kind>: <message>" error string
 * (a crash quarantine reads "worker-crash: <detail>" and lands on
 * SimErrorKind::WorkerCrash); anything unrecognized was a FatalError.
 */
[[noreturn]] void
rethrowRecordError(const SweepRecord &record)
{
    for (SimErrorKind kind :
         {SimErrorKind::Deadlock, SimErrorKind::CycleBudget,
          SimErrorKind::WallClockTimeout, SimErrorKind::Cancelled,
          SimErrorKind::ProtocolViolation,
          SimErrorKind::RequestLifecycle, SimErrorKind::MmuConsistency,
          SimErrorKind::WorkerCrash}) {
        const std::string prefix = std::string(toString(kind)) + ": ";
        if (record.error.rfind(prefix, 0) == 0)
            throw SimulationError(kind,
                                  record.error.substr(prefix.size()));
    }
    throw FatalError(record.error);
}

/** Rebuild a full MixOutcome — raw telemetry included — from a (v2+)
 * checkpoint record, bit-identical to the executed one. */
MixOutcome
restoredOutcome(const SweepCheckpointRecord &checkpoint)
{
    MixOutcome outcome;
    outcome.models = checkpoint.models;
    outcome.speedups = checkpoint.speedups;
    outcome.slowdowns = checkpoint.slowdowns;
    outcome.geomeanSpeedup = checkpoint.geomeanSpeedup;
    outcome.fairnessValue = checkpoint.fairnessValue;
    outcome.raw.globalCycles = checkpoint.globalCycles;
    outcome.raw.dramEnergyPj = checkpoint.dramEnergyPj;
    outcome.raw.dramRowHits = checkpoint.dramRowHits;
    outcome.raw.dramRowMisses = checkpoint.dramRowMisses;
    outcome.raw.cores.resize(checkpoint.localCycles.size());
    for (std::size_t i = 0; i < outcome.raw.cores.size(); ++i) {
        CoreResult &core = outcome.raw.cores[i];
        if (i < checkpoint.models.size())
            core.workloadName = checkpoint.models[i];
        core.localCycles = checkpoint.localCycles[i];
        if (i < checkpoint.finishedAtGlobal.size())
            core.finishedAtGlobal = checkpoint.finishedAtGlobal[i];
        if (i < checkpoint.peUtilization.size())
            core.peUtilization = checkpoint.peUtilization[i];
        if (i < checkpoint.trafficBytes.size())
            core.trafficBytes = checkpoint.trafficBytes[i];
        if (i < checkpoint.walkBytes.size())
            core.walkBytes = checkpoint.walkBytes[i];
        if (i < checkpoint.tlbHits.size())
            core.tlbHits = checkpoint.tlbHits[i];
        if (i < checkpoint.tlbMisses.size())
            core.tlbMisses = checkpoint.tlbMisses[i];
        if (i < checkpoint.walks.size())
            core.walks = checkpoint.walks[i];
        if (i < checkpoint.layerFinishLocal.size())
            core.layerFinishLocal = checkpoint.layerFinishLocal[i];
    }
    // The live components are gone, so rebuild the checkpoint-stable
    // subset of the telemetry snapshot from the restored scalars; an
    // executed run's full snapshot agrees with it metric-for-metric.
    outcome.raw.telemetry = telemetryFromResult(outcome.raw);
    if (checkpoint.serving) {
        // Serving jobs append the serving.* schema after the scalar
        // subset — same order as the engine, so restored telemetry
        // stays bit-identical to executed telemetry.
        outcome.serving = checkpoint.serving;
        appendServingMetrics(outcome.raw.telemetry, *outcome.serving);
    }
    return outcome;
}

} // namespace

SweepCheckpointRecord
checkpointRecordOf(const std::string &key, const SweepRecord &record)
{
    SweepCheckpointRecord checkpoint;
    checkpoint.key = key;
    checkpoint.status = record.status;
    checkpoint.error = record.error;
    checkpoint.wallSeconds = record.wallSeconds;
    checkpoint.models = record.outcome.models;
    checkpoint.speedups = record.outcome.speedups;
    checkpoint.slowdowns = record.outcome.slowdowns;
    checkpoint.geomeanSpeedup = record.outcome.geomeanSpeedup;
    checkpoint.fairnessValue = record.outcome.fairnessValue;
    const SimResult &raw = record.outcome.raw;
    checkpoint.globalCycles = raw.globalCycles;
    checkpoint.dramEnergyPj = raw.dramEnergyPj;
    checkpoint.dramRowHits = raw.dramRowHits;
    checkpoint.dramRowMisses = raw.dramRowMisses;
    checkpoint.localCycles.reserve(raw.cores.size());
    for (const auto &core : raw.cores) {
        checkpoint.localCycles.push_back(core.localCycles);
        checkpoint.finishedAtGlobal.push_back(core.finishedAtGlobal);
        checkpoint.peUtilization.push_back(core.peUtilization);
        checkpoint.trafficBytes.push_back(core.trafficBytes);
        checkpoint.walkBytes.push_back(core.walkBytes);
        checkpoint.tlbHits.push_back(core.tlbHits);
        checkpoint.tlbMisses.push_back(core.tlbMisses);
        checkpoint.walks.push_back(core.walks);
        checkpoint.layerFinishLocal.push_back(core.layerFinishLocal);
    }
    checkpoint.serving = record.outcome.serving;
    return checkpoint;
}

std::string
sweepJobKey(const SweepJob &job, const ArchConfig &arch,
            const NpuMemConfig &mem, ModelScale scale)
{
    // Everything that shapes the simulated outcome feeds the key.
    // A field left out here silently aliases two different sweeps in
    // one checkpoint file — the row-policy ablation's second sweep
    // once restored the first sweep's records exactly this way — so
    // over-include rather than under-include.
    JobHasher hasher;
    const SystemConfig &config = job.config;
    hasher.feed(toString(config.level));
    hasher.feedInt(config.idealResourceMultiplier);
    hasher.feedVector(config.dramBandwidthShares);
    hasher.feedVector(config.ptwQuota);
    hasher.feedVector(config.ptwMin);
    hasher.feedVector(config.ptwMax);
    hasher.feedInt(config.ptwStealing ? 1 : 0);
    hasher.feedInt(config.telemetryWindow);
    hasher.feedInt(config.requestTraceWindow);
    hasher.feedInt(config.maxGlobalCycles);
    // An injected fault changes the outcome, so it feeds the key —
    // but only when armed *and* simulation-perturbing, so plain
    // sweeps keep their historical keys and the Worker* drill sites
    // (which crash the process, not the simulation) share clean
    // records. checkLevel is intentionally excluded: checkers are
    // passive observers and a run is bit-identical at every level.
    // Isolation mode and sharding are excluded too: they decide where
    // and whether a job runs, never what it computes.
    if (perturbsSimulation(config.faultPlan.site)) {
        hasher.feed("inject");
        hasher.feedInt(static_cast<int>(config.faultPlan.site));
        hasher.feedInt(config.faultPlan.triggerCount);
        hasher.feedInt(config.faultPlan.delayCycles);
    }
    // Fidelity is NOT passive — fast changes cycle counts within the
    // committed envelope — so it feeds the key when (and only when)
    // the run would actually resolve to fast. Feeding the *resolved*
    // kind (same fallback MultiCoreSystem applies: an armed injector
    // or any check level forces exact) rather than the requested one
    // keeps a fast-keyed record from ever holding exact-fallback
    // results; exact runs keep their historical keys.
    const MemBackendKind backend =
        memBackendSetting().effective(mem.backend);
    if (resolvedFidelityKind(config.fidelity,
                             perturbsSimulation(config.faultPlan.site),
                             checkLevelSetting().effective(
                                 config.checkLevel)) ==
            FidelityKind::Fast &&
        backend != MemBackendKind::Tiered) {
        // Tiered backends force exact (mirrors MultiCoreSystem), so a
        // tiered job never takes the fast-keyed branch.
        hasher.feed("fidelity-fast");
    }
    // The context's arch: dataflow and array/SPM geometry change
    // every trace.
    hasher.feed(arch.name);
    hasher.feedInt(arch.arrayRows);
    hasher.feedInt(arch.arrayCols);
    hasher.feedInt(arch.spmBytes);
    hasher.feedInt(arch.dataBytes);
    hasher.feedInt(arch.freqMhz);
    hasher.feedInt(static_cast<int>(arch.dataflow));
    hasher.feedInt(arch.dmaIssueWidth);
    hasher.feedInt(arch.dmaMaxOutstanding);
    hasher.feedInt(arch.busBytes);
    // The context overwrites config.mem, so hash the effective one —
    // with the complete DRAM timing (row policy, geometry, latencies,
    // energy), not just a summary.
    const DramTiming &timing = mem.timing;
    hasher.feed(timing.name);
    hasher.feedInt(static_cast<int>(timing.rowPolicy));
    hasher.feedInt(timing.ranks);
    hasher.feedInt(timing.bankGroups);
    hasher.feedInt(timing.banksPerGroup);
    hasher.feedInt(timing.rows);
    hasher.feedInt(timing.rowBytes);
    hasher.feedInt(timing.busBytes);
    hasher.feedInt(timing.burstLength);
    hasher.feedInt(timing.clockMhz);
    for (std::uint32_t cycles :
         {timing.tCL, timing.tCWL, timing.tRCD, timing.tRP,
          timing.tRAS, timing.tWR, timing.tRTP, timing.tCCD,
          timing.tRRD, timing.tFAW, timing.tWTR, timing.tRTW,
          timing.tREFI, timing.tRFC})
        hasher.feedInt(cycles);
    for (double energy :
         {timing.eActPrePj, timing.eReadPj, timing.eWritePj,
          timing.eRefreshPj, timing.backgroundMw})
        hasher.feedDouble(energy);
    hasher.feedInt(mem.channelsPerNpu);
    hasher.feedInt(mem.dramCapacityPerNpu);
    hasher.feedInt(mem.tlbEntriesPerNpu);
    hasher.feedInt(mem.tlbWays);
    hasher.feedInt(mem.ptwPerNpu);
    hasher.feedInt(mem.pageBytes);
    hasher.feedInt(mem.dramQueueDepth);
    hasher.feedInt(mem.translationEnabled ? 1 : 0);
    // Memory backend and fabric: the default (plain DRAM, no fabric)
    // feeds nothing so historical checkpoints keep their keys; any
    // other backend kind or an enabled XBar changes the simulated
    // outcome and must fork the key, knobs included.
    if (backend != MemBackendKind::Dram) {
        hasher.feed("backend");
        hasher.feed(toString(backend));
        hasher.feedInt(mem.pcm.cacheLines);
        hasher.feedInt(mem.pcm.cacheHitLatency);
        hasher.feedInt(mem.pcm.writeCommitCycles);
        hasher.feedInt(mem.pcm.hitQueueDepth);
    }
    if (mem.fabric.enabled) {
        hasher.feed("fabric");
        hasher.feedInt(mem.fabric.ports);
        hasher.feedInt(mem.fabric.queueDepth);
        hasher.feedInt(mem.fabric.widthBytes);
        hasher.feedInt(mem.fabric.latencyCycles);
    }
    hasher.feedInt(static_cast<int>(scale));
    // Serving mode: every ServingConfig field is simulation-visible
    // (arrival schedule, request shapes, admission order), so the
    // whole struct feeds the key — leaving one out would alias two
    // different offered-load points in one checkpoint file. Batch jobs
    // feed nothing here, keeping their historical keys.
    if (config.serving) {
        const ServingConfig &serving = *config.serving;
        hasher.feed("serving");
        hasher.feedInt(serving.seed);
        hasher.feedDouble(serving.poissonRatePerMcycle);
        hasher.feed(serving.arrivalTrace);
        hasher.feedInt(serving.numRequests);
        hasher.feedInt(serving.meanPromptTokens);
        hasher.feedInt(serving.meanDecodeTokens);
        hasher.feedInt(serving.maxBatchPerCore);
        hasher.feedInt(serving.ttftSloCycles);
        hasher.feedInt(serving.tpotSloCycles);
    }
    for (const auto &model : job.models)
        hasher.feed(model);
    return hasher.hex();
}

std::uint32_t
shardOfSweepKey(const std::string &key, std::uint32_t shardCount)
{
    if (shardCount <= 1)
        return 0;
    // The key is FNV-1a output rendered as 16 hex digits: already
    // uniformly mixed, so a plain modulus partitions evenly.
    const std::uint64_t value = std::strtoull(key.c_str(), nullptr, 16);
    return static_cast<std::uint32_t>(value % shardCount);
}

std::string
SweepStats::summary() const
{
    std::ostringstream stream;
    stream.precision(2);
    stream << std::fixed << runs << " runs";
    if (executed != runs)
        stream << " (" << executed << " executed)";
    stream << " in " << wallSeconds << " s on " << workers << " worker"
           << (workers == 1 ? "" : "s") << " (" << runsPerSecond
           << " runs/s executed; per-run sum " << jobSecondsSum
           << " s)";
    if (failed || timedOut || skipped || retried || crashed) {
        stream << " [" << ok << " ok";
        if (failed)
            stream << ", " << failed << " failed";
        if (timedOut)
            stream << ", " << timedOut << " timed out";
        if (skipped)
            stream << ", " << skipped << " skipped";
        if (crashed)
            stream << ", " << crashed << " crashed";
        if (retried)
            stream << ", " << retried << " retried";
        stream << "]";
    }
    if (workerCrashes) {
        stream << " {" << workerCrashes << " worker crash"
               << (workerCrashes == 1 ? "" : "es") << ", "
               << workerBackoffSeconds << " s backoff}";
    }
    return stream.str();
}

std::string
SweepStats::telemetrySummary() const
{
    std::ostringstream stream;
    stream.precision(3);
    stream << "simulated " << totalGlobalCycles << " global cycles, "
           << static_cast<double>(totalTrafficBytes) / (1 << 20)
           << " MiB DRAM traffic ("
           << static_cast<double>(totalWalkBytes) / (1 << 20)
           << " MiB walks), " << totalTlbMisses << " TLB misses, "
           << totalWalks << " walks, "
           << totalDramEnergyPj / 1e9 << " mJ DRAM energy";
    return stream.str();
}

SweepRunner::SweepRunner(std::size_t jobs) : pool_(jobs) {}

std::vector<SweepRecord>
SweepRunner::run(
    ExperimentContext &context, const std::vector<SweepJob> &jobs,
    const SweepOptions &options,
    const std::function<void(std::size_t, std::size_t)> &progress)
{
    const auto start = SteadyClock::now();
    const bool checkpointing = !options.checkpointPath.empty();
    const bool explicit_budget = options.jobTimeoutSeconds > 0;
    const bool adaptive_budget =
        !explicit_budget && options.budgetMultiplier > 0;
    const bool sharding = options.shardCount > 1;
    if (sharding && options.shardIndex >= options.shardCount)
        fatal("sweep shard index ", options.shardIndex,
              " out of range for ", options.shardCount, " shards");
    const IsolationMode isolation =
        isolationSetting().effective(options.isolation);

    // --- Resume: restore jobs already checkpointed ok. ---
    // Keys feed checkpointing, resume, sharding, and the process-mode
    // wire records (whose "key" field is mandatory).
    std::vector<std::string> keys;
    if (checkpointing || options.resume || sharding ||
        isolation == IsolationMode::Process ||
        !options.snapshotDir.empty()) {
        keys.reserve(jobs.size());
        for (const auto &job : jobs)
            keys.push_back(sweepJobKey(job, context.arch(),
                                       context.mem(), context.scale()));
    }
    std::map<std::string, SweepCheckpointRecord> completed;
    if (options.resume && checkpointing)
        completed = loadSweepCheckpoint(options.checkpointPath);

    std::vector<SweepRecord> records(jobs.size());
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t index = 0; index < jobs.size(); ++index) {
        if (sharding && shardOfSweepKey(keys[index],
                                        options.shardCount) !=
                            options.shardIndex) {
            // Another host's job: skip without touching the
            // checkpoint, so a shard file only ever holds this
            // shard's records and the merged union is conflict-free.
            records[index].status = SweepStatus::Skipped;
            records[index].error = detail::concat(
                "sharded out (key belongs to shard ",
                shardOfSweepKey(keys[index], options.shardCount), "/",
                options.shardCount, ")");
            records[index].outcome = failedOutcome(jobs[index].models);
            continue;
        }
        auto it = completed.empty() ? completed.end()
                                    : completed.find(keys[index]);
        if (it != completed.end() &&
            it->second.status == SweepStatus::Ok) {
            records[index].status = SweepStatus::Skipped;
            records[index].outcome = restoredOutcome(it->second);
            records[index].wallSeconds = 0;
        } else {
            pending.push_back(index);
        }
    }

    std::unique_ptr<SweepCheckpointWriter> writer;
    if (checkpointing)
        writer = std::make_unique<SweepCheckpointWriter>(
            options.checkpointPath);

    const bool stopped_already =
        options.stopToken &&
        options.stopToken->load(std::memory_order_relaxed);

    // Pre-warm the shared caches: every distinct trace and Ideal
    // baseline is computed exactly once here (in parallel across
    // distinct keys), so the mix phase below touches them read-only.
    // Failures are deliberately ignored: a job whose model cannot be
    // built hits the same error again in its own runMix(), where it is
    // contained (or rethrown) per job instead of killing the sweep.
    if (!stopped_already) {
        std::vector<std::pair<std::string, std::uint32_t>> baselines;
        {
            std::set<std::pair<std::string, std::uint32_t>> unique;
            for (std::size_t index : pending) {
                const auto &job = jobs[index];
                // Serving jobs have no Ideal baseline (their outcome
                // is the SLO summary, not a speedup) and their per-
                // round networks are built inside the engine, so
                // there is nothing to pre-warm.
                if (job.config.serving)
                    continue;
                const auto multiplier =
                    static_cast<std::uint32_t>(job.models.size());
                for (const auto &model : job.models)
                    unique.emplace(model, multiplier);
            }
            baselines.assign(unique.begin(), unique.end());
        }
        pool_.parallelForCollect(
            baselines.size(), [&](std::size_t index) {
                context.idealCycles(baselines[index].first,
                                    baselines[index].second);
            });
    }

    // --- The contained parallel phase: one job lifecycle (attempt,
    // escalate, settle) for both isolation modes, which differ only in
    // where an attempt runs — a pool thread or a forked child. ---
    std::mutex controlMutex; //!< guards done counter + completed times
    std::size_t done = jobs.size() - pending.size();
    std::vector<double> completedTimes;

    // An attempt's wall budget: explicit, or adaptive once >= 3 jobs
    // completed; a retry gets double the adaptive budget.
    auto wallBudgetFor = [&](std::size_t, std::uint32_t attempt) {
        if (!adaptive_budget)
            return explicit_budget ? options.jobTimeoutSeconds : 0;
        std::lock_guard<std::mutex> lock(controlMutex);
        if (completedTimes.size() < 3)
            return 0.0; // not enough signal yet: unlimited
        std::vector<double> times = completedTimes;
        auto mid = times.begin() +
                   static_cast<std::ptrdiff_t>(times.size() / 2);
        std::nth_element(times.begin(), mid, times.end());
        const double budget =
            std::max(options.budgetMultiplier * *mid, 0.25);
        return attempt > 1 ? 2 * budget : budget;
    };

    // One escalating-budget retry of an adaptive wall-clock timeout on
    // the first attempt: the median can undershoot genuinely heavy
    // mixes. A cycle-budget timeout is final — it would hit the same
    // cap again.
    auto escalates = [&](std::uint32_t attempt, SweepStatus status,
                         const std::string &error) {
        return adaptive_budget && attempt == 1 &&
               status == SweepStatus::TimedOut &&
               error.rfind(toString(SimErrorKind::WallClockTimeout), 0) ==
                   0;
    };

    // One attempt of job @p index: fills the record's status, error,
    // outcome and wall clock, and returns the caught exception (null
    // when ok).
    auto attemptJob = [&](std::size_t index, std::uint32_t attempt,
                          double wall_budget,
                          SweepRecord &record) -> std::exception_ptr {
        const SweepJob &job = jobs[index];
        // Worker* and snapshot drill plans never reach the simulation:
        // they must not force the exact-fidelity fallback an armed
        // injector implies.
        SystemConfig config = job.config;
        if (!perturbsSimulation(config.faultPlan.site))
            config.faultPlan = FaultPlan{};
        const auto attempt_start = SteadyClock::now();
        RunBudget budget;
        budget.wallClockSeconds = wall_budget;
        if (!options.snapshotDir.empty()) {
            // Per-job durable snapshot (DESIGN.md §12), keyed like the
            // checkpoint so a retried or resumed job finds its own
            // file. The cadence never feeds sweepJobKey — snapshot
            // writes are passive.
            budget.snapshot.path =
                options.snapshotDir + "/" + keys[index] + ".snap";
            budget.snapshot.everyCycles = options.snapshotEveryCycles;
            budget.snapshot.everySeconds = options.snapshotEverySeconds;
        }
        if (isolation == IsolationMode::Process) {
            // Liveness: the run loop beats into the scratch file so
            // the supervisor's lease extends while the job computes.
            // The parent's stop token is a fork-time copy that never
            // updates; the supervisor cancels via SIGTERM instead.
            budget.heartbeat = processPoolHeartbeat;
            if (budget.snapshot.enabled() && attempt == 1) {
                // Snapshot drills SIGKILL the process, so they fire
                // only in a forked child, and on the first attempt
                // only, so the retry proves the recovery path: kill →
                // resume from the snapshot; corrupt → checksum
                // rejection → from-scratch fallback. The supervisor
                // contains both as an ordinary crash retry, never a
                // quarantine.
                const FaultPlan &drill = job.config.faultPlan;
                if (drill.site == FaultSite::SnapshotKill)
                    budget.snapshot.killNth = drill.triggerCount;
                if (drill.site == FaultSite::SnapshotCorrupt)
                    budget.snapshot.corruptNth = drill.triggerCount;
            }
        } else {
            budget.stopToken = options.stopToken;
        }
        std::exception_ptr failure;
        try {
            record.outcome = context.runMix(config, job.models, budget);
            record.status = SweepStatus::Ok;
            record.error.clear();
        } catch (const SimulationError &error) {
            // A cancelled job is Skipped, never checkpointed: a later
            // resume re-runs it.
            record.status = error.kind() == SimErrorKind::Cancelled
                                ? SweepStatus::Skipped
                            : error.isBudget() ? SweepStatus::TimedOut
                                               : SweepStatus::Failed;
            record.error = detail::concat(toString(error.kind()), ": ",
                                          error.what());
            failure = std::current_exception();
        } catch (const std::exception &error) {
            record.status = SweepStatus::Failed;
            record.error = error.what();
            failure = std::current_exception();
        }
        if (failure)
            record.outcome = failedOutcome(job.models);
        record.wallSeconds = secondsSince(attempt_start);
        return failure;
    };

    // Settle a finished job: checkpoint it unless it was cancelled,
    // then count it done. @p wire, when given, is the worker's own
    // checkpoint line for the record, appended as is.
    auto settle = [&](std::size_t index,
                      const SweepCheckpointRecord *wire) {
        const SweepRecord &record = records[index];
        if (writer && record.status != SweepStatus::Skipped) {
            if (wire)
                writer->append(*wire);
            else
                writer->append(checkpointRecordOf(keys[index], record));
        }
        std::lock_guard<std::mutex> lock(controlMutex);
        if (record.status == SweepStatus::Ok)
            completedTimes.push_back(record.wallSeconds);
        if (progress)
            progress(++done, jobs.size());
    };

    std::vector<std::exception_ptr> failures; //!< thread mode, by pending
    std::size_t worker_crash_total = 0;
    double worker_backoff_total = 0;

    if (isolation == IsolationMode::Process && !pending.empty()) {
        // --- Process isolation: each attempt is a forked single-job
        // worker; the supervisor survives anything the job does. ---
        ProcessPoolOptions poolOptions;
        poolOptions.workers = pool_.jobs();
        poolOptions.retries = options.workerRetries;
        poolOptions.backoffSeconds = options.workerBackoffSeconds;
        poolOptions.memoryBytes = options.workerMemoryBytes;
        poolOptions.cpuSeconds = options.workerCpuSeconds;
        poolOptions.stopToken = options.stopToken;

        auto childWorker = [&](std::size_t pending_index,
                               std::uint32_t attempt, double wall_budget) {
            const std::size_t index = pending[pending_index];
            // The Worker* drill sites fire here — in the forked
            // child, before any simulation — on every attempt up to
            // triggerCount (each attempt is a fresh process, so the
            // attempt number IS the opportunity counter).
            const FaultPlan &drill = jobs[index].config.faultPlan;
            if (drill.site == FaultSite::WorkerCrash &&
                attempt <= drill.triggerCount) {
                if (drill.delayCycles >= 1 && drill.delayCycles <= 31)
                    ::raise(static_cast<int>(drill.delayCycles));
                std::abort();
            }
            if (drill.site == FaultSite::WorkerHog &&
                attempt <= drill.triggerCount) {
                // Allocate-and-touch until a rlimit ends the process;
                // the unchecked malloc result turns allocation
                // failure into SIGSEGV so the drill still dies when
                // no memory cap is set.
                for (;;) {
                    char *block =
                        static_cast<char *>(std::malloc(1 << 20));
                    std::memset(block, 0xab, 1 << 20);
                }
            }
            SweepRecord record;
            attemptJob(index, attempt, wall_budget, record);
            return checkpointRecordOf(keys[index], record);
        };

        auto escalatesReported =
            [&](std::size_t, std::uint32_t attempt,
                const SweepCheckpointRecord &record) {
                return escalates(attempt, record.status, record.error);
            };

        auto completeOne = [&](std::size_t pending_index,
                               const ProcessPool::Outcome &outcome) {
            const std::size_t index = pending[pending_index];
            SweepRecord &record = records[index];
            record.attempts = outcome.attempts;
            worker_crash_total += outcome.crashes;
            worker_backoff_total += outcome.backoffSeconds;
            if (outcome.reported) {
                // The worker's verdict, ok or contained failure,
                // restored from the wire record.
                record.status = outcome.record.status;
                record.error = outcome.record.error;
                record.wallSeconds = outcome.record.wallSeconds;
                record.outcome = record.status == SweepStatus::Ok
                                     ? restoredOutcome(outcome.record)
                                     : failedOutcome(jobs[index].models);
                settle(index, &outcome.record);
                return;
            }
            // Cancelled, or quarantined because every attempt died
            // hard. A quarantine is checkpointed (durable audit
            // trail); resume re-executes it, since only ok records
            // restore.
            if (outcome.cancelled) {
                record.status = SweepStatus::Skipped;
                record.error = detail::concat(
                    toString(SimErrorKind::Cancelled), ": stop requested");
            } else {
                record.status = SweepStatus::Crashed;
                record.error = detail::concat(
                    toString(SimErrorKind::WorkerCrash), ": ",
                    outcome.crashError);
            }
            record.outcome = failedOutcome(jobs[index].models);
            record.wallSeconds = outcome.wallSeconds;
            settle(index, nullptr);
        };

        ProcessPool workerPool(poolOptions);
        workerPool.run(pending.size(), childWorker, wallBudgetFor,
                       escalatesReported, completeOne);
    } else {
        failures.resize(pending.size());
        pool_.parallelFor(pending.size(), [&](std::size_t pending_index) {
            const std::size_t index = pending[pending_index];
            SweepRecord &record = records[index];
            const auto job_start = SteadyClock::now();
            for (record.attempts = 1;; ++record.attempts) {
                failures[pending_index] = attemptJob(
                    index, record.attempts,
                    wallBudgetFor(pending_index, record.attempts), record);
                if (!escalates(record.attempts, record.status,
                               record.error))
                    break;
            }
            record.wallSeconds = secondsSince(job_start);
            settle(index, nullptr);
        });
    }

    stats_ = SweepStats{};
    stats_.workers = pool_.jobs();
    stats_.runs = jobs.size();
    stats_.wallSeconds = secondsSince(start);
    for (const auto &record : records) {
        stats_.jobSecondsSum += record.wallSeconds;
        switch (record.status) {
          case SweepStatus::Ok:
            ++stats_.ok;
            break;
          case SweepStatus::Failed:
            ++stats_.failed;
            break;
          case SweepStatus::TimedOut:
            ++stats_.timedOut;
            break;
          case SweepStatus::Skipped:
            ++stats_.skipped;
            break;
          case SweepStatus::Crashed:
            ++stats_.crashed;
            break;
        }
        if (record.attempts > 1)
            ++stats_.retried;
        // Aggregate telemetry: only records carrying real data (ok or
        // restored-ok; failed outcomes are NaN-poisoned and cancelled
        // skips are zeroed, contributing nothing to the sums).
        if (record.status == SweepStatus::Ok ||
            (record.status == SweepStatus::Skipped &&
             record.error.empty())) {
            const SimResult &raw = record.outcome.raw;
            stats_.totalGlobalCycles += raw.globalCycles;
            if (raw.dramEnergyPj == raw.dramEnergyPj) // skip NaN
                stats_.totalDramEnergyPj += raw.dramEnergyPj;
            for (const CoreResult &core : raw.cores) {
                stats_.totalTrafficBytes += core.trafficBytes;
                stats_.totalWalkBytes += core.walkBytes;
                stats_.totalTlbMisses += core.tlbMisses;
                stats_.totalWalks += core.walks;
            }
        }
    }
    stats_.executed =
        stats_.ok + stats_.failed + stats_.timedOut + stats_.crashed;
    stats_.workerCrashes = worker_crash_total;
    stats_.workerBackoffSeconds = worker_backoff_total;
    if (stats_.wallSeconds > 0)
        stats_.runsPerSecond =
            static_cast<double>(stats_.executed) / stats_.wallSeconds;

    if (!options.keepGoing) {
        // Deterministic fail-fast: the first failing job in *input*
        // order surfaces, regardless of completion order. Thread mode
        // rethrows the original exception; process mode rebuilds it
        // from the worker's record, since the original died with the
        // worker.
        for (std::size_t pending_index = 0; pending_index < pending.size();
             ++pending_index) {
            const SweepRecord &record = records[pending[pending_index]];
            if (record.status != SweepStatus::Failed &&
                record.status != SweepStatus::TimedOut &&
                record.status != SweepStatus::Crashed)
                continue;
            if (!failures.empty())
                std::rethrow_exception(failures[pending_index]);
            rethrowRecordError(record);
        }
    }
    return records;
}

} // namespace mnpu
