/**
 * @file
 * Tests for the process-isolation layer: the forked worker pool and
 * its supervision policy (crash quarantine, retry/backoff, rlimit
 * containment, cooperative cancellation), deterministic campaign
 * sharding with merge_checkpoints-style shard unions, the checkpoint
 * advisory lock, and the two-stage SIGINT/SIGTERM stop handler.
 *
 * The central guarantees drilled here mirror ISSUE acceptance:
 *  - a clean sweep under --isolate process is bit-identical to the
 *    thread-mode run;
 *  - injecting worker-crash into k of n jobs quarantines exactly
 *    those k as Crashed while the rest stay bit-identical;
 *  - kill -9 of the supervisor round-trips through --resume;
 *  - a shard union restores every ok record bit-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/mixes.hh"
#include "analysis/process_pool.hh"
#include "analysis/sweep_checkpoint.hh"
#include "analysis/sweep_runner.hh"
#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/stop_signal.hh"
#include "sw/network.hh"
#include "workloads/models.hh"

namespace mnpu
{
namespace
{

// --- Shared fixtures (same tiny sweep as test_sweep_runner.cc) ---

ArchConfig
isoArch()
{
    ArchConfig arch;
    arch.name = "tiny";
    arch.arrayRows = 16;
    arch.arrayCols = 16;
    arch.spmBytes = 64 << 10;
    arch.dataBytes = 1;
    arch.freqMhz = 1000;
    arch.validate();
    return arch;
}

NpuMemConfig
isoMem()
{
    NpuMemConfig mem;
    mem.channelsPerNpu = 2;
    mem.dramCapacityPerNpu = 64ULL << 20;
    mem.tlbEntriesPerNpu = 64;
    mem.tlbWays = 8;
    mem.ptwPerNpu = 4;
    return mem;
}

Network
isoNetwork(std::uint32_t index)
{
    Network net;
    net.name = "net" + std::to_string(index);
    const std::uint64_t m = 128 + 64 * index;
    net.layers.push_back(Layer::gemm("g0", m, 128, 192));
    net.layers.push_back(Layer::gemm("g1", 128, m, 128));
    return net;
}

void
registerIsoNetworks(ExperimentContext &context)
{
    for (std::uint32_t i = 0; i < 3; ++i)
        context.registerNetwork(isoNetwork(i));
}

std::vector<SweepJob>
isoJobs()
{
    std::vector<SweepJob> jobs;
    for (SharingLevel level :
         {SharingLevel::Static, SharingLevel::ShareDWT}) {
        for (const auto &mix : enumerateMultisets(3, 2)) {
            SweepJob job;
            job.config.level = level;
            job.models = {"net" + std::to_string(mix[0]),
                          "net" + std::to_string(mix[1])};
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::string
tempPath(const char *name)
{
    // Suffix with the pid so concurrently running test binaries
    // (e.g. a plain and a sanitizer build side by side) never collide
    // on the same checkpoint file or its flock sidecar.
    std::string path = ::testing::TempDir() + name + "." +
                       std::to_string(::getpid());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    return path;
}

/**
 * Canonical serialization of a record's simulated payload only:
 * wall clock, status, error, and attempt count are normalized away so
 * an executed Ok record and its checkpoint-restored Skipped twin
 * fingerprint identically iff every metric — derived figures and raw
 * telemetry counters alike — is bit-identical.
 */
std::string
outcomeFingerprint(const SweepRecord &record)
{
    SweepRecord canon = record;
    canon.wallSeconds = 0;
    canon.status = SweepStatus::Ok;
    canon.error.clear();
    canon.attempts = 1;
    return toJsonLine(checkpointRecordOf("fingerprint", canon));
}

// --- Isolation-mode resolution ---

TEST(ProcessIsolationTest, IsolationModeParsesAndResolves)
{
    Setting<IsolationMode> &isolation = isolationSetting();
    EXPECT_EQ(isolation.parse("thread"), IsolationMode::Thread);
    EXPECT_EQ(isolation.parse("process"), IsolationMode::Process);
    EXPECT_THROW(isolation.parse("forked"), FatalError);
    EXPECT_STREQ(toString(IsolationMode::Process), "process");

    isolation.clearDefault();
    ::unsetenv("MNPU_ISOLATE");
    EXPECT_EQ(isolation.effective(std::nullopt), IsolationMode::Thread);
    // Environment beats the built-in default...
    ::setenv("MNPU_ISOLATE", "process", 1);
    EXPECT_EQ(isolation.effective(std::nullopt), IsolationMode::Process);
    // ...--isolate (the process-wide default) beats the environment...
    isolation.setDefault(IsolationMode::Thread);
    EXPECT_EQ(isolation.effective(std::nullopt), IsolationMode::Thread);
    // ...and an explicitly configured mode beats everything.
    EXPECT_EQ(isolation.effective(IsolationMode::Process),
              IsolationMode::Process);
    isolation.clearDefault();
    ::unsetenv("MNPU_ISOLATE");
}

// --- Fault-site plumbing for the worker drills ---

TEST(ProcessIsolationTest, WorkerFaultSitesParseAndClassify)
{
    FaultPlan plan = parseFaultPlan("worker-crash");
    EXPECT_EQ(plan.site, FaultSite::WorkerCrash);
    EXPECT_EQ(plan.triggerCount, 1u);

    plan = parseFaultPlan("worker-crash:3:11");
    EXPECT_EQ(plan.site, FaultSite::WorkerCrash);
    EXPECT_EQ(plan.triggerCount, 3u);
    EXPECT_EQ(plan.delayCycles, 11u);

    plan = parseFaultPlan("worker-hog:2");
    EXPECT_EQ(plan.site, FaultSite::WorkerHog);
    EXPECT_EQ(plan.triggerCount, 2u);

    // Worker* sites change which process runs, not what it computes:
    // they stay out of sweepJobKey() and the fidelity fallback.
    EXPECT_FALSE(perturbsSimulation(FaultSite::None));
    EXPECT_FALSE(perturbsSimulation(FaultSite::WorkerCrash));
    EXPECT_FALSE(perturbsSimulation(FaultSite::WorkerHog));
    EXPECT_TRUE(perturbsSimulation(FaultSite::DramDrop));
    EXPECT_TRUE(perturbsSimulation(FaultSite::CoreStall));
}

TEST(ProcessIsolationTest, WorkerFaultKeysMatchCleanJobKeys)
{
    ExperimentContext context(isoArch(), isoMem());
    SweepJob clean;
    clean.models = {"net0", "net1"};
    SweepJob drilled = clean;
    drilled.config.faultPlan = parseFaultPlan("worker-crash:99");
    // Same simulated outcome => same checkpoint identity, so a job
    // that crashed, retried, and completed shares its records.
    EXPECT_EQ(sweepJobKey(clean, context.arch(), context.mem(),
                          context.scale()),
              sweepJobKey(drilled, context.arch(), context.mem(),
                          context.scale()));
    SweepJob perturbed = clean;
    perturbed.config.faultPlan = parseFaultPlan("dram-drop:3");
    EXPECT_NE(sweepJobKey(clean, context.arch(), context.mem(),
                          context.scale()),
              sweepJobKey(perturbed, context.arch(), context.mem(),
                          context.scale()));
}

// --- Clean-run bit-identity across isolation modes ---

TEST(ProcessIsolationTest, CleanProcessRunMatchesThreadRunBitIdentical)
{
    auto jobs = isoJobs();
    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(2);

    SweepOptions threaded;
    threaded.isolation = IsolationMode::Thread;
    const auto thread_records = runner.run(context, jobs, threaded);

    SweepOptions forked;
    forked.isolation = IsolationMode::Process;
    const auto process_records = runner.run(context, jobs, forked);

    ASSERT_EQ(thread_records.size(), jobs.size());
    ASSERT_EQ(process_records.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(thread_records[i].status, SweepStatus::Ok);
        EXPECT_EQ(process_records[i].status, SweepStatus::Ok);
        EXPECT_EQ(outcomeFingerprint(process_records[i]),
                  outcomeFingerprint(thread_records[i]))
            << "mix " << i;
    }
    EXPECT_EQ(runner.lastStats().ok, jobs.size());
    EXPECT_EQ(runner.lastStats().crashed, 0u);
    EXPECT_EQ(runner.lastStats().workerCrashes, 0u);
}

TEST(ProcessIsolationTest, ContainedFailuresMatchAcrossIsolationModes)
{
    // The clean campaign, then a FatalError mix (unknown model) and a
    // cycle-budget blowout placed after enough completions for the
    // adaptive budget to be armed. A cycle-budget timeout would hit
    // the same cap again, so neither mode may retry it.
    auto jobs = isoJobs();
    SweepJob unknown;
    unknown.models = {"no-such-model", "net0"};
    jobs.push_back(unknown);
    SweepJob capped;
    capped.models = {"net0", "net1"};
    capped.config.maxGlobalCycles = 1000;
    jobs.push_back(capped);

    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(1);
    SweepOptions options;
    options.keepGoing = true;
    options.budgetMultiplier = 50;

    options.isolation = IsolationMode::Thread;
    const auto thread_records = runner.run(context, jobs, options);
    const std::size_t thread_retried = runner.lastStats().retried;
    options.isolation = IsolationMode::Process;
    const auto process_records = runner.run(context, jobs, options);

    ASSERT_EQ(thread_records.size(), jobs.size());
    ASSERT_EQ(process_records.size(), jobs.size());
    EXPECT_EQ(thread_records[12].status, SweepStatus::Failed);
    EXPECT_EQ(thread_records[13].status, SweepStatus::TimedOut);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepRecord &thread = thread_records[i];
        const SweepRecord &process = process_records[i];
        EXPECT_EQ(process.status, thread.status) << "mix " << i;
        EXPECT_EQ(process.error, thread.error) << "mix " << i;
        EXPECT_EQ(process.attempts, thread.attempts) << "mix " << i;
        if (thread.status == SweepStatus::Ok) {
            EXPECT_EQ(outcomeFingerprint(process),
                      outcomeFingerprint(thread))
                << "mix " << i;
        }
    }
    EXPECT_EQ(runner.lastStats().retried, thread_retried);
    EXPECT_EQ(thread_retried, 0u);
}

// --- Crash quarantine drill ---

TEST(ProcessIsolationTest, WorkerCrashQuarantinesExactlyInjectedJobs)
{
    auto jobs = isoJobs();
    ASSERT_EQ(jobs.size(), 12u);
    // Inject a persistent crasher (every attempt dies) into k = 3
    // jobs; abort() flavor by default.
    const std::vector<std::size_t> doomed = {1, 5, 9};
    for (std::size_t index : doomed)
        jobs[index].config.faultPlan = parseFaultPlan("worker-crash:99");

    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(2);

    // Clean thread-mode reference for the surviving mixes.
    auto clean_jobs = isoJobs();
    SweepOptions threaded;
    threaded.isolation = IsolationMode::Thread;
    const auto clean = runner.run(context, clean_jobs, threaded);

    SweepOptions options;
    options.isolation = IsolationMode::Process;
    options.keepGoing = true;
    options.workerBackoffSeconds = 0.001; // keep the drill fast
    const auto records = runner.run(context, jobs, options);

    ASSERT_EQ(records.size(), jobs.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const bool injected =
            std::find(doomed.begin(), doomed.end(), i) != doomed.end();
        if (injected) {
            EXPECT_EQ(records[i].status, SweepStatus::Crashed) << i;
            // retries=2 => exactly 3 attempts before quarantine.
            EXPECT_EQ(records[i].attempts, 3u) << i;
            EXPECT_NE(records[i].error.find("worker-crash"),
                      std::string::npos)
                << records[i].error;
            EXPECT_NE(records[i].error.find("signal"),
                      std::string::npos)
                << records[i].error;
            // Quarantined metrics are NaN-poisoned like Failed.
            EXPECT_TRUE(std::isnan(records[i].outcome.geomeanSpeedup))
                << i;
        } else {
            EXPECT_EQ(records[i].status, SweepStatus::Ok) << i;
            EXPECT_EQ(outcomeFingerprint(records[i]),
                      outcomeFingerprint(clean[i]))
                << "mix " << i;
        }
    }

    const SweepStats &stats = runner.lastStats();
    EXPECT_EQ(stats.crashed, doomed.size());
    EXPECT_EQ(stats.ok, jobs.size() - doomed.size());
    EXPECT_EQ(stats.executed, jobs.size());
    // 3 jobs x 3 attempts each died hard.
    EXPECT_EQ(stats.workerCrashes, 3 * doomed.size());
    EXPECT_GT(stats.workerBackoffSeconds, 0.0);
    EXPECT_GE(stats.retried, doomed.size());
    EXPECT_NE(stats.summary().find("3 crashed"), std::string::npos)
        << stats.summary();
    EXPECT_NE(stats.summary().find("worker crash"), std::string::npos)
        << stats.summary();

    // NaN-poisoned quarantine records contribute nothing to the
    // aggregate telemetry sums.
    std::uint64_t ok_cycles = 0;
    for (const auto &record : records)
        if (record.status == SweepStatus::Ok)
            ok_cycles += record.outcome.raw.globalCycles;
    EXPECT_EQ(stats.totalGlobalCycles, ok_cycles);
}

TEST(ProcessIsolationTest, CrashedJobRetriesThenSucceeds)
{
    std::vector<SweepJob> jobs(2);
    jobs[0].models = {"net0", "net1"};
    // Crash the first attempt only (SIGSEGV flavor): the supervisor's
    // retry must complete the job with a clean record.
    jobs[0].config.faultPlan = parseFaultPlan("worker-crash:1:11");
    jobs[1].models = {"net0", "net2"};

    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(1);

    SweepOptions options;
    options.isolation = IsolationMode::Process;
    options.keepGoing = true;
    options.workerBackoffSeconds = 0.001;
    const auto records = runner.run(context, jobs, options);

    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, SweepStatus::Ok);
    EXPECT_EQ(records[0].attempts, 2u);
    EXPECT_TRUE(records[0].error.empty());
    EXPECT_EQ(records[1].status, SweepStatus::Ok);
    EXPECT_EQ(records[1].attempts, 1u);
    EXPECT_EQ(runner.lastStats().workerCrashes, 1u);
    EXPECT_EQ(runner.lastStats().retried, 1u);
    EXPECT_EQ(runner.lastStats().crashed, 0u);

    // The recovered job is bit-identical to a drill-free run.
    std::vector<SweepJob> clean_jobs(1);
    clean_jobs[0].models = {"net0", "net1"};
    SweepOptions threaded;
    threaded.isolation = IsolationMode::Thread;
    const auto clean = runner.run(context, clean_jobs, threaded);
    EXPECT_EQ(outcomeFingerprint(records[0]),
              outcomeFingerprint(clean[0]));
}

TEST(ProcessIsolationTest, QuarantineReportsSignalName)
{
    if (builtWithSanitizer())
        GTEST_SKIP() << "raise() in a fork-without-exec child SEGVs "
                        "inside the TSan signal interceptor, so the "
                        "child exits by code instead of signal";

    std::vector<SweepJob> jobs(1);
    jobs[0].models = {"net0", "net1"};
    jobs[0].config.faultPlan = parseFaultPlan("worker-crash:99:11");

    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(1);

    SweepOptions options;
    options.isolation = IsolationMode::Process;
    options.keepGoing = true;
    options.workerRetries = 0; // quarantine on the first death
    options.workerBackoffSeconds = 0.001;
    const auto records = runner.run(context, jobs, options);

    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, SweepStatus::Crashed);
    EXPECT_EQ(records[0].attempts, 1u);
    EXPECT_NE(records[0].error.find("signal 11"), std::string::npos)
        << records[0].error;
}

TEST(ProcessIsolationTest, WorkerFaultSitesInertInThreadMode)
{
    std::vector<SweepJob> jobs(1);
    jobs[0].models = {"net0", "net1"};
    jobs[0].config.faultPlan = parseFaultPlan("worker-crash:99");

    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(1);

    SweepOptions options;
    options.isolation = IsolationMode::Thread;
    const auto records = runner.run(context, jobs, options);
    ASSERT_EQ(records.size(), 1u);
    // An in-process firing would abort the whole campaign — the drill
    // exists precisely because thread mode cannot contain it.
    EXPECT_EQ(records[0].status, SweepStatus::Ok);

    std::vector<SweepJob> clean(1);
    clean[0].models = {"net0", "net1"};
    const auto reference = runner.run(context, clean, options);
    EXPECT_EQ(outcomeFingerprint(records[0]),
              outcomeFingerprint(reference[0]));
}

TEST(ProcessIsolationTest, WorkerHogContainedByAddressSpaceCap)
{
    if (builtWithSanitizer())
        GTEST_SKIP() << "RLIMIT_AS is skipped under sanitizers "
                        "(shadow memory dwarfs any real cap)";

    std::vector<SweepJob> jobs(1);
    jobs[0].models = {"net0", "net1"};
    jobs[0].config.faultPlan = parseFaultPlan("worker-hog:99");

    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(1);

    SweepOptions options;
    options.isolation = IsolationMode::Process;
    options.keepGoing = true;
    options.workerRetries = 0;
    options.workerBackoffSeconds = 0.001;
    options.workerMemoryBytes = 512ULL << 20; // cap the hog
    options.workerCpuSeconds = 60;            // belt and suspenders
    const auto records = runner.run(context, jobs, options);

    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, SweepStatus::Crashed);
    EXPECT_NE(records[0].error.find("signal"), std::string::npos)
        << records[0].error;
    EXPECT_TRUE(std::isnan(records[0].outcome.geomeanSpeedup));
}

TEST(ProcessIsolationTest, ProcessModePresetStopTokenCancels)
{
    const std::string path = tempPath("mnpu_iso_cancel.jsonl");
    auto jobs = isoJobs();
    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(2);
    std::atomic<bool> stop{true};
    SweepOptions options;
    options.isolation = IsolationMode::Process;
    options.checkpointPath = path;
    options.stopToken = &stop;
    const auto records = runner.run(context, jobs, options);
    ASSERT_EQ(records.size(), jobs.size());
    for (const auto &record : records) {
        EXPECT_EQ(record.status, SweepStatus::Skipped);
        EXPECT_NE(record.error.find("cancelled"), std::string::npos);
    }
    // Cancelled jobs are never checkpointed: a later resume re-runs
    // them instead of trusting metrics that were never computed.
    EXPECT_TRUE(loadSweepCheckpoint(path).empty());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

// --- Supervisor death: kill -9 round-trips through --resume ---

TEST(ProcessIsolationTest, SupervisorKilledThenResumeCompletes)
{
    if (builtWithSanitizer())
        GTEST_SKIP() << "TSan refuses to start threads after a "
                        "multi-threaded fork, so the forked "
                        "supervisor child dies before checkpointing";

    const std::string path = tempPath("mnpu_iso_kill9.jsonl");

    // Clean reference run (its own context; the supervisor child
    // below builds its own too, so caches never cross the fork).
    auto jobs = isoJobs();
    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(2);
    SweepOptions threaded;
    threaded.isolation = IsolationMode::Thread;
    const auto clean = runner.run(context, jobs, threaded);

    const pid_t supervisor = ::fork();
    ASSERT_GE(supervisor, 0);
    if (supervisor == 0) {
        // Child: run a checkpointed process-mode campaign; the parent
        // SIGKILLs us mid-flight. No gtest machinery in here, and
        // _exit (not exit) so the forked image's static destructors
        // never run.
        try {
            ExperimentContext ours(isoArch(), isoMem());
            registerIsoNetworks(ours);
            SweepRunner sweeper(2);
            SweepOptions opts;
            opts.isolation = IsolationMode::Process;
            opts.keepGoing = true;
            opts.checkpointPath = path;
            sweeper.run(ours, isoJobs(), opts);
        } catch (...) {
        }
        ::_exit(0);
    }

    // Wait until at least two full records hit the checkpoint, then
    // kill -9 the supervisor (which may already have finished — the
    // resume assertions below hold either way).
    for (int spin = 0; spin < 3000; ++spin) {
        std::ifstream in(path);
        std::string line;
        std::size_t lines = 0;
        while (std::getline(in, line))
            if (!line.empty())
                ++lines;
        if (lines >= 2)
            break;
        ::usleep(10 * 1000);
    }
    ::kill(supervisor, SIGKILL);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(supervisor, &wait_status, 0), supervisor);

    // The kill -9 released the flock with the sidecar left behind;
    // a fresh campaign must treat it as stale and reclaim it.
    const auto salvaged = loadSweepCheckpoint(path);
    EXPECT_GE(salvaged.size(), 1u);

    SweepOptions resume;
    resume.isolation = IsolationMode::Process;
    resume.keepGoing = true;
    resume.checkpointPath = path;
    resume.resume = true;
    const auto records = runner.run(context, jobs, resume);

    ASSERT_EQ(records.size(), jobs.size());
    std::size_t restored = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].status == SweepStatus::Skipped) {
            EXPECT_TRUE(records[i].error.empty()) << records[i].error;
            ++restored;
        } else {
            EXPECT_EQ(records[i].status, SweepStatus::Ok) << i;
        }
        EXPECT_EQ(outcomeFingerprint(records[i]),
                  outcomeFingerprint(clean[i]))
            << "mix " << i;
    }
    EXPECT_EQ(restored, salvaged.size());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

// --- Deterministic sharding ---

TEST(ShardTest, PartitionCoversEveryJobExactlyOnce)
{
    auto jobs = isoJobs();
    ExperimentContext context(isoArch(), isoMem());
    const std::uint32_t shards = 3;
    std::vector<std::size_t> perShard(shards, 0);
    for (const auto &job : jobs) {
        const std::string key = sweepJobKey(
            job, context.arch(), context.mem(), context.scale());
        const std::uint32_t shard = shardOfSweepKey(key, shards);
        ASSERT_LT(shard, shards);
        // Deterministic: the same key always lands on the same shard.
        EXPECT_EQ(shardOfSweepKey(key, shards), shard);
        ++perShard[shard];
    }
    std::size_t total = 0;
    for (std::size_t count : perShard)
        total += count;
    EXPECT_EQ(total, jobs.size());
    // Degenerate shard counts collapse to "everything is shard 0".
    EXPECT_EQ(shardOfSweepKey("00deadbeef00cafe", 0), 0u);
    EXPECT_EQ(shardOfSweepKey("00deadbeef00cafe", 1), 0u);
}

TEST(ShardTest, ShardedRunSkipsForeignJobsAndExecutesOwn)
{
    auto jobs = isoJobs();
    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(2);

    const std::uint32_t shards = 2;
    std::vector<std::size_t> executed(jobs.size(), 0);
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
        const std::string path = tempPath(
            ("mnpu_iso_shard" + std::to_string(shard) + ".jsonl")
                .c_str());
        SweepOptions options;
        options.isolation = IsolationMode::Thread;
        options.shardIndex = shard;
        options.shardCount = shards;
        options.checkpointPath = path;
        const auto records = runner.run(context, jobs, options);
        ASSERT_EQ(records.size(), jobs.size());
        std::size_t own = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            if (records[i].status == SweepStatus::Ok) {
                ++executed[i];
                ++own;
            } else {
                EXPECT_EQ(records[i].status, SweepStatus::Skipped);
                EXPECT_NE(records[i].error.find("sharded out"),
                          std::string::npos)
                    << records[i].error;
            }
        }
        // Sharded-out jobs never touch this shard's checkpoint.
        EXPECT_EQ(loadSweepCheckpoint(path).size(), own);
        std::remove(path.c_str());
        std::remove((path + ".lock").c_str());
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(executed[i], 1u) << "job " << i;
}

TEST(ShardTest, ShardMergeResumeRoundTrip)
{
    auto jobs = isoJobs();
    ExperimentContext context(isoArch(), isoMem());
    registerIsoNetworks(context);
    SweepRunner runner(2);

    // Clean un-sharded reference.
    SweepOptions threaded;
    threaded.isolation = IsolationMode::Thread;
    const auto clean = runner.run(context, jobs, threaded);

    // Two "hosts" run disjoint shards into private checkpoints.
    const std::uint32_t shards = 2;
    std::vector<std::string> shardPaths;
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
        const std::string path = tempPath(
            ("mnpu_iso_merge" + std::to_string(shard) + ".jsonl")
                .c_str());
        shardPaths.push_back(path);
        SweepOptions options;
        options.isolation = IsolationMode::Thread;
        options.shardIndex = shard;
        options.shardCount = shards;
        options.checkpointPath = path;
        runner.run(context, jobs, options);
    }

    // Union the shards into one checkpoint...
    const std::string merged = tempPath("mnpu_iso_merged.jsonl");
    CheckpointMergeStats stats;
    const auto union_records = mergeSweepCheckpoints(shardPaths, &stats);
    EXPECT_EQ(stats.files, shardPaths.size());
    EXPECT_EQ(stats.records, jobs.size());
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.conflicts, 0u);
    {
        SweepCheckpointWriter writer(merged);
        for (const auto &record : union_records)
            writer.append(record);
    }

    // ...and a final un-sharded --resume restores every record
    // bit-identically without executing anything.
    SweepOptions resume;
    resume.isolation = IsolationMode::Thread;
    resume.checkpointPath = merged;
    resume.resume = true;
    const auto records = runner.run(context, jobs, resume);
    ASSERT_EQ(records.size(), jobs.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].status, SweepStatus::Skipped) << i;
        EXPECT_TRUE(records[i].error.empty());
        EXPECT_EQ(outcomeFingerprint(records[i]),
                  outcomeFingerprint(clean[i]))
            << "mix " << i;
    }
    EXPECT_EQ(runner.lastStats().executed, 0u);
    EXPECT_EQ(runner.lastStats().skipped, jobs.size());

    for (const auto &path : shardPaths) {
        std::remove(path.c_str());
        std::remove((path + ".lock").c_str());
    }
    std::remove(merged.c_str());
    std::remove((merged + ".lock").c_str());
}

// --- Checkpoint merge resolution ---

TEST(CheckpointMergeTest, OkWinsNewestWinsAndConflictsAreCounted)
{
    auto makeRecord = [](const std::string &key, SweepStatus status,
                         double geomean) {
        SweepCheckpointRecord record;
        record.key = key;
        record.status = status;
        if (status != SweepStatus::Ok)
            record.error = "boom";
        record.geomeanSpeedup = geomean;
        record.wallSeconds = 1.0;
        record.models = {"net0", "net1"};
        return record;
    };

    const std::string a = tempPath("mnpu_iso_merge_a.jsonl");
    const std::string b = tempPath("mnpu_iso_merge_b.jsonl");
    {
        std::ofstream out(a);
        // keyA: ok here, failed in b — ok wins even though b is newer.
        out << toJsonLine(
                   makeRecord("aaaa000000000001", SweepStatus::Ok, 0.5))
            << "\n";
        // keyB: ok in both with different payloads — conflict; b wins.
        out << toJsonLine(
                   makeRecord("bbbb000000000002", SweepStatus::Ok, 0.5))
            << "\n";
        // keyC: failed in both — newest (b) wins, no conflict.
        out << toJsonLine(makeRecord("cccc000000000003",
                                     SweepStatus::Failed, 0.1))
            << "\n";
        out << "{\"torn line\n"; // malformed tail, skipped
    }
    {
        std::ofstream out(b);
        out << toJsonLine(makeRecord("aaaa000000000001",
                                     SweepStatus::Failed, 0.0))
            << "\n";
        // Same key, both ok, identical except the wall clock: NOT a
        // conflict (the wall clock legitimately differs per host).
        SweepCheckpointRecord same =
            makeRecord("bbbb000000000002", SweepStatus::Ok, 0.5);
        same.wallSeconds = 9.0;
        same.geomeanSpeedup = 0.75; // ...but this differs: conflict.
        out << toJsonLine(same) << "\n";
        out << toJsonLine(makeRecord("cccc000000000003",
                                     SweepStatus::Failed, 0.2))
            << "\n";
        // keyD only exists here.
        out << toJsonLine(
                   makeRecord("dddd000000000004", SweepStatus::Ok, 1.0))
            << "\n";
    }

    CheckpointMergeStats stats;
    const auto merged = mergeSweepCheckpoints({a, b}, &stats);
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.records, 4u);
    EXPECT_EQ(stats.duplicates, 3u);
    EXPECT_EQ(stats.malformed, 1u);
    EXPECT_EQ(stats.conflicts, 1u);

    ASSERT_EQ(merged.size(), 4u);
    // First-seen key order.
    EXPECT_EQ(merged[0].key, "aaaa000000000001");
    EXPECT_EQ(merged[1].key, "bbbb000000000002");
    EXPECT_EQ(merged[2].key, "cccc000000000003");
    EXPECT_EQ(merged[3].key, "dddd000000000004");
    // Ok beat the newer failure for keyA.
    EXPECT_EQ(merged[0].status, SweepStatus::Ok);
    EXPECT_EQ(merged[0].geomeanSpeedup, 0.5);
    // The newest ok record won the keyB conflict.
    EXPECT_EQ(merged[1].geomeanSpeedup, 0.75);
    // Newest-wins within the non-ok tier for keyC.
    EXPECT_EQ(merged[2].status, SweepStatus::Failed);
    EXPECT_EQ(merged[2].geomeanSpeedup, 0.2);

    // A missing shard is an empty shard, not an error.
    const std::string ghost = tempPath("mnpu_iso_merge_ghost.jsonl");
    CheckpointMergeStats again;
    const auto sparse = mergeSweepCheckpoints({a, ghost}, &again);
    EXPECT_EQ(sparse.size(), 3u);

    std::remove(a.c_str());
    std::remove(b.c_str());
}

// --- Checkpoint advisory lock ---

TEST(CheckpointLockTest, SecondWriterOnSameCheckpointFailsFast)
{
    const std::string path = tempPath("mnpu_iso_lock.jsonl");
    SweepCheckpointWriter holder(path);
    try {
        SweepCheckpointWriter second(path);
        FAIL() << "second writer must not acquire the lock";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("locked"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(CheckpointLockTest, StaleLockFileIsReclaimed)
{
    const std::string path = tempPath("mnpu_iso_stale.jsonl");
    {
        // A lockfile left behind by kill -9: the flock died with its
        // process, so only the stale PID content remains.
        std::ofstream out(path + ".lock");
        out << "999999999";
    }
    {
        CheckpointLock lock(path);
        EXPECT_EQ(lock.lockPath(), path + ".lock");
        // The stale content was replaced by the live holder's PID.
        std::ifstream in(path + ".lock");
        pid_t holder = 0;
        in >> holder;
        EXPECT_EQ(holder, ::getpid());
    }
    // And the lock is reusable once released.
    CheckpointLock again(path);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

// --- Two-stage stop signal ---

TEST(StopSignalTest, FirstSignalRaisesTheCooperativeToken)
{
    installStopSignalHandlers();
    resetStopSignalForTesting();
    EXPECT_FALSE(stopSignalRaised());
    EXPECT_FALSE(
        stopSignalToken()->load(std::memory_order_relaxed));
    ASSERT_EQ(::raise(SIGINT), 0);
    EXPECT_TRUE(stopSignalRaised());
    EXPECT_TRUE(stopSignalToken()->load(std::memory_order_relaxed));
    resetStopSignalForTesting();
    EXPECT_FALSE(stopSignalRaised());
    EXPECT_FALSE(
        stopSignalToken()->load(std::memory_order_relaxed));
}

TEST(StopSignalTest, SecondSignalForceExitsWith130)
{
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        installStopSignalHandlers();
        resetStopSignalForTesting();
        ::raise(SIGTERM); // first: cooperative
        ::raise(SIGTERM); // second: force-exit 130
        ::_exit(99);      // unreachable
    }
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), kInterruptedExitCode);
}

} // namespace
} // namespace mnpu
