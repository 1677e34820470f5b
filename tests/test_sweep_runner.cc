/**
 * @file
 * Tests for the ThreadPool and the parallel SweepRunner: the central
 * determinism guarantee (the same sweep run serially and with jobs=4
 * produces bit-identical SimResults per mix), per-job fault
 * containment, watchdog budgets, and crash-safe checkpoint/resume.
 * The CI TSan job re-builds the suite with -fsanitize=thread and runs
 * these suites (--gtest_filter=ThreadPool*:SweepRunner*:
 * SweepCheckpoint*:ExperimentContext*:Logging*) to catch races in the
 * shared ExperimentContext caches and the checkpoint writer under
 * real interleaving.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <vector>

#include "analysis/mixes.hh"
#include "analysis/sweep_checkpoint.hh"
#include "analysis/sweep_runner.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sw/network.hh"
#include "workloads/models.hh"

namespace mnpu
{
namespace
{

// --- ThreadPool ---

TEST(ThreadPoolTest, InlineModeRunsInOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    constexpr std::size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    pool.parallelFor(count, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(64, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 64u * 63u / 2);
    }
}

TEST(ThreadPoolTest, PropagatesFirstException)
{
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(jobs);
        EXPECT_THROW(pool.parallelFor(16,
                                      [](std::size_t i) {
                                          if (i % 2 == 1)
                                              fatal("boom at ", i);
                                      }),
                     FatalError);
        // The pool must stay usable after a failed batch.
        std::atomic<std::size_t> ran{0};
        pool.parallelFor(8, [&](std::size_t) { ++ran; });
        EXPECT_EQ(ran.load(), 8u);
    }
}

TEST(ThreadPoolTest, CollectModeRunsEveryTaskAndKeepsEachException)
{
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(jobs);
        std::vector<std::atomic<int>> hits(16);
        auto errors = pool.parallelForCollect(16, [&](std::size_t i) {
            ++hits[i];
            if (i % 3 == 0)
                fatal("boom at ", i);
        });
        ASSERT_EQ(errors.size(), 16u);
        for (std::size_t i = 0; i < errors.size(); ++i) {
            // Every index ran exactly once, failures included.
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
            if (i % 3 == 0) {
                ASSERT_TRUE(errors[i]) << "index " << i;
                try {
                    std::rethrow_exception(errors[i]);
                } catch (const FatalError &error) {
                    EXPECT_NE(std::string(error.what()).find(
                                  std::to_string(i)),
                              std::string::npos);
                }
            } else {
                EXPECT_FALSE(errors[i]) << "index " << i;
            }
        }
        // The pool must stay usable after a collected batch.
        std::atomic<std::size_t> ran{0};
        pool.parallelFor(8, [&](std::size_t) { ++ran; });
        EXPECT_EQ(ran.load(), 8u);
    }
}

TEST(ThreadPoolTest, DefaultJobCountHonorsOverride)
{
    jobsSetting().setDefault(3);
    EXPECT_EQ(jobsSetting().effective(std::nullopt), 3u);
    ThreadPool pool;
    EXPECT_EQ(pool.jobs(), 3u);
    jobsSetting().clearDefault();
    EXPECT_GE(jobsSetting().effective(std::nullopt), 1u);
}

// --- SweepRunner determinism ---

ArchConfig
sweepArch()
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
sweepMem()
{
    NpuMemConfig mem;
    mem.channelsPerNpu = 2;
    mem.dramCapacityPerNpu = 64ULL << 20;
    mem.tlbEntriesPerNpu = 64;
    mem.tlbWays = 8;
    mem.ptwPerNpu = 4;
    return mem;
}

/** Distinct tiny GEMM networks so the mixes are heterogeneous. */
Network
sweepNetwork(std::uint32_t index)
{
    Network net;
    net.name = "net" + std::to_string(index);
    const std::uint64_t m = 128 + 64 * index;
    net.layers.push_back(Layer::gemm("g0", m, 128, 192));
    net.layers.push_back(Layer::gemm("g1", 128, m, 128));
    return net;
}

/** The context holds a mutex, so it is registered in place, not returned. */
void
registerSweepNetworks(ExperimentContext &context)
{
    for (std::uint32_t i = 0; i < 3; ++i)
        context.registerNetwork(sweepNetwork(i));
}

std::vector<SweepJob>
dualSweepJobs()
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

TEST(SweepRunnerTest, ParallelMatchesSerialBitIdentical)
{
    auto jobs = dualSweepJobs();
    ASSERT_EQ(jobs.size(), 12u); // M(3,2) = 6 mixes x 2 levels

    ExperimentContext serial_context(sweepArch(), sweepMem());
    registerSweepNetworks(serial_context);
    SweepRunner serial_runner(1);
    auto serial = serial_runner.run(serial_context, jobs);

    ExperimentContext parallel_context(sweepArch(), sweepMem());
    registerSweepNetworks(parallel_context);
    SweepRunner parallel_runner(4);
    EXPECT_EQ(parallel_runner.workers(), 4u);
    auto parallel = parallel_runner.run(parallel_context, jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const SimResult &a = serial[i].outcome.raw;
        const SimResult &b = parallel[i].outcome.raw;
        ASSERT_EQ(a.cores.size(), b.cores.size()) << "mix " << i;
        EXPECT_EQ(a.globalCycles, b.globalCycles) << "mix " << i;
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            EXPECT_EQ(a.cores[c].localCycles, b.cores[c].localCycles)
                << "mix " << i << " core " << c;
            EXPECT_EQ(a.cores[c].trafficBytes, b.cores[c].trafficBytes)
                << "mix " << i << " core " << c;
            EXPECT_EQ(a.cores[c].tlbHits, b.cores[c].tlbHits)
                << "mix " << i << " core " << c;
            EXPECT_EQ(a.cores[c].tlbMisses, b.cores[c].tlbMisses)
                << "mix " << i << " core " << c;
        }
        EXPECT_DOUBLE_EQ(serial[i].outcome.geomeanSpeedup,
                         parallel[i].outcome.geomeanSpeedup)
            << "mix " << i;
        EXPECT_DOUBLE_EQ(serial[i].outcome.fairnessValue,
                         parallel[i].outcome.fairnessValue)
            << "mix " << i;
    }

    const SweepStats &stats = parallel_runner.lastStats();
    EXPECT_EQ(stats.runs, jobs.size());
    EXPECT_EQ(stats.workers, 4u);
    EXPECT_GT(stats.wallSeconds, 0.0);
    EXPECT_GT(stats.runsPerSecond, 0.0);
    for (const auto &record : parallel)
        EXPECT_GT(record.wallSeconds, 0.0);
    EXPECT_FALSE(stats.summary().empty());
}

TEST(SweepRunnerTest, SharedContextServesConcurrentMixes)
{
    // All workers hammer one context's caches at once: the same mix at
    // the same level must come out identical from every worker.
    ExperimentContext context(sweepArch(), sweepMem());
    registerSweepNetworks(context);
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 8; ++i) {
        SweepJob job;
        job.config.level = SharingLevel::ShareDWT;
        job.models = {"net0", "net1"};
        jobs.push_back(std::move(job));
    }
    SweepRunner runner(4);
    auto records = runner.run(context, jobs);
    ASSERT_EQ(records.size(), 8u);
    for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_EQ(records[0].outcome.raw.cores[0].localCycles,
                  records[i].outcome.raw.cores[0].localCycles);
        EXPECT_EQ(records[0].outcome.raw.cores[1].trafficBytes,
                  records[i].outcome.raw.cores[1].trafficBytes);
    }
}

TEST(SweepRunnerTest, MapReturnsInInputOrder)
{
    SweepRunner runner(4);
    auto squares = runner.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(SweepRunnerTest, ProgressReportsEveryCompletion)
{
    ExperimentContext context(sweepArch(), sweepMem());
    registerSweepNetworks(context);
    auto jobs = dualSweepJobs();
    SweepRunner runner(2);
    std::vector<std::size_t> seen;
    runner.run(context, jobs,
               [&](std::size_t done, std::size_t total) {
                   EXPECT_EQ(total, jobs.size());
                   seen.push_back(done);
               });
    // Called under a lock with a monotonically increasing counter.
    std::vector<std::size_t> expected(jobs.size());
    std::iota(expected.begin(), expected.end(), 1);
    EXPECT_EQ(seen, expected);
}

// --- SweepRunner fault containment ---

/** Unique checkpoint path under the test temp dir, cleared up front. */
std::string
tempCheckpointPath(const char *name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/** Good, FatalError (unknown model), cycle-budget blowout, good. */
std::vector<SweepJob>
containmentJobs()
{
    std::vector<SweepJob> jobs(4);
    jobs[0].models = {"net0", "net1"};
    jobs[1].models = {"no-such-model", "net0"};
    jobs[2].models = {"net0", "net2"};
    jobs[2].config.maxGlobalCycles = 10;
    jobs[3].config.level = SharingLevel::ShareDWT;
    jobs[3].models = {"net1", "net2"};
    return jobs;
}

TEST(SweepRunnerTest, KeepGoingContainsFailuresAndKeepsSurvivorsIdentical)
{
    auto jobs = containmentJobs();
    ExperimentContext context(sweepArch(), sweepMem());
    registerSweepNetworks(context);
    SweepRunner runner(4);
    SweepOptions options;
    options.keepGoing = true;
    auto records = runner.run(context, jobs, options);
    ASSERT_EQ(records.size(), 4u);

    EXPECT_EQ(records[0].status, SweepStatus::Ok);
    EXPECT_EQ(records[1].status, SweepStatus::Failed);
    EXPECT_EQ(records[2].status, SweepStatus::TimedOut);
    EXPECT_EQ(records[3].status, SweepStatus::Ok);
    EXPECT_NE(records[1].error.find("unknown model"), std::string::npos);
    EXPECT_NE(records[2].error.find("cycle-budget"), std::string::npos);

    // Failed metrics are NaN-poisoned but sized to the mix, so benches
    // indexing per-slot metrics read NaN instead of off the end.
    for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
        ASSERT_EQ(records[i].outcome.speedups.size(), 2u) << "mix " << i;
        EXPECT_TRUE(std::isnan(records[i].outcome.speedups[0]));
        EXPECT_TRUE(std::isnan(records[i].outcome.geomeanSpeedup));
        EXPECT_TRUE(std::isnan(records[i].outcome.fairnessValue));
    }

    const SweepStats &stats = runner.lastStats();
    EXPECT_EQ(stats.ok, 2u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.timedOut, 1u);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_NE(stats.summary().find("1 failed"), std::string::npos);
    EXPECT_NE(stats.summary().find("1 timed out"), std::string::npos);

    // The survivors are bit-identical to a clean serial sweep that
    // never contained the poisoned jobs.
    ExperimentContext clean_context(sweepArch(), sweepMem());
    registerSweepNetworks(clean_context);
    SweepRunner clean_runner(1);
    auto clean = clean_runner.run(clean_context, {jobs[0], jobs[3]});
    const std::size_t survivors[2] = {0, 3};
    for (std::size_t s = 0; s < 2; ++s) {
        const SimResult &a = records[survivors[s]].outcome.raw;
        const SimResult &b = clean[s].outcome.raw;
        ASSERT_EQ(a.cores.size(), b.cores.size()) << "survivor " << s;
        EXPECT_EQ(a.globalCycles, b.globalCycles) << "survivor " << s;
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            EXPECT_EQ(a.cores[c].localCycles, b.cores[c].localCycles)
                << "survivor " << s << " core " << c;
            EXPECT_EQ(a.cores[c].trafficBytes, b.cores[c].trafficBytes)
                << "survivor " << s << " core " << c;
        }
        EXPECT_DOUBLE_EQ(records[survivors[s]].outcome.geomeanSpeedup,
                         clean[s].outcome.geomeanSpeedup)
            << "survivor " << s;
    }
}

TEST(SweepRunnerTest, FailFastRethrowsFirstFailureInInputOrder)
{
    auto jobs = containmentJobs();
    ExperimentContext context(sweepArch(), sweepMem());
    registerSweepNetworks(context);
    SweepRunner runner(4);
    // Default options: the first failing job in *input* order surfaces
    // — the FatalError mix (index 1), not the cycle-budget one (index
    // 2) — regardless of which worker finished first.
    try {
        runner.run(context, jobs, SweepOptions{});
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("unknown model"),
                  std::string::npos);
    }
}

TEST(SweepRunnerTest, CheckpointResumeExecutesOnlyUnfinishedJobs)
{
    const std::string path = tempCheckpointPath("mnpu_ckpt_resume.jsonl");
    auto jobs = dualSweepJobs();
    SweepOptions options;
    options.checkpointPath = path;
    options.resume = true;

    // Reference: a clean serial run of the full list.
    ExperimentContext reference_context(sweepArch(), sweepMem());
    registerSweepNetworks(reference_context);
    SweepRunner reference_runner(1);
    auto reference = reference_runner.run(reference_context, jobs);

    // Phase 1: a "killed" sweep — only the first 5 jobs completed.
    std::vector<SweepJob> first(jobs.begin(), jobs.begin() + 5);
    ExperimentContext context1(sweepArch(), sweepMem());
    registerSweepNetworks(context1);
    SweepRunner runner1(2);
    runner1.run(context1, first, options);

    // The kill signature: a torn trailing line with no newline.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"key\":\"dead";
    }

    // Phase 2: resume over the full list — the checkpointed jobs come
    // back Skipped with restored metrics; only the rest execute.
    ExperimentContext context2(sweepArch(), sweepMem());
    registerSweepNetworks(context2);
    SweepRunner runner2(2);
    std::vector<std::size_t> seen;
    auto records =
        runner2.run(context2, jobs, options,
                    [&](std::size_t done, std::size_t total) {
                        EXPECT_EQ(total, jobs.size());
                        seen.push_back(done);
                    });
    ASSERT_EQ(records.size(), jobs.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].status,
                  i < 5 ? SweepStatus::Skipped : SweepStatus::Ok)
            << "mix " << i;
        // Restored or re-executed, the metrics match the clean run.
        EXPECT_DOUBLE_EQ(records[i].outcome.geomeanSpeedup,
                         reference[i].outcome.geomeanSpeedup)
            << "mix " << i;
        EXPECT_DOUBLE_EQ(records[i].outcome.fairnessValue,
                         reference[i].outcome.fairnessValue)
            << "mix " << i;
        ASSERT_EQ(records[i].outcome.speedups.size(),
                  reference[i].outcome.speedups.size());
        for (std::size_t m = 0; m < records[i].outcome.speedups.size();
             ++m) {
            EXPECT_DOUBLE_EQ(records[i].outcome.speedups[m],
                             reference[i].outcome.speedups[m])
                << "mix " << i << " slot " << m;
        }
        // Restored records must carry the complete raw telemetry, not
        // just cycles: benches aggregate these counters through
        // runJobs(), and a resumed bench output must stay
        // bit-identical to a clean run.
        const SimResult &a = records[i].outcome.raw;
        const SimResult &b = reference[i].outcome.raw;
        EXPECT_EQ(a.globalCycles, b.globalCycles) << "mix " << i;
        EXPECT_EQ(a.dramRowHits, b.dramRowHits) << "mix " << i;
        EXPECT_EQ(a.dramRowMisses, b.dramRowMisses) << "mix " << i;
        EXPECT_DOUBLE_EQ(a.dramEnergyPj, b.dramEnergyPj) << "mix " << i;
        ASSERT_EQ(a.cores.size(), b.cores.size()) << "mix " << i;
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            const CoreResult &ca = a.cores[c];
            const CoreResult &cb = b.cores[c];
            EXPECT_EQ(ca.localCycles, cb.localCycles)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.finishedAtGlobal, cb.finishedAtGlobal)
                << "mix " << i << " core " << c;
            EXPECT_DOUBLE_EQ(ca.peUtilization, cb.peUtilization)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.trafficBytes, cb.trafficBytes)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.walkBytes, cb.walkBytes)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.tlbHits, cb.tlbHits)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.tlbMisses, cb.tlbMisses)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.walks, cb.walks)
                << "mix " << i << " core " << c;
            EXPECT_EQ(ca.layerFinishLocal, cb.layerFinishLocal)
                << "mix " << i << " core " << c;
        }
    }
    EXPECT_EQ(runner2.lastStats().skipped, 5u);
    EXPECT_EQ(runner2.lastStats().ok, jobs.size() - 5);
    // Throughput counts only executed jobs: a mostly-restored resume
    // must not report inflated runs/s.
    EXPECT_EQ(runner2.lastStats().executed, jobs.size() - 5);
    // Progress counts restored jobs as already done: the first callback
    // reports 6/12, the last 12/12.
    ASSERT_EQ(seen.size(), jobs.size() - 5);
    EXPECT_EQ(seen.front(), 6u);
    EXPECT_EQ(seen.back(), jobs.size());

    // Phase 3: everything is checkpointed now — nothing re-executes.
    ExperimentContext context3(sweepArch(), sweepMem());
    registerSweepNetworks(context3);
    SweepRunner runner3(2);
    auto all_skipped = runner3.run(context3, jobs, options);
    for (const auto &record : all_skipped)
        EXPECT_EQ(record.status, SweepStatus::Skipped);
    EXPECT_EQ(runner3.lastStats().skipped, jobs.size());
    EXPECT_EQ(runner3.lastStats().executed, 0u);
    EXPECT_EQ(runner3.lastStats().runsPerSecond, 0.0);
    std::remove(path.c_str());
}

TEST(SweepRunnerTest, ResumeReexecutesLegacyRecordsWithoutTelemetry)
{
    const std::string path = tempCheckpointPath("mnpu_ckpt_legacy.jsonl");
    SweepJob job;
    job.models = {"net0", "net1"};
    ExperimentContext context(sweepArch(), sweepMem());
    registerSweepNetworks(context);
    const std::string key = sweepJobKey(job, context.arch(),
                                        context.mem(), context.scale());

    // A v1 (pre-telemetry) ok record for this exact job: it carries
    // cycles but no raw counters, so restoring it would hand benches
    // zeros for TLB/DRAM/traffic aggregates.
    {
        std::ofstream file(path);
        file << "{\"key\":\"" << key
             << "\",\"status\":\"ok\",\"error\":\"\","
             << "\"wall_seconds\":1,\"models\":[\"net0\",\"net1\"],"
             << "\"speedups\":[1,1],\"slowdowns\":[1,1],"
             << "\"geomean_speedup\":1,\"fairness\":1,"
             << "\"local_cycles\":[1,1],\"global_cycles\":1}\n";
    }

    SweepOptions options;
    options.checkpointPath = path;
    options.resume = true;
    SweepRunner runner(1);
    auto records = runner.run(context, {job}, options);
    ASSERT_EQ(records.size(), 1u);
    // Re-executed (Ok), not restored (Skipped): real telemetry, not
    // the legacy record's zeroed counters.
    EXPECT_EQ(records[0].status, SweepStatus::Ok);
    ASSERT_EQ(records[0].outcome.raw.cores.size(), 2u);
    EXPECT_GT(records[0].outcome.raw.cores[0].trafficBytes, 0u);

    // The re-execution appended a v2 record (last one wins), so a
    // second resume restores with telemetry intact.
    SweepRunner runner2(1);
    auto again = runner2.run(context, {job}, options);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].status, SweepStatus::Skipped);
    EXPECT_EQ(again[0].outcome.raw.cores[0].trafficBytes,
              records[0].outcome.raw.cores[0].trafficBytes);
    EXPECT_EQ(again[0].outcome.raw.cores[1].tlbMisses,
              records[0].outcome.raw.cores[1].tlbMisses);
    std::remove(path.c_str());
}

TEST(SweepRunnerTest, ResumeDoesNotAliasDifferentContexts)
{
    // Two ablation arms sharing one checkpoint file (as the per-figure
    // benches do): the same job under a different context — here the
    // DRAM row policy — is a different simulation and must execute,
    // not restore the other arm's record.
    const std::string path = tempCheckpointPath("mnpu_ckpt_alias.jsonl");
    SweepJob job;
    job.models = {"net0", "net1"};
    SweepOptions options;
    options.checkpointPath = path;
    options.resume = true;

    ExperimentContext open_context(sweepArch(), sweepMem());
    registerSweepNetworks(open_context);
    SweepRunner runner(1);
    auto first = runner.run(open_context, {job}, options);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].status, SweepStatus::Ok);

    NpuMemConfig closed_mem = sweepMem();
    closed_mem.timing.rowPolicy = RowPolicy::Closed;
    ExperimentContext closed_context(sweepArch(), closed_mem);
    registerSweepNetworks(closed_context);
    auto second = runner.run(closed_context, {job}, options);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].status, SweepStatus::Ok);

    // Both arms are checkpointed under distinct keys: re-running each
    // context restores its own record.
    auto first_again = runner.run(open_context, {job}, options);
    auto second_again = runner.run(closed_context, {job}, options);
    EXPECT_EQ(first_again[0].status, SweepStatus::Skipped);
    EXPECT_EQ(second_again[0].status, SweepStatus::Skipped);
    EXPECT_EQ(first_again[0].outcome.raw.dramRowHits,
              first[0].outcome.raw.dramRowHits);
    EXPECT_EQ(second_again[0].outcome.raw.dramRowHits,
              second[0].outcome.raw.dramRowHits);
    std::remove(path.c_str());
}

TEST(SweepRunnerTest, PresetStopTokenCancelsWithoutCheckpointing)
{
    const std::string path = tempCheckpointPath("mnpu_ckpt_cancel.jsonl");
    auto jobs = dualSweepJobs();
    ExperimentContext context(sweepArch(), sweepMem());
    registerSweepNetworks(context);
    SweepRunner runner(2);
    std::atomic<bool> stop{true};
    SweepOptions options;
    options.checkpointPath = path;
    options.stopToken = &stop;
    auto records = runner.run(context, jobs, options);
    ASSERT_EQ(records.size(), jobs.size());
    for (const auto &record : records) {
        EXPECT_EQ(record.status, SweepStatus::Skipped);
        EXPECT_NE(record.error.find("cancelled"), std::string::npos);
    }
    EXPECT_EQ(runner.lastStats().skipped, jobs.size());
    // Cancelled jobs are never checkpointed: a later resume re-runs
    // them instead of trusting metrics that were never computed.
    EXPECT_TRUE(loadSweepCheckpoint(path).empty());
    std::remove(path.c_str());
}

// --- Checkpoint serialization ---

TEST(SweepCheckpointTest, JsonLineRoundTripsIncludingNanAndEscapes)
{
    SweepCheckpointRecord record;
    record.key = "00deadbeef00cafe";
    record.status = SweepStatus::Failed;
    record.error = "bad \"model\" \\ name\nwith\tcontrol\x01 bytes";
    record.wallSeconds = 1.25;
    record.models = {"net0", "weird\"name"};
    record.speedups = {0.5, std::numeric_limits<double>::quiet_NaN()};
    record.slowdowns = {2.0, 1.0 / 3.0};
    record.geomeanSpeedup = std::numeric_limits<double>::quiet_NaN();
    record.fairnessValue = 0.875;
    // Above 2^53: a double round-trip would silently lose precision,
    // so integer counters must survive exactly.
    record.localCycles = {(1ULL << 53) + 1, 42ULL};
    record.globalCycles = (1ULL << 62) + 12345ULL;
    record.finishedAtGlobal = {(1ULL << 53) + 3, 40ULL};
    record.peUtilization = {0.625, 1.0 / 7.0};
    record.trafficBytes = {1ULL << 40, 2048ULL};
    record.walkBytes = {4096ULL, 0ULL};
    record.tlbHits = {100ULL, 200ULL};
    record.tlbMisses = {7ULL, (1ULL << 60) + 9};
    record.walks = {5ULL, 6ULL};
    record.layerFinishLocal = {{1ULL, 2ULL, (1ULL << 55) + 1}, {}};
    record.dramEnergyPj = 1.5e12;
    record.dramRowHits = 1234ULL;
    record.dramRowMisses = (1ULL << 54) + 5;

    SweepCheckpointRecord parsed;
    ASSERT_TRUE(parseJsonLine(toJsonLine(record), parsed));
    EXPECT_EQ(parsed.key, record.key);
    EXPECT_EQ(parsed.version, kSweepCheckpointVersion);
    EXPECT_EQ(parsed.status, SweepStatus::Failed);
    EXPECT_EQ(parsed.error, record.error);
    EXPECT_DOUBLE_EQ(parsed.wallSeconds, 1.25);
    EXPECT_EQ(parsed.models, record.models);
    ASSERT_EQ(parsed.speedups.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.speedups[0], 0.5);
    EXPECT_TRUE(std::isnan(parsed.speedups[1])); // null -> NaN
    ASSERT_EQ(parsed.slowdowns.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.slowdowns[1], 1.0 / 3.0);
    EXPECT_TRUE(std::isnan(parsed.geomeanSpeedup));
    EXPECT_DOUBLE_EQ(parsed.fairnessValue, 0.875);
    EXPECT_EQ(parsed.localCycles, record.localCycles);
    EXPECT_EQ(parsed.globalCycles, record.globalCycles);
    EXPECT_EQ(parsed.finishedAtGlobal, record.finishedAtGlobal);
    ASSERT_EQ(parsed.peUtilization.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.peUtilization[0], 0.625);
    EXPECT_DOUBLE_EQ(parsed.peUtilization[1], 1.0 / 7.0);
    EXPECT_EQ(parsed.trafficBytes, record.trafficBytes);
    EXPECT_EQ(parsed.walkBytes, record.walkBytes);
    EXPECT_EQ(parsed.tlbHits, record.tlbHits);
    EXPECT_EQ(parsed.tlbMisses, record.tlbMisses);
    EXPECT_EQ(parsed.walks, record.walks);
    EXPECT_EQ(parsed.layerFinishLocal, record.layerFinishLocal);
    EXPECT_DOUBLE_EQ(parsed.dramEnergyPj, 1.5e12);
    EXPECT_EQ(parsed.dramRowHits, record.dramRowHits);
    EXPECT_EQ(parsed.dramRowMisses, record.dramRowMisses);
}

TEST(SweepCheckpointTest, ParseValidatesUnicodeEscapes)
{
    SweepCheckpointRecord record;
    // Non-hex digits after \u must reject the line, not inject NUL.
    EXPECT_FALSE(parseJsonLine(
        "{\"key\":\"k\",\"error\":\"\\uZZZZ\"}", record));
    // Code points above 0xFF would need UTF-8 encoding the reader
    // does not do; the writer never emits them.
    EXPECT_FALSE(parseJsonLine(
        "{\"key\":\"k\",\"error\":\"\\u0100\"}", record));
    ASSERT_TRUE(parseJsonLine(
        "{\"key\":\"k\",\"error\":\"\\u0001\"}", record));
    EXPECT_EQ(record.error, std::string(1, '\x01'));
}

TEST(SweepCheckpointTest, VersionDefaultsToLegacyWhenAbsent)
{
    SweepCheckpointRecord record;
    ASSERT_TRUE(parseJsonLine("{\"key\":\"k1\",\"status\":\"ok\"}",
                              record));
    EXPECT_EQ(record.version, 1u);
    ASSERT_TRUE(parseJsonLine(
        "{\"key\":\"k2\",\"v\":2,\"status\":\"ok\"}", record));
    EXPECT_EQ(record.version, 2u);
}

TEST(SweepCheckpointTest, ParseRejectsTornAndForeignLines)
{
    SweepCheckpointRecord record;
    EXPECT_FALSE(parseJsonLine("", record));
    EXPECT_FALSE(parseJsonLine("{\"key\":\"abc", record)); // torn tail
    EXPECT_FALSE(parseJsonLine("{\"status\":\"ok\"}", record)); // no key
    EXPECT_FALSE(parseJsonLine("not json at all", record));
    // Not JSON, and never written by toJsonLine: a bare nan and a raw
    // control byte inside a string.
    EXPECT_FALSE(parseJsonLine(
        "{\"key\":\"k\",\"wall_seconds\":nan}", record));
    EXPECT_FALSE(parseJsonLine(
        "{\"key\":\"k\",\"error\":\"a\x01\"}", record));
    // The worker heartbeat shares the IPC wire but has no "key".
    EXPECT_FALSE(parseJsonLine("{\"hb\":3}", record));
    // Unknown fields from a newer writer are skipped, not fatal.
    EXPECT_TRUE(parseJsonLine(
        "{\"key\":\"k1\",\"future_field\":[1,2,3],\"status\":\"ok\"}",
        record));
    EXPECT_EQ(record.key, "k1");
    EXPECT_EQ(record.status, SweepStatus::Ok);
}

TEST(SweepCheckpointTest, ParseRejectsDeepNestingWithoutCrashing)
{
    // A corrupt line nested a million deep must be "malformed", not a
    // stack overflow that takes --resume or the supervisor down.
    const std::string depth(1000000, '[');
    const std::string line = "{\"key\":\"k\",\"x\":" + depth +
                             std::string(depth.size(), ']') + "}";
    SweepCheckpointRecord record;
    EXPECT_FALSE(parseJsonLine(line, record));
}

TEST(SweepCheckpointTest, JobKeyDiscriminatesConfigMemArchAndModels)
{
    const ArchConfig arch = sweepArch();
    const NpuMemConfig mem = sweepMem();
    const ModelScale scale = ModelScale::Mini;
    SweepJob job;
    job.models = {"net0", "net1"};
    auto key = [&](const SweepJob &j, const ArchConfig &a,
                   const NpuMemConfig &m, ModelScale s) {
        return sweepJobKey(j, a, m, s);
    };
    const std::string base = key(job, arch, mem, scale);
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(key(job, arch, mem, scale), base); // stable across calls

    SweepJob other = job;
    other.config.level = SharingLevel::Static; // default is ShareDWT
    EXPECT_NE(key(other, arch, mem, scale), base);

    other = job;
    other.models = {"net1", "net0"}; // order = core assignment
    EXPECT_NE(key(other, arch, mem, scale), base);

    other = job;
    other.config.maxGlobalCycles = 10;
    EXPECT_NE(key(other, arch, mem, scale), base);

    NpuMemConfig other_mem = mem;
    other_mem.pageBytes *= 2;
    EXPECT_NE(key(job, arch, other_mem, scale), base);

    // Context-level knobs benches ablate across sweeps must
    // discriminate too, or different ablation arms alias in one
    // checkpoint file (the row-policy bench once restored the open-
    // policy sweep's records for the closed-policy sweep).
    other_mem = mem;
    other_mem.timing.rowPolicy = RowPolicy::Closed;
    EXPECT_NE(key(job, arch, other_mem, scale), base);

    other_mem = mem;
    other_mem.timing.tCL += 1;
    EXPECT_NE(key(job, arch, other_mem, scale), base);

    ArchConfig other_arch = arch;
    other_arch.dataflow = Dataflow::WeightStationary;
    EXPECT_NE(key(job, other_arch, mem, scale), base);

    other_arch = arch;
    other_arch.spmBytes *= 2;
    EXPECT_NE(key(job, other_arch, mem, scale), base);

    EXPECT_NE(key(job, arch, mem, ModelScale::Full), base);
}

// --- ExperimentContext cache keying (the '#' collision bugfix) ---

TEST(ExperimentContextTest, HashInNetworkNameDoesNotCollide)
{
    // The Ideal cache used to be keyed "model#multiplier", which made
    // registered network names containing '#' ambiguous against the
    // separator; the (name, multiplier) pair key cannot collide. Two
    // different tiny networks named "a" and "a#1" must keep distinct
    // baselines.
    ExperimentContext context(sweepArch(), sweepMem());
    Network plain = sweepNetwork(0);
    plain.name = "a";
    Network hashed = sweepNetwork(2);
    hashed.name = "a#1";
    context.registerNetwork(plain);
    context.registerNetwork(hashed);
    double plain_cycles = context.idealCycles("a", 1);
    double hashed_cycles = context.idealCycles("a#1", 1);
    EXPECT_NE(hashed_cycles, plain_cycles);

    // A fresh context computes the same values: the cache entries are
    // keyed independently, not overwriting each other.
    ExperimentContext fresh(sweepArch(), sweepMem());
    fresh.registerNetwork(plain);
    fresh.registerNetwork(hashed);
    EXPECT_EQ(fresh.idealCycles("a#1", 1), hashed_cycles);
    EXPECT_EQ(fresh.idealCycles("a", 1), plain_cycles);
}

} // namespace
} // namespace mnpu
