/**
 * @file
 * Tests for durable in-flight snapshots (DESIGN.md §12): the
 * StateWriter/StateReader codec, the versioned+checksummed file
 * format with atomic persistence, and the correctness ratchet the
 * whole feature hangs on — for every committed golden mix,
 * snapshot-at-cycle-N + restore + run-to-completion must
 * produce byte-identical checkpoint-v2 telemetry (and an identical
 * DRAM command-stream hash) versus the uninterrupted run.
 *
 * Also drilled here:
 *  - snapshot writes are passive: a run that snapshots is
 *    bit-identical to one that does not;
 *  - a resumed run's next snapshot is byte-identical to the clean
 *    run's at the same cycle (every loadState restores every field);
 *  - a checksum-corrupted snapshot is rejected and the run falls
 *    back to from-scratch with the same final result;
 *  - a SIGKILLed process-mode worker is contained as an ordinary
 *    retry (never quarantined) and its recovered record matches the
 *    clean run bit-for-bit — for both the snapshot-kill and
 *    snapshot-corrupt fault drills;
 *  - the snapshot drills and cadence are durability policy, not
 *    simulated behavior: they never change sweepJobKey;
 *  - a second SIGTERM arriving mid-write unlinks the partial
 *    `.snap.tmp` before the force-exit (satellite regression).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "analysis/process_pool.hh"
#include "analysis/sweep_checkpoint.hh"
#include "analysis/sweep_runner.hh"
#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/snapshot.hh"
#include "common/stop_signal.hh"
#include "dram/dram_system.hh"
#include "sim/multi_core_system.hh"
#include "sw/network.hh"

namespace mnpu
{
namespace
{

std::string
tempPath(const std::string &name)
{
    // Pid-suffixed so concurrently running test binaries (plain +
    // sanitizer builds side by side) never collide on a snapshot.
    std::string path = ::testing::TempDir() + name + "." +
                       std::to_string(::getpid());
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
}

// --- Codec ---

TEST(SnapshotCodecTest, WriterReaderRoundTripIsBitExact)
{
    StateWriter writer;
    writer.section("TEST");
    writer.u8(0xab);
    writer.b(true);
    writer.b(false);
    writer.u32(0xdeadbeef);
    writer.u64(0x0123456789abcdefULL);
    writer.i64(-42);
    writer.d(3.141592653589793);
    writer.d(-0.0);
    writer.d(1e-310); // subnormal: raw bit pattern must survive
    writer.str("hello snapshot");
    writer.str("");
    writer.u64Vec({1, 2, 3, 0xffffffffffffffffULL});
    writer.u64Vec({});
    writer.section("DONE");

    StateReader reader(writer.bytes());
    reader.section("TEST");
    EXPECT_EQ(reader.u8(), 0xab);
    EXPECT_TRUE(reader.b());
    EXPECT_FALSE(reader.b());
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(reader.i64(), -42);
    EXPECT_EQ(reader.d(), 3.141592653589793);
    const double negzero = reader.d();
    EXPECT_EQ(negzero, 0.0);
    EXPECT_TRUE(std::signbit(negzero));
    EXPECT_EQ(reader.d(), 1e-310);
    EXPECT_EQ(reader.str(), "hello snapshot");
    EXPECT_EQ(reader.str(), "");
    EXPECT_EQ(reader.u64Vec(),
              (std::vector<std::uint64_t>{1, 2, 3,
                                          0xffffffffffffffffULL}));
    EXPECT_TRUE(reader.u64Vec().empty());
    reader.section("DONE");
    EXPECT_TRUE(reader.atEnd());
}

TEST(SnapshotCodecTest, ReaderRejectsTruncationAndTagMismatch)
{
    StateWriter writer;
    writer.section("CORE");
    writer.u64(7);

    // Truncated payload: every read is bounds-checked.
    StateReader truncated(
        writer.bytes().substr(0, writer.bytes().size() - 3));
    truncated.section("CORE");
    EXPECT_THROW(truncated.u64(), SnapshotError);

    // Drifted loader: a wrong section tag is a precise error, not
    // garbage state.
    StateReader drifted(writer.bytes());
    EXPECT_THROW(drifted.section("DRAM"), SnapshotError);

    // A string whose declared length walks past the end must throw
    // instead of reading out of bounds.
    StateWriter lying;
    lying.u64(1 << 20);
    StateReader hostile(lying.bytes());
    EXPECT_THROW(hostile.str(), SnapshotError);
}

TEST(SnapshotCodecTest, SequenceLongerThanPayloadIsRejectedBeforeGrowing)
{
    // A hostile length prefix must surface as a SnapshotError, the one
    // error restores contain, not as a failed allocation.
    StateWriter lying;
    lying.u64(std::uint64_t{1} << 60);
    lying.u64(0);
    std::vector<DramRequest> requests;
    StateReader in(lying.bytes());
    EXPECT_THROW(in.seq(requests,
                        [&in](auto &request) { visitRequest(in, request); }),
                 SnapshotError);
    EXPECT_TRUE(requests.empty());
}

TEST(SnapshotCodecTest, ChecksumDetectsSingleBitFlip)
{
    std::string payload = "the quick brown fox";
    const std::uint64_t before =
        snapshotChecksum(payload.data(), payload.size());
    payload[5] ^= 0x01;
    EXPECT_NE(before, snapshotChecksum(payload.data(), payload.size()));
}

// --- File format ---

TEST(SnapshotFileTest, RoundTripPersistsAtomically)
{
    const std::string path = tempPath("roundtrip.snap");
    const std::string payload = "payload bytes \x00\x01\x02 with nul";
    ASSERT_TRUE(writeSnapshotFile(path, payload));
    // The tmp staging file must never outlive the rename.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    const auto loaded = readSnapshotFile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload);
    std::remove(path.c_str());
}

TEST(SnapshotFileTest, RejectsMissingCorruptAndUnknownVersion)
{
    const std::string path = tempPath("reject.snap");

    // Missing file: quiet "no snapshot".
    EXPECT_FALSE(readSnapshotFile(path).has_value());

    // Checksum corruption at rest (the snapshot-corrupt drill).
    ASSERT_TRUE(writeSnapshotFile(path, "some payload"));
    ASSERT_TRUE(corruptSnapshotAtRest(path));
    EXPECT_FALSE(readSnapshotFile(path).has_value());

    // Unknown format version: flip a version byte (offset 8, right
    // after the 8-byte magic). Must be discarded, never aborted on.
    ASSERT_TRUE(writeSnapshotFile(path, "some payload"));
    {
        std::fstream file(path,
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekp(8);
        const char future = static_cast<char>(kSnapshotFormatVersion + 1);
        file.write(&future, 1);
    }
    EXPECT_FALSE(readSnapshotFile(path).has_value());

    // Bad magic / not a snapshot at all.
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << "definitely not a snapshot";
    }
    EXPECT_FALSE(readSnapshotFile(path).has_value());

    // Short file (header truncated mid-write would be caught too,
    // though the atomic rename makes that unobservable in practice).
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << "MNPU";
    }
    EXPECT_FALSE(readSnapshotFile(path).has_value());
    std::remove(path.c_str());
}

// --- Golden interrupt/resume equivalence (the ratchet) ---

/**
 * Run one golden case interrupted-then-resumed: phase 1 snapshots on
 * a cadence and is cut off by a cycle cap roughly halfway; phase 2
 * restores from the snapshot file and runs to completion. Returns the
 * resumed record in fixture form; @p resumedAt reports the cycle the
 * second phase continued from (0 = it started from scratch).
 */
SweepCheckpointRecord
runGoldenResumed(const GoldenCase &golden, FidelityKind fidelity,
                 Cycle totalCycles, Cycle *resumedAt)
{
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    // These resume runs are compared against runGoldenCase(), which
    // pins the DRAM backend; pin here too so a MNPU_MEM_BACKEND
    // process default cannot make the two sides diverge.
    mem.backend = MemBackendKind::Dram;
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.dramBandwidthShares = golden.dramBandwidthShares;
    config.fidelity = fidelity;

    const std::string path = tempPath("golden-" + golden.name + ".snap");

    RunBudget interrupted;
    interrupted.maxGlobalCycles = totalCycles / 2;
    interrupted.snapshot.path = path;
    interrupted.snapshot.everyCycles =
        std::max<Cycle>(1, totalCycles / 8);
    try {
        context.runMix(config, golden.models, interrupted);
        ADD_FAILURE() << golden.name
                      << ": interrupted phase ran to completion";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::CycleBudget)
            << error.what();
    }

    RunBudget resume;
    resume.snapshot.path = path;
    SweepRecord record;
    record.outcome = context.runMix(config, golden.models, resume);
    record.wallSeconds = 0;
    record.status = SweepStatus::Ok;
    if (resumedAt != nullptr)
        *resumedAt = record.outcome.raw.resumedAtCycle;
    // removeOnSuccess: a completed run never leaves a stale snapshot
    // for a later resume to trip over.
    EXPECT_FALSE(std::filesystem::exists(path)) << golden.name;
    return checkpointRecordOf(golden.name, record);
}

TEST(SnapshotResumeTest, GoldenMixesBitIdentical)
{
    for (const GoldenCase &golden : goldenCases()) {
        const SweepCheckpointRecord clean = runGoldenCase(golden);
        ASSERT_GT(clean.globalCycles, 16u) << golden.name;
        Cycle resumed_at = 0;
        const SweepCheckpointRecord resumed = runGoldenResumed(
            golden, FidelityKind::Exact, clean.globalCycles, &resumed_at);
        EXPECT_GT(resumed_at, 0u)
            << golden.name << ": resumed run restarted from zero";
        EXPECT_LT(resumed_at, clean.globalCycles) << golden.name;
        EXPECT_EQ(describeGoldenDiff(clean, resumed), "")
            << golden.name;
        // Byte-identical serialized telemetry, not just field-equal.
        EXPECT_EQ(goldenFixtureText(clean), goldenFixtureText(resumed))
            << golden.name;
    }
}

TEST(SnapshotResumeTest, FastFidelityResumeMatchesCleanFastRun)
{
    // The analytic fast path serializes too: a resumed fast run must
    // agree bit-for-bit with the uninterrupted fast run (which the
    // fidelity envelope then ties to the exact model).
    const GoldenCase &golden = goldenCase("hbm2-dual-res-ncf-dwt");
    const SweepCheckpointRecord clean =
        runGoldenCase(golden, {}, FidelityKind::Fast);
    ASSERT_GT(clean.globalCycles, 16u);
    const SweepCheckpointRecord resumed = runGoldenResumed(
        golden, FidelityKind::Fast, clean.globalCycles, nullptr);
    EXPECT_EQ(describeGoldenDiff(clean, resumed), "");
    EXPECT_EQ(goldenFixtureText(clean), goldenFixtureText(resumed));
}

TEST(SnapshotResumeTest, SnapshotWritesArePassive)
{
    // A run that snapshots on a cadence but is never interrupted must
    // be bit-identical to a run that never snapshots at all — the
    // cadence is durability policy, not simulated behavior.
    const GoldenCase &golden = goldenCase("ddr4-dual-sfrnn-dlrm-dw");
    const SweepCheckpointRecord clean = runGoldenCase(golden);
    ASSERT_GT(clean.globalCycles, 16u);

    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    // These resume runs are compared against runGoldenCase(), which
    // pins the DRAM backend; pin here too so a MNPU_MEM_BACKEND
    // process default cannot make the two sides diverge.
    mem.backend = MemBackendKind::Dram;
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);
    SystemConfig config;
    config.level = golden.level;
    config.fidelity = FidelityKind::Exact;

    const std::string path = tempPath("passive.snap");
    RunBudget budget;
    budget.snapshot.path = path;
    budget.snapshot.everyCycles = std::max<Cycle>(1, clean.globalCycles / 5);
    SweepRecord record;
    record.outcome = context.runMix(config, golden.models, budget);
    record.wallSeconds = 0;
    EXPECT_EQ(record.outcome.raw.resumedAtCycle, 0u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(goldenFixtureText(clean),
              goldenFixtureText(checkpointRecordOf(golden.name, record)));
}

TEST(SnapshotResumeTest, DramCommandStreamHashSurvivesResume)
{
    // Under CheckLevel::Full the protocol checker hashes every DRAM
    // command it sees. The hash of an interrupted+resumed run must
    // equal the uninterrupted run's: the restored DRAM state replays
    // the exact same command stream from the snapshot point on.
    const GoldenCase &golden = goldenCase("hbm2-dual-res-ncf-dwt");
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    // These resume runs are compared against runGoldenCase(), which
    // pins the DRAM backend; pin here too so a MNPU_MEM_BACKEND
    // process default cannot make the two sides diverge.
    mem.backend = MemBackendKind::Dram;
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.fidelity = FidelityKind::Exact;
    config.mem = context.mem();
    config.checkLevel = CheckLevel::Full;

    auto build = [&]() {
        std::vector<CoreBinding> bindings;
        for (const std::string &model : golden.models) {
            CoreBinding binding;
            binding.trace = context.trace(model);
            bindings.push_back(std::move(binding));
        }
        return std::make_unique<MultiCoreSystem>(config,
                                                 std::move(bindings));
    };

    auto clean_system = build();
    const SimResult clean = clean_system->run();
    const std::uint64_t clean_hash =
        clean_system->memory().protocolStreamHash();
    ASSERT_GT(clean.globalCycles, 16u);

    const std::string path = tempPath("streamhash.snap");
    RunBudget interrupted;
    interrupted.maxGlobalCycles = clean.globalCycles / 2;
    interrupted.snapshot.path = path;
    interrupted.snapshot.everyCycles = clean.globalCycles / 8;
    auto killed_system = build();
    EXPECT_THROW(killed_system->run(interrupted), SimulationError);
    ASSERT_TRUE(std::filesystem::exists(path));

    auto resumed_system = build();
    ASSERT_TRUE(resumed_system->tryRestoreSnapshot(path));
    RunBudget resume;
    resume.snapshot.path = path; // for removeOnSuccess cleanup
    const SimResult resumed = resumed_system->run(resume);
    EXPECT_GT(resumed.resumedAtCycle, 0u);
    EXPECT_GT(resumed.resumedAtIteration, 0u);
    EXPECT_EQ(resumed.globalCycles, clean.globalCycles);
    EXPECT_EQ(resumed_system->memory().protocolStreamHash(), clean_hash);
    EXPECT_FALSE(std::filesystem::exists(path));
}

/** The run point ("RUNL" cycle) a snapshot payload was taken at. */
Cycle
snapshotCycle(const std::string &payload)
{
    StateReader in(payload);
    in.u64(); // config fingerprint
    in.section("RUNL");
    return in.u64();
}

/** One mix the snapshot-rewrite test runs, on one memory stack. */
struct RewriteCase
{
    std::string name;
    GoldenCase golden;
    MemBackendKind backend = MemBackendKind::Dram;
    bool fabric = false;
};

TEST(SnapshotResumeTest, ResumedRunRewritesIdenticalSnapshots)
{
    // Restore from the snapshot taken at the k-th cadence point, run
    // on, and the next snapshot must equal the clean run's byte for
    // byte. Every component's state is written again after the
    // restore, so a field some loadState skips or misreads shows up
    // here even when it never moves a cycle count. Under --check full
    // with both telemetry windows set, so the checker, lifecycle and
    // tracer sections are in the payload too.
    std::vector<RewriteCase> cases;
    for (const GoldenCase &golden : goldenCases())
        cases.push_back({golden.name, golden});
    cases.push_back({"tiered-xbar-quad",
                     goldenCase("hbm2-quad-res-yt-dlrm-ncf-dwt"),
                     MemBackendKind::Tiered, true});
    cases.push_back({"pcm-dual", goldenCase("hbm2-dual-res-ncf-dwt"),
                     MemBackendKind::Pcm, false});

    for (const RewriteCase &rewrite : cases) {
        SCOPED_TRACE(rewrite.name);
        const GoldenCase &golden = rewrite.golden;
        NpuMemConfig mem = NpuMemConfig::cloudNpu();
        mem.backend = rewrite.backend;
        mem.fabric.enabled = rewrite.fabric;
        mem.timing = DramTiming::preset(golden.protocol);
        ExperimentContext context(ArchConfig::miniNpu(), mem,
                                  ModelScale::Mini);
        SystemConfig config;
        config.level = golden.level;
        config.dramBandwidthShares = golden.dramBandwidthShares;
        config.fidelity = FidelityKind::Exact;
        config.mem = context.mem();
        config.checkLevel = CheckLevel::Full;
        config.telemetryWindow = 1000;
        config.requestTraceWindow = 1000;
        auto build = [&]() {
            std::vector<CoreBinding> bindings;
            for (const std::string &model : golden.models) {
                CoreBinding binding;
                binding.trace = context.trace(model);
                bindings.push_back(std::move(binding));
            }
            return std::make_unique<MultiCoreSystem>(config,
                                                     std::move(bindings));
        };
        const Cycle total = build()->run().globalCycles;
        ASSERT_GT(total, 16u);
        const Cycle every = total / 8;
        // Cut each run half a cadence past a snapshot point, so the
        // file holds the snapshot taken at that point.
        auto cut_after = [&](MultiCoreSystem &system, std::uint64_t k,
                             const std::string &path) {
            RunBudget budget;
            budget.maxGlobalCycles = k * every + every / 2;
            budget.snapshot.path = path;
            budget.snapshot.everyCycles = every;
            EXPECT_THROW(system.run(budget), SimulationError);
            std::optional<std::string> payload = readSnapshotFile(path);
            EXPECT_TRUE(payload.has_value());
            return payload.value_or(std::string{});
        };

        const std::string path = tempPath("rewrite.snap");
        const std::string at_k = cut_after(*build(), 3, path);
        auto resumed_system = build();
        ASSERT_TRUE(resumed_system->tryRestoreSnapshot(path));
        const std::string resumed = cut_after(*resumed_system, 4, path);
        const std::string clean = cut_after(*build(), 4, path);
        std::remove(path.c_str());

        ASSERT_FALSE(at_k.empty());
        ASSERT_FALSE(clean.empty());
        EXPECT_GT(snapshotCycle(resumed), snapshotCycle(at_k))
            << "the resumed run wrote no snapshot of its own";
        EXPECT_EQ(snapshotCycle(resumed), snapshotCycle(clean));
        ASSERT_EQ(resumed.size(), clean.size());
        const auto diverged =
            std::mismatch(resumed.begin(), resumed.end(), clean.begin());
        EXPECT_TRUE(diverged.first == resumed.end())
            << "first differing payload byte at offset "
            << (diverged.first - resumed.begin()) << " of "
            << resumed.size();
    }
}

TEST(SnapshotResumeTest, SigkilledWorkerResumesNotFromZero)
{
    // The acceptance drill in full: a worker SIGKILLed right after
    // its first snapshot persists (the deterministic boundary the
    // snapshot-kill fault site uses) leaves a valid snapshot behind,
    // and the resumed run continues from that cycle — the accounting
    // fields prove it did not restart from zero — landing on the
    // same final result.
    if (builtWithSanitizer())
        GTEST_SKIP() << "simulating inside a forked child wedges "
                        "sanitizer runtimes";

    const GoldenCase &golden = goldenCase("hbm2-dual-res-ncf-dwt");
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    // These resume runs are compared against runGoldenCase(), which
    // pins the DRAM backend; pin here too so a MNPU_MEM_BACKEND
    // process default cannot make the two sides diverge.
    mem.backend = MemBackendKind::Dram;
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.fidelity = FidelityKind::Exact;
    config.mem = context.mem();

    auto build = [&]() {
        std::vector<CoreBinding> bindings;
        for (const std::string &model : golden.models) {
            CoreBinding binding;
            binding.trace = context.trace(model);
            bindings.push_back(std::move(binding));
        }
        return std::make_unique<MultiCoreSystem>(config,
                                                 std::move(bindings));
    };

    auto clean_system = build();
    const SimResult clean = clean_system->run();
    ASSERT_GT(clean.globalCycles, 16u);
    const Cycle cadence = clean.globalCycles / 4;

    const std::string path = tempPath("sigkill.snap");
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // The trace cache is pre-warmed (the clean run above), so the
        // child only reads shared state before it dies.
        RunBudget budget;
        budget.snapshot.path = path;
        budget.snapshot.everyCycles = cadence;
        budget.snapshot.killNth = 1; // SIGKILL after snapshot #1 lands
        auto doomed = build();
        doomed->run(budget);
        ::_exit(97); // unreachable: the drill killed the process
    }
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);
    ASSERT_TRUE(std::filesystem::exists(path));

    auto resumed_system = build();
    ASSERT_TRUE(resumed_system->tryRestoreSnapshot(path));
    RunBudget resume;
    resume.snapshot.path = path;
    const SimResult resumed = resumed_system->run(resume);
    EXPECT_GE(resumed.resumedAtCycle, cadence);
    EXPECT_LT(resumed.resumedAtCycle, clean.globalCycles);
    EXPECT_GT(resumed.resumedAtIteration, 0u);
    EXPECT_EQ(resumed.globalCycles, clean.globalCycles);
    EXPECT_EQ(resumed.dramEnergyPj, clean.dramEnergyPj);
    EXPECT_EQ(resumed.dramRowHits, clean.dramRowHits);
    EXPECT_EQ(resumed.dramRowMisses, clean.dramRowMisses);
    ASSERT_EQ(resumed.cores.size(), clean.cores.size());
    for (std::size_t i = 0; i < clean.cores.size(); ++i) {
        EXPECT_EQ(resumed.cores[i].localCycles,
                  clean.cores[i].localCycles) << i;
        EXPECT_EQ(resumed.cores[i].trafficBytes,
                  clean.cores[i].trafficBytes) << i;
        EXPECT_EQ(resumed.cores[i].tlbMisses,
                  clean.cores[i].tlbMisses) << i;
    }
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SnapshotResumeTest, CorruptSnapshotFallsBackToScratchSameResult)
{
    const GoldenCase &golden = goldenCase("hbm2-dual-yt-alex-d");
    const SweepCheckpointRecord clean = runGoldenCase(golden);
    ASSERT_GT(clean.globalCycles, 16u);

    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    // These resume runs are compared against runGoldenCase(), which
    // pins the DRAM backend; pin here too so a MNPU_MEM_BACKEND
    // process default cannot make the two sides diverge.
    mem.backend = MemBackendKind::Dram;
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);
    SystemConfig config;
    config.level = golden.level;
    config.fidelity = FidelityKind::Exact;

    const std::string path = tempPath("corrupt-resume.snap");
    RunBudget interrupted;
    interrupted.maxGlobalCycles = clean.globalCycles / 2;
    interrupted.snapshot.path = path;
    interrupted.snapshot.everyCycles = clean.globalCycles / 8;
    EXPECT_THROW(context.runMix(config, golden.models, interrupted),
                 SimulationError);
    ASSERT_TRUE(std::filesystem::exists(path));
    ASSERT_TRUE(corruptSnapshotAtRest(path));

    // The checksum rejects the snapshot; the run falls back to
    // from-scratch and still lands on the identical final record.
    RunBudget resume;
    resume.snapshot.path = path;
    SweepRecord record;
    record.outcome = context.runMix(config, golden.models, resume);
    record.wallSeconds = 0;
    EXPECT_EQ(record.outcome.raw.resumedAtCycle, 0u);
    EXPECT_EQ(goldenFixtureText(clean),
              goldenFixtureText(checkpointRecordOf(golden.name, record)));
}

TEST(SnapshotResumeTest, ConfigFingerprintMismatchIsRejected)
{
    // A snapshot taken under one configuration must not restore into
    // a system built under another (here: another sharing level) —
    // the loader rejects it and the caller runs from scratch.
    const GoldenCase &golden = goldenCase("hbm2-dual-res-ncf-dwt");
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    // These resume runs are compared against runGoldenCase(), which
    // pins the DRAM backend; pin here too so a MNPU_MEM_BACKEND
    // process default cannot make the two sides diverge.
    mem.backend = MemBackendKind::Dram;
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.fidelity = FidelityKind::Exact;
    config.mem = context.mem();

    auto build = [&](SharingLevel level) {
        config.level = level;
        std::vector<CoreBinding> bindings;
        for (const std::string &model : golden.models) {
            CoreBinding binding;
            binding.trace = context.trace(model);
            bindings.push_back(std::move(binding));
        }
        return std::make_unique<MultiCoreSystem>(config,
                                                 std::move(bindings));
    };

    auto donor = build(SharingLevel::ShareDWT);
    const std::string path = tempPath("fingerprint.snap");
    RunBudget interrupted;
    interrupted.maxGlobalCycles = 4096;
    interrupted.snapshot.path = path;
    interrupted.snapshot.everyCycles = 512;
    EXPECT_THROW(donor->run(interrupted), SimulationError);
    ASSERT_TRUE(std::filesystem::exists(path));

    auto mismatched = build(SharingLevel::ShareDW);
    EXPECT_FALSE(mismatched->tryRestoreSnapshot(path));
    // And the same file still restores fine where it belongs.
    auto matched = build(SharingLevel::ShareDWT);
    EXPECT_TRUE(matched->tryRestoreSnapshot(path));
    std::remove(path.c_str());
}

// --- Process-isolated sweep drills ---

ArchConfig
snapArch()
{
    ArchConfig arch;
    arch.name = "snaptiny";
    arch.arrayRows = 16;
    arch.arrayCols = 16;
    arch.spmBytes = 64 << 10;
    arch.dataBytes = 1;
    arch.freqMhz = 1000;
    arch.validate();
    return arch;
}

NpuMemConfig
snapMem()
{
    NpuMemConfig mem;
    mem.channelsPerNpu = 2;
    mem.dramCapacityPerNpu = 64ULL << 20;
    mem.tlbEntriesPerNpu = 64;
    mem.tlbWays = 8;
    mem.ptwPerNpu = 4;
    return mem;
}

void
registerSnapNetworks(ExperimentContext &context)
{
    for (std::uint32_t i = 0; i < 3; ++i) {
        Network net;
        net.name = "snapnet" + std::to_string(i);
        const std::uint64_t m = 160 + 48 * i;
        net.layers.push_back(Layer::gemm("g0", m, 96, 224));
        net.layers.push_back(Layer::gemm("g1", 96, m, 160));
        context.registerNetwork(net);
    }
}

std::vector<SweepJob>
snapJobs()
{
    std::vector<SweepJob> jobs(2);
    jobs[0].models = {"snapnet0", "snapnet1"};
    jobs[1].models = {"snapnet0", "snapnet2"};
    return jobs;
}

std::string
snapshotDirFor(const char *name)
{
    const std::string dir = tempPath(name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

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

/**
 * Drive one snapshot fault drill through the process-isolated sweep:
 * attempt 1 persists a snapshot and dies of SIGKILL (after @p spec's
 * drill fires); the supervisor's retry must recover the job as an
 * ordinary Ok record — never a Crashed quarantine — bit-identical to
 * the drill-free thread-mode run.
 */
void
expectDrillRecovers(const char *spec, const char *dirname)
{
    auto jobs = snapJobs();
    jobs[0].config.faultPlan = parseFaultPlan(spec);

    ExperimentContext context(snapArch(), snapMem());
    registerSnapNetworks(context);
    SweepRunner runner(1);

    SweepOptions clean_options;
    clean_options.isolation = IsolationMode::Thread;
    const auto clean = runner.run(context, snapJobs(), clean_options);
    ASSERT_EQ(clean.size(), 2u);

    SweepOptions options;
    options.isolation = IsolationMode::Process;
    options.keepGoing = true;
    options.workerBackoffSeconds = 0.001; // keep the drill fast
    options.snapshotDir = snapshotDirFor(dirname);
    options.snapshotEveryCycles = 64; // land a snapshot early
    const auto records = runner.run(context, jobs, options);

    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, SweepStatus::Ok) << records[0].error;
    EXPECT_EQ(records[0].attempts, 2u);
    EXPECT_TRUE(records[0].error.empty()) << records[0].error;
    EXPECT_EQ(records[1].status, SweepStatus::Ok);
    EXPECT_EQ(records[1].attempts, 1u);
    EXPECT_EQ(outcomeFingerprint(records[0]),
              outcomeFingerprint(clean[0]));
    EXPECT_EQ(outcomeFingerprint(records[1]),
              outcomeFingerprint(clean[1]));

    const SweepStats &stats = runner.lastStats();
    EXPECT_EQ(stats.workerCrashes, 1u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.crashed, 0u); // contained as a retry, not quarantine
    EXPECT_EQ(stats.ok, 2u);

    // Completed jobs never leave a snapshot behind.
    EXPECT_TRUE(
        std::filesystem::is_empty(options.snapshotDir));
    std::filesystem::remove_all(options.snapshotDir);
}

TEST(SnapshotSweepTest, KilledWorkerRecoversViaSnapshotResume)
{
    expectDrillRecovers("snapshot-kill:1", "snapdir-kill");
}

TEST(SnapshotSweepTest, CorruptedSnapshotDrillFallsBackAndRecovers)
{
    expectDrillRecovers("snapshot-corrupt:1", "snapdir-corrupt");
}

TEST(SnapshotSweepTest, DrillsAreInertInThreadMode)
{
    // raise(SIGKILL) in a thread-mode worker would take the whole
    // campaign; the drills only map in process mode.
    auto jobs = snapJobs();
    jobs[0].config.faultPlan = parseFaultPlan("snapshot-kill:99");
    jobs[1].config.faultPlan = parseFaultPlan("snapshot-corrupt:99");

    ExperimentContext context(snapArch(), snapMem());
    registerSnapNetworks(context);
    SweepRunner runner(1);

    SweepOptions options;
    options.isolation = IsolationMode::Thread;
    options.keepGoing = true;
    options.snapshotDir = snapshotDirFor("snapdir-thread");
    options.snapshotEveryCycles = 64;
    const auto records = runner.run(context, jobs, options);

    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, SweepStatus::Ok);
    EXPECT_EQ(records[0].attempts, 1u);
    EXPECT_EQ(records[1].status, SweepStatus::Ok);
    EXPECT_EQ(records[1].attempts, 1u);
    EXPECT_EQ(runner.lastStats().workerCrashes, 0u);
    std::filesystem::remove_all(options.snapshotDir);
}

TEST(SnapshotSweepTest, DrillsAndCadenceNeverChangeJobKeys)
{
    // Snapshot cadence and the snapshot drills are durability policy:
    // a drilled job must resume against the clean job's checkpoint
    // record, so its sweepJobKey must not move.
    ExperimentContext context(snapArch(), snapMem());
    registerSnapNetworks(context);

    SweepJob clean;
    clean.models = {"snapnet0", "snapnet1"};
    SweepJob drilled = clean;
    drilled.config.faultPlan = parseFaultPlan("snapshot-kill:99");
    SweepJob corrupted = clean;
    corrupted.config.faultPlan = parseFaultPlan("snapshot-corrupt:3");

    const auto key = [&](const SweepJob &job) {
        return sweepJobKey(job, context.arch(), context.mem(),
                           context.scale());
    };
    EXPECT_EQ(key(clean), key(drilled));
    EXPECT_EQ(key(clean), key(corrupted));

    // A genuinely perturbing fault still moves the key.
    SweepJob perturbed = clean;
    perturbed.config.faultPlan = parseFaultPlan("dram-drop:3");
    EXPECT_NE(key(clean), key(perturbed));
}

// --- Second-signal tmp cleanup regression (satellite bugfix) ---

TEST(SnapshotStopSignalTest, SecondSignalUnlinksPartialTmp)
{
    // A second SIGTERM arriving while the snapshot tmp file is being
    // written must unlink the partial tmp on the force-exit path —
    // the rename is atomic, so the tmp is the only possible litter.
    const std::string tmp = tempPath("partial.snap.tmp");
    {
        std::ofstream file(tmp, std::ios::binary);
        file << "half-written snapshot payload";
    }
    ASSERT_TRUE(std::filesystem::exists(tmp));

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        installStopSignalHandlers();
        resetStopSignalForTesting();
        setForceExitCleanupPath(tmp.c_str());
        ::raise(SIGTERM); // first: cooperative
        ::raise(SIGTERM); // second: unlink tmp, then force-exit 130
        ::_exit(99);      // unreachable
    }
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), kInterruptedExitCode);
    EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST(SnapshotStopSignalTest, CleanupPathIsDisarmedAfterRename)
{
    // Once the write completes and the hook is cleared, a force-exit
    // must NOT delete the renamed (complete, valid) snapshot.
    const std::string path = tempPath("armed.snap");
    ASSERT_TRUE(writeSnapshotFile(path, "durable payload"));

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        installStopSignalHandlers();
        resetStopSignalForTesting();
        // writeSnapshotFile arms + disarms internally; after it
        // returns, the force-exit path must have nothing to unlink.
        if (!writeSnapshotFile(path, "durable payload"))
            ::_exit(98);
        ::raise(SIGTERM);
        ::raise(SIGTERM);
        ::_exit(99); // unreachable
    }
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), kInterruptedExitCode);
    EXPECT_TRUE(std::filesystem::exists(path));
    ASSERT_TRUE(readSnapshotFile(path).has_value());
    std::remove(path.c_str());
}

} // namespace
} // namespace mnpu
