/**
 * @file
 * Tests for the simulation integrity layer (common/integrity.hh) and
 * the deterministic fault injector (common/fault_injection.hh):
 * option parsing, direct DRAM-protocol-checker replays of hand-built
 * legal and illegal command sequences (one per violation class),
 * request-lifecycle audits, DramTiming validation diagnostics, and
 * end-to-end drills where each fault class is detected by its checker
 * and contained by SweepRunner --keep-going as a per-mix failure.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/sweep_runner.hh"
#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/integrity.hh"
#include "common/logging.hh"
#include "dram/dram_system.hh"
#include "dram/dram_timing.hh"
#include "sw/network.hh"

namespace mnpu
{
namespace
{

/** Run @p body, asserting it throws SimulationError of @p kind whose
 *  message contains @p needle. */
template <typename Body>
void
expectSimError(Body body, SimErrorKind kind, const std::string &needle)
{
    try {
        body();
        FAIL() << "expected SimulationError{" << toString(kind) << "}";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), kind) << error.what();
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "message '" << error.what() << "' lacks '" << needle << "'";
    }
}

/** Run @p body, asserting it throws FatalError mentioning @p needle. */
template <typename Body>
void
expectFatal(Body body, const std::string &needle)
{
    try {
        body();
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "message '" << error.what() << "' lacks '" << needle << "'";
    }
}

// --- option parsing ---

TEST(IntegrityParseTest, CheckLevelRoundTrip)
{
    const auto &setting = checkLevelSetting();
    EXPECT_EQ(setting.parse("off"), CheckLevel::Off);
    EXPECT_EQ(setting.parse("cheap"), CheckLevel::Cheap);
    EXPECT_EQ(setting.parse("full"), CheckLevel::Full);
    EXPECT_STREQ(toString(CheckLevel::Cheap), "cheap");
    expectFatal([&] { setting.parse("paranoid"); }, "paranoid");
}

TEST(IntegrityParseTest, EffectiveLevelPrecedence)
{
    // An explicitly configured level always wins; the process default
    // (--check) wins over the MNPU_CHECK environment, so these hold
    // even when the suite itself runs under MNPU_CHECK=full (the CI
    // integrity job does exactly that).
    auto &setting = checkLevelSetting();
    setting.setDefault(CheckLevel::Cheap);
    EXPECT_EQ(setting.effective(std::nullopt), CheckLevel::Cheap);
    EXPECT_EQ(setting.effective(CheckLevel::Full), CheckLevel::Full);
    EXPECT_EQ(setting.effective(CheckLevel::Off), CheckLevel::Off);
    setting.clearDefault();
}

TEST(IntegrityParseTest, FaultPlanSpecs)
{
    FaultPlan plan = parseFaultPlan("dram-drop");
    EXPECT_EQ(plan.site, FaultSite::DramDrop);
    EXPECT_EQ(plan.triggerCount, 1u);

    plan = parseFaultPlan("dram-dup:3");
    EXPECT_EQ(plan.site, FaultSite::DramDup);
    EXPECT_EQ(plan.triggerCount, 3u);

    plan = parseFaultPlan("dram-delay:2:200");
    EXPECT_EQ(plan.site, FaultSite::DramDelay);
    EXPECT_EQ(plan.triggerCount, 2u);
    EXPECT_EQ(plan.delayCycles, 200u);

    EXPECT_EQ(parseFaultPlan("pte-corrupt").site, FaultSite::PteCorrupt);
    EXPECT_EQ(parseFaultPlan("core-stall").site, FaultSite::CoreStall);
    EXPECT_EQ(parseFaultPlan("none").site, FaultSite::None);

    expectFatal([] { parseFaultPlan("row-hammer"); }, "row-hammer");
    expectFatal([] { parseFaultPlan("dram-drop:0"); }, "dram-drop:0");
    expectFatal([] { parseFaultPlan("dram-drop:x"); }, "dram-drop:x");
}

TEST(IntegrityParseTest, InjectorFiresExactlyOnceAtTheNthOpportunity)
{
    FaultPlan plan;
    plan.site = FaultSite::DramDrop;
    plan.triggerCount = 3;
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.fire(FaultSite::PteCorrupt)); // wrong site
    EXPECT_FALSE(injector.fire(FaultSite::DramDrop));   // 1st
    EXPECT_FALSE(injector.fire(FaultSite::DramDrop));   // 2nd
    EXPECT_TRUE(injector.fire(FaultSite::DramDrop));    // 3rd fires
    EXPECT_FALSE(injector.fire(FaultSite::DramDrop));   // never again
    EXPECT_TRUE(injector.fired());
}

// --- DRAM protocol checker: hand-built command sequences ---

TEST(DramProtocolCheckerTest, LegalSequenceAccepted)
{
    const DramTiming t = DramTiming::hbm2();
    DramProtocolChecker checker(t, "ch0");
    // ACT, read after tRCD, second read after the bus gap, precharge
    // after tRAS + tRTP, re-activate after tRP. All legal.
    checker.onActivate(0, 0, 5, 100);
    Cycle col = 100 + t.tRCD;
    checker.onColumn(0, 0, 5, false, col);
    col += std::max<Cycle>(t.tCCD, t.burstCycles());
    checker.onColumn(0, 0, 5, false, col);
    const Cycle pre = std::max<Cycle>(100 + t.tRAS, col + t.tRTP);
    checker.onPrecharge(0, pre);
    checker.onActivate(0, 0, 6, pre + t.tRP);
    EXPECT_EQ(checker.commandsChecked(), 5u);
}

TEST(DramProtocolCheckerTest, ColumnBeforeTrcdIsViolation)
{
    const DramTiming t = DramTiming::hbm2();
    DramProtocolChecker checker(t, "ch0");
    checker.onActivate(0, 0, 5, 100);
    expectSimError(
        [&] { checker.onColumn(0, 0, 5, false, 100 + t.tRCD - 1); },
        SimErrorKind::ProtocolViolation, "tRCD");
}

TEST(DramProtocolCheckerTest, FifthActivateInsideTfawIsViolation)
{
    DramTiming t = DramTiming::hbm2();
    t.tFAW = 30;
    t.tRRD = 4;
    DramProtocolChecker checker(t, "ch0");
    // Start at cycle 1 (not 0): the window treats a cycle-0 slot as
    // unfilled, mirroring the channel's leniency.
    checker.onActivate(0, 0, 1, 1);
    checker.onActivate(0, 1, 1, 5);
    checker.onActivate(0, 2, 1, 9);
    checker.onActivate(0, 3, 1, 13);
    // 5th ACT at 17: tRRD-legal, but only 16 cycles after the 1st.
    expectSimError([&] { checker.onActivate(0, 4, 1, 17); },
                   SimErrorKind::ProtocolViolation, "tFAW");
    // After tFAW expires the same ACT is legal.
    DramProtocolChecker relaxed(t, "ch0");
    relaxed.onActivate(0, 0, 1, 1);
    relaxed.onActivate(0, 1, 1, 5);
    relaxed.onActivate(0, 2, 1, 9);
    relaxed.onActivate(0, 3, 1, 13);
    relaxed.onActivate(0, 4, 1, 1 + t.tFAW);
    EXPECT_EQ(relaxed.commandsChecked(), 5u);
}

TEST(DramProtocolCheckerTest, CommandPastRefreshDeadlineIsViolation)
{
    const DramTiming t = DramTiming::hbm2(); // tREFI = 3900
    DramProtocolChecker checker(t, "ch0");
    checker.onActivate(0, 0, 5, 100);
    checker.onColumn(0, 0, 5, false, 100 + t.tRCD);
    expectSimError(
        [&] { checker.onColumn(0, 0, 5, false, t.tREFI + 100); },
        SimErrorKind::ProtocolViolation, "tREFI");
}

TEST(DramProtocolCheckerTest, ColumnToClosedOrWrongRowIsViolation)
{
    const DramTiming t = DramTiming::hbm2();
    DramProtocolChecker checker(t, "ch0");
    checker.onActivate(0, 0, 5, 100);
    expectSimError(
        [&] { checker.onColumn(0, 0, 6, false, 100 + t.tRCD); },
        SimErrorKind::ProtocolViolation, "row-conflict");
    DramProtocolChecker closed(t, "ch0");
    expectSimError([&] { closed.onColumn(0, 0, 5, false, 100); },
                   SimErrorKind::ProtocolViolation, "row-conflict");
}

TEST(DramProtocolCheckerTest, RefreshAdvancesDeadlineAndBlocksBanks)
{
    const DramTiming t = DramTiming::hbm2();
    DramProtocolChecker checker(t, "ch0");
    checker.onRefresh(0, 1000);
    // During tRFC the rank is busy.
    expectSimError([&] { checker.onActivate(0, 0, 5, 1000 + t.tRFC - 1); },
                   SimErrorKind::ProtocolViolation, "tRFC");
    // After tRFC it works, and the deadline moved to 2 x tREFI.
    DramProtocolChecker again(t, "ch0");
    again.onRefresh(0, 1000);
    again.onActivate(0, 0, 5, 1000 + t.tRFC);
    again.onColumn(0, 0, 5, false, 1000 + t.tRFC + t.tRCD);
    EXPECT_EQ(again.commandsChecked(), 3u);
}

// --- request lifecycle tracker ---

TEST(RequestLifecycleTest, RoundTripAndCleanAudit)
{
    RequestLifecycleTracker tracker(1 << 20, 64, 1);
    const auto id = tracker.onIssue(4096, 0, false, 10);
    EXPECT_GT(id, 0u);
    EXPECT_EQ(tracker.outstanding(), 1u);
    tracker.onComplete(id, 4096, 0, false, 50);
    EXPECT_EQ(tracker.outstanding(), 0u);
    EXPECT_EQ(tracker.issuedCount(), 1u);
    tracker.finalAudit({64}, {0}, {0});
}

TEST(RequestLifecycleTest, DuplicatedResponseThrows)
{
    RequestLifecycleTracker tracker(1 << 20, 64, 1);
    const auto id = tracker.onIssue(4096, 0, false, 10);
    tracker.onComplete(id, 4096, 0, false, 50);
    expectSimError([&] { tracker.onComplete(id, 4096, 0, false, 51); },
                   SimErrorKind::RequestLifecycle,
                   "duplicated or unknown");
}

TEST(RequestLifecycleTest, OutOfRangeAddressThrows)
{
    RequestLifecycleTracker tracker(1 << 20, 64, 1);
    expectSimError([&] { tracker.onIssue(1 << 20, 0, false, 10); },
                   SimErrorKind::RequestLifecycle, "physical capacity");
}

TEST(RequestLifecycleTest, MismatchedResponseThrows)
{
    RequestLifecycleTracker tracker(1 << 20, 64, 1);
    const auto id = tracker.onIssue(4096, 0, false, 10);
    expectSimError([&] { tracker.onComplete(id, 8192, 0, false, 50); },
                   SimErrorKind::RequestLifecycle, "does not match");
}

TEST(RequestLifecycleTest, LostResponseIsReportedAndFailsTheAudit)
{
    RequestLifecycleTracker tracker(1 << 20, 64, 1);
    tracker.onIssue(4096, 0, true, 10);
    EXPECT_EQ(tracker.outstanding(), 1u);
    SimulationError lost = tracker.lostResponseError(999);
    EXPECT_EQ(lost.kind(), SimErrorKind::RequestLifecycle);
    EXPECT_NE(std::string(lost.what()).find("lost DRAM response"),
              std::string::npos);
    expectSimError([&] { tracker.finalAudit({0}, {0}, {0}); },
                   SimErrorKind::RequestLifecycle, "lost DRAM response");
}

TEST(RequestLifecycleTest, AuditCatchesByteAndWalkMismatches)
{
    RequestLifecycleTracker tracker(1 << 20, 64, 2);
    const auto data = tracker.onIssue(4096, 0, false, 10);
    tracker.onComplete(data, 4096, 0, false, 40);
    const auto walk = tracker.onIssue(8192, 1, true, 20);
    tracker.onComplete(walk, 8192, 1, true, 60);

    // Clean reconciliation passes.
    tracker.finalAudit({64, 64}, {0, 64}, {0, 1});
    // DRAM byte counter disagrees with the completion count.
    expectSimError([&] { tracker.finalAudit({128, 64}, {0, 64}, {0, 1}); },
                   SimErrorKind::RequestLifecycle, "leak audit");
    // MMU issued more walk steps than ever completed.
    expectSimError([&] { tracker.finalAudit({64, 64}, {0, 64}, {0, 2}); },
                   SimErrorKind::MmuConsistency, "walk reconciliation");
    // SW trace expects a different data-transaction count.
    tracker.setExpectedDataTransactions(0, 7);
    expectSimError([&] { tracker.finalAudit({64, 64}, {0, 64}, {0, 1}); },
                   SimErrorKind::RequestLifecycle, "trace reconciliation");
}

// --- DramTiming validation diagnostics ---

TEST(DramTimingValidationTest, RejectsZeroAndInconsistentTimings)
{
    DramTiming zero = DramTiming::hbm2();
    zero.tRCD = 0;
    expectFatal([&] { zero.validate(); }, "tRCD");

    DramTiming ras = DramTiming::hbm2();
    ras.tRAS = ras.tRCD - 1;
    expectFatal([&] { ras.validate(); }, "tRAS");

    DramTiming refresh = DramTiming::hbm2();
    refresh.tRFC = refresh.tREFI;
    expectFatal([&] { refresh.validate(); }, "tRFC");

    DramTiming faw = DramTiming::hbm2();
    faw.tFAW = faw.tCCD - 1;
    expectFatal([&] { faw.validate(); }, "tFAW");

    // Diagnostics name the preset so config typos are traceable.
    DramTiming named = DramTiming::ddr4();
    named.tWR = 0;
    expectFatal([&] { named.validate(); }, "ddr4");
}

// --- recoverable telemetry accessors (formerly mnpu_assert aborts) ---

TEST(DramSystemTelemetryTest, AccessWithoutEnableThrowsFatal)
{
    DramSystem dram(DramTiming::hbm2(), 2, 1, 32);
    EXPECT_THROW(dram.totalTelemetry(), FatalError);
    EXPECT_THROW(dram.coreTelemetry(0), FatalError);
    expectFatal([&] { dram.totalTelemetry(); }, "enableTelemetry");
}

// --- end-to-end: checkers are passive, faults are contained ---

ArchConfig
integrityArch()
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
integrityMem()
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
integrityNetwork(std::uint32_t index)
{
    Network net;
    net.name = "inet" + std::to_string(index);
    const std::uint64_t m = 128 + 64 * index;
    net.layers.push_back(Layer::gemm("g0", m, 128, 192));
    net.layers.push_back(Layer::gemm("g1", 128, m, 128));
    return net;
}

TEST(IntegrityEndToEndTest, FullChecksAreBitIdenticalToOff)
{
    ExperimentContext context(integrityArch(), integrityMem());
    context.registerNetwork(integrityNetwork(0));
    context.registerNetwork(integrityNetwork(1));

    SystemConfig off;
    off.level = SharingLevel::ShareDWT;
    off.checkLevel = CheckLevel::Off;
    // Pin exact fidelity: this test varies ONLY the check level, but
    // an MNPU_FIDELITY=fast environment would let the unchecked run
    // resolve fast (any armed check forces exact), and the comparison
    // would then measure the fidelity gap instead of check passivity.
    off.fidelity = FidelityKind::Exact;
    MixOutcome base = context.runMix(off, {"inet0", "inet1"});

    SystemConfig full = off;
    full.checkLevel = CheckLevel::Full;
    MixOutcome checked = context.runMix(full, {"inet0", "inet1"});

    ASSERT_EQ(base.raw.cores.size(), checked.raw.cores.size());
    EXPECT_EQ(base.raw.globalCycles, checked.raw.globalCycles);
    for (std::size_t c = 0; c < base.raw.cores.size(); ++c) {
        EXPECT_EQ(base.raw.cores[c].localCycles,
                  checked.raw.cores[c].localCycles)
            << "core " << c;
        EXPECT_EQ(base.raw.cores[c].trafficBytes,
                  checked.raw.cores[c].trafficBytes)
            << "core " << c;
        EXPECT_EQ(base.raw.cores[c].walkBytes,
                  checked.raw.cores[c].walkBytes)
            << "core " << c;
    }
}

TEST(IntegrityEndToEndTest, DelayedResponseStillCompletesUnderFullChecks)
{
    ExperimentContext context(integrityArch(), integrityMem());
    context.registerNetwork(integrityNetwork(0));

    SystemConfig clean;
    clean.checkLevel = CheckLevel::Full;
    MixOutcome base = context.runMix(clean, {"inet0"});

    SystemConfig delayed = clean;
    delayed.faultPlan = parseFaultPlan("dram-delay:40:5000");
    MixOutcome perturbed = context.runMix(delayed, {"inet0"});

    // A held-back completion perturbs timing but loses nothing: the
    // run still passes the full lifecycle audit and cannot finish
    // earlier than the clean run.
    EXPECT_GE(perturbed.raw.globalCycles, base.raw.globalCycles);
}

/** Run a 2-job sweep (job 0 carries the fault, job 1 is clean) and
 *  return the records. */
std::vector<SweepRecord>
containmentSweep(const std::string &inject_spec, Cycle job_max_cycles)
{
    ExperimentContext context(integrityArch(), integrityMem());
    context.registerNetwork(integrityNetwork(0));
    context.registerNetwork(integrityNetwork(1));

    std::vector<SweepJob> jobs(2);
    jobs[0].config.level = SharingLevel::ShareDWT;
    jobs[0].config.checkLevel = CheckLevel::Full;
    jobs[0].config.faultPlan = parseFaultPlan(inject_spec);
    jobs[0].models = {"inet0", "inet1"};
    jobs[1].config.level = SharingLevel::ShareDWT;
    jobs[1].config.checkLevel = CheckLevel::Full;
    jobs[1].models = {"inet0", "inet1"};
    for (SweepJob &job : jobs)
        job.config.maxGlobalCycles = job_max_cycles;

    SweepOptions options;
    options.keepGoing = true;
    SweepRunner runner(1);
    return runner.run(context, jobs, options);
}

void
expectContained(const std::vector<SweepRecord> &records,
                SweepStatus expected_status, const std::string &needle)
{
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, expected_status) << records[0].error;
    EXPECT_NE(records[0].error.find(needle), std::string::npos)
        << "error '" << records[0].error << "' lacks '" << needle << "'";
    // The failed job's metrics are NaN-poisoned, not silently zero.
    EXPECT_TRUE(std::isnan(records[0].outcome.geomeanSpeedup));
    // The co-scheduled clean job is untouched.
    EXPECT_EQ(records[1].status, SweepStatus::Ok) << records[1].error;
    EXPECT_TRUE(std::isfinite(records[1].outcome.geomeanSpeedup));
    EXPECT_GT(records[1].outcome.raw.globalCycles, 0u);
}

TEST(IntegrityContainmentTest, DroppedResponseIsDetectedAndContained)
{
    expectContained(containmentSweep("dram-drop:40", 0),
                    SweepStatus::Failed, "lost DRAM response");
}

TEST(IntegrityContainmentTest, DuplicatedResponseIsDetectedAndContained)
{
    expectContained(containmentSweep("dram-dup:40", 0),
                    SweepStatus::Failed, "duplicated or unknown");
}

TEST(IntegrityContainmentTest, CorruptedPteIsDetectedAndContained)
{
    expectContained(containmentSweep("pte-corrupt:5", 0),
                    SweepStatus::Failed, "translation check");
}

TEST(IntegrityContainmentTest, StalledCoreTimesOutUnderTheWatchdog)
{
    // A frozen pipeline is a livelock: no checker can prove it from
    // one tick, so the cycle-budget watchdog must end the run.
    expectContained(containmentSweep("core-stall:1", 2'000'000),
                    SweepStatus::TimedOut, "cycle");
}

} // namespace
} // namespace mnpu
