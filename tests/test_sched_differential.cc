/**
 * @file
 * Differential stepping tests: the production run loop (gated, event
 * driven, cycle skipping) must be bit-identical to the per-cycle
 * reference (RunBudget::perCycleReference: tick every component at
 * every global cycle) on every golden mix — same cycle counts, same
 * per-core telemetry, same DRAM energy and row stats, and the very
 * same DRAM command stream (FNV-1a hash over every ACT/PRE/RD/WR/REF
 * with its cycle, collected by the full-level protocol checkers). The
 * production loop may differ only in loopIterations, and only
 * downward: it must visit strictly fewer cycles than the reference.
 *
 * The fault-injection drills then repeat the integrity containment
 * matrix of test_integrity.cc on the production loop: every --inject
 * site must be detected (or time out), because an armed injector
 * perturbs timing in ways the sharp event bounds cannot predict (the
 * system falls back to ungated stepping).
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "analysis/sweep_runner.hh"
#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "sim/multi_core_system.hh"

namespace mnpu
{
namespace
{

/**
 * One shared context per DRAM protocol: the golden cases only differ
 * on the memory side by protocol, so sharing a context caches each
 * model's trace and Ideal baseline once across all cases and both
 * steppings.
 */
ExperimentContext &
contextFor(const std::string &protocol)
{
    static std::map<std::string, std::unique_ptr<ExperimentContext>>
        contexts;
    auto &slot = contexts[protocol];
    if (!slot) {
        NpuMemConfig mem = NpuMemConfig::cloudNpu();
        mem.timing = DramTiming::preset(protocol);
        slot = std::make_unique<ExperimentContext>(
            ArchConfig::miniNpu(), mem, ModelScale::Mini);
    }
    return *slot;
}

struct DirectRun
{
    SimResult result;
    std::uint64_t streamHash = 0;
    std::uint64_t commandsChecked = 0;
};

/** Run one golden case directly (full checks), per cycle or not. */
DirectRun
runDirect(const GoldenCase &golden, bool per_cycle_reference)
{
    ExperimentContext &context = contextFor(golden.protocol);
    SystemConfig config;
    config.level = golden.level;
    config.mem = context.mem();
    config.dramBandwidthShares = golden.dramBandwidthShares;
    config.checkLevel = CheckLevel::Full;

    std::vector<CoreBinding> bindings;
    bindings.reserve(golden.models.size());
    for (const std::string &model : golden.models)
        bindings.push_back({context.trace(model), 0, 1});

    MultiCoreSystem system(config, std::move(bindings));
    RunBudget budget;
    budget.perCycleReference = per_cycle_reference;
    DirectRun run;
    run.result = system.run(budget);
    run.streamHash = system.memory().protocolStreamHash();
    run.commandsChecked = system.memory().protocolCommandsChecked();
    return run;
}

/** @p snapshot without sched.loop_iterations, the one metric that
 *  depends on which cycles the loop visits. */
TelemetrySnapshot
withoutLoopIterations(TelemetrySnapshot snapshot)
{
    std::erase_if(snapshot.metrics, [](const TelemetrySnapshot::Metric &m) {
        return m.name == "sched.loop_iterations";
    });
    return snapshot;
}

class SchedDifferential : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(SchedDifferential, EventLoopMatchesPerCycleReference)
{
    const DirectRun ref = runDirect(GetParam(), true);
    const DirectRun run = runDirect(GetParam(), false);

    EXPECT_EQ(ref.result.globalCycles, run.result.globalCycles);
    ASSERT_EQ(ref.result.cores.size(), run.result.cores.size());
    for (std::size_t c = 0; c < ref.result.cores.size(); ++c) {
        const CoreResult &a = ref.result.cores[c];
        const CoreResult &b = run.result.cores[c];
        EXPECT_EQ(a.localCycles, b.localCycles) << "core " << c;
        EXPECT_EQ(a.finishedAtGlobal, b.finishedAtGlobal) << "core " << c;
        EXPECT_EQ(a.peUtilization, b.peUtilization) << "core " << c;
        EXPECT_EQ(a.trafficBytes, b.trafficBytes) << "core " << c;
        EXPECT_EQ(a.walkBytes, b.walkBytes) << "core " << c;
        EXPECT_EQ(a.tlbHits, b.tlbHits) << "core " << c;
        EXPECT_EQ(a.tlbMisses, b.tlbMisses) << "core " << c;
        EXPECT_EQ(a.walks, b.walks) << "core " << c;
        EXPECT_EQ(a.layerFinishLocal, b.layerFinishLocal) << "core " << c;
    }
    EXPECT_EQ(ref.result.dramEnergyPj, run.result.dramEnergyPj);
    EXPECT_EQ(ref.result.dramRowHits, run.result.dramRowHits);
    EXPECT_EQ(ref.result.dramRowMisses, run.result.dramRowMisses);

    // Every other registered counter and gauge, component stats
    // included, must agree too.
    const TelemetrySnapshot ref_telemetry =
        withoutLoopIterations(ref.result.telemetry);
    const TelemetrySnapshot run_telemetry =
        withoutLoopIterations(run.result.telemetry);
    ASSERT_EQ(ref_telemetry.metrics.size(), run_telemetry.metrics.size());
    ASSERT_GT(ref_telemetry.metrics.size(), ref.result.cores.size());
    for (std::size_t i = 0; i < ref_telemetry.metrics.size(); ++i) {
        EXPECT_EQ(ref_telemetry.metrics[i], run_telemetry.metrics[i])
            << ref_telemetry.metrics[i].name;
    }
    EXPECT_TRUE(ref_telemetry.series == run_telemetry.series);

    // The strongest claim: both steppings issued the exact same DRAM
    // command stream at the exact same cycles.
    EXPECT_GT(ref.commandsChecked, 0u);
    EXPECT_EQ(ref.commandsChecked, run.commandsChecked);
    EXPECT_EQ(ref.streamHash, run.streamHash);

    // The reference visits every cycle; the production loop must
    // actually skip on these mixes, not just tie.
    EXPECT_EQ(ref.result.loopIterations, ref.result.globalCycles + 1);
    EXPECT_LT(run.result.loopIterations, ref.result.loopIterations);
}

INSTANTIATE_TEST_SUITE_P(AllGoldenCases, SchedDifferential,
                         testing::ValuesIn(goldenCases()));

// --- fault drills on the production loop ---

ArchConfig
drillArch()
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
drillMem()
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
drillNetwork(std::uint32_t index)
{
    Network net;
    net.name = "dnet" + std::to_string(index);
    const std::uint64_t m = 128 + 64 * index;
    net.layers.push_back(Layer::gemm("g0", m, 128, 192));
    net.layers.push_back(Layer::gemm("g1", 128, m, 128));
    return net;
}

/**
 * Run a 2-job sweep with job 0 carrying the fault and job 1 clean,
 * mirroring the containment matrix in test_integrity.cc.
 */
std::vector<SweepRecord>
eventContainmentSweep(const std::string &inject_spec, Cycle job_max_cycles)
{
    ExperimentContext context(drillArch(), drillMem());
    context.registerNetwork(drillNetwork(0));
    context.registerNetwork(drillNetwork(1));

    std::vector<SweepJob> jobs(2);
    for (SweepJob &job : jobs) {
        job.config.level = SharingLevel::ShareDWT;
        job.config.checkLevel = CheckLevel::Full;
        job.models = {"dnet0", "dnet1"};
        job.config.maxGlobalCycles = job_max_cycles;
    }
    jobs[0].config.faultPlan = parseFaultPlan(inject_spec);

    SweepOptions options;
    options.keepGoing = true;
    SweepRunner runner(1);
    return runner.run(context, jobs, options);
}

void
expectEventContained(const std::vector<SweepRecord> &records,
                     SweepStatus expected_status, const std::string &needle)
{
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, expected_status) << records[0].error;
    EXPECT_NE(records[0].error.find(needle), std::string::npos)
        << "error '" << records[0].error << "' lacks '" << needle << "'";
    EXPECT_EQ(records[1].status, SweepStatus::Ok) << records[1].error;
    EXPECT_GT(records[1].outcome.raw.globalCycles, 0u);
}

TEST(EventFaultDrillTest, DroppedResponseIsDetected)
{
    expectEventContained(eventContainmentSweep("dram-drop:40", 0),
                         SweepStatus::Failed, "lost DRAM response");
}

TEST(EventFaultDrillTest, DuplicatedResponseIsDetected)
{
    expectEventContained(eventContainmentSweep("dram-dup:40", 0),
                         SweepStatus::Failed, "duplicated or unknown");
}

TEST(EventFaultDrillTest, CorruptedPteIsDetected)
{
    expectEventContained(eventContainmentSweep("pte-corrupt:5", 0),
                         SweepStatus::Failed, "translation check");
}

TEST(EventFaultDrillTest, StalledCoreTimesOutUnderTheWatchdog)
{
    expectEventContained(eventContainmentSweep("core-stall:1", 2'000'000),
                         SweepStatus::TimedOut, "cycle");
}

TEST(EventFaultDrillTest, DelayedResponseCompletesIdenticallyToCycle)
{
    // dram-delay is the one fault the run survives; the perturbed
    // timeline must still match the per-cycle reference (the injector
    // disables event gating, so both steppings replay the same
    // faultful history cycle for cycle).
    ExperimentContext context(drillArch(), drillMem());
    context.registerNetwork(drillNetwork(0));

    SimResult results[2];
    for (int i = 0; i < 2; ++i) {
        SystemConfig config;
        config.checkLevel = CheckLevel::Full;
        config.faultPlan = parseFaultPlan("dram-delay:40:5000");
        RunBudget budget;
        budget.perCycleReference = i == 0;
        results[i] = context.runMix(config, {"dnet0"}, budget).raw;
    }
    EXPECT_EQ(results[0].globalCycles, results[1].globalCycles);
    ASSERT_EQ(results[0].cores.size(), results[1].cores.size());
    EXPECT_EQ(results[0].cores[0].localCycles,
              results[1].cores[0].localCycles);
    EXPECT_EQ(results[0].dramRowHits, results[1].dramRowHits);
    EXPECT_EQ(results[0].dramRowMisses, results[1].dramRowMisses);
}

} // namespace
} // namespace mnpu
