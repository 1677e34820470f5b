/**
 * @file
 * Clock-domain behavior of the DMA engine: the translation issue
 * budget is per *local* (core) cycle, so a slower core must not issue
 * transactions faster than its own clock allows even though the global
 * (DRAM) clock ticks more often.
 */

#include <gtest/gtest.h>

#include "sim/multi_core_system.hh"
#include "sw/trace_generator.hh"

namespace mnpu
{
namespace
{

/** A pure-DMA workload: huge B stream, negligible compute. */
std::shared_ptr<const TraceGenerator>
streamTrace(std::uint64_t freq_mhz)
{
    ArchConfig arch;
    arch.name = "s";
    arch.name += std::to_string(freq_mhz);
    arch.arrayRows = 8;
    arch.arrayCols = 8;
    arch.spmBytes = 256 << 10;
    arch.freqMhz = freq_mhz;
    arch.dmaIssueWidth = 1; // make the issue rate the binding limit
    arch.validate();
    Network net;
    net.name = "stream";
    net.layers.push_back(Layer::gemm("g", 1, 4096, 1024));
    return std::make_shared<TraceGenerator>(arch, net);
}

NpuMemConfig
fastMem()
{
    NpuMemConfig mem;
    mem.channelsPerNpu = 8; // ample bandwidth: DMA issue rate binds
    mem.dramCapacityPerNpu = 256ULL << 20;
    mem.ptwPerNpu = 16;
    mem.translationEnabled = false; // isolate the DMA rate
    return mem;
}

Cycle
globalTimeFor(std::uint64_t freq_mhz)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = fastMem();
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = streamTrace(freq_mhz);
    MultiCoreSystem system(config, std::move(bindings));
    return system.run().cores[0].finishedAtGlobal;
}

TEST(ClockDomainDmaTest, HalfSpeedCoreTakesAboutTwiceTheWallTime)
{
    Cycle full = globalTimeFor(1000);
    Cycle half = globalTimeFor(500);
    double ratio = static_cast<double>(half) / static_cast<double>(full);
    // DMA-issue-bound: halving the core clock halves the issue rate.
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

TEST(ClockDomainDmaTest, DoubleSpeedCoreIssuesFaster)
{
    Cycle full = globalTimeFor(1000);
    Cycle twice = globalTimeFor(2000);
    EXPECT_LT(twice, full);
}

TEST(ClockDomainDmaTest, LocalCycleAccountingConsistent)
{
    // The reported local cycles must equal roughly the global span
    // scaled by the frequency ratio.
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = fastMem();
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = streamTrace(500);
    MultiCoreSystem system(config, std::move(bindings));
    SimResult result = system.run();
    double expected_local =
        static_cast<double>(result.cores[0].finishedAtGlobal) * 0.5;
    EXPECT_NEAR(static_cast<double>(result.cores[0].localCycles),
                expected_local, expected_local * 0.02 + 2);
}

} // namespace
} // namespace mnpu
