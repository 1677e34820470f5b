/**
 * @file
 * Cross-cutting property sweeps: timing-parameter monotonicity in the
 * DRAM model, page-size monotonicity through the whole stack, resource
 * monotonicity (more walkers / more bandwidth never hurt), and
 * bit-exact determinism at every sharing level.
 */

#include <gtest/gtest.h>

#include "sim/multi_core_system.hh"
#include "sw/trace_generator.hh"

namespace mnpu
{
namespace
{

ArchConfig
arch16()
{
    ArchConfig arch;
    arch.name = "p16";
    arch.arrayRows = 16;
    arch.arrayCols = 16;
    arch.spmBytes = 128 << 10;
    arch.validate();
    return arch;
}

std::shared_ptr<const TraceGenerator>
workload(std::uint64_t m = 384, std::uint64_t n = 384,
         std::uint64_t k = 384)
{
    Network net;
    net.name = "w";
    net.layers.push_back(Layer::gemm("g0", m, n, k));
    net.layers.push_back(Layer::gemm("g1", m, n, k));
    return std::make_shared<TraceGenerator>(arch16(), net);
}

NpuMemConfig
baseMem()
{
    NpuMemConfig mem;
    mem.channelsPerNpu = 2;
    mem.dramCapacityPerNpu = 128ULL << 20;
    mem.tlbEntriesPerNpu = 128;
    mem.ptwPerNpu = 4;
    return mem;
}

// --- DRAM timing monotonicity ---

struct TimingKnob
{
    const char *name;
    std::uint32_t DramTiming::*field;
};

// Printed as the knob name so the test names stay the same from build
// to build (gtest's fallback dumps the raw bytes, including pointers).
void
PrintTo(const TimingKnob &knob, std::ostream *os)
{
    *os << knob.name;
}

class DramTimingMonotoneTest
    : public ::testing::TestWithParam<TimingKnob>
{
};

TEST_P(DramTimingMonotoneTest, SlowerTimingNeverSpeedsUpTheRun)
{
    auto run_with = [&](std::uint32_t extra) {
        NpuMemConfig mem = baseMem();
        mem.timing.*GetParam().field += extra;
        mem.timing.tRAS += extra; // keep tRAS >= tRCD valid
        return runIdeal(workload(), 1, mem).cores[0].localCycles;
    };
    Cycle fast = run_with(0);
    Cycle slow = run_with(20);
    EXPECT_LE(fast, slow) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, DramTimingMonotoneTest,
    ::testing::Values(TimingKnob{"tCL", &DramTiming::tCL},
                      TimingKnob{"tRCD", &DramTiming::tRCD},
                      TimingKnob{"tRP", &DramTiming::tRP},
                      TimingKnob{"tRFC", &DramTiming::tRFC}));

// --- page size monotone through the full stack ---

class PageSizeSweepTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PageSizeSweepTest, RunsAndWalksShrinkVsFourKb)
{
    NpuMemConfig mem = baseMem();
    mem.pageBytes = GetParam();
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = mem;
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = workload();
    MultiCoreSystem system(config, std::move(bindings));
    auto result = system.run();
    EXPECT_GT(result.cores[0].localCycles, 0u);

    NpuMemConfig base = baseMem(); // 4 KB
    SystemConfig base_config;
    base_config.level = SharingLevel::Ideal;
    base_config.mem = base;
    std::vector<CoreBinding> base_bindings(1);
    base_bindings[0].trace = workload();
    MultiCoreSystem base_system(base_config, std::move(base_bindings));
    base_system.run();

    EXPECT_LE(system.mmu().stats().counterValue("walks"),
              base_system.mmu().stats().counterValue("walks"));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageSizeSweepTest,
                         ::testing::Values(4096, 16384, 64 << 10,
                                           256 << 10, 1 << 20));

// --- resource monotonicity ---

TEST(ResourceMonotoneTest, MoreWalkersNeverHurtSolo)
{
    Cycle previous = kCycleNever;
    for (std::uint32_t walkers : {1u, 2u, 4u, 8u, 16u}) {
        NpuMemConfig mem = baseMem();
        mem.ptwPerNpu = walkers;
        // Walk-count monotonicity holds on the DRAM media model; PCM
        // write-pausing reorders walk fills enough to break the strict
        // property, so pin against a MNPU_MEM_BACKEND default.
        mem.backend = MemBackendKind::Dram;
        Cycle cycles = runIdeal(workload(), 1, mem).cores[0].localCycles;
        EXPECT_LE(cycles, previous) << walkers << " walkers";
        previous = cycles;
    }
}

TEST(ResourceMonotoneTest, MoreChannelsNeverHurtSolo)
{
    Cycle previous = kCycleNever;
    for (std::uint32_t channels : {1u, 2u, 4u, 8u}) {
        NpuMemConfig mem = baseMem();
        mem.channelsPerNpu = channels;
        Cycle cycles = runIdeal(workload(), 1, mem).cores[0].localCycles;
        EXPECT_LE(cycles, previous) << channels << " channels";
        previous = cycles;
    }
}

TEST(ResourceMonotoneTest, BiggerTlbNeverHurtsSolo)
{
    Cycle previous = kCycleNever;
    for (std::uint32_t entries : {16u, 64u, 256u, 1024u}) {
        NpuMemConfig mem = baseMem();
        mem.tlbEntriesPerNpu = entries;
        Cycle cycles = runIdeal(workload(), 1, mem).cores[0].localCycles;
        EXPECT_LE(cycles, previous) << entries << " entries";
        previous = cycles;
    }
}

TEST(ResourceMonotoneTest, IdealMultiplierNeverHurts)
{
    Cycle previous = kCycleNever;
    for (std::uint32_t multiplier : {1u, 2u, 4u}) {
        Cycle cycles =
            runIdeal(workload(), multiplier, baseMem())
                .cores[0]
                .localCycles;
        EXPECT_LE(cycles, previous) << multiplier << "x resources";
        previous = cycles;
    }
}

// --- determinism across levels ---

class DeterminismTest
    : public ::testing::TestWithParam<SharingLevel>
{
};

TEST_P(DeterminismTest, BitExactRepeat)
{
    auto run_once = [&] {
        SystemConfig config;
        config.level = GetParam();
        config.mem = baseMem();
        std::vector<CoreBinding> bindings(2);
        bindings[0].trace = workload(384, 384, 384);
        bindings[1].trace = workload(256, 512, 128);
        MultiCoreSystem system(config, std::move(bindings));
        return system.run();
    };
    SimResult a = run_once();
    SimResult b = run_once();
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].localCycles, b.cores[i].localCycles);
        EXPECT_EQ(a.cores[i].trafficBytes, b.cores[i].trafficBytes);
        EXPECT_EQ(a.cores[i].walkBytes, b.cores[i].walkBytes);
        EXPECT_EQ(a.cores[i].tlbMisses, b.cores[i].tlbMisses);
    }
    EXPECT_EQ(a.dramRowHits, b.dramRowHits);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, DeterminismTest,
    ::testing::Values(SharingLevel::Static, SharingLevel::ShareD,
                      SharingLevel::ShareDW, SharingLevel::ShareDWT));

} // namespace
} // namespace mnpu
