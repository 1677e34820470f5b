/**
 * @file
 * Randomized stress tests: random topologies on random system
 * configurations must always complete without deadlock and satisfy the
 * global invariants (conservation of traffic, bounded utilization,
 * positive per-layer progress). Seeds are fixed, so failures
 * reproduce.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/multi_core_system.hh"
#include "sw/trace_generator.hh"
#include "workloads/random_network.hh"

namespace mnpu
{
namespace
{

RandomNetOptions
smallNets()
{
    RandomNetOptions options;
    options.minLayers = 2;
    options.maxLayers = 4;
    options.minSpatial = 8;
    options.maxSpatial = 28;
    options.minChannels = 4;
    options.maxChannels = 48;
    options.minGemmDim = 16;
    options.maxGemmDim = 384;
    return options;
}

class StressTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StressTest, RandomConfigCompletesAndHoldsInvariants)
{
    Rng rng(GetParam());

    ArchConfig arch;
    arch.name = "fuzz";
    const std::uint32_t dims[] = {8, 16, 32};
    arch.arrayRows = dims[rng.range(0, 2)];
    arch.arrayCols = dims[rng.range(0, 2)];
    arch.spmBytes = (64ULL << 10) << rng.range(0, 2);
    arch.freqMhz = 250 << rng.range(0, 3); // 250..2000 MHz
    arch.dataflow = rng.uniform() < 0.5 ? Dataflow::OutputStationary
                                        : Dataflow::WeightStationary;
    arch.validate();

    NpuMemConfig mem;
    mem.channelsPerNpu = 1u << rng.range(0, 2);
    mem.dramCapacityPerNpu = 128ULL << 20;
    mem.tlbEntriesPerNpu = 32u << rng.range(0, 3);
    mem.tlbWays = 1u << rng.range(0, 3);
    mem.ptwPerNpu = 1u << rng.range(0, 3);
    const std::uint64_t pages[] = {4096, 64 << 10, 1 << 20};
    mem.pageBytes = pages[rng.range(0, 2)];
    mem.translationEnabled = rng.uniform() < 0.85;

    const SharingLevel levels[] = {
        SharingLevel::Static, SharingLevel::ShareD, SharingLevel::ShareDW,
        SharingLevel::ShareDWT};
    SystemConfig config;
    config.level = levels[rng.range(0, 3)];
    config.mem = mem;
    config.maxGlobalCycles = 500'000'000; // deadlock tripwire

    auto cores = static_cast<std::uint32_t>(rng.range(1, 3));
    std::vector<CoreBinding> bindings(cores);
    std::vector<std::shared_ptr<const TraceGenerator>> traces;
    for (auto &binding : bindings) {
        Network net = randomNetwork(rng, smallNets());
        auto trace = std::make_shared<TraceGenerator>(arch, net);
        traces.push_back(trace);
        binding.trace = trace;
        binding.iterations =
            static_cast<std::uint32_t>(rng.range(1, 2));
        binding.startCycleGlobal = rng.range(0, 1000);
    }

    MultiCoreSystem system(config, std::move(bindings));
    SimResult result = system.run();

    ASSERT_EQ(result.cores.size(), cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        const CoreResult &core = result.cores[c];
        EXPECT_GT(core.localCycles, 0u);
        EXPECT_GT(core.peUtilization, 0.0);
        EXPECT_LE(core.peUtilization, 1.0);
        // Conservation: data traffic covers the trace at least once per
        // iteration, padded at most 2x by bus alignment.
        std::uint64_t data_bytes = core.trafficBytes - core.walkBytes;
        std::uint64_t expected = traces[c]->totalTrafficBytes();
        EXPECT_GE(data_bytes, expected);
        // Upper bound: <=2 iterations and worst-case 64 B alignment
        // padding of very small ranges; 10x catches runaway re-issue.
        EXPECT_LE(data_bytes, 10 * expected);
        if (!mem.translationEnabled) {
            EXPECT_EQ(core.walkBytes, 0u);
        }
        // Layer finishes are monotone.
        Cycle previous = 0;
        for (Cycle finish : core.layerFinishLocal) {
            EXPECT_GE(finish, previous);
            previous = finish;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range<std::uint64_t>(1, 41));

} // namespace
} // namespace mnpu
