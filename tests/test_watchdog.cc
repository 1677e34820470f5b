/**
 * @file
 * WatchdogSampler policy tests plus the cancellation regression the
 * sampler exists for: under the event scheduler one loop iteration can
 * skip millions of simulated cycles, so the watchdog must re-fire on
 * simulated-time deltas as well as iteration counts — otherwise a
 * cancelled long-skip run coasts arbitrarily far past its stop token.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "common/errors.hh"
#include "sim/multi_core_system.hh"
#include "sim/watchdog.hh"

namespace mnpu
{
namespace
{

TEST(WatchdogSamplerTest, FirstCallAlwaysSamples)
{
    WatchdogSampler sampler;
    EXPECT_TRUE(sampler.shouldSample(0, 0));
    EXPECT_FALSE(sampler.shouldSample(1, 1));
}

TEST(WatchdogSamplerTest, RefiresOnIterationInterval)
{
    WatchdogSampler sampler;
    sampler.iterationInterval = 4;
    sampler.cycleSpan = Cycle{1} << 40; // effectively never by cycles
    ASSERT_TRUE(sampler.shouldSample(0, 0));
    EXPECT_FALSE(sampler.shouldSample(1, 0));
    EXPECT_FALSE(sampler.shouldSample(3, 0));
    EXPECT_TRUE(sampler.shouldSample(4, 0));
    // Interval restarts from the last sampled iteration.
    EXPECT_FALSE(sampler.shouldSample(7, 0));
    EXPECT_TRUE(sampler.shouldSample(8, 0));
}

TEST(WatchdogSamplerTest, RefiresOnSimulatedTimeDelta)
{
    // The event-scheduler case: hardly any iterations, huge skips.
    WatchdogSampler sampler;
    sampler.iterationInterval = 1u << 30; // effectively never by count
    sampler.cycleSpan = 1000;
    ASSERT_TRUE(sampler.shouldSample(0, 0));
    EXPECT_FALSE(sampler.shouldSample(1, 999));
    EXPECT_TRUE(sampler.shouldSample(2, 1000));
    // Span restarts from the cycle of the last sample, not from 0.
    EXPECT_FALSE(sampler.shouldSample(3, 1999));
    EXPECT_TRUE(sampler.shouldSample(4, 2100));
    // A single skip dwarfing the span still fires exactly once.
    EXPECT_TRUE(sampler.shouldSample(5, 2100 + (Cycle{1} << 32)));
    EXPECT_FALSE(sampler.shouldSample(6, 2101 + (Cycle{1} << 32)));
}

TEST(WatchdogSamplerTest, EitherTriggerAloneSuffices)
{
    WatchdogSampler sampler;
    sampler.iterationInterval = 8;
    sampler.cycleSpan = 100;
    ASSERT_TRUE(sampler.shouldSample(0, 0));
    // Cycles crawl, iterations race: fires by count.
    EXPECT_TRUE(sampler.shouldSample(8, 1));
    // Iterations crawl, cycles race: fires by span.
    EXPECT_TRUE(sampler.shouldSample(9, 101 + 1));
}

/** Raised-before-run stop token: the very first watchdog sample (the
 *  loop's first iteration) must throw Cancelled, even with the event
 *  loop's per-component gating and long skips in play. */
TEST(WatchdogCancellationTest, RaisedTokenCancelsEventRunImmediately)
{
    const GoldenCase &golden = goldenCase("hbm2-dual-res-ncf-dwt");
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;

    std::atomic<bool> stop{true};
    RunBudget budget;
    budget.stopToken = &stop;
    try {
        context.runMix(config, golden.models, budget);
        FAIL() << "expected SimulationError{Cancelled}";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::Cancelled) << error.what();
    }
}

/** Mid-run cancellation: raise the token from another thread while an
 *  event-stepped mix is simulating and require a prompt Cancelled
 *  exit. The 60 s assertion bound is deliberately enormous next to the
 *  ~1 ms promptness the cycleSpan re-fire actually delivers — it only
 *  exists to fail instead of hang if sampling regresses entirely. */
TEST(WatchdogCancellationTest, MidRunCancellationExitsPromptly)
{
    const GoldenCase &golden = goldenCase("hbm2-quad-res-yt-dlrm-ncf-dwt");
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;

    std::atomic<bool> stop{false};
    RunBudget budget;
    budget.stopToken = &stop;

    std::thread canceller([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stop.store(true, std::memory_order_relaxed);
    });

    auto started = std::chrono::steady_clock::now();
    bool cancelled = false;
    try {
        context.runMix(config, golden.models, budget);
    } catch (const SimulationError &error) {
        cancelled = error.kind() == SimErrorKind::Cancelled;
    }
    canceller.join();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    // The run is either cancelled (the expected path: the quad mix
    // simulates far longer than 20 ms) or, on a pathologically slow
    // or fast machine, finished before/after the raise — but it must
    // never hang past the promptness bound.
    EXPECT_LT(seconds, 60.0);
    if (cancelled)
        SUCCEED();
}

} // namespace
} // namespace mnpu
