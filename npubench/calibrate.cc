/**
 * @file
 * The host-speed calibration kernel. This host's speed drifts by up to
 * 1.8x over minutes while other tenants load it. An ALU loop or a
 * pointer chase barely follows that drift (correlation 0.25-0.6 with the
 * simulator's own time). An event loop shaped like the simulator's
 * scheduler follows it at about 0.8, so npubench scales each timing by
 * the kernel's time measured next to it. The kernel never calls
 * simulator code, so a change to the simulator does not move it, and its
 * state stays under 100 KB, so it adds nothing to peak_rss_mb.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "bench.hh"

namespace npubench
{

namespace
{

/**
 * The kernel's median time on the reference host (a 4-vCPU Xeon KVM
 * guest at 2.1 GHz); scaled timings read as seconds on that host.
 */
constexpr double kNominalSeconds = 0.04;

std::uint64_t volatile g_sink = 0;

/** A binary-heap event loop dispatching through std::function into
 *  per-channel deques, like the simulator's scheduler and DRAM queues. */
void
eventLoop(std::uint32_t events)
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::vector<std::deque<std::uint64_t>> channels(64);
    std::vector<std::function<void(std::uint64_t)>> handlers;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < channels.size(); ++i) {
        handlers.emplace_back([&, i](std::uint64_t now) {
            channels[i].push_back(now);
            if (channels[i].size() > 8) {
                acc += channels[i].front();
                channels[i].pop_front();
            }
        });
    }
    std::mt19937 rng(7);
    for (std::uint32_t id = 0; id < 4096; ++id)
        queue.push({rng() % 1000, id});
    for (std::uint32_t i = 0; i < events; ++i) {
        const auto [now, id] = queue.top();
        queue.pop();
        handlers[id % handlers.size()](now);
        queue.push({now + 1 + rng() % 1000, id});
    }
    g_sink = acc;
}

} // namespace

double
calibrationSeconds()
{
    const auto start = Clock::now();
    eventLoop(250000);
    return secondsSince(start);
}

double
hostScale(double calibration_seconds)
{
    return kNominalSeconds / calibration_seconds;
}

} // namespace npubench
