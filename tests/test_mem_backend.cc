/**
 * @file
 * MemoryBackend conformance suite (DESIGN.md §14). Every stack
 * makeMemoryBackend builds — hbm2, pcm and tiered tiers, each with and
 * without the XBar fabric in front — must keep the contract invariants
 * documented in mem/memory_backend.hh; this file ratchets them
 * property-style:
 *
 *  - enqueue/drain lifecycle: everything admitted is delivered exactly
 *    once, the byte counters reconcile, and every tier serves traffic
 *    (the script's weight requests reach a tiered stack's PCM tier);
 *  - admission purity: a refused tryEnqueue mutates nothing (proved on
 *    serialized state bytes);
 *  - event bounds never overshoot (the test_event_bounds discipline
 *    lifted to whole memory systems): replaying a randomized script
 *    cycle by cycle, no delivery may fire strictly before the promised
 *    nextEventCycle unless an enqueue invalidated the bound;
 *  - scheduler equivalence: the same script replayed with event
 *    skipping (bounds + retry signals) produces the identical delivery
 *    sequence as the cycle-by-cycle reference;
 *  - snapshot round-trip: state restored mid-script continues
 *    byte-identical to the uninterrupted run;
 *  - integrity lifecycle: the RequestLifecycleTracker's final audit
 *    passes against the backend's byte counters (PCM cache hits must
 *    flow through the tracker exactly like media accesses).
 *
 * The golden bit-identity proof for DRAM is the existing golden suite
 * (test_golden_trace), which runs MultiCoreSystem against committed
 * fixtures; MemBackendSystemTest below pins which tiers and fabric a
 * system config resolves to.
 */

#include <functional>
#include <typeinfo>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/integrity.hh"
#include "common/logging.hh"
#include "mem/memory_backend.hh"
#include "mem/pcm_backend.hh"
#include "sim/multi_core_system.hh"
#include "sw/trace_generator.hh"

namespace mnpu
{
namespace
{

constexpr std::uint32_t kChannels = 2;
constexpr std::uint32_t kCores = 2;
constexpr std::uint32_t kQueueDepth = 8;

ArchConfig
tinyArch()
{
    ArchConfig arch;
    arch.name = "tiny";
    arch.arrayRows = 16;
    arch.arrayCols = 16;
    arch.spmBytes = 64 << 10;
    arch.freqMhz = 1000;
    arch.validate();
    return arch;
}

std::shared_ptr<const TraceGenerator>
gemmTrace()
{
    Network net;
    net.name = "conformance";
    net.layers.push_back(Layer::gemm("g0", 64, 64, 64));
    net.layers.push_back(Layer::gemm("g1", 64, 64, 64));
    return std::make_shared<TraceGenerator>(tinyArch(), net);
}

std::unique_ptr<MemoryBackend>
makeBackend(MemBackendKind kind, const FabricConfig &fabric = {})
{
    return makeMemoryBackend(kind, DramTiming::hbm2(), kChannels, kCores,
                             kQueueDepth, PcmConfig{}, fabric);
}

struct ScriptedRequest
{
    Cycle arrival = 0;
    Addr addr = 0;
    MemOp op = MemOp::Read;
    CoreId core = 0;
    bool priority = false;
    MemRegion region = MemRegion::Activation;
};

std::vector<ScriptedRequest>
makeScript(std::mt19937_64 &rng, std::size_t count)
{
    std::vector<ScriptedRequest> script(count);
    Cycle at = 0;
    for (ScriptedRequest &req : script) {
        std::uint64_t roll = rng() % 100;
        if (roll < 55)
            at += rng() % 8; // burst
        else if (roll < 90)
            at += rng() % 300;
        else
            at += 2000 + rng() % 20000; // idle stretch
        req.arrival = at;
        // Fold into a small window so row hits/conflicts and cache
        // hits/evictions all occur.
        req.addr = (rng() % (1ULL << 18)) & ~Addr{63};
        req.op = rng() % 3 == 0 ? MemOp::Write : MemOp::Read;
        req.core = static_cast<CoreId>(rng() % kCores);
        req.priority = rng() % 100 < 10;
        // Weights live in the top quarter of the window, so a tiered
        // stack sends that traffic to its cold tier. Walks stay hot.
        if (!req.priority && req.addr >= (3ULL << 16))
            req.region = MemRegion::Weight;
    }
    return script;
}

DramRequest
toRequest(const ScriptedRequest &scripted, std::uint64_t tag)
{
    DramRequest request;
    request.paddr = scripted.addr;
    request.op = scripted.op;
    request.core = scripted.core;
    request.tag = tag;
    request.priority = scripted.priority;
    request.region = scripted.region;
    return request;
}

struct Delivery
{
    std::uint64_t tag;
    Cycle at;
    bool operator==(const Delivery &other) const
    {
        return tag == other.tag && at == other.at;
    }
};

/**
 * Replay @p script cycle by cycle (the reference semantics): tick at
 * every cycle, enqueue at arrival (retrying each cycle while refused),
 * run on until drained. @return the delivery sequence.
 */
std::vector<Delivery>
replayPerCycle(MemoryBackend &backend,
               const std::vector<ScriptedRequest> &script)
{
    std::vector<Delivery> deliveries;
    backend.setCallback([&](const DramRequest &request, Cycle at) {
        deliveries.push_back({request.tag, at});
    });
    std::size_t next = 0;
    Cycle now = 0;
    std::vector<DramRequest> blocked;
    while (next < script.size() || !blocked.empty() || backend.busy()) {
        backend.tick(now);
        std::vector<DramRequest> still;
        for (const DramRequest &request : blocked) {
            if (!backend.tryEnqueue(request, now))
                still.push_back(request);
        }
        blocked.swap(still);
        while (next < script.size() && script[next].arrival <= now) {
            DramRequest request = toRequest(script[next], next);
            ++next;
            if (!backend.tryEnqueue(request, now))
                blocked.push_back(request);
        }
        ++now;
    }
    return deliveries;
}

/**
 * Replay with event skipping: between arrivals, jump straight to
 * nextEventCycle(); while an enqueue is blocked, revisit only when the
 * retry signal fires or the bound expires. This is the gated run
 * loop's discipline distilled to one component.
 */
std::vector<Delivery>
replayEventDriven(MemoryBackend &backend,
                  const std::vector<ScriptedRequest> &script)
{
    std::vector<Delivery> deliveries;
    backend.setCallback([&](const DramRequest &request, Cycle at) {
        deliveries.push_back({request.tag, at});
    });
    backend.setEventDriven(true);
    std::size_t next = 0;
    Cycle now = 0;
    std::vector<DramRequest> blocked;
    while (next < script.size() || !blocked.empty() || backend.busy()) {
        backend.tick(now);
        const bool retry = backend.consumeRetrySignal();
        if (retry || !blocked.empty()) {
            std::vector<DramRequest> still;
            for (const DramRequest &request : blocked) {
                if (!backend.tryEnqueue(request, now))
                    still.push_back(request);
            }
            blocked.swap(still);
        }
        while (next < script.size() && script[next].arrival <= now) {
            DramRequest request = toRequest(script[next], next);
            ++next;
            if (!backend.tryEnqueue(request, now))
                blocked.push_back(request);
        }
        Cycle bound = backend.nextEventCycle(now);
        // Pending work the backend cannot see: the next scripted
        // arrival, and a blocked enqueue that must retry. The gated
        // run loop gets the latter from the retry signal; a plain
        // next-cycle revisit keeps this harness independent of how
        // each backend schedules its unblocking events.
        if (next < script.size())
            bound = std::min(bound, std::max(script[next].arrival,
                                             now + 1));
        if (!blocked.empty())
            bound = std::min(bound, now + 1);
        if (bound <= now) {
            ADD_FAILURE() << "bound " << bound
                          << " does not advance past cycle " << now;
            bound = now + 1;
        }
        now = bound;
        if (now == kCycleNever)
            break;
    }
    return deliveries;
}

std::string
stateBytes(const MemoryBackend &backend)
{
    StateWriter out;
    backend.saveState(out);
    return out.bytes();
}

/**
 * One stack makeMemoryBackend builds: a backend kind, with or without
 * the XBar fabric in front. Four plain bytes, so gtest prints a
 * fabric-less stack exactly as it printed the bare MemBackendKind and
 * those cases keep their test names.
 */
struct Stack
{
    std::uint8_t kind; //!< a MemBackendKind
    bool fabric;
    std::uint8_t unused[2];
};

std::vector<Stack>
allStacks()
{
    std::vector<Stack> stacks;
    for (bool fabric : {false, true}) {
        for (MemBackendKind kind : {MemBackendKind::Dram, MemBackendKind::Pcm,
                                    MemBackendKind::Tiered}) {
            stacks.push_back(
                Stack{static_cast<std::uint8_t>(kind), fabric, {}});
        }
    }
    return stacks;
}

class MemBackendConformance : public ::testing::TestWithParam<Stack>
{
  protected:
    std::unique_ptr<MemoryBackend> makeStack() const
    {
        FabricConfig fabric;
        fabric.enabled = GetParam().fabric;
        return makeBackend(
            static_cast<MemBackendKind>(GetParam().kind), fabric);
    }
};

TEST_P(MemBackendConformance, EnqueueDrainLifecycle)
{
    auto backend = makeStack();
    std::mt19937_64 rng(0xC0FFEE);
    auto script = makeScript(rng, 200);
    auto deliveries = replayPerCycle(*backend, script);

    ASSERT_EQ(deliveries.size(), script.size());
    // Exactly-once delivery: every tag exactly once.
    std::vector<bool> seen(script.size(), false);
    for (const Delivery &delivery : deliveries) {
        ASSERT_LT(delivery.tag, script.size());
        EXPECT_FALSE(seen[delivery.tag]) << "duplicate delivery";
        seen[delivery.tag] = true;
    }
    // Byte accounting: per-core bytes reconcile with the script.
    const std::uint64_t tx = backend->timing().transactionBytes();
    std::vector<std::uint64_t> expected(kCores, 0);
    for (const ScriptedRequest &req : script)
        expected[req.core] += tx;
    for (CoreId core = 0; core < kCores; ++core)
        EXPECT_EQ(backend->coreBytes(core), expected[core]);
    for (std::size_t t = 0; t < backend->numTiers(); ++t) {
        const DramSystem &tier = backend->tier(t);
        EXPECT_GT(tier.coreBytes(0) + tier.coreBytes(1), 0u)
            << "tier " << t << " served no traffic";
    }
    EXPECT_FALSE(backend->busy());
}

TEST_P(MemBackendConformance, RefusedAdmissionMutatesNothing)
{
    auto backend = makeStack();
    // Saturate admission: pour writes at one address range without
    // ever ticking, until the backend refuses.
    Cycle now = 5;
    std::uint64_t tag = 0;
    DramRequest request;
    request.op = MemOp::Write;
    request.core = 0;
    bool refused = false;
    for (std::uint64_t i = 0; i < 64 && !refused; ++i) {
        request.paddr = i * 64;
        request.tag = tag++;
        refused = !backend->tryEnqueue(request, now);
    }
    ASSERT_TRUE(refused) << "queue depth " << kQueueDepth
                         << " never backpressured";
    const std::string before = stateBytes(*backend);
    // Refused probes — admission and the const probe — at assorted
    // cycles must leave no trace in the serialized state.
    for (Cycle probe_at : {now, now + 1, now + 7}) {
        request.paddr = 4096;
        request.tag = tag;
        if (backend->canAccept(request))
            continue; // some later cycle freed space without ticking?
        EXPECT_FALSE(backend->tryEnqueue(request, probe_at));
    }
    EXPECT_EQ(stateBytes(*backend), before)
        << "a refused tryEnqueue mutated backend state";
}

TEST_P(MemBackendConformance, EventBoundNeverOvershoots)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 20260808ULL}) {
        auto backend = makeStack();
        std::mt19937_64 rng(seed);
        auto script = makeScript(rng, 150);

        Cycle delivered_at = kCycleNever;
        backend->setCallback([&](const DramRequest &, Cycle at) {
            delivered_at = at;
        });
        std::size_t next = 0;
        Cycle now = 0;
        Cycle promised = 0; // bound computed after the previous tick
        bool invalidated = true;
        std::vector<DramRequest> blocked;
        while (next < script.size() || !blocked.empty() ||
               backend->busy()) {
            delivered_at = kCycleNever;
            backend->tick(now);
            if (delivered_at != kCycleNever && !invalidated) {
                ASSERT_GE(delivered_at, promised)
                    << "seed " << seed << ": delivery at cycle "
                    << delivered_at << " overshoots the bound "
                    << promised << " promised before cycle " << now;
            }
            invalidated = false;
            std::vector<DramRequest> still;
            for (const DramRequest &request : blocked) {
                if (backend->tryEnqueue(request, now))
                    invalidated = true;
                else
                    still.push_back(request);
            }
            blocked.swap(still);
            while (next < script.size() &&
                   script[next].arrival <= now) {
                DramRequest request = toRequest(script[next], next);
                ++next;
                if (backend->tryEnqueue(request, now))
                    invalidated = true;
                else
                    blocked.push_back(request);
            }
            promised = backend->nextEventCycle(now);
            ASSERT_GT(promised, now);
            ++now;
        }
    }
}

TEST_P(MemBackendConformance, SchedulerEquivalence)
{
    for (std::uint64_t seed : {7ULL, 99ULL}) {
        std::mt19937_64 rng_a(seed), rng_b(seed);
        auto script_a = makeScript(rng_a, 250);
        auto script_b = makeScript(rng_b, 250);
        auto reference = makeStack();
        auto gated = makeStack();
        auto ref_deliveries = replayPerCycle(*reference, script_a);
        auto event_deliveries = replayEventDriven(*gated, script_b);
        ASSERT_EQ(ref_deliveries.size(), event_deliveries.size());
        for (std::size_t i = 0; i < ref_deliveries.size(); ++i) {
            EXPECT_EQ(ref_deliveries[i], event_deliveries[i])
                << "seed " << seed << ": delivery " << i
                << " diverged between per-cycle and event-driven replay";
        }
        EXPECT_EQ(stateBytes(*reference), stateBytes(*gated))
            << "final serialized state diverged between the replays";
    }
}

TEST_P(MemBackendConformance, SnapshotRoundTripMidStream)
{
    std::mt19937_64 rng(0xBEEF);
    auto script = makeScript(rng, 200);
    const std::size_t cut = 120;
    std::vector<ScriptedRequest> head(script.begin(),
                                      script.begin() + cut);
    std::vector<ScriptedRequest> tail(script.begin() + cut,
                                      script.end());

    // Uninterrupted run: the full script.
    auto clean = makeStack();
    auto clean_deliveries = replayPerCycle(*clean, script);

    // Interrupted run: drain the head, snapshot, restore into a fresh
    // backend, drain the tail there.
    auto first = makeStack();
    auto head_deliveries = replayPerCycle(*first, head);
    const std::string snapshot = stateBytes(*first);

    auto second = makeStack();
    {
        StateReader in{std::string(snapshot)};
        second->loadState(in);
    }
    EXPECT_EQ(stateBytes(*second), snapshot)
        << "save/load/save is not bit-stable";
    auto tail_deliveries = replayPerCycle(*second, tail);

    // The head drained fully before the snapshot (replayPerCycle runs
    // until !busy()), so clean == head ++ tail delivery-for-delivery.
    ASSERT_EQ(clean_deliveries.size(),
              head_deliveries.size() + tail_deliveries.size());
    for (std::size_t i = 0; i < head_deliveries.size(); ++i)
        EXPECT_EQ(clean_deliveries[i], head_deliveries[i]);
    for (std::size_t i = 0; i < tail_deliveries.size(); ++i) {
        // Tags are script-local indices, so the tail run's tags sit
        // `cut` below the clean run's; timing must match exactly.
        const Delivery &clean_d =
            clean_deliveries[head_deliveries.size() + i];
        EXPECT_EQ(clean_d.tag, tail_deliveries[i].tag + cut);
        EXPECT_EQ(clean_d.at, tail_deliveries[i].at);
    }
    EXPECT_EQ(stateBytes(*clean), stateBytes(*second))
        << "restored run's final state diverged from the clean run's";
}

TEST_P(MemBackendConformance, IntegrityLifecycleAudit)
{
    auto backend = makeStack();
    RequestLifecycleTracker tracker(1ULL << 30,
                                    static_cast<std::uint32_t>(
                                        backend->timing()
                                            .transactionBytes()),
                                    kCores);
    backend->setIntegrity(&tracker, nullptr);
    std::mt19937_64 rng(0xA11D1);
    auto script = makeScript(rng, 150);
    // All data traffic: priority requests are tracked as page-walk
    // transactions, which would need a matching MMU walk-step count.
    for (ScriptedRequest &req : script)
        req.priority = false;
    auto deliveries = replayPerCycle(*backend, script);
    ASSERT_EQ(deliveries.size(), script.size());
    EXPECT_EQ(tracker.outstanding(), 0u);
    std::vector<std::uint64_t> core_bytes, core_walk_bytes, walk_steps;
    for (CoreId core = 0; core < kCores; ++core) {
        core_bytes.push_back(backend->coreBytes(core));
        core_walk_bytes.push_back(backend->coreWalkBytes(core));
        walk_steps.push_back(0);
    }
    EXPECT_NO_THROW(
        tracker.finalAudit(core_bytes, core_walk_bytes, walk_steps));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, MemBackendConformance, ::testing::ValuesIn(allStacks()),
    [](const ::testing::TestParamInfo<Stack> &info) {
        // "hbm2", "pcm", "tiered"; "_xbar" behind the fabric.
        return std::string(toString(
                   static_cast<MemBackendKind>(info.param.kind))) +
               (info.param.fabric ? "_xbar" : "");
    });

// ---------------------------------------------------------------------
// SharingPolicy: one declarative write path for channel layout and
// bandwidth caps.
// ---------------------------------------------------------------------

TEST(SharingPolicyTest, DefaultPolicyResetsToFreshState)
{
    DramSystem fresh(DramTiming::hbm2(), 4, 2, kQueueDepth);
    DramSystem reused(DramTiming::hbm2(), 4, 2, kQueueDepth);

    SharingPolicy split;
    split.channels = SharingPolicy::Channels::ByCounts;
    split.channelCounts = {1, 3};
    split.bandwidthShares = std::vector<std::uint32_t>{1, 7};
    reused.applyPolicy(split);
    StateWriter partitioned, untouched;
    reused.saveState(partitioned);
    fresh.saveState(untouched);
    EXPECT_NE(partitioned.bytes(), untouched.bytes());

    // ShareAll (the default) plus an engaged-empty shares vector undoes
    // both the split and the caps.
    SharingPolicy reset;
    reset.bandwidthShares = std::vector<std::uint32_t>{};
    reused.applyPolicy(reset);
    StateWriter a, b;
    reused.saveState(a);
    fresh.saveState(b);
    EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(SharingPolicyTest, KeepLeavesChannelLayoutUntouched)
{
    DramSystem a(DramTiming::hbm2(), 4, 2, kQueueDepth);
    DramSystem b(DramTiming::hbm2(), 4, 2, kQueueDepth);
    // One policy setting layout and caps together must equal a layout
    // followed by a Keep policy that only changes the caps.
    SharingPolicy both;
    both.channels = SharingPolicy::Channels::ByCounts;
    both.channelCounts = {2, 2};
    both.bandwidthShares = std::vector<std::uint32_t>{3, 1};
    a.applyPolicy(both);
    SharingPolicy layout = both;
    layout.bandwidthShares.reset();
    b.applyPolicy(layout);
    SharingPolicy shares_only;
    shares_only.channels = SharingPolicy::Channels::Keep;
    shares_only.bandwidthShares = std::vector<std::uint32_t>{3, 1};
    b.applyPolicy(shares_only);
    StateWriter sa, sb;
    a.saveState(sa);
    b.saveState(sb);
    EXPECT_EQ(sa.bytes(), sb.bytes());
}

// ---------------------------------------------------------------------
// XBar: narrowing the port width must never speed anything up.
// ---------------------------------------------------------------------

TEST(XBarTest, NarrowerPortsAreMonotonicallySlower)
{
    std::mt19937_64 rng(0xFAB);
    auto script = makeScript(rng, 200);
    Cycle previous_finish = 0;
    std::uint32_t previous_width = 0;
    for (std::uint32_t width : {64u, 16u, 4u}) {
        FabricConfig fabric;
        fabric.enabled = true;
        fabric.ports = 2;
        fabric.widthBytes = width;
        auto backend = makeBackend(MemBackendKind::Dram, fabric);
        std::mt19937_64 rng_i(0xFAB);
        auto deliveries = replayPerCycle(*backend, makeScript(rng_i, 200));
        ASSERT_EQ(deliveries.size(), script.size());
        Cycle finish = 0;
        for (const Delivery &delivery : deliveries)
            finish = std::max(finish, delivery.at);
        if (previous_width != 0) {
            EXPECT_GE(finish, previous_finish)
                << "width " << width << "B finished before width "
                << previous_width << "B";
        }
        previous_finish = finish;
        previous_width = width;
    }
}

TEST(XBarTest, CountsContentionAndForwardsEverything)
{
    FabricConfig fabric;
    fabric.enabled = true;
    fabric.ports = 1; // both cores share one narrow port
    fabric.widthBytes = 8;
    auto backend = makeBackend(MemBackendKind::Dram, fabric);
    std::mt19937_64 rng(0x5EED);
    auto deliveries = replayPerCycle(*backend, makeScript(rng, 100));
    ASSERT_EQ(deliveries.size(), 100u);
    std::map<std::string, std::uint64_t> counters;
    backend->visitStatGroups([&](const StatGroup &group) {
        if (group.name() == "fabric") {
            for (const char *stat :
                 {"enqueued", "forwarded", "wait_cycles"})
                counters[stat] = group.counterValue(stat);
        }
    });
    EXPECT_EQ(counters["enqueued"], 100u);
    EXPECT_EQ(counters["forwarded"], 100u);
    EXPECT_GT(counters["wait_cycles"], 0u)
        << "a 1-port 8B fabric under a 100-request burst saw no "
           "contention";
}

// ---------------------------------------------------------------------
// Tiered stack: requests route by region; byte accounting spans both
// tiers.
// ---------------------------------------------------------------------

TEST(TieredStackTest, RoutesByRegionAndSumsCounters)
{
    auto tiered = makeBackend(MemBackendKind::Tiered);
    ASSERT_EQ(tiered->numTiers(), 2u);
    EXPECT_EQ(typeid(tiered->tier(0)), typeid(DramSystem));
    EXPECT_EQ(typeid(tiered->tier(1)), typeid(PcmBackend));
    std::vector<Delivery> deliveries;
    tiered->setCallback([&](const DramRequest &request, Cycle at) {
        deliveries.push_back({request.tag, at});
    });
    const std::uint64_t tx = tiered->timing().transactionBytes();
    Cycle now = 0;
    std::uint64_t tag = 0;
    auto push = [&](MemRegion region, Addr addr) {
        DramRequest request;
        request.paddr = addr;
        request.op = MemOp::Read;
        request.core = 0;
        request.tag = tag++;
        request.region = region;
        EXPECT_EQ(&tiered->tierFor(request),
                  &tiered->tier(region == MemRegion::Weight ? 1 : 0));
        while (!tiered->tryEnqueue(request, now))
            tiered->tick(now++);
    };
    for (std::uint64_t i = 0; i < 8; ++i)
        push(MemRegion::Activation, i * 64);
    for (std::uint64_t i = 0; i < 4; ++i)
        push(MemRegion::Weight, (1 << 16) + i * 64);
    while (tiered->busy())
        tiered->tick(now++);

    EXPECT_EQ(deliveries.size(), 12u);
    EXPECT_EQ(tiered->tier(0).coreBytes(0), 8 * tx);
    EXPECT_EQ(tiered->tier(1).coreBytes(0), 4 * tx);
    EXPECT_EQ(tiered->coreBytes(0), 12 * tx); // the system view sums
    EXPECT_STREQ(tiered->kindName(), "tiered");
}

// ---------------------------------------------------------------------
// System-level plumbing: default resolution, kind names, and the
// fabric in front of the tiers.
// ---------------------------------------------------------------------

TEST(MemBackendSystemTest, DefaultSystemResolvesToDram)
{
    SystemConfig config;
    // Explicit config wins over any MNPU_MEM_BACKEND process default,
    // so this pins the Dram resolution path itself.
    config.mem.backend = MemBackendKind::Dram;
    std::vector<CoreBinding> bindings(kCores);
    auto trace = gemmTrace();
    for (auto &binding : bindings)
        binding.trace = trace;
    MultiCoreSystem system(config, std::move(bindings));
    const MemoryBackend &memory = system.memory();
    EXPECT_EQ(system.backendKind(), MemBackendKind::Dram);
    EXPECT_STREQ(memory.kindName(), "dram");
    ASSERT_EQ(memory.numTiers(), 1u);
    EXPECT_EQ(typeid(memory.tier(0)), typeid(DramSystem));
    EXPECT_EQ(memory.fabric(), nullptr);
}

TEST(MemBackendSystemTest, FabricStandsInFrontOfTheDramTier)
{
    SystemConfig config;
    config.mem.backend = MemBackendKind::Dram;
    config.mem.fabric.enabled = true;
    config.mem.fabric.widthBytes = 64;
    std::vector<CoreBinding> bindings(kCores);
    auto trace = gemmTrace();
    for (auto &binding : bindings)
        binding.trace = trace;
    MultiCoreSystem system(config, std::move(bindings));
    const MemoryBackend &memory = system.memory();
    EXPECT_STREQ(memory.kindName(), "dram"); // the fabric is no tier
    ASSERT_NE(memory.fabric(), nullptr);
    EXPECT_EQ(memory.fabric()->numPorts(), kCores); // one per core
    ASSERT_EQ(memory.numTiers(), 1u);
    EXPECT_EQ(typeid(memory.tier(0)), typeid(DramSystem));
}

TEST(MemBackendSystemTest, PcmSystemRunsEndToEnd)
{
    SystemConfig config;
    config.mem.backend = MemBackendKind::Pcm;
    config.checkLevel = CheckLevel::Full; // lifecycle + protocol audit
    std::vector<CoreBinding> bindings(kCores);
    auto trace = gemmTrace();
    for (auto &binding : bindings)
        binding.trace = trace;
    MultiCoreSystem system(config, std::move(bindings));
    EXPECT_STREQ(system.memory().kindName(), "pcm");
    SimResult result = system.run();
    EXPECT_GT(result.globalCycles, 0u);
    // PCM is strictly slower media: the same mix on HBM2 must finish
    // no later.
    SystemConfig hbm2_config;
    hbm2_config.mem.backend = MemBackendKind::Dram;
    std::vector<CoreBinding> hbm2_bindings(kCores);
    for (auto &binding : hbm2_bindings)
        binding.trace = trace;
    MultiCoreSystem hbm2_system(hbm2_config, std::move(hbm2_bindings));
    SimResult hbm2_result = hbm2_system.run();
    EXPECT_GE(result.globalCycles, hbm2_result.globalCycles);
}

TEST(MemBackendSystemTest, TieredSystemForcesExactFidelity)
{
    SystemConfig config;
    config.mem.backend = MemBackendKind::Tiered;
    config.fidelity = FidelityKind::Fast;
    std::vector<CoreBinding> bindings(kCores);
    auto trace = gemmTrace();
    for (auto &binding : bindings)
        binding.trace = trace;
    MultiCoreSystem system(config, std::move(bindings));
    EXPECT_EQ(system.fidelity(), FidelityKind::Exact);
    SimResult result = system.run();
    EXPECT_GT(result.globalCycles, 0u);
}

TEST(MemBackendSystemTest, ParseAndDefaultRoundTrip)
{
    auto &setting = memBackendSetting();
    EXPECT_EQ(setting.parse("hbm2"), MemBackendKind::Dram);
    EXPECT_EQ(setting.parse("dram"), MemBackendKind::Dram);
    EXPECT_EQ(setting.parse("PCM"), MemBackendKind::Pcm);
    EXPECT_EQ(setting.parse("tiered"), MemBackendKind::Tiered);
    EXPECT_THROW(setting.parse("flash"), FatalError);
    setting.setDefault(MemBackendKind::Pcm);
    EXPECT_EQ(setting.effective(std::nullopt), MemBackendKind::Pcm);
    EXPECT_EQ(setting.effective(MemBackendKind::Tiered),
              MemBackendKind::Tiered); // explicit config wins
    setting.clearDefault();
}

} // namespace
} // namespace mnpu
