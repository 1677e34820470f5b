/**
 * @file
 * Unit and property tests for the DRAM substrate: timing presets,
 * address mapping, the FR-FCFS channel, and the multi-channel system
 * with partitioning and rate limiting.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "common/logging.hh"
#include "dram/address_mapping.hh"
#include "dram/dram_channel.hh"
#include "dram/dram_system.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{
namespace
{

// --- timing ---

TEST(DramTimingTest, PresetsValidate)
{
    EXPECT_NO_THROW(DramTiming::hbm2().validate());
    EXPECT_NO_THROW(DramTiming::ddr4().validate());
    EXPECT_THROW(DramTiming::preset("lpddr9"), FatalError);
}

TEST(DramTimingTest, Hbm2Bandwidth)
{
    DramTiming t = DramTiming::hbm2();
    // 128-bit @ 1 GHz DDR = 32 GB/s per channel; 64 B transactions.
    EXPECT_DOUBLE_EQ(t.peakBandwidthBytesPerSec(), 32e9);
    EXPECT_EQ(t.transactionBytes(), 64u);
    EXPECT_EQ(t.burstCycles(), 2u);
}

TEST(DramTimingTest, ConfigOverridesPreset)
{
    auto config = ConfigFile::fromString(
        "dram.protocol = hbm2\ndram.tCL = 20\ndram.rows = 8192\n");
    DramTiming t = DramTiming::fromConfig(config);
    EXPECT_EQ(t.tCL, 20u);
    EXPECT_EQ(t.rows, 8192u);
    EXPECT_EQ(t.tRCD, DramTiming::hbm2().tRCD); // untouched field
}

TEST(DramTimingTest, InvalidGeometryRejected)
{
    DramTiming t = DramTiming::hbm2();
    t.rows = 1000; // not a power of two
    EXPECT_THROW(t.validate(), FatalError);
    t = DramTiming::hbm2();
    t.clockMhz = 0;
    EXPECT_THROW(t.validate(), FatalError);
}

TEST(DramTimingTest, InvalidEnergyRejectedNamingPresetAndField)
{
    // A bad energy coefficient poisons dram.energy_pj with NaN/Inf (or
    // a negative total) far downstream of the typo, so validate() must
    // reject it up front AND the message must name both the offending
    // field and the preset — a bare "invalid value" on a multi-preset
    // sweep is undiagnosable.
    auto expectRejected = [](DramTiming t, const char *field) {
        t.name = "hbm2";
        try {
            t.validate();
            FAIL() << field << ": invalid energy value accepted";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find(field),
                      std::string::npos)
                << "message does not name the field: " << error.what();
            EXPECT_NE(std::string(error.what()).find("hbm2"),
                      std::string::npos)
                << "message does not name the preset: " << error.what();
        }
    };

    DramTiming t = DramTiming::hbm2();
    t.eReadPj = -1.0;
    expectRejected(t, "energy_read_pj");
    t = DramTiming::hbm2();
    t.eActPrePj = std::numeric_limits<double>::quiet_NaN();
    expectRejected(t, "energy_act_pre_pj");
    t = DramTiming::hbm2();
    t.eWritePj = std::numeric_limits<double>::infinity();
    expectRejected(t, "energy_write_pj");
    t = DramTiming::hbm2();
    t.eRefreshPj = -0.5;
    expectRejected(t, "energy_refresh_pj");
    t = DramTiming::hbm2();
    t.backgroundMw = std::numeric_limits<double>::infinity();
    expectRejected(t, "background_mw");

    // And the config path routes through the same validation: energy
    // knobs are parsed (not silently ignored), so a config typo fails
    // loudly instead of shipping NaN telemetry.
    auto config = ConfigFile::fromString(
        "dram.protocol = hbm2\ndram.energy_read_pj = -3\n");
    EXPECT_THROW(DramTiming::fromConfig(config), FatalError);
    auto good = ConfigFile::fromString(
        "dram.protocol = hbm2\ndram.energy_read_pj = 99.5\n");
    EXPECT_DOUBLE_EQ(DramTiming::fromConfig(good).eReadPj, 99.5);
}

// --- address mapping ---

TEST(AddressMappingTest, DecodeRoundTripCoversFields)
{
    DramTiming t = DramTiming::hbm2();
    AddressMapping mapping(t);
    // Walk addresses that should differ only in one field each.
    DramCoord base = mapping.decode(0);
    EXPECT_EQ(base.row, 0u);
    EXPECT_EQ(base.column, 0u);

    Addr one_tx = t.transactionBytes();
    EXPECT_EQ(mapping.decode(one_tx).column, 1u);

    Addr one_row_worth = t.rowBytes; // full column range -> next bank
    DramCoord c = mapping.decode(one_row_worth);
    EXPECT_EQ(c.column, 0u);
    EXPECT_EQ(c.bank, 1u);
}

TEST(AddressMappingTest, DistinctAddressesDistinctCoords)
{
    DramTiming t = DramTiming::hbm2();
    AddressMapping mapping(t);
    std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (Addr addr = 0; addr < 64 * t.transactionBytes();
         addr += t.transactionBytes()) {
        DramCoord coord = mapping.decode(addr);
        auto key = std::make_tuple(coord.flatBank(t), coord.row,
                                   coord.column);
        EXPECT_TRUE(seen.insert(key).second) << "aliased at " << addr;
    }
}

TEST(AddressMappingTest, OrderStringsChangeLayout)
{
    DramTiming t = DramTiming::hbm2();
    AddressMapping row_major(t, "ro-ra-bg-ba-co");
    AddressMapping bank_low(t, "ro-ra-co-bg-ba");
    Addr addr = t.transactionBytes();
    EXPECT_EQ(row_major.decode(addr).column, 1u);
    EXPECT_EQ(bank_low.decode(addr).bank, 1u);
}

TEST(AddressMappingTest, MalformedOrdersRejected)
{
    DramTiming t = DramTiming::hbm2();
    EXPECT_THROW(AddressMapping(t, "ro-ra-bg-ba"), FatalError);
    EXPECT_THROW(AddressMapping(t, "ro-ra-bg-ba-ba"), FatalError);
    EXPECT_THROW(AddressMapping(t, "ro-ra-bg-ba-xx"), FatalError);
}

// --- channel behavior ---

struct ChannelHarness
{
    DramTiming timing = DramTiming::hbm2();
    AddressMapping mapping{timing};
    DramChannel channel{timing, mapping, 32, "test.ch"};
    std::vector<std::pair<std::uint64_t, Cycle>> completions;
    Cycle now = 0;

    ChannelHarness()
    {
        channel.setCallback([this](const DramRequest &request, Cycle at) {
            completions.emplace_back(request.tag, at);
        });
    }

    void
    submitRead(Addr addr, std::uint64_t tag, bool priority = false)
    {
        DramRequest request;
        request.paddr = addr;
        request.op = MemOp::Read;
        request.core = 0;
        request.tag = tag;
        request.priority = priority;
        ASSERT_TRUE(channel.canAccept(priority));
        channel.enqueue(request, addr, now);
    }

    void
    runUntilDrained(Cycle limit = 100000)
    {
        while (channel.busy() && now < limit) {
            channel.tick(now);
            ++now;
        }
        ASSERT_FALSE(channel.busy()) << "channel did not drain";
    }
};

TEST(DramChannelTest, SingleReadLatencyIsActRcdClBurst)
{
    ChannelHarness h;
    h.submitRead(0, 1);
    h.runUntilDrained();
    ASSERT_EQ(h.completions.size(), 1u);
    // tick0 activates, tick tRCD issues read, + tCL + burst.
    Cycle expected = 0 + h.timing.tRCD + h.timing.tCL +
                     h.timing.burstCycles();
    EXPECT_EQ(h.completions[0].second, expected);
}

TEST(DramChannelTest, RowHitFasterThanRowMiss)
{
    ChannelHarness h;
    h.submitRead(0, 1);
    h.runUntilDrained();
    Cycle first_done = h.completions[0].second;

    // Same row again: no activate needed.
    h.submitRead(h.timing.transactionBytes(), 2);
    h.runUntilDrained();
    Cycle hit_latency = h.completions[1].second - h.now + 1;

    // A different row in the same bank forces precharge + activate.
    Cycle start = h.now;
    h.submitRead(static_cast<Addr>(h.timing.rowBytes) *
                     h.timing.banksPerRank() * h.timing.ranks,
                 3);
    h.runUntilDrained();
    Cycle miss_latency = h.completions[2].second - start;
    EXPECT_GT(miss_latency, hit_latency);
    EXPECT_GT(first_done, 0u);
    EXPECT_EQ(h.channel.stats().counterValue("row_hits"), 1u);
    EXPECT_EQ(h.channel.stats().counterValue("row_misses"), 2u);
}

TEST(DramChannelTest, BankParallelismBeatsSameBank)
{
    // Two reads to different banks overlap their activates; two reads
    // to different rows of one bank serialize on precharge/activate.
    ChannelHarness parallel;
    parallel.submitRead(0, 1);
    parallel.submitRead(parallel.timing.rowBytes, 2); // next bank
    parallel.runUntilDrained();
    Cycle parallel_done = parallel.completions.back().second;

    ChannelHarness serial;
    Addr same_bank_next_row = static_cast<Addr>(serial.timing.rowBytes) *
                              serial.timing.banksPerRank() *
                              serial.timing.ranks;
    serial.submitRead(0, 1);
    serial.submitRead(same_bank_next_row, 2);
    serial.runUntilDrained();
    Cycle serial_done = serial.completions.back().second;

    EXPECT_LT(parallel_done, serial_done);
}

TEST(DramChannelTest, AllRequestsComplete)
{
    ChannelHarness h;
    std::set<std::uint64_t> tags;
    std::uint64_t tag = 0;
    for (int wave = 0; wave < 8; ++wave) {
        for (int i = 0; i < 24; ++i) {
            Addr addr = static_cast<Addr>(tag) * 4096 + wave * 64;
            if (!h.channel.canAccept(false))
                break;
            h.submitRead(addr, tag);
            tags.insert(tag);
            ++tag;
        }
        // Let the channel make progress between waves.
        for (int t = 0; t < 200; ++t) {
            h.channel.tick(h.now);
            ++h.now;
        }
    }
    h.runUntilDrained(1000000);
    EXPECT_EQ(h.completions.size(), tags.size());
    for (const auto &[done_tag, at] : h.completions)
        EXPECT_TRUE(tags.count(done_tag));
}

TEST(DramChannelTest, ThroughputBoundedByBus)
{
    // Stream row hits: steady state must not exceed one transaction per
    // burstCycles, and should be close to it.
    ChannelHarness h;
    std::uint64_t issued = 0;
    Cycle limit = 4000;
    while (h.now < limit) {
        if (h.channel.canAccept(false) && issued < 100000) {
            // Sequential within one row, then next row of another bank.
            Addr addr = (issued % 32) * 64 +
                        (issued / 32) * h.timing.rowBytes;
            h.submitRead(addr, issued);
            ++issued;
        }
        h.channel.tick(h.now);
        ++h.now;
    }
    double max_tx = static_cast<double>(limit) / h.timing.burstCycles();
    EXPECT_LE(h.completions.size(), max_tx);
    EXPECT_GT(h.completions.size(), max_tx * 0.5);
}

TEST(DramChannelTest, RefreshHappensUnderLoad)
{
    ChannelHarness h;
    std::uint64_t tag = 0;
    Cycle limit = h.timing.tREFI * 3;
    while (h.now < limit) {
        if (h.channel.canAccept(false))
            h.submitRead((tag % 64) * 64, tag), ++tag;
        h.channel.tick(h.now);
        ++h.now;
    }
    EXPECT_GE(h.channel.stats().counterValue("refreshes"), 2u);
}

TEST(DramChannelTest, PriorityRequestsJumpTheQueue)
{
    ChannelHarness h;
    // Fill with bulk traffic to distinct rows (slow), then one priority
    // read; the priority read must finish before most bulk entries.
    for (std::uint64_t i = 0; i < 24; ++i) {
        h.submitRead(i * h.timing.rowBytes * h.timing.banksPerRank(),
                     i);
    }
    h.submitRead(4096, 100, true);
    h.runUntilDrained(1000000);
    Cycle priority_done = 0;
    std::vector<Cycle> bulk_done;
    for (const auto &[tag, at] : h.completions) {
        if (tag == 100)
            priority_done = at;
        else
            bulk_done.push_back(at);
    }
    std::sort(bulk_done.begin(), bulk_done.end());
    // Better than the median bulk request despite arriving last.
    EXPECT_LT(priority_done, bulk_done[bulk_done.size() / 2]);
}

TEST(DramChannelTest, BulkCannotFillPriorityReserve)
{
    ChannelHarness h;
    std::uint64_t accepted = 0;
    while (h.channel.canAccept(false)) {
        h.submitRead(accepted * 4096, accepted);
        ++accepted;
    }
    EXPECT_LT(accepted, 32u); // reserve kept free
    EXPECT_TRUE(h.channel.canAccept(true));
}

// --- system ---

SharingPolicy
byCounts(std::vector<std::uint32_t> counts)
{
    SharingPolicy policy;
    policy.channels = SharingPolicy::Channels::ByCounts;
    policy.channelCounts = std::move(counts);
    return policy;
}

SharingPolicy
explicitSets(std::vector<std::vector<std::uint32_t>> sets)
{
    SharingPolicy policy;
    policy.channels = SharingPolicy::Channels::Explicit;
    policy.explicitSets = std::move(sets);
    return policy;
}

/** Bandwidth caps only; the channel layout stays as it is. */
SharingPolicy
sharesOnly(std::vector<std::uint32_t> shares)
{
    SharingPolicy policy;
    policy.channels = SharingPolicy::Channels::Keep;
    policy.bandwidthShares = std::move(shares);
    return policy;
}

TEST(DramSystemTest, RoutesEveryCoreWhenShared)
{
    DramSystem dram(DramTiming::hbm2(), 4, 2, 32);
    dram.applyPolicy(SharingPolicy{});
    std::uint64_t done = 0;
    dram.setCallback([&](const DramRequest &, Cycle) { ++done; });
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        DramRequest request;
        request.paddr = i * 64;
        request.op = MemOp::Read;
        request.core = static_cast<CoreId>(i % 2);
        request.tag = i;
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
    }
    while (dram.busy() && now < 100000) {
        dram.tick(now);
        ++now;
    }
    EXPECT_EQ(done, 64u);
    EXPECT_GT(dram.coreBytes(0), 0u);
    EXPECT_GT(dram.coreBytes(1), 0u);
}

TEST(DramSystemTest, PartitionByCountsIsolatesChannels)
{
    DramSystem dram(DramTiming::hbm2(), 8, 2, 32);
    dram.applyPolicy(byCounts({2, 6}));
    std::map<std::uint64_t, std::uint64_t> per_core_bytes;
    dram.setCallback([&](const DramRequest &request, Cycle) {
        per_core_bytes[request.core] += 64;
    });
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 128; ++i) {
        DramRequest request;
        request.paddr = i * 64;
        request.op = MemOp::Read;
        request.core = static_cast<CoreId>(i % 2);
        request.tag = i;
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
    }
    while (dram.busy() && now < 100000) {
        dram.tick(now);
        ++now;
    }
    EXPECT_EQ(per_core_bytes[0] + per_core_bytes[1], 128u * 64);
    // Channels 0-1 only ever saw core 0 traffic; 2-7 only core 1.
    std::uint64_t low = dram.channel(0).stats().counterValue("reads") +
                        dram.channel(1).stats().counterValue("reads");
    EXPECT_EQ(low * 64, per_core_bytes[0]);
}

TEST(DramSystemTest, PartitionValidation)
{
    DramSystem dram(DramTiming::hbm2(), 8, 2, 32);
    EXPECT_THROW(dram.applyPolicy(byCounts({4})), FatalError);
    EXPECT_THROW(dram.applyPolicy(byCounts({4, 3})), FatalError);
    EXPECT_THROW(dram.applyPolicy(byCounts({0, 8})), FatalError);
    // A set for a core the system lacks (core 5 of 2), an out-of-range
    // channel, and a core left without channels.
    EXPECT_THROW(dram.applyPolicy(explicitSets({{0}, {1}, {2}, {3}, {4},
                                                {5}})),
                 FatalError);
    EXPECT_THROW(dram.applyPolicy(explicitSets({{9}, {1}})), FatalError);
    EXPECT_THROW(dram.applyPolicy(explicitSets({{}, {1}})), FatalError);
    EXPECT_THROW(dram.applyPolicy(sharesOnly({1})), FatalError);
    EXPECT_THROW(dram.applyPolicy(sharesOnly({0, 0})), FatalError);
    dram.applyPolicy(explicitSets({{0, 7}, {1, 2, 3}}));
}

TEST(DramSystemTest, BandwidthSharesThrottleEnqueue)
{
    DramSystem dram(DramTiming::hbm2(), 4, 2, 64);
    dram.applyPolicy(sharesOnly({1, 1}));
    Cycle now = 0;
    // Core 0 hammers; acceptance rate must approximate half of the
    // system peak: 4 channels * 32 B/cycle avg = 128 B/cy total,
    // half = 64 B/cy = 1 transaction per cycle.
    std::uint64_t accepted = 0;
    for (; now < 2000; ++now) {
        for (int burst = 0; burst < 8; ++burst) {
            DramRequest request;
            request.paddr = accepted * 64;
            request.op = MemOp::Read;
            request.core = 0;
            request.tag = accepted;
            if (dram.tryEnqueue(request, now))
                ++accepted;
        }
        dram.tick(now);
    }
    double rate = static_cast<double>(accepted) / 2000.0;
    EXPECT_LE(rate, 1.1); // ~1 tx/cycle cap (+ bucket burst slack)
    EXPECT_GT(rate, 0.5);
}

TEST(DramSystemTest, StarvedBucketWakesTheLoopOnlyForARefusal)
{
    // A fast-fidelity transfer drains core 0's bucket without queueing
    // anything: no client waits on the refill, so the event bound must
    // not wake the loop at the crossing. A refused admission arms it.
    DramSystem dram(DramTiming::hbm2(), 4, 2, 64);
    dram.applyPolicy(sharesOnly({1, 1}));
    dram.setEventDriven(true);
    dram.fastTransfer(0, 1000, false, 0);
    dram.tick(1);
    EXPECT_EQ(dram.nextEventCycle(1), kCycleNever);

    DramRequest request;
    request.op = MemOp::Read;
    request.core = 0;
    ASSERT_FALSE(dram.tryEnqueue(request, 2)); // bucket still empty
    const Cycle crossing = dram.nextEventCycle(2);
    ASSERT_NE(crossing, kCycleNever);
    ASSERT_GT(crossing, Cycle{2});
    dram.tick(crossing - 1);
    EXPECT_FALSE(dram.consumeRetrySignal());
    ASSERT_FALSE(dram.tryEnqueue(request, crossing - 1));
    dram.tick(crossing);
    EXPECT_TRUE(dram.consumeRetrySignal());
    EXPECT_TRUE(dram.tryEnqueue(request, crossing));
}

TEST(DramSystemTest, EmptySharesDisableThrottle)
{
    DramSystem dram(DramTiming::hbm2(), 4, 2, 64);
    dram.applyPolicy(sharesOnly({1, 1}));
    dram.applyPolicy(sharesOnly({}));
    DramRequest request;
    request.paddr = 0;
    request.op = MemOp::Read;
    request.core = 0;
    // Many enqueues in the same cycle must now be possible.
    int accepted = 0;
    for (int i = 0; i < 16; ++i) {
        request.paddr = static_cast<Addr>(i) * 4096;
        request.tag = static_cast<std::uint64_t>(i);
        if (dram.tryEnqueue(request, 0))
            ++accepted;
    }
    EXPECT_EQ(accepted, 16);
}

TEST(DramSystemTest, TelemetryTracksBytes)
{
    DramSystem dram(DramTiming::hbm2(), 2, 1, 32);
    dram.enableTelemetry(100);
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        DramRequest request;
        request.paddr = i * 64;
        request.op = MemOp::Read;
        request.core = 0;
        request.tag = i;
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
    }
    while (dram.busy() && now < 100000) {
        dram.tick(now);
        ++now;
    }
    dram.finalizeTelemetry();
    std::uint64_t total = 0;
    for (auto window : dram.totalTelemetry().windows())
        total += window;
    EXPECT_EQ(total, 32u * 64);
    EXPECT_EQ(total, dram.coreBytes(0));
}

TEST(DramSystemTest, NonPowerOfTwoChannelSets)
{
    // 7 channels for one core (the 1:7 ratio case) must route without
    // aliasing: distinct addresses complete distinctly.
    DramSystem dram(DramTiming::hbm2(), 8, 2, 32);
    dram.applyPolicy(byCounts({1, 7}));
    std::set<std::uint64_t> tags_done;
    dram.setCallback([&](const DramRequest &request, Cycle) {
        tags_done.insert(request.tag);
    });
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 70; ++i) {
        DramRequest request;
        request.paddr = i * 64;
        request.op = MemOp::Read;
        request.core = 1;
        request.tag = i;
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
    }
    while (dram.busy() && now < 100000) {
        dram.tick(now);
        ++now;
    }
    EXPECT_EQ(tags_done.size(), 70u);
}

TEST(DramChannelTest, FawLimitsActivationBursts)
{
    // Issue reads to 8 distinct banks: only 4 activates may happen in
    // any tFAW window, so the 5th..8th activates are delayed relative
    // to a hypothetical unconstrained schedule (tRRD * 7).
    ChannelHarness h;
    for (std::uint64_t bank = 0; bank < 8; ++bank)
        h.submitRead(bank * h.timing.rowBytes, bank);
    h.runUntilDrained();
    // Completion of the last read comes after at least one full tFAW
    // window (activates 0..3) plus the second window start.
    Cycle last = 0;
    for (const auto &[tag, at] : h.completions)
        last = std::max(last, at);
    EXPECT_GE(last, static_cast<Cycle>(h.timing.tFAW) +
                        h.timing.tRCD + h.timing.tCL);
}

// --- energy model ---

TEST(DramEnergyTest, IdleChannelBurnsOnlyBackground)
{
    DramTiming timing = DramTiming::hbm2();
    AddressMapping mapping(timing);
    DramChannel channel(timing, mapping, 32, "e.ch");
    // 1000 cycles at 1 GHz = 1000 ns; background 80 mW -> 80000 pJ.
    EXPECT_DOUBLE_EQ(channel.energyPj(1000), 80000.0);
    EXPECT_GT(channel.energyPj(2000), channel.energyPj(1000));
}

TEST(DramEnergyTest, TrafficAddsCommandEnergy)
{
    ChannelHarness h;
    h.submitRead(0, 1); // one activate + one read
    h.runUntilDrained();
    double idle = DramTiming::hbm2().backgroundMw * // pJ/ns
                  (static_cast<double>(h.now) * 1e3 / 1000);
    double total = h.channel.energyPj(h.now);
    EXPECT_NEAR(total - idle,
                h.timing.eActPrePj + h.timing.eReadPj, 1e-6);
}

TEST(DramEnergyTest, MoreTrafficMoreEnergy)
{
    auto energy_for = [](std::uint64_t requests) {
        ChannelHarness h;
        for (std::uint64_t i = 0; i < requests; ++i) {
            while (!h.channel.canAccept(false)) {
                h.channel.tick(h.now);
                ++h.now;
            }
            h.submitRead(i * 4096, i);
        }
        h.runUntilDrained();
        // Compare command energy only (equal elapsed window).
        return h.channel.energyPj(0);
    };
    EXPECT_GT(energy_for(64), energy_for(8));
}

TEST(DramEnergyTest, SystemSumsChannels)
{
    DramSystem dram(DramTiming::hbm2(), 4, 1, 32);
    double idle4 = dram.totalEnergyPj(1000);
    DramSystem dram1(DramTiming::hbm2(), 1, 1, 32);
    EXPECT_DOUBLE_EQ(idle4, 4 * dram1.totalEnergyPj(1000));
}

// Property sweep: the channel drains any random-ish workload and
// conserves requests, for several queue depths and timing presets.
struct DrainCase
{
    const char *preset;
    std::uint32_t queueDepth;
    std::uint32_t requests;
};

// Printed by value so the test names stay the same from build to build
// (gtest's fallback dumps the raw bytes, including the preset pointer).
void
PrintTo(const DrainCase &drain, std::ostream *os)
{
    *os << drain.preset << "_depth" << drain.queueDepth << '_'
        << drain.requests << "req";
}

class ChannelDrainTest : public ::testing::TestWithParam<DrainCase>
{
};

TEST_P(ChannelDrainTest, ConservesAndDrains)
{
    DramTiming timing = DramTiming::preset(GetParam().preset);
    AddressMapping mapping(timing);
    DramChannel channel(timing, mapping, GetParam().queueDepth, "p.ch");
    std::uint64_t completed = 0;
    channel.setCallback(
        [&](const DramRequest &, Cycle) { ++completed; });

    std::uint64_t submitted = 0;
    Cycle now = 0;
    std::uint64_t address_seed = 0x12345;
    while (submitted < GetParam().requests && now < 2000000) {
        if (channel.canAccept(false)) {
            address_seed = address_seed * 6364136223846793005ULL + 13;
            DramRequest request;
            request.paddr = (address_seed >> 16) % (1 << 28);
            request.op = (address_seed & 1) ? MemOp::Write : MemOp::Read;
            request.core = 0;
            request.tag = submitted;
            channel.enqueue(request, request.paddr & ~Addr{63}, now);
            ++submitted;
        }
        channel.tick(now);
        ++now;
    }
    while (channel.busy() && now < 4000000) {
        channel.tick(now);
        ++now;
    }
    EXPECT_EQ(submitted, GetParam().requests);
    EXPECT_EQ(completed, submitted);
    EXPECT_FALSE(channel.busy());
    EXPECT_EQ(channel.stats().counterValue("reads") +
                  channel.stats().counterValue("writes"),
              submitted);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ChannelDrainTest,
    ::testing::Values(DrainCase{"hbm2", 8, 500},
                      DrainCase{"hbm2", 32, 2000},
                      DrainCase{"hbm2", 64, 2000},
                      DrainCase{"ddr4", 16, 1000},
                      DrainCase{"ddr4", 32, 2000}));

} // namespace
} // namespace mnpu
