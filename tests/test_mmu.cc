/**
 * @file
 * Unit and property tests for the MMU substrate: the page allocator,
 * the radix page-table model, the TLB, and the MMU front-end with its
 * walker-pool partitioning modes.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "mem/memory_backend.hh"
#include "mmu/mmu.hh"
#include "mmu/paging.hh"
#include "mmu/tlb.hh"

namespace mnpu
{
namespace
{

// --- paging ---

TEST(PagingTest, WalkLevelsByPageSize)
{
    EXPECT_EQ(walkLevelsForPageSize(4096), 4u);       // 4 KB
    EXPECT_EQ(walkLevelsForPageSize(64 << 10), 3u);   // 64 KB
    EXPECT_EQ(walkLevelsForPageSize(1 << 20), 2u);    // 1 MB
    EXPECT_EQ(walkLevelsForPageSize(2 << 20), 2u);    // 2 MB
    EXPECT_THROW(walkLevelsForPageSize(2048), FatalError);
    EXPECT_THROW(walkLevelsForPageSize(5000), FatalError);
}

TEST(PageAllocatorTest, FirstTouchDistinctFrames)
{
    PageAllocator allocator(0, 1 << 20, 4096);
    std::set<Addr> frames;
    for (Addr page = 0; page < 10; ++page) {
        Addr pa = allocator.translate(0, page * 4096);
        EXPECT_EQ(pa % 4096, 0u);
        EXPECT_TRUE(frames.insert(pa).second);
    }
    EXPECT_EQ(allocator.framesAllocated(), 10u);
}

TEST(PageAllocatorTest, StableMappingAndOffsets)
{
    PageAllocator allocator(0, 1 << 20, 4096);
    Addr first = allocator.translate(0, 0x1234);
    EXPECT_EQ(first % 4096, 0x234u);
    EXPECT_EQ(allocator.translate(0, 0x1234), first);
    EXPECT_EQ(allocator.translate(0, 0x1000), first - 0x234);
}

TEST(PageAllocatorTest, AsidsAreIsolated)
{
    PageAllocator allocator(0, 1 << 20, 4096);
    Addr a = allocator.translate(0, 0);
    Addr b = allocator.translate(1, 0);
    EXPECT_NE(a, b);
    EXPECT_TRUE(allocator.isMapped(0, 0));
    EXPECT_FALSE(allocator.isMapped(2, 0));
}

TEST(PageAllocatorTest, ExhaustionIsFatal)
{
    PageAllocator allocator(0, 4 * 4096, 4096);
    for (Addr page = 0; page < 4; ++page)
        allocator.translate(0, page * 4096);
    EXPECT_EQ(allocator.framesAvailable(), 0u);
    EXPECT_THROW(allocator.translate(0, 100 * 4096), FatalError);
}

TEST(PageAllocatorTest, ConstructionValidation)
{
    EXPECT_THROW(PageAllocator(0, 1 << 20, 1000), FatalError);
    EXPECT_THROW(PageAllocator(0, 100, 4096), FatalError);
    EXPECT_THROW(PageAllocator(123, 1 << 20, 4096), FatalError);
}

TEST(PageTableModelTest, PathDepthMatchesPageSize)
{
    for (std::uint64_t page : {4096ull, 64ull << 10, 1ull << 20}) {
        PageAllocator allocator(0, 64ULL << 20, page);
        PageTableModel table(allocator);
        auto path = table.walkPath(0, 0);
        EXPECT_EQ(path.size(), walkLevelsForPageSize(page));
        EXPECT_EQ(path.size(), table.levels());
    }
}

TEST(PageTableModelTest, SamePageSamePath)
{
    PageAllocator allocator(0, 64ULL << 20, 4096);
    PageTableModel table(allocator);
    auto a = table.walkPath(0, 0x1000);
    auto b = table.walkPath(0, 0x1fff);
    EXPECT_EQ(a, b);
}

TEST(PageTableModelTest, AdjacentPagesShareUpperLevels)
{
    PageAllocator allocator(0, 64ULL << 20, 4096);
    PageTableModel table(allocator);
    auto a = table.walkPath(0, 0x0000);
    auto b = table.walkPath(0, 0x1000);
    ASSERT_EQ(a.size(), 4u);
    // Upper three levels identical, leaf entries adjacent.
    for (int level = 0; level < 3; ++level)
        EXPECT_EQ(a[level], b[level]);
    EXPECT_EQ(b[3], a[3] + 8);
}

TEST(PageTableModelTest, DistinctAsidsDistinctRoots)
{
    PageAllocator allocator(0, 64ULL << 20, 4096);
    PageTableModel table(allocator);
    auto a = table.walkPath(0, 0);
    auto b = table.walkPath(1, 0);
    EXPECT_NE(a[0], b[0]);
}

TEST(PageTableModelTest, NodesAllocatedLazily)
{
    PageAllocator allocator(0, 64ULL << 20, 4096);
    PageTableModel table(allocator);
    EXPECT_EQ(table.nodesAllocated(), 0u);
    table.walkPath(0, 0);
    std::uint64_t after_first = table.nodesAllocated();
    EXPECT_EQ(after_first, 4u); // one node per level
    table.walkPath(0, 0x1000);  // same nodes
    EXPECT_EQ(table.nodesAllocated(), after_first);
    // A distant address allocates fresh lower-level nodes.
    table.walkPath(0, 1ULL << 40);
    EXPECT_GT(table.nodesAllocated(), after_first);
}

// --- TLB ---

TEST(TlbTest, HitAfterInsertMissBefore)
{
    Tlb tlb(64, 8, "t");
    EXPECT_FALSE(tlb.lookup(0, 5));
    tlb.insert(0, 5);
    EXPECT_TRUE(tlb.lookup(0, 5));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(TlbTest, AsidTagPreventsCrossHits)
{
    Tlb tlb(64, 8, "t");
    tlb.insert(0, 5);
    EXPECT_FALSE(tlb.lookup(1, 5));
    EXPECT_TRUE(tlb.lookup(0, 5));
}

TEST(TlbTest, LruEvictsLeastRecentlyUsed)
{
    Tlb tlb(8, 8, "t"); // one set of 8 ways
    for (Addr vpn = 0; vpn < 8; ++vpn)
        tlb.insert(0, vpn * tlb.numSets()); // all in set 0
    tlb.lookup(0, 0); // refresh vpn 0
    tlb.insert(0, 8 * tlb.numSets()); // evicts vpn 1 (LRU)
    EXPECT_TRUE(tlb.contains(0, 0));
    EXPECT_FALSE(tlb.contains(0, 1 * tlb.numSets()));
    EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(TlbTest, ConflictMissesWithLowAssociativity)
{
    Tlb direct(64, 1, "d");
    // Two VPNs mapping to the same set thrash a direct-mapped TLB.
    Addr a = 0, b = direct.numSets();
    direct.insert(0, a);
    direct.insert(0, b);
    EXPECT_FALSE(direct.contains(0, a));

    Tlb assoc(64, 2, "a");
    assoc.insert(0, 0);
    assoc.insert(0, assoc.numSets());
    EXPECT_TRUE(assoc.contains(0, 0));
    EXPECT_TRUE(assoc.contains(0, assoc.numSets()));
}

TEST(TlbTest, InsertIsIdempotent)
{
    Tlb tlb(8, 8, "t");
    tlb.insert(0, 3);
    tlb.insert(0, 3);
    EXPECT_EQ(tlb.evictions(), 0u);
    int present = 0;
    for (Addr vpn = 0; vpn < 8; ++vpn)
        present += tlb.contains(0, vpn * tlb.numSets() + 3) ? 1 : 0;
    EXPECT_EQ(present, 1);
}

TEST(TlbTest, FillAfterMissMatchesInsert)
{
    // The fast path's victim-only fill must leave the table, the LRU
    // clock and the counters exactly as insert() would, whatever the
    // set count (odd counts index by modulo) and however sets fill up
    // after a flush leaves holes.
    for (auto [entries, ways] : {std::pair{64u, 8u}, {24u, 8u}, {16u, 1u},
                                 {8u, 8u}}) {
        Tlb inserted(entries, ways, "t");
        Tlb filled(entries, ways, "t");
        std::uint64_t lcg = 0x9e3779b97f4a7c15ULL + entries + ways;
        for (int step = 0; step < 4000; ++step) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            Asid asid = static_cast<Asid>((lcg >> 60) % 3);
            Addr vpn = (lcg >> 33) % (entries * 3);
            if (step % 997 == 996) {
                inserted.flushAsid(asid);
                filled.flushAsid(asid);
                continue;
            }
            bool hit = inserted.lookup(asid, vpn);
            ASSERT_EQ(hit, filled.lookup(asid, vpn));
            if (!hit) {
                inserted.insert(asid, vpn);
                filled.fillAfterMiss(asid, vpn);
            }
            StateWriter a;
            StateWriter b;
            inserted.saveState(a);
            filled.saveState(b);
            ASSERT_EQ(a.bytes(), b.bytes())
                << entries << "x" << ways << " step " << step;
        }
        EXPECT_GT(filled.evictions(), 0u);
    }
}

TEST(TlbTest, FlushAsidRemovesOnlyThatAsid)
{
    Tlb tlb(64, 8, "t");
    tlb.insert(0, 1);
    tlb.insert(1, 1);
    tlb.flushAsid(0);
    EXPECT_FALSE(tlb.contains(0, 1));
    EXPECT_TRUE(tlb.contains(1, 1));
}

TEST(TlbTest, ConstructionValidation)
{
    EXPECT_THROW(Tlb(0, 8, "t"), FatalError);
    EXPECT_THROW(Tlb(64, 0, "t"), FatalError);
    EXPECT_THROW(Tlb(65, 8, "t"), FatalError);  // not divisible
    EXPECT_NO_THROW(Tlb(24, 8, "t"));           // 3 sets: modulo index
}

class TlbCapacityTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TlbCapacityTest, FullCapacityRetainedUnderSequentialFill)
{
    std::uint32_t ways = GetParam();
    Tlb tlb(256, ways, "t");
    // Sequential VPNs spread evenly over sets: all 256 must be held.
    for (Addr vpn = 0; vpn < 256; ++vpn)
        tlb.insert(7, vpn);
    for (Addr vpn = 0; vpn < 256; ++vpn)
        EXPECT_TRUE(tlb.contains(7, vpn)) << "vpn " << vpn;
    EXPECT_EQ(tlb.evictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, TlbCapacityTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(TlbTest, SharedTlbCrossCoreConflicts)
{
    // Two ASIDs hammering the same set indices in a low-associativity
    // shared TLB evict each other; the 8-way paper configuration holds
    // both working sets.
    for (auto [ways, expect_conflicts] :
         std::initializer_list<std::pair<std::uint32_t, bool>>{
             {1, true}, {8, false}}) {
        Tlb tlb(64, ways, "shared");
        std::uint32_t sets = tlb.numSets();
        // Each ASID installs `ways/2 + 1`-deep same-set footprints when
        // possible; for 1-way this always conflicts.
        for (Addr i = 0; i < 4; ++i) {
            tlb.insert(0, i * sets);
            tlb.insert(1, i * sets);
        }
        bool lost = false;
        for (Addr i = 0; i < 4; ++i)
            lost = lost || !tlb.contains(0, i * sets) ||
                   !tlb.contains(1, i * sets);
        EXPECT_EQ(lost, expect_conflicts) << ways << " ways";
    }
}

// --- MMU front-end with a real DRAM behind it ---

/** A DRAM-only memory system for two cores' walkers to read through. */
std::unique_ptr<MemoryBackend>
dramMemory(std::uint32_t channels, std::uint32_t queue_depth)
{
    return makeMemoryBackend(MemBackendKind::Dram, DramTiming::hbm2(),
                             channels, /*num_cores=*/2, queue_depth,
                             PcmConfig{}, FabricConfig{});
}

struct MmuHarness
{
    std::unique_ptr<MemoryBackend> memory = dramMemory(2, 32);
    MemoryBackend &dram = *memory;
    PageAllocator allocator{0, 256ULL << 20, 4096};
    PageTableModel pageTable{allocator};
    std::unique_ptr<Mmu> mmu;
    std::map<std::uint64_t, Addr> translated;
    Cycle now = 0;

    explicit MmuHarness(MmuConfig config = {})
    {
        config.numCores = 2;
        mmu = std::make_unique<Mmu>(config, allocator, pageTable, dram);
        dram.setCallback([this](const DramRequest &request, Cycle at) {
            if (Mmu::isWalkTag(request.tag))
                mmu->onDramCompletion(request.tag, at);
        });
        mmu->setCallback(
            [this](std::uint64_t tag, Addr paddr, Cycle) {
                translated[tag] = paddr;
            });
    }

    void
    runCycles(Cycle count)
    {
        for (Cycle c = 0; c < count; ++c) {
            dram.tick(now);
            mmu->tick(now);
            ++now;
        }
    }

    void
    runUntilIdle(Cycle limit = 200000)
    {
        while ((mmu->busy() || dram.busy()) && now < limit) {
            dram.tick(now);
            mmu->tick(now);
            ++now;
        }
        ASSERT_FALSE(mmu->busy()) << "MMU did not drain";
    }
};

TEST(MmuTest, TranslationCompletesViaWalk)
{
    MmuHarness h;
    ASSERT_TRUE(h.mmu->requestTranslation(0, 0, 0x12345, 1, h.now));
    h.runUntilIdle();
    ASSERT_TRUE(h.translated.count(1));
    EXPECT_EQ(h.translated[1] % 4096, 0x345u);
    EXPECT_EQ(h.mmu->stats().counterValue("walks"), 1u);
    EXPECT_EQ(h.mmu->stats().counterValue("tlb_misses"), 1u);
}

TEST(MmuTest, SecondAccessHitsTlbWithoutWalk)
{
    MmuHarness h;
    h.mmu->requestTranslation(0, 0, 0x1000, 1, h.now);
    h.runUntilIdle();
    h.mmu->requestTranslation(0, 0, 0x1040, 2, h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.mmu->stats().counterValue("walks"), 1u);
    EXPECT_EQ(h.mmu->stats().counterValue("tlb_hits"), 1u);
    EXPECT_EQ(h.translated[2] - h.translated[1], 0x40u);
}

TEST(MmuTest, MshrCoalescesSamePageMisses)
{
    MmuHarness h;
    for (std::uint64_t i = 0; i < 16; ++i)
        h.mmu->requestTranslation(0, 0, 0x4000 + i * 64, i, h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.translated.size(), 16u);
    EXPECT_EQ(h.mmu->stats().counterValue("walks"), 1u);
    EXPECT_EQ(h.mmu->stats().counterValue("mshr_attaches"), 15u);
}

TEST(MmuTest, TranslationDisabledBypassesEverything)
{
    MmuConfig config;
    config.translationEnabled = false;
    MmuHarness h(config);
    h.mmu->requestTranslation(0, 0, 0x9999, 1, h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.translated.size(), 1u);
    EXPECT_EQ(h.mmu->stats().counterValue("walks"), 0u);
}

TEST(MmuTest, LargerPagesWalkFewerLevels)
{
    std::map<std::uint64_t, std::uint64_t> reads_by_page;
    for (std::uint64_t page : {4096ull, 64ull << 10, 1ull << 20}) {
        auto memory = dramMemory(2, 32);
        MemoryBackend &dram = *memory;
        PageAllocator allocator(0, 256ULL << 20, page);
        PageTableModel table(allocator);
        MmuConfig config;
        config.numCores = 2;
        Mmu mmu(config, allocator, table, dram);
        dram.setCallback([&](const DramRequest &request, Cycle at) {
            if (Mmu::isWalkTag(request.tag))
                mmu.onDramCompletion(request.tag, at);
        });
        mmu.setCallback([](std::uint64_t, Addr, Cycle) {});
        Cycle now = 0;
        mmu.requestTranslation(0, 0, 0, 1, now);
        while (mmu.busy() && now < 100000) {
            dram.tick(now);
            mmu.tick(now);
            ++now;
        }
        reads_by_page[page] = dram.totalCounter("reads");
    }
    EXPECT_EQ(reads_by_page[4096], 4u);
    EXPECT_EQ(reads_by_page[64 << 10], 3u);
    EXPECT_EQ(reads_by_page[1 << 20], 2u);
}

TEST(MmuTest, StaticQuotaCapsPerCoreWalkers)
{
    MmuConfig config;
    config.totalPtws = 8;
    config.ptwMode = PtwPartitionMode::Static;
    MmuHarness h(config); // equal split: 4 each
    // Core 0 floods 32 distinct pages; core 1 idle.
    for (std::uint64_t i = 0; i < 32; ++i)
        h.mmu->requestTranslation(0, 0, i << 12, i, h.now);
    std::uint32_t max_seen = 0;
    for (Cycle c = 0; c < 2000 && h.mmu->busy(); ++c) {
        h.runCycles(1);
        max_seen = std::max(max_seen, h.mmu->walkersInFlight(0));
    }
    EXPECT_LE(max_seen, 4u);
    EXPECT_GT(max_seen, 0u);
}

TEST(MmuTest, SharedModeLetsOneCoreUseAllWalkers)
{
    MmuConfig config;
    config.totalPtws = 8;
    config.ptwMode = PtwPartitionMode::Shared;
    MmuHarness h(config);
    for (std::uint64_t i = 0; i < 32; ++i)
        h.mmu->requestTranslation(0, 0, i << 12, i, h.now);
    std::uint32_t max_seen = 0;
    for (Cycle c = 0; c < 2000 && h.mmu->busy(); ++c) {
        h.runCycles(1);
        max_seen = std::max(max_seen, h.mmu->walkersInFlight(0));
    }
    EXPECT_GT(max_seen, 4u);
    EXPECT_LE(max_seen, 8u);
}

TEST(MmuTest, RatioQuotaRespected)
{
    MmuConfig config;
    config.totalPtws = 16;
    config.ptwMode = PtwPartitionMode::Static;
    config.ptwQuota = {2, 14};
    MmuHarness h(config);
    for (std::uint64_t i = 0; i < 32; ++i) {
        h.mmu->requestTranslation(0, 0, i << 12, i, h.now);
        h.mmu->requestTranslation(1, 1, i << 12, 100 + i, h.now);
    }
    std::uint32_t max0 = 0, max1 = 0;
    for (Cycle c = 0; c < 4000 && h.mmu->busy(); ++c) {
        h.runCycles(1);
        max0 = std::max(max0, h.mmu->walkersInFlight(0));
        max1 = std::max(max1, h.mmu->walkersInFlight(1));
    }
    EXPECT_LE(max0, 2u);
    EXPECT_LE(max1, 14u);
    EXPECT_GT(max1, 2u);
}

TEST(MmuTest, BoundedModeHonorsMinReservation)
{
    MmuConfig config;
    config.totalPtws = 8;
    config.ptwMode = PtwPartitionMode::Bounded;
    config.ptwMin = {2, 2};
    config.ptwMax = {8, 8};
    MmuHarness h(config);
    // Core 0 floods; must never exceed 8 - reserved(2) = 6 while core 1
    // has no demand... reservation only binds when core 1 is below min,
    // which it always is here (0 in flight).
    for (std::uint64_t i = 0; i < 32; ++i)
        h.mmu->requestTranslation(0, 0, i << 12, i, h.now);
    std::uint32_t max0 = 0;
    for (Cycle c = 0; c < 4000 && h.mmu->busy(); ++c) {
        h.runCycles(1);
        max0 = std::max(max0, h.mmu->walkersInFlight(0));
    }
    EXPECT_LE(max0, 6u);
}

TEST(MmuTest, StealingExceedsQuotaOnlyWhenOthersIdle)
{
    MmuConfig config;
    config.totalPtws = 8;
    config.ptwMode = PtwPartitionMode::Stealing;
    {
        // Alone: core 0 may exceed its quota of 4 and use all 8.
        MmuHarness h(config);
        for (std::uint64_t i = 0; i < 32; ++i)
            h.mmu->requestTranslation(0, 0, i << 12, i, h.now);
        std::uint32_t max_seen = 0;
        for (Cycle c = 0; c < 2000 && h.mmu->busy(); ++c) {
            h.runCycles(1);
            max_seen = std::max(max_seen, h.mmu->walkersInFlight(0));
        }
        EXPECT_GT(max_seen, 4u);
    }
    {
        // With a competing core, the quota binds (modulo in-flight
        // steals drained before core 1's queue appeared).
        MmuHarness h(config);
        for (std::uint64_t i = 0; i < 32; ++i) {
            h.mmu->requestTranslation(0, 0, i << 12, i, h.now);
            h.mmu->requestTranslation(1, 1, i << 12, 100 + i, h.now);
        }
        h.runCycles(200); // let the pools settle under contention
        std::uint32_t max_seen = 0;
        for (Cycle c = 0; c < 2000 && h.mmu->busy(); ++c) {
            h.runCycles(1);
            if (h.mmu->walkersInFlight(1) > 0) // core 1 has demand
                max_seen =
                    std::max(max_seen, h.mmu->walkersInFlight(0));
        }
        EXPECT_GT(max_seen, 0u);
    }
}

TEST(MmuTest, BoundedModeValidation)
{
    MmuConfig config;
    config.numCores = 2;
    config.totalPtws = 8;
    config.ptwMode = PtwPartitionMode::Bounded;
    config.ptwMin = {5, 5}; // over-reserved
    config.ptwMax = {8, 8};
    auto memory = dramMemory(2, 32);
    MemoryBackend &dram = *memory;
    PageAllocator allocator(0, 64ULL << 20, 4096);
    PageTableModel table(allocator);
    EXPECT_THROW(Mmu(config, allocator, table, dram), FatalError);

    config.ptwMin = {2, 9}; // min > max
    config.ptwMax = {8, 8};
    EXPECT_THROW(Mmu(config, allocator, table, dram), FatalError);
}

TEST(MmuTest, QuotaValidation)
{
    MmuConfig config;
    config.numCores = 2;
    config.totalPtws = 16;
    config.ptwMode = PtwPartitionMode::Static;
    auto memory = dramMemory(2, 32);
    MemoryBackend &dram = *memory;
    PageAllocator allocator(0, 64ULL << 20, 4096);
    PageTableModel table(allocator);
    config.ptwQuota = {8, 9}; // sums to 17
    EXPECT_THROW(Mmu(config, allocator, table, dram), FatalError);
    config.ptwQuota = {0, 16}; // starves core 0
    EXPECT_THROW(Mmu(config, allocator, table, dram), FatalError);
}

TEST(MmuTest, BackpressureWhenPendingFull)
{
    MmuConfig config;
    config.maxPendingPerCore = 4;
    MmuHarness h(config);
    int accepted = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
        if (h.mmu->requestTranslation(0, 0, i << 12, i, h.now))
            ++accepted;
    }
    EXPECT_EQ(accepted, 4);
    h.runUntilIdle();
    EXPECT_EQ(h.translated.size(), 4u);
}

TEST(MmuTest, ManyPagesAllTranslateExactlyOnceEach)
{
    MmuHarness h;
    const std::uint64_t pages = 300;
    std::uint64_t tag = 0;
    std::uint64_t submitted = 0;
    while (submitted < pages || h.mmu->busy()) {
        while (submitted < pages &&
               h.mmu->requestTranslation(
                   0, 0, submitted << 12, tag++, h.now)) {
            ++submitted;
        }
        h.runCycles(1);
        ASSERT_LT(h.now, 500000u) << "MMU stuck";
    }
    h.runUntilIdle();
    EXPECT_EQ(h.translated.size(), pages);
    EXPECT_EQ(h.mmu->stats().counterValue("walks"), pages);
    // Distinct pages map to distinct frames.
    std::set<Addr> frames;
    for (const auto &[t, pa] : h.translated)
        EXPECT_TRUE(frames.insert(pa & ~Addr{4095}).second);
}

TEST(MmuTest, WalkerStateCountsMatchFullScan)
{
    // One channel with a 2-deep queue behind 8 walkers: walk steps are
    // refused often, so walkers sit in every state, including
    // WaitIssue. After every tick and after every snapshot restore the
    // kept per-state counts must equal a full scan of the walkers.
    auto memory = dramMemory(1, 2);
    MemoryBackend &dram = *memory;
    PageAllocator allocator(0, 256ULL << 20, 4096);
    PageTableModel table(allocator);
    MmuConfig config;
    config.numCores = 2;
    config.ptwMode = PtwPartitionMode::Shared;
    std::unique_ptr<Mmu> mmu =
        std::make_unique<Mmu>(config, allocator, table, dram);
    dram.setCallback([&mmu](const DramRequest &request, Cycle at) {
        mmu->onDramCompletion(request.tag, at);
    });
    std::uint64_t translated = 0;
    auto count_translation = [&translated](std::uint64_t, Addr, Cycle) {
        ++translated;
    };
    mmu->setCallback(count_translation);

    const std::uint64_t pages = 400;
    std::uint64_t submitted = 0;
    std::uint64_t restores = 0;
    bool saw_blocked = false;
    Cycle now = 0;
    while (submitted < 2 * pages || mmu->busy() || dram.busy()) {
        for (CoreId core = 0; core < 2 && submitted < 2 * pages; ++core) {
            if (mmu->requestTranslation(core, core, (submitted / 2) << 12,
                                        submitted, now)) {
                ++submitted;
            }
        }
        dram.tick(now);
        mmu->tick(now);
        ASSERT_NO_THROW(mmu->checkWalkerCounts()) << "cycle " << now;
        saw_blocked |= mmu->hasBlockedWalks();
        if (now % 97 == 0 && mmu->busy()) {
            StateWriter out;
            mmu->saveState(out);
            auto restored =
                std::make_unique<Mmu>(config, allocator, table, dram);
            StateReader in(out.bytes());
            restored->loadState(in);
            ASSERT_NO_THROW(restored->checkWalkerCounts())
                << "restore at cycle " << now;
            EXPECT_EQ(restored->hasBlockedWalks(), mmu->hasBlockedWalks());
            EXPECT_EQ(restored->nextEventCycle(now),
                      mmu->nextEventCycle(now));
            restored->setCallback(count_translation);
            mmu = std::move(restored);
            ++restores;
        }
        ++now;
        ASSERT_LT(now, 2000000u) << "MMU stuck";
    }
    EXPECT_EQ(translated, 2 * pages);
    EXPECT_TRUE(saw_blocked);
    EXPECT_GT(restores, 10u);
}

} // namespace
} // namespace mnpu
