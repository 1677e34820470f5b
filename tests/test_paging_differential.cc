/**
 * @file
 * Differential property test of the paging substrate: the block-table
 * PageAllocator and the directory PageTableModel must agree, call for
 * call, with the plain hash-map implementation they replaced (kept
 * below as the reference, in the spirit of
 * RunBudget::perCycleReference). Seeded, randomised touch streams mix
 * what the simulator does — bump-allocated sequential tensors, exact
 * mode's page-by-page interleaving of co-running ASIDs, walks between
 * data touches so node frames interleave with data frames — with what
 * it should survive: sparse 48-bit VAs, runs across the end of the
 * dense directories, sub-page offsets, snapshot round trips
 * mid-stream, and pool exhaustion. Every translate,
 * walkPath, isMapped, framesAllocated and nodesAllocated must agree,
 * and the PALC/PTBL snapshot sections must be byte-identical (so the
 * snapshot format is unchanged and older snapshots still restore).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "mmu/paging.hh"

namespace mnpu
{
namespace
{

/** The former PageAllocator: one (asid, vpn) -> frame hash map. */
class ReferenceAllocator
{
  public:
    ReferenceAllocator(Addr phys_base, std::uint64_t phys_bytes,
                       std::uint64_t page_bytes)
        : physBase_(phys_base),
          pageBytes_(page_bytes),
          totalFrames_(phys_bytes / page_bytes)
    {
    }

    Addr translate(Asid asid, Addr vaddr)
    {
        Addr page = vaddr / pageBytes_;
        auto [it, inserted] = frames_.try_emplace(key(asid, page), 0);
        if (inserted)
            it->second = allocFrame();
        return it->second + (vaddr % pageBytes_);
    }

    bool isMapped(Asid asid, Addr vaddr) const
    {
        return frames_.count(key(asid, vaddr / pageBytes_)) != 0;
    }

    Addr allocFrame()
    {
        if (nextFrame_ >= totalFrames_)
            fatal("physical memory exhausted after ", nextFrame_,
                  " frames");
        return physBase_ + (nextFrame_++) * pageBytes_;
    }

    std::uint64_t pageBytes() const { return pageBytes_; }
    std::uint64_t framesAllocated() const { return nextFrame_; }
    Addr vpn(Addr vaddr) const { return vaddr / pageBytes_; }

    void saveState(StateWriter &out) const
    {
        out.section("PALC");
        out.u64(pageBytes_);
        out.u64(nextFrame_);
        std::vector<std::uint64_t> keys;
        for (const auto &[frame_key, unused_pa] : frames_)
            keys.push_back(frame_key);
        std::sort(keys.begin(), keys.end());
        out.u64(keys.size());
        for (std::uint64_t frame_key : keys) {
            out.u64(frame_key);
            out.u64(frames_.at(frame_key));
        }
    }

    void loadState(StateReader &in)
    {
        in.section("PALC");
        if (in.u64() != pageBytes_)
            throw SnapshotError("page allocator page-size mismatch");
        nextFrame_ = in.u64();
        std::uint64_t n = in.u64();
        frames_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t frame_key = in.u64();
            frames_[frame_key] = in.u64();
        }
    }

  private:
    static std::uint64_t key(Asid asid, Addr vpn)
    {
        return (static_cast<std::uint64_t>(asid) << 48) | vpn;
    }

    Addr physBase_;
    std::uint64_t pageBytes_;
    std::uint64_t totalFrames_;
    std::uint64_t nextFrame_ = 0;
    std::unordered_map<std::uint64_t, Addr> frames_;
};

/** The former PageTableModel: four node-map probes per walk. */
class ReferencePageTable
{
  public:
    explicit ReferencePageTable(ReferenceAllocator &allocator)
        : allocator_(allocator),
          levels_(walkLevelsForPageSize(allocator.pageBytes())),
          indexBits_(floorLog2(allocator.pageBytes()) - 3)
    {
    }

    std::vector<Addr> walkPath(Asid asid, Addr vaddr)
    {
        Addr vpn = allocator_.vpn(vaddr);
        std::uint64_t index_mask = (1ULL << indexBits_) - 1;
        std::vector<Addr> path;
        for (std::uint32_t level = 0; level < levels_; ++level) {
            std::uint32_t below = (levels_ - level) * indexBits_;
            Addr prefix = below >= 64 ? 0 : (vpn >> below);
            Addr node = nodeFrame(asid, level, prefix);
            std::uint32_t entry_shift = (levels_ - 1 - level) * indexBits_;
            std::uint64_t index = (vpn >> entry_shift) & index_mask;
            path.push_back(node + index * 8);
        }
        return path;
    }

    std::uint64_t nodesAllocated() const { return nodes_.size(); }

    void saveState(StateWriter &out) const
    {
        out.section("PTBL");
        out.u32(levels_);
        std::vector<std::tuple<Asid, std::uint32_t, Addr>> keys;
        for (const auto &[node_key, unused_pa] : nodes_)
            keys.push_back(node_key);
        std::sort(keys.begin(), keys.end());
        out.u64(keys.size());
        for (const auto &node_key : keys) {
            out.u32(std::get<0>(node_key));
            out.u32(std::get<1>(node_key));
            out.u64(std::get<2>(node_key));
            out.u64(nodes_.at(node_key));
        }
    }

    void loadState(StateReader &in)
    {
        in.section("PTBL");
        if (in.u32() != levels_)
            throw SnapshotError("page table radix depth mismatch");
        std::uint64_t n = in.u64();
        nodes_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Asid asid = in.u32();
            const std::uint32_t level = in.u32();
            const Addr prefix = in.u64();
            nodes_[{asid, level, prefix}] = in.u64();
        }
    }

  private:
    Addr nodeFrame(Asid asid, std::uint32_t level, Addr prefix)
    {
        auto [it, inserted] = nodes_.try_emplace({asid, level, prefix}, 0);
        if (inserted)
            it->second = allocator_.allocFrame();
        return it->second;
    }

    ReferenceAllocator &allocator_;
    std::uint32_t levels_;
    std::uint32_t indexBits_;
    std::map<std::tuple<Asid, std::uint32_t, Addr>, Addr> nodes_;
};

/** Production and reference stacks driven in lockstep. */
struct Pair
{
    Pair(std::uint64_t pool_bytes, std::uint64_t page_bytes)
        : allocator(0, pool_bytes, page_bytes),
          table(allocator),
          refAllocator(0, pool_bytes, page_bytes),
          refTable(refAllocator)
    {
    }

    PageAllocator allocator;
    PageTableModel table;
    ReferenceAllocator refAllocator;
    ReferencePageTable refTable;
};

std::string
allocatorBytes(const PageAllocator &allocator)
{
    StateWriter out;
    allocator.saveState(out);
    return out.bytes();
}

std::string
referenceAllocatorBytes(const ReferenceAllocator &allocator)
{
    StateWriter out;
    allocator.saveState(out);
    return out.bytes();
}

std::string
tableBytes(const PageTableModel &table)
{
    StateWriter out;
    table.saveState(out);
    return out.bytes();
}

std::string
referenceTableBytes(const ReferencePageTable &table)
{
    StateWriter out;
    table.saveState(out);
    return out.bytes();
}

/**
 * Drives one seeded stream. Returns false once the pool is exhausted
 * (both sides must throw on the same call).
 */
class TouchStream
{
  public:
    TouchStream(Pair &pair, std::uint64_t seed)
        : pair_(pair), rng_(seed), cursors_(kAsids.size(), 0)
    {
    }

    /** One randomly chosen episode; false after exhaustion. */
    bool step()
    {
        switch (pick(7)) {
          case 0: // one tensor streamed sequentially by one ASID
            return sequential(pickAsid(), pick(1500) + 1);
          case 1: // co-running ASIDs interleaved page by page
            return interleaved(pick(4) + 2, pick(600) + 1);
          case 2: // sparse 48-bit touches with walks
            return sparse(pick(40) + 1);
          case 3: // re-touch already-mapped pages of one ASID
            return revisit(pickAsid(), pick(400) + 1);
          case 4: // walks only (first-touch node allocation)
            return walksOnly(pickAsid(), pick(300) + 1);
          case 5: // a run across page 2^24, where the directories end
            return straddle(pickAsid(), pick(1200) + 1);
          default: // bump a fresh tensor base, then stream it
            return freshTensor(pickAsid(), pick(800) + 1);
        }
    }

  private:
    static inline const std::vector<Asid> kAsids = {0, 1, 2, 3, 700,
                                                    65535};

    std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
    std::size_t pickAsid()
    {
        return static_cast<std::size_t>(pick(kAsids.size()));
    }
    std::uint64_t page() const { return pair_.allocator.pageBytes(); }

    /** translate (+ walk with @p walk_odds in 4) at one address. */
    bool touch(Asid asid, Addr vaddr, std::uint64_t walk_odds)
    {
        Addr got = 0, want = 0;
        bool threw = false, ref_threw = false;
        try {
            got = pair_.allocator.translate(asid, vaddr);
        } catch (const FatalError &) {
            threw = true;
        }
        try {
            want = pair_.refAllocator.translate(asid, vaddr);
        } catch (const FatalError &) {
            ref_threw = true;
        }
        EXPECT_EQ(threw, ref_threw) << "translate " << asid << ":" << vaddr;
        if (threw || ref_threw)
            return false;
        EXPECT_EQ(got, want) << "translate " << asid << ":" << vaddr;
        if (pick(4) < walk_odds && !walk(asid, vaddr))
            return false;
        return !::testing::Test::HasFailure();
    }

    bool walk(Asid asid, Addr vaddr)
    {
        std::vector<Addr> got, want;
        bool threw = false, ref_threw = false;
        // Alternate the vector and depth-only forms: both allocate.
        const bool depth_only = pick(2) == 0;
        try {
            if (depth_only) {
                EXPECT_EQ(pair_.table.walkDepth(asid, vaddr),
                          pair_.table.levels());
            } else {
                got = pair_.table.walkPath(asid, vaddr);
            }
        } catch (const FatalError &) {
            threw = true;
        }
        try {
            want = pair_.refTable.walkPath(asid, vaddr);
        } catch (const FatalError &) {
            ref_threw = true;
        }
        EXPECT_EQ(threw, ref_threw) << "walk " << asid << ":" << vaddr;
        if (threw || ref_threw)
            return false;
        if (!depth_only) {
            EXPECT_EQ(got, want) << "walk " << asid << ":" << vaddr;
        }
        EXPECT_EQ(pair_.table.nodesAllocated(),
                  pair_.refTable.nodesAllocated());
        return !::testing::Test::HasFailure();
    }

    Addr offset() { return pick(page()); }

    bool sequential(std::size_t a, std::uint64_t pages)
    {
        const Addr base = cursors_[a] * page();
        for (std::uint64_t p = 0; p < pages; ++p) {
            if (!touch(kAsids[a], base + p * page() + offset(), 1))
                return false;
        }
        cursors_[a] += pages;
        return true;
    }

    bool interleaved(std::uint64_t ways, std::uint64_t pages)
    {
        for (std::uint64_t p = 0; p < pages; ++p) {
            for (std::uint64_t w = 0; w < ways; ++w) {
                const std::size_t a = w % kAsids.size();
                if (!touch(kAsids[a], (cursors_[a] + p) * page(), 2))
                    return false;
            }
        }
        for (std::uint64_t w = 0; w < ways; ++w)
            cursors_[w % kAsids.size()] += pages;
        return true;
    }

    bool sparse(std::uint64_t touches)
    {
        for (std::uint64_t i = 0; i < touches; ++i) {
            const Addr vaddr = rng_() & ((1ULL << 48) - 1);
            if (!touch(kAsids[pickAsid()], vaddr, 3))
                return false;
        }
        return true;
    }

    bool revisit(std::size_t a, std::uint64_t touches)
    {
        if (cursors_[a] == 0)
            return true;
        for (std::uint64_t i = 0; i < touches; ++i) {
            const Addr vaddr = pick(cursors_[a]) * page() + offset();
            EXPECT_EQ(pair_.allocator.isMapped(kAsids[a], vaddr),
                      pair_.refAllocator.isMapped(kAsids[a], vaddr));
            if (!touch(kAsids[a], vaddr, 1))
                return false;
        }
        return true;
    }

    bool walksOnly(std::size_t a, std::uint64_t walks)
    {
        const Addr base = (cursors_[a] + pick(4096)) * page();
        for (std::uint64_t i = 0; i < walks; ++i) {
            const Addr vaddr = base + i * page();
            EXPECT_EQ(pair_.allocator.isMapped(kAsids[a], vaddr),
                      pair_.refAllocator.isMapped(kAsids[a], vaddr));
            if (!walk(kAsids[a], vaddr))
                return false;
        }
        return true;
    }

    bool straddle(std::size_t a, std::uint64_t pages)
    {
        const Addr base = (1ULL << 24) - pick(600);
        for (std::uint64_t p = 0; p < pages; ++p) {
            if (!touch(kAsids[a], (base + p) * page(), 2))
                return false;
        }
        return true;
    }

    bool freshTensor(std::size_t a, std::uint64_t pages)
    {
        // Skip ahead (a hole), then stream: mimics allocTensor's bump.
        cursors_[a] += pick(3000);
        return sequential(a, pages);
    }

    Pair &pair_;
    std::mt19937_64 rng_;
    std::vector<std::uint64_t> cursors_; //!< next fresh page per ASID
};

void
expectSameState(const Pair &pair)
{
    EXPECT_EQ(pair.allocator.framesAllocated(),
              pair.refAllocator.framesAllocated());
    EXPECT_EQ(pair.table.nodesAllocated(), pair.refTable.nodesAllocated());
    EXPECT_EQ(allocatorBytes(pair.allocator),
              referenceAllocatorBytes(pair.refAllocator));
    EXPECT_EQ(tableBytes(pair.table), referenceTableBytes(pair.refTable));
}

class PagingDifferential : public testing::TestWithParam<std::uint64_t>
{
  protected:
    /** Large enough that only the exhaustion test runs out. */
    static constexpr std::uint64_t kPool = 1ULL << 40;
};

TEST_P(PagingDifferential, MatchesHashMapReference)
{
    for (std::uint64_t page : {4096ULL, 64ULL << 10, 1ULL << 20}) {
        SCOPED_TRACE("page " + std::to_string(page));
        Pair pair(kPool, page);
        TouchStream stream(pair, GetParam() * 1000003 + page);
        for (int episode = 0; episode < 60; ++episode) {
            ASSERT_TRUE(stream.step()) << "diverged at episode " << episode;
            if (episode % 15 == 14)
                expectSameState(pair);
        }
        expectSameState(pair);
    }
}

TEST_P(PagingDifferential, SnapshotRoundTripMidStream)
{
    // Restore a mid-stream snapshot into fresh production and
    // reference instances (the restored tables must rebuild their
    // last-touched caches) and keep driving them in lockstep.
    Pair pair(kPool, 4096);
    TouchStream warm(pair, GetParam());
    for (int episode = 0; episode < 20; ++episode)
        ASSERT_TRUE(warm.step());

    StateWriter out;
    pair.allocator.saveState(out);
    pair.table.saveState(out);
    Pair restored(kPool, 4096);
    StateReader in(out.bytes());
    restored.allocator.loadState(in);
    restored.table.loadState(in);
    StateReader ref_in(out.bytes());
    restored.refAllocator.loadState(ref_in);
    restored.refTable.loadState(ref_in);
    expectSameState(restored);

    TouchStream resumed(restored, GetParam() + 17);
    for (int episode = 0; episode < 30; ++episode)
        ASSERT_TRUE(resumed.step()) << "diverged at episode " << episode;
    expectSameState(restored);
}

TEST_P(PagingDifferential, ExhaustionIsFatalOnTheSameCall)
{
    // A pool of a few hundred frames runs out mid-stream; both sides
    // must throw on the very same call, with equal frame counts.
    Pair pair(300 * 4096, 4096);
    TouchStream stream(pair, GetParam() + 5);
    bool exhausted = false;
    for (int episode = 0; episode < 200 && !exhausted; ++episode)
        exhausted = !stream.step();
    ASSERT_FALSE(HasFailure());
    EXPECT_TRUE(exhausted);
    EXPECT_EQ(pair.allocator.framesAllocated(),
              pair.refAllocator.framesAllocated());
    EXPECT_EQ(pair.allocator.framesAllocated(), 300u);
    EXPECT_THROW(pair.allocator.allocFrame(), FatalError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagingDifferential,
                         testing::Values(1u, 2u, 3u, 42u));

} // namespace
} // namespace mnpu
