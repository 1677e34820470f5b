/**
 * @file
 * Differential test of a core's in-flight table: InflightWindow must
 * agree, call for call, with the std::unordered_map it replaced in
 * NpuCore (kept below as the reference, with that code's snapshot
 * encoding). Seeded streams issue tags with consecutive sequence
 * numbers, as NpuCore does, and complete them in random order. One
 * transaction is held back for most of each stream, so the span of
 * in-flight sequence numbers forces the table to grow from its initial
 * size past 32 K slots. Every find and the count must agree after each
 * step, and the CORE in-flight section must be byte-identical; in the
 * middle of each stream the window is saved, restored into a fresh
 * table, and the stream goes on against the restored copy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "core/inflight_window.hh"
#include "core/npu_core.hh"

namespace mnpu
{
namespace
{

using Info = InflightWindow::Info;

/** NpuCore's former in-flight map and its CORE snapshot encoding. */
class ReferenceInflight
{
  public:
    void insert(std::uint64_t tag, const Info &info)
    {
        ASSERT_TRUE(map_.emplace(tag, info).second);
    }
    const Info *find(std::uint64_t tag) const
    {
        auto it = map_.find(tag);
        return it == map_.end() ? nullptr : &it->second;
    }
    void erase(std::uint64_t tag) { ASSERT_EQ(map_.erase(tag), 1u); }
    std::uint64_t size() const { return map_.size(); }

    std::string snapshot() const
    {
        std::vector<std::uint64_t> tags;
        for (const auto &entry : map_)
            tags.push_back(entry.first);
        std::sort(tags.begin(), tags.end());
        StateWriter out;
        out.u64(tags.size());
        for (std::uint64_t tag : tags) {
            const Info &info = map_.at(tag);
            out.u64(tag);
            out.u32(info.tile);
            out.u8(info.op == MemOp::Write ? 1 : 0);
            out.u8(static_cast<std::uint8_t>(info.region));
        }
        return out.bytes();
    }

  private:
    std::unordered_map<std::uint64_t, Info> map_;
};

std::string
snapshot(const InflightWindow &window)
{
    StateWriter out;
    window.saveState(out);
    return out.bytes();
}

void
expectSameFind(const InflightWindow &window, const ReferenceInflight &ref,
               std::uint64_t tag)
{
    const Info *got = window.find(tag);
    const Info *want = ref.find(tag);
    ASSERT_EQ(got != nullptr, want != nullptr) << "tag " << tag;
    if (want != nullptr) {
        EXPECT_EQ(got->tile, want->tile) << "tag " << tag;
        EXPECT_EQ(got->op, want->op) << "tag " << tag;
        EXPECT_EQ(got->region, want->region) << "tag " << tag;
    }
}

struct StreamParams
{
    std::uint64_t seed;
    CoreId core;
    std::uint64_t initialSlots;
    std::uint64_t maxInflight;
};

class InflightWindowDifferential
    : public ::testing::TestWithParam<StreamParams>
{
};

TEST_P(InflightWindowDifferential, LockstepWithHashMap)
{
    const StreamParams params = GetParam();
    Rng rng(params.seed);
    InflightWindow window(params.initialSlots);
    ReferenceInflight ref;
    EXPECT_EQ(window.capacity(), 0u) << "allocated before the first issue";

    // The first transaction lingers until this many have been issued.
    const std::uint64_t kLingerUntil = 40000;
    const std::uint64_t kIssues = 60000;
    const std::uint64_t lingering = NpuCore::makeTag(params.core, 0);
    std::vector<std::uint64_t> live; // in flight, lingering excluded
    std::uint64_t next_seq = 0;
    bool restored = false;
    bool lingering_done = false;

    while (next_seq < kIssues || ref.size() > 0) {
        const bool can_issue =
            next_seq < kIssues && ref.size() < params.maxInflight;
        const bool issue =
            can_issue && (live.empty() || rng.uniform() < 0.52);
        if (issue) {
            const std::uint64_t tag =
                NpuCore::makeTag(params.core, next_seq++);
            const Info info{
                static_cast<std::uint32_t>(rng.range(0, 1000)),
                rng.range(0, 1) != 0 ? MemOp::Write : MemOp::Read,
                rng.range(0, 1) != 0 ? MemRegion::Weight
                                     : MemRegion::Activation};
            window.insert(tag, info);
            ref.insert(tag, info);
            if (tag != lingering)
                live.push_back(tag);
            expectSameFind(window, ref, tag);
        } else if (!live.empty()) {
            // Out-of-order completion: any in-flight tag may finish.
            const std::size_t pick = rng.range(0, live.size() - 1);
            const std::uint64_t tag = live[pick];
            live[pick] = live.back();
            live.pop_back();
            expectSameFind(window, ref, tag);
            window.erase(tag);
            ref.erase(tag);
            expectSameFind(window, ref, tag);
        }
        if (!lingering_done && next_seq >= kLingerUntil) {
            live.push_back(lingering);
            lingering_done = true;
        }
        ASSERT_EQ(window.size(), ref.size());

        // Probes: an old (possibly completed) sequence number, the next
        // unissued one, and the same sequence number of another core.
        if (next_seq > 0) {
            const std::uint64_t seq = rng.range(0, next_seq - 1);
            expectSameFind(window, ref, NpuCore::makeTag(params.core, seq));
            expectSameFind(window, ref,
                           NpuCore::makeTag(params.core + 1, seq));
        }
        expectSameFind(window, ref,
                       NpuCore::makeTag(params.core, next_seq));

        if (next_seq % 4096 == 0 && issue) {
            ASSERT_EQ(snapshot(window), ref.snapshot()) << next_seq;
        }

        if (!restored && next_seq == kIssues / 2) {
            const std::string bytes = snapshot(window);
            ASSERT_EQ(bytes, ref.snapshot());
            InflightWindow copy(params.initialSlots);
            StateReader in(bytes);
            copy.loadState(in);
            EXPECT_TRUE(in.atEnd());
            ASSERT_EQ(snapshot(copy), bytes);
            window = std::move(copy);
            restored = true;
        }
    }
    EXPECT_TRUE(restored);
    EXPECT_GT(window.capacity(), 32768u)
        << "the lingering transaction must force growth past 32 K slots";
    EXPECT_EQ(snapshot(window), ref.snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, InflightWindowDifferential,
    ::testing::Values(StreamParams{1, 0, 4096, 4096},
                      StreamParams{2, 3, 64, 4096},
                      StreamParams{3, 7, 1, 512}),
    [](const ::testing::TestParamInfo<StreamParams> &info) {
        std::string name = "seed";
        name += std::to_string(info.param.seed);
        return name;
    });

TEST(InflightWindowTest, RestoreRejectsTagsNoCoreIssues)
{
    auto restore = [](const std::vector<std::uint64_t> &tags) {
        StateWriter out;
        out.u64(tags.size());
        for (std::uint64_t tag : tags) {
            out.u64(tag);
            out.u32(0);
            out.u8(0);
            out.u8(0);
        }
        InflightWindow window(16);
        StateReader in(out.bytes());
        window.loadState(in);
        return window.size();
    };
    EXPECT_EQ(restore({NpuCore::makeTag(2, 5), NpuCore::makeTag(2, 900)}),
              2u);
    EXPECT_THROW(restore({NpuCore::makeTag(2, 5), NpuCore::makeTag(2, 5)}),
                 SnapshotError);
    EXPECT_THROW(restore({NpuCore::makeTag(2, 5), NpuCore::makeTag(3, 5)}),
                 SnapshotError);
    EXPECT_THROW(restore({std::uint64_t{1} << 63}), SnapshotError);
}

} // namespace
} // namespace mnpu
