/**
 * @file
 * One core's table of in-flight DRAM transactions, indexed by the
 * sequence number the core stamps into each tag.
 *
 * A core issues tags with consecutive sequence numbers (NpuCore::makeTag)
 * and at most dmaMaxOutstanding of them are in flight, so a
 * power-of-two array of slots with slot = seq & mask replaces a hash
 * map: insert, find and erase are one index each. Completions arrive
 * out of order, so the span between the oldest and the newest in-flight
 * sequence number can be several times the in-flight count (one
 * lingering transaction holds the span open). When a new sequence
 * number lands on a slot that is still in use, the table doubles and
 * re-places its entries; two entries that differ modulo the old size
 * also differ modulo the new one, so re-placement never collides.
 *
 * A slot is the tag plus the Info, 16 bytes; a free slot holds kFree,
 * which no core issues (core tags never set bit 63, see
 * NpuCore::makeTag), so the tag doubles as the used flag. The array is
 * allocated on the first insert, never in the constructor: fast
 * fidelity issues no per-transaction state at all.
 */

#ifndef MNPU_CORE_INFLIGHT_WINDOW_HH
#define MNPU_CORE_INFLIGHT_WINDOW_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace mnpu
{

class InflightWindow
{
  public:
    /** What a core remembers about one in-flight transaction. */
    struct Info
    {
        std::uint32_t tile = 0;
        MemOp op = MemOp::Read;
        /** Placement class from the tensor map (tiered routing). */
        MemRegion region = MemRegion::Activation;
    };

    /** @param initial_slots first allocation, rounded up to a power of 2 */
    explicit InflightWindow(std::uint64_t initial_slots)
        : initialSlots_(std::bit_ceil(std::max<std::uint64_t>(
              initial_slots, 1)))
    {
    }

    std::uint64_t size() const { return size_; }

    /** Slots allocated (0 until the first insert). */
    std::uint64_t capacity() const { return slots_.size(); }

    /** Record @p tag, which must not be in flight already. */
    void
    insert(std::uint64_t tag, const Info &info)
    {
        mnpu_assert(tag != kFree);
        if (slots_.empty())
            slots_.resize(initialSlots_);
        while (slots_[tag & mask()].tag != kFree) {
            mnpu_assert(slots_[tag & mask()].tag != tag,
                        "tag already in flight");
            grow();
        }
        slots_[tag & mask()] = Slot{tag, info};
        ++size_;
    }

    /** @return the transaction's info, or nullptr when not in flight. */
    const Info *
    find(std::uint64_t tag) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &slot = slots_[tag & mask()];
        return slot.tag == tag ? &slot.info : nullptr;
    }

    /** Forget @p tag, which must be in flight. */
    void
    erase(std::uint64_t tag)
    {
        mnpu_assert(!slots_.empty());
        Slot &slot = slots_[tag & mask()];
        mnpu_assert(slot.tag == tag, "erase of unknown tag");
        slot.tag = kFree;
        --size_;
    }

    /**
     * The CORE snapshot's in-flight section: the count, then each
     * transaction in ascending tag order (tag, tile, op, region), so
     * the bytes never depend on the table's size or slot placement.
     */
    void saveState(StateWriter &out) const;

    /**
     * Replace the contents with saveState's bytes. Throws
     * SnapshotError on a tag no core issues (bit 63 set, or core bits
     * differing between entries) or a duplicate tag.
     */
    void loadState(StateReader &in);

  private:
    static constexpr std::uint64_t kFree = ~std::uint64_t{0};

    struct Slot
    {
        std::uint64_t tag = kFree;
        Info info;
    };
    static_assert(sizeof(Slot) <= 16);

    std::uint64_t mask() const { return slots_.size() - 1; }

    /** Double the table and re-place every entry. */
    void grow();

    /**
     * The slot list's one field list. The table layout itself is not
     * state: saveState lists the live slots by tag, and loadState
     * re-inserts them.
     */
    template <class Io, class Slots>
    static void
    visitSlots(Io &io, Slots &live)
    {
        io.seq(live, [&io](auto &slot) {
            io.u64(slot.tag);
            io.u32(slot.info.tile);
            io.op(slot.info.op);
            io.e8(slot.info.region);
        });
    }

    std::uint64_t initialSlots_;
    std::vector<Slot> slots_;
    std::uint64_t size_ = 0;
};

} // namespace mnpu

#endif // MNPU_CORE_INFLIGHT_WINDOW_HH
