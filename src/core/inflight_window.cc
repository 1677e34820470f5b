#include "core/inflight_window.hh"

namespace mnpu
{

void
InflightWindow::grow()
{
    std::vector<Slot> bigger(slots_.size() * 2);
    const std::uint64_t bigger_mask = bigger.size() - 1;
    for (const Slot &slot : slots_)
        if (slot.tag != kFree)
            bigger[slot.tag & bigger_mask] = slot;
    slots_.swap(bigger);
}

void
InflightWindow::saveState(StateWriter &out) const
{
    std::vector<const Slot *> live;
    live.reserve(size_);
    for (const Slot &slot : slots_)
        if (slot.tag != kFree)
            live.push_back(&slot);
    std::sort(live.begin(), live.end(),
              [](const Slot *a, const Slot *b) { return a->tag < b->tag; });
    out.u64(live.size());
    for (const Slot *slot : live) {
        out.u64(slot->tag);
        out.u32(slot->info.tile);
        out.u8(slot->info.op == MemOp::Write ? 1 : 0);
        out.u8(static_cast<std::uint8_t>(slot->info.region));
    }
}

void
InflightWindow::loadState(StateReader &in)
{
    slots_ = {};
    size_ = 0;
    const std::uint64_t count = in.u64();
    std::uint64_t core_bits = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t tag = in.u64();
        Info info;
        info.tile = in.u32();
        info.op = in.u8() != 0 ? MemOp::Write : MemOp::Read;
        info.region = static_cast<MemRegion>(in.u8());
        // Entries that agree on every bit above the 48-bit sequence
        // number differ below it, so growth always separates them.
        if (i == 0)
            core_bits = tag >> 48;
        if (tag >> 63 || tag >> 48 != core_bits || find(tag) != nullptr)
            throw SnapshotError("bad in-flight tag in core snapshot");
        insert(tag, info);
    }
}

} // namespace mnpu
