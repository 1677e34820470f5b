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
    std::vector<Slot> live;
    live.reserve(size_);
    for (const Slot &slot : slots_)
        if (slot.tag != kFree)
            live.push_back(slot);
    std::sort(live.begin(), live.end(),
              [](const Slot &a, const Slot &b) { return a.tag < b.tag; });
    visitSlots(out, live);
}

void
InflightWindow::loadState(StateReader &in)
{
    std::vector<Slot> live;
    visitSlots(in, live);
    slots_ = {};
    size_ = 0;
    for (const Slot &slot : live) {
        // Entries that agree on every bit above the 48-bit sequence
        // number differ below it, so growth always separates them.
        if (slot.tag >> 63 || slot.tag >> 48 != live.front().tag >> 48 ||
            find(slot.tag) != nullptr)
            throw SnapshotError("bad in-flight tag in core snapshot");
        insert(slot.tag, slot.info);
    }
}

} // namespace mnpu
