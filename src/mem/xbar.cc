#include "mem/xbar.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/memory_backend.hh"

namespace mnpu
{

XBar::XBar(const FabricConfig &config, std::uint32_t num_cores,
           std::uint64_t transaction_bytes)
    : config_(config),
      fabricStats_("fabric"),
      enqueued_(fabricStats_.counter("enqueued")),
      forwarded_(fabricStats_.counter("forwarded")),
      waitCycles_(fabricStats_.counter("wait_cycles"))
{
    std::uint32_t ports = config_.ports != 0 ? config_.ports : num_cores;
    if (ports == 0)
        fatal("XBar needs at least one port");
    if (config_.queueDepth == 0)
        fatal("XBar needs a per-port queue depth >= 1");
    if (config_.widthBytes == 0)
        fatal("XBar needs a nonzero port width");
    txCycles_ =
        std::max<Cycle>(1, ceilDiv(transaction_bytes, config_.widthBytes));
    queues_.resize(ports);
    portFree_.assign(ports, 0);
    fastPortFree_.assign(ports, 0);
}

bool
XBar::canAccept(const DramRequest &request) const
{
    const auto &queue = queues_[portOf(request.core)];
    std::uint32_t limit =
        request.priority
            ? config_.queueDepth
            : config_.queueDepth -
                  std::min<std::uint32_t>(kPriorityReserve,
                                          config_.queueDepth - 1);
    return queue.size() < limit;
}

bool
XBar::tryEnqueue(const DramRequest &request, Cycle now)
{
    if (!canAccept(request))
        return false; // pure refusal: nothing mutated
    queues_[portOf(request.core)].push_back(
        Entry{request, now + config_.latencyCycles});
    enqueued_.inc();
    return true;
}

void
XBar::tick(Cycle now, MemoryBackend &memory)
{
    const std::size_t ports = queues_.size();
    // Round-robin arbitration anchored on simulated time, not visit
    // count: the winner rotation is identical under any stepping.
    const std::size_t start = static_cast<std::size_t>(now % ports);
    for (std::size_t i = 0; i < ports; ++i) {
        const std::size_t p = (start + i) % ports;
        auto &queue = queues_[p];
        if (queue.empty() || queue.front().readyAt > now ||
            portFree_[p] > now) {
            continue;
        }
        // Head-of-line: a refusal by the tier (full queue, starved
        // bucket) blocks the port until the tier's own bounds / retry
        // signal re-visit it.
        const DramRequest &head = queue.front().request;
        if (!memory.tierFor(head).tryEnqueue(head, now))
            continue;
        waitCycles_.inc(now - queue.front().readyAt);
        queue.pop_front();
        forwarded_.inc();
        portFree_[p] = now + txCycles_; // width pacing
        retrySignal_ = true;            // a port slot was freed
    }
}

bool
XBar::busy() const
{
    return std::any_of(queues_.begin(), queues_.end(),
                       [](const auto &queue) { return !queue.empty(); });
}

Cycle
XBar::nextEventCycle(Cycle now) const
{
    // Per port: the head forwards no earlier than max(readyAt,
    // portFree). When both are already due the head is blocked on a
    // tier's refusal; now + 1 (the max() floor) keeps the port under
    // watch until the tier unblocks — an undershoot, never an
    // overshoot.
    Cycle next = kCycleNever;
    for (std::size_t p = 0; p < queues_.size(); ++p) {
        if (queues_[p].empty())
            continue;
        Cycle candidate =
            std::max(queues_[p].front().readyAt, portFree_[p]);
        next = std::min(next, std::max(candidate, now + 1));
    }
    return next;
}

Cycle
XBar::fastTransfer(CoreId core, std::uint64_t num_tx, bool is_write,
                   Cycle start, DramSystem &tier)
{
    if (num_tx == 0)
        return start;
    // Mirrors the queued path, so shrinking the width lengthens every
    // batch.
    const std::size_t p = portOf(core);
    const Cycle enter =
        std::max(start + config_.latencyCycles, fastPortFree_[p]);
    fastPortFree_[p] = enter + num_tx * txCycles_;
    const Cycle done = tier.fastTransfer(core, num_tx, is_write, enter);
    return std::max(done, fastPortFree_[p]);
}

template <class Self, class Io>
void
XBar::visitState(Self &self, Io &io)
{
    io.section("XBAR");
    io.expect(self.queues_.size(), "XBar port-count mismatch");
    for (auto &queue : self.queues_) {
        io.seq(queue, [&io](auto &entry) {
            io.u64(entry.readyAt);
            visitRequest(io, entry.request);
        });
    }
    io.u64Vec(self.portFree_);
    io.u64Vec(self.fastPortFree_);
    io.check(self.portFree_.size() == self.queues_.size() &&
                 self.fastPortFree_.size() == self.queues_.size(),
             "XBar port-horizon count mismatch");
    io.state(self.fabricStats_);
}

template void XBar::visitState(const XBar &, StateWriter &);
template void XBar::visitState(XBar &, StateReader &);

} // namespace mnpu
