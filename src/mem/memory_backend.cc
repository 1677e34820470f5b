#include "mem/memory_backend.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/pcm_backend.hh"

namespace mnpu
{

Setting<MemBackendKind> &
memBackendSetting()
{
    static Setting<MemBackendKind> setting(
        "memory backend", "MNPU_MEM_BACKEND", MemBackendKind::Dram,
        {{"hbm2", MemBackendKind::Dram},
         {"dram", MemBackendKind::Dram},
         {"pcm", MemBackendKind::Pcm},
         {"tiered", MemBackendKind::Tiered}},
        /*ignore_case=*/true);
    return setting;
}

const char *
toString(MemBackendKind kind)
{
    return memBackendSetting().toString(kind);
}

MemoryBackend::MemoryBackend(MemBackendKind kind, const DramTiming &timing,
                             std::uint32_t num_channels,
                             std::uint32_t num_cores,
                             std::uint32_t queue_depth, const PcmConfig &pcm,
                             const FabricConfig &fabric)
    : kind_(kind)
{
    if (kind != MemBackendKind::Pcm) {
        tiers_.push_back(std::make_unique<DramSystem>(
            timing, num_channels, num_cores, queue_depth));
    }
    if (kind != MemBackendKind::Dram) {
        tiers_.push_back(std::make_unique<PcmBackend>(
            DramTiming::pcm(), num_channels, num_cores, queue_depth, pcm));
    }
    // One clock domain, one transaction size — the lifecycle audit and
    // byte accounting sum across tiers and rely on this.
    const DramTiming &hot = tiers_.front()->timing();
    const DramTiming &cold = tiers_.back()->timing();
    if (cold.clockMhz != hot.clockMhz ||
        cold.transactionBytes() != hot.transactionBytes()) {
        fatal("tiered backend: hot and cold tiers must share clock and "
              "transaction size (hot '", hot.name, "', cold '", cold.name,
              "')");
    }
    if (fabric.enabled) {
        fabric_ = std::make_unique<XBar>(fabric, num_cores,
                                         hot.transactionBytes());
    }
}

bool
MemoryBackend::busy() const
{
    return (fabric_ && fabric_->busy()) ||
           std::any_of(tiers_.begin(), tiers_.end(),
                       [](const auto &tier) { return tier->busy(); });
}

void
MemoryBackend::setEventDriven(bool enabled)
{
    for (const auto &tier : tiers_)
        tier->setEventDriven(enabled);
}

Cycle
MemoryBackend::nextEventCycle(Cycle now) const
{
    Cycle next = fabric_ ? fabric_->nextEventCycle(now) : kCycleNever;
    for (const auto &tier : tiers_)
        next = std::min(next, tier->nextEventCycle(now));
    return next;
}

void
MemoryBackend::applyPolicy(const SharingPolicy &policy)
{
    for (const auto &tier : tiers_)
        tier->applyPolicy(policy);
}

Cycle
MemoryBackend::fastTransfer(CoreId core, std::uint64_t num_tx,
                            bool is_write, Cycle start)
{
    // The analytic path has no per-request region information, so a
    // tiered run cannot model placement fast. MultiCoreSystem resolves
    // tiered runs to exact fidelity before the first transfer.
    if (tiers_.size() > 1)
        fatal("tiered backend supports exact fidelity only");
    DramSystem &tier = *tiers_[0];
    return fabric_ ? fabric_->fastTransfer(core, num_tx, is_write, start,
                                           tier)
                   : tier.fastTransfer(core, num_tx, is_write, start);
}

void
MemoryBackend::setCallback(const DramCallback &callback)
{
    for (const auto &tier : tiers_)
        tier->setCallback(callback);
}

void
MemoryBackend::setIntegrity(RequestLifecycleTracker *tracker,
                            FaultInjector *injector)
{
    for (const auto &tier : tiers_)
        tier->setIntegrity(tracker, injector);
}

void
MemoryBackend::enableProtocolChecks()
{
    for (const auto &tier : tiers_)
        tier->enableProtocolChecks();
}

std::uint64_t
MemoryBackend::protocolStreamHash() const
{
    std::uint64_t hash = 0;
    for (const auto &tier : tiers_)
        hash ^= tier->protocolStreamHash();
    return hash;
}

std::uint64_t
MemoryBackend::protocolCommandsChecked() const
{
    std::uint64_t total = 0;
    for (const auto &tier : tiers_)
        total += tier->protocolCommandsChecked();
    return total;
}

void
MemoryBackend::setTraceSink(TraceEventSink *sink)
{
    std::uint32_t first_channel = 0;
    for (const auto &tier : tiers_) {
        tier->setTraceSink(sink, first_channel);
        first_channel += tier->numChannels();
    }
}

std::uint32_t
MemoryBackend::numChannels() const
{
    std::uint32_t total = 0;
    for (const auto &tier : tiers_)
        total += tier->numChannels();
    return total;
}

std::uint64_t
MemoryBackend::coreBytes(CoreId core) const
{
    std::uint64_t total = 0;
    for (const auto &tier : tiers_)
        total += tier->coreBytes(core);
    return total;
}

std::uint64_t
MemoryBackend::coreWalkBytes(CoreId core) const
{
    std::uint64_t total = 0;
    for (const auto &tier : tiers_)
        total += tier->coreWalkBytes(core);
    return total;
}

std::uint64_t
MemoryBackend::totalCounter(const std::string &stat_name) const
{
    std::uint64_t total = 0;
    for (const auto &tier : tiers_)
        total += tier->totalCounter(stat_name);
    return total;
}

double
MemoryBackend::peakBandwidthBytesPerSec() const
{
    double total = 0;
    for (const auto &tier : tiers_)
        total += tier->peakBandwidthBytesPerSec();
    return total;
}

double
MemoryBackend::totalEnergyPj(Cycle elapsed_cycles) const
{
    double total = 0;
    for (const auto &tier : tiers_)
        total += tier->totalEnergyPj(elapsed_cycles);
    return total;
}

void
MemoryBackend::visitStatGroups(const StatGroupVisitor &visit) const
{
    if (fabric_)
        visit(fabric_->stats());
    for (const auto &tier : tiers_)
        tier->visitStatGroups(visit);
}

template <class Self, class Io>
void
MemoryBackend::visitState(Self &self, Io &io)
{
    if (self.fabric_)
        io.state(*self.fabric_);
    if (self.tiers_.size() > 1)
        io.section("TIER");
    for (const auto &tier : self.tiers_)
        io.state(*tier);
}

template void MemoryBackend::visitState(const MemoryBackend &, StateWriter &);
template void MemoryBackend::visitState(MemoryBackend &, StateReader &);

const char *
MemoryBackend::kindName() const
{
    switch (kind_) {
    case MemBackendKind::Pcm:
        return "pcm";
    case MemBackendKind::Tiered:
        return "tiered";
    case MemBackendKind::Dram:
        break;
    }
    return "dram";
}

std::unique_ptr<MemoryBackend>
makeMemoryBackend(MemBackendKind kind, const DramTiming &timing,
                  std::uint32_t num_channels, std::uint32_t num_cores,
                  std::uint32_t queue_depth, const PcmConfig &pcm,
                  const FabricConfig &fabric)
{
    return std::make_unique<MemoryBackend>(kind, timing, num_channels,
                                           num_cores, queue_depth, pcm,
                                           fabric);
}

} // namespace mnpu
