#include "mem/tiered_backend.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mnpu
{

TieredBackend::TieredBackend(const DramTiming &hot_timing,
                             std::uint32_t num_channels,
                             std::uint32_t num_cores,
                             std::uint32_t queue_depth, const PcmConfig &pcm)
    : hot_(std::make_unique<DramSystem>(hot_timing, num_channels, num_cores,
                                        queue_depth, "ro-ra-bg-ba-co",
                                        "dram")),
      cold_(std::make_unique<PcmBackend>(DramTiming::pcm(), num_channels,
                                         num_cores, queue_depth, pcm,
                                         "ro-ra-bg-ba-co", "pcm"))
{
    // One clock domain, one transaction size — the lifecycle audit and
    // byte accounting sum across tiers and rely on this.
    if (hot_->timing().clockMhz != cold_->timing().clockMhz ||
        hot_->timing().transactionBytes() !=
            cold_->timing().transactionBytes()) {
        fatal("tiered backend: hot and cold tiers must share clock and "
              "transaction size (hot '", hot_->timing().name, "', cold '",
              cold_->timing().name, "')");
    }
}

bool
TieredBackend::tryEnqueue(const DramRequest &request, Cycle now)
{
    return tierFor(request).tryEnqueue(request, now);
}

bool
TieredBackend::canAccept(const DramRequest &request) const
{
    return tierFor(request).canAccept(request);
}

void
TieredBackend::tick(Cycle now)
{
    hot_->tick(now);
    cold_->tick(now);
}

bool
TieredBackend::busy() const
{
    return hot_->busy() || cold_->busy();
}

void
TieredBackend::setEventDriven(bool enabled)
{
    hot_->setEventDriven(enabled);
    cold_->setEventDriven(enabled);
}

bool
TieredBackend::poked() const
{
    return hot_->poked() || cold_->poked();
}

bool
TieredBackend::consumeRetrySignal()
{
    // Consume both (no short-circuit): each tier's flag must clear.
    bool hot = hot_->consumeRetrySignal();
    bool cold = cold_->consumeRetrySignal();
    return hot || cold;
}

Cycle
TieredBackend::nextEventCycle(Cycle now) const
{
    return std::min(hot_->nextEventCycle(now), cold_->nextEventCycle(now));
}

void
TieredBackend::applyPolicy(const SharingPolicy &policy)
{
    hot_->applyPolicy(policy);
    cold_->applyPolicy(policy);
}

Cycle
TieredBackend::fastTransfer(CoreId, std::uint64_t, bool, Cycle)
{
    // The analytic path has no per-request region information, so a
    // tiered run cannot model placement fast. MultiCoreSystem resolves
    // tiered runs to exact fidelity before the first transfer.
    fatal("tiered backend supports exact fidelity only");
}

void
TieredBackend::fastWalkTraffic(CoreId core, std::uint64_t num_steps,
                               Cycle at)
{
    hot_->fastWalkTraffic(core, num_steps, at); // walks live on the hot tier
}

void
TieredBackend::setCallback(DramCallback callback)
{
    hot_->setCallback(callback);
    cold_->setCallback(std::move(callback));
}

void
TieredBackend::setIntegrity(RequestLifecycleTracker *tracker,
                            FaultInjector *injector)
{
    hot_->setIntegrity(tracker, injector);
    cold_->setIntegrity(tracker, injector);
}

void
TieredBackend::enableProtocolChecks()
{
    hot_->enableProtocolChecks();
    cold_->enableProtocolChecks();
}

std::uint64_t
TieredBackend::protocolStreamHash() const
{
    return hot_->protocolStreamHash() ^ cold_->protocolStreamHash();
}

std::uint64_t
TieredBackend::protocolCommandsChecked() const
{
    return hot_->protocolCommandsChecked() +
           cold_->protocolCommandsChecked();
}

void
TieredBackend::setTraceSink(TraceEventSink *sink)
{
    hot_->setTraceSink(sink);
    cold_->setTraceSink(sink);
}

void
TieredBackend::enableTelemetry(Cycle window_cycles)
{
    // Hot tier only: one telemetry series set per system (documented).
    // Cold-tier traffic still lands in counters and byte totals.
    hot_->enableTelemetry(window_cycles);
}

void
TieredBackend::finalizeTelemetry()
{
    hot_->finalizeTelemetry();
}

bool
TieredBackend::telemetryEnabled() const
{
    return hot_->telemetryEnabled();
}

const IntervalTracer &
TieredBackend::coreTelemetry(CoreId core) const
{
    return hot_->coreTelemetry(core);
}

const IntervalTracer &
TieredBackend::totalTelemetry() const
{
    return hot_->totalTelemetry();
}

void
TieredBackend::enableRequestLog(const std::string &dir)
{
    hot_->enableRequestLog(dir); // one dram.log/dramreq.log file set
}

void
TieredBackend::flushRequestLogs()
{
    hot_->flushRequestLogs();
    cold_->flushRequestLogs();
}

const DramTiming &
TieredBackend::timing() const
{
    return hot_->timing();
}

std::uint32_t
TieredBackend::numCores() const
{
    return hot_->numCores();
}

std::uint32_t
TieredBackend::numChannels() const
{
    return hot_->numChannels() + cold_->numChannels();
}

std::uint64_t
TieredBackend::coreBytes(CoreId core) const
{
    return hot_->coreBytes(core) + cold_->coreBytes(core);
}

std::uint64_t
TieredBackend::coreWalkBytes(CoreId core) const
{
    return hot_->coreWalkBytes(core) + cold_->coreWalkBytes(core);
}

std::uint64_t
TieredBackend::totalCounter(const std::string &stat_name) const
{
    return hot_->totalCounter(stat_name) + cold_->totalCounter(stat_name);
}

double
TieredBackend::peakBandwidthBytesPerSec() const
{
    return hot_->peakBandwidthBytesPerSec() +
           cold_->peakBandwidthBytesPerSec();
}

double
TieredBackend::totalEnergyPj(Cycle elapsed_cycles) const
{
    return hot_->totalEnergyPj(elapsed_cycles) +
           cold_->totalEnergyPj(elapsed_cycles);
}

void
TieredBackend::visitStatGroups(const StatGroupVisitor &visit) const
{
    hot_->visitStatGroups(visit);
    cold_->visitStatGroups(visit);
}

void
TieredBackend::saveState(StateWriter &out) const
{
    out.section("TIER");
    hot_->saveState(out);
    cold_->saveState(out);
}

void
TieredBackend::loadState(StateReader &in)
{
    in.section("TIER");
    hot_->loadState(in);
    cold_->loadState(in);
}

} // namespace mnpu
