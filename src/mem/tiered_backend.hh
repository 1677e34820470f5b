/**
 * @file
 * Tiered memory backend: a hot DramSystem for activations and
 * page-table walks plus a cold PcmBackend for weights, routed by the
 * MemRegion each request carries (stamped by the core from the
 * workload's tensor map). Models the tiered-placement scenario from
 * the serving roadmap (weights are read-mostly and capacity-bound;
 * activations and walks are latency-critical).
 *
 * Aggregation rules (DESIGN.md §14):
 *  - bytes, counters, energy, bandwidth: summed across tiers;
 *  - protocol stream hash: XOR of the tiers' (order-independent, like
 *    the per-channel mix inside each tier);
 *  - timing(): the hot tier's (both tiers share clock and transaction
 *    size by construction — DramTiming::pcm() pins them);
 *  - telemetry windows and request logs: hot tier only (one file set,
 *    one series set; the cold tier's traffic still shows in counters
 *    and byte totals) — a documented limit of the tiered view;
 *  - fastTransfer: unreachable — MultiCoreSystem forces exact
 *    fidelity for tiered runs (the analytic path has no region info).
 */

#ifndef MNPU_MEM_TIERED_BACKEND_HH
#define MNPU_MEM_TIERED_BACKEND_HH

#include <memory>

#include "dram/dram_system.hh"
#include "mem/pcm_backend.hh"

namespace mnpu
{

class TieredBackend : public MemoryBackend
{
  public:
    /**
     * @param hot_timing   the DRAM tier's device timing
     * @param num_channels channels per tier (each tier gets its own)
     * @param num_cores    NPU cores
     * @param queue_depth  per-channel queue depth (both tiers)
     * @param pcm          cold-tier cache/commit knobs
     */
    TieredBackend(const DramTiming &hot_timing, std::uint32_t num_channels,
                  std::uint32_t num_cores, std::uint32_t queue_depth,
                  const PcmConfig &pcm);

    bool tryEnqueue(const DramRequest &request, Cycle now) override;
    bool canAccept(const DramRequest &request) const override;
    void tick(Cycle now) override;
    bool busy() const override;

    void setEventDriven(bool enabled) override;
    bool poked() const override;
    bool consumeRetrySignal() override;
    Cycle nextEventCycle(Cycle now) const override;

    void applyPolicy(const SharingPolicy &policy) override;

    Cycle fastTransfer(CoreId core, std::uint64_t num_tx, bool is_write,
                       Cycle start) override;
    void fastWalkTraffic(CoreId core, std::uint64_t num_steps,
                         Cycle at) override;

    void setCallback(DramCallback callback) override;
    void setIntegrity(RequestLifecycleTracker *tracker,
                      FaultInjector *injector) override;
    void enableProtocolChecks() override;
    std::uint64_t protocolStreamHash() const override;
    std::uint64_t protocolCommandsChecked() const override;
    void setTraceSink(TraceEventSink *sink) override;

    void enableTelemetry(Cycle window_cycles) override;
    void finalizeTelemetry() override;
    bool telemetryEnabled() const override;
    const IntervalTracer &coreTelemetry(CoreId core) const override;
    const IntervalTracer &totalTelemetry() const override;
    void enableRequestLog(const std::string &dir) override;
    void flushRequestLogs() override;

    const DramTiming &timing() const override;
    std::uint32_t numCores() const override;
    std::uint32_t numChannels() const override;
    std::uint64_t coreBytes(CoreId core) const override;
    std::uint64_t coreWalkBytes(CoreId core) const override;
    std::uint64_t totalCounter(const std::string &stat_name) const override;
    double peakBandwidthBytesPerSec() const override;
    double totalEnergyPj(Cycle elapsed_cycles) const override;
    void visitStatGroups(const StatGroupVisitor &visit) const override;

    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

    const char *kindName() const override { return "tiered"; }

    /** The hot (DRAM) tier — the deprecated dram() forwarder target. */
    const DramSystem &hotTier() const { return *hot_; }
    /** The cold (PCM) tier. */
    const PcmBackend &coldTier() const { return *cold_; }

  private:
    MemoryBackend &tierFor(const DramRequest &request)
    {
        return request.region == MemRegion::Weight
                   ? static_cast<MemoryBackend &>(*cold_)
                   : static_cast<MemoryBackend &>(*hot_);
    }
    const MemoryBackend &tierFor(const DramRequest &request) const
    {
        return request.region == MemRegion::Weight
                   ? static_cast<const MemoryBackend &>(*cold_)
                   : static_cast<const MemoryBackend &>(*hot_);
    }

    std::unique_ptr<DramSystem> hot_;
    std::unique_ptr<PcmBackend> cold_;
};

} // namespace mnpu

#endif // MNPU_MEM_TIERED_BACKEND_HH
