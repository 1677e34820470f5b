/**
 * @file
 * Crossbar fabric between the NPU cores and a memory backend
 * (DESIGN.md §14). Decorates any MemoryBackend: requests enter a
 * per-port FIFO (port = core % ports), pay a fixed traversal latency,
 * and are forwarded downstream at most one per port per cycle, paced
 * by the port's data width (a 64B transaction over a 16B-wide port
 * occupies the port 4 cycles). Responses return directly through the
 * completion callback — the fabric models the request path only (the
 * response path shares it in real crossbars, but modeling one
 * direction captures the contention the sharing study needs without
 * doubling the event machinery; documented in DESIGN §14).
 *
 * Arbitration is round-robin with the start port derived from the
 * cycle number (now % ports), never from visit counts — the rotation
 * is a pure function of simulated time, which is what keeps the event
 * loop bit-identical to per-cycle stepping through the fabric.
 *
 * Contention is observable under the `fabric.*` stats: requests
 * enqueued/forwarded and the cycles requests waited beyond the bare
 * traversal latency. Counters move only on accepted admissions and
 * successful forwards (stepping-identical events), never on refusals.
 */

#ifndef MNPU_MEM_XBAR_HH
#define MNPU_MEM_XBAR_HH

#include <deque>
#include <memory>
#include <vector>

#include "mem/memory_backend.hh"

namespace mnpu
{

class XBar : public MemoryBackend
{
  public:
    /**
     * @param downstream the backend behind the fabric (owned)
     * @param config     port count/width/latency/queue depth;
     *                   config.ports == 0 means one port per core
     */
    XBar(std::unique_ptr<MemoryBackend> downstream,
         const FabricConfig &config);

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

    /** The fabric is transparent to identity: reports the backend's. */
    const char *kindName() const override
    {
        return downstream_->kindName();
    }

    /** The wrapped backend (deprecated dram() forwarder unwrapping). */
    const MemoryBackend &downstream() const { return *downstream_; }

    std::uint32_t numPorts() const
    {
        return static_cast<std::uint32_t>(queues_.size());
    }

  private:
    /** One slot reserved per port for walks, like the channel queues. */
    static constexpr std::uint32_t kPriorityReserve = 1;

    struct Entry
    {
        DramRequest request;
        Cycle readyAt; //!< admission cycle + traversal latency
    };

    std::size_t portOf(CoreId core) const
    {
        return static_cast<std::size_t>(core) % queues_.size();
    }

    std::unique_ptr<MemoryBackend> downstream_;
    FabricConfig config_;
    Cycle txCycles_; //!< port occupancy of one transaction (>= 1)

    std::vector<std::deque<Entry>> queues_;
    std::vector<Cycle> portFree_;     //!< port busy until (exclusive)
    std::vector<Cycle> fastPortFree_; //!< analytic-path port horizon
    bool retrySignal_ = false;

    StatGroup fabricStats_;
    Counter &enqueued_;
    Counter &forwarded_;
    Counter &waitCycles_;
};

} // namespace mnpu

#endif // MNPU_MEM_XBAR_HH
