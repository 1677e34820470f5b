/**
 * @file
 * The off-chip memory system (DESIGN.md §14).
 *
 * MemoryBackend is the one concrete class MultiCoreSystem, NpuCore,
 * Mmu, and the integrity/snapshot/metrics layers consume. It owns one
 * or two tiers and an optional fabric stage, and does each wiring call
 * and readout once, over its tiers:
 *
 *  - a tier is a DramSystem, or a PcmBackend (DramSystem's channels
 *    behind a small DRAM data cache, with PCM write commit);
 *  - a tiered stack routes by memory region: Weight requests go to
 *    tier 1 (PCM), everything else to tier 0 (DRAM);
 *  - an XBar in front models the core-to-memory request
 *    interconnect; it forwards into the tier the region rule picks.
 *
 * Contract invariants every stack must keep (ratcheted by the
 * MemBackend conformance suite and the golden/differential harnesses):
 *
 *  - Admission purity: a tryEnqueue() that returns false mutates
 *    NOTHING. The anchored-token-bucket property generalizes — the event
 *    loop's bit-identity with the per-cycle reference rests on refused
 *    admissions being invisible, because the two retry at different
 *    cycles.
 *  - Event bounds never overshoot: nextEventCycle(now) is a lower
 *    bound on the next cycle the backend's observable state changes.
 *    Undershooting costs a no-op visit; overshooting breaks the event
 *    loop's equivalence with the per-cycle reference.
 *  - Stat mutations only on state changes: counters may move only on
 *    events every stepping executes identically (accepted admissions,
 *    deliveries) — never on refusals or probe calls, whose count
 *    depends on which cycles are visited.
 *  - saveState/loadState round-trip bit-identically: a restored run
 *    continues byte-identical to the uninterrupted one.
 */

#ifndef MNPU_MEM_MEMORY_BACKEND_HH
#define MNPU_MEM_MEMORY_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/settings.hh"
#include "dram/dram_system.hh"
#include "mem/mem_config.hh"
#include "mem/xbar.hh"

namespace mnpu
{

/** Which off-chip memory backend a system runs against. */
enum class MemBackendKind
{
    Dram,   //!< one DramSystem tier (HBM2/DDR4 presets); the default
    Pcm,    //!< one slow-media PcmBackend tier behind a DRAM data cache
    Tiered, //!< weights on a PCM tier 1, activations/walks on DRAM
};

/**
 * --mem-backend / MNPU_MEM_BACKEND; built-in Dram, spelled "hbm2"
 * ("dram" is an alias; names are case-insensitive).
 */
Setting<MemBackendKind> &memBackendSetting();

const char *toString(MemBackendKind kind);

/**
 * The off-chip memory system: one or two DramSystem tiers and an
 * optional XBar fabric stage in front of them. See the file comment
 * for the contract invariants. All cycles are global cycles.
 */
class MemoryBackend
{
  public:
    /** The stack makeMemoryBackend documents. */
    MemoryBackend(MemBackendKind kind, const DramTiming &timing,
                  std::uint32_t num_channels, std::uint32_t num_cores,
                  std::uint32_t queue_depth, const PcmConfig &pcm,
                  const FabricConfig &fabric);

    // --- Admission and progress. ---
    bool tryEnqueue(const DramRequest &request, Cycle now)
    {
        return fabric_ ? fabric_->tryEnqueue(request, now)
                       : tierFor(request).tryEnqueue(request, now);
    }
    bool canAccept(const DramRequest &request) const
    {
        return fabric_ ? fabric_->canAccept(request)
                       : tierFor(request).canAccept(request);
    }
    /** Ticks every tier, then lets the fabric forward into them. */
    void tick(Cycle now)
    {
        for (const auto &tier : tiers_)
            tier->tick(now);
        if (fabric_)
            fabric_->tick(now, *this);
    }
    bool busy() const;

    // --- Event-scheduler contract. ---
    void setEventDriven(bool enabled);
    /** Clears every tier's and the fabric's signal (no short-circuit). */
    bool consumeRetrySignal()
    {
        bool signal = fabric_ && fabric_->consumeRetrySignal();
        for (const auto &tier : tiers_)
            signal |= tier->consumeRetrySignal();
        return signal;
    }
    Cycle nextEventCycle(Cycle now) const;

    // --- Partitioning / bandwidth-share policy (every tier). ---
    void applyPolicy(const SharingPolicy &policy);

    // --- Fast-fidelity analytic paths (tier 0; fatal on two tiers). ---
    Cycle fastTransfer(CoreId core, std::uint64_t num_tx, bool is_write,
                       Cycle start);
    void fastWalkTraffic(CoreId core, std::uint64_t num_steps, Cycle at)
    {
        tiers_[0]->fastWalkTraffic(core, num_steps, at);
    }

    // --- Wiring: completions, integrity, observability. ---
    void setCallback(const DramCallback &callback);
    void setIntegrity(RequestLifecycleTracker *tracker,
                      FaultInjector *injector);
    void enableProtocolChecks();
    /** XOR of the tiers' (order-independent, like each tier's mix). */
    std::uint64_t protocolStreamHash() const;
    std::uint64_t protocolCommandsChecked() const;
    void setTraceSink(TraceEventSink *sink);

    // --- Telemetry and request logs: tier 0 only (one series set,
    // one file set; the other tier's traffic still shows in counters
    // and byte totals). ---
    void enableTelemetry(Cycle window_cycles)
    {
        tiers_[0]->enableTelemetry(window_cycles);
    }
    void finalizeTelemetry() { tiers_[0]->finalizeTelemetry(); }
    bool telemetryEnabled() const { return tiers_[0]->telemetryEnabled(); }
    const IntervalTracer &coreTelemetry(CoreId core) const
    {
        return tiers_[0]->coreTelemetry(core);
    }
    const IntervalTracer &totalTelemetry() const
    {
        return tiers_[0]->totalTelemetry();
    }
    void enableRequestLog(const std::string &dir)
    {
        tiers_[0]->enableRequestLog(dir);
    }
    void flushRequestLogs() { tiers_[0]->flushRequestLogs(); }

    // --- Readouts: tier 0's timing and cores; the rest summed. ---
    const DramTiming &timing() const { return tiers_[0]->timing(); }
    std::uint32_t numCores() const { return tiers_[0]->numCores(); }
    std::uint32_t numChannels() const;
    std::uint64_t coreBytes(CoreId core) const;
    std::uint64_t coreWalkBytes(CoreId core) const;
    std::uint64_t totalCounter(const std::string &stat_name) const;
    double peakBandwidthBytesPerSec() const;
    double totalEnergyPj(Cycle elapsed_cycles) const;

    /**
     * Visit every StatGroup: the fabric's first, then each tier's
     * (per-channel groups, the PCM cache group). The order is stable;
     * the metrics schema depends on it.
     */
    void visitStatGroups(const StatGroupVisitor &visit) const;

    // --- Snapshot/restore: "XBAR", then "TIER" on two tiers, then
    // each tier's sections. ---
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

    /** Stable identity string ("dram", "pcm", "tiered"). */
    const char *kindName() const;

    // --- Structure. ---
    std::size_t numTiers() const { return tiers_.size(); }
    const DramSystem &tier(std::size_t index) const
    {
        return *tiers_[index];
    }
    /** The fabric stage, or nullptr when requests go straight in. */
    const XBar *fabric() const { return fabric_.get(); }

    /** The tier the region rule sends @p request to. */
    DramSystem &tierFor(const DramRequest &request)
    {
        return *tiers_[tierIndex(request)];
    }
    const DramSystem &tierFor(const DramRequest &request) const
    {
        return *tiers_[tierIndex(request)];
    }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    /** Region rule: Weight goes to tier 1 when there is one. */
    std::size_t tierIndex(const DramRequest &request) const
    {
        return tiers_.size() > 1 && request.region == MemRegion::Weight
                   ? 1
                   : 0;
    }

    MemBackendKind kind_;
    std::vector<std::unique_ptr<DramSystem>> tiers_;
    std::unique_ptr<XBar> fabric_;
};

/**
 * Build the memory system for @p kind: one DramSystem tier for Dram,
 * one PcmBackend tier (DramTiming::pcm() media timing) for Pcm, a
 * DRAM tier 0 plus a PCM tier 1 for Tiered — with an XBar in front
 * when @p fabric.enabled. @p timing is the DRAM tier's timing; the PCM
 * tier derives its media timing from DramTiming::pcm(), which shares
 * the DRAM clock and geometry (so transaction sizes and the global
 * clock domain stay uniform across tiers).
 */
std::unique_ptr<MemoryBackend>
makeMemoryBackend(MemBackendKind kind, const DramTiming &timing,
                  std::uint32_t num_channels, std::uint32_t num_cores,
                  std::uint32_t queue_depth, const PcmConfig &pcm,
                  const FabricConfig &fabric);

} // namespace mnpu

#endif // MNPU_MEM_MEMORY_BACKEND_HH
