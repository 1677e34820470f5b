/**
 * @file
 * The pluggable off-chip memory API (DESIGN.md §14).
 *
 * MemoryBackend is the full contract MultiCoreSystem, NpuCore, Mmu,
 * and the integrity/snapshot/metrics layers consume from the off-chip
 * memory system. DramSystem is the first implementation; PcmBackend
 * models a slow-media tier behind a small DRAM data cache; XBar
 * decorates any backend with a modeled core→memory interconnect; and
 * TieredBackend routes requests between a hot (DRAM) and a cold (PCM)
 * tier by memory region.
 *
 * Contract invariants every implementation must keep (ratcheted by the
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
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injection.hh"
#include "common/integrity.hh"
#include "common/interval_tracer.hh"
#include "common/settings.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"
#include "common/types.hh"
#include "dram/dram_channel.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{

/** Which off-chip memory backend a system runs against. */
enum class MemBackendKind
{
    Dram,   //!< DramSystem (HBM2/DDR4 presets); the default
    Pcm,    //!< slow-media PcmBackend behind a DRAM data cache
    Tiered, //!< weights on PCM, activations/walks on DRAM
};

/**
 * --mem-backend / MNPU_MEM_BACKEND; built-in Dram, spelled "hbm2"
 * ("dram" is an alias; names are case-insensitive).
 */
Setting<MemBackendKind> &memBackendSetting();

const char *toString(MemBackendKind kind);

/**
 * Declarative channel-partition + bandwidth-share policy. Declarative
 * matters for multi-backend systems: "share all channels" resolves against each
 * backend's own channel count instead of baking one system's channel
 * indices into the caller.
 */
struct SharingPolicy
{
    enum class Channels
    {
        ShareAll, //!< every core interleaves over every channel
        ByCounts, //!< contiguous split by channelCounts (sum = total)
        Explicit, //!< explicitSets[core] lists the owned channels
        Keep,     //!< leave the current channel layout untouched
    };

    Channels channels = Channels::ShareAll;
    std::vector<std::uint32_t> channelCounts;               //!< ByCounts
    std::vector<std::vector<std::uint32_t>> explicitSets;   //!< Explicit

    /**
     * Per-core bandwidth shares (token-bucket rate caps). Disengaged
     * (nullopt) leaves the current caps untouched; an engaged empty
     * vector removes every cap (dynamic sharing).
     */
    std::optional<std::vector<std::uint32_t>> bandwidthShares;
};

/** PcmBackend knobs (see DESIGN.md §14 for what is/isn't modeled). */
struct PcmConfig
{
    /** Direct-mapped DRAM data-cache lines in front of the media. */
    std::uint32_t cacheLines = 2048;

    /** Global cycles from a read cache hit to its data delivery. */
    Cycle cacheHitLatency = 24;

    /**
     * Extra cycles a write spends committing to the media after its
     * bus transaction completes (PCM cell programming). While any
     * write is committing, read-miss admission is paused.
     */
    Cycle writeCommitCycles = 64;

    /** Outstanding cache-hit responses before admission backpressure. */
    std::uint32_t hitQueueDepth = 64;
};

/** XBar fabric knobs between cores and the memory backend. */
struct FabricConfig
{
    bool enabled = false;

    /** Crossbar ports; 0 = one port per core. Cores map core % ports. */
    std::uint32_t ports = 0;

    /** Per-port request-queue depth (1 slot reserved for walks). */
    std::uint32_t queueDepth = 16;

    /** Port data width in bytes per cycle: pacing between forwards. */
    std::uint32_t widthBytes = 32;

    /** Port traversal latency in global cycles. */
    Cycle latencyCycles = 4;
};

/** Visitor over a backend's StatGroups (metrics registration). */
using StatGroupVisitor = std::function<void(const StatGroup &)>;

/**
 * Abstract off-chip memory backend; see the file comment for the
 * contract invariants. All cycles are global cycles.
 */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    // --- Admission and progress. ---
    virtual bool tryEnqueue(const DramRequest &request, Cycle now) = 0;
    virtual bool canAccept(const DramRequest &request) const = 0;
    virtual void tick(Cycle now) = 0;
    virtual bool busy() const = 0;

    // --- Event-scheduler contract. ---
    virtual void setEventDriven(bool enabled) = 0;
    virtual bool poked() const = 0;
    virtual bool consumeRetrySignal() = 0;
    virtual Cycle nextEventCycle(Cycle now) const = 0;

    // --- Partitioning / bandwidth-share policy. ---
    virtual void applyPolicy(const SharingPolicy &policy) = 0;

    // --- Fast-fidelity analytic paths. ---
    virtual Cycle fastTransfer(CoreId core, std::uint64_t num_tx,
                               bool is_write, Cycle start) = 0;
    virtual void fastWalkTraffic(CoreId core, std::uint64_t num_steps,
                                 Cycle at) = 0;

    // --- Wiring: completions, integrity, observability. ---
    virtual void setCallback(DramCallback callback) = 0;
    virtual void setIntegrity(RequestLifecycleTracker *tracker,
                              FaultInjector *injector) = 0;
    virtual void enableProtocolChecks() = 0;
    virtual std::uint64_t protocolStreamHash() const = 0;
    virtual std::uint64_t protocolCommandsChecked() const = 0;
    virtual void setTraceSink(TraceEventSink *sink) = 0;

    // --- Telemetry and request logs. ---
    virtual void enableTelemetry(Cycle window_cycles) = 0;
    virtual void finalizeTelemetry() = 0;
    virtual bool telemetryEnabled() const = 0;
    virtual const IntervalTracer &coreTelemetry(CoreId core) const = 0;
    virtual const IntervalTracer &totalTelemetry() const = 0;
    virtual void enableRequestLog(const std::string &dir) = 0;
    virtual void flushRequestLogs() = 0;

    // --- Readouts. ---
    virtual const DramTiming &timing() const = 0;
    virtual std::uint32_t numCores() const = 0;
    virtual std::uint32_t numChannels() const = 0;
    virtual std::uint64_t coreBytes(CoreId core) const = 0;
    virtual std::uint64_t coreWalkBytes(CoreId core) const = 0;
    virtual std::uint64_t totalCounter(const std::string &stat_name) const = 0;
    virtual double peakBandwidthBytesPerSec() const = 0;
    virtual double totalEnergyPj(Cycle elapsed_cycles) const = 0;

    /**
     * Visit every StatGroup this backend owns (per-channel groups,
     * cache/fabric groups). Replaces reaching through channel(i) for
     * metrics registration; stable visiting order (the metrics schema
     * depends on it).
     */
    virtual void visitStatGroups(const StatGroupVisitor &visit) const = 0;

    // --- Snapshot/restore. ---
    virtual void saveState(StateWriter &out) const = 0;
    virtual void loadState(StateReader &in) = 0;

    /** Stable identity string ("dram", "pcm", "tiered"). */
    virtual const char *kindName() const = 0;
};

/**
 * Build a backend graph for @p kind: DramSystem for Dram, PcmBackend
 * (with DramTiming::pcm() media timing) for Pcm, hot-DRAM + cold-PCM
 * TieredBackend for Tiered — each wrapped in an XBar when
 * @p fabric.enabled. @p timing is the hot/DRAM timing; the PCM tier
 * derives its media timing from DramTiming::pcm(), which shares the
 * DRAM clock and geometry (so transaction sizes and the global clock
 * domain stay uniform across tiers).
 */
std::unique_ptr<MemoryBackend>
makeMemoryBackend(MemBackendKind kind, const DramTiming &timing,
                  std::uint32_t num_channels, std::uint32_t num_cores,
                  std::uint32_t queue_depth, const PcmConfig &pcm,
                  const FabricConfig &fabric);

} // namespace mnpu

#endif // MNPU_MEM_MEMORY_BACKEND_HH
