/**
 * @file
 * Plain configuration types of the off-chip memory system: the sharing
 * policy every tier applies, the PCM and fabric knobs, and the
 * stat-group visitor. Kept apart from memory_backend.hh so the tiers
 * (dram_system.hh, pcm_backend.hh) and the fabric (xbar.hh) can name
 * them without including the MemoryBackend that owns them.
 */

#ifndef MNPU_MEM_MEM_CONFIG_HH
#define MNPU_MEM_MEM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mnpu
{

/**
 * Declarative channel-partition + bandwidth-share policy. Declarative
 * matters for multi-tier systems: "share all channels" resolves against
 * each tier's own channel count instead of baking one tier's channel
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

/** XBar fabric knobs between cores and the memory tiers. */
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

/** Visitor over the memory system's StatGroups (metrics registration). */
using StatGroupVisitor = std::function<void(const StatGroup &)>;

} // namespace mnpu

#endif // MNPU_MEM_MEM_CONFIG_HH
