/**
 * @file
 * The shared memory-management unit of the multi-core NPU (Figure 1 of
 * the paper): per-core or shared TLBs in front of a pool of page-table
 * walkers whose walk steps are real DRAM reads.
 *
 * The walker pool supports the paper's partitioning schemes:
 *  - Static: each core owns a fixed quota of walkers (equal split or an
 *    explicit ratio such as Fig. 13's 2:14);
 *  - Shared: one first-come-first-served pool (+W sharing level);
 *  - Bounded: per-core [min,max] occupancy bounds (misc_config's "shared
 *    partition options of page table walkers").
 *
 * Misses to the same page coalesce in an MSHR, so a burst of 64-byte DMA
 * transactions touching one new page triggers exactly one walk.
 */

#ifndef MNPU_MMU_MMU_HH
#define MNPU_MMU_MMU_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.hh"
#include "common/request_log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memory_backend.hh"
#include "mmu/paging.hh"
#include "mmu/tlb.hh"

namespace mnpu
{

/**
 * How the walker pool is divided among cores:
 *  - Static: hard per-core quotas (equal split or explicit ratio);
 *  - Shared: one pool, round-robin grant arbitration, no reservations;
 *  - Bounded: per-core [min, max] occupancy bounds;
 *  - Stealing: DWS-style (Pratheek et al., HPCA'21) — static quotas,
 *    but a core may exceed its quota by stealing walkers while every
 *    other core's walk queue is empty.
 */
enum class PtwPartitionMode { Static, Shared, Bounded, Stealing };

struct MmuConfig
{
    std::uint32_t numCores = 1;
    std::uint32_t tlbEntriesPerCore = 2048;
    std::uint32_t tlbWays = 8;
    bool sharedTlb = false;       //!< one big TLB (+T) vs per-core TLBs
    std::uint32_t totalPtws = 8;  //!< walkers across the whole MMU
    PtwPartitionMode ptwMode = PtwPartitionMode::Static;
    /** Static mode per-core walker quota; empty = equal split. */
    std::vector<std::uint32_t> ptwQuota;
    /** Bounded mode per-core occupancy bounds. */
    std::vector<std::uint32_t> ptwMin;
    std::vector<std::uint32_t> ptwMax;
    std::uint32_t tlbLatency = 1;    //!< global cycles per lookup
    std::uint32_t tlbBandwidth = 32; //!< lookups per cycle per TLB
    std::uint32_t maxPendingPerCore = 4096;
    bool translationEnabled = true;  //!< false = Fig. 9/10 bypass mode
};

/**
 * Translation completion: the client tag, the physical address, and the
 * global cycle the translation finished.
 */
using MmuCallback =
    std::function<void(std::uint64_t tag, Addr paddr, Cycle when)>;

class Mmu
{
  public:
    Mmu(const MmuConfig &config, PageAllocator &allocator,
        PageTableModel &page_table, MemoryBackend &dram);

    /** Set the translation-completion callback (typically the DMA). */
    void setCallback(MmuCallback callback)
    {
        callback_ = std::move(callback);
    }

    /**
     * Request a translation. @return false when the core's pending queue
     * is full — the caller must retry later.
     */
    bool requestTranslation(CoreId core, Asid asid, Addr vaddr,
                            std::uint64_t tag, Cycle now);

    /** Consecutive virtual pages [firstVpn, firstVpn + pages). */
    struct PageRun
    {
        Addr firstVpn = 0;
        std::uint64_t pages = 0;
    };

    /** Outcome of one fast-fidelity batched translation. */
    struct FastXlatResult
    {
        Cycle latency = 0;       //!< modeled translation latency
        std::uint64_t pages = 0; //!< distinct pages probed
        std::uint64_t misses = 0; //!< of which TLB misses (walked)
    };

    /**
     * Fast-fidelity analytic translation of the pages one tile phase
     * touches, given as runs in touch order. Each page is translated,
     * probed in the TLB, walked on a miss and inserted, in that order
     * (page-table nodes interleave with data frames exactly as in
     * exact mode). The TLB probes and inserts are real — shared-TLB
     * capacity and inter-core conflict effects persist across
     * fidelities — and every miss credits its walk steps as DRAM walk
     * traffic. Only the timing is closed-form: misses drain through
     * this core's average walker share instead of being queued, each
     * walk costing levels serial DRAM reads. Counters count per page
     * here; exact mode counts per transaction (before MSHR
     * coalescing), so the fast counters are smaller by the per-page
     * transaction fan-in.
     */
    FastXlatResult fastTranslate(CoreId core, Asid asid,
                                 std::span<const PageRun> runs, Cycle now);

    /** Page size of the backing allocator (fast-path page chunking). */
    std::uint64_t pageBytes() const { return allocator_.pageBytes(); }

    /** Advance one global cycle; completes lookups and drives walkers. */
    void tick(Cycle now);

    /**
     * Hand a DRAM completion whose tag says "walker step" back to the
     * MMU. @p tag must satisfy isWalkTag().
     */
    void onDramCompletion(std::uint64_t tag, Cycle at);

    /** Tags of DRAM requests issued by walkers carry the top bit. */
    static bool isWalkTag(std::uint64_t tag) { return (tag >> 63) != 0; }

    bool busy() const;

    /**
     * Sharp lower bound on the next cycle tick() changes state: the
     * earliest pending-lookup readyAt, or now + 1 when a ready lookup
     * was carried over the TLB bandwidth budget (or a finished walker
     * awaits release). Blocked walk activity needs no candidate here:
     * walkers free and channel queues drain only at cycles the DRAM
     * bounds already cover, and the MMU ticks after the DRAM at every
     * visited cycle.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Whether requestTranslation() for @p core would be admitted this
     * cycle (pending queue below maxPendingPerCore). Lets a core's
     * event bound report "issuable next cycle" only when the issue
     * could actually land.
     */
    bool canAcceptTranslation(CoreId core) const
    {
        return pending_[core].size() < config_.maxPendingPerCore;
    }

    /**
     * Event-scheduler gating support. poked() reports external input
     * since the last tick (an accepted translation request or a walk
     * step's DRAM completion): the cached event bound predates it, so
     * the MMU must be ticked at the next visited cycle regardless.
     */
    bool poked() const { return poked_; }

    /**
     * Whether the last tick freed pending-queue space (serviced at
     * least one lookup) — the condition that can unblock a core whose
     * requestTranslation was refused. Cleared on read.
     */
    bool consumePendingDrained()
    {
        bool drained = pendingDrained_;
        pendingDrained_ = false;
        return drained;
    }

    /**
     * Whether any walker sits in WaitIssue (its DRAM enqueue was
     * refused). Such a walker retries on every tick; the event
     * scheduler must tick the MMU whenever the DRAM reports a freed
     * queue slot or a token-bucket re-crossing.
     */
    bool hasBlockedWalks() const
    {
        return walkersIn(WalkerState::WaitIssue) > 0;
    }

    /** Translate without timing (also used when translation is off). */
    Addr translateFunctional(Asid asid, Addr vaddr)
    {
        return allocator_.translate(asid, vaddr);
    }

    const Tlb &tlbForCore(CoreId core) const;
    const MmuConfig &config() const { return config_; }
    const StatGroup &stats() const { return stats_; }

    /** Walkers currently active for @p core (tests/telemetry). */
    std::uint32_t walkersInFlight(CoreId core) const;

    /**
     * Integrity layer (full level): re-derive every completed
     * translation from the page table, and recount the walkers per
     * state after every tick (checkWalkerCounts), throwing
     * SimulationError{MmuConsistency} on a mismatch (a corrupted PTE
     * or stale TLB entry would otherwise silently mis-route traffic; a
     * stale walker count would skip a release or a retry).
     */
    void enableConsistencyChecks() { consistencyChecks_ = true; }

    /**
     * Recount the walkers in each state by a full scan and throw
     * SimulationError{MmuConsistency} when a kept count disagrees.
     */
    void checkWalkerCounts() const;

    /** Attach the fault injector (pte-corrupt site). Not owned. */
    void setFaultInjector(FaultInjector *injector) { injector_ = injector; }

    /**
     * Attach the observability trace sink (Requests level): every
     * completed page walk becomes a span (walk start → last step done)
     * on the MMU process, one track per requesting core. Passive;
     * nullptr detaches; not owned.
     */
    void setTraceSink(TraceEventSink *sink)
    {
        traceSink_ = sink && sink->wants(TraceLevel::Requests) ? sink
                                                               : nullptr;
    }

    /** DRAM walk-step transactions issued on behalf of @p core. */
    std::uint64_t walkStepsIssued(CoreId core) const
    {
        return core < walkSteps_.size() ? walkSteps_[core] : 0;
    }

    /**
     * Per-core attribution of TLB lookups and walks. The legacy
     * CoreResult/`core<i>.*` view reports whole-MMU totals duplicated
     * onto every core whenever the underlying structure is shared (the
     * shared TLB's hits/misses under +T, and `walks` always) — those
     * duplicated values are pinned by the batch golden fixtures and
     * stay as they are. These accessors instead charge each event to
     * the core that requested it, so summing them over cores equals
     * the MMU totals exactly once. Aggregations that fold per-core
     * counters — the serving engine, where one core runs many
     * requests' phases back-to-back — must use these to avoid
     * double-counting shared totals per core.
     */
    std::uint64_t tlbHitsFor(CoreId core) const
    {
        return core < tlbHitsPerCore_.size() ? tlbHitsPerCore_[core] : 0;
    }
    std::uint64_t tlbMissesFor(CoreId core) const
    {
        return core < tlbMissesPerCore_.size() ? tlbMissesPerCore_[core]
                                               : 0;
    }
    std::uint64_t walksFor(CoreId core) const
    {
        return core < walksPerCore_.size() ? walksPerCore_[core] : 0;
    }

    /**
     * Write per-core request logs under @p dir (§3.2.2): tlb<i>.log
     * records every lookup (cycle, vpn, hit/miss) and tlb<i>_ptw.log
     * every walk with its start/finish cycles.
     */
    void enableRequestLog(const std::string &dir);

    /** Flush request logs to disk (call after the simulation). */
    void flushRequestLogs();

    /**
     * Snapshot the TLBs, per-core pending-lookup queues, MSHRs (sorted
     * by key for deterministic bytes; per-key attach order preserved),
     * walk queues, the walker pool (including each walker's derived
     * walk path and level cursor), the two round-robin cursors, the
     * gating flags, per-core walk-step totals, and the stats group.
     * Request logs are not serialized — a restored run logs only
     * post-restore activity (documented limitation).
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in);

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    struct PendingXlat
    {
        Asid asid;
        Addr vaddr;
        std::uint64_t tag;
        Cycle readyAt;
    };

    struct WalkRequest
    {
        CoreId core;
        Asid asid;
        Addr vpn;
        Addr vaddr; //!< representative address for the walk
        Cycle enqueuedAt;
    };

    enum class WalkerState { Idle, WaitIssue, WaitDram, Finished };

    struct Walker
    {
        WalkerState state = WalkerState::Idle;
        CoreId core = kCoreInvalid;
        Asid asid = 0;
        Addr vpn = 0;
        PageTableModel::Path path{};
        std::uint32_t pathLength = 0; //!< valid entries of path
        std::uint32_t level = 0;
        Cycle startedAt = 0;
        Cycle finishedAt = 0;
    };

    static std::uint64_t mshrKey(Asid asid, Addr vpn)
    {
        return (static_cast<std::uint64_t>(asid) << 48) | vpn;
    }
    static std::uint64_t walkTag(std::uint32_t walker_id)
    {
        return (std::uint64_t{1} << 63) | walker_id;
    }

    std::uint32_t walkersIn(WalkerState state) const
    {
        return walkersIn_[static_cast<std::size_t>(state)];
    }
    /** The one place a walker changes state (keeps walkersIn_). */
    void setWalkerState(Walker &walker, WalkerState state)
    {
        --walkersIn_[static_cast<std::size_t>(walker.state)];
        ++walkersIn_[static_cast<std::size_t>(state)];
        walker.state = state;
    }

    Tlb &tlbFor(CoreId core);
    bool canGrabWalker(CoreId core) const;
    void completeTranslation(const PendingXlat &xlat, Cycle when);
    void releaseFinishedWalkers(Cycle now);
    void processPending(Cycle now);
    void startWalks(Cycle now);
    void driveWalkers(Cycle now);

    MmuConfig config_;
    PageAllocator &allocator_;
    PageTableModel &pageTable_;
    MemoryBackend &dram_;
    MmuCallback callback_;

    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::deque<PendingXlat>> pending_; //!< per core
    std::unordered_map<std::uint64_t, std::vector<PendingXlat>> mshrs_;
    /**
     * Per-core walk queues, FCFS within a core. Walker grants rotate
     * round-robin across cores: "dynamic sharing without any control"
     * means no reservations, not a single global FIFO that would let a
     * walk-heavy core head-block a bursty co-runner.
     */
    std::vector<std::deque<WalkRequest>> walkQueues_;
    CoreId walkRoundRobin_ = 0;
    std::vector<Walker> walkers_;
    /**
     * Walkers per WalkerState, so the passes that act only on Finished
     * or WaitIssue walkers (release, drive, the event bound,
     * hasBlockedWalks) return at once when there are none. Derived from
     * walkers_: not serialized, rebuilt by loadState.
     */
    std::array<std::uint32_t, 4> walkersIn_{};
    std::vector<std::uint32_t> inFlightPerCore_;
    std::uint32_t totalInFlight_ = 0;
    std::vector<std::uint32_t> staticQuota_;
    CoreId pendingRoundRobin_ = 0;

    std::vector<RequestLog> tlbLogs_; //!< per core
    std::vector<RequestLog> ptwLogs_; //!< per core

    bool poked_ = false;
    bool pendingDrained_ = false;

    bool consistencyChecks_ = false;
    FaultInjector *injector_ = nullptr;
    TraceEventSink *traceSink_ = nullptr;
    std::vector<std::uint64_t> walkSteps_; //!< per core, issued to DRAM
    /** Per-core attribution mirrors of the global counters below. */
    std::vector<std::uint64_t> tlbHitsPerCore_;
    std::vector<std::uint64_t> tlbMissesPerCore_;
    std::vector<std::uint64_t> walksPerCore_;

    StatGroup stats_;
    Counter &translations_;
    Counter &tlbHits_;
    Counter &tlbMisses_;
    Counter &walks_;
    Counter &mshrAttaches_;
    Distribution &walkLatency_;
    Distribution &walkQueueDelay_;
};

} // namespace mnpu

#endif // MNPU_MMU_MMU_HH
