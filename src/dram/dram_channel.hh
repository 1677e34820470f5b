/**
 * @file
 * One DRAM channel: per-bank state machines, all-bank refresh, and an
 * FR-FCFS (first-ready, first-come-first-served) command scheduler.
 *
 * The channel is ticked on the global (DRAM) clock. Each tick it retires
 * due completions, issues refreshes when due, and issues at most one
 * command, preferring the oldest ready row-buffer hit and otherwise
 * working on the oldest request (precharge/activate path).
 *
 * The request queue is one channel-wide slot array, stored
 * struct-of-arrays with O(1) swap-with-back removal. FR-FCFS arrival
 * order is an explicit monotonic age per entry. On top of the slots
 * sits a per-bank index: an age-ordered intrusive list of the bank's
 * slots, its open-row hit counts split read/write, its priority count,
 * and the set of banks with queued work. The index is kept up to date
 * on enqueue, removal, ACT, PRE/auto-precharge and REF, so the issue
 * passes and the event bound visit only the banks that have work. A
 * bank whose gates block it contributes its bound from the counts
 * without walking its entries; an open bank walks its list only up to
 * its first eligible hit. Selection is still the global min of
 * (priority first, then age) over the same eligible entries as a
 * whole-queue scan, and every bound the min over the same per-entry
 * candidates (tests/test_dram_channel_differential.cc drives a copy
 * of that scan in lockstep).
 */

#ifndef MNPU_DRAM_DRAM_CHANNEL_HH
#define MNPU_DRAM_DRAM_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"
#include "common/types.hh"
#include "dram/address_mapping.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{

class DramProtocolChecker;

/** One transaction presented to the DRAM system. */
struct DramRequest
{
    Addr paddr = kAddrInvalid;  //!< physical address (system-level)
    MemOp op = MemOp::Read;
    CoreId core = kCoreInvalid; //!< issuing NPU core (for stats/routing)
    std::uint64_t tag = 0;      //!< opaque client cookie
    /**
     * Latency-critical request (page-table walk steps). The scheduler
     * prefers these over bulk DMA traffic, as real memory controllers
     * do for translation fetches — a walk is 2-4 serial reads gating
     * thousands of coalesced transactions.
     */
    bool priority = false;
    /**
     * Monotonic lifecycle-audit ID assigned by the DramSystem when a
     * RequestLifecycleTracker is active; 0 = untracked.
     */
    std::uint64_t integrityId = 0;
    /**
     * Global cycle the DramSystem accepted this request (observability
     * only — stamped on the queued copy, never read by the scheduler,
     * so it cannot perturb timing).
     */
    Cycle enqueuedAt = 0;
    /**
     * Placement class (weight vs activation), stamped by the core from
     * the workload's tensor map. Only tiered backends read it; the
     * DRAM scheduler ignores it, so single-backend timing is
     * independent of the stamping.
     */
    MemRegion region = MemRegion::Activation;
};

/**
 * The snapshot record of one DramRequest, shared by every component
 * that holds requests. The channel's queue and completion heap omit
 * the region byte (@p with_region false); every other holder writes it.
 */
template <class Io, class Request>
void
visitRequest(Io &io, Request &request, bool with_region = true)
{
    io.u64(request.paddr);
    io.op(request.op);
    io.u32(request.core);
    io.u64(request.tag);
    io.b(request.priority);
    io.u64(request.integrityId);
    io.u64(request.enqueuedAt);
    if (with_region)
        io.e8(request.region);
}

/** Completion callback: the request and the cycle its data finished. */
using DramCallback = std::function<void(const DramRequest &, Cycle)>;

class DramChannel
{
  public:
    /**
     * @param timing       device parameters (validate()d here, so a
     *                     directly constructed channel rejects broken
     *                     timing the same way DramSystem does)
     * @param mapping      channel-local address decomposition
     * @param queue_depth  max outstanding transactions in the queue
     * @param name         stats group name (e.g. "dram.ch0")
     */
    DramChannel(const DramTiming &timing, const AddressMapping &mapping,
                std::uint32_t queue_depth, const std::string &name);

    /**
     * @return true if the transaction queue has room. A few slots are
     * reserved for priority (walk) requests so bulk DMA traffic cannot
     * lock translation fetches out of a saturated queue.
     */
    bool canAccept(bool priority) const
    {
        std::uint32_t limit =
            priority ? queueDepth_
                     : queueDepth_ - std::min<std::uint32_t>(
                                         kPriorityReserve, queueDepth_ - 1);
        return queueSize() < limit;
    }

    /**
     * Queue a transaction with channel-local address @p local_addr.
     * Caller must have checked canAccept().
     */
    void enqueue(const DramRequest &request, Addr local_addr, Cycle now);

    /**
     * Advance to global cycle @p now; fire completions via callback.
     * @return true when a queue slot was freed (a column command
     * issued), i.e. a blocked enqueuer's retry could now succeed.
     */
    bool tick(Cycle now);

    /**
     * Event-scheduler fast path: when enabled, each tick() also leaves
     * the channel's event bound in boundAfterTick(), reusing the
     * rejection conditions the issue passes already evaluated instead
     * of re-deriving them in a second nextEventCycle() pass.
     */
    void setBounding(bool on) { bounding_ = on; }

    /**
     * Bound produced by the last tick() while bounding is enabled.
     * Identical contract to nextEventCycle(): never overshoots the
     * next state change, may undershoot. A tick that issued a command
     * reports now + 1 (another command may be ready immediately).
     */
    Cycle boundAfterTick() const { return boundAfterTick_; }

    /** @return true while any transaction is queued or in flight. */
    bool busy() const
    {
        return queueSize() != 0 || !completions_.empty();
    }

    /**
     * Sharp lower bound on the next cycle tick() changes state: the
     * earliest of the next completion, the next possible refresh on
     * any rank, and per queued request the earliest cycle its next
     * FR-FCFS command (column hit / precharge / activate) could issue.
     * Never overshoots the true next state change; may undershoot
     * (an extra visited cycle is a harmless no-op tick).
     */
    Cycle nextEventCycle(Cycle now) const;

    void setCallback(DramCallback callback)
    {
        callback_ = std::move(callback);
    }

    /**
     * Attach a protocol checker (integrity layer, full level); every
     * ACT/PRE/RD/WR/REF issued from now on is reported to it. Pass
     * nullptr to detach. The checker is not owned.
     */
    void setProtocolChecker(DramProtocolChecker *checker)
    {
        checker_ = checker;
    }

    /**
     * Attach a trace sink (observability layer, Requests level); every
     * ACT/PRE/RD/WR/REF issued from now on is emitted as an instant
     * event on the channel's command track. Same passive-observer
     * contract as setProtocolChecker(); nullptr detaches, not owned.
     */
    void setTraceSink(TraceEventSink *sink, std::uint32_t channel_index)
    {
        traceSink_ = sink;
        traceTid_ = TraceEventSink::kChannelTidBase + channel_index;
    }

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    /**
     * Energy consumed by this channel in picojoules: command energy
     * (ACT/PRE pairs, column reads/writes, refreshes) plus standby
     * background power integrated over @p elapsed_cycles.
     */
    double energyPj(Cycle elapsed_cycles) const;

    /**
     * Fast-fidelity bulk accounting: credit the counters for a batch
     * of transactions the analytic path modeled without queueing them
     * (row hits/misses and activates per its row-granularity model).
     * Keeps stats/energy/telemetry consistent across fidelities; the
     * bank/rank state machines are untouched.
     */
    void fastAccount(std::uint64_t num_reads, std::uint64_t num_writes,
                     std::uint64_t row_hits, std::uint64_t row_misses,
                     std::uint64_t num_activates, std::uint64_t num_bytes)
    {
        reads_.inc(num_reads);
        writes_.inc(num_writes);
        rowHits_.inc(row_hits);
        rowMisses_.inc(row_misses);
        activates_.inc(num_activates);
        bytes_.inc(num_bytes);
    }

    /**
     * Snapshot the full channel: the SoA request queue in its current
     * array order (so the swap-with-back layout and FCFS age
     * tie-breaks restore exactly), the completion heap array verbatim,
     * bank/rank state machines, the column turnaround gates, and the
     * stats group. Geometry (bank/rank counts, queue depth) is
     * cross-checked on load and throws SnapshotError on mismatch. The
     * per-bank index is not written: loadState rebuilds it from the
     * entries' ages, whatever their array order.
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in);

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    static constexpr std::uint32_t kPriorityReserve = 4;
    /** Queue depth at/above which boundAfterIssue skips the rescan. */
    static constexpr std::size_t kSharpBoundQueueLimit = 4;
    static constexpr std::uint64_t kAgeNever =
        std::numeric_limits<std::uint64_t>::max();

    static constexpr std::uint32_t kNil =
        std::numeric_limits<std::uint32_t>::max();

    struct BankState
    {
        std::int64_t openRow = -1;
        Cycle nextActivate = 0;
        Cycle nextColumn = 0;    //!< earliest read/write after ACT (tRCD)
        Cycle nextPrecharge = 0;

        // The bank's part of the queue index: derived from the queue
        // and openRow, rebuilt on loadState, never serialized. The
        // bank's slots form a list in age order through qLink_.
        std::uint32_t head = kNil;      //!< oldest queued slot
        std::uint32_t tail = kNil;      //!< youngest queued slot
        std::uint32_t hitReads = 0;     //!< queued reads of openRow
        std::uint32_t hitWrites = 0;    //!< queued writes of openRow
        std::uint32_t priority = 0;     //!< queued priority entries
        std::uint32_t activePos = kNil; //!< index in activeBanks_
        std::uint32_t rank = 0;
    };

    struct RankState
    {
        std::vector<Cycle> actWindow; //!< last tFAW-window activations
        std::size_t actPtr = 0;
        Cycle nextActivate = 0;       //!< tRRD gate
        Cycle refreshDueAt = 0;
        Cycle refreshingUntil = 0;
    };

    struct Completion
    {
        Cycle at;
        DramRequest request;
        bool operator>(const Completion &other) const
        {
            return at > other.at;
        }
    };

    // In-flight completions as an explicit binary min-heap over a
    // vector (std::push_heap/std::pop_heap with std::greater) instead
    // of std::priority_queue. The two are specified as the identical
    // heap algorithms — the retire order, including ties on `at`, is
    // unchanged (the golden fixtures pin this) — but the explicit
    // array can be serialized verbatim, so a restored heap pops in
    // exactly the order the snapshotted one would have.
    const Completion &completionsTop() const { return completions_.front(); }
    void
    completionsPush(Completion done)
    {
        completions_.push_back(std::move(done));
        std::push_heap(completions_.begin(), completions_.end(),
                       std::greater<Completion>{});
    }
    void
    completionsPop()
    {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<Completion>{});
        completions_.pop_back();
    }

    std::size_t queueSize() const { return qFlat_.size(); }
    bool isHit(std::uint32_t slot) const
    {
        return banks_[qFlat_[slot]].openRow ==
               static_cast<std::int64_t>(qRow_[slot]);
    }
    Cycle columnGate(bool is_write) const
    {
        return is_write == lastOpWasWrite_ ? nextColumnSame_
                                           : nextColumnSwitch_;
    }
    void link(std::uint32_t slot);
    void unlink(std::uint32_t slot);
    void removeAt(std::uint32_t slot);
    void countHits(std::uint32_t flat_bank);
    void closeRow(std::uint32_t flat_bank);
    void rebuildIndex();

    bool rankCanActivate(const RankState &rank, Cycle now) const;
    void recordActivate(RankState &rank, Cycle now);
    void maybeRefresh(Cycle now);
    bool tryIssueColumn(Cycle now, Cycle *bound);
    bool tryIssueRowCommand(Cycle now, Cycle *bound);
    Cycle refreshFireCycle(std::uint32_t rank_index) const;
    Cycle refreshBound(Cycle now) const;
    Cycle boundAfterIssue(Cycle now) const;

    DramTiming timing_;
    AddressMapping mapping_;
    std::uint32_t queueDepth_;

    /**
     * The request queue, struct-of-arrays. Slots are unordered in
     * memory (removal swaps with the back); qAge_ carries the FCFS
     * arrival order the scheduler's tie-breaks need. The passes' hot
     * fields (flat bank, row, priority, age) live in their own dense
     * arrays; the full DramRequest is only touched at issue time.
     */
    std::vector<std::uint32_t> qFlat_;   //!< cached coord.flatBank()
    std::vector<std::uint64_t> qRow_;
    std::vector<std::uint8_t> qPriority_;
    std::vector<std::uint8_t> qWrite_;
    std::vector<std::uint64_t> qAge_;    //!< monotonic arrival order
    std::vector<Cycle> qArrival_;
    std::vector<std::uint8_t> qCausedActivate_;
    std::vector<DramRequest> qRequest_;
    /**
     * A slot's neighbours in its bank's age-ordered list. Unlike the
     * columns above, qLink_ and activeBanks_ are not reserved up
     * front: fast fidelity builds channels it never queues into, and
     * reserving them raised the fast campaign's peak RSS (through
     * heap layout, not their size).
     */
    struct SlotLink
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };
    std::vector<SlotLink> qLink_;
    std::uint64_t nextAge_ = 0;
    std::uint32_t priorityQueued_ = 0; //!< priority entries queued

    std::vector<std::uint32_t> activeBanks_; //!< banks with queued slots

    std::vector<Completion> completions_; //!< min-heap by `at`

    std::vector<BankState> banks_;
    std::vector<RankState> ranks_;

    Cycle nextColumnSame_ = 0;   //!< tCCD / bus occupancy gate
    Cycle nextColumnSwitch_ = 0; //!< gate when switching read<->write
    bool lastOpWasWrite_ = false;

    bool bounding_ = false;     //!< tick() also computes boundAfterTick_
    Cycle boundAfterTick_ = 0;

    void traceCommand(const char *name, Cycle now)
    {
        if (traceSink_) {
            traceSink_->instant(TraceEventSink::kDramPid, traceTid_, "cmd",
                                name, now);
        }
    }

    DramCallback callback_;
    DramProtocolChecker *checker_ = nullptr;
    TraceEventSink *traceSink_ = nullptr;
    std::uint32_t traceTid_ = TraceEventSink::kChannelTidBase;
    StatGroup stats_;
    Counter &reads_;
    Counter &writes_;
    Counter &rowHits_;
    Counter &rowMisses_;
    Counter &bytes_;
    Counter &refreshes_;
    Counter &activates_;
    Distribution &queueLatency_;
};

} // namespace mnpu

#endif // MNPU_DRAM_DRAM_CHANNEL_HH
