/**
 * @file
 * Multi-channel DRAM system with per-core channel partitioning: one
 * tier of the MemoryBackend (DESIGN.md §14). PcmBackend derives from
 * it and overrides only the hooks marked virtual.
 *
 * Bandwidth sharing levels from the paper map onto channel sets:
 *  - shared (+D): every core interleaves over every channel;
 *  - static p:q:  disjoint channel subsets per core (Fig. 9's 1:7 … 7:1
 *    ratios are channel counts out of 8);
 *  - Ideal: one core owns all channels with no co-runner.
 */

#ifndef MNPU_DRAM_DRAM_SYSTEM_HH
#define MNPU_DRAM_DRAM_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/fault_injection.hh"
#include "common/integrity.hh"
#include "common/interval_tracer.hh"
#include "common/request_log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_channel.hh"
#include "mem/mem_config.hh"

namespace mnpu
{

class DramSystem
{
  public:
    /**
     * @param timing        per-channel device parameters
     * @param num_channels  channels in the system (need not be 2^k)
     * @param num_cores     NPU cores that may issue requests
     * @param queue_depth   per-channel transaction queue depth
     * @param mapping_order address interleaving within a channel
     * @param stat_prefix   StatGroup name prefix ("dram" → "dram.ch0"…;
     *                      tiered systems give the cold tier its own)
     */
    DramSystem(const DramTiming &timing, std::uint32_t num_channels,
               std::uint32_t num_cores, std::uint32_t queue_depth = 32,
               const std::string &mapping_order = "ro-ra-bg-ba-co",
               const std::string &stat_prefix = "dram");
    virtual ~DramSystem() = default;
    /** The channels' completion callbacks hold this system's address. */
    DramSystem(const DramSystem &) = delete;
    DramSystem &operator=(const DramSystem &) = delete;

    /**
     * Apply a declarative channel-partition + bandwidth-share policy:
     * the one write path for sharing configuration. Bandwidth shares
     * are the mNPUsim way of static partitioning: the DRAM structure
     * stays fully shared ("DRAM is always shared by all NPUs"), but
     * each core's enqueue rate is capped by a token bucket at
     * shares[core] / sum(shares) of the system's peak bandwidth; an
     * empty share vector removes all caps (dynamic sharing).
     */
    void applyPolicy(const SharingPolicy &policy);

    /**
     * Try to queue a transaction. @return false when the target channel
     * queue is full (caller retries later).
     */
    virtual bool tryEnqueue(const DramRequest &request, Cycle now);

    /**
     * Fast-fidelity analytic transfer: model a batch of @p num_tx
     * bus transactions for @p core starting no earlier than @p start,
     * without queueing anything. The batch spends the anchored token
     * bucket (bandwidth shares persist across fidelities), is spread
     * evenly over the core's channel set, and each channel's share is
     * costed as a dense row-granular stream: one precharge+activate
     * per columnsPerRow transactions, max(tCCD, burst) of column-pipe
     * occupancy per transaction, serialized behind the channel's
     * previous fast batch. Counters/bytes/telemetry are credited in
     * bulk; refreshes are not modeled (a documented energy
     * under-count of the fast mode).
     * @return the global cycle the batch's last data beat completes.
     */
    Cycle fastTransfer(CoreId core, std::uint64_t num_tx, bool is_write,
                       Cycle start);

    /**
     * Fast-fidelity walk traffic: credit @p num_steps page-table-walk
     * reads to @p core (counters, bytes, telemetry at @p at). Pure
     * accounting — the walk latency itself is modeled closed-form by
     * Mmu::fastTranslate, not by queueing these reads.
     */
    void fastWalkTraffic(CoreId core, std::uint64_t num_steps,
                         Cycle at);

    /** @return true if the target channel could accept @p request now. */
    virtual bool canAccept(const DramRequest &request) const;

    /**
     * Advance to global cycle @p now. In the default (exhaustive)
     * mode every busy channel is ticked. In event-driven mode (see
     * setEventDriven) only channels whose cached event bound is due or
     * that were enqueued-to since their last tick are ticked — a
     * channel skipped under that rule is guaranteed to no-op.
     */
    virtual void tick(Cycle now);

    /**
     * Switch to event-driven per-channel ticking: tick(now) consults a
     * per-channel cached nextEventCycle and skips channels with no due
     * work, and nextEventCycle(now) returns the cached minimum instead
     * of rescanning every queue. Enqueues mark their channel dirty so
     * the next tick revisits it. Used by the gated run loop; direct
     * per-cycle users keep the default exhaustive mode.
     */
    void setEventDriven(bool enabled);

    /**
     * Event mode: true when this tick freed a channel-queue slot or a
     * starved token bucket crossed back above one transaction's cost —
     * the two conditions under which a blocked enqueuer (a core's DMA
     * drain or a WaitIssue walker) could now succeed. Cleared on read.
     */
    bool consumeRetrySignal()
    {
        bool signal = retrySignal_;
        retrySignal_ = false;
        return signal;
    }

    virtual bool busy() const;

    /**
     * Sharp lower bound on the next cycle the DRAM system (any
     * channel, a delayed fault release, or a token-bucket refill a
     * starved requester is waiting on) changes state. See
     * DramChannel::nextEventCycle for the bound contract.
     */
    virtual Cycle nextEventCycle(Cycle now) const;

    /**
     * FNV-1a hash over every DRAM command the protocol checkers have
     * observed, aggregated across channels (0 when checks are off).
     * Two runs with identical hashes issued the identical command
     * stream — the differential stepping test's strongest witness.
     */
    std::uint64_t protocolStreamHash() const;

    /** Completion callback for reads and writes (data-done cycle). */
    void setCallback(DramCallback callback);

    /**
     * Attach the integrity layer: @p tracker assigns every accepted
     * transaction a monotonic audit ID and is told about each
     * completion (before the client callback, so a duplicated
     * response throws instead of reaching the client); @p injector
     * may drop, duplicate, or delay completions. Either may be
     * nullptr; neither is owned.
     */
    void setIntegrity(RequestLifecycleTracker *tracker,
                      FaultInjector *injector);

    /**
     * Attach one DramProtocolChecker per channel (full check level);
     * every subsequent DRAM command is re-validated against the
     * timing parameters.
     */
    void enableProtocolChecks();

    /**
     * Attach the observability trace sink: each delivered request
     * becomes a complete span (enqueue → data-done) on the DRAM
     * process, and when the sink's level is Requests every channel also
     * emits per-command instants, channel c on the track of global
     * channel @p first_channel + c (a second tier's channels follow the
     * first's). Passive; nullptr detaches; not owned.
     */
    void setTraceSink(TraceEventSink *sink, std::uint32_t first_channel);

    /** DRAM commands validated so far (0 when protocol checks are off). */
    std::uint64_t protocolCommandsChecked() const;

    /**
     * Start recording per-core and total traffic per @p window_cycles
     * window (Figure 12 telemetry). Bytes are attributed to the window
     * of the completion cycle.
     */
    void enableTelemetry(Cycle window_cycles);

    /** Flush telemetry windows; call once after simulation. */
    void finalizeTelemetry();

    /**
     * Write request logs under @p dir (§3.2.2): `dram.log` records the
     * start cycle of every accepted request and `dramreq.log` the end
     * cycle, both with core, channel, address, and operation.
     */
    void enableRequestLog(const std::string &dir);

    /** Flush request logs to disk (call after the simulation). */
    void flushRequestLogs();

    /** @return whether enableTelemetry() has been called. */
    bool telemetryEnabled() const
    {
        return totalTracer_.has_value();
    }

    /**
     * Per-core traffic tracer (telemetry must be enabled).
     * @deprecated Read `dram.core<i>.bytes` from
     * SimResult::telemetry.findSeries() instead of reaching into the
     * live DRAM system; kept one release for out-of-tree callers.
     */
    const IntervalTracer &coreTelemetry(CoreId core) const;

    /**
     * Whole-system traffic tracer (telemetry must be enabled).
     * @deprecated Read `dram.total.bytes` from
     * SimResult::telemetry.findSeries() instead; kept one release.
     */
    const IntervalTracer &totalTelemetry() const;

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(partitions_.size());
    }

    const DramTiming &timing() const { return timing_; }

    /** Total bytes completed for @p core (data + walk traffic). */
    std::uint64_t coreBytes(CoreId core) const;

    /** Bytes of page-table-walk traffic completed for @p core. */
    std::uint64_t coreWalkBytes(CoreId core) const;

    /** Aggregate stats across channels (reads/writes/hits/misses). */
    std::uint64_t totalCounter(const std::string &stat_name) const;

    const DramChannel &channel(std::uint32_t index) const
    {
        return *channels_[index];
    }

    /** Every per-channel StatGroup, in channel order. */
    virtual void visitStatGroups(const StatGroupVisitor &visit) const;

    /** Peak bandwidth of the whole system in bytes/sec. */
    double peakBandwidthBytesPerSec() const;

    /** Total DRAM energy over @p elapsed_cycles, picojoules. */
    double totalEnergyPj(Cycle elapsed_cycles) const;

    /**
     * Snapshot every channel, the per-core token buckets, delayed
     * (fault-held) completions, the fast-fidelity busy horizons,
     * per-core byte totals, telemetry tracers, and the per-channel
     * protocol checkers. The event-driven cache (chanNext_/chanPoked_)
     * is deliberately not serialized: setEventDriven() resets it to
     * "due now", so the first post-restore tick revisits everything
     * and skipped-channel no-op guarantees hold trivially. Request
     * logs restart empty (spans before the snapshot are not replayed).
     */
    virtual void saveState(StateWriter &out) const { visitState(*this, out); }
    virtual void loadState(StateReader &in);

  protected:
    /**
     * Channel-completion entry: applies injected completion faults
     * (drop/duplicate/delay), then deliver()s. Virtual so derived
     * media models (PcmBackend's write-commit hold) can interpose on
     * the completion path while keeping fault semantics.
     */
    virtual void onCompletion(const DramRequest &request, Cycle at);

    /**
     * Hand a completed request to the integrity tracker, byte/energy
     * accounting, telemetry, logs, and the client callback — the one
     * delivery path every backend-visible completion must take (the
     * lifecycle audit reconciles against it).
     */
    void deliver(const DramRequest &request, Cycle at);

    /** Integrity tracker, for derived backends' own admission paths. */
    RequestLifecycleTracker *lifecycleTracker() const { return tracker_; }

    /** Raise the blocked-enqueuer retry signal (event mode). */
    void raiseRetrySignal() { retrySignal_ = true; }

    /** Whether event-driven ticking is on (setEventDriven). */
    bool eventDrivenMode() const { return eventDriven_; }

    /** The stats-name prefix this system was built with. */
    const std::string &statPrefix() const { return statPrefix_; }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    struct Route
    {
        std::uint32_t channel;
        Addr localAddr;
    };
    Route route(const DramRequest &request) const;
    void applyBandwidthShares(const std::vector<std::uint32_t> &shares);

    /** A completion held back by an injected dram-delay fault. */
    struct DelayedCompletion
    {
        Cycle at;
        DramRequest request;
    };

    /**
     * Anchored token bucket: @c tokens is the balance at @c lastRefill
     * and the spendable amount at any later cycle is the pure function
     * available() — the anchor moves only on a successful spend. A
     * failed admission therefore mutates nothing, which makes the
     * bucket's evolution independent of how often blocked requesters
     * retry (the property the event loop's bit-identity rests on).
     */
    struct TokenBucket
    {
        bool enabled = false;
        double tokens = 0;        //!< bytes available at lastRefill
        double ratePerCycle = 0;  //!< bytes replenished per global cycle
        double burstCap = 0;      //!< bucket capacity in bytes
        Cycle lastRefill = 0;
        /**
         * Event mode: whether available() was below one transaction's
         * cost at the last observation (a tick or a spend); an upward
         * crossing raises the retry signal.
         */
        bool wasBelowCost = false;
        /**
         * Event mode: an admission was refused for lack of tokens and
         * no upward re-crossing has raised the retry signal since — a
         * client waits on the refill. Only then does the bucket put
         * its refill crossing into nextEventCycle(): the fast path's
         * analytic spends never queue a request behind it. Not
         * serialized; a restore re-arms it (conservative).
         */
        bool refused = false;
    };

    /** Spendable tokens at @p now; the exact admission expression. */
    static double available(const TokenBucket &bucket, Cycle now)
    {
        if (now <= bucket.lastRefill)
            return bucket.tokens;
        return std::min(bucket.burstCap,
                        bucket.tokens +
                            bucket.ratePerCycle *
                                static_cast<double>(now - bucket.lastRefill));
    }

    DramTiming timing_;
    std::uint32_t offsetBits_;
    std::string statPrefix_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::vector<std::vector<std::uint32_t>> partitions_; //!< per core
    std::vector<TokenBucket> buckets_;                   //!< per core
    DramCallback clientCallback_;

    // --- Event-driven ticking state (setEventDriven). ---
    bool eventDriven_ = false;
    std::vector<Cycle> chanNext_;        //!< cached per-channel bound
    std::vector<std::uint8_t> chanPoked_; //!< enqueued since last tick
    bool anyPoked_ = false;
    bool retrySignal_ = false;

    RequestLifecycleTracker *tracker_ = nullptr;
    FaultInjector *injector_ = nullptr;
    TraceEventSink *traceSink_ = nullptr;
    std::vector<std::unique_ptr<DramProtocolChecker>> checkers_;
    std::vector<DelayedCompletion> delayed_;

    /** Per-channel busy horizon of the fast-fidelity analytic path. */
    std::vector<Cycle> fastBusyUntil_;

    std::vector<std::uint64_t> coreBytes_;
    std::vector<std::uint64_t> coreWalkBytes_;
    std::vector<IntervalTracer> coreTracers_;
    std::optional<IntervalTracer> totalTracer_;
    RequestLog startLog_;
    RequestLog endLog_;
};

} // namespace mnpu

#endif // MNPU_DRAM_DRAM_SYSTEM_HH
