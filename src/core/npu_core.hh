/**
 * @file
 * One NPU core: systolic-array compute driven by per-tile traces, a
 * double-buffered scratchpad pipeline, and a DMA engine that turns tile
 * access ranges into translated off-chip transactions.
 *
 * Pipeline (paper Figure 2a): while tile j computes out of one SPM half,
 * the DMA prefetches tile j+1 into the other half and drains tile j-1's
 * outputs. Loads for tile j may start only once tile j-2 has fully
 * retired (compute finished and stores drained) — that reuse rule is
 * what produces the bursty, front-loaded memory traffic the paper
 * studies.
 */

#ifndef MNPU_CORE_NPU_CORE_HH
#define MNPU_CORE_NPU_CORE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/clock_domain.hh"
#include "common/interval_tracer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/inflight_window.hh"
#include "mem/memory_backend.hh"
#include "mmu/mmu.hh"
#include "sw/trace_generator.hh"

namespace mnpu
{

/** Per-core execution-mode settings (the paper's misc_config). */
struct CoreConfig
{
    CoreId id = 0;
    Asid asid = 0;
    Cycle startCycleGlobal = 0; //!< execution initiation time
    std::uint32_t iterations = 1;
};

class NpuCore
{
  public:
    /**
     * @param trace must outlive the core (typically owned by the system)
     */
    NpuCore(const CoreConfig &config, const TraceGenerator &trace,
            Mmu &mmu, MemoryBackend &dram, const ClockDomain &clock);

    /**
     * Advance to global cycle @p now. @return true when the tick
     * changed simulated state (issued, computed, retired, started or
     * finished anything) — pure bookkeeping such as a DMA budget
     * refresh does not count. The run loop keys its core service
     * rotation off this, so skipped no-op cycles cannot perturb
     * arbitration.
     */
    bool tick(Cycle now);

    bool done() const { return done_; }

    /**
     * Sharp lower bound on the next cycle tick() changes state. Only
     * self-timed events need candidates here (tile compute finish,
     * the DMA budget refresh at the next local-cycle boundary, start
     * cycle); everything gated on the memory system — DRAM
     * completions, translation completions, channel-queue space —
     * is covered by the DRAM/MMU bounds, because those components
     * tick before the cores at every visited cycle.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Attach the fault injector (core-stall site: the pipeline freezes
     * forever so the run-loop watchdog budget must catch it). Not
     * owned.
     */
    void setFaultInjector(FaultInjector *injector) { injector_ = injector; }

    /**
     * Switch this core to the fast (analytic) fidelity. Must be set
     * before the first tick and never changed mid-run. Each tile's
     * load/store phase completes in one closed-form step (see
     * fastMemoryPhase) instead of per-transaction issue/translate/
     * queue/complete round trips, so the core advances in a handful of
     * events per tile. The exact path's per-transaction state
     * (inflightTx_, dramReady_, DMA budgets) is bypassed entirely;
     * compute timing, the double-buffer reuse rule, and layer/tile
     * span recording reuse the exact code unchanged. The resolved
     * fidelity is decided by resolvedFidelityKind() — never enable
     * this with a fault injector or integrity checks armed.
     */
    void setFastMode(bool on) { fastMode_ = on; }

    /** Translation completed for one of this core's transactions. */
    void onTranslation(std::uint64_t tag, Addr paddr, Cycle at);

    /** DRAM data transfer completed for one of this core's txns. */
    void onDramCompletion(std::uint64_t tag, Cycle at);

    /**
     * Event-scheduler gating support: external input (a translation or
     * DRAM completion) since the last tick — the cached event bound
     * predates it, so the core must be ticked this cycle.
     */
    bool poked() const { return poked_; }

    /** Blocked pushing into a full/starved DRAM channel queue. */
    bool dramBlocked() const { return dramBlocked_; }

    /** Blocked on a full MMU pending queue. */
    bool xlatBlocked() const { return xlatBlocked_; }

    // --- results ---
    /** End-to-end local cycles (finish - start), valid once done(). */
    Cycle totalLocalCycles() const;
    Cycle finishedAtGlobal() const { return finishedAtGlobal_; }

    /** Per-layer local finish cycle of the last iteration. */
    const std::vector<Cycle> &layerFinishLocal() const
    {
        return layerFinishLocal_;
    }

    /** MACs retired / (PEs x active local cycles), valid once done(). */
    double peUtilization() const;

    /** Count DMA transactions accepted by DRAM per window (Fig. 2b). */
    void enableRequestTrace(Cycle window_cycles);

    /** @return whether enableRequestTrace() has been called. */
    bool requestTraceEnabled() const { return requestTracer_.has_value(); }

    /**
     * Per-window accepted-request counts.
     * @deprecated Read the `core<i>.requests` series from
     * SimResult::telemetry.findSeries() instead of reaching into the
     * live core; kept one release for out-of-tree callers.
     */
    const IntervalTracer &requestTrace() const;

    /**
     * Attach the observability trace sink (Layers level and up): layer
     * and tile compute windows become complete spans on this core's
     * process. Spans are emitted at compute start/finish — event
     * boundaries — so the event scheduler's cycle skipping never
     * changes what is recorded. Passive; nullptr detaches; not owned.
     */
    void setTraceSink(TraceEventSink *sink)
    {
        traceSink_ = sink && sink->wants(TraceLevel::Layers) ? sink
                                                             : nullptr;
    }

    /** Close the in-progress trace window (end of simulation). */
    void finalizeRequestTrace();

    const CoreConfig &config() const { return config_; }
    const TraceGenerator &trace() const { return trace_; }
    const StatGroup &stats() const { return stats_; }

    /** Tag helpers: core data tags carry the core id in bits 48..62. */
    static std::uint64_t makeTag(CoreId core, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(core) << 48) |
               (seq & ((std::uint64_t{1} << 48) - 1));
    }
    static CoreId coreOfTag(std::uint64_t tag)
    {
        return static_cast<CoreId>((tag >> 48) & 0x7fff);
    }

    /**
     * Snapshot the full pipeline: per-tile state, the four tile
     * cursors and both range cursors, in-flight transactions (sorted
     * by tag), translated-but-unqueued requests, DMA issue budget,
     * fast-fidelity horizons, blocked/poked flags, layer span
     * bookkeeping, the request tracer (if enabled), and stats.
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    struct TileState
    {
        bool loadsIssued = false;  //!< all read txns handed to the MMU
        std::uint32_t loadsOutstanding = 0;
        bool computeStarted = false;
        bool computeDone = false;
        Cycle computeDoneLocal = 0;
        bool storesIssued = false;
        std::uint32_t storesOutstanding = 0;
        /**
         * Fast fidelity only: global cycle the phase's batched
         * transfer completes. The outstanding counters are then used
         * as a 1-while-in-flight marker so loadsDone()/retired() keep
         * their exact-mode meaning.
         */
        Cycle loadsDoneAt = 0;
        Cycle storesDoneAt = 0;

        bool loadsDone() const
        {
            return loadsIssued && loadsOutstanding == 0;
        }
        bool retired() const
        {
            return computeDone && storesIssued && storesOutstanding == 0;
        }
    };

    /** Walks the 64-byte transactions of a tile's range list. */
    struct RangeCursor
    {
        std::size_t rangeIdx = 0;
        Addr next = 0;   //!< next transaction address (aligned)
        Addr end = 0;    //!< end of current range (aligned up)
        bool primed = false;
    };

    using TxInfo = InflightWindow::Info;

    bool cursorNext(RangeCursor &cursor,
                    const std::vector<AccessRange> &ranges, Addr &out);
    bool bufferFreeForLoad(std::uint32_t tile) const;
    bool issueTransactions(Cycle now);
    bool updateCompute(Cycle now);
    bool startIterationIfNeeded(Cycle now);
    bool checkDone(Cycle now);
    bool hasIssuableTx() const;

    // --- fast (analytic) fidelity ---
    bool fastTick(Cycle now);
    bool completeFastPhases(Cycle now);
    bool issueFastPhases(Cycle now);
    Cycle fastMemoryPhase(const std::vector<AccessRange> &ranges,
                          MemOp op, Cycle now);
    Cycle fastNextEventCycle(Cycle now) const;

    CoreConfig config_;
    const TraceGenerator &trace_;
    Mmu &mmu_;
    MemoryBackend &dram_;
    ClockDomain clock_;

    bool started_ = false;
    bool done_ = false;
    bool stalled_ = false; //!< frozen by an injected core-stall fault
    FaultInjector *injector_ = nullptr;
    Cycle startedAtGlobal_ = 0;
    Cycle finishedAtGlobal_ = 0;
    std::uint32_t iteration_ = 0;

    std::vector<TileState> tiles_;
    std::uint32_t loadTile_ = 0;    //!< next tile to feed load txns from
    std::uint32_t computeTile_ = 0; //!< next tile to compute
    std::uint32_t storeTile_ = 0;   //!< next tile to feed store txns from
    std::uint32_t retireTile_ = 0;  //!< first not-fully-retired tile
    RangeCursor loadCursor_;
    RangeCursor storeCursor_;
    Cycle computeFreeLocal_ = 0;

    std::uint64_t nextSeq_ = 0;
    /**
     * In-flight transactions by sequence number (see InflightWindow):
     * sized to dmaMaxOutstanding, allocated on the first exact issue,
     * doubled when out-of-order completions widen the sequence span.
     */
    InflightWindow inflightTx_;
    std::deque<DramRequest> dramReady_; //!< translated, awaiting DRAM
    std::uint32_t xlatOutstanding_ = 0;

    Cycle lastLocalSeen_ = 0;
    std::uint64_t issueBudget_ = 0;
    bool budgetPrimed_ = false;

    bool fastMode_ = false;
    /**
     * Fast fidelity: global cycle the DMA issue port frees up — phase
     * issue serialization (ceil(tx / dmaIssueWidth) local cycles per
     * phase) carried across phases.
     */
    Cycle fastDmaFreeGlobal_ = 0;
    /** fastMemoryPhase's page-run scratch, reused across phases. */
    std::vector<Mmu::PageRun> fastRuns_;

    /**
     * Blocked-episode flags: the retry counters count transitions into
     * a blocked state (one per episode), not per-cycle retries — a
     * per-cycle count would depend on how many cycles the run loop
     * visits while blocked, which is exactly what the event loop and
     * the per-cycle reference legitimately disagree on.
     */
    bool dramBlocked_ = false;
    bool xlatBlocked_ = false;
    bool poked_ = false; //!< completion delivered since the last tick

    std::vector<Cycle> layerFinishLocal_;
    std::size_t nextLayerToFinish_ = 0;

    std::optional<IntervalTracer> requestTracer_;
    TraceEventSink *traceSink_ = nullptr;
    /** Local cycle the first tile of each layer started computing
     *  (observability only; reset per iteration). */
    std::vector<Cycle> layerStartLocal_;

    StatGroup stats_;
    Counter &readTx_;
    Counter &writeTx_;
    Counter &xlatRetries_;
    Counter &dramRetries_;
};

} // namespace mnpu

#endif // MNPU_CORE_NPU_CORE_HH
