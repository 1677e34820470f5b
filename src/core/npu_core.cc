#include "core/npu_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mnpu
{

NpuCore::NpuCore(const CoreConfig &config, const TraceGenerator &trace,
                 Mmu &mmu, MemoryBackend &dram, const ClockDomain &clock)
    : config_(config),
      trace_(trace),
      mmu_(mmu),
      dram_(dram),
      clock_(clock),
      tiles_(trace.tiles().size()),
      inflightTx_(trace.arch().dmaMaxOutstanding),
      layerFinishLocal_(trace.layers().size(), 0),
      layerStartLocal_(trace.layers().size(), 0),
      stats_("core" + std::to_string(config.id)),
      readTx_(stats_.counter("read_tx")),
      writeTx_(stats_.counter("write_tx")),
      xlatRetries_(stats_.counter("xlat_retries")),
      dramRetries_(stats_.counter("dram_retries"))
{
    if (config.iterations == 0)
        fatal("core ", config.id, ": iterations must be >= 1");
}

bool
NpuCore::cursorNext(RangeCursor &cursor,
                    const std::vector<AccessRange> &ranges, Addr &out)
{
    const Addr bus = trace_.arch().busBytes;
    while (true) {
        if (!cursor.primed) {
            if (cursor.rangeIdx >= ranges.size())
                return false;
            const AccessRange &range = ranges[cursor.rangeIdx];
            cursor.next = alignDown(range.vaddr, bus);
            cursor.end = alignUp(range.vaddr + range.bytes, bus);
            cursor.primed = true;
        }
        if (cursor.next < cursor.end) {
            out = cursor.next;
            cursor.next += bus;
            if (cursor.next >= cursor.end) {
                ++cursor.rangeIdx;
                cursor.primed = false;
            }
            return true;
        }
        ++cursor.rangeIdx;
        cursor.primed = false;
    }
}

bool
NpuCore::bufferFreeForLoad(std::uint32_t tile) const
{
    // Double buffering: tile j reuses the half that tile j-2 occupied.
    return tile < retireTile_ + 2;
}

bool
NpuCore::startIterationIfNeeded(Cycle now)
{
    if (started_ && retireTile_ < tiles_.size())
        return false;
    if (!started_) {
        started_ = true;
        startedAtGlobal_ = now;
    } else {
        // Previous iteration fully retired.
        ++iteration_;
        if (iteration_ >= config_.iterations)
            return false;
    }
    std::fill(tiles_.begin(), tiles_.end(), TileState{});
    loadTile_ = 0;
    computeTile_ = 0;
    storeTile_ = 0;
    retireTile_ = 0;
    loadCursor_ = RangeCursor{};
    storeCursor_ = RangeCursor{};
    nextLayerToFinish_ = 0;
    std::fill(layerStartLocal_.begin(), layerStartLocal_.end(), 0);
    return true;
}

bool
NpuCore::hasIssuableTx() const
{
    // Conservative mirror of issueTransactions' entry conditions: true
    // whenever its next iteration would mutate state — issue a
    // transaction, or mark an exhausted tile's stores/loads as issued
    // and advance the tile pointers (also budget-gated bookkeeping).
    if (storeTile_ < tiles_.size() && tiles_[storeTile_].computeDone &&
        !tiles_[storeTile_].storesIssued) {
        return true;
    }
    return loadTile_ < tiles_.size() && bufferFreeForLoad(loadTile_);
}

bool
NpuCore::issueTransactions(Cycle now)
{
    const auto &tile_traces = trace_.tiles();
    const std::uint32_t max_out = trace_.arch().dmaMaxOutstanding;
    std::uint64_t &budget = issueBudget_;
    bool work = false;

    while (budget > 0) {
        if (inflightTx_.size() >= max_out)
            break;

        // Stores drain first: they free SPM halves for the next loads.
        bool issued = false;
        while (storeTile_ < tiles_.size() &&
               tiles_[storeTile_].computeDone &&
               !tiles_[storeTile_].storesIssued) {
            Addr vaddr = 0;
            RangeCursor probe = storeCursor_;
            if (cursorNext(probe, tile_traces[storeTile_].writes,
                           vaddr)) {
                std::uint64_t tag = makeTag(config_.id, nextSeq_);
                if (!mmu_.requestTranslation(config_.id, config_.asid,
                                             vaddr, tag, now)) {
                    // MMU queue full; the probe cursor and sequence
                    // number are not committed, so the same address
                    // is retried once the MMU drains.
                    if (!xlatBlocked_) {
                        xlatBlocked_ = true;
                        xlatRetries_.inc();
                        work = true;
                    }
                    return work;
                }
                xlatBlocked_ = false;
                storeCursor_ = probe;
                ++nextSeq_;
                // Stores are activation/output traffic by construction
                // (C tensors); no tensor-map lookup needed.
                inflightTx_.insert(
                    tag, TxInfo{storeTile_, MemOp::Write,
                                MemRegion::Activation});
                ++tiles_[storeTile_].storesOutstanding;
                ++xlatOutstanding_;
                writeTx_.inc();
                --budget;
                issued = true;
                work = true;
                break;
            }
            tiles_[storeTile_].storesIssued = true;
            ++storeTile_;
            storeCursor_ = RangeCursor{};
            work = true;
        }
        if (issued)
            continue;

        // Then prefetch loads for the next tile whose half is free.
        if (loadTile_ < tiles_.size() && bufferFreeForLoad(loadTile_)) {
            Addr vaddr = 0;
            RangeCursor probe = loadCursor_;
            if (cursorNext(probe, tile_traces[loadTile_].reads, vaddr)) {
                std::uint64_t tag = makeTag(config_.id, nextSeq_);
                if (!mmu_.requestTranslation(config_.id, config_.asid,
                                             vaddr, tag, now)) {
                    if (!xlatBlocked_) {
                        xlatBlocked_ = true;
                        xlatRetries_.inc();
                        work = true;
                    }
                    return work;
                }
                xlatBlocked_ = false;
                loadCursor_ = probe;
                ++nextSeq_;
                inflightTx_.insert(tag,
                                   TxInfo{loadTile_, MemOp::Read,
                                          trace_.regionOf(vaddr)});
                ++tiles_[loadTile_].loadsOutstanding;
                ++xlatOutstanding_;
                readTx_.inc();
                --budget;
                work = true;
                continue;
            }
            tiles_[loadTile_].loadsIssued = true;
            ++loadTile_;
            loadCursor_ = RangeCursor{};
            work = true;
            continue;
        }
        break; // nothing issuable this cycle
    }
    return work;
}

bool
NpuCore::updateCompute(Cycle now)
{
    const Cycle local = clock_.toLocalFloor(now);
    const auto &tile_traces = trace_.tiles();

    bool work = false;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        if (computeTile_ < tiles_.size()) {
            TileState &tile = tiles_[computeTile_];
            if (tile.computeStarted && !tile.computeDone &&
                local >= tile.computeDoneLocal) {
                tile.computeDone = true;
                // Record layer completion at the compute-done cycle.
                const std::uint32_t layer =
                    tile_traces[computeTile_].layerIndex;
                const LayerTrace &layer_trace = trace_.layers()[layer];
                if (computeTile_ + 1 ==
                    layer_trace.firstTile + layer_trace.tileCount) {
                    layerFinishLocal_[layer] = tile.computeDoneLocal;
                    if (traceSink_) {
                        traceSink_->complete(
                            config_.id, 0, "layer", layer_trace.name,
                            clock_.toGlobal(layerStartLocal_[layer]),
                            clock_.toGlobal(tile.computeDoneLocal));
                    }
                }
                ++computeTile_;
                progressed = true;
            } else if (!tile.computeStarted && tile.loadsDone()) {
                Cycle start = std::max(local, computeFreeLocal_);
                Cycle cycles = std::max<Cycle>(
                    1, tile_traces[computeTile_].computeCycles);
                tile.computeStarted = true;
                tile.computeDoneLocal = start + cycles;
                // The compute window is fully determined here, so the
                // span can be emitted at this event boundary (no
                // per-cycle sampling — cycle skipping never misses it).
                const std::uint32_t layer =
                    tile_traces[computeTile_].layerIndex;
                if (computeTile_ == trace_.layers()[layer].firstTile)
                    layerStartLocal_[layer] = start;
                if (traceSink_ && traceSink_->wants(TraceLevel::Tiles)) {
                    traceSink_->complete(
                        config_.id, 0, "tile",
                        "tile " + std::to_string(computeTile_),
                        clock_.toGlobal(start),
                        clock_.toGlobal(tile.computeDoneLocal));
                }
                computeFreeLocal_ = tile.computeDoneLocal;
                progressed = true;
                work = true;
                if (local >= tile.computeDoneLocal)
                    continue; // completes within this cycle window
            }
        }
        // Tiles with no writes become storesIssued in the issue pass;
        // retire any fully finished prefix.
        while (retireTile_ < tiles_.size() &&
               tiles_[retireTile_].retired()) {
            ++retireTile_;
            progressed = true;
        }
        work |= progressed;
    }
    return work;
}

bool
NpuCore::checkDone(Cycle now)
{
    if (retireTile_ < tiles_.size())
        return false;
    if (iteration_ + 1 >= config_.iterations) {
        if (!done_) {
            done_ = true;
            finishedAtGlobal_ = now;
            return true;
        }
        return false;
    }
    return startIterationIfNeeded(now);
}

bool
NpuCore::tick(Cycle now)
{
    if (fastMode_)
        return fastTick(now);
    poked_ = false;
    if (done_ || now < config_.startCycleGlobal)
        return false;
    if (stalled_)
        return false;
    if (injector_ && injector_->fire(FaultSite::CoreStall)) {
        // Freeze forever; only the watchdog budget can end the run.
        stalled_ = true;
        return true;
    }
    bool work = false;
    if (!started_)
        work |= startIterationIfNeeded(now);
    if (done_)
        return work;

    // Refresh the DMA issue budget once per *local* cycle: unspent
    // budget carries across global ticks within the same local cycle
    // but does not accumulate across local cycles (a DMA port issues
    // at most dmaIssueWidth transactions per core clock). The refresh
    // is reconstructed as of tr — the first global cycle that attained
    // the current local cycle — so a scheduler that skipped tr (no
    // work happened there) computes the exact budget per-cycle
    // stepping was carrying: the span (tr, now] lies within one local
    // cycle, and skipped cycles spend nothing.
    const Cycle local = clock_.toLocalFloor(now);
    const std::uint64_t width = trace_.arch().dmaIssueWidth;
    if (!budgetPrimed_ || local > lastLocalSeen_) {
        Cycle locals_per_global = std::max<Cycle>(
            1, ceilDiv(clock_.localMhz(), clock_.globalMhz()));
        Cycle delta = Cycle{1};
        if (budgetPrimed_) {
            const Cycle tr = clock_.toGlobal(local);
            delta = local - clock_.toLocalFloor(tr - 1);
        }
        issueBudget_ = width * std::min<Cycle>(
            std::max<Cycle>(delta, 1), locals_per_global);
        lastLocalSeen_ = local;
        budgetPrimed_ = true;
    }

    // Push already-translated transactions into DRAM.
    while (!dramReady_.empty()) {
        if (!dram_.tryEnqueue(dramReady_.front(), now)) {
            if (!dramBlocked_) {
                dramBlocked_ = true;
                dramRetries_.inc();
                work = true;
            }
            break;
        }
        dramBlocked_ = false;
        if (requestTracer_)
            requestTracer_->record(now, 1);
        dramReady_.pop_front();
        work = true;
    }

    work |= updateCompute(now);
    work |= issueTransactions(now);
    work |= updateCompute(now);
    work |= checkDone(now);
    return work;
}

void
NpuCore::onTranslation(std::uint64_t tag, Addr paddr, Cycle)
{
    const TxInfo *info = inflightTx_.find(tag);
    mnpu_assert(info != nullptr, "translation for unknown tag");
    mnpu_assert(xlatOutstanding_ > 0);
    poked_ = true;
    --xlatOutstanding_;
    DramRequest request;
    request.paddr = paddr;
    request.op = info->op;
    request.core = config_.id;
    request.tag = tag;
    request.region = info->region;
    dramReady_.push_back(request);
}

void
NpuCore::onDramCompletion(std::uint64_t tag, Cycle)
{
    const TxInfo *info = inflightTx_.find(tag);
    mnpu_assert(info != nullptr, "DRAM completion for unknown tag");
    poked_ = true;
    TileState &tile = tiles_[info->tile];
    if (info->op == MemOp::Read) {
        mnpu_assert(tile.loadsOutstanding > 0);
        --tile.loadsOutstanding;
    } else {
        mnpu_assert(tile.storesOutstanding > 0);
        --tile.storesOutstanding;
    }
    inflightTx_.erase(tag);
}

Cycle
NpuCore::nextEventCycle(Cycle now) const
{
    if (fastMode_)
        return fastNextEventCycle(now);
    if (done_)
        return kCycleNever;
    if (stalled_)
        return now + 1; // livelock by design; the watchdog ends the run
    if (!started_)
        return std::max(now + 1, config_.startCycleGlobal);

    Cycle next = kCycleNever;
    auto consider = [&](Cycle at) {
        next = std::min(next, std::max(at, now + 1));
    };

    // Self-timed: the running tile finishes computing at a known local
    // cycle regardless of the memory system.
    if (computeTile_ < tiles_.size()) {
        const TileState &tile = tiles_[computeTile_];
        if (tile.computeStarted && !tile.computeDone)
            consider(clock_.toGlobal(tile.computeDoneLocal));
    }

    // DMA issue: only when a transaction is actually issuable. Pending
    // DRAM pushes (dramReady_) and outstanding completions (inflightTx_)
    // need no candidate — they advance only at cycles the DRAM/MMU
    // bounds already visit, and those components tick before us.
    if (inflightTx_.size() < trace_.arch().dmaMaxOutstanding &&
        hasIssuableTx()) {
        if (issueBudget_ == 0) {
            // Budget refreshes at the first global cycle of the next
            // local cycle.
            consider(clock_.toGlobal(lastLocalSeen_ + 1));
        } else if (mmu_.canAcceptTranslation(config_.id)) {
            consider(now + 1);
        } else if (!xlatBlocked_) {
            // First failed attempt against a full MMU queue is itself a
            // state change (the retry counter's episode transition) and
            // must land exactly where a per-cycle run lands it.
            consider(now + 1);
        }
        // else: blocked on a full MMU queue mid-episode; the MMU bound
        // covers the cycle its pending queue next drains.
    }
    return next;
}

// --- Fast (analytic) fidelity -------------------------------------------
//
// One tile phase (all loads of a tile, or all its stores) advances in a
// single closed-form step instead of per-transaction round trips:
//
//   tx           = bus-aligned transaction count over the phase's ranges
//   xlat         = Mmu::fastTranslate over the page runs touched
//   start        = max(now + xlat.latency, dmaFree)       [issue serializes]
//   issue        = toGlobal(ceil(tx / dmaIssueWidth))     [port width]
//   done         = max(DramSystem::fastTransfer(tx, start), start + issue)
//   dmaFree      = start + issue
//
// Compute timing, the double-buffer reuse rule (loads for tile j only
// after tile j-2 retired), retirement, and layer recording all reuse the
// exact engine's updateCompute()/checkDone() unchanged — only the memory
// phases are replaced. Phase completions settle at their precomputed
// doneAt cycles, so the event bound below is exhaustive: every state
// change of the fast model happens at a cycle it reports.

bool
NpuCore::completeFastPhases(Cycle now)
{
    const auto n = static_cast<std::uint32_t>(tiles_.size());
    bool work = false;
    for (std::uint32_t t = retireTile_; t < std::min(loadTile_, n); ++t) {
        TileState &tile = tiles_[t];
        if (tile.loadsIssued && tile.loadsOutstanding > 0 &&
            now >= tile.loadsDoneAt) {
            tile.loadsOutstanding = 0;
            work = true;
        }
    }
    for (std::uint32_t t = retireTile_; t < std::min(storeTile_, n); ++t) {
        TileState &tile = tiles_[t];
        if (tile.storesIssued && tile.storesOutstanding > 0 &&
            now >= tile.storesDoneAt) {
            tile.storesOutstanding = 0;
            work = true;
        }
    }
    return work;
}

Cycle
NpuCore::fastMemoryPhase(const std::vector<AccessRange> &ranges, MemOp op,
                         Cycle now)
{
    const Addr bus = trace_.arch().busBytes;
    const std::uint64_t page_bytes = mmu_.pageBytes();
    std::uint64_t tx = 0;
    // The phase's pages as runs, in touch order; a range starting on
    // the page the previous one ended on skips it (consecutive-page
    // dedupe), and a run continuing the previous one merges into it.
    std::vector<Mmu::PageRun> &runs = fastRuns_;
    runs.clear();
    Addr last_page = kAddrInvalid;
    for (const AccessRange &range : ranges) {
        if (range.bytes == 0)
            continue;
        const Addr lo = alignDown(range.vaddr, bus);
        const Addr hi = alignUp(range.vaddr + range.bytes, bus);
        tx += (hi - lo) / bus;
        Addr first = lo / page_bytes;
        const Addr last = (hi - 1) / page_bytes;
        if (first == last_page)
            ++first;
        if (first > last)
            continue;
        if (!runs.empty() && first == last_page + 1)
            runs.back().pages += last - first + 1;
        else
            runs.push_back(Mmu::PageRun{first, last - first + 1});
        last_page = last;
    }
    if (tx == 0)
        return now;

    Mmu::FastXlatResult xlat =
        mmu_.fastTranslate(config_.id, config_.asid, runs, now);
    const Cycle start =
        std::max(now + xlat.latency, fastDmaFreeGlobal_);
    const std::uint64_t width =
        std::max<std::uint64_t>(1, trace_.arch().dmaIssueWidth);
    const Cycle issue_globals =
        std::max<Cycle>(1, clock_.toGlobal(ceilDiv(tx, width)));
    const Cycle dram_done =
        dram_.fastTransfer(config_.id, tx, op == MemOp::Write, start);
    fastDmaFreeGlobal_ = start + issue_globals;
    if (op == MemOp::Write)
        writeTx_.inc(tx);
    else
        readTx_.inc(tx);
    // Batch acceptance recorded at issue start; start is nondecreasing
    // across phases (it never precedes the DMA-free horizon).
    if (requestTracer_)
        requestTracer_->record(start, tx);
    return std::max(dram_done, fastDmaFreeGlobal_);
}

bool
NpuCore::issueFastPhases(Cycle now)
{
    const auto &tile_traces = trace_.tiles();
    bool work = false;
    // Stores drain first: they free SPM halves for the next loads
    // (mirrors the exact engine's priority).
    while (storeTile_ < tiles_.size() &&
           tiles_[storeTile_].computeDone &&
           !tiles_[storeTile_].storesIssued) {
        TileState &tile = tiles_[storeTile_];
        const Cycle done = fastMemoryPhase(
            tile_traces[storeTile_].writes, MemOp::Write, now);
        tile.storesIssued = true;
        if (done > now) {
            tile.storesOutstanding = 1;
            tile.storesDoneAt = done;
        }
        ++storeTile_;
        work = true;
    }
    while (loadTile_ < tiles_.size() && bufferFreeForLoad(loadTile_)) {
        TileState &tile = tiles_[loadTile_];
        const Cycle done = fastMemoryPhase(
            tile_traces[loadTile_].reads, MemOp::Read, now);
        tile.loadsIssued = true;
        if (done > now) {
            tile.loadsOutstanding = 1;
            tile.loadsDoneAt = done;
        }
        ++loadTile_;
        work = true;
    }
    return work;
}

bool
NpuCore::fastTick(Cycle now)
{
    poked_ = false;
    if (done_ || now < config_.startCycleGlobal)
        return false;
    bool work = false;
    if (!started_)
        work |= startIterationIfNeeded(now);
    if (done_)
        return work;
    work |= completeFastPhases(now);
    work |= updateCompute(now);
    work |= issueFastPhases(now);
    work |= updateCompute(now);
    work |= checkDone(now);
    return work;
}

Cycle
NpuCore::fastNextEventCycle(Cycle now) const
{
    if (done_)
        return kCycleNever;
    if (!started_)
        return std::max(now + 1, config_.startCycleGlobal);

    Cycle next = kCycleNever;
    auto consider = [&](Cycle at) {
        next = std::min(next, std::max(at, now + 1));
    };
    if (computeTile_ < tiles_.size()) {
        const TileState &tile = tiles_[computeTile_];
        if (tile.computeStarted && !tile.computeDone)
            consider(clock_.toGlobal(tile.computeDoneLocal));
    }
    const auto n = static_cast<std::uint32_t>(tiles_.size());
    for (std::uint32_t t = retireTile_; t < std::min(loadTile_, n); ++t) {
        const TileState &tile = tiles_[t];
        if (tile.loadsIssued && tile.loadsOutstanding > 0)
            consider(tile.loadsDoneAt);
    }
    for (std::uint32_t t = retireTile_; t < std::min(storeTile_, n); ++t) {
        const TileState &tile = tiles_[t];
        if (tile.storesIssued && tile.storesOutstanding > 0)
            consider(tile.storesDoneAt);
    }
    // Safety net: an issuable-but-unissued phase can only appear when
    // one of the events above lands (issueFastPhases drains every
    // issuable phase within each tick), but a now+1 candidate while
    // one exists is cheap and keeps the bound trivially conservative.
    if ((storeTile_ < n && tiles_[storeTile_].computeDone &&
         !tiles_[storeTile_].storesIssued) ||
        (loadTile_ < n && bufferFreeForLoad(loadTile_))) {
        consider(now + 1);
    }
    return next;
}

Cycle
NpuCore::totalLocalCycles() const
{
    mnpu_assert(done_, "totalLocalCycles before completion");
    return clock_.toLocalFloor(finishedAtGlobal_) -
           clock_.toLocalFloor(startedAtGlobal_);
}

double
NpuCore::peUtilization() const
{
    Cycle cycles = totalLocalCycles();
    if (cycles == 0)
        return 0.0;
    double pes = static_cast<double>(trace_.arch().arrayRows) *
                 trace_.arch().arrayCols;
    double macs = static_cast<double>(trace_.totalMacs()) *
                  config_.iterations;
    return macs / (pes * static_cast<double>(cycles));
}

void
NpuCore::enableRequestTrace(Cycle window_cycles)
{
    requestTracer_.emplace(window_cycles);
}

const IntervalTracer &
NpuCore::requestTrace() const
{
    mnpu_assert(requestTracer_.has_value(), "request trace not enabled");
    return *requestTracer_;
}

void
NpuCore::finalizeRequestTrace()
{
    if (requestTracer_)
        requestTracer_->finalize();
}

template <class Self, class Io>
void
NpuCore::visitState(Self &self, Io &io)
{
    io.section("CORE");
    io.b(self.started_);
    io.b(self.done_);
    io.b(self.stalled_);
    io.u64(self.startedAtGlobal_);
    io.u64(self.finishedAtGlobal_);
    io.u32(self.iteration_);

    io.expect(self.tiles_.size(), "core tile count mismatch");
    for (auto &tile : self.tiles_) {
        io.b(tile.loadsIssued);
        io.u32(tile.loadsOutstanding);
        io.b(tile.computeStarted);
        io.b(tile.computeDone);
        io.u64(tile.computeDoneLocal);
        io.b(tile.storesIssued);
        io.u32(tile.storesOutstanding);
        io.u64(tile.loadsDoneAt);
        io.u64(tile.storesDoneAt);
    }
    io.u32(self.loadTile_);
    io.u32(self.computeTile_);
    io.u32(self.storeTile_);
    io.u32(self.retireTile_);
    for (auto *cursor : {&self.loadCursor_, &self.storeCursor_}) {
        io.u64(cursor->rangeIdx);
        io.u64(cursor->next);
        io.u64(cursor->end);
        io.b(cursor->primed);
    }
    io.u64(self.computeFreeLocal_);

    io.u64(self.nextSeq_);
    io.state(self.inflightTx_);
    io.seq(self.dramReady_,
           [&io](auto &request) { visitRequest(io, request); });
    io.u32(self.xlatOutstanding_);
    io.u64(self.lastLocalSeen_);
    io.u64(self.issueBudget_);
    io.b(self.budgetPrimed_);
    io.u64(self.fastDmaFreeGlobal_);
    io.b(self.dramBlocked_);
    io.b(self.xlatBlocked_);
    io.b(self.poked_);
    io.u64Vec(self.layerFinishLocal_);
    io.u64(self.nextLayerToFinish_);
    io.u64Vec(self.layerStartLocal_);
    io.expect(self.requestTracer_.has_value(),
              "request-trace enablement mismatch");
    if (self.requestTracer_)
        io.state(*self.requestTracer_);
    io.state(self.stats_);
}

template void NpuCore::visitState(const NpuCore &, StateWriter &);
template void NpuCore::visitState(NpuCore &, StateReader &);

} // namespace mnpu
