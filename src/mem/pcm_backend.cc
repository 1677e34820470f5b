#include "mem/pcm_backend.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mnpu
{

PcmBackend::PcmBackend(const DramTiming &media_timing,
                       std::uint32_t num_channels, std::uint32_t num_cores,
                       std::uint32_t queue_depth, const PcmConfig &config,
                       const std::string &mapping_order,
                       const std::string &stat_prefix)
    : DramSystem(media_timing, num_channels, num_cores, queue_depth,
                 mapping_order, stat_prefix),
      config_(config),
      lineBits_(floorLog2(media_timing.transactionBytes())),
      cacheStats_(stat_prefix),
      cacheHits_(cacheStats_.counter("cache_hits")),
      cacheMisses_(cacheStats_.counter("cache_misses")),
      cacheEvictions_(cacheStats_.counter("cache_evictions")),
      writeCommits_(cacheStats_.counter("write_commits"))
{
    if (config_.cacheLines == 0)
        fatal("PCM backend needs >= 1 cache line");
    if (config_.hitQueueDepth == 0)
        fatal("PCM backend needs hit_queue_depth >= 1");
    cacheTags_.assign(config_.cacheLines, kNoTag);
}

void
PcmBackend::pendingPush(Pending entry)
{
    pending_.push_back(std::move(entry));
    std::push_heap(pending_.begin(), pending_.end(),
                   std::greater<Pending>{});
}

void
PcmBackend::pendingPop()
{
    std::pop_heap(pending_.begin(), pending_.end(),
                  std::greater<Pending>{});
    pending_.pop_back();
}

bool
PcmBackend::canAccept(const DramRequest &request) const
{
    if (request.op == MemOp::Read && cacheHit(request.paddr))
        return pending_.size() < config_.hitQueueDepth;
    if (request.op == MemOp::Read && !request.priority &&
        pendingWrites_ > 0) {
        return false; // write-pausing: media is committing a write
    }
    return DramSystem::canAccept(request);
}

bool
PcmBackend::tryEnqueue(const DramRequest &request, Cycle now)
{
    if (request.op == MemOp::Read && cacheHit(request.paddr)) {
        // Cache-hit fast path: deliver from the DRAM data cache after
        // a fixed latency, bypassing the media channels and the token
        // buckets (the cache sits in front of the shared media, so a
        // hit spends no media bandwidth). Refusals mutate nothing.
        if (pending_.size() >= config_.hitQueueDepth)
            return false;
        DramRequest accepted = request;
        accepted.enqueuedAt = now;
        if (lifecycleTracker()) {
            accepted.integrityId = lifecycleTracker()->onIssue(
                request.paddr, request.core, request.priority, now);
        }
        pendingPush(Pending{now + config_.cacheHitLatency, seq_++, false,
                            accepted});
        cacheHits_.inc();
        return true;
    }
    if (request.op == MemOp::Read && !request.priority &&
        pendingWrites_ > 0) {
        return false; // write-pausing (a pure refusal: retried later)
    }
    if (!DramSystem::tryEnqueue(request, now))
        return false;
    if (request.op == MemOp::Read) {
        // Miss: allocate the line at admission (deterministic under
        // any stepping — admissions are stepping-identical events).
        cacheMisses_.inc();
        std::size_t line = cacheIndex(request.paddr);
        if (cacheTags_[line] != kNoTag)
            cacheEvictions_.inc();
        cacheTags_[line] = lineTag(request.paddr);
    }
    return true;
}

void
PcmBackend::onCompletion(const DramRequest &request, Cycle at)
{
    if (request.op == MemOp::Write) {
        // The bus transaction is done; hold the completion while the
        // cell programs. Released by tick() through the base
        // completion path, so injected faults still apply there.
        pendingPush(Pending{at + config_.writeCommitCycles, seq_++, true,
                            request});
        ++pendingWrites_;
        writeCommits_.inc();
        return;
    }
    DramSystem::onCompletion(request, at);
}

void
PcmBackend::tick(Cycle now)
{
    bool released = false;
    while (!pending_.empty() && pending_.front().due <= now) {
        Pending entry = pending_.front();
        pendingPop();
        if (entry.writeCommit)
            --pendingWrites_;
        released = true;
        // Base completion path: injector faults, then deliver (the
        // lifecycle audit reconciles against this one delivery path).
        DramSystem::onCompletion(entry.request, now);
    }
    if (released) {
        // A freed hit-queue slot or a lifted write-pause unblocks the
        // same retries a freed channel slot does.
        raiseRetrySignal();
    }
    DramSystem::tick(now);
}

bool
PcmBackend::busy() const
{
    return !pending_.empty() || DramSystem::busy();
}

Cycle
PcmBackend::nextEventCycle(Cycle now) const
{
    // The pending heap's top due is exact, never an overshoot; the
    // write-pause lift coincides with a writeCommit entry's due, so
    // blocked read-misses are covered by the same bound.
    Cycle next = DramSystem::nextEventCycle(now);
    if (!pending_.empty())
        next = std::min(next, std::max(pending_.front().due, now + 1));
    return next;
}

void
PcmBackend::visitStatGroups(const StatGroupVisitor &visit) const
{
    visit(cacheStats_);
    DramSystem::visitStatGroups(visit);
}

template <class Self, class Io>
void
PcmBackend::visitState(Self &self, Io &io)
{
    io.section("PCMB");
    io.u64(self.seq_);
    io.u64(self.pendingWrites_);
    // The pending heap array verbatim: a restored heap pops in exactly
    // the order the snapshotted one would have (same rationale as the
    // channel completion heap).
    io.seq(self.pending_, [&io](auto &entry) {
        io.u64(entry.due);
        io.u64(entry.seq);
        io.b(entry.writeCommit);
        visitRequest(io, entry.request);
    });
    io.u64Vec(self.cacheTags_);
    io.check(self.cacheTags_.size() == self.config_.cacheLines,
             "PCM cache geometry mismatch");
    io.state(self.cacheStats_);
}

void
PcmBackend::saveState(StateWriter &out) const
{
    DramSystem::saveState(out);
    visitState(*this, out);
}

void
PcmBackend::loadState(StateReader &in)
{
    DramSystem::loadState(in);
    visitState(*this, in);
}

} // namespace mnpu
