#include "mmu/mmu.hh"

#include <algorithm>

#include "common/errors.hh"
#include "common/logging.hh"

namespace mnpu
{

Mmu::Mmu(const MmuConfig &config, PageAllocator &allocator,
         PageTableModel &page_table, MemoryBackend &dram)
    : config_(config),
      allocator_(allocator),
      pageTable_(page_table),
      dram_(dram),
      pending_(config.numCores),
      walkQueues_(config.numCores),
      walkers_(config.totalPtws),
      inFlightPerCore_(config.numCores, 0),
      walkSteps_(config.numCores, 0),
      tlbHitsPerCore_(config.numCores, 0),
      tlbMissesPerCore_(config.numCores, 0),
      walksPerCore_(config.numCores, 0),
      stats_("mmu"),
      translations_(stats_.counter("translations")),
      tlbHits_(stats_.counter("tlb_hits")),
      tlbMisses_(stats_.counter("tlb_misses")),
      walks_(stats_.counter("walks")),
      mshrAttaches_(stats_.counter("mshr_attaches")),
      walkLatency_(stats_.distribution("walk_latency")),
      walkQueueDelay_(stats_.distribution("walk_queue_delay"))
{
    walkersIn_[static_cast<std::size_t>(WalkerState::Idle)] =
        config.totalPtws;
    if (config.numCores == 0)
        fatal("MMU needs at least one core");
    if (config.totalPtws == 0 && config.translationEnabled)
        fatal("MMU needs at least one page-table walker");

    if (config.sharedTlb) {
        tlbs_.push_back(std::make_unique<Tlb>(
            config.tlbEntriesPerCore * config.numCores, config.tlbWays,
            "mmu.tlb_shared"));
    } else {
        for (CoreId core = 0; core < config.numCores; ++core) {
            tlbs_.push_back(std::make_unique<Tlb>(
                config.tlbEntriesPerCore, config.tlbWays,
                "mmu.tlb" + std::to_string(core)));
        }
    }

    switch (config.ptwMode) {
      case PtwPartitionMode::Static:
      case PtwPartitionMode::Stealing:
        if (config.ptwQuota.empty()) {
            staticQuota_.assign(config.numCores,
                                config.totalPtws / config.numCores);
            std::uint32_t remainder = config.totalPtws % config.numCores;
            for (std::uint32_t i = 0; i < remainder; ++i)
                ++staticQuota_[i];
        } else {
            if (config.ptwQuota.size() != config.numCores)
                fatal("ptwQuota needs one entry per core");
            staticQuota_ = config.ptwQuota;
            std::uint32_t sum = 0;
            for (auto quota : staticQuota_)
                sum += quota;
            if (sum != config.totalPtws)
                fatal("ptwQuota sums to ", sum, ", expected ",
                      config.totalPtws);
        }
        for (auto quota : staticQuota_) {
            if (quota == 0)
                fatal("static PTW quota of 0 would starve a core");
        }
        break;
      case PtwPartitionMode::Shared:
        break;
      case PtwPartitionMode::Bounded:
        if (config.ptwMin.size() != config.numCores ||
            config.ptwMax.size() != config.numCores) {
            fatal("bounded PTW mode needs per-core min and max");
        }
        {
            std::uint32_t min_sum = 0;
            for (CoreId core = 0; core < config.numCores; ++core) {
                if (config.ptwMin[core] > config.ptwMax[core])
                    fatal("PTW min > max for core ", core);
                min_sum += config.ptwMin[core];
            }
            if (min_sum > config.totalPtws)
                fatal("PTW minimum reservations exceed the pool");
        }
        break;
    }
}

Tlb &
Mmu::tlbFor(CoreId core)
{
    return config_.sharedTlb ? *tlbs_[0] : *tlbs_[core];
}

const Tlb &
Mmu::tlbForCore(CoreId core) const
{
    return config_.sharedTlb ? *tlbs_[0] : *tlbs_[core];
}

std::uint32_t
Mmu::walkersInFlight(CoreId core) const
{
    mnpu_assert(core < inFlightPerCore_.size());
    return inFlightPerCore_[core];
}

void
Mmu::enableRequestLog(const std::string &dir)
{
    tlbLogs_.resize(config_.numCores);
    ptwLogs_.resize(config_.numCores);
    for (CoreId core = 0; core < config_.numCores; ++core) {
        tlbLogs_[core].open(dir + "/tlb" + std::to_string(core) + ".log",
                            "cycle,vpn,result");
        ptwLogs_[core].open(
            dir + "/tlb" + std::to_string(core) + "_ptw.log",
            "start_cycle,finish_cycle,vpn");
    }
}

void
Mmu::flushRequestLogs()
{
    for (auto &log : tlbLogs_)
        log.flush();
    for (auto &log : ptwLogs_)
        log.flush();
}

bool
Mmu::requestTranslation(CoreId core, Asid asid, Addr vaddr,
                        std::uint64_t tag, Cycle now)
{
    mnpu_assert(core < config_.numCores, "translation from unknown core");
    mnpu_assert(!isWalkTag(tag), "client tag collides with walker tags");
    if (pending_[core].size() >= config_.maxPendingPerCore)
        return false;
    pending_[core].push_back(
        PendingXlat{asid, vaddr, tag, now + config_.tlbLatency});
    poked_ = true;
    return true;
}

Mmu::FastXlatResult
Mmu::fastTranslate(CoreId core, Asid asid, std::span<const PageRun> runs,
                   Cycle now)
{
    mnpu_assert(core < config_.numCores, "translation from unknown core");
    FastXlatResult result;
    result.latency = config_.tlbLatency;
    const std::uint64_t page_bytes = allocator_.pageBytes();
    Tlb &tlb = tlbFor(core);
    std::uint64_t walk_steps = 0;
    for (const PageRun &run : runs) {
        result.pages += run.pages;
        const Addr end = run.firstVpn + run.pages;
        for (Addr vpn = run.firstVpn; vpn < end; ++vpn) {
            const Addr vaddr = vpn * page_bytes;
            // First-touch frame allocation must happen in every
            // fidelity (the allocator's interleaving is shared
            // simulator state).
            allocator_.translate(asid, vaddr);
            if (!config_.translationEnabled || tlb.lookup(asid, vpn))
                continue;
            ++result.misses;
            walk_steps += pageTable_.walkDepth(asid, vaddr);
            tlb.fillAfterMiss(asid, vpn);
        }
    }
    translations_.inc(result.pages);
    if (config_.translationEnabled) {
        const std::uint64_t hits = result.pages - result.misses;
        tlbHits_.inc(hits);
        tlbHitsPerCore_[core] += hits;
        tlbMisses_.inc(result.misses);
        tlbMissesPerCore_[core] += result.misses;
        walks_.inc(result.misses);
        walksPerCore_[core] += result.misses;
    }
    if (result.misses > 0) {
        if (core < walkSteps_.size())
            walkSteps_[core] += walk_steps;
        dram_.fastWalkTraffic(core, walk_steps, now);
        // Closed-form walk latency: each walk is `levels` serial DRAM
        // reads (ACT + RD, no queueing), and this core's misses drain
        // through its average walker share in parallel.
        const std::uint64_t walkers = std::max<std::uint64_t>(
            1, config_.totalPtws / config_.numCores);
        const DramTiming &t = dram_.timing();
        const Cycle step_lat = t.tRCD + t.tCL + t.burstCycles();
        const std::uint64_t levels = ceilDiv(walk_steps, result.misses);
        result.latency +=
            ceilDiv(result.misses, walkers) * levels * step_lat;
    }
    return result;
}

void
Mmu::completeTranslation(const PendingXlat &xlat, Cycle when)
{
    translations_.inc();
    Addr paddr = allocator_.translate(xlat.asid, xlat.vaddr);
    if (injector_ && injector_->fire(FaultSite::PteCorrupt))
        paddr ^= allocator_.pageBytes(); // flip one frame bit
    if (consistencyChecks_) {
        const Addr expected = allocator_.translate(xlat.asid, xlat.vaddr);
        if (paddr != expected)
            throw SimulationError(
                SimErrorKind::MmuConsistency,
                "translation check: asid " + std::to_string(xlat.asid) +
                    " vaddr " + std::to_string(xlat.vaddr) +
                    " completed with paddr " + std::to_string(paddr) +
                    " but the page table maps it to " +
                    std::to_string(expected));
    }
    if (callback_)
        callback_(xlat.tag, paddr, when);
}

bool
Mmu::canGrabWalker(CoreId core) const
{
    if (totalInFlight_ >= config_.totalPtws)
        return false;
    switch (config_.ptwMode) {
      case PtwPartitionMode::Static:
        return inFlightPerCore_[core] < staticQuota_[core];
      case PtwPartitionMode::Stealing: {
        if (inFlightPerCore_[core] < staticQuota_[core])
            return true;
        // Beyond quota: steal only while no other core has demand.
        for (CoreId other = 0; other < config_.numCores; ++other) {
            if (other != core && !walkQueues_[other].empty())
                return false;
        }
        return true;
      }
      case PtwPartitionMode::Shared:
        return true;
      case PtwPartitionMode::Bounded: {
        if (inFlightPerCore_[core] >= config_.ptwMax[core])
            return false;
        // Keep enough free walkers to honor other cores' minimums.
        std::uint32_t reserved = 0;
        for (CoreId other = 0; other < config_.numCores; ++other) {
            if (other == core)
                continue;
            if (inFlightPerCore_[other] < config_.ptwMin[other])
                reserved += config_.ptwMin[other] - inFlightPerCore_[other];
        }
        std::uint32_t free_after =
            config_.totalPtws - totalInFlight_ - 1;
        return free_after >= reserved;
      }
    }
    return false;
}

void
Mmu::releaseFinishedWalkers(Cycle now)
{
    if (walkersIn(WalkerState::Finished) == 0)
        return;
    for (std::uint32_t id = 0; id < walkers_.size(); ++id) {
        Walker &walker = walkers_[id];
        if (walker.state != WalkerState::Finished ||
            walker.finishedAt > now) {
            continue;
        }
        tlbFor(walker.core).insert(walker.asid, walker.vpn);
        walkLatency_.sample(
            static_cast<double>(walker.finishedAt - walker.startedAt));
        if (!ptwLogs_.empty()) {
            ptwLogs_[walker.core].row(walker.startedAt, walker.finishedAt,
                                      walker.vpn);
        }
        if (traceSink_) {
            traceSink_->complete(TraceEventSink::kMmuPid, walker.core,
                                 "walk", "walk", walker.startedAt,
                                 walker.finishedAt);
        }
        auto it = mshrs_.find(mshrKey(walker.asid, walker.vpn));
        mnpu_assert(it != mshrs_.end(), "walker finished with no MSHR");
        for (const PendingXlat &waiting : it->second)
            completeTranslation(waiting, walker.finishedAt);
        mshrs_.erase(it);
        mnpu_assert(inFlightPerCore_[walker.core] > 0);
        --inFlightPerCore_[walker.core];
        --totalInFlight_;
        setWalkerState(walker, WalkerState::Idle);
    }
}

void
Mmu::processPending(Cycle now)
{
    // Shared TLB: one bandwidth budget round-robined across cores.
    // Private TLBs: an independent budget per core.
    // The rotation pointer advances only on ticks that serviced at
    // least one lookup: idle ticks must not perturb arbitration, or
    // the event loop (which skips exactly the idle ticks) would
    // arbitrate differently from the per-cycle reference.
    if (config_.sharedTlb) {
        std::uint32_t budget = config_.tlbBandwidth;
        const std::uint32_t budget0 = budget;
        CoreId start = pendingRoundRobin_;
        bool progressed = true;
        while (budget > 0 && progressed) {
            progressed = false;
            for (std::uint32_t i = 0;
                 i < config_.numCores && budget > 0; ++i) {
                CoreId core = (start + i) % config_.numCores;
                auto &queue = pending_[core];
                if (queue.empty() || queue.front().readyAt > now)
                    continue;
                PendingXlat xlat = queue.front();
                queue.pop_front();
                --budget;
                progressed = true;
                pendingDrained_ = true;
                Addr vpn = allocator_.vpn(xlat.vaddr);
                if (!config_.translationEnabled ||
                    tlbFor(core).lookup(xlat.asid, vpn)) {
                    if (config_.translationEnabled) {
                        tlbHits_.inc();
                        ++tlbHitsPerCore_[core];
                        if (!tlbLogs_.empty())
                            tlbLogs_[core].row(now, vpn, "hit");
                    }
                    completeTranslation(xlat, now);
                    continue;
                }
                tlbMisses_.inc();
                ++tlbMissesPerCore_[core];
                if (!tlbLogs_.empty())
                    tlbLogs_[core].row(now, vpn, "miss");
                auto [it, inserted] =
                    mshrs_.try_emplace(mshrKey(xlat.asid, vpn));
                it->second.push_back(xlat);
                if (inserted) {
                    walkQueues_[core].push_back(
                        WalkRequest{core, xlat.asid, vpn, xlat.vaddr, now});
                } else {
                    mshrAttaches_.inc();
                }
            }
        }
        if (budget != budget0)
            pendingRoundRobin_ = (start + 1) % config_.numCores;
        return;
    }

    CoreId start = pendingRoundRobin_;
    bool serviced = false;
    for (CoreId i = 0; i < config_.numCores; ++i) {
        CoreId core = (start + i) % config_.numCores;
        std::uint32_t budget = config_.tlbBandwidth;
        auto &queue = pending_[core];
        while (budget > 0 && !queue.empty() &&
               queue.front().readyAt <= now) {
            PendingXlat xlat = queue.front();
            queue.pop_front();
            --budget;
            serviced = true;
            pendingDrained_ = true;
            Addr vpn = allocator_.vpn(xlat.vaddr);
            if (!config_.translationEnabled ||
                tlbFor(core).lookup(xlat.asid, vpn)) {
                if (config_.translationEnabled) {
                    tlbHits_.inc();
                    ++tlbHitsPerCore_[core];
                    if (!tlbLogs_.empty())
                        tlbLogs_[core].row(now, vpn, "hit");
                }
                completeTranslation(xlat, now);
                continue;
            }
            tlbMisses_.inc();
            ++tlbMissesPerCore_[core];
            if (!tlbLogs_.empty())
                tlbLogs_[core].row(now, vpn, "miss");
            auto [it, inserted] =
                mshrs_.try_emplace(mshrKey(xlat.asid, vpn));
            it->second.push_back(xlat);
            if (inserted) {
                walkQueues_[core].push_back(
                    WalkRequest{core, xlat.asid, vpn, xlat.vaddr, now});
            } else {
                mshrAttaches_.inc();
            }
        }
    }
    if (serviced)
        pendingRoundRobin_ = (start + 1) % config_.numCores;
}

void
Mmu::startWalks(Cycle now)
{
    if (totalInFlight_ >= config_.totalPtws)
        return;
    // Round-robin grants across cores (FCFS within a core): cores take
    // turns grabbing free walkers so a walk-heavy core cannot head-block
    // a bursty co-runner, yet unclaimed walkers flow to whoever has
    // demand.
    const CoreId n = config_.numCores;
    bool granted = true;
    while (granted && totalInFlight_ < config_.totalPtws) {
        granted = false;
        for (CoreId i = 0; i < n; ++i) {
            CoreId core = (walkRoundRobin_ + i) % n;
            auto &queue = walkQueues_[core];
            if (queue.empty() || !canGrabWalker(core))
                continue;
            if (totalInFlight_ >= config_.totalPtws)
                break;
            const WalkRequest &request = queue.front();
            auto walker_it =
                std::find_if(walkers_.begin(), walkers_.end(),
                             [](const Walker &w) {
                                 return w.state == WalkerState::Idle;
                             });
            mnpu_assert(walker_it != walkers_.end(),
                        "occupancy says a walker is free but none is idle");
            Walker &walker = *walker_it;
            setWalkerState(walker, WalkerState::WaitIssue);
            walker.core = request.core;
            walker.asid = request.asid;
            walker.vpn = request.vpn;
            walker.pathLength =
                pageTable_.walk(request.asid, request.vaddr, walker.path);
            walker.level = 0;
            walker.startedAt = now;
            walkQueueDelay_.sample(
                static_cast<double>(now - request.enqueuedAt));
            walks_.inc();
            ++walksPerCore_[request.core];
            ++inFlightPerCore_[request.core];
            ++totalInFlight_;
            queue.pop_front();
            granted = true;
        }
        // Rotate only after a granting pass (see processPending):
        // fruitless passes — including every tick with no demand —
        // must leave arbitration untouched so both steppings agree.
        if (granted)
            walkRoundRobin_ = (walkRoundRobin_ + 1) % n;
    }
}

void
Mmu::driveWalkers(Cycle now)
{
    if (walkersIn(WalkerState::WaitIssue) == 0)
        return;
    for (std::uint32_t id = 0; id < walkers_.size(); ++id) {
        Walker &walker = walkers_[id];
        if (walker.state != WalkerState::WaitIssue)
            continue;
        DramRequest request;
        request.paddr = walker.path[walker.level];
        request.op = MemOp::Read;
        request.core = walker.core;
        request.tag = walkTag(id);
        request.priority = true;
        if (dram_.tryEnqueue(request, now)) {
            setWalkerState(walker, WalkerState::WaitDram);
            if (walker.core < walkSteps_.size())
                ++walkSteps_[walker.core];
        }
        // else: channel queue full; retry next tick.
    }
}

void
Mmu::tick(Cycle now)
{
    poked_ = false;
    pendingDrained_ = false;
    releaseFinishedWalkers(now);
    processPending(now);
    startWalks(now);
    driveWalkers(now);
    if (consistencyChecks_)
        checkWalkerCounts();
}

void
Mmu::checkWalkerCounts() const
{
    static constexpr const char *kNames[] = {"Idle", "WaitIssue",
                                             "WaitDram", "Finished"};
    std::array<std::uint32_t, 4> counted{};
    for (const Walker &walker : walkers_)
        ++counted[static_cast<std::size_t>(walker.state)];
    for (std::size_t state = 0; state < counted.size(); ++state) {
        if (counted[state] != walkersIn_[state]) {
            throw SimulationError(
                SimErrorKind::MmuConsistency,
                detail::concat("walker count check: ", counted[state],
                               " walkers in ", kNames[state],
                               " but the kept count is ",
                               walkersIn_[state]));
        }
    }
}

void
Mmu::onDramCompletion(std::uint64_t tag, Cycle at)
{
    mnpu_assert(isWalkTag(tag));
    auto id = static_cast<std::uint32_t>(tag & 0xffffffffULL);
    mnpu_assert(id < walkers_.size());
    Walker &walker = walkers_[id];
    mnpu_assert(walker.state == WalkerState::WaitDram,
                "DRAM completion for a walker that is not waiting");
    poked_ = true;
    ++walker.level;
    if (walker.level >= walker.pathLength) {
        setWalkerState(walker, WalkerState::Finished);
        walker.finishedAt = at;
    } else {
        setWalkerState(walker, WalkerState::WaitIssue);
    }
}

bool
Mmu::busy() const
{
    for (const auto &queue : walkQueues_)
        if (!queue.empty())
            return true;
    if (totalInFlight_ > 0 || !mshrs_.empty())
        return true;
    for (const auto &queue : pending_)
        if (!queue.empty())
            return true;
    return walkersIn(WalkerState::Idle) != walkers_.size();
}

Cycle
Mmu::nextEventCycle(Cycle now) const
{
    Cycle next = kCycleNever;
    for (const auto &queue : pending_) {
        if (queue.empty())
            continue;
        // readyAt is monotone within a queue, so the front is the
        // earliest. A front already ready was carried over this tick's
        // TLB bandwidth budget and will be serviced next cycle.
        Cycle ready = queue.front().readyAt;
        if (ready <= now)
            return now + 1;
        next = std::min(next, ready);
    }
    if (walkersIn(WalkerState::Finished) > 0)
        return now + 1;
    return next;
}

template <class Self, class Io>
void
Mmu::visitState(Self &self, Io &io)
{
    io.section("MMU ");
    io.expect(self.tlbs_.size(), "MMU TLB count mismatch");
    for (const auto &tlb : self.tlbs_)
        io.state(*tlb);

    auto xlat = [&io](auto &pending) {
        io.u32(pending.asid);
        io.u64(pending.vaddr);
        io.u64(pending.tag);
        io.u64(pending.readyAt);
    };
    io.expect(self.pending_.size(), "MMU pending-queue count mismatch");
    for (auto &queue : self.pending_)
        io.seq(queue, xlat);

    // MSHRs in key order for deterministic bytes; the per-key attach
    // vectors keep their order (completion fan-out order).
    io.sortedMap(self.mshrs_,
                 [&io, &xlat](auto &attached) { io.seq(attached, xlat); });

    io.expect(self.walkQueues_.size(), "MMU walk-queue count mismatch");
    for (auto &queue : self.walkQueues_) {
        io.seq(queue, [&io](auto &request) {
            io.u32(request.core);
            io.u32(request.asid);
            io.u64(request.vpn);
            io.u64(request.vaddr);
            io.u64(request.enqueuedAt);
        });
    }
    io.u32(self.walkRoundRobin_);
    io.expect(self.walkers_.size(), "MMU walker count mismatch");
    for (auto &walker : self.walkers_) {
        io.e8(walker.state);
        io.check(walker.state <= WalkerState::Finished,
                 "bad walker state in snapshot");
        io.u32(walker.core);
        io.u32(walker.asid);
        io.u64(walker.vpn);
        const std::uint64_t depth = io.count(walker.pathLength);
        io.check(depth <= walker.path.size(),
                 "walker path deeper than the radix");
        for (std::uint64_t i = 0; i < depth; ++i)
            io.u64(walker.path[i]);
        io.u32(walker.level);
        io.check(walker.state == WalkerState::Idle ||
                     walker.state == WalkerState::Finished ||
                     walker.level < walker.pathLength,
                 "walker level cursor out of range");
        io.u64(walker.startedAt);
        io.u64(walker.finishedAt);
    }
    io.expect(self.inFlightPerCore_.size(), "MMU in-flight count mismatch");
    for (auto &count : self.inFlightPerCore_)
        io.u32(count);
    io.u32(self.totalInFlight_);
    io.u32(self.pendingRoundRobin_);
    io.b(self.poked_);
    io.b(self.pendingDrained_);
    io.u64Vec(self.walkSteps_);
    io.check(self.walkSteps_.size() == self.config_.numCores,
             "MMU walk-step count mismatch");
    io.u64Vec(self.tlbHitsPerCore_);
    io.u64Vec(self.tlbMissesPerCore_);
    io.u64Vec(self.walksPerCore_);
    io.check(self.tlbHitsPerCore_.size() == self.config_.numCores &&
                 self.tlbMissesPerCore_.size() == self.config_.numCores &&
                 self.walksPerCore_.size() == self.config_.numCores,
             "MMU per-core attribution count mismatch");
    io.state(self.stats_);
}

template void Mmu::visitState(const Mmu &, StateWriter &);

void
Mmu::loadState(StateReader &in)
{
    visitState(*this, in);
    walkersIn_.fill(0);
    for (const Walker &walker : walkers_)
        ++walkersIn_[static_cast<std::size_t>(walker.state)];
}

} // namespace mnpu
