#include "sim/multi_core_system.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>

#include "common/errors.hh"
#include "common/logging.hh"

namespace mnpu
{

const char *
toString(SharingLevel level)
{
    switch (level) {
      case SharingLevel::Ideal:
        return "Ideal";
      case SharingLevel::Static:
        return "Static";
      case SharingLevel::ShareD:
        return "+D";
      case SharingLevel::ShareDW:
        return "+DW";
      case SharingLevel::ShareDWT:
        return "+DWT";
    }
    return "?";
}

namespace
{

/**
 * Transactions one iteration of @p trace pushes through DRAM: the
 * same bus-aligned chunking the core's DMA cursor applies to every
 * access range (alignDown(start) .. alignUp(end) in busBytes steps).
 */
std::uint64_t
expectedDataTransactions(const TraceGenerator &trace)
{
    const Addr bus = trace.arch().busBytes;
    std::uint64_t count = 0;
    for (const auto &tile : trace.tiles()) {
        for (const auto &range : tile.reads)
            count += (alignUp(range.vaddr + range.bytes, bus) -
                      alignDown(range.vaddr, bus)) /
                     bus;
        for (const auto &range : tile.writes)
            count += (alignUp(range.vaddr + range.bytes, bus) -
                      alignDown(range.vaddr, bus)) /
                     bus;
    }
    return count;
}

} // namespace

MultiCoreSystem::MultiCoreSystem(const SystemConfig &config,
                                 std::vector<CoreBinding> bindings)
    : config_(config), bindings_(std::move(bindings))
{
    const auto num_cores = static_cast<std::uint32_t>(bindings_.size());
    if (num_cores == 0)
        fatal("system needs at least one core");
    for (const auto &binding : bindings_) {
        if (!binding.trace)
            fatal("core binding without a trace");
    }
    if (config.level == SharingLevel::Ideal) {
        if (num_cores != 1)
            fatal("Ideal runs take exactly one core (it monopolizes the ",
                  "whole resource budget)");
        if (config.idealResourceMultiplier == 0)
            fatal("idealResourceMultiplier must be >= 1");
    } else if (config.idealResourceMultiplier != 1) {
        fatal("idealResourceMultiplier only applies to Ideal runs");
    }

    const std::uint32_t total_npus =
        config.level == SharingLevel::Ideal
            ? config.idealResourceMultiplier
            : num_cores;
    const NpuMemConfig &mem = config.mem;

    // --- Off-chip memory: the structure is always shared (as in
    // mNPUsim); Static and the Fig. 9 ratio sweeps cap per-core
    // bandwidth instead. The backend kind (DRAM, PCM, tiered) and an
    // optional XBar fabric come from the mem config / process default.
    const std::uint32_t channels = mem.channelsPerNpu * total_npus;
    backendKind_ = memBackendSetting().effective(mem.backend);
    mem_ = makeMemoryBackend(backendKind_, mem.timing, channels,
                             num_cores, mem.dramQueueDepth, mem.pcm,
                             mem.fabric);
    SharingPolicy policy; // channels default to ShareAll
    if (config.dramBandwidthShares)
        policy.bandwidthShares = *config.dramBandwidthShares;
    else if (config.level == SharingLevel::Static)
        policy.bandwidthShares = std::vector<std::uint32_t>(num_cores, 1);
    mem_->applyPolicy(policy);
    if (config.telemetryWindow != 0)
        mem_->enableTelemetry(config.telemetryWindow);

    // --- Paging: one flat physical pool sized to the device budget. ---
    std::uint64_t capacity = mem.dramCapacityPerNpu * total_npus;
    std::uint64_t device_capacity =
        mem.timing.channelCapacityBytes() * channels;
    capacity = std::min(capacity, device_capacity);
    allocator_ =
        std::make_unique<PageAllocator>(0, capacity, mem.pageBytes);
    pageTable_ = std::make_unique<PageTableModel>(*allocator_);

    // --- MMU: TLB/PTW budgets scale with the NPU count. ---
    MmuConfig mmu_config;
    mmu_config.numCores = num_cores;
    mmu_config.tlbEntriesPerCore =
        mem.tlbEntriesPerNpu *
        (config.level == SharingLevel::Ideal
             ? config.idealResourceMultiplier
             : 1);
    mmu_config.tlbWays = mem.tlbWays;
    mmu_config.sharedTlb = config.level == SharingLevel::ShareDWT;
    mmu_config.totalPtws = mem.ptwPerNpu * total_npus;
    mmu_config.translationEnabled = mem.translationEnabled;
    if (config.ptwMin || config.ptwMax) {
        if (!config.ptwMin || !config.ptwMax)
            fatal("bounded PTW sharing needs both ptwMin and ptwMax");
        mmu_config.ptwMode = PtwPartitionMode::Bounded;
        mmu_config.ptwMin = *config.ptwMin;
        mmu_config.ptwMax = *config.ptwMax;
    } else if (config.ptwStealing) {
        mmu_config.ptwMode = PtwPartitionMode::Stealing;
        if (config.ptwQuota)
            mmu_config.ptwQuota = *config.ptwQuota;
    } else if (config.ptwQuota) {
        mmu_config.ptwMode = PtwPartitionMode::Static;
        mmu_config.ptwQuota = *config.ptwQuota;
    } else if (config.level == SharingLevel::ShareDW ||
               config.level == SharingLevel::ShareDWT ||
               config.level == SharingLevel::Ideal) {
        mmu_config.ptwMode = PtwPartitionMode::Shared;
    } else {
        mmu_config.ptwMode = PtwPartitionMode::Static;
    }
    mmu_ = std::make_unique<Mmu>(mmu_config, *allocator_, *pageTable_,
                                 *mem_);
    if (!config.requestLogDir.empty()) {
        mem_->enableRequestLog(config.requestLogDir);
        mmu_->enableRequestLog(config.requestLogDir);
    }

    // --- Cores and clock domains. ---
    for (CoreId id = 0; id < num_cores; ++id) {
        const CoreBinding &binding = bindings_[id];
        CoreConfig core_config;
        core_config.id = id;
        core_config.asid = id;
        core_config.startCycleGlobal = binding.startCycleGlobal;
        core_config.iterations = binding.iterations;
        ClockDomain clock(binding.trace->arch().freqMhz,
                          mem.timing.clockMhz);
        cores_.push_back(std::make_unique<NpuCore>(
            core_config, *binding.trace, *mmu_, *mem_, clock));
        if (config.requestTraceWindow != 0)
            cores_.back()->enableRequestTrace(config.requestTraceWindow);
    }

    // --- Integrity layer (opt-in): lifecycle tracking at >= Cheap,
    // protocol + translation re-checks at Full, fault injection when a
    // plan is armed. ---
    checkLevel_ = checkLevelSetting().effective(config.checkLevel);
    // Worker-process drill sites (crash/hog/snapshot) fire outside the
    // simulation; arming the in-sim injector for them would disable
    // event gating and the fast-fidelity resolution for a run whose
    // results must stay bit-identical to an undrilled one.
    if (config.faultPlan.site != FaultSite::None &&
        !firesInWorkerProcess(config.faultPlan.site)) {
        injector_ = std::make_unique<FaultInjector>(config.faultPlan);
    }

    // --- Fidelity (resolved after the fault plan so the fallback sees
    // it). Fast trades per-transaction modeling for an analytic tile
    // path, which the integrity trackers cannot audit — any check
    // level (even Cheap's transaction-count audit) or an armed
    // injector forces exact. ---
    fidelity_ = resolvedFidelityKind(config.fidelity,
                                     injector_ != nullptr, checkLevel_);
    if (fidelity_ == FidelityKind::Exact &&
        fidelitySetting().effective(config.fidelity) ==
            FidelityKind::Fast) {
        inform("fast fidelity requested but ",
               injector_ ? "a fault injector is armed"
                         : "integrity checking is on",
               "; running exact");
    }
    if (fidelity_ == FidelityKind::Fast &&
        backendKind_ == MemBackendKind::Tiered) {
        // The analytic tile path models one bandwidth pool; a tiered
        // backend's split hot/cold service rates have no closed form.
        inform("fast fidelity requested but the tiered memory backend "
               "supports exact only; running exact");
        fidelity_ = FidelityKind::Exact;
    }
    if (fidelity_ == FidelityKind::Fast) {
        for (auto &core : cores_)
            core->setFastMode(true);
    }
    if (checkLevel_ != CheckLevel::Off) {
        tracker_ = std::make_unique<RequestLifecycleTracker>(
            capacity, mem.timing.transactionBytes(), num_cores);
        for (CoreId id = 0; id < num_cores; ++id) {
            tracker_->setExpectedDataTransactions(
                id, expectedDataTransactions(*bindings_[id].trace) *
                        bindings_[id].iterations);
        }
    }
    if (checkLevel_ == CheckLevel::Full) {
        mem_->enableProtocolChecks();
        mmu_->enableConsistencyChecks();
    }
    mem_->setIntegrity(tracker_.get(), injector_.get());
    if (injector_) {
        mmu_->setFaultInjector(injector_.get());
        for (auto &core : cores_)
            core->setFaultInjector(injector_.get());
    }

    // --- Completion routing. ---
    mem_->setCallback([this](const DramRequest &request, Cycle at) {
        if (Mmu::isWalkTag(request.tag))
            mmu_->onDramCompletion(request.tag, at);
        else
            cores_[request.core]->onDramCompletion(request.tag, at);
    });
    mmu_->setCallback([this](std::uint64_t tag, Addr paddr, Cycle at) {
        cores_[NpuCore::coreOfTag(tag)]->onTranslation(tag, paddr, at);
    });

    // --- Observability layer (passive; see DESIGN.md §9): trace sink
    // attachment, windowed series, and the metrics registry. ---
    setupObservability();
    buildMetricsRegistry();
}

void
MultiCoreSystem::setupObservability()
{
    const ObservabilityConfig &obs = config_.obs;
    const auto num_cores = static_cast<CoreId>(cores_.size());
    if (obs.metricsEnabled()) {
        // The exported series ride on the same tracers Fig. 12 uses;
        // enable them on the observer's window when the run didn't
        // already ask for telemetry itself. Tracers only record — they
        // never feed back into scheduling — so this cannot change
        // simulated behavior.
        if (!mem_->telemetryEnabled())
            mem_->enableTelemetry(obs.metricsWindow);
        for (auto &core : cores_) {
            if (!core->requestTraceEnabled())
                core->enableRequestTrace(obs.metricsWindow);
        }
    }
    if (!obs.traceEnabled())
        return;
    traceSink_ = std::make_unique<TraceEventSink>(
        traceLevelSetting().effective(obs.traceLevel));
    for (CoreId id = 0; id < num_cores; ++id) {
        traceSink_->processName(
            id, "core" + std::to_string(id) + " (" +
                    bindings_[id].trace->networkName() + ")");
        traceSink_->threadName(id, 0, "compute");
    }
    traceSink_->processName(TraceEventSink::kDramPid, "dram");
    if (traceSink_->wants(TraceLevel::Requests)) {
        traceSink_->processName(TraceEventSink::kMmuPid, "mmu");
        for (CoreId id = 0; id < num_cores; ++id) {
            const std::string who = "core" + std::to_string(id);
            traceSink_->threadName(TraceEventSink::kDramPid, id,
                                   who + " requests");
            traceSink_->threadName(TraceEventSink::kMmuPid, id,
                                   who + " walks");
        }
        for (std::uint32_t c = 0; c < mem_->numChannels(); ++c) {
            traceSink_->threadName(
                TraceEventSink::kDramPid,
                TraceEventSink::kChannelTidBase + c,
                "ch" + std::to_string(c) + " commands");
        }
    }
    for (auto &core : cores_)
        core->setTraceSink(traceSink_.get());
    mem_->setTraceSink(traceSink_.get());
    mmu_->setTraceSink(traceSink_.get());
}

void
MultiCoreSystem::buildMetricsRegistry()
{
    // Scalars first, in a stable order (DESIGN.md §9 schema). All
    // readers are pure observations of component state; they run only
    // at snapshot time, after the simulation has finished.
    registry_.addCounter("sim.global_cycles",
                         [this] { return finalGlobalCycles_; });
    registry_.addCounter("sched.loop_iterations",
                         [this] { return finalLoopIterations_; });
    for (CoreId id = 0; id < cores_.size(); ++id) {
        const std::string prefix = "core" + std::to_string(id) + ".";
        const NpuCore *core = cores_[id].get();
        const MemoryBackend *dram = mem_.get();
        const Mmu *mmu = mmu_.get();
        registry_.addCounter(prefix + "local_cycles",
                             [core] { return core->totalLocalCycles(); });
        registry_.addCounter(prefix + "finished_at_global", [core] {
            return core->finishedAtGlobal();
        });
        registry_.addGauge(prefix + "pe_utilization",
                           [core] { return core->peUtilization(); });
        registry_.addCounter(prefix + "traffic_bytes",
                             [dram, id] { return dram->coreBytes(id); });
        registry_.addCounter(prefix + "walk_bytes", [dram, id] {
            return dram->coreWalkBytes(id);
        });
        // Mirrors CoreResult: with a shared TLB (+DWT) every core reads
        // the one shared instance, and walks is the whole-MMU total.
        registry_.addCounter(prefix + "tlb.hits", [mmu, id] {
            return mmu->tlbForCore(id).hits();
        });
        registry_.addCounter(prefix + "tlb.misses", [mmu, id] {
            return mmu->tlbForCore(id).misses();
        });
        registry_.addCounter(prefix + "walks", [mmu] {
            return mmu->stats().counterValue("walks");
        });
        registry_.addGroup(cores_[id]->stats());
    }
    registry_.addGroup(mmu_->stats());
    for (const char *stat :
         {"reads", "writes", "bytes", "row_hits", "row_misses",
          "activates", "refreshes"}) {
        const MemoryBackend *dram = mem_.get();
        std::string name = stat;
        registry_.addCounter("dram." + name, [dram, name] {
            return dram->totalCounter(name);
        });
    }
    registry_.addGauge("dram.energy_pj", [this] {
        return mem_->totalEnergyPj(finalGlobalCycles_);
    });
    // Backend-owned groups: per-channel stats for DRAM-like backends,
    // plus the PCM cache and fabric groups when those layers exist.
    mem_->visitStatGroups(
        [this](const StatGroup &group) { registry_.addGroup(group); });

    // Windowed series, present only when the tracers are enabled (the
    // run's own telemetryWindow/requestTraceWindow, or metricsOutPath).
    if (mem_->telemetryEnabled()) {
        const MemoryBackend *dram = mem_.get();
        const Cycle window = config_.telemetryWindow != 0
                                 ? config_.telemetryWindow
                                 : config_.obs.metricsWindow;
        registry_.addSeries("dram.total.bytes", window, [dram] {
            return dram->totalTelemetry().windows();
        });
        for (CoreId id = 0; id < cores_.size(); ++id) {
            registry_.addSeries(
                "dram.core" + std::to_string(id) + ".bytes", window,
                [dram, id] { return dram->coreTelemetry(id).windows(); });
        }
    }
    for (CoreId id = 0; id < cores_.size(); ++id) {
        const NpuCore *core = cores_[id].get();
        if (!core->requestTraceEnabled())
            continue;
        const Cycle window = config_.requestTraceWindow != 0
                                 ? config_.requestTraceWindow
                                 : config_.obs.metricsWindow;
        registry_.addSeries("core" + std::to_string(id) + ".requests",
                            window, [core] {
                                return core->requestTrace().windows();
                            });
    }
}

bool
MultiCoreSystem::allDone() const
{
    return std::all_of(cores_.begin(), cores_.end(),
                       [](const auto &core) { return core->done(); });
}

SimResult
MultiCoreSystem::run(const RunBudget &budget)
{
    mnpu_assert(!ran_, "MultiCoreSystem::run() called twice");
    ran_ = true;

    using WallClock = std::chrono::steady_clock;
    const bool has_deadline = budget.wallClockSeconds > 0;
    const WallClock::time_point deadline =
        has_deadline ? WallClock::now() +
                           std::chrono::duration_cast<WallClock::duration>(
                               std::chrono::duration<double>(
                                   budget.wallClockSeconds))
                     : WallClock::time_point{};
    Cycle max_cycles = config_.maxGlobalCycles;
    if (budget.maxGlobalCycles != 0) {
        max_cycles = max_cycles == 0
                         ? budget.maxGlobalCycles
                         : std::min(max_cycles, budget.maxGlobalCycles);
    }

    Cycle now = 0;
    std::uint64_t iteration = 0;
    std::uint64_t serviceRound = 0;
    WatchdogSampler sampler;
    if (restored_) {
        // Resume exactly where the snapshot was taken: the tuple was
        // captured at a loop boundary (ticks at `now` still pending,
        // `iteration` loop bodies completed), which is precisely the
        // state at the top of the while loop below.
        now = resumeNow_;
        iteration = resumeIteration_;
        serviceRound = resumeServiceRound_;
        sampler = resumeSampler_;
    }

    // --- In-flight snapshot policy (tentpole of DESIGN.md §12).
    // Snapshot writes are passive — pure const reads — so enabling
    // them cannot perturb the run. The persisted tuple is always a
    // loop boundary; see the restore block above.
    const SnapshotPolicy &snap = budget.snapshot;
    std::uint64_t snapshotsPersisted = 0;
    Cycle snapNextCycle =
        snap.enabled() && snap.everyCycles != 0 ? now + snap.everyCycles
                                                : kCycleNever;
    using WallDuration = std::chrono::duration<double>;
    WallClock::time_point snapLastWall = WallClock::now();
    WallClock::time_point heartbeatLast = snapLastWall;
    auto persistSnapshot = [&]() {
        StateWriter out;
        saveState(out, now, iteration, serviceRound, sampler);
        if (!writeSnapshotFile(snap.path, out.bytes()))
            return;
        ++snapshotsPersisted;
        // Drill hooks (snapshot-kill / snapshot-corrupt fault sites,
        // process-isolated workers only): die right after the Nth
        // snapshot persists so the supervisor's retry must resume from
        // it — after corrupting it at rest first for the corrupt
        // drill, so the retry must reject it by checksum instead.
        if (snap.corruptNth != 0 && snapshotsPersisted == snap.corruptNth) {
            corruptSnapshotAtRest(snap.path);
            ::raise(SIGKILL);
        }
        if (snap.killNth != 0 && snapshotsPersisted == snap.killNth)
            ::raise(SIGKILL);
    };

    // Per-component gating: a component whose cached sharp bound is
    // in the future and that received no input since its last tick is
    // guaranteed to no-op, so its tick is skipped even at visited
    // cycles. Inputs that invalidate a cached bound raise poke flags
    // (completions, accepted translations, enqueues); conditions that
    // can unblock a refused enqueue — a freed channel-queue slot or a
    // token-bucket re-crossing — raise the DRAM retry signal. Fault
    // drills and the per-cycle reference tick everything: an armed
    // injector fires on un-modeled schedules.
    const bool reference = budget.perCycleReference;
    const bool gated = !reference && injector_ == nullptr;
    mem_->setEventDriven(gated);
    const std::size_t n = cores_.size();
    Cycle mmuNext = 0;                //!< cached MMU bound (gated mode)
    std::vector<Cycle> coreNext(n, 0); //!< cached core bounds (gated)
    while (!allDone()) {
        // Watchdog: wall clock and the stop token are sampled every
        // 256 iterations (including the first) so a livelocked run
        // still exits promptly without a syscall per event — and also
        // after any long skipped span, so the event loop cannot
        // coast past a cancellation between samples.
        if (sampler.shouldSample(iteration, now)) {
            if (budget.heartbeat) {
                // Liveness heartbeat for the process-pool supervisor,
                // rate-limited so busy loops don't spam it.
                const WallClock::time_point wall = WallClock::now();
                if (WallDuration(wall - heartbeatLast).count() >= 0.5) {
                    budget.heartbeat();
                    heartbeatLast = wall;
                }
            }
            if (budget.stopToken &&
                budget.stopToken->load(std::memory_order_relaxed)) {
                // First-signal durability: persist the in-flight state
                // before surfacing the cancellation, so a SIGTERM'd
                // run can later resume instead of restarting.
                if (snap.enabled() && snap.onCancel)
                    persistSnapshot();
                throw SimulationError(
                    SimErrorKind::Cancelled,
                    detail::concat("simulation cancelled at global cycle ",
                                   now));
            }
            if (has_deadline && WallClock::now() >= deadline) {
                if (snap.enabled() && snap.onCancel)
                    persistSnapshot();
                throw SimulationError(
                    SimErrorKind::WallClockTimeout,
                    detail::concat("simulation exceeded its wall-clock "
                                   "budget of ",
                                   budget.wallClockSeconds,
                                   " s at global cycle ", now));
            }
            // A dropped DRAM response leaves cores waiting while the
            // memory system drains idle — a livelock no deadlock check
            // sees. The lifecycle tracker makes it loud.
            if (tracker_ && !mem_->busy() && tracker_->outstanding() != 0)
                throw tracker_->lostResponseError(now);
        }
        ++iteration;

        // Rotate the core service order so no core gets a standing
        // first-issuer advantage into the shared MMU/DRAM queues.
        // Rotate on rounds where some core actually did work, not on
        // the loop iteration count: no-op iterations are exactly the
        // cycles the event loop skips, so counting them would make the
        // rotation — and therefore arbitration — depend on which
        // cycles are visited. For the same reason a gated-out
        // (provably no-op) tick and an executed no-op tick contribute
        // identically: neither counts as work.
        const std::size_t first = static_cast<std::size_t>(serviceRound % n);
        bool any_work = false;
        if (gated) {
            mem_->tick(now); // internally ticks only due channels
            const bool retry = mem_->consumeRetrySignal();
            bool mmu_freed = false;
            if (mmuNext <= now || mmu_->poked() ||
                (retry && mmu_->hasBlockedWalks())) {
                mmu_->tick(now);
                mmu_freed = mmu_->consumePendingDrained();
                mmuNext = mmu_->nextEventCycle(now);
            }
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t idx = (first + i) % n;
                NpuCore &core = *cores_[idx];
                if (coreNext[idx] <= now || core.poked() ||
                    (retry && core.dramBlocked()) ||
                    (mmu_freed && core.xlatBlocked())) {
                    any_work |= core.tick(now);
                    coreNext[idx] = core.nextEventCycle(now);
                }
            }
        } else {
            mem_->tick(now);
            mmu_->tick(now);
            for (std::size_t i = 0; i < n; ++i)
                any_work |= cores_[(first + i) % n]->tick(now);
        }
        if (any_work)
            ++serviceRound;

        if (allDone())
            break;

        // Jump straight to the earliest sharp bound. The per-cycle
        // reference runs the identical tick code above at every cycle,
        // so proving the sharp bounds never overshoot proves the two
        // steppings bit-identical; it still takes the bound, only to
        // tell a deadlock apart.
        Cycle next;
        if (gated) {
            // Cached bounds are valid for every component that was not
            // ticked this cycle (unchanged state) and fresh for every
            // component that was. Inputs pushed during the core phase
            // (translation requests, DRAM enqueues) postdate the
            // caches; their poke flags force a visit at now + 1.
            next = mem_->nextEventCycle(now);
            next = std::min(next, mmu_->poked() ? now + 1 : mmuNext);
            for (std::size_t i = 0; i < n; ++i)
                next = std::min(next, coreNext[i]);
        } else {
            next = mem_->nextEventCycle(now);
            next = std::min(next, mmu_->nextEventCycle(now));
            for (auto &core : cores_)
                next = std::min(next, core->nextEventCycle(now));
        }
        if (next == kCycleNever) {
            // No component will ever act again. Distinguish a dropped
            // response (a bug the integrity layer names precisely) from
            // a genuine resource deadlock before reporting the latter.
            if (tracker_ && !mem_->busy() && tracker_->outstanding() != 0)
                throw tracker_->lostResponseError(now);
            // Not a panic: a deadlocked *mix* is a per-run failure the
            // sweep layer can record and move past, not a reason to
            // take down the whole campaign.
            throw SimulationError(
                SimErrorKind::Deadlock,
                detail::concat("simulation deadlock at global cycle ",
                               now, " with unfinished cores"));
        }
        mnpu_assert(next > now, "time must advance");
        now = reference ? now + 1 : next;
        if (max_cycles != 0 && now > max_cycles) {
            // No snapshot here: a blown cycle budget would blow again
            // immediately on resume, so persisting is pointless.
            throw SimulationError(
                SimErrorKind::CycleBudget,
                detail::concat("simulation exceeded its cycle budget (",
                               max_cycles, " global cycles)"));
        }
        if (snap.enabled()) {
            // Periodic cadence, checked at the loop boundary so the
            // persisted tuple always matches the restore contract. The
            // wall cadence reads the clock only every 1024 iterations.
            if (now >= snapNextCycle) {
                persistSnapshot();
                snapNextCycle = now + snap.everyCycles;
                snapLastWall = WallClock::now();
            } else if (snap.everySeconds > 0 && (iteration & 1023) == 0) {
                const WallClock::time_point wall = WallClock::now();
                if (WallDuration(wall - snapLastWall).count() >=
                    snap.everySeconds) {
                    persistSnapshot();
                    snapLastWall = WallClock::now();
                }
            }
        }
    }

    // End-of-run leak audit: reconcile completed transaction counts
    // against the DRAM byte counters, the SW trace totals, and the
    // MMU's issued walk steps.
    if (tracker_) {
        std::vector<std::uint64_t> core_bytes, core_walk_bytes, walk_steps;
        for (CoreId id = 0; id < cores_.size(); ++id) {
            core_bytes.push_back(mem_->coreBytes(id));
            core_walk_bytes.push_back(mem_->coreWalkBytes(id));
            walk_steps.push_back(mmu_->walkStepsIssued(id));
        }
        tracker_->finalAudit(core_bytes, core_walk_bytes, walk_steps);
    }

    mem_->finalizeTelemetry();
    mem_->flushRequestLogs();
    mmu_->flushRequestLogs();
    for (auto &core : cores_)
        core->finalizeRequestTrace();

    // The run completed: its snapshot (if any) is spent. Removing it
    // keeps a later --resume of the same job from restoring a stale
    // mid-run state after the checkpoint already has the final record.
    if (snap.enabled() && snap.removeOnSuccess)
        std::remove(snap.path.c_str());

    SimResult result;
    result.loopIterations = iteration;
    if (restored_) {
        result.resumedAtCycle = resumeNow_;
        result.resumedAtIteration = resumeIteration_;
    }
    result.globalCycles = 0;
    for (CoreId id = 0; id < cores_.size(); ++id) {
        const NpuCore &core = *cores_[id];
        CoreResult core_result;
        core_result.workloadName = bindings_[id].trace->networkName();
        core_result.localCycles = core.totalLocalCycles();
        core_result.finishedAtGlobal = core.finishedAtGlobal();
        core_result.peUtilization = core.peUtilization();
        core_result.trafficBytes = mem_->coreBytes(id);
        core_result.walkBytes = mem_->coreWalkBytes(id);
        const Tlb &tlb = mmu_->tlbForCore(id);
        core_result.tlbHits = tlb.hits();
        core_result.tlbMisses = tlb.misses();
        core_result.walks = mmu_->stats().counterValue("walks");
        core_result.layerFinishLocal = core.layerFinishLocal();
        result.globalCycles =
            std::max(result.globalCycles, core.finishedAtGlobal());
        result.cores.push_back(std::move(core_result));
    }
    result.dramEnergyPj = mem_->totalEnergyPj(result.globalCycles);
    result.dramRowHits = mem_->totalCounter("row_hits");
    result.dramRowMisses = mem_->totalCounter("row_misses");

    // Materialize the consolidated telemetry view and write any
    // requested observability artifacts. This happens strictly after
    // the simulation finished, so none of it can perturb timing.
    finalGlobalCycles_ = result.globalCycles;
    finalLoopIterations_ = result.loopIterations;
    result.telemetry = registry_.snapshot();
    if (traceSink_)
        traceSink_->writeFile(config_.obs.traceOutPath);
    if (config_.obs.metricsEnabled())
        result.telemetry.writeFile(config_.obs.metricsOutPath);
    return result;
}

namespace
{

void
mixFnv(std::uint64_t &hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 1099511628211ULL;
    }
}

void
mixFnvStr(std::uint64_t &hash, const std::string &text)
{
    mixFnv(hash, text.size());
    for (unsigned char ch : text) {
        hash ^= ch;
        hash *= 1099511628211ULL;
    }
}

} // namespace

std::uint64_t
MultiCoreSystem::configFingerprint() const
{
    // Everything that shapes the serialized component graph or the
    // simulated schedule. Restoring under a different fingerprint
    // would mis-deserialize or silently diverge, so the loader rejects
    // it (discard + from-scratch, never abort).
    std::uint64_t hash = 14695981039346656037ULL;
    mixFnv(hash, static_cast<std::uint64_t>(config_.level));
    mixFnv(hash, config_.idealResourceMultiplier);
    mixFnv(hash, cores_.size());
    mixFnv(hash, mem_->numChannels());
    mixFnv(hash, static_cast<std::uint64_t>(backendKind_));
    if (backendKind_ != MemBackendKind::Dram) {
        mixFnv(hash, config_.mem.pcm.cacheLines);
        mixFnv(hash, config_.mem.pcm.cacheHitLatency);
        mixFnv(hash, config_.mem.pcm.writeCommitCycles);
        mixFnv(hash, config_.mem.pcm.hitQueueDepth);
    }
    mixFnv(hash, config_.mem.fabric.enabled ? 1 : 0);
    if (config_.mem.fabric.enabled) {
        mixFnv(hash, config_.mem.fabric.ports);
        mixFnv(hash, config_.mem.fabric.queueDepth);
        mixFnv(hash, config_.mem.fabric.widthBytes);
        mixFnv(hash, config_.mem.fabric.latencyCycles);
    }
    mixFnv(hash, config_.mem.dramQueueDepth);
    mixFnv(hash, config_.mem.pageBytes);
    mixFnv(hash, config_.mem.dramCapacityPerNpu);
    mixFnv(hash, config_.mem.tlbEntriesPerNpu);
    mixFnv(hash, config_.mem.tlbWays);
    mixFnv(hash, config_.mem.ptwPerNpu);
    mixFnv(hash, config_.mem.translationEnabled ? 1 : 0);
    mixFnv(hash, static_cast<std::uint64_t>(checkLevel_));
    mixFnv(hash, static_cast<std::uint64_t>(fidelity_));
    mixFnv(hash, config_.telemetryWindow);
    mixFnv(hash, config_.requestTraceWindow);
    mixFnv(hash, mem_->telemetryEnabled() ? 1 : 0);
    mixFnv(hash, config_.maxGlobalCycles);
    auto mix_opt_vec = [&hash](
        const std::optional<std::vector<std::uint32_t>> &values) {
        mixFnv(hash, values ? values->size() + 1 : 0);
        if (values) {
            for (std::uint32_t value : *values)
                mixFnv(hash, value);
        }
    };
    mix_opt_vec(config_.dramBandwidthShares);
    mix_opt_vec(config_.ptwQuota);
    mix_opt_vec(config_.ptwMin);
    mix_opt_vec(config_.ptwMax);
    mixFnv(hash, config_.ptwStealing ? 1 : 0);
    mixFnv(hash, config_.faultPlan.site != FaultSite::None &&
                         !firesInWorkerProcess(config_.faultPlan.site)
                     ? static_cast<std::uint64_t>(config_.faultPlan.site)
                     : 0);
    for (const CoreBinding &binding : bindings_) {
        mixFnvStr(hash, binding.trace->networkName());
        mixFnv(hash, binding.startCycleGlobal);
        mixFnv(hash, binding.iterations);
        mixFnv(hash, binding.trace->tiles().size());
        mixFnv(hash, binding.trace->arch().freqMhz);
    }
    return hash;
}

template <class Self, class Io, class Sampler>
void
MultiCoreSystem::visitState(Self &self, Io &io, Cycle &now,
                            std::uint64_t &iteration,
                            std::uint64_t &service_round, Sampler &sampler)
{
    io.section("RUNL");
    io.u64(now);
    io.u64(iteration);
    io.u64(service_round);
    io.state(sampler);
    io.expect(self.injector_ != nullptr,
              "fault-injector enablement mismatch");
    if (self.injector_)
        io.state(*self.injector_);
    io.expect(self.tracker_ != nullptr,
              "lifecycle-tracker enablement mismatch");
    if (self.tracker_)
        io.state(*self.tracker_);
    io.state(*self.allocator_);
    io.state(*self.pageTable_);
    io.state(*self.mmu_);
    io.state(*self.mem_);
    io.expect(self.cores_.size(), "core count mismatch");
    for (const auto &core : self.cores_)
        io.state(*core);
    io.section("DONE");
}

void
MultiCoreSystem::saveState(StateWriter &out, Cycle now,
                           std::uint64_t iteration,
                           std::uint64_t service_round,
                           const WatchdogSampler &sampler) const
{
    out.u64(configFingerprint());
    visitState(*this, out, now, iteration, service_round, sampler);
}

bool
MultiCoreSystem::tryRestoreSnapshot(const std::string &path)
{
    mnpu_assert(!ran_, "tryRestoreSnapshot after run()");
    std::optional<std::string> payload = readSnapshotFile(path);
    if (!payload)
        return false; // missing, or envelope rejected (already warned)
    try {
        StateReader in(std::move(*payload));
        if (in.u64() != configFingerprint()) {
            warn("snapshot '", path,
                 "' was written by a differently configured system; "
                 "ignoring it and starting from scratch");
            return false;
        }
        visitState(*this, in, resumeNow_, resumeIteration_,
                   resumeServiceRound_, resumeSampler_);
        if (!in.atEnd())
            throw SnapshotError("trailing bytes after the final section");
    } catch (const SnapshotError &error) {
        // Should be unreachable once the fingerprint matched (the
        // checksum already vouched for the payload bytes); honor the
        // never-abort contract anyway. Components may be partially
        // restored now — the caller must discard this system.
        warn("snapshot '", path, "' rejected mid-restore (", error.what(),
             "); discarding it");
        return false;
    }
    restored_ = true;
    return true;
}

TelemetrySnapshot
telemetryFromResult(const SimResult &result)
{
    MetricsRegistry registry;
    registry.addCounter("sim.global_cycles",
                        [&result] { return result.globalCycles; });
    for (std::size_t id = 0; id < result.cores.size(); ++id) {
        const std::string prefix = "core" + std::to_string(id) + ".";
        const CoreResult &core = result.cores[id];
        registry.addCounter(prefix + "local_cycles",
                            [&core] { return core.localCycles; });
        registry.addCounter(prefix + "finished_at_global",
                            [&core] { return core.finishedAtGlobal; });
        registry.addGauge(prefix + "pe_utilization",
                          [&core] { return core.peUtilization; });
        registry.addCounter(prefix + "traffic_bytes",
                            [&core] { return core.trafficBytes; });
        registry.addCounter(prefix + "walk_bytes",
                            [&core] { return core.walkBytes; });
        registry.addCounter(prefix + "tlb.hits",
                            [&core] { return core.tlbHits; });
        registry.addCounter(prefix + "tlb.misses",
                            [&core] { return core.tlbMisses; });
        registry.addCounter(prefix + "walks",
                            [&core] { return core.walks; });
    }
    registry.addCounter("dram.row_hits",
                        [&result] { return result.dramRowHits; });
    registry.addCounter("dram.row_misses",
                        [&result] { return result.dramRowMisses; });
    registry.addGauge("dram.energy_pj",
                      [&result] { return result.dramEnergyPj; });
    return registry.snapshot();
}

SimResult
runIdeal(std::shared_ptr<const TraceGenerator> trace,
         std::uint32_t resource_multiplier, const NpuMemConfig &mem)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.idealResourceMultiplier = resource_multiplier;
    config.mem = mem;
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = std::move(trace);
    MultiCoreSystem system(config, std::move(bindings));
    return system.run();
}

SimResult
runMix(SharingLevel level,
       std::vector<std::shared_ptr<const TraceGenerator>> traces,
       const NpuMemConfig &mem)
{
    SystemConfig config;
    config.level = level;
    config.mem = mem;
    std::vector<CoreBinding> bindings;
    bindings.reserve(traces.size());
    for (auto &trace : traces) {
        CoreBinding binding;
        binding.trace = std::move(trace);
        bindings.push_back(std::move(binding));
    }
    MultiCoreSystem system(config, std::move(bindings));
    return system.run();
}

} // namespace mnpu
