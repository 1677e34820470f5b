#include "dram/dram_system.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace mnpu
{

DramSystem::DramSystem(const DramTiming &timing, std::uint32_t num_channels,
                       std::uint32_t num_cores, std::uint32_t queue_depth,
                       const std::string &mapping_order,
                       const std::string &stat_prefix)
    : timing_(timing),
      offsetBits_(floorLog2(timing.transactionBytes())),
      statPrefix_(stat_prefix),
      partitions_(num_cores),
      buckets_(num_cores),
      coreBytes_(num_cores, 0),
      coreWalkBytes_(num_cores, 0)
{
    if (num_channels == 0)
        fatal("DRAM system needs at least one channel");
    if (num_cores == 0)
        fatal("DRAM system needs at least one core");
    timing.validate();
    AddressMapping mapping(timing, mapping_order);
    channels_.reserve(num_channels);
    for (std::uint32_t c = 0; c < num_channels; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            timing, mapping, queue_depth,
            statPrefix_ + ".ch" + std::to_string(c)));
        channels_.back()->setCallback(
            [this](const DramRequest &request, Cycle at) {
                onCompletion(request, at);
            });
    }
    fastBusyUntil_.assign(num_channels, 0);
    applyPolicy(SharingPolicy{});
}

void
DramSystem::applyPolicy(const SharingPolicy &policy)
{
    switch (policy.channels) {
    case SharingPolicy::Channels::ShareAll: {
        std::vector<std::uint32_t> all(channels_.size());
        std::iota(all.begin(), all.end(), 0);
        for (auto &partition : partitions_)
            partition = all;
        break;
    }
    case SharingPolicy::Channels::ByCounts: {
        const auto &counts = policy.channelCounts;
        if (counts.size() != partitions_.size())
            fatal("SharingPolicy: need one channel count per core");
        std::uint32_t total = 0;
        for (auto count : counts)
            total += count;
        if (total != channels_.size())
            fatal("SharingPolicy: counts sum to ", total,
                  " but system has ", channels_.size(), " channels");
        std::uint32_t next = 0;
        for (CoreId core = 0; core < counts.size(); ++core) {
            if (counts[core] == 0)
                fatal("SharingPolicy: core ", core,
                      " must own >= 1 channel");
            std::vector<std::uint32_t> channels(counts[core]);
            std::iota(channels.begin(), channels.end(), next);
            next += counts[core];
            partitions_[core] = std::move(channels);
        }
        break;
    }
    case SharingPolicy::Channels::Explicit: {
        const auto &sets = policy.explicitSets;
        if (sets.size() != partitions_.size())
            fatal("SharingPolicy: need one channel set per core");
        for (CoreId core = 0; core < sets.size(); ++core) {
            if (sets[core].empty())
                fatal("SharingPolicy: core ", core,
                      " must own >= 1 channel");
            for (auto channel_id : sets[core]) {
                if (channel_id >= channels_.size())
                    fatal("SharingPolicy: channel ", channel_id,
                          " out of range");
            }
        }
        partitions_ = sets;
        break;
    }
    case SharingPolicy::Channels::Keep:
        break;
    }
    if (policy.bandwidthShares)
        applyBandwidthShares(*policy.bandwidthShares);
}

DramSystem::Route
DramSystem::route(const DramRequest &request) const
{
    if (request.core >= partitions_.size())
        fatal("DRAM request from unknown core ", request.core);
    const auto &set = partitions_[request.core];
    Addr tx = request.paddr >> offsetBits_;
    auto set_size = static_cast<Addr>(set.size());
    std::uint32_t channel = set[static_cast<std::size_t>(tx % set_size)];
    Addr offset_mask = (Addr{1} << offsetBits_) - 1;
    Addr local = ((tx / set_size) << offsetBits_) |
                 (request.paddr & offset_mask);
    return Route{channel, local};
}

void
DramSystem::applyBandwidthShares(const std::vector<std::uint32_t> &shares)
{
    if (shares.empty()) {
        for (auto &bucket : buckets_)
            bucket = TokenBucket{};
        return;
    }
    if (shares.size() != buckets_.size())
        fatal("bandwidth shares: need one share per core");
    std::uint64_t total = 0;
    for (auto share : shares)
        total += share;
    if (total == 0)
        fatal("bandwidth shares: shares sum to zero");
    // Peak bytes per global (DRAM) cycle across the whole system: the
    // bus moves 2 beats/cycle (DDR) of busBytes per channel.
    double peak_per_cycle = 2.0 * timing_.busBytes *
                            static_cast<double>(channels_.size());
    for (CoreId core = 0; core < buckets_.size(); ++core) {
        TokenBucket &bucket = buckets_[core];
        if (shares[core] == 0)
            fatal("bandwidth shares: core ", core, " share must be > 0");
        bucket.enabled = true;
        bucket.ratePerCycle = peak_per_cycle *
                              static_cast<double>(shares[core]) /
                              static_cast<double>(total);
        bucket.burstCap = std::max<double>(
            bucket.ratePerCycle * 8,
            static_cast<double>(timing_.transactionBytes()));
        bucket.tokens = bucket.burstCap;
        bucket.lastRefill = 0;
    }
}

bool
DramSystem::canAccept(const DramRequest &request) const
{
    return channels_[route(request).channel]->canAccept(request.priority);
}

bool
DramSystem::tryEnqueue(const DramRequest &request, Cycle now)
{
    Route r = route(request);
    DramChannel &channel = *channels_[r.channel];
    if (!channel.canAccept(request.priority))
        return false;
    if (request.core < buckets_.size()) {
        TokenBucket &bucket = buckets_[request.core];
        if (bucket.enabled) {
            auto cost = static_cast<double>(timing_.transactionBytes());
            double avail = available(bucket, now);
            if (avail < cost) {
                // Anchored bucket: a refusal leaves the balance alone;
                // it only arms the refill-crossing wakeup.
                bucket.refused = true;
                return false;
            }
            bucket.tokens = avail - cost;
            bucket.lastRefill = now;
            // Re-observe after the spend so an upward re-crossing is
            // detected even between channel ticks (event mode).
            bucket.wasBelowCost = available(bucket, now) < cost;
        }
    }
    DramRequest accepted = request;
    accepted.enqueuedAt = now;
    if (tracker_)
        accepted.integrityId = tracker_->onIssue(request.paddr, request.core,
                                                 request.priority, now);
    channel.enqueue(accepted, r.localAddr, now);
    if (eventDriven_) {
        // The cached bound predates this enqueue; revisit the channel.
        chanPoked_[r.channel] = 1;
        anyPoked_ = true;
    }
    if (startLog_.enabled()) {
        startLog_.row(now, request.core, r.channel, request.paddr,
                      toString(request.op),
                      request.priority ? "walk" : "data");
    }
    return true;
}

Cycle
DramSystem::fastTransfer(CoreId core, std::uint64_t num_tx, bool is_write,
                         Cycle start)
{
    mnpu_assert(core < partitions_.size(), "fastTransfer: unknown core");
    if (num_tx == 0)
        return start;
    const std::uint64_t tx_bytes = timing_.transactionBytes();
    const std::uint64_t bytes = num_tx * tx_bytes;

    // Bandwidth shares: spend the whole batch against the anchored
    // bucket. The batch cannot finish before the bucket has earned its
    // full cost, so the anchor jumps to that crossing in one step.
    Cycle bucket_done = start;
    if (core < buckets_.size() && buckets_[core].enabled) {
        TokenBucket &bucket = buckets_[core];
        const double need = static_cast<double>(bytes);
        const double avail = available(bucket, start);
        if (avail < need && bucket.ratePerCycle > 0) {
            bucket_done =
                start +
                static_cast<Cycle>(
                    std::ceil((need - avail) / bucket.ratePerCycle));
        }
        bucket.tokens =
            std::max(0.0, available(bucket, bucket_done) - need);
        bucket.lastRefill = bucket_done;
    }

    const auto &set = partitions_[core];
    const auto set_size = static_cast<std::uint64_t>(set.size());
    const std::uint64_t cols_per_row =
        std::max<std::uint64_t>(1, timing_.columnsPerRow());
    const Cycle col_gap =
        std::max<Cycle>(timing_.tCCD, timing_.burstCycles());
    const Cycle data_lat =
        (is_write ? timing_.tCWL : timing_.tCL) + timing_.burstCycles();
    const std::uint64_t base = num_tx / set_size;
    const std::uint64_t rem = num_tx % set_size;
    Cycle done = bucket_done;
    for (std::uint64_t i = 0; i < set_size; ++i) {
        const std::uint64_t cnt = base + (i < rem ? 1 : 0);
        if (cnt == 0)
            continue;
        const std::uint32_t c = set[static_cast<std::size_t>(i)];
        const Cycle s = std::max(start, fastBusyUntil_[c]);
        const std::uint64_t rows = ceilDiv(cnt, cols_per_row);
        const Cycle service =
            static_cast<Cycle>(cnt) * col_gap +
            static_cast<Cycle>(rows) * (timing_.tRP + timing_.tRCD);
        fastBusyUntil_[c] = s + service;
        done = std::max(done, s + service + data_lat);
        channels_[c]->fastAccount(is_write ? 0 : cnt, is_write ? cnt : 0,
                                  cnt - rows, rows, rows, cnt * tx_bytes);
    }

    coreBytes_[core] += bytes;
    if (totalTracer_) {
        totalTracer_->record(done, bytes);
        if (core < coreTracers_.size())
            coreTracers_[core].record(done, bytes);
    }
    return done;
}

void
DramSystem::fastWalkTraffic(CoreId core, std::uint64_t num_steps, Cycle at)
{
    mnpu_assert(core < partitions_.size(), "fastWalkTraffic: unknown core");
    if (num_steps == 0)
        return;
    const std::uint64_t tx_bytes = timing_.transactionBytes();
    const std::uint64_t bytes = num_steps * tx_bytes;
    const auto &set = partitions_[core];
    const auto set_size = static_cast<std::uint64_t>(set.size());
    const std::uint64_t base = num_steps / set_size;
    const std::uint64_t rem = num_steps % set_size;
    for (std::uint64_t i = 0; i < set_size; ++i) {
        const std::uint64_t cnt = base + (i < rem ? 1 : 0);
        if (cnt == 0)
            continue;
        // Walk steps chase pointer-shaped PTE addresses: modeled as
        // all row misses.
        channels_[set[static_cast<std::size_t>(i)]]->fastAccount(
            cnt, 0, 0, cnt, cnt, cnt * tx_bytes);
    }
    coreBytes_[core] += bytes;
    coreWalkBytes_[core] += bytes;
    if (totalTracer_) {
        totalTracer_->record(at, bytes);
        if (core < coreTracers_.size())
            coreTracers_[core].record(at, bytes);
    }
}

void
DramSystem::enableRequestLog(const std::string &dir)
{
    startLog_.open(dir + "/dram.log",
                   "start_cycle,core,channel,paddr,op,kind");
    endLog_.open(dir + "/dramreq.log", "end_cycle,core,paddr,op");
}

void
DramSystem::flushRequestLogs()
{
    startLog_.flush();
    endLog_.flush();
}

void
DramSystem::setEventDriven(bool enabled)
{
    eventDriven_ = enabled;
    for (auto &channel : channels_)
        channel->setBounding(enabled);
    if (!enabled) {
        chanNext_.clear();
        chanPoked_.clear();
        anyPoked_ = false;
        retrySignal_ = false;
        return;
    }
    // Bound 0 = "due now": every channel is visited (and its real bound
    // cached) on the first event-driven tick.
    chanNext_.assign(channels_.size(), 0);
    chanPoked_.assign(channels_.size(), 0);
}

void
DramSystem::tick(Cycle now)
{
    while (!delayed_.empty()) {
        // Release the earliest due completion a dram-delay fault held.
        auto due = std::min_element(delayed_.begin(), delayed_.end(),
                                    [](const auto &a, const auto &b) {
                                        return a.at < b.at;
                                    });
        if (due->at > now)
            break;
        DramRequest request = due->request;
        delayed_.erase(due);
        deliver(request, now);
    }
    if (!eventDriven_) {
        for (auto &channel : channels_) {
            if (channel->busy())
                channel->tick(now);
        }
        return;
    }
    // Event-driven: tick only channels with due work (cached bound) or
    // a fresh enqueue; a skipped channel's tick is provably a no-op
    // (the nextEventCycle contract). Cache the recomputed bound so the
    // scheduler's bound query does not rescan untouched queues.
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (chanNext_[c] > now && !chanPoked_[c])
            continue;
        if (channels_[c]->tick(now))
            retrySignal_ = true;
        chanPoked_[c] = 0;
        chanNext_[c] = channels_[c]->boundAfterTick();
    }
    anyPoked_ = false;
    // A starved bucket re-crossing one transaction's cost unblocks the
    // same retries a freed queue slot does.
    auto cost = static_cast<double>(timing_.transactionBytes());
    for (auto &bucket : buckets_) {
        if (!bucket.enabled)
            continue;
        bool below = available(bucket, now) < cost;
        if (bucket.wasBelowCost && !below) {
            retrySignal_ = true;
            bucket.refused = false;
        }
        bucket.wasBelowCost = below;
    }
}

bool
DramSystem::busy() const
{
    return !delayed_.empty() ||
           std::any_of(channels_.begin(), channels_.end(),
                       [](const auto &channel) { return channel->busy(); });
}

Cycle
DramSystem::nextEventCycle(Cycle now) const
{
    Cycle next = kCycleNever;
    for (const auto &entry : delayed_)
        next = std::min(next, std::max(entry.at, now + 1));
    // A starved token bucket that refused an admission (a client now
    // waits on it) gets a closed-form refill-crossing candidate: the
    // first cycle the anchored balance reaches one transaction's cost.
    // A bucket nobody waits on needs none: its crossing would only
    // raise a retry signal that no client consumes. The anchor only
    // moves on successful spends (which happen at visited cycles under
    // any stepping), so the crossing is a pure function of state every
    // stepping shares; the ±1 adjustment loops pin T against float
    // rounding using the exact admission expression.
    auto cost = static_cast<double>(timing_.transactionBytes());
    for (const auto &bucket : buckets_) {
        if (!bucket.enabled || !bucket.refused ||
            available(bucket, now) >= cost)
            continue;
        if (bucket.ratePerCycle <= 0 || bucket.burstCap < cost) {
            next = std::min(next, now + 1); // can never refill past cost
            continue;
        }
        double deficit = cost - bucket.tokens;
        Cycle T = bucket.lastRefill +
                  static_cast<Cycle>(
                      std::ceil(deficit / bucket.ratePerCycle));
        T = std::max(T, now + 1);
        while (available(bucket, T) < cost)
            ++T;
        while (T > now + 1 && available(bucket, T - 1) >= cost)
            --T;
        next = std::min(next, T);
    }
    if (eventDriven_) {
        // Cached per-channel bounds (maintained by tick); a channel
        // enqueued-to since its bound was cached must be revisited.
        if (anyPoked_)
            next = std::min(next, now + 1);
        for (Cycle cached : chanNext_)
            next = std::min(next, std::max(cached, now + 1));
        return next;
    }
    for (const auto &channel : channels_)
        next = std::min(next, channel->nextEventCycle(now));
    return next;
}

std::uint64_t
DramSystem::protocolStreamHash() const
{
    std::uint64_t total = 0;
    for (const auto &checker : checkers_) {
        // Order-independent mix across channels (each channel's own
        // stream is order-sensitive inside its checker hash).
        total ^= checker->streamHash();
    }
    return total;
}

void
DramSystem::setCallback(DramCallback callback)
{
    clientCallback_ = std::move(callback);
}

void
DramSystem::setIntegrity(RequestLifecycleTracker *tracker,
                         FaultInjector *injector)
{
    tracker_ = tracker;
    injector_ = injector;
}

void
DramSystem::enableProtocolChecks()
{
    checkers_.clear();
    checkers_.reserve(channels_.size());
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        checkers_.push_back(std::make_unique<DramProtocolChecker>(
            timing_, statPrefix_ + ".ch" + std::to_string(c)));
        channels_[c]->setProtocolChecker(checkers_.back().get());
    }
}

void
DramSystem::setTraceSink(TraceEventSink *sink, std::uint32_t first_channel)
{
    traceSink_ = sink && sink->wants(TraceLevel::Requests) ? sink : nullptr;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        channels_[c]->setTraceSink(
            traceSink_, first_channel + static_cast<std::uint32_t>(c));
    }
}

std::uint64_t
DramSystem::protocolCommandsChecked() const
{
    std::uint64_t total = 0;
    for (const auto &checker : checkers_)
        total += checker->commandsChecked();
    return total;
}

void
DramSystem::onCompletion(const DramRequest &request, Cycle at)
{
    if (injector_) {
        if (injector_->fire(FaultSite::DramDrop))
            return; // the response vanishes; the tracker must notice
        if (injector_->fire(FaultSite::DramDelay)) {
            delayed_.push_back(DelayedCompletion{
                at + injector_->plan().delayCycles, request});
            return;
        }
    }
    deliver(request, at);
    if (injector_ && injector_->fire(FaultSite::DramDup))
        deliver(request, at); // duplicated response; the tracker throws
}

void
DramSystem::deliver(const DramRequest &request, Cycle at)
{
    if (tracker_)
        tracker_->onComplete(request.integrityId, request.paddr,
                             request.core, request.priority, at);
    std::uint64_t bytes = timing_.transactionBytes();
    if (request.core < coreBytes_.size()) {
        coreBytes_[request.core] += bytes;
        if (request.priority)
            coreWalkBytes_[request.core] += bytes;
    }
    if (totalTracer_) {
        totalTracer_->record(at, bytes);
        if (request.core < coreTracers_.size())
            coreTracers_[request.core].record(at, bytes);
    }
    if (endLog_.enabled())
        endLog_.row(at, request.core, request.paddr, toString(request.op));
    if (traceSink_) {
        const char *kind = request.priority
                               ? "walk"
                               : (request.op == MemOp::Write ? "write"
                                                             : "read");
        traceSink_->complete(TraceEventSink::kDramPid, request.core,
                             "request", kind, request.enqueuedAt, at);
    }
    if (clientCallback_)
        clientCallback_(request, at);
}

void
DramSystem::enableTelemetry(Cycle window_cycles)
{
    totalTracer_.emplace(window_cycles);
    coreTracers_.clear();
    for (std::size_t core = 0; core < partitions_.size(); ++core)
        coreTracers_.emplace_back(window_cycles);
}

void
DramSystem::finalizeTelemetry()
{
    if (!totalTracer_)
        return;
    totalTracer_->finalize();
    for (auto &tracer : coreTracers_)
        tracer.finalize();
}

const IntervalTracer &
DramSystem::coreTelemetry(CoreId core) const
{
    // A recoverable error, not an assert: a bench asking for telemetry
    // it never enabled is a configuration mistake and must be
    // containable per-mix instead of aborting the whole sweep.
    if (coreTracers_.empty())
        fatal("coreTelemetry(", core,
              ") requested but telemetry was never enabled; call "
              "enableTelemetry()/SystemConfig::telemetryWindow first");
    if (core >= coreTracers_.size())
        fatal("coreTelemetry: core ", core, " out of range (system has ",
              coreTracers_.size(), " cores)");
    return coreTracers_[core];
}

const IntervalTracer &
DramSystem::totalTelemetry() const
{
    if (!totalTracer_.has_value())
        fatal("totalTelemetry() requested but telemetry was never enabled; "
              "call enableTelemetry()/SystemConfig::telemetryWindow first");
    return *totalTracer_;
}

std::uint64_t
DramSystem::coreBytes(CoreId core) const
{
    mnpu_assert(core < coreBytes_.size());
    return coreBytes_[core];
}

std::uint64_t
DramSystem::coreWalkBytes(CoreId core) const
{
    mnpu_assert(core < coreWalkBytes_.size());
    return coreWalkBytes_[core];
}

std::uint64_t
DramSystem::totalCounter(const std::string &stat_name) const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel->stats().counterValue(stat_name);
    return total;
}

void
DramSystem::visitStatGroups(const StatGroupVisitor &visit) const
{
    for (const auto &channel : channels_)
        visit(channel->stats());
}

double
DramSystem::peakBandwidthBytesPerSec() const
{
    return timing_.peakBandwidthBytesPerSec() *
           static_cast<double>(channels_.size());
}

double
DramSystem::totalEnergyPj(Cycle elapsed_cycles) const
{
    double total = 0;
    for (const auto &channel : channels_)
        total += channel->energyPj(elapsed_cycles);
    return total;
}

template <class Self, class Io>
void
DramSystem::visitState(Self &self, Io &io)
{
    io.section("DSYS");
    io.expect(self.channels_.size(), "DRAM system geometry mismatch");
    io.expect(self.buckets_.size(), "DRAM system geometry mismatch");
    for (auto &bucket : self.buckets_) {
        io.expect(bucket.enabled, "token-bucket enablement mismatch");
        io.d(bucket.tokens);
        io.d(bucket.ratePerCycle);
        io.d(bucket.burstCap);
        io.u64(bucket.lastRefill);
        io.b(bucket.wasBelowCost);
    }
    // Delayed completions in vector order: tick() releases them via a
    // first-minimum min_element scan, so vector order is tie-break
    // order and must restore exactly.
    io.seq(self.delayed_, [&io](auto &entry) {
        io.u64(entry.at);
        visitRequest(io, entry.request);
    });
    io.u64Vec(self.fastBusyUntil_);
    io.check(self.fastBusyUntil_.size() == self.channels_.size(),
             "fast busy-horizon count mismatch");
    io.fixedU64Vec(self.coreBytes_, "per-core byte-total count mismatch");
    io.fixedU64Vec(self.coreWalkBytes_,
                   "per-core byte-total count mismatch");
    io.expect(self.totalTracer_.has_value(), "telemetry enablement mismatch");
    if (self.totalTracer_) {
        io.state(*self.totalTracer_);
        for (auto &tracer : self.coreTracers_)
            io.state(tracer);
    }
    io.expect(!self.checkers_.empty(), "protocol-checker enablement mismatch");
    for (const auto &checker : self.checkers_)
        io.state(*checker);
    for (const auto &channel : self.channels_)
        io.state(*channel);
}

template void DramSystem::visitState(const DramSystem &, StateWriter &);

void
DramSystem::loadState(StateReader &in)
{
    visitState(*this, in);
    // A restore re-arms every enabled bucket's refill wake-up
    // (conservative), and re-primes the event-driven cache (if
    // active): every channel "due now" so the first post-restore tick
    // revisits and re-caches real bounds from the restored queues.
    for (TokenBucket &bucket : buckets_)
        bucket.refused = bucket.enabled;
    if (eventDriven_)
        setEventDriven(true);
}

} // namespace mnpu
