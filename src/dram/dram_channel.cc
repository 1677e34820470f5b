#include "dram/dram_channel.hh"

#include <algorithm>

#include "common/integrity.hh"
#include "common/logging.hh"

namespace mnpu
{

DramChannel::DramChannel(const DramTiming &timing,
                         const AddressMapping &mapping,
                         std::uint32_t queue_depth, const std::string &name)
    : timing_(timing),
      mapping_(mapping),
      queueDepth_(queue_depth),
      banks_(timing.ranks * timing.banksPerRank()),
      ranks_(timing.ranks),
      stats_(name),
      reads_(stats_.counter("reads")),
      writes_(stats_.counter("writes")),
      rowHits_(stats_.counter("row_hits")),
      rowMisses_(stats_.counter("row_misses")),
      bytes_(stats_.counter("bytes")),
      refreshes_(stats_.counter("refreshes")),
      activates_(stats_.counter("activates")),
      queueLatency_(stats_.distribution("queue_latency"))
{
    // A directly constructed channel (tests, tools) must reject broken
    // timing the same way DramSystem's construction path does — the
    // energy path in particular divides by clockMhz.
    timing_.validate();
    if (queue_depth == 0)
        fatal("DRAM channel queue depth must be nonzero");
    qFlat_.reserve(queue_depth);
    qRow_.reserve(queue_depth);
    qPriority_.reserve(queue_depth);
    qWrite_.reserve(queue_depth);
    qAge_.reserve(queue_depth);
    qArrival_.reserve(queue_depth);
    qCausedActivate_.reserve(queue_depth);
    qRequest_.reserve(queue_depth);
    for (std::uint32_t flat = 0; flat < banks_.size(); ++flat)
        banks_[flat].rank = flat / timing_.banksPerRank();
    for (auto &rank : ranks_) {
        rank.actWindow.assign(4, 0);
        rank.refreshDueAt = timing_.tREFI;
    }
}

void
DramChannel::enqueue(const DramRequest &request, Addr local_addr, Cycle now)
{
    mnpu_assert(canAccept(request.priority),
                "enqueue on a full DRAM channel queue");
    if (!busy()) {
        // Idle fast-forward may have skipped refresh slots; catch the
        // schedule up so a stale deadline does not stall the first burst.
        for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
            RankState &rank = ranks_[r];
            if (rank.refreshDueAt < now) {
                rank.refreshDueAt = now + timing_.tREFI;
                if (checker_)
                    checker_->onRefreshDeadline(r, rank.refreshDueAt);
            }
        }
    }
    DramCoord coord = mapping_.decode(local_addr);
    qFlat_.push_back(coord.flatBank(timing_));
    qRow_.push_back(coord.row);
    qPriority_.push_back(request.priority ? 1 : 0);
    qWrite_.push_back(request.op == MemOp::Write ? 1 : 0);
    qAge_.push_back(nextAge_++);
    qArrival_.push_back(now);
    qCausedActivate_.push_back(0);
    qRequest_.push_back(request);
    qLink_.emplace_back();
    if (request.priority)
        ++priorityQueued_;
    link(static_cast<std::uint32_t>(queueSize() - 1));
}

void
DramChannel::link(std::uint32_t slot)
{
    // Append at the tail of the bank's list: callers link slots in
    // increasing age, so each list stays oldest-first.
    std::uint32_t flat = qFlat_[slot];
    BankState &bank = banks_[flat];
    qLink_[slot] = SlotLink{bank.tail, kNil};
    if (bank.tail != kNil) {
        qLink_[bank.tail].next = slot;
    } else {
        bank.head = slot;
        bank.activePos = static_cast<std::uint32_t>(activeBanks_.size());
        activeBanks_.push_back(flat);
    }
    bank.tail = slot;
    if (isHit(slot))
        ++(qWrite_[slot] != 0 ? bank.hitWrites : bank.hitReads);
    if (qPriority_[slot] != 0)
        ++bank.priority;
}

void
DramChannel::unlink(std::uint32_t slot)
{
    BankState &bank = banks_[qFlat_[slot]];
    const SlotLink link = qLink_[slot];
    (link.prev != kNil ? qLink_[link.prev].next : bank.head) = link.next;
    (link.next != kNil ? qLink_[link.next].prev : bank.tail) = link.prev;
    if (isHit(slot))
        --(qWrite_[slot] != 0 ? bank.hitWrites : bank.hitReads);
    if (qPriority_[slot] != 0)
        --bank.priority;
    if (bank.head == kNil) {
        std::uint32_t moved = activeBanks_.back();
        activeBanks_[bank.activePos] = moved;
        banks_[moved].activePos = bank.activePos;
        activeBanks_.pop_back();
        bank.activePos = kNil;
    }
}

void
DramChannel::removeAt(std::uint32_t slot)
{
    unlink(slot);
    auto last = static_cast<std::uint32_t>(queueSize() - 1);
    if (slot != last) {
        qFlat_[slot] = qFlat_[last];
        qRow_[slot] = qRow_[last];
        qPriority_[slot] = qPriority_[last];
        qWrite_[slot] = qWrite_[last];
        qAge_[slot] = qAge_[last];
        qArrival_[slot] = qArrival_[last];
        qCausedActivate_[slot] = qCausedActivate_[last];
        qRequest_[slot] = std::move(qRequest_[last]);
        // The back slot moved: point its list neighbours at its new
        // index.
        BankState &bank = banks_[qFlat_[slot]];
        const SlotLink link = qLink_[last];
        qLink_[slot] = link;
        (link.prev != kNil ? qLink_[link.prev].next : bank.head) = slot;
        (link.next != kNil ? qLink_[link.next].prev : bank.tail) = slot;
    }
    qFlat_.pop_back();
    qRow_.pop_back();
    qPriority_.pop_back();
    qWrite_.pop_back();
    qAge_.pop_back();
    qArrival_.pop_back();
    qCausedActivate_.pop_back();
    qRequest_.pop_back();
    qLink_.pop_back();
}

void
DramChannel::countHits(std::uint32_t flat_bank)
{
    BankState &bank = banks_[flat_bank];
    bank.hitReads = 0;
    bank.hitWrites = 0;
    for (std::uint32_t slot = bank.head; slot != kNil;
         slot = qLink_[slot].next) {
        if (isHit(slot))
            ++(qWrite_[slot] != 0 ? bank.hitWrites : bank.hitReads);
    }
}

void
DramChannel::closeRow(std::uint32_t flat_bank)
{
    BankState &bank = banks_[flat_bank];
    bank.openRow = -1;
    bank.hitReads = 0;
    bank.hitWrites = 0;
}

void
DramChannel::rebuildIndex()
{
    // Link every slot in age order, whatever order the slot array is
    // in, so the lists come out oldest-first.
    for (BankState &bank : banks_) {
        bank.head = bank.tail = kNil;
        bank.hitReads = bank.hitWrites = bank.priority = 0;
        bank.activePos = kNil;
    }
    activeBanks_.clear();
    std::vector<std::uint32_t> order(queueSize());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return qAge_[a] < qAge_[b];
              });
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0 && qAge_[order[i]] == qAge_[order[i - 1]])
            throw SnapshotError("DRAM queue entries share an age");
        link(order[i]);
    }
}

bool
DramChannel::rankCanActivate(const RankState &rank, Cycle now) const
{
    if (now < rank.nextActivate)
        return false;
    // tFAW: the 4th-previous activation must be at least tFAW old.
    Cycle oldest = rank.actWindow[rank.actPtr];
    return oldest == 0 || now >= oldest + timing_.tFAW;
}

void
DramChannel::recordActivate(RankState &rank, Cycle now)
{
    rank.actWindow[rank.actPtr] = now;
    rank.actPtr = (rank.actPtr + 1) % rank.actWindow.size();
    rank.nextActivate = now + timing_.tRRD;
}

void
DramChannel::maybeRefresh(Cycle now)
{
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        RankState &rank = ranks_[r];
        if (now < rank.refreshDueAt || now < rank.refreshingUntil)
            continue;
        // All banks of the rank must be precharge-able before REF.
        bool ready = true;
        std::uint32_t base = r * timing_.banksPerRank();
        for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b) {
            if (now < banks_[base + b].nextPrecharge) {
                ready = false;
                break;
            }
        }
        if (!ready)
            continue;
        if (checker_)
            checker_->onRefresh(r, now);
        traceCommand("REF", now);
        for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b) {
            BankState &bank = banks_[base + b];
            closeRow(base + b);
            bank.nextActivate =
                std::max(bank.nextActivate, now + timing_.tRFC);
        }
        rank.refreshingUntil = now + timing_.tRFC;
        rank.refreshDueAt += timing_.tREFI;
        refreshes_.inc();
    }
}

Cycle
DramChannel::refreshFireCycle(std::uint32_t rank_index) const
{
    // Exact fire cycle of an overdue refresh: due, out of the previous
    // refresh, and every bank precharge-able. While the refresh is
    // overdue the rank's banks are frozen — columns are rejected
    // (now >= refreshDueAt) and PRE/ACT need now < refreshDueAt — so
    // no nextPrecharge can move and the max below is exact, letting a
    // refresh-blocked channel skip straight to the REF instead of
    // crawling to it cycle by cycle.
    const RankState &rank = ranks_[rank_index];
    Cycle at = std::max(rank.refreshDueAt, rank.refreshingUntil);
    std::uint32_t base = rank_index * timing_.banksPerRank();
    for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b)
        at = std::max(at, banks_[base + b].nextPrecharge);
    return at;
}

bool
DramChannel::tryIssueColumn(Cycle now, Cycle *bound)
{
    // Every column command waits on the channel's bus gate, and the
    // read<->write switch gate never opens before the same-direction
    // one: while it is closed only the bound needs the banks.
    if (now < nextColumnSame_ && !bound)
        return false;

    // FR-FCFS wants the oldest ready row hit, walk (priority) requests
    // first: the min of (priority first, then age) over the eligible
    // hits. Eligibility is decided per bank and direction — the bank,
    // its rank and the bus gate are shared by all of a bank's reads
    // (writes) — so a blocked bank contributes its bound from its hit
    // counts, and an eligible one walks its age-ordered list only to
    // its first eligible hit (to its first eligible priority hit when
    // it holds priority entries). With @p bound set, each rejected hit
    // contributes the earliest cycle its column could issue — the same
    // candidate nextEventCycle() derives — so a failed pass doubles as
    // the event-bound pass.
    const Cycle read_gate = columnGate(false);
    const Cycle write_gate = columnGate(true);
    std::uint32_t best = kNil;
    bool best_priority = false;
    std::uint64_t best_age = kAgeNever;
    for (std::uint32_t flat : activeBanks_) {
        const BankState &bank = banks_[flat];
        if (bank.hitReads + bank.hitWrites == 0)
            continue;
        const RankState &rank = ranks_[bank.rank];
        bool bank_ok = now >= rank.refreshingUntil &&
                       now < rank.refreshDueAt && now >= bank.nextColumn;
        bool read_ok = bank_ok && now >= read_gate;
        bool write_ok = bank_ok && now >= write_gate;
        if (bound) {
            auto reject = [&](Cycle gate) {
                // An overdue refresh (now >= refreshDueAt) blocks new
                // columns so the rank can drain; its exact fire cycle
                // is the candidate (the old max of already-elapsed
                // gates degenerated to now + 1 and made the event
                // scheduler crawl through the drain).
                Cycle at = now >= rank.refreshDueAt
                               ? refreshFireCycle(bank.rank)
                               : std::max({bank.nextColumn, gate,
                                           rank.refreshingUntil});
                *bound = std::min(*bound, std::max(at, now + 1));
            };
            if (bank.hitReads != 0 && !read_ok)
                reject(read_gate);
            if (bank.hitWrites != 0 && !write_ok)
                reject(write_gate);
        }
        if (!(bank.hitReads != 0 && read_ok) &&
            !(bank.hitWrites != 0 && write_ok))
            continue;
        if (best_priority && bank.priority == 0)
            continue; // no entry here can beat a priority pick
        const auto open_row = static_cast<std::uint64_t>(bank.openRow);
        std::uint32_t pick = kNil;
        for (std::uint32_t slot = bank.head; slot != kNil;
             slot = qLink_[slot].next) {
            if (qRow_[slot] != open_row ||
                !(qWrite_[slot] != 0 ? write_ok : read_ok))
                continue;
            if (qPriority_[slot] != 0) {
                pick = slot;
                break;
            }
            if (pick == kNil && !best_priority) {
                pick = slot;
                if (bank.priority == 0)
                    break;
            }
        }
        if (pick == kNil)
            continue;
        bool priority = qPriority_[pick] != 0;
        if (best == kNil || (priority && !best_priority) ||
            (priority == best_priority && qAge_[pick] < best_age)) {
            best = pick;
            best_priority = priority;
            best_age = qAge_[pick];
        }
    }
    if (best == kNil)
        return false;

    // Issue the column command for the selected entry.
    std::uint32_t flat = qFlat_[best];
    BankState &bank = banks_[flat];
    bool is_write = qWrite_[best] != 0;
    if (checker_) {
        checker_->onColumn(bank.rank, flat, qRow_[best], is_write, now);
    }
    traceCommand(is_write ? "WR" : "RD", now);
    std::uint32_t burst = timing_.burstCycles();
    Cycle bus_gap = std::max<Cycle>(timing_.tCCD, burst);
    nextColumnSame_ = now + bus_gap;
    nextColumnSwitch_ =
        now + bus_gap + (is_write ? timing_.tWTR : timing_.tRTW);
    lastOpWasWrite_ = is_write;

    Cycle done;
    if (is_write) {
        done = now + timing_.tCWL + burst;
        bank.nextPrecharge =
            std::max(bank.nextPrecharge, done + timing_.tWR);
        writes_.inc();
    } else {
        done = now + timing_.tCL + burst;
        bank.nextPrecharge =
            std::max(bank.nextPrecharge, now + timing_.tRTP);
        reads_.inc();
    }
    bytes_.inc(timing_.transactionBytes());
    if (qCausedActivate_[best] != 0)
        rowMisses_.inc();
    else
        rowHits_.inc();
    queueLatency_.sample(static_cast<double>(now - qArrival_[best]));
    completionsPush(Completion{done, qRequest_[best]});
    if (qPriority_[best] != 0)
        --priorityQueued_;
    removeAt(best);

    if (timing_.rowPolicy == RowPolicy::Closed &&
        bank.hitReads + bank.hitWrites == 0) {
        // Auto-precharge once no queued request wants this row.
        if (checker_)
            checker_->onAutoPrecharge(flat, bank.nextPrecharge);
        closeRow(flat);
        bank.nextActivate = std::max(bank.nextActivate,
                                     bank.nextPrecharge + timing_.tRP);
    }
    return true;
}

bool
DramChannel::tryIssueRowCommand(Cycle now, Cycle *bound)
{
    // Same (priority, age) selection as tryIssueColumn, over the
    // entries whose precharge or activate could issue now. All of a
    // bank's candidates share one gate, so each bank is decided once:
    // an open bank is precharge-eligible only when its oldest entry
    // misses the open row (a precharge must not close a row an older
    // request still wants; that request contributes its own column
    // candidate), and its candidates are the misses ahead of its first
    // hit. With @p bound set, a blocked bank contributes the earliest
    // cycle its row command could issue (mirroring nextEventCycle).
    std::uint32_t best = kNil;
    bool best_priority = false;
    std::uint64_t best_age = kAgeNever;
    bool best_is_precharge = false;
    for (std::uint32_t flat : activeBanks_) {
        const BankState &bank = banks_[flat];
        const RankState &rank = ranks_[bank.rank];
        bool open = bank.openRow != -1;
        if (open && isHit(bank.head))
            continue;
        bool rank_ok =
            now >= rank.refreshingUntil && now < rank.refreshDueAt;
        if (open && (!rank_ok || now < bank.nextPrecharge)) {
            if (bound) {
                Cycle at = now >= rank.refreshDueAt
                               ? refreshFireCycle(bank.rank)
                               : std::max(bank.nextPrecharge,
                                          rank.refreshingUntil);
                *bound = std::min(*bound, std::max(at, now + 1));
            }
            continue;
        }
        if (!open && (!rank_ok || now < bank.nextActivate ||
                      !rankCanActivate(rank, now))) {
            if (bound) {
                Cycle oldest = rank.actWindow[rank.actPtr];
                Cycle faw = oldest == 0 ? 0 : oldest + timing_.tFAW;
                Cycle at = now >= rank.refreshDueAt
                               ? refreshFireCycle(bank.rank)
                               : std::max({bank.nextActivate,
                                           rank.nextActivate, faw,
                                           rank.refreshingUntil});
                *bound = std::min(*bound, std::max(at, now + 1));
            }
            continue;
        }
        // The bank's pick: its first priority candidate, else its
        // oldest entry.
        std::uint32_t pick = bank.head;
        if (qPriority_[pick] == 0 && bank.priority != 0) {
            for (std::uint32_t slot = qLink_[pick].next;
                 slot != kNil && !(open && isHit(slot));
                 slot = qLink_[slot].next) {
                if (qPriority_[slot] != 0) {
                    pick = slot;
                    break;
                }
            }
        }
        bool priority = qPriority_[pick] != 0;
        if (best == kNil || (priority && !best_priority) ||
            (priority == best_priority && qAge_[pick] < best_age)) {
            best = pick;
            best_priority = priority;
            best_age = qAge_[pick];
            best_is_precharge = open;
        }
    }
    if (best == kNil)
        return false;

    std::uint32_t flat = qFlat_[best];
    BankState &bank = banks_[flat];
    if (best_is_precharge) {
        if (checker_)
            checker_->onPrecharge(flat, now);
        traceCommand("PRE", now);
        closeRow(flat);
        bank.nextActivate = std::max(bank.nextActivate, now + timing_.tRP);
        return true;
    }
    std::uint32_t rank_index = bank.rank;
    if (checker_)
        checker_->onActivate(rank_index, flat, qRow_[best], now);
    traceCommand("ACT", now);
    bank.openRow = static_cast<std::int64_t>(qRow_[best]);
    countHits(flat);
    bank.nextColumn = now + timing_.tRCD;
    bank.nextPrecharge = now + timing_.tRAS;
    recordActivate(ranks_[rank_index], now);
    activates_.inc();
    qCausedActivate_[best] = 1;
    return true;
}

Cycle
DramChannel::refreshBound(Cycle now) const
{
    // Refresh fires the first cycle a rank is due, out of its previous
    // refresh, and every bank is precharge-able. For a rank that is
    // not yet due, max(due, refreshingUntil) is a safe (under-)bound —
    // those terms only move later via commands issued at visited
    // cycles. Once the refresh is overdue the banks are frozen (no
    // command can issue on the rank), so the exact fire cycle is
    // computable and is the bound; the old max of already-elapsed
    // cycles degenerated to now + 1 and crawled through the drain.
    Cycle next = kCycleNever;
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        const RankState &rank = ranks_[r];
        Cycle at = now >= rank.refreshDueAt
                       ? refreshFireCycle(r)
                       : std::max(rank.refreshDueAt, rank.refreshingUntil);
        next = std::min(next, std::max(at, now + 1));
    }
    return next;
}

Cycle
DramChannel::boundAfterIssue(Cycle now) const
{
    // The rejection candidates gathered before an issue predate the
    // state change, so a sharp bound needs a rescan. With a deep queue
    // the channel almost certainly has a command ready within a cycle
    // or two, so the rescan saves nothing — report now + 1 and let the
    // next visit's (inevitable) issue scan double as the bound scan.
    // With a shallow queue the rescan is cheap and its sharp bound is
    // what lets idle stretches be skipped.
    if (queueSize() >= kSharpBoundQueueLimit)
        return now + 1;
    return nextEventCycle(now);
}

bool
DramChannel::tick(Cycle now)
{
    while (!completions_.empty() && completionsTop().at <= now) {
        Completion done = completionsTop();
        completionsPop();
        if (callback_)
            callback_(done.request, done.at);
    }
    Cycle bound = kCycleNever;
    if (!completions_.empty())
        bound = std::max(completionsTop().at, now + 1);
    if (queueSize() == 0) {
        boundAfterTick_ = bound;
        return false;
    }
    maybeRefresh(now);
    Cycle *scan = bounding_ ? &bound : nullptr;
    if (tryIssueColumn(now, scan)) {
        if (bounding_)
            boundAfterTick_ = boundAfterIssue(now);
        return true; // a queue slot was freed; blocked enqueuers may retry
    }
    if (tryIssueRowCommand(now, scan)) {
        if (bounding_)
            boundAfterTick_ = boundAfterIssue(now);
        return false;
    }
    // Both scans failed: their rejection candidates are the bound.
    if (bounding_)
        boundAfterTick_ = std::min(bound, refreshBound(now));
    return false;
}

double
DramChannel::energyPj(Cycle elapsed_cycles) const
{
    double command =
        static_cast<double>(activates_.value()) * timing_.eActPrePj +
        static_cast<double>(reads_.value()) * timing_.eReadPj +
        static_cast<double>(writes_.value()) * timing_.eWritePj +
        static_cast<double>(refreshes_.value()) * timing_.eRefreshPj;
    // Background: 1 mW = 1 pJ/ns; one cycle = 1e3/clockMhz ns.
    // validate() rejects clockMhz == 0, so this cannot divide by zero.
    double elapsed_ns = static_cast<double>(elapsed_cycles) * 1e3 /
                        static_cast<double>(timing_.clockMhz);
    return command + timing_.backgroundMw * elapsed_ns;
}

Cycle
DramChannel::nextEventCycle(Cycle now) const
{
    Cycle next = kCycleNever;
    if (!completions_.empty())
        next = std::max(completionsTop().at, now + 1);
    if (queueSize() == 0)
        return next; // tick() early-returns; completions are all there is

    auto consider = [&](Cycle at) {
        next = std::min(next, std::max(at, now + 1));
    };

    // One candidate per queued request: the earliest cycle whichever
    // command FR-FCFS would issue for it next could go out. Requests
    // on one bank share their candidates — a hit's depends only on its
    // direction, a miss's only on the bank — so the fold is per bank.
    // A rank with an overdue refresh contributes the refresh's exact
    // fire cycle instead — nothing can issue on it until the REF
    // (itself a state change) goes out. No candidate can clamp below
    // now + 1, so the fold stops the moment one reaches it.
    for (std::size_t i = 0; i < activeBanks_.size() && next > now + 1;
         ++i) {
        const BankState &bank = banks_[activeBanks_[i]];
        const RankState &rank = ranks_[bank.rank];
        if (now >= rank.refreshDueAt) {
            consider(refreshFireCycle(bank.rank));
            continue;
        }
        if (bank.hitReads != 0) {
            consider(std::max({bank.nextColumn, columnGate(false),
                               rank.refreshingUntil}));
        }
        if (bank.hitWrites != 0) {
            consider(std::max({bank.nextColumn, columnGate(true),
                               rank.refreshingUntil}));
        }
        if (bank.openRow != -1) {
            // No precharge while an older request still wants the open
            // row; that older entry contributes its own column
            // candidate, and queue order only changes at visited
            // cycles, so skipping the candidate cannot overshoot.
            if (!isHit(bank.head))
                consider(std::max(bank.nextPrecharge,
                                  rank.refreshingUntil));
        } else {
            Cycle oldest = rank.actWindow[rank.actPtr];
            Cycle faw = oldest == 0 ? 0 : oldest + timing_.tFAW;
            consider(std::max({bank.nextActivate, rank.nextActivate, faw,
                               rank.refreshingUntil}));
        }
    }
    if (next == now + 1)
        return next;

    // While the queue is busy refreshes fire on every rank, so each
    // rank contributes a candidate.
    return std::min(next, refreshBound(now));
}

template <class Self, class Io>
void
DramChannel::visitState(Self &self, Io &io)
{
    io.section("DCHN");
    io.expect(self.queueDepth_, "DRAM channel queue depth mismatch");
    io.expect(self.banks_.size(), "DRAM channel geometry mismatch");
    io.expect(self.ranks_.size(), "DRAM channel geometry mismatch");

    // The SoA queue in array order: the swap-with-back layout is part
    // of the state (it decides which slot later removals move), and
    // the ages restore the FCFS order loadState rebuilds the per-bank
    // lists from. The bank index itself is derived, not written.
    std::uint64_t n = self.queueSize();
    io.count(n);
    io.check(n <= self.queueDepth_, "DRAM channel queue overflows its depth");
    io.resize(self.qFlat_, n);
    io.resize(self.qRow_, n);
    io.resize(self.qPriority_, n);
    io.resize(self.qWrite_, n);
    io.resize(self.qAge_, n);
    io.resize(self.qArrival_, n);
    io.resize(self.qCausedActivate_, n);
    io.resize(self.qRequest_, n);
    io.resize(self.qLink_, n);
    for (std::size_t i = 0; i < n; ++i) {
        io.u32(self.qFlat_[i]);
        io.check(self.qFlat_[i] < self.banks_.size(),
                 "DRAM queue entry names a bad bank");
        io.u64(self.qRow_[i]);
        io.expect(self.banks_[self.qFlat_[i]].rank,
                  "DRAM queue entry names a bad rank");
        io.u8(self.qPriority_[i]);
        io.u8(self.qWrite_[i]);
        io.u64(self.qAge_[i]);
        io.u64(self.qArrival_[i]);
        io.u8(self.qCausedActivate_[i]);
        visitRequest(io, self.qRequest_[i], false);
    }
    io.u64(self.nextAge_);
    io.u32(self.priorityQueued_);
    io.check(std::none_of(self.qAge_.begin(), self.qAge_.end(),
                          [&](std::uint64_t age) {
                              return age >= self.nextAge_;
                          }),
             "DRAM queue entry is younger than its channel");

    // Completion heap array verbatim: restoring the same array yields
    // the same heap, so equal-`at` completions pop in the same order.
    io.seq(self.completions_, [&io](auto &done) {
        io.u64(done.at);
        visitRequest(io, done.request, false);
    });

    for (auto &bank : self.banks_) {
        io.i64(bank.openRow);
        io.u64(bank.nextActivate);
        io.u64(bank.nextColumn);
        io.u64(bank.nextPrecharge);
    }
    for (auto &rank : self.ranks_) {
        io.fixedU64Vec(rank.actWindow, "DRAM rank tFAW window size mismatch");
        io.u64(rank.actPtr);
        io.check(rank.actPtr < rank.actWindow.size(),
                 "DRAM rank tFAW pointer out of range");
        io.u64(rank.nextActivate);
        io.u64(rank.refreshDueAt);
        io.u64(rank.refreshingUntil);
    }
    io.u64(self.nextColumnSame_);
    io.u64(self.nextColumnSwitch_);
    io.b(self.lastOpWasWrite_);
    io.u64(self.boundAfterTick_);
    io.state(self.stats_);
}

template void DramChannel::visitState(const DramChannel &, StateWriter &);

void
DramChannel::loadState(StateReader &in)
{
    visitState(*this, in);
    rebuildIndex();
}

} // namespace mnpu
