/**
 * @file
 * Differential property test of the DRAM channel's FR-FCFS scheduler:
 * the bank-indexed DramChannel must agree, tick for tick, with the
 * whole-queue scan it replaced (kept below as the reference, in the
 * spirit of RunBudget::perCycleReference). Seeded streams mix read and
 * write traffic over a few hot banks and rows (same-bank row conflicts
 * and hit runs), priority walk requests, two ranks with a short
 * refresh interval (refresh drains under load and after idle gaps),
 * both row policies, bounded and unbounded ticks, event-driven cycle
 * skipping, and a mid-stream snapshot restored with its slot array
 * permuted. Every tick() return, boundAfterTick(), nextEventCycle(),
 * completion, and issued command (the protocol checker's stream hash,
 * which also re-derives every timing rule) must agree, and so must the
 * DCHN snapshot bytes (the snapshot format is unchanged).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/integrity.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "dram/address_mapping.hh"
#include "dram/dram_channel.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{
namespace
{

/**
 * The former DramChannel scheduler: every pass (column, row command,
 * event bound) scans the whole SoA queue, with a min-hit-age prepass
 * guarding precharges. State, commands and snapshot bytes are what
 * DramChannel must reproduce.
 */
class ReferenceChannel
{
  public:
    ReferenceChannel(const DramTiming &timing, const AddressMapping &mapping,
                     std::uint32_t queue_depth, const std::string &name)
        : timing_(timing),
          mapping_(mapping),
          queueDepth_(queue_depth),
          minHitAge_(timing.ranks * timing.banksPerRank(), kAgeNever),
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
        for (auto &rank : ranks_) {
            rank.actWindow.assign(4, 0);
            rank.refreshDueAt = timing_.tREFI;
        }
    }

    bool canAccept(bool priority) const
    {
        std::uint32_t limit =
            priority ? queueDepth_
                     : queueDepth_ - std::min<std::uint32_t>(
                                         kPriorityReserve, queueDepth_ - 1);
        return queueSize() < limit;
    }

    void setBounding(bool on) { bounding_ = on; }
    Cycle boundAfterTick() const { return boundAfterTick_; }
    std::size_t queued() const { return q_.size(); }
    bool busy() const { return queueSize() != 0 || !completions_.empty(); }
    void setCallback(DramCallback callback) { callback_ = std::move(callback); }
    void setProtocolChecker(DramProtocolChecker *checker)
    {
        checker_ = checker;
    }

    void enqueue(const DramRequest &request, Addr local_addr, Cycle now)
    {
        if (!busy()) {
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
        Entry entry;
        entry.flat = coord.flatBank(timing_);
        entry.row = coord.row;
        entry.rank = coord.rank;
        entry.priority = request.priority ? 1 : 0;
        entry.write = request.op == MemOp::Write ? 1 : 0;
        entry.age = nextAge_++;
        entry.arrival = now;
        entry.request = request;
        q_.push_back(entry);
        if (request.priority)
            ++priorityQueued_;
    }

    bool tick(Cycle now)
    {
        while (!completions_.empty() && completions_.front().at <= now) {
            Completion done = completions_.front();
            std::pop_heap(completions_.begin(), completions_.end(),
                          std::greater<Completion>{});
            completions_.pop_back();
            if (callback_)
                callback_(done.request, done.at);
        }
        Cycle bound = kCycleNever;
        if (!completions_.empty())
            bound = std::max(completions_.front().at, now + 1);
        if (queueSize() == 0) {
            boundAfterTick_ = bound;
            return false;
        }
        maybeRefresh(now);
        Cycle *scan = bounding_ ? &bound : nullptr;
        if (tryIssueColumn(now, scan)) {
            if (bounding_)
                boundAfterTick_ = boundAfterIssue(now);
            return true;
        }
        if (tryIssueRowCommand(now, scan)) {
            if (bounding_)
                boundAfterTick_ = boundAfterIssue(now);
            return false;
        }
        if (bounding_)
            boundAfterTick_ = std::min(bound, refreshBound(now));
        return false;
    }

    Cycle nextEventCycle(Cycle now) const
    {
        Cycle next = kCycleNever;
        if (!completions_.empty())
            next = std::max(completions_.front().at, now + 1);
        if (queueSize() == 0)
            return next;
        auto consider = [&](Cycle at) {
            next = std::min(next, std::max(at, now + 1));
        };
        computeMinHitAges();
        for (std::size_t i = 0; i < queueSize() && next > now + 1; ++i) {
            const Entry &e = q_[i];
            const BankState &bank = banks_[e.flat];
            const RankState &rank = ranks_[e.rank];
            if (now >= rank.refreshDueAt) {
                consider(refreshFireCycle(e.rank));
                continue;
            }
            if (bank.openRow == static_cast<std::int64_t>(e.row)) {
                consider(std::max({bank.nextColumn, gate(e.write != 0),
                                   rank.refreshingUntil}));
            } else if (bank.openRow != -1) {
                if (minHitAge_[e.flat] >= e.age)
                    consider(std::max(bank.nextPrecharge,
                                      rank.refreshingUntil));
            } else {
                consider(std::max({bank.nextActivate, rank.nextActivate,
                                   fawGate(rank), rank.refreshingUntil}));
            }
        }
        if (next == now + 1)
            return next;
        return std::min(next, refreshBound(now));
    }

    void saveState(StateWriter &out) const
    {
        out.section("DCHN");
        out.u32(queueDepth_);
        out.u64(banks_.size());
        out.u64(ranks_.size());
        out.u64(queueSize());
        for (const Entry &e : q_) {
            out.u32(e.flat);
            out.u64(e.row);
            out.u32(e.rank);
            out.u8(e.priority);
            out.u8(e.write);
            out.u64(e.age);
            out.u64(e.arrival);
            out.u8(e.causedActivate);
            writeRequest(out, e.request);
        }
        out.u64(nextAge_);
        out.u32(priorityQueued_);
        out.u64(completions_.size());
        for (const Completion &done : completions_) {
            out.u64(done.at);
            writeRequest(out, done.request);
        }
        for (const BankState &bank : banks_) {
            out.i64(bank.openRow);
            out.u64(bank.nextActivate);
            out.u64(bank.nextColumn);
            out.u64(bank.nextPrecharge);
        }
        for (const RankState &rank : ranks_) {
            out.u64Vec(rank.actWindow);
            out.u64(rank.actPtr);
            out.u64(rank.nextActivate);
            out.u64(rank.refreshDueAt);
            out.u64(rank.refreshingUntil);
        }
        out.u64(nextColumnSame_);
        out.u64(nextColumnSwitch_);
        out.b(lastOpWasWrite_);
        out.u64(boundAfterTick_);
        stats_.saveState(out);
    }

    void loadState(StateReader &in)
    {
        in.section("DCHN");
        in.u32();
        in.u64();
        in.u64();
        q_.resize(in.u64());
        for (Entry &e : q_) {
            e.flat = in.u32();
            e.row = in.u64();
            e.rank = in.u32();
            e.priority = in.u8();
            e.write = in.u8();
            e.age = in.u64();
            e.arrival = in.u64();
            e.causedActivate = in.u8();
            e.request = readRequest(in);
        }
        nextAge_ = in.u64();
        priorityQueued_ = in.u32();
        completions_.resize(in.u64());
        for (Completion &done : completions_) {
            done.at = in.u64();
            done.request = readRequest(in);
        }
        for (BankState &bank : banks_) {
            bank.openRow = in.i64();
            bank.nextActivate = in.u64();
            bank.nextColumn = in.u64();
            bank.nextPrecharge = in.u64();
        }
        for (RankState &rank : ranks_) {
            rank.actWindow = in.u64Vec();
            rank.actPtr = in.u64();
            rank.nextActivate = in.u64();
            rank.refreshDueAt = in.u64();
            rank.refreshingUntil = in.u64();
        }
        nextColumnSame_ = in.u64();
        nextColumnSwitch_ = in.u64();
        lastOpWasWrite_ = in.b();
        boundAfterTick_ = in.u64();
        stats_.loadState(in);
    }

  private:
    static constexpr std::uint32_t kPriorityReserve = 4;
    static constexpr std::size_t kSharpBoundQueueLimit = 4;
    static constexpr std::uint64_t kAgeNever =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::size_t kNoEntry =
        std::numeric_limits<std::size_t>::max();

    struct Entry
    {
        std::uint32_t flat = 0;
        std::uint64_t row = 0;
        std::uint32_t rank = 0;
        std::uint8_t priority = 0;
        std::uint8_t write = 0;
        std::uint64_t age = 0;
        Cycle arrival = 0;
        std::uint8_t causedActivate = 0;
        DramRequest request;
    };
    struct BankState
    {
        std::int64_t openRow = -1;
        Cycle nextActivate = 0;
        Cycle nextColumn = 0;
        Cycle nextPrecharge = 0;
    };
    struct RankState
    {
        std::vector<Cycle> actWindow;
        std::size_t actPtr = 0;
        Cycle nextActivate = 0;
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

    static void writeRequest(StateWriter &out, const DramRequest &req)
    {
        out.u64(req.paddr);
        out.u8(req.op == MemOp::Write ? 1 : 0);
        out.u32(req.core);
        out.u64(req.tag);
        out.b(req.priority);
        out.u64(req.integrityId);
        out.u64(req.enqueuedAt);
    }
    static DramRequest readRequest(StateReader &in)
    {
        DramRequest req;
        req.paddr = in.u64();
        req.op = in.u8() != 0 ? MemOp::Write : MemOp::Read;
        req.core = in.u32();
        req.tag = in.u64();
        req.priority = in.b();
        req.integrityId = in.u64();
        req.enqueuedAt = in.u64();
        return req;
    }

    std::size_t queueSize() const { return q_.size(); }
    Cycle gate(bool is_write) const
    {
        return is_write == lastOpWasWrite_ ? nextColumnSame_
                                           : nextColumnSwitch_;
    }
    Cycle fawGate(const RankState &rank) const
    {
        Cycle oldest = rank.actWindow[rank.actPtr];
        return oldest == 0 ? 0 : oldest + timing_.tFAW;
    }

    void removeAt(std::size_t i)
    {
        if (i != q_.size() - 1)
            q_[i] = std::move(q_.back());
        q_.pop_back();
    }

    bool anyHitOnBank(std::uint32_t flat_bank, std::int64_t row) const
    {
        for (const Entry &e : q_)
            if (e.flat == flat_bank && static_cast<std::int64_t>(e.row) == row)
                return true;
        return false;
    }

    void computeMinHitAges() const
    {
        std::fill(minHitAge_.begin(), minHitAge_.end(), kAgeNever);
        for (const Entry &e : q_)
            if (banks_[e.flat].openRow == static_cast<std::int64_t>(e.row))
                minHitAge_[e.flat] = std::min(minHitAge_[e.flat], e.age);
    }

    bool rankCanActivate(const RankState &rank, Cycle now) const
    {
        if (now < rank.nextActivate)
            return false;
        Cycle oldest = rank.actWindow[rank.actPtr];
        return oldest == 0 || now >= oldest + timing_.tFAW;
    }

    void maybeRefresh(Cycle now)
    {
        for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
            RankState &rank = ranks_[r];
            if (now < rank.refreshDueAt || now < rank.refreshingUntil)
                continue;
            std::uint32_t base = r * timing_.banksPerRank();
            bool ready = true;
            for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b)
                ready = ready && now >= banks_[base + b].nextPrecharge;
            if (!ready)
                continue;
            if (checker_)
                checker_->onRefresh(r, now);
            for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b) {
                BankState &bank = banks_[base + b];
                bank.openRow = -1;
                bank.nextActivate =
                    std::max(bank.nextActivate, now + timing_.tRFC);
            }
            rank.refreshingUntil = now + timing_.tRFC;
            rank.refreshDueAt += timing_.tREFI;
            refreshes_.inc();
        }
    }

    Cycle refreshFireCycle(std::uint32_t rank_index) const
    {
        const RankState &rank = ranks_[rank_index];
        Cycle at = std::max(rank.refreshDueAt, rank.refreshingUntil);
        std::uint32_t base = rank_index * timing_.banksPerRank();
        for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b)
            at = std::max(at, banks_[base + b].nextPrecharge);
        return at;
    }

    bool better(const Entry &e, std::size_t best, bool best_priority,
                std::uint64_t best_age) const
    {
        bool priority = e.priority != 0;
        return best == kNoEntry || (priority && !best_priority) ||
               (priority == best_priority && e.age < best_age);
    }

    bool tryIssueColumn(Cycle now, Cycle *bound)
    {
        std::size_t best = kNoEntry;
        bool best_priority = false;
        std::uint64_t best_age = kAgeNever;
        for (std::size_t i = 0; i < q_.size(); ++i) {
            const Entry &e = q_[i];
            const BankState &bank = banks_[e.flat];
            if (bank.openRow != static_cast<std::int64_t>(e.row))
                continue;
            const RankState &rank = ranks_[e.rank];
            Cycle col_gate = gate(e.write != 0);
            if (now < rank.refreshingUntil || now >= rank.refreshDueAt ||
                now < bank.nextColumn || now < col_gate) {
                if (bound) {
                    Cycle at = now >= rank.refreshDueAt
                                   ? refreshFireCycle(e.rank)
                                   : std::max({bank.nextColumn, col_gate,
                                               rank.refreshingUntil});
                    *bound = std::min(*bound, std::max(at, now + 1));
                }
                continue;
            }
            if (better(e, best, best_priority, best_age)) {
                best = i;
                best_priority = e.priority != 0;
                best_age = e.age;
            }
        }
        if (best == kNoEntry)
            return false;

        Entry e = q_[best];
        BankState &bank = banks_[e.flat];
        bool is_write = e.write != 0;
        if (checker_)
            checker_->onColumn(e.rank, e.flat, e.row, is_write, now);
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
        if (e.causedActivate != 0)
            rowMisses_.inc();
        else
            rowHits_.inc();
        queueLatency_.sample(static_cast<double>(now - e.arrival));
        completions_.push_back(Completion{done, e.request});
        std::push_heap(completions_.begin(), completions_.end(),
                       std::greater<Completion>{});
        if (e.priority != 0)
            --priorityQueued_;
        removeAt(best);
        if (timing_.rowPolicy == RowPolicy::Closed &&
            !anyHitOnBank(e.flat, static_cast<std::int64_t>(e.row))) {
            if (checker_)
                checker_->onAutoPrecharge(e.flat, bank.nextPrecharge);
            bank.openRow = -1;
            bank.nextActivate = std::max(bank.nextActivate,
                                         bank.nextPrecharge + timing_.tRP);
        }
        return true;
    }

    bool tryIssueRowCommand(Cycle now, Cycle *bound)
    {
        computeMinHitAges();
        std::size_t best = kNoEntry;
        bool best_priority = false;
        std::uint64_t best_age = kAgeNever;
        bool best_is_precharge = false;
        for (std::size_t i = 0; i < q_.size(); ++i) {
            const Entry &e = q_[i];
            const BankState &bank = banks_[e.flat];
            const RankState &rank = ranks_[e.rank];
            auto row = static_cast<std::int64_t>(e.row);
            if (bank.openRow == row)
                continue;
            bool rank_ok =
                now >= rank.refreshingUntil && now < rank.refreshDueAt;
            bool is_precharge;
            if (bank.openRow != -1) {
                if (minHitAge_[e.flat] < e.age)
                    continue;
                if (!rank_ok || now < bank.nextPrecharge) {
                    if (bound) {
                        Cycle at = now >= rank.refreshDueAt
                                       ? refreshFireCycle(e.rank)
                                       : std::max(bank.nextPrecharge,
                                                  rank.refreshingUntil);
                        *bound = std::min(*bound, std::max(at, now + 1));
                    }
                    continue;
                }
                is_precharge = true;
            } else {
                if (!rank_ok || now < bank.nextActivate ||
                    !rankCanActivate(rank, now)) {
                    if (bound) {
                        Cycle at = now >= rank.refreshDueAt
                                       ? refreshFireCycle(e.rank)
                                       : std::max({bank.nextActivate,
                                                   rank.nextActivate,
                                                   fawGate(rank),
                                                   rank.refreshingUntil});
                        *bound = std::min(*bound, std::max(at, now + 1));
                    }
                    continue;
                }
                is_precharge = false;
            }
            if (better(e, best, best_priority, best_age)) {
                best = i;
                best_priority = e.priority != 0;
                best_age = e.age;
                best_is_precharge = is_precharge;
            }
        }
        if (best == kNoEntry)
            return false;

        Entry &e = q_[best];
        BankState &bank = banks_[e.flat];
        if (best_is_precharge) {
            if (checker_)
                checker_->onPrecharge(e.flat, now);
            bank.openRow = -1;
            bank.nextActivate =
                std::max(bank.nextActivate, now + timing_.tRP);
            return true;
        }
        RankState &rank = ranks_[e.rank];
        if (checker_)
            checker_->onActivate(e.rank, e.flat, e.row, now);
        bank.openRow = static_cast<std::int64_t>(e.row);
        bank.nextColumn = now + timing_.tRCD;
        bank.nextPrecharge = now + timing_.tRAS;
        rank.actWindow[rank.actPtr] = now;
        rank.actPtr = (rank.actPtr + 1) % rank.actWindow.size();
        rank.nextActivate = now + timing_.tRRD;
        activates_.inc();
        e.causedActivate = 1;
        return true;
    }

    Cycle refreshBound(Cycle now) const
    {
        Cycle next = kCycleNever;
        for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
            const RankState &rank = ranks_[r];
            Cycle at = now >= rank.refreshDueAt
                           ? refreshFireCycle(r)
                           : std::max(rank.refreshDueAt,
                                      rank.refreshingUntil);
            next = std::min(next, std::max(at, now + 1));
        }
        return next;
    }

    Cycle boundAfterIssue(Cycle now) const
    {
        if (queueSize() >= kSharpBoundQueueLimit)
            return now + 1;
        return nextEventCycle(now);
    }

    DramTiming timing_;
    AddressMapping mapping_;
    std::uint32_t queueDepth_;
    std::vector<Entry> q_;
    std::uint64_t nextAge_ = 0;
    std::uint32_t priorityQueued_ = 0;
    mutable std::vector<std::uint64_t> minHitAge_;
    std::vector<Completion> completions_;
    std::vector<BankState> banks_;
    std::vector<RankState> ranks_;
    Cycle nextColumnSame_ = 0;
    Cycle nextColumnSwitch_ = 0;
    bool lastOpWasWrite_ = false;
    bool bounding_ = false;
    Cycle boundAfterTick_ = 0;
    DramCallback callback_;
    DramProtocolChecker *checker_ = nullptr;
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

/** One differential scenario. */
struct StreamCase
{
    const char *name;
    std::uint64_t seed;
    RowPolicy policy;
    bool bounding;        //!< tick() computes boundAfterTick()
    bool skipToBound;     //!< event-driven stepping between arrivals
    std::uint32_t queueDepth;
    std::uint32_t hotBanks; //!< banks the traffic concentrates on
    std::uint32_t hotRows;  //!< rows per hot bank
    double writeShare;
    double priorityShare;
};

void
PrintTo(const StreamCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Two ranks and a short refresh interval: refresh drains run often. */
DramTiming
streamTiming(RowPolicy policy)
{
    DramTiming t = DramTiming::hbm2();
    t.ranks = 2;
    t.tREFI = 700;
    t.tRFC = 90;
    t.rowPolicy = policy;
    t.validate();
    return t;
}

/** Channel-local address of a coordinate under "ro-ra-bg-ba-co". */
Addr
compose(const DramTiming &t, std::uint32_t flat_bank, std::uint64_t row,
        std::uint64_t column)
{
    std::uint32_t bank = flat_bank % t.banksPerGroup;
    std::uint32_t group = flat_bank / t.banksPerGroup % t.bankGroups;
    std::uint32_t rank = flat_bank / t.banksPerRank();
    Addr body = row;
    body = (body << floorLog2(t.ranks)) | rank;
    body = (body << floorLog2(t.bankGroups)) | group;
    body = (body << floorLog2(t.banksPerGroup)) | bank;
    body = (body << floorLog2(t.columnsPerRow())) | column;
    return body << floorLog2(t.transactionBytes());
}

/** Where a DCHN snapshot keeps its queue entries. */
struct QueueLayout
{
    std::size_t countAt;    //!< u64 entry count
    std::size_t entriesAt;  //!< first entry
    std::size_t entryBytes;
    std::size_t ageAt;      //!< u64 age, within an entry
};

QueueLayout
queueLayout()
{
    QueueLayout layout{};
    StateWriter header;
    header.section("DCHN");
    header.u32(0);
    header.u64(0);
    header.u64(0);
    layout.countAt = header.bytes().size();
    header.u64(0);
    layout.entriesAt = header.bytes().size();
    StateWriter entry;
    entry.u32(0); // flat bank
    entry.u64(0); // row
    entry.u32(0); // rank
    entry.u8(0);  // priority
    entry.u8(0);  // write
    layout.ageAt = entry.bytes().size();
    entry.u64(0);   // age
    entry.u64(0);   // arrival
    entry.u8(0);    // caused activate
    entry.u64(0);   // request: paddr
    entry.u8(0);    // op
    entry.u32(0);   // core
    entry.u64(0);   // tag
    entry.b(false); // priority
    entry.u64(0);   // integrity id
    entry.u64(0);   // enqueued at
    layout.entryBytes = entry.bytes().size();
    return layout;
}

/**
 * Rewrite a DCHN snapshot with its queue entries in shuffled array
 * order; everything after the entries is copied verbatim.
 */
std::string
permuteQueueEntries(const std::string &bytes, std::mt19937_64 &rng)
{
    const QueueLayout layout = queueLayout();
    StateReader count_reader(bytes.substr(layout.countAt, 8));
    const std::uint64_t n = count_reader.u64();
    const std::size_t entries_end =
        layout.entriesAt + n * layout.entryBytes;
    EXPECT_LE(entries_end, bytes.size());
    std::vector<std::string> entries;
    for (std::uint64_t i = 0; i < n; ++i)
        entries.push_back(bytes.substr(
            layout.entriesAt + i * layout.entryBytes, layout.entryBytes));
    std::shuffle(entries.begin(), entries.end(), rng);
    std::string out = bytes.substr(0, layout.entriesAt);
    for (const std::string &e : entries)
        out += e;
    out += bytes.substr(entries_end);
    return out;
}

class DramChannelDifferential : public ::testing::TestWithParam<StreamCase>
{
};

TEST_P(DramChannelDifferential, BankIndexMatchesQueueScan)
{
    const StreamCase &c = GetParam();
    const DramTiming timing = streamTiming(c.policy);
    const AddressMapping mapping(timing);
    DramChannel channel(timing, mapping, c.queueDepth, "diff.ch");
    ReferenceChannel reference(timing, mapping, c.queueDepth, "diff.ch");
    DramProtocolChecker channel_checker(timing, "diff.ch");
    DramProtocolChecker reference_checker(timing, "diff.ch");
    channel.setProtocolChecker(&channel_checker);
    reference.setProtocolChecker(&reference_checker);
    channel.setBounding(c.bounding);
    reference.setBounding(c.bounding);

    std::vector<std::pair<std::uint64_t, Cycle>> got, want;
    channel.setCallback([&](const DramRequest &r, Cycle at) {
        got.emplace_back(r.tag, at);
    });
    reference.setCallback([&](const DramRequest &r, Cycle at) {
        want.emplace_back(r.tag, at);
    });

    auto snapshot = [](const auto &ch) {
        StateWriter out;
        ch.saveState(out);
        return out.bytes();
    };

    std::mt19937_64 rng(c.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::uint32_t banks = timing.ranks * timing.banksPerRank();
    // The hot banks straddle both ranks.
    std::vector<std::uint32_t> hot;
    for (std::uint32_t i = 0; i < c.hotBanks; ++i)
        hot.push_back((i * 7 + (i % 2) * timing.banksPerRank()) % banks);

    constexpr std::uint64_t kRequests = 6000;
    constexpr std::uint64_t kSnapshotAt = kRequests / 2;
    std::uint64_t submitted = 0;
    Cycle now = 0;
    bool snapshotted = false;
    // Traffic comes in bursts separated by idle gaps, some longer than
    // the refresh interval.
    Cycle next_arrival = 0;
    Cycle burst_until = 0;
    while ((submitted < kRequests || channel.busy()) && now < 10'000'000) {
        if (submitted < kRequests && now >= next_arrival) {
            std::uint32_t arrivals = 1 + static_cast<std::uint32_t>(rng() % 2);
            for (std::uint32_t a = 0; a < arrivals && submitted < kRequests;
                 ++a) {
                bool priority = unit(rng) < c.priorityShare;
                ASSERT_EQ(channel.canAccept(priority),
                          reference.canAccept(priority));
                if (!channel.canAccept(priority))
                    continue;
                std::uint32_t flat = unit(rng) < 0.85
                                         ? hot[rng() % hot.size()]
                                         : static_cast<std::uint32_t>(
                                               rng() % banks);
                std::uint64_t row = rng() % c.hotRows * 37 + 5;
                std::uint64_t column = rng() % timing.columnsPerRow();
                DramRequest req;
                req.paddr = compose(timing, flat, row, column);
                req.op = unit(rng) < c.writeShare ? MemOp::Write
                                                  : MemOp::Read;
                req.core = static_cast<CoreId>(rng() % 4);
                req.tag = submitted;
                req.priority = priority;
                req.enqueuedAt = now;
                channel.enqueue(req, req.paddr, now);
                reference.enqueue(req, req.paddr, now);
                ++submitted;
            }
            next_arrival = now + 1 + rng() % 4;
            if (now >= burst_until) {
                burst_until = now + 200 + rng() % 2000;
                if (unit(rng) < 0.3)
                    next_arrival = now + rng() % 3000;
            }
        }

        bool freed = channel.tick(now);
        ASSERT_EQ(freed, reference.tick(now)) << "cycle " << now;
        if (c.bounding) {
            ASSERT_EQ(channel.boundAfterTick(), reference.boundAfterTick())
                << "cycle " << now;
        }
        Cycle next = channel.nextEventCycle(now);
        ASSERT_EQ(next, reference.nextEventCycle(now)) << "cycle " << now;
        ASSERT_EQ(channel_checker.streamHash(),
                  reference_checker.streamHash())
            << "cycle " << now;
        ASSERT_EQ(got, want) << "cycle " << now;
        ASSERT_EQ(channel.busy(), reference.busy());

        if (!snapshotted && submitted >= kSnapshotAt &&
            reference.queued() >= 4) {
            // Restore both from one snapshot whose slot array order is
            // shuffled: the bank index must rebuild from ages alone.
            std::string bytes = snapshot(channel);
            ASSERT_EQ(bytes, snapshot(reference)) << "cycle " << now;
            std::string permuted = permuteQueueEntries(bytes, rng);
            StateReader in_channel(permuted);
            channel.loadState(in_channel);
            EXPECT_TRUE(in_channel.atEnd());
            StateReader in_reference(permuted);
            reference.loadState(in_reference);
            snapshotted = true;
        }

        // Step: the next cycle, or (event-driven) straight to the
        // channel's bound or the next arrival, whichever comes first.
        if (c.skipToBound) {
            Cycle to = std::max(next, now + 1);
            if (submitted < kRequests)
                to = std::min(to, std::max(next_arrival, now + 1));
            now = to;
        } else {
            ++now;
        }
    }
    EXPECT_TRUE(snapshotted);
    EXPECT_EQ(submitted, kRequests);
    EXPECT_FALSE(channel.busy());
    EXPECT_EQ(got.size(), kRequests);
    EXPECT_EQ(snapshot(channel), snapshot(reference));
    // The streams exercised what they are meant to.
    const StatGroup &stats = channel.stats();
    EXPECT_GT(stats.counterValue("row_hits"), 0u);
    EXPECT_GT(stats.counterValue("row_misses"), 0u);
    EXPECT_GT(stats.counterValue("refreshes"), 2u);
    if (c.writeShare > 0) {
        EXPECT_GT(stats.counterValue("writes"), 0u);
    }
    EXPECT_GT(channel_checker.commandsChecked(), kRequests);
}

TEST(DramChannelSnapshotTest, RejectsAgesTheIndexCannotOrder)
{
    // loadState rebuilds the per-bank lists from the entries' ages, so
    // a snapshot whose ages repeat, or run ahead of the channel's age
    // counter, cannot be restored.
    const DramTiming timing = streamTiming(RowPolicy::Open);
    const AddressMapping mapping(timing);
    DramChannel channel(timing, mapping, 16, "snap.ch");
    for (std::uint64_t tag = 0; tag < 2; ++tag) {
        DramRequest req;
        req.paddr = compose(timing, 3, 5 + tag, 0);
        req.tag = tag;
        channel.enqueue(req, req.paddr, 0);
    }
    StateWriter out;
    channel.saveState(out);
    const QueueLayout layout = queueLayout();
    auto with_second_age = [&](std::uint64_t age) {
        StateWriter field;
        field.u64(age);
        std::string bytes = out.bytes();
        bytes.replace(layout.entriesAt + layout.entryBytes + layout.ageAt,
                      8, field.bytes());
        return bytes;
    };
    DramChannel restored(timing, mapping, 16, "snap.ch");
    StateReader same_age(with_second_age(0));
    EXPECT_THROW(restored.loadState(same_age), SnapshotError);
    StateReader future_age(with_second_age(2));
    EXPECT_THROW(restored.loadState(future_age), SnapshotError);
    StateReader intact(out.bytes());
    restored.loadState(intact);
    StateWriter again;
    restored.saveState(again);
    EXPECT_EQ(again.bytes(), out.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, DramChannelDifferential,
    ::testing::Values(
        StreamCase{"open_mixed_bounded", 1, RowPolicy::Open, true, false,
                   32, 4, 3, 0.35, 0.05},
        StreamCase{"open_mixed_event_skip", 2, RowPolicy::Open, true, true,
                   32, 4, 3, 0.35, 0.05},
        StreamCase{"open_priority_walks_unbounded", 3, RowPolicy::Open,
                   false, false, 16, 3, 2, 0.2, 0.3},
        StreamCase{"open_one_bank_conflicts", 4, RowPolicy::Open, true,
                   true, 32, 1, 4, 0.4, 0.1},
        StreamCase{"open_spread_deep_queue", 5, RowPolicy::Open, true, true,
                   64, 12, 2, 0.5, 0.02},
        StreamCase{"closed_mixed_bounded", 6, RowPolicy::Closed, true,
                   false, 32, 4, 3, 0.35, 0.05},
        StreamCase{"closed_priority_event_skip", 7, RowPolicy::Closed,
                   true, true, 16, 3, 2, 0.3, 0.25},
        StreamCase{"closed_reads_unbounded", 8, RowPolicy::Closed, false,
                   false, 32, 5, 3, 0.0, 0.1}),
    [](const ::testing::TestParamInfo<StreamCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace mnpu
