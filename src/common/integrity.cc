#include "common/integrity.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace mnpu
{

Setting<CheckLevel> &
checkLevelSetting()
{
    static Setting<CheckLevel> setting("check level", "MNPU_CHECK",
                                       CheckLevel::Off,
                                       {{"off", CheckLevel::Off},
                                        {"cheap", CheckLevel::Cheap},
                                        {"full", CheckLevel::Full}});
    return setting;
}

const char *
toString(CheckLevel level)
{
    return checkLevelSetting().toString(level);
}

// --- DramProtocolChecker ---

DramProtocolChecker::DramProtocolChecker(const DramTiming &timing,
                                         std::string name)
    : timing_(timing),
      name_(std::move(name)),
      banks_(timing.ranks * timing.banksPerRank()),
      ranks_(timing.ranks)
{
    for (auto &rank : ranks_)
        rank.refreshDueAt = timing_.tREFI;
}

void
DramProtocolChecker::violation(const char *constraint,
                               const std::string &detail) const
{
    throw SimulationError(
        SimErrorKind::ProtocolViolation,
        name_ + ": DRAM protocol violation [" + constraint + "] " + detail +
            " (timing preset '" + timing_.name + "')");
}

void
DramProtocolChecker::checkPrechargeable(const BankShadow &bank, Cycle at,
                                        const char *what) const
{
    if (bank.openRow != -1 && at < bank.actAt + timing_.tRAS)
        violation("tRAS", std::string(what) + " at cycle " +
                              std::to_string(at) + " only " +
                              std::to_string(at - bank.actAt) +
                              " cycles after ACT (tRAS=" +
                              std::to_string(timing_.tRAS) + ")");
    if (bank.writeDoneAt != 0 && at < bank.writeDoneAt + timing_.tWR)
        violation("tWR", std::string(what) + " at cycle " +
                             std::to_string(at) +
                             " before write recovery; write data ended at " +
                             std::to_string(bank.writeDoneAt) + " (tWR=" +
                             std::to_string(timing_.tWR) + ")");
    if (bank.lastReadAt != 0 && at < bank.lastReadAt + timing_.tRTP)
        violation("tRTP", std::string(what) + " at cycle " +
                              std::to_string(at) + " only " +
                              std::to_string(at - bank.lastReadAt) +
                              " cycles after a read (tRTP=" +
                              std::to_string(timing_.tRTP) + ")");
}

void
DramProtocolChecker::mixCommand(std::uint64_t kind, std::uint64_t where,
                                std::uint64_t row, Cycle at)
{
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    for (std::uint64_t word : {kind, where, row, at}) {
        for (int byte = 0; byte < 8; ++byte) {
            streamHash_ ^= (word >> (byte * 8)) & 0xffu;
            streamHash_ *= kPrime;
        }
    }
}

void
DramProtocolChecker::onActivate(std::uint32_t rank_index,
                                std::uint32_t flat_bank, std::uint64_t row,
                                Cycle now)
{
    BankShadow &bank = banks_.at(flat_bank);
    RankShadow &rank = ranks_.at(rank_index);
    ++commands_;
    mixCommand(1, flat_bank, row, now);
    if (now < rank.refreshingUntil)
        violation("tRFC", "ACT at cycle " + std::to_string(now) +
                              " while rank " + std::to_string(rank_index) +
                              " refreshes until " +
                              std::to_string(rank.refreshingUntil));
    if (now >= rank.refreshDueAt)
        violation("tREFI", "ACT at cycle " + std::to_string(now) +
                               " while rank " + std::to_string(rank_index) +
                               " refresh was due at " +
                               std::to_string(rank.refreshDueAt));
    if (bank.openRow != -1)
        violation("row-state", "ACT on bank " + std::to_string(flat_bank) +
                                   " at cycle " + std::to_string(now) +
                                   " with row " +
                                   std::to_string(bank.openRow) +
                                   " still open");
    if (now < bank.actAllowedAt)
        violation("tRP", "ACT on bank " + std::to_string(flat_bank) +
                             " at cycle " + std::to_string(now) +
                             " before precharge completes at " +
                             std::to_string(bank.actAllowedAt));
    if (now < rank.nextActAllowedAt)
        violation("tRRD", "ACT at cycle " + std::to_string(now) +
                              " only " +
                              std::to_string(now + timing_.tRRD -
                                             rank.nextActAllowedAt) +
                              " cycles after the previous ACT (tRRD=" +
                              std::to_string(timing_.tRRD) + ")");
    // tFAW: the 4th-previous ACT must be at least tFAW old. Mirrors the
    // channel's leniency of treating a cycle-0 slot as unfilled.
    const Cycle oldest = rank.actWindow[rank.actPtr];
    if (oldest != 0 && now < oldest + timing_.tFAW)
        violation("tFAW", "5th ACT in " + std::to_string(now - oldest) +
                              " cycles at cycle " + std::to_string(now) +
                              " (tFAW=" + std::to_string(timing_.tFAW) +
                              ")");
    rank.actWindow[rank.actPtr] = now;
    rank.actPtr = (rank.actPtr + 1) % rank.actWindow.size();
    rank.nextActAllowedAt = now + timing_.tRRD;
    bank.openRow = static_cast<std::int64_t>(row);
    bank.actAt = now;
    bank.lastReadAt = 0;
    bank.writeDoneAt = 0;
}

void
DramProtocolChecker::onPrecharge(std::uint32_t flat_bank, Cycle now)
{
    BankShadow &bank = banks_.at(flat_bank);
    ++commands_;
    mixCommand(2, flat_bank, 0, now);
    if (bank.openRow == -1)
        violation("row-state", "PRE on bank " + std::to_string(flat_bank) +
                                   " at cycle " + std::to_string(now) +
                                   " with no row open");
    checkPrechargeable(bank, now, "PRE");
    bank.openRow = -1;
    bank.actAllowedAt = now + timing_.tRP;
    bank.preEffectiveAt = now;
    bank.lastReadAt = 0;
    bank.writeDoneAt = 0;
}

void
DramProtocolChecker::onAutoPrecharge(std::uint32_t flat_bank,
                                     Cycle effective_at)
{
    BankShadow &bank = banks_.at(flat_bank);
    ++commands_;
    mixCommand(3, flat_bank, 0, effective_at);
    if (bank.openRow == -1)
        violation("row-state", "auto-precharge on bank " +
                                   std::to_string(flat_bank) +
                                   " with no row open");
    checkPrechargeable(bank, effective_at, "auto-precharge");
    bank.openRow = -1;
    bank.actAllowedAt = effective_at + timing_.tRP;
    bank.preEffectiveAt = effective_at;
    bank.lastReadAt = 0;
    bank.writeDoneAt = 0;
}

void
DramProtocolChecker::onColumn(std::uint32_t rank_index,
                              std::uint32_t flat_bank, std::uint64_t row,
                              bool is_write, Cycle now)
{
    BankShadow &bank = banks_.at(flat_bank);
    RankShadow &rank = ranks_.at(rank_index);
    ++commands_;
    mixCommand(is_write ? 5 : 4, flat_bank, row, now);
    const char *op = is_write ? "WR" : "RD";
    if (now < rank.refreshingUntil)
        violation("tRFC", std::string(op) + " at cycle " +
                              std::to_string(now) + " while rank " +
                              std::to_string(rank_index) +
                              " refreshes until " +
                              std::to_string(rank.refreshingUntil));
    if (now >= rank.refreshDueAt)
        violation("tREFI", std::string(op) + " at cycle " +
                               std::to_string(now) + " while rank " +
                               std::to_string(rank_index) +
                               " refresh was overdue since " +
                               std::to_string(rank.refreshDueAt));
    if (bank.openRow != static_cast<std::int64_t>(row))
        violation("row-conflict",
                  std::string(op) + " to row " + std::to_string(row) +
                      " of bank " + std::to_string(flat_bank) +
                      " at cycle " + std::to_string(now) + " while row " +
                      (bank.openRow == -1 ? std::string("<none>")
                                          : std::to_string(bank.openRow)) +
                      " is open");
    if (now < bank.actAt + timing_.tRCD)
        violation("tRCD", std::string(op) + " at cycle " +
                              std::to_string(now) + " only " +
                              std::to_string(now - bank.actAt) +
                              " cycles after ACT (tRCD=" +
                              std::to_string(timing_.tRCD) + ")");
    const Cycle bus_gap =
        std::max<Cycle>(timing_.tCCD, timing_.burstCycles());
    if (haveColumn_) {
        if (now < lastColumnAt_ + bus_gap)
            violation("tCCD", std::string(op) + " at cycle " +
                                  std::to_string(now) +
                                  " within the bus occupancy of the "
                                  "column at " +
                                  std::to_string(lastColumnAt_) +
                                  " (gap=" + std::to_string(bus_gap) + ")");
        if (is_write != lastColumnWasWrite_) {
            const Cycle turnaround =
                lastColumnWasWrite_ ? timing_.tWTR : timing_.tRTW;
            if (now < lastColumnAt_ + bus_gap + turnaround)
                violation(lastColumnWasWrite_ ? "tWTR" : "tRTW",
                          std::string(op) + " at cycle " +
                              std::to_string(now) +
                              " inside the turnaround window of the " +
                              (lastColumnWasWrite_ ? "write" : "read") +
                              " at " + std::to_string(lastColumnAt_));
        }
    }
    lastColumnAt_ = now;
    lastColumnWasWrite_ = is_write;
    haveColumn_ = true;
    if (is_write)
        bank.writeDoneAt = now + timing_.tCWL + timing_.burstCycles();
    else
        bank.lastReadAt = now;
}

void
DramProtocolChecker::onRefresh(std::uint32_t rank_index, Cycle now)
{
    RankShadow &rank = ranks_.at(rank_index);
    ++commands_;
    mixCommand(6, rank_index, 0, now);
    if (now < rank.refreshingUntil)
        violation("tRFC", "REF at cycle " + std::to_string(now) +
                              " while rank " + std::to_string(rank_index) +
                              " still refreshes until " +
                              std::to_string(rank.refreshingUntil));
    const std::uint32_t base = rank_index * timing_.banksPerRank();
    for (std::uint32_t b = 0; b < timing_.banksPerRank(); ++b) {
        BankShadow &bank = banks_.at(base + b);
        if (now < bank.preEffectiveAt)
            violation("precharge-in-flight",
                      "REF at cycle " + std::to_string(now) + " while bank " +
                          std::to_string(base + b) +
                          " precharges until " +
                          std::to_string(bank.preEffectiveAt));
        checkPrechargeable(bank, now, "REF");
        bank.openRow = -1;
        bank.preEffectiveAt = now;
        bank.lastReadAt = 0;
        bank.writeDoneAt = 0;
    }
    rank.refreshingUntil = now + timing_.tRFC;
    rank.refreshDueAt += timing_.tREFI;
}

void
DramProtocolChecker::onRefreshDeadline(std::uint32_t rank_index, Cycle due)
{
    ranks_.at(rank_index).refreshDueAt = due;
}

// --- RequestLifecycleTracker ---

RequestLifecycleTracker::RequestLifecycleTracker(Addr phys_capacity,
                                                 std::uint32_t tx_bytes,
                                                 std::uint32_t num_cores)
    : physCapacity_(phys_capacity),
      txBytes_(tx_bytes),
      dataCompleted_(num_cores, 0),
      walkCompleted_(num_cores, 0),
      expectedDataTx_(num_cores, kNoExpectation)
{}

std::uint64_t
RequestLifecycleTracker::onIssue(Addr paddr, CoreId core, bool walk,
                                 Cycle now)
{
    if (paddr >= physCapacity_ || physCapacity_ - paddr < txBytes_)
        throw SimulationError(
            SimErrorKind::RequestLifecycle,
            std::string("out-of-range ") + (walk ? "walk" : "data") +
                " request from core " + std::to_string(core) +
                " at cycle " + std::to_string(now) + ": paddr " +
                std::to_string(paddr) + " beyond physical capacity " +
                std::to_string(physCapacity_));
    const std::uint64_t id = nextId_++;
    pending_.emplace(id, Pending{paddr, core, walk});
    return id;
}

void
RequestLifecycleTracker::onComplete(std::uint64_t id, Addr paddr,
                                    CoreId core, bool walk, Cycle at)
{
    auto found = pending_.find(id);
    if (found == pending_.end())
        throw SimulationError(
            SimErrorKind::RequestLifecycle,
            "duplicated or unknown DRAM response (integrity id " +
                std::to_string(id) + ") for core " + std::to_string(core) +
                " at cycle " + std::to_string(at) +
                (id == 0 || id >= nextId_
                     ? ": never issued"
                     : ": already completed once"));
    const Pending &issued = found->second;
    if (issued.paddr != paddr || issued.core != core || issued.walk != walk)
        throw SimulationError(
            SimErrorKind::RequestLifecycle,
            "DRAM response does not match its issue record (integrity id " +
                std::to_string(id) + "): issued paddr=" +
                std::to_string(issued.paddr) + " core=" +
                std::to_string(issued.core) + " walk=" +
                std::to_string(issued.walk) + ", completed paddr=" +
                std::to_string(paddr) + " core=" + std::to_string(core) +
                " walk=" + std::to_string(walk));
    if (core < dataCompleted_.size()) {
        if (walk)
            ++walkCompleted_[core];
        else
            ++dataCompleted_[core];
    }
    pending_.erase(found);
}

SimulationError
RequestLifecycleTracker::lostResponseError(Cycle now) const
{
    std::string message =
        "lost DRAM response: " + std::to_string(pending_.size()) +
        " issued transaction(s) never completed and the DRAM system is "
        "idle at cycle " +
        std::to_string(now);
    std::size_t listed = 0;
    for (const auto &entry : pending_) {
        if (++listed > 4) {
            message += ", ...";
            break;
        }
        message += (listed == 1 ? ": " : ", ");
        message += "[id " + std::to_string(entry.first) + " core " +
                   std::to_string(entry.second.core) +
                   (entry.second.walk ? " walk" : " data") + "]";
    }
    return SimulationError(SimErrorKind::RequestLifecycle, message);
}

void
RequestLifecycleTracker::setExpectedDataTransactions(CoreId core,
                                                     std::uint64_t count)
{
    if (core < expectedDataTx_.size())
        expectedDataTx_[core] = count;
}

void
RequestLifecycleTracker::finalAudit(
    const std::vector<std::uint64_t> &core_bytes,
    const std::vector<std::uint64_t> &core_walk_bytes,
    const std::vector<std::uint64_t> &mmu_walk_steps) const
{
    if (!pending_.empty())
        throw lostResponseError(0);
    for (CoreId core = 0; core < dataCompleted_.size(); ++core) {
        const std::uint64_t bytes =
            core < core_bytes.size() ? core_bytes[core] : 0;
        const std::uint64_t walk_bytes =
            core < core_walk_bytes.size() ? core_walk_bytes[core] : 0;
        const std::uint64_t data_bytes = bytes - walk_bytes;
        if (dataCompleted_[core] * txBytes_ != data_bytes)
            throw SimulationError(
                SimErrorKind::RequestLifecycle,
                "leak audit: core " + std::to_string(core) + " completed " +
                    std::to_string(dataCompleted_[core]) +
                    " data transactions (x" + std::to_string(txBytes_) +
                    " B) but the DRAM system accounted " +
                    std::to_string(data_bytes) + " data bytes");
        if (walkCompleted_[core] * txBytes_ != walk_bytes)
            throw SimulationError(
                SimErrorKind::MmuConsistency,
                "leak audit: core " + std::to_string(core) + " completed " +
                    std::to_string(walkCompleted_[core]) +
                    " walk transactions (x" + std::to_string(txBytes_) +
                    " B) but the DRAM system accounted " +
                    std::to_string(walk_bytes) + " walk bytes");
        if (core < mmu_walk_steps.size() &&
            walkCompleted_[core] != mmu_walk_steps[core])
            throw SimulationError(
                SimErrorKind::MmuConsistency,
                "walk reconciliation: core " + std::to_string(core) +
                    " completed " + std::to_string(walkCompleted_[core]) +
                    " walk transactions but the MMU issued " +
                    std::to_string(mmu_walk_steps[core]) + " walk steps");
        if (expectedDataTx_[core] != kNoExpectation &&
            dataCompleted_[core] != expectedDataTx_[core])
            throw SimulationError(
                SimErrorKind::RequestLifecycle,
                "trace reconciliation: core " + std::to_string(core) +
                    " completed " + std::to_string(dataCompleted_[core]) +
                    " data transactions but the SW trace emits " +
                    std::to_string(expectedDataTx_[core]));
    }
}

template <class Self, class Io>
void
DramProtocolChecker::visitState(Self &self, Io &io)
{
    io.section("PCHK");
    io.expect(self.banks_.size(), "protocol checker bank count mismatch");
    for (auto &bank : self.banks_) {
        io.i64(bank.openRow);
        io.u64(bank.actAt);
        io.u64(bank.actAllowedAt);
        io.u64(bank.preEffectiveAt);
        io.u64(bank.lastReadAt);
        io.u64(bank.writeDoneAt);
    }
    io.expect(self.ranks_.size(), "protocol checker rank count mismatch");
    for (auto &rank : self.ranks_) {
        for (auto &at : rank.actWindow)
            io.u64(at);
        io.u64(rank.actPtr);
        io.check(rank.actPtr < rank.actWindow.size(),
                 "protocol checker actPtr out of range");
        io.u64(rank.nextActAllowedAt);
        io.u64(rank.refreshDueAt);
        io.u64(rank.refreshingUntil);
    }
    io.u64(self.lastColumnAt_);
    io.b(self.lastColumnWasWrite_);
    io.b(self.haveColumn_);
    io.u64(self.commands_);
    io.u64(self.streamHash_);
}

template void DramProtocolChecker::visitState(
    const DramProtocolChecker &, StateWriter &);
template void DramProtocolChecker::visitState(
    DramProtocolChecker &, StateReader &);

template <class Self, class Io>
void
RequestLifecycleTracker::visitState(Self &self, Io &io)
{
    io.section("LIFE");
    io.u64(self.nextId_);
    io.sortedMap(self.pending_, [&io](auto &entry) {
        io.u64(entry.paddr);
        io.u32(entry.core);
        io.b(entry.walk);
    });
    io.fixedU64Vec(self.dataCompleted_,
                   "lifecycle tracker core count mismatch");
    io.fixedU64Vec(self.walkCompleted_,
                   "lifecycle tracker core count mismatch");
}

template void RequestLifecycleTracker::visitState(
    const RequestLifecycleTracker &, StateWriter &);
template void RequestLifecycleTracker::visitState(
    RequestLifecycleTracker &, StateReader &);

} // namespace mnpu
