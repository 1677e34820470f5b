/**
 * @file
 * Opt-in simulation integrity layer: machine-checked invariants that
 * turn silent mis-simulation into loud, contained failures. A paper
 * reproduction whose contribution is contention-dependent timing
 * cannot rely on end-metric eyeballing — a scheduler bug in the
 * FR-FCFS engine or a lost DMA completion produces *plausible* cycle
 * counts, which is the worst failure mode. Three checker families:
 *
 *   DramProtocolChecker  — re-derives every DRAM timing constraint
 *       (tRCD, tRP, tRAS, tCCD, tWR, tRTP, tRRD, the 4-activation
 *       tFAW window, tWTR/tRTW turnaround, tRFC/tREFI refresh
 *       deadlines) from the observed ACT/PRE/RD/WR/REF command stream
 *       using its own shadow bank/rank state, independent of the
 *       channel's scheduling bookkeeping. Violations throw
 *       SimulationError{ProtocolViolation}.
 *
 *   RequestLifecycleTracker — tags every off-chip transaction the
 *       DRAM system accepts with a monotonic ID and audits
 *       issue→completion: duplicated or unknown responses, physical
 *       addresses outside DRAM capacity, responses that never arrive
 *       (lost), and an end-of-run leak audit reconciling per-core
 *       trafficBytes/walkBytes against the SW trace generator's
 *       transaction totals and the MMU's walk-step count. Violations
 *       throw SimulationError{RequestLifecycle} (or MmuConsistency
 *       for the walk-side reconciliation).
 *
 *   MMU translation re-check — lives in Mmu itself (the checker needs
 *       the page table): every completed translation is re-derived
 *       from the page allocator and compared, so a corrupted PTE (or
 *       a stale TLB entry) throws SimulationError{MmuConsistency}.
 *
 * Cost model: CheckLevel::Cheap enables only the lifecycle tracker
 * (one hash-map op per off-chip transaction); CheckLevel::Full adds
 * the per-command protocol checker and the per-translation MMU
 * re-check. CheckLevel::Off (default) compiles to a few null-pointer
 * tests on the hot path.
 *
 * Soundness note: where DramChannel is deliberately lenient (the
 * tFAW window treats a cycle-0 slot as unfilled), the checker mirrors
 * the leniency so a channel-legal schedule never trips it.
 */

#ifndef MNPU_COMMON_INTEGRITY_HH
#define MNPU_COMMON_INTEGRITY_HH

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/errors.hh"
#include "common/settings.hh"
#include "common/snapshot.hh"
#include "common/types.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{

/** How much runtime self-checking a simulation performs. */
enum class CheckLevel
{
    Off,   //!< no checking (default; no measurable overhead)
    Cheap, //!< request-lifecycle tracking + end-of-run leak audit
    Full,  //!< + DRAM protocol checker + MMU translation re-check
};

/** --check / MNPU_CHECK; built-in Off (see common/settings.hh). */
Setting<CheckLevel> &checkLevelSetting();

const char *toString(CheckLevel level);

/**
 * Shadow re-derivation of one channel's DRAM timing constraints from
 * the observed command stream. The channel reports each command it
 * issues (and each refresh-deadline catch-up after an idle gap); the
 * checker keeps its own bank/rank state and throws
 * SimulationError{ProtocolViolation} naming the violated parameter.
 */
class DramProtocolChecker
{
  public:
    DramProtocolChecker(const DramTiming &timing, std::string name);

    /** ACT @p row on @p flat_bank of @p rank at cycle @p now. */
    void onActivate(std::uint32_t rank, std::uint32_t flat_bank,
                    std::uint64_t row, Cycle now);

    /** Explicit PRE issued at cycle @p now. */
    void onPrecharge(std::uint32_t flat_bank, Cycle now);

    /**
     * Closed-page auto-precharge scheduled to take effect at
     * @p effective_at (>= the reporting cycle).
     */
    void onAutoPrecharge(std::uint32_t flat_bank, Cycle effective_at);

    /** RD/WR column command to @p row at cycle @p now. */
    void onColumn(std::uint32_t rank, std::uint32_t flat_bank,
                  std::uint64_t row, bool is_write, Cycle now);

    /** All-bank REF on @p rank at cycle @p now. */
    void onRefresh(std::uint32_t rank, Cycle now);

    /** Idle-gap catch-up: the rank's refresh deadline moved to @p due. */
    void onRefreshDeadline(std::uint32_t rank, Cycle due);

    /** Commands validated so far (proof the checker observed traffic). */
    std::uint64_t commandsChecked() const { return commands_; }

    /**
     * Order-sensitive FNV-1a hash of the observed command stream
     * (kind, rank/bank, row, cycle of every ACT/PRE/auto-PRE/RD/WR/
     * REF). Equal hashes mean the channel issued the identical
     * command sequence — the witness the differential stepping test
     * uses to prove the per-cycle reference and the event loop agree
     * below the counters.
     */
    std::uint64_t streamHash() const { return streamHash_; }

    /**
     * Snapshot the shadow bank/rank state, the running stream hash,
     * and the command count, so a restored run's final streamHash()
     * equals the uninterrupted run's — the cross-restore witness the
     * snapshot equivalence tests assert on.
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    struct BankShadow
    {
        std::int64_t openRow = -1;
        Cycle actAt = 0;          //!< valid while openRow != -1
        Cycle actAllowedAt = 0;   //!< precharge + tRP gate
        Cycle preEffectiveAt = 0; //!< when the last precharge completed
        Cycle lastReadAt = 0;     //!< 0 = no read since last precharge
        Cycle writeDoneAt = 0;    //!< write data end; 0 = no write
    };

    struct RankShadow
    {
        std::array<Cycle, 4> actWindow{}; //!< tFAW history (0 = empty)
        std::size_t actPtr = 0;
        Cycle nextActAllowedAt = 0; //!< tRRD gate
        Cycle refreshDueAt = 0;
        Cycle refreshingUntil = 0;
    };

    [[noreturn]] void violation(const char *constraint,
                                const std::string &detail) const;
    void checkPrechargeable(const BankShadow &bank, Cycle at,
                            const char *what) const;
    void mixCommand(std::uint64_t kind, std::uint64_t where,
                    std::uint64_t row, Cycle at);

    DramTiming timing_;
    std::string name_;
    std::vector<BankShadow> banks_;
    std::vector<RankShadow> ranks_;
    Cycle lastColumnAt_ = 0;
    bool lastColumnWasWrite_ = false;
    bool haveColumn_ = false;
    std::uint64_t commands_ = 0;
    std::uint64_t streamHash_ = 14695981039346656037ULL; //!< FNV-1a basis
};

/**
 * Monotonic-ID audit of every off-chip transaction accepted by the
 * DRAM system: detects duplicated/unknown and mis-addressed
 * responses online, lost responses via outstanding(), and reconciles
 * end-of-run byte totals against the SW trace and the MMU.
 */
class RequestLifecycleTracker
{
  public:
    /**
     * @param phys_capacity  total physical bytes backing the system
     * @param tx_bytes       bytes one DRAM transaction transfers
     * @param num_cores      cores whose traffic is tracked
     */
    RequestLifecycleTracker(Addr phys_capacity, std::uint32_t tx_bytes,
                            std::uint32_t num_cores);

    /**
     * Register an accepted transaction; returns its integrity ID
     * (> 0). Throws if @p paddr lies outside physical capacity.
     */
    std::uint64_t onIssue(Addr paddr, CoreId core, bool walk, Cycle now);

    /**
     * Match a completion against its issue record. Throws on an
     * unknown/duplicated ID or a mismatched address/core/class.
     */
    void onComplete(std::uint64_t id, Addr paddr, CoreId core, bool walk,
                    Cycle at);

    /** Issued-but-uncompleted transactions (lost when DRAM is idle). */
    std::size_t outstanding() const { return pending_.size(); }

    /** Error describing the currently outstanding (lost) requests. */
    SimulationError lostResponseError(Cycle now) const;

    /**
     * Expected per-core data-transaction count from the SW trace
     * (per-iteration count x iterations). Unset cores skip the trace
     * reconciliation.
     */
    void setExpectedDataTransactions(CoreId core, std::uint64_t count);

    /**
     * End-of-run leak audit: no outstanding transactions; per-core
     * completed counts x tx_bytes match the DRAM system's
     * trafficBytes/walkBytes counters; data counts match the SW trace
     * expectation; walk counts match the MMU's issued walk steps.
     */
    void finalAudit(const std::vector<std::uint64_t> &core_bytes,
                    const std::vector<std::uint64_t> &core_walk_bytes,
                    const std::vector<std::uint64_t> &mmu_walk_steps) const;

    std::uint64_t issuedCount() const { return nextId_ - 1; }

    /**
     * Snapshot the in-flight transaction table (sorted by ID for
     * deterministic bytes) and the per-core completion totals. The
     * trace expectations are reconstructed from config at build time
     * and deliberately not serialized.
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    struct Pending
    {
        Addr paddr;
        CoreId core;
        bool walk;
    };

    static constexpr std::uint64_t kNoExpectation =
        std::numeric_limits<std::uint64_t>::max();

    Addr physCapacity_;
    std::uint32_t txBytes_;
    std::uint64_t nextId_ = 1;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::vector<std::uint64_t> dataCompleted_;
    std::vector<std::uint64_t> walkCompleted_;
    std::vector<std::uint64_t> expectedDataTx_;
};

} // namespace mnpu

#endif // MNPU_COMMON_INTEGRITY_HH
