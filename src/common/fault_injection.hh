/**
 * @file
 * Deterministic fault injection for exercising the integrity layer
 * (integrity.hh). A FaultPlan names one fault site and the ordinal
 * opportunity at which it fires; the FaultInjector counts
 * opportunities in simulation order and triggers exactly once, so a
 * given (config, plan) pair always perturbs the same request on every
 * run — the trigger index is the "seed".
 *
 * Fault injection is a drill for the checkers: run it with
 * --check=cheap/full so the perturbation is detected and contained as
 * a SimulationError instead of silently corrupting results (or, for
 * duplicate responses with checks off, tripping an mnpu_assert abort
 * in the client).
 */

#ifndef MNPU_COMMON_FAULT_INJECTION_HH
#define MNPU_COMMON_FAULT_INJECTION_HH

#include <cstdint>
#include <string>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace mnpu
{

/**
 * Where a planned fault strikes. The Dram-, Pte-, and CoreStall
 * sites perturb the simulation itself; the Worker* sites instead drill the
 * process-isolation layer (analysis/process_pool.hh): they fire in
 * the forked sweep worker, outside any checker's reach, and are inert
 * under --isolate thread (nothing in-process ever reports their
 * opportunity — deliberately, since firing them would take down the
 * whole campaign, which is exactly what process mode exists to
 * prevent).
 */
enum class FaultSite
{
    None,       //!< no injection (the default plan)
    DramDrop,   //!< swallow a DRAM completion (response lost)
    DramDup,    //!< deliver a DRAM completion twice
    DramDelay,  //!< hold a DRAM completion for delayCycles
    PteCorrupt, //!< flip a frame bit in one translation result
    CoreStall,  //!< freeze one core's pipeline forever
    WorkerCrash, //!< hard-kill the sweep worker process (see below)
    WorkerHog,   //!< worker allocates unboundedly until a rlimit kills it
    /**
     * Snapshot drills (process-isolated workers only): SnapshotKill
     * SIGKILLs the worker right after its Nth snapshot persists, so
     * the retry must resume from that snapshot; SnapshotCorrupt
     * additionally bit-flips the snapshot at rest first, so the retry
     * must *reject* it by checksum and complete from scratch. Both
     * fire only on the first attempt (retries run undrilled) and both
     * are inert outside process mode, like the Worker* sites.
     */
    SnapshotKill,
    SnapshotCorrupt,
};

const char *toString(FaultSite site);

/**
 * Whether an armed @p site changes simulated results. The Dram-,
 * Pte-, and CoreStall sites do; the Worker* and Snapshot* sites only
 * change *which process* the (identical) simulation runs in and whether
 * it survives, so they neither feed sweepJobKey() nor force the
 * exact-fidelity fallback — a job that crashes, retries, and completes
 * (from a snapshot or from scratch) is bit-identical to a clean run
 * and may share its checkpoint records.
 */
bool perturbsSimulation(FaultSite site);

/**
 * Whether @p site drills the worker *process* (crash/hog/snapshot
 * drills) rather than the simulation. These sites never arm the
 * in-simulation FaultInjector: an armed injector disables event-mode
 * gating and the fast-fidelity resolution, which would perturb a run
 * whose results must stay bit-identical to an undrilled one.
 */
bool firesInWorkerProcess(FaultSite site);

/** One planned, deterministic fault. */
struct FaultPlan
{
    FaultSite site = FaultSite::None;

    /**
     * Fire at the Nth opportunity of @c site (1-based). For the
     * Worker* sites the opportunity counter is the worker *attempt*
     * (each attempt is a fresh process, so an in-process counter
     * would reset): the fault fires on every attempt <= triggerCount.
     * worker-crash:1 therefore crashes once and succeeds on the
     * supervisor's retry, while a large count (worker-crash:99)
     * crashes every attempt and drills the permanent-quarantine path.
     */
    std::uint64_t triggerCount = 1;

    /**
     * Hold time for DramDelay. For WorkerCrash this field instead
     * selects the flavor: a valid signal number (1..31) is raised
     * (e.g. worker-crash:1:11 dies of SIGSEGV); anything else —
     * including the default — calls abort() (SIGABRT).
     */
    Cycle delayCycles = 5000;
};

/**
 * Parse "<site>[:<n>[:<delay>]]", e.g. "dram-drop:3" or
 * "dram-delay:1:200". Sites: dram-drop, dram-dup, dram-delay,
 * pte-corrupt, core-stall, worker-crash, worker-hog, snapshot-kill,
 * snapshot-corrupt, none. For the snapshot drills the count selects
 * the Nth written snapshot. Throws FatalError on a malformed spec.
 */
FaultPlan parseFaultPlan(const std::string &spec);

/**
 * Counts opportunities for the planned site and fires exactly once.
 * Owned by one MultiCoreSystem; not thread-safe (each simulation is
 * single-threaded).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    /**
     * Report one opportunity for @p site; true exactly when this is
     * the plan's site and its triggerCount'th opportunity.
     */
    bool
    fire(FaultSite site)
    {
        if (site != plan_.site || fired_)
            return false;
        if (++seen_ < plan_.triggerCount)
            return false;
        fired_ = true;
        return true;
    }

    const FaultPlan &plan() const { return plan_; }
    bool fired() const { return fired_; }

    /**
     * Snapshot the opportunity counter so a restored run fires (or
     * refrains from firing) the planned fault exactly as the
     * uninterrupted run would have.
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io>
    static void
    visitState(Self &self, Io &io)
    {
        io.u64(self.seen_);
        io.b(self.fired_);
    }

    FaultPlan plan_;
    std::uint64_t seen_ = 0;
    bool fired_ = false;
};

} // namespace mnpu

#endif // MNPU_COMMON_FAULT_INJECTION_HH
