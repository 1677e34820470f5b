/**
 * @file
 * The multi-core NPU system: instantiates cores, the shared MMU, and
 * the DRAM system according to a SystemConfig, wires completion paths,
 * and runs the global-clock event loop with idle fast-forward.
 */

#ifndef MNPU_SIM_MULTI_CORE_SYSTEM_HH
#define MNPU_SIM_MULTI_CORE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.hh"
#include "common/snapshot.hh"
#include "common/types.hh"
#include "core/npu_core.hh"
#include "mem/memory_backend.hh"
#include "mmu/mmu.hh"
#include "sim/system_config.hh"
#include "sim/watchdog.hh"
#include "sw/trace_generator.hh"

namespace mnpu
{

/**
 * Per-core outcome of a simulation.
 *
 * The scalar counters here are also published in
 * SimResult::telemetry under `core<i>.*` names; new consumers should
 * read the snapshot (one coherent view, stable schema) and treat these
 * fields as the legacy convenience form.
 */
struct CoreResult
{
    std::string workloadName;
    Cycle localCycles = 0;       //!< end-to-end cycles in the NPU clock
    Cycle finishedAtGlobal = 0;
    double peUtilization = 0.0;
    std::uint64_t trafficBytes = 0; //!< DRAM bytes moved for this core
    std::uint64_t walkBytes = 0;    //!< of which page-table-walk reads
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    std::vector<Cycle> layerFinishLocal;
};

struct SimResult
{
    std::vector<CoreResult> cores;
    Cycle globalCycles = 0; //!< when the last core finished
    double dramEnergyPj = 0; //!< DRAM energy over the whole run
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    /**
     * Run-loop iterations (visited cycles). Stepping-dependent by
     * design — the event loop's whole point is fewer of these than
     * the per-cycle reference —
     * so it is excluded from golden snapshots and checkpoints.
     */
    std::uint64_t loopIterations = 0;

    /**
     * Nonzero when this run resumed from an in-flight snapshot: the
     * global cycle / loop iteration the restored run continued from.
     * Pure accounting (proof a resumed job did not restart from
     * zero); excluded from telemetry and checkpoint records so a
     * resumed run's artifacts stay byte-identical to a clean run's.
     */
    Cycle resumedAtCycle = 0;
    std::uint64_t resumedAtIteration = 0;

    /**
     * The full metrics-registry snapshot (DESIGN.md §9 schema): every
     * component counter/gauge plus the windowed series when telemetry
     * was enabled. This is the consolidated telemetry API — consumers
     * read this instead of reaching into live components. For runs
     * restored from a checkpoint, telemetryFromResult() rebuilds the
     * stable scalar subset from the fields above.
     */
    TelemetrySnapshot telemetry;
};

/**
 * Rebuild the checkpoint-stable subset of the telemetry snapshot from
 * SimResult's scalar fields: `sim.global_cycles`, per-core `core<i>.*`
 * results, and the DRAM row/energy totals. Used when a sweep restores
 * an outcome whose live components no longer exist; an executed run's
 * full snapshot agrees with this subset metric-for-metric (the same
 * underlying reads feed both).
 */
TelemetrySnapshot telemetryFromResult(const SimResult &result);

/** One workload bound to one core. */
struct CoreBinding
{
    std::shared_ptr<const TraceGenerator> trace;
    Cycle startCycleGlobal = 0;
    std::uint32_t iterations = 1;
};

class MultiCoreSystem
{
  public:
    MultiCoreSystem(const SystemConfig &config,
                    std::vector<CoreBinding> bindings);

    /**
     * Run to completion and collect results. @p budget adds a
     * watchdog on top of the config's own maxGlobalCycles: deadlock,
     * a blown cycle budget, a wall-clock timeout, and an external
     * stop token all throw SimulationError (common/errors.hh), which
     * leaves the process — and every other run — intact.
     */
    SimResult run(const RunBudget &budget = RunBudget{});

    /**
     * The off-chip memory backend (and fabric, when configured) the
     * system was built with. This is the supported component-access
     * path: everything observable about the memory system — timing
     * echo, per-core byte counters, telemetry, stat groups — is on the
     * MemoryBackend interface.
     */
    const MemoryBackend &memory() const { return *mem_; }

    /** Backend kind the system resolved at build time. */
    MemBackendKind backendKind() const { return backendKind_; }

    /** Component access after run(). */
    const Mmu &mmu() const { return *mmu_; }
    const NpuCore &core(CoreId id) const { return *cores_[id]; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    const SystemConfig &config() const { return config_; }

    /** Check level this system actually runs at (resolved at build). */
    CheckLevel checkLevel() const { return checkLevel_; }

    /**
     * Fidelity this system actually runs at (resolved at build). May
     * be Exact even when fast was requested: an armed fault injector
     * or any integrity check level forces the cycle-exact models.
     */
    FidelityKind fidelity() const { return fidelity_; }

    /** The metrics registry all components registered with (tests). */
    const MetricsRegistry &metricsRegistry() const { return registry_; }

    /**
     * Attempt to restore full in-flight simulation state from a
     * snapshot file written by an identically configured system
     * (DESIGN.md §12). Call on a freshly built system, before run();
     * run() then continues from the snapshot point and produces
     * byte-identical results to the uninterrupted run. Returns false —
     * never throws, never aborts — when the file is missing, the
     * checksum/version/magic rejects it, or the config fingerprint
     * differs. A false return after the payload passed the envelope
     * checks may leave components partially restored: discard this
     * system and build a fresh one (the documented caller contract;
     * both the CLI and the sweep runner do exactly that).
     */
    bool tryRestoreSnapshot(const std::string &path);

  private:
    bool allDone() const;
    void setupObservability();
    void buildMetricsRegistry();
    std::uint64_t configFingerprint() const;
    void saveState(StateWriter &out, Cycle now, std::uint64_t iteration,
                   std::uint64_t service_round,
                   const WatchdogSampler &sampler) const;
    /** The "RUNL" run point, every component, then "DONE". */
    template <class Self, class Io, class Sampler>
    static void visitState(Self &self, Io &io, Cycle &now,
                           std::uint64_t &iteration,
                           std::uint64_t &service_round, Sampler &sampler);

    SystemConfig config_;
    std::vector<CoreBinding> bindings_;
    std::unique_ptr<MemoryBackend> mem_;
    MemBackendKind backendKind_ = MemBackendKind::Dram;
    std::unique_ptr<PageAllocator> allocator_;
    std::unique_ptr<PageTableModel> pageTable_;
    std::unique_ptr<Mmu> mmu_;
    std::vector<std::unique_ptr<NpuCore>> cores_;
    CheckLevel checkLevel_ = CheckLevel::Off;
    FidelityKind fidelity_ = FidelityKind::Exact;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<RequestLifecycleTracker> tracker_;

    // --- Observability layer (passive; see DESIGN.md §9). ---
    MetricsRegistry registry_;
    std::unique_ptr<TraceEventSink> traceSink_;
    /** Set at end of run(); read by registry lambdas at snapshot time. */
    Cycle finalGlobalCycles_ = 0;
    std::uint64_t finalLoopIterations_ = 0;

    // --- Snapshot/restore (tryRestoreSnapshot → run resume point). ---
    bool restored_ = false;
    Cycle resumeNow_ = 0;
    std::uint64_t resumeIteration_ = 0;
    std::uint64_t resumeServiceRound_ = 0;
    WatchdogSampler resumeSampler_;

    bool ran_ = false;
};

/**
 * Convenience: run @p trace alone on an Ideal system holding
 * @p resource_multiplier NPUs' worth of shareable resources.
 */
SimResult runIdeal(std::shared_ptr<const TraceGenerator> trace,
                   std::uint32_t resource_multiplier,
                   const NpuMemConfig &mem = NpuMemConfig::cloudNpu());

/** Convenience: co-run traces at a sharing level with default knobs. */
SimResult runMix(SharingLevel level,
                 std::vector<std::shared_ptr<const TraceGenerator>> traces,
                 const NpuMemConfig &mem = NpuMemConfig::cloudNpu());

} // namespace mnpu

#endif // MNPU_SIM_MULTI_CORE_SYSTEM_HH
