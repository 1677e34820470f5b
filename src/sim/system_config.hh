/**
 * @file
 * Whole-system configuration: the paper's sharing levels (§4.1.3) and
 * per-NPU memory-side resource budgets (Table 2), plus the partition-
 * ratio overrides used by the Fig. 9/13 sweeps.
 */

#ifndef MNPU_SIM_SYSTEM_CONFIG_HH
#define MNPU_SIM_SYSTEM_CONFIG_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injection.hh"
#include "common/fidelity.hh"
#include "common/integrity.hh"
#include "common/snapshot.hh"
#include "common/trace_events.hh"
#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "mem/memory_backend.hh"
#include "serving/serving_config.hh"

namespace mnpu
{

/**
 * Cumulative sharing levels: Static partitions everything equally; +D
 * shares DRAM bandwidth; +DW also shares page-table walkers; +DWT also
 * shares the TLB. Ideal gives one core the whole multi-NPU resource
 * budget with no co-runner.
 */
enum class SharingLevel { Ideal, Static, ShareD, ShareDW, ShareDWT };

const char *toString(SharingLevel level);

/** Per-NPU memory-side budgets; totals scale with the core count. */
struct NpuMemConfig
{
    DramTiming timing = DramTiming::hbm2();
    std::uint32_t channelsPerNpu = 4;    //!< 4 x 32 GB/s = 128 GB/s
    std::uint64_t dramCapacityPerNpu = 4ULL << 30;
    std::uint32_t tlbEntriesPerNpu = 2048;
    std::uint32_t tlbWays = 8;
    std::uint32_t ptwPerNpu = 8;
    std::uint64_t pageBytes = 4096;
    std::uint32_t dramQueueDepth = 32;
    bool translationEnabled = true;

    /**
     * Off-chip backend kind. Unset defers to the process default
     * (--mem-backend) and then the MNPU_MEM_BACKEND environment
     * variable; see memBackendSetting(). The default (DRAM) is
     * the paper's HBM2 model and is excluded from the sweep checkpoint
     * key so historical checkpoints keep resuming; any other kind
     * feeds the key.
     */
    std::optional<MemBackendKind> backend;

    /** Slow-media knobs, used when the resolved backend is PCM/tiered. */
    PcmConfig pcm;

    /** Inter-core XBar fabric between the cores and the backend. */
    FabricConfig fabric;

    /** Table 2's cloud-scale configuration (the defaults). */
    static NpuMemConfig cloudNpu() { return NpuMemConfig{}; }
};

/**
 * Watchdog budget for one MultiCoreSystem::run(): every limit is
 * checked cooperatively inside the event loop and blowing one throws
 * SimulationError (common/errors.hh) instead of aborting, so a sweep
 * layer can contain a livelocked or runaway mix per job. Zero / null
 * fields are unlimited.
 */
struct RunBudget
{
    /** Global-cycle cap on top of SystemConfig::maxGlobalCycles. */
    Cycle maxGlobalCycles = 0;

    /** Wall-clock limit in seconds for this run (watchdog). */
    double wallClockSeconds = 0;

    /**
     * External cooperative stop token: when it becomes true the run
     * throws SimulationError(Cancelled) at the next loop check.
     */
    const std::atomic<bool> *stopToken = nullptr;

    bool unlimited() const
    {
        return maxGlobalCycles == 0 && wallClockSeconds <= 0 &&
               stopToken == nullptr;
    }

    // New members go at the end: RunBudget is aggregate-initialized
    // positionally in several call sites and tests.

    /**
     * Durable in-flight snapshot policy for this run (disabled when
     * the path is empty). Snapshot writes are passive — pure const
     * reads of simulator state — so a snapshotting run is
     * bit-identical to a non-snapshotting one; the cadence is
     * therefore excluded from the sweep checkpoint key.
     */
    SnapshotPolicy snapshot;

    /**
     * Liveness heartbeat, invoked from the run loop's watchdog samples
     * (rate-limited to roughly twice a second). Process-isolated sweep
     * workers use it to tell the supervisor "still computing" so a
     * worker busy fsyncing a large snapshot is not declared hung by
     * the lease deadline. Must be cheap and must not touch simulator
     * state.
     */
    std::function<void()> heartbeat;

    /**
     * Per-cycle reference stepping (DESIGN.md §8), for tests only: tick
     * every component and advance to now + 1 instead of the gated event
     * loop. The bound contract makes it bit-identical to the default
     * run, so no flag, environment variable, config key or checkpoint
     * key exposes it; differential tests flip it to prove exactly that.
     */
    bool perCycleReference = false;
};

struct SystemConfig
{
    SharingLevel level = SharingLevel::ShareDWT;
    NpuMemConfig mem;

    /**
     * Ideal runs give the single core this many NPUs' worth of every
     * shareable resource (e.g. 2 for the dual-core Ideal baseline).
     * Must be 1 unless level == Ideal.
     */
    std::uint32_t idealResourceMultiplier = 1;

    /**
     * Fig. 9: explicit static bandwidth shares (e.g. {1,7} splits the
     * shared DRAM's peak bandwidth 1:7 via per-core rate caps). The DRAM
     * structure itself stays shared, as in mNPUsim.
     */
    std::optional<std::vector<std::uint32_t>> dramBandwidthShares;

    /** Fig. 13: explicit per-core PTW quotas (static ratios). */
    std::optional<std::vector<std::uint32_t>> ptwQuota;

    /** Bounded PTW sharing (per-core min/max occupancy). */
    std::optional<std::vector<std::uint32_t>> ptwMin;
    std::optional<std::vector<std::uint32_t>> ptwMax;

    /**
     * DWS-style walker stealing: static quotas, but a core may exceed
     * its quota while every other core's walk queue is idle. Overrides
     * the level's default PTW mode.
     */
    bool ptwStealing = false;

    /** DRAM bandwidth telemetry window (0 = disabled), Fig. 12. */
    Cycle telemetryWindow = 0;

    /** Per-core DMA request-rate trace window (0 = disabled), Fig. 2b. */
    Cycle requestTraceWindow = 0;

    /**
     * Safety cap; throws SimulationError(CycleBudget) when exceeded
     * (0 = unlimited).
     */
    Cycle maxGlobalCycles = 0;

    /**
     * When non-empty, write §3.2.2 request logs (dram.log, dramreq.log,
     * tlb<i>.log, tlb<i>_ptw.log) into this directory.
     */
    std::string requestLogDir;

    /**
     * Integrity-layer level for this run. Unset defers to the process
     * default (--check) and then the MNPU_CHECK environment variable;
     * see checkLevelSetting(). Checkers are passive observers —
     * they never change simulated timing — so this field is excluded
     * from the sweep checkpoint key.
     */
    std::optional<CheckLevel> checkLevel;

    /**
     * Model fidelity for this run. Unset defers to the process
     * default (--fidelity) and then the MNPU_FIDELITY environment
     * variable; see fidelitySetting(). Unlike checkLevel, fast
     * fidelity is NOT passive — it changes simulated cycle counts
     * within a measured envelope — so when the run
     * resolves to fast (see resolvedFidelityKind()) it DOES feed the
     * sweep checkpoint key; exact stays excluded so existing
     * checkpoints keep resuming.
     */
    std::optional<FidelityKind> fidelity;

    /**
     * Deterministic fault to inject (integrity-layer drill). The
     * default plan (site None) injects nothing. Meant to be combined
     * with checkLevel >= Cheap so the perturbation is detected and
     * contained instead of silently corrupting metrics.
     */
    FaultPlan faultPlan;

    /**
     * Request-level serving mode (DESIGN.md §13). When engaged,
     * ExperimentContext::runMix dispatches the job to the serving
     * engine instead of a batch mix: the models vector then gives the
     * core count and per-core model, and the outcome carries a
     * ServingSummary. Every field of ServingConfig is simulation-
     * visible, so — unlike the passive knobs above — the whole struct
     * feeds the sweep checkpoint key when engaged (header-only
     * serving_config.hh keeps sim/ free of a serving link dependency).
     */
    std::optional<ServingConfig> serving;

    /**
     * Observability outputs (--trace-out / --metrics-out / --obs-level).
     * Like checkLevel, observers are passive — a run
     * with tracing on is bit-identical to one with it off — so these
     * fields are excluded from the sweep checkpoint key. Environment
     * fallbacks (MNPU_TRACE/MNPU_METRICS) are resolved at CLI/bench
     * entry via observabilityFromEnv(), never here, so concurrent
     * sweep jobs cannot race on one output file.
     */
    ObservabilityConfig obs;
};

} // namespace mnpu

#endif // MNPU_SIM_SYSTEM_CONFIG_HH
