/**
 * @file
 * Process-isolated sweep workers: a fork-based worker pool whose
 * supervisor survives anything a job can do — SIGSEGV, abort(),
 * runaway allocation, a hard livelock — and quarantines the job
 * instead of losing the campaign.
 *
 * Thread-mode sweeps (SweepRunner's default) contain *cooperative*
 * failures: exceptions, cycle budgets, wall-clock watchdogs. They
 * cannot contain a crash, because a worker thread that dereferences a
 * bad pointer takes the whole process — and the whole multi-hour
 * campaign — with it. Process mode trades a little fork overhead for
 * a hard fault boundary: each job attempt runs in its own forked
 * child under setrlimit() guards, reports its result over a private
 * scratch file in the checkpoint JSONL wire format, and the
 * supervisor turns any child death (signal, nonzero exit, blown
 * lease deadline) into a retry with exponential backoff and, when
 * retries are exhausted, a quarantined SweepStatus::Crashed record.
 *
 * Design notes (see DESIGN.md §11 for the full protocol):
 *  - fork() without exec(): the child IS the running binary, so
 *    registered in-memory workloads and the pre-warmed trace/Ideal
 *    caches are inherited copy-on-write for free. An exec()-style
 *    worker would need every bench/test to serialize its network
 *    definitions to disk.
 *  - The wire format is the checkpoint-v2 JSON line (toJsonLine /
 *    parseJsonLine) for disk and IPC alike, read by the strict
 *    common/json codec: a torn, non-JSON or over-nested line is a
 *    malformed record, never a crash. The child writes a
 *    `{"hb":<attempt>}` heartbeat line first — it has no "key", so
 *    the record parser naturally skips it — then the result line,
 *    then _exit()s (never exit(): static destructors of
 *    the forked image must not run twice).
 *  - The supervisor is a single-threaded poll loop (waitpid WNOHANG +
 *    short sleeps): no supervision threads means fork() never races a
 *    lock-holding sibling thread.
 */

#ifndef MNPU_ANALYSIS_PROCESS_POOL_HH
#define MNPU_ANALYSIS_PROCESS_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sweep_checkpoint.hh"
#include "common/settings.hh"

namespace mnpu
{

/** How a sweep layer runs its jobs. */
enum class IsolationMode
{
    Thread,  //!< in-process worker threads (fast; crash = campaign lost)
    Process, //!< forked worker processes (crash = job quarantined)
};

/** --isolate / MNPU_ISOLATE; built-in Thread (common/settings.hh). */
Setting<IsolationMode> &isolationSetting();

const char *toString(IsolationMode mode);

/**
 * True when this binary is built under ASan/TSan. Sanitizers reserve
 * terabytes of shadow address space, so the RLIMIT_AS worker guard is
 * skipped under them (and rlimit-dependent tests should skip too).
 */
bool builtWithSanitizer();

/**
 * Liveness heartbeat for process-isolated workers: appends a
 * `{"hb":0}` line to this worker's scratch file (skipped by the
 * record parser by construction — it has no "key"). The supervisor's
 * lease deadline is heartbeat-aware: scratch-file growth proves the
 * worker is computing (e.g. busy fsyncing a large snapshot), so the
 * lease clock restarts instead of declaring the worker hung. No-op
 * outside a worker child. Wire it into RunBudget::heartbeat.
 */
void processPoolHeartbeat();

/** Supervision policy for one ProcessPool. */
struct ProcessPoolOptions
{
    /** Concurrent worker processes (>= 1). */
    std::size_t workers = 1;

    /** Crash retries per job before quarantine (attempts = 1 + this). */
    std::uint32_t retries = 2;

    /**
     * First crash-retry delay; doubles per subsequent crash of the
     * same job, capped at backoffCapSeconds. A systematic crasher
     * burns its retries quickly without hammering the machine.
     */
    double backoffSeconds = 0.05;
    double backoffCapSeconds = 2.0;

    /**
     * Lease deadline = graceFactor x the attempt's wall budget: a
     * worker that blows straight past its *cooperative* watchdog by
     * this factor is hung (livelocked before reaching a watchdog
     * check), so the supervisor SIGKILLs it. No wall budget (0) means
     * no deadline — the job may legitimately run for hours.
     */
    double graceFactor = 4.0;

    /** RLIMIT_AS per worker in bytes (0 = unlimited; skipped under
     * sanitizers, see builtWithSanitizer()). */
    std::uint64_t memoryBytes = 0;

    /** RLIMIT_CPU per worker in seconds (0 = unlimited). */
    std::uint32_t cpuSeconds = 0;

    /**
     * Cooperative stop: when raised, the supervisor forwards SIGTERM
     * to every live worker, reaps them, and reports all unfinished
     * jobs as cancelled.
     */
    const std::atomic<bool> *stopToken = nullptr;
};

class ProcessPool
{
  public:
    /** What supervision concluded about one job. */
    struct Outcome
    {
        /** The worker delivered a parseable result record (which may
         * itself report a contained failure — that is the *worker's*
         * verdict, not a crash). False = quarantined after crashes. */
        bool reported = false;
        SweepCheckpointRecord record; //!< valid when reported
        std::uint32_t attempts = 1;   //!< last attempt number
        std::uint32_t crashes = 0;    //!< attempts that died hard
        double backoffSeconds = 0;    //!< total retry delay slept
        double wallSeconds = 0;       //!< supervision wall clock
        std::string crashError;       //!< last crash description
        bool cancelled = false;       //!< stop token ended the job
    };

    /**
     * Runs in the forked child. Must return the job's result record;
     * an exception escaping it is a crash. @p wallBudget is the
     * cooperative budget the supervisor derived for this attempt (0 =
     * unlimited) — pass it into the job's RunBudget so the in-child
     * watchdog and the supervisor's lease deadline agree.
     */
    using Worker = std::function<SweepCheckpointRecord(
        std::size_t index, std::uint32_t attempt, double wallBudget)>;

    /** Wall budget in seconds for (index, attempt); 0 = unlimited. */
    using Budget =
        std::function<double(std::size_t index, std::uint32_t attempt)>;

    /**
     * Whether a worker-*reported* record warrants a fresh attempt
     * (e.g. the adaptive-budget timeout escalation); crashes retry on
     * the supervisor's own policy and never consult this.
     */
    using RetryReported = std::function<bool(
        std::size_t index, std::uint32_t attempt,
        const SweepCheckpointRecord &record)>;

    /** Invoked on the supervisor thread as each job finishes. */
    using Complete =
        std::function<void(std::size_t index, const Outcome &outcome)>;

    explicit ProcessPool(const ProcessPoolOptions &options);

    /**
     * Supervise @p count jobs to completion; outcomes come back in
     * index order. Throws FatalError only for supervisor-level
     * failures (fork/scratch-file exhaustion), never for anything a
     * worker does.
     */
    std::vector<Outcome> run(std::size_t count, const Worker &worker,
                             const Budget &budget = nullptr,
                             const RetryReported &retryReported = nullptr,
                             const Complete &complete = nullptr);

  private:
    ProcessPoolOptions options_;
};

} // namespace mnpu

#endif // MNPU_ANALYSIS_PROCESS_POOL_HH
