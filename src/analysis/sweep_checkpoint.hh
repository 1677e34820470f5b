/**
 * @file
 * Crash-safe JSONL checkpointing for sweep campaigns.
 *
 * Each completed sweep job is appended to the checkpoint file as one
 * self-contained JSON line (serialized fully in memory first, then
 * written with a single append + flush, so a crash can at worst lose
 * the line being written — never corrupt earlier ones). On restart,
 * loadSweepCheckpoint() tolerates a truncated trailing line and hands
 * back the completed records keyed by the job's config+models hash, so
 * a killed 330-mix campaign resumes executing only the unfinished
 * jobs.
 *
 * The format is deliberately minimal, with an explicit "v" format
 * version (readers skip unknown fields, so newer writers stay
 * readable; records older than the current version are re-executed on
 * resume rather than restored incompletely). The common/json codec
 * writes and reads each line; a line it rejects, or one without a
 * "key", is a malformed record:
 *   {"key":"<16-hex FNV-1a>","v":2,"status":"ok","error":"",
 *    "wall_seconds":1.25,"models":["net0","net1"],
 *    "speedups":[...],"slowdowns":[...],
 *    "geomean_speedup":0.91,"fairness":0.88,
 *    "local_cycles":[...],"finished_at_global":[...],
 *    "pe_utilization":[...],"traffic_bytes":[...],
 *    "walk_bytes":[...],"tlb_hits":[...],"tlb_misses":[...],
 *    "walks":[...],"layer_finish_local":[[...],[...]],
 *    "global_cycles":12345,"dram_energy_pj":1.5e9,
 *    "dram_row_hits":100,"dram_row_misses":10}
 */

#ifndef MNPU_ANALYSIS_SWEEP_CHECKPOINT_HH
#define MNPU_ANALYSIS_SWEEP_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serving/request.hh"

namespace mnpu
{

/** Outcome class of one sweep job (first-class partial sweeps). */
enum class SweepStatus
{
    Ok,       //!< completed; metrics are valid
    Failed,   //!< threw FatalError (or another non-budget error)
    TimedOut, //!< blew its cycle or wall-clock budget (after retry)
    Skipped,  //!< not executed (already checkpointed, or cancelled)
    Crashed,  //!< isolated worker process died hard (signal, abort,
              //!< rlimit kill) and retries were exhausted; metrics
              //!< are NaN-poisoned like Failed. Only process
              //!< isolation can produce this — a thread-mode crash
              //!< takes the whole campaign with it.
};

const char *toString(SweepStatus status);

/**
 * Checkpoint format version written by this build. v2 added the full
 * raw telemetry (TLB/DRAM/traffic/energy counters, per-layer
 * finishes); v1 records carried only cycles, so resume re-executes
 * them instead of restoring zeroed counters.
 */
constexpr std::uint32_t kSweepCheckpointVersion = 2;

/** What survives a crash: one completed job's full outcome. */
struct SweepCheckpointRecord
{
    std::string key; //!< sweepJobKey() of the job this belongs to
    std::uint32_t version = kSweepCheckpointVersion;
    SweepStatus status = SweepStatus::Ok;
    std::string error; //!< failure message, empty when ok
    double wallSeconds = 0;
    std::vector<std::string> models;
    std::vector<double> speedups;
    std::vector<double> slowdowns;
    double geomeanSpeedup = 0;
    double fairnessValue = 0;
    // Raw SimResult telemetry: per-core parallel arrays (indexed like
    // models) plus the system-wide scalars, so a restored MixOutcome
    // is bit-identical to the executed one — benches that aggregate
    // raw counters (TLB miss rates, row hit rates, energy) see the
    // same numbers with and without --resume.
    std::vector<std::uint64_t> localCycles;
    std::vector<std::uint64_t> finishedAtGlobal;
    std::vector<double> peUtilization;
    std::vector<std::uint64_t> trafficBytes;
    std::vector<std::uint64_t> walkBytes;
    std::vector<std::uint64_t> tlbHits;
    std::vector<std::uint64_t> tlbMisses;
    std::vector<std::uint64_t> walks;
    std::vector<std::vector<std::uint64_t>> layerFinishLocal;
    std::uint64_t globalCycles = 0;
    double dramEnergyPj = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;

    /**
     * Engaged for serving jobs: the SLO summary behind `serving.*`,
     * serialized as flat "serving_*" keys only when engaged, so batch
     * records — and the committed batch goldens — stay byte-identical.
     */
    std::optional<ServingSummary> serving;
};

/**
 * Every record field after "key", "v" and "status", in the order
 * toJsonLine() writes them. parseJsonLine() reads through the same
 * list and describeGoldenDiff() compares through it, so none of them
 * can drift from the others. @p visit gets the name and the field of
 * each of @p records.
 */
template <typename Visit, typename... Record>
void
forEachField(Visit &&visit, Record &...records)
{
    visit("error", records.error...);
    visit("wall_seconds", records.wallSeconds...);
    visit("models", records.models...);
    visit("speedups", records.speedups...);
    visit("slowdowns", records.slowdowns...);
    visit("geomean_speedup", records.geomeanSpeedup...);
    visit("fairness", records.fairnessValue...);
    visit("local_cycles", records.localCycles...);
    visit("finished_at_global", records.finishedAtGlobal...);
    visit("pe_utilization", records.peUtilization...);
    visit("traffic_bytes", records.trafficBytes...);
    visit("walk_bytes", records.walkBytes...);
    visit("tlb_hits", records.tlbHits...);
    visit("tlb_misses", records.tlbMisses...);
    visit("walks", records.walks...);
    visit("layer_finish_local", records.layerFinishLocal...);
    visit("global_cycles", records.globalCycles...);
    visit("dram_energy_pj", records.dramEnergyPj...);
    visit("dram_row_hits", records.dramRowHits...);
    visit("dram_row_misses", records.dramRowMisses...);
}

/** The serving summary's flat serving_* fields, in write order. */
template <typename Visit, typename... Summary>
void
forEachServingField(Visit &&visit, Summary &...s)
{
    visit("serving_offered", s.offered...);
    visit("serving_completed", s.completed...);
    visit("serving_slo_good", s.sloGood...);
    visit("serving_rounds", s.rounds...);
    visit("serving_prefill_tokens", s.prefillTokens...);
    visit("serving_decode_tokens", s.decodeTokens...);
    visit("serving_kv_read_bytes", s.kvReadBytes...);
    visit("serving_makespan_cycles", s.makespanCycles...);
    visit("serving_ttft_p50", s.ttftP50...);
    visit("serving_ttft_p99", s.ttftP99...);
    visit("serving_ttft_mean", s.ttftMean...);
    visit("serving_tpot_p50", s.tpotP50...);
    visit("serving_tpot_p99", s.tpotP99...);
    visit("serving_latency_p50", s.latencyP50...);
    visit("serving_latency_p99", s.latencyP99...);
    visit("serving_offered_per_mcycle", s.offeredPerMcycle...);
    visit("serving_goodput_per_mcycle", s.goodputPerMcycle...);
}

/** Serialize one record as a single JSON line (no trailing newline). */
std::string toJsonLine(const SweepCheckpointRecord &record);

/**
 * Parse one JSON line. @return false (leaving @p record unspecified)
 * on malformed input — e.g. the torn tail of a killed process.
 */
bool parseJsonLine(const std::string &line, SweepCheckpointRecord &record);

/**
 * Advisory single-writer lock for a checkpoint file (and each shard
 * of one): holds an exclusive POSIX record lock (fcntl F_SETLK) on the
 * sidecar `<path>.lock`, whose content is the holder's PID. Two
 * campaigns appending to the same checkpoint would interleave records
 * from different job sets, so the second writer fails fast with a
 * message naming the holder's PID.
 *
 * A record lock belongs to its process, not to an open file
 * description: a forked worker never holds it, and a kill -9 releases
 * it before a waitpid() on the dead supervisor returns, leaving only
 * stale PID content that the next holder overwrites. (flock() followed
 * the description, so a worker forked just before its supervisor was
 * killed held the lock until the orphan got scheduled and closed its
 * copy, and a resume started at once was refused.) Process ownership
 * has two consequences: a second lock on the same path in the same
 * process is refused by an in-process table, since the kernel would
 * grant it; and the holding process must not open and close the
 * sidecar elsewhere, since closing any descriptor of a file drops the
 * process's record locks on it.
 */
class CheckpointLock
{
  public:
    /**
     * Locks `<checkpointPath>.lock`; fatal() when another process or
     * another lock in this process holds it (reporting the holder)
     * or when the sidecar cannot be created.
     */
    explicit CheckpointLock(const std::string &checkpointPath);
    ~CheckpointLock();

    CheckpointLock(const CheckpointLock &) = delete;
    CheckpointLock &operator=(const CheckpointLock &) = delete;

    const std::string &lockPath() const { return lockPath_; }

  private:
    std::string lockPath_;
    int fd_ = -1;
};

/**
 * Thread-safe appender: each append() writes one full line and
 * flushes, under a mutex, so concurrent sweep workers never interleave
 * partial records. Holds a CheckpointLock for its lifetime, so a
 * second campaign pointed at the same file fails fast instead of
 * silently mixing records.
 */
class SweepCheckpointWriter
{
  public:
    /** Opens @p path for appending; fatal() when it cannot. */
    explicit SweepCheckpointWriter(const std::string &path);
    ~SweepCheckpointWriter();

    SweepCheckpointWriter(const SweepCheckpointWriter &) = delete;
    SweepCheckpointWriter &operator=(const SweepCheckpointWriter &) =
        delete;

    void append(const SweepCheckpointRecord &record);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    CheckpointLock lock_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

/**
 * Load every well-formed record of @p path, keyed by record.key (the
 * last occurrence wins, so a retried-and-recompleted job supersedes
 * its earlier entry). A missing file is an empty checkpoint, not an
 * error; malformed lines are skipped with a warn(). An ok record
 * older than kSweepCheckpointVersion is left out (one warn() counts
 * them), so resume re-executes its job; parseJsonLine() itself still
 * accepts old lines.
 */
std::map<std::string, SweepCheckpointRecord>
loadSweepCheckpoint(const std::string &path);

/** What mergeSweepCheckpoints() saw and decided. */
struct CheckpointMergeStats
{
    std::size_t files = 0;      //!< input shard files read
    std::size_t records = 0;    //!< distinct keys in the merged output
    std::size_t duplicates = 0; //!< same-key records superseded by a winner
    std::size_t malformed = 0;  //!< unparseable lines skipped
    /**
     * Same key, both records ok, payloads differing (ignoring
     * wallSeconds): two shards claim to have completed the same job
     * with different numbers — a determinism bug or a mis-partitioned
     * campaign. The newest record still wins so the merge completes,
     * but callers should surface a nonzero count loudly.
     */
    std::size_t conflicts = 0;
};

/**
 * Union the records of @p paths (shard checkpoints of one campaign)
 * into a single list, ordered by first appearance of each key.
 * Same-key resolution: an ok record beats any non-ok record (a job
 * that crashed on one shard but completed on another is complete);
 * within the same tier the newest record — later file, later line —
 * wins. Missing files are empty shards; malformed lines are skipped
 * with a warn(). Writing the result to a fresh JSONL file yields a
 * checkpoint that --resume restores bit-identically.
 */
std::vector<SweepCheckpointRecord>
mergeSweepCheckpoints(const std::vector<std::string> &paths,
                      CheckpointMergeStats *stats = nullptr);

} // namespace mnpu

#endif // MNPU_ANALYSIS_SWEEP_CHECKPOINT_HH
