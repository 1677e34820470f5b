/**
 * @file
 * Span-based lifecycle tracing in the Chrome trace_event JSON format.
 *
 * A TraceEventSink buffers "complete" spans (ph:"X") and instant events
 * (ph:"i") keyed by a (pid, tid) track, then serializes them as a
 * `{"traceEvents":[...]}` document that chrome://tracing and Perfetto
 * (https://ui.perfetto.dev) open directly. Timestamps are global
 * DRAM-clock cycles; the viewer displays them as microseconds, so the
 * timeline is correct relatively (1 displayed µs == 1 DRAM cycle).
 *
 * The sink is a *passive observer* with the same discipline as the
 * integrity checkers (DESIGN.md §7): components hold a nullable pointer
 * to it and emission only ever reads simulation state, so a run with
 * tracing enabled is bit-identical to one without, and the disabled
 * fast path is a single pointer check.
 *
 * Track conventions (process metadata is emitted by MultiCoreSystem):
 *   pid 0..N-1    core <i>            tid 0 = compute (layer + tile spans)
 *   pid 100       DRAM                tid <c>       = per-core request spans
 *                                     tid 1000+<ch> = per-channel command
 *                                                     instants (ACT/PRE/RD/
 *                                                     WR/REF)
 *   pid 200       MMU / page walker   tid <c> = per-core walk spans
 */

#ifndef MNPU_COMMON_TRACE_EVENTS_HH
#define MNPU_COMMON_TRACE_EVENTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/settings.hh"
#include "common/types.hh"

namespace mnpu
{

/**
 * Detail level for --trace-out, coarsest to finest. Each level includes
 * everything below it: Layers = per-layer spans only; Tiles adds
 * per-tile compute spans; Requests adds per-DRAM-request spans, page
 * walk spans, and per-channel command instants.
 */
enum class TraceLevel
{
    Off = 0,
    Layers = 1,
    Tiles = 2,
    Requests = 3,
};

/** --obs-level / MNPU_OBS_LEVEL; built-in Tiles (common/settings.hh). */
Setting<TraceLevel> &traceLevelSetting();

const char *toString(TraceLevel level);

/**
 * Per-run observability settings, carried in SystemConfig. All fields
 * are excluded from the sweep checkpoint key: observers never change
 * simulated behavior, so a resumed record is valid regardless of what
 * was traced when it was produced.
 */
struct ObservabilityConfig
{
    /** Chrome trace_event JSON output path; empty disables tracing. */
    std::string traceOutPath;

    /** Span detail for traceOutPath; unset resolves through
     *  traceLevelSetting(). Off disables tracing even when a path is
     *  set. */
    std::optional<TraceLevel> traceLevel;

    /** Windowed metrics + final snapshot output; ".csv" selects CSV,
     *  anything else JSONL. Empty disables the export. */
    std::string metricsOutPath;

    /** Window (global cycles) for time series enabled on behalf of
     *  metricsOutPath when the run didn't already request telemetry. */
    Cycle metricsWindow = 1000;

    bool traceEnabled() const
    {
        return !traceOutPath.empty() &&
               traceLevelSetting().effective(traceLevel) != TraceLevel::Off;
    }

    bool metricsEnabled() const { return !metricsOutPath.empty(); }

    bool anyEnabled() const { return traceEnabled() || metricsEnabled(); }
};

/**
 * Fill empty output paths of @p base from the environment: MNPU_TRACE
 * → traceOutPath, MNPU_METRICS → metricsOutPath. Called at CLI/bench
 * entry — never inside MultiCoreSystem, so concurrent sweep jobs can't
 * race on one output file.
 */
ObservabilityConfig observabilityFromEnv(ObservabilityConfig base = {});

/** Buffered Chrome trace_event writer. See file header for semantics. */
class TraceEventSink
{
  public:
    /** DRAM process id in the emitted trace (cores are 0..N-1). */
    static constexpr std::uint32_t kDramPid = 100;
    /** MMU / page-walker process id. */
    static constexpr std::uint32_t kMmuPid = 200;
    /** tid offset for per-channel DRAM command tracks. */
    static constexpr std::uint32_t kChannelTidBase = 1000;

    explicit TraceEventSink(TraceLevel level) : level_(level) {}

    TraceLevel level() const { return level_; }

    /** @return whether events at @p at_least detail should be emitted. */
    bool wants(TraceLevel at_least) const { return level_ >= at_least; }

    /** Name a process track (ph:"M" process_name metadata). */
    void processName(std::uint32_t pid, const std::string &name);

    /** Name a thread track (ph:"M" thread_name metadata). */
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string &name);

    /**
     * Record a complete span (ph:"X") covering global cycles
     * [@p start, @p end]. Spans may be recorded in any order; the
     * writer leaves sorting to the viewer, as the format allows.
     */
    void complete(std::uint32_t pid, std::uint32_t tid, const char *category,
                  std::string name, Cycle start, Cycle end);

    /** Record an instant event (ph:"i", thread scope) at @p at. */
    void instant(std::uint32_t pid, std::uint32_t tid, const char *category,
                 std::string name, Cycle at);

    std::size_t eventCount() const { return events_.size(); }

    /** Serialize the full `{"traceEvents":[...]}` document. */
    std::string toJson() const;

    /** toJson() to @p path; fatal() if the file can't be created. */
    void writeFile(const std::string &path) const;

  private:
    struct Event
    {
        char phase;        // 'X', 'i', or 'M'
        std::uint32_t pid;
        std::uint32_t tid;
        const char *category; // static string; null for metadata
        std::string name;
        Cycle ts;
        Cycle dur;         // 'X' only
    };

    TraceLevel level_;
    std::vector<Event> events_;
};

} // namespace mnpu

#endif // MNPU_COMMON_TRACE_EVENTS_HH
