#include "common/trace_events.hh"

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace mnpu
{

Setting<TraceLevel> &
traceLevelSetting()
{
    static Setting<TraceLevel> setting("trace level", "MNPU_OBS_LEVEL",
                                       TraceLevel::Tiles,
                                       {{"off", TraceLevel::Off},
                                        {"layers", TraceLevel::Layers},
                                        {"tiles", TraceLevel::Tiles},
                                        {"requests", TraceLevel::Requests}});
    return setting;
}

const char *
toString(TraceLevel level)
{
    return traceLevelSetting().toString(level);
}

ObservabilityConfig
observabilityFromEnv(ObservabilityConfig base)
{
    if (base.traceOutPath.empty())
        base.traceOutPath = envValue("MNPU_TRACE").value_or("");
    if (base.metricsOutPath.empty())
        base.metricsOutPath = envValue("MNPU_METRICS").value_or("");
    return base;
}

void
TraceEventSink::processName(std::uint32_t pid, const std::string &name)
{
    events_.push_back(Event{'M', pid, 0, nullptr, name, 0, 0});
}

void
TraceEventSink::threadName(std::uint32_t pid, std::uint32_t tid,
                           const std::string &name)
{
    // Distinguished from process_name at write time by tid != 0 never
    // being enough (tid 0 is a real thread), so carry it in the phase:
    // 'M' + null category = process_name, 'M' + non-null = thread_name.
    events_.push_back(Event{'M', pid, tid, "t", name, 0, 0});
}

void
TraceEventSink::complete(std::uint32_t pid, std::uint32_t tid,
                         const char *category, std::string name, Cycle start,
                         Cycle end)
{
    Cycle dur = end >= start ? end - start : 0;
    events_.push_back(
        Event{'X', pid, tid, category, std::move(name), start, dur});
}

void
TraceEventSink::instant(std::uint32_t pid, std::uint32_t tid,
                        const char *category, std::string name, Cycle at)
{
    events_.push_back(Event{'i', pid, tid, category, std::move(name), at, 0});
}

std::string
TraceEventSink::toJson() const
{
    std::string text = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &event = events_[i];
        if (i)
            text += ",\n";
        text += "{\"ph\":";
        json::appendString(text, std::string_view(&event.phase, 1));
        json::appendField(text, "pid", event.pid);
        json::appendField(text, "tid", event.tid);
        if (event.phase == 'M') {
            json::appendField(text, "name", event.category ? "thread_name"
                                                           : "process_name");
            text += ",\"args\":{\"name\":";
            json::appendString(text, event.name);
            text += "}}";
            continue;
        }
        json::appendField(text, "cat", event.category ? event.category : "");
        json::appendField(text, "name", event.name);
        json::appendField(text, "ts", event.ts);
        if (event.phase == 'X')
            json::appendField(text, "dur", event.dur);
        else
            json::appendField(text, "s", "t");
        text += "}";
    }
    // displayTimeUnit is cosmetic; timestamps are DRAM-clock cycles.
    text += "],\"displayTimeUnit\":\"ns\"}\n";
    return text;
}

void
TraceEventSink::writeFile(const std::string &path) const
{
    // Render fully in memory, then publish atomically: the event
    // array is always finalized (closing brackets present), and a
    // process dying mid-write can never leave a truncated JSON file
    // at the published path.
    std::string error;
    if (!atomicWriteFile(path, toJson(), &error))
        fatal("cannot write trace output file '", path, "': ", error);
}

} // namespace mnpu
