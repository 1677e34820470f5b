#include "common/trace_events.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
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

namespace
{

void
writeJsonString(std::ostream &out, const std::string &text)
{
    out << '"';
    for (char c : text) {
        switch (c) {
          case '"':
            out << "\\\"";
            break;
          case '\\':
            out << "\\\\";
            break;
          case '\n':
            out << "\\n";
            break;
          case '\t':
            out << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out << buffer;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

} // namespace

void
TraceEventSink::write(std::ostream &out) const
{
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Event &event : events_) {
        if (!first)
            out << ",\n";
        first = false;
        if (event.phase == 'M') {
            const char *metadata_name =
                event.category ? "thread_name" : "process_name";
            out << "{\"ph\":\"M\",\"pid\":" << event.pid
                << ",\"tid\":" << event.tid << ",\"name\":\"" << metadata_name
                << "\",\"args\":{\"name\":";
            writeJsonString(out, event.name);
            out << "}}";
            continue;
        }
        out << "{\"ph\":\"" << event.phase << "\",\"pid\":" << event.pid
            << ",\"tid\":" << event.tid << ",\"cat\":\""
            << (event.category ? event.category : "") << "\",\"name\":";
        writeJsonString(out, event.name);
        out << ",\"ts\":" << event.ts;
        if (event.phase == 'X')
            out << ",\"dur\":" << event.dur;
        else
            out << ",\"s\":\"t\"";
        out << "}";
    }
    // displayTimeUnit is cosmetic; timestamps are DRAM-clock cycles.
    out << "],\"displayTimeUnit\":\"ns\"}\n";
}

void
TraceEventSink::writeFile(const std::string &path) const
{
    // Render fully in memory, then publish atomically: the event
    // array is always finalized (closing brackets present), and a
    // process dying mid-write can never leave a truncated JSON file
    // at the published path.
    std::ostringstream out;
    write(out);
    std::string error;
    if (!atomicWriteFile(path, out.str(), &error))
        fatal("cannot write trace output file '", path, "': ", error);
}

} // namespace mnpu
