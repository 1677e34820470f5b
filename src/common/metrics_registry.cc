#include "common/metrics_registry.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace mnpu
{

namespace
{

/** Shortest round-trip decimal form, matching checkpoint serialization
 *  style so exported gauges compare bit-exactly across runs. */
std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
writeCsvString(std::ostream &out, const std::string &text)
{
    // Metric names are generated (dotted identifiers) but quote
    // defensively so a future name can't silently corrupt the CSV.
    out << '"';
    for (char c : text) {
        if (c == '"')
            out << "\"\"";
        else
            out << c;
    }
    out << '"';
}

} // namespace

std::vector<double>
TelemetrySnapshot::Series::movingAverage(std::size_t span) const
{
    mnpu_assert(span >= 1, "moving average span must be >= 1");
    std::vector<double> out;
    out.reserve(values.size());
    double window_sum = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        window_sum += static_cast<double>(values[i]);
        if (i >= span)
            window_sum -= static_cast<double>(values[i - span]);
        std::size_t denom = i + 1 < span ? i + 1 : span;
        out.push_back(window_sum / static_cast<double>(denom));
    }
    return out;
}

bool
TelemetrySnapshot::has(const std::string &name) const
{
    for (const Metric &metric : metrics) {
        if (metric.name == name)
            return true;
    }
    return false;
}

std::uint64_t
TelemetrySnapshot::counter(const std::string &name) const
{
    for (const Metric &metric : metrics) {
        if (metric.name != name)
            continue;
        if (!metric.isCounter)
            fatal("telemetry metric '", name,
                  "' is a gauge; read it with gauge()");
        return metric.counter;
    }
    fatal("unknown telemetry counter '", name,
          "' (see DESIGN.md §9 for the metric-name schema)");
}

double
TelemetrySnapshot::gauge(const std::string &name) const
{
    for (const Metric &metric : metrics) {
        if (metric.name != name)
            continue;
        if (metric.isCounter)
            fatal("telemetry metric '", name,
                  "' is a counter; read it with counter()");
        return metric.gauge;
    }
    fatal("unknown telemetry gauge '", name,
          "' (see DESIGN.md §9 for the metric-name schema)");
}

const TelemetrySnapshot::Series *
TelemetrySnapshot::findSeries(const std::string &name) const
{
    for (const Series &entry : series) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

void
TelemetrySnapshot::writeCsv(std::ostream &out) const
{
    out << "kind,name,window_cycles,window_index,value\n";
    for (const Metric &metric : metrics) {
        out << (metric.isCounter ? "counter" : "gauge") << ',';
        writeCsvString(out, metric.name);
        out << ",,,";
        if (metric.isCounter)
            out << metric.counter;
        else
            out << formatDouble(metric.gauge);
        out << '\n';
    }
    for (const Series &entry : series) {
        for (std::size_t i = 0; i < entry.values.size(); ++i) {
            out << "series,";
            writeCsvString(out, entry.name);
            out << ',' << entry.windowCycles << ',' << i << ','
                << entry.values[i] << '\n';
        }
    }
}

void
TelemetrySnapshot::writeJsonl(std::ostream &out) const
{
    std::string text;
    for (const Metric &metric : metrics) {
        text += "{\"kind\":";
        json::appendString(text, metric.isCounter ? "counter" : "gauge");
        json::appendField(text, "name", metric.name);
        if (metric.isCounter)
            json::appendField(text, "value", metric.counter);
        else
            json::appendField(text, "value", metric.gauge);
        text += "}\n";
    }
    for (const Series &entry : series) {
        text += "{\"kind\":\"series\"";
        json::appendField(text, "name", entry.name);
        json::appendField(text, "window_cycles", entry.windowCycles);
        json::appendField(text, "values", entry.values);
        text += "}\n";
    }
    out << text;
}

void
TelemetrySnapshot::writeFile(const std::string &path) const
{
    // Render fully in memory, then publish atomically so a process
    // dying mid-write cannot leave a truncated artifact behind.
    std::ostringstream out;
    bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeCsv(out);
    else
        writeJsonl(out);
    std::string error;
    if (!atomicWriteFile(path, out.str(), &error))
        fatal("cannot write metrics output file '", path, "': ", error);
}

void
MetricsRegistry::checkUnique(const std::string &name) const
{
    for (const MetricEntry &entry : metrics_) {
        if (entry.name == name)
            fatal("duplicate telemetry metric name '", name, "'");
    }
    for (const SeriesEntry &entry : series_) {
        if (entry.name == name)
            fatal("duplicate telemetry series name '", name, "'");
    }
}

void
MetricsRegistry::addCounter(std::string name, CounterReader read)
{
    mnpu_assert(read, "counter reader for '", name, "' is empty");
    checkUnique(name);
    metrics_.push_back(
        MetricEntry{std::move(name), true, std::move(read), nullptr});
}

void
MetricsRegistry::addGauge(std::string name, GaugeReader read)
{
    mnpu_assert(read, "gauge reader for '", name, "' is empty");
    checkUnique(name);
    metrics_.push_back(
        MetricEntry{std::move(name), false, nullptr, std::move(read)});
}

void
MetricsRegistry::addGroup(const StatGroup &group)
{
    const std::string prefix = group.name() + ".";
    for (const std::string &stat_name : group.order()) {
        if (const Counter *counter = group.findCounter(stat_name)) {
            addCounter(prefix + stat_name,
                       [counter] { return counter->value(); });
        } else if (const Distribution *dist =
                       group.findDistribution(stat_name)) {
            addCounter(prefix + stat_name + ".count",
                       [dist] { return dist->count(); });
            addGauge(prefix + stat_name + ".mean",
                     [dist] { return dist->mean(); });
            addGauge(prefix + stat_name + ".min",
                     [dist] { return dist->min(); });
            addGauge(prefix + stat_name + ".max",
                     [dist] { return dist->max(); });
        }
    }
}

void
MetricsRegistry::addSeries(std::string name, Cycle window_cycles,
                           SeriesReader read)
{
    mnpu_assert(read, "series reader for '", name, "' is empty");
    checkUnique(name);
    series_.push_back(
        SeriesEntry{std::move(name), window_cycles, std::move(read)});
}

TelemetrySnapshot
MetricsRegistry::snapshot() const
{
    TelemetrySnapshot snap;
    snap.metrics.reserve(metrics_.size());
    for (const MetricEntry &entry : metrics_) {
        TelemetrySnapshot::Metric metric;
        metric.name = entry.name;
        metric.isCounter = entry.isCounter;
        if (entry.isCounter)
            metric.counter = entry.counter();
        else
            metric.gauge = entry.gauge();
        snap.metrics.push_back(std::move(metric));
    }
    snap.series.reserve(series_.size());
    for (const SeriesEntry &entry : series_) {
        TelemetrySnapshot::Series series;
        series.name = entry.name;
        series.windowCycles = entry.windowCycles;
        series.values = entry.read();
        snap.series.push_back(std::move(series));
    }
    return snap;
}

} // namespace mnpu
