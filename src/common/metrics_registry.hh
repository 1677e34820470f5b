/**
 * @file
 * Unified metrics registry: components register named readers for
 * counters, gauges, and windowed time series under stable dotted names
 * (`dram.ch0.row_hits`, `core1.tlb.misses`), and a snapshot() call
 * materializes them all into one TelemetrySnapshot — the single view
 * that SimResult/MixOutcome consumers read instead of reaching into
 * component internals.
 *
 * The registry holds *readers* (std::function closures over component
 * state), not values: registration happens once at system construction,
 * costs nothing while the simulation runs, and snapshot() is only
 * called after the run completes. This keeps the observability layer
 * passive in the PR 3/4 sense — it cannot perturb simulated timing
 * because it never executes inside the simulated loop.
 *
 * Stable metric-name schema (documented in DESIGN.md §9):
 *   sim.global_cycles            run length in global (DRAM) cycles
 *   sched.loop_iterations        main-loop iterations (stepping-dependent,
 *                                excluded from golden comparisons)
 *   core<i>.local_cycles         per-core completion time, local cycles
 *   core<i>.finished_at_global   per-core completion time, global cycles
 *   core<i>.pe_utilization       gauge in [0, 1]
 *   core<i>.traffic_bytes        data DRAM traffic
 *   core<i>.walk_bytes           page-walk DRAM traffic
 *   core<i>.read_tx / write_tx / xlat_retries / dram_retries
 *   core<i>.tlb.hits / tlb.misses / walks
 *   mmu.translations / tlb_hits / tlb_misses / walks / mshr_attaches
 *   mmu.walk_latency.{count,mean,min,max}   (and walk_queue_delay.*)
 *   dram.reads / writes / bytes / row_hits / row_misses / activates /
 *        refreshes               totals over all channels
 *   dram.energy_pj               gauge (DRAMPower-style estimate)
 *   dram.ch<c>.*                 per-channel counters + queue_latency.*
 * Series (present when windowed telemetry is enabled):
 *   dram.total.bytes             bytes delivered per window
 *   dram.core<i>.bytes           per-core bytes per window
 *   core<i>.requests             requests issued per window
 */

#ifndef MNPU_COMMON_METRICS_REGISTRY_HH
#define MNPU_COMMON_METRICS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mnpu
{

class StatGroup;

/**
 * A materialized, value-semantic view of every registered metric at one
 * point in time. Cheap to copy, compare, and serialize; carried on
 * SimResult so downstream consumers (benches, sweeps, checkpoints)
 * never touch live components.
 */
struct TelemetrySnapshot
{
    struct Metric
    {
        std::string name;
        /** true → integer counter (value in counter); false → gauge. */
        bool isCounter = true;
        std::uint64_t counter = 0;
        double gauge = 0.0;

        bool operator==(const Metric &) const = default;
    };

    struct Series
    {
        std::string name;
        /** Window span in global cycles. */
        Cycle windowCycles = 0;
        std::vector<std::uint64_t> values;

        /** Trailing moving average over @p span windows (span >= 1). */
        std::vector<double> movingAverage(std::size_t span) const;

        bool operator==(const Series &) const = default;
    };

    /** In registration order, so two identical runs serialize alike. */
    std::vector<Metric> metrics;
    std::vector<Series> series;

    bool empty() const { return metrics.empty() && series.empty(); }

    bool has(const std::string &name) const;

    /** Counter value by name; fatal() if absent or not a counter, so a
     *  schema typo fails loudly instead of reading as zero. */
    std::uint64_t counter(const std::string &name) const;

    /** Gauge value by name; fatal() if absent or not a gauge. */
    double gauge(const std::string &name) const;

    /** Series by name; nullptr when absent (series are conditional on
     *  windowed telemetry being enabled, unlike scalar metrics). */
    const Series *findSeries(const std::string &name) const;

    bool operator==(const TelemetrySnapshot &) const = default;

    /** Long-form CSV: kind,name,window_cycles,window_index,value. */
    void writeCsv(std::ostream &out) const;

    /** JSONL: one {"kind":...,"name":...} object per metric/series. */
    void writeJsonl(std::ostream &out) const;

    /** Write to @p path — ".csv" suffix selects CSV, else JSONL. */
    void writeFile(const std::string &path) const;
};

/**
 * Registration side of the observability layer. Components (or the
 * system that owns them) add readers once at construction; names must
 * be unique — a duplicate is a wiring bug and fatal()s.
 */
class MetricsRegistry
{
  public:
    using CounterReader = std::function<std::uint64_t()>;
    using GaugeReader = std::function<double()>;
    using SeriesReader = std::function<std::vector<std::uint64_t>()>;

    void addCounter(std::string name, CounterReader read);
    void addGauge(std::string name, GaugeReader read);

    /**
     * Register every stat in @p group under `group.name().<stat>`:
     * counters directly, distributions as four gauges
     * (.count/.mean/.min/.max, with .count an integer counter).
     * The group must outlive the registry.
     */
    void addGroup(const StatGroup &group);

    /** Register a windowed time series with @p window_cycles span. */
    void addSeries(std::string name, Cycle window_cycles, SeriesReader read);

    std::size_t metricCount() const { return metrics_.size(); }
    std::size_t seriesCount() const { return series_.size(); }

    /** Evaluate every reader into a value snapshot. */
    TelemetrySnapshot snapshot() const;

  private:
    struct MetricEntry
    {
        std::string name;
        bool isCounter;
        CounterReader counter;
        GaugeReader gauge;
    };

    struct SeriesEntry
    {
        std::string name;
        Cycle windowCycles;
        SeriesReader read;
    };

    void checkUnique(const std::string &name) const;

    std::vector<MetricEntry> metrics_;
    std::vector<SeriesEntry> series_;
};

} // namespace mnpu

#endif // MNPU_COMMON_METRICS_REGISTRY_HH
