/**
 * @file
 * Observability-layer tests (DESIGN.md §9): the metrics registry is
 * deterministic, the trace_event export is valid JSON with properly
 * nested per-layer/per-tile spans for every core, and — the key
 * invariant — observers are *passive*: a run with tracing and metrics
 * export fully enabled is byte-identical to a run with them off, under
 * both schedulers, on committed golden cases.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "analysis/sweep_runner.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/trace_events.hh"
#include "sim/cli.hh"
#include "sim/multi_core_system.hh"
#include "sw/arch_config.hh"

namespace mnpu
{
namespace
{

// Field reads on exporter output parsed with the strict codec; a
// missing or mistyped field reads as -1 / "".
double
num(const json::Value &object, const char *key)
{
    double value = -1;
    return object.getField(key, value) ? value : -1;
}

std::string
str(const json::Value &object, const char *key)
{
    std::string value;
    return object.getField(key, value) ? value : std::string{};
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** A small, fast dual-core system shared by several tests. */
SimResult
runDualMix(const ObservabilityConfig &obs)
{
    // Pinned to the DRAM backend: the schema spot-checks below name
    // dram.ch* metric groups, which a MNPU_MEM_BACKEND process default
    // would rename (pcm.ch*).
    static ExperimentContext context(
        ArchConfig::miniNpu(),
        [] {
            NpuMemConfig mem = NpuMemConfig::cloudNpu();
            mem.backend = MemBackendKind::Dram;
            return mem;
        }(),
        ModelScale::Mini);
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = context.mem();
    config.obs = obs;
    return context.runMix(config, {"ncf", "dlrm"}).raw;
}

// ---------------------------------------------------------------------
// MetricsRegistry + TelemetrySnapshot unit behavior.
// ---------------------------------------------------------------------

TEST(MetricsRegistry, SnapshotEvaluatesReadersInRegistrationOrder)
{
    MetricsRegistry registry;
    std::uint64_t ticks = 41;
    registry.addCounter("unit.ticks", [&ticks] { return ticks; });
    registry.addGauge("unit.ratio", [] { return 0.5; });
    registry.addSeries("unit.series", 100,
                       [] { return std::vector<std::uint64_t>{1, 2, 3}; });

    ticks = 42; // readers are live: snapshot sees the current value
    TelemetrySnapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.metrics.size(), 2u);
    EXPECT_EQ(snapshot.metrics[0].name, "unit.ticks");
    EXPECT_EQ(snapshot.counter("unit.ticks"), 42u);
    EXPECT_DOUBLE_EQ(snapshot.gauge("unit.ratio"), 0.5);
    ASSERT_NE(snapshot.findSeries("unit.series"), nullptr);
    EXPECT_EQ(snapshot.findSeries("unit.series")->windowCycles, 100u);
    EXPECT_EQ(snapshot.findSeries("no.such.series"), nullptr);
}

TEST(MetricsRegistry, SchemaTyposFailLoudly)
{
    MetricsRegistry registry;
    registry.addCounter("unit.ticks", [] { return std::uint64_t{1}; });
    TelemetrySnapshot snapshot = registry.snapshot();
    EXPECT_THROW(snapshot.counter("unit.tikcs"), FatalError);
    EXPECT_THROW(snapshot.gauge("unit.ticks"), FatalError); // wrong kind
    EXPECT_THROW(
        registry.addCounter("unit.ticks", [] { return std::uint64_t{}; }),
        FatalError); // duplicate registration is a wiring bug
}

TEST(MetricsRegistry, MovingAverageMatchesIntervalTracerSemantics)
{
    TelemetrySnapshot::Series series;
    series.values = {2, 4, 6, 0};
    auto smoothed = series.movingAverage(2);
    ASSERT_EQ(smoothed.size(), 4u);
    EXPECT_DOUBLE_EQ(smoothed[0], 2.0);
    EXPECT_DOUBLE_EQ(smoothed[1], 3.0);
    EXPECT_DOUBLE_EQ(smoothed[2], 5.0);
    EXPECT_DOUBLE_EQ(smoothed[3], 3.0);
}

TEST(MetricsRegistry, TwoIdenticalRunsSnapshotIdentically)
{
    ObservabilityConfig obs; // no outputs; snapshot always materializes
    SimResult first = runDualMix(obs);
    SimResult second = runDualMix(obs);
    EXPECT_FALSE(first.telemetry.empty());
    EXPECT_TRUE(first.telemetry == second.telemetry)
        << "metrics registry snapshot is not deterministic";
    // Spot-check the documented schema names exist with sane values.
    EXPECT_EQ(first.telemetry.counter("sim.global_cycles"),
              first.globalCycles);
    EXPECT_EQ(first.telemetry.counter("core0.traffic_bytes"),
              first.cores[0].trafficBytes);
    EXPECT_EQ(first.telemetry.counter("dram.row_hits"),
              first.dramRowHits);
    EXPECT_GT(first.telemetry.counter("mmu.translations"), 0u);
    EXPECT_GT(first.telemetry.counter("dram.ch0.reads"), 0u);
}

TEST(MetricsRegistry, RestoredSubsetAgreesWithExecutedSnapshot)
{
    SimResult result = runDualMix(ObservabilityConfig{});
    TelemetrySnapshot subset = telemetryFromResult(result);
    EXPECT_FALSE(subset.empty());
    for (const auto &metric : subset.metrics) {
        ASSERT_TRUE(result.telemetry.has(metric.name))
            << metric.name << " missing from the executed snapshot";
        if (metric.isCounter) {
            EXPECT_EQ(result.telemetry.counter(metric.name),
                      metric.counter)
                << metric.name;
        } else {
            EXPECT_EQ(result.telemetry.gauge(metric.name), metric.gauge)
                << metric.name;
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot export formats.
// ---------------------------------------------------------------------

TEST(TelemetryExport, CsvIsLongFormWithHeader)
{
    MetricsRegistry registry;
    registry.addCounter("a.count", [] { return std::uint64_t{7}; });
    registry.addGauge("a.gauge", [] { return 1.25; });
    registry.addSeries("a.series", 10,
                       [] { return std::vector<std::uint64_t>{5, 9}; });
    std::ostringstream out;
    registry.snapshot().writeCsv(out);
    EXPECT_EQ(out.str(),
              "kind,name,window_cycles,window_index,value\n"
              "counter,\"a.count\",,,7\n"
              "gauge,\"a.gauge\",,,1.25\n"
              "series,\"a.series\",10,0,5\n"
              "series,\"a.series\",10,1,9\n");
}

TEST(TelemetryExport, JsonlLinesParse)
{
    MetricsRegistry registry;
    registry.addCounter("a.count", [] { return std::uint64_t{7}; });
    registry.addSeries("a.series", 10,
                       [] { return std::vector<std::uint64_t>{5, 9}; });
    std::ostringstream out;
    registry.snapshot().writeJsonl(out);
    std::istringstream lines(out.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        json::Value value;
        EXPECT_TRUE(json::parse(line, value)) << line;
        EXPECT_EQ(value.kind(), json::Value::Kind::Object);
        EXPECT_FALSE(str(value, "kind").empty());
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

// ---------------------------------------------------------------------
// trace_event export: valid JSON, complete and properly nested spans.
// ---------------------------------------------------------------------

TEST(TraceExport, EmitsNestedLayerAndTileSpansForEveryCore)
{
    ObservabilityConfig obs;
    obs.traceOutPath = tempPath("mnpu_obs_trace.json");
    obs.traceLevel = TraceLevel::Tiles;
    SimResult result = runDualMix(obs);

    json::Value doc;
    ASSERT_TRUE(json::parse(readWholeFile(obs.traceOutPath), doc))
        << "trace output is not valid JSON";
    std::filesystem::remove(obs.traceOutPath);
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind(), json::Value::Kind::Array);

    struct Span
    {
        double start, end;
    };
    std::map<int, std::vector<Span>> layers, tiles;
    std::map<int, bool> named;
    for (const json::Value &event : events->items()) {
        ASSERT_EQ(event.kind(), json::Value::Kind::Object);
        std::string phase = str(event, "ph");
        int pid = static_cast<int>(num(event, "pid"));
        if (phase == "M" && str(event, "name") == "process_name")
            named[pid] = true;
        if (phase != "X")
            continue;
        Span span{num(event, "ts"), num(event, "ts") + num(event, "dur")};
        if (str(event, "cat") == "layer")
            layers[pid].push_back(span);
        else if (str(event, "cat") == "tile")
            tiles[pid].push_back(span);
    }
    for (std::size_t core = 0; core < result.cores.size(); ++core) {
        int pid = static_cast<int>(core);
        EXPECT_TRUE(named[pid]) << "core " << core << " unnamed";
        EXPECT_FALSE(layers[pid].empty())
            << "no layer spans for core " << core;
        EXPECT_FALSE(tiles[pid].empty())
            << "no tile spans for core " << core;
        // Every tile span nests inside some layer span of its core.
        for (const Span &tile : tiles[pid]) {
            bool nested = false;
            for (const Span &layer : layers[pid]) {
                if (tile.start >= layer.start && tile.end <= layer.end) {
                    nested = true;
                    break;
                }
            }
            EXPECT_TRUE(nested) << "orphan tile span on core " << core
                                << " at ts " << tile.start;
        }
    }
}

TEST(TraceExport, RequestLevelAddsDramAndMmuTracks)
{
    ObservabilityConfig obs;
    obs.traceOutPath = tempPath("mnpu_obs_trace_req.json");
    obs.traceLevel = TraceLevel::Requests;
    runDualMix(obs);

    json::Value doc;
    ASSERT_TRUE(json::parse(readWholeFile(obs.traceOutPath), doc));
    std::filesystem::remove(obs.traceOutPath);
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool request_span = false, walk_span = false, dram_cmd = false;
    for (const json::Value &event : events->items()) {
        int pid = static_cast<int>(num(event, "pid"));
        if (str(event, "cat") == "request" &&
            pid == TraceEventSink::kDramPid)
            request_span = true;
        if (str(event, "cat") == "walk" && pid == TraceEventSink::kMmuPid)
            walk_span = true;
        if (str(event, "ph") == "i" && str(event, "cat") == "cmd")
            dram_cmd = true;
    }
    EXPECT_TRUE(request_span);
    EXPECT_TRUE(walk_span);
    EXPECT_TRUE(dram_cmd);
}

TEST(TraceExport, TieredStackDrawsCommandsOnEveryChannelTrack)
{
    // Two tiers behind the fabric: the trace names one command track
    // per channel summed over both tiers, and the second tier's
    // channels must land on the tracks after the first tier's, not on
    // top of them.
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.backend = MemBackendKind::Tiered;
    mem.fabric.enabled = true;
    ExperimentContext context(ArchConfig::miniNpu(), mem, ModelScale::Mini);
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = context.mem();
    config.obs.traceOutPath = tempPath("mnpu_obs_trace_tiered.json");
    config.obs.traceLevel = TraceLevel::Requests;
    context.runMix(config, {"ncf", "ncf"});

    json::Value doc;
    ASSERT_TRUE(json::parse(readWholeFile(config.obs.traceOutPath), doc));
    std::filesystem::remove(config.obs.traceOutPath);
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<int, std::uint64_t> commands; // named channel tid -> count
    for (const json::Value &event : events->items()) {
        const int tid = static_cast<int>(num(event, "tid"));
        if (static_cast<int>(num(event, "pid")) !=
                static_cast<int>(TraceEventSink::kDramPid) ||
            tid < static_cast<int>(TraceEventSink::kChannelTidBase))
            continue;
        if (str(event, "name") == "thread_name")
            commands.emplace(tid, 0);
        else if (str(event, "ph") == "i" && str(event, "cat") == "cmd")
            ++commands[tid];
    }
    ASSERT_EQ(commands.size(), 16u) << "2 cores x 4 channels x 2 tiers";
    for (const auto &[tid, count] : commands)
        EXPECT_GT(count, 0u) << "no commands on track ch"
                             << tid - TraceEventSink::kChannelTidBase;
}

TEST(TraceExport, LayersLevelSuppressesTilesAndRequests)
{
    ObservabilityConfig obs;
    obs.traceOutPath = tempPath("mnpu_obs_trace_layers.json");
    obs.traceLevel = TraceLevel::Layers;
    runDualMix(obs);

    json::Value doc;
    ASSERT_TRUE(json::parse(readWholeFile(obs.traceOutPath), doc));
    std::filesystem::remove(obs.traceOutPath);
    bool layer = false, tile = false, request = false;
    for (const json::Value &event : doc.find("traceEvents")->items()) {
        if (str(event, "cat") == "layer")
            layer = true;
        if (str(event, "cat") == "tile")
            tile = true;
        if (str(event, "cat") == "request")
            request = true;
    }
    EXPECT_TRUE(layer);
    EXPECT_FALSE(tile);
    EXPECT_FALSE(request);
}

// ---------------------------------------------------------------------
// Passivity: observability fully on is byte-identical to off on
// committed golden cases. This is the API contract that lets obs
// fields stay out of the sweep checkpoint key.
// ---------------------------------------------------------------------

class ObservabilityPassivity : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(ObservabilityPassivity, FullyEnabledRunIsBitIdentical)
{
    const GoldenCase &golden = GetParam();

    ObservabilityConfig obs;
    // The path must be unique per parameter instance: ctest runs the
    // cases as concurrent processes, and a shared path would race
    // their atomic rename-into-place.
    std::string stem = "mnpu_obs_pass_" + golden.name;
    obs.traceOutPath = tempPath(stem + ".json");
    obs.metricsOutPath = tempPath(stem + ".csv");
    obs.traceLevel = TraceLevel::Requests; // maximum instrumentation

    SweepCheckpointRecord off = runGoldenCase(golden);
    SweepCheckpointRecord on = runGoldenCase(golden, obs);
    std::filesystem::remove(obs.traceOutPath);
    std::filesystem::remove(obs.metricsOutPath);

    EXPECT_EQ(describeGoldenDiff(off, on), "")
        << "observability perturbed the simulation (" << golden.name
        << ")";
    EXPECT_EQ(goldenFixtureText(off), goldenFixtureText(on));
}

INSTANTIATE_TEST_SUITE_P(
    GoldenCases, ObservabilityPassivity,
    testing::Values(goldenCase("hbm2-dual-res-ncf-dwt"),
                    goldenCase("ddr4-dual-ds2-gpt2-static")));

// ---------------------------------------------------------------------
// Config plumbing: checkpoint keys and environment fallbacks.
// ---------------------------------------------------------------------

TEST(ObservabilityConfigTest, ExcludedFromSweepJobKey)
{
    SweepJob job;
    job.config.level = SharingLevel::ShareDWT;
    job.models = {"ncf", "dlrm"};
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    std::string bare = sweepJobKey(job, ArchConfig::miniNpu(), mem,
                                   ModelScale::Mini);
    job.config.obs.traceOutPath = "/tmp/trace.json";
    job.config.obs.metricsOutPath = "/tmp/metrics.csv";
    job.config.obs.traceLevel = TraceLevel::Requests;
    EXPECT_EQ(bare, sweepJobKey(job, ArchConfig::miniNpu(), mem,
                                ModelScale::Mini))
        << "passive observer settings must not invalidate checkpoints";
}

TEST(ObservabilityConfigTest, EnvFallbacksFillOnlyUnsetFields)
{
    ::setenv("MNPU_TRACE", "/tmp/env_trace.json", 1);
    ::setenv("MNPU_METRICS", "/tmp/env_metrics.csv", 1);
    ::setenv("MNPU_OBS_LEVEL", "layers", 1);
    traceLevelSetting().clearDefault();

    ObservabilityConfig fromEnv = observabilityFromEnv();
    EXPECT_EQ(fromEnv.traceOutPath, "/tmp/env_trace.json");
    EXPECT_EQ(fromEnv.metricsOutPath, "/tmp/env_metrics.csv");
    EXPECT_EQ(traceLevelSetting().effective(fromEnv.traceLevel),
              TraceLevel::Layers);

    ObservabilityConfig explicitConfig;
    explicitConfig.traceOutPath = "/tmp/flag_trace.json";
    explicitConfig.traceLevel = TraceLevel::Requests;
    ObservabilityConfig merged = observabilityFromEnv(explicitConfig);
    EXPECT_EQ(merged.traceOutPath, "/tmp/flag_trace.json"); // flag wins
    EXPECT_EQ(traceLevelSetting().effective(merged.traceLevel),
              TraceLevel::Requests);
    EXPECT_EQ(merged.metricsOutPath, "/tmp/env_metrics.csv");

    ::unsetenv("MNPU_TRACE");
    ::unsetenv("MNPU_METRICS");
    ::unsetenv("MNPU_OBS_LEVEL");
}

TEST(ObservabilityConfigTest, ObsLevelFlagBeatsEnvironment)
{
    // An explicit `--obs-level tiles` must win over MNPU_OBS_LEVEL even
    // though tiles is also the built-in level: run mnpusim (in a child
    // process, so its process defaults stay there) and look for tile
    // spans in the trace.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("mnpu_obs_flag_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    auto write = [&dir](const char *name, const std::string &text) {
        std::ofstream(dir / name) << text;
        return (dir / name).string();
    };
    const std::string trace = (dir / "trace.json").string();
    const std::vector<std::string> args = {
        "mnpusim", "--obs-level", "tiles", "--fidelity", "exact",
        "--trace-out", trace,
        write("archs.txt", write("arch.cfg", "arch.name = tiny\n"
                                             "arch.array_rows = 16\n"
                                             "arch.array_cols = 16\n"
                                             "arch.spm_size = 64KB\n") +
                               "\n"),
        write("nets.txt",
              write("net.csv", "g0, gemm, 64, 64, 64\n") + "\n"),
        write("dram.cfg", "dram.protocol = hbm2\n"
                          "channels_per_npu = 2\n"
                          "capacity_per_npu = 64MB\n"),
        write("npumems.txt", write("npumem.cfg", "tlb_entries = 64\n"
                                                 "tlb_ways = 8\n"
                                                 "ptw = 4\n"
                                                 "page_size = 4KB\n") +
                                 "\n"),
        (dir / "out").string(), write("misc.cfg", "iterations = 1\n")};

    std::optional<std::string> saved;
    if (const char *old = std::getenv("MNPU_OBS_LEVEL"))
        saved = old;
    ::setenv("MNPU_OBS_LEVEL", "layers", 1);
    EXPECT_EXIT(
        {
            std::vector<char *> argv;
            for (const std::string &arg : args)
                argv.push_back(const_cast<char *>(arg.c_str()));
            std::exit(mnpusimMain(static_cast<int>(argv.size()),
                                  argv.data()));
        },
        ::testing::ExitedWithCode(0), "");
    if (saved)
        ::setenv("MNPU_OBS_LEVEL", saved->c_str(), 1);
    else
        ::unsetenv("MNPU_OBS_LEVEL");

    std::ifstream file(trace);
    std::stringstream text;
    text << file.rdbuf();
    EXPECT_NE(text.str().find("\"cat\":\"tile\""), std::string::npos)
        << "MNPU_OBS_LEVEL=layers overrode --obs-level tiles";
    fs::remove_all(dir);
}

TEST(ObservabilityConfigTest, ParseTraceLevelRoundTripsAndRejects)
{
    for (TraceLevel level :
         {TraceLevel::Off, TraceLevel::Layers, TraceLevel::Tiles,
          TraceLevel::Requests})
        EXPECT_EQ(traceLevelSetting().parse(toString(level)), level);
    EXPECT_THROW(traceLevelSetting().parse("verbose"), FatalError);
}

// ---------------------------------------------------------------------
// Metrics file export through a full run.
// ---------------------------------------------------------------------

TEST(TelemetryExport, MetricsOutWritesSeriesWhenWindowed)
{
    ObservabilityConfig obs;
    obs.metricsOutPath = tempPath("mnpu_obs_metrics.csv");
    obs.metricsWindow = 500;
    SimResult result = runDualMix(obs);

    const TelemetrySnapshot::Series *total =
        result.telemetry.findSeries("dram.total.bytes");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->windowCycles, 500u);
    EXPECT_FALSE(total->values.empty());
    ASSERT_NE(result.telemetry.findSeries("core0.requests"), nullptr);
    ASSERT_NE(result.telemetry.findSeries("dram.core1.bytes"), nullptr);

    std::string csv = readWholeFile(obs.metricsOutPath);
    std::filesystem::remove(obs.metricsOutPath);
    EXPECT_EQ(csv.rfind("kind,name,window_cycles,window_index,value\n", 0),
              0u);
    EXPECT_NE(csv.find("\"dram.total.bytes\",500,"), std::string::npos);
}

} // namespace
} // namespace mnpu
