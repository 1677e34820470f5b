#include "analysis/golden.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <string_view>

#include "analysis/experiment.hh"
#include "analysis/sweep_runner.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sw/arch_config.hh"

namespace mnpu
{

const std::vector<GoldenCase> &
goldenCases()
{
    // Editing this list (or anything that changes a case's outcome)
    // requires regenerating the fixtures: build update_golden and run
    // it with --update-golden, then review the JSON diff.
    static const std::vector<GoldenCase> cases = {
        {"hbm2-dual-res-ncf-dwt", "hbm2", SharingLevel::ShareDWT,
         {"res", "ncf"}, std::nullopt},
        {"hbm2-dual-yt-alex-d", "hbm2", SharingLevel::ShareD,
         {"yt", "alex"}, std::nullopt},
        {"hbm2-dual-ds2-sfrnn-static", "hbm2", SharingLevel::Static,
         {"ds2", "sfrnn"}, std::nullopt},
        {"hbm2-quad-res-yt-dlrm-ncf-dwt", "hbm2", SharingLevel::ShareDWT,
         {"res", "yt", "dlrm", "ncf"}, std::nullopt},
        {"ddr4-dual-sfrnn-dlrm-dw", "ddr4", SharingLevel::ShareDW,
         {"sfrnn", "dlrm"}, std::nullopt},
        {"ddr4-dual-ds2-gpt2-static", "ddr4", SharingLevel::Static,
         {"ds2", "gpt2"}, std::nullopt},
        {"ddr4-dual-res-gpt2-bwpart", "ddr4", SharingLevel::ShareD,
         {"res", "gpt2"}, std::vector<std::uint32_t>{1, 3}},
        {"ddr4-quad-yt-alex-ds2-gpt2-dw", "ddr4", SharingLevel::ShareDW,
         {"yt", "alex", "ds2", "gpt2"}, std::nullopt},
    };
    return cases;
}

namespace
{

void
printCaseName(const std::string &name, std::ostream *os)
{
    for (char c : name)
        *os << (c == '-' ? '_' : c);
}

} // namespace

void
PrintTo(const GoldenCase &golden, std::ostream *os)
{
    printCaseName(golden.name, os);
}

void
PrintTo(const ServingGoldenCase &golden, std::ostream *os)
{
    printCaseName(golden.name, os);
}

const GoldenCase &
goldenCase(const std::string &name)
{
    for (const GoldenCase &golden : goldenCases()) {
        if (golden.name == name)
            return golden;
    }
    fatal("unknown golden case \"", name, "\"");
}

SweepCheckpointRecord
runGoldenCase(const GoldenCase &golden, const ObservabilityConfig &obs,
              FidelityKind fidelity)
{
    // Mini scale + mini NPU profile, matching the benches' default
    // (fast) configuration, so fixtures regenerate in seconds.
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(golden.protocol);
    // Fixtures pin HBM2/DDR4 DRAM behavior; a MNPU_MEM_BACKEND
    // process default must not silently re-base them onto other media.
    mem.backend = MemBackendKind::Dram;
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.dramBandwidthShares = golden.dramBandwidthShares;
    config.fidelity = fidelity;
    config.obs = obs;

    SweepRecord record;
    record.outcome = context.runMix(config, golden.models);
    record.wallSeconds = 0; // pinned: fixtures hold behavior, not time
    record.status = SweepStatus::Ok;
    return checkpointRecordOf(golden.name, record);
}

const std::vector<ServingGoldenCase> &
servingGoldenCases()
{
    // Same regeneration contract as goldenCases(): edits here (or any
    // behavior change under the case) require update_golden
    // --update-golden and a reviewed fixture diff.
    static const std::vector<ServingGoldenCase> cases = [] {
        // Dual-core GPT-2 at a fixed seed and offered load, with SLO
        // thresholds chosen so the goodput accounting is non-trivially
        // pinned (tight enough that a latency regression flips a
        // request out of the SLO-good set).
        ServingGoldenCase dual;
        dual.name = "serving-ddr4-dual-gpt2-dwt";
        dual.protocol = "ddr4";
        dual.level = SharingLevel::ShareDWT;
        dual.cores = 2;
        dual.serving.seed = 5;
        dual.serving.poissonRatePerMcycle = 40.0;
        dual.serving.numRequests = 4;
        dual.serving.meanPromptTokens = 8;
        dual.serving.meanDecodeTokens = 3;
        dual.serving.maxBatchPerCore = 2;
        dual.serving.ttftSloCycles = 1300000;
        dual.serving.tpotSloCycles = 900000;
        return std::vector<ServingGoldenCase>{dual};
    }();
    return cases;
}

SweepCheckpointRecord
runServingGoldenCase(const ServingGoldenCase &golden)
{
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(golden.protocol);
    mem.backend = MemBackendKind::Dram; // fixtures pin DRAM media
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.fidelity = FidelityKind::Exact;
    config.serving = golden.serving;

    SweepRecord record;
    record.outcome = context.runMix(
        config, std::vector<std::string>(golden.cores, "gpt2"));
    record.wallSeconds = 0; // pinned: fixtures hold behavior, not time
    record.status = SweepStatus::Ok;
    return checkpointRecordOf(golden.name, record);
}

std::string
goldenFixtureText(const SweepCheckpointRecord &record)
{
    return toJsonLine(record) + "\n";
}

std::string
goldenFixturePath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".json";
}

namespace
{

/** Report the first difference of one field; false when equal. */
template <typename T>
bool
report(std::ostringstream &out, const std::string &field, const T &expected,
       const T &actual)
{
    if (expected == actual)
        return false;
    out << field << ": expected " << expected << ", got " << actual;
    return true;
}

/** Vectors report their length, else their first differing element. */
template <typename T>
bool
report(std::ostringstream &out, const std::string &field,
       const std::vector<T> &expected, const std::vector<T> &actual)
{
    if (expected.size() != actual.size()) {
        out << field << ": expected " << expected.size()
            << " entries, got " << actual.size();
        return true;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (report(out, field + "[" + std::to_string(i) + "]", expected[i],
                   actual[i]))
            return true;
    }
    return false;
}

} // namespace

std::string
describeGoldenDiff(const SweepCheckpointRecord &expected,
                   const SweepCheckpointRecord &actual)
{
    std::ostringstream out;
    out.precision(17);
    bool differs =
        report(out, "key", expected.key, actual.key) ||
        report(out, "version", expected.version, actual.version) ||
        report(out, "status", std::string(toString(expected.status)),
               std::string(toString(actual.status)));
    // Then every serialized field but the wall-clock time, which
    // fixtures pin and resumed runs legitimately change.
    auto field = [&](const char *name, const auto &want, const auto &got) {
        if (!differs && std::string_view(name) != "wall_seconds")
            differs = report(out, name, want, got);
    };
    forEachField(field, expected, actual);
    if (!differs &&
        expected.serving.has_value() != actual.serving.has_value()) {
        out << "serving: expected "
            << (expected.serving ? "engaged" : "absent") << ", got "
            << (actual.serving ? "engaged" : "absent");
        differs = true;
    }
    if (!differs && expected.serving)
        forEachServingField(field, *expected.serving, *actual.serving);
    return out.str();
}

namespace
{

double
relativeDeviation(std::uint64_t exact, std::uint64_t fast)
{
    if (exact == 0)
        return fast == 0 ? 0.0 : 1.0;
    return std::fabs(static_cast<double>(fast) -
                     static_cast<double>(exact)) /
           static_cast<double>(exact);
}

} // namespace

FidelityEnvelopeEntry
measureFidelityEnvelope(const GoldenCase &golden)
{
    SweepCheckpointRecord exact = runGoldenCase(golden);
    SweepCheckpointRecord fast =
        runGoldenCase(golden, {}, FidelityKind::Fast);

    FidelityEnvelopeEntry entry;
    entry.name = golden.name;
    entry.exactCycles = exact.globalCycles;
    entry.fastCycles = fast.globalCycles;
    double dev = relativeDeviation(exact.globalCycles, fast.globalCycles);
    std::size_t cores =
        std::min(exact.localCycles.size(), fast.localCycles.size());
    for (std::size_t i = 0; i < cores; ++i) {
        dev = std::max(dev, relativeDeviation(exact.localCycles[i],
                                              fast.localCycles[i]));
    }
    entry.deviation = dev;
    entry.bound = std::max(0.05, dev * 1.25 + 0.01);
    return entry;
}

std::string
fidelityEnvelopeLine(const FidelityEnvelopeEntry &entry)
{
    std::string line = "{\"case\":";
    json::appendString(line, entry.name);
    json::appendField(line, "exact_cycles", entry.exactCycles);
    json::appendField(line, "fast_cycles", entry.fastCycles);
    line += ",\"deviation\":";
    json::appendFixed(line, entry.deviation, 6);
    line += ",\"bound\":";
    json::appendFixed(line, entry.bound, 6);
    line += "}\n";
    return line;
}

std::string
fidelityEnvelopePath(const std::string &dir)
{
    return dir + "/fidelity_envelope.json";
}

bool
parseFidelityEnvelopeLine(const std::string &line,
                          FidelityEnvelopeEntry &out)
{
    json::Value row;
    return json::parse(line, row) && row.getField("case", out.name) &&
           row.getField("exact_cycles", out.exactCycles) &&
           row.getField("fast_cycles", out.fastCycles) &&
           row.getField("deviation", out.deviation) &&
           row.getField("bound", out.bound);
}

} // namespace mnpu
