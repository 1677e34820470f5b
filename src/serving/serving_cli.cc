#include "serving/serving_cli.hh"

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/settings.hh"
#include "common/stop_signal.hh"
#include "serving/engine.hh"
#include "sim/multi_core_system.hh"

namespace mnpu
{

namespace
{

std::string
readFileText(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open arrival trace '", path, "'");
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

SharingLevel
parseServingLevel(const std::string &text)
{
    if (iequals(text, "static"))
        return SharingLevel::Static;
    if (iequals(text, "d"))
        return SharingLevel::ShareD;
    if (iequals(text, "dw"))
        return SharingLevel::ShareDW;
    if (iequals(text, "dwt"))
        return SharingLevel::ShareDWT;
    fatal("unknown sharing level '", text,
          "' (expected static, d, dw, or dwt)");
}

/** Sets a 32-bit count; -1, abc, 4x, 0 and overflow are usage errors. */
std::function<void(const std::string &)>
countInto(std::uint32_t &out)
{
    return [&out](const std::string &value) { out = parseCount(value); };
}

/** Sets a 64-bit value where 0 is meaningful (seed, waived SLO, no cap). */
std::function<void(const std::string &)>
u64Into(std::uint64_t &out)
{
    return [&out](const std::string &value) {
        out = parseCount64(value, true);
    };
}

} // namespace

int
servingMain(int argc, char **argv)
{
    ServingConfig serving;
    SystemConfig config;
    std::uint32_t num_cores = 2;
    bool full_scale = false;
    bool cloud_arch = false;
    bool help = false;
    std::string trace_path, metrics_out, requests_out;

    const std::vector<Flag> table = {
        Flag{"--arrival", "poisson:RATE|trace:FILE",
             "RATE requests/Mcycle, or an arrival,prompt,decode CSV",
             [&](const std::string &spec) {
                 const std::string poisson = "poisson:";
                 const std::string trace = "trace:";
                 if (spec.rfind(poisson, 0) == 0) {
                     serving.poissonRatePerMcycle =
                         parsePositiveReal(spec.substr(poisson.size()));
                     trace_path.clear();
                 } else if (spec.rfind(trace, 0) == 0 &&
                            spec.size() > trace.size()) {
                     trace_path = spec.substr(trace.size());
                 } else {
                     fatal("malformed '", spec,
                           "' (expected poisson:RATE or trace:FILE)");
                 }
             }},
        Flag{"--seed", "N", "arrival seed, 0 to 2^64-1; fixes the outcome",
             u64Into(serving.seed)},
        Flag{"--requests", "N", "requests the Poisson process offers",
             countInto(serving.numRequests)},
        Flag{"--cores", "N", "NPU cores", countInto(num_cores)},
        Flag{"--level", "static|d|dw|dwt", "sharing level",
             [&config](const std::string &value) {
                 config.level = parseServingLevel(value);
             }},
        Flag{"--max-batch", "N", "resident requests per core",
             countInto(serving.maxBatchPerCore)},
        Flag{"--prompt-tokens", "N", "mean prompt length (Poisson mode)",
             countInto(serving.meanPromptTokens)},
        Flag{"--decode-tokens", "N", "mean decode length (Poisson mode)",
             countInto(serving.meanDecodeTokens)},
        Flag{"--ttft-slo", "CYCLES", "time-to-first-token SLO; 0 waives it",
             u64Into(serving.ttftSloCycles)},
        Flag{"--tpot-slo", "CYCLES", "time-per-output-token SLO; 0 waives it",
             u64Into(serving.tpotSloCycles)},
        Flag{"--arch", "mini|cloud", "NPU profile; built-in mini",
             [&cloud_arch](const std::string &value) {
                 if (!iequals(value, "cloud") && !iequals(value, "mini"))
                     fatal("unknown arch '", value, "'");
                 cloud_arch = iequals(value, "cloud");
             }},
        Flag{"--scale", "mini|full", "model scale; built-in mini",
             [&full_scale](const std::string &value) {
                 if (!iequals(value, "full") && !iequals(value, "mini"))
                     fatal("unknown scale '", value, "'");
                 full_scale = iequals(value, "full");
             }},
        Flag{"--max-cycles", "N", "serving-clock cycle cap; 0 = none",
             u64Into(config.maxGlobalCycles)},
        Flag{"--metrics-out", "FILE",
             "telemetry incl. serving.*, .csv or .jsonl",
             [&metrics_out](const std::string &value) {
                 metrics_out = value;
             }},
        Flag{"--requests-out", "FILE", "per-request trace CSV",
             [&requests_out](const std::string &value) {
                 requests_out = value;
             }},
        Flag{"--help", "", "this text",
             [&help](const std::string &) { help = true; }},
    };

    // argv[1] is "--serve"; everything after is flags.
    int first = argc;
    try {
        first = parseFlags(argc, argv, 2, table);
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }
    if (first < argc || help) {
        if (first < argc)
            std::fprintf(stderr, "%s: unknown serve flag\n", argv[first]);
        std::fprintf(stderr,
                     "%s"
                     "exit codes: 0 success, 1 config error, 2 usage,\n"
                     "            3 contained simulation error, 130 "
                     "interrupted\n",
                     flagUsage(std::string("usage: ") + argv[0] +
                                   " --serve",
                               table)
                         .c_str());
        return 2;
    }

    installStopSignalHandlers();
    RunBudget budget;
    budget.stopToken = stopSignalToken();

    try {
        if (!trace_path.empty()) {
            serving.arrivalTrace = readFileText(trace_path);
            // An empty trace string means "use Poisson" to the engine;
            // an empty trace *file* is a config error.
            if (trim(serving.arrivalTrace).empty())
                fatal("arrival trace '", trace_path, "' is empty");
        }
        config.serving = serving;
        ArchConfig arch =
            cloud_arch ? ArchConfig::cloudNpu() : ArchConfig::miniNpu();
        ModelScale scale =
            full_scale ? ModelScale::Full : ModelScale::Mini;
        inform("serving ", serving.numRequests, " GPT-2 requests on ",
               num_cores, " cores at level ", toString(config.level),
               serving.arrivalTrace.empty()
                   ? " (poisson arrivals)"
                   : " (trace arrivals)");
        ServingResult result =
            runServing(arch, scale, config, num_cores, budget);

        const ServingSummary &summary = result.summary;
        std::printf("serving: %llu offered, %llu completed, %llu "
                    "slo-good over %llu cycles (%llu rounds)\n",
                    static_cast<unsigned long long>(summary.offered),
                    static_cast<unsigned long long>(summary.completed),
                    static_cast<unsigned long long>(summary.sloGood),
                    static_cast<unsigned long long>(
                        summary.makespanCycles),
                    static_cast<unsigned long long>(summary.rounds));
        std::printf("ttft p50 %.0f p99 %.0f mean %.0f cycles\n",
                    summary.ttftP50, summary.ttftP99, summary.ttftMean);
        std::printf("tpot p50 %.0f p99 %.0f cycles/token\n",
                    summary.tpotP50, summary.tpotP99);
        std::printf("latency p50 %.0f p99 %.0f cycles\n",
                    summary.latencyP50, summary.latencyP99);
        std::printf("offered %.3f goodput %.3f requests/Mcycle\n",
                    summary.offeredPerMcycle, summary.goodputPerMcycle);

        if (!metrics_out.empty())
            result.aggregate.telemetry.writeFile(metrics_out);
        if (!requests_out.empty()) {
            std::ofstream file(requests_out);
            if (!file)
                fatal("cannot write '", requests_out, "'");
            file << "id,arrival_cycle,core,prompt_tokens,decode_tokens,"
                    "first_token_cycle,finish_cycle,ttft,tpot,latency,"
                    "read_bytes,write_bytes,kv_read_bytes\n";
            for (const RequestRecord &record : result.requests) {
                file << record.id << ',' << record.arrivalCycle << ','
                     << record.core << ',' << record.promptTokens << ','
                     << record.decodeTokens << ','
                     << record.firstTokenCycle << ','
                     << record.finishCycle << ',' << record.ttft()
                     << ',' << record.tpot() << ',' << record.latency()
                     << ',' << record.attributedReadBytes << ','
                     << record.attributedWriteBytes << ','
                     << record.kvReadBytes << '\n';
            }
        }
        return 0;
    } catch (const SimulationError &error) {
        if (error.kind() == SimErrorKind::Cancelled &&
            stopSignalRaised()) {
            std::fprintf(stderr, "interrupted: %s\n", error.what());
            return kInterruptedExitCode;
        }
        std::fprintf(stderr, "simulation error (%s): %s\n",
                     toString(error.kind()), error.what());
        return 3;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "fatal: %s\n", error.what());
        return 1;
    }
}

} // namespace mnpu
