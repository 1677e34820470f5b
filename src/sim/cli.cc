#include "sim/cli.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/stop_signal.hh"
#include "common/thread_pool.hh"
#include "workloads/models.hh"

namespace mnpu
{

namespace
{

/** Read a list file: one non-empty, non-comment line per entry. */
std::vector<std::string>
readListFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open list file '", path, "'");
    std::vector<std::string> entries;
    std::string line;
    while (std::getline(file, line)) {
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (!line.empty())
            entries.push_back(line);
    }
    if (entries.empty())
        fatal("list file '", path, "' has no entries");
    return entries;
}

/** Resolve a path relative to the directory of the list file. */
std::string
resolveRelative(const std::string &list_path, const std::string &entry)
{
    namespace fs = std::filesystem;
    fs::path p(entry);
    if (p.is_absolute() || fs::exists(p))
        return entry;
    fs::path base = fs::path(list_path).parent_path();
    fs::path joined = base / p;
    return joined.string();
}

Network
loadNetworkEntry(const std::string &list_path, const std::string &entry)
{
    const std::string prefix = "builtin:";
    if (entry.rfind(prefix, 0) == 0) {
        std::string spec = entry.substr(prefix.size());
        ModelScale scale = ModelScale::Mini;
        auto at = spec.find('@');
        if (at != std::string::npos) {
            std::string scale_name = spec.substr(at + 1);
            if (iequals(scale_name, "full"))
                scale = ModelScale::Full;
            else if (iequals(scale_name, "mini"))
                scale = ModelScale::Mini;
            else
                fatal("unknown model scale '", scale_name, "' in '",
                      entry, "'");
            spec = spec.substr(0, at);
        }
        return buildModel(spec, scale);
    }
    return Network::fromCsvFile(resolveRelative(list_path, entry));
}

/** Parse "a:b:c" ratio strings into a share vector. */
std::vector<std::uint32_t>
parseRatio(const std::string &text, const char *what)
{
    std::vector<std::uint32_t> shares;
    for (const auto &piece : split(text, ':')) {
        try {
            shares.push_back(
                static_cast<std::uint32_t>(std::stoul(piece)));
        } catch (const std::exception &) {
            fatal("malformed ", what, " ratio '", text, "'");
        }
    }
    return shares;
}

} // namespace

CliRun
loadCliRun(const std::string &arch_list_path,
           const std::string &network_list_path,
           const std::string &dram_config_path,
           const std::string &npumem_list_path,
           const std::string &misc_config_path)
{
    CliRun run;

    // --- per-core arch and network configs ---
    auto arch_entries = readListFile(arch_list_path);
    auto net_entries = readListFile(network_list_path);
    if (arch_entries.size() != net_entries.size()) {
        fatal("arch list (", arch_entries.size(), ") and network list (",
              net_entries.size(), ") must have one entry per core");
    }
    const auto num_cores = static_cast<std::uint32_t>(arch_entries.size());

    std::vector<ArchConfig> archs;
    for (const auto &entry : arch_entries) {
        auto config = ConfigFile::fromFile(
            resolveRelative(arch_list_path, entry));
        archs.push_back(ArchConfig::fromConfig(config));
    }

    // --- npumem: per-core memory-side parameters ---
    auto npumem_entries = readListFile(npumem_list_path);
    if (npumem_entries.size() != num_cores)
        fatal("npumem list must have one entry per core");
    NpuMemConfig mem;
    for (std::size_t i = 0; i < npumem_entries.size(); ++i) {
        auto config = ConfigFile::fromFile(
            resolveRelative(npumem_list_path, npumem_entries[i]));
        NpuMemConfig core_mem;
        core_mem.tlbEntriesPerNpu = static_cast<std::uint32_t>(
            config.getUint("tlb_entries", mem.tlbEntriesPerNpu));
        core_mem.tlbWays = static_cast<std::uint32_t>(
            config.getUint("tlb_ways", mem.tlbWays));
        core_mem.ptwPerNpu = static_cast<std::uint32_t>(
            config.getUint("ptw", mem.ptwPerNpu));
        if (config.has("page_size")) {
            core_mem.pageBytes = ConfigFile::parseSize(
                config.requireString("page_size"));
        }
        if (i == 0) {
            mem.tlbEntriesPerNpu = core_mem.tlbEntriesPerNpu;
            mem.tlbWays = core_mem.tlbWays;
            mem.ptwPerNpu = core_mem.ptwPerNpu;
            mem.pageBytes = core_mem.pageBytes;
        } else if (core_mem.tlbEntriesPerNpu != mem.tlbEntriesPerNpu ||
                   core_mem.tlbWays != mem.tlbWays ||
                   core_mem.ptwPerNpu != mem.ptwPerNpu ||
                   core_mem.pageBytes != mem.pageBytes) {
            warn("npumem config of core ", i, " differs from core 0; ",
                 "shared structures use core 0's parameters");
        }
    }

    // --- dram config: device, budgets, and the sharing level ---
    auto dram_config = ConfigFile::fromFile(dram_config_path);
    mem.timing = DramTiming::fromConfig(dram_config, "dram.");
    mem.channelsPerNpu = static_cast<std::uint32_t>(
        dram_config.getUint("channels_per_npu", mem.channelsPerNpu));
    if (dram_config.has("capacity_per_npu")) {
        mem.dramCapacityPerNpu = ConfigFile::parseSize(
            dram_config.requireString("capacity_per_npu"));
    }
    mem.dramQueueDepth = static_cast<std::uint32_t>(
        dram_config.getUint("queue_depth", mem.dramQueueDepth));
    mem.translationEnabled =
        dram_config.getBool("translation", mem.translationEnabled);

    std::string sharing = dram_config.getString("sharing", "dwt");
    if (iequals(sharing, "static"))
        run.config.level = SharingLevel::Static;
    else if (iequals(sharing, "d"))
        run.config.level = SharingLevel::ShareD;
    else if (iequals(sharing, "dw"))
        run.config.level = SharingLevel::ShareDW;
    else if (iequals(sharing, "dwt"))
        run.config.level = SharingLevel::ShareDWT;
    else if (iequals(sharing, "ideal"))
        run.config.level = SharingLevel::Ideal;
    else
        fatal("unknown sharing level '", sharing,
              "' (expected static, d, dw, dwt, or ideal)");

    if (dram_config.has("bandwidth_shares")) {
        run.config.dramBandwidthShares = parseRatio(
            dram_config.requireString("bandwidth_shares"), "bandwidth");
    }

    // --- memory backend and fabric (DESIGN.md §14) ---
    if (dram_config.has("mem_backend")) {
        mem.backend = memBackendSetting().parse(
            dram_config.requireString("mem_backend"));
    }
    mem.pcm.cacheLines = static_cast<std::uint32_t>(
        dram_config.getUint("pcm.cache_lines", mem.pcm.cacheLines));
    mem.pcm.cacheHitLatency = dram_config.getUint("pcm.cache_hit_latency",
                                                  mem.pcm.cacheHitLatency);
    mem.pcm.writeCommitCycles = dram_config.getUint(
        "pcm.write_commit_cycles", mem.pcm.writeCommitCycles);
    mem.pcm.hitQueueDepth = static_cast<std::uint32_t>(
        dram_config.getUint("pcm.hit_queue_depth", mem.pcm.hitQueueDepth));
    mem.fabric.enabled =
        dram_config.getBool("fabric.enabled", mem.fabric.enabled);
    mem.fabric.ports = static_cast<std::uint32_t>(
        dram_config.getUint("fabric.ports", mem.fabric.ports));
    mem.fabric.queueDepth = static_cast<std::uint32_t>(
        dram_config.getUint("fabric.queue_depth", mem.fabric.queueDepth));
    mem.fabric.widthBytes = static_cast<std::uint32_t>(
        dram_config.getUint("fabric.width_bytes", mem.fabric.widthBytes));
    mem.fabric.latencyCycles = dram_config.getUint(
        "fabric.latency_cycles", mem.fabric.latencyCycles);

    // --- misc config: execution mode ---
    auto misc = ConfigFile::fromFile(misc_config_path);
    run.config.idealResourceMultiplier = static_cast<std::uint32_t>(
        misc.getUint("ideal_resource_multiplier",
                     run.config.level == SharingLevel::Ideal ? num_cores
                                                             : 1));
    if (run.config.level != SharingLevel::Ideal)
        run.config.idealResourceMultiplier = 1;
    if (misc.has("ptw_quota")) {
        run.config.ptwQuota =
            parseRatio(misc.requireString("ptw_quota"), "PTW quota");
    }
    if (misc.has("ptw_min") || misc.has("ptw_max")) {
        run.config.ptwMin =
            parseRatio(misc.requireString("ptw_min"), "PTW min");
        run.config.ptwMax =
            parseRatio(misc.requireString("ptw_max"), "PTW max");
    }
    run.config.telemetryWindow = misc.getUint("telemetry_window", 0);
    run.config.requestTraceWindow =
        misc.getUint("request_trace_window", 0);
    run.config.maxGlobalCycles = misc.getUint("max_cycles", 0);
    run.requestLogs = misc.getBool("request_logs", false);
    run.config.mem = mem;

    // --- bind workloads to cores ---
    // Network files are read serially (deterministic error reporting);
    // the expensive per-core trace lowering fans out over the pool.
    std::vector<Network> networks;
    networks.reserve(num_cores);
    for (std::uint32_t core = 0; core < num_cores; ++core) {
        networks.push_back(
            loadNetworkEntry(network_list_path, net_entries[core]));
    }
    std::vector<std::shared_ptr<const TraceGenerator>> traces(num_cores);
    ThreadPool pool;
    pool.parallelFor(num_cores, [&](std::size_t core) {
        traces[core] = std::make_shared<TraceGenerator>(archs[core],
                                                        networks[core]);
    });
    for (std::uint32_t core = 0; core < num_cores; ++core) {
        CoreBinding binding;
        binding.trace = std::move(traces[core]);
        binding.startCycleGlobal = misc.getUint(
            "start_cycle" + std::to_string(core),
            misc.getUint("start_cycle", 0));
        binding.iterations = static_cast<std::uint32_t>(misc.getUint(
            "iterations" + std::to_string(core),
            misc.getUint("iterations", 1)));
        run.coreLabels.push_back(archs[core].name +
                                 std::to_string(core) + "_" +
                                 networks[core].name +
                                 std::to_string(core));
        run.bindings.push_back(std::move(binding));
    }
    return run;
}

void
writeResults(const std::string &result_dir, const CliRun &run,
             const SimResult &result)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(result_dir) / "result";
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create result directory '", dir.string(), "': ",
              ec.message());

    auto open = [&](const std::string &prefix, const std::string &label) {
        fs::path path = dir / (prefix + "_" + label + ".txt");
        std::ofstream file(path);
        if (!file)
            fatal("cannot write '", path.string(), "'");
        return file;
    };

    for (std::size_t core = 0; core < result.cores.size(); ++core) {
        const CoreResult &cr = result.cores[core];
        const std::string &label = run.coreLabels[core];
        const TraceGenerator &trace = *run.bindings[core].trace;

        {
            auto file = open("avg_cycle", label);
            file << "# average execution cycles per iteration (NPU "
                    "clock)\n";
            file << cr.localCycles /
                        std::max<std::uint32_t>(
                            1, run.bindings[core].iterations)
                 << "\n";
        }
        {
            auto file = open("memory_footprint", label);
            file << "# virtual-address footprint in bytes\n";
            file << trace.footprintBytes() << "\n";
        }
        {
            auto file = open("execution_cycle", label);
            file << "# layer_name finish_cycle layer_cycles\n";
            Cycle previous = 0;
            for (std::size_t i = 0; i < trace.layers().size(); ++i) {
                Cycle finish = cr.layerFinishLocal[i];
                file << trace.layers()[i].name << " " << finish << " "
                     << finish - previous << "\n";
                previous = finish;
            }
        }
        {
            auto file = open("utilization", label);
            file << "# PE utilization (MACs / (PEs x active cycles))\n";
            file << cr.peUtilization << "\n";
        }
    }
}

std::vector<Flag>
runFlags(RunFlags &flags)
{
    return {
        settingFlag("--jobs", jobsSetting(),
                    "workers; built-in: hardware threads"),
        Flag{"--job-timeout", "S", "wall-clock budget per run, seconds",
             [&flags](const std::string &value) {
                 flags.jobTimeout = parsePositiveReal(value);
             }},
        settingFlag("--check", checkLevelSetting(),
                    "integrity checkers; built-in off"),
        settingFlag("--fidelity", fidelitySetting(),
                    "fast = analytic tile model"),
        settingFlag("--mem-backend", memBackendSetting(),
                    "off-chip memory; built-in hbm2"),
        Flag{"--inject", "SITE[:N[:DELAY]]",
             "fault drill fired at the Nth opportunity",
             [&flags](const std::string &value) {
                 flags.injectPlan = parseFaultPlan(value);
             }},
        Flag{"--snapshot-every", "N[c|s]",
             "snapshot every N cycles (N, Nc) or N seconds (Ns)",
             [&flags](const std::string &value) {
                 // "N" or "Nc" = every N simulated cycles; "Ns" = every
                 // N wall-clock seconds (fractions allowed).
                 char *end = nullptr;
                 const double amount = std::strtod(value.c_str(), &end);
                 bool ok = end != value.c_str() && amount > 0;
                 if (ok && *end == 's' && end[1] == '\0') {
                     flags.snapshot.everySeconds = amount;
                 } else if (ok && (*end == '\0' ||
                                   (*end == 'c' && end[1] == '\0'))) {
                     flags.snapshot.everyCycles =
                         static_cast<Cycle>(amount);
                     ok = flags.snapshot.everyCycles > 0;
                 } else {
                     ok = false;
                 }
                 if (!ok)
                     fatal("malformed cadence '", value,
                           "' (expected N, Nc, or Ns)");
             }},
        Flag{"--trace-out", "FILE",
             "Chrome trace_event JSON (env MNPU_TRACE)",
             [&flags](const std::string &value) {
                 flags.obs.traceOutPath = value;
             }},
        Flag{"--metrics-out", "FILE",
             "telemetry, .csv or .jsonl (env MNPU_METRICS)",
             [&flags](const std::string &value) {
                 flags.obs.metricsOutPath = value;
             }},
        settingFlag("--obs-level", traceLevelSetting(),
                    "span detail; built-in tiles"),
    };
}

int
mnpusimMain(int argc, char **argv)
{
    // Optional leading flags before the six positional arguments.
    RunFlags flags;
    std::vector<Flag> table = runFlags(flags);
    table.push_back(Flag{
        "--snapshot", "FILE",
        "in-flight snapshot file; a valid one resumes the run",
        [&flags](const std::string &value) {
            flags.snapshot.path = value;
        }});
    int first = 1;
    try {
        first = parseFlags(argc, argv, 1, table);
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }
    if (argc - first != 6 || argv[first][0] == '-') {
        const char *name = argc > 0 ? argv[0] : "mnpusim";
        if (first < argc && argv[first][0] == '-')
            std::fprintf(stderr, "%s: unknown flag\n", argv[first]);
        std::fprintf(
            stderr,
            "usage: %s [flags] <arch_config_list> <network_config_list>\n"
            "       <dram_config> <npumem_config_list> <result_path> "
            "<misc_config>\n"
            "%s"
            "Settings resolve: config key > flag > env > built-in.\n"
            "exit codes: 0 success, 1 config error, 2 usage,\n"
            "            3 contained simulation error,\n"
            "            130 interrupted (SIGINT/SIGTERM: the first\n"
            "            signal cancels cooperatively, a second\n"
            "            force-exits)\n"
            "request-level serving mode (arrivals, continuous batching,\n"
            "SLO metrics) lives behind its own flag set: see\n"
            "  %s --serve --help\n",
            name, flagUsage("flags:", table).c_str(), name);
        return 2;
    }
    argv += first - 1; // keep the 1-based positional indices below
    // Graceful interruption: the first SIGINT/SIGTERM raises the stop
    // token (the run cancels at its next watchdog check), a second
    // force-exits with the same code.
    installStopSignalHandlers();
    RunBudget budget;
    budget.wallClockSeconds = flags.jobTimeout;
    budget.stopToken = stopSignalToken();
    try {
        CliRun run = loadCliRun(argv[1], argv[2], argv[3], argv[4],
                                argv[6]);
        run.config.faultPlan = flags.injectPlan;
        run.config.obs = observabilityFromEnv(flags.obs);
        inform("simulating ", run.bindings.size(), "-core NPU at level ",
               toString(run.config.level));
        if (flags.injectPlan.site != FaultSite::None) {
            inform("injecting fault ", toString(flags.injectPlan.site),
                   " at opportunity ", flags.injectPlan.triggerCount,
                   " (checks: ",
                   toString(checkLevelSetting().effective(
                       run.config.checkLevel)),
                   ")");
        }
        if (run.requestLogs) {
            run.config.requestLogDir =
                std::string(argv[5]) + "/dramsim_output";
        }
        auto buildSystem = [&run]() {
            CliRun writable = run; // bindings are shared_ptr copies
            return std::make_unique<MultiCoreSystem>(
                run.config, std::move(writable.bindings));
        };
        auto system = buildSystem();
        const SnapshotPolicy &snapshot = flags.snapshot;
        if (snapshot.enabled()) {
            budget.snapshot = snapshot;
            if (std::filesystem::exists(snapshot.path)) {
                if (system->tryRestoreSnapshot(snapshot.path)) {
                    inform("resuming from snapshot '", snapshot.path,
                           "'");
                } else {
                    // A rejected restore may leave components partially
                    // loaded (the documented contract): discard and
                    // build a fresh system, then run from scratch.
                    system = buildSystem();
                }
            }
        }
        SimResult result = system->run(budget);
        if (result.resumedAtCycle != 0) {
            inform("resumed at global cycle ", result.resumedAtCycle,
                   " (iteration ", result.resumedAtIteration,
                   "), not from zero");
        }
        writeResults(argv[5], run, result);
        for (std::size_t core = 0; core < result.cores.size(); ++core) {
            std::printf("core %zu (%s): %llu cycles, PE util %.2f%%\n",
                        core, run.coreLabels[core].c_str(),
                        static_cast<unsigned long long>(
                            result.cores[core].localCycles),
                        100.0 * result.cores[core].peUtilization);
        }
        return 0;
    } catch (const SimulationError &error) {
        if (error.kind() == SimErrorKind::Cancelled &&
            stopSignalRaised()) {
            std::fprintf(stderr, "interrupted: %s\n", error.what());
            return kInterruptedExitCode;
        }
        // Recoverable run failure (deadlock / budget / timeout): a
        // distinct exit code so sweep scripts can tell it from a
        // configuration mistake.
        std::fprintf(stderr, "simulation error (%s): %s\n",
                     toString(error.kind()), error.what());
        return 3;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "fatal: %s\n", error.what());
        return 1;
    }
}

} // namespace mnpu
