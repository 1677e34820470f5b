/**
 * @file
 * The paper-style command-line front end: mNPUsim takes five kinds of
 * configuration files (§3.2.1) —
 *
 *   1. arch_config      per-core NPU compute resources (list file)
 *   2. network_config   per-core DNN topology (list file)
 *   3. dram_config      shared DRAM + level of resource sharing
 *   4. npumem_config    per-core TLB/PTW/page-size parameters (list)
 *   5. misc_config      execution mode: start cycles, iterations, PTW
 *                       partition options, trace options
 *
 * — plus a result directory. Results follow the Appendix conventions:
 * result/avg_cycle_<arch><i>_<net><i>.txt, memory_footprint_*,
 * execution_cycle_* (per layer), and utilization_*.
 */

#ifndef MNPU_SIM_CLI_HH
#define MNPU_SIM_CLI_HH

#include <string>
#include <vector>

#include "common/settings.hh"
#include "sim/multi_core_system.hh"

namespace mnpu
{

/** A fully-loaded CLI invocation, ready to construct a system. */
struct CliRun
{
    SystemConfig config;
    std::vector<CoreBinding> bindings;
    /** Per-core "<archname><i>_<netname><i>" labels for result files. */
    std::vector<std::string> coreLabels;
    /** misc_config `request_logs`: write logs under dramsim_output/. */
    bool requestLogs = false;
};

/**
 * Load the five configuration files. List files contain one entry per
 * line; network entries are either `builtin:<model>[@full|@mini]` or a
 * CSV topology path. fatal() on any inconsistency.
 */
CliRun loadCliRun(const std::string &arch_list_path,
                  const std::string &network_list_path,
                  const std::string &dram_config_path,
                  const std::string &npumem_list_path,
                  const std::string &misc_config_path);

/**
 * Write the Appendix-style result files under
 * `<result_dir>/result/`. Creates directories as needed.
 */
void writeResults(const std::string &result_dir, const CliRun &run,
                  const SimResult &result);

/**
 * Run flags shared by mnpusim and the benches. The setting flags
 * (--check, --fidelity, --mem-backend, --obs-level, --jobs) set
 * their settings' process defaults; the rest land here.
 */
struct RunFlags
{
    FaultPlan injectPlan;    //!< --inject
    ObservabilityConfig obs; //!< --trace-out, --metrics-out
    double jobTimeout = 0;   //!< --job-timeout seconds; 0 = none
    SnapshotPolicy snapshot; //!< --snapshot-every cadence
};

/** The shared flag table, writing into @p flags (which must outlive it). */
std::vector<Flag> runFlags(RunFlags &flags);

/** Entry point used by the mnpusim binary (argc/argv as in §7.3). */
int mnpusimMain(int argc, char **argv);

} // namespace mnpu

#endif // MNPU_SIM_CLI_HH
