/**
 * @file
 * Recoverable simulation-failure taxonomy, distinct from both
 * FatalError (a user configuration mistake, logging.hh) and
 * mnpu_panic (a simulator bug, which still aborts):
 *
 *   SimulationError — one simulation run could not finish, but the
 *   process and every other run are fine. Deadlock, a blown cycle
 *   budget, a wall-clock timeout, and cooperative cancellation all
 *   land here so that sweep layers can contain the failure per job
 *   instead of losing the whole campaign.
 */

#ifndef MNPU_COMMON_ERRORS_HH
#define MNPU_COMMON_ERRORS_HH

#include <stdexcept>
#include <string>

namespace mnpu
{

/** Why a simulation run stopped without completing. */
enum class SimErrorKind
{
    Deadlock,         //!< no future event while cores are unfinished
    CycleBudget,      //!< exceeded the global-cycle cap
    WallClockTimeout, //!< exceeded the wall-clock deadline (watchdog)
    Cancelled,        //!< external stop token was raised
    ProtocolViolation, //!< DRAM command stream broke a timing constraint
    RequestLifecycle,  //!< lost/duplicated/mis-addressed off-chip request
    MmuConsistency,    //!< translation or walk accounting disagreed
    WorkerCrash,       //!< isolated sweep worker process died hard
                       //!< (signal/abort/rlimit); raised by the
                       //!< process-pool supervisor, never in-process
};

const char *toString(SimErrorKind kind);

/** A single run failed in a contained, recoverable way. */
class SimulationError : public std::runtime_error
{
  public:
    SimulationError(SimErrorKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {}

    SimErrorKind kind() const { return kind_; }

    /** Whether the run hit a cycle or wall-clock budget (a timeout,
     * not a failure). */
    bool isBudget() const
    {
        return kind_ == SimErrorKind::CycleBudget ||
               kind_ == SimErrorKind::WallClockTimeout;
    }

  private:
    SimErrorKind kind_;
};

} // namespace mnpu

#endif // MNPU_COMMON_ERRORS_HH
