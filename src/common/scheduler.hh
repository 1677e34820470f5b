/**
 * @file
 * Scheduler selection for MultiCoreSystem::run(): the classic
 * per-cycle loop versus the event-driven cycle-skipping loop.
 *
 * Both schedulers execute the *same* component tick() functions in the
 * same order at every visited cycle; they differ only in which cycles
 * are visited. Cycle mode visits every global cycle (each component's
 * conservative nextTickCycle() bound collapses to now+1 whenever the
 * component is busy). Event mode asks each component for a sharp
 * nextEventCycle() lower bound on its next state change and jumps the
 * clock straight to the minimum. The bound contract (see DESIGN.md §8)
 * guarantees that every cycle skipped by event mode would have been a
 * no-op under cycle mode, so all telemetry — cycle counts, per-core
 * counters, even the DRAM command stream — is bit-identical. The
 * golden-trace and differential test suites enforce exactly that.
 */

#ifndef MNPU_COMMON_SCHEDULER_HH
#define MNPU_COMMON_SCHEDULER_HH

#include "common/settings.hh"

namespace mnpu
{

/** Which main-loop stepping strategy MultiCoreSystem::run() uses. */
enum class SchedulerKind
{
    Cycle, //!< visit every global cycle (the original loop)
    Event, //!< skip to the minimum component event bound (default)
};

/** --sched / MNPU_SCHED; built-in Event (see common/settings.hh). */
Setting<SchedulerKind> &schedulerSetting();

const char *toString(SchedulerKind kind);

} // namespace mnpu

#endif // MNPU_COMMON_SCHEDULER_HH
