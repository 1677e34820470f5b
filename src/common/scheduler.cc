#include "common/scheduler.hh"

namespace mnpu
{

Setting<SchedulerKind> &
schedulerSetting()
{
    static Setting<SchedulerKind> setting(
        "scheduler", "MNPU_SCHED", SchedulerKind::Event,
        {{"cycle", SchedulerKind::Cycle}, {"event", SchedulerKind::Event}});
    return setting;
}

const char *
toString(SchedulerKind kind)
{
    return schedulerSetting().toString(kind);
}

} // namespace mnpu
