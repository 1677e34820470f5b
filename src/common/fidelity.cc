#include "common/fidelity.hh"

namespace mnpu
{

Setting<FidelityKind> &
fidelitySetting()
{
    static Setting<FidelityKind> setting(
        "fidelity", "MNPU_FIDELITY", FidelityKind::Exact,
        {{"exact", FidelityKind::Exact}, {"fast", FidelityKind::Fast}});
    return setting;
}

const char *
toString(FidelityKind kind)
{
    return fidelitySetting().toString(kind);
}

FidelityKind
resolvedFidelityKind(const std::optional<FidelityKind> &configured,
                     bool fault_armed, CheckLevel check_level)
{
    FidelityKind requested = fidelitySetting().effective(configured);
    if (requested == FidelityKind::Fast &&
        (fault_armed || check_level != CheckLevel::Off))
        return FidelityKind::Exact;
    return requested;
}

} // namespace mnpu
