#include "mem/memory_backend.hh"

#include "dram/dram_system.hh"
#include "mem/pcm_backend.hh"
#include "mem/tiered_backend.hh"
#include "mem/xbar.hh"

namespace mnpu
{

Setting<MemBackendKind> &
memBackendSetting()
{
    static Setting<MemBackendKind> setting(
        "memory backend", "MNPU_MEM_BACKEND", MemBackendKind::Dram,
        {{"hbm2", MemBackendKind::Dram},
         {"dram", MemBackendKind::Dram},
         {"pcm", MemBackendKind::Pcm},
         {"tiered", MemBackendKind::Tiered}},
        /*ignore_case=*/true);
    return setting;
}

const char *
toString(MemBackendKind kind)
{
    return memBackendSetting().toString(kind);
}

std::unique_ptr<MemoryBackend>
makeMemoryBackend(MemBackendKind kind, const DramTiming &timing,
                  std::uint32_t num_channels, std::uint32_t num_cores,
                  std::uint32_t queue_depth, const PcmConfig &pcm,
                  const FabricConfig &fabric)
{
    std::unique_ptr<MemoryBackend> backend;
    switch (kind) {
    case MemBackendKind::Dram:
        backend = std::make_unique<DramSystem>(timing, num_channels,
                                               num_cores, queue_depth);
        break;
    case MemBackendKind::Pcm:
        backend = std::make_unique<PcmBackend>(DramTiming::pcm(),
                                               num_channels, num_cores,
                                               queue_depth, pcm);
        break;
    case MemBackendKind::Tiered:
        backend = std::make_unique<TieredBackend>(timing, num_channels,
                                                  num_cores, queue_depth,
                                                  pcm);
        break;
    }
    if (fabric.enabled)
        backend = std::make_unique<XBar>(std::move(backend), fabric);
    return backend;
}

} // namespace mnpu
