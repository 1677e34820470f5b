#include "workloads/random_network.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mnpu
{

Network
randomNetwork(Rng &rng, const RandomNetOptions &options)
{
    if (options.minLayers == 0 || options.minLayers > options.maxLayers)
        fatal("randomNetwork: bad layer count range");

    Network net;
    net.name = "rand";
    net.name += std::to_string(rng.range(0, 0xffffff));
    std::uint32_t layers = static_cast<std::uint32_t>(
        rng.range(options.minLayers, options.maxLayers));

    for (std::uint32_t i = 0; i < layers; ++i) {
        std::string name = "L";
        name += std::to_string(i);
        if (rng.uniform() < options.convProbability) {
            const std::uint32_t kernels[] = {1, 3, 3, 5};
            std::uint32_t k = kernels[rng.range(0, 3)];
            std::uint32_t spatial = static_cast<std::uint32_t>(
                rng.range(options.minSpatial, options.maxSpatial));
            spatial = std::max(spatial, k);
            std::uint32_t in_c = static_cast<std::uint32_t>(
                rng.range(options.minChannels, options.maxChannels));
            std::uint32_t out_c = static_cast<std::uint32_t>(
                rng.range(options.minChannels, options.maxChannels));
            std::uint32_t stride =
                (spatial > 2 * k && rng.uniform() < 0.25) ? 2 : 1;
            net.layers.push_back(Layer::conv(name, spatial, spatial, in_c,
                                             k, out_c, stride, k / 2));
        } else {
            std::uint64_t m =
                rng.range(options.minGemmDim, options.maxGemmDim);
            std::uint64_t n =
                rng.range(options.minGemmDim, options.maxGemmDim);
            std::uint64_t k =
                rng.range(options.minGemmDim, options.maxGemmDim);
            // Occasionally force the skinny (M=1) memory-bound shape
            // RNN-style workloads exhibit.
            if (rng.uniform() < 0.2)
                m = 1;
            net.layers.push_back(Layer::gemm(name, m, n, k));
        }
    }
    net.validate();
    return net;
}

} // namespace mnpu
