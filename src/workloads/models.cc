#include "workloads/models.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mnpu
{

namespace
{

/**
 * ResNet-50: conv1 + four bottleneck stages + the classifier.
 * @p blocks gives the bottleneck count per stage; @p input the spatial
 * size of the 3-channel input.
 */
Network
resnet(const std::string &name, std::uint32_t input,
       const std::vector<std::uint32_t> &blocks)
{
    Network net;
    net.name = name;
    std::uint32_t spatial = input / 2; // conv1 stride 2
    net.layers.push_back(
        Layer::conv("conv1", input, input, 3, 7, 64, 2, 3));
    spatial /= 2; // 3x3 max-pool stride 2 (folded into dimensions)

    struct Stage
    {
        std::uint32_t mid, out, stride;
    };
    const Stage stages[] = {
        {64, 256, 1}, {128, 512, 2}, {256, 1024, 2}, {512, 2048, 2}};
    std::uint32_t in_c = 64;
    for (std::size_t s = 0; s < 4; ++s) {
        const Stage &stage = stages[s];
        for (std::uint32_t b = 0; b < blocks[s]; ++b) {
            std::uint32_t stride = (b == 0) ? stage.stride : 1;
            std::string base = "s";
            base += std::to_string(s + 2);
            base += 'b';
            base += std::to_string(b + 1);
            net.layers.push_back(Layer::conv(base + "_1x1a", spatial,
                                             spatial, in_c, 1, stage.mid,
                                             stride, 0));
            std::uint32_t mid_spatial = spatial / stride;
            net.layers.push_back(Layer::conv(base + "_3x3", mid_spatial,
                                             mid_spatial, stage.mid, 3,
                                             stage.mid, 1, 1));
            net.layers.push_back(Layer::conv(base + "_1x1b", mid_spatial,
                                             mid_spatial, stage.mid, 1,
                                             stage.out, 1, 0));
            if (b == 0) {
                net.layers.push_back(Layer::conv(base + "_down", spatial,
                                                 spatial, in_c, 1,
                                                 stage.out, stride, 0));
            }
            in_c = stage.out;
            spatial = mid_spatial;
        }
    }
    net.layers.push_back(Layer::fullyConnected("fc", in_c, 1000));
    return net;
}

/** YOLOv2-tiny backbone; max-pools folded into the spatial dims. */
Network
yoloTiny(const std::string &name, std::uint32_t input,
         std::uint32_t depth)
{
    struct Spec
    {
        std::uint32_t div, in_c, out_c;
    };
    // (input / div) spatial, 3x3 convs, channel doubling chain.
    const Spec specs[] = {{1, 3, 16},     {2, 16, 32},   {4, 32, 64},
                          {8, 64, 128},   {16, 128, 256}, {32, 256, 512},
                          {32, 512, 1024}, {32, 1024, 1024}};
    Network net;
    net.name = name;
    for (std::uint32_t i = 0; i < depth && i < std::size(specs); ++i) {
        const Spec &spec = specs[i];
        std::uint32_t spatial = input / spec.div;
        net.layers.push_back(Layer::conv("conv" + std::to_string(i + 1),
                                         spatial, spatial, spec.in_c, 3,
                                         spec.out_c, 1, 1));
    }
    // Detection head: 1x1 to 125 channels (5 anchors x 25).
    std::uint32_t head_spatial = input / 32;
    std::uint32_t head_in = net.layers.back().outC;
    net.layers.push_back(Layer::conv("head", head_spatial, head_spatial,
                                     head_in, 1, 125, 1, 0));
    return net;
}

Network
alexnet(const std::string &name)
{
    Network net;
    net.name = name;
    net.layers = {
        Layer::conv("conv1", 227, 227, 3, 11, 96, 4, 0),
        Layer::conv("conv2", 27, 27, 96, 5, 256, 1, 2),
        Layer::conv("conv3", 13, 13, 256, 3, 384, 1, 1),
        Layer::conv("conv4", 13, 13, 384, 3, 384, 1, 1),
        Layer::conv("conv5", 13, 13, 384, 3, 256, 1, 1),
        Layer::fullyConnected("fc6", 9216, 4096),
        Layer::fullyConnected("fc7", 4096, 4096),
        Layer::fullyConnected("fc8", 4096, 1000),
    };
    return net;
}

/**
 * Selfish-RNN: stacked LSTM language model (hidden size h). Each
 * timestep is one M=1 GEMM against the cell's 2h x 4h weight, shared
 * across timesteps via weightTag — extremely memory-bound, as the weight
 * matrix re-streams from DRAM every step.
 */
Network
selfishRnn(const std::string &name, std::uint32_t hidden,
           std::uint32_t layers, std::uint32_t steps)
{
    Network net;
    net.name = name;
    for (std::uint32_t l = 0; l < layers; ++l) {
        std::string tag = "lstm" + std::to_string(l);
        for (std::uint32_t t = 0; t < steps; ++t) {
            Layer layer = Layer::gemm(
                tag + "_t" + std::to_string(t), 1,
                static_cast<std::uint64_t>(4) * hidden,
                static_cast<std::uint64_t>(2) * hidden);
            layer.weightTag = tag;
            net.layers.push_back(layer);
        }
    }
    net.layers.push_back(Layer::fullyConnected("decoder", hidden, 10000));
    return net;
}

/**
 * DeepSpeech2: per-layer time-batched input GEMM plus sequential
 * recurrent GEMMs with shared weights (bidirectional GRU flavor).
 */
Network
deepspeech2(const std::string &name, std::uint32_t hidden,
            std::uint32_t layers, std::uint32_t time_batch,
            std::uint32_t rec_steps)
{
    Network net;
    net.name = name;
    std::uint32_t input_features = 2 * hidden;
    for (std::uint32_t l = 0; l < layers; ++l) {
        std::string tag = "gru" + std::to_string(l);
        net.layers.push_back(Layer::gemm(
            tag + "_in", time_batch, static_cast<std::uint64_t>(3) * hidden,
            input_features));
        for (std::uint32_t t = 0; t < rec_steps; ++t) {
            Layer rec = Layer::gemm(
                tag + "_rec" + std::to_string(t), 1,
                static_cast<std::uint64_t>(3) * hidden, hidden);
            rec.weightTag = tag + "_rec";
            net.layers.push_back(rec);
        }
        input_features = hidden;
    }
    net.layers.push_back(
        Layer::fullyConnected("ctc", hidden, 29, time_batch));
    return net;
}

/** DLRM: multi-hot embedding gathers + bottom/top MLPs over a batch. */
Network
dlrm(const std::string &name, std::uint32_t tables,
     std::uint64_t table_rows, std::uint32_t lookups_per_sample,
     std::uint32_t batch)
{
    Network net;
    net.name = name;
    constexpr std::uint32_t dim = 64;
    for (std::uint32_t t = 0; t < tables; ++t) {
        net.layers.push_back(
            Layer::embedding("emb" + std::to_string(t), table_rows, dim,
                             lookups_per_sample, batch));
    }
    net.layers.push_back(Layer::fullyConnected("bot0", 13, 512, batch));
    net.layers.push_back(Layer::fullyConnected("bot1", 512, 256, batch));
    net.layers.push_back(Layer::fullyConnected("bot2", 256, dim, batch));
    net.layers.push_back(Layer::fullyConnected("top0", 367, 512, batch));
    net.layers.push_back(Layer::fullyConnected("top1", 512, 256, batch));
    net.layers.push_back(Layer::fullyConnected("top2", 256, 1, batch));
    return net;
}

/** NCF (NeuMF): two embeddings + MLP tower over a scoring batch. */
Network
ncf(const std::string &name, std::uint64_t users, std::uint64_t items,
    std::uint32_t batch)
{
    Network net;
    net.name = name;
    constexpr std::uint32_t dim = 64;
    net.layers.push_back(
        Layer::embedding("emb_user", users, dim, 1, batch));
    net.layers.push_back(
        Layer::embedding("emb_item", items, dim, 1, batch));
    net.layers.push_back(
        Layer::fullyConnected("mlp0", 2 * dim, 256, batch));
    net.layers.push_back(Layer::fullyConnected("mlp1", 256, 128, batch));
    net.layers.push_back(Layer::fullyConnected("mlp2", 128, 64, batch));
    net.layers.push_back(Layer::fullyConnected("predict", 64, 1, batch));
    return net;
}

/**
 * GPT-2: decoder blocks at sequence length S, d_model 768. Attention
 * score/context products are folded into MAC-equivalent GEMMs.
 */
Network
gpt2(const std::string &name, std::uint32_t seq, std::uint32_t blocks,
     std::uint32_t vocab)
{
    Network net;
    net.name = name;
    constexpr std::uint32_t d = 768;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        std::string base = "blk" + std::to_string(b);
        net.layers.push_back(Layer::gemm(base + "_qkv", seq, 3 * d, d));
        net.layers.push_back(Layer::gemm(base + "_scores", seq, seq, d));
        net.layers.push_back(Layer::gemm(base + "_ctx", seq, d, seq));
        net.layers.push_back(Layer::gemm(base + "_proj", seq, d, d));
        net.layers.push_back(Layer::gemm(base + "_mlp1", seq, 4 * d, d));
        net.layers.push_back(Layer::gemm(base + "_mlp2", seq, d, 4 * d));
    }
    net.layers.push_back(Layer::gemm("lm_head", seq, vocab, d));
    return net;
}

/** Decoder geometry per scale; matches the batch gpt2() builders. */
struct Gpt2Geometry
{
    std::uint32_t d, blocks, vocab;
};

Gpt2Geometry
gpt2Geometry(ModelScale scale)
{
    return scale == ModelScale::Full ? Gpt2Geometry{768, 12, 50257}
                                     : Gpt2Geometry{768, 2, 8192};
}

} // namespace

void
appendGpt2Prefill(Network &net, const std::string &request_prefix,
                  std::uint32_t prompt_tokens, ModelScale scale)
{
    const Gpt2Geometry g = gpt2Geometry(scale);
    const std::uint32_t seq = std::max<std::uint32_t>(1, prompt_tokens);
    for (std::uint32_t b = 0; b < g.blocks; ++b) {
        std::string base = request_prefix + "_blk" + std::to_string(b);
        std::string tag = "gpt2w_blk" + std::to_string(b);
        Layer qkv = Layer::gemm(base + "_qkv", seq, 3 * g.d, g.d);
        qkv.weightTag = tag + "_qkv";
        net.layers.push_back(qkv);
        // Attention score/context products read this request's own
        // K / V tensors — per-request, never shared.
        net.layers.push_back(Layer::gemm(base + "_scores", seq, seq, g.d));
        net.layers.push_back(Layer::gemm(base + "_ctx", seq, g.d, seq));
        Layer proj = Layer::gemm(base + "_proj", seq, g.d, g.d);
        proj.weightTag = tag + "_proj";
        net.layers.push_back(proj);
        Layer mlp1 = Layer::gemm(base + "_mlp1", seq, 4 * g.d, g.d);
        mlp1.weightTag = tag + "_mlp1";
        net.layers.push_back(mlp1);
        Layer mlp2 = Layer::gemm(base + "_mlp2", seq, g.d, 4 * g.d);
        mlp2.weightTag = tag + "_mlp2";
        net.layers.push_back(mlp2);
    }
    Layer head = Layer::gemm(request_prefix + "_lm_head", seq, g.vocab,
                             g.d);
    head.weightTag = "gpt2w_lm_head";
    net.layers.push_back(head);
}

void
appendGpt2DecodeStep(Network &net, const std::string &request_prefix,
                     std::uint32_t context_tokens, ModelScale scale)
{
    const Gpt2Geometry g = gpt2Geometry(scale);
    const std::uint32_t ctx = std::max<std::uint32_t>(1, context_tokens);
    for (std::uint32_t b = 0; b < g.blocks; ++b) {
        std::string base = request_prefix + "_blk" + std::to_string(b);
        std::string tag = "gpt2w_blk" + std::to_string(b);
        Layer qkv = Layer::gemm(base + "_qkv", 1, 3 * g.d, g.d);
        qkv.weightTag = tag + "_qkv";
        net.layers.push_back(qkv);
        // M=1 against the growing KV cache: the B operands (K then V,
        // ctx x d each) re-stream from DRAM every generated token.
        net.layers.push_back(Layer::gemm(base + "_scores", 1, ctx, g.d));
        net.layers.push_back(Layer::gemm(base + "_ctx", 1, g.d, ctx));
        Layer proj = Layer::gemm(base + "_proj", 1, g.d, g.d);
        proj.weightTag = tag + "_proj";
        net.layers.push_back(proj);
        Layer mlp1 = Layer::gemm(base + "_mlp1", 1, 4 * g.d, g.d);
        mlp1.weightTag = tag + "_mlp1";
        net.layers.push_back(mlp1);
        Layer mlp2 = Layer::gemm(base + "_mlp2", 1, g.d, 4 * g.d);
        mlp2.weightTag = tag + "_mlp2";
        net.layers.push_back(mlp2);
    }
    Layer head = Layer::gemm(request_prefix + "_lm_head", 1, g.vocab,
                             g.d);
    head.weightTag = "gpt2w_lm_head";
    net.layers.push_back(head);
}

std::uint64_t
gpt2KvBytesPerDecodeStep(std::uint32_t context_tokens, ModelScale scale,
                         std::uint32_t data_bytes)
{
    const Gpt2Geometry g = gpt2Geometry(scale);
    return 2ULL * g.blocks * context_tokens * g.d * data_bytes;
}

const std::vector<std::string> &
modelNames()
{
    static const std::vector<std::string> names = {
        "res", "yt", "alex", "sfrnn", "ds2", "dlrm", "ncf", "gpt2"};
    return names;
}

Network
buildModel(const std::string &short_name, ModelScale scale)
{
    const bool full = scale == ModelScale::Full;
    if (short_name == "res") {
        return full ? resnet("res", 224, {3, 4, 6, 3})
                    : resnet("res", 224, {1, 1, 1, 1});
    }
    if (short_name == "yt") {
        return full ? yoloTiny("yt", 416, 8) : yoloTiny("yt", 208, 6);
    }
    if (short_name == "alex") {
        if (full)
            return alexnet("alex");
        // Mini: the conv stack intact, FC towers halved so the weight
        // streaming stays dominant without dwarfing the other minis.
        Network net = alexnet("alex");
        net.layers[5] = Layer::fullyConnected("fc6", 9216, 1024);
        net.layers[6] = Layer::fullyConnected("fc7", 1024, 1024);
        net.layers[7] = Layer::fullyConnected("fc8", 1024, 1000);
        return net;
    }
    if (short_name == "sfrnn") {
        return full ? selfishRnn("sfrnn", 1500, 2, 35)
                    : selfishRnn("sfrnn", 1024, 2, 8);
    }
    if (short_name == "ds2") {
        return full ? deepspeech2("ds2", 800, 5, 150, 30)
                    : deepspeech2("ds2", 640, 2, 64, 8);
    }
    if (short_name == "dlrm") {
        // The gather share is kept moderate: the paper's topologies are
        // SCALE-Sim-based (MLP GEMMs), so the skinny MLPs — not the
        // embedding gathers — carry most of DLRM's memory intensity.
        return full ? dlrm("dlrm", 13, 2'000'000, 8, 4096)
                    : dlrm("dlrm", 2, 200'000, 2, 4096);
    }
    if (short_name == "ncf") {
        return full ? ncf("ncf", 138'000, 27'000, 16384)
                    : ncf("ncf", 100'000, 20'000, 4096);
    }
    if (short_name == "gpt2") {
        return full ? gpt2("gpt2", 512, 12, 50257)
                    : gpt2("gpt2", 128, 2, 8192);
    }
    fatal("unknown model '", short_name, "' (expected one of res, yt, ",
          "alex, sfrnn, ds2, dlrm, ncf, gpt2)");
}

std::vector<Network>
buildAllModels(ModelScale scale)
{
    std::vector<Network> models;
    models.reserve(modelNames().size());
    for (const auto &name : modelNames())
        models.push_back(buildModel(name, scale));
    return models;
}

} // namespace mnpu
