#include "workload/tracegen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

namespace gmlake::workload
{

using namespace gmlake::literals;

namespace
{

constexpr double kFp16 = 2.0;
/** Adam optimizer state bytes per parameter (fp32 moments). */
constexpr double kOptimBytesPerParam = 6.0;
/** LoRA adapter rank. */
constexpr int kLoraRank = 64;
/** Colossal-AI gathers in fixed chunk quanta. */
constexpr Bytes kCaiChunk = Bytes{64} * MiB;
/** PCIe staging bandwidth for offload transfers (16 GB/s). */
constexpr double kPcieNsPerByte = 1.0 / 16.0;

Bytes
toBytes(double v)
{
    GMLAKE_ASSERT(v >= 0.0, "negative size");
    return static_cast<Bytes>(v);
}

/** All geometry derived from one training configuration. */
class Geometry
{
  public:
    explicit Geometry(const TrainConfig &cfg) : mCfg(cfg) {}

    bool
    sharded() const
    {
        return mCfg.platform != Platform::ddp && mCfg.gpus > 1;
    }

    double
    shardDiv() const
    {
        return sharded() ? static_cast<double>(mCfg.gpus) : 1.0;
    }

    /** Persistent fp16 weight bytes of one layer on this rank. */
    Bytes
    layerWeightShard() const
    {
        return toBytes(mCfg.model.layerParams() * kFp16 / shardDiv());
    }

    /** Persistent fp16 gradient shard of one layer (non-LoRA). */
    Bytes layerGradShard() const { return layerWeightShard(); }

    /** Persistent optimizer state of one layer (non-offload). */
    Bytes
    layerOptimShard() const
    {
        return toBytes(mCfg.model.layerParams() * kOptimBytesPerParam /
                       shardDiv());
    }

    Bytes
    embeddingShard() const
    {
        return toBytes(mCfg.model.embeddingParams() * kFp16 /
                       shardDiv());
    }

    /** Transient full-layer parameter gather (ZeRO-3 / FSDP). */
    Bytes
    layerGather() const
    {
        Bytes full = toBytes(mCfg.model.layerParams() * kFp16);
        if (mCfg.platform == Platform::colossalAi)
            full = roundUp(full, kCaiChunk); // chunk quantization
        if (mCfg.platform == Platform::fsdp)
            full = roundUp(full, Bytes{32} * MiB); // flat-param pad
        return full;
    }

    Bytes
    embeddingGather() const
    {
        return toBytes(mCfg.model.embeddingParams() * kFp16);
    }

    /** LoRA adapter parameters of one layer (A and B, 4 matrices). */
    double
    loraParamsPerLayer() const
    {
        return 4.0 * 2.0 * static_cast<double>(mCfg.model.hidden) *
               kLoraRank;
    }

    // --- activation tensors, dependent on the iteration seq len -----

    double
    tokenBytes(int seq) const
    {
        return static_cast<double>(mCfg.batchSize) *
               static_cast<double>(seq) *
               static_cast<double>(mCfg.model.hidden) * kFp16;
    }

    /** The per-layer activation tensor set kept when not recomputing. */
    std::vector<Bytes>
    layerActivationSet(int seq) const
    {
        const double bsh = tokenBytes(seq);
        const double scores = static_cast<double>(mCfg.batchSize) *
                              static_cast<double>(mCfg.model.heads) *
                              static_cast<double>(seq) *
                              static_cast<double>(seq) * kFp16;
        return {
            toBytes(3.0 * bsh),   // fused QKV projection
            toBytes(scores),      // attention score matrix
            toBytes(bsh),         // attention output
            toBytes(4.0 * bsh),   // MLP intermediate
            toBytes(bsh),         // MLP output
            toBytes(2.0 * bsh),   // residual + layernorm saves
        };
    }

    /** Checkpoint kept per layer under recomputation: the layer
     *  input plus the attention residual and norm state. */
    Bytes
    layerCheckpoint(int seq) const
    {
        return toBytes(3.0 * tokenBytes(seq));
    }

    // --- compute timing ----------------------------------------------

    Tick
    iterComputeNs() const
    {
        // Small batches under-utilize the GPU: iteration time is
        // (B + c) x per-sample time, so throughput rises with the
        // batch size and saturates (the Fig 13 curve shape).
        constexpr double kBatchEfficiency = 16.0;
        double t = (static_cast<double>(mCfg.batchSize) +
                    kBatchEfficiency) *
                   static_cast<double>(mCfg.model.computePerSampleNs);
        if (mCfg.strategies.recompute)
            t *= 4.0 / 3.0; // one extra forward pass of the layers
        return static_cast<Tick>(t);
    }

    Tick
    layerFwdNs() const
    {
        return iterComputeNs() / 3 / (mCfg.model.layers + 1);
    }

    Tick
    layerBwdNs() const
    {
        return 2 * iterComputeNs() / 3 / (mCfg.model.layers + 1);
    }

  private:
    const TrainConfig &mCfg;
};

} // namespace

Bytes
estimatePersistentBytes(const TrainConfig &cfg)
{
    const Geometry g(cfg);
    const auto &s = cfg.strategies;
    double total = 0.0;

    const double layers = cfg.model.layers;
    total += static_cast<double>(g.layerWeightShard()) * layers;
    total += static_cast<double>(g.embeddingShard());
    if (!s.lora) {
        total += static_cast<double>(g.layerGradShard()) * layers;
        if (!s.offload)
            total += static_cast<double>(g.layerOptimShard()) * layers;
    } else {
        // Adapters: weights + grads (+ optimizer when resident).
        const double adapter = g.loraParamsPerLayer();
        double perParam = kFp16 + kFp16;
        if (!s.offload)
            perParam += kOptimBytesPerParam;
        total += adapter * perParam * layers;
    }
    return toBytes(total);
}

Trace
generateTrainingTrace(const TrainConfig &cfg)
{
    GMLAKE_ASSERT(cfg.gpus >= 1, "need at least one GPU");
    GMLAKE_ASSERT(cfg.batchSize >= 1, "need a positive batch size");
    GMLAKE_ASSERT(cfg.iterations >= 1, "need at least one iteration");

    const Geometry g(cfg);
    const auto &s = cfg.strategies;
    TraceBuilder tb;
    Rng rng(cfg.seed);

    // Stream layout: compute on the default stream, collective
    // communication (gathers, reduce-scatter) on stream 1, offload
    // staging copies on stream 2.
    const StreamId commStream = cfg.multiStream ? 1 : kDefaultStream;
    const StreamId copyStream = cfg.multiStream ? 2 : kDefaultStream;

    // Observation 1 of the paper: the more complex the strategy mix,
    // the more frequent and irregular the requests. Each strategy
    // contributes per-allocation size variance (variable-length
    // micro-batches, bucketized staging, adapter interleaving).
    double allocJitter = 0.06;
    if (s.recompute)
        allocJitter += 0.15;
    if (s.offload)
        allocJitter += 0.14;
    if (s.lora)
        allocJitter += 0.02;
    if (cfg.gpus > 1)
        allocJitter += 0.03 * std::log2(static_cast<double>(cfg.gpus));

    // Short-lived transients additionally wiggle continuously from
    // iteration to iteration (reduce-bucket coalescing, token-count
    // dependent staging): the splitting-based baseline can never
    // reuse such blocks exactly, while virtual memory stitching
    // absorbs the variance. The wiggle grows with the strategy mix,
    // matching the paper's Observation 1.
    double iterWiggle = 0.02;
    if (s.recompute)
        iterWiggle += 0.06;
    if (s.offload)
        iterWiggle += 0.10;
    if (s.lora)
        iterWiggle += 0.005;
    if (cfg.gpus > 1)
        iterWiggle += 0.03 * std::log2(static_cast<double>(cfg.gpus));
    else
        iterWiggle *= 0.4; // no communication-bucket variability

    // Per-(layer, tensor-slot) size variants, drawn once per run: the
    // irregularity is *spatial* (different layers produce different
    // transient shapes because of fused kernels, padding and bucket
    // assignment), while each layer's sizes repeat across iterations.
    // That reproduces both halves of the paper's story: the diverse
    // size mix steadily fragments the splitting-based baseline, and
    // the repetition lets GMLake converge to exact-match reuse after
    // a few iterations (Fig 14).
    constexpr int kJitterSlots = 16;
    std::vector<double> slotFactor(
        static_cast<std::size_t>(cfg.model.layers) * kJitterSlots);
    for (auto &f : slotFactor)
        f = rng.uniformReal();
    auto slotJitter = [&](int layer, int slot, Bytes bytes,
                          double jitter) {
        const double u =
            slotFactor[static_cast<std::size_t>(layer) * kJitterSlots +
                       static_cast<std::size_t>(slot % kJitterSlots)];
        const double f = 1.0 - jitter * u;
        const Bytes v = toBytes(static_cast<double>(bytes) * f);
        return std::max<Bytes>(v, 512);
    };
    auto jittered = [&](int layer, int slot, Bytes bytes) {
        return slotJitter(layer, slot, bytes, allocJitter);
    };
    auto halfJittered = [&](int layer, int slot, Bytes bytes) {
        return slotJitter(layer, slot, bytes, 0.5 * allocJitter);
    };
    auto wiggle = [&](Bytes bytes) {
        const double f = 1.0 - iterWiggle * rng.uniformReal();
        return std::max<Bytes>(
            toBytes(static_cast<double>(bytes) * f), 512);
    };

    // ------------------------------------------------------------------
    // Persistent model state (allocated once, lives for the whole run).
    // ------------------------------------------------------------------
    for (int l = 0; l < cfg.model.layers; ++l) {
        tb.alloc(g.layerWeightShard());
        if (!s.lora) {
            tb.alloc(g.layerGradShard());
            if (!s.offload)
                tb.alloc(g.layerOptimShard());
        } else {
            const double adapter = g.loraParamsPerLayer();
            tb.alloc(toBytes(adapter * kFp16));            // weights
            tb.alloc(toBytes(adapter * kFp16));            // grads
            if (!s.offload)
                tb.alloc(toBytes(adapter * kOptimBytesPerParam));
        }
    }
    tb.alloc(g.embeddingShard());

    // ------------------------------------------------------------------
    // Training iterations.
    // ------------------------------------------------------------------
    const int layers = cfg.model.layers;
    std::vector<std::vector<TensorId>> acts(
        static_cast<std::size_t>(layers));
    std::vector<TensorId> ckpts(static_cast<std::size_t>(layers), 0);

    // cuBLAS-style workspaces come in power-of-two size classes and
    // are deterministic per layer and pass: draw them once.
    std::vector<Bytes> wsFwd(static_cast<std::size_t>(layers));
    std::vector<Bytes> wsBwd(static_cast<std::size_t>(layers));
    auto drawWorkspace = [&]() {
        const double v = rng.logNormal(8.0 * static_cast<double>(MiB),
                                       1.0);
        const Bytes clamped = std::clamp(toBytes(v), Bytes{1} * MiB,
                                         Bytes{192} * MiB);
        return std::bit_ceil(clamped);
    };
    for (int l = 0; l < layers; ++l) {
        wsFwd[static_cast<std::size_t>(l)] = drawWorkspace();
        wsBwd[static_cast<std::size_t>(l)] = drawWorkspace();
    }
    auto smallSize = [&]() {
        return static_cast<Bytes>(rng.uniformInt(4 * KiB, 1 * MiB));
    };

    for (int it = 0; it < cfg.iterations; ++it) {
        tb.iterationMark();

        // Dataloader variability: effective tokens this iteration,
        // bucketized the way length-grouped batching does it.
        const double shrink =
            1.0 - cfg.seqJitter * rng.uniformReal();
        const int seq = std::max(
            64, static_cast<int>(cfg.seqLen * shrink) / 64 * 64);

        // ZeRO-3 / FSDP prefetch the next layer's parameters while
        // the current layer computes, so two gathers are in flight at
        // once; the overlapping lifetimes interleave with activation
        // allocations and are a major fragmentation driver.
        std::deque<TensorId> gatherWindow;
        auto pushGather = [&](int layer) {
            if (g.sharded()) {
                gatherWindow.push_back(tb.alloc(
                    wiggle(halfJittered(layer, 15, g.layerGather())),
                    commStream));
            }
        };
        auto retireGather = [&](std::size_t keep) {
            while (gatherWindow.size() > keep) {
                tb.free(gatherWindow.front());
                gatherWindow.pop_front();
            }
        };

        // ---- forward --------------------------------------------------
        if (g.sharded()) {
            const TensorId emb =
                tb.alloc(g.embeddingGather(), commStream);
            tb.compute(g.layerFwdNs());
            tb.free(emb);
        } else {
            tb.compute(g.layerFwdNs());
        }

        pushGather(0); // layer 0 parameters
        for (int l = 0; l < layers; ++l) {
            const std::size_t li = static_cast<std::size_t>(l);
            if (l + 1 < layers)
                pushGather(l + 1); // prefetch layer l+1

            const TensorId ws1 = tb.alloc(wsFwd[li]);
            // Kernel-launch temporaries: small, frequent, short-lived
            // (cheap for a caching pool, deadly for cudaMalloc).
            const TensorId sm1 = tb.alloc(smallSize());
            const TensorId sm2 = tb.alloc(smallSize());
            const TensorId sm3 = tb.alloc(smallSize());

            if (s.recompute) {
                ckpts[li] =
                    tb.alloc(jittered(l, 0, g.layerCheckpoint(seq)));
            } else {
                int slot = 1;
                for (Bytes bytes : g.layerActivationSet(seq)) {
                    acts[li].push_back(
                        tb.alloc(jittered(l, slot, bytes)));
                    ++slot;
                }
            }
            tb.compute(g.layerFwdNs());

            tb.free(sm3);
            tb.free(sm2);
            tb.free(sm1);
            tb.free(ws1);
            retireGather(l + 1 < layers ? 1 : 0);
        }

        // ---- backward -------------------------------------------------
        pushGather(layers - 1); // re-gather the last layer
        for (int l = layers - 1; l >= 0; --l) {
            const std::size_t li = static_cast<std::size_t>(l);
            if (l > 0)
                pushGather(l - 1); // prefetch layer l-1

            // Re-materialize the activation set under recomputation;
            // the same tensors as the forward pass, hence the same
            // per-layer size slots. The re-run forward pass also
            // re-allocates its kernel workspaces and temporaries,
            // which is why recomputation makes the request stream
            // denser (Fig 5).
            std::vector<TensorId> remat;
            if (s.recompute) {
                remat.push_back(tb.alloc(wsFwd[li]));
                remat.push_back(tb.alloc(smallSize()));
                remat.push_back(tb.alloc(smallSize()));
                int slot = 1;
                for (Bytes bytes : g.layerActivationSet(seq)) {
                    remat.push_back(
                        tb.alloc(wiggle(jittered(l, slot, bytes))));
                    ++slot;
                }
            }

            // Gradient transient: full layer grads before the
            // reduce-scatter, or only the adapter grads under LoRA.
            TensorId gradbuf;
            if (s.lora) {
                gradbuf = tb.alloc(
                    toBytes(g.loraParamsPerLayer() * kFp16));
            } else {
                gradbuf = tb.alloc(wiggle(jittered(
                    l, 7, toBytes(cfg.model.layerParams() * kFp16))));
            }

            const TensorId ws = tb.alloc(wsBwd[li]);
            const TensorId sm = tb.alloc(smallSize());
            const TensorId sm4 = tb.alloc(smallSize());
            const TensorId sm5 = tb.alloc(smallSize());
            tb.compute(g.layerBwdNs());
            tb.free(sm5);
            tb.free(sm4);
            tb.free(sm);
            tb.free(ws);
            tb.free(gradbuf);

            // Reduce-scatter staging: a shard-sized communication
            // buffer whose size shrinks with the GPU count — the
            // paper's Observation 2 mechanism (smaller partitions,
            // more splits).
            if (g.sharded() && !s.lora) {
                const TensorId rs = tb.alloc(
                    wiggle(jittered(l, 10, g.layerGradShard())),
                    commStream);
                tb.compute(g.layerBwdNs() / 8);
                tb.free(rs);
            }

            for (auto itId = remat.rbegin(); itId != remat.rend();
                 ++itId)
                tb.free(*itId);
            if (s.recompute) {
                tb.free(ckpts[li]);
                ckpts[li] = 0;
            } else {
                for (auto itId = acts[li].rbegin();
                     itId != acts[li].rend(); ++itId)
                    tb.free(*itId);
                acts[li].clear();
            }
            retireGather(l > 0 ? 1 : 0);
        }

        // ---- optimizer step --------------------------------------------
        if (s.offload) {
            // ZeRO-Offload: stage gradients out and updated parameters
            // back in, one layer at a time.
            for (int l = 0; l < layers; ++l) {
                const Bytes stage =
                    s.lora ? toBytes(g.loraParamsPerLayer() * kFp16)
                           : g.layerGradShard();
                const TensorId out =
                    tb.alloc(wiggle(jittered(l, 8, stage)),
                             copyStream);
                const TensorId in =
                    tb.alloc(wiggle(jittered(l, 9, stage)),
                             copyStream);
                tb.compute(static_cast<Tick>(
                    2.0 * static_cast<double>(stage) * kPcieNsPerByte));
                tb.free(in);
                tb.free(out);
            }
        } else {
            tb.compute(g.layerFwdNs() * layers / 4);
        }

        // Iteration boundary: the optimizer step synchronizes the
        // device, releasing every stream's cached blocks for reuse.
        if (cfg.multiStream)
            tb.streamSync(kAnyStream);
    }

    tb.freeAll();
    return tb.take();
}

std::vector<Bytes>
residentSplit(Bytes total, int n)
{
    const Bytes units =
        static_cast<Bytes>(n) * static_cast<Bytes>(n + 1) / 2;
    std::vector<Bytes> sizes;
    sizes.reserve(static_cast<std::size_t>(n));
    for (int i = 1; i <= n; ++i) {
        sizes.push_back(roundUp(
            total * static_cast<Bytes>(i) / units, 2_MiB));
    }
    return sizes;
}

Trace
makeOffloadTenantTrace(std::uint64_t seed, Bytes residentBytes,
                       int residentTensors, int iterations,
                       int transientsPerPhase, Tick phaseNs,
                       bool prefetchHints)
{
    Rng rng(seed);
    TraceBuilder builder;

    std::vector<TensorId> resident;
    resident.reserve(static_cast<std::size_t>(residentTensors));
    for (const Bytes size :
         residentSplit(residentBytes, residentTensors)) {
        resident.push_back(builder.alloc(size, 0));
        builder.compute(phaseNs / 8);
    }

    std::vector<TensorId> transients;
    for (int iter = 0; iter < iterations; ++iter) {
        for (std::size_t phase = 0; phase < resident.size();
             ++phase) {
            if (prefetchHints) {
                builder.prefetch(
                    resident[(phase + 1) % resident.size()]);
            }
            builder.touch(resident[phase]);
            transients.clear();
            for (int t = 0; t < transientsPerPhase; ++t) {
                const Bytes size =
                    2_MiB * rng.uniformInt(32, 128); // 64-256 MiB
                const auto stream = static_cast<StreamId>(
                    1 + rng.uniformInt(0, 2));
                transients.push_back(builder.alloc(size, stream));
                builder.compute(phaseNs /
                                (2 * transientsPerPhase));
            }
            builder.compute(phaseNs / 2);
            for (const TensorId id : transients)
                builder.free(id);
        }
        builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

} // namespace gmlake::workload
