/**
 * @file
 * Training-scenario description: model, parallelism platform, memory
 * reduction strategies, and batch geometry (the paper's Table 2 axes).
 */

#ifndef GMLAKE_WORKLOAD_TRAIN_CONFIG_HH
#define GMLAKE_WORKLOAD_TRAIN_CONFIG_HH

#include <cstdint>
#include <string>

#include "workload/model_zoo.hh"

namespace gmlake::workload
{

/** Distributed training platform (Table 2 "DDP Framework"). */
enum class Platform
{
    ddp,            //!< plain replica data parallel (PyTorch DDP)
    deepspeedZero3, //!< ZeRO-3: params/grads/optimizer sharded
    fsdp,           //!< fully sharded data parallel (flat gathers)
    colossalAi,     //!< chunk-based sharding (Gemini)
};

const char *platformName(Platform p);

/** Memory reduction strategy combination (paper N/R/LR/RO/LRO). */
struct Strategies
{
    bool lora = false;
    bool recompute = false;
    bool offload = false;

    /** Parse "N", "R", "LR", "RO", "LRO", "L", "O", ... */
    static Strategies parse(const std::string &label);
    std::string label() const;
};

struct TrainConfig
{
    ModelSpec model;
    Platform platform = Platform::deepspeedZero3;
    Strategies strategies{};
    int gpus = 1;
    int batchSize = 8;      //!< per-GPU micro batch
    int seqLen = 512;
    int iterations = 12;
    std::uint64_t seed = 42;

    /**
     * Relative jitter of the effective sequence length across
     * iterations (dataloader variability); the source of the
     * irregular request sizes the paper attributes fragmentation to.
     */
    double seqJitter = 0.15;

    /**
     * Emit stream-annotated traces: parameter gathers and gradient
     * reduce-scatters run on a communication stream, offload staging
     * on a copy stream, with a device synchronization at every
     * iteration boundary — the multi-stream layout DeepSpeed-style
     * training actually uses. Stream-partitioned free pools are a
     * further fragmentation source for the caching baseline.
     */
    bool multiStream = true;

    std::string describe() const;
};

/**
 * @p model from the zoo under @p strategies ("N", "LR", ...) on
 * @p gpus ranks; every other field keeps its default.
 */
TrainConfig trainConfig(const std::string &model,
                        const std::string &strategies, int gpus,
                        int batch, int iterations,
                        std::uint64_t seed = 42);

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_TRAIN_CONFIG_HH
