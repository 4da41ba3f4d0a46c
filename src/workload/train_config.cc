#include "workload/train_config.hh"

#include <sstream>

#include "support/logging.hh"

namespace gmlake::workload
{

const char *
platformName(Platform p)
{
    switch (p) {
      case Platform::ddp: return "DDP";
      case Platform::deepspeedZero3: return "DeepSpeed-ZeRO3";
      case Platform::fsdp: return "FSDP";
      case Platform::colossalAi: return "Colossal-AI";
    }
    return "unknown";
}

Strategies
Strategies::parse(const std::string &label)
{
    Strategies s;
    for (char c : label) {
        switch (c) {
          case 'N': case 'P': break; // no strategy / plain PyTorch
          case 'L': s.lora = true; break;
          case 'R': s.recompute = true; break;
          case 'O': s.offload = true; break;
          default:
            GMLAKE_FATAL("bad strategy label: ", label);
        }
    }
    return s;
}

std::string
Strategies::label() const
{
    std::string out;
    if (lora)
        out += 'L';
    if (recompute)
        out += 'R';
    if (offload)
        out += 'O';
    return out.empty() ? "N" : out;
}

TrainConfig
trainConfig(const std::string &model, const std::string &strategies,
            int gpus, int batch, int iterations, std::uint64_t seed)
{
    TrainConfig cfg;
    cfg.model = findModel(model);
    cfg.strategies = Strategies::parse(strategies);
    cfg.gpus = gpus;
    cfg.batchSize = batch;
    cfg.iterations = iterations;
    cfg.seed = seed;
    return cfg;
}

std::string
TrainConfig::describe() const
{
    std::ostringstream oss;
    oss << model.name << " x" << gpus << "GPU "
        << platformName(platform) << " " << strategies.label()
        << " bs=" << batchSize << " seq=" << seqLen;
    return oss.str();
}

} // namespace gmlake::workload
