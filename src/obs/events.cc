#include "obs/events.hh"

namespace gmlake::obs
{

const char *
evName(EvName name)
{
    switch (name) {
      case EvName::devAddressReserve: return "memAddressReserve";
      case EvName::devAddressFree: return "memAddressFree";
      case EvName::devCreate: return "memCreate";
      case EvName::devRelease: return "memRelease";
      case EvName::devMap: return "memMap";
      case EvName::devMapBatch: return "memMapBatch";
      case EvName::devUnmap: return "memUnmap";
      case EvName::devSetAccess: return "memSetAccess";
      case EvName::devMallocNative: return "mallocNative";
      case EvName::devFreeNative: return "freeNative";
      case EvName::devCopyD2H: return "copyD2H";
      case EvName::devCopyH2D: return "copyH2D";
      case EvName::devCopyWait: return "copyWait";
      case EvName::alloc: return "alloc";
      case EvName::allocPhase: return "allocPhase";
      case EvName::stitch: return "stitch";
      case EvName::split: return "split";
      case EvName::stitchFree: return "stitchFree";
      case EvName::reclaimRung: return "reclaimRung";
      case EvName::releaseCached: return "releaseCached";
      case EvName::spill: return "spill";
      case EvName::faultIn: return "faultIn";
      case EvName::sessionStart: return "sessionStart";
      case EvName::sessionOom: return "sessionOom";
      case EvName::sessionAborted: return "sessionAborted";
      case EvName::iterationMark: return "iterationMark";
      case EvName::tensorBind: return "tensorBind";
      case EvName::tensorFree: return "tensorFree";
      case EvName::counterSample: return "counter";
      case EvName::holeHistogram: return "holeHistogram";
      case EvName::devCreateRun: return "memCreateRun";
      case EvName::devCreateMapRun: return "memCreateMapRun";
      case EvName::devReleaseRun: return "memReleaseRun";
      case EvName::devUnmapReleaseRun: return "memUnmapReleaseRun";
      case EvName::count_: break;
    }
    return "?";
}

const char *
evCat(EventCat cat)
{
    switch (cat) {
      case EventCat::device: return "device";
      case EventCat::alloc: return "alloc";
      case EventCat::engine: return "engine";
      case EventCat::offload: return "offload";
      case EventCat::sample: return "sample";
    }
    return "?";
}

const char *
allocPhaseName(AllocPhase phase)
{
    switch (phase) {
      case AllocPhase::smallPath: return "small-path";
      case AllocPhase::s1ExactMatch: return "cache reuse";
      case AllocPhase::s2SingleBlock: return "split reuse";
      case AllocPhase::s3MultiBlocks: return "stitch";
      case AllocPhase::s4Insufficient: return "fresh reserve";
      case AllocPhase::s5Oom: return "oom";
    }
    return "?";
}

} // namespace gmlake::obs
