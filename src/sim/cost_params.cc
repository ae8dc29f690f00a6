#include "cost_params.hh"

#include <ostream>

namespace tfm
{

void
CostParams::dump(std::ostream &os) const
{
    os << "CostParams (cycles @ " << cpuGhz << " GHz):\n"
       << "  seqAccess=" << seqAccessCycles
       << " randAccess=" << randAccessCycles
       << " guardedSeqAccess=" << guardedSeqAccessCycles
       << " compute=" << computeCycles << "\n"
       << "  fastPath r/w=" << fastPathReadCycles << "/"
       << fastPathWriteCycles
       << " uncached r/w=" << fastPathUncachedReadCycles << "/"
       << fastPathUncachedWriteCycles << "\n"
       << "  slowPath r/w=" << slowPathReadCycles << "/"
       << slowPathWriteCycles
       << " uncached r/w=" << slowPathUncachedReadCycles << "/"
       << slowPathUncachedWriteCycles << "\n"
       << "  custodyReject=" << custodyRejectCycles
       << " boundaryCheck=" << boundaryCheckCycles
       << " localityGuard=" << localityGuardCycles << "\n"
       << "  pageFault local=" << pageFaultLocalCycles
       << " remoteSw=" << pageFaultRemoteSwCycles
       << " reclaim=" << pageReclaimCycles << "\n"
       << "  smartPtrDeref=" << smartPtrDerefCycles << "\n"
       << "  netLatency=" << netLatencyCycles
       << " netBytesPerCycle=" << netBytesPerCycle
       << " perMessageCpu=" << perMessageCpuCycles
       << " perPayloadCpu=" << perPayloadCpuCycles << "\n"
       << "  guardCacheHit r/w=" << guardCacheHitReadCycles << "/"
       << guardCacheHitWriteCycles
       << " revalidate=" << revalidateCycles << "\n"
       << "  remoteFetchSw=" << remoteFetchSwCycles
       << " evacuateObject=" << evacuateObjectCycles
       << " alloc=" << allocCycles
       << " prefetchIssue=" << prefetchIssueCycles << "\n";
}

} // namespace tfm
