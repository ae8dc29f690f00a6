/**
 * @file
 * Configuration and factory for memory-system backends.
 */

#ifndef TRACKFM_WORKLOADS_BACKEND_CONFIG_HH
#define TRACKFM_WORKLOADS_BACKEND_CONFIG_HH

#include <cstdint>
#include <memory>
#include <string>

#include "backend.hh"
#include "sim/cost_params.hh"
#include "tfm/chunk_policy.hh"

namespace tfm
{

/** Which memory system to instantiate. */
enum class SystemKind
{
    Local,    ///< everything in local DRAM
    TrackFm,  ///< compiler-based far memory (this paper)
    Fastswap, ///< kernel-based far memory baseline
    Aifm      ///< library-based far memory baseline
};

/** Backend construction parameters. */
struct BackendConfig
{
    SystemKind kind = SystemKind::TrackFm;
    /// Far heap = application working set (plus allocator slack).
    std::uint64_t farHeapBytes = 64ull << 20;
    /// Local memory available to the application's data.
    std::uint64_t localMemBytes = 16ull << 20;
    /// TrackFM/AIFM object size (ignored by Local/Fastswap).
    std::uint32_t objectSizeBytes = 4096;
    /// Enable the runtime stride prefetcher (TrackFM/AIFM).
    bool prefetchEnabled = true;
    std::uint32_t prefetchDepth = 8;
    /// TrackFM loop-chunking policy.
    ChunkPolicy chunkPolicy = ChunkPolicy::CostModel;
    /// Optional per-instance trace stream label. When several backends
    /// coexist in one process (multi-tenant serving), each needs its
    /// own named track; empty falls back to the runtime's default
    /// stream name ("trackfm", "fastswap", ...).
    std::string obsLabel;
};

/** Instantiate a backend. */
std::unique_ptr<MemBackend> makeBackend(const BackendConfig &config,
                                        const CostParams &costs);

class TfmRuntime;

/**
 * A TrackFM backend over an externally-owned runtime, for serving
 * tenants that share one far-memory runtime across worker threads
 * (DESIGN.md §4k). It is the TrackFM backend with chunking off:
 * metered accesses run on the calling thread's bound worker, and
 * sequential streams use the naive one-guard-per-element
 * transformation, since loop chunking pins frames and is
 * single-thread-only. Its snapshot() counts every worker's guards. The
 * caller keeps ownership of @p runtime, which must outlive every view.
 */
std::unique_ptr<MemBackend> makeSharedBackend(TfmRuntime &runtime);

/** Human-readable system name ("TrackFM", "Fastswap", ...). */
const char *systemName(SystemKind kind);

} // namespace tfm

#endif // TRACKFM_WORKLOADS_BACKEND_CONFIG_HH
