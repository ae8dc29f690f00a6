/**
 * @file
 * Table 2: primitive overheads — TrackFM slow-path guards vs Fastswap
 * page faults, with the data local vs remote.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "fastswap/fastswap_runtime.hh"
#include "tfm/tfm_runtime.hh"

using namespace tfm;

namespace
{

template <typename Clock, typename Op>
std::uint64_t
medianCycles(Clock &clock, int trials, Op &&op)
{
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < trials; i++) {
        const std::uint64_t before = clock.now();
        op();
        samples.push_back(clock.now() - before);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Table 2 - primitive overheads, TrackFM vs Fastswap "
        "(median cycles over 1000 trials)",
        "local fault 1.3K vs slow guard ~450; remote ~34-35K for both",
        "exact reproduction; no working-set scaling involved");

    // --- Fastswap ---
    RuntimeConfig fs_cfg;
    fs_cfg.farHeapBytes = 64 << 20;
    fs_cfg.localMemBytes = 8 << 20;
    fs_cfg.pagedReadaheadPages = 8;

    // Local fault: page data arrived via readahead, PTE still unmapped.
    FastswapRuntime fs2(fs_cfg, costs);
    const std::uint64_t heap2 = fs2.allocate(32 << 20);
    // Major fault + readahead of 8 pages.
    fs2.plane().load<std::uint64_t>(heap2);
    // Let the readahead payloads land before measuring the pure
    // PTE-fixup cost.
    fs2.clock().advance(1'000'000);
    std::uint64_t minor_page = 1;
    const std::uint64_t fs_minor = medianCycles(fs2.clock(), 7, [&] {
        fs2.plane().load<std::uint64_t>(heap2 + minor_page * 4096);
        minor_page++;
    });

    RuntimeConfig fs_cfg_nora = fs_cfg;
    fs_cfg_nora.pagedReadaheadPages = 0;
    FastswapRuntime fs3(fs_cfg_nora, costs);
    const std::uint64_t heap3 = fs3.allocate(32 << 20);
    std::uint64_t major_page = 0;
    const std::uint64_t fs_major_read =
        medianCycles(fs3.clock(), 1000, [&] {
            fs3.plane().load<std::uint64_t>(heap3 + major_page * 4096);
            major_page++;
        });
    std::uint64_t major_wpage = major_page;
    const std::uint64_t fs_major_write =
        medianCycles(fs3.clock(), 1000, [&] {
            fs3.plane().store<std::uint64_t>(heap3 + major_wpage * 4096, 1);
            major_wpage++;
        });

    // --- TrackFM ---
    RuntimeConfig tfm_cfg;
    tfm_cfg.farHeapBytes = 64 << 20;
    tfm_cfg.localMemBytes = 8 << 20;
    tfm_cfg.objectSizeBytes = 4096;
    tfm_cfg.prefetchEnabled = false;
    TfmRuntime rt(tfm_cfg, costs);
    const std::uint64_t addr = rt.tfmMalloc(32 << 20);

    // Slow path, object local (uncached column of Table 1 is the
    // closest analogue of the "Local Cost" in Table 2).
    rt.load<std::uint64_t>(addr);
    const std::uint64_t tfm_slow_local =
        medianCycles(rt.clock(), 1000, [&] {
            rt.runtime().stateTable()[0].setInflight(
                rt.runtime().shared());
            rt.load<std::uint64_t>(addr);
        });

    // Slow path, object remote: one blocking 4 KB object fetch.
    std::uint64_t obj = 1;
    const std::uint64_t tfm_slow_remote_read =
        medianCycles(rt.clock(), 1000, [&] {
            rt.load<std::uint64_t>(addr + obj * 4096);
            obj++;
        });
    std::uint64_t wobj = obj;
    const std::uint64_t tfm_slow_remote_write =
        medianCycles(rt.clock(), 1000, [&] {
            rt.store<std::uint64_t>(addr + wobj * 4096, 1);
            wobj++;
        });
    // Slow path, object local, for a write. Measured after the remote
    // loops so that none of the cells above moves.
    const std::uint64_t tfm_slow_local_write =
        medianCycles(rt.clock(), 1000, [&] {
            rt.runtime().stateTable()[0].setInflight(
                rt.runtime().shared());
            rt.store<std::uint64_t>(addr, 1);
        });

    bench::section("Table 2");
    std::printf("%-36s %12s %12s\n", "Runtime Event", "Local Cost",
                "Remote Cost");
    std::printf("%-36s %12llu %12llu\n", "Fastswap read fault",
                static_cast<unsigned long long>(fs_minor),
                static_cast<unsigned long long>(fs_major_read));
    std::printf("%-36s %12llu %12llu\n", "Fastswap write fault",
                static_cast<unsigned long long>(fs_minor),
                static_cast<unsigned long long>(fs_major_write));
    std::printf("%-36s %12llu %12llu\n", "TrackFM slow-path read guard",
                static_cast<unsigned long long>(tfm_slow_local),
                static_cast<unsigned long long>(tfm_slow_remote_read));
    std::printf("%-36s %12llu %12llu\n", "TrackFM slow-path write guard",
                static_cast<unsigned long long>(tfm_slow_local_write),
                static_cast<unsigned long long>(tfm_slow_remote_write));
    std::printf("\nPaper reference: Fastswap 1.3K/34-35K; "
                "TrackFM 432-453/35K.\n");

    bench::JsonLine json("table2_primitives");
    json.field("fastswap_local_fault_cycles", fs_minor)
        .field("fastswap_remote_read_fault_cycles", fs_major_read)
        .field("fastswap_remote_write_fault_cycles", fs_major_write)
        .field("tfm_slow_local_cycles", tfm_slow_local)
        .field("tfm_slow_local_write_cycles", tfm_slow_local_write)
        .field("tfm_slow_remote_read_cycles", tfm_slow_remote_read)
        .field("tfm_slow_remote_write_cycles", tfm_slow_remote_write)
        .emit();
    return 0;
}
