// Host sampling profiler: LD_PRELOAD=libtfm_sampler.so <program>, then
// python3 tools/sampler/report.py tfm-samples.<pid>. Each ITIMER_PROF
// tick (1 ms of CPU time) records the interrupted instruction pointer
// and the stack-top word (a leaf libc routine's return address). At exit
// it writes tfm-samples.<pid> to the working directory: the executable
// mappings, then one "rip top" line per sample. x86-64 Linux only.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

namespace
{

constexpr unsigned kMaxSamples = 1u << 18;
std::uint64_t samples[kMaxSamples][2];
std::atomic<unsigned> taken{0};

void
onTick(int, siginfo_t *, void *ctx)
{
    const unsigned i = taken.fetch_add(1, std::memory_order_relaxed);
    const greg_t *regs = static_cast<ucontext_t *>(ctx)->uc_mcontext.gregs;
    if (i < kMaxSamples) {
        samples[i][0] = static_cast<std::uint64_t>(regs[REG_RIP]);
        samples[i][1] = *reinterpret_cast<const std::uint64_t *>(regs[REG_RSP]);
    }
}

__attribute__((constructor)) void
start()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onTick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, nullptr);
    const itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, nullptr);
}

__attribute__((destructor)) void
stop()
{
    const itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    char path[64], line[4096];
    std::snprintf(path, sizeof(path), "tfm-samples.%d", getpid());
    FILE *out = std::fopen(path, "w");
    FILE *maps = std::fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    while (std::fgets(line, sizeof(line), maps)) {
        if (std::strstr(line, " r-xp ") && std::strchr(line, '/'))
            std::fprintf(out, "map %s", line);
    }
    for (unsigned i = 0; i < std::min(taken.load(), kMaxSamples); i++)
        std::fprintf(out, "%lx %lx\n", samples[i][0], samples[i][1]);
    std::fclose(maps);
    std::fclose(out);
}

} // namespace
