#include "hashmap.hh"

#include <vector>

#include "sim/logging.hh"
#include "sim/zipf.hh"

namespace tfm
{

std::uint64_t
HashmapWorkload::hashKey(std::uint32_t key)
{
    // Finalizer from splitmix64; good avalanche for sequential keys.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

HashmapWorkload::HashmapWorkload(MemBackend &backend,
                                 const HashmapParams &parameters)
    : b(backend), params(parameters)
{
    capacity = 16;
    while (capacity < params.numKeys * 2)
        capacity <<= 1;
    tableAddr = b.alloc(capacity * sizeof(Slot));
    traceAddr = b.alloc(params.numOps * sizeof(std::uint32_t));

    // Populate the table (unmetered: setup phase). A host bitmap of
    // the taken slots stands in for reading the table back.
    {
        InitWriter table(b);
        for (std::uint64_t i = 0; i < capacity; i++)
            table.put(tableAddr + i * sizeof(Slot), Slot{0, 0, 0, 0});
    } // flushed before the slot writes below overlay it
    std::vector<bool> taken(capacity, false);
    for (std::uint64_t k = 0; k < params.numKeys; k++) {
        std::uint64_t slot = hashKey(static_cast<std::uint32_t>(k)) &
                             (capacity - 1);
        while (taken[slot])
            slot = (slot + 1) & (capacity - 1);
        taken[slot] = true;
        const Slot fresh{1, static_cast<std::uint32_t>(k),
                         static_cast<std::uint32_t>(k * 2 + 1), 0};
        b.initWrite(tableAddr + slot * sizeof(Slot), &fresh, sizeof(Slot));
    }

    // Generate and store the access trace (the paper keeps the sampled
    // key sequence in a heap array of its own). A serving tenant stores
    // none (numOps = 0) and so builds no sampler.
    if (params.numOps > 0) {
        ZipfGenerator zipf(params.numKeys, params.zipfSkew, params.seed);
        InitWriter trace(b);
        for (std::uint64_t i = 0; i < params.numOps; i++)
            trace.put(traceAddr + i * 4,
                      static_cast<std::uint32_t>(zipf.next()));
    }
    b.dropCaches();
}

bool
HashmapWorkload::lookup(std::uint32_t key, std::uint64_t *probes_out)
{
    b.compute(8); // hash computation
    std::uint64_t slot = hashKey(key) & (capacity - 1);
    std::uint64_t probes = 0;
    bool hit = false;
    while (true) {
        Slot s;
        b.read(tableAddr + slot * sizeof(Slot), &s, sizeof(Slot),
               AccessHint::Random);
        probes++;
        if (s.state == 0)
            break;
        if (s.key == key) {
            TFM_ASSERT(s.value == key * 2 + 1, "hashmap value corrupted");
            hit = true;
            break;
        }
        slot = (slot + 1) & (capacity - 1);
    }
    if (probes_out)
        *probes_out += probes;
    return hit;
}

HashmapResult
HashmapWorkload::run()
{
    HashmapResult result;
    const BackendSnapshot before = b.snapshot();

    auto trace = b.stream(traceAddr, sizeof(std::uint32_t), params.numOps,
                          StreamMode::Read);
    for (std::uint64_t i = 0; i < params.numOps; i++) {
        std::uint32_t key;
        trace->read(&key);
        b.compute(8); // hash computation
        std::uint64_t slot = hashKey(key) & (capacity - 1);
        while (true) {
            Slot s;
            b.read(tableAddr + slot * sizeof(Slot), &s, sizeof(Slot),
                   AccessHint::Random);
            result.probes++;
            if (s.state == 0)
                break;
            if (s.key == key) {
                TFM_ASSERT(s.value == key * 2 + 1,
                           "hashmap value corrupted");
                result.hits++;
                break;
            }
            slot = (slot + 1) & (capacity - 1);
        }
    }

    result.delta = deltaSince(before, b.snapshot());
    return result;
}

} // namespace tfm
