#include "memcached.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/usr_dist.hh"
#include "sim/zipf.hh"

namespace tfm
{

std::uint64_t
MemcachedWorkload::hashKey(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

MemcachedWorkload::MemcachedWorkload(MemBackend &backend,
                                     const MemcachedParams &parameters)
    : b(backend), params(parameters)
{
    numBuckets = 16;
    while (numBuckets < params.numKeys * 2)
        numBuckets <<= 1;
    indexAddr = b.alloc(numBuckets * sizeof(Bucket));
    {
        InitWriter index(b);
        for (std::uint64_t i = 0; i < numBuckets; i++)
            index.put(indexAddr + i * sizeof(Bucket), Bucket{0, 0});
    } // flushed before the slot writes below overlay it

    // Populate items with USR-style sizes (unmetered setup). Values are
    // a repeating byte derived from the key so gets can be verified.
    // Each item (header, zero key bytes, value) goes out as one write,
    // and a host bitmap of the taken index slots stands in for reading
    // the index back while probing.
    UsrSizeDist sizes(params.seed);
    std::vector<bool> taken(numBuckets, false);
    std::vector<std::uint8_t> image;
    for (std::uint64_t k = 0; k < params.numKeys; k++) {
        const KvSize s = sizes.next();
        const std::uint64_t value_at = sizeof(ItemHeader) + s.keyBytes;
        const std::uint64_t item_bytes = value_at + s.valueBytes;
        const std::uint64_t item = b.alloc(item_bytes);
        const ItemHeader header{k, s.keyBytes, s.valueBytes};
        image.assign(item_bytes, 0);
        std::memcpy(image.data(), &header, sizeof(header));
        for (std::uint32_t i = 0; i < s.valueBytes; i++)
            image[value_at + i] = static_cast<std::uint8_t>(k * 131 + i);
        b.initWrite(item, image.data(), item_bytes);

        std::uint64_t slot = hashKey(k) & (numBuckets - 1);
        while (taken[slot])
            slot = (slot + 1) & (numBuckets - 1);
        taken[slot] = true;
        const Bucket fresh{item, hashKey(k)};
        b.initWrite(indexAddr + slot * sizeof(Bucket), &fresh,
                    sizeof(fresh));
    }
    b.dropCaches();
}

int
MemcachedWorkload::get(std::uint64_t key, void *value_out,
                       std::uint32_t max_len)
{
    b.compute(12); // request parsing + hashing
    const std::uint64_t fingerprint = hashKey(key);
    std::uint64_t slot = fingerprint & (numBuckets - 1);
    while (true) {
        Bucket bucket;
        b.read(indexAddr + slot * sizeof(Bucket), &bucket, sizeof(bucket),
               AccessHint::Random);
        if (bucket.itemAddr == 0)
            return -1;
        if (bucket.keyFingerprint == fingerprint) {
            ItemHeader header;
            b.read(bucket.itemAddr, &header, sizeof(header),
                   AccessHint::Random);
            if (header.key == key) {
                const std::uint32_t len =
                    std::min(header.valueLen, max_len);
                b.read(bucket.itemAddr + sizeof(ItemHeader) +
                           header.keyLen,
                       value_out, len, AccessHint::Random);
                return static_cast<int>(len);
            }
        }
        slot = (slot + 1) & (numBuckets - 1);
    }
}

void
MemcachedWorkload::set(std::uint64_t key, const void *value,
                       std::uint32_t value_len)
{
    b.compute(12);
    const std::uint64_t fingerprint = hashKey(key);
    std::uint64_t slot = fingerprint & (numBuckets - 1);
    while (true) {
        Bucket bucket;
        b.read(indexAddr + slot * sizeof(Bucket), &bucket, sizeof(bucket),
               AccessHint::Random);
        if (bucket.itemAddr == 0) {
            // Fresh item.
            const std::uint32_t key_len = 16;
            const std::uint64_t item =
                b.alloc(sizeof(ItemHeader) + key_len + value_len);
            const ItemHeader header{key, key_len, value_len};
            b.write(item, &header, sizeof(header), AccessHint::Random);
            b.write(item + sizeof(ItemHeader) + key_len, value, value_len,
                    AccessHint::Random);
            const Bucket fresh{item, fingerprint};
            b.write(indexAddr + slot * sizeof(Bucket), &fresh,
                    sizeof(fresh), AccessHint::Random);
            return;
        }
        if (bucket.keyFingerprint == fingerprint) {
            ItemHeader header;
            b.read(bucket.itemAddr, &header, sizeof(header),
                   AccessHint::Random);
            if (header.key == key) {
                // Update in place when it fits, else reallocate.
                if (value_len <= header.valueLen) {
                    header.valueLen = value_len;
                    b.write(bucket.itemAddr, &header, sizeof(header),
                            AccessHint::Random);
                    b.write(bucket.itemAddr + sizeof(ItemHeader) +
                                header.keyLen,
                            value, value_len, AccessHint::Random);
                } else {
                    b.dealloc(bucket.itemAddr);
                    const std::uint64_t item = b.alloc(
                        sizeof(ItemHeader) + header.keyLen + value_len);
                    const ItemHeader fresh_header{key, header.keyLen,
                                                  value_len};
                    b.write(item, &fresh_header, sizeof(fresh_header),
                            AccessHint::Random);
                    b.write(item + sizeof(ItemHeader) + header.keyLen,
                            value, value_len, AccessHint::Random);
                    Bucket updated = bucket;
                    updated.itemAddr = item;
                    b.write(indexAddr + slot * sizeof(Bucket), &updated,
                            sizeof(updated), AccessHint::Random);
                }
                return;
            }
        }
        slot = (slot + 1) & (numBuckets - 1);
    }
}

MemcachedResult
MemcachedWorkload::run()
{
    MemcachedResult result;
    std::uint8_t value[512];
    if (!keySampler) {
        keySampler = std::make_unique<ZipfGenerator>(
            params.numKeys, params.zipfSkew, params.seed);
    }
    const BackendSnapshot before = b.snapshot();
    for (std::uint64_t i = 0; i < params.numGets; i++) {
        const std::uint64_t key = keySampler->next();
        const int len = get(key, value, sizeof(value));
        if (len >= 0) {
            result.hits++;
            result.valueBytesRead += static_cast<std::uint64_t>(len);
            // Spot-check payload integrity on a sample of gets.
            if ((result.hits & 1023u) == 0 && len > 0) {
                TFM_ASSERT(value[0] ==
                               static_cast<std::uint8_t>(key * 131),
                           "memcached value corrupted");
            }
        }
    }
    result.delta = deltaSince(before, b.snapshot());
    return result;
}

} // namespace tfm
