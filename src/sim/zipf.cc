#include "zipf.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

#include "logging.hh"

namespace tfm
{

namespace
{

/** Guide bucket of probability @p p: min(floor(p * n), n - 1). */
std::uint64_t
bucketOf(double p, std::uint64_t n)
{
    const auto b = static_cast<std::uint64_t>(p * static_cast<double>(n));
    return b < n ? b : n - 1;
}

std::shared_ptr<const ZipfTable>
buildTable(std::uint64_t n, double skew)
{
    auto t = std::make_shared<ZipfTable>();
    std::vector<double> &cdf = t->cdf;
    cdf.resize(n);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n; k++) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), skew);
        cdf[k] = sum;
    }
    const double inv = 1.0 / sum;
    for (auto &p : cdf)
        p *= inv;

    std::vector<std::uint32_t> &guide = t->guide;
    guide.resize(n + 1);
    std::uint64_t k = 0;
    for (std::uint64_t j = 0; j < n; j++) {
        while (k < n && bucketOf(cdf[k], n) < j)
            k++;
        guide[j] = static_cast<std::uint32_t>(k);
    }
    guide[n] = static_cast<std::uint32_t>(n);
    return t;
}

/**
 * Process-wide table cache. A lookup finds any table some generator
 * still holds (weak entries); recently built tables also stay alive
 * in a FIFO whose bytes are bounded by kRetainedBytes, so a law built
 * again soon after its last generator died is not rebuilt.
 */
class TableCache
{
  public:
    std::shared_ptr<const ZipfTable>
    get(std::uint64_t n, double skew)
    {
        const Key key{n, std::bit_cast<std::uint64_t>(skew)};
        std::lock_guard<std::mutex> lock(mu);
        if (auto it = live.find(key); it != live.end()) {
            if (auto held = it->second.lock())
                return held;
        }
        std::erase_if(live, [](const auto &e) { return e.second.expired(); });
        auto t = buildTable(n, skew);
        live[key] = t;
        retained.push_back(t);
        retainedBytes += t->bytes();
        while (retainedBytes > ZipfGenerator::kRetainedBytes) {
            retainedBytes -= retained.front()->bytes();
            retained.pop_front();
        }
        return t;
    }

  private:
    using Key = std::pair<std::uint64_t, std::uint64_t>;

    std::mutex mu;
    std::map<Key, std::weak_ptr<const ZipfTable>> live;
    std::deque<std::shared_ptr<const ZipfTable>> retained;
    std::uint64_t retainedBytes = 0;
};

TableCache &
tableCache()
{
    // Leaked, so a generator built or destroyed during static
    // destruction never sees a dead cache.
    static auto *cache = new TableCache();
    return *cache;
}

} // anonymous namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed)
    : _n(n), _skew(skew), rng(seed)
{
    TFM_ASSERT(n > 0, "zipf over empty domain");
    TFM_ASSERT(n < (1ull << 32), "zipf domain exceeds the guide table");
    tab = tableCache().get(n, skew);
}

double
ZipfGenerator::pmf(std::uint64_t k) const
{
    TFM_ASSERT(k < _n, "zipf pmf rank out of range");
    return k == 0 ? tab->cdf[0] : tab->cdf[k] - tab->cdf[k - 1];
}

std::uint64_t
ZipfGenerator::rankOf(double u) const
{
    // bucketOf is monotone, so every k below guide[j] has cdf[k] < u
    // and every k from guide[j+1] on has cdf[k] > u: the first k with
    // cdf[k] >= u lies in [guide[j], guide[j+1]], the same rank a
    // search of the whole table finds.
    const std::uint64_t j = bucketOf(u, _n);
    const double *cdf = tab->cdf.data();
    const double *first = cdf + tab->guide[j];
    const double *last = cdf + tab->guide[j + 1];
    const auto k =
        static_cast<std::uint64_t>(std::lower_bound(first, last, u) - cdf);
    return k < _n ? k : _n - 1;
}

} // namespace tfm
