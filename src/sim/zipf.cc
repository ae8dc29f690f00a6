#include "zipf.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace tfm
{

ZipfGenerator::ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed)
    : _n(n), _skew(skew), rng(seed)
{
    TFM_ASSERT(n > 0, "zipf over empty domain");
    TFM_ASSERT(n < (1ull << 32), "zipf domain exceeds the guide table");
    cdf.resize(n);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n; k++) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), skew);
        cdf[k] = sum;
    }
    const double inv = 1.0 / sum;
    for (auto &p : cdf)
        p *= inv;

    guide.resize(n + 1);
    std::uint64_t k = 0;
    for (std::uint64_t j = 0; j < n; j++) {
        while (k < n && bucketOf(cdf[k]) < j)
            k++;
        guide[j] = static_cast<std::uint32_t>(k);
    }
    guide[n] = static_cast<std::uint32_t>(n);
}

std::uint64_t
ZipfGenerator::bucketOf(double p) const
{
    const auto b = static_cast<std::uint64_t>(p * static_cast<double>(_n));
    return b < _n ? b : _n - 1;
}

double
ZipfGenerator::pmf(std::uint64_t k) const
{
    TFM_ASSERT(k < _n, "zipf pmf rank out of range");
    return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

std::uint64_t
ZipfGenerator::rankOf(double u) const
{
    // bucketOf is monotone, so every k below guide[j] has cdf[k] < u
    // and every k from guide[j+1] on has cdf[k] > u: the first k with
    // cdf[k] >= u lies in [guide[j], guide[j+1]], the same rank a
    // search of the whole table finds.
    const std::uint64_t j = bucketOf(u);
    const double *first = cdf.data() + guide[j];
    const double *last = cdf.data() + guide[j + 1];
    const auto k = static_cast<std::uint64_t>(
        std::lower_bound(first, last, u) - cdf.data());
    return k < _n ? k : _n - 1;
}

} // namespace tfm
