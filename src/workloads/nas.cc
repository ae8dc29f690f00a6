/**
 * @file
 * Implementations of the five NAS-style kernels.
 */

#include "nas.hh"

#include <cmath>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tfm
{

namespace
{

/**
 * Helper charging the "redundant load" pattern the unoptimized NOELLE
 * pipeline produces: the same address is re-loaded @p extra times, each
 * re-load carrying its own guard (cheap fast paths, but they add up —
 * Fig. 17b).
 */
void
redundantReloads(MemBackend &b, std::uint64_t addr, std::size_t len,
                 int extra)
{
    std::uint8_t scratch[16];
    TFM_ASSERT(len <= sizeof(scratch), "reload window too wide");
    for (int i = 0; i < extra; i++)
        b.read(addr, scratch, len, AccessHint::Sequential);
}

/// Redundant loads per FT butterfly without pre-optimization: sized so
/// the naive variant issues ~6x the memory instructions of TFM/O1
/// (8 useful accesses -> ~48 total), matching the paper's measurement.
constexpr int ftRedundantLoads = 40;
/// Likewise for SP: ~4x (5 useful accesses per sweep step -> ~20).
constexpr int spRedundantLoads = 15;

/** CG: conjugate-gradient iterations over a CSR matrix. */
class CgKernel : public NasKernel
{
  public:
    CgKernel(MemBackend &backend, const NasParams &params)
        : b(backend), n(static_cast<std::uint64_t>(params.scale) * 1024),
          nnzPerRow(8), iterations(params.iterations)
    {
        const std::uint64_t nnz = n * nnzPerRow;
        rowptrAddr = b.alloc((n + 1) * 4);
        colidxAddr = b.alloc(nnz * 4);
        valuesAddr = b.alloc(nnz * 8);
        xAddr = b.alloc(n * 8);
        yAddr = b.alloc(n * 8);

        Rng rng(params.seed);
        {
            InitWriter rowptr(b), colidx(b), values(b), x(b), y(b);
            for (std::uint64_t row = 0; row <= n; row++) {
                rowptr.put<std::uint32_t>(rowptrAddr + row * 4,
                                          static_cast<std::uint32_t>(
                                              row * nnzPerRow));
            }
            for (std::uint64_t i = 0; i < nnz; i++) {
                colidx.put<std::uint32_t>(
                    colidxAddr + i * 4,
                    static_cast<std::uint32_t>(rng.below(n)));
                values.put<double>(valuesAddr + i * 8,
                                   rng.uniform() * 2.0 - 1.0);
            }
            for (std::uint64_t i = 0; i < n; i++) {
                x.put<double>(xAddr + i * 8, 1.0);
                y.put<double>(yAddr + i * 8, 0.0);
            }
        } // flushed before dropCaches()
        b.dropCaches();
    }

    std::string name() const override { return "CG"; }

    std::uint64_t
    workingSetBytes() const override
    {
        return (n + 1) * 4 + n * nnzPerRow * (4 + 8) + 2 * n * 8;
    }

    NasResult
    run() override
    {
        NasResult result;
        const BackendSnapshot before = b.snapshot();
        double norm = 0.0;
        for (std::uint32_t it = 0; it < iterations; it++) {
            // y = A * x : sequential scans of colidx/values, random
            // gathers from x.
            auto cols = b.stream(colidxAddr, 4, n * nnzPerRow,
                                 StreamMode::Read);
            auto vals = b.stream(valuesAddr, 8, n * nnzPerRow,
                                 StreamMode::Read);
            auto out = b.stream(yAddr, 8, n, StreamMode::Write);
            for (std::uint64_t row = 0; row < n; row++) {
                double acc = 0.0;
                for (std::uint32_t k = 0; k < nnzPerRow; k++) {
                    std::uint32_t col;
                    double a;
                    cols->read(&col);
                    vals->read(&a);
                    const double xv = b.readT<double>(xAddr + col * 8ull,
                                                      AccessHint::Random);
                    acc += a * xv;
                    b.compute(2);
                }
                out->write(&acc);
            }
            // norm = dot(y, y); x = y / norm (two sequential passes).
            norm = 0.0;
            {
                auto yin = b.stream(yAddr, 8, n, StreamMode::Read);
                for (std::uint64_t i = 0; i < n; i++) {
                    double v;
                    yin->read(&v);
                    norm += v * v;
                    b.compute(2);
                }
            }
            const double inv = 1.0 / std::sqrt(norm + 1e-30);
            {
                auto yin = b.stream(yAddr, 8, n, StreamMode::Read);
                auto xout = b.stream(xAddr, 8, n, StreamMode::Write);
                for (std::uint64_t i = 0; i < n; i++) {
                    double v;
                    yin->read(&v);
                    const double scaled = v * inv;
                    xout->write(&scaled);
                    b.compute(1);
                }
            }
        }
        result.checksum = norm;
        result.delta = deltaSince(before, b.snapshot());
        return result;
    }

  private:
    MemBackend &b;
    std::uint64_t n;
    std::uint32_t nnzPerRow;
    std::uint32_t iterations;
    std::uint64_t rowptrAddr = 0, colidxAddr = 0, valuesAddr = 0;
    std::uint64_t xAddr = 0, yAddr = 0;
};

/** FT: 3D FFT-like butterfly passes along all three dimensions. */
class FtKernel : public NasKernel
{
  public:
    FtKernel(MemBackend &backend, const NasParams &params)
        : b(backend), nx(params.scale), ny(params.scale), nz(params.scale),
          iterations(params.iterations), preOptimized(params.preOptimized)
    {
        TFM_ASSERT((nx & (nx - 1)) == 0, "FT grid must be a power of two");
        gridAddr = b.alloc(cells() * 16); // complex<double>
        Rng rng(params.seed);
        {
            InitWriter grid(b);
            for (std::uint64_t i = 0; i < cells(); i++) {
                grid.put<double>(gridAddr + i * 16, rng.uniform());
                grid.put<double>(gridAddr + i * 16 + 8, rng.uniform());
            }
        } // flushed before dropCaches()
        b.dropCaches();
    }

    std::string name() const override { return "FT"; }

    std::uint64_t workingSetBytes() const override { return cells() * 16; }

    NasResult
    run() override
    {
        NasResult result;
        const BackendSnapshot before = b.snapshot();
        for (std::uint32_t it = 0; it < iterations; it++) {
            fftDim(nx, 1, ny * nz, nx);              // x lines
            fftDim(ny, nx, nx * nz, ny);             // y lines
            fftDim(nz, nx * ny, nx * ny, nz);        // z lines
        }
        // Checksum: first cell magnitude.
        const double re = b.peekT<double>(gridAddr);
        const double im = b.peekT<double>(gridAddr + 8);
        result.checksum = re * re + im * im;
        result.delta = deltaSince(before, b.snapshot());
        return result;
    }

  private:
    std::uint64_t
    cells() const
    {
        return static_cast<std::uint64_t>(nx) * ny * nz;
    }

    /**
     * Butterfly passes over every line along one dimension. Element
     * addressing within a line uses @p stride; lines are enumerated
     * densely over the remaining dimensions.
     */
    void
    fftDim(std::uint32_t m, std::uint64_t stride, std::uint64_t lines,
           std::uint32_t line_len)
    {
        (void)line_len;
        const int extra_loads = preOptimized ? 0 : ftRedundantLoads;
        for (std::uint64_t line = 0; line < lines; line++) {
            const std::uint64_t base = lineBase(line, m, stride);
            // log2(m) butterfly stages with temporal reuse in the line.
            for (std::uint32_t span = 1; span < m; span <<= 1) {
                for (std::uint32_t i = 0; i < m; i += span * 2) {
                    for (std::uint32_t j = 0; j < span; j++) {
                        const std::uint64_t a =
                            base + (i + j) * stride * 16;
                        const std::uint64_t c =
                            base + (i + j + span) * stride * 16;
                        double ar = b.readT<double>(a, AccessHint::Random);
                        double ai =
                            b.readT<double>(a + 8, AccessHint::Random);
                        double cr = b.readT<double>(c, AccessHint::Random);
                        double ci =
                            b.readT<double>(c + 8, AccessHint::Random);
                        redundantReloads(b, a, 8, extra_loads);
                        b.compute(10); // twiddle multiply
                        const double sr = ar + cr, si = ai + ci;
                        const double dr = ar - cr, di = ai - ci;
                        b.writeT<double>(a, sr, AccessHint::Random);
                        b.writeT<double>(a + 8, si, AccessHint::Random);
                        b.writeT<double>(c, dr, AccessHint::Random);
                        b.writeT<double>(c + 8, di, AccessHint::Random);
                    }
                }
            }
        }
    }

    std::uint64_t
    lineBase(std::uint64_t line, std::uint32_t m, std::uint64_t stride)
    {
        // Enumerate line origins so that all cells() elements are
        // covered: origins are the indices whose coordinate along the
        // transformed dimension is zero.
        const std::uint64_t per_line = m;
        const std::uint64_t total = cells();
        const std::uint64_t num_lines = total / per_line;
        (void)num_lines;
        if (stride == 1)
            return gridAddr + line * per_line * 16;
        // For strided dims: line index decomposes into (block, offset).
        const std::uint64_t block = line / stride;
        const std::uint64_t offset = line % stride;
        return gridAddr + (block * stride * per_line + offset) * 16;
    }

    MemBackend &b;
    std::uint32_t nx, ny, nz;
    std::uint32_t iterations;
    bool preOptimized;
    std::uint64_t gridAddr = 0;
};

/** IS: integer bucket sort. */
class IsKernel : public NasKernel
{
  public:
    IsKernel(MemBackend &backend, const NasParams &params)
        : b(backend),
          n(static_cast<std::uint64_t>(params.scale) * 8192),
          // NAS IS uses a bucket range comparable to the key count
          // (class D: 2^27 keys over 2^23 buckets); a large histogram
          // is what makes the ranking scatter far-memory-bound.
          maxKey(n / 2), iterations(params.iterations)
    {
        keysAddr = b.alloc(n * 4);
        ranksAddr = b.alloc(n * 4);
        histAddr = b.alloc(maxKey * 4);
        Rng rng(params.seed);
        {
            InitWriter keys(b);
            for (std::uint64_t i = 0; i < n; i++) {
                keys.put<std::uint32_t>(
                    keysAddr + i * 4,
                    static_cast<std::uint32_t>(rng.below(maxKey)));
            }
        } // flushed before dropCaches()
        b.dropCaches();
    }

    std::string name() const override { return "IS"; }

    std::uint64_t
    workingSetBytes() const override
    {
        return n * 8 + maxKey * 4;
    }

    NasResult
    run() override
    {
        NasResult result;
        const BackendSnapshot before = b.snapshot();
        for (std::uint32_t it = 0; it < iterations; it++) {
            // Histogram: sequential key scan, random histogram bumps
            // (the histogram is small and stays hot).
            for (std::uint64_t k = 0; k < maxKey; k++)
                b.initT<std::uint32_t>(histAddr + k * 4, 0);
            {
                auto keys = b.stream(keysAddr, 4, n, StreamMode::Read);
                for (std::uint64_t i = 0; i < n; i++) {
                    std::uint32_t key;
                    keys->read(&key);
                    const std::uint64_t at = histAddr + key * 4ull;
                    const auto count = b.readT<std::uint32_t>(
                        at, AccessHint::Random);
                    b.writeT<std::uint32_t>(at, count + 1,
                                            AccessHint::Random);
                }
            }
            // Prefix sum over the histogram (sequential).
            {
                std::uint32_t running = 0;
                auto in = b.stream(histAddr, 4, maxKey, StreamMode::Read);
                for (std::uint64_t k = 0; k < maxKey; k++) {
                    std::uint32_t count;
                    in->read(&count);
                    b.compute(1);
                    b.writeT<std::uint32_t>(histAddr + k * 4, running,
                                            AccessHint::Sequential);
                    running += count;
                }
            }
            // Rank: sequential key scan, random scatter of ranks.
            {
                auto keys = b.stream(keysAddr, 4, n, StreamMode::Read);
                for (std::uint64_t i = 0; i < n; i++) {
                    std::uint32_t key;
                    keys->read(&key);
                    const std::uint64_t at = histAddr + key * 4ull;
                    const auto rank = b.readT<std::uint32_t>(
                        at, AccessHint::Random);
                    b.writeT<std::uint32_t>(at, rank + 1,
                                            AccessHint::Random);
                    b.writeT<std::uint32_t>(ranksAddr + i * 4, rank,
                                            AccessHint::Sequential);
                }
            }
        }
        // Checksum: rank of the last key.
        result.checksum = static_cast<double>(
            b.peekT<std::uint32_t>(ranksAddr + (n - 1) * 4));
        result.delta = deltaSince(before, b.snapshot());
        return result;
    }

  private:
    MemBackend &b;
    std::uint64_t n;
    std::uint64_t maxKey;
    std::uint32_t iterations;
    std::uint64_t keysAddr = 0, ranksAddr = 0, histAddr = 0;
};

/** MG: multigrid V-cycle with 7-point stencil smoothing. */
class MgKernel : public NasKernel
{
  public:
    MgKernel(MemBackend &backend, const NasParams &params)
        : b(backend), n(params.scale), iterations(params.iterations)
    {
        fineAddr = b.alloc(cells(n) * 8);
        coarseAddr = b.alloc(cells(n / 2) * 8);
        Rng rng(params.seed);
        {
            InitWriter fine(b), coarse(b);
            for (std::uint64_t i = 0; i < cells(n); i++)
                fine.put<double>(fineAddr + i * 8, rng.uniform());
            for (std::uint64_t i = 0; i < cells(n / 2); i++)
                coarse.put<double>(coarseAddr + i * 8, 0.0);
        } // flushed before dropCaches()
        b.dropCaches();
    }

    std::string name() const override { return "MG"; }

    std::uint64_t
    workingSetBytes() const override
    {
        return (cells(n) + cells(n / 2)) * 8;
    }

    NasResult
    run() override
    {
        NasResult result;
        const BackendSnapshot before = b.snapshot();
        double residual = 0.0;
        for (std::uint32_t it = 0; it < iterations; it++) {
            residual = smooth(fineAddr, n);
            restrictTo(fineAddr, n, coarseAddr, n / 2);
            smooth(coarseAddr, n / 2);
            prolongate(coarseAddr, n / 2, fineAddr, n);
        }
        result.checksum = residual;
        result.delta = deltaSince(before, b.snapshot());
        return result;
    }

  private:
    static std::uint64_t
    cells(std::uint32_t dim)
    {
        return static_cast<std::uint64_t>(dim) * dim * dim;
    }

    std::uint64_t
    cellAddr(std::uint64_t base, std::uint32_t dim, std::uint32_t x,
             std::uint32_t y, std::uint32_t z)
    {
        return base +
               ((static_cast<std::uint64_t>(z) * dim + y) * dim + x) * 8;
    }

    /** One Jacobi sweep with the 7-point stencil; returns the residual. */
    double
    smooth(std::uint64_t base, std::uint32_t dim)
    {
        double residual = 0.0;
        for (std::uint32_t z = 1; z + 1 < dim; z++) {
            for (std::uint32_t y = 1; y + 1 < dim; y++) {
                for (std::uint32_t x = 1; x + 1 < dim; x++) {
                    const double center = b.readT<double>(
                        cellAddr(base, dim, x, y, z),
                        AccessHint::Sequential);
                    const double west = b.readT<double>(
                        cellAddr(base, dim, x - 1, y, z),
                        AccessHint::Sequential);
                    const double east = b.readT<double>(
                        cellAddr(base, dim, x + 1, y, z),
                        AccessHint::Sequential);
                    const double north = b.readT<double>(
                        cellAddr(base, dim, x, y - 1, z),
                        AccessHint::Random);
                    const double south = b.readT<double>(
                        cellAddr(base, dim, x, y + 1, z),
                        AccessHint::Random);
                    const double up = b.readT<double>(
                        cellAddr(base, dim, x, y, z - 1),
                        AccessHint::Random);
                    const double down = b.readT<double>(
                        cellAddr(base, dim, x, y, z + 1),
                        AccessHint::Random);
                    b.compute(8);
                    const double updated =
                        (west + east + north + south + up + down) / 6.0;
                    residual += std::abs(updated - center);
                    b.writeT<double>(cellAddr(base, dim, x, y, z), updated,
                                     AccessHint::Sequential);
                }
            }
        }
        return residual;
    }

    void
    restrictTo(std::uint64_t fine, std::uint32_t fine_dim,
               std::uint64_t coarse, std::uint32_t coarse_dim)
    {
        for (std::uint32_t z = 0; z < coarse_dim; z++) {
            for (std::uint32_t y = 0; y < coarse_dim; y++) {
                for (std::uint32_t x = 0; x < coarse_dim; x++) {
                    const double v = b.readT<double>(
                        cellAddr(fine, fine_dim, x * 2, y * 2, z * 2),
                        AccessHint::Random);
                    b.compute(2);
                    b.writeT<double>(
                        cellAddr(coarse, coarse_dim, x, y, z), v,
                        AccessHint::Sequential);
                }
            }
        }
    }

    void
    prolongate(std::uint64_t coarse, std::uint32_t coarse_dim,
               std::uint64_t fine, std::uint32_t fine_dim)
    {
        for (std::uint32_t z = 0; z < coarse_dim; z++) {
            for (std::uint32_t y = 0; y < coarse_dim; y++) {
                for (std::uint32_t x = 0; x < coarse_dim; x++) {
                    const double v = b.readT<double>(
                        cellAddr(coarse, coarse_dim, x, y, z),
                        AccessHint::Sequential);
                    b.compute(2);
                    const double old = b.readT<double>(
                        cellAddr(fine, fine_dim, x * 2, y * 2, z * 2),
                        AccessHint::Random);
                    b.writeT<double>(
                        cellAddr(fine, fine_dim, x * 2, y * 2, z * 2),
                        old + 0.5 * v, AccessHint::Random);
                }
            }
        }
    }

    MemBackend &b;
    std::uint32_t n;
    std::uint32_t iterations;
    std::uint64_t fineAddr = 0, coarseAddr = 0;
};

/** SP: scalar penta-diagonal line solves along each dimension. */
class SpKernel : public NasKernel
{
  public:
    SpKernel(MemBackend &backend, const NasParams &params)
        : b(backend), n(params.scale), iterations(params.iterations),
          preOptimized(params.preOptimized)
    {
        rhsAddr = b.alloc(cells() * 8);
        lhsAddr = b.alloc(cells() * 8);
        factorAddr = b.alloc(cells() * 8);
        Rng rng(params.seed);
        {
            InitWriter rhs(b), lhs(b), factor(b);
            for (std::uint64_t i = 0; i < cells(); i++) {
                rhs.put<double>(rhsAddr + i * 8, rng.uniform());
                lhs.put<double>(lhsAddr + i * 8, 2.0 + rng.uniform());
                factor.put<double>(factorAddr + i * 8, 0.0);
            }
        } // flushed before dropCaches()
        b.dropCaches();
    }

    std::string name() const override { return "SP"; }

    std::uint64_t workingSetBytes() const override { return cells() * 24; }

    NasResult
    run() override
    {
        NasResult result;
        const BackendSnapshot before = b.snapshot();
        for (std::uint32_t it = 0; it < iterations; it++) {
            solveDim(1);           // x lines (contiguous)
            solveDim(n);           // y lines
            solveDim(n * n);       // z lines
        }
        result.checksum = b.peekT<double>(rhsAddr);
        result.delta = deltaSince(before, b.snapshot());
        return result;
    }

  private:
    std::uint64_t
    cells() const
    {
        return static_cast<std::uint64_t>(n) * n * n;
    }

    void
    solveDim(std::uint64_t stride)
    {
        const int extra_loads = preOptimized ? 0 : spRedundantLoads;
        const std::uint64_t lines = cells() / n;
        for (std::uint64_t line = 0; line < lines; line++) {
            const std::uint64_t base = lineBase(line, stride);
            // Forward elimination.
            for (std::uint32_t i = 1; i < n; i++) {
                const std::uint64_t cur = base + i * stride * 8;
                const std::uint64_t prev = base + (i - 1) * stride * 8;
                const double l = b.readT<double>(lhsAddr + cur,
                                                 AccessHint::Random);
                const double rp = b.readT<double>(rhsAddr + prev,
                                                  AccessHint::Random);
                const double r = b.readT<double>(rhsAddr + cur,
                                                 AccessHint::Random);
                redundantReloads(b, lhsAddr + cur, 8, extra_loads);
                b.compute(6);
                const double f = 1.0 / l;
                b.writeT<double>(factorAddr + cur, f, AccessHint::Random);
                b.writeT<double>(rhsAddr + cur, r - f * rp,
                                 AccessHint::Random);
            }
            // Back substitution.
            for (std::uint32_t i = n - 1; i > 0; i--) {
                const std::uint64_t cur = base + i * stride * 8;
                const std::uint64_t prev = base + (i - 1) * stride * 8;
                const double f = b.readT<double>(factorAddr + cur,
                                                 AccessHint::Random);
                const double r = b.readT<double>(rhsAddr + cur,
                                                 AccessHint::Random);
                const double rp = b.readT<double>(rhsAddr + prev,
                                                  AccessHint::Random);
                redundantReloads(b, rhsAddr + cur, 8, extra_loads);
                b.compute(4);
                b.writeT<double>(rhsAddr + prev, rp - f * r,
                                 AccessHint::Random);
            }
        }
    }

    std::uint64_t
    lineBase(std::uint64_t line, std::uint64_t stride)
    {
        if (stride == 1)
            return line * n * 8;
        const std::uint64_t block = line / stride;
        const std::uint64_t offset = line % stride;
        return (block * stride * n + offset) * 8;
    }

    MemBackend &b;
    std::uint32_t n;
    std::uint32_t iterations;
    bool preOptimized;
    std::uint64_t rhsAddr = 0, lhsAddr = 0, factorAddr = 0;
};

} // anonymous namespace

std::unique_ptr<NasKernel>
makeNasKernel(const std::string &name, MemBackend &backend,
              const NasParams &params)
{
    if (name == "cg")
        return std::make_unique<CgKernel>(backend, params);
    if (name == "ft")
        return std::make_unique<FtKernel>(backend, params);
    if (name == "is")
        return std::make_unique<IsKernel>(backend, params);
    if (name == "mg")
        return std::make_unique<MgKernel>(backend, params);
    if (name == "sp")
        return std::make_unique<SpKernel>(backend, params);
    TFM_FATAL("unknown NAS kernel name");
}

} // namespace tfm
