#include "dataframe.hh"

#include <algorithm>

#include "sim/rng.hh"

namespace tfm
{

DataframeWorkload::DataframeWorkload(MemBackend &backend,
                                     const DataframeParams &parameters)
    : b(backend), params(parameters)
{
    const std::uint64_t n = params.numRows;
    pickupAddr = b.alloc(n * 8);
    pickupHourAddr = b.alloc(n * 4);
    dropoffAddr = b.alloc(n * 8);
    passengerAddr = b.alloc(n * 4);
    distanceAddr = b.alloc(n * 4);
    fareAddr = b.alloc(n * 4);
    vendorAddr = b.alloc(n * 4);

    Rng rng(params.seed);
    const std::uint64_t groups =
        (n + params.rowGroupSize - 1) / params.rowGroupSize;
    groupAddrs.reserve(groups);

    std::int64_t group_sum = 0;
    {
        // One staging writer per column and one for the row groups, so
        // each region is populated in 4 KB runs.
        InitWriter pickup_w(b), hour_w(b), dropoff_w(b), passenger_w(b),
            distance_w(b), fare_w(b), vendor_w(b), group_w(b);
        std::uint64_t group_addr = 0;
        for (std::uint64_t i = 0; i < n; i++) {
            const std::int64_t pickup =
                1400000000 + static_cast<std::int64_t>(rng.below(86400 * 30));
            const std::int64_t duration =
                120 + static_cast<std::int64_t>(rng.below(3600));
            const auto passengers =
                static_cast<std::int32_t>(1 + rng.below(6));
            const auto distance_hmi =
                static_cast<std::int32_t>(20 + rng.below(2500));
            const auto fare_cents = static_cast<std::int32_t>(
                250 + distance_hmi * 2 + rng.below(500));
            const auto vendor = static_cast<std::int32_t>(rng.below(2));

            pickup_w.put<std::int64_t>(pickupAddr + i * 8, pickup);
            hour_w.put<std::int32_t>(pickupHourAddr + i * 4,
                                     static_cast<std::int32_t>(
                                         (pickup / 3600) % 24));
            dropoff_w.put<std::int64_t>(dropoffAddr + i * 8,
                                        pickup + duration);
            passenger_w.put<std::int32_t>(passengerAddr + i * 4, passengers);
            distance_w.put<std::int32_t>(distanceAddr + i * 4, distance_hmi);
            fare_w.put<std::int32_t>(fareAddr + i * 4, fare_cents);
            vendor_w.put<std::int32_t>(vendorAddr + i * 4, vendor);

            // Per-row-group duration arrays: one small heap allocation per
            // group (the paper's aggregation over small collections of
            // table rows).
            const std::uint32_t in_group = i % params.rowGroupSize;
            if (in_group == 0) {
                group_addr = b.alloc(params.rowGroupSize * 8);
                groupAddrs.push_back(group_addr);
            }
            group_w.put<std::int64_t>(group_addr + in_group * 8, duration);

            // Reference answers.
            if (passengers >= 4)
                reference.tripsWithManyPassengers++;
            if (distance_hmi > 1000)
                reference.longTrips++;
            reference.totalFareByHour[(pickup / 3600) % 24] += fare_cents;
            group_sum += duration;
        }
    } // flushed before dropCaches()
    reference.groupAggregate = group_sum;
    b.dropCaches();
}

std::uint64_t
DataframeWorkload::passengerQuery()
{
    std::uint64_t count = 0;
    auto col = b.stream(passengerAddr, 4, params.numRows, StreamMode::Read);
    for (std::uint64_t i = 0; i < params.numRows; i++) {
        std::int32_t passengers;
        col->read(&passengers);
        b.compute(6); // predicate + histogram arithmetic
        if (passengers >= 4)
            count++;
    }
    return count;
}

std::uint64_t
DataframeWorkload::distanceQuery()
{
    std::uint64_t count = 0;
    auto col = b.stream(distanceAddr, 4, params.numRows, StreamMode::Read);
    for (std::uint64_t i = 0; i < params.numRows; i++) {
        std::int32_t distance;
        col->read(&distance);
        b.compute(6);
        if (distance > 1000)
            count++;
    }
    return count;
}

void
DataframeWorkload::fareByHourQuery(std::int64_t out[24])
{
    auto hour = b.stream(pickupHourAddr, 4, params.numRows,
                         StreamMode::Read);
    auto fare = b.stream(fareAddr, 4, params.numRows, StreamMode::Read);
    for (std::uint64_t i = 0; i < params.numRows; i++) {
        std::int32_t h;
        std::int32_t f;
        hour->read(&h);
        fare->read(&f);
        b.compute(8); // bucket select + accumulate
        out[h] += f;
    }
}

std::int64_t
DataframeWorkload::groupAggregationQuery()
{
    // Many tiny loops over per-group collections: each group opens a
    // fresh stream of rowGroupSize 8-byte elements. With the All
    // chunking policy every group pays a locality-invariant guard for a
    // handful of elements (Fig. 15's pathology); the cost model rejects
    // chunking here (density 512 < break-even).
    std::int64_t total = 0;
    const std::uint64_t n = params.numRows;
    std::uint64_t row = 0;
    for (const std::uint64_t addr : groupAddrs) {
        const std::uint32_t count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(params.rowGroupSize, n - row));
        auto group = b.stream(addr, 8, count, StreamMode::Read);
        for (std::uint32_t i = 0; i < count; i++) {
            std::int64_t duration;
            group->read(&duration);
            b.compute(6);
            total += duration;
        }
        row += count;
    }
    return total;
}

std::int64_t
DataframeWorkload::pointQuery(std::uint64_t row)
{
    b.compute(20); // predicate evaluation + reduce
    const auto passengers =
        b.readT<std::int32_t>(passengerAddr + row * 4,
                              AccessHint::Random);
    const auto distance =
        b.readT<std::int32_t>(distanceAddr + row * 4,
                              AccessHint::Random);
    const auto fare =
        b.readT<std::int32_t>(fareAddr + row * 4, AccessHint::Random);
    return static_cast<std::int64_t>(fare) + distance * passengers;
}

DataframeResult
DataframeWorkload::run()
{
    DataframeResult result;
    const BackendSnapshot before = b.snapshot();
    result.answers.tripsWithManyPassengers = passengerQuery();
    result.answers.longTrips = distanceQuery();
    fareByHourQuery(result.answers.totalFareByHour);
    result.answers.groupAggregate = groupAggregationQuery();
    result.delta = deltaSince(before, b.snapshot());
    return result;
}

} // namespace tfm
