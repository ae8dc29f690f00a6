/**
 * @file
 * Columnar dataframe analytics workload — the paper's NYC-taxi Kaggle
 * application (Figures 14 and 15), ported from the AIFM evaluation.
 *
 * The dataset is synthesized with the same column structure as the
 * NYC taxi-trip table (the Kaggle original is not redistributable);
 * every query is a column scan or filter with the paper's key property:
 * almost no temporal locality, very high spatial locality. The
 * aggregation query additionally iterates over many small row groups,
 * providing the low-density loops Figure 15 needs.
 */

#ifndef TRACKFM_WORKLOADS_DATAFRAME_HH
#define TRACKFM_WORKLOADS_DATAFRAME_HH

#include <cstdint>
#include <vector>

#include "backend.hh"

namespace tfm
{

/** Dataframe experiment parameters. */
struct DataframeParams
{
    std::uint64_t numRows = 200000;
    /// Rows per vendor row-group in the aggregation query.
    std::uint32_t rowGroupSize = 16;
    std::uint64_t seed = 23;
};

/** Aggregate results of the full query suite (for verification). */
struct DataframeAnswers
{
    std::uint64_t tripsWithManyPassengers = 0;
    std::uint64_t longTrips = 0;
    std::int64_t totalFareByHour[24] = {};
    std::int64_t groupAggregate = 0;
};

/** Result of one run. */
struct DataframeResult
{
    BackendSnapshot delta;
    DataframeAnswers answers;
};

/**
 * A taxi-trip table in far memory, column-major.
 *
 * Columns: pickup time (i64 seconds), dropoff time (i64), passenger
 * count (i32), trip distance (i32, hundredths of a mile), fare (i32,
 * cents), vendor (i32). The fare/distance/passenger columns are 4-byte
 * (high chunking density); the group aggregation walks 8-byte values in
 * tiny per-vendor groups (low density + short trip counts).
 */
class DataframeWorkload
{
  public:
    DataframeWorkload(MemBackend &backend, const DataframeParams &params);

    /** Run the four-query suite once. */
    DataframeResult run();

    /**
     * Serving-style point query: fetch one trip's passenger count,
     * distance, and fare (three random 4-byte column reads) and reduce
     * them. The per-request analytics op the traffic scheduler
     * dispatches; @p row must be below numRows.
     */
    std::int64_t pointQuery(std::uint64_t row);

    /** Reference answers computed CPU-side during generation. */
    const DataframeAnswers &expected() const { return reference; }

  private:
    /** Q1: histogram passenger counts (4-byte column scan). */
    std::uint64_t passengerQuery();
    /** Q2: filter trips longer than 10 miles (4-byte column scan). */
    std::uint64_t distanceQuery();
    /** Q3: total fare by pickup hour (two 4-byte parallel scans over
     *  the parsed hour column and the fare column). */
    void fareByHourQuery(std::int64_t out[24]);
    /** Q4: per-vendor row-group aggregation (many tiny 8-byte loops). */
    std::int64_t groupAggregationQuery();

    MemBackend &b;
    DataframeParams params;
    std::uint64_t pickupAddr = 0;
    std::uint64_t pickupHourAddr = 0; ///< parsed pickup hour (i32)
    std::uint64_t dropoffAddr = 0;
    std::uint64_t passengerAddr = 0;
    std::uint64_t distanceAddr = 0;
    std::uint64_t fareAddr = 0;
    std::uint64_t vendorAddr = 0;
    /// Per-row-group 8-byte duration values for the aggregation query,
    /// one small allocation per group.
    std::vector<std::uint64_t> groupAddrs;
    DataframeAnswers reference;
};

} // namespace tfm

#endif // TRACKFM_WORKLOADS_DATAFRAME_HH
