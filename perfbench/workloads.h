// The benchmark's three workloads (README.md, "Workloads"): their schemas,
// standing queries, one-time query rotation, seeded inputs and open-loop
// schedules. Everything a run feeds the engine is generated here from the
// seed; the engine sees only these inputs.

#ifndef DCBENCH_WORKLOADS_H_
#define DCBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "util/clock.h"
#include "workload/linear_road.h"

namespace dcbench {

using dc::BatPtr;
using dc::Micros;

/// One input stream, pre-generated as the batches the generator sends.
/// Batch i is sent at tick i + tick_offset.
struct StreamInput {
  std::string name;
  std::vector<std::vector<BatPtr>> batches;
  std::vector<Micros> max_ts;  // largest event time in batch i
  size_t tick_offset = 0;

  /// The batch sent at `tick`, or null when the stream sends none then.
  const std::vector<BatPtr>* BatchAt(size_t tick) const {
    if (tick < tick_offset || tick - tick_offset >= batches.size()) {
      return nullptr;
    }
    return &batches[tick - tick_offset];
  }
};

/// One standing query. Every query is a RANGE-windowed query whose k-th
/// emission closes the window ending at (first_boundary + k) * slide.
struct QuerySpec {
  std::string name;
  std::string sql;
  Micros slide = 0;
  std::vector<int> streams;  // indexes into Workload::streams
  /// Linear Road accident query: additionally checked against
  /// workload::ReferenceAccidents on its first three columns.
  bool lr_accidents = false;
};

/// One shape of the closed-loop one-time query rotation.
struct AdhocSpec {
  std::string shape;
  std::string sql;
  /// Order-independent checksum of the exact answer, for shapes whose
  /// answer does not depend on when they run (tables only); 0 = none.
  uint64_t expected = 0;
  /// As-of-now reads of stream `stream` have no exact answer. `plausible`
  /// checks the bounds every answer must meet, given the rows of that
  /// stream pushed before the query began and when it returned.
  int stream = -1;
  std::function<bool(const dc::ColumnSet&, uint64_t pushed_before,
                     uint64_t pushed_after)>
      plausible;
};

struct TableLoad {
  std::string name;
  std::vector<BatPtr> cols;
};

struct Workload {
  std::string name;
  std::vector<std::string> ddl;
  std::vector<TableLoad> tables;
  std::vector<QuerySpec> queries;
  std::vector<AdhocSpec> adhoc;
  std::vector<StreamInput> streams;

  /// Open loop: tick i is due at start + i * tick_us, whatever the engine
  /// does. Event time maps onto this schedule.
  Micros tick_us = 0;
  /// A result later than this (from its trigger's scheduled send time)
  /// counts as failed.
  Micros latency_limit_us = 0;
  bool durable = false;
  /// Checkpoint every this many ticks during the open loop (durable only).
  size_t checkpoint_every_ticks = 0;

  /// Ticks each phase sends (all phases send prefixes of the same input).
  size_t open_loop_ticks = 0;    // per open-loop segment
  size_t closed_loop_ticks = 0;  // per closed-loop repetition
  size_t sync_ticks = 0;         // per synchronous repetition
  /// A run is `cycles` cycles of `reps` pairs of one closed-loop and one
  /// synchronous repetition, then one open-loop segment.
  int cycles = 0;
  int reps = 0;

  /// Linear Road simulation behind each lr input stream (accident
  /// reference), indexed like `streams`.
  std::vector<dc::workload::LrConfig> lr;

  /// Rows sent in the first `ticks` ticks (by all streams, or by one).
  uint64_t RowsInTicks(size_t ticks) const;
  uint64_t StreamRowsInTicks(size_t stream, size_t ticks) const;
  /// Rows a tick sends once every stream has started.
  uint64_t RowsPerTick() const;
  double OpenLoopRowsPerSec() const;
  size_t Ticks() const {
    return streams.empty() ? 0 : streams[0].batches.size();
  }
};

/// Builds workload `name` for `seed`, sized for a run of `seconds`.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* out);

/// Order-independent checksum of a result set: the wrapping sum of one
/// hash per row over its first `ncols` columns (all when 0), mixed with
/// the row count. Doubles are compared at 1e-6 relative precision, so
/// incremental and full re-evaluation agree despite summation order.
uint64_t Checksum(const dc::ColumnSet& cs, size_t ncols = 0);

/// Row hash of an all-integer row, identical to Checksum's for a row of
/// I64 columns with these values.
uint64_t IntRowHash(const std::vector<int64_t>& row);
/// Combines row hashes the way Checksum does.
uint64_t CombineRows(uint64_t sum_of_row_hashes, uint64_t rows);

}  // namespace dcbench

#endif  // DCBENCH_WORKLOADS_H_
