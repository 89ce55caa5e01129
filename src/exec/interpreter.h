// Copyright 2026 The DataCell Authors.
//
// CAL interpreter: executes one stage program instruction-at-a-time, fully
// materializing every intermediate (MonetDB's bulk processing model).

#ifndef DATACELL_EXEC_INTERPRETER_H_
#define DATACELL_EXEC_INTERPRETER_H_

#include <vector>

#include "bat/bat.h"
#include "plan/cal.h"
#include "util/result.h"

namespace dc::ops {
class JoinHash;
}  // namespace dc::ops

namespace dc::exec {

/// One input relation for a stage: columns plus an explicit row count
/// (columns may be empty when only the cardinality matters, e.g. for
/// COUNT(*)-only fragments).
struct StageInput {
  std::vector<BatPtr> cols;
  uint64_t rows = 0;
  /// Delta stages (kDeltaJoin): rows below this offset are the retained
  /// portion of the window, rows at or above it belong to the newest
  /// basic window. Ignored by every other instruction.
  uint64_t delta_old_rows = 0;
  /// Join hash over this input's join-key column, or null. kDeltaJoin
  /// needs one on both inputs: a rolling index covering the retained rows
  /// only (never the new ones), probed with the new rows of the other
  /// side; it may have evicted a prefix of the retained rows (expired
  /// basic windows awaiting a trim), which are skipped. kJoin probes the
  /// right input's hash, which must cover the whole key column (a
  /// stream⋈table node builds it once per table version), and builds one
  /// when there is none. Borrowed pointer, valid for the call.
  const ops::JoinHash* index = nullptr;
};

/// Stage result: output columns (in program output order) and the row
/// count of the final domain.
struct StageOutput {
  std::vector<BatPtr> cols;
  uint64_t rows = 0;
};

/// Executes `program` over `inputs` (indexed by Instr::rel).
Result<StageOutput> ExecuteProgram(const cal::Program& program,
                                   const std::vector<StageInput>& inputs);

}  // namespace dc::exec

#endif  // DATACELL_EXEC_INTERPRETER_H_
