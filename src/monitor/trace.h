// Copyright 2026 The DataCell Authors.
//
// Event tracing (docs/OBSERVABILITY.md): per-thread ring buffers of
// scoped spans, dumped as Chrome trace_event JSON (chrome://tracing,
// Perfetto). Gated by EngineOptions::enable_tracing.
//
// Hot-path contract:
//  * Disabled (the default): one relaxed atomic load per span — the
//    overhead CTest (trace_overhead_guard) holds this within noise.
//  * Enabled: each thread records into its own fixed-size ring
//    (overwrite-oldest) behind a per-thread mutex that only DumpJson()
//    ever contends — uncontended lock/unlock on the record path, and
//    TSan-clean by construction (no seqlock races).
//  * Span names/categories are `const char*` and MUST be string
//    literals; events store the pointer, not a copy.
//
// Lock ranks: the buffer registry ranks kTraceRegistry (170) and each
// ring kTraceBuffer (180) — leaf-ranked, so spans may open/close while
// holding any engine lock (docs/CONCURRENCY.md). Nothing here logs or
// re-enters the engine while holding either lock.
//
// Enablement is a process-wide refcount: each Engine constructed with
// enable_tracing=true holds one reference, so overlapping engines
// compose and tracing stops when the last one is destroyed.

#ifndef DATACELL_MONITOR_TRACE_H_
#define DATACELL_MONITOR_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/clock.h"

namespace dc::trace {

namespace internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace internal

/// True when at least one enable reference is held. Relaxed: a span that
/// narrowly misses an enable/disable edge is dropped or recorded late,
/// which is fine for diagnostics.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Refcounted enable: Engine ctor/dtor call these when
/// EngineOptions::enable_tracing is set; tests may call them directly.
void AddEnableRef();
void ReleaseEnableRef();

/// Record a zero-duration event (ph:"X", dur 0): a point-in-time marker.
/// `name`/`cat` must be string literals.
void Instant(const char* name, const char* cat, int64_t arg = 0);

/// RAII span: records one complete event (ph:"X") covering the scope's
/// lifetime. Enablement is sampled once at construction. `name`/`cat`
/// must be string literals.
class Span {
 public:
  Span(const char* name, const char* cat, int64_t arg = 0)
      : name_(name), cat_(cat), arg_(arg), armed_(Enabled()) {
    if (armed_) start_ = SteadyMicros();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Update the numeric payload before the span closes (e.g. rows
  /// actually delivered, known only at the end of the scope).
  void set_arg(int64_t arg) { arg_ = arg; }

  /// Suppress recording (e.g. the scope turned out to be a no-op tick).
  void Cancel() { armed_ = false; }

 private:
  const char* name_;
  const char* cat_;
  int64_t arg_;
  bool armed_;
  Micros start_ = 0;
};

/// Serializes every buffered event as Chrome trace JSON:
/// {"traceEvents":[{"name":...,"cat":...,"ph":"X","ts":...,"dur":...,
/// "pid":1,"tid":<buffer#>,"args":{"v":<arg>}},...]}.
/// Timestamps are SteadyMicros() values (already µs, as the format
/// expects). Buffers of exited threads are retained and included.
std::string DumpJson();

/// Total events currently buffered across all threads.
uint64_t BufferedEventsForTest();

/// Drops all buffered events (buffers stay registered).
void ClearForTest();

}  // namespace dc::trace

#endif  // DATACELL_MONITOR_TRACE_H_
