// In-memory span recorder for the benchmark's traced run, written once at
// the end as Chrome trace-event JSON (opens in Perfetto and
// chrome://tracing). Spans are recorded by the benchmark around its own
// calls into each layer's public functions; nothing inside the program is
// instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Builds the "args" object of one span: {"key": value, ...}.
class Args {
 public:
  Args& Num(const std::string& key, double value);
  Args& Int(const std::string& key, int64_t value);
  Args& Str(const std::string& key, const std::string& value);
  const std::string& body() const { return body_; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Process-wide span store. Disabled tracers record nothing and cost one
/// branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string cat;  // The layer the span belongs to.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root.
    uint32_t tid = 0;
    int64_t request = -1;  // Request / batch id for serve and stream.
    std::string args;
    bool explicit_times = false;  // Made by Record(); may overlap others.
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Nanoseconds since the tracer was created (steady clock).
  int64_t NowNs() const;

  /// Opens a span on the calling thread, parented to the thread's
  /// innermost open span. Returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, const std::string& cat);
  /// Closes the thread's innermost open span `id` with `args`.
  void End(uint64_t id, const Args& args = Args(), int64_t request = -1);
  /// Reserves a span id, so children can be recorded before their parent.
  uint64_t NewId();
  /// Records a finished span with explicit times and parent (used for
  /// read and batch spans, timed before the span is recorded). `id` 0
  /// takes a fresh id; otherwise it must come from NewId().
  void Record(const std::string& name, const std::string& cat,
              int64_t start_ns, int64_t end_ns, uint64_t parent,
              int64_t request, const Args& args, uint64_t id = 0);
  /// The calling thread's innermost open span (0 = none).
  uint64_t Current() const;

  /// Writes every span as Chrome trace-event JSON; `other_data` is a
  /// serialized JSON object stored under "otherData".
  privim::Status WriteChromeJson(const std::string& path,
                                 const std::string& other_data) const;

 private:
  uint32_t ThreadIndex();

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;     // Finished spans.
  std::vector<Span> open_;      // Open spans, any thread.
  uint64_t next_id_ = 1;
  uint32_t next_tid_ = 1;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, const std::string& cat)
      : tracer_(tracer), id_(tracer.Begin(name, cat)) {}
  ~ScopedSpan() { tracer_.End(id_, args_, request_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Args& args() { return args_; }
  void set_request(int64_t request) { request_ = request; }

 private:
  Tracer& tracer_;
  uint64_t id_;
  Args args_;
  int64_t request_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
