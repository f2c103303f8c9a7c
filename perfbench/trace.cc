#include "trace.h"

#include <algorithm>
#include <fstream>

#include "common/string_util.h"
#include "obs/telemetry.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last. Only enabled tracers
// push, and the benchmark keeps one enabled tracer at a time.
thread_local std::vector<uint64_t> tls_stack;
thread_local uint32_t tls_tid = 0;

}  // namespace

void Args::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += privim::JsonQuote(key);
  body_ += ": ";
}

Args& Args::Num(const std::string& key, double value) {
  Key(key);
  body_ += privim::JsonNumber(value);
  return *this;
}

Args& Args::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Args& Args::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += privim::JsonQuote(value);
  return *this;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint32_t Tracer::ThreadIndex() {
  if (tls_tid == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    tls_tid = next_tid_++;
  }
  return tls_tid;
}

uint64_t Tracer::Current() const {
  return tls_stack.empty() ? 0 : tls_stack.back();
}

uint64_t Tracer::Begin(const std::string& name, const std::string& cat) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.cat = cat;
  span.parent = Current();
  span.tid = ThreadIndex();
  span.start_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = next_id_++;
    open_.push_back(std::move(span));
    tls_stack.push_back(open_.back().id);
    return open_.back().id;
  }
}

void Tracer::End(uint64_t id, const Args& args, int64_t request) {
  if (!enabled_ || id == 0) return;
  const int64_t end = NowNs();
  if (!tls_stack.empty() && tls_stack.back() == id) tls_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(open_.begin(), open_.end(),
                         [id](const Span& s) { return s.id == id; });
  if (it == open_.end()) return;
  Span span = std::move(*it);
  open_.erase(it);
  span.end_ns = end;
  span.request = request;
  span.args = args.body();
  spans_.push_back(std::move(span));
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const std::string& name, const std::string& cat,
                    int64_t start_ns, int64_t end_ns, uint64_t parent,
                    int64_t request, const Args& args, uint64_t id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.cat = cat;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.parent = parent;
  span.tid = ThreadIndex();
  span.request = request;
  span.args = args.body();
  span.explicit_times = true;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = id != 0 ? id : next_id_++;
  spans_.push_back(std::move(span));
}

privim::Status Tracer::WriteChromeJson(const std::string& path,
                                       const std::string& other_data) const {
  std::ofstream out(path);
  if (!out) return privim::Status::Internal("cannot write trace " + path);
  std::lock_guard<std::mutex> lock(mu_);
  // Spans with explicit times (requests, updates) overlap freely, which
  // trace viewers cannot nest on one thread track; give each its own
  // virtual track, reusing a track once its previous span has ended.
  std::vector<size_t> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].explicit_times) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return spans_[a].start_ns < spans_[b].start_ns;
  });
  std::vector<uint32_t> lane_of(spans_.size(), 0);
  std::vector<int64_t> lane_end;
  for (size_t i : order) {
    size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > spans_[i].start_ns) {
      ++lane;
    }
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = spans_[i].end_ns;
    lane_of[i] = static_cast<uint32_t>(10000 + lane);
  }
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_data
      << ",\n\"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"privim perfbench\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\": " << privim::JsonQuote(s.name)
        << ", \"cat\": " << privim::JsonQuote(s.cat)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << (s.explicit_times ? lane_of[i] : s.tid)
        << privim::StrFormat(", \"ts\": %.3f, \"dur\": %.3f",
                             static_cast<double>(s.start_ns) * 1e-3,
                             static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"span_id\": " << s.id
        << ", \"parent_id\": " << s.parent;
    if (s.request >= 0) out << ", \"request_id\": " << s.request;
    if (!s.args.empty()) out << ", " << s.args;
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return privim::Status::Internal("short write to trace " + path);
  return privim::Status::OK();
}

}  // namespace perfbench
