// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed by benchmark code around its own calls into
// the library's public functions; nothing inside the library is
// instrumented. Every span records its name, its parent span, and its start
// and end on the steady clock. Self time is the span's duration minus the
// time its direct children cover. The recorder is single-threaded: only the
// benchmark's calling thread opens spans (the library's pool workers run
// inside whatever span the caller holds open).
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::size_t parent = kNoParent;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    double child_s = 0.0;  ///< time covered by direct children

    [[nodiscard]] double duration() const { return end_s - start_s; }
    [[nodiscard]] double self() const { return duration() - child_s; }
  };

  Tracer();

  std::size_t begin(std::string name);
  void end(std::size_t id);

  /// Sum of the durations of every closed span called `name`.
  [[nodiscard]] double total(const std::string& name) const;

  /// Chrome trace-event JSON (complete "X" events, microseconds), with the
  /// parent and self time of each span in its args.
  [[nodiscard]] std::string chrome_json() const;
  /// Per span name: count, total and self seconds, as a JSON object.
  [[nodiscard]] std::string summary_json() const;

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so the untraced run executes
/// the same benchmark code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name));
  }
  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    if (tracer_ != nullptr) tracer_->end(id_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::size_t id_ = 0;
};

}  // namespace perfbench
