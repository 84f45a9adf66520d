#include "trace.hpp"

#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

namespace {

std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::size_t Tracer::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_s = now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  Span& span = spans_[id];
  span.end_s = now();
  if (span.parent != kNoParent) spans_[span.parent].child_s += span.duration();
  // Spans nest strictly (they are scoped objects), so `id` is the innermost
  // open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double seconds = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_s > 0.0) seconds += span.duration();
  }
  return seconds;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i != 0) out += ",\n";
    const std::string parent =
        span.parent == kNoParent ? "null" : quoted(spans_[span.parent].name);
    out += "{\"name\":" + quoted(span.name) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           fmt("%.3f", span.start_s * 1e6) +
           ",\"dur\":" + fmt("%.3f", span.duration() * 1e6) +
           ",\"args\":{\"id\":" + std::to_string(i) + ",\"parent\":" + parent +
           ",\"self_us\":" + fmt("%.3f", span.self() * 1e6) + "}}";
  }
  return out + "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string Tracer::summary_json() const {
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& span : spans_) {
    Row& row = rows[span.name];
    ++row.count;
    row.total_s += span.duration();
    row.self_s += span.self();
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, row] : rows) {
    if (!first) out += ",\n";
    first = false;
    out += quoted(name) + ":{\"count\":" + std::to_string(row.count) +
           ",\"total_s\":" + fmt("%.9g", row.total_s) +
           ",\"self_s\":" + fmt("%.9g", row.self_s) + "}";
  }
  return out + "}\n";
}

}  // namespace perfbench
