#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace bcbench {

namespace {

// Open spans of the calling thread, innermost last. One tracer per process.
thread_local std::vector<int> t_open;

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

}  // namespace

double Tracer::now() const {
  return std::chrono::duration<double>(clock::now() - origin_).count();
}

int Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request;
  s.thread = thread_index();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    s.start = now();
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::set_scale(int id, double factor) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].scale = factor;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::vector<double>> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.end < 0.0 || s.parent < 0) continue;
    child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) continue;
    int root = static_cast<int>(i);
    while (spans_[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans_[static_cast<std::size_t>(root)].parent;
    }
    const double scale = spans_[static_cast<std::size_t>(root)].scale;
    out[s.name].push_back((s.end - s.start - child_time[i]) * scale);
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("bcbench: cannot write trace " + path);
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) continue;
    os << (first ? "" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"calibration\":" << s.scale
       << "}}";
    first = false;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("bcbench: failed writing trace " + path);
}

}  // namespace bcbench
