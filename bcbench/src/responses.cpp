#include "responses.hpp"

#include <cstdlib>

namespace bcbench {

namespace {

/// Position just past `"key":` in `line`, or npos.
std::size_t after_key(const std::string& line, const char* key) {
  const std::string pattern = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pattern);
  return at == std::string::npos ? at : at + pattern.size();
}

bool read_uint(const std::string& line, const char* key, std::uint64_t& out) {
  const std::size_t at = after_key(line, key);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(line.c_str() + at, &end, 10);
  return end != line.c_str() + at;
}

}  // namespace

Response parse_response(const std::string& line) {
  Response r;
  const std::size_t ev = after_key(line, "event");
  if (ev == std::string::npos) return r;
  const auto event_is = [&](const char* name) {
    return line.compare(ev, std::string(name).size() + 2,
                        std::string("\"") + name + "\"") == 0;
  };
  if (event_is("busy")) {
    r.kind = ResponseKind::kBusy;
    return r;
  }
  if (event_is("error")) {
    r.kind = ResponseKind::kError;
    return r;
  }
  if (!read_uint(line, "epoch", r.epoch)) return r;
  if (event_is("update")) {
    r.kind = ResponseKind::kUpdate;
    r.applied = line.find("\"applied\":true") != std::string::npos;
    return r;
  }
  if (event_is("bc")) {
    // "top":[{"v":3,"bc":12.500000},...]
    std::size_t at = after_key(line, "top");
    if (at == std::string::npos) return r;
    while ((at = line.find("{\"v\":", at)) != std::string::npos) {
      char* end = nullptr;
      const char* p = line.c_str() + at + 5;
      const long long v = std::strtoll(p, &end, 10);
      const std::size_t bc_at = line.find("\"bc\":", at);
      if (end == p || bc_at == std::string::npos) return r;
      const char* q = line.c_str() + bc_at + 5;
      const double value = std::strtod(q, &end);
      if (end == q) return r;
      r.vertices.push_back(v);
      r.values.push_back(value);
      at = bc_at;
    }
    r.kind = ResponseKind::kBc;
    return r;
  }
  if (event_is("top")) {
    // "v":[3,1,...]
    std::size_t at = after_key(line, "v");
    if (at == std::string::npos || line[at] != '[') return r;
    ++at;
    while (at < line.size() && line[at] != ']') {
      char* end = nullptr;
      const char* p = line.c_str() + at;
      const long long v = std::strtoll(p, &end, 10);
      if (end == p) return r;
      r.vertices.push_back(v);
      at = static_cast<std::size_t>(end - line.c_str());
      if (at < line.size() && line[at] == ',') ++at;
    }
    r.kind = ResponseKind::kTop;
    return r;
  }
  return r;
}

bool completes(const Response& r, bool is_update) {
  if (is_update) return r.kind == ResponseKind::kUpdate && r.applied;
  return r.kind == ResponseKind::kBc || r.kind == ResponseKind::kTop;
}

}  // namespace bcbench
