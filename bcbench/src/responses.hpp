// Parsing and accounting of the daemon's JSON wire responses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bcbench {

enum class ResponseKind { kBc, kTop, kUpdate, kBusy, kError, kUnparsed };

struct Response {
  ResponseKind kind = ResponseKind::kUnparsed;
  std::uint64_t epoch = 0;
  bool applied = false;               ///< updates only
  std::vector<std::int64_t> vertices; ///< bc / top: ranked vertex ids
  std::vector<double> values;         ///< bc only: BC of each ranked vertex
};

/// Parse one JSON Lines wire response (serve/protocol.hpp, json + wire).
Response parse_response(const std::string& line);

/// Whether a response completes its request: a `busy` or `error` response,
/// an unparseable line, a no-op update (every scripted update changes the
/// graph) or a response of the wrong kind is a failed op.
bool completes(const Response& r, bool is_update);

}  // namespace bcbench
