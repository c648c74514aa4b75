// citation-serve: a DaemonServer on a unix socket over a directed
// preferential-attachment graph (n = 1,000, ~2.8k arcs), engine defaults.
//
// Load is a phase-barriered closed loop over three connections. Every
// cycle: reader 0 sends the epoch's first `bc 10` (recompute + fold); then
// the two readers concurrently send kReadsPerReader reads each (alternating
// `top 10` / `bc 10`, served from the folded vector); then the writer sends
// one update. Each inserted arc is deleted again kUpdateLag inserts later,
// so the edge count stays steady. Every kCalibEvery cycles, with every
// client parked, the coordinator times the calibration loop; every round
// trip is calibrated by the loops on either side of its cycle.
//
// After the run, the graph of every epoch is rebuilt from
// Scheduler::update_log() and every bc/top response is checked against
// Brandes on the graph at the response's epoch.
#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <deque>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "baselines/brandes.hpp"
#include "bench.hpp"
#include "common/prng.hpp"
#include "daemon/server.hpp"
#include "daemon/socket.hpp"
#include "generators/preferential.hpp"
#include "graph/csc.hpp"
#include "graph/mtx_io.hpp"
#include "responses.hpp"

namespace bcbench {

namespace {

using namespace turbobc;

constexpr vidx_t kVertices = 1000;
constexpr int kAttach = 3;
constexpr int kReaders = 2;
constexpr int kReadsPerReader = 2;
constexpr int kTopK = 10;
constexpr std::size_t kUpdateLag = 4;
constexpr std::uint64_t kGraphSeed = 1;
constexpr std::uint64_t kHeightSumLow = 3760;
constexpr std::uint64_t kHeightSumHigh = 3840;
constexpr int kSetups = 3;
constexpr int kCalibEvery = 8;
constexpr int kMinCycles = 3 * kCalibEvery;
// Printed BC values carry 6 decimals; Brandes sums in another order.
constexpr double kBcTolerance = 1e-6;

/// One blocking connection: send a line, read its one response line.
class Connection {
 public:
  explicit Connection(const daemon::SocketAddr& addr)
      : fd_(daemon::connect_socket(addr)), reader_(fd_, 1 << 16) {
    std::string hello;
    if (reader_.next(hello) != daemon::LineReader::Status::kLine) {
      daemon::close_socket(fd_);
      throw std::runtime_error("no hello from the daemon");
    }
  }
  ~Connection() { daemon::close_socket(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Empty string when the connection failed.
  std::string request(const std::string& line) {
    std::string response;
    if (!daemon::send_all(fd_, line + "\n") ||
        reader_.next(response) != daemon::LineReader::Status::kLine) {
      return {};
    }
    return response;
  }

 private:
  int fd_;
  daemon::LineReader reader_;
};

/// Where a request sits in its cycle.
enum class Phase { kFirstRead, kConcurrentRead, kWrite };

struct Sample {
  int cycle = 0;
  Phase phase = Phase::kFirstRead;
  double raw_s = 0.0;
  double end_s = 0.0;  ///< completion time, orders the reads of an epoch
  std::string command;
  Response response;
  std::string bad_line;  ///< the raw response, kept only when it fails
  int root_span = -1;
};

/// The writer's update stream: insert fresh arcs, delete each again
/// kUpdateLag inserts later.
class UpdateScript {
 public:
  UpdateScript(const graph::EdgeList& g, std::uint64_t seed) : rng_(seed), n_(g.num_vertices()) {
    for (const graph::Edge& e : g.edges()) arcs_.insert({e.u, e.v});
  }

  std::string next(int cycle) {
    std::ostringstream os;
    if (cycle % 2 == 1 && live_.size() >= kUpdateLag) {
      const auto [u, v] = live_.front();
      live_.pop_front();
      arcs_.erase({u, v});
      os << "delete " << u << ' ' << v;
      return os.str();
    }
    for (;;) {
      const auto u = static_cast<vidx_t>(rng_.uniform(static_cast<std::uint64_t>(n_)));
      const auto v = static_cast<vidx_t>(rng_.uniform(static_cast<std::uint64_t>(n_)));
      if (u == v || !arcs_.insert({u, v}).second) continue;
      live_.push_back({u, v});
      os << "insert " << u << ' ' << v;
      return os.str();
    }
  }

 private:
  Xoshiro256 rng_;
  vidx_t n_;
  std::set<std::pair<vidx_t, vidx_t>> arcs_;
  std::deque<std::pair<vidx_t, vidx_t>> live_;
};

/// A running daemon with its three connections.
struct Served {
  std::unique_ptr<daemon::DaemonServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
  double warm_modeled_s = 0.0;
  ~Served() {
    conns.clear();
    if (server) server->stop();
  }
};

/// Check a bc/top response against Brandes on the graph at its epoch.
bool matches_brandes(const Response& r, const std::vector<bc_t>& want,
                     std::string& why) {
  const std::size_t k = std::min<std::size_t>(kTopK, want.size());
  if (r.vertices.size() != k) {
    why = "ranked " + std::to_string(r.vertices.size()) + " vertices";
    return false;
  }
  std::vector<bc_t> sorted = want;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(k - 1),
                   sorted.end(), std::greater<>());
  const bc_t kth = sorted[k - 1];
  const auto tol = [](bc_t x) { return kBcTolerance * std::max(1.0, std::abs(x)); };
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t v = r.vertices[i];
    if (v < 0 || static_cast<std::size_t>(v) >= want.size()) {
      why = "vertex out of range";
      return false;
    }
    const bc_t b = want[static_cast<std::size_t>(v)];
    if (b < kth - tol(kth)) {
      why = "vertex " + std::to_string(v) + " is not in the Brandes top " + std::to_string(k);
      return false;
    }
    if (i > 0 && b > want[static_cast<std::size_t>(r.vertices[i - 1])] + tol(b)) {
      why = "ranking out of order at " + std::to_string(i);
      return false;
    }
    if (!r.values.empty() && std::abs(r.values[i] - b) > tol(b)) {
      why = "bc of vertex " + std::to_string(v) + " differs from Brandes";
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_citation_serve(RunContext& ctx) {
  Tracer& tracer = ctx.tracer;
  tracer.set_enabled(ctx.config.trace);
  RunResult out;

  // One citation graph for every benchmark seed, its vertex ids shuffled by
  // the seed; the seed also draws the update stream. Invalidation cones,
  // and with them the first read's latency, follow the graph's reachability
  // structure: across generator draws the median first read moved by 15%
  // even with the summed BFS height (the warm-up's cost) pinned. The graph
  // is the first draw of a fixed stream whose summed height is in the
  // window, a typical draw.
  graph::EdgeList g;
  for (std::uint64_t graph_seed = kGraphSeed;; graph_seed = derive_seed(graph_seed, 9)) {
    g = gen::preferential_attachment(
        {.n = kVertices, .m_attach = kAttach, .directed = true, .seed = graph_seed});
    g.canonicalize();
    const std::uint64_t heights = height_sum(graph::CscGraph::from_edges(g));
    if (heights >= kHeightSumLow && heights <= kHeightSumHigh) break;
  }
  g = relabel(g, derive_seed(ctx.config.seed, 6));
  const std::string mtx_path = ctx.config.workdir + "/citation.mtx";
  graph::write_matrix_market_file(mtx_path, g);
  std::cout << "# citation-serve: n=" << g.num_vertices() << " arcs=" << g.num_arcs() << '\n';

  daemon::DaemonOptions dopt;
  dopt.listen = "unix:" + ctx.config.workdir + "/daemon.sock";
  dopt.json = true;
  dopt.top = kTopK;

  // Setup, repeated: .mtx on disk -> daemon started, three clients
  // connected, and the cold first `bc` answered (every block warmed).
  std::vector<double> setup_cal;
  std::unique_ptr<Served> served;
  double loop_before = ctx.calibrate();
  for (int rep = 0; rep < kSetups; ++rep) {
    served.reset();
    auto s = std::make_unique<Served>();
    const int root = tracer.begin("bench.setup", static_cast<std::uint64_t>(rep));
    const auto t0 = Tracer::clock::now();
    graph::EdgeList el;
    {
      Tracer::Scope span(tracer, "graph.ingest");
      el = graph::read_matrix_market_file(mtx_path);
    }
    {
      Tracer::Scope span(tracer, "core.construct");
      s->server = std::make_unique<daemon::DaemonServer>(std::move(el), dopt);
    }
    {
      Tracer::Scope span(tracer, "daemon.start");
      s->server->start();
      for (int c = 0; c <= kReaders; ++c) {
        s->conns.push_back(std::make_unique<Connection>(s->server->bound()));
      }
    }
    std::string warm;
    {
      Tracer::Scope span(tracer, "serve.warm");
      warm = s->conns[0]->request("bc " + std::to_string(kTopK));
    }
    const auto t1 = Tracer::clock::now();
    tracer.end(root);
    if (parse_response(warm).kind != ResponseKind::kBc) {
      throw std::runtime_error("cold bc failed: " + warm);
    }
    s->warm_modeled_s = s->server->scheduler().engine_counters().device_seconds;
    const double loop_after = ctx.calibrate();
    const double loop = 0.5 * (loop_before + loop_after);
    setup_cal.push_back(calibrated(std::chrono::duration<double>(t1 - t0).count(), loop));
    tracer.set_scale(root, kCalibNominalS / loop);
    loop_before = loop_after;
    served = std::move(s);
  }
  daemon::Scheduler& sched = served->server->scheduler();
  const serve::ServeEngine::Counters warm_counters = sched.engine_counters();
  // Peak RSS of a ready daemon. Under load the serving engine's device
  // grows with the largest cone of the run (its launch records accumulate
  // until the next update), a heavy tail that moved the whole-run peak by
  // 13% between seeds; that peak is reported per layer.
  const double setup_rss = peak_rss_bytes();

  // Closed loop: coordinator + three clients, phase-barriered.
  std::barrier sync(kReaders + 2);
  std::atomic<bool> stop{false};
  std::vector<std::vector<Sample>> samples(kReaders + 1);
  std::vector<std::thread> clients;
  UpdateScript script(g, derive_seed(ctx.config.seed, 7));
  for (int c = 0; c <= kReaders; ++c) {
    clients.emplace_back([&, c] {
      Connection& conn = *served->conns[static_cast<std::size_t>(c)];
      std::vector<Sample>& mine = samples[static_cast<std::size_t>(c)];
      const auto send = [&](int cycle, Phase phase, const std::string& command) {
        Sample s;
        s.cycle = cycle;
        s.phase = phase;
        s.command = command;
        s.root_span = tracer.begin("bench.op", mine.size());
        const int span = tracer.begin("daemon.request", mine.size());
        const auto t0 = Tracer::clock::now();
        const std::string line = conn.request(command);
        const auto t1 = Tracer::clock::now();
        tracer.end(span);
        s.response = parse_response(line);
        if (!completes(s.response, phase == Phase::kWrite)) s.bad_line = line;
        tracer.end(s.root_span);
        s.raw_s = std::chrono::duration<double>(t1 - t0).count();
        s.end_s = std::chrono::duration<double>(t1.time_since_epoch()).count();
        mine.push_back(std::move(s));
      };
      const std::string top = std::to_string(kTopK);
      for (int cycle = 0;; ++cycle) {
        sync.arrive_and_wait();  // A: cycle starts (or the run ends)
        if (stop.load()) break;
        if (c == 0) send(cycle, Phase::kFirstRead, "bc " + top);
        sync.arrive_and_wait();  // B: the epoch's answer is folded
        if (c < kReaders) {
          for (int r = 0; r < kReadsPerReader; ++r) {
            send(cycle, Phase::kConcurrentRead, ((r + c) % 2 == 0 ? "top " : "bc ") + top);
          }
        }
        sync.arrive_and_wait();  // C: concurrent reads done
        if (c == kReaders) send(cycle, Phase::kWrite, script.next(cycle));
        sync.arrive_and_wait();  // D: write done
      }
    });
  }

  // Coordinator: between cycles every client is parked on the barrier, so
  // the calibration loop runs alone. It runs every kCalibEvery cycles, not
  // every cycle: its working set evicts the daemon's cached blocks, which
  // made the next first read ~20% slower. Each cycle's factor comes from
  // the loops on either side of its group.
  std::vector<double> cycle_factor;
  std::vector<bool> cycle_traced;
  const auto start = Tracer::clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Tracer::clock::now() - start).count();
  };
  for (int cycle = 0;; ++cycle) {
    const bool done = cycle % kCalibEvery == 0 && cycle >= kMinCycles &&
                      elapsed() >= ctx.config.seconds;
    // Traced runs trace every other cycle; the difference between the two
    // halves is the tracing overhead.
    const bool traced = ctx.config.trace && cycle % 2 == 1;
    stop.store(done);
    tracer.set_enabled(traced);
    for (int phase = 0; phase < 4; ++phase) {
      sync.arrive_and_wait();
      if (done) break;
    }
    if (done) break;
    cycle_traced.push_back(traced);
    if ((cycle + 1) % kCalibEvery != 0) continue;
    tracer.set_enabled(ctx.config.trace);
    const double loop_after = ctx.calibrate(1);
    cycle_factor.resize(cycle_traced.size(), kCalibNominalS / (0.5 * (loop_before + loop_after)));
    loop_before = loop_after;
  }
  for (std::thread& t : clients) t.join();
  tracer.set_enabled(ctx.config.trace);

  const daemon::Scheduler::Metrics metrics = sched.metrics();
  const serve::ServeEngine::Counters counters = sched.engine_counters();
  const std::vector<daemon::Scheduler::UpdateRecord> log = sched.update_log();
  const double connections = static_cast<double>(served->server->connections_accepted());
  const double warm_modeled_s = served->warm_modeled_s;
  served.reset();

  // Peak RSS of the measured part, before verification allocates.
  const double load_rss = peak_rss_bytes();

  // Verify every response: busy/error/no-op count as failed ops; reads must
  // match Brandes on the graph at their epoch, computed once per epoch.
  {
    Tracer::Scope span(tracer, "bench.verify");
    std::map<std::uint64_t, std::vector<const Sample*>> reads_at;
    for (const auto& per_client : samples) {
      for (const Sample& s : per_client) {
        if (!completes(s.response, s.phase == Phase::kWrite)) {
          out.tally.fail("'" + s.command + "' got '" + s.bad_line + "'");
        } else if (s.phase == Phase::kWrite) {
          out.tally.pass();
        } else {
          reads_at[s.response.epoch].push_back(&s);
        }
      }
    }
    graph::EdgeList state = g;
    std::size_t next = 0;
    for (const auto& [epoch, reads] : reads_at) {
      while (next < log.size() && log[next].epoch <= epoch) {
        const auto& rec = log[next++];
        if (!rec.applied) continue;
        if (rec.kind == serve::UpdateKind::kInsert) {
          state.add_edge(rec.u, rec.v);
        } else {
          state.remove_edge(rec.u, rec.v);
        }
        state.canonicalize();
      }
      const std::vector<bc_t> want = baseline::brandes_bc(state);
      for (const Sample* s : reads) {
        std::string why;
        if (matches_brandes(s->response, want, why)) {
          out.tally.pass();
        } else {
          out.tally.fail("'" + s->command + "' at epoch " + std::to_string(epoch) + ": " + why);
        }
      }
    }
  }

  // Latencies, calibrated by their cycle's factor. The first read served at
  // an epoch (by its epoch stamp) pays the recompute of the invalidated
  // blocks and the n-block fold; later reads at that epoch are served from
  // the folded vector.
  std::map<std::uint64_t, double> first_end;
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      if (s.phase == Phase::kWrite || s.response.kind == ResponseKind::kUnparsed) continue;
      const auto [it, fresh] = first_end.emplace(s.response.epoch, s.end_s);
      if (!fresh) it->second = std::min(it->second, s.end_s);
    }
  }
  const std::size_t cycles = cycle_factor.size();
  std::vector<double> reads, writes, new_epoch, same_epoch, traced_reads, plain_reads;
  std::vector<double> all_raw, answer_s, raw_answer_s;
  // Service time of a cycle: its first read, the longer reader's
  // concurrent reads, and its write (barrier hand-offs excluded).
  std::vector<double> service(cycles, 0.0);
  std::vector<std::array<double, kReaders>> reader_busy(cycles, std::array<double, kReaders>{});
  double requests = 0.0;
  for (std::size_t c = 0; c < samples.size(); ++c) {
    for (const Sample& s : samples[c]) {
      const auto cycle = static_cast<std::size_t>(s.cycle);
      if (cycle >= cycles) continue;
      const double cal = s.raw_s * cycle_factor[cycle];
      tracer.set_scale(s.root_span, cycle_factor[cycle]);
      requests += 1.0;
      all_raw.push_back(s.raw_s);
      if (s.phase == Phase::kConcurrentRead) {
        reader_busy[cycle][c] += cal;
      } else {
        service[cycle] += cal;
      }
      if (s.phase == Phase::kWrite) {
        writes.push_back(cal);
        continue;
      }
      if (s.phase == Phase::kFirstRead) {
        answer_s.push_back(cal);
        raw_answer_s.push_back(s.raw_s);
      }
      reads.push_back(cal);
      (cycle_traced[cycle] ? traced_reads : plain_reads).push_back(cal);
      const auto it = first_end.find(s.response.epoch);
      (it != first_end.end() && it->second == s.end_s ? new_epoch : same_epoch).push_back(cal);
    }
  }
  for (std::size_t c = 0; c < cycles; ++c) {
    service[c] += *std::max_element(reader_busy[c].begin(), reader_busy[c].end());
  }
  const double per_cycle = requests / static_cast<double>(cycles);

  // End-to-end. host_s is the first read of each epoch, the one that
  // computes the epoch's answer: its time is simulator work and the fold,
  // which the calibration loop tracks. Cached reads are mostly thread
  // wake-ups, which it does not (bcbench/README.md); they are per-layer.
  out.end_to_end["setup_s"] = {median(setup_cal), "s"};
  out.end_to_end["host_s"] = {median(answer_s), "s"};
  out.end_to_end["modeled_s"] = {warm_modeled_s, "s"};
  out.end_to_end["requests_per_s"] = {per_cycle / median(service), "1/s"};
  out.end_to_end["host_rss_bytes"] = {setup_rss, "B"};

  auto& pl = out.per_layer;
  const auto self = tracer.self_times();
  const auto self_median = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const double ingest_s = self_median("graph.ingest");
  pl["graph.ingest_s"] = {ingest_s, "s"};
  if (ingest_s > 0.0) {
    pl["graph.ingest_mb_per_s"] = {
        static_cast<double>(std::filesystem::file_size(mtx_path)) / 1e6 / ingest_s, "MB/s"};
  }
  pl["core.construct.self_s"] = {self_median("core.construct"), "s"};
  const auto recomputed = static_cast<double>(counters.recomputed - warm_counters.recomputed);
  const auto cached = static_cast<double>(counters.served_cached - warm_counters.served_cached);
  const auto updates = static_cast<double>(counters.updates - warm_counters.updates);
  pl["serve.recomputed"] = {recomputed, "count"};
  pl["serve.cached"] = {cached, "count"};
  pl["serve.hit_ratio"] = {cached + recomputed > 0 ? cached / (cached + recomputed) : 0.0, "ratio"};
  pl["serve.invalidated_per_update"] = {
      updates > 0 ? static_cast<double>(counters.invalidated - warm_counters.invalidated) / updates
                  : 0.0,
      "count"};
  pl["serve.noop_updates"] = {static_cast<double>(counters.noop_updates), "count"};
  pl["serve.read_p50_s"] = {median(reads), "s"};
  pl["serve.new_epoch_read_p50_s"] = {median(new_epoch), "s"};
  pl["serve.same_epoch_read_p50_s"] = {median(same_epoch), "s"};
  const Tail tail = tail_percentile(reads);
  pl["serve.read_tail_s"] = {tail.value, "s"};
  pl["daemon.busy"] = {static_cast<double>(metrics.busy), "count"};
  pl["daemon.errors"] = {static_cast<double>(metrics.errors), "count"};
  const double server_p50 = static_cast<double>(metrics.p50_micros) * 1e-6;
  pl["daemon.server_p50_s"] = {server_p50, "s"};
  pl["daemon.socket_s"] = {median(all_raw) - server_p50, "s"};
  pl["daemon.connections"] = {connections, "count"};
  pl["daemon.write_p50_s"] = {median(writes), "s"};
  pl["daemon.peak_rss_bytes"] = {load_rss, "B"};
  pl["bench.calib_s"] = {median(ctx.loop_samples), "s"};
  pl["bench.raw_host_s"] = {median(raw_answer_s), "s"};
  pl["bench.ops"] = {requests, "count"};
  const double plain = median(plain_reads);
  pl["bench.trace_overhead"] = {
      plain > 0.0 && !traced_reads.empty() ? median(traced_reads) / plain - 1.0 : 0.0, "ratio"};

  std::cout << "# cycles=" << cycles << " requests=" << requests
            << " calib_s=" << median(ctx.loop_samples)
            << " answer_p50_s=" << median(answer_s) << " service_p50_s=" << median(service)
            << " read_p50_s=" << median(reads) << " same_epoch_p50_s=" << median(same_epoch)
            << " write_p50_s=" << median(writes) << " setup_rss_bytes=" << setup_rss
            << " load_rss_bytes=" << load_rss << " read_tail_s=" << tail.value << " ("
            << tail.label() << " of " << reads.size() << " reads, " << tail.beyond
            << " beyond) invalidated_per_update=" << pl["serve.invalidated_per_update"].value
            << '\n';
  return out;
}

}  // namespace bcbench
