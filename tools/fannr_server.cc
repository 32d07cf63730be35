// fannr_server — serve FANN_R queries over the binary wire protocol.
//
//   fannr_server [options]
//
// Graph source (pick one):
//   --preset NAME            synthetic preset (TEST | DE | ME | COL | NW)
//   --graph FILE.gr          DIMACS graph (largest component is used)
//   --coords FILE.co         DIMACS coordinates (with --graph)
//
// Serving:
//   --host ADDR              bind address            (default 127.0.0.1)
//   --port N                 bind port; 0 = ephemeral (default 0)
//   --threads N              engine workers: the executor plus N - 1
//                            pool threads            (default 1)
//   --engine ENGINE          worker g_phi oracle: cached | ine | astar |
//                            gtree | phl | ier-astar | ier-gtree |
//                            ier-phl | ch        (default cached)
//   --max-connections N      live connection cap     (default 64)
//   --max-queue-depth N      admission queue bound   (default 128)
//   --default-deadline-ms F  server-wide e2e deadline; 0 = none
//   --drain-deadline-ms F    drain budget on shutdown (default 10000)
//
// Continuous queries (DESIGN.md §2.14):
//   --max-subscriptions-per-connection N   (default 8; 0 = unlimited)
//   --max-subscriptions-total N            (default 1024; 0 = unlimited)
//
// Multi-node (DESIGN.md §2.13):
//   --wal FILE               durable update log: replayed onto the
//                            freshly loaded graph at startup, then
//                            appended to for every applied batch
//   --shard-plan FILE        refuse to serve unless the plan was built
//                            for this exact graph (fingerprint check,
//                            made at epoch 0 — before the WAL replay)
//
// Prints "listening on HOST:PORT" once ready (scripts parse this line),
// then blocks until SIGTERM/SIGINT or a SHUTDOWN frame, drains, prints
// the drain accounting, and exits 0 iff the drain met its deadline.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/timer.h"
#include "dynamic/wal.h"
#include "fann/fannr.h"
#include "graph/components.h"
#include "net/server.h"
#include "net/shard_plan.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"

namespace {

using namespace fannr;

net::FannServer* g_server = nullptr;

void HandleSignal(int) {
  // RequestShutdown is async-signal-safe by contract (one write(2) to
  // the wakeup pipe plus a relaxed store).
  if (g_server != nullptr) g_server->RequestShutdown();
}

struct Args {
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it != values.end() ? it->second : fallback;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it != values.end() ? std::strtod(it->second.c_str(), nullptr)
                              : fallback;
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    auto it = values.find(key);
    return it != values.end()
               ? std::strtoull(it->second.c_str(), nullptr, 10)
               : fallback;
  }
};

std::optional<GphiKind> ParseEngine(const std::string& name) {
  if (name == "ine") return GphiKind::kIne;
  if (name == "astar") return GphiKind::kAStar;
  if (name == "gtree") return GphiKind::kGTree;
  if (name == "phl") return GphiKind::kPhl;
  if (name == "ier-astar") return GphiKind::kIerAStar;
  if (name == "ier-gtree") return GphiKind::kIerGTree;
  if (name == "ier-phl") return GphiKind::kIerPhl;
  if (name == "ch") return GphiKind::kCh;
  return std::nullopt;
}

int Fail(const char* message) {
  std::fprintf(stderr, "fannr_server: %s (run with --help)\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("see the header of tools/fannr_server.cc for usage\n");
      return 0;
    }
    if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
      args.values[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      return Fail("malformed arguments");
    }
  }

  // --- graph ---------------------------------------------------------------
  Timer load_timer;
  std::optional<Graph> graph;
  if (args.Has("preset")) {
    const std::string name = args.Get("preset", "TEST");
    if (!IsPresetName(name)) return Fail("unknown preset");
    graph = BuildPreset(name);
  } else if (args.Has("graph")) {
    LoadResult r = LoadDimacs(args.Get("graph", ""), args.Get("coords", ""));
    if (!r.ok()) {
      std::fprintf(stderr, "load failed: %s\n", r.error.c_str());
      return 1;
    }
    LargestComponent lc = ExtractLargestComponent(*r.graph);
    graph = std::move(lc.graph);
    if (graph->HasCoordinates()) graph->MakeEuclideanConsistent();
  } else {
    graph = BuildPreset("TEST");
  }
  std::printf("graph: %zu vertices, %zu edges (loaded in %.2fs)\n",
              graph->NumVertices(), graph->NumEdges(), load_timer.Seconds());

  // --- multi-node: shard-plan agreement, then WAL catch-up -----------------
  // Both checks run against the epoch-0 fingerprint: the plan was built
  // from the pristine graph, and the WAL's own header is stamped with
  // it — replaying first would break both comparisons.
  if (args.Has("shard-plan")) {
    std::string plan_error;
    const std::optional<net::ShardPlan> plan =
        net::ShardPlan::Load(args.Get("shard-plan", ""), &plan_error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "fannr_server: shard plan: %s\n",
                   plan_error.c_str());
      return 1;
    }
    if (!(plan->fingerprint() == graph->Fingerprint())) {
      std::fprintf(stderr,
                   "fannr_server: shard plan was built for a different graph "
                   "(fingerprint mismatch) — refusing to serve\n");
      return 1;
    }
    std::printf("shard plan: %u shards, fingerprint ok\n",
                plan->num_shards());
  }
  std::unique_ptr<dynamic::UpdateWal> wal;
  if (args.Has("wal")) {
    std::string wal_error;
    wal = dynamic::UpdateWal::Open(args.Get("wal", ""), graph->Fingerprint(),
                                   &wal_error);
    if (wal == nullptr) {
      std::fprintf(stderr, "fannr_server: wal: %s\n", wal_error.c_str());
      return 1;
    }
    const size_t replayed = wal->ReplayInto(*graph, &wal_error);
    if (!wal_error.empty()) {
      std::fprintf(stderr, "fannr_server: wal replay: %s\n",
                   wal_error.c_str());
      return 1;
    }
    std::printf("wal: replayed %zu record%s, graph at epoch %llu\n", replayed,
                replayed == 1 ? "" : "s",
                static_cast<unsigned long long>(graph->epoch()));
  }

  // --- engine resources ----------------------------------------------------
  const std::string engine_name = args.Get("engine", "cached");
  std::optional<GphiKind> kind;
  if (engine_name != "cached") {
    kind = ParseEngine(engine_name);
    if (!kind.has_value()) return Fail("unknown engine");
  }
  GphiResources resources;
  resources.graph = &*graph;
  std::optional<HubLabels> labels;
  std::optional<GTree> gtree;
  std::optional<ContractionHierarchy> ch;
  Timer index_timer;
  if (kind == GphiKind::kPhl || kind == GphiKind::kIerPhl) {
    labels = HubLabels::Build(*graph);
    resources.labels = &*labels;
  }
  if (kind == GphiKind::kGTree || kind == GphiKind::kIerGTree) {
    gtree = GTree::Build(*graph);
    resources.gtree = &*gtree;
  }
  if (kind == GphiKind::kCh) {
    ch = ContractionHierarchy::Build(*graph);
    resources.ch = &*ch;
  }
  if (index_timer.Seconds() > 0.01) {
    std::printf("index build: %.2fs\n", index_timer.Seconds());
  }

  // --- server --------------------------------------------------------------
  net::ServerConfig config;
  config.host = args.Get("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(args.GetSize("port", 0));
  config.max_connections = args.GetSize("max-connections", 64);
  config.max_queue_depth = args.GetSize("max-queue-depth", 128);
  config.default_deadline_ms = args.GetDouble("default-deadline-ms", 0.0);
  config.drain_deadline_ms = args.GetDouble("drain-deadline-ms", 10'000.0);
  config.max_subscriptions_per_connection =
      args.GetSize("max-subscriptions-per-connection", 8);
  config.max_subscriptions_total =
      args.GetSize("max-subscriptions-total", 1024);
  config.engine_options.num_threads = args.GetSize("threads", 1);
  config.engine_options.gphi_kind = kind;
  config.wal = wal.get();

  net::FannServer server(&*graph, resources, std::move(config));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "fannr_server: start failed: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("listening on %s:%u\n", args.Get("host", "127.0.0.1").c_str(),
              server.port());
  std::fflush(stdout);

  const net::DrainStats stats = server.Wait();
  g_server = nullptr;
  std::printf(
      "drained in %.1f ms (%zu item%s executed, %zu aborted, %s deadline)\n",
      stats.drain_ms, stats.drained_items,
      stats.drained_items == 1 ? "" : "s", stats.aborted_items,
      stats.within_deadline ? "within" : "PAST");
  std::printf("final stats:\n%s\n", stats.final_stats_json.c_str());
  return stats.within_deadline ? 0 : 1;
}
