// mbrec — command-line front end to the microblogrec library.
//
//   mbrec generate  --dataset twitter|dblp --nodes N [--seed S]
//                   --out graph.{bin|edges}
//   mbrec stats     --graph graph.{bin|edges} [--vocab twitter|dblp]
//   mbrec landmarks --graph graph.bin --count 100 [--strategy Follow]
//                   [--top-n 100] --out index.bin
//   mbrec recommend --graph graph.bin --user U --topic technology
//                   [--algo tr|katz|twitterrank] [--index index.bin]
//                   [--top 10] [--vocab twitter|dblp]
//   mbrec eval      --graph graph.bin [--tests 50] [--trials 1]
//                   [--vocab twitter|dblp]
//   mbrec partition --graph graph.bin [--parts 4]
//   mbrec analyze   --graph graph.bin
//   mbrec save-graph --graph graph.{bin|edges} --out snapshot.bin
//   mbrec load      --graph snapshot.bin [--index index.bin] [--user U]
//                   [--topic technology] [--top 10] [--vocab twitter|dblp]
//   mbrec serve     --graph snapshot.bin [--index index.bin] [--host H]
//                   [--port P] [--threads N] [--cache C] [--max-inflight M]
//                   [--max-connections K] [--deadline-ms D] [--drain-ms G]
//                   [--stats-interval-s S] [--vocab twitter|dblp]
//                   [--mutable 1] [--repair touched|all]
//                   [--authority-refresh N]
//                   [--degrade off|ladder] [--p99-target-us U]
//                   [--stale-epochs E]
//   mbrec query-remote    --port P --user U --topic technology [--host H]
//                   [--top 10] [--timeout-ms T] [--deadline-ms D]
//                   [--exclude id,id,...] [--vocab twitter|dblp]
//   mbrec mutate    --port P --op follow|unfollow|relabel --src U --dst V
//                   [--topics t1,t2,...] [--host H] [--timeout-ms T]
//                   [--vocab twitter|dblp]
//   mbrec metrics   --port P [--host H] [--timeout-ms T]
//   mbrec shutdown-remote --port P [--host H] [--timeout-ms T]
//   mbrec shard-plan --graph graph.bin --shards N --out plan.bin
//                   [--strategy Hash|BFS-Chunks|Community-LPA|
//                    Community-PopBal] [--halo-depth D]
//                   [--endpoints h:p,h:p,...]
//   mbrec serve     --plan plan.bin --shard I --graph snapshot.bin
//                   [--index index.bin] [--port P] ... (shard replica:
//                   warm-starts only shard I's halo subgraph + locally
//                   homed landmark lists; read-only, shard ops)
//   mbrec route     --plan plan.bin [--endpoints h:p,...] [--port P]
//                   [--mode landmark|exact] [--degrade partial|off]
//                   [--timeout-ms T] [--max-connections K] (coordinator:
//                   clients speak the ordinary protocol to it through
//                   the same front end as serve; replies are byte-identical
//                   to single-node serving; --degrade off turns shard loss
//                   into an ERROR instead of a partial merge; K is also the
//                   admission bound past which requests get OVERLOADED)
//
// Binary graphs (.bin) round-trip exactly; .edges files use the
// human-readable labeled edge-list format. `save-graph` converts any
// readable graph into the versioned+checksummed snapshot format and `load`
// warm-starts a QueryEngine replica from a snapshot (plus an optional
// landmark index) and serves one query through it. `serve` runs the same
// warm-started replica behind the epoll network front end (src/net/) until
// SIGINT/SIGTERM or a SHUTDOWN frame drains it; `query-remote`,
// `metrics` (Prometheus text exposition of the server registry) and
// `shutdown-remote` talk to a running server over the wire protocol.
// `serve --mutable 1` additionally accepts FOLLOW/UNFOLLOW/RELABEL frames
// as well: each applied batch materializes a new graph generation,
// rebinds the engine and bumps the graph epoch; with a landmark index
// loaded, a background LandmarkRepairer lazily refreshes stale landmark
// lists (--repair touched|all). `mutate` sends one mutation record to a
// mutable server and prints the applied/rejected counts and the resulting
// graph epoch.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/katz.h"
#include "baselines/twitterrank.h"
#include "core/recommender.h"
#include "datagen/dblp_generator.h"
#include "datagen/twitter_generator.h"
#include "eval/algorithms.h"
#include "eval/linkpred.h"
#include "graph/edgelist.h"
#include "graph/labeled_graph.h"
#include "graph/snapshot.h"
#include "coord/router.h"
#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/span.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/serving_stats.h"
#include "service/warm_start.h"
#include "tools/args.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "distributed/partition.h"
#include "graph/analysis.h"
#include "landmark/selection.h"
#include "util/rng.h"
#include "topics/similarity_matrix.h"
#include "topics/vocabulary.h"
#include "util/table_printer.h"

namespace {

using namespace mbr;

using tools::Args;  // --key value parser; see tools/args.h

std::string Require(const Args& args, const std::string& key) {
  auto value = args.Require(key);
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().message().c_str());
    std::exit(2);
  }
  return *value;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

const topics::Vocabulary& VocabFor(const std::string& name) {
  if (name == "dblp") return topics::DblpVocabulary();
  return topics::TwitterVocabulary();
}
const topics::SimilarityMatrix& SimFor(const std::string& name) {
  if (name == "dblp") return topics::DblpSimilarity();
  return topics::TwitterSimilarity();
}

graph::LabeledGraph LoadGraph(const std::string& path,
                              const topics::Vocabulary& vocab) {
  if (EndsWith(path, ".edges")) {
    auto r = graph::ReadEdgeList(path, vocab);
    if (!r.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*r);
  }
  auto r = graph::LabeledGraph::LoadFrom(path);
  if (!r.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

int CmdGenerate(const Args& args) {
  std::string dataset = args.Get("dataset", "twitter");
  std::string out = Require(args, "out");
  uint32_t nodes = static_cast<uint32_t>(args.GetInt("nodes", 20000));
  uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 0));

  graph::LabeledGraph g;
  const topics::Vocabulary* vocab;
  if (dataset == "dblp") {
    datagen::DblpConfig c;
    c.num_nodes = nodes;
    if (seed != 0) c.seed = seed;
    g = datagen::GenerateDblp(c).graph;
    vocab = &topics::DblpVocabulary();
  } else {
    datagen::TwitterConfig c;
    c.num_nodes = nodes;
    if (seed != 0) c.seed = seed;
    g = datagen::GenerateTwitter(c).graph;
    vocab = &topics::TwitterVocabulary();
  }

  util::Status st = EndsWith(out, ".edges")
                        ? graph::WriteEdgeList(g, *vocab, out)
                        : g.SaveTo(out);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %llu edges (%s)\n", out.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              dataset.c_str());
  return 0;
}

int CmdStats(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  graph::DegreeStatistics s = ComputeDegreeStatistics(g);
  util::TablePrinter tp({"property", "value"});
  tp.AddRow({"nodes", util::TablePrinter::Int(s.num_nodes)});
  tp.AddRow({"edges", util::TablePrinter::Int(s.num_edges)});
  tp.AddRow({"avg out-degree", util::TablePrinter::Num(s.avg_out_degree, 1)});
  tp.AddRow({"avg in-degree", util::TablePrinter::Num(s.avg_in_degree, 1)});
  tp.AddRow({"max in-degree", util::TablePrinter::Int(s.max_in_degree)});
  tp.AddRow({"max out-degree", util::TablePrinter::Int(s.max_out_degree)});
  tp.Print("graph statistics");

  std::vector<uint64_t> per_topic(g.num_topics(), 0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (topics::TopicSet lab : g.OutEdgeLabels(u)) {
      for (topics::TopicId t : lab) ++per_topic[t];
    }
  }
  util::TablePrinter topics_tp({"topic", "#edge labels"});
  for (int t = 0; t < g.num_topics(); ++t) {
    topics_tp.AddRow({vocab.Name(static_cast<topics::TopicId>(t)),
                      util::TablePrinter::Int(
                          static_cast<int64_t>(per_topic[t]))});
  }
  topics_tp.Print("edges per topic");
  return 0;
}

int CmdLandmarks(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  const auto& sim = SimFor(args.Get("vocab", "twitter"));
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  std::string out = Require(args, "out");

  landmark::SelectionStrategy strategy = landmark::SelectionStrategy::kFollow;
  std::string name = args.Get("strategy", "Follow");
  bool found = false;
  for (auto s : landmark::AllStrategies()) {
    if (name == landmark::StrategyName(s)) {
      strategy = s;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown strategy '%s'\n", name.c_str());
    return 2;
  }

  core::AuthorityIndex auth(g);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = static_cast<uint32_t>(args.GetInt("count", 100));
  landmark::SelectionResult sel = SelectLandmarks(g, strategy, scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = static_cast<uint32_t>(args.GetInt("top-n", 100));
  landmark::LandmarkIndex index(g, auth, sim, sel.landmarks, icfg);
  util::Status st = index.SaveTo(out);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s: %zu landmarks (%s), top-%u per topic, %.1f KB, built in "
      "%.2f s\n",
      out.c_str(), index.landmarks().size(), name.c_str(),
      index.config().top_n, index.StorageBytes() / 1024.0,
      index.build_seconds_total());
  return 0;
}

int CmdRecommend(const Args& args) {
  std::string vocab_name = args.Get("vocab", "twitter");
  const auto& vocab = VocabFor(vocab_name);
  const auto& sim = SimFor(vocab_name);
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  graph::NodeId user = static_cast<graph::NodeId>(args.GetInt("user", 0));
  if (user >= g.num_nodes()) {
    std::fprintf(stderr, "user %u out of range\n", user);
    return 2;
  }
  std::string topic_name = Require(args, "topic");
  topics::TopicId topic = vocab.Id(topic_name);
  if (topic == topics::kInvalidTopic) {
    std::fprintf(stderr, "unknown topic '%s'\n", topic_name.c_str());
    return 2;
  }
  size_t top = static_cast<size_t>(args.GetInt("top", 10));
  std::string algo = args.Get("algo", "tr");

  std::unique_ptr<core::Recommender> rec;
  std::unique_ptr<core::AuthorityIndex> auth;
  std::unique_ptr<landmark::LandmarkIndex> index;
  if (!args.Get("index").empty()) {
    auth = std::make_unique<core::AuthorityIndex>(g);
    auto loaded =
        landmark::LandmarkIndex::LoadFrom(args.Get("index"), g.num_nodes());
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot read index: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    index = std::make_unique<landmark::LandmarkIndex>(std::move(*loaded));
    rec = std::make_unique<landmark::ApproxRecommender>(
        g, *auth, sim, *index, landmark::ApproxConfig{});
  } else if (algo == "katz") {
    rec = std::make_unique<baselines::KatzRecommender>(g, sim,
                                                       core::ScoreParams{});
  } else if (algo == "twitterrank") {
    rec = std::make_unique<baselines::TwitterRank>(g);
  } else {
    rec = std::make_unique<core::TrRecommender>(g, sim);
  }

  auto results = rec->TopN(user, topic, static_cast<uint32_t>(top));
  std::printf("%s recommendations for user %u on '%s':\n",
              rec->name().c_str(), user, vocab.Name(topic).c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %2zu. user %-8u score %.4e  (followers: %u)\n", i + 1,
                results[i].id, results[i].score,
                g.InDegree(results[i].id));
  }
  if (results.empty()) std::printf("  (no reachable candidates)\n");
  return 0;
}

int CmdPartition(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  uint32_t parts = static_cast<uint32_t>(args.GetInt("parts", 4));
  util::TablePrinter tp({"strategy", "edge cut", "balance"});
  for (auto strategy : {distributed::PartitionStrategy::kHash,
                        distributed::PartitionStrategy::kBfsChunks,
                        distributed::PartitionStrategy::kCommunity,
                        distributed::PartitionStrategy::kCommunityPopularity}) {
    distributed::PartitionConfig pcfg;
    pcfg.num_partitions = parts;
    auto p = PartitionGraph(g, strategy, pcfg);
    tp.AddRow({distributed::PartitionStrategyName(strategy),
               util::TablePrinter::Num(p.edge_cut, 3),
               util::TablePrinter::Num(p.balance, 2)});
  }
  char title[64];
  std::snprintf(title, sizeof(title), "partitioners (%u workers)", parts);
  tp.Print(title);
  return 0;
}

int CmdAnalyze(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  util::Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  util::TablePrinter tp({"metric", "value"});
  tp.AddRow({"reciprocity",
             util::TablePrinter::Num(Reciprocity(g), 3)});
  tp.AddRow({"clustering coefficient (sampled)",
             util::TablePrinter::Num(
                 EstimateClusteringCoefficient(g, 300, &rng), 3)});
  uint32_t components = 0;
  WeaklyConnectedComponents(g, &components);
  tp.AddRow({"weak components", util::TablePrinter::Int(components)});
  tp.AddRow({"largest component",
             util::TablePrinter::Int(
                 static_cast<int64_t>(LargestComponentSize(g)))});
  tp.AddRow({"in-degree power-law slope",
             util::TablePrinter::Num(
                 graph::EstimatePowerLawExponent(
                     graph::InDegreeHistogram(g)),
                 2)});
  tp.Print("structure");
  return 0;
}

int CmdSaveGraph(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  std::string out = Require(args, "out");
  util::Status st = graph::Snapshot::Save(g, out);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote snapshot %s: %u nodes, %llu edges, format v%u (CRC32 per "
      "section)\n",
      out.c_str(), g.num_nodes(),
      static_cast<unsigned long long>(g.num_edges()),
      graph::Snapshot::kFormatVersion);
  return 0;
}

int CmdLoad(const Args& args) {
  std::string vocab_name = args.Get("vocab", "twitter");
  const auto& vocab = VocabFor(vocab_name);
  const auto& sim = SimFor(vocab_name);

  service::EngineConfig cfg;
  cfg.cache_capacity = 4096;
  auto replica = service::WarmStart(Require(args, "graph"),
                                    args.Get("index"), sim, cfg);
  if (!replica.ok()) {
    std::fprintf(stderr, "warm start failed: %s\n",
                 replica.status().ToString().c_str());
    return 1;
  }
  service::ServingReplica& rep = **replica;
  std::printf("warm-started replica: %u nodes, %llu edges, %s scoring, %u "
              "workers\n",
              rep.graph.num_nodes(),
              static_cast<unsigned long long>(rep.graph.num_edges()),
              rep.landmarks != nullptr ? "landmark-approximate" : "exact",
              rep.engine->num_workers());

  graph::NodeId user = static_cast<graph::NodeId>(args.GetInt("user", 0));
  if (user >= rep.graph.num_nodes()) {
    std::fprintf(stderr, "user %u out of range\n", user);
    return 2;
  }
  std::string topic_name = args.Get("topic", "technology");
  topics::TopicId topic = vocab.Id(topic_name);
  if (topic == topics::kInvalidTopic ||
      topic >= rep.graph.num_topics()) {
    std::fprintf(stderr, "unknown topic '%s'\n", topic_name.c_str());
    return 2;
  }
  uint32_t top = static_cast<uint32_t>(args.GetInt("top", 10));

  auto top_r = rep.engine->TopN(user, topic, top);
  if (!top_r.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 top_r.status().ToString().c_str());
    return 2;
  }
  const std::vector<util::ScoredId>& results = *top_r;
  std::printf("recommendations for user %u on '%s':\n", user,
              topic_name.c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %2zu. user %-8u score %.4e\n", i + 1, results[i].id,
                results[i].score);
  }
  if (results.empty()) std::printf("  (no reachable candidates)\n");
  service::EngineStats stats = rep.engine->Stats();
  std::printf("served %llu queries, p50 latency >= %.0f us\n",
              static_cast<unsigned long long>(stats.queries),
              stats.LatencyPercentileMicros(0.5));
  return 0;
}

int CmdEval(const Args& args) {
  std::string vocab_name = args.Get("vocab", "twitter");
  const auto& vocab = VocabFor(vocab_name);
  const auto& sim = SimFor(vocab_name);
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);

  core::ScoreParams params;
  auto algos = eval::StandardAlgorithms(sim, params, false);
  eval::LinkPredConfig cfg;
  cfg.test_edges = static_cast<uint32_t>(args.GetInt("tests", 50));
  cfg.trials = static_cast<uint32_t>(args.GetInt("trials", 1));
  auto curves = RunLinkPrediction(g, algos, cfg);
  util::TablePrinter tp({"algorithm", "recall@1", "recall@10", "MRR"});
  for (const auto& c : curves) {
    tp.AddRow({c.name, util::TablePrinter::Num(c.recall_at[0], 3),
               util::TablePrinter::Num(c.recall_at[9], 3),
               util::TablePrinter::Num(c.mrr, 3)});
  }
  tp.Print("link prediction");
  return 0;
}

// ---- Network serving commands (src/net/).

std::atomic<net::Server*> g_serve_server{nullptr};

// RequestStop is one eventfd write, so calling it from the handler is safe.
void ServeSignalHandler(int) {
  net::Server* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestStop();
}

// ---- Partitioned serving (src/coord/): shard-plan / serve --shard / route.

bool ParsePartitionStrategy(const std::string& name,
                            distributed::PartitionStrategy* out) {
  for (auto s : {distributed::PartitionStrategy::kHash,
                 distributed::PartitionStrategy::kBfsChunks,
                 distributed::PartitionStrategy::kCommunity,
                 distributed::PartitionStrategy::kCommunityPopularity}) {
    if (name == distributed::PartitionStrategyName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

// "host:port,host:port,..." -> endpoint list; empty items are an error.
util::Result<std::vector<coord::ShardEndpoint>> ParseEndpoints(
    const std::string& list) {
  std::vector<coord::ShardEndpoint> eps;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string item = list.substr(pos, comma - pos);
    size_t colon = item.rfind(':');
    if (item.empty() || colon == std::string::npos || colon == 0) {
      return util::Status::InvalidArgument("bad endpoint '" + item +
                                           "' (want host:port)");
    }
    coord::ShardEndpoint ep;
    ep.host = item.substr(0, colon);
    ep.port = static_cast<uint32_t>(
        std::strtoul(item.c_str() + colon + 1, nullptr, 10));
    if (ep.port > 65535) {
      return util::Status::InvalidArgument("bad port in '" + item + "'");
    }
    eps.push_back(std::move(ep));
    pos = comma + 1;
  }
  return eps;
}

int CmdShardPlan(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  std::string out = Require(args, "out");
  uint32_t shards = static_cast<uint32_t>(args.GetInt("shards", 2));

  distributed::PartitionStrategy strategy =
      distributed::PartitionStrategy::kHash;
  std::string name = args.Get("strategy", "Hash");
  if (!ParsePartitionStrategy(name, &strategy)) {
    std::fprintf(stderr,
                 "unknown strategy '%s' (Hash|BFS-Chunks|Community-LPA|"
                 "Community-PopBal)\n",
                 name.c_str());
    return 2;
  }

  distributed::PartitionConfig pcfg;
  pcfg.num_partitions = shards;
  distributed::Partitioning partitioning = PartitionGraph(g, strategy, pcfg);

  // Endpoints: either one host:port per shard, or 127.0.0.1:0 placeholders
  // (shards bind ephemeral ports; `mbrec route --endpoints` overrides).
  std::vector<coord::ShardEndpoint> endpoints(shards);
  std::string ep_list = args.Get("endpoints");
  if (!ep_list.empty()) {
    auto parsed = ParseEndpoints(ep_list);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
      return 2;
    }
    if (parsed->size() != shards) {
      std::fprintf(stderr, "--endpoints lists %zu entries for %u shards\n",
                   parsed->size(), shards);
      return 2;
    }
    endpoints = std::move(*parsed);
  }

  // halo_depth = query_depth - 1 covers the landmark exploration (depth-d
  // explorations expand out-edges of nodes at depth < d).
  uint32_t halo_depth =
      static_cast<uint32_t>(args.GetInt("halo-depth", 1));
  coord::ShardPlan plan(std::move(partitioning), strategy, halo_depth,
                        g.num_topics(), std::move(endpoints));
  util::Status st = plan.SaveTo(out);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf(
      "shard plan: %u shards over %llu nodes (%s, halo depth %u, edge cut "
      "%.1f%%, balance %.2f) -> %s\n",
      plan.num_shards(), static_cast<unsigned long long>(plan.num_nodes()),
      distributed::PartitionStrategyName(plan.strategy()), plan.halo_depth(),
      plan.partitioning().edge_cut * 100, plan.partitioning().balance,
      out.c_str());
  return 0;
}

// `--degrade ladder` serving knobs, shared by single-node and shard
// serving. The pressure watermarks derive from the server admission cap
// (--max-inflight): degrade to the landmark approximation at half the
// cap, to stale cache hits at three quarters; admission control sheds at
// the cap itself. --p99-target-us adds the recent-latency signal,
// --stale-epochs bounds how many dead cache generations remain servable.
// Returns 0, or 2 on a bad flag value (usage error).
int ApplyDegradeFlags(const Args& args, service::EngineConfig* ecfg) {
  const std::string degrade = args.Get("degrade", "off");
  if (degrade != "off" && degrade != "ladder") {
    std::fprintf(stderr, "unknown --degrade '%s' (off|ladder)\n",
                 degrade.c_str());
    return 2;
  }
  if (degrade == "off") return 0;
  const uint32_t cap =
      static_cast<uint32_t>(args.GetInt("max-inflight", 64));
  ecfg->degrade.enabled = true;
  ecfg->degrade.pressure.approx_at = cap / 2;
  ecfg->degrade.pressure.stale_at = cap - cap / 4;
  ecfg->degrade.pressure.p99_target_us =
      static_cast<uint64_t>(args.GetInt("p99-target-us", 0));
  ecfg->degrade.stale_keep_epochs =
      static_cast<uint32_t>(args.GetInt("stale-epochs", 4));
  return 0;
}

// `mbrec serve --plan P --shard i`: warm-start only shard i's slice (halo
// subgraph + locally-homed landmark lists) and serve the shard ops.
int CmdServeShard(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  const auto& sim = SimFor(args.Get("vocab", "twitter"));
  if (args.GetInt("mutable", 0) != 0) {
    std::fprintf(stderr, "--mutable is not supported with --plan "
                         "(shard serving is read-only)\n");
    return 2;
  }
  auto plan = coord::ShardPlan::LoadFrom(Require(args, "plan"));
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  int64_t shard_arg = args.GetInt("shard", -1);
  if (shard_arg < 0 || shard_arg >= plan->num_shards()) {
    std::fprintf(stderr, "--shard must be in [0, %u)\n", plan->num_shards());
    return 2;
  }
  const uint32_t shard = static_cast<uint32_t>(shard_arg);

  graph::LabeledGraph g = LoadGraph(Require(args, "graph"), vocab);
  std::unique_ptr<landmark::LandmarkIndex> index;
  std::string index_path = args.Get("index");
  if (!index_path.empty()) {
    auto loaded = landmark::LandmarkIndex::LoadFrom(index_path,
                                                    g.num_nodes());
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load index: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    index = std::make_unique<landmark::LandmarkIndex>(std::move(*loaded));
  }

  service::EngineConfig ecfg;
  ecfg.cache_capacity = static_cast<size_t>(args.GetInt("cache", 4096));
  ecfg.registry = &obs::Registry::Default();
  int64_t threads = args.GetInt("threads", 0);
  if (threads > 0) ecfg.num_threads = static_cast<uint32_t>(threads);
  if (int rc = ApplyDegradeFlags(args, &ecfg); rc != 0) return rc;

  auto ctx = coord::BuildShardContext(g, sim, *plan, shard, index.get(),
                                      ecfg);
  if (!ctx.ok()) {
    std::fprintf(stderr, "shard warm start failed: %s\n",
                 ctx.status().ToString().c_str());
    return 1;
  }
  coord::ShardContext& sc = **ctx;

  net::ServerConfig scfg;
  scfg.host = args.Get("host", "127.0.0.1");
  // Port priority: --port flag, then the plan's endpoint table.
  int64_t port = args.GetInt("port", -1);
  scfg.port = port >= 0 ? static_cast<uint16_t>(port)
                        : static_cast<uint16_t>(
                              plan->endpoints()[shard].port);
  scfg.max_connections =
      static_cast<uint32_t>(args.GetInt("max-connections", 256));
  scfg.max_inflight = static_cast<uint32_t>(args.GetInt("max-inflight", 64));
  scfg.request_deadline_ms =
      static_cast<uint32_t>(args.GetInt("deadline-ms", 1000));
  scfg.drain_grace_ms = static_cast<uint32_t>(args.GetInt("drain-ms", 5000));
  scfg.registry = &obs::Registry::Default();
  scfg.shard_owned = &sc.owned;
  scfg.shard_index = sc.index.get();
  scfg.shard = shard;
  scfg.shards_total = plan->num_shards();

  net::Server server(*sc.engine, scfg);
  util::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    return 1;
  }
  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);

  size_t owned_count = 0;
  for (bool b : sc.owned) owned_count += b ? 1 : 0;
  std::printf(
      "shard %u/%u: %zu owned of %u nodes, halo graph %llu edges (%s "
      "scoring)\n",
      shard, plan->num_shards(), owned_count, g.num_nodes(),
      static_cast<unsigned long long>(sc.subgraph->num_edges()),
      sc.index != nullptr ? "landmark-approximate" : "exact");
  std::printf("listening on %s:%u\n", scfg.host.c_str(), server.port());
  std::fflush(stdout);

  const int64_t interval_s = args.GetInt("stats-interval-s", 10);
  auto last_line = std::chrono::steady_clock::now();
  while (server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto now = std::chrono::steady_clock::now();
    if (interval_s > 0 && now - last_line >= std::chrono::seconds(interval_s)) {
      std::printf("%s\n", service::FormatStatsLine(server.StatsNow()).c_str());
      std::fflush(stdout);
      last_line = now;
    }
  }
  server.Wait();
  g_serve_server.store(nullptr, std::memory_order_release);
  std::printf("drained: %s\n",
              service::FormatStatsLine(server.StatsNow()).c_str());
  return 0;
}

std::atomic<coord::Router*> g_route_router{nullptr};

void RouteSignalHandler(int) {
  coord::Router* router = g_route_router.load(std::memory_order_acquire);
  if (router != nullptr) router->RequestStop();
}

int CmdRoute(const Args& args) {
  auto plan = coord::ShardPlan::LoadFrom(Require(args, "plan"));
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  // Plans usually carry 127.0.0.1:0 placeholders (shards bind ephemeral
  // ports); --endpoints supplies the live addresses.
  std::string ep_list = args.Get("endpoints");
  if (!ep_list.empty()) {
    auto parsed = ParseEndpoints(ep_list);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
      return 2;
    }
    if (parsed->size() != plan->num_shards()) {
      std::fprintf(stderr, "--endpoints lists %zu entries for %u shards\n",
                   parsed->size(), plan->num_shards());
      return 2;
    }
    for (uint32_t s = 0; s < plan->num_shards(); ++s) {
      plan->SetEndpoint(s, (*parsed)[s]);
    }
  }

  std::string mode = args.Get("mode", "landmark");
  if (mode != "landmark" && mode != "exact") {
    std::fprintf(stderr, "unknown --mode '%s' (landmark|exact)\n",
                 mode.c_str());
    return 2;
  }
  std::string degrade = args.Get("degrade", "partial");
  if (degrade != "partial" && degrade != "off") {
    std::fprintf(stderr, "unknown --degrade '%s' (partial|off)\n",
                 degrade.c_str());
    return 2;
  }

  coord::RouterConfig rcfg;
  rcfg.host = args.Get("host", "127.0.0.1");
  rcfg.port = static_cast<uint16_t>(args.GetInt("port", 0));
  rcfg.max_connections =
      static_cast<uint32_t>(args.GetInt("max-connections", 64));
  rcfg.shard_timeout_ms =
      static_cast<uint32_t>(args.GetInt("timeout-ms", 2000));
  rcfg.landmark_mode = mode == "landmark";
  rcfg.degrade_partial = degrade == "partial";
  rcfg.registry = &obs::Registry::Default();

  coord::Router router(*plan, rcfg);
  util::Status st = router.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start router: %s\n", st.ToString().c_str());
    return 1;
  }
  g_route_router.store(&router, std::memory_order_release);
  std::signal(SIGINT, RouteSignalHandler);
  std::signal(SIGTERM, RouteSignalHandler);

  std::printf("routing %u shards (%s merge, shard loss -> %s)\n",
              plan->num_shards(), mode.c_str(),
              rcfg.degrade_partial ? "partial" : "error");
  std::printf("listening on %s:%u\n", rcfg.host.c_str(), router.port());
  std::fflush(stdout);

  const int64_t interval_s = args.GetInt("stats-interval-s", 10);
  auto last_line = std::chrono::steady_clock::now();
  while (router.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto now = std::chrono::steady_clock::now();
    if (interval_s > 0 && now - last_line >= std::chrono::seconds(interval_s)) {
      service::StatsSnapshot s = router.RollupStats();
      std::printf("%s shards_up=%u/%u\n",
                  service::FormatStatsLine(s).c_str(), s.shards_up,
                  s.shards_total);
      std::fflush(stdout);
      last_line = now;
    }
  }
  router.Wait();
  g_route_router.store(nullptr, std::memory_order_release);
  std::printf("router stopped\n");
  return 0;
}

int CmdServe(const Args& args) {
  if (!args.Get("plan").empty()) return CmdServeShard(args);
  const auto& sim = SimFor(args.Get("vocab", "twitter"));

  service::EngineConfig ecfg;
  ecfg.cache_capacity = static_cast<size_t>(args.GetInt("cache", 4096));
  // One process-wide registry for engine + network series, so the METRICS
  // wire op (and `mbrec metrics`) exposes everything in one scrape. The
  // stage-latency series normally appear on first execution of their span
  // sites; register the request-path stages up front so a scrape of an
  // idle replica already shows the whole family.
  ecfg.registry = &obs::Registry::Default();
  for (const char* stage :
       {"scorer.explore", "landmark.bfs", "landmark.combine",
        "engine.execute"}) {
    obs::StageHistogram(stage);
  }
  int64_t threads = args.GetInt("threads", 0);
  if (threads > 0) ecfg.num_threads = static_cast<uint32_t>(threads);
  if (int rc = ApplyDegradeFlags(args, &ecfg); rc != 0) return rc;
  auto replica = service::WarmStart(Require(args, "graph"),
                                    args.Get("index"), sim, ecfg);
  if (!replica.ok()) {
    std::fprintf(stderr, "warm start failed: %s\n",
                 replica.status().ToString().c_str());
    return 1;
  }
  service::ServingReplica& rep = **replica;

  // --mutable 1 turns on the mutation path: an applier that
  // materializes a new graph generation per applied batch, plus (when a
  // landmark index is loaded) a background repairer that lazily refreshes
  // stale landmark lists. Declared before the server so the server (which
  // holds the applier pointer) is torn down first, and the repair thread
  // is stopped before the engine and index it repairs.
  const bool mutable_serving = args.GetInt("mutable", 0) != 0;
  std::unique_ptr<service::MutationApplier> applier;
  std::unique_ptr<service::LandmarkRepairer> repairer;
  if (mutable_serving) {
    // --authority-refresh N: exact per-topic max refresh every N applied
    // batches (paper's periodic recomputation). 1 (default) repairs dirty
    // maxima each batch, so serving stays byte-identical to a full
    // rebuild; larger N trades bounded-above authority drift for less
    // rescan work (tracked by mbr_authority_drift_topics_total).
    const int64_t refresh = args.GetInt("authority-refresh", 1);
    if (refresh < 1) {
      std::fprintf(stderr, "--authority-refresh must be >= 1 (got %lld)\n",
                   static_cast<long long>(refresh));
      return 2;
    }
    service::MutationConfig mcfg;
    mcfg.authority_refresh_batches = static_cast<uint32_t>(refresh);
    applier = std::make_unique<service::MutationApplier>(
        rep.graph, *rep.authority, *rep.engine, mcfg);
    if (rep.landmarks != nullptr) {
      std::string repair_mode = args.Get("repair", "touched");
      if (repair_mode != "touched" && repair_mode != "all") {
        std::fprintf(stderr, "unknown --repair mode '%s' (touched|all)\n",
                     repair_mode.c_str());
        return 2;
      }
      service::RepairConfig rcfg;
      rcfg.mode = repair_mode == "all" ? service::RepairConfig::Mode::kAll
                                       : service::RepairConfig::Mode::kTouched;
      repairer = std::make_unique<service::LandmarkRepairer>(
          *rep.landmarks, *rep.engine, sim, applier->current_graph(),
          applier->current_authority(), rcfg);
      applier->SetRepairer(repairer.get());
      rep.engine->SetStaleProbe(repairer->MakeStaleProbe());
      repairer->Start();
    }
  }

  net::ServerConfig scfg;
  scfg.host = args.Get("host", "127.0.0.1");
  scfg.port = static_cast<uint16_t>(args.GetInt("port", 0));
  scfg.max_connections =
      static_cast<uint32_t>(args.GetInt("max-connections", 256));
  scfg.max_inflight = static_cast<uint32_t>(args.GetInt("max-inflight", 64));
  scfg.request_deadline_ms =
      static_cast<uint32_t>(args.GetInt("deadline-ms", 1000));
  scfg.drain_grace_ms = static_cast<uint32_t>(args.GetInt("drain-ms", 5000));
  scfg.registry = &obs::Registry::Default();
  scfg.applier = applier.get();

  net::Server server(*rep.engine, scfg);
  util::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    return 1;
  }
  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);

  std::printf("serving %u nodes, %llu edges (%s scoring, %u workers)\n",
              rep.graph.num_nodes(),
              static_cast<unsigned long long>(rep.graph.num_edges()),
              rep.landmarks != nullptr ? "landmark-approximate" : "exact",
              rep.engine->num_workers());
  if (rep.engine->degrade_enabled()) {
    const service::PressureConfig& p = rep.engine->pressure().config();
    std::printf("degradation ladder: approx at %u inflight, stale at %u, "
                "p99 target %lluus, stale window %u epochs\n",
                p.approx_at, p.stale_at,
                static_cast<unsigned long long>(p.p99_target_us),
                ecfg.degrade.stale_keep_epochs);
  }
  if (mutable_serving) {
    std::printf("mutations: enabled (%s)\n",
                repairer != nullptr
                    ? (args.Get("repair", "touched") == "all"
                           ? "landmark repair: all"
                           : "landmark repair: touched")
                    : "no landmark index, repair off");
  }
  std::printf("listening on %s:%u\n", scfg.host.c_str(), server.port());
  std::fflush(stdout);

  // Periodic operator log line; same snapshot the STATS wire reply uses.
  // Slow-query entries (queries over the obs::SlowQueryLog threshold, with
  // per-stage breakdown) surface here as they are captured.
  const int64_t interval_s = args.GetInt("stats-interval-s", 10);
  auto last_line = std::chrono::steady_clock::now();
  size_t slow_seen = 0;
  while (server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto now = std::chrono::steady_clock::now();
    std::vector<obs::SlowQueryEntry> slow =
        obs::SlowQueryLog::Default().Entries();
    for (size_t i = slow_seen; i < slow.size(); ++i) {
      std::printf("%s\n", slow[i].Format().c_str());
    }
    if (slow.size() != slow_seen) {
      slow_seen = slow.size();
      std::fflush(stdout);
    }
    if (interval_s > 0 && now - last_line >= std::chrono::seconds(interval_s)) {
      std::printf("%s\n", service::FormatStatsLine(server.StatsNow()).c_str());
      std::fflush(stdout);
      last_line = now;
    }
  }
  server.Wait();
  g_serve_server.store(nullptr, std::memory_order_release);
  std::printf("drained: %s\n",
              service::FormatStatsLine(server.StatsNow()).c_str());
  return 0;
}

util::Result<net::Client> RemoteConnect(const Args& args) {
  net::ClientConfig cfg;
  cfg.host = args.Get("host", "127.0.0.1");
  cfg.port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (cfg.port == 0) {
    return util::Status::InvalidArgument("--port is required");
  }
  cfg.request_timeout_ms =
      static_cast<uint32_t>(args.GetInt("timeout-ms", 5000));
  return net::Client::Connect(cfg);
}

int CmdQueryRemote(const Args& args) {
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  std::string topic_name = Require(args, "topic");
  topics::TopicId topic = vocab.Id(topic_name);
  if (topic == topics::kInvalidTopic) {
    std::fprintf(stderr, "unknown topic '%s'\n", topic_name.c_str());
    return 2;
  }
  uint32_t user = static_cast<uint32_t>(args.GetInt("user", 0));
  uint32_t top = static_cast<uint32_t>(args.GetInt("top", 10));

  net::RecommendRequest req;
  req.user = user;
  req.topic = topic;
  req.top_n = top;
  req.deadline_ms = static_cast<uint32_t>(args.GetInt("deadline-ms", 0));
  std::string exclude = args.Get("exclude");
  for (size_t pos = 0; pos < exclude.size();) {
    size_t comma = exclude.find(',', pos);
    if (comma == std::string::npos) comma = exclude.size();
    if (comma > pos) {
      req.exclude.push_back(static_cast<uint32_t>(
          std::strtoul(exclude.substr(pos, comma - pos).c_str(), nullptr,
                       10)));
    }
    pos = comma + 1;
  }

  auto client = RemoteConnect(args);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto results = client->RecommendEx(req);
  if (!results.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  std::printf("remote recommendations for user %u on '%s' (graph epoch "
              "%llu, %s tier):\n",
              user, topic_name.c_str(),
              static_cast<unsigned long long>(results->graph_epoch),
              core::TierName(static_cast<core::Tier>(
                  std::min<uint8_t>(results->served_tier, 2))));
  for (size_t i = 0; i < results->entries.size(); ++i) {
    std::printf("  %2zu. user %-8u score %.4e\n", i + 1,
                results->entries[i].id, results->entries[i].score);
  }
  if (results->entries.empty()) std::printf("  (no reachable candidates)\n");
  return 0;
}

int CmdMutate(const Args& args) {
  std::string op = Require(args, "op");
  net::MessageKind kind;
  if (op == "follow") {
    kind = net::MessageKind::kFollow;
  } else if (op == "unfollow") {
    kind = net::MessageKind::kUnfollow;
  } else if (op == "relabel") {
    kind = net::MessageKind::kRelabel;
  } else {
    std::fprintf(stderr, "unknown --op '%s' (follow|unfollow|relabel)\n",
                 op.c_str());
    return 2;
  }

  net::MutationRecord record;
  record.src = static_cast<uint32_t>(args.GetInt("src", 0));
  record.dst = static_cast<uint32_t>(args.GetInt("dst", 0));
  // FOLLOW/RELABEL carry an edge label set; the server rejects empty or
  // out-of-vocabulary sets, so resolve names eagerly and fail fast here.
  const auto& vocab = VocabFor(args.Get("vocab", "twitter"));
  std::string topic_list = args.Get("topics");
  for (size_t pos = 0; pos < topic_list.size();) {
    size_t comma = topic_list.find(',', pos);
    if (comma == std::string::npos) comma = topic_list.size();
    if (comma > pos) {
      std::string name = topic_list.substr(pos, comma - pos);
      topics::TopicId id = vocab.Id(name);
      if (id == topics::kInvalidTopic) {
        std::fprintf(stderr, "unknown topic '%s'\n", name.c_str());
        return 2;
      }
      record.labels |= uint64_t{1} << id;
    }
    pos = comma + 1;
  }
  if (kind != net::MessageKind::kUnfollow && record.labels == 0) {
    std::fprintf(stderr, "--topics is required for %s\n", op.c_str());
    return 2;
  }

  auto client = RemoteConnect(args);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto ack = client->Mutate(kind, {record});
  if (!ack.ok()) {
    std::fprintf(stderr, "mutate failed: %s\n",
                 ack.status().ToString().c_str());
    return 1;
  }
  std::printf("%s %u -> %u: applied=%u rejected=%u graph_epoch=%llu\n",
              op.c_str(), record.src, record.dst, ack->applied,
              ack->rejected,
              static_cast<unsigned long long>(ack->graph_epoch));
  // A fully rejected record is an operator error (duplicate follow, absent
  // edge, bad ids) — reflect it in the exit code.
  return ack->applied > 0 ? 0 : 1;
}

int CmdMetrics(const Args& args) {
  auto client = RemoteConnect(args);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto text = client->Metrics();
  if (!text.ok()) {
    std::fprintf(stderr, "metrics failed: %s\n",
                 text.status().ToString().c_str());
    return 1;
  }
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

int CmdShutdownRemote(const Args& args) {
  auto client = RemoteConnect(args);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  util::Status st = client->Shutdown();
  if (!st.ok()) {
    std::fprintf(stderr, "shutdown failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("server at %s:%lld acknowledged shutdown and is draining\n",
              args.Get("host", "127.0.0.1").c_str(),
              static_cast<long long>(args.GetInt("port", 0)));
  return 0;
}

struct Command {
  const char* name;
  int (*fn)(const Args&);
  std::vector<std::string> flags;  // the complete allowed flag set
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> kCommands = {
      {"generate", CmdGenerate, {"dataset", "nodes", "seed", "out"}},
      {"stats", CmdStats, {"graph", "vocab"}},
      {"landmarks", CmdLandmarks,
       {"graph", "vocab", "strategy", "count", "top-n", "out"}},
      {"recommend", CmdRecommend,
       {"graph", "vocab", "user", "topic", "algo", "index", "top"}},
      {"eval", CmdEval, {"graph", "vocab", "tests", "trials"}},
      {"partition", CmdPartition, {"graph", "vocab", "parts"}},
      {"analyze", CmdAnalyze, {"graph", "vocab", "seed"}},
      {"save-graph", CmdSaveGraph, {"graph", "vocab", "out"}},
      {"load", CmdLoad, {"graph", "vocab", "index", "user", "topic", "top"}},
      {"serve", CmdServe,
       {"graph", "vocab", "index", "host", "port", "threads", "cache",
        "max-inflight", "max-connections", "deadline-ms", "drain-ms",
        "stats-interval-s", "mutable", "repair", "authority-refresh",
        "plan", "shard", "degrade", "p99-target-us", "stale-epochs"}},
      {"shard-plan", CmdShardPlan,
       {"graph", "vocab", "shards", "strategy", "halo-depth", "endpoints",
        "out"}},
      {"route", CmdRoute,
       {"plan", "endpoints", "host", "port", "mode", "degrade",
        "timeout-ms", "max-connections", "stats-interval-s"}},
      {"query-remote", CmdQueryRemote,
       {"host", "port", "vocab", "user", "topic", "top", "timeout-ms",
        "deadline-ms", "exclude"}},
      {"mutate", CmdMutate,
       {"host", "port", "vocab", "op", "src", "dst", "topics",
        "timeout-ms"}},
      {"metrics", CmdMetrics, {"host", "port", "timeout-ms"}},
      {"shutdown-remote", CmdShutdownRemote, {"host", "port", "timeout-ms"}},
  };
  return kCommands;
}

void Usage() {
  std::fprintf(stderr, "usage: mbrec <");
  const auto& commands = Commands();
  for (size_t i = 0; i < commands.size(); ++i) {
    std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", commands[i].name);
  }
  std::fprintf(stderr,
               "> [--flag value ...]\n(see the header of tools/mbrec.cc)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string cmd = argv[1];
  for (const Command& command : Commands()) {
    if (cmd != command.name) continue;
    auto args = Args::Parse(argc, argv, 2, command.flags);
    if (!args.ok()) {
      std::fprintf(stderr, "mbrec %s: %s\n", command.name,
                   args.status().message().c_str());
      return 2;
    }
    return command.fn(*args);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  Usage();
  return 2;
}
