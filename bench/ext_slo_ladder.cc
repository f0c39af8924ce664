// EXTENSION (overload behavior): closed-loop SLO ramp over the graceful
// degradation ladder (DESIGN.md §6.8).
//
// Three server configurations face the same paced Zipf workload at an
// identical ramp of offered load levels:
//   off    — exact engine, effectively unbounded admission: overload turns
//            into queueing and the p99 explodes.
//   shed   — exact engine behind the admission cap: overload turns into
//            OVERLOADED sheds (the pre-ladder policy).
//   ladder — the same cap plus the degradation ladder: under pressure the
//            engine steps exact -> landmark-approximate -> stale-cache-hit
//            before shedding, and every reply is stamped with its tier.
//
// A level passes the SLO when p99 <= target AND sheds <= 1% AND goodput
// >= 95% of offered. The headline number is the max sustainable offered
// load per config; the ladder must beat shed-only. Before the ramp, an
// unpressured probe pass asserts that ladder replies stamped `exact` are
// byte-identical to a plain exact engine (tier honesty is the contract
// the whole feature rests on) — any mismatch fails the run.
//
// Output: a human-readable table on stdout plus BENCH_slo.json.
// `--smoke` shrinks the graph, ramp, and windows for CI. Scaling knobs
// (bench_common.h): MBR_SCALE, MBR_TRIALS, MBR_SEED.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/authority.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {

using namespace mbr;

// One core drives everything here: a handful of closed-loop connections
// against a deliberately small admission cap keeps the saturation point
// low enough to cross within a short ramp.
constexpr uint32_t kConns = 8;
constexpr uint32_t kDispatchThreads = 4;
constexpr uint32_t kMaxInflight = 6;

struct LevelResult {
  double offered = 0;     // scheduled q/s
  double goodput = 0;     // OK replies / s
  double p50_us = 0;
  double p99_us = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t tiers[3] = {0, 0, 0};  // exact / approx / stale
  bool pass = false;
};

struct ConfigResult {
  std::string name;
  std::vector<LevelResult> levels;
  double max_sustainable = 0;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * (v->size() - 1));
  return (*v)[idx];
}

net::ClientConfig ClientFor(uint16_t port) {
  net::ClientConfig cc;
  cc.port = port;
  cc.request_timeout_ms = 60000;
  return cc;
}

// The query stream: queries are drawn on the fly so the hot Zipf head
// stays cacheable while the tail keeps missing — a fixed replayed mix
// would go 100% warm after one level and no config would ever feel
// pressure. Seeding per (level, connection) gives every config the
// identical stream at the identical level.
struct QueryGen {
  util::Rng rng;
  util::ZipfDistribution users;
  util::ZipfDistribution topics;
  QueryGen(uint64_t seed, uint32_t num_nodes, uint32_t num_topics)
      : rng(seed), users(num_nodes, 1.1), topics(num_topics, 1.0) {}
  net::RecommendRequest Next() {
    net::RecommendRequest q;
    q.user = users.Sample(&rng);
    q.topic = static_cast<uint32_t>(topics.Sample(&rng));
    q.top_n = 10;
    return q;
  }
};

// Paced closed-loop driver: each connection fires on a fixed schedule
// derived from the offered rate and falls back to as-fast-as-possible
// when the server can't keep up (the schedule keeps advancing, so
// "offered" stays honest while goodput sags).
LevelResult DriveLevel(uint16_t port, uint32_t num_nodes, uint32_t num_topics,
                       double offered_qps, double window_s,
                       uint64_t level_seed) {
  std::vector<LevelResult> per(kConns);
  std::vector<std::vector<double>> lat(kConns);
  const auto t0 = std::chrono::steady_clock::now();
  const auto window = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      window_s));
  const auto gap = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      kConns / offered_qps));
  std::vector<std::thread> workers;
  for (uint32_t c = 0; c < kConns; ++c) {
    workers.emplace_back([&, c] {
      auto client = net::Client::Connect(ClientFor(port));
      if (!client.ok()) return;
      QueryGen gen(level_seed * 1000 + c, num_nodes, num_topics);
      auto next = t0 + gap * c / kConns;  // staggered start
      while (std::chrono::steady_clock::now() - t0 < window) {
        if (next > std::chrono::steady_clock::now()) {
          std::this_thread::sleep_until(next);
        }
        next += gap;
        const net::RecommendRequest q = gen.Next();
        util::WallTimer t;
        auto r = client->RecommendEx(q);
        ++per[c].sent;
        if (r.ok()) {
          ++per[c].ok;
          lat[c].push_back(t.ElapsedSeconds() * 1e6);
          ++per[c].tiers[std::min<uint8_t>(r->served_tier, 2)];
        } else if (r.status().code() == util::StatusCode::kUnavailable) {
          ++per[c].shed;
        } else {
          ++per[c].errors;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  LevelResult out;
  out.offered = offered_qps;
  std::vector<double> all;
  for (uint32_t c = 0; c < kConns; ++c) {
    out.sent += per[c].sent;
    out.ok += per[c].ok;
    out.shed += per[c].shed;
    out.errors += per[c].errors;
    for (int tier = 0; tier < 3; ++tier) out.tiers[tier] += per[c].tiers[tier];
    all.insert(all.end(), lat[c].begin(), lat[c].end());
  }
  out.goodput = elapsed > 0 ? static_cast<double>(out.ok) / elapsed : 0;
  out.p50_us = Percentile(&all, 0.5);
  out.p99_us = Percentile(&all, 0.99);
  return out;
}

bool PassesSlo(const LevelResult& r, double p99_target_us) {
  if (r.sent == 0) return false;
  const double shed_frac =
      static_cast<double>(r.shed + r.errors) / static_cast<double>(r.sent);
  return r.p99_us <= p99_target_us && shed_frac <= 0.01 &&
         r.goodput >= 0.95 * r.offered;
}

// Warm an engine's cache with the head of the query stream — strictly one
// query at a time. Batching the warmup would admit many misses at once;
// on a ladder engine the pressure monitor counts them all, the warmup
// queries would score (and cache) at the APPROX tier, and the unpressured
// probe pass below would never see an exact-tier reply. Sequential
// warmup keeps inflight at 1 (the query itself), under the approx
// watermark, so the cache holds exact-tier entries.
void WarmEngine(service::QueryEngine* engine, uint32_t n, uint32_t num_nodes,
                uint32_t num_topics) {
  QueryGen gen(bench::EnvSeed(20160316), num_nodes, num_topics);
  for (uint32_t i = 0; i < n; ++i) {
    const net::RecommendRequest q = gen.Next();
    const service::Query one = {q.user, static_cast<topics::TopicId>(q.topic),
                                q.top_n};
    engine->Recommend(one);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::PrintHeader(
      "ext_slo_ladder — graceful degradation ladder under an SLO ramp",
      "extension beyond the paper: overload behavior of DESIGN.md §6.8");

  datagen::TwitterConfig cfg = bench::BenchTwitterConfig(smoke ? 800 : 2000);
  datagen::GeneratedDataset ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);
  const topics::SimilarityMatrix& sim = topics::TwitterSimilarity();
  const uint32_t num_nodes = ds.graph.num_nodes();
  const uint32_t num_topics = static_cast<uint32_t>(ds.graph.num_topics());

  landmark::SelectionConfig sel;
  sel.num_landmarks = 32;
  std::vector<graph::NodeId> landmarks =
      landmark::SelectLandmarks(ds.graph,
                                landmark::SelectionStrategy::kOutDeg, sel)
          .landmarks;
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 40;
  icfg.num_threads = 1;
  landmark::LandmarkIndex index(ds.graph, auth, sim, landmarks, icfg);
  std::printf("graph: %u nodes, %llu edges | %zu landmarks | %u conns, "
              "cap %u, %u dispatchers\n",
              num_nodes, static_cast<unsigned long long>(ds.graph.num_edges()),
              landmarks.size(), kConns, kMaxInflight, kDispatchThreads);

  // Every config serves from its own engine so no config inherits cache
  // warmth from another's ramp; calibration gets a throwaway engine for
  // the same reason. All are warmed with the identical Zipf head.
  service::EngineConfig exact_cfg;
  exact_cfg.num_threads = 1;
  exact_cfg.cache_capacity = 1u << 12;
  service::QueryEngine calib_engine(ds.graph, auth, sim, exact_cfg);
  service::QueryEngine off_engine(ds.graph, auth, sim, exact_cfg);
  service::QueryEngine shed_engine(ds.graph, auth, sim, exact_cfg);

  service::EngineConfig ladder_cfg = exact_cfg;
  ladder_cfg.landmarks = &index;
  ladder_cfg.degrade.enabled = true;
  // The tier is chosen after the miss itself is counted inflight, so
  // approx_at=2 means "this miss plus at least one other" — the minimal
  // overlap trigger for a 2-dispatcher server. The p99 signal supplies
  // the extra step down to stale.
  ladder_cfg.degrade.pressure.approx_at = 2;
  ladder_cfg.degrade.pressure.stale_at = 4;
  ladder_cfg.degrade.stale_keep_epochs = 4;
  // p99_target_us is filled in below once the target is calibrated; the
  // ladder engine is built after that.

  const uint32_t warm_n = smoke ? 500 : 2000;
  WarmEngine(&calib_engine, warm_n, num_nodes, num_topics);
  WarmEngine(&off_engine, warm_n, num_nodes, num_topics);
  WarmEngine(&shed_engine, warm_n, num_nodes, num_topics);

  // Calibration against a shed-style exact server: closed-loop capacity
  // sets the ramp's scale, the unloaded p99 sets the SLO target. Both are
  // measured, not assumed, so the ramp lands on the saturation knee on
  // any machine.
  double capacity_qps = 0;
  double p99_target_us = 0;
  {
    net::ServerConfig scfg;
    scfg.max_inflight = kMaxInflight;
    scfg.dispatch_threads = kDispatchThreads;
    scfg.request_deadline_ms = 0;
    net::Server server(calib_engine, scfg);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "calibration server failed to start\n");
      return 1;
    }
    // Unloaded latency: one connection, sequential.
    {
      auto client = net::Client::Connect(ClientFor(server.port()));
      if (!client.ok()) return 1;
      QueryGen gen(11, num_nodes, num_topics);
      std::vector<double> lat;
      const uint32_t n = smoke ? 100 : 300;
      for (uint32_t i = 0; i < n; ++i) {
        const net::RecommendRequest q = gen.Next();
        util::WallTimer t;
        if (client->RecommendEx(q).ok()) {
          lat.push_back(t.ElapsedSeconds() * 1e6);
        }
      }
      // Tight enough that queueing a handful of exact-cost misses blows
      // it — the knee the ladder is built to push past.
      p99_target_us = std::max(2000.0, 3.0 * Percentile(&lat, 0.99));
    }
    // Capacity: every connection as fast as it can.
    {
      std::vector<uint64_t> done(kConns, 0);
      util::WallTimer timer;
      std::vector<std::thread> workers;
      const uint32_t per_conn = smoke ? 60 : 250;
      for (uint32_t c = 0; c < kConns; ++c) {
        workers.emplace_back([&, c] {
          auto client = net::Client::Connect(ClientFor(server.port()));
          if (!client.ok()) return;
          QueryGen gen(100 + c, num_nodes, num_topics);
          for (uint32_t i = 0; i < per_conn; ++i) {
            if (client->RecommendEx(gen.Next()).ok()) ++done[c];
          }
        });
      }
      for (auto& w : workers) w.join();
      uint64_t total = 0;
      for (uint64_t d : done) total += d;
      capacity_qps = static_cast<double>(total) / timer.ElapsedSeconds();
    }
    server.RequestStop();
    server.Wait();
  }
  if (capacity_qps <= 0) {
    std::fprintf(stderr, "calibration produced zero capacity\n");
    return 1;
  }
  std::printf("calibrated: %.0f q/s closed-loop capacity, p99 target %.0f us\n",
              capacity_qps, p99_target_us);

  // Build the ladder engine with the latency signal armed at the
  // calibrated target. Warm, publish once so a dead generation exists
  // (the stale rung's inventory), then warm again so the fresh-epoch
  // cache is as hot as every other config's at the start of the ramp.
  ladder_cfg.degrade.pressure.p99_target_us =
      static_cast<uint64_t>(p99_target_us);
  service::QueryEngine ladder_armed(ds.graph, auth, sim, ladder_cfg);
  WarmEngine(&ladder_armed, warm_n, num_nodes, num_topics);
  ladder_armed.Publish({});
  WarmEngine(&ladder_armed, warm_n, num_nodes, num_topics);

  // The shared ramp: identical offered levels for every config.
  std::vector<double> levels;
  for (double f = 0.4; f <= 3.01 && levels.size() < (smoke ? 2u : 8u);
       f *= 1.4) {
    levels.push_back(capacity_qps * f);
  }
  const double window_s = smoke ? 0.15 : 0.5;

  struct Config {
    const char* name;
    service::QueryEngine* engine;
    uint32_t max_inflight;
  };
  const Config configs[] = {
      {"off", &off_engine, 100000},
      {"shed", &shed_engine, kMaxInflight},
      {"ladder", &ladder_armed, kMaxInflight},
  };

  uint32_t probes_checked = 0;
  std::vector<ConfigResult> results;
  for (const Config& conf : configs) {
    net::ServerConfig scfg;
    scfg.max_inflight = conf.max_inflight;
    scfg.dispatch_threads = kDispatchThreads;
    scfg.request_deadline_ms = 0;
    net::Server server(*conf.engine, scfg);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "%s server failed to start\n", conf.name);
      return 1;
    }

    if (conf.engine == &ladder_armed) {
      // Tier honesty: unpressured, the ladder serves exact — and "exact"
      // must mean bit-for-bit what the plain engine computes.
      auto client = net::Client::Connect(ClientFor(server.port()));
      if (!client.ok()) return 1;
      QueryGen gen(7, num_nodes, num_topics);
      const uint32_t n = smoke ? 10 : 40;
      std::vector<net::RecommendRequest> reqs;
      std::vector<service::Query> refs;
      for (uint32_t i = 0; i < n; ++i) {
        const net::RecommendRequest q = gen.Next();
        reqs.push_back(q);
        refs.push_back(
            {q.user, static_cast<topics::TopicId>(q.topic), q.top_n});
      }
      auto expected = calib_engine.RecommendMany(refs);
      for (uint32_t i = 0; i < n; ++i) {
        auto got = client->RecommendEx(reqs[i]);
        if (!got.ok() || !expected[i].ok()) {
          std::fprintf(stderr, "probe %u failed outright\n", i);
          return 1;
        }
        if (got->served_tier != 0) continue;  // only exact claims checked
        const auto& want = expected[i].value().ranking.entries;
        if (got->entries.size() != want.size()) {
          std::fprintf(stderr, "probe %u: exact-tier size mismatch\n", i);
          return 1;
        }
        for (size_t k = 0; k < want.size(); ++k) {
          if (got->entries[k].id != want[k].id ||
              got->entries[k].score != want[k].score) {
            std::fprintf(stderr,
                         "probe %u entry %zu: exact-tier reply is not "
                         "byte-identical to the exact engine\n",
                         i, k);
            return 1;
          }
        }
        ++probes_checked;
      }
      if (probes_checked == 0) {
        std::fprintf(stderr,
                     "no unpressured probe served the exact tier — the "
                     "byte-identity check never ran\n");
        return 1;
      }
    }

    ConfigResult cr;
    cr.name = conf.name;
    uint32_t consecutive_fails = 0;
    for (size_t li = 0; li < levels.size(); ++li) {
      LevelResult lr = DriveLevel(server.port(), num_nodes, num_topics,
                                  levels[li], window_s,
                                  /*level_seed=*/li + 1);
      lr.pass = PassesSlo(lr, p99_target_us);
      if (lr.pass) {
        cr.max_sustainable = std::max(cr.max_sustainable, lr.offered);
        consecutive_fails = 0;
      } else if (++consecutive_fails >= 2) {
        cr.levels.push_back(lr);
        break;
      }
      cr.levels.push_back(lr);
    }
    results.push_back(std::move(cr));
    server.RequestStop();
    server.Wait();
  }

  std::printf("\n%8s %10s %10s %9s %9s %7s %7s %7s %7s %5s\n", "config",
              "offered", "goodput", "p50(us)", "p99(us)", "shed", "exact",
              "approx", "stale", "SLO");
  for (const ConfigResult& cr : results) {
    for (const LevelResult& lr : cr.levels) {
      std::printf("%8s %10.0f %10.0f %9.0f %9.0f %7llu %7llu %7llu %7llu "
                  "%5s\n",
                  cr.name.c_str(), lr.offered, lr.goodput, lr.p50_us,
                  lr.p99_us, static_cast<unsigned long long>(lr.shed),
                  static_cast<unsigned long long>(lr.tiers[0]),
                  static_cast<unsigned long long>(lr.tiers[1]),
                  static_cast<unsigned long long>(lr.tiers[2]),
                  lr.pass ? "pass" : "FAIL");
    }
  }
  std::printf("\nmax sustainable at p99 <= %.0f us:\n", p99_target_us);
  double shed_max = 0, ladder_max = 0;
  for (const ConfigResult& cr : results) {
    std::printf("  %-6s %10.0f q/s\n", cr.name.c_str(), cr.max_sustainable);
    if (cr.name == "shed") shed_max = cr.max_sustainable;
    if (cr.name == "ladder") ladder_max = cr.max_sustainable;
  }
  std::printf("byte-identical exact-tier probes: %u\n", probes_checked);
  if (!smoke && ladder_max <= shed_max) {
    std::printf("WARNING: ladder did not beat shed-only on this run "
                "(noise-prone box?)\n");
  }

  FILE* f = std::fopen("BENCH_slo.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_slo.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ext_slo_ladder\",\n");
  std::fprintf(f, "  \"num_nodes\": %u,\n  \"conns\": %u,\n", num_nodes,
               kConns);
  std::fprintf(f, "  \"dispatch_threads\": %u,\n  \"max_inflight\": %u,\n",
               kDispatchThreads, kMaxInflight);
  std::fprintf(f, "  \"p99_target_us\": %.1f,\n", p99_target_us);
  std::fprintf(f, "  \"calibrated_capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(f, "  \"byte_identical_exact_probes\": %u,\n", probes_checked);
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t ci = 0; ci < results.size(); ++ci) {
    const ConfigResult& cr = results[ci];
    std::fprintf(f, "    {\"name\": \"%s\", \"max_sustainable_qps\": %.1f, "
                 "\"levels\": [\n",
                 cr.name.c_str(), cr.max_sustainable);
    for (size_t li = 0; li < cr.levels.size(); ++li) {
      const LevelResult& lr = cr.levels[li];
      std::fprintf(
          f,
          "      {\"offered_qps\": %.1f, \"goodput_qps\": %.1f, "
          "\"p50_us\": %.1f, \"p99_us\": %.1f, \"sent\": %llu, "
          "\"ok\": %llu, \"shed\": %llu, \"errors\": %llu, "
          "\"tier_exact\": %llu, \"tier_approx\": %llu, "
          "\"tier_stale\": %llu, \"slo_pass\": %s}%s\n",
          lr.offered, lr.goodput, lr.p50_us, lr.p99_us,
          static_cast<unsigned long long>(lr.sent),
          static_cast<unsigned long long>(lr.ok),
          static_cast<unsigned long long>(lr.shed),
          static_cast<unsigned long long>(lr.errors),
          static_cast<unsigned long long>(lr.tiers[0]),
          static_cast<unsigned long long>(lr.tiers[1]),
          static_cast<unsigned long long>(lr.tiers[2]),
          lr.pass ? "true" : "false",
          li + 1 < cr.levels.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", ci + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ladder_vs_shed_gain\": %.3f\n}\n",
               shed_max > 0 ? ladder_max / shed_max : 0.0);
  std::fclose(f);
  std::printf("wrote BENCH_slo.json\n");
  return 0;
}
