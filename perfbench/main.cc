// The serving benchmark: one workload against in-process servers on
// loopback, its outputs checked, every metric printed by name with its
// unit.
//
//   mbr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>] [--git-sha <sha>]
//                 [--source-digest <hex>]
//
// --trace 0 measures the end-to-end metrics with no benchmark spans.
// --trace 1 is the separate traced run: an untraced window, the same
// window with a span per read (their difference is the tracing overhead),
// then the per-layer pass of layers.h; it prints the per-layer metrics and
// writes every span to --trace-out at exit.
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// human-readable report headed by the run envelope.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "layers.h"
#include "load.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/span.h"
#include "stacks.h"
#include "stats.h"
#include "topics/similarity_matrix.h"
#include "util/timer.h"

namespace mbr::perfbench {
namespace {

// Set-ups per run, the first kSetupRepsBefore of them before the window
// (the last of those serves the run) and the rest after it, so that
// setup_s, their median, samples the host across the whole run.
constexpr int kSetupReps = 7;
constexpr int kSetupRepsBefore = 2;
// Reads pre-generated per connection; a stream that runs out wraps.
constexpr size_t kStreamLen = size_t{1} << 18;
// Warm-up before a window: the result cache fills and lazy state settles.
constexpr double kWarmupS = 1.0;
// The read_write writer: one batch of kBatchLen records per period.
constexpr double kWritePeriodS = 1.0;
constexpr size_t kBatchLen = 16;
constexpr size_t kWriteBatches = 512;
// Share of --seconds each traced-run window takes.
constexpr double kTracedWindowShare = 0.4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->seconds <= 60 && a->trace >= 0;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Server-side counters of a stack, read before and after a window.

// The program's own stage histograms (mbr_stage_latency_us{stage}), read
// as-is: log2 bucket floors, a cross-check on the benchmark's spans.
struct StageMetric {
  const char* stage;
  const char* metric;
};
constexpr StageMetric kStages[] = {
    {"scorer.explore", "stage.scorer_explore_us"},
    {"landmark.bfs", "stage.landmark_bfs_us"},
    {"landmark.combine", "stage.landmark_combine_us"},
    {"engine.execute", "stage.engine_execute_us"},
};
constexpr size_t kNumStages = std::size(kStages);

struct Counters {
  StackCounters server;
  std::array<obs::Histogram::Snapshot, kNumStages> stages{};
};

uint64_t CounterValue(obs::Registry& reg, const char* name) {
  return reg.GetCounter(name, "")->Value();
}

void AddServerSide(service::QueryEngine& engine, net::Server& server,
                   StackCounters* c) {
  const service::EngineStats es = engine.Stats();
  c->cache_hits += es.cache_hits;
  c->cache_misses += es.cache_misses;
  const net::ServerCounters sc = server.counters();
  c->net_admitted += sc.requests;
  c->net_shed_overload += sc.shed_overload;
  c->net_shed_deadline += sc.shed_deadline;
  obs::Registry& reg = engine.registry();
  c->net_bytes += CounterValue(reg, "mbr_net_bytes_read_total") +
                  CounterValue(reg, "mbr_net_bytes_written_total");
  c->stale_reads += CounterValue(reg, "mbr_repair_stale_reads_total");
}

Counters ReadCounters(Stack& st) {
  Counters c;
  if (st.router() != nullptr) {
    for (size_t s = 0; s < st.num_shards(); ++s) {
      AddServerSide(*st.shard(s).engine, st.shard_server(s), &c.server);
    }
    obs::Registry& reg = st.router()->registry();
    c.server.coord_requests = CounterValue(reg, "mbr_coord_requests_total");
    c.server.coord_fanout = CounterValue(reg, "mbr_coord_fanout_total");
    c.server.coord_fetches =
        CounterValue(reg, "mbr_coord_landmark_fetches_total");
    c.server.coord_partial = CounterValue(reg, "mbr_coord_partial_total");
  } else {
    AddServerSide(*st.engine(), *st.server(), &c.server);
  }
  for (size_t i = 0; i < kNumStages; ++i) {
    c.stages[i] = obs::StageHistogram(kStages[i].stage)->TakeSnapshot();
  }
  return c;
}

// p50 floor (µs) of the stage samples recorded between two snapshots.
double StageP50(const obs::Histogram::Snapshot& before,
                const obs::Histogram::Snapshot& after) {
  obs::Histogram::Snapshot d;
  for (size_t b = 0; b < d.buckets.size(); ++b) {
    d.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  return d.PercentileLowerBound(0.5);
}

// ---------------------------------------------------------------------------
// Correctness gates. Each returns the number of mismatches it found.

// A fixed sample of loopback replies must equal, byte for byte, the replies
// of an in-process single-node engine over the same graph and index (for
// routed_zipf: the router's merge against the single-node landmark engine).
uint64_t GateReplies(const Dataset& d, uint16_t port,
                     const std::vector<ReadOp>& sample, std::string* detail) {
  service::QueryEngine reference(d.graph(), *d.authority,
                                 topics::TwitterSimilarity(),
                                 BenchEngineConfig(d.index.get()));
  auto client = net::Client::Connect(BenchClientConfig(port));
  if (!client.ok()) {
    *detail = "gate: cannot connect: " + client.status().ToString();
    return sample.size();
  }
  uint64_t mismatches = 0;
  for (const ReadOp& op : sample) {
    net::RecommendRequest req;
    req.user = op.user;
    req.topic = op.topic;
    req.top_n = kTopN;
    auto wire = client->RecommendEx(req);
    auto local = reference.Recommend(core::Query::TopN(
        op.user, static_cast<topics::TopicId>(op.topic), kTopN));
    // The version-1 RESULT encoding: the ranked list alone.
    if (!wire.ok() || !local.ok() ||
        net::EncodeResult(wire->entries, 0, 1) !=
            net::EncodeResult(local->ranking.entries, 0, 1)) {
      if (mismatches == 0) {
        *detail = "gate: first mismatch at user " + std::to_string(op.user) +
                  " topic " + std::to_string(op.topic);
      }
      ++mismatches;
    }
  }
  return mismatches;
}

// read_write: every ack accounts for every record sent, acked epochs rise,
// reply epochs never go backwards on a connection, and over the window the
// graph epoch rose exactly once per applied batch plus once per landmark
// repair (QueryEngine::RunExclusive bumps it too).
struct EpochMark {
  uint64_t epoch = 0;
  uint64_t batches = 0;
  uint64_t repairs = 0;
};

EpochMark MarkEpochs(Stack& st) {
  // Quiesce first so no repair lands between the three reads.
  st.repairer()->Quiesce();
  return {st.engine()->params_epoch(), st.applier()->batches_applied(),
          st.repairer()->repairs_done()};
}

uint64_t GateWrites(const LoadResult& r, const EpochMark& before,
                    const EpochMark& after, std::string* detail) {
  uint64_t mismatches = r.epoch_regressions;
  uint64_t applied_batches = 0;
  uint64_t last_epoch = before.epoch;
  for (const AckRecord& a : r.ack_records) {
    if (a.applied + a.rejected != a.records) ++mismatches;
    if (a.applied > 0) {
      ++applied_batches;
      if (a.graph_epoch <= last_epoch) ++mismatches;
      last_epoch = a.graph_epoch;
    }
  }
  const uint64_t batches = after.batches - before.batches;
  const uint64_t repairs = after.repairs - before.repairs;
  if (applied_batches != batches) ++mismatches;
  if (after.epoch - before.epoch != batches + repairs) ++mismatches;
  if (mismatches != 0 && detail->empty()) {
    *detail = "gate: write accounting: " + std::to_string(applied_batches) +
              " applied acks, " + std::to_string(batches) + " batches, " +
              std::to_string(repairs) + " repairs, epoch +" +
              std::to_string(after.epoch - before.epoch) + ", " +
              std::to_string(r.epoch_regressions) + " epoch regressions";
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Window {
  LoadResult load;
  Counters before;
  Counters after;
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<double> setup_s, generate_s, authority_s, index_s;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Stack> stack;
  auto set_up = [&]() {
    stack.reset();
    dataset.reset();
    util::WallTimer timer;
    dataset = BuildDataset(spec->landmarks);
    auto st = Stack::Start(*spec, *dataset);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   st.status().ToString().c_str());
      return false;
    }
    stack = std::move(*st);
    setup_s.push_back(timer.ElapsedSeconds());
    generate_s.push_back(dataset->generate_s);
    authority_s.push_back(dataset->authority_s);
    index_s.push_back(dataset->index_s);
    return true;
  };
  // The set-ups after the window.
  auto set_up_rest = [&]() {
    for (int rep = kSetupRepsBefore; rep < kSetupReps; ++rep) {
      if (!set_up()) return false;
    }
    stack.reset();
    dataset.reset();
    std::printf("# setup_s reps:");
    for (double v : setup_s) std::printf(" %.3f", v);
    std::printf("\n");
    return true;
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    if (!set_up()) return 1;
  }
  const graph::LabeledGraph& g = dataset->graph();

  // Every input, generated before the first timed request.
  const auto num_topics = static_cast<uint32_t>(g.num_topics());
  std::vector<std::vector<ReadOp>> reads;
  for (uint32_t c = 0; c < kReaderConnections; ++c) {
    reads.push_back(MakeReads(spec->mix, g.num_nodes(), num_topics,
                              kStreamLen, args.seed, c));
  }
  // The fixed sample of the gates and the per-layer pass: a stream of its
  // own. Exact reads cost milliseconds each, so that sample is smaller.
  const bool exact = !spec->landmarks;
  const size_t layer_warmup = spec->routed || exact ? 0 : 20000;
  const size_t layer_reads = exact ? 144 : 2000;
  const size_t gate_reads = exact ? 32 : 500;
  const std::vector<ReadOp> sample =
      MakeReads(spec->mix, g.num_nodes(), num_topics,
                layer_warmup + layer_reads, args.seed, kReaderConnections);
  // The batch trace feeds the writer (read_write) and the per-layer
  // mutation pass of every single-node landmark workload.
  std::vector<WriteBatch> writes;
  if (spec->landmarks && !spec->routed) {
    writes = MakeWriteBatches(g, kWriteBatches, kBatchLen, args.seed);
  }
  uint64_t read_digest = 0;
  for (const auto& s : reads) read_digest ^= TraceDigest(s);

  const std::string envelope =
      std::string("{\"bench\": \"perfbench\", \"workload\": \"") + spec->name +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"run_seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + std::to_string(args.trace) +
      ", \"git_sha\": \"" + args.git_sha + "\", \"source_digest\": \"" +
      args.source_digest + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
      "\", \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"nodes\": " + std::to_string(g.num_nodes()) +
      ", \"edges\": " + std::to_string(g.num_edges()) +
      ", \"topics\": " + std::to_string(num_topics) +
      ", \"read_trace_digest\": \"" + Hex(read_digest) +
      "\", \"write_trace_digest\": \"" + Hex(TraceDigest(writes)) + "\"}";
  std::printf("{\"envelope\": %s}\n", envelope.c_str());

  const uint8_t base_tier =
      static_cast<uint8_t>(spec->landmarks ? core::Tier::kApprox
                                           : core::Tier::kExact);
  const Tracer::Clock::time_point trace_origin = Tracer::Clock::now();
  std::string detail;
  uint64_t mismatches = 0;
  size_t writes_used = 0;
  auto run_window = [&](double window_s, bool traced) {
    Window w;
    std::vector<WriteBatch> batch_slice;
    if (spec->writes) {
      batch_slice.assign(writes.begin() + static_cast<long>(writes_used),
                         writes.end());
    }
    LoadConfig lc;
    lc.port = stack->port();
    lc.reads = &reads;
    lc.writes = spec->writes ? &batch_slice : nullptr;
    lc.write_period_s = kWritePeriodS;
    lc.warmup_s = kWarmupS;
    lc.window_s = window_s;
    lc.base_tier = base_tier;
    lc.traced = traced;
    lc.trace_origin = trace_origin;
    EpochMark mark_before;
    if (spec->writes) mark_before = MarkEpochs(*stack);
    w.before = ReadCounters(*stack);
    w.load = RunLoad(lc);
    w.after = ReadCounters(*stack);
    if (spec->writes) {
      writes_used += w.load.counts.write_attempts;
      mismatches +=
          GateWrites(w.load, mark_before, MarkEpochs(*stack), &detail);
    } else {
      mismatches += w.load.epoch_regressions;
    }
    return w;
  };

  std::vector<Window> windows;
  if (args.trace == 0) {
    windows.push_back(run_window(args.seconds, false));
  } else {
    windows.push_back(run_window(args.seconds * kTracedWindowShare, false));
    windows.push_back(run_window(args.seconds * kTracedWindowShare, true));
  }
  if (!spec->writes) {
    const std::vector<ReadOp> gate_sample(
        sample.begin() + static_cast<long>(layer_warmup),
        sample.begin() + static_cast<long>(layer_warmup + gate_reads));
    mismatches += GateReplies(*dataset, stack->port(), gate_sample, &detail);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Window& w : windows) {
    attempted += w.load.counts.read_attempts + w.load.counts.write_attempts;
    failed += w.load.counts.read_failures + w.load.counts.write_failures;
  }

  // The human-readable report.
  const Window& w0 = windows.front();
  const LoadResult& r0 = w0.load;
  const Percentile w50 = r0.reads.At(0.5);
  const Percentile w99 = r0.reads.At(0.99);
  const SliceMedian p50 = r0.SliceLatency(0.5);
  const SliceMedian p99 = r0.SliceLatency(0.99);
  std::printf("# %s seed %llu: median over %zu slices of %.1f s: %.0f reads/s, "
              "p50 %.1f us, p99 %.1f us\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              r0.slices.size(), kSliceS, r0.SliceQps(), p50.value,
              p99.value);
  std::printf("# whole window: %.0f reads/s over %.2f s, p50 %.1f us, p99 "
              "%.1f us (%zu samples, %zu beyond p99)\n",
              r0.qps(), r0.window_s, w50.value_us, w99.value_us, w99.samples,
              w99.beyond);
  std::printf("# failed_ratio %s; degraded_ratio %s\n",
              FailedRatio(r0.counts).ToString().c_str(),
              DegradedRatio(r0.counts).ToString().c_str());
  for (size_t k = 0; k < kNumFailKinds; ++k) {
    const auto kind = static_cast<FailKind>(k);
    const uint64_t n = r0.reads.failures(kind) + r0.acks.failures(kind);
    if (n > 0) std::printf("#   failed (%s): %llu\n", FailKindName(kind),
                           static_cast<unsigned long long>(n));
  }
  const Percentile ack50 = r0.acks.At(0.5);
  if (spec->writes) {
    std::printf("# writer: %llu batches, ack p50 %.0f us (%zu acks, %zu "
                "beyond%s), writer.late_ms %.2f (max lateness)\n",
                static_cast<unsigned long long>(r0.counts.write_attempts),
                ack50.value_us, ack50.samples, ack50.beyond,
                ack50.reportable ? "" : ", not reportable", r0.writer_late_ms);
    std::printf("# repair.stale_reads_ratio %s (reads scored while a list was "
                "stale / scored reads)\n",
                StaleReadsRatio(Delta(w0.after.server, w0.before.server))
                    .ToString()
                    .c_str());
  }
  std::printf("# gates: %llu mismatches%s%s\n",
              static_cast<unsigned long long>(mismatches),
              detail.empty() ? "" : "; ", detail.c_str());

  bool correct = mismatches == 0;
  std::vector<Metric> metrics;
  auto require = [&](const char* name, const SliceMedian& p) {
    if (!p.reportable) {
      std::printf("# FLAG: %s not reportable (%zu of %zu slices have fewer "
                  "than %zu samples beyond it)\n",
                  name, p.unsupported, p.slices, kMinSamplesBeyond);
      correct = false;
    }
  };

  // p99 follows the host's scheduling noise too closely to hold a bound, so
  // it is a per-layer metric (read.p99_us) of the traced run.
  if (args.trace == 0) {
    require("p50_us", p50);
    if (!set_up_rest()) return 1;
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"qps", r0.SliceQps(), "1/s"});
    if (p50.reportable) metrics.push_back({"p50_us", p50.value, "us"});
    metrics.push_back({"rss_mb", r0.rss_mb, "MB"});
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Traced run: the per-layer pass, then every per-layer metric.
  LayerResult layers = MeasureLayers(*spec, *dataset, *stack, sample,
                                     layer_warmup, writes, trace_origin);
  for (const std::string& n : layers.notes) std::printf("# %s\n", n.c_str());
  if (!set_up_rest()) return 1;
  const LoadResult& r1 = windows[1].load;
  const StackCounters d = Delta(w0.after.server, w0.before.server);
  auto layer = [&](const char* name) {
    auto it = layers.metrics.find(name);
    return it == layers.metrics.end() ? 0.0 : it->second;
  };
  auto overhead = [](double traced, double untraced) {
    return untraced == 0 ? 0.0 : (traced - untraced) / untraced;
  };
  const SliceMedian t50 = r1.SliceLatency(0.5);
  const SliceMedian t99 = r1.SliceLatency(0.99);
  std::printf("# traced window: %.0f reads/s, p50 %.1f us, p99 %.1f us; layer "
              "self-time p50s sum to %.1f us\n",
              r1.SliceQps(), t50.value, t99.value, layers.read_self_sum_us);

  require("read.p99_us", p99);
  metrics = {
      {"datagen.generate_s", Median(generate_s), "s"},
      {"core.authority_build_s", Median(authority_s), "s"},
      {"landmark.index_build_s", Median(index_s), "s"},
      {"core.explore_us", layer("core.explore_us"), "us"},
      {"core.frontier_nodes", layer("core.frontier_nodes"), "count"},
      {"landmark.recommend_us", layer("landmark.recommend_us"), "us"},
      {"service.engine_us", layer("service.engine_us"), "us"},
      {"service.cache_hit_ratio", CacheHitRatio(d).value(), "ratio"},
      {"net.overhead_us", layer("net.overhead_us"), "us"},
      {"net.codec_ns", layer("net.codec_ns"), "ns"},
      {"net.bytes_per_request", BytesPerRequest(d).value(), "B"},
      {"net.shed_ratio", ShedRatio(d).value(), "ratio"},
      {"coord.shard_rpc_us", layer("coord.shard_rpc_us"), "us"},
      {"coord.self_us", layer("coord.self_us"), "us"},
      {"coord.fanout_per_request", FanoutPerRequest(d).value(), "count"},
      {"coord.fetches_per_request", FetchesPerRequest(d).value(), "count"},
      {"coord.partial_ratio", PartialRatio(d).value(), "ratio"},
      {"mutation.apply_p50_us", layer("mutation.apply_p50_us"), "us"},
      {"mutation.applied_ratio", layer("mutation.applied_ratio"), "ratio"},
      {"repair.stale_slots", layer("repair.stale_slots"), "count"},
      {"repair.repaired_per_batch", layer("repair.repaired_per_batch"),
       "count"},
      {"repair.drain_ms", layer("repair.drain_ms"), "ms"},
      {"failed_ratio", FailedRatio(r0.counts).value(), "ratio"},
      {"degraded_ratio", DegradedRatio(r0.counts).value(), "ratio"},
      {"attrib.unexplained_us", p50.value - layers.read_self_sum_us, "us"},
      {"trace.overhead_ratio.qps", overhead(r1.SliceQps(), r0.SliceQps()),
       "ratio"},
      {"trace.overhead_ratio.p50_us", overhead(t50.value, p50.value),
       "ratio"},
      {"trace.overhead_ratio.p99_us", overhead(t99.value, p99.value),
       "ratio"},
  };
  if (p99.reportable) metrics.push_back({"read.p99_us", p99.value, "us"});
  for (size_t i = 0; i < kNumStages; ++i) {
    metrics.push_back({kStages[i].metric,
                       StageP50(w0.before.stages[i], w0.after.stages[i]),
                       "us"});
  }

  if (!args.trace_out.empty()) {
    Tracer all(trace_origin);
    all.Merge(r1.trace);
    all.Merge(layers.trace);
    if (!all.WriteJson(args.trace_out, envelope)) {
      std::printf("# cannot write spans to %s\n", args.trace_out.c_str());
      correct = false;
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace mbr::perfbench

int main(int argc, char** argv) {
  mbr::perfbench::Args args;
  if (!mbr::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] [--git-sha <sha>] "
                 "[--source-digest <hex>]\n",
                 argv[0]);
    return 2;
  }
  return mbr::perfbench::Run(args);
}
