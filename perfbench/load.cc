#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "net/client.h"
#include "stacks.h"

namespace mbr::perfbench {

namespace {

using Clock = Tracer::Clock;

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

constexpr auto kReconnectPause = std::chrono::milliseconds(5);

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Peak resident memory of the process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

FailKind Classify(const util::Status& st) {
  if (st.code() == util::StatusCode::kDeadlineExceeded) {
    return FailKind::kTimeout;
  }
  // The client maps an OVERLOADED frame to kUnavailable with this message;
  // other kUnavailable statuses are lost connections.
  if (st.code() == util::StatusCode::kUnavailable &&
      st.message().find("overloaded") != std::string::npos) {
    return FailKind::kOverloaded;
  }
  return FailKind::kError;
}

struct Shared {
  std::atomic<int> phase{kWarmup};
  // Set before phase turns kMeasure (release) and read after (acquire).
  Clock::time_point window_start{};
};

size_t NumSlices(const LoadConfig& cfg) {
  return static_cast<size_t>(cfg.window_s / kSliceS);
}

struct ReaderOut {
  LatencySamples samples;
  std::vector<LatencySamples> slices;
  WindowCounts counts;
  uint64_t epoch_regressions = 0;
  Tracer trace;
};

void ReaderLoop(const LoadConfig& cfg, uint32_t conn, Shared* shared,
                ReaderOut* out) {
  const std::vector<ReadOp>& stream = (*cfg.reads)[conn];
  const auto slice_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSliceS));
  out->slices.resize(NumSlices(cfg));
  size_t next = 0;
  uint64_t seq = 0;
  uint64_t last_epoch = 0;
  std::optional<net::Client> client;
  while (true) {
    const int phase = shared->phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    const bool in_window = phase == kMeasure;
    if (!client.has_value()) {
      auto c = net::Client::Connect(BenchClientConfig(cfg.port));
      if (!c.ok()) {
        if (in_window) {
          ++out->counts.read_attempts;
          ++out->counts.read_failures;
          out->samples.AddFailure(FailKind::kConnect);
        }
        std::this_thread::sleep_for(kReconnectPause);
        continue;
      }
      client.emplace(std::move(*c));
      last_epoch = 0;  // the epoch check is per connection
    }
    const ReadOp& op = stream[next++ % stream.size()];
    net::RecommendRequest req;
    req.user = op.user;
    req.topic = op.topic;
    req.top_n = kTopN;
    const Clock::time_point t0 = Clock::now();
    auto reply = client->RecommendEx(req);
    const Clock::time_point t1 = Clock::now();
    if (!in_window) {
      if (!reply.ok()) client.reset();
      continue;
    }
    ++out->counts.read_attempts;
    // The slice of this read, or none past the last whole slice.
    const auto k = static_cast<size_t>((t0 - shared->window_start) / slice_len);
    LatencySamples* slice = k < out->slices.size() ? &out->slices[k] : nullptr;
    if (cfg.traced) {
      out->trace.Record("e2e.read", 0, (uint64_t{conn} << 40) | seq, t0, t1);
    }
    ++seq;
    if (!reply.ok()) {
      ++out->counts.read_failures;
      const FailKind kind = Classify(reply.status());
      out->samples.AddFailure(kind);
      if (slice != nullptr) slice->AddFailure(kind);
      client.reset();  // the stream may hold a late reply; start clean
      continue;
    }
    const double us = Micros(t1 - t0);
    out->samples.AddOk(us);
    ++out->counts.replies;
    if (slice != nullptr) slice->AddOk(us);
    if (reply->coord.partial != 0 || reply->served_tier > cfg.base_tier) {
      ++out->counts.degraded_replies;
    }
    if (reply->graph_epoch < last_epoch) ++out->epoch_regressions;
    last_epoch = reply->graph_epoch;
  }
}

struct WriterOut {
  LatencySamples acks;
  std::vector<AckRecord> records;
  uint64_t attempts = 0;
  uint64_t failures = 0;
  double late_ms = 0.0;
};

void WriterLoop(const LoadConfig& cfg, Shared* shared, WriterOut* out) {
  while (shared->phase.load(std::memory_order_acquire) == kWarmup) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Clock::time_point start = shared->window_start;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.write_period_s));
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.window_s));
  std::optional<net::Client> client;
  for (size_t k = 0; k < cfg.writes->size(); ++k) {
    const Clock::time_point due = start + period * static_cast<int64_t>(k);
    if (due >= start + window) break;
    std::this_thread::sleep_until(due);
    if (shared->phase.load(std::memory_order_acquire) == kStop) break;
    const Clock::time_point sent = Clock::now();
    out->late_ms = std::max(
        out->late_ms,
        std::chrono::duration<double, std::milli>(sent - due).count());
    ++out->attempts;
    if (!client.has_value()) {
      auto c = net::Client::Connect(BenchClientConfig(cfg.port));
      if (!c.ok()) {
        ++out->failures;
        out->acks.AddFailure(FailKind::kConnect);
        continue;
      }
      client.emplace(std::move(*c));
    }
    const WriteBatch& batch = (*cfg.writes)[k];
    std::vector<net::MutationRecord> records;
    records.reserve(batch.records.size());
    for (const WriteBatch::Record& r : batch.records) {
      records.push_back({r.src, r.dst, r.labels});
    }
    auto ack = client->Mutate(
        batch.follow ? net::MessageKind::kFollow : net::MessageKind::kUnfollow,
        records);
    const Clock::time_point done = Clock::now();
    if (!ack.ok()) {
      ++out->failures;
      out->acks.AddFailure(Classify(ack.status()));
      client.reset();
      continue;
    }
    out->acks.AddOk(Micros(done - due));
    out->records.push_back({static_cast<uint32_t>(records.size()), ack->applied,
                            ack->rejected, ack->graph_epoch});
  }
}

}  // namespace

LoadResult RunLoad(const LoadConfig& config) {
  Shared shared;
  std::vector<ReaderOut> readers(kReaderConnections);
  WriterOut writer;
  const bool has_writer = config.writes != nullptr && !config.writes->empty();
  for (ReaderOut& r : readers) r.trace = Tracer(config.trace_origin);

  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kReaderConnections; ++c) {
    threads.emplace_back(ReaderLoop, std::cref(config), c, &shared,
                         &readers[c]);
  }
  if (has_writer) {
    threads.emplace_back(WriterLoop, std::cref(config), &shared, &writer);
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(config.warmup_s));
  const double rss_mb = PeakRssMb();
  shared.window_start = Clock::now();
  shared.phase.store(kMeasure, std::memory_order_release);
  const Clock::time_point end =
      shared.window_start +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(config.window_s));
  std::this_thread::sleep_until(end);
  shared.phase.store(kStop, std::memory_order_release);
  const Clock::time_point stopped = Clock::now();
  for (std::thread& t : threads) t.join();

  LoadResult out;
  out.window_s =
      std::chrono::duration<double>(stopped - shared.window_start).count();
  out.rss_mb = rss_mb;
  out.trace = Tracer(config.trace_origin);
  out.slices.resize(NumSlices(config));
  for (ReaderOut& r : readers) {
    out.reads.Append(r.samples);
    for (size_t k = 0; k < out.slices.size(); ++k) {
      out.slices[k].Append(r.slices[k]);
    }
    out.counts.read_attempts += r.counts.read_attempts;
    out.counts.read_failures += r.counts.read_failures;
    out.counts.replies += r.counts.replies;
    out.counts.degraded_replies += r.counts.degraded_replies;
    out.epoch_regressions += r.epoch_regressions;
    out.trace.Merge(r.trace);
  }
  out.counts.write_attempts = writer.attempts;
  out.counts.write_failures = writer.failures;
  out.acks = std::move(writer.acks);
  out.ack_records = std::move(writer.records);
  out.writer_late_ms = writer.late_ms;
  return out;
}

double LoadResult::SliceQps() const {
  std::vector<double> rates;
  rates.reserve(slices.size());
  for (const LatencySamples& s : slices) {
    rates.push_back(static_cast<double>(s.size() - s.failures()) / kSliceS);
  }
  return Median(std::move(rates));
}

}  // namespace mbr::perfbench
