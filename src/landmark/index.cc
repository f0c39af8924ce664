#include "landmark/index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/serde.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace mbr::landmark {

namespace {

// Runs Algorithm 1 from `lm` and writes the per-topic top-n lists into
// lists[0..num_topics), each ranked by σ descending.
void ComputeLandmarkLists(core::Scorer* scorer, graph::NodeId lm,
                          int num_topics, uint32_t top_n,
                          topics::TopicSet all_topics,
                          std::vector<StoredRec>* lists) {
  const core::ExplorationResult& res = scorer->Explore(lm, all_topics);
  for (int t = 0; t < num_topics; ++t) {
    util::TopK topk(top_n);
    for (graph::NodeId v : res.reached()) {
      if (v == lm) continue;
      double s = res.Sigma(v, static_cast<topics::TopicId>(t));
      if (s > 0.0) topk.Offer(v, s);
    }
    auto ranked = topk.Take();
    auto& out = lists[t];
    out.clear();
    out.reserve(ranked.size());
    for (const util::ScoredId& r : ranked) {
      out.push_back({r.id, r.score, res.TopoBeta(r.id)});
    }
  }
}

}  // namespace

LandmarkIndex::LandmarkIndex(const graph::LabeledGraph& g,
                             const core::AuthorityIndex& authority,
                             const topics::SimilarityMatrix& sim,
                             const std::vector<graph::NodeId>& landmarks,
                             const LandmarkIndexConfig& config)
    : config_(config),
      num_topics_(g.num_topics()),
      landmarks_(landmarks),
      landmark_slot_(g.num_nodes(), kNoSlot),
      mask_(g.num_nodes(), false) {
  MBR_CHECK(config.top_n > 0);
  for (uint32_t i = 0; i < landmarks_.size(); ++i) {
    graph::NodeId lm = landmarks_[i];
    MBR_CHECK(lm < g.num_nodes());
    MBR_CHECK(landmark_slot_[lm] == kNoSlot);  // distinct landmarks
    landmark_slot_[lm] = i;
    mask_[lm] = true;
  }

  topics::TopicSet all_topics;
  for (int t = 0; t < num_topics_; ++t) {
    all_topics.Add(static_cast<topics::TopicId>(t));
  }

  recs_.assign(landmarks_.size() * num_topics_, {});
  util::WallTimer timer;

  // One Scorer (with its scratch buffers) per worker; landmark slots are
  // disjoint, so workers never touch the same output entry.
  uint32_t threads = config.num_threads != 0
                         ? config.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<uint32_t>(
      threads, std::max<uint32_t>(1, static_cast<uint32_t>(landmarks_.size())));

  std::atomic<uint32_t> next{0};
  auto worker = [&]() {
    core::Scorer scorer(g, authority, sim, config_.params);
    for (;;) {
      uint32_t i = next.fetch_add(1);
      if (i >= landmarks_.size()) break;
      // Algorithm 1 run to convergence on the full topic vocabulary.
      ComputeLandmarkLists(&scorer, landmarks_[i], num_topics_,
                           config_.top_n, all_topics,
                           &recs_[static_cast<size_t>(i) * num_topics_]);
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t w = 0; w < threads; ++w) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  build_seconds_total_ = timer.ElapsedSeconds();
  build_seconds_per_landmark_ =
      landmarks_.empty()
          ? 0.0
          : build_seconds_total_ / static_cast<double>(landmarks_.size());
}

const std::vector<StoredRec>& LandmarkIndex::Recommendations(
    graph::NodeId lambda, topics::TopicId t) const {
  uint32_t slot = landmark_slot_[lambda];
  MBR_CHECK(slot != kNoSlot);
  MBR_CHECK(t < num_topics_);
  return recs_[static_cast<size_t>(slot) * num_topics_ + t];
}

LandmarkIndex::Lists LandmarkIndex::ComputeLists(
    graph::NodeId lm, const graph::LabeledGraph& g,
    const core::AuthorityIndex& authority,
    const topics::SimilarityMatrix& sim) const {
  MBR_CHECK(IsLandmark(lm));
  MBR_CHECK(g.num_topics() == num_topics_);
  core::Scorer scorer(g, authority, sim, config_.params);
  topics::TopicSet all_topics;
  for (int t = 0; t < num_topics_; ++t) {
    all_topics.Add(static_cast<topics::TopicId>(t));
  }
  Lists lists(num_topics_);
  ComputeLandmarkLists(&scorer, lm, num_topics_, config_.top_n, all_topics,
                       lists.data());
  return lists;
}

LandmarkIndex LandmarkIndex::WithLists(graph::NodeId lm, Lists lists) const {
  const uint32_t slot = landmark_slot_[lm];
  MBR_CHECK(slot != kNoSlot);
  MBR_CHECK(lists.size() == static_cast<size_t>(num_topics_));
  LandmarkIndex out = *this;
  std::move(lists.begin(), lists.end(),
            out.recs_.begin() + static_cast<ptrdiff_t>(slot) * num_topics_);
  return out;
}

LandmarkIndex LandmarkIndex::Truncated(uint32_t top_n) const {
  MBR_CHECK(top_n > 0);
  MBR_CHECK(top_n <= config_.top_n);
  LandmarkIndex out;
  out.config_ = config_;
  out.config_.top_n = top_n;
  out.num_topics_ = num_topics_;
  out.landmarks_ = landmarks_;
  out.landmark_slot_ = landmark_slot_;
  out.mask_ = mask_;
  out.build_seconds_per_landmark_ = build_seconds_per_landmark_;
  out.build_seconds_total_ = build_seconds_total_;
  out.recs_.reserve(recs_.size());
  for (const auto& list : recs_) {
    out.recs_.emplace_back(
        list.begin(),
        list.begin() + std::min<size_t>(list.size(), top_n));
  }
  return out;
}

size_t LandmarkIndex::StorageBytes() const {
  size_t bytes = 0;
  for (const auto& list : recs_) bytes += list.size() * sizeof(StoredRec);
  return bytes;
}

namespace {

// Magic of the unversioned pre-serde index format ("MBRLMIDX"), recognised
// only to report a clear compatibility error.
constexpr uint64_t kLegacyMagic = 0x4d42524c4d494458ULL;

// Format version 2: serde container (version 1 is the retired raw format,
// which persisted only β/α of the ScoreParams — an index built for an
// ablation variant silently reverted to kFull at query time).
constexpr uint32_t kIndexFormatVersion = 2;

// Section ids of format version 2.
enum : uint32_t {
  kSecHeader = 1,     // u32 num_topics, u64 num_landmarks, u32 top_n
  kSecParams = 2,     // full core::ScoreParams
  kSecLandmarks = 3,  // NodeId[num_landmarks]
  kSecLists = 4,      // columnar stored lists (lens, nodes, sigmas, topos)
};

// Plausibility cap on top_n: far above anything the paper evaluates
// (L1000), small enough that a forged header cannot demand huge per-list
// allocations.
constexpr uint32_t kMaxTopN = 1u << 24;

bool StartsWithLegacyMagic(std::span<const uint8_t> bytes) {
  uint64_t magic = 0;
  if (bytes.size() < sizeof(magic)) return false;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic == kLegacyMagic;
}

}  // namespace

util::Result<LandmarkIndex> LandmarkIndex::FromReader(
    util::serde::Reader reader, graph::NodeId num_nodes) {
  if (reader.version() != kIndexFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported landmark index version " +
        std::to_string(reader.version()) + " (expected " +
        std::to_string(kIndexFormatVersion) + "); rebuild the index");
  }
  LandmarkIndex idx;
  MBR_RETURN_IF_ERROR(reader.EnterSection(kSecHeader));
  uint32_t num_topics = 0;
  uint64_t num_landmarks = 0;
  uint32_t top_n = 0;
  MBR_RETURN_IF_ERROR(reader.ReadU32(&num_topics));
  MBR_RETURN_IF_ERROR(reader.ReadU64(&num_landmarks));
  MBR_RETURN_IF_ERROR(reader.ReadU32(&top_n));
  MBR_RETURN_IF_ERROR(reader.ExitSection());
  // Bound every untrusted header field before any allocation.
  if (num_topics == 0 ||
      num_topics > static_cast<uint32_t>(topics::kMaxTopics) ||
      num_landmarks > num_nodes || top_n == 0 || top_n > kMaxTopN) {
    return util::Status::InvalidArgument("implausible landmark index header");
  }
  idx.num_topics_ = static_cast<int>(num_topics);
  idx.config_.top_n = top_n;

  // The full ScoreParams: a loaded index composes stored σ values via
  // Proposition 4, so serving must see exactly the parameters (including
  // the ablation variant) the lists were built with.
  MBR_RETURN_IF_ERROR(reader.EnterSection(kSecParams));
  core::ScoreParams& p = idx.config_.params;
  uint32_t variant = 0;
  MBR_RETURN_IF_ERROR(reader.ReadDouble(&p.beta));
  MBR_RETURN_IF_ERROR(reader.ReadDouble(&p.alpha));
  MBR_RETURN_IF_ERROR(reader.ReadDouble(&p.tolerance));
  MBR_RETURN_IF_ERROR(reader.ReadDouble(&p.frontier_epsilon));
  MBR_RETURN_IF_ERROR(reader.ReadU32(&p.max_depth));
  MBR_RETURN_IF_ERROR(reader.ReadU32(&variant));
  MBR_RETURN_IF_ERROR(reader.ExitSection());
  if (!std::isfinite(p.beta) || !std::isfinite(p.alpha) ||
      !std::isfinite(p.tolerance) || !std::isfinite(p.frontier_epsilon) ||
      variant > static_cast<uint32_t>(core::ScoreVariant::kNoSim)) {
    return util::Status::InvalidArgument("implausible score params in index");
  }
  p.variant = static_cast<core::ScoreVariant>(variant);

  MBR_RETURN_IF_ERROR(reader.EnterSection(kSecLandmarks));
  MBR_RETURN_IF_ERROR(reader.ReadPodArray(&idx.landmarks_, num_landmarks));
  MBR_RETURN_IF_ERROR(reader.ExitSection());
  if (idx.landmarks_.size() != num_landmarks) {
    return util::Status::InvalidArgument("landmark count mismatch");
  }

  // Stored lists, columnar: per-list lengths (each bounded by top_n), then
  // the concatenated node / σ / topo_β columns whose total size is bounded
  // by the validated lengths — a corrupt length can never out-allocate the
  // file itself.
  const uint64_t num_lists = num_landmarks * num_topics;
  std::vector<uint32_t> lens;
  std::vector<graph::NodeId> nodes;
  std::vector<double> sigmas;
  std::vector<double> topos;
  MBR_RETURN_IF_ERROR(reader.EnterSection(kSecLists));
  MBR_RETURN_IF_ERROR(reader.ReadPodArray(&lens, num_lists));
  if (lens.size() != num_lists) {
    return util::Status::InvalidArgument("stored list count mismatch");
  }
  uint64_t total = 0;
  for (uint32_t len : lens) {
    if (len > top_n) {
      return util::Status::InvalidArgument(
          "stored list length exceeds top_n");
    }
    total += len;
  }
  MBR_RETURN_IF_ERROR(reader.ReadPodArray(&nodes, total));
  MBR_RETURN_IF_ERROR(reader.ReadPodArray(&sigmas, total));
  MBR_RETURN_IF_ERROR(reader.ReadPodArray(&topos, total));
  MBR_RETURN_IF_ERROR(reader.ExitSection());
  MBR_RETURN_IF_ERROR(reader.ExpectEnd());
  if (nodes.size() != total || sigmas.size() != total ||
      topos.size() != total) {
    return util::Status::InvalidArgument("stored column size mismatch");
  }

  idx.recs_.resize(num_lists);
  uint64_t off = 0;
  for (uint64_t i = 0; i < num_lists; ++i) {
    auto& list = idx.recs_[i];
    list.resize(lens[i]);
    for (uint32_t j = 0; j < lens[i]; ++j) {
      list[j] = {nodes[off + j], sigmas[off + j], topos[off + j]};
    }
    off += lens[i];
  }

  idx.landmark_slot_.assign(num_nodes, LandmarkIndex::kNoSlot);
  idx.mask_.assign(num_nodes, false);
  for (uint32_t i = 0; i < idx.landmarks_.size(); ++i) {
    graph::NodeId lm = idx.landmarks_[i];
    if (lm >= num_nodes || idx.landmark_slot_[lm] != LandmarkIndex::kNoSlot) {
      return util::Status::InvalidArgument(
          "index does not match the graph: landmark " + std::to_string(lm));
    }
    idx.landmark_slot_[lm] = i;
    idx.mask_[lm] = true;
  }
  for (const auto& list : idx.recs_) {
    for (const StoredRec& r : list) {
      if (r.node >= num_nodes) {
        return util::Status::InvalidArgument(
            "index does not match the graph: stored node " +
            std::to_string(r.node));
      }
    }
  }
  return idx;
}

std::vector<uint8_t> LandmarkIndex::Serialize() const {
  util::serde::Writer w(util::serde::ArtifactKind::kLandmarkIndex,
                        kIndexFormatVersion);
  w.BeginSection(kSecHeader);
  w.PutU32(static_cast<uint32_t>(num_topics_));
  w.PutU64(landmarks_.size());
  w.PutU32(config_.top_n);
  w.EndSection();
  w.BeginSection(kSecParams);
  w.PutDouble(config_.params.beta);
  w.PutDouble(config_.params.alpha);
  w.PutDouble(config_.params.tolerance);
  w.PutDouble(config_.params.frontier_epsilon);
  w.PutU32(config_.params.max_depth);
  w.PutU32(static_cast<uint32_t>(config_.params.variant));
  w.EndSection();
  w.BeginSection(kSecLandmarks);
  w.PutPodArray(landmarks_);
  w.EndSection();
  // Columnar stored lists: serialising field-by-field keeps StoredRec's
  // struct padding out of the file, so equal indexes produce byte-identical
  // containers.
  std::vector<uint32_t> lens;
  std::vector<graph::NodeId> nodes;
  std::vector<double> sigmas;
  std::vector<double> topos;
  lens.reserve(recs_.size());
  for (const auto& list : recs_) {
    lens.push_back(static_cast<uint32_t>(list.size()));
    for (const StoredRec& r : list) {
      nodes.push_back(r.node);
      sigmas.push_back(r.sigma);
      topos.push_back(r.topo_beta);
    }
  }
  w.BeginSection(kSecLists);
  w.PutPodArray(lens);
  w.PutPodArray(nodes);
  w.PutPodArray(sigmas);
  w.PutPodArray(topos);
  w.EndSection();
  return w.buffer();
}

util::Status LandmarkIndex::SaveTo(const std::string& path) const {
  std::vector<uint8_t> bytes = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::IoError("cannot open for write: " + path);
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return util::Status::IoError("short write: " + path);
  return util::Status::Ok();
}

util::Result<LandmarkIndex> LandmarkIndex::LoadFrom(const std::string& path,
                                                    graph::NodeId num_nodes) {
  auto reader = util::serde::Reader::FromFile(
      path, util::serde::ArtifactKind::kLandmarkIndex);
  if (!reader.ok()) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      uint8_t head[8] = {};
      size_t got = std::fread(head, 1, sizeof(head), f);
      std::fclose(f);
      if (StartsWithLegacyMagic({head, got})) {
        return util::Status::InvalidArgument(
            "pre-versioned landmark index (no checksum, partial params): "
            "rebuild it with `mbrec landmarks`: " +
            path);
      }
    }
    return reader.status();
  }
  return FromReader(std::move(*reader), num_nodes);
}

util::Result<LandmarkIndex> LandmarkIndex::LoadFromBuffer(
    std::span<const uint8_t> bytes, graph::NodeId num_nodes) {
  if (StartsWithLegacyMagic(bytes)) {
    return util::Status::InvalidArgument(
        "pre-versioned landmark index buffer");
  }
  auto reader = util::serde::Reader::FromBuffer(
      bytes, util::serde::ArtifactKind::kLandmarkIndex);
  if (!reader.ok()) return reader.status();
  return FromReader(std::move(*reader), num_nodes);
}

}  // namespace mbr::landmark
