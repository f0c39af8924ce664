#include "trace.h"

#include <cstdio>

namespace mbr::perfbench {

uint32_t Tracer::Record(const char* name, uint32_t parent, uint64_t request,
                        Clock::time_point start, Clock::time_point end) {
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  s.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  spans_.push_back(s);
  return s.id;
}

void Tracer::Merge(const Tracer& other) {
  const auto shift = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.id += shift;
    if (s.parent != 0) s.parent += shift;
    spans_.push_back(s);
  }
}

std::vector<double> Tracer::SelfMicros() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].micros();
  for (const Span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.micros();
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::DurationsByName() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) out[s.name].push_back(s.micros());
  return out;
}

std::map<std::string, std::vector<double>> Tracer::SelfByName() const {
  const std::vector<double> self = SelfMicros();
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& envelope_json) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"envelope\": %s,\n\"spans\": [\n", envelope_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "[%u,%u,%llu,\"%s\",%lld,%lld]%s\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

}  // namespace mbr::perfbench
