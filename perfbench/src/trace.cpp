#include "trace.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

const char* spanNameText(SpanName name) {
  switch (name) {
    case SpanName::kTrial: return "bench.trial";
    case SpanName::kRound: return "bench.round";
    case SpanName::kGenInputs: return "gen.inputs";
    case SpanName::kGraphPlayerView: return "graph.buildPlayerView";
    case SpanName::kDynIsSettled: return "dynamics.isSettled";
    case SpanName::kDynViewOf: return "dynamics.viewOf";
    case SpanName::kDynCoverCacheFor: return "dynamics.coverCacheFor";
    case SpanName::kDynGreedyOracleFor: return "dynamics.greedyOracleFor";
    case SpanName::kDynApplyMove: return "dynamics.applyMove";
    case SpanName::kDynMarkSettled: return "dynamics.markSettled";
    case SpanName::kCoreBestResponse: return "core.bestResponse";
    case SpanName::kCoreGreedyMove: return "core.greedyMove";
    case SpanName::kStorageBuild: return "storage.buildArena";
    case SpanName::kStorageOpen: return "storage.openArena";
    case SpanName::kStorageView: return "storage.buildPlayerViewT";
    case SpanName::kStorageApply: return "storage.applyStrategy";
    case SpanName::kRuntimeRun: return "runtime.runScenario";
    case SpanName::kRuntimeResume: return "runtime.resume";
    case SpanName::kRuntimeRender: return "runtime.renderResults";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Scope::Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::int32_t Tracer::open(SpanName name) {
  Span span;
  span.name = name;
  span.trial = trial_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(index);
  span.startNs = nowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].endNs = nowNs();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("spans closed out of order");
  }
  stack_.pop_back();
}

std::vector<double> Tracer::selfSeconds() const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
  }
  std::vector<double> self(static_cast<std::size_t>(SpanName::kCount), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[static_cast<std::size_t>(s.name)] +=
        static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-9;
  }
  return self;
}

std::vector<std::size_t> Tracer::counts() const {
  std::vector<std::size_t> n(static_cast<std::size_t>(SpanName::kCount), 0);
  for (const Span& s : spans_) ++n[static_cast<std::size_t>(s.name)];
  return n;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\ttrial\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%u\n", spanNameText(s.name),
                 static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), s.parent, s.trial);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void Tracer::printLayerSelfTimes() const {
  const std::vector<double> self = selfSeconds();
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const std::string name = spanNameText(static_cast<SpanName>(i));
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  for (const auto& [layer, seconds] : layers) {
    std::printf("layer %s self_s %.6f\n", layer.c_str(), seconds);
  }
}

}  // namespace perfbench
