// In-memory span recorder for traced runs.
//
// Spans are recorded from the benchmark's own code around each call
// into a library layer's public functions: name, start, end, parent
// span and the id of the trial (unit) they belong to. They stay in
// memory until the run ends, when they are written to one TSV file and
// folded into per-name self times (a span's duration minus the time its
// child spans cover).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span names; the text before the first '.' is the layer.
enum class SpanName : std::uint16_t {
  kTrial,
  kRound,
  kGenInputs,
  kGraphPlayerView,
  kDynIsSettled,
  kDynViewOf,
  kDynCoverCacheFor,
  kDynGreedyOracleFor,
  kDynApplyMove,
  kDynMarkSettled,
  kCoreBestResponse,
  kCoreGreedyMove,
  kStorageBuild,
  kStorageOpen,
  kStorageView,
  kStorageApply,
  kRuntimeRun,
  kRuntimeResume,
  kRuntimeRender,
  kCount,
};

const char* spanNameText(SpanName name);

class Tracer {
 public:
  struct Span {
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint32_t trial = 0;
    SpanName name = SpanName::kTrial;
  };

  /// RAII span: opened on construction, closed on destruction. A null
  /// tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  /// Spans opened from now on belong to trial `id` (0 = campaign level).
  void setTrial(std::uint32_t id) { trial_ = id; }

  /// Σ self time (seconds) and span count per name.
  std::vector<double> selfSeconds() const;
  std::vector<std::size_t> counts() const;

  /// Writes every span as "name start_ns end_ns parent trial" lines.
  void write(const std::string& path) const;

  /// Prints each layer's self time to stdout.
  void printLayerSelfTimes() const;

 private:
  std::int32_t open(SpanName name);
  void close(std::int32_t index);

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t trial_ = 0;
};

}  // namespace perfbench
