// Correctness gate (README.md, "Correctness gate"): every race set a run
// produced is checked against the exact happens-before oracle on the
// recorded trace, under the detector's precision contract — exact bytes
// for FastTrack-byte, superset-with-a-dissolved-span for dyngran. The check
// itself is the verification library's own: each race set becomes a
// FrozenReports detector in a verify::diff_trace matrix, so the oracle runs
// once per run and the contracts are the ones the test suite enforces.
//
// Every run also carries a self-test: the race set of FastTrack-byte behind
// verify::FaultInjector(kSkipReleaseEdge) must fail the same gate; if it
// does not, the gate has gone blind and the run fails.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "detect/fasttrack.hpp"
#include "rt/trace.hpp"
#include "verify/diff_runner.hpp"
#include "verify/fault_injector.hpp"

namespace dgbench {

/// The contract-relevant part of one race report.
struct RaceKey {
  dg::Addr addr = 0;
  std::uint32_t size = 0;
  dg::Addr span_lo = 0;
  dg::Addr span_hi = 0;
  auto operator<=>(const RaceKey&) const = default;
};
using RaceSet = std::vector<RaceKey>;  // sorted

/// Race sets of one sink, keyed by address namespace (bits 48 and up, as
/// the analysis service assigns them per producer) with the namespace
/// stripped. In-process runs have a single namespace, 0.
inline std::map<std::uint64_t, RaceSet> race_sets(const dg::ReportSink& sink) {
  constexpr dg::Addr kLow = (dg::Addr{1} << 48) - 1;
  std::map<std::uint64_t, RaceSet> out;
  for (const dg::RaceReport& r : sink.reports())
    out[r.addr >> 48].push_back({r.addr & kLow, r.size,
                                 r.span_lo & kLow, r.span_hi & kLow});
  for (auto& [ns, set] : out) std::sort(set.begin(), set.end());
  return out;
}

/// A detector that analyses nothing and exposes a recorded race set as its
/// reports, so diff_trace can check a set produced elsewhere.
class FrozenReports final : public dg::Detector {
 public:
  explicit FrozenReports(const RaceSet& races) {
    for (const RaceKey& k : races) {
      dg::RaceReport r;
      r.addr = k.addr;
      r.size = k.size;
      r.span_lo = k.span_lo;
      r.span_hi = k.span_hi;
      sink_.report(r);
    }
  }
  const char* name() const override { return "frozen-reports"; }
  void on_thread_start(dg::ThreadId, dg::ThreadId) override {}
  void on_thread_join(dg::ThreadId, dg::ThreadId) override {}
  void on_acquire(dg::ThreadId, dg::SyncId) override {}
  void on_release(dg::ThreadId, dg::SyncId) override {}
  void on_read(dg::ThreadId, dg::Addr, std::uint32_t) override {}
  void on_write(dg::ThreadId, dg::Addr, std::uint32_t) override {}
};

struct GateCase {
  std::string label;
  dg::verify::Contract contract;
  RaceSet races;
};

struct GateResult {
  std::vector<std::string> failures;  // empty = every case holds
  std::size_t cases = 0;
  std::size_t oracle_racy_bytes = 0;
};

/// Check every case against the oracle on `trace`; identical cases are
/// checked once.
inline GateResult run_gate(const std::vector<dg::rt::TraceEvent>& trace,
                           const std::vector<GateCase>& cases) {
  std::vector<dg::verify::MatrixEntry> matrix;
  std::set<std::pair<dg::verify::Contract, RaceSet>> seen;
  for (const GateCase& c : cases) {
    if (!seen.emplace(c.contract, c.races).second) continue;
    matrix.push_back({c.label,
                      [races = c.races] {
                        return std::make_unique<FrozenReports>(races);
                      },
                      c.contract, dg::verify::DeliveryMode::kSerialized, {}});
  }
  const dg::verify::DiffResult diff = dg::verify::diff_trace(trace, matrix);
  GateResult g;
  g.cases = matrix.size();
  g.oracle_racy_bytes = diff.oracle_bytes;
  for (const auto& d : diff.divergences)
    g.failures.push_back(d.label + ": " + d.detail);
  if (diff.degraded != 0)
    g.failures.push_back("a memory budget degraded a gate replay");
  return g;
}

/// The gate's self-test: the race set of FastTrack-byte with its release
/// edges dropped (verify::Fault::kSkipReleaseEdge) must fail run_gate on
/// `trace`, a trace with lock-ordered sharing. False means the gate would
/// pass a broken detector.
inline bool self_test_trips(const std::vector<dg::rt::TraceEvent>& trace) {
  dg::verify::FaultInjector broken(
      std::make_unique<dg::FastTrackDetector>(dg::Granularity::kByte),
      dg::verify::Fault::kSkipReleaseEdge);
  dg::rt::replay_trace(trace, broken);
  return !run_gate(trace, {{"ft-byte+skip-release",
                            dg::verify::Contract::kExactByte,
                            race_sets(broken.sink())[0]}})
              .failures.empty();
}

}  // namespace dgbench
