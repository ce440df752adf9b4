// dgbench — the repository benchmark's measuring binary (README.md).
//
//   dgbench --workload churn|reuse|live|service --seed N --seconds S
//           --trace 0|1 --workdir DIR [--sched-seed M] [--trace-out FILE]
//
// Records the workload's trace from the seeds (set-up, outside the timed
// region), replays it from memory through the workload's delivery path
// under four detector configs round-robin until S seconds of measuring are
// spent, checks every race set against the exact HB oracle, and prints one
// JSON document of raw samples on stdout; run.py turns them into medians.
// With --trace 1 every repetition is followed by a traced twin whose
// forwarding timer, runtime-call and order-wait accumulators give the
// per-layer numbers; its deterministic counters must equal the untraced
// twin's.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "detect/dyngran.hpp"
#include "detect/fasttrack.hpp"
#include "gate.hpp"
#include "live.hpp"
#include "probe.hpp"
#include "rt/runtime.hpp"
#include "rt/trace.hpp"
#include "service/analysis_service.hpp"
#include "service/shm_segment.hpp"
#include "sim/sim.hpp"
#include "verify/mode_delivery.hpp"
#include "workloads/workloads.hpp"

namespace dgbench {
namespace {

using dg::rt::EventKind;
using dg::rt::TraceEvent;
using Trace = std::vector<TraceEvent>;

#if defined(__SSE2__)
constexpr const char* kBitmapDispatch = "sse2";
#elif defined(__aarch64__)
constexpr const char* kBitmapDispatch = "neon";
#else
constexpr const char* kBitmapDispatch = "scalar";
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// Shard count of every "-sharded" config (detector shards, runtime
/// kSharded, direct replay through verify::ModeDeliverer kSharded).
constexpr std::uint32_t kShards = 8;
/// Producer threads and drainers of the `service` workload.
constexpr std::uint32_t kProducers = 2;
constexpr std::uint32_t kDrainers = 2;
/// Set-ups per run: setup_s is the median of these.
constexpr int kSetups = 3;

enum class Path { kDirect, kLive, kService };

struct Workload {
  const char* name;
  const char* program;
  std::uint32_t threads;
  std::uint32_t scale;
  Path path;
};

// Why each workload exists is in README.md; the numbers here are the
// workload definition and change only with a new benchmark version.
constexpr Workload kWorkloads[] = {
    {"churn", "dedup", 4, 1, Path::kDirect},
    {"reuse", "facesim", 4, 1, Path::kDirect},
    {"live", "hmmsearch", 3, 8, Path::kLive},
    {"service", "hmmsearch", 3, 8, Path::kService},
};

/// Companion trace of the gate's self-test: hmmsearch with three workers at
/// scale 1 (1,200 lock-protected updates).
constexpr Workload kSelfTestProgram = {"self-test", "hmmsearch", 3, 1,
                                       Path::kDirect};

/// Record a workload's trace with the simulator.
Trace record(const Workload& w, std::uint64_t seed, std::uint64_t sched_seed) {
  auto prog = dg::wl::make_workload(w.program,
                                    dg::wl::WlParams{w.threads, w.scale, seed});
  dg::rt::TraceRecorder rec;
  dg::sim::SimScheduler sched(*prog, rec, sched_seed);
  if (sched.run().deadlocked) return {};
  return rec.events();
}

struct Config {
  const char* name;
  bool dynamic;
  bool sharded;
};
constexpr Config kConfigs[] = {
    {"byte", false, false},
    {"dynamic", true, false},
    {"byte-sharded", false, true},
    {"dynamic-sharded", true, true},
};

std::unique_ptr<dg::Detector> make_detector(const Config& c) {
  const std::uint32_t shards = c.sharded ? kShards : 1;
  if (c.dynamic) {
    dg::DynGranConfig cfg;
    cfg.shards = shards;
    return std::make_unique<dg::DynGranDetector>(cfg);
  }
  return std::make_unique<dg::FastTrackDetector>(dg::Granularity::kByte,
                                                 shards);
}

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Everything one repetition measured.
struct Rep {
  double path_setup_s = 0;
  double analysis_s = 0;
  std::uint64_t attempted = 0;  // events offered to the delivery path
  std::uint64_t dropped = 0;    // events that never reached a detector
  std::map<std::string, double> layer;  // per-layer metric -> value
  std::map<std::uint64_t, RaceSet> races;  // by address namespace
  std::vector<std::uint64_t> namespaces;   // namespaces that must be checked
  std::string problem;                     // non-empty = the path failed
};

/// Detector-side layers: detect, shadow, vc, report.
void read_detector(dg::Detector& det, Rep& r) {
  const dg::DetectorStats& st = det.stats();
  const dg::MemoryAccountant& acct = det.accountant();
  const auto shared = st.shared_accesses.load();
  r.layer["detect.shared_accesses"] = static_cast<double>(shared);
  r.layer["detect.same_epoch_hits"] = static_cast<double>(st.same_epoch_hits.load());
  r.layer["shadow.same_epoch_ratio"] =
      ratio(static_cast<double>(st.same_epoch_hits.load()),
            static_cast<double>(shared));
  r.layer["shadow.peak_hash_bytes"] =
      static_cast<double>(acct.peak(dg::MemCategory::kHash));
  r.layer["shadow.peak_bitmap_bytes"] =
      static_cast<double>(acct.peak(dg::MemCategory::kBitmap));
  r.layer["vc.allocs"] = static_cast<double>(st.vc_allocs.load());
  r.layer["vc.frees"] = static_cast<double>(st.vc_frees.load());
  r.layer["vc.max_live"] = static_cast<double>(st.max_live_vcs.load());
  r.layer["vc.peak_bytes"] =
      static_cast<double>(acct.peak(dg::MemCategory::kVectorClock));
  r.layer["vc.avg_sharing_at_peak"] = st.avg_sharing_at_peak.load();
  r.layer["report.unique_races"] =
      static_cast<double>(det.sink().unique_races());
  r.layer["peak_shadow_bytes"] = static_cast<double>(acct.peak_total());
  if (det.sink().reports().size() != det.sink().unique_races())
    r.problem = "report retention truncated the race set; the gate cannot "
                "check it";
  r.races = race_sets(det.sink());
}

void read_probe(const Accs& a, Rep& r) {
  r.layer["detect.access_ns"] = static_cast<double>(a[kDetAccess].ns);
  r.layer["detect.access_events"] = static_cast<double>(a[kDetAccess].items);
  r.layer["detect.sync_ns"] = static_cast<double>(a[kDetSync].ns);
  r.layer["detect.free_ns"] = static_cast<double>(a[kDetFree].ns);
  r.layer["rt.access_call_ns"] = static_cast<double>(a[kRtAccess].ns);
  r.layer["rt.sync_call_ns"] = static_cast<double>(a[kRtSync].ns);
  r.layer["bench.order_wait_ns"] = static_cast<double>(a[kOrderWait].ns);
  r.layer["service.push_ns"] = static_cast<double>(a[kPush].ns);
}

/// Tracing context of one traced repetition.
struct TraceCtx {
  Probe probe;
  SpanLog* spans;
};

/// The detector a path drives: the config's detector, behind the
/// forwarding timer when traced.
struct Target {
  std::unique_ptr<dg::Detector> det;
  std::optional<TimedDetector> timed;
  Target(const Config& c, TraceCtx* tc) : det(make_detector(c)) {
    if (tc != nullptr) timed.emplace(*det, tc->probe, *tc->spans);
  }
  dg::Detector& get() { return timed ? static_cast<dg::Detector&>(*timed) : *det; }
};

// --- delivery paths --------------------------------------------------------

/// `churn`, `reuse`: rt::replay_trace straight into the detector (the
/// PIN-equivalent path); "-sharded" goes through verify::ModeDeliverer in
/// kSharded mode, which partitions batches by the detector's shard map.
Rep run_direct(const Trace& trace, const Config& c, TraceCtx* tc) {
  Rep r;
  const std::uint64_t s0 = now_ns();
  ScopedSpan setup(tc ? tc->spans : nullptr, "setup");
  Target tgt(c, tc);
  std::optional<dg::verify::ModeDeliverer> md;
  if (c.sharded) md.emplace(tgt.get(), dg::verify::DeliveryMode::kSharded);
  dg::Detector& entry = md ? static_cast<dg::Detector&>(*md) : tgt.get();
  setup.end();
  const std::uint64_t t0 = now_ns();
  {
    ScopedSpan sp(tc ? tc->spans : nullptr, "deliver");
    dg::rt::replay_trace(trace, entry);
  }
  const std::uint64_t t1 = now_ns();
  r.path_setup_s = seconds_between(s0, t0);
  r.analysis_s = seconds_between(t0, t1);
  r.attempted = trace.size();
  read_detector(*tgt.det, r);
  r.namespaces = {0};
  return r;
}

/// `live`: one OS thread per trace thread drives rt::Runtime (two-tier, or
/// kSharded for the "-sharded" configs); see live.hpp for the ordering.
Rep run_live(const Trace& trace, const LivePlan& plan, const Config& c,
             TraceCtx* tc) {
  Rep r;
  const std::uint64_t s0 = now_ns();
  ScopedSpan setup(tc ? tc->spans : nullptr, "setup");
  Target tgt(c, tc);
  dg::rt::RuntimeOptions opts;
  opts.mode = c.sharded ? dg::rt::RuntimeOptions::Mode::kSharded
                        : dg::rt::RuntimeOptions::Mode::kTwoTier;
  opts.sampling = "off";
  dg::RuntimeStats st;
  std::uint64_t t0 = 0, t1 = 0;
  {
    dg::rt::Runtime rt(tgt.get(), opts);
    rt.register_current_thread(dg::kInvalidThread);
    setup.end();
    t0 = now_ns();
    {
      ScopedSpan sp(tc ? tc->spans : nullptr, "deliver");
      if (tc != nullptr)
        LiveRun<true>(plan, rt, &tc->probe).run();
      else
        LiveRun<false>(plan, rt, nullptr).run();
      ScopedSpan fin(tc ? tc->spans : nullptr, "finish");
      rt.finish();
    }
    t1 = now_ns();
    st = rt.stats();
    if (c.sharded && st.sharded_fallback)
      r.problem = "runtime fell back from kSharded to two-tier";
  }
  r.path_setup_s = seconds_between(s0, t0);
  r.analysis_s = seconds_between(t0, t1);
  r.attempted = trace.size();
  r.dropped = st.dropped_events;
  std::uint64_t hwm = 0;
  for (const auto& ring : st.rings) hwm = std::max(hwm, ring.depth_hwm);
  r.layer["rt.fast_path_ratio"] =
      ratio(static_cast<double>(st.fast_path_filtered),
            static_cast<double>(st.events_seen));
  r.layer["rt.fast_path_filtered"] = static_cast<double>(st.fast_path_filtered);
  r.layer["rt.events_per_lock"] = st.events_per_lock();
  r.layer["rt.drain_ns"] = static_cast<double>(st.drain_ns);
  r.layer["rt.ring_depth_hwm"] = static_cast<double>(hwm);
  r.layer["rt.dropped_events"] = static_cast<double>(st.dropped_events);
  read_detector(*tgt.det, r);
  r.namespaces = {0};
  return r;
}

/// `service`: kProducers threads each stream the whole trace through a
/// service::ShmProducer into an in-process AnalysisService.
Rep run_service(const Trace& trace, const Config& c, const std::string& seg,
                TraceCtx* tc) {
  Rep r;
  const std::uint64_t s0 = now_ns();
  ScopedSpan setup(tc ? tc->spans : nullptr, "setup");
  Target tgt(c, tc);
  dg::service::ServiceOptions opts;
  opts.drainers = kDrainers;
  dg::service::AnalysisService svc(tgt.get(), opts);
  ::unlink(seg.c_str());
  std::string err;
  if (!svc.start(seg, &err)) {
    r.problem = "service start: " + err;
    return r;
  }
  std::vector<std::thread> producers;
  std::vector<std::string> errors(kProducers);
  Probe* probe = tc != nullptr ? &tc->probe : nullptr;
  for (std::uint32_t i = 0; i < kProducers; ++i)
    producers.emplace_back([&, i] {
      dg::service::ShmProducer prod;
      std::string e;
      if (!prod.connect(seg, "dgbench:" + std::to_string(i), 30000, &e)) {
        errors[i] = "connect: " + e;
        return;
      }
      if (!prod.wait_go(60000)) {
        errors[i] = "wait_go failed";
        return;
      }
      {
        Timed tm(probe, kPush, trace.size());
        if (!prod.push_n(trace.data(), trace.size()))
          errors[i] = "push_n failed";
      }
      prod.finish();
    });
  if (!svc.wait_producers(kProducers, 30000))
    r.problem = "producers never attached";
  setup.end();
  const std::uint64_t t0 = now_ns();
  std::uint64_t stop_ns = 0;
  {
    ScopedSpan sp(tc ? tc->spans : nullptr, "deliver");
    svc.open_gate();
    for (std::thread& p : producers) p.join();
    ScopedSpan fin(tc ? tc->spans : nullptr, "finish");
    const std::uint64_t q0 = now_ns();
    svc.stop(60000);
    stop_ns = now_ns() - q0;
  }
  const std::uint64_t t1 = now_ns();
  for (const std::string& e : errors)
    if (!e.empty()) r.problem = "producer " + e;

  const dg::service::ServiceStats st = svc.stats();
  const auto& lay = svc.segment().layout();
  std::uint64_t pushed = 0, stalls = 0;
  for (std::uint32_t s = 0; s < lay.header.max_producers; ++s) {
    const auto& slot = lay.slots[s];
    if (std::strncmp(slot.spec, "dgbench:", 8) != 0) continue;
    pushed += slot.pushed.load();
    stalls += slot.full_stalls.load();
    r.namespaces.push_back(slot.ns_tag.load() + 1);
  }
  if (r.namespaces.size() != kProducers)
    r.problem = "expected " + std::to_string(kProducers) + " producer slots";
  r.path_setup_s = seconds_between(s0, t0);
  r.analysis_s = seconds_between(t0, t1);
  // Whatever the drainers did not ingest, or quarantined, never reached the
  // detector: producer-local drops and abandoned ring tails included.
  r.attempted = kProducers * trace.size();
  const std::uint64_t delivered =
      st.events_total > st.quarantined ? st.events_total - st.quarantined : 0;
  r.dropped = r.attempted > delivered ? r.attempted - delivered : 0;
  r.layer["service.stop_ns"] = static_cast<double>(stop_ns);
  r.layer["service.full_stalls"] = static_cast<double>(stalls);
  r.layer["service.events_total"] = static_cast<double>(st.events_total);
  r.layer["service.filter_ratio"] =
      ratio(static_cast<double>(st.filtered), static_cast<double>(st.events_total));
  r.layer["service.wire_bytes"] =
      static_cast<double>(pushed * sizeof(TraceEvent));
  r.layer["service.drain_ns"] = static_cast<double>(st.drain_ns);
  r.layer["service.piggyback_ratio"] =
      ratio(static_cast<double>(st.piggybacked),
            static_cast<double>(st.combined_batches));
  r.layer["service.quarantined"] = static_cast<double>(st.quarantined);
  read_detector(*tgt.det, r);
  ::unlink(seg.c_str());
  return r;
}

// --- output ------------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      o += buf;
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string jarr(const std::vector<T>& v, F f) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + f(v[i]);
  return o + "]";
}

// --- run ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::optional<std::uint64_t> sched_seed;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: dgbench --workload churn|reuse|live|service --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--sched-seed M] "
               "[--trace-out FILE]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--sched-seed") a.sched_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         !a.workdir.empty();
}

/// Per-layer metrics every traced repetition reports, suffixed with the
/// config name; a layer the workload's path does not reach reads 0.
constexpr const char* kLayerMetrics[] = {
    "rt.access_call_ns",     "rt.sync_call_ns",        "rt.fast_path_ratio",
    "rt.events_per_lock",    "rt.drain_ns",            "rt.ring_depth_hwm",
    "rt.dropped_events",     "bench.order_wait_ns",    "service.push_ns",
    "service.stop_ns",       "service.full_stalls",    "service.events_total",
    "service.filter_ratio",  "service.wire_bytes",     "service.drain_ns",
    "service.piggyback_ratio", "service.quarantined",  "detect.access_ns",
    "detect.sync_ns",        "detect.free_ns",         "detect.access_events",
    "detect.shared_accesses", "shadow.same_epoch_ratio",
    "shadow.peak_hash_bytes", "shadow.peak_bitmap_bytes", "vc.allocs",
    "vc.frees",              "vc.max_live",            "vc.peak_bytes",
    "vc.avg_sharing_at_peak", "report.unique_races"};

/// Deterministic counters the forwarding timer must not change.
constexpr const char* kFidelityCounters[] = {
    "detect.shared_accesses", "detect.same_epoch_hits", "rt.fast_path_filtered"};

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads)
    if (a.workload == x.name) w = &x;
  if (w == nullptr) return usage();
  const std::uint64_t sched_seed = a.sched_seed.value_or(a.seed);
  std::vector<std::string> problems;

  // Set-up: record the trace kSetups times (it must come out identical).
  SpanLog spans;
  SpanLog* const span_log = a.trace ? &spans : nullptr;
  std::vector<double> record_s, setup_base_s;
  Trace trace;
  LivePlan plan;
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan sp(span_log, "setup:record");
    const std::uint64_t t0 = now_ns();
    Trace t = record(*w, a.seed, sched_seed);
    const std::uint64_t t1 = now_ns();
    LivePlan p;
    if (w->path == Path::kLive) p = plan_live(t);
    const std::uint64_t t2 = now_ns();
    sp.end();
    if (t.empty() || t.back().kind != EventKind::kFinish)
      problems.push_back("simulation did not run to completion");
    if (i == 0) {
      trace = std::move(t);
      plan = std::move(p);
    } else if (t != trace) {
      problems.push_back("recording is not deterministic");
    }
    record_s.push_back(seconds_between(t0, t1));
    setup_base_s.push_back(seconds_between(t0, t2));
  }

  const std::string seg = a.workdir + "/segment.dgs";
  auto one = [&](const Config& c, TraceCtx* tc) {
    switch (w->path) {
      case Path::kDirect: return run_direct(trace, c, tc);
      case Path::kLive: return run_live(trace, plan, c, tc);
      case Path::kService: return run_service(trace, c, seg, tc);
    }
    return Rep{};
  };

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> path_setup_s, null_s;
  std::uint64_t attempted = 0, dropped = 0;
  std::vector<GateCase> cases;
  std::map<std::string, std::map<std::string, double>> untraced_counters;
  std::map<std::string, std::map<std::uint64_t, RaceSet>> untraced_races;
  std::map<std::string, Accs> accs_by_config;

  // Every repetition of a config, traced or not, must reproduce the first
  // untraced one's deterministic counters and race set.
  auto check_same = [&](const Config& c, Rep& r, const char* kind) {
    auto& base = untraced_counters[c.name];
    const bool first_rep = untraced_races.count(c.name) == 0;
    if (first_rep) untraced_races[c.name] = r.races;
    for (const char* k : kFidelityCounters) {
      if (r.layer.count(k) == 0) continue;
      if (first_rep) {
        base[k] = r.layer[k];
      } else if (r.layer[k] != base[k]) {
        problems.push_back(std::string("fidelity: ") + c.name + " " + kind +
                           " " + k + " " + jnum(r.layer[k]) +
                           " != first untraced " + jnum(base[k]));
      }
    }
    if (!first_rep && r.races != untraced_races[c.name])
      problems.push_back(std::string("fidelity: ") + c.name + " " + kind +
                         " race set differs from the first untraced one");
  };

  auto account = [&](const Config& c, const Rep& r, const std::string& tag) {
    if (!r.problem.empty()) problems.push_back(std::string(c.name) + ": " + r.problem);
    attempted += r.attempted;
    dropped += r.dropped;
    for (std::uint64_t ns : r.namespaces) {
      auto it = r.races.find(ns);
      cases.push_back({std::string(c.name) + tag + "/ns" + std::to_string(ns),
                       c.dynamic ? dg::verify::Contract::kDynGranSuperset
                                 : dg::verify::Contract::kExactByte,
                       it == r.races.end() ? RaceSet{} : it->second});
    }
  };

  const std::uint64_t start = now_ns();
  std::uint64_t cycles = 0;
  while (cycles == 0 || seconds_between(start, now_ns()) < a.seconds) {
    ++cycles;
    for (const Config& c : kConfigs) {
      Rep r = one(c, nullptr);
      account(c, r, "");
      samples[std::string("analysis_s.") + c.name].push_back(r.analysis_s);
      if (!c.sharded)
        samples[std::string("peak_shadow_bytes.") + c.name].push_back(
            r.layer["peak_shadow_bytes"]);
      path_setup_s.push_back(r.path_setup_s);
      check_same(c, r, "untraced");
      if (!a.trace) continue;

      TraceCtx tc{{}, &spans};
      Rep tr;
      {
        ScopedSpan rep(&spans, std::string("rep:") + c.name);
        tr = one(c, &tc);
      }
      account(c, tr, "/traced");
      check_same(c, tr, "traced");
      const Accs acc = tc.probe.merged();
      read_probe(acc, tr);
      samples[std::string("traced_analysis_s.") + c.name].push_back(tr.analysis_s);
      for (const char* k : kLayerMetrics)
        samples[std::string(k) + "." + c.name].push_back(tr.layer[k]);
      for (std::size_t i = 0; i < kNumCats; ++i)
        accs_by_config[c.name][i].merge(acc[i]);
    }
    if (a.trace) {
      dg::NullDetector nd;
      const std::uint64_t t0 = now_ns();
      dg::rt::replay_trace(trace, nd);
      null_s.push_back(seconds_between(t0, now_ns()));
    }
  }
  const double measure_s = seconds_between(start, now_ns());

  // setup_s: median recording set-up plus the median delivery-path set-up.
  std::vector<double> ps = path_setup_s;
  std::sort(ps.begin(), ps.end());
  const double path_med = ps[ps.size() / 2];
  for (double b : setup_base_s) samples["setup_s"].push_back(b + path_med);
  samples["sim.record_s"] = record_s;
  samples["sim.events"] = {static_cast<double>(trace.size())};
  if (a.trace) samples["rt.replay_null_s"] = null_s;
  const double dropped_frac =
      ratio(static_cast<double>(dropped), static_cast<double>(attempted));
  samples["dropped_frac"] = {dropped_frac};
  samples["delivered_frac"] = {1.0 - dropped_frac};

  const std::uint64_t g0 = now_ns();
  const GateResult gate = run_gate(trace, cases);
  for (const std::string& f : gate.failures) problems.push_back("gate: " + f);
  // The self-test runs on a small lock-heavy companion trace, since a
  // workload whose sharing is ordered by fork/join alone (facesim) hides a
  // dropped release edge.
  const bool self_test = self_test_trips(record(kSelfTestProgram, a.seed, sched_seed));
  if (!self_test)
    problems.push_back("gate: self-test (skip-release fault) did not trip");
  const double gate_s = seconds_between(g0, now_ns());

  std::map<std::string, std::uint64_t> kinds;
  for (const TraceEvent& e : trace) {
    static const char* names[] = {"?",     "thread_start", "thread_join",
                                  "acquire", "release",    "read",
                                  "write", "alloc",        "free",
                                  "finish"};
    ++kinds[names[static_cast<int>(e.kind)]];
  }

  std::string o = "{\n";
  o += "  \"env\": {\"workload\": " + jstr(w->name) + ", \"program\": " +
       jstr(w->program) + ", \"threads\": " + std::to_string(w->threads) +
       ", \"scale\": " + std::to_string(w->scale) +
       ", \"workload_seed\": " + std::to_string(a.seed) +
       ", \"sched_seed\": " + std::to_string(sched_seed) +
       ", \"compiler\": " + jstr(kCompiler) +
       ", \"build_type\": " + jstr(DGBENCH_BUILD_TYPE) +
       ", \"bitmap_dispatch\": " + jstr(kBitmapDispatch) +
       ", \"hardware_concurrency\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"shards\": " + std::to_string(kShards) +
       ", \"producers\": " + std::to_string(kProducers) +
       ", \"drainers\": " + std::to_string(kDrainers) +
       ", \"trace_events\": " + std::to_string(trace.size()) +
       ", \"trace_kinds\": {";
  bool first = true;
  for (const auto& [k, n] : kinds) {
    o += (first ? "" : ", ") + jstr(k) + ": " + std::to_string(n);
    first = false;
  }
  o += "}},\n";
  o += "  \"cycles\": " + std::to_string(cycles) +
       ", \"measure_s\": " + jnum(measure_s) + ", \"gate_s\": " + jnum(gate_s) +
       ",\n";
  o += "  \"attempted\": " + std::to_string(attempted) +
       ", \"failed\": " + std::to_string(dropped) + ",\n";
  o += "  \"gate\": {\"cases\": " + std::to_string(gate.cases) +
       ", \"oracle_racy_bytes\": " + std::to_string(gate.oracle_racy_bytes) +
       ", \"self_test_tripped\": " + (self_test ? "true" : "false") +
       "},\n";
  o += "  \"problems\": " + jarr(problems, jstr) + ",\n";
  o += "  \"correct\": " + std::string(problems.empty() ? "true" : "false") + ",\n";
  o += "  \"samples\": {";
  first = true;
  for (const auto& [k, v] : samples) {
    o += std::string(first ? "\n" : ",\n") + "    " + jstr(k) + ": " + jarr(v, jnum);
    first = false;
  }
  o += "\n  }\n}\n";
  std::fputs(o.c_str(), stdout);

  if (a.trace && !a.trace_out.empty()) {
    const std::vector<Span>& sp = spans.spans();
    const std::vector<std::uint64_t> self = self_times(sp);
    std::string t = "{\n  \"spans\": [";
    for (std::size_t i = 0; i < sp.size(); ++i)
      t += std::string(i ? ",\n" : "\n") + "    {\"id\": " +
           std::to_string(sp[i].id) + ", \"parent\": " +
           std::to_string(sp[i].parent) + ", \"name\": " + jstr(sp[i].name) +
           ", \"start_ns\": " + std::to_string(sp[i].t0) +
           ", \"dur_ns\": " + std::to_string(sp[i].t1 - sp[i].t0) +
           ", \"self_ns\": " + std::to_string(self[i]) + "}";
    t += "\n  ],\n  \"accumulators\": {";
    first = true;
    for (const auto& [cfg, acc] : accs_by_config) {
      for (std::size_t i = 0; i < kNumCats; ++i) {
        const Acc& x = acc[i];
        if (x.calls == 0) continue;
        std::vector<std::uint64_t> h(x.log2_hist.begin(), x.log2_hist.end());
        while (!h.empty() && h.back() == 0) h.pop_back();
        t += std::string(first ? "\n" : ",\n") + "    " +
             jstr(std::string(kCatNames[i]) + "." + cfg) +
             ": {\"calls\": " + std::to_string(x.calls) +
             ", \"items\": " + std::to_string(x.items) +
             ", \"ns\": " + std::to_string(x.ns) + ", \"log2_hist\": " +
             jarr(h, [](std::uint64_t v) { return std::to_string(v); }) + "}";
        first = false;
      }
    }
    t += "\n  }\n}\n";
    std::ofstream f(a.trace_out);
    f << t;
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dgbench

int main(int argc, char** argv) {
  dgbench::Args a;
  if (!dgbench::parse(argc, argv, a)) return dgbench::usage();
  return dgbench::run(a);
}
