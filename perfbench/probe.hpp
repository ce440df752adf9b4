// Tracing for dgbench's traced repetitions (README.md, "Traced run").
//
// Two kinds of record, both kept in memory and written out when the run
// ends:
//
//   * Spans — coarse boundaries (setup, deliver, finish) with a parent id.
//     A span's self time is its duration minus the part of it covered by
//     its children.
//   * Accumulators — per-call boundaries (detector callbacks, runtime entry
//     points, producer pushes, order waits), summed per thread into a call
//     count, an item count, total nanoseconds and a log2 histogram.
//
// Untraced repetitions never touch any of this: the e2e metrics come only
// from them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.hpp"

namespace dgbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-call boundaries with an accumulator each.
enum Cat : std::size_t {
  kDetAccess,   // on_read/on_write and every batch entry point
  kDetSync,     // thread start/join, acquire, release
  kDetFree,     // alloc, free
  kRtAccess,    // Runtime::read/write
  kRtSync,      // Runtime::acquire/release/allocated/freed/joined
  kOrderWait,   // live replay threads waiting to keep the recorded order
  kPush,        // ShmProducer::push_n
  kNumCats,
};
inline constexpr std::array<const char*, kNumCats> kCatNames = {
    "detect.access", "detect.sync",      "detect.free", "rt.access_call",
    "rt.sync_call",  "bench.order_wait", "service.push"};

struct Acc {
  std::uint64_t calls = 0;  // timed calls
  std::uint64_t items = 0;  // events they covered (a batch counts its accesses)
  std::uint64_t ns = 0;
  std::array<std::uint64_t, 65> log2_hist{};  // bucket = bit width of ns

  void add(std::uint64_t dt, std::uint64_t n) {
    ++calls;
    items += n;
    ns += dt;
    ++log2_hist[std::bit_width(dt)];
  }
  void merge(const Acc& o) {
    calls += o.calls;
    items += o.items;
    ns += o.ns;
    for (std::size_t i = 0; i < log2_hist.size(); ++i)
      log2_hist[i] += o.log2_hist[i];
  }
};
using Accs = std::array<Acc, kNumCats>;

/// The accumulators of one traced repetition: one block per thread that
/// made a timed call, merged once every thread is quiescent.
class Probe {
 public:
  Accs& local() {
    thread_local std::uint64_t tl_owner = 0;
    thread_local Accs* tl_block = nullptr;
    if (tl_owner != id_) {
      std::scoped_lock lk(mu_);
      blocks_.push_back(std::make_unique<Accs>());
      tl_block = blocks_.back().get();
      tl_owner = id_;
    }
    return *tl_block;
  }

  Accs merged() const {
    std::scoped_lock lk(mu_);
    Accs out{};
    for (const auto& b : blocks_)
      for (std::size_t c = 0; c < kNumCats; ++c) out[c].merge((*b)[c]);
    return out;
  }

 private:
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> ids{0};
    return ++ids;
  }

  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Accs>> blocks_;
};

/// Times one call into `cat` of the calling thread's block; a null probe
/// makes it a no-op.
class Timed {
 public:
  Timed(Probe* p, Cat cat, std::uint64_t items = 1)
      : acc_(p != nullptr ? &p->local()[cat] : nullptr),
        items_(items),
        t0_(acc_ != nullptr ? now_ns() : 0) {}
  ~Timed() {
    if (acc_ != nullptr) acc_->add(now_ns() - t0_, items_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Acc* acc_;
  std::uint64_t items_;
  std::uint64_t t0_;
};

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string name;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

/// Coarse spans, opened and closed in LIFO order by the run's main thread
/// (every coarse boundary, detector on_finish included, runs there); a new
/// span's parent is the innermost open one.
class SpanLog {
 public:
  std::uint32_t open(std::string name) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, open_.empty() ? 0 : open_.back(), std::move(name),
                      now_ns(), 0});
    open_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id - 1].t1 = now_ns();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Opens a span until end() or the end of the scope; a null log makes it a
/// no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : 0) {}
  ~ScopedSpan() { end(); }
  void end() {
    if (log_ != nullptr) log_->close(id_);
    log_ = nullptr;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// Self time of every span: duration minus the union of its children.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size() + 1);
  for (const Span& s : spans) kids[s.parent].emplace_back(s.t0, s.t1);
  std::vector<std::uint64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    auto& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, lo = 0, hi = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    const std::uint64_t dur = s.t1 - s.t0;
    out.push_back(dur > covered ? dur - covered : 0);
  }
  return out;
}

/// Forwarding timer around a detector: every callback is timed into the
/// probe's accumulators and passed on unchanged, and the whole delivery
/// surface (epoch serial, shard geometry, batches, governor, sinks) is
/// forwarded so the runtime and the service drive the inner detector
/// exactly as they would without the timer. The traced run's fidelity
/// check compares the inner detector's deterministic counters against the
/// untraced run's to prove it.
class TimedDetector final : public dg::Detector {
 public:
  TimedDetector(dg::Detector& inner, Probe& probe, SpanLog& spans)
      : inner_(&inner), probe_(&probe), spans_(&spans) {}

  const char* name() const override { return inner_->name(); }

  void on_thread_start(dg::ThreadId t, dg::ThreadId parent) override {
    Timed tm(probe_, kDetSync);
    inner_->on_thread_start(t, parent);
  }
  void on_thread_join(dg::ThreadId joiner, dg::ThreadId joined) override {
    Timed tm(probe_, kDetSync);
    inner_->on_thread_join(joiner, joined);
  }
  void on_acquire(dg::ThreadId t, dg::SyncId s) override {
    Timed tm(probe_, kDetSync);
    inner_->on_acquire(t, s);
  }
  void on_release(dg::ThreadId t, dg::SyncId s) override {
    Timed tm(probe_, kDetSync);
    inner_->on_release(t, s);
  }
  void on_alloc(dg::ThreadId t, dg::Addr a, std::uint64_t n) override {
    Timed tm(probe_, kDetFree);
    inner_->on_alloc(t, a, n);
  }
  void on_free(dg::ThreadId t, dg::Addr a, std::uint64_t n) override {
    Timed tm(probe_, kDetFree);
    inner_->on_free(t, a, n);
  }
  void on_finish() override {
    ScopedSpan sp(spans_, "detector.finish");
    inner_->on_finish();
  }
  void on_read(dg::ThreadId t, dg::Addr a, std::uint32_t n) override {
    Timed tm(probe_, kDetAccess);
    inner_->on_read(t, a, n);
  }
  void on_write(dg::ThreadId t, dg::Addr a, std::uint32_t n) override {
    Timed tm(probe_, kDetAccess);
    inner_->on_write(t, a, n);
  }
  void set_site(dg::ThreadId t, const char* site) override {
    inner_->set_site(t, site);
  }
  std::uint64_t same_epoch_serial(dg::ThreadId t) const noexcept override {
    return inner_->same_epoch_serial(t);
  }
  dg::ShardMap shard_map() const noexcept override {
    return inner_->shard_map();
  }
  bool supports_concurrent_delivery() const noexcept override {
    return inner_->supports_concurrent_delivery();
  }
  void set_concurrent_delivery(bool on) override {
    inner_->set_concurrent_delivery(on);
  }
  void on_batch(const dg::BatchedEvent* ev, std::size_t n) override {
    Timed tm(probe_, kDetAccess, accesses(ev, n));
    inner_->on_batch(ev, n);
  }
  void on_batch_shard(std::uint32_t shard, const dg::BatchedEvent* ev,
                      std::size_t n) override {
    Timed tm(probe_, kDetAccess, accesses(ev, n));
    inner_->on_batch_shard(shard, ev, n);
  }
  bool try_on_batch_shard(std::uint32_t shard, const dg::BatchedEvent* ev,
                          std::size_t n) override {
    const std::uint64_t t0 = now_ns();
    const bool delivered = inner_->try_on_batch_shard(shard, ev, n);
    if (delivered)
      probe_->local()[kDetAccess].add(now_ns() - t0, accesses(ev, n));
    return delivered;
  }
  void set_governor(dg::govern::Governor* g) noexcept override {
    inner_->set_governor(g);
  }
  std::size_t trim(dg::govern::PressureLevel level) override {
    return inner_->trim(level);
  }
  std::size_t gc_clocks(std::uint32_t cold_generations) override {
    return inner_->gc_clocks(cold_generations);
  }
  dg::ReportSink& sink() noexcept override { return inner_->sink(); }
  dg::DetectorStats& stats() noexcept override { return inner_->stats(); }
  dg::MemoryAccountant& accountant() noexcept override {
    return inner_->accountant();
  }

 private:
  static std::uint64_t accesses(const dg::BatchedEvent* ev, std::size_t n) {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < n; ++i)
      k += ev[i].kind == dg::BatchedEvent::Kind::kRead ||
           ev[i].kind == dg::BatchedEvent::Kind::kWrite;
    return k;
  }

  dg::Detector* inner_;
  Probe* probe_;
  SpanLog* spans_;
};

}  // namespace dgbench
