// Closed-loop benchmark for NFactor. Four workloads, each with
// one client that sends its next request only after the previous one
// returned. BENCHMARK.json times synth and dataplane-filter; the other
// two are run by hand and probed in traced runs, because their figures
// followed the shared host's speed too closely to be steady:
//
//   synth               one request synthesizes all 10 corpus NFs
//   dataplane-stateful  one 256-packet burst through nat, lb, firewall,
//                       l2_switch (tier-2 engines, tens of thousands of
//                       flows, payloads <= 64 B)
//   dataplane-filter    one 256-packet burst through snort_lite, dpi,
//                       synflood (payloads uniform up to 1400 B)
//   verify              one topology query on examples/datacenter.topo
//
// An untraced run forks a fixed number of processes one after another;
// each does one set-up, a fixed number of warm-up requests and a fixed
// number of timed requests (derived from --seconds by a fixed
// per-workload rate), so the program's run-length-dependent state is the
// same in every run. Every output is checked untimed; a failed check or a
// thrown exception counts as a failed request. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md documents workloads and metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include "dataplane/engine.h"
#include "dataplane/threaded.h"
#include "lang/parser.h"
#include "model/interp.h"
#include "model/model.h"
#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "symex/solver.h"
#include "verify/equivalence.h"
#include "verify/topology.h"
#include "verify/witness.h"

namespace {

using namespace nfactor;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Benchmark-owned tracer. Spans are recorded only around the benchmark's
// own calls into the program's public API, kept in memory, and written
// out when the run ends. The program's own obs tracer is left alone.

struct Span {
  int name = 0;
  int parent = -1;            ///< index into spans, -1 = root
  std::int64_t request = 0;   ///< timed request index; < 0 = set-up k
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  int name_id(const std::string& name) {
    const auto [it, fresh] = ids_.try_emplace(name, static_cast<int>(names_.size()));
    if (fresh) names_.push_back(name);
    return it->second;
  }
  const std::string& name(int id) const { return names_[static_cast<std::size_t>(id)]; }

  int open(int name) {
    spans.push_back({name, stack_.empty() ? -1 : stack_.back(), request, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans.size() - 1));
    return stack_.back();
  }
  void close(int idx) {
    spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool on = false;
  std::int64_t request = 0;
  std::vector<Span> spans;

 private:
  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<int> stack_;
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

/// RAII span; a no-op while tracing is off.
class Scope {
 public:
  explicit Scope(int name) : idx_(tracer().on ? tracer().open(name) : -1) {}
  ~Scope() {
    if (idx_ >= 0) tracer().close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_;
};

/// Per-name totals over a span range: wall time, self time (wall minus
/// the time covered by child spans) and call count.
struct Agg {
  double total_ns = 0;
  double self_ns = 0;
  std::int64_t count = 0;
};

class SpanView {
 public:
  /// Spans [from, to) whose request id satisfies timed (>= 0) or set-up (< 0).
  SpanView(std::size_t from, std::size_t to, bool timed) {
    const auto& spans = tracer().spans;
    std::vector<double> child(to - from, 0.0);
    for (std::size_t i = from; i < to; ++i) {
      const Span& s = spans[i];
      if (s.parent >= static_cast<int>(from)) {
        child[static_cast<std::size_t>(s.parent) - from] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = from; i < to; ++i) {
      const Span& s = spans[i];
      if ((s.request >= 0) != timed) continue;
      Agg& a = by_name_[tracer().name(s.name)];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      a.total_ns += dur;
      a.self_ns += dur - child[i - from];
      ++a.count;
    }
  }
  Agg get(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? Agg{} : it->second;
  }
  const std::map<std::string, Agg>& all() const { return by_name_; }

 private:
  std::map<std::string, Agg> by_name_;
};

// ---------------------------------------------------------------------------
// Metrics.

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};

using Metrics = std::map<std::string, double>;

struct LayerCtx {
  const SpanView& timed;    ///< spans of traced timed requests
  const SpanView& setup;    ///< spans of the set-up
  std::int64_t traced = 0;  ///< traced timed requests
};

struct RequestCtx {
  std::int64_t i = 0;
  bool traced = false;
  bool corrupt = false;  ///< self-test: corrupt one compared output
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string root = ".";
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed request: synthesis and
  /// compilation of the served models, input generation, parsing, and a
  /// fixed number of untimed warm-up requests.
  virtual void setup() = 0;
  /// One timed request.
  virtual void request(std::int64_t i) = 0;
  /// Untimed output check of request i; empty string = passed. Also
  /// releases the request's results so their destruction is untimed.
  virtual std::string check(const RequestCtx& ctx) = 0;
  /// Untimed once-per-run checks, one string per check (empty = passed).
  virtual std::vector<std::string> final_checks() = 0;
  /// Timed requests in a full run of `seconds` nominal seconds.
  virtual std::int64_t requests(double seconds) const = 0;
  /// Timed requests in a probe (traced runs measure the layers other
  /// workloads own with one small probe each).
  virtual std::int64_t probe_requests() const = 0;
  /// Requests per repeating unit (verify cycles through 4 queries);
  /// traced runs alternate traced and untraced cycles.
  virtual int cycle() const { return 1; }
  virtual double units_per_request() const = 0;
  virtual std::int64_t corrupt_index() const = 0;
  /// Digest of the run's deterministic reference outputs; every process
  /// of one run must report the same.
  virtual std::uint64_t digest() const = 0;
  virtual void layer_metrics(const LayerCtx& ctx, Metrics& out) = 0;
};

std::int64_t scaled(double seconds, double rate, std::int64_t minimum,
                    std::int64_t multiple) {
  auto n = static_cast<std::int64_t>(seconds * rate + 0.5);
  n = std::max(n, minimum);
  return (n + multiple - 1) / multiple * multiple;
}

/// FNV-1a over the deterministic outputs a workload compares.
class Digest {
 public:
  void add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  void add(std::uint64_t v) { add(std::string_view(reinterpret_cast<const char*>(&v), sizeof v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// nf-synth's production options: simplification with config folding.
/// Symbolic execution runs serially: on a shared 4-core host width 2 was
/// ~11% slower per pass and its p90 spread between runs ~1.7x wider.
pipeline::PipelineOptions synth_options() {
  pipeline::PipelineOptions o;
  o.simplify.enabled = true;
  o.simplify.fold_config = true;
  o.jobs = 1;
  return o;
}

/// Parse + synthesize one corpus NF under the public-call spans.
pipeline::PipelineResult synthesize(std::string_view nf) {
  static const int parse_span = tracer().name_id("lang::parse");
  static const int run_span = tracer().name_id("pipeline::run");
  const auto& e = nfs::find(nf);
  lang::Program prog;
  {
    Scope s(parse_span);
    prog = lang::parse(e.source, std::string(nf));
  }
  Scope s(run_span);
  return pipeline::run(prog, synth_options());
}

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

// ---------------------------------------------------------------------------
// synth: one request synthesizes all 10 corpus NFs, parse to model, in a
// seeded order.

constexpr double kSynthRate = 55;  // passes per nominal second
constexpr int kSynthWarmup = 10;

class Synth : public Workload {
 public:
  Synth(std::uint64_t seed, bool probe) : rng_(seed), seed_(seed), probe_(probe) {}

  static std::vector<MetricDef> defs() {
    std::vector<MetricDef> d = {
        {"lang.parse_us", "us", "lower"},
        {"pipeline.lower_us", "us", "lower"},
        {"pipeline.simplify_us", "us", "lower"},
        {"pipeline.slice_us", "us", "lower"},
        {"pipeline.se_slice_us", "us", "lower"},
        {"symex.solver_us", "us", "lower"},
        {"pipeline.model_us", "us", "lower"},
        {"pipeline.other_us", "us", "lower"},
        {"symex.paths", "count", "lower"},
        {"symex.forks", "count", "lower"},
        {"symex.steps", "count", "lower"},
        {"symex.solver_queries", "count", "lower"},
        {"lint.exprs_folded", "count", "higher"},
        {"lint.nodes_removed", "count", "higher"},
        {"model.entries", "count", "lower"},
    };
    for (const auto& e : nfs::corpus()) {
      d.push_back({"synth." + std::string(e.name) + "_us", "us", "lower"});
    }
    return d;
  }

  void setup() override {
    for (const auto& e : nfs::corpus()) {
      nfs_.push_back({std::string(e.name),
                      tracer().name_id("synth " + std::string(e.name)), {}, {}, {}});
    }
    order_.resize(nfs_.size());
    for (std::size_t k = 0; k < order_.size(); ++k) order_[k] = k;
    results_.resize(nfs_.size());
    const int warm = probe_ ? 1 : kSynthWarmup;
    for (int w = 0; w < warm; ++w) {
      request(-1);
      if (w == 0) {
        // The first pass's models are every later pass's reference.
        for (std::size_t k = 0; k < nfs_.size(); ++k) {
          nfs_[k].model_text = model::to_text(results_[k].model);
          nfs_[k].counts = counts(results_[k]);
          nfs_[k].first = std::move(results_[k]);
          results_[k] = {};
        }
      } else {
        for (auto& r : results_) r = {};
      }
    }
  }

  void request(std::int64_t) override {
    std::shuffle(order_.begin(), order_.end(), rng_);
    for (const std::size_t k : order_) {
      Scope s(nfs_[k].span);
      results_[k] = synthesize(nfs_[k].name);
    }
  }

  std::string check(const RequestCtx& ctx) override {
    std::string err;
    for (std::size_t k = 0; k < nfs_.size(); ++k) {
      pipeline::PipelineResult& r = results_[k];
      const Nf& nf = nfs_[k];
      std::string text = model::to_text(r.model);
      if (ctx.corrupt && k == 0) text += "#";
      const Counts c = counts(r);
      if (err.empty()) {
        if (text != nf.model_text) {
          err = nf.name + ": model differs from the first pass";
        } else if (r.degraded()) {
          err = nf.name + ": symbolic execution degraded";
        } else if (c != nf.counts) {
          err = nf.name + ": per-request counts differ from the first pass";
        }
      }
      if (ctx.traced) {
        const auto& t = r.times;
        stage_ms_[0] += t.lower_ms;
        stage_ms_[1] += t.simplify_ms;
        stage_ms_[2] += t.slicing_ms;
        stage_ms_[3] += t.se_slice_ms;
        stage_ms_[4] += t.model_ms;
        stage_ms_[5] += t.se_orig_ms;
        solver_ns_ += static_cast<double>(r.slice_stats.solver_ns + r.orig_stats.solver_ns);
      }
      r = {};
    }
    return err;
  }

  std::vector<std::string> final_checks() override {
    // The paper's §5 accuracy test: each model agrees with the DSL
    // runtime on a seeded packet sample, including end-of-stream state.
    std::vector<std::string> out;
    for (std::size_t k = 0; k < nfs_.size(); ++k) {
      const Nf& nf = nfs_[k];
      netsim::PacketGen gen(seed_ * 1000003 + k);
      std::vector<netsim::Packet> packets = gen.batch(probe_ ? 50 : 400);
      for (int f = 0; f < (probe_ ? 1 : 8); ++f) {
        const auto flow = gen.handshake_flow(4);
        packets.insert(packets.end(), flow.begin(), flow.end());
      }
      const auto diff = verify::differential_test(*nf.first.module, nf.first.cats,
                                                  nf.first.model, packets);
      out.push_back(diff.ok() ? std::string()
                              : nf.name + ": model disagrees with the DSL runtime");
    }
    return out;
  }

  std::int64_t requests(double seconds) const override {
    return scaled(seconds, kSynthRate, 20, 2);
  }
  std::int64_t probe_requests() const override { return 2; }
  double units_per_request() const override { return static_cast<double>(nfs_.size()); }
  std::int64_t corrupt_index() const override { return 1; }
  std::uint64_t digest() const override {
    Digest d;
    for (const Nf& nf : nfs_) {
      d.add(nf.model_text);
      for (const std::uint64_t c : nf.counts) d.add(c);
    }
    return d.value();
  }

  void layer_metrics(const LayerCtx& ctx, Metrics& out) override {
    const double n = static_cast<double>(ctx.traced);
    out["lang.parse_us"] = per(ctx.timed.get("lang::parse").total_ns / 1e3, n);
    out["pipeline.lower_us"] = per(stage_ms_[0] * 1e3, n);
    out["pipeline.simplify_us"] = per(stage_ms_[1] * 1e3, n);
    out["pipeline.slice_us"] = per(stage_ms_[2] * 1e3, n);
    out["pipeline.se_slice_us"] = per(stage_ms_[3] * 1e3, n);
    out["symex.solver_us"] = per(solver_ns_ / 1e3, n);
    out["pipeline.model_us"] = per(stage_ms_[4] * 1e3, n);
    double stages_ms = 0;
    for (const double s : stage_ms_) stages_ms += s;
    out["pipeline.other_us"] =
        per(ctx.timed.get("pipeline::run").total_ns / 1e3 - stages_ms * 1e3, n);
    Counts sum{};
    for (const Nf& nf : nfs_) {
      for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += nf.counts[j];
      out["synth." + nf.name + "_us"] =
          per(ctx.timed.get("synth " + nf.name).total_ns / 1e3, n);
    }
    out["symex.paths"] = static_cast<double>(sum[0]);
    out["symex.forks"] = static_cast<double>(sum[1]);
    out["symex.steps"] = static_cast<double>(sum[2]);
    out["symex.solver_queries"] = static_cast<double>(sum[3]);
    out["lint.exprs_folded"] = static_cast<double>(sum[4]);
    out["lint.nodes_removed"] = static_cast<double>(sum[5]);
    out["model.entries"] = static_cast<double>(sum[6]);
  }

 private:
  /// Deterministic per-NF counts: paths, forks, steps, solver queries,
  /// folded expressions, removed nodes, model entries.
  using Counts = std::array<std::uint64_t, 7>;
  static Counts counts(const pipeline::PipelineResult& r) {
    return {r.slice_stats.paths_completed, r.slice_stats.forks, r.slice_stats.steps,
            r.slice_stats.solver_queries,
            static_cast<std::uint64_t>(r.simplify_stats.exprs_folded),
            static_cast<std::uint64_t>(r.simplify_stats.nodes_removed),
            r.model.entries.size()};
  }

  struct Nf {
    std::string name;
    int span = 0;
    std::string model_text;
    Counts counts{};
    pipeline::PipelineResult first;
  };

  std::mt19937_64 rng_;
  std::uint64_t seed_;
  bool probe_;
  std::vector<Nf> nfs_;
  std::vector<std::size_t> order_;
  std::vector<pipeline::PipelineResult> results_;
  std::array<double, 6> stage_ms_{};
  double solver_ns_ = 0;
};

// ---------------------------------------------------------------------------
// dataplane-*: one request is one 256-packet burst from a replayed seeded
// pool, delivered in turn to each served NF's tier-2 engine.

constexpr std::size_t kBurst = 256;

struct DataplaneSpec {
  std::vector<std::string> nfs;
  int max_payload = 64;
  int client_count = 8;
  std::size_t pool_packets = 0;
  double rate = 0;  ///< bursts per nominal second
  bool report_state = false;
};

DataplaneSpec stateful_spec() {
  return {{"nat", "lb", "firewall", "l2_switch"}, 64, 64, 65536, 180, true};
}

DataplaneSpec filter_spec() {
  return {{"snort_lite", "dpi", "synflood"}, 1400, 8, 32768, 5000, false};
}

class Dataplane : public Workload {
 public:
  Dataplane(DataplaneSpec spec, std::uint64_t seed, bool probe)
      : spec_(std::move(spec)), seed_(seed), probe_(probe) {
    if (probe_) spec_.pool_packets = 8 * kBurst;
  }

  static std::vector<MetricDef> defs(const DataplaneSpec& spec) {
    std::vector<MetricDef> d = {
        {"pipeline.run_us", "us", "lower"},
        {"dataplane.compile_us", "us", "lower"},
        {"dataplane.engine_init_us", "us", "lower"},
        {"netsim.pool_gen_us", "us", "lower"},
        {"dataplane.warmup_us", "us", "lower"},
        {"dataplane.fused_ops", "count", "higher"},
        {"dataplane.scan_ops", "count", "lower"},
        {"dataplane.fdd_nodes", "count", "lower"},
        {"dataplane.forward_share", "ratio", "higher"},
        {"dataplane.drop_share", "ratio", "lower"},
        {"dataplane.rewrite_share", "ratio", "lower"},
        {"dataplane.payload_bytes_per_burst", "bytes", "lower"},
    };
    for (const auto& nf : spec.nfs) {
      d.push_back({"dataplane." + nf + ".ns_per_packet", "ns", "lower"});
      d.push_back({"dataplane." + nf + ".generic_ops", "count", "lower"});
      if (spec.report_state) {
        d.push_back({"dataplane." + nf + ".state_entries", "count", "lower"});
      }
    }
    return d;
  }

  void setup() override {
    Tracer& t = tracer();
    static const int compile_span = t.name_id("dataplane::compile");
    static const int engine_span = t.name_id("DataplaneEngine");
    static const int pool_span = t.name_id("netsim::PacketGen");
    static const int warmup_span = t.name_id("dataplane.warmup");
    for (const auto& nf : spec_.nfs) {
      auto s = std::make_unique<Served>();
      s->name = nf;
      s->span = t.name_id("execute_batch " + nf);
      s->r = synthesize(nf);
      s->store = model::initial_store(*s->r.module);
      {
        Scope sc(compile_span);
        dataplane::CompileOptions copts;
        copts.bindings = &s->store;
        s->table = dataplane::compile(s->r.model, copts);
      }
      {
        Scope sc(engine_span);
        s->eng = std::make_unique<dataplane::DataplaneEngine>(
            s->table, s->store, dataplane::EngineOptions{dataplane::Tier::kThreaded});
      }
      served_.push_back(std::move(s));
    }
    {
      Scope sc(pool_span);
      netsim::GenConfig cfg;
      cfg.max_payload = spec_.max_payload;
      cfg.client_count = spec_.client_count;
      netsim::PacketGen gen(seed_, cfg);
      pool_ = gen.batch(static_cast<int>(spec_.pool_packets));
    }
    bursts_ = pool_.size() / kBurst;
    // Warm-up replays the whole pool once, so the flow tables hold every
    // flow before timing and later replays add none.
    Scope sc(warmup_span);
    for (std::size_t b = 0; b < bursts_; ++b) request(static_cast<std::int64_t>(b));
  }

  void request(std::int64_t i) override {
    const std::span<const netsim::Packet> burst = burst_at(i);
    for (const auto& s : served_) {
      Scope sc(s->span);
      s->out.clear();
      s->eng->execute_batch(burst, s->out);
    }
  }

  std::string check(const RequestCtx& ctx) override {
    const std::size_t b = static_cast<std::size_t>(ctx.i) % bursts_;
    const bool first_replay = static_cast<std::size_t>(ctx.i) < bursts_;
    const std::span<const netsim::Packet> burst = burst_at(ctx.i);
    std::string err;
    for (std::size_t n = 0; n < served_.size(); ++n) {
      Served& s = *served_[n];
      Verdicts v = verdicts(s.out, burst);
      if (ctx.corrupt && n == 0) ++v[0];
      if (first_replay) {
        s.ref.push_back(v);
      } else if (v != s.ref[b] && err.empty()) {
        err = s.name + ": burst " + std::to_string(b) +
              " forwarded/dropped/rewritten counts differ from the first timed replay";
      }
      if (b + 1 == bursts_) {
        const std::size_t entries = state_entries(*s.eng);
        if (first_replay) {
          s.ref_entries = entries;
        } else if (entries != s.ref_entries && err.empty()) {
          err = s.name + ": state entries changed between timed replays";
        }
      }
    }
    return err;
  }

  std::vector<std::string> final_checks() override {
    // Each compiled engine against the model interpreter on a pool
    // prefix, both starting from the initial store.
    std::vector<std::string> out;
    const std::size_t prefix = std::min<std::size_t>(pool_.size(), probe_ ? 256 : 1024);
    for (const auto& s : served_) {
      dataplane::DataplaneEngine eng(s->table, s->store,
                                     dataplane::EngineOptions{dataplane::Tier::kThreaded});
      model::ModelInterpreter interp(s->r.model, s->store);
      dataplane::BatchOutput batch;
      std::string err;
      for (std::size_t b0 = 0; b0 < prefix && err.empty(); b0 += kBurst) {
        const std::span<const netsim::Packet> burst(pool_.data() + b0,
                                                    std::min(kBurst, prefix - b0));
        batch.clear();
        eng.execute_batch(burst, batch);
        std::vector<std::vector<std::pair<netsim::Packet, int>>> sent(burst.size());
        for (const auto& send : batch.sends()) {
          sent[static_cast<std::size_t>(send.src)].emplace_back(send.packet(), send.port);
        }
        for (std::size_t j = 0; j < burst.size(); ++j) {
          const model::ModelOutput want = interp.process(burst[j]);
          if (batch.matched[j] != want.matched_entry || sent[j] != want.sent) {
            err = s->name + ": engine and model interpreter disagree on packet " +
                  std::to_string(b0 + j);
            break;
          }
        }
      }
      out.push_back(err);
    }
    return out;
  }

  std::int64_t requests(double seconds) const override {
    const auto b = static_cast<std::int64_t>(bursts_);
    return scaled(seconds, spec_.rate, 2 * b, b);
  }
  std::int64_t probe_requests() const override {
    return 2 * static_cast<std::int64_t>(bursts_);
  }
  double units_per_request() const override {
    return static_cast<double>(kBurst * spec_.nfs.size());
  }
  std::int64_t corrupt_index() const override { return static_cast<std::int64_t>(bursts_); }
  std::uint64_t digest() const override {
    Digest d;
    for (const auto& s : served_) {
      for (const Verdicts& v : s->ref) {
        for (const std::uint32_t c : v) d.add(c);
      }
      d.add(s->ref_entries);
    }
    return d.value();
  }

  void layer_metrics(const LayerCtx& ctx, Metrics& out) override {
    out["pipeline.run_us"] = ctx.setup.get("pipeline::run").total_ns / 1e3;
    out["dataplane.compile_us"] = ctx.setup.get("dataplane::compile").total_ns / 1e3;
    out["dataplane.engine_init_us"] = ctx.setup.get("DataplaneEngine").total_ns / 1e3;
    out["netsim.pool_gen_us"] = ctx.setup.get("netsim::PacketGen").total_ns / 1e3;
    out["dataplane.warmup_us"] = ctx.setup.get("dataplane.warmup").total_ns / 1e3;
    double fused = 0, scans = 0, fdd = 0, fwd = 0, drop = 0, rw = 0;
    for (const auto& s : served_) {
      const Agg a = ctx.timed.get("execute_batch " + s->name);
      out["dataplane." + s->name + ".ns_per_packet"] =
          per(a.total_ns, static_cast<double>(a.count * kBurst));
      const dataplane::ThreadedCode code = dataplane::lower_threaded(s->table);
      out["dataplane." + s->name + ".generic_ops"] = static_cast<double>(code.generic_ops);
      fused += static_cast<double>(code.fused_ops);
      scans += static_cast<double>(code.scan_ops);
      fdd += static_cast<double>(s->table.stats.nodes);
      if (spec_.report_state) {
        out["dataplane." + s->name + ".state_entries"] =
            static_cast<double>(s->ref_entries);
      }
      for (const Verdicts& v : s->ref) {
        fwd += static_cast<double>(v[0]);
        drop += static_cast<double>(v[1]);
        rw += static_cast<double>(v[2]);
      }
    }
    out["dataplane.fused_ops"] = fused;
    out["dataplane.scan_ops"] = scans;
    out["dataplane.fdd_nodes"] = fdd;
    const double deliveries = fwd + drop;
    out["dataplane.forward_share"] = per(fwd, deliveries);
    out["dataplane.drop_share"] = per(drop, deliveries);
    out["dataplane.rewrite_share"] = per(rw, deliveries);
    double bytes = 0;
    for (const auto& p : pool_) bytes += static_cast<double>(p.payload.size());
    out["dataplane.payload_bytes_per_burst"] = per(bytes, static_cast<double>(bursts_));
  }

 private:
  /// Per burst and NF: packets forwarded, packets dropped, sends whose
  /// packet differs from its input (header rewrites).
  using Verdicts = std::array<std::uint32_t, 3>;

  struct Served {
    std::string name;
    int span = 0;
    pipeline::PipelineResult r;
    std::map<std::string, runtime::Value> store;
    dataplane::CompiledTable table;  ///< outlives eng (declared first)
    std::unique_ptr<dataplane::DataplaneEngine> eng;
    dataplane::BatchOutput out;
    std::vector<Verdicts> ref;  ///< per burst, first timed replay
    std::size_t ref_entries = 0;
  };

  std::span<const netsim::Packet> burst_at(std::int64_t i) const {
    const std::size_t b = static_cast<std::size_t>(i) % bursts_;
    return {pool_.data() + b * kBurst, kBurst};
  }

  static Verdicts verdicts(const dataplane::BatchOutput& out,
                           std::span<const netsim::Packet> burst) {
    Verdicts v{};
    std::int32_t last = -1;
    for (const auto& send : out.sends()) {
      if (send.src != last) ++v[0];
      last = send.src;
      // A borrowed view is the input itself; only owned copies can differ.
      const netsim::Packet& in = burst[static_cast<std::size_t>(send.src)];
      if (&send.packet() != &in && !(send.packet() == in)) ++v[2];
    }
    v[1] = static_cast<std::uint32_t>(burst.size()) - v[0];
    return v;
  }

  static std::size_t state_entries(const dataplane::DataplaneEngine& eng) {
    std::size_t n = 0;
    for (const auto& [name, value] : eng.store()) {
      if (value.is_map()) n += value.as_map().items.size();
    }
    return n;
  }

  DataplaneSpec spec_;
  std::uint64_t seed_;
  bool probe_;
  std::vector<std::unique_ptr<Served>> served_;
  std::vector<netsim::Packet> pool_;
  std::size_t bursts_ = 0;
};

// ---------------------------------------------------------------------------
// verify: one request answers one query on examples/datacenter.topo at
// jobs 1 with a fresh SolverCache; a SAT answer also materializes and
// replays its witness. Each round asks every query once, in a seeded
// order.

constexpr double kVerifyRate = 10;  // queries per nominal second

struct KnownQuery {
  const char* spec;
  const char* expected;  ///< nfactor-topology-v1 document, relative to the root
};

const KnownQuery kTimedQueries[] = {
    {"reach cust_a web_out", "tests/golden/topology/datacenter_reach_web.json"},
    {"reach cust_b alerts_b", "perfbench/known/datacenter_reach_alerts_b.json"},
    {"reach cust_a quarantine", "perfbench/known/datacenter_reach_quarantine.json"},
    {"waypoint cust_a web_out via syn_guard", "tests/golden/topology/datacenter_waypoint.json"},
};

/// A different mode (75 frames, ~3 ms): checked once per run, untimed.
const KnownQuery kIsolateQuery = {"isolate cust_a quarantine where pkt.ip_proto != 6",
                                  "perfbench/known/datacenter_isolate_quarantine.json"};

class Verify : public Workload {
 public:
  Verify(std::string root, std::uint64_t seed, bool probe)
      : root_(std::move(root)), rng_(seed), probe_(probe) {}

  static std::vector<MetricDef> defs() {
    return {
        {"pipeline.run_us", "us", "lower"},
        {"verify.parse_topology_us", "us", "lower"},
        {"verify.run_query_us", "us", "lower"},
        {"verify.materialize_us", "us", "lower"},
        {"verify.replay_us", "us", "lower"},
        {"verify.frames", "count", "lower"},
        {"verify.infeasible", "count", "lower"},
        {"verify.cycle_pruned", "count", "lower"},
        {"verify.paths", "count", "lower"},
        {"verify.solver_queries", "count", "lower"},
        {"verify.cache_hit_rate", "ratio", "higher"},
    };
  }

  void setup() override {
    static const int topo_span = tracer().name_id("verify::parse_topology");
    const std::string text = read_file(root_ + "/examples/datacenter.topo");
    {
      Scope sc(topo_span);
      topo_ = verify::parse_topology(text, [this](const std::string& nf) {
        auto it = models_.find(nf);
        if (it == models_.end()) it = models_.emplace(nf, synthesize(nf)).first;
        return verify::NodeModels{&it->second.model, it->second.module.get()};
      });
    }
    const auto problems = topo_.validate();
    if (!problems.empty()) throw std::runtime_error("datacenter.topo: " + problems[0]);
    for (const KnownQuery& k : kTimedQueries) {
      order_.push_back(queries_.size());
      queries_.push_back(load(k));
    }
    isolate_ = load(kIsolateQuery);
    // Warm-up: one untimed round over every query.
    if (!probe_) {
      for (std::size_t i = 0; i < queries_.size(); ++i) {
        cache_ = std::make_unique<symex::SolverCache>();
        answer(queries_[i]);
        release();
      }
    }
    cache_ = std::make_unique<symex::SolverCache>();
  }

  /// Each round asks every query once, in a seeded order.
  void request(std::int64_t i) override {
    const std::size_t slot = static_cast<std::size_t>(i) % order_.size();
    if (slot == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    answer(queries_[order_[slot]]);
  }

  std::string check(const RequestCtx& ctx) override {
    Query& q = queries_[order_[static_cast<std::size_t>(ctx.i) % order_.size()]];
    std::string err = compare(q, ctx.corrupt);
    const auto& st = result_.stats;
    const Stats s = {st.frames, st.infeasible, st.cycle_pruned, st.solver_queries,
                     result_.paths.size()};
    if (!q.ref) {
      q.ref = s;
    } else if (s != *q.ref && err.empty()) {
      err = q.spec + ": per-request counts differ from the first timed request";
    }
    if (ctx.traced) {
      hits_ += static_cast<double>(st.cache_hits);
      lookups_ += static_cast<double>(st.cache_hits + st.cache_misses);
    }
    release();
    cache_ = std::make_unique<symex::SolverCache>();
    return err;
  }

  std::vector<std::string> final_checks() override {
    cache_ = std::make_unique<symex::SolverCache>();
    answer(isolate_);
    std::string err = compare(isolate_, false);
    release();
    return {err};
  }

  std::int64_t requests(double seconds) const override {
    return scaled(seconds, kVerifyRate, 8, 4);
  }
  std::int64_t probe_requests() const override { return 4; }
  int cycle() const override { return 4; }
  double units_per_request() const override { return 1; }
  std::int64_t corrupt_index() const override { return 0; }
  std::uint64_t digest() const override {
    Digest d;
    for (const Query& q : queries_) {
      if (!q.ref) continue;
      for (const std::uint64_t c : *q.ref) d.add(c);
    }
    return d.value();
  }

  void layer_metrics(const LayerCtx& ctx, Metrics& out) override {
    const double n = static_cast<double>(ctx.traced);
    out["pipeline.run_us"] = ctx.setup.get("pipeline::run").total_ns / 1e3;
    out["verify.parse_topology_us"] = ctx.setup.get("verify::parse_topology").self_ns / 1e3;
    out["verify.run_query_us"] = per(ctx.timed.get("run_query").total_ns / 1e3, n);
    out["verify.materialize_us"] = per(ctx.timed.get("materialize_witness").total_ns / 1e3, n);
    out["verify.replay_us"] = per(ctx.timed.get("replay_witness").total_ns / 1e3, n);
    Stats sum{};
    for (const Query& q : queries_) {
      if (!q.ref) continue;
      for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += (*q.ref)[j];
    }
    const double nq = static_cast<double>(queries_.size());
    out["verify.frames"] = static_cast<double>(sum[0]) / nq;
    out["verify.infeasible"] = static_cast<double>(sum[1]) / nq;
    out["verify.cycle_pruned"] = static_cast<double>(sum[2]) / nq;
    out["verify.solver_queries"] = static_cast<double>(sum[3]) / nq;
    out["verify.paths"] = static_cast<double>(sum[4]) / nq;
    out["verify.cache_hit_rate"] = per(hits_, lookups_);
  }

 private:
  /// Deterministic per-query counts: frames, infeasible, cycle-pruned,
  /// solver queries, evidence paths.
  using Stats = std::array<std::uint64_t, 5>;

  struct Query {
    std::string spec;
    verify::Query q;
    std::string expected_path;
    std::string expected;
    std::optional<Stats> ref;
  };

  Query load(const KnownQuery& k) const {
    return {k.spec, verify::parse_query(k.spec), k.expected,
            read_file(root_ + "/" + k.expected), {}};
  }

  void answer(const Query& q) {
    static const int query_span = tracer().name_id("run_query");
    static const int mat_span = tracer().name_id("materialize_witness");
    static const int replay_span = tracer().name_id("replay_witness");
    verify::QueryOptions opts;
    opts.jobs = 1;
    opts.solver_cache = cache_.get();
    {
      Scope sc(query_span);
      result_ = verify::run_query(topo_, q.q, opts);
    }
    if (!result_.sat) return;
    // verify::find_witness's walk, with each public call under its span.
    for (const verify::TopoPath& path : result_.paths) {
      std::optional<verify::Witness> w;
      {
        Scope sc(mat_span);
        w = verify::materialize_witness(topo_, result_.query, path);
      }
      if (!w) continue;
      verify::ReplayReport rep;
      {
        Scope sc(replay_span);
        rep = verify::replay_witness(topo_, *w);
      }
      if (!rep.consistent) continue;
      witness_ = std::move(w);
      replay_ = std::move(rep);
      return;
    }
  }

  /// The answer's nfactor-topology-v1 document must equal the expected
  /// one byte for byte: verdict, stats, evidence paths and witness.
  std::string compare(const Query& q, bool corrupt) {
    std::string doc = verify::topology_json(topo_, result_, witness_ ? &*witness_ : nullptr,
                                            witness_ ? &replay_ : nullptr) +
                      "\n";
    if (corrupt) doc += " ";
    if (doc != q.expected) return q.spec + ": answer differs from " + q.expected_path;
    if (result_.sat && !(witness_ && replay_.consistent)) {
      return q.spec + ": SAT answer without a consistently replayed witness";
    }
    return {};
  }

  void release() {
    result_ = {};
    witness_.reset();
    replay_ = {};
  }

  std::string root_;
  std::mt19937_64 rng_;
  bool probe_;
  std::map<std::string, pipeline::PipelineResult> models_;  ///< outlives topo_
  verify::Topology topo_;
  std::vector<Query> queries_;
  std::vector<std::size_t> order_;  ///< this round's query order
  Query isolate_;
  std::unique_ptr<symex::SolverCache> cache_;
  verify::QueryResult result_;
  std::optional<verify::Witness> witness_;
  verify::ReplayReport replay_;
  double hits_ = 0;
  double lookups_ = 0;
};

// ---------------------------------------------------------------------------
// Running a workload: set-up, timed requests, checks, results.

const char* const kWorkloads[] = {"synth", "dataplane-stateful", "dataplane-filter",
                                  "verify"};

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& o,
                                        bool probe) {
  if (name == "synth") return std::make_unique<Synth>(o.seed, probe);
  if (name == "dataplane-stateful") {
    return std::make_unique<Dataplane>(stateful_spec(), o.seed, probe);
  }
  if (name == "dataplane-filter") {
    return std::make_unique<Dataplane>(filter_spec(), o.seed, probe);
  }
  if (name == "verify") return std::make_unique<Verify>(o.root, o.seed, probe);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<MetricDef> end_to_end_defs() {
  return {{"latency_us_p50", "us", "lower"},
          {"latency_us_p90", "us", "lower"},
          {"throughput_per_s", "1/s", "higher"},
          {"setup_s", "s", "lower"},
          {"peak_rss_mb", "MiB", "lower"}};
}

/// The union of every workload's per-layer metrics, in a fixed order.
std::vector<MetricDef> layer_defs() {
  std::vector<MetricDef> all;
  const auto add = [&](const std::vector<MetricDef>& defs) {
    for (const auto& d : defs) {
      const bool seen = std::any_of(all.begin(), all.end(),
                                    [&](const MetricDef& m) { return m.name == d.name; });
      if (!seen) all.push_back(d);
    }
  };
  add(Synth::defs());
  add(Dataplane::defs(stateful_spec()));
  add(Dataplane::defs(filter_spec()));
  add(Verify::defs());
  add({{"bench.drift_ratio", "ratio", "lower"}, {"bench.trace_overhead", "ratio", "higher"}});
  return all;
}

/// Processes per untraced run. Each is a fresh process with its own
/// set-up, so a run averages over that many set-ups and memory
/// placements, and its percentiles over that many stretches of host
/// speed.
int segments(const std::string& workload) {
  return workload == "dataplane-stateful" ? 5 : 10;
}

/// One process's share of a run: one set-up, then timed requests.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages
  double setup_s = 0;
  double rss_mib = 0;
  std::uint64_t digest = 0;
  double units_per_request = 0;
  std::vector<double> latency_ns;
  std::vector<bool> traced;
  Metrics layers;
};

void record(Phase& p, const std::string& err) {
  ++p.attempted;
  if (err.empty()) return;
  ++p.failed;
  if (p.failures.size() < 5) p.failures.push_back(err);
}

Phase run_phase(const std::string& name, const Options& o, double seconds, bool probe) {
  Phase p;
  Tracer& t = tracer();
  const std::size_t span_from = t.spans.size();
  t.request = -1;
  t.on = o.trace;
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<Workload> wl = make_workload(name, o, probe);
  wl->setup();
  p.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  t.on = false;
  p.units_per_request = wl->units_per_request();
  const std::int64_t n = probe ? wl->probe_requests() : wl->requests(seconds);
  const int cycle = wl->cycle();
  std::int64_t traced = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const bool tr = o.trace && (probe || (i / cycle) % 2 == 1);
    t.request = i;
    t.on = tr;
    std::string err;
    const std::int64_t t1 = now_ns();
    try {
      wl->request(i);
    } catch (const std::exception& e) {
      err = name + " request " + std::to_string(i) + " threw: " + e.what();
    }
    const std::int64_t t2 = now_ns();
    t.on = false;
    try {
      const std::string c = wl->check({i, tr, o.corrupt && i == wl->corrupt_index()});
      if (err.empty()) err = c;
    } catch (const std::exception& e) {
      if (err.empty()) err = name + " check " + std::to_string(i) + " threw: " + e.what();
    }
    record(p, err);
    p.latency_ns.push_back(static_cast<double>(t2 - t1));
    p.traced.push_back(tr);
    traced += tr ? 1 : 0;
  }
  try {
    for (const std::string& err : wl->final_checks()) record(p, err);
  } catch (const std::exception& e) {
    record(p, name + " final check threw: " + e.what());
  }
  p.digest = wl->digest();
  if (o.trace) {
    const SpanView timed(span_from, t.spans.size(), true);
    const SpanView setup(span_from, t.spans.size(), false);
    wl->layer_metrics({timed, setup, traced}, p.layers);
  }
  return p;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

/// Runs one segment in a forked child and reads its Phase back through a
/// pipe. The parent holds no program state and has started no threads,
/// so the child starts from a clean heap.
Phase run_forked(const std::string& name, const Options& o, double seconds) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::ostringstream os;
    try {
      const Phase p = run_phase(name, o, seconds, false);
      os << std::setprecision(17) << p.attempted << ' ' << p.failed << ' ' << p.setup_s
         << ' ' << peak_rss_mib() << ' ' << p.digest << ' ' << p.units_per_request << ' '
         << p.latency_ns.size();
      for (const double x : p.latency_ns) os << ' ' << x;
      for (const auto& f : p.failures) os << '\n' << f;
    } catch (const std::exception& e) {
      os << "1 1 0 0 0 0 0\n" << name << " set-up threw: " << e.what();
    }
    write_all(fds[1], os.str());
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string data;
  char buf[65536];
  for (;;) {
    const ssize_t r = ::read(fds[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(name + " segment process died");
  }
  std::istringstream in(data);
  Phase p;
  std::size_t n = 0;
  if (!(in >> p.attempted >> p.failed >> p.setup_s >> p.rss_mib >> p.digest >>
        p.units_per_request >> n)) {
    throw std::runtime_error(name + " segment process sent no result");
  }
  p.latency_ns.resize(n);
  for (double& x : p.latency_ns) in >> x;
  p.traced.assign(n, false);
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) p.failures.push_back(line);
  return p;
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<MetricDef>& defs, const Metrics& m) {
  std::string s = "{";
  for (const auto& d : defs) {
    if (s.size() > 1) s += ", ";
    s += "\"" + d.name + "\": {\"value\": " + fmt(m.at(d.name)) + ", \"unit\": \"" +
         d.unit + "\"}";
  }
  return s + "}";
}

std::string defs_json(const std::vector<MetricDef>& defs) {
  std::string s = "[";
  for (const auto& d : defs) {
    if (s.size() > 1) s += ",\n ";
    s += "{\"name\": \"" + d.name + "\", \"unit\": \"" + d.unit + "\", \"better\": \"" +
         d.better + "\"}";
  }
  return s + "]";
}

/// Latency histogram in multiples of the median, coarse enough to show
/// a second mode at a glance.
void print_histogram(const std::vector<double>& lat, double p50) {
  const double edges[] = {0.5, 0.8, 0.9, 0.95, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0};
  std::vector<std::int64_t> counts(std::size(edges) + 1, 0);
  for (const double x : lat) {
    std::size_t b = 0;
    while (b < std::size(edges) && x >= edges[b] * p50) ++b;
    ++counts[b];
  }
  std::string e = "[", c = "[";
  for (std::size_t i = 0; i < std::size(edges); ++i) e += (i ? ", " : "") + fmt(edges[i]);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    c += (i ? ", " : "") + std::to_string(counts[i]);
  }
  std::printf("hist_vs_p50 {\"edges\": %s], \"counts\": %s]}\n", e.c_str(), c.c_str());
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const Tracer& t = tracer();
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << t.name(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << fmt(static_cast<double>(s.start_ns) / 1e3)
        << ", \"dur\": " << fmt(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: nfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "               [--root DIR] [--corrupt]\n"
               "       nfbench --list-metrics\n"
               "workloads: synth dataplane-stateful dataplane-filter verify\n");
  return 2;
}

int run(const Options& o) {
  std::vector<Phase> parts;
  if (o.trace) {
    parts.push_back(run_phase(o.workload, o, o.seconds, false));
    parts.back().rss_mib = peak_rss_mib();
  } else {
    const int k = segments(o.workload);
    for (int s = 0; s < k; ++s) parts.push_back(run_forked(o.workload, o, o.seconds / k));
  }
  Phase all;  // every segment's requests, in order
  std::vector<double> setup_s, rss;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const Phase& p = parts[s];
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.failures.insert(all.failures.end(), p.failures.begin(), p.failures.end());
    all.latency_ns.insert(all.latency_ns.end(), p.latency_ns.begin(), p.latency_ns.end());
    all.traced.insert(all.traced.end(), p.traced.begin(), p.traced.end());
    setup_s.push_back(p.setup_s);
    rss.push_back(p.rss_mib);
    if (s > 0) {
      record(all, p.digest == parts[0].digest
                      ? std::string()
                      : "segment " + std::to_string(s) + " outputs differ from segment 0's");
    }
  }
  std::int64_t attempted = all.attempted;
  std::int64_t failed = all.failed;
  std::vector<std::string> failures = all.failures;

  std::vector<double> untraced, traced;
  for (std::size_t i = 0; i < all.latency_ns.size(); ++i) {
    (all.traced[i] ? traced : untraced).push_back(all.latency_ns[i] / 1e3);
  }
  if (untraced.empty() || (o.trace && traced.empty())) {
    for (const auto& f : failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "nfbench: %s completed no timed request\n", o.workload.c_str());
    return 1;
  }
  std::printf("workload %s: seed %llu, %zu timed requests (closed loop, 1 client) in "
              "%zu process(es), one set-up each\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              all.latency_ns.size(), parts.size());
  std::string out_json;
  if (!o.trace) {
    // Each percentile is taken within each process and averaged over the
    // processes. On a shared host speed jumps between levels for seconds
    // at a time; a percentile of all requests pooled jumps with it when
    // the slow share nears that percentile, while this average moves in
    // proportion to the slow share.
    std::vector<double> p50s, p90s;
    for (const Phase& part : parts) {
      std::vector<double> us;
      for (const double x : part.latency_ns) us.push_back(x / 1e3);
      p50s.push_back(percentile(us, 0.5));
      p90s.push_back(percentile(us, 0.9));
    }
    const double p50 = mean(p50s);
    const double p90 = mean(p90s);
    const std::size_t per_process = untraced.size() / parts.size();
    double timed_s = 0;
    for (const double x : untraced) timed_s += x / 1e6;
    const double units = static_cast<double>(untraced.size()) * parts[0].units_per_request;
    Metrics m;
    m["setup_s"] = percentile(setup_s, 0.5);
    m["latency_us_p50"] = p50;
    m["latency_us_p90"] = p90;
    m["throughput_per_s"] = units / timed_s;
    m["peak_rss_mb"] = percentile(rss, 0.5);
    std::printf("  setup_s          %14.6f s     (median of n=%zu set-ups)\n", m["setup_s"],
                setup_s.size());
    std::printf("  latency_us_p50   %14.1f us    (mean over %zu processes of n=%zu requests "
                "each)\n",
                p50, parts.size(), per_process);
    std::printf("  latency_us_p90   %14.1f us    (mean over %zu processes of n=%zu requests "
                "each, %zu beyond)\n",
                p90, parts.size(), per_process, per_process / 10);
    std::printf("  throughput_per_s %14.1f 1/s   (n=%.0f units in %.3f s)\n",
                m["throughput_per_s"], units, timed_s);
    std::printf("  peak_rss_mb      %14.1f MiB   (median VmHWM of n=%zu processes)\n",
                m["peak_rss_mb"], rss.size());
    std::printf("  error_rate       %14.6f       (%lld failed / %lld attempted)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<long long>(failed), static_cast<long long>(attempted));
    std::printf("  p50 per process (us):");
    for (const double x : p50s) std::printf(" %.1f", x);
    std::printf("\n  p90 per process (us):");
    for (const double x : p90s) std::printf(" %.1f", x);
    std::printf("\n  pooled p50, p90 (us): %.1f %.1f\n", percentile(untraced, 0.5),
                percentile(untraced, 0.9));
    print_histogram(untraced, p50);
    out_json = metrics_json(end_to_end_defs(), m);
  } else {
    Metrics layers = parts[0].layers;
    const std::size_t tenth = std::max<std::size_t>(1, all.latency_ns.size() / 10);
    const std::vector<double> first(all.latency_ns.begin(), all.latency_ns.begin() + tenth);
    const std::vector<double> last(all.latency_ns.end() - tenth, all.latency_ns.end());
    layers["bench.drift_ratio"] = mean(last) / mean(first);
    layers["bench.trace_overhead"] = mean(untraced) / mean(traced);
    // Layers this workload does not exercise: one small traced probe of
    // each other workload, so every per-layer metric is measured.
    const std::size_t own_spans = tracer().spans.size();
    for (const char* other : kWorkloads) {
      if (o.workload == other) continue;
      const Phase probe = run_phase(other, o, 0, true);
      attempted += probe.attempted;
      failed += probe.failed;
      failures.insert(failures.end(), probe.failures.begin(), probe.failures.end());
      for (const auto& [k, v] : probe.layers) layers.emplace(k, v);
    }
    std::printf("per-layer metrics (traced requests: %zu of %zu; other workloads' "
                "layers from one probe each):\n",
                traced.size(), all.latency_ns.size());
    for (const auto& d : layer_defs()) {
      std::printf("  %-40s %16.3f %s\n", d.name.c_str(), layers.at(d.name), d.unit.c_str());
    }
    const SpanView own_timed(0, own_spans, true);
    std::printf("spans of timed requests (self = wall minus child spans):\n");
    std::printf("  %-32s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms",
                "mean_us");
    for (const auto& [span, a] : own_timed.all()) {
      std::printf("  %-32s %8lld %12.3f %12.3f %12.3f\n", span.c_str(),
                  static_cast<long long>(a.count), a.total_ns / 1e6, a.self_ns / 1e6,
                  a.total_ns / 1e3 / static_cast<double>(a.count));
    }
    const std::string dir = o.root + "/.bench_out";
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    write_trace(path);
    std::printf("spans written to %s\n", path.c_str());
    out_json = metrics_json(layer_defs(), layers);
  }
  for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), out_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool list = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage();
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--root") {
        o.root = value();
      } else if (a == "--corrupt") {
        o.corrupt = true;
      } else if (a == "--list-metrics") {
        list = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nfbench: %s\n", e.what());
      return usage();
    }
  }
  if (list) {
    std::printf("{\"end_to_end\": %s,\n\"per_layer\": %s}\n",
                defs_json(end_to_end_defs()).c_str(), defs_json(layer_defs()).c_str());
    return 0;
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0)) return usage();
  if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return o.workload == w; })) {
    std::fprintf(stderr, "nfbench: unknown workload '%s'\n", o.workload.c_str());
    return usage();
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfbench: %s\n", e.what());
    return 1;
  }
}
