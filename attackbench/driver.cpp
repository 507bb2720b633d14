// Attack / noisy / crack benchmark driver.
//
//   attackbench_driver --workload attack|noisy|crack --seed N --seconds S
//                      --trace 0|1 [--trace-out FILE]
//
// Draws victims from --seed, runs whole rounds of operations on one thread
// for S seconds, checks every result against computations made apart from
// the oracle path, and prints one JSON object as its last stdout line:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 traces every other operation, reports the
// per-layer metrics and the overhead against the untraced ones, and writes
// the benchmark's own spans as Chrome trace JSON to --trace-out.
//
// Layers are timed from outside: around fpga::build_system, around
// Attack::execute / Cracker::execute, and through an attack::Oracle
// decorator placed directly under the engine.  The decorator also runs the
// host-speed probe (host_probe.h) before every oracle call; times inside an
// operation are divided by the operation's host slowdown, and the probes'
// own time is left out of the operation's window.  In traced executions sampled
// probe images are replayed through fpga::BatchDevice and the attack's scan
// families are run over each golden image, all outside the operation's
// timed window.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attack/cracker.h"
#include "attack/oracle.h"
#include "attack/pipeline.h"
#include "attack/scan.h"
#include "checks.h"
#include "host_probe.h"
#include "common/rng.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "fpga/system.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "runtime/probe_cache.h"
#include "snow3g/snow3g.h"

namespace {

using namespace sbm;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- spans --

/// The benchmark's own spans, kept in memory and written as Chrome trace
/// JSON at exit.  A disabled log records nothing.
class SpanLog {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  SpanLog(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {}

  size_t open(std::string name) {
    if (!enabled_) return kNone;
    const size_t id = spans_.size();
    spans_.push_back(
        {std::move(name), Clock::now(), {}, stack_.empty() ? kNone : stack_.back(), {}, false});
    stack_.push_back(id);
    return id;
  }

  /// Ends span `id`; a second close of the same span is a no-op.
  void close(size_t id) {
    if (id == kNone || spans_[id].closed) return;
    spans_[id].end = Clock::now();
    spans_[id].closed = true;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  void arg(size_t id, const std::string& key, double value) {
    if (id == kNone) return;
    std::ostringstream v;
    v.precision(12);
    v << value;
    spans_[id].args.emplace_back(key, v.str());
  }

  void arg(size_t id, const std::string& key, const std::string& value) {
    if (id == kNone) return;
    spans_[id].args.emplace_back(key, "\"" + value + "\"");
  }

  bool write(const std::string& path) const {
    // Integer microseconds: start and end are each floored, so a child that
    // ends inside its parent in nanoseconds still does after rounding.
    auto us = [this](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
    };
    std::vector<size_t> order(spans_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const auto ta = us(spans_[a].start), tb = us(spans_[b].start);
      if (ta != tb) return ta < tb;
      return us(spans_[a].end) > us(spans_[b].end);
    });
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [";
    bool first = true;
    for (const size_t i : order) {
      const Span& s = spans_[i];
      const auto ts = us(s.start);
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"attackbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
          << ", \"dur\": " << (us(s.end) - ts) << ", \"args\": {\"id\": " << i;
      if (s.parent != kNone) out << ", \"parent\": " << s.parent;
      for (const auto& [k, v] : s.args) out << ", \"" << k << "\": " << v;
      out << "}}";
      first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    size_t parent = kNone;
    std::vector<std::pair<std::string, std::string>> args;
    bool closed = false;
  };
  bool enabled_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  size_t id() const { return id_; }

 private:
  SpanLog& log_;
  size_t id_;
};

// ------------------------------------------------------- oracle decorator --

struct OracleCall {
  Clock::time_point start;
  Clock::time_point end;
  size_t lanes = 0;
  size_t span = SpanLog::kNone;
  double probe_s = 0;  // the host-speed probe run just before the call
};

/// Probe images of one sampled oracle call, with what the oracle answered.
struct SampledCall {
  std::vector<std::vector<u8>> images;
  std::vector<runtime::ProbeOutcome> outcomes;
};

/// Sits between the engine and the rest of the oracle stack: runs the
/// host-speed probe before every run / run_batch call, times the call,
/// counts its lanes, and (when sampling) keeps the
/// first fpga::BatchDevice::kLanes images of every `sample_every`-th call for
/// replay.  Everything else forwards to the inner oracle, and runs() mirrors
/// the inner count so the engine's physical-run ledger is unchanged.
class TimedOracle final : public attack::Oracle {
 public:
  TimedOracle(attack::Oracle& inner, SpanLog& log, size_t sample_every)
      : inner_(inner), log_(log), sample_every_(sample_every) {
    runs_ = inner_.runs();
  }

  runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
    const double probe_s = attackbench::run_host_probe();
    const size_t span = log_.open("oracle.run");
    const auto start = Clock::now();
    runtime::ProbeOutcome out = inner_.run(bitstream, words);
    const auto end = Clock::now();
    log_.arg(span, "lanes", 1.0);
    log_.close(span);
    runs_ = inner_.runs();
    if (sampling()) {
      samples_.push_back({{std::vector<u8>(bitstream.begin(), bitstream.end())}, {out}});
    }
    calls_.push_back({start, end, 1, span, probe_s});
    return out;
  }

  std::vector<runtime::ProbeOutcome> run_batch(std::span<const std::vector<u8>> bitstreams,
                                               size_t words) override {
    const double probe_s = attackbench::run_host_probe();
    const size_t span = log_.open("oracle.run_batch");
    const auto start = Clock::now();
    std::vector<runtime::ProbeOutcome> out = inner_.run_batch(bitstreams, words);
    const auto end = Clock::now();
    log_.arg(span, "lanes", static_cast<double>(bitstreams.size()));
    log_.close(span);
    runs_ = inner_.runs();
    if (sampling() && !bitstreams.empty()) {
      const size_t n = std::min<size_t>(bitstreams.size(), fpga::BatchDevice::kLanes);
      samples_.push_back({{bitstreams.begin(), bitstreams.begin() + n},
                          {out.begin(), out.begin() + n}});
    }
    calls_.push_back({start, end, bitstreams.size(), span, probe_s});
    return out;
  }

  unsigned batch_lanes() const override { return inner_.batch_lanes(); }
  size_t internal_runs() const override { return inner_.internal_runs(); }
  void note_corruptions(size_t count) override { inner_.note_corruptions(count); }

  const std::vector<OracleCall>& calls() const { return calls_; }
  const std::vector<SampledCall>& samples() const { return samples_; }

 private:
  bool sampling() const { return sample_every_ != 0 && calls_.size() % sample_every_ == 0; }

  attack::Oracle& inner_;
  SpanLog& log_;
  size_t sample_every_ = 0;
  std::vector<OracleCall> calls_;
  std::vector<SampledCall> samples_;
};

// ---------------------------------------------------------------- victims --

enum class Workload { kAttack, kNoisy, kCrack };

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "attack") return Workload::kAttack;
  if (name == "noisy") return Workload::kNoisy;
  if (name == "crack") return Workload::kCrack;
  return std::nullopt;
}

struct Victim {
  fpga::SystemOptions options;
  snow3g::Iv iv{};
  /// Set on the noisy workload: the board's fault model.
  std::optional<faultsim::NoiseProfile> noise;
};

constexpr size_t kWords = 16;

/// One victim drawn from `rng` as the campaign draws a trial
/// (src/campaign/campaign.cpp): key x4, placement seed, IV x4.
Victim draw_from(Rng& rng, bool protected_variant) {
  Victim v;
  v.options.protected_variant = protected_variant;
  v.options.key = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  v.options.packing.placement_seed = rng.next_u64();
  v.iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  return v;
}

/// The campaign's per-trial draw: the first victim of the trial's stream.
Victim draw_victim(u64 stream_seed, bool protected_variant) {
  Rng rng(stream_seed);
  return draw_from(rng, protected_variant);
}

/// True when some bit is 0 in every one of the victim's first kWords
/// keystream words.  The z-path phase finds a keystream LUT by the one bit
/// its stuck-at-0 probe changes, so on such a victim (about 1 in 2,000,
/// 32 x 2^-16) the key-recovery attack fails with "could not identify all
/// 32 z-path LUTs" (CHANGES.md FOUND).  The cracker is not affected.
bool has_all_zero_bit(const Victim& v) {
  u32 any = 0;
  for (const u32 z : snow3g::Snow3g(v.options.key, v.iv).keystream(kWords)) any |= z;
  return any != ~u32{0};
}

/// A key-recovery victim on the default placement: drawn as the campaign
/// draws, and drawn again from the same stream while has_all_zero_bit()
/// holds, so the failed share does not depend on the seed.  Drawn
/// placements are not used: some of them lose the key on a clean board
/// (CHANGES.md FOUND), for the same reason.
Victim draw_attack_victim(u64 stream_seed) {
  Rng rng(stream_seed);
  Victim v;
  do {
    v = draw_from(rng, false);
    v.options.packing.placement_seed = fpga::SystemOptions{}.packing.placement_seed;
  } while (has_all_zero_bit(v));
  return v;
}

u64 stream_seed(u64 seed, size_t index) {
  return mix64(seed ^ (0x9e3779b97f4a7c15ull * (index + 1)));
}

/// The operations of round `round`.
///   attack: one draw_attack_victim() with key and IV drawn from the seed.
///   crack: one Section VII protected victim, key, IV and placement all
///     drawn from the seed.
///   noisy: seven operations under the mild profile with the adaptive
///     controller (one round outlasts the default run length, so a noisy
///     run is one round unless the host is unusually fast) --
///     0. the fixed trial `campaign --seed 0x1234 --noise mild --controller
///        adaptive` (trial 0: its victim and its noise stream).  It loses the
///        key every time, so it is one failed operation per round on inputs
///        that do not depend on the seed;
///     1-6. draw_attack_victim()s on the default mild noise stream.  The
///        probe sequence does not depend on the key and IV, so these repeat
///        the same physical work on fresh secrets.
constexpr size_t kNoisySeeded = 6;

std::vector<Victim> round_victims(Workload w, u64 seed, size_t round) {
  switch (w) {
    case Workload::kAttack:
      return {draw_attack_victim(stream_seed(seed, round))};
    case Workload::kCrack:
      return {draw_victim(stream_seed(seed, round), true)};
    case Workload::kNoisy: {
      const u64 trial_seed = stream_seed(0x1234, 0);
      Victim fixed = draw_victim(trial_seed, false);
      fixed.noise = faultsim::NoiseProfile::mild();
      fixed.noise->seed = mix64(fixed.noise->seed ^ trial_seed);
      std::vector<Victim> out = {fixed};
      for (size_t j = 0; j < kNoisySeeded; ++j) {
        Victim seeded = draw_attack_victim(stream_seed(seed, round * kNoisySeeded + j));
        seeded.noise = faultsim::NoiseProfile::mild();
        out.push_back(seeded);
      }
      return out;
    }
  }
  return {};
}

// ------------------------------------------------------------- operations --

constexpr std::array<const char*, 6> kPhases = {"setup",   "z-path", "beta",
                                                "feedback", "alpha2", "extract"};
constexpr size_t kFeedbackPhase = 3;
/// Every 4th oracle call of a traced execution is replayed (first 64 lanes).
constexpr size_t kSampleEvery = 4;

struct OpRecord {
  bool success = false;
  std::string failure;               // the engine's reason when !success
  std::optional<std::string> wrong;  // a correctness check failed
  // Raw wall times of the operation's window, probes left out.
  double wall_s = 0;
  double oracle_s = 0;
  double feedback_oracle_s = 0;
  double probe_s = 0;    // the probes' own time inside the window
  double slowdown = 1;   // attackbench::host_slowdown over the oracle calls
  size_t calls = 0;
  size_t lanes = 0;
  size_t single_lane_calls = 0;
  size_t reconfigs = 0;
  size_t physical = 0;
  size_t retry = 0;
  size_t vote = 0;
  size_t migration = 0;
  size_t cache_hits = 0;
  size_t corruptions = 0;
  size_t rounds = 0;
  std::array<size_t, 6> phase_runs{};
  // Traced executions only, measured outside the operation's window.
  double scan_s = 0;
  double configure_s = 0;
  size_t configured_lanes = 0;
  double simulate_s = 0;
  size_t simulate_calls = 0;
};

/// Index into kPhases of every oracle call, from the program's own
/// "attack/<phase>" spans (obs tracer), by the call's midpoint.  -1 where a
/// call falls outside every phase span.
std::vector<int> phases_from_obs(const std::vector<OracleCall>& calls, std::int64_t offset_us) {
  struct Window {
    u64 begin, end;
    int phase;
  };
  std::vector<Window> windows;
  for (const obs::TraceEvent& e : obs::Tracer::global().events()) {
    if (e.ph != 'X' || std::string_view(e.cat) != "attack") continue;
    for (size_t p = 0; p < kPhases.size(); ++p) {
      if (std::string_view(e.name) == kPhases[p]) {
        windows.push_back({e.ts_us, e.ts_us + e.dur_us, static_cast<int>(p)});
      }
    }
  }
  std::vector<int> phase(calls.size(), -1);
  for (size_t c = 0; c < calls.size(); ++c) {
    const auto mid = calls[c].start + (calls[c].end - calls[c].start) / 2;
    const std::int64_t t =
        std::chrono::duration_cast<std::chrono::microseconds>(mid.time_since_epoch()).count() +
        offset_us;
    for (const Window& w : windows) {
      if (t >= static_cast<std::int64_t>(w.begin) && t <= static_cast<std::int64_t>(w.end)) {
        phase[c] = w.phase;
      }
    }
  }
  return phase;
}

/// Index into kPhases of every oracle call from the clean-run phase ledger:
/// with no retries or votes every lane is one logical probe, so the calls
/// partition exactly along AttackResult::phase_runs.  nullopt when a call
/// straddles a phase boundary (the ledger and the calls disagree).
std::optional<std::vector<int>> phases_from_ledger(const std::vector<OracleCall>& calls,
                                                   const std::array<size_t, 6>& phase_runs) {
  std::vector<int> phase(calls.size(), -1);
  size_t p = 0, phase_end = phase_runs[0], seen = 0;
  for (size_t c = 0; c < calls.size(); ++c) {
    while (p + 1 < phase_runs.size() && seen >= phase_end) phase_end += phase_runs[++p];
    seen += calls[c].lanes;
    if (seen > phase_end) return std::nullopt;
    phase[c] = static_cast<int>(p);
  }
  return phase;
}

/// Replays the sampled probe images through a fresh 64-lane BatchDevice per
/// call: configure_lane per image, then one keystream run.  On a noise-free
/// oracle every replayed lane must answer exactly as the oracle did.
void replay_samples(const fpga::System& sys, const snow3g::Iv& iv,
                    const std::vector<SampledCall>& samples, bool compare, SpanLog& log,
                    OpRecord& rec) {
  for (const SampledCall& call : samples) {
    fpga::BatchDevice dev = sys.make_batch_device();
    const unsigned lanes = static_cast<unsigned>(call.images.size());
    std::vector<bool> accepted(lanes);
    {
      ScopedSpan span(log, "fpga.configure_lane");
      log.arg(span.id(), "lanes", static_cast<double>(lanes));
      const auto t0 = Clock::now();
      for (unsigned lane = 0; lane < lanes; ++lane) {
        accepted[lane] = dev.configure_lane(lane, call.images[lane]);
      }
      rec.configure_s += seconds_between(t0, Clock::now());
    }
    rec.configured_lanes += lanes;
    std::vector<std::optional<std::vector<u32>>> ks;
    {
      ScopedSpan span(log, "fpga.keystream");
      log.arg(span.id(), "lanes", static_cast<double>(lanes));
      const auto t0 = Clock::now();
      ks = dev.keystream(iv, kWords, lanes);
      rec.simulate_s += seconds_between(t0, Clock::now());
    }
    ++rec.simulate_calls;
    if (!compare || rec.wrong) continue;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const runtime::ProbeOutcome& o = call.outcomes[lane];
      const bool same = o.ok() ? (accepted[lane] && ks[lane] && *ks[lane] == o.value())
                               : (!accepted[lane] && o.error() == runtime::ProbeError::kRejected);
      if (!same) {
        rec.wrong = "BatchDevice replay disagrees with the oracle on a sampled lane";
        break;
      }
    }
  }
}

/// Runs the attack's three scan families over the golden image.
double time_golden_scans(const fpga::System& sys, SpanLog& log) {
  double total = 0;
  const std::array<std::pair<const char*, const std::vector<logic::Candidate>*>, 3> families = {
      {{"keystream", &attack::keystream_family()},
       {"mux", &attack::mux_scan_family()},
       {"feedback", &attack::feedback_family()}}};
  for (const auto& [name, family] : families) {
    ScopedSpan span(log, "attack.scan_family");
    log.arg(span.id(), "family", std::string(name));
    const auto t0 = Clock::now();
    const auto counts = attack::scan_family(sys.golden.bytes, *family);
    total += seconds_between(t0, Clock::now());
    size_t matches = 0;
    for (const auto& c : counts) matches += c.count();
    log.arg(span.id(), "matches", static_cast<double>(matches));
  }
  return total;
}

/// Oracle totals and the host slowdown of one operation; `window_s` is the
/// operation's wall time with the probes still in it.
void summarize_calls(const TimedOracle& timed, double window_s, OpRecord& rec) {
  std::vector<attackbench::ProbedCall> probed;
  for (const OracleCall& c : timed.calls()) {
    const double call_s = seconds_between(c.start, c.end);
    rec.oracle_s += call_s;
    rec.probe_s += c.probe_s;
    rec.lanes += c.lanes;
    rec.single_lane_calls += c.lanes == 1 ? 1 : 0;
    probed.push_back({c.probe_s, call_s});
  }
  rec.calls = timed.calls().size();
  rec.wall_s = window_s - rec.probe_s;
  rec.slowdown = attackbench::host_slowdown(probed);
}

/// One key recovery (attack / noisy).  Times oracle construction through
/// Attack::execute; checks and traced extras run after the window closes.
OpRecord run_attack_op(const Victim& v, const fpga::System& sys,
                       std::span<const u32> clean_keystream, bool traced, SpanLog& log) {
  OpRecord rec;
  SpanLog off(false, Clock::now());
  SpanLog& spans = traced ? log : off;
  std::int64_t obs_offset_us = 0;
  if (traced) {
    obs::Tracer::global().clear();
    obs::set_mode(obs::Mode::kTrace);
    const auto now = Clock::now();
    obs_offset_us = static_cast<std::int64_t>(obs::Tracer::global().now_us()) -
                    std::chrono::duration_cast<std::chrono::microseconds>(now.time_since_epoch())
                        .count();
  }

  runtime::ProbeCache cache;
  attack::PipelineConfig cfg;
  cfg.words = kWords;
  cfg.iv = v.iv;
  cfg.cache = &cache;
  if (v.noise) {
    cfg.retry = runtime::RetryPolicy::voting(3);
    cfg.controller = runtime::ControllerKind::kAdaptive;
    cfg.adaptive = faultsim::adaptive_config_for(*v.noise, kWords);
  }

  const auto t0 = Clock::now();
  ScopedSpan op_span(spans, "attack.execute");
  attack::DeviceOracle device(sys, v.iv);
  std::optional<faultsim::FaultyOracle> faulty;
  if (v.noise) faulty.emplace(device, *v.noise);
  TimedOracle timed(faulty ? static_cast<attack::Oracle&>(*faulty) : device, spans,
                    traced ? kSampleEvery : 0);
  attack::Attack attack(timed, sys.golden.bytes, cfg);
  const attack::AttackResult res = attack.execute();
  spans.close(op_span.id());
  const double window_s = seconds_between(t0, Clock::now());
  if (traced) obs::set_mode(obs::Mode::kOff);

  summarize_calls(timed, window_s, rec);
  rec.success = res.success;
  rec.failure = res.failure;
  rec.reconfigs = res.oracle_runs;
  rec.physical = res.physical_runs;
  rec.retry = res.retry_runs;
  rec.vote = res.vote_runs;
  rec.migration = res.migration_runs;
  rec.cache_hits = res.cache_hits;
  if (faulty) rec.corruptions = faulty->injected_flips() + faulty->injected_truncations();
  for (const auto& [name, runs] : res.phase_runs) {
    for (size_t p = 0; p < kPhases.size(); ++p) {
      if (name == kPhases[p]) rec.phase_runs[p] = runs;
    }
  }

  rec.wrong = attackbench::check_ledger({rec.lanes, rec.physical, rec.reconfigs, rec.retry,
                                         rec.vote, rec.migration});
  if (!rec.wrong && res.success) {
    rec.wrong =
        attackbench::check_recovered_key(res.secrets, v.options.key, v.iv, clean_keystream);
  }
  if (!traced) return rec;

  // Phase attribution: the program's phase spans everywhere, cross-checked
  // against the exact ledger split on the noise-free workload.
  std::vector<int> phase = phases_from_obs(timed.calls(), obs_offset_us);
  if (!v.noise && res.success && !rec.wrong) {
    const auto exact = phases_from_ledger(timed.calls(), rec.phase_runs);
    if (!exact || *exact != phase) {
      rec.wrong = "oracle calls do not partition along AttackResult::phase_runs";
    }
  }
  for (size_t c = 0; c < phase.size(); ++c) {
    const OracleCall& call = timed.calls()[c];
    if (phase[c] == static_cast<int>(kFeedbackPhase)) {
      rec.feedback_oracle_s += seconds_between(call.start, call.end);
    }
    if (phase[c] >= 0) log.arg(call.span, "phase", std::string(kPhases[phase[c]]));
  }
  {
    ScopedSpan span(log, "replay");
    replay_samples(sys, v.iv, timed.samples(), !v.noise, log, rec);
  }
  rec.scan_s = time_golden_scans(sys, log);
  return rec;
}

/// One crack to a verdict on a plain protected victim.
OpRecord run_crack_op(const Victim& v, const fpga::System& sys, bool traced, SpanLog& log) {
  OpRecord rec;
  SpanLog off(false, Clock::now());
  SpanLog& spans = traced ? log : off;

  runtime::ProbeCache cache;
  attack::CrackerConfig cfg;
  cfg.words = kWords;
  cfg.cache = &cache;

  const auto t0 = Clock::now();
  ScopedSpan op_span(spans, "cracker.execute");
  attack::DeviceOracle device(sys, v.iv);
  TimedOracle timed(device, spans, traced ? kSampleEvery : 0);
  attack::Cracker cracker(timed, sys.golden.bytes, cfg);
  const attack::CrackResult res = cracker.execute();
  spans.close(op_span.id());
  summarize_calls(timed, seconds_between(t0, Clock::now()), rec);
  rec.success = res.success;
  rec.failure = res.failure;
  rec.reconfigs = res.adaptive_probes;
  rec.physical = timed.runs();
  rec.retry = res.retry_stats.retry_runs;
  rec.vote = res.retry_stats.vote_runs;
  rec.migration = timed.internal_runs();
  rec.cache_hits = res.cache_hits;
  rec.rounds = res.rounds;

  rec.wrong = attackbench::check_ledger({rec.lanes, rec.physical, rec.reconfigs, rec.retry,
                                         rec.vote, rec.migration});
  if (!rec.wrong && rec.success) {
    rec.wrong = attackbench::check_crack(res.unique, res.claimant_bytes, sys.crack_truth(),
                                         res.log2_by_round);
  }
  if (!traced) return rec;

  // The cracker's counterpart of the feedback phase: its hypothesis rounds,
  // one run_batch call each on a noise-free board -- the last `rounds`
  // calls of the operation.
  const auto& calls = timed.calls();
  const size_t first_round = calls.size() - std::min(calls.size(), res.rounds);
  for (size_t c = first_round; c < calls.size(); ++c) {
    rec.feedback_oracle_s += seconds_between(calls[c].start, calls[c].end);
    log.arg(calls[c].span, "phase", std::string("rounds"));
  }
  {
    ScopedSpan span(log, "replay");
    replay_samples(sys, v.iv, timed.samples(), true, log, rec);
  }
  rec.scan_s = time_golden_scans(sys, log);
  return rec;
}

// ---------------------------------------------------------------- metrics --

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<OpRecord>& ops, F f) {
  std::vector<double> v;
  for (const OpRecord& r : ops) v.push_back(static_cast<double>(f(r)));
  return median(std::move(v));
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  Workload workload = Workload::kAttack;
  std::string workload_name;
  u64 seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "attackbench_driver: %s\nusage: attackbench_driver --workload attack|noisy|crack "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        const auto w = parse_workload(val);
        if (!w) usage("unknown workload '" + val + "'");
        a.workload = *w;
        a.workload_name = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val, nullptr, 0);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": '" + val + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  obs::set_mode(obs::Mode::kOff);
  SpanLog log(args.trace, process_start);

  try {
    // Set-up: compile the scan indexes every operation shares and build the
    // first round's victims, then start timing operations.
    std::vector<double> build_s;
    // A System must not move after build_system: its snapshot's simulation
    // tape points into the System's own netlist.  new-expression
    // initialisation from the returned prvalue constructs it in place.
    auto build = [&](const Victim& v) {
      ScopedSpan span(log, "fpga.build_system");
      const auto t0 = Clock::now();
      std::unique_ptr<fpga::System> sys(new fpga::System(fpga::build_system(v.options)));
      build_s.push_back(seconds_between(t0, Clock::now()));
      return sys;
    };
    attack::warm_scan_indexes();
    std::vector<Victim> victims = round_victims(args.workload, args.seed, 0);
    std::vector<std::unique_ptr<fpga::System>> systems;
    for (const Victim& v : victims) systems.push_back(build(v));
    const double setup_s = seconds_between(process_start, Clock::now());

    std::vector<OpRecord> ops;
    std::vector<OpRecord> traced_ops;
    size_t attempted = 0, failed = 0;
    std::optional<std::string> wrong;
    std::map<std::string, size_t> failures;
    const auto measure_start = Clock::now();
    for (size_t round = 0;; ++round) {
      if (round > 0) {
        victims = round_victims(args.workload, args.seed, round);
        systems.clear();
        for (const Victim& v : victims) systems.push_back(build(v));
      }
      for (size_t k = 0; k < victims.size(); ++k) {
        const Victim& v = victims[k];
        const fpga::System& sys = *systems[k];
        std::vector<u32> clean;
        if (args.workload != Workload::kCrack) {
          fpga::Device dev = sys.make_device();
          if (!dev.configure(sys.golden.bytes)) throw std::runtime_error("golden image rejected");
          clean = dev.keystream(v.iv, kWords);
        }
        // A traced run traces every other operation, so the untraced ones
        // in between give the tracing overhead from the same process.
        const bool traced = args.trace && attempted % 2 == 0;
        ScopedSpan span(log, "operation");
        log.arg(span.id(), "round", static_cast<double>(round));
        log.arg(span.id(), "traced", traced ? 1.0 : 0.0);
        OpRecord rec = args.workload == Workload::kCrack
                           ? run_crack_op(v, sys, traced, log)
                           : run_attack_op(v, sys, clean, traced, log);
        ++attempted;
        std::fprintf(stderr,
                     "op %zu round %zu%s: %.4f s (raw %.4f s, host slowdown %.3f), oracle %.4f s, "
                     "%zu reconfigs, %zu physical%s\n",
                     attempted, round, traced ? " traced" : "", rec.wall_s / rec.slowdown,
                     rec.wall_s, rec.slowdown, rec.oracle_s, rec.reconfigs, rec.physical,
                     rec.success ? "" : ", FAILED");
        if (rec.wrong && !wrong) wrong = rec.wrong;
        if (!rec.success) {
          ++failed;
          ++failures[rec.failure];
          continue;
        }
        (traced ? traced_ops : ops).push_back(rec);
      }
      if (seconds_between(measure_start, Clock::now()) >= args.seconds) break;
    }
    const bool correct = !wrong;
    if (wrong) std::fprintf(stderr, "attackbench: check failed: %s\n", wrong->c_str());

    // Times inside an operation's window are divided by its host slowdown;
    // the raw figures are printed beside them.
    auto normalised = [](const OpRecord& r) { return r.wall_s / r.slowdown; };
    auto raw = [](const OpRecord& r) { return r.wall_s; };
    auto slowdown = [](const OpRecord& r) { return r.slowdown; };
    std::vector<Metric> metrics;
    if (!args.trace) {
      std::printf("raw op wall time median %.6f s, host slowdown median %.4f\n",
                  median_of(ops, raw), median_of(ops, slowdown));
      metrics = {
          {"setup_s", setup_s, "s"},
          {"op_s", median_of(ops, normalised), "s"},
          {"reconfigs_per_op", median_of(ops, [](const OpRecord& r) { return r.reconfigs; }),
           "count"},
          {"physical_runs_per_op",
           median_of(ops, [](const OpRecord& r) { return r.physical; }), "count"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"},
      };
    } else {
      const std::vector<OpRecord>& t = traced_ops;
      double oracle_sum = 0, configure_sum = 0, simulate_sum = 0;
      size_t lanes = 0, calls = 0, configured = 0, simulated = 0, physical = 0, logical = 0;
      for (const OpRecord& r : t) {
        oracle_sum += r.oracle_s / r.slowdown;
        configure_sum += r.configure_s;
        simulate_sum += r.simulate_s;
        lanes += r.lanes;
        calls += r.calls;
        configured += r.configured_lanes;
        simulated += r.simulate_calls;
        physical += r.physical;
        logical += r.reconfigs;
      }
      auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
      const double traced_op = median_of(t, normalised);
      const double untraced_op = median_of(ops, normalised);
      metrics = {
          {"fpga.build_system_s", median(build_s), "s"},
          {"attack.oracle_s",
           median_of(t, [](const OpRecord& r) { return r.oracle_s / r.slowdown; }), "s"},
          {"attack.host_s",
           median_of(t, [](const OpRecord& r) { return (r.wall_s - r.oracle_s) / r.slowdown; }),
           "s"},
          {"attack.feedback.oracle_s",
           median_of(t, [](const OpRecord& r) { return r.feedback_oracle_s / r.slowdown; }), "s"},
      };
      for (size_t p = 0; p < kPhases.size(); ++p) {
        metrics.push_back({std::string("attack.phase_reconfigs.") + kPhases[p],
                           median_of(t, [p](const OpRecord& r) { return r.phase_runs[p]; }),
                           "count"});
      }
      const std::vector<Metric> rest = {
          {"attack.scan_s", median_of(t, [](const OpRecord& r) { return r.scan_s; }), "s"},
          {"attack.oracle.calls_per_op", median_of(t, [](const OpRecord& r) { return r.calls; }),
           "count"},
          {"attack.oracle.lanes_per_call", ratio(static_cast<double>(lanes), calls),
           "lanes/call"},
          {"attack.oracle.single_lane_calls_per_op",
           median_of(t, [](const OpRecord& r) { return r.single_lane_calls; }), "count"},
          {"attack.oracle.us_per_lane", 1e6 * ratio(oracle_sum, lanes), "us/lane"},
          {"fpga.configure_us_per_lane", 1e6 * ratio(configure_sum, configured), "us/lane"},
          {"fpga.simulate_ms_per_call", 1e3 * ratio(simulate_sum, simulated), "ms/call"},
          {"runtime.cache_hits_per_op",
           median_of(t, [](const OpRecord& r) { return r.cache_hits; }), "count"},
          {"runtime.reads_per_probe", ratio(static_cast<double>(physical), logical),
           "reads/probe"},
          {"runtime.vote_runs_per_op", median_of(t, [](const OpRecord& r) { return r.vote; }),
           "count"},
          {"runtime.retry_runs_per_op", median_of(t, [](const OpRecord& r) { return r.retry; }),
           "count"},
          {"faultsim.corruptions_per_op",
           median_of(t, [](const OpRecord& r) { return r.corruptions; }), "count"},
          {"attack.crack.rounds", median_of(t, [](const OpRecord& r) { return r.rounds; }),
           "count"},
          {"trace.op_s", traced_op, "s"},
          {"trace.op_raw_s", median_of(t, raw), "s"},
          {"host.slowdown", median_of(t, slowdown), "x"},
          {"trace.overhead_ratio", ratio(traced_op, untraced_op), "x"},
      };
      metrics.insert(metrics.end(), rest.begin(), rest.end());
      if (!args.trace_out.empty() && !log.write(args.trace_out)) {
        throw std::runtime_error("cannot write trace to " + args.trace_out);
      }
    }

    std::printf("workload %s seed %llu: %zu operations attempted, %zu failed, checks %s\n",
                args.workload_name.c_str(), static_cast<unsigned long long>(args.seed), attempted, failed,
                correct ? "passed" : "FAILED");
    for (const auto& [why, n] : failures) std::printf("  failed %zu x: %s\n", n, why.c_str());
    for (const Metric& m : metrics) {
      std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::ostringstream json;
    json.precision(10);
    json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "attackbench: %s\n", e.what());
    return 1;
  }
}
