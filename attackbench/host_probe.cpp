#include "host_probe.h"

#include <chrono>
#include <cstdint>

namespace sbm::attackbench {
namespace {

using Clock = std::chrono::steady_clock;
using u64 = std::uint64_t;
using V8 = u64 __attribute__((vector_size(64)));

volatile u64 g_sink;

/// Eight independent shift/xor/add chains: scalar ALU throughput.
__attribute__((noinline)) u64 scalar_chains(u64 seed) {
  u64 a = seed, b = seed + 1, c = seed + 2, d = seed + 3;
  u64 e = seed + 4, f = seed + 5, g = seed + 6, h = seed + 7;
  for (int i = 0; i < 4000; ++i) {
    a ^= a << 13;
    b ^= b >> 7;
    c ^= c << 17;
    d ^= d >> 5;
    e += a ^ b;
    f += c ^ d;
    g ^= e + f;
    h += g >> 3;
  }
  return a + b + c + d + e + f + g + h;
}

/// Twelve independent 512-bit bitwise chains: wide-vector throughput, the
/// kind of work the batch simulators do.  Built for AVX-512 where the CPU
/// has it, for the baseline ISA elsewhere.
__attribute__((noinline, target_clones("avx512f", "default"))) u64 vector_chains(u64 seed) {
  V8 r[12];
  for (int k = 0; k < 12; ++k) r[k] = V8{} + (seed + 0x9e3779b97f4a7c15ull * (k + 1));
  const V8 m = V8{} + 0x5555u;
  for (int i = 0; i < 1500; ++i) {
    for (int k = 0; k < 12; ++k) r[k] = r[k] ^ r[(k + 1) % 12] ^ m;
  }
  u64 s = 0;
  for (int k = 0; k < 12; ++k) {
    for (int j = 0; j < 8; ++j) s += r[k][j];
  }
  return s;
}

}  // namespace

double run_host_probe() {
  const auto t0 = Clock::now();
  const u64 seed = g_sink;
  g_sink = scalar_chains(seed) + vector_chains(seed);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double host_slowdown(std::span<const ProbedCall> calls) {
  double weighted = 0, total = 0;
  for (const ProbedCall& c : calls) {
    weighted += (c.probe_s / kProbeReferenceS) * c.call_s;
    total += c.call_s;
  }
  return total > 0 ? weighted / total : 1.0;
}

}  // namespace sbm::attackbench
