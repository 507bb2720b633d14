// The benchmark's correctness checks must reject wrong results, not only
// accept right ones: each check is fed one deliberately wrong input here.
// The host-slowdown arithmetic that op_s is divided by is tested last.
#include <gtest/gtest.h>

#include "checks.h"
#include "host_probe.h"

namespace sbm::attackbench {
namespace {

const snow3g::Key kKey = {0x2bd6459f, 0x82c5b300, 0x952c4910, 0x4881ff48};
const snow3g::Iv kIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

std::vector<u32> clean_keystream() { return snow3g::Snow3g(kKey, kIv).keystream(16); }

TEST(AttackbenchChecks, AcceptsThePlantedKey) {
  EXPECT_EQ(check_recovered_key({kKey, kIv}, kKey, kIv, clean_keystream()), std::nullopt);
}

TEST(AttackbenchChecks, RejectsAWrongKey) {
  snow3g::Key wrong = kKey;
  wrong[2] ^= 0x10;
  EXPECT_NE(check_recovered_key({wrong, kIv}, kKey, kIv, clean_keystream()), std::nullopt);
}

TEST(AttackbenchChecks, RejectsAWrongIv) {
  snow3g::Iv wrong = kIv;
  wrong[0] ^= 1;
  EXPECT_NE(check_recovered_key({kKey, wrong}, kKey, kIv, clean_keystream()), std::nullopt);
}

TEST(AttackbenchChecks, RejectsAKeystreamTheModelDoesNotReproduce) {
  std::vector<u32> z = clean_keystream();
  z[5] ^= 0x80000000u;
  EXPECT_NE(check_recovered_key({kKey, kIv}, kKey, kIv, z), std::nullopt);
}

std::vector<std::vector<size_t>> truth() {
  std::vector<std::vector<size_t>> t(32);
  for (size_t bit = 0; bit < 32; ++bit) t[bit] = {1000 + 40 * bit};
  return t;
}

std::array<std::vector<size_t>, 32> claimants_of(const std::vector<std::vector<size_t>>& t) {
  std::array<std::vector<size_t>, 32> c;
  for (size_t bit = 0; bit < 32; ++bit) c[bit] = t[bit];
  return c;
}

TEST(AttackbenchChecks, AcceptsTheTrueClaimants) {
  EXPECT_EQ(check_claimants(claimants_of(truth()), truth()), std::nullopt);
}

TEST(AttackbenchChecks, RejectsAWrongClaimantSet) {
  auto c = claimants_of(truth());
  c[7] = {1000 + 40 * 8};  // bit 7 credited to bit 8's site
  EXPECT_NE(check_claimants(c, truth()), std::nullopt);
}

TEST(AttackbenchChecks, RejectsAnExtraSurvivingClaimant) {
  auto c = claimants_of(truth());
  c[31].push_back(5);  // an ambiguous class where the truth is unique
  EXPECT_NE(check_claimants(c, truth()), std::nullopt);
}

TEST(AttackbenchChecks, AcceptsABalancedLedger) {
  EXPECT_EQ(check_ledger({.lanes = 130, .physical = 130, .oracle = 100, .retry = 10, .vote = 15,
                          .migration = 5}),
            std::nullopt);
}

TEST(AttackbenchChecks, RejectsALedgerThatDoesNotBalance) {
  EXPECT_NE(check_ledger({.lanes = 130, .physical = 130, .oracle = 100, .retry = 10, .vote = 15,
                          .migration = 4}),
            std::nullopt);
}

TEST(AttackbenchChecks, RejectsDecoratorLanesThatDifferFromPhysicalRuns) {
  EXPECT_NE(check_ledger({.lanes = 129, .physical = 130, .oracle = 100, .retry = 10, .vote = 15,
                          .migration = 5}),
            std::nullopt);
}

TEST(AttackbenchChecks, AcceptsAStrictlyDecreasingLog2ThatEndsAtZero) {
  const std::vector<double> log2 = {61.5, 3.0, 0.0};
  EXPECT_EQ(check_log2_by_round(log2), std::nullopt);
}

TEST(AttackbenchChecks, RejectsANonDecreasingLog2ByRound) {
  const std::vector<double> log2 = {61.5, 61.5, 0.0};
  EXPECT_NE(check_log2_by_round(log2), std::nullopt);
}

TEST(AttackbenchChecks, RejectsALog2ByRoundThatDoesNotEndAtZero) {
  const std::vector<double> log2 = {61.5, 3.0, 1.0};
  EXPECT_NE(check_log2_by_round(log2), std::nullopt);
}

TEST(AttackbenchChecks, AcceptsAUniqueCrackVerdict) {
  const std::vector<double> log2 = {61.5, 3.0, 0.0};
  EXPECT_EQ(check_crack(true, claimants_of(truth()), truth(), log2), std::nullopt);
}

TEST(AttackbenchChecks, RejectsANonUniqueClaimantSetReportedAsSuccess) {
  auto c = claimants_of(truth());
  c[3].push_back(1000 + 40 * 3 + 8);  // a leftover claimant the cracker could not split
  const std::vector<double> log2 = {61.5, 3.0, 1.0};
  EXPECT_NE(check_crack(false, c, truth(), log2), std::nullopt);
}

TEST(AttackbenchChecks, RejectsAnAmbiguousVerdictWhoseClaimantsAreTrue) {
  const std::vector<double> log2 = {61.5, 3.0, 0.0};
  EXPECT_NE(check_crack(false, claimants_of(truth()), truth(), log2), std::nullopt);
}

TEST(AttackbenchHostProbe, SlowdownIsOneAtTheReferenceProbeTime) {
  const std::vector<ProbedCall> calls = {{kProbeReferenceS, 0.002}, {kProbeReferenceS, 0.5}};
  EXPECT_DOUBLE_EQ(host_slowdown(calls), 1.0);
}

TEST(AttackbenchHostProbe, SlowdownWeighsEachProbeByItsCallsTime) {
  // 3 s at slowdown 2 and 1 s at slowdown 1: (2 * 3 + 1 * 1) / 4.
  const std::vector<ProbedCall> calls = {{2 * kProbeReferenceS, 3.0}, {kProbeReferenceS, 1.0}};
  EXPECT_DOUBLE_EQ(host_slowdown(calls), 1.75);
}

TEST(AttackbenchHostProbe, SlowdownIsOneWithoutOracleTime) {
  EXPECT_DOUBLE_EQ(host_slowdown({}), 1.0);
  const std::vector<ProbedCall> instant = {{5 * kProbeReferenceS, 0.0}};
  EXPECT_DOUBLE_EQ(host_slowdown(instant), 1.0);
}

}  // namespace
}  // namespace sbm::attackbench
