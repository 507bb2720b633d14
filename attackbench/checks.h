// Correctness checks the benchmark applies to every operation it times.
//
// Each check compares an engine result against a computation made apart
// from the oracle path (the planted secrets, the SNOW 3G software model,
// the victim's construction ground truth, the decorator's own lane count)
// and returns an explanation when the result is wrong, nullopt when it
// holds.  They live apart from the driver so the tests next to them can
// feed each one a deliberately wrong input.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "snow3g/reverse.h"
#include "snow3g/snow3g.h"

namespace sbm::attackbench {

/// The recovered secrets equal the planted ones, and the software model run
/// with the recovered key and IV reproduces `clean_keystream` (the
/// unmodified victim's keystream, read from the scalar reference device).
std::optional<std::string> check_recovered_key(const snow3g::RecoveredSecrets& recovered,
                                               const snow3g::Key& planted_key,
                                               const snow3g::Iv& planted_iv,
                                               std::span<const u32> clean_keystream);

/// Every bit's surviving claimants equal the victim's ground truth
/// (fpga::System::crack_truth()); both sides are compared as sorted sets.
std::optional<std::string> check_claimants(
    const std::array<std::vector<size_t>, 32>& claimants,
    const std::vector<std::vector<size_t>>& truth);

/// Physical-run accounting of one operation.  `lanes` is what the
/// benchmark's oracle decorator counted; the rest is what the engine and the
/// oracle stack report.
struct Ledger {
  size_t lanes = 0;
  size_t physical = 0;
  size_t oracle = 0;
  size_t retry = 0;
  size_t vote = 0;
  size_t migration = 0;
};

/// lanes == physical and physical == oracle + retry + vote + migration.
std::optional<std::string> check_ledger(const Ledger& ledger);

/// The cracker's hypothesis measure strictly decreases round by round and
/// ends at exactly 0 (a unique assignment).
std::optional<std::string> check_log2_by_round(std::span<const double> log2_by_round);

/// A crack that ran to a verdict (CrackResult::success) on a plain protected
/// victim, whose ground truth is one claimant per bit: the claimants equal
/// the truth, the verdict is unique, and log2_by_round strictly decreases to
/// 0.  A verdict that is not unique here is a wrong answer, not a failure.
std::optional<std::string> check_crack(bool unique,
                                       const std::array<std::vector<size_t>, 32>& claimants,
                                       const std::vector<std::vector<size_t>>& truth,
                                       std::span<const double> log2_by_round);

}  // namespace sbm::attackbench
