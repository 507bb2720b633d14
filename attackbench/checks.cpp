#include "checks.h"

#include <algorithm>

namespace sbm::attackbench {

std::optional<std::string> check_recovered_key(const snow3g::RecoveredSecrets& recovered,
                                               const snow3g::Key& planted_key,
                                               const snow3g::Iv& planted_iv,
                                               std::span<const u32> clean_keystream) {
  if (recovered.key != planted_key) return "recovered key differs from the planted key";
  if (recovered.iv != planted_iv) return "recovered IV differs from the planted IV";
  if (clean_keystream.empty()) return "no clean keystream to compare against";
  snow3g::Snow3g model(recovered.key, recovered.iv);
  const std::vector<u32> z = model.keystream(clean_keystream.size());
  if (!std::equal(z.begin(), z.end(), clean_keystream.begin(), clean_keystream.end())) {
    return "software model with the recovered key/IV does not reproduce the victim keystream";
  }
  return std::nullopt;
}

std::optional<std::string> check_claimants(
    const std::array<std::vector<size_t>, 32>& claimants,
    const std::vector<std::vector<size_t>>& truth) {
  if (truth.size() != claimants.size()) return "ground truth does not cover 32 bits";
  for (size_t bit = 0; bit < claimants.size(); ++bit) {
    std::vector<size_t> got = claimants[bit];
    std::vector<size_t> want = truth[bit];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) return "claimants of bit " + std::to_string(bit) + " differ from the truth";
  }
  return std::nullopt;
}

std::optional<std::string> check_ledger(const Ledger& l) {
  if (l.lanes != l.physical) {
    return "decorator counted " + std::to_string(l.lanes) + " lanes but the result reports " +
           std::to_string(l.physical) + " physical runs";
  }
  const size_t sum = l.oracle + l.retry + l.vote + l.migration;
  if (l.physical != sum) {
    return "ledger does not balance: physical " + std::to_string(l.physical) +
           " != oracle + retry + vote + migration " + std::to_string(sum);
  }
  return std::nullopt;
}

std::optional<std::string> check_log2_by_round(std::span<const double> log2_by_round) {
  if (log2_by_round.empty()) return "no rounds recorded";
  for (size_t r = 1; r < log2_by_round.size(); ++r) {
    if (!(log2_by_round[r] < log2_by_round[r - 1])) {
      return "log2_by_round does not strictly decrease at round " + std::to_string(r);
    }
  }
  if (log2_by_round.back() != 0.0) return "log2_by_round does not end at 0";
  return std::nullopt;
}

std::optional<std::string> check_crack(bool unique,
                                       const std::array<std::vector<size_t>, 32>& claimants,
                                       const std::vector<std::vector<size_t>>& truth,
                                       std::span<const double> log2_by_round) {
  if (auto wrong = check_claimants(claimants, truth)) return wrong;
  if (!unique) return "verdict is not unique although the ground truth is";
  return check_log2_by_round(log2_by_round);
}

}  // namespace sbm::attackbench
