// Word-at-a-time diff of the cluster's packed pod-state table.
//
// The invariant checker audits every pod byte that changed since the last
// audit, every live byte (Starting/Running: progress and residency move
// without a state edge) and every out-of-range byte. Everything else — a
// frozen Pending/Completed/Crashed/Evicted pod — needs no work, and on a
// long run that is nearly every pod ever submitted. PodStateScan keeps the
// previous audit's table and its per-state histogram, compares the two
// tables eight bytes at a time, and hands only the bytes that need work to
// the caller, in index order. The histogram and the mirror are patched
// from those same bytes, so an audit costs O(n / 8) word compares plus
// O(bytes that need work).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/pod.hpp"
#include "core/check.hpp"

namespace knots::verify {

/// Packed states in range: one per cluster::PodState enumerator.
inline constexpr std::size_t kPodStateCount = 6;
static_assert(static_cast<std::size_t>(cluster::PodState::kEvicted) + 1 ==
              kPodStateCount);

class PodStateScan {
 public:
  /// Count of mirror bytes per in-range state (out-of-range bytes are in
  /// no bucket).
  using Histogram = std::array<std::size_t, kPodStateCount>;

  /// Calls visit(index, prev, cur) for every byte of `table` that differs
  /// from the mirror, is live, or is >= kPodStateCount, in ascending index
  /// order; `prev` is the mirror byte. Every other byte is skipped. On
  /// return the mirror equals `table` and histogram() counts it. Pods are
  /// never removed, so `table` is at least as long as the mirror; indices
  /// past the mirror's old length compare against Pending, the state every
  /// pod is constructed in.
  template <typename Visit>
  void scan(std::span<const std::uint8_t> table, Visit&& visit);

  [[nodiscard]] const Histogram& histogram() const noexcept { return hist_; }
  [[nodiscard]] std::span<const std::uint8_t> mirror() const noexcept {
    return last_;
  }

 private:
  static constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  static constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  static constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  static constexpr auto kPending =
      static_cast<std::uint8_t>(cluster::PodState::kPending);
  static constexpr auto kStarting =
      static_cast<std::uint8_t>(cluster::PodState::kStarting);
  static constexpr auto kRunning =
      static_cast<std::uint8_t>(cluster::PodState::kRunning);
  static_assert(kStarting >= 1 && kRunning == kStarting + 1,
                "the live-state test assumes Starting/Running are adjacent "
                "and nonzero");

  /// High bit of byte j set iff byte j of v is >= k (1 <= k <= 0x80). The
  /// low seven bits are added separately so no carry crosses a byte.
  static constexpr std::uint64_t bytes_at_least(std::uint64_t v,
                                                std::uint8_t k) noexcept {
    return (((v & kLow7) + kOnes * (0x80U - k)) | v) & kHigh;
  }

  /// Little-endian load of up to eight bytes, zero-padded. Zero pads are
  /// equal in both tables, not live and in range, so they never flag.
  static std::uint64_t load(const std::uint8_t* p, std::size_t len) noexcept {
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
      if (len == 8) {
        std::memcpy(&w, p, 8);  // Constant size: one unaligned load.
      } else {
        std::memcpy(&w, p, len);
      }
    } else {
      for (std::size_t j = 0; j < len; ++j) {
        w |= static_cast<std::uint64_t>(p[j]) << (8 * j);
      }
    }
    return w;
  }

  std::vector<std::uint8_t> last_;
  Histogram hist_{};
};

/// Receives one table-level finding: category and message, as
/// InvariantChecker reports them.
using PodTableReport =
    std::function<void(std::string_view category, std::string message)>;
/// Receives a pod that needs the full per-pod audit: its index and packed
/// state (changed since the last audit, or live).
using PodAuditRequest =
    std::function<void(std::size_t index, std::uint8_t packed_state)>;

/// The table-level half of InvariantChecker::check_pods, free of the
/// Cluster so synthetic tables can drive it. One audit of `table` against
/// the scan's mirror, reporting in pod-index order:
///   * "pod-state-table" for every byte >= kPodStateCount (on every audit
///     it persists);
///   * "pod-transition" for every changed byte whose transition cannot be
///     observed between two tick-end audits;
///   * then audit_pod(index, state) for every changed or live in-range byte
///     (after that byte's transition report);
/// and after the sweep, "pod-conservation" when the in-range states do not
/// add up to table.size() or the Completed count differs from
/// `completed_count`.
void audit_pod_table(PodStateScan& scan, std::span<const std::uint8_t> table,
                     std::size_t completed_count,
                     const PodTableReport& report,
                     const PodAuditRequest& audit_pod);

template <typename Visit>
void PodStateScan::scan(std::span<const std::uint8_t> table, Visit&& visit) {
  const std::size_t n = table.size();
  KNOTS_CHECK_MSG(n >= last_.size(), "pod-state tables only grow");
  hist_[kPending] += n - last_.size();
  last_.resize(n, kPending);
  const std::uint8_t* cur_bytes = table.data();
  std::uint8_t* prev_bytes = last_.data();
  for (std::size_t base = 0; base < n; base += 8) {
    const std::size_t len = n - base < 8 ? n - base : 8;
    const std::uint64_t cur = load(cur_bytes + base, len);
    const std::uint64_t prev = load(prev_bytes + base, len);
    const std::uint64_t live =
        bytes_at_least(cur, kStarting) & ~bytes_at_least(cur, kRunning + 1);
    std::uint64_t flagged = bytes_at_least(cur ^ prev, 1) | live |
                            bytes_at_least(cur, kPodStateCount);
    while (flagged != 0) {
      const std::size_t i =
          base + static_cast<std::size_t>(std::countr_zero(flagged)) / 8;
      flagged &= flagged - 1;
      const std::uint8_t c = cur_bytes[i];
      const std::uint8_t p = prev_bytes[i];
      if (c != p) {
        if (p < kPodStateCount) hist_[p] -= 1;
        if (c < kPodStateCount) hist_[c] += 1;
        prev_bytes[i] = c;
      }
      visit(i, p, c);
    }
  }
}

}  // namespace knots::verify
