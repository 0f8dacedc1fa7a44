// Differential tests for the word-at-a-time pod-state audit: PodStateScan
// and audit_pod_table are driven with synthetic packed tables and compared,
// audit by audit, against a per-byte reference sweep — the visited bytes
// and their order, every report and audit request in order, the histogram
// against a full recount, and the mirror against the table. The explicit
// cases give the pod-state-table, pod-transition and pod-conservation
// categories direct coverage.
#include "verify/pod_state_scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace knots::verify {
namespace {

using S = cluster::PodState;
constexpr auto u8(S s) { return static_cast<std::uint8_t>(s); }

/// One scan visit: index, mirror byte, table byte.
struct Visit {
  std::size_t index;
  std::uint8_t prev;
  std::uint8_t cur;
  bool operator==(const Visit&) const = default;
};

/// Legal (from, to) edges between two tick-end audits, spelled out rather
/// than shared with the code under test.
bool reference_legal(std::uint8_t from, std::uint8_t to) {
  static const std::set<std::pair<S, S>> kEdges = {
      {S::kPending, S::kStarting},   {S::kStarting, S::kRunning},
      {S::kStarting, S::kCrashed},   {S::kStarting, S::kEvicted},
      {S::kRunning, S::kCompleted},  {S::kRunning, S::kCrashed},
      {S::kRunning, S::kEvicted},    {S::kCrashed, S::kPending},
      {S::kCrashed, S::kStarting},   {S::kEvicted, S::kPending},
      {S::kEvicted, S::kStarting},
  };
  return kEdges.contains({static_cast<S>(from), static_cast<S>(to)});
}

std::string state_name(std::uint8_t s) {
  return std::string(to_string(static_cast<S>(s)));
}

/// The audit as a plain per-byte sweep over every pod with a full
/// histogram recount and a full copy-back — the behaviour the word-at-a-time
/// audit must reproduce exactly. Its log interleaves reports and audit
/// requests in the order they are made.
class ReferenceAudit {
 public:
  std::vector<Visit> visits;
  std::vector<std::string> log;
  PodStateScan::Histogram histogram{};

  void audit(const std::vector<std::uint8_t>& table, std::size_t completed) {
    visits.clear();
    log.clear();
    histogram.fill(0);
    const std::size_t n = table.size();
    last_.resize(n, u8(S::kPending));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t cur = table[i];
      const std::uint8_t prev = last_[i];
      const bool changed = cur != prev;
      const bool live = cur == u8(S::kStarting) || cur == u8(S::kRunning);
      const bool out_of_range = cur >= kPodStateCount;
      if (changed || live || out_of_range) visits.push_back({i, prev, cur});
      const std::string tag = "pod " + std::to_string(i);
      if (out_of_range) {
        log.push_back("pod-state-table|" + tag + " packed state " +
                      std::to_string(cur) + " out of range");
        continue;
      }
      histogram[cur] += 1;
      if (changed && !reference_legal(prev, cur)) {
        log.push_back("pod-transition|" + tag + " illegal transition " +
                      state_name(prev) + " -> " + state_name(cur));
      }
      if (changed || live) {
        log.push_back("audit|" + std::to_string(i) + "|" +
                      std::to_string(cur));
      }
    }
    last_ = table;
    std::size_t total = 0;
    for (std::size_t c : histogram) total += c;
    if (total != n) {
      log.push_back("pod-conservation|state counts sum to " +
                    std::to_string(total) + " but " + std::to_string(n) +
                    " pods were submitted");
    }
    if (histogram[u8(S::kCompleted)] != completed) {
      log.push_back("pod-conservation|completed counter " +
                    std::to_string(completed) + " != terminal pods " +
                    std::to_string(histogram[u8(S::kCompleted)]));
    }
  }

 private:
  std::vector<std::uint8_t> last_;
};

/// Runs audit_pod_table and returns its log in the reference's format.
std::vector<std::string> word_audit(PodStateScan& scan,
                                    const std::vector<std::uint8_t>& table,
                                    std::size_t completed) {
  std::vector<std::string> log;
  audit_pod_table(
      scan, table, completed,
      [&](std::string_view category, std::string message) {
        log.push_back(std::string(category) + "|" + message);
      },
      [&](std::size_t index, std::uint8_t state) {
        log.push_back("audit|" + std::to_string(index) + "|" +
                      std::to_string(state));
      });
  return log;
}

PodStateScan::Histogram recount(const std::vector<std::uint8_t>& table) {
  PodStateScan::Histogram h{};
  for (std::uint8_t b : table) {
    if (b < kPodStateCount) h[b] += 1;
  }
  return h;
}

/// Out-of-range values, including the high-bit bytes that a carrying
/// word compare would smear into their neighbours.
constexpr std::uint8_t kOutOfRange[] = {6, 7, 0x40, 0x7f, 0x80, 0x81, 0xfe,
                                        0xff};

/// One random edit of the table between two audits.
void mutate(std::vector<std::uint8_t>& table, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  switch (pick(8)) {
    case 0:  // A few random in-range states.
      for (std::size_t k = pick(4); k-- > 0 && !table.empty();) {
        table[pick(table.size())] =
            static_cast<std::uint8_t>(pick(kPodStateCount));
      }
      break;
    case 1: {  // A live run (Starting or Running), possibly word-spanning.
      if (table.empty()) break;
      const std::size_t a = pick(table.size());
      const std::size_t b = std::min(table.size(), a + 1 + pick(20));
      const auto s = pick(2) == 0 ? u8(S::kStarting) : u8(S::kRunning);
      std::fill(table.begin() + static_cast<std::ptrdiff_t>(a),
                table.begin() + static_cast<std::ptrdiff_t>(b), s);
      break;
    }
    case 2:  // Out-of-range bytes.
      for (std::size_t k = 1 + pick(2); k-- > 0 && !table.empty();) {
        table[pick(table.size())] =
            pick(3) == 0 ? static_cast<std::uint8_t>(6 + pick(250))
                         : kOutOfRange[pick(std::size(kOutOfRange))];
      }
      break;
    case 3:  // Every out-of-range byte transitions back into range.
      for (auto& b : table) {
        if (b >= kPodStateCount) {
          b = static_cast<std::uint8_t>(pick(kPodStateCount));
        }
      }
      break;
    case 4: {  // A frozen run: live pods complete, crash or get evicted.
      if (table.empty()) break;
      const std::size_t a = pick(table.size());
      const std::size_t b = std::min(table.size(), a + 1 + pick(20));
      const std::uint8_t frozen[] = {u8(S::kCompleted), u8(S::kCrashed),
                                     u8(S::kEvicted), u8(S::kPending)};
      const auto s = frozen[pick(std::size(frozen))];
      std::fill(table.begin() + static_cast<std::ptrdiff_t>(a),
                table.begin() + static_cast<std::ptrdiff_t>(b), s);
      break;
    }
    case 5:  // New pods submitted (they start Pending, or anything).
      for (std::size_t k = pick(11); k-- > 0;) {
        table.push_back(pick(4) == 0
                            ? static_cast<std::uint8_t>(rng() & 0xff)
                            : u8(S::kPending));
      }
      break;
    default:  // Nothing changes: persistent findings must repeat.
      break;
  }
}

void expect_same_audits(std::size_t n, std::uint64_t seed, int audits) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> table(n, u8(S::kPending));
  PodStateScan scan;
  PodStateScan visit_scan;  // Drives the bare scan on the same tables.
  ReferenceAudit ref;
  for (int step = 0; step < audits; ++step) {
    SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                 " audit=" + std::to_string(step));
    const auto full = recount(table);
    // Mostly the true completion count; sometimes off by one.
    std::size_t completed = full[u8(S::kCompleted)];
    if (rng() % 5 == 0) completed += 1;

    ref.audit(table, completed);
    EXPECT_EQ(word_audit(scan, table, completed), ref.log);

    std::vector<Visit> visits;
    visit_scan.scan(table, [&](std::size_t i, std::uint8_t prev,
                               std::uint8_t cur) {
      visits.push_back({i, prev, cur});
    });
    EXPECT_EQ(visits, ref.visits);

    EXPECT_EQ(scan.histogram(), full);
    EXPECT_EQ(visit_scan.histogram(), full);
    EXPECT_TRUE(std::equal(scan.mirror().begin(), scan.mirror().end(),
                           table.begin(), table.end()));
    mutate(table, rng);
  }
}

TEST(PodStateScan, MatchesPerByteReferenceForEveryTailLength) {
  // n mod 8 = 0..7 across short (partial-word only) and multi-word tables.
  for (std::size_t n = 0; n < 40; ++n) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_same_audits(n, seed * 1000 + n, 60);
    }
  }
}

TEST(PodStateScan, MatchesPerByteReferenceOnLongTables) {
  for (const std::size_t n : {63u, 64u, 65u, 255u, 1001u, 4096u}) {
    expect_same_audits(n, 77 + n, 120);
  }
}

TEST(PodStateScan, SkipsFrozenWordsAndVisitsLiveOnes) {
  std::vector<std::uint8_t> table(64, u8(S::kCompleted));
  PodStateScan scan;
  std::vector<std::size_t> visited;
  const auto record = [&](std::size_t i, std::uint8_t, std::uint8_t) {
    visited.push_back(i);
  };
  scan.scan(table, record);  // Every byte changed from Pending.
  EXPECT_EQ(visited.size(), 64u);
  visited.clear();
  scan.scan(table, record);  // Nothing changed, nothing live.
  EXPECT_TRUE(visited.empty());
  table[9] = u8(S::kRunning);
  table[40] = u8(S::kStarting);
  scan.scan(table, record);
  scan.scan(table, record);  // Live bytes are visited on every audit.
  EXPECT_EQ(visited, (std::vector<std::size_t>{9, 40, 9, 40}));
  EXPECT_EQ(scan.histogram()[u8(S::kCompleted)], 62u);
  EXPECT_EQ(scan.histogram()[u8(S::kRunning)], 1u);
  EXPECT_EQ(scan.histogram()[u8(S::kStarting)], 1u);
}

TEST(PodStateScan, HighBitBytesDoNotLeakIntoNeighbours) {
  // 0xff next to frozen bytes: a carry across bytes would flag (or hide)
  // the neighbours.
  std::vector<std::uint8_t> table(16, u8(S::kPending));
  table[3] = 0xff;
  table[4] = 0x80;
  table[8] = 0x7f;
  PodStateScan scan;
  std::vector<std::size_t> visited;
  const auto record = [&](std::size_t i, std::uint8_t, std::uint8_t) {
    visited.push_back(i);
  };
  scan.scan(table, record);
  scan.scan(table, record);
  EXPECT_EQ(visited, (std::vector<std::size_t>{3, 4, 8, 3, 4, 8}));
  EXPECT_EQ(scan.histogram()[u8(S::kPending)], 13u);
}

TEST(PodTableAudit, OutOfRangeByteIsReportedOnEveryAudit) {
  std::vector<std::uint8_t> table(10, u8(S::kPending));
  table[3] = 7;
  PodStateScan scan;
  const std::vector<std::string> expected = {
      "pod-state-table|pod 3 packed state 7 out of range",
      "pod-conservation|state counts sum to 9 but 10 pods were submitted",
  };
  for (int audit = 0; audit < 3; ++audit) {
    EXPECT_EQ(word_audit(scan, table, 0), expected) << audit;
  }
}

TEST(PodTableAudit, TransitionBackIntoRangeIsCheckedFromTheBadByte) {
  std::vector<std::uint8_t> table(10, u8(S::kPending));
  table[3] = 0x90;
  PodStateScan scan;
  (void)word_audit(scan, table, 0);
  table[3] = u8(S::kRunning);
  EXPECT_EQ(word_audit(scan, table, 0),
            (std::vector<std::string>{
                "pod-transition|pod 3 illegal transition unknown -> running",
                "audit|3|2"}));
  EXPECT_EQ(scan.histogram(), recount(table));
}

TEST(PodTableAudit, IllegalTransitionIsReportedBeforeThePodAudit) {
  std::vector<std::uint8_t> table(3, u8(S::kPending));
  table[1] = u8(S::kCompleted);
  PodStateScan scan;
  // Pending -> Completed skips Starting/Running.
  EXPECT_EQ(word_audit(scan, table, 1),
            (std::vector<std::string>{
                "pod-transition|pod 1 illegal transition pending -> completed",
                "audit|1|3"}));
  // Completed is terminal; Pending -> Starting is legal.
  table[1] = u8(S::kPending);
  table[2] = u8(S::kStarting);
  EXPECT_EQ(word_audit(scan, table, 0),
            (std::vector<std::string>{
                "pod-transition|pod 1 illegal transition completed -> pending",
                "audit|1|0", "audit|2|1"}));
}

TEST(PodTableAudit, CompletedCounterMismatchIsAConservationViolation) {
  std::vector<std::uint8_t> table = {u8(S::kPending), u8(S::kStarting),
                                     u8(S::kRunning)};
  PodStateScan scan;
  (void)word_audit(scan, table, 0);
  table[2] = u8(S::kCompleted);
  EXPECT_EQ(word_audit(scan, table, 2),
            (std::vector<std::string>{
                "audit|1|1", "audit|2|3",
                "pod-conservation|completed counter 2 != terminal pods 1"}));
  // Frozen and in agreement: nothing to visit, nothing to report.
  table[1] = u8(S::kCrashed);
  (void)word_audit(scan, table, 1);
  EXPECT_TRUE(word_audit(scan, table, 1).empty());
}

}  // namespace
}  // namespace knots::verify
