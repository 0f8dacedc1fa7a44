// Bucketed event queue for the discrete-event engine.
//
// A two-level calendar queue tuned for the engine's dominant workload —
// dense periodic events (cluster ticks every 10 ms, heartbeats, relaunch
// timers) plus a long tail of far-future one-shots (the load generator
// schedules every pod arrival up front):
//
//  * the *wheel* covers a sliding horizon of kBuckets × kBucketWidth of
//    simulated time. An event at absolute time t lands in absolute bucket
//    t >> kBucketWidthLog2; buckets are plain vectors, appended unsorted
//    and sorted once by (time, seq) when the drain cursor enters them.
//    Near-term inserts and pops are O(1) amortized — no heap percolation;
//  * events past the horizon go to the *overflow* list, kept sorted
//    descending (lazily — appends mark it dirty, the next migration
//    re-sorts) so the earliest entry pops off the back in O(1). Before
//    every pop/peek, overflow entries whose bucket has slid into the
//    horizon migrate into the wheel. The horizon slides only as the
//    cursor advances, so a migrated event always lands in a bucket the
//    cursor has not entered yet — ordering is preserved by construction;
//  * a 1024-bit *occupancy bitmap* (one bit per slot) is set on every wheel
//    insert and cleared when a slot drains, so the cursor jumps straight
//    to the next occupied bucket instead of walking the empty ones (a 1 s
//    dlsim step spans ~122 buckets). The jump visits exactly the buckets
//    the walk would have stopped at — it skips only slots with no event,
//    live or tombstoned — so the ordering contract below is unchanged.
//
// Ordering contract (identical to the std::priority_queue it replaced):
// events pop in ascending (time, insertion-sequence) order, so
// same-timestamp events run FIFO and every run replays identically.
//
// cancel(id) lazily tombstones a *pending* event by the id schedule()
// returned; the slot is skipped (and the handler destroyed) when the
// cursor reaches it. Canceling an id that already fired or was already
// canceled is undefined (the engine never does it; the fuzz suite tracks
// liveness explicitly).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"

namespace knots::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Wheel geometry: 2^13 us (~8.2 ms) buckets — about one cluster tick —
  /// and 2^10 of them (~8.4 s horizon), comfortably past the crash (3 s)
  /// and eviction (5 s) relaunch delays.
  static constexpr int kBucketWidthLog2 = 13;
  static constexpr std::size_t kBucketsLog2 = 10;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketsLog2;

  EventQueue() : buckets_(kBuckets) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Enqueues `fn` at absolute time `t` (must be >= the time of the last
  /// event popped). Returns the event's id (its insertion sequence).
  std::uint64_t schedule(SimTime t, Handler fn);

  /// Tombstones the pending event `id` (see header contract).
  void cancel(std::uint64_t id);

  /// Time of the earliest pending event; false when empty. Performs
  /// overflow migration and bucket sorting as a side effect, so a
  /// subsequent pop() is O(1).
  [[nodiscard]] bool peek_time(SimTime& t);

  /// Extracts the earliest event into `t`/`fn`; false when empty.
  bool pop(SimTime& t, Handler& fn);

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Handler fn;
  };
  static bool event_before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static std::int64_t bucket_of(SimTime t) noexcept {
    return static_cast<std::int64_t>(t >> kBucketWidthLog2);
  }
  [[nodiscard]] std::vector<Event>& slot(std::int64_t ab) noexcept {
    return buckets_[static_cast<std::size_t>(ab) & (kBuckets - 1)];
  }
  static constexpr std::size_t kWords = kBuckets / 64;
  void mark(std::int64_t ab) noexcept {
    const auto s = static_cast<std::size_t>(ab) & (kBuckets - 1);
    occupied_[s >> 6] |= std::uint64_t{1} << (s & 63);
  }
  void unmark(std::int64_t ab) noexcept {
    const auto s = static_cast<std::size_t>(ab) & (kBuckets - 1);
    occupied_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }
  /// Absolute bucket of the first occupied slot at or after the cursor,
  /// searching the ring once around. Requires a non-empty wheel.
  [[nodiscard]] std::int64_t next_occupied() const noexcept;
  [[nodiscard]] bool in_horizon(std::int64_t ab) const noexcept {
    return ab < cur_ab_ + static_cast<std::int64_t>(kBuckets);
  }
  static constexpr std::int64_t kNoOverflow =
      std::numeric_limits<std::int64_t>::max();

  void insert_wheel(Event ev);
  void migrate_overflow();
  /// Positions (cur_ab_, cur_pos_) at the earliest live event. Returns
  /// false when the queue is empty.
  bool prepare_next();

  std::vector<std::vector<Event>> buckets_;
  std::array<std::uint64_t, kWords> occupied_{};  ///< Bit per non-empty slot.
  std::vector<Event> overflow_;       ///< Sorted descending when clean.
  bool overflow_sorted_ = true;
  std::int64_t overflow_min_ab_ = kNoOverflow;  ///< Earliest overflow bucket.
  std::int64_t cur_ab_ = 0;           ///< Cursor's absolute bucket.
  std::size_t cur_pos_ = 0;           ///< Next index in the current bucket.
  bool cur_sorted_ = false;           ///< Sorted, with entries left to pop.
  std::size_t wheel_total_ = 0;       ///< Wheel events, tombstoned included.
  std::size_t size_ = 0;              ///< Live events, wheel + overflow.
  std::uint64_t next_seq_ = 0;
  std::unordered_set<std::uint64_t> canceled_;
};

}  // namespace knots::sim
