// Property and differential-fuzz suite for the bucketed calendar queue.
//
// The queue replaced a std::priority_queue; its one contract is *identical
// observable order*: events pop in ascending (time, insertion-sequence)
// order under any interleaving of schedule / cancel / pop, including times
// that straddle bucket boundaries, the wheel horizon, and the overflow
// list. The fuzz drives both implementations with the same operation
// stream and demands identical pop sequences.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"

namespace knots::sim {
namespace {

constexpr SimTime kBucketWidth = SimTime{1} << EventQueue::kBucketWidthLog2;
constexpr SimTime kHorizon =
    kBucketWidth * static_cast<SimTime>(EventQueue::kBuckets);

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  SimTime t = -1;
  EXPECT_FALSE(q.peek_time(t));
  EventQueue::Handler fn;
  EXPECT_FALSE(q.pop(t, fn));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) {
    EXPECT_EQ(t, 5);
    fn();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, PeekMatchesPopAndDoesNotExtract) {
  EventQueue q;
  q.schedule(42, [] {});
  SimTime t = -1;
  ASSERT_TRUE(q.peek_time(t));
  EXPECT_EQ(t, 42);
  EXPECT_EQ(q.size(), 1u);
  EventQueue::Handler fn;
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 42);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BucketBoundaryTimesStayOrdered) {
  // Events sitting exactly on, just before, and just after bucket edges.
  EventQueue q;
  std::vector<SimTime> times;
  for (SimTime b = 0; b < 5; ++b) {
    const SimTime edge = b * kBucketWidth;
    for (const SimTime t : {edge, edge + 1, edge + kBucketWidth - 1}) {
      times.push_back(t);
    }
  }
  // Insert in a scrambled order.
  std::vector<SimTime> scrambled = times;
  std::reverse(scrambled.begin(), scrambled.end());
  for (const SimTime t : scrambled) q.schedule(t, [] {});
  std::sort(times.begin(), times.end());
  SimTime t;
  EventQueue::Handler fn;
  for (const SimTime expect : times) {
    ASSERT_TRUE(q.pop(t, fn));
    EXPECT_EQ(t, expect);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureEventsCrossTheHorizon) {
  // An event far past the wheel horizon must migrate in and pop in order,
  // even when the wheel in between is completely empty (cursor jump).
  EventQueue q;
  std::vector<int> order;
  q.schedule(3 * kHorizon, [&] { order.push_back(2); });
  q.schedule(7, [&] { order.push_back(1); });
  q.schedule(9 * kHorizon, [&] { order.push_back(3); });
  SimTime t;
  EventQueue::Handler fn;
  std::vector<SimTime> pop_times;
  while (q.pop(t, fn)) {
    pop_times.push_back(t);
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(pop_times, (std::vector<SimTime>{7, 3 * kHorizon, 9 * kHorizon}));
}

TEST(EventQueue, ScheduleBetweenPopsLandsInOrder) {
  // After draining past empty buckets, a new near-term event (>= the last
  // popped time, the engine's contract) must still pop before later ones.
  EventQueue q;
  q.schedule(2 * kHorizon, [] {});
  SimTime t;
  ASSERT_TRUE(q.peek_time(t));  // advances the cursor across the gap
  EXPECT_EQ(t, 2 * kHorizon);
  q.schedule(kHorizon / 2, [] {});  // behind the (jumped) cursor
  ASSERT_TRUE(q.peek_time(t));
  EXPECT_EQ(t, kHorizon / 2);
  EventQueue::Handler fn;
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, kHorizon / 2);
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 2 * kHorizon);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LoneEventAtEveryDistanceFromTheCursor) {
  // The cursor jumps to the next occupied slot through the bitmap, wrapping
  // past the end of the ring: with the cursor parked at various slots
  // (word edges included), a single pending event at every distance across
  // the horizon must be the one that pops.
  for (const SimTime cursor : {0, 5, 63, 64, 500, 1023, 1024 + 70}) {
    for (SimTime d = 0; d < static_cast<SimTime>(EventQueue::kBuckets); ++d) {
      EventQueue q;
      SimTime t = 0;
      EventQueue::Handler fn;
      q.schedule(cursor * kBucketWidth, [] {});
      ASSERT_TRUE(q.pop(t, fn));  // parks the cursor on `cursor`
      const SimTime at = (cursor + d) * kBucketWidth + d % kBucketWidth;
      q.schedule(at, [] {});
      ASSERT_TRUE(q.pop(t, fn)) << "cursor " << cursor << " distance " << d;
      EXPECT_EQ(t, at) << "cursor " << cursor << " distance " << d;
      EXPECT_TRUE(q.empty());
    }
  }
}

TEST(EventQueue, CancelSuppressesPendingEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { fired += 1; });
  const std::uint64_t doomed = q.schedule(20, [&] { fired += 100; });
  q.schedule(30, [&] { fired += 10; });
  q.cancel(doomed);
  EXPECT_EQ(q.size(), 2u);
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) fn();
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, CancelOverflowEvent) {
  EventQueue q;
  int fired = 0;
  const std::uint64_t doomed =
      q.schedule(5 * kHorizon, [&] { fired += 100; });
  q.schedule(6 * kHorizon, [&] { fired += 1; });
  q.cancel(doomed);
  EXPECT_EQ(q.size(), 1u);
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) fn();
  EXPECT_EQ(fired, 1);
}

// Reference model: the exact (time, seq) heap the engine used before.
struct RefEvent {
  SimTime time;
  std::uint64_t seq;
  int payload;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Differential fuzz: random schedule/pop/cancel interleavings, with times
/// drawn to stress bucket edges, the horizon boundary, and far overflow.
TEST(EventQueueFuzz, MatchesPriorityQueueReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref;
    // id -> payload for live (pending, uncanceled) EventQueue events; the
    // reference erases lazily via a tombstone set mirror.
    std::vector<std::uint64_t> live_ids;
    std::vector<bool> canceled;  // by seq
    SimTime last_pop = 0;
    int next_payload = 0;
    std::vector<int> got;
    std::vector<int> want;

    for (int step = 0; step < 4000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.55) {
        // Schedule at a time >= last_pop (the engine's contract). Mix
        // near-term, bucket-edge, horizon-edge, and far-future times.
        SimTime t = last_pop;
        const double kind = rng.uniform();
        if (kind < 0.4) {
          t += rng.uniform_int(0, 3 * kBucketWidth);
        } else if (kind < 0.6) {
          const SimTime edge =
              (last_pop / kBucketWidth + rng.uniform_int(0, 4)) * kBucketWidth;
          t = edge + rng.uniform_int(-1, 1);
          if (t < last_pop) t = last_pop;
        } else if (kind < 0.8) {
          t += kHorizon + rng.uniform_int(-2 * kBucketWidth, 2 * kBucketWidth);
        } else {
          t += rng.uniform_int(0, 5 * kHorizon);
        }
        const int payload = next_payload++;
        const std::uint64_t id = q.schedule(t, [payload, &got] {
          got.push_back(payload);
        });
        ref.push(RefEvent{t, id, payload});
        if (canceled.size() <= id) canceled.resize(id + 1, false);
        live_ids.push_back(id);
      } else if (roll < 0.65 && !live_ids.empty()) {
        // Cancel a random pending event in both models.
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live_ids.size()) - 1));
        const std::uint64_t id = live_ids[pick];
        q.cancel(id);
        canceled[id] = true;
        live_ids[pick] = live_ids.back();
        live_ids.pop_back();
      } else {
        // Pop once; both models must agree on time and payload.
        SimTime t;
        EventQueue::Handler fn;
        const bool have = q.pop(t, fn);
        // Drain reference tombstones.
        while (!ref.empty() && canceled[ref.top().seq]) ref.pop();
        ASSERT_EQ(have, !ref.empty()) << "seed " << seed << " step " << step;
        if (!have) continue;
        ASSERT_EQ(t, ref.top().time) << "seed " << seed << " step " << step;
        const std::uint64_t popped_id = ref.top().seq;
        want.push_back(ref.top().payload);
        ref.pop();
        fn();
        ASSERT_EQ(got.back(), want.back())
            << "seed " << seed << " step " << step;
        // The fired event is no longer cancelable (pending-only contract).
        const auto it = std::find(live_ids.begin(), live_ids.end(), popped_id);
        ASSERT_NE(it, live_ids.end());
        *it = live_ids.back();
        live_ids.pop_back();
        last_pop = t;
      }
    }
    // Full drain: remaining events must replay the reference exactly.
    SimTime t;
    EventQueue::Handler fn;
    while (q.pop(t, fn)) {
      while (!ref.empty() && canceled[ref.top().seq]) ref.pop();
      ASSERT_FALSE(ref.empty());
      ASSERT_EQ(t, ref.top().time);
      want.push_back(ref.top().payload);
      ref.pop();
      fn();
      ASSERT_EQ(got.back(), want.back());
      ASSERT_GE(t, last_pop);
      last_pop = t;
    }
    while (!ref.empty() && canceled[ref.top().seq]) ref.pop();
    EXPECT_TRUE(ref.empty()) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

/// Drives the queue and the reference heap in lockstep; every peek and pop
/// is checked against the reference as it happens.
class Lockstep {
 public:
  std::uint64_t schedule(SimTime t) {
    const int payload = next_payload_++;
    const std::uint64_t id =
        q_.schedule(t, [this, payload] { fired_ = payload; });
    ref_.push(RefEvent{t, id, payload});
    if (canceled_.size() <= id) canceled_.resize(id + 1, false);
    return id;
  }
  void cancel(std::uint64_t id) {
    q_.cancel(id);
    canceled_[id] = true;
  }
  /// Earliest pending time (and its id) in both models; false when both
  /// are empty.
  bool peek(SimTime& t, std::uint64_t* id = nullptr) {
    const bool have = q_.peek_time(t);
    drop_tombstones();
    EXPECT_EQ(have, !ref_.empty());
    if (!have || ref_.empty()) return false;
    EXPECT_EQ(t, ref_.top().time);
    if (id != nullptr) *id = ref_.top().seq;
    return true;
  }
  /// Pops and fires the earliest event in both models and reports its time
  /// and id; false when both are empty.
  bool pop(SimTime& t, std::uint64_t& id) {
    EventQueue::Handler fn;
    const bool have = q_.pop(t, fn);
    drop_tombstones();
    EXPECT_EQ(have, !ref_.empty());
    if (!have || ref_.empty()) return false;
    EXPECT_EQ(t, ref_.top().time);
    fn();
    EXPECT_EQ(fired_, ref_.top().payload);
    id = ref_.top().seq;
    ref_.pop();
    return true;
  }

 private:
  void drop_tombstones() {
    while (!ref_.empty() && canceled_[ref_.top().seq]) ref_.pop();
  }
  EventQueue q_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref_;
  std::vector<bool> canceled_;  // by seq
  int next_payload_ = 0;
  int fired_ = -1;
};

/// Differential fuzz aimed at the occupancy-bitmap jump: a handful of
/// sparse periodic chains (periods of 40–300 buckets, so nearly every
/// bucket is empty) run for 40 horizons, wrapping the slot ring many
/// times. Interleaved with them:
///  * cancels of a chain's pending event, usually the only event in its
///    bucket, which leaves a tombstone-only slot for the cursor to drain;
///  * zero-delay follow-ups at the time just popped, which refill the slot
///    the pop drained under the cursor;
///  * run_until()'s pattern: peek, stop at a bound short of the peeked
///    event, then schedule between the bound and that event, behind the
///    cursor the peek jumped forward (sometimes after canceling the
///    peeked event).
TEST(EventQueueFuzz, SparsePeriodicChainsMatchReference) {
  constexpr int kChains = 6;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    Lockstep ls;
    std::vector<SimTime> period(kChains);
    std::vector<std::uint64_t> pending(kChains);
    std::unordered_map<std::uint64_t, int> chain_of;  // id -> chain
    SimTime now = 0;
    for (int c = 0; c < kChains; ++c) {
      period[static_cast<std::size_t>(c)] =
          rng.uniform_int(40, 300) * kBucketWidth +
          rng.uniform_int(0, kBucketWidth - 1);
      const std::uint64_t id = ls.schedule(rng.uniform_int(0, kHorizon));
      pending[static_cast<std::size_t>(c)] = id;
      chain_of[id] = c;
    }
    const auto restart = [&](int c, SimTime at) {
      const std::uint64_t id = ls.schedule(at);
      pending[static_cast<std::size_t>(c)] = id;
      chain_of[id] = c;
    };
    std::size_t pops = 0;
    while (now < 40 * kHorizon) {
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " pop " << pops;
      const double roll = rng.uniform();
      if (roll < 0.15) {
        // run_until(bound): pop through the bound, then schedule behind
        // the cursor the final peek moved.
        const SimTime bound = now + rng.uniform_int(0, 400 * kBucketWidth);
        SimTime t = 0;
        std::uint64_t id = 0;
        while (ls.peek(t) && t <= bound) {
          ASSERT_TRUE(ls.pop(t, id));
          ++pops;
          now = t;
          const auto it = chain_of.find(id);
          if (it != chain_of.end()) {
            restart(it->second, t + period[static_cast<std::size_t>(
                                        it->second)]);
            chain_of.erase(it);
          }
        }
        now = std::max(now, bound);
        if (!ls.peek(t, &id)) continue;
        if (rng.uniform() < 0.3) {
          // Cancel the peeked event, usually alone in its bucket; a chain
          // restarts one period on.
          ls.cancel(id);
          const auto it = chain_of.find(id);
          if (it != chain_of.end()) {
            restart(it->second,
                    t + period[static_cast<std::size_t>(it->second)]);
            chain_of.erase(it);
          }
        }
        if (ls.peek(t) && t > now) {
          ls.schedule(now + rng.uniform_int(0, t - now - 1));
        }
      } else if (roll < 0.25) {
        // Cancel a chain's pending event and restart it later.
        const int c = static_cast<int>(rng.uniform_int(0, kChains - 1));
        const std::uint64_t p = pending[static_cast<std::size_t>(c)];
        const auto it = chain_of.find(p);
        if (it == chain_of.end()) continue;
        ls.cancel(p);
        chain_of.erase(it);
        restart(c, now + rng.uniform_int(0, 2 * kHorizon));
      } else {
        SimTime t = 0;
        std::uint64_t id = 0;
        ASSERT_TRUE(ls.pop(t, id));
        ++pops;
        now = t;
        const auto it = chain_of.find(id);
        if (it != chain_of.end()) {
          restart(it->second,
                  t + period[static_cast<std::size_t>(it->second)]);
          chain_of.erase(it);
        }
        // Zero-delay follow-up into the slot the pop may have drained.
        if (rng.uniform() < 0.2) ls.schedule(t);
      }
    }
    EXPECT_GT(pops, 1000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace knots::sim
