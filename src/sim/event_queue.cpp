#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "core/check.hpp"

namespace knots::sim {

std::uint64_t EventQueue::schedule(SimTime t, Handler fn) {
  const std::uint64_t id = next_seq_++;
  Event ev{t, id, std::move(fn)};
  const std::int64_t ab = bucket_of(t);
  if (in_horizon(ab)) {
    insert_wheel(std::move(ev));
  } else {
    // Appending in already-descending position keeps the list clean (rare);
    // anything else defers the re-sort to the next migration wave.
    if (!overflow_.empty() && !event_before(ev, overflow_.back())) {
      overflow_sorted_ = false;
    }
    overflow_min_ab_ = std::min(overflow_min_ab_, ab);
    overflow_.push_back(std::move(ev));
  }
  ++size_;
  return id;
}

void EventQueue::cancel(std::uint64_t id) {
  KNOTS_CHECK_MSG(size_ > 0, "cancel on an empty queue");
  canceled_.insert(id);
  --size_;
}

bool EventQueue::peek_time(SimTime& t) {
  if (!prepare_next()) return false;
  t = slot(cur_ab_)[cur_pos_].time;
  return true;
}

bool EventQueue::pop(SimTime& t, Handler& fn) {
  if (!prepare_next()) return false;
  auto& b = slot(cur_ab_);
  Event& ev = b[cur_pos_];
  t = ev.time;
  fn = std::move(ev.fn);
  ++cur_pos_;
  --wheel_total_;
  --size_;
  // Clear the bucket the moment it drains: a slot must be empty before the
  // sliding horizon maps a later absolute bucket onto it. Events scheduled
  // into it later are appended and sorted when the cursor re-enters.
  if (cur_pos_ == b.size()) {
    b.clear();
    unmark(cur_ab_);
    cur_pos_ = 0;
    cur_sorted_ = false;
  }
  return true;
}

void EventQueue::insert_wheel(Event ev) {
  std::int64_t ab = bucket_of(ev.time);
  // The cursor may sit past this bucket: run_until() peeks the next event
  // (jumping the cursor over empty buckets), stops at its time bound, and
  // the caller then schedules between the bound and the peeked event. Every
  // bucket the cursor skipped was empty, so redirecting into the cursor's
  // bucket keeps pop order exact — the event's (time, seq) sorts before
  // everything the wheel still holds. The bit marked below is the slot the
  // event lands in, the cursor's when redirected.
  if (ab < cur_ab_) ab = cur_ab_;
  auto& b = slot(ab);
  if (ab == cur_ab_ && cur_sorted_) {
    // Sorted insert into the draining bucket's pending region. Popped
    // entries in [0, cur_pos_) all precede `ev` (its time is >= now and its
    // seq is fresh), so [cur_pos_, end) is the correct search window.
    auto it = std::upper_bound(
        b.begin() + static_cast<std::ptrdiff_t>(cur_pos_), b.end(), ev,
        [](const Event& a, const Event& x) { return event_before(a, x); });
    b.insert(it, std::move(ev));
  } else {
    b.push_back(std::move(ev));
  }
  mark(ab);
  ++wheel_total_;
}

void EventQueue::migrate_overflow() {
  if (overflow_.empty() || !in_horizon(overflow_min_ab_)) return;
  if (!overflow_sorted_) {
    std::sort(overflow_.begin(), overflow_.end(),
              [](const Event& a, const Event& b) { return event_before(b, a); });
    overflow_sorted_ = true;
  }
  while (!overflow_.empty() && in_horizon(bucket_of(overflow_.back().time))) {
    insert_wheel(std::move(overflow_.back()));
    overflow_.pop_back();
  }
  overflow_min_ab_ = overflow_.empty()
                         ? std::numeric_limits<std::int64_t>::max()
                         : bucket_of(overflow_.back().time);
}

bool EventQueue::prepare_next() {
  if (size_ == 0) return false;
  while (true) {
    migrate_overflow();
    if (wheel_total_ == 0) {
      // Every live event sits past the horizon: jump the cursor to the
      // overflow's earliest bucket and re-migrate. All wheel slots are
      // empty, so the jump cannot alias live storage.
      KNOTS_CHECK_MSG(!overflow_.empty(), "live events lost");
      cur_ab_ = overflow_min_ab_;
      cur_pos_ = 0;
      cur_sorted_ = false;
      continue;
    }
    // Advance to the next live event. Overflow events are strictly later
    // than every wheel event (their absolute buckets are beyond the
    // horizon), so no mid-scan migration is needed.
    while (wheel_total_ > 0) {
      if (!cur_sorted_) {
        // Skip the empty buckets: no event, live or tombstoned, sits
        // between the cursor and the next occupied slot.
        cur_ab_ = next_occupied();
        auto& b = slot(cur_ab_);
        std::sort(b.begin(), b.end(), event_before);
        cur_sorted_ = true;
        cur_pos_ = 0;
      }
      auto& b = slot(cur_ab_);
      while (cur_pos_ < b.size()) {
        auto it = canceled_.find(b[cur_pos_].seq);
        if (it == canceled_.end()) return true;
        canceled_.erase(it);
        ++cur_pos_;
        --wheel_total_;
      }
      b.clear();
      unmark(cur_ab_);
      cur_pos_ = 0;
      cur_sorted_ = false;
    }
  }
}

std::int64_t EventQueue::next_occupied() const noexcept {
  const auto from = static_cast<std::size_t>(cur_ab_) & (kBuckets - 1);
  std::size_t w = from >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
  // kWords + 1 words: the last revisits the first word for the slots below
  // the cursor, which map to the far end of the horizon.
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const std::size_t s = (w << 6) + static_cast<std::size_t>(
                                           std::countr_zero(bits));
      return cur_ab_ +
             static_cast<std::int64_t>((s - from) & (kBuckets - 1));
    }
    w = (w + 1) & (kWords - 1);
    bits = occupied_[w];
  }
  KNOTS_CHECK_MSG(false, "wheel events missing from the occupancy bitmap");
}

}  // namespace knots::sim
