#include "simnet/event_queue.hpp"

#include <algorithm>

namespace accelring::simnet {

namespace {

// Heap order: time, then schedule order. seq is unique, so the order is
// total and pops are deterministic.
inline bool before(Nanos a_when, uint64_t a_seq, Nanos b_when,
                   uint64_t b_seq) {
  return a_when < b_when || (a_when == b_when && a_seq < b_seq);
}

}  // namespace

uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }
  if ((slots_used_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slots_used_++;
}

void EventQueue::retire(Slot& s) {
  s.seq = 0;
  if (++s.gen == 0) s.gen = 1;  // gen 0 would let id 0 name a live event
}

void EventQueue::free_slot(uint32_t index) {
  slot(index).next_free = free_head_;
  free_head_ = index;
}

EventId EventQueue::schedule(Nanos when, Callback cb) {
  if (!cb) return 0;  // nothing to run: schedules nothing
  const uint32_t index = alloc_slot();
  Slot& s = slot(index);
  s.cb = std::move(cb);
  s.seq = next_seq_++;
  heap_push(HeapEntry{std::max(when, now_), s.seq, index});
  return (static_cast<uint64_t>(s.gen) << 32) | index;
}

void EventQueue::cancel(EventId id) {
  const auto index = static_cast<uint32_t>(id);
  if (index >= slots_used_) return;
  Slot& s = slot(index);
  if (s.seq == 0 || s.gen != static_cast<uint32_t>(id >> 32)) return;
  retire(s);
  s.cb.reset();
  free_slot(index);
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    heap_pop();
    Slot& s = slot(top.slot);
    if (s.seq != top.seq) continue;  // cancelled
    now_ = top.when;
    ++executed_;
    // Retire the id before running, so cancelling itself from inside the
    // callback is a no-op. The callable runs in place (slots never move)
    // and is destroyed after it returns; the slot is recycled last.
    retire(s);
    s.cb();
    s.cb.reset();
    free_slot(top.slot);
    return true;
  }
  return false;
}

void EventQueue::skip_cancelled() {
  while (!heap_.empty() && slot(heap_.front().slot).seq != heap_.front().seq) {
    heap_pop();
  }
}

void EventQueue::run_until(Nanos deadline) {
  for (;;) {
    // Skip over cancelled entries without advancing time.
    skip_cancelled();
    if (heap_.empty() || heap_.front().when > deadline) break;
    step();
  }
}

void EventQueue::run_all() {
  while (step()) {
  }
}

void EventQueue::heap_push(const HeapEntry& e) {
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    const HeapEntry& p = heap_[parent];
    if (!before(e.when, e.seq, p.when, p.seq)) break;
    heap_[i] = p;
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::heap_pop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) return;
  size_t i = 0;
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t end = std::min(first + 4, n);
    for (size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c].when, heap_[c].seq, heap_[best].when,
                 heap_[best].seq)) {
        best = c;
      }
    }
    if (!before(heap_[best].when, heap_[best].seq, last.when, last.seq)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

}  // namespace accelring::simnet
