// Discrete-event simulation core.
//
// A single EventQueue drives an entire simulated cluster: network elements,
// process CPU models, and protocol timers all schedule callbacks at absolute
// simulated times. Events at equal times fire in scheduling order (a
// monotonically increasing tie-break sequence number), which keeps runs
// deterministic for a given seed.
//
// Every simulated packet hop, CPU drain and timer is one event, so the queue
// itself is the simulator's hot path and allocates nothing per event:
//
//   * Callback is a move-only `void()` callable with inline storage sized
//     from the simulator's own traffic (see kInlineBytes); only a larger
//     callable goes to the heap.
//   * Pending callbacks live in a slab of slots that grows in fixed chunks
//     and never moves a slot. A free list recycles slots; each slot carries
//     a generation that is bumped whenever its event fires or is cancelled.
//     An EventId is (generation, slot), so cancel() is O(1) and an id whose
//     event already fired or was cancelled — even one whose slot has since
//     been reused — is a no-op. 0 is never a valid id.
//   * Ordering is a 4-ary min-heap of small {when, seq, slot} records keyed
//     on (when, seq), where seq counts schedule() calls: the same tie-break
//     as a per-event sequence number. Cancellation is lazy: the callback is
//     destroyed and the slot freed at once, and the heap record is dropped
//     when it reaches the top (its seq no longer matches the slot's).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace accelring::simnet {

using util::Nanos;

/// Handle for cancelling a scheduled event.
using EventId = uint64_t;

/// Move-only `void()` callable with small-buffer storage; the one callback
/// type of the simulator (event queue and Process::run_soon).
class Callback {
 public:
  /// Inline capacity, sized from a count of every callable built over the
  /// three perfbench sim workloads and a check_campaign sweep: 88-95% are
  /// at most 48 bytes, and the datagram hops of simnet::Network capture 64,
  /// which brings the share that fits to 99.9%. The rest (72-88 bytes,
  /// campaign-only) are boxed on the heap.
  static constexpr size_t kInlineBytes = 64;

  Callback() = default;

  /// Implicit, like std::function, so call sites pass lambdas directly.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  /// Destroy the held callable now; the Callback becomes empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* dst, void* src) noexcept;  // move, destroy src
    void (*destroy)(void* buf) noexcept;
  };

  static constexpr size_t kAlign = alignof(void*);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= kAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*std::launder(static_cast<D*>(buf)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(static_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* buf) noexcept { std::launder(static_cast<D*>(buf))->~D(); },
  };

  template <typename D>
  static constexpr Ops kBoxedOps = {
      [](void* buf) { (**std::launder(static_cast<D**>(buf)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(static_cast<D**>(src)));
      },
      [](void* buf) noexcept { delete *std::launder(static_cast<D**>(buf)); },
  };

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(kAlign) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  using Callback = simnet::Callback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `cb` to run at absolute time `when` (clamped to >= now). An
  /// empty `cb` schedules nothing and returns 0.
  EventId schedule(Nanos when, Callback cb);

  /// Schedule `cb` to run `delay` after the current time.
  EventId schedule_after(Nanos delay, Callback cb) {
    return schedule(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event. Cancelling an event that already fired, is
  /// running, or was cancelled is a no-op, as is cancel(0).
  void cancel(EventId id);

  /// Run the next pending event; returns false when the queue is empty.
  bool step();

  /// Run events with time <= `deadline`; time stops at the last event run.
  void run_until(Nanos deadline);

  /// Run until the queue is completely empty.
  void run_all();

  [[nodiscard]] Nanos now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] uint64_t events_executed() const { return executed_; }

 private:
  struct Slot {
    Callback cb;
    uint64_t seq = 0;      // seq of the pending event; 0 when free
    uint32_t gen = 1;      // bumped when the event fires or is cancelled
    uint32_t next_free = 0;
  };
  struct HeapEntry {
    Nanos when;
    uint64_t seq;
    uint32_t slot;
  };

  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  Slot& slot(uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  uint32_t alloc_slot();
  /// Invalidate the slot's id: cancel() and stale heap records miss it.
  static void retire(Slot& s);
  void free_slot(uint32_t index);
  /// Drop heap records of cancelled events sitting at the top.
  void skip_cancelled();
  void heap_push(const HeapEntry& e);
  void heap_pop();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slots_used_ = 0;  // slots ever handed out
  uint32_t free_head_ = kNoSlot;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap on (when, seq)
  Nanos now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
};

}  // namespace accelring::simnet
