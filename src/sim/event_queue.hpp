// Discrete-event core: a deterministic time-ordered queue.
//
// Ties at the same cycle are served in insertion order (monotonic sequence
// number), which makes every simulation bit-reproducible for a given seed.
//
// The queue is a two-level timing wheel over a slab pool of 32-byte Events
// (events are moved in on push and moved out on pop; the structures
// themselves only shuffle 4-byte pool indices):
//
//  * The fine wheel has 2^16 one-cycle buckets and holds exactly the current
//    epoch, the aligned 2^16-cycle span [E * 2^16, (E + 1) * 2^16). A bucket
//    is therefore one exact cycle, and it is kept in sequence order, so
//    bucket order *is* (time, seq) order. A three-level occupancy bitmap
//    finds the earliest occupied bucket with three countr_zero steps.
//  * The coarse wheel has 2^16 epoch buckets for the epochs E+1 .. E+2^16-1
//    (2^32 cycles ahead). When the fine wheel runs empty, the next occupied
//    epoch bucket cascades into it in push order, and E advances to that
//    epoch.
//  * A binary min-heap ordered by (time, seq) takes the rest: events behind
//    the current epoch, or 2^32 cycles or more ahead.
//
// Pop is a two-way merge of the fine wheel's head and the heap's head under
// the exact (time, seq) key, so the global order is identical to a single
// totally-ordered queue. tests/test_event_queue.cpp checks that order
// against a sorted reference model; docs/PERF.md has the argument.
//
// The head is memoized with its time, which a fine bucket implies and a
// heap node carries, so finding it reads a slot only to break a same-time
// tie. pop() finds the next head at once and prefetches its slot, so that
// load overlaps the handler that runs in between; a push later than the
// memoized head cannot displace it and keeps the memo.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "iba/types.hpp"
#include "sim/packet_pool.hpp"

namespace ibarb::sim {

enum class EventType : std::uint8_t {
  kGenerate,      ///< A flow emits its next packet (aux = flow index).
  kLinkDeliver,   ///< Packet fully received at (node, port) input.
  kTxComplete,    ///< (node, port) finished serializing onto the link.
  kXferComplete,  ///< Crossbar transfer into (node, port) output finished.
  kControl,       ///< Simulator::call_at callback (aux = callback id).
};

struct Event {
  iba::Cycle time = 0;
  std::uint64_t seq = 0;  ///< Tie-breaker; assigned by the queue.
  iba::NodeId node = iba::kInvalidNode;
  /// Flow index (kGenerate), input port (kXferComplete) or callback id
  /// (kControl).
  std::uint32_t aux = 0;
  /// kLinkDeliver: the packet on the wire, a handle into the simulator's
  /// pool (sim/packet_pool.hpp).
  PacketHandle pkt = kNoPacket;
  EventType type = EventType::kGenerate;
  iba::PortIndex port = 0;
  iba::VirtualLane vl = 0;
};
static_assert(sizeof(Event) <= 32, "the wheel's slab holds one Event per slot");

/// The one event-queue implementation. The enum, SimConfig::queue_impl and
/// the EventQueue(EventQueueImpl) constructor remain only because the
/// benchmark sources (perfbench/) name them; there is nothing to select.
enum class EventQueueImpl : std::uint8_t {
  kWheel,  ///< Two-level timing wheel + overflow heap.
};

class EventQueue {
 public:
  /// Always-on plain counters published to obs::TelemetryRegistry by the
  /// simulator's snapshot probe. A handful of uint64 increments per
  /// operation keeps the hot path free of any registry indirection.
  static constexpr std::size_t kResidencyBins = 18;
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    /// Pushes 2^16 cycles or more after the last popped time (or behind
    /// it). Defined by that distance alone, not by which level stores the
    /// event.
    std::uint64_t overflow_pushes = 0;
    std::uint64_t peak_size = 0;
    /// Bin i counts pushes whose distance from the last popped time had
    /// bit_width i (bin 0 = "due now", last bin = saturated).
    std::array<std::uint64_t, kResidencyBins> residency_log2{};
  };

  /// The argument names the only implementation (see EventQueueImpl).
  explicit EventQueue(EventQueueImpl = EventQueueImpl::kWheel) {}

  void push(Event e) {
    e.seq = next_seq_++;
    ++stats_.pushes;
    const iba::Cycle t = e.time;
    record_residency(t >= last_pop_ && t - last_pop_ < kSpan, t - last_pop_);
    forget_head_unless_later(t);
    place(alloc_slot(std::move(e)));
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Non-const: finding the head may cascade the next epoch into the fine
  /// wheel.
  const Event& top() { return pool_[peek().idx]; }

  /// The head's time, without reading the head's slot.
  iba::Cycle top_time() { return peek().time; }

  const Stats& stats() const noexcept { return stats_; }

  Event pop() {
    ++stats_.pops;
    const Peek p = peek();
    peek_valid_ = false;
    const iba::Cycle t = p.time;
    if (p.from_wheel) {
      Bucket& bk = fine_.buckets[p.bucket];
      bk.head = next_[p.idx];
      if (bk.head == kNull) fine_.clear(p.bucket);
      --fine_.count;
    } else {
      heap_pop_root();
      // With both wheels empty the epoch may jump straight to the present,
      // so a run whose clock leaps past the coarse horizon does not leave
      // every later push on the heap.
      if (fine_.count == 0 && coarse_.count == 0 && (t >> kSpanBits) > epoch_)
        epoch_ = t >> kSpanBits;
    }
    if (t > last_pop_) last_pop_ = t;
    --size_;
    Event out = std::move(pool_[p.idx]);
    free_.push_back(p.idx);
    // A cascade stays lazy: it would move the epoch before the handler's
    // pushes are placed.
    if (size_ > 0 && (fine_.count > 0 || coarse_.count == 0)) {
      cached_peek_ = find_peek();
      peek_valid_ = true;
      __builtin_prefetch(&pool_[cached_peek_.idx]);
    }
    return out;
  }

 private:
  static constexpr unsigned kSpanBits = 16;
  static constexpr std::uint32_t kSpan = 1u << kSpanBits;
  static constexpr std::uint64_t kMask = kSpan - 1;
  static constexpr std::uint32_t kNull = 0xFFFF'FFFFu;

  void record_residency(bool near, iba::Cycle dist) {
    std::size_t bin = kResidencyBins - 1;
    if (near) {
      bin = static_cast<std::size_t>(std::bit_width(dist));
      if (bin >= kResidencyBins) bin = kResidencyBins - 1;
    } else {
      ++stats_.overflow_pushes;
    }
    ++stats_.residency_log2[bin];
  }

  /// A push before the memoized head's time orders first. A push at the
  /// same time carries a larger seq, and a later one is later; both keep
  /// the memo.
  void forget_head_unless_later(iba::Cycle t) {
    if (t < cached_peek_.time) peek_valid_ = false;
  }

  // --- Shared slab pool ----------------------------------------------------

  std::uint32_t alloc_slot(Event&& e) {
    if (++size_ > stats_.peak_size) stats_.peak_size = size_;
    if (free_.empty()) {
      pool_.push_back(std::move(e));
      next_.push_back(kNull);
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    pool_[idx] = std::move(e);
    next_[idx] = kNull;
    return idx;
  }

  // --- One wheel level: 2^16 intrusive FIFOs + occupancy bitmap -------------

  /// Intrusive list of pool indices chained through next_. Meaningful only
  /// while the bucket's occupancy bit is set, so the bucket array is never
  /// initialized: untouched buckets cost no resident memory.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  struct Level {
    std::unique_ptr<Bucket[]> buckets =
        std::make_unique_for_overwrite<Bucket[]>(kSpan);
    std::vector<std::uint64_t> bits0 =
        std::vector<std::uint64_t>(kSpan / 64, 0);  ///< One bit per bucket.
    std::array<std::uint64_t, kSpan / (64 * 64)> bits1{};  ///< Per bits0 word.
    std::uint64_t bits2 = 0;                         ///< Per bits1 word.
    std::size_t count = 0;                           ///< Events held.

    bool occupied(std::uint32_t b) const {
      return (bits0[b >> 6] >> (b & 63)) & 1u;
    }

    /// Called only for an empty bucket, so the upper levels need updating
    /// only when their word was all-zero too.
    void set(std::uint32_t b) {
      std::uint64_t& w0 = bits0[b >> 6];
      if (w0 == 0) {
        std::uint64_t& w1 = bits1[b >> 12];
        if (w1 == 0) bits2 |= 1ull << (b >> 12);
        w1 |= 1ull << ((b >> 6) & 63);
      }
      w0 |= 1ull << (b & 63);
    }

    void clear(std::uint32_t b) {
      if ((bits0[b >> 6] &= ~(1ull << (b & 63))) != 0) return;
      if ((bits1[b >> 12] &= ~(1ull << ((b >> 6) & 63))) != 0) return;
      bits2 &= ~(1ull << (b >> 12));
    }

    /// Bits strictly above position k of a 64-bit word.
    static constexpr std::uint64_t above(unsigned k) noexcept {
      return k == 63 ? 0 : ~0ull << (k + 1);
    }

    /// First occupied bucket with index >= b, or -1. At most one probe per
    /// bitmap level.
    int find_from(std::uint32_t b) const {
      std::uint32_t w = b >> 6;
      if (const auto m = bits0[w] & (~0ull << (b & 63)))
        return static_cast<int>((w << 6) | std::countr_zero(m));
      std::uint32_t s = w >> 6;
      if (const auto m1 = bits1[s] & above(w & 63)) {
        w = (s << 6) | static_cast<std::uint32_t>(std::countr_zero(m1));
        return static_cast<int>((w << 6) | std::countr_zero(bits0[w]));
      }
      const auto m2 = bits2 & above(s);
      if (m2 == 0) return -1;
      s = static_cast<std::uint32_t>(std::countr_zero(m2));
      w = (s << 6) | static_cast<std::uint32_t>(std::countr_zero(bits1[s]));
      return static_cast<int>((w << 6) | std::countr_zero(bits0[w]));
    }

    /// First occupied bucket. Requires count > 0.
    std::uint32_t first() const {
      const auto s = static_cast<std::uint32_t>(std::countr_zero(bits2));
      const auto w =
          (s << 6) | static_cast<std::uint32_t>(std::countr_zero(bits1[s]));
      return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits0[w]));
    }
  };

  /// FIFO append: push() stamps increasing keys, so the tail stays last.
  void append(Level& lv, std::uint32_t b, std::uint32_t idx) {
    Bucket& bk = lv.buckets[b];
    if (!lv.occupied(b)) {
      bk.head = idx;
      lv.set(b);
    } else {
      next_[bk.tail] = idx;
    }
    bk.tail = idx;
    ++lv.count;
  }

  /// Routes a slotted event to the fine wheel (current epoch), the coarse
  /// wheel (the next 2^16 - 1 epochs) or the heap (anything else).
  void place(std::uint32_t idx) {
    const iba::Cycle t = pool_[idx].time;
    const iba::Cycle ep = t >> kSpanBits;
    if (ep == epoch_) {
      append(fine_, static_cast<std::uint32_t>(t & kMask), idx);
    } else if (ep > epoch_ && ep - epoch_ < kSpan) {
      append(coarse_, static_cast<std::uint32_t>(ep & kMask), idx);
    } else {
      overflow_.push_back(HeapNode{t, pool_[idx].seq, idx});
      sift_up(overflow_.size() - 1);
    }
  }

  /// Moves the earliest occupied coarse epoch into the (empty) fine wheel
  /// and makes it current. Every coarse event lies in (epoch_, epoch_ +
  /// 2^16), so the cyclic scan from epoch_ + 1 meets the earliest first.
  /// The coarse bucket holds its events in push (seq) order and the fine
  /// wheel is empty, so appending keeps each fine bucket in seq order.
  void cascade() {
    assert(fine_.count == 0 && coarse_.count > 0);
    const auto from = static_cast<std::uint32_t>((epoch_ + 1) & kMask);
    int cb = coarse_.find_from(from);
    if (cb < 0) cb = coarse_.find_from(0);
    assert(cb >= 0 && "coarse count > 0 but no bucket bit set");
    const auto b = static_cast<std::uint32_t>(cb);
    epoch_ += 1 + ((b - from) & kMask);
    std::uint32_t idx = coarse_.buckets[b].head;
    coarse_.clear(b);
    while (idx != kNull) {
      const std::uint32_t nxt = next_[idx];
      next_[idx] = kNull;
      --coarse_.count;
      append(fine_, static_cast<std::uint32_t>(pool_[idx].time & kMask), idx);
      idx = nxt;
    }
  }

  // --- Overflow binary heap over (time, seq, pool index) -------------------

  struct HeapNode {
    iba::Cycle time;
    std::uint64_t seq;
    std::uint32_t idx;

    bool before(const HeapNode& o) const noexcept {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  void sift_up(std::size_t i) {
    HeapNode n = overflow_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!n.before(overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = n;
  }

  void heap_pop_root() {
    HeapNode last = overflow_.back();
    overflow_.pop_back();
    if (overflow_.empty()) return;
    std::size_t i = 0;
    const std::size_t n = overflow_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      const std::size_t r = l + 1;
      const std::size_t child =
          (r < n && overflow_[r].before(overflow_[l])) ? r : l;
      if (!overflow_[child].before(last)) break;
      overflow_[i] = overflow_[child];
      i = child;
    }
    overflow_[i] = last;
  }

  // --- Two-way (time, seq) merge of fine-wheel head and heap head ----------

  struct Peek {
    iba::Cycle time = 0;
    std::uint32_t idx = 0;
    std::uint32_t bucket = 0;
    bool from_wheel = false;
  };

  /// Memoizes the merge so the usual top()-then-pop() pattern pays for one
  /// bitmap search per event, not two. Invalidated by a pop (which finds the
  /// next head itself) and by a push at or before the head's time.
  const Peek& peek() {
    if (!peek_valid_) {
      cached_peek_ = find_peek();
      peek_valid_ = true;
    }
    return cached_peek_;
  }

  /// A fine bucket is one exact cycle of the current epoch, so only a
  /// same-time tie with the heap's head reads the wheel head's slot.
  Peek find_peek() {
    assert(size_ > 0 && "peek/pop on an empty EventQueue");
    if (fine_.count == 0) {
      if (coarse_.count == 0) {
        const HeapNode& h = overflow_.front();
        return Peek{h.time, h.idx, 0, false};
      }
      cascade();
    }
    const std::uint32_t b = fine_.first();
    const std::uint32_t wi = fine_.buckets[b].head;
    const iba::Cycle wt = (epoch_ << kSpanBits) | b;
    if (!overflow_.empty()) {
      const HeapNode& h = overflow_.front();
      if (h.time < wt || (h.time == wt && h.seq < pool_[wi].seq))
        return Peek{h.time, h.idx, 0, false};
    }
    return Peek{wt, wi, b, true};
  }

  std::vector<Event> pool_;
  std::vector<std::uint32_t> next_;  ///< Per-slot intrusive bucket link.
  std::vector<std::uint32_t> free_;
  std::vector<HeapNode> overflow_;   ///< Behind the epoch or past 2^32.

  Level fine_;    ///< One-cycle buckets of epoch epoch_.
  Level coarse_;  ///< One-epoch buckets of epochs epoch_+1 .. +2^16-1.
  iba::Cycle epoch_ = 0;     ///< Current epoch (cycle >> 16); never decreases.
  iba::Cycle last_pop_ = 0;  ///< Latest popped time (the Stats reference).
  Peek cached_peek_{};
  bool peek_valid_ = false;

  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace ibarb::sim
