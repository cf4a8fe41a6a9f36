#include "sim/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/packet_pool.hpp"

namespace ibarb::sim {
namespace {

iba::Packet pkt(std::uint32_t payload, std::uint64_t id = 0,
                std::uint32_t conn = iba::kInvalidConnection) {
  iba::Packet p;
  p.id = id;
  p.payload_bytes = payload;
  p.connection = conn;
  return p;
}

/// Test harness: FIFOs hold handles, so every test parks its packets in a
/// pool and reads them back through it.
struct Pooled {
  PacketPool pool;

  void push(VlFifo& f, const iba::Packet& p) {
    f.push(pool.park(p), p.wire_bytes());
  }
  void push(PortBuffers& b, iba::VirtualLane v, const iba::Packet& p) {
    b.push(v, pool.park(p), p.wire_bytes());
  }
  std::uint64_t pop_id(VlFifo& f) { return pool.take(f.pop()).id; }
};

TEST(VlFifo, FifoOrder) {
  Pooled t;
  VlFifo f;
  t.push(f, pkt(100, 1));
  t.push(f, pkt(100, 2));
  EXPECT_EQ(t.pop_id(f), 1u);
  EXPECT_EQ(t.pop_id(f), 2u);
}

TEST(VlFifo, ByteAccounting) {
  Pooled t;
  VlFifo f;
  f.set_capacity(1000);
  t.push(f, pkt(100));  // wire 126
  EXPECT_EQ(f.used_bytes(), 126u);
  EXPECT_EQ(f.front_bytes(), 126u);
  EXPECT_TRUE(f.can_accept(874));
  EXPECT_FALSE(f.can_accept(875));
  f.pop();
  EXPECT_EQ(f.used_bytes(), 0u);
}

TEST(VlFifo, UnboundedByDefault) {
  Pooled t;
  VlFifo f;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.can_accept(1u << 20));
    t.push(f, pkt(1u << 20));
  }
  EXPECT_EQ(f.size(), 100u);
}

TEST(VlFifo, FifoOrderSurvivesWrapAroundAndGrowth) {
  // Interleaved pushes and pops walk the ring's head around its end many
  // times, and bursts force it to grow while wrapped: order, sizes, bytes
  // and peaks must follow a plain reference queue throughout.
  Pooled t;
  VlFifo f;
  std::vector<std::uint64_t> ref;  // ids still queued, in order
  std::size_t ref_head = 0;
  std::uint32_t ref_bytes = 0;
  std::uint32_t peak_bytes = 0;
  std::size_t peak_packets = 0;
  std::uint64_t next_id = 1;
  for (unsigned round = 0; round < 40; ++round) {
    const unsigned burst = 1 + (round * 7) % 13;  // 1..13, grows past 8
    for (unsigned i = 0; i < burst; ++i) {
      const auto payload = static_cast<std::uint32_t>(10 + next_id % 50);
      t.push(f, pkt(payload, next_id++));
      ref.push_back(next_id - 1);
      ref_bytes += payload + iba::kPacketOverheadBytes;
      peak_bytes = std::max(peak_bytes, ref_bytes);
      peak_packets = std::max(peak_packets, ref.size() - ref_head);
    }
    const unsigned drain = burst - (round % 3 == 0 ? 0 : 1);
    for (unsigned i = 0; i < drain && ref_head < ref.size(); ++i) {
      ASSERT_EQ(t.pool[f.front()].id, ref[ref_head]) << "round " << round;
      ref_bytes -= f.front_bytes();
      ASSERT_EQ(t.pop_id(f), ref[ref_head++]);
    }
    ASSERT_EQ(f.size(), ref.size() - ref_head);
    ASSERT_EQ(f.used_bytes(), ref_bytes);
  }
  EXPECT_EQ(f.peak_bytes(), peak_bytes);
  EXPECT_EQ(f.peak_packets(), peak_packets);
  while (ref_head < ref.size()) ASSERT_EQ(t.pop_id(f), ref[ref_head++]);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.used_bytes(), 0u);
  EXPECT_EQ(t.pool.live(), 0u);
}

TEST(PortBuffers, OccupancyMaskTracksVls) {
  Pooled t;
  PortBuffers b;
  EXPECT_TRUE(b.all_empty());
  t.push(b, 3, pkt(10));
  t.push(b, 7, pkt(10));
  EXPECT_EQ(b.occupancy(), (1u << 3) | (1u << 7));
  b.pop(3);
  EXPECT_EQ(b.occupancy(), 1u << 7);
  b.pop(7);
  EXPECT_TRUE(b.all_empty());
}

TEST(PortBuffers, OccupancyStaysSetWhileNonEmpty) {
  Pooled t;
  PortBuffers b;
  t.push(b, 2, pkt(10, 1));
  t.push(b, 2, pkt(10, 2));
  b.pop(2);
  EXPECT_EQ(b.occupancy(), 1u << 2);
  b.pop(2);
  EXPECT_EQ(b.occupancy(), 0u);
}

TEST(PortBuffers, PerVlIsolation) {
  Pooled t;
  PortBuffers b;
  b.set_capacity_all(200);
  t.push(b, 0, pkt(150));  // wire 176 on VL0
  EXPECT_FALSE(b.can_accept(0, 176));
  EXPECT_TRUE(b.can_accept(1, 176));  // VL1 space untouched
}

TEST(PortBuffers, TotalPackets) {
  Pooled t;
  PortBuffers b;
  t.push(b, 0, pkt(1));
  t.push(b, 5, pkt(1));
  t.push(b, 5, pkt(1));
  EXPECT_EQ(b.total_packets(), 3u);
}

TEST(PortBuffers, FrontPeeksWithoutRemoving) {
  Pooled t;
  PortBuffers b;
  t.push(b, 4, pkt(10, 42));
  EXPECT_EQ(t.pool[b.front(4)].id, 42u);
  EXPECT_EQ(b.front_bytes(4), 36u);
  EXPECT_EQ(b.total_packets(), 1u);
}

TEST(VlFifo, ExtractConnectionRemovesOnlyThatFlowInOrder) {
  Pooled t;
  VlFifo f;
  t.push(f, pkt(100, 10, 1));
  t.push(f, pkt(100, 11, 2));
  t.push(f, pkt(100, 12, 1));
  const auto bytes_before = f.used_bytes();
  const auto out = f.extract_connection(1, t.pool);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(t.pool[out[0]].id, 10u);
  EXPECT_EQ(t.pool[out[1]].id, 12u);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.used_bytes(), bytes_before - t.pool[out[0]].wire_bytes() -
                                t.pool[out[1]].wire_bytes());
  EXPECT_EQ(t.pop_id(f), 11u);
}

TEST(VlFifo, ExtractConnectionKeepsOrderBytesAndPeaksOfTheRest) {
  // Extraction from a wrapped ring: the survivors keep their order and
  // their per-entry byte counts, and the high-water marks are untouched.
  Pooled t;
  VlFifo f;
  for (std::uint64_t i = 0; i < 6; ++i) t.push(f, pkt(50, 100 + i, 9));
  for (int i = 0; i < 6; ++i) f.pop();  // head now mid-ring
  std::vector<std::uint64_t> keep_ids;
  std::uint32_t keep_bytes = 0;
  for (std::uint64_t i = 0; i < 7; ++i) {
    const std::uint32_t conn = (i % 3 == 1) ? 1 : 2;
    const auto payload = static_cast<std::uint32_t>(20 * (i + 1));
    t.push(f, pkt(payload, i, conn));
    if (conn == 2) {
      keep_ids.push_back(i);
      keep_bytes += payload + iba::kPacketOverheadBytes;
    }
  }
  const auto peak_bytes = f.peak_bytes();
  const auto peak_packets = f.peak_packets();

  const auto out = f.extract_connection(1, t.pool);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(t.pool[out[0]].id, 1u);
  EXPECT_EQ(t.pool[out[1]].id, 4u);
  EXPECT_EQ(f.size(), keep_ids.size());
  EXPECT_EQ(f.used_bytes(), keep_bytes);
  EXPECT_EQ(f.peak_bytes(), peak_bytes);
  EXPECT_EQ(f.peak_packets(), peak_packets);
  for (const auto id : keep_ids) {
    EXPECT_EQ(f.front_bytes(), t.pool[f.front()].wire_bytes());
    EXPECT_EQ(t.pop_id(f), id);
  }
  EXPECT_EQ(f.used_bytes(), 0u);
}

TEST(VlFifo, ExtractConnectionNoMatchLeavesQueueIntact) {
  Pooled t;
  VlFifo f;
  t.push(f, pkt(100, 10, 1));
  EXPECT_TRUE(f.extract_connection(9, t.pool).empty());
  EXPECT_EQ(f.size(), 1u);
}

TEST(PortBuffers, ExtractConnectionClearsOccupancyWhenVlDrains) {
  Pooled t;
  PortBuffers b;
  t.push(b, 2, pkt(100, 1, 5));
  t.push(b, 2, pkt(100, 2, 6));
  EXPECT_EQ(b.extract_connection(2, 5, t.pool).size(), 1u);
  EXPECT_EQ(b.occupancy(), 1u << 2) << "other flow still queued";
  EXPECT_EQ(b.extract_connection(2, 6, t.pool).size(), 1u);
  EXPECT_TRUE(b.all_empty()) << "occupancy bit must clear with the VL";
}

TEST(PacketPool, ReusesReleasedSlotsAndCountsLivePackets) {
  PacketPool pool;
  const PacketHandle a = pool.park(pkt(10, 1));
  const PacketHandle b = pool.park(pkt(20, 2));
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.take(a).id, 1u);
  EXPECT_EQ(pool.live(), 1u);
  const PacketHandle c = pool.park(pkt(30, 3));
  EXPECT_EQ(c, a) << "a freed slot is reused before the slab grows";
  EXPECT_EQ(pool[c].id, 3u);
  EXPECT_EQ(pool[b].id, 2u);
}

}  // namespace
}  // namespace ibarb::sim
