// Event loop and path semantics: deterministic ordering, TTL hop
// accounting, loss, FIFO non-reordering, injection, and route shifts.
#include <gtest/gtest.h>

#include "netsim/event_loop.h"
#include "netsim/path.h"
#include "obs/alloc_hook.h"

namespace ys::net {
namespace {

const FourTuple kTuple{make_ip(10, 0, 0, 1), 40000,
                       make_ip(93, 184, 216, 34), 80};

Packet probe(u8 ttl, u32 seq = 1) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::only_ack(), seq, 0);
  pkt.ip.ttl = ttl;
  return pkt;
}

// -------------------------------------------------------------- EventLoop

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(SimTime::from_ms(30), [&] { order.push_back(3); });
  loop.schedule_after(SimTime::from_ms(10), [&] { order.push_back(1); });
  loop.schedule_after(SimTime::from_ms(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().millis(), 30);
}

TEST(EventLoop, TiesRunInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(SimTime::from_ms(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, NestedSchedulingWorks) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(SimTime::from_ms(1), [&] {
    ++fired;
    loop.schedule_after(SimTime::from_ms(1), [&] { ++fired; });
  });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(SimTime::from_ms(5), [&] { ++fired; });
  loop.schedule_after(SimTime::from_ms(15), [&] { ++fired; });
  loop.run_until(SimTime::from_ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().millis(), 10);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, MaxEventsBoundsRunawayLoops) {
  EventLoop loop;
  std::function<void()> rearm = [&] {
    loop.schedule_after(SimTime::from_us(1), rearm);
  };
  loop.schedule_after(SimTime::from_us(1), rearm);
  const std::size_t executed = loop.run(100);
  EXPECT_EQ(executed, 100u);
}

TEST(EventLoop, SameInstantEventsScheduledFromEventsKeepSchedulingOrder) {
  EventLoop loop;
  std::vector<std::string> order;
  const SimTime t = SimTime::from_ms(5);
  loop.schedule_at(t, [&] {
    order.push_back("a");
    loop.schedule_at(t, [&] {
      order.push_back("c");
      loop.schedule_at(t, [&] { order.push_back("e"); });
    });
    loop.schedule_at(t, [&] { order.push_back("d"); });
  });
  loop.schedule_at(t, [&] { order.push_back("b"); });
  loop.schedule_at(SimTime::from_ms(4), [&] {
    order.push_back("early");
    loop.schedule_at(t, [&] { order.push_back("f"); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "a", "b", "f", "c",
                                             "d", "e"}));
}

/// One hop of a packet-carrying event chain: runs, then hands its packet
/// to the next hop, like Path delivering a packet to the next element.
struct PacketHop {
  EventLoop* loop;
  Packet pkt;
  int* left;
  void operator()() {
    if (--*left <= 0) return;
    loop->schedule_after(SimTime::from_us(1),
                         PacketHop{loop, std::move(pkt), left});
  }
};

TEST(EventLoop, RunningAnEventMovesItOutOfTheQueue) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  }
  EventLoop loop;
  auto chains = [&](int events_per_chain, std::vector<int>& left) {
    for (int& l : left) {
      l = events_per_chain;
      Packet pkt = probe(64);
      pkt.payload = Bytes(200, 0xAB);
      loop.schedule_after(SimTime::from_us(1),
                          PacketHop{&loop, std::move(pkt), &l});
    }
  };
  std::vector<int> left(8);
  chains(4, left);  // warm up: metric bindings, queue capacity
  loop.run();

  constexpr int kPerChain = 100;
  chains(kPerChain, left);
  const auto before = obs::perf::thread_alloc_counters();
  const std::size_t executed = loop.run();
  const auto after = obs::perf::thread_alloc_counters();
  ASSERT_EQ(executed, left.size() * kPerChain);
  // Each event allocates only the closure of the hop it schedules; a pop
  // that copied the event would also copy the closure and the packet.
  EXPECT_LE(after.count - before.count, executed);
}

// ------------------------------------------------------------------- Path

struct PathFixture {
  EventLoop loop;
  obs::TraceRecorder trace;
  Path path;
  std::vector<Packet> at_server;
  std::vector<Packet> at_client;

  explicit PathFixture(PathConfig cfg = make_config())
      : path(loop, Rng(5), cfg, &trace) {
    path.set_server_sink([this](Packet p) { at_server.push_back(std::move(p)); });
    path.set_client_sink([this](Packet p) { at_client.push_back(std::move(p)); });
  }

  static PathConfig make_config() {
    PathConfig cfg;
    cfg.server_hops = 10;
    cfg.jitter_us = 0;
    cfg.per_link_loss = 0.0;
    return cfg;
  }
};

TEST(Path, DeliversEndToEndAndDecrementsTtl) {
  PathFixture fx;
  fx.path.send_from_client(probe(64));
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 1u);
  EXPECT_EQ(fx.at_server[0].ip.ttl, 64 - 10);
}

TEST(Path, TtlExactlyHopsReaches) {
  PathFixture fx;
  fx.path.send_from_client(probe(10));
  fx.loop.run();
  EXPECT_EQ(fx.at_server.size(), 1u);
  EXPECT_EQ(fx.at_server[0].ip.ttl, 0);
}

TEST(Path, TtlOneShortExpires) {
  PathFixture fx;
  fx.path.send_from_client(probe(9));
  fx.loop.run();
  EXPECT_TRUE(fx.at_server.empty());
  // The expiry is visible in the trace.
  bool expired = false;
  for (const auto& e : fx.trace.events()) {
    if (e.kind == obs::TraceKind::kExpire) expired = true;
  }
  EXPECT_TRUE(expired);
}

/// Tap element recording what it sees.
class TapElement final : public PathElement {
 public:
  explicit TapElement(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  void process(Packet pkt, Dir dir, Forwarder& fwd) override {
    seen.push_back(pkt);
    (void)dir;
    fwd.forward(std::move(pkt));
  }
  std::vector<Packet> seen;

 private:
  std::string name_;
};

TEST(Path, ElementAtPositionSeesTtlLimitedPacket) {
  PathFixture fx;
  TapElement tap("tap");
  fx.path.attach(4, &tap);

  fx.path.send_from_client(probe(4, /*seq=*/1));  // reaches exactly the tap
  fx.path.send_from_client(probe(3, /*seq=*/2));  // dies one hop short
  fx.loop.run();

  ASSERT_EQ(tap.seen.size(), 1u);
  EXPECT_EQ(tap.seen[0].tcp->seq, 1u);
  EXPECT_TRUE(fx.at_server.empty());  // ttl 4 < 10 hops
}

TEST(Path, ServerToClientTraversesElementsInReverse) {
  PathFixture fx;
  TapElement near_client("near-client");
  TapElement near_server("near-server");
  fx.path.attach(2, &near_client);
  fx.path.attach(8, &near_server);

  fx.path.send_from_server(probe(64));
  fx.loop.run();
  ASSERT_EQ(fx.at_client.size(), 1u);
  EXPECT_EQ(near_server.seen.size(), 1u);
  EXPECT_EQ(near_client.seen.size(), 1u);
  EXPECT_EQ(fx.at_client[0].ip.ttl, 64 - 10);
}

/// Element that drops everything.
class BlackholeElement final : public PathElement {
 public:
  std::string name() const override { return "blackhole"; }
  void process(Packet pkt, Dir, Forwarder& fwd) override {
    fwd.drop(pkt, "policy");
  }
};

TEST(Path, DropsAreTerminalAndTraced) {
  PathFixture fx;
  BlackholeElement hole;
  fx.path.attach(5, &hole);
  fx.path.send_from_client(probe(64));
  fx.loop.run();
  EXPECT_TRUE(fx.at_server.empty());
  bool dropped = false;
  for (const auto& e : fx.trace.events()) {
    if (e.kind == obs::TraceKind::kDrop && e.actor == "blackhole") {
      dropped = true;
    }
  }
  EXPECT_TRUE(dropped);
}

/// Element injecting a reply toward the client for every packet.
class ReflectorElement final : public PathElement {
 public:
  std::string name() const override { return "reflector"; }
  void process(Packet pkt, Dir dir, Forwarder& fwd) override {
    Packet reply = make_tcp_packet(pkt.tuple().reversed(),
                                   TcpFlags::only_rst(), 999, 0);
    fwd.inject(std::move(reply), opposite(dir), SimTime::from_us(100));
    fwd.forward(std::move(pkt));
  }
};

TEST(Path, InjectionTravelsOppositeDirection) {
  PathFixture fx;
  ReflectorElement reflector;
  fx.path.attach(5, &reflector);
  fx.path.send_from_client(probe(64));
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 1u);
  ASSERT_EQ(fx.at_client.size(), 1u);
  EXPECT_TRUE(fx.at_client[0].tcp->flags.rst);
  // The injected packet crossed 5 hops back to the client.
  EXPECT_EQ(fx.at_client[0].ip.ttl, 64 - 5);
}

TEST(Path, FifoNoReorderingUnderJitter) {
  PathConfig cfg;
  cfg.server_hops = 12;
  cfg.jitter_us = 500;  // aggressive jitter
  cfg.per_link_loss = 0.0;
  PathFixture fx(cfg);
  for (u32 i = 0; i < 50; ++i) {
    fx.path.send_from_client(probe(64, i));
  }
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 50u);
  for (u32 i = 0; i < 50; ++i) {
    EXPECT_EQ(fx.at_server[i].tcp->seq, i) << "reordered at " << i;
  }
}

TEST(Path, LossIsApplied) {
  PathConfig cfg;
  cfg.server_hops = 10;
  cfg.jitter_us = 0;
  cfg.per_link_loss = 0.05;  // ~40% end-to-end over 10 hops
  PathFixture fx(cfg);
  for (u32 i = 0; i < 400; ++i) {
    fx.path.send_from_client(probe(64, i));
  }
  fx.loop.run();
  EXPECT_LT(fx.at_server.size(), 320u);
  EXPECT_GT(fx.at_server.size(), 150u);
}

TEST(Path, RouteShiftMovesServer) {
  PathFixture fx;
  EXPECT_EQ(fx.path.current_server_hops(), 10);
  fx.path.shift_route(+2);
  EXPECT_EQ(fx.path.current_server_hops(), 12);
  // A packet that used to just reach the server now expires.
  fx.path.send_from_client(probe(10));
  fx.loop.run();
  EXPECT_TRUE(fx.at_server.empty());
  fx.path.send_from_client(probe(12));
  fx.loop.run();
  EXPECT_EQ(fx.at_server.size(), 1u);
}

TEST(Path, FinalizesOutgoingPackets) {
  PathFixture fx;
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("payload"));
  EXPECT_EQ(pkt.tcp->checksum, 0);
  fx.path.send_from_client(std::move(pkt));
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 1u);
  EXPECT_TRUE(transport_checksum_ok(fx.at_server[0]));
  EXPECT_NE(fx.at_server[0].ip.total_length, 0);
}

TEST(Path, CountsDeliveries) {
  PathFixture fx;
  fx.path.send_from_client(probe(64));
  fx.path.send_from_server(probe(64));
  fx.loop.run();
  EXPECT_EQ(fx.path.packets_delivered_to_server(), 1u);
  EXPECT_EQ(fx.path.packets_delivered_to_client(), 1u);
}

}  // namespace
}  // namespace ys::net
