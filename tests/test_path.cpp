// Event loop and path semantics: deterministic ordering, TTL hop
// accounting, loss, FIFO non-reordering, injection, and route shifts.
#include <gtest/gtest.h>

#include <array>
#include <limits>

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

constexpr i64 kMinUs = std::numeric_limits<i64>::min();
constexpr i64 kMaxUs = std::numeric_limits<i64>::max();

/// Time origins for the ordering tests: the queue key packs the time into
/// an unsigned word, so order must hold at both ends of the range too.
const std::array<SimTime, 3> kOrigins = {SimTime::from_us(kMinUs),
                                         SimTime::zero(),
                                         SimTime::from_us(kMaxUs - 10'000)};

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(SimTime::from_ms(30), [&] { order.push_back(3); });
  loop.schedule_after(SimTime::from_ms(10), [&] { order.push_back(1); });
  loop.schedule_after(SimTime::from_ms(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().millis(), 30);

  // Across the sign boundary and at both extremes of SimTime.
  EventLoop wide;
  std::vector<i64> seen;
  for (const i64 us : {i64{1}, kMaxUs, i64{-1}, kMinUs, i64{0},
                       kMaxUs - 1, kMinUs + 1}) {
    wide.schedule_at(SimTime::from_us(us), [&seen, us] { seen.push_back(us); });
  }
  wide.run();
  EXPECT_EQ(seen, (std::vector<i64>{kMinUs, kMinUs + 1, -1, 0, 1, kMaxUs - 1,
                                    kMaxUs}));
  EXPECT_EQ(wide.now().us, kMaxUs);
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
  for (const SimTime origin : kOrigins) {
    SCOPED_TRACE(origin.us);
    EventLoop loop;
    std::vector<std::string> order;
    const SimTime t = origin + SimTime::from_ms(5);
    loop.schedule_at(t, [&] {
      order.push_back("a");
      loop.schedule_at(t, [&] {
        order.push_back("c");
        loop.schedule_at(t, [&] { order.push_back("e"); });
      });
      loop.schedule_at(t, [&] { order.push_back("d"); });
    });
    loop.schedule_at(t, [&] { order.push_back("b"); });
    loop.schedule_at(origin + SimTime::from_ms(4), [&] {
      order.push_back("early");
      loop.schedule_at(t, [&] { order.push_back("f"); });
    });
    loop.run();
    EXPECT_EQ(order, (std::vector<std::string>{"early", "a", "b", "f", "c",
                                               "d", "e"}));
  }
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

/// Packet-event target that logs "p<seq>" and runs an optional reaction.
struct RecordingTarget final : PacketTarget {
  std::vector<std::string>* order = nullptr;
  std::function<void(const Packet&)> react;

  void on_packet_event(Packet& pkt, u32 tag, u64 aux) override {
    EXPECT_EQ(tag, 7u);
    EXPECT_EQ(aux, 42u);
    order->push_back("p" + std::to_string(pkt.tcp->seq));
    if (react) react(pkt);
  }
};

TEST(EventLoop, TypedPacketEventsAndClosuresShareSchedulingOrder) {
  for (const SimTime origin : kOrigins) {
    SCOPED_TRACE(origin.us);
    EventLoop loop;
    std::vector<std::string> order;
    RecordingTarget target;
    target.order = &order;
    const SimTime t = origin + SimTime::from_ms(5);
    auto packet_at = [&](SimTime when, u32 seq) {
      loop.schedule_packet_at(when, &target, 7, probe(64, seq), 42);
    };
    target.react = [&](const Packet& pkt) {
      // Packet events schedule more same-instant work, like a hop that
      // delivers at once.
      if (pkt.tcp->seq == 1) {
        loop.schedule_at(t, [&] { order.push_back("c"); });
        packet_at(t, 3);
      }
    };
    loop.schedule_at(t, [&] {
      order.push_back("a");
      packet_at(t, 2);
      loop.schedule_at(t, [&] { order.push_back("b"); });
    });
    packet_at(t, 1);
    loop.schedule_at(t, [&] { order.push_back("z"); });
    loop.schedule_at(origin + SimTime::from_ms(4), [&] {
      order.push_back("early");
      packet_at(t, 4);
    });
    loop.run();
    EXPECT_EQ(order, (std::vector<std::string>{"early", "a", "p1", "z", "p4",
                                               "p2", "b", "c", "p3"}));
    EXPECT_TRUE(loop.idle());
  }
}

/// Packet-event target that, on its first packet, schedules `fan_out`
/// more packet events (enough to need new slot chunks) and then reads the
/// packet it was handed, which must not have moved.
struct FanOutTarget final : PacketTarget {
  EventLoop* loop = nullptr;
  int fan_out = 0;
  std::vector<u32> seen;

  void on_packet_event(Packet& pkt, u32 tag, u64) override {
    if (tag == 0) {
      for (int i = 1; i <= fan_out; ++i) {
        Packet child = probe(64, static_cast<u32>(1000 + i));
        child.payload = Bytes(64, static_cast<u8>(i));
        loop->schedule_packet_at(loop->now(), this, static_cast<u32>(i),
                                 std::move(child));
      }
    }
    seen.push_back(pkt.tcp->seq);
    EXPECT_EQ(pkt.payload.size(), tag == 0 ? 300u : 64u);
    for (const u8 b : pkt.payload) {
      ASSERT_EQ(b, tag == 0 ? 0x5A : static_cast<u8>(tag));
    }
  }
};

TEST(EventLoop, APacketStaysInItsSlotWhileItsEventSchedulesMore) {
  for (const std::size_t pending : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE(pending);
    EventLoop loop = pending == 0 ? EventLoop() : EventLoop(pending);
    FanOutTarget target;
    target.loop = &loop;
    target.fan_out = 48;
    Packet first = probe(64, 7);
    first.payload = Bytes(300, 0x5A);
    loop.schedule_packet_at(SimTime::from_ms(1), &target, 0, std::move(first));
    EXPECT_EQ(loop.run().executed, 49u);
    ASSERT_EQ(target.seen.size(), 49u);
    EXPECT_EQ(target.seen.front(), 7u);
    for (u32 i = 1; i <= 48; ++i) EXPECT_EQ(target.seen[i], 1000 + i);
  }
}

/// Packet-event target that sends each packet on to the next hop until
/// its chain runs out, like Path moving a packet element to element.
struct RelayTarget final : PacketTarget {
  EventLoop* loop = nullptr;
  std::vector<int>* left = nullptr;
  void on_packet_event(Packet& pkt, u32 tag, u64) override {
    int& l = (*left)[tag];
    if (--l <= 0) return;
    loop->schedule_packet_at(loop->now() + SimTime::from_us(1), this, tag,
                             std::move(pkt));
  }
};

TEST(EventLoop, TypedPacketEventsAllocateNothingAfterWarmUp) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  }
  EventLoop loop;
  std::vector<int> left(8);
  RelayTarget relay;
  relay.loop = &loop;
  relay.left = &left;
  std::vector<Packet> pkts(left.size());
  auto chains = [&](int events_per_chain) {
    for (u32 c = 0; c < left.size(); ++c) {
      left[c] = events_per_chain;
      loop.schedule_packet_at(loop.now() + SimTime::from_us(1), &relay, c,
                              std::move(pkts[c]));
    }
  };
  auto fresh_packets = [&] {
    for (Packet& pkt : pkts) {
      pkt = probe(64);
      pkt.payload = Bytes(200, 0xAB);
    }
  };
  fresh_packets();
  chains(4);  // warm up: metric bindings, queue and slot capacity
  loop.run();

  fresh_packets();
  constexpr int kPerChain = 100;
  const auto before = obs::perf::thread_alloc_counters();
  chains(kPerChain);
  const std::size_t executed = loop.run();
  const auto after = obs::perf::thread_alloc_counters();
  ASSERT_EQ(executed, left.size() * kPerChain);
  EXPECT_EQ(after.count - before.count, 0u);
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
    path.set_server_sink([this](Packet& p) { at_server.push_back(std::move(p)); });
    path.set_client_sink([this](Packet& p) { at_client.push_back(std::move(p)); });
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

/// Packets split by direction: probes from the client carry seq < 1000,
/// probes from the server seq >= 1000.
std::vector<u32> seqs(const std::vector<Packet>& pkts, bool from_client) {
  std::vector<u32> out;
  for (const Packet& p : pkts) {
    if ((p.tcp->seq < 1000) == from_client) out.push_back(p.tcp->seq);
  }
  return out;
}

std::vector<u32> iota_seqs(u32 first, u32 n) {
  std::vector<u32> out;
  for (u32 i = 0; i < n; ++i) out.push_back(first + i);
  return out;
}

/// Sends `n` probes each way, 50 us apart (well inside the jitter), so
/// every segment sees packets that jitter alone would reorder.
void send_both_ways(PathFixture& fx, u32 n) {
  for (u32 i = 0; i < n; ++i) {
    fx.loop.schedule_at(SimTime::from_us(50 * i), [&fx, i] {
      fx.path.send_from_client(probe(64, i));
      fx.path.send_from_server(probe(64, 1000 + i));
    });
  }
}

PathConfig jittery_config() {
  PathConfig cfg;
  cfg.server_hops = 12;
  cfg.jitter_us = 500;
  cfg.per_link_loss = 0.0;
  return cfg;
}

TEST(Path, FifoHoldsPerStopAndDirectionAcrossElements) {
  PathFixture fx(jittery_config());
  TapElement near_client("near-client");
  TapElement mid_a("mid-a");
  TapElement mid_b("mid-b");  // stacked with mid-a at one router
  TapElement near_server("near-server");
  fx.path.attach(7, &mid_a);
  fx.path.attach(10, &near_server);
  fx.path.attach(3, &near_client);
  fx.path.attach(7, &mid_b);
  send_both_ways(fx, 40);
  fx.loop.run();

  const std::vector<u32> c2s = iota_seqs(0, 40);
  const std::vector<u32> s2c = iota_seqs(1000, 40);
  EXPECT_EQ(seqs(fx.at_server, true), c2s);
  EXPECT_EQ(seqs(fx.at_client, false), s2c);
  for (const TapElement* tap : {&near_client, &mid_a, &mid_b, &near_server}) {
    EXPECT_EQ(seqs(tap->seen, true), c2s) << tap->name();
    EXPECT_EQ(seqs(tap->seen, false), s2c) << tap->name();
  }
}

TEST(Path, FifoFloorsAreKeptPerDirection) {
  PathFixture fx;  // no jitter
  TapElement near_client("near-client");
  fx.path.attach(2, &near_client);
  // The server's packet takes 8 hops to reach the element, the client's,
  // sent later, only 2: it must not queue behind the other direction.
  fx.path.send_from_server(probe(64, 1000));
  fx.loop.schedule_at(SimTime::from_us(100),
                      [&fx] { fx.path.send_from_client(probe(64, 0)); });
  fx.loop.run();
  ASSERT_EQ(near_client.seen.size(), 2u);
  EXPECT_EQ(near_client.seen[0].tcp->seq, 0u);
  EXPECT_EQ(near_client.seen[1].tcp->seq, 1000u);
}

/// Fault hook driven by per-packet rules, consulted on the first segment
/// each packet crosses (leaving its endpoint).
class RuleHook final : public FaultHook {
 public:
  explicit RuleHook(int server_hops) : server_hops_(server_hops) {}
  std::function<LinkAction(u32 seq)> rule;

  LinkAction on_segment(const Packet& pkt, Dir dir, int from_pos, int,
                        SimTime) override {
    const bool leaving_endpoint =
        from_pos == (dir == Dir::kC2S ? 0 : server_hops_);
    return leaving_endpoint ? rule(pkt.tcp->seq) : LinkAction{};
  }
  InjectAction on_inject(const std::string&, SimTime) override { return {}; }

 private:
  int server_hops_;
};

TEST(Path, FaultDuplicatesTrailTheirOriginals) {
  PathFixture fx(jittery_config());
  TapElement near_client("near-client");
  TapElement mid("mid");
  fx.path.attach(3, &near_client);
  fx.path.attach(7, &mid);
  RuleHook hook(12);
  hook.rule = [](u32 seq) {
    FaultHook::LinkAction act;
    act.duplicate = seq % 5 == 0;
    act.reason = "dup";
    return act;
  };
  fx.path.set_fault_hook(&hook);
  send_both_ways(fx, 20);
  fx.loop.run();

  std::vector<u32> c2s;
  std::vector<u32> s2c;
  for (u32 i = 0; i < 20; ++i) {
    for (int copies = i % 5 == 0 ? 2 : 1; copies > 0; --copies) {
      c2s.push_back(i);
      s2c.push_back(1000 + i);
    }
  }
  EXPECT_EQ(seqs(fx.at_server, true), c2s);
  EXPECT_EQ(seqs(fx.at_client, false), s2c);
  for (const TapElement* tap : {&near_client, &mid}) {
    EXPECT_EQ(seqs(tap->seen, true), c2s) << tap->name();
    EXPECT_EQ(seqs(tap->seen, false), s2c) << tap->name();
  }
}

TEST(Path, BypassingTheFifoLeavesTheFloorForOthers) {
  PathFixture fx(jittery_config());
  TapElement mid("mid");
  fx.path.attach(6, &mid);
  RuleHook hook(12);
  hook.rule = [](u32 seq) {
    FaultHook::LinkAction act;
    // Packet 10 is held far back and must not drag the rest with it;
    // packet 20 skips the clamp with no delay and must not lower the
    // floor the packets behind it keep to.
    act.bypass_fifo = seq == 10 || seq == 20;
    act.extra_delay_us = seq == 10 ? 20'000 : 0;
    act.reason = "reorder";
    return act;
  };
  fx.path.set_fault_hook(&hook);
  std::vector<SimTime> arrival(30);
  fx.path.set_server_sink([&](Packet& p) {
    arrival[p.tcp->seq] = fx.loop.now();
    fx.at_server.push_back(std::move(p));
  });
  for (u32 i = 0; i < 30; ++i) fx.path.send_from_client(probe(64, i));
  fx.loop.run();

  ASSERT_EQ(fx.at_server.size(), 30u);
  std::vector<u32> others;
  for (const Packet& p : fx.at_server) {
    if (p.tcp->seq != 10 && p.tcp->seq != 20) others.push_back(p.tcp->seq);
  }
  std::vector<u32> want;
  for (u32 i = 0; i < 30; ++i) {
    if (i != 10 && i != 20) want.push_back(i);
  }
  EXPECT_EQ(others, want);
  EXPECT_EQ(fx.at_server.back().tcp->seq, 10u);
  EXPECT_LT(arrival[29], arrival[10]);
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
