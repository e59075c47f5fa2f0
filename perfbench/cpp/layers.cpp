// Traced runs: per-layer numbers measured from outside the program.
//
// Spans are taken here, around calls into each layer's public entry point,
// plus the counters the program already publishes. For layers below
// exp::run_http_trial the traced run re-builds sampled flows through the
// public exp::Scenario API from the workload's own vantage, server and
// profile population, captures their packets (Path::set_client_capture, a
// tap element at the GFW position, the hosts' received logs and the
// server's egress), and replays each stream into a fresh instance of one
// layer through its public entry point. README.md in this directory maps
// every metric to its layer, entry point and the end-to-end metric it
// should move.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "app/http.h"
#include "fleet/fleet.h"
#include "middlebox/profiles.h"
#include "netsim/wire.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "workloads.h"

namespace perfbench {

using namespace ys;

namespace {

// ------------------------------------------------------------ the sheet

/// Every per-layer metric, in print order. BENCHMARK.json lists the same
/// names under per_layer.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kList = {
      {"netsim.events_per_flow", "count"},
      {"netsim.loop_ns_per_event", "ns"},
      {"netsim.loop_allocs_per_event", "allocs"},
      {"netsim.wire_ns_per_pkt", "ns"},
      {"netsim.wire_allocs_per_pkt", "allocs"},
      {"netsim.checksum_ns_per_pkt", "ns"},
      {"netsim.reorder_clamped_per_flow", "count"},
      {"gfw.ns_per_pkt", "ns"},
      {"gfw.allocs_per_pkt", "allocs"},
      {"gfw.pkts_per_flow", "count"},
      {"tcpstack.ns_per_segment", "ns"},
      {"tcpstack.allocs_per_segment", "allocs"},
      {"tcpstack.segments_per_flow", "count"},
      {"tcpstack.retransmit_share", "ratio"},
      {"middlebox.ns_per_pkt", "ns"},
      {"middlebox.drop_share", "ratio"},
      {"strategy.ns_per_hook", "ns"},
      {"strategy.allocs_per_flow", "allocs"},
      {"strategy.insertions_per_flow", "count"},
      {"intang.ns_per_pick", "ns"},
      {"intang.kv_hit_ratio", "ratio"},
      {"intang.cache_hit_ratio", "ratio"},
      {"exp.setup_ns_per_flow", "ns"},
      {"exp.setup_allocs_per_flow", "allocs"},
      {"exp.trial_ns_per_flow", "ns"},
      {"exp.trial_allocs_per_flow", "allocs"},
      {"exp.teardown_ns_per_flow", "ns"},
      {"exp.replay_coverage", "ratio"},
      {"faults.events_per_flow", "count"},
      {"fleet.self_ns_per_flow", "ns"},
      {"fleet.setup_ns", "ns"},
      {"runner.utilization", "ratio"},
      {"runner.steals_per_task", "count"},
      {"runner.overhead_share", "ratio"},
      {"search.ns_per_evaluation", "ns"},
      {"search.self_share", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"obs.span_sum_error", "ratio"},
  };
  return kList;
}

/// Collects measured layer metrics; prints every listed metric, naming the
/// ones this workload does not measure and why.
class Sheet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void skip(const std::string& name, const std::string& why) { why_[name] = why; }

  Report report(const char* workload, Report rep) const {
    if (!rep.correct) rep.failed = rep.attempted;
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = values_.find(name);
      if (it != values_.end()) {
        rep.add(name, it->second, unit);
        continue;
      }
      const auto w = why_.find(name);
      say("not measured on %s: %s (%s)", workload, name,
          w != why_.end() ? w->second.c_str() : "layer not exercised");
      rep.add(name, 0.0, unit);
    }
    return rep;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> why_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

u64 counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

u64 counter_prefix_sum(const obs::Snapshot& s, const std::string& prefix) {
  u64 sum = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind(prefix, 0) == 0) sum += v;
  }
  return sum;
}

u64 phase_ns(const std::map<std::string, obs::perf::PhaseAgg>& phases,
             const char* name) {
  const auto it = phases.find(name);
  return it == phases.end() ? 0 : it->second.wall_ns;
}

/// Time and allocations of a span, accumulated.
struct Cost {
  u64 ns = 0;
  u64 allocs = 0;
  u64 units = 0;  ///< packets, events, segments, hooks or flows
  double ns_per() const { return ratio(static_cast<double>(ns), static_cast<double>(units)); }
  double allocs_per() const {
    return ratio(static_cast<double>(allocs), static_cast<double>(units));
  }
};

class SpanTimer {
 public:
  SpanTimer() : a0_(allocs_now()), t0_(now_ns()) {}
  void stop(Cost& c, u64 units = 1) {
    const u64 t1 = now_ns();
    const auto a1 = allocs_now();
    c.ns += t1 - t0_;
    c.allocs += a1.count - a0_.count;
    c.units += units;
  }

 private:
  obs::perf::AllocCounters a0_;
  u64 t0_;
};

/// Counter-derived layer metrics of one traced pass over `flows` flows.
void counter_metrics(const obs::Snapshot& s, double flows, Sheet& sheet) {
  sheet.set("netsim.events_per_flow",
            ratio(static_cast<double>(counter(s, "loop.events_executed")), flows));
  sheet.set("netsim.reorder_clamped_per_flow",
            ratio(static_cast<double>(counter(s, "netsim.packet_reorder_clamped")), flows));
  sheet.set("gfw.pkts_per_flow",
            ratio(static_cast<double>(counter(s, "gfw.packets_seen")), flows));
  sheet.set("tcpstack.segments_per_flow",
            ratio(static_cast<double>(counter(s, "tcpstack.segment_in")), flows));
  sheet.set("tcpstack.retransmit_share",
            ratio(static_cast<double>(counter(s, "tcpstack.segment_retransmit")),
                  static_cast<double>(counter(s, "tcpstack.segment_out"))));
  // Share of the packets that ended their trip at a path element's drop,
  // out of every packet that ended (delivered, lost, expired, dropped).
  const double ended = static_cast<double>(
      counter(s, "netsim.packet_delivered_client") +
      counter(s, "netsim.packet_delivered_server") +
      counter(s, "netsim.packet_dropped_loss") +
      counter(s, "netsim.packet_ttl_expired") +
      counter(s, "netsim.packet_element_drop") + counter(s, "netsim.fault_drop"));
  sheet.set("middlebox.drop_share",
            ratio(static_cast<double>(counter(s, "netsim.packet_element_drop")), ended));
  sheet.set("faults.events_per_flow",
            ratio(static_cast<double>(counter_prefix_sum(s, "faults.")), flows));
}

// -------------------------------------------------------------- capture

struct Seen {
  net::Packet pkt;
  net::Dir dir;
  SimTime at;
};

/// Everything one sampled flow put on the wire, from several vantage
/// points along the path.
struct FlowCapture {
  std::vector<Seen> client;   ///< every packet the client sent or received
  std::vector<Seen> at_gfw;   ///< every packet that reached the GFW position
  std::vector<net::Packet> server_rx;
  std::vector<net::Packet> client_rx;
  std::vector<net::Packet> server_tx;
  exp::VantagePoint vp;
  exp::ServerSpec server;
  exp::PathProfile profile;
  strategy::StrategyId strategy = strategy::StrategyId::kNone;
  strategy::PathKnowledge knowledge;
  std::size_t events = 0;
  u64 seed = 0;
};

/// Benchmark-owned element attached at the GFW position after the devices:
/// it sees client-to-server packets after them and server-to-client
/// packets before them, i.e. exactly what arrives at that hop.
class Tap final : public net::PathElement {
 public:
  explicit Tap(std::vector<Seen>* out) : out_(out) {}
  std::string name() const override { return "perfbench-tap"; }
  void process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) override {
    out_->push_back({pkt, dir, fwd.now()});
    fwd.forward(std::move(pkt));
  }

 private:
  std::vector<Seen>* out_;
};

/// Run one flow with every capture point installed. The flow runs with a
/// fixed strategy (the one the sampled flow used), so the capture does not
/// disturb any selector state.
FlowCapture capture_flow(const gfw::DetectionRules& rules,
                         const exp::ScenarioOptions& opt,
                         const exp::HttpTrialOptions& http) {
  FlowCapture cap;
  Tap tap(&cap.at_gfw);
  exp::Scenario sc(&rules, opt);
  sc.path().attach(sc.gfw_position(), &tap);
  const net::IpAddr client_ip = opt.vp.address;
  sc.path().set_client_capture([&cap, client_ip](const net::Packet& p, SimTime at) {
    cap.client.push_back(
        {p, p.ip.src == client_ip ? net::Dir::kC2S : net::Dir::kS2C, at});
  });
  sc.server().set_egress_hook([&cap](net::Packet& p) {
    cap.server_tx.push_back(p);
    return tcp::Host::Verdict::kAccept;
  });
  (void)exp::run_http_trial(sc, http);
  cap.server_rx = sc.server().received_log();
  cap.client_rx = sc.client().received_log();
  cap.events = sc.last_run().executed;
  cap.vp = opt.vp;
  cap.server = opt.server;
  cap.profile = opt.profile != nullptr
                    ? *opt.profile
                    : exp::make_path_profile(opt.vp, opt.server, opt.cal);
  cap.strategy = http.strategy;
  cap.knowledge = sc.knowledge();
  cap.seed = opt.seed;
  return cap;
}

// -------------------------------------------------------------- replays

/// Forwarder stub handed to a replayed path element: swallows what the
/// element forwards, injects or drops, and answers now()/rng().
class StubForwarder final : public net::Forwarder {
 public:
  explicit StubForwarder(u64 seed) : rng_(seed) {}
  void forward(net::Packet pkt) override { sink_ += pkt.payload.size() + 1; }
  void inject(net::Packet pkt, net::Dir, SimTime) override {
    sink_ += pkt.payload.size() + 1;
  }
  void drop(const net::Packet&, std::string_view) override { ++drops_; }
  SimTime now() const override { return now_; }
  Rng& rng() override { return rng_; }

  SimTime now_ = SimTime::zero();
  u64 drops_ = 0;
  u64 sink_ = 0;

 private:
  Rng rng_;
};

/// netsim: the event loop, with packet-carrying actions like Path::transit
/// schedules. Each executed event schedules the next one, keeping a few in
/// flight, for as many events as the flow executed.
Cost replay_loop(const std::vector<FlowCapture>& caps) {
  Cost c;
  u64 sink = 0;
  for (const FlowCapture& cap : caps) {
    if (cap.events == 0 || cap.client.empty()) continue;
    std::vector<net::Packet> pkts;
    pkts.reserve(cap.events);
    for (std::size_t i = 0; i < cap.events; ++i) {
      pkts.push_back(cap.client[i % cap.client.size()].pkt);
    }
    net::EventLoop loop;
    struct Chain {
      net::EventLoop* loop;
      std::vector<net::Packet>* pkts;
      u64* sink;
      std::size_t next = 0;
      void push() {
        if (next >= pkts->size()) return;
        const SimTime at = loop->now() + SimTime::from_us(100 + static_cast<i64>(next % 7));
        loop->schedule_at(at, [this, p = std::move((*pkts)[next++])] {
          *sink += p.payload.size() + 1;
          push();
        });
      }
    } chain{&loop, &pkts, &sink};
    SpanTimer t;
    for (int i = 0; i < 4; ++i) chain.push();
    loop.run(cap.events + 1);
    t.stop(c, cap.events);
  }
  return c;
}

/// netsim: wire serialization and parsing of every captured packet.
Cost replay_wire(const std::vector<FlowCapture>& caps, u64* parse_errors) {
  Cost c;
  for (const FlowCapture& cap : caps) {
    SpanTimer t;
    for (const Seen& s : cap.client) {
      if (!net::parse(net::serialize(s.pkt)).ok()) ++*parse_errors;
    }
    t.stop(c, cap.client.size());
  }
  return c;
}

/// netsim: transport checksum validation of every captured TCP/UDP packet.
Cost replay_checksum(const std::vector<FlowCapture>& caps) {
  Cost c;
  for (const FlowCapture& cap : caps) {
    u64 n = 0;
    SpanTimer t;
    for (const Seen& s : cap.client) {
      if (!s.pkt.tcp && !s.pkt.udp) continue;
      (void)net::transport_checksum_ok(s.pkt);
      ++n;
    }
    t.stop(c, n);
  }
  return c;
}

gfw::GfwConfig gfw_config_for(const FlowCapture& cap, gfw::DeviceType type) {
  gfw::GfwConfig cfg;
  cfg.device_type = type;
  cfg.enforce_block_period = type == gfw::DeviceType::kType2;
  cfg.evolved = !cap.profile.old_model;
  cfg.detection_miss_rate = 0.0;
  cfg.rst_reaction_handshake = cap.profile.rst_reaction_handshake;
  cfg.rst_reaction_established = cap.profile.rst_reaction_established;
  cfg.accepts_no_flag_data = cap.profile.accepts_no_flag_data;
  cfg.tcp_segment_overlap = cap.profile.tcp_segment_overlap;
  cfg.tor_filtering = !cap.vp.tor_unfiltered_path;
  return cfg;
}

/// gfw: both co-located devices (type 1 and type 2, of the path's own
/// model — prior or evolved) fed the stream that reached their position.
Cost replay_gfw(const std::vector<FlowCapture>& caps,
                const gfw::DetectionRules& rules, u64* evolved_flows) {
  Cost c;
  for (const FlowCapture& cap : caps) {
    if (!cap.profile.old_model) ++*evolved_flows;
    std::vector<net::Packet> a, b;
    a.reserve(cap.at_gfw.size());
    b.reserve(cap.at_gfw.size());
    for (const Seen& s : cap.at_gfw) {
      a.push_back(s.pkt);
      b.push_back(s.pkt);
    }
    StubForwarder fwd(cap.seed);
    SpanTimer t;
    gfw::GfwDevice type1("gfw-1", gfw_config_for(cap, gfw::DeviceType::kType1),
                         &rules, Rng(cap.seed ^ 1));
    gfw::GfwDevice type2("gfw-2", gfw_config_for(cap, gfw::DeviceType::kType2),
                         &rules, Rng(cap.seed ^ 2));
    for (std::size_t i = 0; i < cap.at_gfw.size(); ++i) {
      fwd.now_ = cap.at_gfw[i].at;
      type1.process(std::move(a[i]), cap.at_gfw[i].dir, fwd);
      type2.process(std::move(b[i]), cap.at_gfw[i].dir, fwd);
    }
    t.stop(c, 2 * cap.at_gfw.size());
  }
  return c;
}

/// The Table 2 profile of the vantage's provider (as exp::Scenario wires
/// it at hop 1); nullopt for providers without a client-side box.
std::optional<mbox::MiddleboxConfig> client_box_for(exp::Provider p) {
  switch (p) {
    case exp::Provider::kAliyun: return mbox::aliyun_profile();
    case exp::Provider::kQCloud: return mbox::qcloud_profile();
    case exp::Provider::kUnicomSjz: return mbox::unicom_sjz_profile();
    case exp::Provider::kUnicomTj: return mbox::unicom_tj_profile();
    case exp::Provider::kForeign: break;
  }
  return std::nullopt;
}

/// middlebox: the flow's client-side Table 2 box fed the client's stream,
/// and the server-side firewall (when the server has one) fed the stream
/// seen mid-path.
Cost replay_middlebox(const std::vector<FlowCapture>& caps) {
  Cost c;
  auto run = [&c](mbox::MiddleboxConfig cfg, const std::vector<Seen>& stream,
                  u64 seed) {
    std::vector<net::Packet> pkts;
    pkts.reserve(stream.size());
    for (const Seen& s : stream) pkts.push_back(s.pkt);
    StubForwarder fwd(seed);
    SpanTimer t;
    mbox::Middlebox box(std::move(cfg), Rng(seed));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      fwd.now_ = stream[i].at;
      box.process(std::move(pkts[i]), stream[i].dir, fwd);
    }
    t.stop(c, stream.size());
  };
  for (const FlowCapture& cap : caps) {
    if (auto cfg = client_box_for(cap.vp.provider)) run(*cfg, cap.client, cap.seed);
    if (cap.server.behind_stateful_fw) {
      run(mbox::server_side_firewall_profile(), cap.at_gfw, cap.seed);
    }
  }
  return c;
}

const net::Packet* first_packet(const std::vector<net::Packet>& pkts, bool syn,
                                bool ack) {
  for (const net::Packet& p : pkts) {
    if (p.tcp && !p.crafted && p.tcp->flags.syn == syn && p.tcp->flags.ack == ack) {
      return &p;
    }
  }
  return nullptr;
}

/// Shift the ACK field of `pkts` addressed to `to` by `delta`, so a stream
/// captured against one initial sequence number replays against a fresh
/// host that picked another. Checksums that were valid stay valid
/// (autofilled again); deliberately bad ones stay bad.
void rebase_acks(std::vector<net::Packet>& pkts, net::IpAddr to, u32 delta) {
  for (net::Packet& p : pkts) {
    if (!p.tcp || !p.tcp->flags.ack || p.ip.dst != to) continue;
    const bool valid = net::transport_checksum_ok(p);
    p.tcp->ack += delta;
    if (valid) p.tcp->checksum = 0;
  }
}

/// A host on a path with no elements, whose every outgoing packet is
/// swallowed by its egress hook (recording the first SYN-bearing one):
/// Host::inject_local then exercises the TCP stack alone.
struct ReplayHost {
  net::EventLoop loop;
  net::Path path{loop, Rng(1), net::PathConfig{}};
  std::optional<tcp::Host> host;
  std::optional<u32> isn;

  ReplayHost(tcp::Host::Config cfg, u64 seed) {
    host.emplace(std::move(cfg), path, loop, Rng(seed));
    host->attach();
    host->set_egress_hook([this](net::Packet& p) {
      if (!isn && p.tcp && p.tcp->flags.syn) isn = p.tcp->seq;
      return tcp::Host::Verdict::kDrop;
    });
  }
  ReplayHost(const ReplayHost&) = delete;
  ReplayHost& operator=(const ReplayHost&) = delete;
};

tcp::Host::Config server_host_config(const exp::ServerSpec& s) {
  tcp::Host::Config cfg;
  cfg.name = s.host;
  cfg.address = s.ip;
  cfg.profile = tcp::StackProfile::for_version(s.version);
  if (s.lenient_ack_validation) cfg.profile.validates_ack_field = false;
  cfg.side = tcp::HostSide::kServer;
  return cfg;
}

tcp::Host::Config client_host_config(const exp::VantagePoint& vp) {
  tcp::Host::Config cfg;
  cfg.name = vp.name;
  cfg.address = vp.address;
  cfg.profile = tcp::StackProfile::for_version(tcp::LinuxVersion::k4_4);
  cfg.side = tcp::HostSide::kClient;
  return cfg;
}

/// tcpstack: Host::inject_local of the segments each side received, into a
/// fresh server host (listening, answering like the trial's server) and a
/// fresh client host (connected from the trial's port).
Cost replay_tcpstack(const std::vector<FlowCapture>& caps) {
  Cost c;
  const Bytes response = app::build_http_response(
      "<html><body>the quick brown fox jumps over the lazy dog</body></html>");
  for (const FlowCapture& cap : caps) {
    // Server side. A dry run learns the fresh host's ISN (the same seed
    // draws the same one), so the stream is rebased before timing.
    const net::Packet* old_synack = first_packet(cap.server_tx, true, true);
    const net::Packet* syn = first_packet(cap.server_rx, true, false);
    if (old_synack != nullptr && syn != nullptr) {
      std::optional<u32> fresh_isn;
      {
        ReplayHost dry(server_host_config(cap.server), cap.seed);
        dry.host->listen(80, [](tcp::TcpEndpoint&, ByteView) {});
        dry.host->inject_local(*syn);
        fresh_isn = dry.isn;
      }
      std::vector<net::Packet> pkts = cap.server_rx;
      if (fresh_isn) rebase_acks(pkts, cap.server.ip, *fresh_isn - old_synack->tcp->seq);
      bool responded = false;
      ReplayHost rh(server_host_config(cap.server), cap.seed);
      rh.host->listen(80, [&](tcp::TcpEndpoint& ep, ByteView) {
        if (responded) return;
        responded = true;
        ep.send_data(response);
      });
      SpanTimer t;
      for (net::Packet& p : pkts) rh.host->inject_local(std::move(p));
      t.stop(c, pkts.size());
    }

    // Client side: connect() emits the SYN; the replayed server segments
    // acknowledge the captured ISN, rebased onto the fresh one.
    const net::Packet* old_syn = nullptr;
    for (const Seen& s : cap.client) {
      if (s.dir == net::Dir::kC2S && s.pkt.tcp && !s.pkt.crafted &&
          s.pkt.tcp->flags.syn && !s.pkt.tcp->flags.ack) {
        old_syn = &s.pkt;
        break;
      }
    }
    if (old_syn == nullptr) continue;
    std::optional<u32> fresh_isn;
    {
      ReplayHost dry(client_host_config(cap.vp), cap.seed);
      dry.host->connect(cap.server.ip, 80, old_syn->tcp->src_port);
      fresh_isn = dry.isn;
    }
    std::vector<net::Packet> pkts = cap.client_rx;
    if (fresh_isn) rebase_acks(pkts, cap.vp.address, *fresh_isn - old_syn->tcp->seq);
    const Bytes request = app::build_http_get(cap.server.host, "/search?q=ultrasurf");
    tcp::TcpEndpoint* conn = nullptr;
    ReplayHost rh(client_host_config(cap.vp), cap.seed);
    tcp::TcpEndpoint::Callbacks cb;
    cb.on_established = [&conn, &request] {
      if (conn != nullptr) conn->send_data(request);
    };
    SpanTimer t;
    conn = &rh.host->connect(cap.server.ip, 80, old_syn->tcp->src_port, std::move(cb));
    for (net::Packet& p : pkts) rh.host->inject_local(std::move(p));
    t.stop(c, pkts.size());
  }
  return c;
}

/// strategy: make_strategy + StrategyEngine::egress/ingress over the
/// client's stream (its own segments out, everything it received in).
/// Insertion packets a strategy crafts go out through a path with no
/// elements, like the real client's.
Cost replay_strategy(const std::vector<FlowCapture>& caps, u64* flows) {
  Cost c;
  for (const FlowCapture& cap : caps) {
    if (cap.strategy == strategy::StrategyId::kNone) continue;
    std::vector<net::Packet> out;
    for (const Seen& s : cap.client) {
      if (s.dir == net::Dir::kC2S && !s.pkt.crafted) out.push_back(s.pkt);
    }
    std::vector<net::Packet> in = cap.client_rx;
    net::EventLoop loop;
    net::Path path(loop, Rng(1), net::PathConfig{});
    tcp::Host host(client_host_config(cap.vp), path, loop, Rng(cap.seed));
    host.attach();
    ++*flows;
    SpanTimer t;
    strategy::StrategyEngine engine(
        host,
        [id = cap.strategy](const net::FourTuple&) { return strategy::make_strategy(id); },
        cap.knowledge, Rng(cap.seed));
    // Interleave like the flow did: requests out, replies in.
    std::size_t i = 0, j = 0;
    while (i < out.size() || j < in.size()) {
      if (i < out.size()) (void)engine.egress(out[i++]);
      if (j < in.size()) (void)engine.ingress(in[j++]);
    }
    t.stop(c, out.size() + in.size());
  }
  return c;
}

u64 insertions(const std::vector<FlowCapture>& caps) {
  u64 n = 0;
  for (const FlowCapture& cap : caps) {
    for (const Seen& s : cap.client) n += s.dir == net::Dir::kC2S && s.pkt.crafted;
  }
  return n;
}

/// All packet-level replays; returns the replayed ns per flow that lie on
/// a flow's blocking steps (loop, gfw, middlebox, tcpstack, strategy).
double replay_layers(const std::vector<FlowCapture>& caps,
                     const gfw::DetectionRules& rules, Sheet& sheet) {
  const double n = static_cast<double>(caps.size());
  const Cost loop = replay_loop(caps);
  u64 parse_errors = 0;
  const Cost wire = replay_wire(caps, &parse_errors);
  const Cost csum = replay_checksum(caps);
  u64 evolved = 0;
  const Cost gfw = replay_gfw(caps, rules, &evolved);
  const Cost mbox = replay_middlebox(caps);
  const Cost tcp = replay_tcpstack(caps);
  u64 strategy_flows = 0;
  const Cost strat = replay_strategy(caps, &strategy_flows);

  say("replayed %zu captured flows (%llu evolved-model, %llu prior-model "
      "paths; %llu with a strategy); %llu packets, %llu wire parse errors",
      caps.size(), static_cast<unsigned long long>(evolved),
      static_cast<unsigned long long>(caps.size() - evolved),
      static_cast<unsigned long long>(strategy_flows),
      static_cast<unsigned long long>(wire.units),
      static_cast<unsigned long long>(parse_errors));
  sheet.set("netsim.loop_ns_per_event", loop.ns_per());
  sheet.set("netsim.loop_allocs_per_event", loop.allocs_per());
  sheet.set("netsim.wire_ns_per_pkt", wire.ns_per());
  sheet.set("netsim.wire_allocs_per_pkt", wire.allocs_per());
  sheet.set("netsim.checksum_ns_per_pkt", csum.ns_per());
  sheet.set("gfw.ns_per_pkt", gfw.ns_per());
  sheet.set("gfw.allocs_per_pkt", gfw.allocs_per());
  sheet.set("tcpstack.ns_per_segment", tcp.ns_per());
  sheet.set("tcpstack.allocs_per_segment", tcp.allocs_per());
  sheet.set("middlebox.ns_per_pkt", mbox.ns_per());
  sheet.set("strategy.ns_per_hook", strat.ns_per());
  sheet.set("strategy.allocs_per_flow",
            ratio(static_cast<double>(strat.allocs), static_cast<double>(strategy_flows)));
  sheet.set("strategy.insertions_per_flow", ratio(static_cast<double>(insertions(caps)), n));
  return ratio(static_cast<double>(loop.ns + gfw.ns + mbox.ns + tcp.ns + strat.ns), n);
}

/// The exp layer's spans over a replica pass, and the span-sum check.
struct ExpSpans {
  Cost setup, trial, teardown;
  u64 mismatches = 0;
};

void exp_metrics(const ExpSpans& e, double flows, Sheet& sheet) {
  sheet.set("exp.setup_ns_per_flow", ratio(static_cast<double>(e.setup.ns), flows));
  sheet.set("exp.setup_allocs_per_flow", ratio(static_cast<double>(e.setup.allocs), flows));
  sheet.set("exp.trial_ns_per_flow", ratio(static_cast<double>(e.trial.ns), flows));
  sheet.set("exp.trial_allocs_per_flow", ratio(static_cast<double>(e.trial.allocs), flows));
  sheet.set("exp.teardown_ns_per_flow", ratio(static_cast<double>(e.teardown.ns), flows));
}

/// Direct spans must add up to the per-flow span within 5 %.
bool span_check(const char* what, double direct_ns, double flow_ns, Sheet& sheet) {
  const double err = ratio(std::abs(direct_ns - flow_ns), flow_ns);
  sheet.set("obs.span_sum_error", err);
  const bool ok = err <= 0.05;
  say("span check: %s = %.0f ns/flow vs per-flow span %.0f ns/flow (%.1f %% off): %s",
      what, direct_ns, flow_ns, err * 100.0, ok ? "pass" : "FAIL");
  return ok;
}

/// One exp::Scenario lifecycle, timed in three spans.
exp::TrialResult run_replica(const gfw::DetectionRules& rules,
                             const exp::ScenarioOptions& opt,
                             const exp::HttpTrialOptions& http, ExpSpans& e) {
  std::optional<exp::Scenario> sc;
  SpanTimer ts;
  sc.emplace(&rules, opt);
  ts.stop(e.setup);
  SpanTimer tt;
  const exp::TrialResult r = exp::run_http_trial(*sc, http);
  tt.stop(e.trial);
  SpanTimer td;
  sc.reset();
  td.stop(e.teardown);
  return r;
}

/// Sample every k-th of n flows so about `target` are captured.
std::size_t sample_stride(std::size_t n, std::size_t target) {
  return std::max<std::size_t>(1, n / std::max<std::size_t>(1, target));
}

// ------------------------------------------------------------ fleet_soak

/// What Fleet::run_flow builds for a flow, through the public API.
exp::ScenarioOptions fleet_flow_options(const fleet::Fleet& fl,
                                        const exp::PathProfileCache& profiles,
                                        std::size_t vantage,
                                        const fleet::FlowSpec& flow) {
  const fleet::FleetConfig& cfg = fl.config();
  const exp::VantagePoint& vp = fl.vantage_points()[vantage];
  const exp::ServerSpec& srv =
      fl.server_population()[static_cast<std::size_t>(flow.server)];
  exp::ScenarioOptions opt;
  opt.vp = vp;
  opt.server = srv;
  opt.cal = exp::Calibration::standard();
  opt.seed = Rng::mix_seed({cfg.seed, 0xF1EE7DULL, Rng::hash_label(vp.name), srv.ip,
                            static_cast<u64>(flow.index), static_cast<u64>(flow.client)});
  opt.profile = profiles.get(vantage, static_cast<std::size_t>(flow.server));
  opt.start_time = flow.at;
  opt.deadline = SimTime::from_sec(120);
  if (flow.soak_phase >= 0) {
    const faults::FaultPlan& plan = cfg.soak[static_cast<std::size_t>(flow.soak_phase)].plan;
    if (!plan.empty()) opt.faults = &plan;
  }
  return opt;
}

struct Sweep {
  std::vector<i64> slots;
  double wall_ns = 0.0;
};

/// One untraced serial sweep over fresh vantage states.
Sweep fleet_sweep(const fleet::Fleet& fl) {
  const runner::TrialGrid grid = fl.grid();
  std::vector<std::unique_ptr<fleet::Fleet::VantageState>> states;
  for (std::size_t v = 0; v < grid.vantages; ++v) states.push_back(fl.make_vantage_state(v));
  Sweep s;
  s.slots.assign(grid.total(), -1);
  const u64 t0 = now_ns();
  runner::GridCoord c;
  for (c.vantage = 0; c.vantage < grid.vantages; ++c.vantage) {
    for (c.trial = 0; c.trial < grid.trials; ++c.trial) {
      s.slots[grid.index(c)] = fl.run_flow(c, *states[c.vantage]).encode();
    }
  }
  s.wall_ns = static_cast<double>(now_ns() - t0);
  return s;
}

}  // namespace

Report trace_fleet_soak(const Options& opt) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  Sheet sheet;
  Report rep;
  const fleet::FleetConfig cfg = fleet_soak_config(opt.seed, opt.tiny);

  // fleet.setup_ns: Fleet construction (server population, path profiles)
  // plus every vantage's state, median of several set-ups.
  std::vector<double> setups;
  std::unique_ptr<fleet::Fleet> fl;
  for (int i = 0; i < 7; ++i) {
    fl.reset();
    const u64 t0 = now_ns();
    fl = std::make_unique<fleet::Fleet>(cfg);
    for (std::size_t v = 0; v < fl->grid().vantages; ++v) (void)fl->make_vantage_state(v);
    setups.push_back(static_cast<double>(now_ns() - t0));
  }
  sheet.set("fleet.setup_ns", median(setups));

  (void)fleet_sweep(*fl);  // warm-up
  const Sweep plain = fleet_sweep(*fl);

  // Traced pass. Every flow runs through Fleet::run_flow under a span and
  // through a replica of run_flow's steps built from the public API with
  // the exp spans around them (the program's phase profiler paused, so its
  // exp.http_trial phase counts real flows only). The two run back to
  // back, in alternating order so neither always finds the other's data
  // in cache; the replica's outcomes must equal the sweep's.
  const runner::TrialGrid grid = fl->grid();
  const exp::PathProfileCache profiles(fl->vantage_points(), fl->server_population(),
                                       exp::Calibration::standard());
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  ExpSpans e;
  std::vector<i64> slots(grid.total(), -1);
  double flow_span_ns = 0.0;
  obs::MetricsRegistry traced_reg;
  std::map<std::string, obs::perf::PhaseAgg> phases;
  {
    obs::ScopedMetricsRegistry traced_scope(&traced_reg);
    obs::perf::PhaseProfiler::reset();
    obs::MetricsRegistry replica_reg;
    runner::GridCoord c;
    for (c.vantage = 0; c.vantage < grid.vantages; ++c.vantage) {
      auto real = fl->make_vantage_state(c.vantage);
      auto replica = fl->make_vantage_state(c.vantage);
      for (c.trial = 0; c.trial < grid.trials; ++c.trial) {
        fleet::Fleet::FlowRecord rec;
        auto run_real = [&] {
          const u64 f0 = now_ns();
          rec = fl->run_flow(c, *real);
          flow_span_ns += static_cast<double>(now_ns() - f0);
        };
        exp::TrialResult r;
        auto run_copy = [&] {
          obs::ScopedMetricsRegistry replica_scope(&replica_reg);
          obs::perf::PhaseProfiler::set_enabled(false);
          const fleet::FlowSpec& flow = replica->schedule[c.trial];
          auto& selector = replica->selectors[static_cast<std::size_t>(flow.client)];
          if (flow.fresh_session) {
            selector = std::make_unique<intang::StrategySelector>(
                intang::StrategySelector::Config{}, &replica->store);
          }
          exp::HttpTrialOptions http;
          http.with_keyword = true;
          http.use_intang = true;
          http.shared_selector = selector.get();
          r = run_replica(rules, fleet_flow_options(*fl, profiles, c.vantage, flow), http, e);
          obs::perf::PhaseProfiler::set_enabled(true);
        };
        if (c.trial % 2 == 0) {
          run_real();
          run_copy();
        } else {
          run_copy();
          run_real();
        }
        slots[grid.index(c)] = rec.encode();
        if (r.outcome != rec.outcome || r.strategy_used != rec.strategy) ++e.mismatches;
      }
    }
    phases = obs::perf::PhaseProfiler::snapshot();
  }
  const double flows = static_cast<double>(slots.size());
  rep.attempted = slots.size();
  for (i64 slot : slots) {
    rep.failed += fleet::Fleet::FlowRecord::decode(slot).outcome == exp::Outcome::kTrialError;
  }
  const obs::Snapshot snap = traced_reg.snapshot();
  counter_metrics(snap, flows, sheet);
  sheet.set("intang.kv_hit_ratio",
            ratio(static_cast<double>(counter(snap, "intang.kv_get_hit")),
                  static_cast<double>(counter(snap, "intang.kv_get_hit") +
                                      counter(snap, "intang.kv_get_miss"))));
  sheet.set("intang.cache_hit_ratio",
            ratio(static_cast<double>(counter(snap, "fleet.cache_hit")), flows));
  sheet.set("obs.trace_overhead", flow_span_ns / plain.wall_ns - 1.0);
  if (slots != plain.slots) {
    say("MISMATCH: the traced sweep's results differ from the untraced sweep");
    rep.correct = false;
  }
  exp_metrics(e, flows, sheet);
  if (e.mismatches > 0) {
    say("MISMATCH: %llu replica flows differ from the sweep",
        static_cast<unsigned long long>(e.mismatches));
    rep.correct = false;
  }

  // fleet.self: the run_flow span minus the program's own exp.http_trial
  // phase, minus the replica's scenario construction and teardown.
  const double trial_phase_ns = static_cast<double>(phase_ns(phases, "exp.http_trial"));
  const double self_ns = (flow_span_ns - trial_phase_ns - static_cast<double>(e.setup.ns) -
                          static_cast<double>(e.teardown.ns)) / flows;
  sheet.set("fleet.self_ns_per_flow", self_ns);
  const double direct = self_ns + static_cast<double>(e.setup.ns + e.trial.ns + e.teardown.ns) / flows;
  if (!span_check("fleet.self + exp.setup + exp.trial + exp.teardown", direct,
                  flow_span_ns / flows, sheet)) {
    rep.correct = false;
  }

  // Capture sampled flows and replay them layer by layer.
  std::vector<FlowCapture> caps;
  const std::size_t stride = sample_stride(grid.trials, opt.tiny ? 8 : 40);
  for (std::size_t v = 0; v < grid.vantages; ++v) {
    const auto schedule = fleet::build_flow_schedule(cfg, fl->vantage_points()[v].name);
    for (std::size_t t = 0; t < grid.trials; t += stride) {
      const auto rec = fleet::Fleet::FlowRecord::decode(slots[v * grid.trials + t]);
      exp::HttpTrialOptions http;
      http.with_keyword = true;
      http.strategy = rec.strategy;
      caps.push_back(capture_flow(rules, fleet_flow_options(*fl, profiles, v, schedule[t]), http));
    }
  }
  const double replayed_ns = replay_layers(caps, rules, sheet);
  sheet.set("exp.replay_coverage", ratio(replayed_ns, static_cast<double>(e.trial.ns) / flows));

  // intang: the selector's pick and report over the fleet schedule, fed
  // the outcomes the sweep recorded.
  Cost picks;
  for (std::size_t v = 0; v < grid.vantages; ++v) {
    auto state = fl->make_vantage_state(v);
    for (std::size_t t = 0; t < grid.trials; ++t) {
      const fleet::FlowSpec& flow = state->schedule[t];
      const auto rec = fleet::Fleet::FlowRecord::decode(slots[v * grid.trials + t]);
      const net::IpAddr ip = fl->server_population()[static_cast<std::size_t>(flow.server)].ip;
      SpanTimer tp;
      auto& selector = state->selectors[static_cast<std::size_t>(flow.client)];
      if (flow.fresh_session) {
        selector = std::make_unique<intang::StrategySelector>(
            intang::StrategySelector::Config{}, &state->store);
      }
      const auto choice = selector->choose_explained(ip, flow.at);
      if (rec.outcome != exp::Outcome::kTrialError) {
        selector->report(ip, choice.id, rec.outcome == exp::Outcome::kSuccess, flow.at);
      }
      tp.stop(picks);
    }
  }
  sheet.set("intang.ns_per_pick", picks.ns_per());

  for (const char* m : {"runner.utilization", "runner.steals_per_task", "runner.overhead_share",
                        "search.ns_per_evaluation", "search.self_share"}) {
    sheet.skip(m, "the benchmark calls Fleet::run_flow directly, without the runner or search");
  }
  return sheet.report("fleet_soak", rep);
}

// ------------------------------------------------------------ paper_grid

Report trace_paper_grid(const Options& opt) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  Sheet sheet;
  Report rep;
  const exp::BenchScale scale = paper_grid_scale(opt.seed, opt.tiny);
  const exp::Table1Bench t1(scale);
  const exp::Table4Inside t4(scale);
  const runner::TrialGrid g1 = t1.grid();
  const runner::TrialGrid g4 = t4.fixed_grid();

  const std::size_t total = g1.total() + g4.total();
  auto run_slot = [&](std::size_t slot) {
    return slot < g1.total() ? t1.run_trial(g1.coord(slot))
                             : t4.run_fixed(g4.coord(slot - g1.total()));
  };
  std::vector<u64> plain(total);
  (void)run_slot(0);  // warm-up of lazy bindings
  const u64 w0 = now_ns();
  for (std::size_t slot = 0; slot < total; ++slot) plain[slot] = encode_trial(run_slot(slot));
  const double plain_ns = static_cast<double>(now_ns() - w0);

  // The benches' scenario options, rebuilt from their public populations
  // and seed formulas for the replica and the captures.
  const exp::Calibration cal = exp::Calibration::standard();
  const exp::PathProfileCache profiles(t1.vantage_points(), t1.server_population(), cal);
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  struct Flow {
    exp::ScenarioOptions opt;
    exp::HttpTrialOptions http;
  };
  auto flow_of = [&](std::size_t slot) {
    Flow f;
    const bool table1 = slot < g1.total();
    const runner::GridCoord c = table1 ? g1.coord(slot) : g4.coord(slot - g1.total());
    const exp::VantagePoint& vp = t1.vantage_points()[c.vantage];
    const exp::ServerSpec& srv = t1.server_population()[c.server];
    f.opt.vp = vp;
    f.opt.server = srv;
    f.opt.cal = cal;
    f.opt.profile = profiles.get(c.vantage, c.server);
    if (table1) {
      const bool keyword = c.cell % 2 == 0;
      f.http.strategy = exp::Table1Bench::rows()[c.cell / 2].id;
      f.http.with_keyword = keyword;
      f.opt.seed = Rng::mix_seed({scale.seed, static_cast<u64>(f.http.strategy),
                                  Rng::hash_label(vp.name), srv.ip,
                                  static_cast<u64>(c.trial), keyword ? 1u : 0u});
    } else {
      f.http.strategy = exp::Table4Inside::rows()[c.cell].id;
      f.opt.seed = Rng::mix_seed({scale.seed, static_cast<u64>(f.http.strategy),
                                  Rng::hash_label(vp.name), srv.ip,
                                  static_cast<u64>(c.trial)});
    }
    return f;
  };
  // Traced pass: each grid trial under a span, back to back with its
  // replica through the exp::Scenario API with the exp spans around it
  // (interleaved, so both see the same machine conditions, in alternating
  // order, so neither always finds the other's data in cache). The
  // replica's results must equal the grid's.
  ExpSpans e;
  double span_ns = 0.0;
  obs::MetricsRegistry traced_reg;
  {
    obs::ScopedMetricsRegistry traced_scope(&traced_reg);
    obs::MetricsRegistry replica_reg;
    for (std::size_t slot = 0; slot < total; ++slot) {
      u64 result = 0;
      auto run_real = [&] {
        const u64 t0 = now_ns();
        result = encode_trial(run_slot(slot));
        span_ns += static_cast<double>(now_ns() - t0);
      };
      u64 copy = 0;
      auto run_copy = [&] {
        obs::ScopedMetricsRegistry replica_scope(&replica_reg);
        const Flow f = flow_of(slot);
        copy = encode_trial(run_replica(rules, f.opt, f.http, e));
      };
      if (slot % 2 == 0) {
        run_real();
        run_copy();
      } else {
        run_copy();
        run_real();
      }
      if (result != plain[slot] || copy != result) ++e.mismatches;
    }
  }
  const double flows = static_cast<double>(total);
  rep.attempted = total;
  for (u64 result : plain) {
    rep.failed += (result & 0xf) == static_cast<u64>(exp::Outcome::kTrialError);
  }
  counter_metrics(traced_reg.snapshot(), flows, sheet);
  sheet.set("obs.trace_overhead", span_ns / plain_ns - 1.0);
  exp_metrics(e, flows, sheet);
  if (e.mismatches > 0) {
    say("MISMATCH: %llu traced or replica trials differ from the untraced grid",
        static_cast<unsigned long long>(e.mismatches));
    rep.correct = false;
  }
  const double direct = static_cast<double>(e.setup.ns + e.trial.ns + e.teardown.ns) / flows;
  if (!span_check("exp.setup + exp.trial + exp.teardown", direct, span_ns / flows, sheet)) {
    rep.correct = false;
  }

  std::vector<FlowCapture> caps;
  const std::size_t stride = sample_stride(total, opt.tiny ? 20 : 400);
  for (std::size_t slot = 0; slot < total; slot += stride) {
    const Flow f = flow_of(slot);
    caps.push_back(capture_flow(rules, f.opt, f.http));
  }
  const double replayed_ns = replay_layers(caps, rules, sheet);
  sheet.set("exp.replay_coverage", ratio(replayed_ns, static_cast<double>(e.trial.ns) / flows));

  for (const char* m : {"intang.ns_per_pick", "intang.kv_hit_ratio", "intang.cache_hit_ratio"}) {
    sheet.skip(m, "fixed-strategy grids bypass INTANG");
  }
  for (const char* m : {"fleet.self_ns_per_flow", "fleet.setup_ns"}) {
    sheet.skip(m, "no fleet in this workload");
  }
  for (const char* m : {"runner.utilization", "runner.steals_per_task", "runner.overhead_share",
                        "search.ns_per_evaluation", "search.self_share"}) {
    sheet.skip(m, "the benchmark calls the grid trials directly, without the runner");
  }
  return sheet.report("paper_grid", rep);
}

// ---------------------------------------------------------- search_jobs4

Report trace_search_jobs4(const Options& opt) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  Sheet sheet;
  Report rep;
  const int jobs = search_jobs();
  const std::vector<search::SearchConfig> cfgs = search_jobs4_configs(opt.seed, opt.tiny, jobs);

  // All of a round's searches; returns their wall time.
  struct Searches {
    std::vector<std::string> rendered;
    u64 evaluations = 0;
  };
  auto timed_run = [&cfgs](Searches* out) {
    double ns = 0.0;
    for (const auto& cfg : cfgs) {
      search::SearchEngine engine(cfg);
      const u64 t0 = now_ns();
      const search::SearchResult res = engine.run();
      ns += static_cast<double>(now_ns() - t0);
      out->rendered.push_back(res.render());
      out->evaluations += res.evaluations;
    }
    return ns;
  };
  Searches warm, plain_res, traced_res;
  (void)timed_run(&warm);
  const double plain_ns = timed_run(&plain_res);

  obs::MetricsRegistry traced_reg;
  double wall_ns = 0.0;
  std::map<std::string, obs::perf::PhaseAgg> phases;
  {
    obs::ScopedMetricsRegistry traced_scope(&traced_reg);
    obs::perf::PhaseProfiler::reset();
    wall_ns = timed_run(&traced_res);
    phases = obs::perf::PhaseProfiler::snapshot();
  }
  if (traced_res.rendered != plain_res.rendered) {
    say("MISMATCH: the traced search's result differs from the untraced one");
    rep.correct = false;
  }
  const double evals = static_cast<double>(traced_res.evaluations);
  rep.attempted = traced_res.evaluations;
  const obs::Snapshot snap = traced_reg.snapshot();
  rep.failed = counter(snap, "exp.trial_error");
  counter_metrics(snap, evals, sheet);
  sheet.set("obs.trace_overhead", wall_ns / plain_ns - 1.0);

  const double capacity = wall_ns * jobs;
  std::vector<double> util;
  for (const auto& [name, v] : snap.gauges) {
    if (name.rfind("runner.worker.", 0) == 0 &&
        name.size() > 12 && name.compare(name.size() - 12, 12, ".utilization") == 0) {
      util.push_back(v);
    }
  }
  double util_sum = 0.0;
  for (double u : util) util_sum += u;
  sheet.set("runner.utilization", ratio(util_sum, static_cast<double>(util.size())));
  sheet.set("runner.steals_per_task",
            ratio(static_cast<double>(counter(snap, "runner.steals_total")),
                  static_cast<double>(counter(snap, "runner.tasks_total"))));
  sheet.set("runner.overhead_share",
            1.0 - ratio(static_cast<double>(phase_ns(phases, "runner.task")), capacity));
  sheet.set("search.ns_per_evaluation", ratio(wall_ns, evals));
  sheet.set("search.self_share",
            1.0 - ratio(static_cast<double>(phase_ns(phases, "exp.http_trial")), capacity));
  say("search: %.0f evaluations in %.3f s wall at jobs=%d (%zu worker gauges)", evals,
      wall_ns * 1e-9, jobs, util.size());

  const char* replay_why =
      "search trials run inside SearchEngine on pool workers; packet replays are "
      "taken on fleet_soak and paper_grid";
  for (const char* m :
       {"netsim.loop_ns_per_event", "netsim.loop_allocs_per_event", "netsim.wire_ns_per_pkt",
        "netsim.wire_allocs_per_pkt", "netsim.checksum_ns_per_pkt", "gfw.ns_per_pkt",
        "gfw.allocs_per_pkt", "tcpstack.ns_per_segment", "tcpstack.allocs_per_segment",
        "middlebox.ns_per_pkt", "strategy.ns_per_hook", "strategy.allocs_per_flow",
        "strategy.insertions_per_flow", "exp.setup_ns_per_flow", "exp.setup_allocs_per_flow",
        "exp.trial_ns_per_flow", "exp.trial_allocs_per_flow", "exp.teardown_ns_per_flow",
        "exp.replay_coverage", "obs.span_sum_error"}) {
    sheet.skip(m, replay_why);
  }
  for (const char* m : {"intang.ns_per_pick", "intang.kv_hit_ratio", "intang.cache_hit_ratio"}) {
    sheet.skip(m, "candidate programs run without INTANG");
  }
  for (const char* m : {"fleet.self_ns_per_flow", "fleet.setup_ns"}) {
    sheet.skip(m, "no fleet in this workload");
  }
  return sheet.report("search_jobs4", rep);
}

}  // namespace perfbench
