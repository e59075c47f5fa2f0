#include "exp/scenario.h"

#include <algorithm>

#include "middlebox/profiles.h"

namespace ys::exp {

std::vector<ServerSpec> make_server_population(int count, u64 seed,
                                               const Calibration& cal,
                                               bool inside_china) {
  Rng rng(Rng::mix_seed({seed, 0x5e17ULL, inside_china ? 1u : 2u}));
  std::vector<ServerSpec> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ServerSpec spec;
    spec.host = (inside_china ? "site-" : "cn-site-") + std::to_string(i) +
                ".example";
    spec.ip = inside_china ? net::make_ip(93, 184, static_cast<u8>(i / 250),
                                          static_cast<u8>(i % 250 + 1))
                           : net::make_ip(101, 6, static_cast<u8>(i / 250),
                                          static_cast<u8>(i % 250 + 1));
    spec.alexa_rank = 41 + i * 26;  // ranks 41..2091, as in §3.3

    const double draw = rng.uniform01();
    double acc = cal.server_linux_4_4;
    if (draw < acc) {
      spec.version = tcp::LinuxVersion::k4_4;
    } else if (draw < (acc += cal.server_linux_4_0)) {
      spec.version = tcp::LinuxVersion::k4_0;
    } else if (draw < (acc += cal.server_linux_3_14)) {
      spec.version = tcp::LinuxVersion::k3_14;
    } else if (draw < (acc += cal.server_linux_2_6_34)) {
      spec.version = tcp::LinuxVersion::k2_6_34;
    } else {
      spec.version = tcp::LinuxVersion::k2_4_37;
    }
    spec.behind_stateful_fw = rng.chance(cal.server_side_firewall_fraction);
    spec.lenient_ack_validation = rng.chance(cal.server_accepts_any_ack);
    out.push_back(std::move(spec));
  }
  return out;
}

namespace {

/// The single source of truth for the systematic draw sequence. Both
/// make_path_profile() and the Scenario constructor (when no pooled
/// profile is supplied) go through here, so pooled and unpooled
/// construction consume the path stream identically by construction.
PathProfile draw_path_profile(Rng& rng, const VantagePoint& vp,
                              const Calibration& cal) {
  PathProfile p;
  const bool inside = vp.inside_china;
  p.server_hops = static_cast<int>(rng.uniform_range(cal.hop_min, cal.hop_max));
  if (inside) {
    const double frac =
        cal.gfw_position_min +
        rng.uniform01() * (cal.gfw_position_max - cal.gfw_position_min);
    p.gfw_position = std::clamp(static_cast<int>(p.server_hops * frac), 2,
                                p.server_hops - 2);
  } else {
    // Outside-China probes: the GFW sits within a few hops of the
    // (Chinese) server (§7.1).
    p.gfw_position =
        p.server_hops - static_cast<int>(rng.uniform_range(
                            cal.foreign_gfw_server_gap_min,
                            cal.foreign_gfw_server_gap_max));
    p.gfw_position = std::clamp(p.gfw_position, 2, p.server_hops - 1);
  }
  p.old_model = rng.chance(cal.old_model_fraction);

  // The client's path knowledge (tcptraceroute estimate, §7.1), possibly
  // stale per the calibrated route-dynamics error. The error is a property
  // of the path measurement, so it persists across repeated probes.
  p.knowledge.hop_estimate = p.server_hops;
  p.knowledge.ttl_delta = 2;
  const double err_prob = inside ? cal.ttl_estimate_error_prob
                                 : cal.ttl_estimate_error_prob_foreign;
  if (rng.chance(err_prob)) {
    p.knowledge.hop_estimate += rng.chance(0.5) ? cal.ttl_estimate_error_hops
                                                : -cal.ttl_estimate_error_hops;
  }

  p.rst_reaction_handshake = rng.chance(cal.rst_resync_handshake)
                                 ? gfw::RstReaction::kResync
                                 : gfw::RstReaction::kTeardown;
  p.rst_reaction_established = rng.chance(cal.rst_resync_established)
                                   ? gfw::RstReaction::kResync
                                   : gfw::RstReaction::kTeardown;
  p.accepts_no_flag_data = rng.chance(cal.no_flag_accept);
  p.tcp_segment_overlap = rng.chance(cal.segment_overlap_prefer_last)
                              ? net::OverlapPolicy::kPreferLast
                              : net::OverlapPolicy::kPreferFirst;
  if (p.old_model) {
    // The prior model preferred the latter copy of overlapping segments.
    p.tcp_segment_overlap = net::OverlapPolicy::kPreferLast;
  }
  return p;
}

/// The path seed a (vantage, server) pair gets when none is given;
/// `vp_label` is Rng::hash_label(vp.name).
u64 default_path_seed(u64 vp_label, net::IpAddr server_ip) {
  return Rng::mix_seed({0xA117ULL, vp_label, server_ip});
}

mbox::MiddleboxConfig client_mbox_for(Provider provider) {
  switch (provider) {
    case Provider::kAliyun: return mbox::aliyun_profile();
    case Provider::kQCloud: return mbox::qcloud_profile();
    case Provider::kUnicomSjz: return mbox::unicom_sjz_profile();
    case Provider::kUnicomTj: return mbox::unicom_tj_profile();
    case Provider::kForeign: break;
  }
  mbox::MiddleboxConfig none;
  none.name = "mbox:none";
  return none;
}

}  // namespace

PathProfile make_path_profile(const VantagePoint& vp, const ServerSpec& server,
                              const Calibration& cal, u64 path_seed) {
  Rng rng(path_seed != 0
              ? path_seed
              : default_path_seed(Rng::hash_label(vp.name), server.ip));
  return draw_path_profile(rng, vp, cal);
}

PathProfileCache::PathProfileCache(const std::vector<VantagePoint>& vps,
                                   const std::vector<ServerSpec>& servers,
                                   const Calibration& cal)
    : servers_(servers.size()) {
  profiles_.reserve(vps.size() * servers.size());
  for (const VantagePoint& vp : vps) {
    // The vantage's label is hashed once per row, not once per pair.
    const u64 vp_label = Rng::hash_label(vp.name);
    for (const ServerSpec& srv : servers) {
      Rng rng(default_path_seed(vp_label, srv.ip));
      profiles_.push_back(draw_path_profile(rng, vp, cal));
    }
  }
}

Scenario::Scenario(const gfw::DetectionRules* rules, ScenarioOptions opt)
    : opt_(std::move(opt)),
      path_rng_(opt_.path_seed != 0
                    ? opt_.path_seed
                    : default_path_seed(Rng::hash_label(opt_.vp.name),
                                        opt_.server.ip)),
      rng_(Rng::mix_seed({opt_.seed, Rng::hash_label(opt_.vp.name),
                          opt_.server.ip})) {
  const Calibration& cal = opt_.cal;

  // A fleet flow's scenario begins at its arrival instant on the shared
  // virtual timeline; everything below schedules relative to now().
  loop_.start_at(opt_.start_time);

  // ------------------------------------------- systematic per-path draws
  // Pooled construction: a precomputed profile skips the draws entirely
  // (the pool made identical ones from the same path seed). Otherwise draw
  // here; path_rng_ is an independent stream, so both routes leave the
  // dynamic rng_ draws untouched.
  const PathProfile profile = opt_.profile != nullptr
                                  ? *opt_.profile
                                  : draw_path_profile(path_rng_, opt_.vp, cal);
  server_hops_ = profile.server_hops;
  gfw_position_ = profile.gfw_position;
  old_model_ = profile.old_model;
  knowledge_ = profile.knowledge;

  // ----------------------------------------------------------------- path
  net::PathConfig path_cfg;
  path_cfg.server_hops = server_hops_;
  path_cfg.per_link_loss = cal.per_link_loss;
  path_ = std::make_unique<net::Path>(loop_, rng_.fork(), path_cfg,
                                      opt_.tracing ? &trace_ : nullptr);
  if (opt_.tracing) loop_.set_trace(&trace_);

  // ----------------------------------------------------------- middleboxes
  mbox::MiddleboxConfig client_box = client_mbox_for(opt_.vp.provider);
  if (opt_.extra_stateful_client_box) {
    client_box.stateful = true;
    client_box.seq_checking = true;
  }
  client_mbox_ = std::make_unique<mbox::Middlebox>(std::move(client_box),
                                                   rng_.fork());
  path_->attach(1, client_mbox_.get());

  if (opt_.server.behind_stateful_fw) {
    server_mbox_ = std::make_unique<mbox::Middlebox>(
        mbox::server_side_firewall_profile(), rng_.fork());
    path_->attach(server_hops_ - 1, server_mbox_.get());
  }

  // ---------------------------------------------------------- GFW devices
  const bool tor_filtering =
      opt_.tor_filtering_override.value_or(!opt_.vp.tor_unfiltered_path);

  gfw::GfwConfig base;
  base.evolved = !old_model_;
  // Overload is a property of the moment, not of a device: when the GFW is
  // overloaded both co-deployed device types miss together (otherwise the
  // paper's 2.8 % no-strategy success could never be observed — one of the
  // two devices would always fire).
  base.detection_miss_rate = rng_.chance(cal.detection_miss) ? 1.0 : 0.0;
  base.rst_reaction_handshake = profile.rst_reaction_handshake;
  base.rst_reaction_established = profile.rst_reaction_established;
  base.accepts_no_flag_data = profile.accepts_no_flag_data;
  base.tcp_segment_overlap = profile.tcp_segment_overlap;
  base.tor_filtering = tor_filtering;
  base.vpn_dpi = opt_.vpn_dpi;
  base.harden_validate_checksum = opt_.harden.validate_checksum;
  base.harden_reject_md5 = opt_.harden.reject_md5;
  base.harden_strict_rst = opt_.harden.strict_rst;
  base.harden_require_server_ack = opt_.harden.require_server_ack;

  gfw::GfwConfig cfg1 = base;
  cfg1.device_type = gfw::DeviceType::kType1;
  cfg1.enforce_block_period = false;  // §2.1: only type-2 enforces it
  gfw::GfwConfig cfg2 = base;
  cfg2.device_type = gfw::DeviceType::kType2;
  cfg2.enforce_block_period = true;

  type1_ = std::make_unique<gfw::GfwDevice>("gfw-1", cfg1, rules,
                                            rng_.fork());
  type2_ = std::make_unique<gfw::GfwDevice>("gfw-2", cfg2, rules,
                                            rng_.fork());
  poisoner_ =
      std::make_unique<gfw::DnsPoisoner>("gfw-dns", rules, rng_.fork());
  path_->attach(gfw_position_, type1_.get());
  path_->attach(gfw_position_, type2_.get());
  path_->attach(gfw_position_, poisoner_.get());

  // ----------------------------------------------------------------- hosts
  tcp::Host::Config client_cfg;
  client_cfg.name = opt_.vp.name;
  client_cfg.address = opt_.vp.address;
  client_cfg.profile = tcp::StackProfile::for_version(tcp::LinuxVersion::k4_4);
  client_cfg.side = tcp::HostSide::kClient;
  client_cfg.suppress_kernel_resets = opt_.stealth_hosts;
  client_ = std::make_unique<tcp::Host>(client_cfg, *path_, loop_,
                                        rng_.fork());
  client_->attach();

  tcp::Host::Config server_cfg;
  server_cfg.name = opt_.server.host;
  server_cfg.address = opt_.server.ip;
  server_cfg.profile = tcp::StackProfile::for_version(opt_.server.version);
  if (opt_.server.lenient_ack_validation) {
    server_cfg.profile.validates_ack_field = false;
  }
  server_cfg.side = tcp::HostSide::kServer;
  server_cfg.suppress_kernel_resets = opt_.stealth_hosts;
  server_ = std::make_unique<tcp::Host>(server_cfg, *path_, loop_,
                                        rng_.fork());
  server_->attach();

  // ---------------------------------------------------------------- faults
  // Wired last so a scenario without a plan makes exactly the same rng_
  // forks (and therefore the same draws) as one built before the fault
  // layer existed.
  if (opt_.faults != nullptr && !opt_.faults->empty()) {
    // Plans are flow-relative: clause times count from this scenario's
    // start_time (a no-op for the default zero() start).
    fault_injector_ = std::make_unique<faults::FaultInjector>(
        *opt_.faults, rng_.fork(), opt_.start_time);
    fault_injector_->arm(loop_, *path_);
    if (!opt_.faults->rst_storms.empty()) {
      chaos_box_ = std::make_unique<faults::ChaosBox>(*opt_.faults,
                                                      rng_.fork(),
                                                      opt_.start_time);
      const int pos = std::clamp(opt_.faults->rst_storms.front().position, 1,
                                 server_hops_ - 1);
      path_->attach(pos, chaos_box_.get());
    }
  }
}

Scenario::RunStatus Scenario::run(std::size_t max_events) {
  if (max_events == 0) max_events = opt_.max_events;
  net::RunResult r;
  if (opt_.deadline > SimTime::zero()) {
    r = loop_.run_until(opt_.start_time + opt_.deadline, max_events);
    // Events still queued past the deadline mean the trial never quiesced
    // within its virtual-time budget.
    last_run_.deadline_expired = !r.hit_max_events && !loop_.idle();
  } else {
    r = loop_.run(max_events);
    last_run_.deadline_expired = false;
  }
  last_run_.executed = r.executed;
  last_run_.hit_max_events = r.hit_max_events;
  return last_run_;
}

}  // namespace ys::exp
