#include "supervisor/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/clock.h"
#include "core/file_io.h"
#include "core/json.h"
#include "core/log.h"
#include "obs/timeline.h"

namespace ys::supervisor {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Parent-side per-shard process state (pipe, partial line, deadlines).
struct ChildProc {
  pid_t pid = -1;
  int fd = -1;  // read end of the heartbeat pipe, nonblocking
  std::string buf;
  double last_hb = 0.0;
  bool gap_flagged = false;
  double next_spawn_at = 0.0;
};

std::string describe_exit(int status) {
  char buf[64];
  if (WIFEXITED(status)) {
    std::snprintf(buf, sizeof(buf), "exit %d", WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof(buf), "signal %d", WTERMSIG(status));
  } else {
    std::snprintf(buf, sizeof(buf), "status 0x%x", status);
  }
  return buf;
}

}  // namespace

const char* to_string(ShardEvent::Kind kind) {
  switch (kind) {
    case ShardEvent::Kind::kSpawn: return "spawn";
    case ShardEvent::Kind::kHeartbeatGap: return "heartbeat_gap";
    case ShardEvent::Kind::kHang: return "hang";
    case ShardEvent::Kind::kCrash: return "crash";
    case ShardEvent::Kind::kRestart: return "restart";
    case ShardEvent::Kind::kDone: return "done";
    case ShardEvent::Kind::kDegraded: return "degraded";
  }
  return "?";
}

const char* to_string(ShardStatus::State state) {
  switch (state) {
    case ShardStatus::State::kPending: return "pending";
    case ShardStatus::State::kRunning: return "running";
    case ShardStatus::State::kDone: return "done";
    case ShardStatus::State::kDegraded: return "degraded";
  }
  return "?";
}

std::vector<ShardPartition> partition_vantages(std::size_t vantages,
                                               int shards) {
  std::vector<ShardPartition> parts;
  if (shards <= 0) shards = 1;
  const auto n = static_cast<std::size_t>(shards);
  for (std::size_t i = 0; i < n; ++i) {
    ShardPartition p;
    p.shard = static_cast<int>(i);
    p.vantage_begin = vantages * i / n;
    p.vantage_end = vantages * (i + 1) / n;
    if (p.vantage_end > p.vantage_begin) parts.push_back(p);
  }
  // Renumber densely so shard indices stay contiguous when vantages < N.
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].shard = static_cast<int>(i);
  }
  return parts;
}

bool SupervisorResult::all_complete() const {
  for (const ShardStatus& s : shards) {
    if (s.state != ShardStatus::State::kDone) return false;
  }
  return true;
}

int SupervisorResult::degraded_count() const {
  int n = 0;
  for (const ShardStatus& s : shards) {
    if (s.state == ShardStatus::State::kDegraded) ++n;
  }
  return n;
}

int SupervisorResult::restart_count() const {
  int n = 0;
  for (const ShardStatus& s : shards) n += s.restarts;
  return n;
}

std::string manifest_json(const SupervisorResult& result) {
  std::string out = "{\"schema\":\"ys.supervisor.v1\",\"shards\":[";
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    const ShardStatus& s = result.shards[i];
    if (i > 0) out += ',';
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"shard\":%d,\"state\":\"%s\",\"vantage_begin\":%zu,"
                  "\"vantage_end\":%zu,\"attempts\":%d,\"restarts\":%d,"
                  "\"done\":%llu,\"total\":%llu,\"exit_status\":%d}",
                  s.part.shard, to_string(s.state), s.part.vantage_begin,
                  s.part.vantage_end, s.attempts, s.restarts,
                  static_cast<unsigned long long>(s.done),
                  static_cast<unsigned long long>(s.total), s.exit_status);
    out += buf;
  }
  out += "],\"events\":[";
  // Keep the manifest bounded: the most recent 200 events tell the story.
  const std::size_t begin =
      result.events.size() > 200 ? result.events.size() - 200 : 0;
  for (std::size_t i = begin; i < result.events.size(); ++i) {
    const ShardEvent& e = result.events[i];
    if (i > begin) out += ',';
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"shard\":%d,\"kind\":\"%s\",\"attempt\":%d,\"at\":%.3f",
                  e.shard, to_string(e.kind), e.attempt, e.at);
    out += buf;
    if (!e.detail.empty()) {
      out += ",\"detail\":";
      json::append_string(out, e.detail);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

/// Replace the manifest atomically: `yourstate shard-status` reads it
/// during a live sweep, so it must never see a half-written file. The
/// temporary sits in the same directory, so the rename cannot cross
/// filesystems.
void write_manifest(const SupervisorResult& result, const std::string& dir) {
  if (dir.empty()) return;
  const std::string path = dir + "/supervisor-state.json";
  const std::string tmp = path + ".tmp";
  if (!write_file(tmp, manifest_json(result) + '\n') ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

}  // namespace

SupervisorResult supervise(const std::vector<ShardPartition>& parts,
                           const SupervisorOptions& opt,
                           const CommandBuilder& build_command) {
  SupervisorResult result;
  result.shards.resize(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    result.shards[i].part = parts[i];
  }
  std::vector<ChildProc> procs(parts.size());
  const auto start = Clock::now();
  const double hb = opt.heartbeat_seconds > 0 ? opt.heartbeat_seconds : 0.25;
  const double hang_after = hb * std::max(2.0, opt.grace);

  auto emit = [&](ShardEvent::Kind kind, std::size_t i,
                  const std::string& detail = {}) {
    ShardEvent e;
    e.kind = kind;
    e.shard = result.shards[i].part.shard;
    e.attempt = result.shards[i].attempts - 1;
    e.at = seconds_since(start);
    e.detail = detail;
    result.events.push_back(std::move(e));
    write_manifest(result, opt.resume_dir);
  };

  auto spawn = [&](std::size_t i) {
    ShardStatus& st = result.shards[i];
    ChildProc& cp = procs[i];
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      YS_LOG(LogLevel::kWarn, std::string("supervisor: pipe: ") +
                                  std::strerror(errno));
      st.state = ShardStatus::State::kDegraded;
      return;
    }
    // Both ends close-on-exec in the parent so one shard's pipe never
    // leaks into a sibling spawned later (a leaked write end would defer
    // EOF detection until the sibling also exited). The child re-enables
    // its own write end before exec.
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
    ++st.attempts;
    const int attempt = st.attempts - 1;
    const std::vector<std::string> args =
        build_command(st.part, attempt, fds[1]);
    const pid_t pid = ::fork();
    if (pid < 0) {
      YS_LOG(LogLevel::kWarn, std::string("supervisor: fork: ") +
                                  std::strerror(errno));
      ::close(fds[0]);
      ::close(fds[1]);
      st.state = ShardStatus::State::kDegraded;
      emit(ShardEvent::Kind::kDegraded, i, "fork failed");
      return;
    }
    if (pid == 0) {
      // Child: keep the write end across exec, drop the read end.
      ::fcntl(fds[1], F_SETFD, 0);
      ::close(fds[0]);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "supervisor child: exec %s: %s\n",
                   args.empty() ? "?" : args[0].c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    cp.pid = pid;
    cp.fd = fds[0];
    cp.buf.clear();
    cp.last_hb = seconds_since(start);
    cp.gap_flagged = false;
    st.state = ShardStatus::State::kRunning;
    emit(ShardEvent::Kind::kSpawn, i,
         "pid " + std::to_string(static_cast<long>(pid)));
  };

  // A failed shard either reschedules (capped exponential backoff) or,
  // past the budget, degrades — the sweep continues without it.
  auto restart_or_degrade = [&](std::size_t i) {
    ShardStatus& st = result.shards[i];
    if (st.attempts <= opt.max_restarts) {
      ++st.restarts;
      const double backoff =
          std::min(opt.backoff_cap_seconds,
                   opt.backoff_base_seconds *
                       static_cast<double>(1u << std::min(st.restarts, 16)));
      procs[i].next_spawn_at = seconds_since(start) + backoff;
      st.state = ShardStatus::State::kPending;
      char detail[64];
      std::snprintf(detail, sizeof(detail), "backoff %.2fs", backoff);
      emit(ShardEvent::Kind::kRestart, i, detail);
    } else {
      st.state = ShardStatus::State::kDegraded;
      emit(ShardEvent::Kind::kDegraded, i,
           "retry budget (" + std::to_string(opt.max_restarts) +
               ") exhausted");
    }
  };

  auto reap = [&](std::size_t i, bool hung) {
    ShardStatus& st = result.shards[i];
    ChildProc& cp = procs[i];
    if (cp.fd >= 0) {
      ::close(cp.fd);
      cp.fd = -1;
    }
    int status = 0;
    if (cp.pid > 0) {
      if (hung) ::kill(cp.pid, SIGKILL);
      while (::waitpid(cp.pid, &status, 0) < 0 && errno == EINTR) {
      }
      cp.pid = -1;
    }
    st.exit_status = status;
    if (hung) {
      emit(ShardEvent::Kind::kHang, i,
           "no heartbeat for " + std::to_string(hang_after) + "s");
      restart_or_degrade(i);
      return;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      st.state = ShardStatus::State::kDone;
      emit(ShardEvent::Kind::kDone, i);
      return;
    }
    emit(ShardEvent::Kind::kCrash, i, describe_exit(status));
    restart_or_degrade(i);
  };

  // Returns true when the pipe hit EOF (the child is gone).
  auto drain_fd = [&](std::size_t i) {
    ShardStatus& st = result.shards[i];
    ChildProc& cp = procs[i];
    bool eof = false;
    char chunk[512];
    for (;;) {
      const ssize_t n = ::read(cp.fd, chunk, sizeof(chunk));
      if (n > 0) {
        cp.buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF (or a hard error): process buffered lines, then reap.
      eof = true;
      break;
    }
    std::size_t pos = 0;
    for (;;) {
      const std::size_t eol = cp.buf.find('\n', pos);
      if (eol == std::string::npos) break;
      unsigned long long done = 0, total = 0;
      if (std::sscanf(cp.buf.c_str() + pos, "HB %llu %llu", &done, &total) ==
          2) {
        const double now = seconds_since(start);
        cp.last_hb = now;
        cp.gap_flagged = false;
        st.done = done;
        st.total = total;
        st.progress.emplace_back(now, done);
      }
      pos = eol + 1;
    }
    cp.buf.erase(0, pos);
    return eof;
  };

  for (;;) {
    const double now = seconds_since(start);
    bool any_open = false;
    bool any_pending = false;

    for (std::size_t i = 0; i < result.shards.size(); ++i) {
      if (result.shards[i].state == ShardStatus::State::kPending) {
        if (now >= procs[i].next_spawn_at) {
          spawn(i);
        } else {
          any_pending = true;
        }
      }
    }

    std::vector<struct pollfd> pfds;
    std::vector<std::size_t> pfd_shard;
    for (std::size_t i = 0; i < result.shards.size(); ++i) {
      if (result.shards[i].state == ShardStatus::State::kRunning &&
          procs[i].fd >= 0) {
        pfds.push_back({procs[i].fd, POLLIN, 0});
        pfd_shard.push_back(i);
        any_open = true;
      }
    }
    if (!any_open && !any_pending) break;

    if (!pfds.empty()) {
      const int rc = ::poll(pfds.data(), pfds.size(), 20);
      if (rc < 0 && errno != EINTR) {
        YS_LOG(LogLevel::kWarn, std::string("supervisor: poll: ") +
                                    std::strerror(errno));
      }
      for (std::size_t p = 0; p < pfds.size(); ++p) {
        const std::size_t i = pfd_shard[p];
        if (pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) {
          const bool eof = drain_fd(i);
          if (eof || (pfds[p].revents & (POLLHUP | POLLERR))) {
            reap(i, /*hung=*/false);
          }
        }
      }
    } else {
      // Only backoff timers left: sleep one tick.
      ::usleep(20'000);
    }

    const double after = seconds_since(start);
    for (std::size_t i = 0; i < result.shards.size(); ++i) {
      if (result.shards[i].state != ShardStatus::State::kRunning) continue;
      const double silent = after - procs[i].last_hb;
      if (silent > hang_after) {
        reap(i, /*hung=*/true);
      } else if (silent > 2.0 * hb && !procs[i].gap_flagged) {
        procs[i].gap_flagged = true;
        char detail[64];
        std::snprintf(detail, sizeof(detail), "silent %.2fs", silent);
        emit(ShardEvent::Kind::kHeartbeatGap, i, detail);
      }
    }
  }

  result.wall_seconds = seconds_since(start);
  write_manifest(result, opt.resume_dir);
  return result;
}

void record_timeline(const SupervisorResult& result, obs::Timeline* tl) {
  if (tl == nullptr) return;
  auto labels_for = [](int shard) {
    return obs::TimelineLabels{{"axis", "wall"},
                               {"shard", std::to_string(shard)}};
  };
  for (const ShardEvent& e : result.events) {
    const i64 bucket =
        tl->bucket_of(SimTime::from_us(static_cast<i64>(e.at * 1e6)));
    tl->count_at(std::string("supervisor.") + to_string(e.kind),
                 labels_for(e.shard), bucket);
    std::string text = "shard " + std::to_string(e.shard) + " " +
                       to_string(e.kind);
    if (!e.detail.empty()) text += " (" + e.detail + ")";
    tl->annotate_bucket(bucket, "shard", text);
  }
  for (const ShardStatus& s : result.shards) {
    const obs::TimelineLabels labels = labels_for(s.part.shard);
    for (const auto& [at, done] : s.progress) {
      const i64 bucket =
          tl->bucket_of(SimTime::from_us(static_cast<i64>(at * 1e6)));
      tl->sample_at("supervisor.shard_done", labels, bucket,
                    static_cast<i64>(done));
    }
  }
}

std::string render_summary(const SupervisorResult& result) {
  std::string out = "shard  vantages  state     attempts  progress\n";
  for (const ShardStatus& s : result.shards) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%5d  [%zu,%zu)%*s%-9s %8d  %llu/%llu\n", s.part.shard,
                  s.part.vantage_begin, s.part.vantage_end, 4, " ",
                  to_string(s.state), s.attempts,
                  static_cast<unsigned long long>(s.done),
                  static_cast<unsigned long long>(s.total));
    out += line;
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                "%zu shard(s): %d restart(s), %d degraded, %.2fs wall\n",
                result.shards.size(), result.restart_count(),
                result.degraded_count(), result.wall_seconds);
  out += tail;
  return out;
}

}  // namespace ys::supervisor
