#include "runner/results_store.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/file_io.h"
#include "core/log.h"
#include "obs/metrics.h"

namespace ys::runner {

namespace {

constexpr const char* kMagic = "yourstate-results";
constexpr const char* kVersion = "v1";

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Strictly parse one record line (without its newline) as
/// `<slot> <value>`: full consumption, no leading junk, nothing trailing.
bool parse_record(const std::string& line, std::size_t* slot, i64* value) {
  const char* s = line.c_str();
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long raw_slot = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != ' ') return false;
  const char* v = end + 1;
  if (*v != '-' && (*v < '0' || *v > '9')) return false;
  errno = 0;
  const long long raw_value = std::strtoll(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0') return false;
  *slot = static_cast<std::size_t>(raw_slot);
  *value = static_cast<i64>(raw_value);
  return true;
}

/// Read the pid stamped into a lockfile; 0 when unreadable/garbled.
long read_lock_pid(const std::string& lock_path) {
  std::ifstream in(lock_path);
  if (!in) return 0;
  std::string tag;
  long pid = 0;
  in >> tag >> pid;
  if (tag != "pid" || pid <= 0) return 0;
  return pid;
}

}  // namespace

u64 ResultsStore::signature_of(const std::vector<std::string>& parts) {
  // FNV-1a over each part, with a separator byte so {"ab","c"} and
  // {"a","bc"} hash differently.
  u64 h = 1469598103934665603ULL;
  for (const std::string& p : parts) {
    for (char c : p) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0x1f;
    h *= 1099511628211ULL;
  }
  return h;
}

ResultsStore::ResultsStore(std::string dir, std::string bench, u64 signature,
                           std::size_t total, Mode mode)
    : bench_(std::move(bench)), signature_(signature), total_(total),
      mode_(mode) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    YS_LOG(LogLevel::kWarn, "results store: cannot create " + dir + ": " +
                                ec.message() + " (running without resume)");
  }
  path_ = dir + "/" + bench_ + ".results";
  if (mode_ == Mode::kWrite) acquire_lock();
  if (!conflict_) load();
}

ResultsStore::~ResultsStore() {
  if (lock_owned_) ::unlink(lock_path().c_str());
}

void ResultsStore::acquire_lock() {
  const std::string lock = lock_path();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      char stamp[96];
      const int n = std::snprintf(stamp, sizeof(stamp), "pid %ld sig=%s\n",
                                  static_cast<long>(::getpid()),
                                  hex64(signature_).c_str());
      if (n > 0) {
        const ssize_t written = ::write(fd, stamp, static_cast<size_t>(n));
        (void)written;
      }
      ::close(fd);
      lock_owned_ = true;
      return;
    }
    if (errno != EEXIST) {
      YS_LOG(LogLevel::kWarn, "results store: cannot stamp " + lock + ": " +
                                  std::strerror(errno) +
                                  " (running unlocked)");
      return;
    }
    const long owner = read_lock_pid(lock);
    if (owner > 0 &&
        (::kill(static_cast<pid_t>(owner), 0) == 0 || errno == EPERM)) {
      // A live process owns this bench in this directory — including this
      // very process (two stores on one path interleave appends just as
      // destructively as two processes do). Refuse: the store goes inert
      // and the caller fails fast. Sequential reopens are fine because the
      // owner's destructor unlinks the lock first.
      conflict_ = true;
      conflict_pid_ = owner;
      YS_LOG(LogLevel::kWarn,
             "results store: " + path_ + " is owned by live pid " +
                 std::to_string(owner) +
                 " — refusing to share a resume dir (see " + lock + ")");
      return;
    }
    // Dead owner (or unreadable stamp): the previous run crashed without
    // cleanup. Steal the lock and retry the exclusive create once.
    YS_LOG(LogLevel::kInfo,
           "results store: stealing stale lock " + lock +
               (owner > 0 ? " (pid " + std::to_string(owner) + " is gone)"
                          : " (unreadable stamp)"));
    ::unlink(lock.c_str());
  }
  YS_LOG(LogLevel::kWarn,
         "results store: lock " + lock + " keeps reappearing (running unlocked)");
}

void ResultsStore::load() {
  const std::optional<std::string> file = read_file(path_);
  if (!file) return;  // no prior run: start fresh
  const std::string& text = *file;

  std::size_t pos = text.find('\n');
  if (pos == std::string::npos) return;  // header torn mid-write: fresh run
  {
    std::istringstream hs(text.substr(0, pos));
    std::string magic, version, bench, sig_field, total_field;
    hs >> magic >> version >> bench >> sig_field >> total_field;
    const std::string want_sig = "sig=" + hex64(signature_);
    const std::string want_total = "total=" + std::to_string(total_);
    if (magic != kMagic || version != kVersion || bench != bench_ ||
        sig_field != want_sig || total_field != want_total) {
      YS_LOG(LogLevel::kWarn,
             "results store: " + path_ +
                 " header does not match this run (different grid, plan, or "
                 "seed) — ignoring it and starting fresh");
      return;
    }
  }
  ++pos;  // past the header newline

  // Strict record scan. A record is valid only as a complete
  // `<slot> <value>\n` line with slot < total; the first violation —
  // including a final line with no newline, i.e. a write cut short by a
  // kill — drops that record and the whole remaining tail, because
  // anything after a torn write is unverifiable.
  std::size_t loaded = 0;
  std::size_t dropped = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      ++dropped;  // torn trailing record (no newline)
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    std::size_t slot = 0;
    i64 value = 0;
    if (!parse_record(line, &slot, &value) || slot >= total_) {
      // Count the malformed record plus every line after it.
      ++dropped;
      for (std::size_t p = eol + 1; p < text.size();) {
        ++dropped;
        const std::size_t next = text.find('\n', p);
        if (next == std::string::npos) break;
        p = next + 1;
      }
      break;
    }
    slots_[slot] = value;  // duplicate slots: last write wins
    ++loaded;
    pos = eol + 1;
  }

  resumed_ = true;
  header_written_ = true;
  obs::MetricsRegistry::current()
      .counter("runner.resume_slots_loaded")
      .inc(loaded);
  if (dropped > 0) {
    obs::MetricsRegistry::current()
        .counter("runner.resume_slots_dropped")
        .inc(dropped);
    YS_LOG(LogLevel::kWarn,
           "results store: " + path_ + " has a corrupt tail — dropped " +
               std::to_string(dropped) +
               " unverifiable record(s); those slots will re-run");
    if (mode_ == Mode::kWrite) {
      // Rewrite with only the verified records so future appends cannot
      // land after garbage.
      std::lock_guard<std::mutex> lock(mu_);
      rewrite_locked();
    }
  }
  YS_LOG(LogLevel::kInfo, "results store: resumed " + std::to_string(loaded) +
                              "/" + std::to_string(total_) + " slots from " +
                              path_);
}

void ResultsStore::rewrite_locked() {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    YS_LOG(LogLevel::kWarn, "results store: cannot write " + path_);
    return;
  }
  out << kMagic << ' ' << kVersion << ' ' << bench_ << " sig=" << hex64(signature_)
      << " total=" << total_ << '\n';
  for (const auto& [slot, value] : slots_) {
    out << slot << ' ' << value << '\n';
  }
  out.flush();
  header_written_ = true;
}

bool ResultsStore::has(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.count(slot) > 0;
}

std::optional<i64> ResultsStore::get(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) return std::nullopt;
  return it->second;
}

void ResultsStore::put(std::size_t slot, i64 value) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[slot] = value;
  if (mode_ == Mode::kReadOnly || conflict_) return;  // memory-only
  if (!header_written_) {
    // First write of a fresh (or invalidated) run: lay down the header and
    // everything recorded so far in one pass.
    rewrite_locked();
    return;
  }
  std::ofstream out(path_, std::ios::app);
  if (!out) return;
  out << slot << ' ' << value << '\n';
  out.flush();
}

bool ResultsStore::range_complete(std::size_t begin, std::size_t end) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = begin; i < end; ++i) {
    if (slots_.count(i) == 0) return false;
  }
  return true;
}

std::size_t ResultsStore::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

std::vector<std::pair<std::size_t, i64>> ResultsStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::size_t, i64>> out(slots_.begin(), slots_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ys::runner
