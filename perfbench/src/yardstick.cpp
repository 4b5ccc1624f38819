// The host-speed yardstick (see bench.hpp).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

// Keeps the bursts' results alive so the compiler cannot drop the work.
std::atomic<std::uint64_t> g_sink{0};

std::uint64_t hash_of(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

void cpu_part() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::string, std::uint64_t> by_name;
  std::map<std::uint64_t, std::string> by_hash;
  std::vector<std::uint64_t> hashes;
  std::string blob;
  for (int i = 0; i < 3000; ++i) {
    std::string s;
    std::size_t len = 8 + next() % 120;
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + next() % 26));
    }
    std::uint64_t h = hash_of(s);
    by_name[s] += h;
    by_hash.emplace(h, s);
    hashes.push_back(h);
    blob += s;
  }
  std::sort(hashes.begin(), hashes.end());
  std::vector<char> copy;
  for (int r = 0; r < 8; ++r) copy.assign(blob.begin(), blob.end());
  g_sink.fetch_add(by_name.size() + by_hash.begin()->first +
                       hashes[hashes.size() / 2] +
                       static_cast<unsigned char>(copy[copy.size() / 2]),
                   std::memory_order_relaxed);
}

// Round trips of one byte between two threads over a socket pair: the
// wake-ups a daemon round trip pays. Each side closes its end when done,
// so a failure on either side ends the other's loop too.
void wake_part() {
  constexpr int kTrips = 100;
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw Error("yardstick: socketpair failed");
  }
  std::thread echo([fd = sv[1]] {
    char c;
    for (int i = 0; i < kTrips; ++i) {
      if (read(fd, &c, 1) != 1 || write(fd, &c, 1) != 1) break;
    }
    close(fd);
  });
  char c = 'y';
  for (int i = 0; i < kTrips; ++i) {
    if (write(sv[0], &c, 1) != 1 || read(sv[0], &c, 1) != 1) break;
  }
  close(sv[0]);
  echo.join();
}

}  // namespace

void Yardstick::burst() {
  YardstickSample s;
  std::int64_t t0 = now_ns();
  cpu_part();
  std::int64_t t1 = now_ns();
  wake_part();
  std::int64_t t2 = now_ns();
  s.at_ns = t2;
  s.cpu_ms = ns_to_ms(t1 - t0);
  s.wake_ms = ns_to_ms(t2 - t1);
  samples_.push_back(s);
  last_ns_ = t2;
}

std::int64_t Yardstick::maybe_burst(std::int64_t every_ns) {
  std::int64_t now = now_ns();
  if (now - last_ns_ < every_ns) return 0;
  burst();
  return now_ns() - now;
}

Yardstick& yardstick() {
  static Yardstick instance;
  return instance;
}

double host_slowdown(std::int64_t at_ns, bool wake, std::size_t near) {
  const std::vector<YardstickSample>& all = yardstick().samples();
  if (all.empty()) return 1.0;
  std::ptrdiff_t n = static_cast<std::ptrdiff_t>(all.size());
  std::ptrdiff_t k = near == 0 ? n : static_cast<std::ptrdiff_t>(near);
  // Bursts are recorded in time order: take the k around at_ns.
  auto it = std::lower_bound(
      all.begin(), all.end(), at_ns,
      [](const YardstickSample& s, std::int64_t t) { return s.at_ns < t; });
  std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(
      (it - all.begin()) - k / 2, 0, std::max<std::ptrdiff_t>(n - k, 0));
  std::vector<double> times;
  for (std::ptrdiff_t i = lo; i < std::min(n, lo + k); ++i) {
    times.push_back(all[i].cpu_ms + (wake ? all[i].wake_ms : 0.0));
  }
  std::sort(times.begin(), times.end());
  std::size_t m = times.size();
  double mid = m % 2 ? times[m / 2] : (times[m / 2 - 1] + times[m / 2]) / 2.0;
  return mid / (kReferenceCpuMs + (wake ? kReferenceWakeMs : 0.0));
}

}  // namespace perfbench
